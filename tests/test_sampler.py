"""Lazy symmetric chain over the static proposal list."""

import random
from collections import Counter
from itertools import chain, islice

import pytest

from octadimer.covering import impurities, validate_covering
from octadimer.lattice import (InvalidInputError, build_normal_graph,
                               build_region, edge)
from octadimer.moves import (proposal_sites, site_move, site_table, t_sites,
                             unit_squares)
from octadimer.oracle import enumerate_coverings
from octadimer.sampler import (BLOCK_WORDS, RNG_ALGORITHM, ChainConfig,
                               SampleReport, _site_blocks, run, step)
from octadimer.temperley import initial_covering

from conftest import unit_square_graph
from test_kirchhoff import square_region


@pytest.fixture(scope="module")
def square8():
    return build_region(square_region(8))


def test_config_validation():
    with pytest.raises(InvalidInputError):
        ChainConfig(seed=1, steps=-1)
    with pytest.raises(InvalidInputError):
        ChainConfig(seed=1, steps=10, burn_in=-1)
    with pytest.raises(InvalidInputError):
        ChainConfig(seed=1, steps=10, sample_every=0)
    for bad in (dict(steps=2.5), dict(steps=10, burn_in=1.0),
                dict(steps=10, sample_every=1.5), dict(steps="10"),
                # bool is an int subclass; True would pass as 1
                dict(steps=True), dict(steps=10, burn_in=False),
                dict(steps=10, sample_every=True)):
        with pytest.raises(InvalidInputError):
            ChainConfig(seed=1, **bad)
    for seed in ([1], 1.5, "1", None, True):
        with pytest.raises(InvalidInputError):
            ChainConfig(seed=seed, steps=10)
    # random.Random(-4) is random.Random(4): a negative seed would run
    # another seed's chain under its own name
    assert random.Random(-4).getstate() == random.Random(4).getstate()
    for seed in (-1, -4, -2 ** 40):
        with pytest.raises(InvalidInputError):
            ChainConfig(seed=seed, steps=10)
    assert ChainConfig(seed=0, steps=10).seed == 0


def test_proposal_sites(ell):
    sites = proposal_sites(ell.g)
    assert len(sites) == len(unit_squares(ell.g)) + len(t_sites(ell.g)) == 35
    assert {s[0] for s in sites} == {"s", "t"}


def test_proposal_sites_hold_the_graphs_own_vertices(ell):
    # the list adds references, not copies of the vertex tuples
    own = {id(v) for v in ell.g.vertices}
    sites = proposal_sites(ell.g)
    assert all(id(v) in own for site in sites for v in site[1:])


def test_zero_steps_is_identity(ell):
    m0 = initial_covering(ell)
    rep = run(m0, ChainConfig(seed=5, steps=0))
    assert rep.final == m0
    assert rep.n_samples == 0 and rep.accepted == 0
    assert rep.acceptance_rate == 0.0
    assert rep.impurity_frequencies() == {}


def test_step_is_functional(ell):
    m0 = initial_covering(ell)
    rng = random.Random(0)
    for _ in range(60):
        before = m0.dimers
        m1 = step(m0, rng)
        assert m0.dimers == before
        m0 = m1


@pytest.mark.parametrize("name", ["ell", "strip2"])
def test_steps_replay_run(request, name):
    # step and run draw the same site sequence from the same seed
    tri = request.getfixturevalue(name)
    m0 = initial_covering(tri)
    for seed in (0, 7):
        rng = random.Random(seed)
        m = m0
        for _ in range(300):
            m1 = step(m, rng)
            assert (m1 is m) == (m1 == m)   # a hold returns m itself
            m = m1
        assert m == run(m0, ChainConfig(seed=seed, steps=300)).final


def test_deterministic_given_seed(ell):
    m0 = initial_covering(ell)
    cfg = ChainConfig(seed=123, steps=4000, sample_every=7)
    r1 = run(m0, cfg, keep_trajectory=True)
    r2 = run(m0, cfg, keep_trajectory=True)
    assert r1.final == r2.final
    assert r1.accepted == r2.accepted
    assert r1.impurity_counts == r2.impurity_counts
    assert r1.trajectory == r2.trajectory
    assert r1.rng_algorithm == RNG_ALGORITHM
    r3 = run(m0, ChainConfig(seed=124, steps=4000, sample_every=7))
    assert r3.impurity_counts != r1.impurity_counts


def test_trajectory_is_valid(strip1):
    m0 = initial_covering(strip1)
    rep = run(m0, ChainConfig(seed=9, steps=400), keep_trajectory=True)
    assert len(rep.trajectory) == 400
    k = len(impurities(m0))
    for dimers in rep.trajectory[::23]:
        m = validate_covering(strip1.g, dimers)
        assert len(impurities(m)) == k


def test_kept_states_share_the_graph_edges(ell):
    # a kept state holds g's own edge tuples, not a fresh pair per dimer
    rep = run(initial_covering(ell), ChainConfig(seed=5, steps=500),
              keep_trajectory=True)
    own = ell.g.own_edges
    assert len(set(rep.trajectory)) > 1
    assert all(d is own[d] for dimers in rep.trajectory for d in dimers)


def test_two_state_chain_alternates():
    # the unit square has one proposal site, always applicable, so the
    # chain flips deterministically; every=2 would alias to one state
    g = unit_square_graph()
    h = validate_covering(g, [((0, 0), (1, 0)), ((0, 1), (1, 1))])
    rep = run(h, ChainConfig(seed=2, steps=20000), keep_trajectory=True)
    assert rep.acceptance_rate == 1.0
    assert sorted(Counter(rep.trajectory).values()) == [10000, 10000]


def test_visits_all_strip_states(strip1):
    m0 = initial_covering(strip1)
    rep = run(m0, ChainConfig(seed=11, steps=30000, sample_every=3),
              keep_trajectory=True)
    states = Counter(rep.trajectory)
    assert len(states) == len(enumerate_coverings(strip1.g)) == 12
    tv = 0.5 * sum(abs(c / rep.n_samples - 1 / 12) for c in states.values())
    assert tv < 0.08


def test_burn_in_and_thinning_counts(ell):
    m0 = initial_covering(ell)
    rep = run(m0, ChainConfig(seed=4, steps=1000, burn_in=100,
                              sample_every=30))
    assert rep.n_samples == 30  # ceil(900 / 30)
    total = sum(rep.impurity_counts.values())
    assert total == rep.n_samples  # k = 1: one impurity per sample
    freqs = rep.impurity_frequencies()
    assert abs(sum(freqs.values()) - 1.0) < 1e-9


def _start(request, name):
    if name == "unit_square":
        return validate_covering(unit_square_graph(),
                                 [((0, 0), (1, 0)), ((0, 1), (1, 1))])
    fixture = request.getfixturevalue(name)
    return fixture if name == "diamond" else initial_covering(fixture)


@pytest.mark.parametrize("name", ["ell", "strip2", "diamond", "unit_square"])
@pytest.mark.parametrize("every", [1, 3, 7])
@pytest.mark.parametrize("burn_in", [0, 5])
def test_impurity_counts_match_trajectory(request, name, every, burn_in):
    # run tracks the impurities through t-moves; a scan of every kept
    # state must give the same counts
    m0 = _start(request, name)
    rep = run(m0, ChainConfig(seed=17, steps=500, burn_in=burn_in,
                              sample_every=every), keep_trajectory=True)
    tally = Counter(e for dimers in rep.trajectory
                    for e in impurities(validate_covering(m0.graph, dimers)))
    assert rep.impurity_counts == dict(tally)
    assert len(rep.trajectory) == rep.n_samples
    if name == "unit_square":
        assert rep.impurity_counts == {}
    if name == "diamond":
        assert sum(tally.values()) == 4 * rep.n_samples


def reference_sites(g):
    """The proposal list stated from the squares and t-sites, not
    through the site table the chain draws from."""
    return ([("s",) + sq for sq in unit_squares(g)]
            + [("t",) + site for site in t_sites(g)])


def reference_run(m0, cfg, keep_trajectory=False):
    """The per-step chain: one randrange and one thinning test per step."""
    g = m0.graph
    sites = reference_sites(g)
    mate = m0.mate_map()
    impurity_set = set(impurities(m0))
    rng = random.Random(cfg.seed)
    accepted = n_samples = 0
    impurity_counts, trajectory = {}, []
    for i in range(cfg.steps):
        mv = None
        if sites:
            site = sites[rng.randrange(len(sites))]
            mv = site_move(mate, site)
        if mv is not None:
            a, b, c, d = mv
            mate[a], mate[d], mate[b], mate[c] = d, a, c, b
            accepted += 1
            if site[0] == "t":
                impurity_set.remove(edge(a, b))
                impurity_set.add(edge(b, c))
        if i >= cfg.burn_in and (i - cfg.burn_in) % cfg.sample_every == 0:
            n_samples += 1
            for e in impurity_set:
                impurity_counts[e] = impurity_counts.get(e, 0) + 1
            if keep_trajectory:
                trajectory.append(
                    tuple(sorted((v, w) for v, w in mate.items() if v < w)))
    final = validate_covering(g, [(v, w) for v, w in mate.items() if v < w])
    return SampleReport(cfg, final, accepted, n_samples,
                        impurity_counts, trajectory)


def _fields(rep):
    return (rep.config, rep.final, rep.accepted, rep.n_samples,
            list(rep.impurity_counts.items()), rep.trajectory,
            rep.rng_algorithm)


def _reference_configs(name):
    if name == "square8":
        # long runs on a large square, where the impurity moves: the
        # small regions see few t-moves
        return [ChainConfig(seed=20000 + every, steps=20000,
                            burn_in=burn_in, sample_every=every)
                for burn_in in (0, 1000) for every in (1, 100)]
    return [ChainConfig(seed=steps + every, steps=steps, burn_in=burn_in,
                        sample_every=every)
            for steps in (0, 1, 500) for burn_in in (0, 5, steps, steps + 3)
            for every in (1, 3, 7, 100)]


@pytest.mark.parametrize("name", ["ell", "strip2", "diamond", "unit_square",
                                  "square8"])
@pytest.mark.parametrize("keep_trajectory", [False, True])
def test_run_matches_reference(request, name, keep_trajectory):
    # counting per interval gives what sampling each step gives, in the
    # same dict insertion order, and the indexed mate list moves as the
    # reference's mate map does
    m0 = _start(request, name)
    for cfg in _reference_configs(name):
        got = run(m0, cfg, keep_trajectory)
        want = reference_run(m0, cfg, keep_trajectory)
        assert _fields(got) == _fields(want), cfg
        if name == "square8":
            assert len(got.impurity_counts) > 1, cfg


@pytest.mark.parametrize("name", ["ell", "strip2", "diamond", "unit_square",
                                  "square8"])
def test_site_table_maps_back_onto_proposal_sites(request, name):
    # run and step draw from the indexed sites; the same draws pick the
    # sites the reference chain picks because the lists agree entry by
    # entry, in order, and proposal_sites is the table mapped back
    m0 = _start(request, name)
    g = m0.graph
    table = site_table(g)
    assert table is site_table(g)
    assert table.vertices == g.vertices
    assert table.index == {v: i for i, v in enumerate(g.vertices)}
    assert [(kind,) + tuple(table.vertices[i] for i in site)
            for kind, *site in table.sites] == reference_sites(g)
    assert list(proposal_sites(g)) == reference_sites(g)
    # index order is coordinate order, so edge() of two indices is the
    # canonical edge of their vertices
    assert all(tuple(table.vertices[i] for i in edge(j, k))
               == edge(table.vertices[j], table.vertices[k])
               for _, *site in table.sites for j in site for k in site)
    mate = table.mate_list(m0)
    assert all(table.vertices[mate[table.index[v]]] == m0.mate(v)
               for v in g.vertices)
    assert table.dimers(mate) == m0.dimers


def test_run_keeps_no_vertex_site_list():
    # the chain keeps the indexed table per graph; proposal_sites maps it
    # back to vertices on each call and nothing keeps that list
    tri = build_region(square_region(3))
    report = run(initial_covering(tri), ChainConfig(seed=5, steps=500))
    assert report.accepted > 0
    assert vars(tri.g)["octadimer.moves.site_table"] is site_table(tri.g)
    assert proposal_sites(tri.g) is not proposal_sites(tri.g)


@pytest.mark.parametrize("n", [1, 2, 3, 179, 256, 257, 739, 1025, 1683,
                               3011, 6819, 2 ** 16 - 1, 2 ** 16, 2 ** 20 + 1,
                               2 ** 31, 2 ** 31 + 1, 2 ** 32 - 1])
def test_block_draws_equal_randrange(n):
    # 257 and 1025 sit just above a power of two, where nearly half the
    # words are drawn again; the draws span several blocks.  The mask's
    # width k = n.bit_length() steps up at 256, 2**16 - 1 -> 2**16 and
    # 2**31, where k = 32 and the block is not shifted at all
    count = 3 * BLOCK_WORDS
    for seed in (0, 1, 2024):
        blocks = _site_blocks(range(n), random.Random(seed))
        ref = random.Random(seed)
        assert (list(islice(chain.from_iterable(blocks), count))
                == [ref.randrange(n) for _ in range(count)])


def test_no_sites_holds_without_drawing():
    g = build_normal_graph({(0, 0), (1, 0)})
    m0 = validate_covering(g, [((0, 0), (1, 0))])
    assert proposal_sites(g) == ()
    assert list(_site_blocks((), random.Random(0))) == []
    rng = random.Random(4)
    state = rng.getstate()
    assert step(m0, rng) is m0
    assert rng.getstate() == state
    cfg = ChainConfig(seed=4, steps=50, burn_in=5, sample_every=3)
    rep = run(m0, cfg, keep_trajectory=True)
    key = tuple(m0.dimers)
    assert rep.final == m0 and rep.accepted == 0
    assert rep.n_samples == 15      # ceil(45 / 3)
    assert rep.impurity_counts == {}
    assert rep.trajectory == [key] * 15
    assert _fields(rep) == _fields(reference_run(m0, cfg,
                                                 keep_trajectory=True))
