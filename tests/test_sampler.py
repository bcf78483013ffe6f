"""Lazy symmetric chain over the static proposal list."""

import random
from collections import Counter

import pytest

from octadimer.covering import impurities, validate_covering
from octadimer.lattice import InvalidInputError
from octadimer.moves import t_sites, unit_squares
from octadimer.oracle import enumerate_coverings
from octadimer.sampler import (RNG_ALGORITHM, ChainConfig, proposal_sites,
                               run, step)
from octadimer.temperley import initial_covering

from conftest import unit_square_graph


def test_config_validation():
    with pytest.raises(InvalidInputError):
        ChainConfig(seed=1, steps=-1)
    with pytest.raises(InvalidInputError):
        ChainConfig(seed=1, steps=10, burn_in=-1)
    with pytest.raises(InvalidInputError):
        ChainConfig(seed=1, steps=10, sample_every=0)


def test_proposal_sites(ell):
    sites = proposal_sites(ell.g)
    assert len(sites) == len(unit_squares(ell.g)) + len(t_sites(ell.g)) == 35
    assert {s[0] for s in sites} == {"s", "t"}


def test_proposal_sites_hold_the_graphs_own_vertices(ell):
    # the cached list adds references, not copies of the vertex tuples
    own = {id(v) for v in ell.g.vertices}
    sites = proposal_sites(ell.g)
    assert sites is proposal_sites(ell.g)
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
    r1 = run(m0, cfg, track_states=True)
    r2 = run(m0, cfg, track_states=True)
    assert r1.final == r2.final
    assert r1.accepted == r2.accepted
    assert r1.impurity_counts == r2.impurity_counts
    assert r1.state_counts == r2.state_counts
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


def test_two_state_chain_alternates():
    # the unit square has one proposal site, always applicable, so the
    # chain flips deterministically; every=2 would alias to one state
    g = unit_square_graph()
    h = validate_covering(g, [((0, 0), (1, 0)), ((0, 1), (1, 1))])
    rep = run(h, ChainConfig(seed=2, steps=20000), track_states=True)
    assert rep.acceptance_rate == 1.0
    assert sorted(rep.state_counts.values()) == [10000, 10000]


def test_visits_all_strip_states(strip1):
    m0 = initial_covering(strip1)
    rep = run(m0, ChainConfig(seed=11, steps=30000, sample_every=3),
              track_states=True)
    assert len(rep.state_counts) == len(enumerate_coverings(strip1.g)) == 12
    tv = 0.5 * sum(abs(c / rep.n_samples - 1 / 12)
                   for c in rep.state_counts.values())
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
