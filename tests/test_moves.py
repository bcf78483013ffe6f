"""s/t local moves, their involution structure, and t-classes.

reference_t_class is the walk t_class replaced: every site of the graph
is scanned through find_moves for each class member, and each t-move is
applied to a set of dimers.  t_class, t_classes and class_bijection are
checked against it.  t_class and move_graph_connected validate only the
covering they start from, so the members they build unchecked are
checked here against validate_covering.  A move is undone by the one
move find_moves offers back (move_back), so the second state of each
site is read by site_move alone.
"""

from collections import Counter

import pytest

from octadimer.covering import (CoveringError, DimerCovering, impurities,
                                validate_covering)
from octadimer.lattice import build_region, edge, reach, strip_region
from octadimer.moves import (IncompleteCoveringSetError,
                             InapplicableMoveError, LocalMove, _moved,
                             apply_move, find_moves, move_graph_connected,
                             proposal_sites, site_move, swap, t_class,
                             t_classes, t_sites, unit_squares)
from octadimer.oracle import enumerate_coverings
from octadimer.sampler import ChainConfig, run
from octadimer.temperley import class_bijection, initial_covering, phi

from conftest import unit_square_graph
from test_kirchhoff import polyomino_region, square_region


def reference_apply(m, mv):
    dimers = set(m.dimers)
    for e in mv.removes:
        dimers.remove(e)
    dimers.update(mv.adds)
    return validate_covering(m.graph, dimers)


def move_back(m2, mv):
    """The one move of m2 that removes mv's added edges and adds its
    removed ones: the move that undoes mv."""
    back = [b for b in find_moves(m2) if b.kind == mv.kind
            and set(b.removes) == set(mv.adds)
            and set(b.adds) == set(mv.removes)]
    assert len(back) == 1, back
    return back[0]


def reference_t_class(m):
    return reach([m], lambda cur: [reference_apply(cur, mv)
                                   for mv in find_moves(cur)
                                   if mv.kind == "t"])


def reference_t_classes(coverings):
    remaining = set(coverings)
    classes = []
    while remaining:
        cls = reference_t_class(min(remaining, key=lambda c: c.dimers))
        remaining -= cls
        classes.append(cls)
    return classes


def reference_class_bijection(tri, coverings):
    out = {}
    for cls in reference_t_classes(coverings):
        rep = min(cls, key=lambda c: c.dimers)
        hit, = [c for c in cls if tri.e_star1 in c.dimers]
        n_covering = validate_covering(
            tri.n, [d for d in hit.dimers if d != tri.e_star1])
        out[rep] = phi(tri, n_covering)
    return out


@pytest.fixture(scope="module")
def strip_coverings():
    return [enumerate_coverings(build_region(strip_region(n)).g)
            for n in (2, 3, 4)]


def test_site_counts(ell):
    assert len(unit_squares(ell.g)) == 13
    assert len(t_sites(ell.g)) == 22


def test_unit_square_sites():
    g = unit_square_graph()
    assert unit_squares(g) == [((0, 0), (1, 0), (1, 1), (0, 1))]
    assert t_sites(g) == []


def test_s_move_flips_square():
    g = unit_square_graph()
    h = validate_covering(g, [((0, 0), (1, 0)), ((0, 1), (1, 1))])
    mvs = find_moves(h)
    assert len(mvs) == 1 and mvs[0].kind == "s"
    v = apply_move(h, mvs[0])
    assert v.dimers == (((0, 0), (0, 1)), ((1, 0), (1, 1)))
    assert apply_move(v, move_back(v, mvs[0])) == h


def test_initial_covering_moves(ell):
    m = initial_covering(ell)
    mvs = find_moves(m)
    assert len(mvs) == 7
    assert sorted(Counter(mv.kind for mv in mvs).items()) == [("s", 6),
                                                              ("t", 1)]
    for mv in mvs:
        m2 = apply_move(m, mv)
        assert m2 != m
        assert apply_move(m2, move_back(m2, mv)) == m
        assert len(impurities(m2)) == len(impurities(m))


def test_inapplicable_move(ell):
    m = initial_covering(ell)
    mv = find_moves(m)[0]
    m2 = apply_move(m, mv)
    with pytest.raises(InapplicableMoveError):
        apply_move(m2, mv)


def test_degenerate_move_is_inapplicable(ell):
    # both removed edges name the same dimer of m
    m = initial_covering(ell)
    a, b = m.dimers[0]
    with pytest.raises(InapplicableMoveError):
        apply_move(m, LocalMove("s", a, b, a, b))


def test_move_relation_symmetric(ell, ell_coverings):
    # u reaches v by mv iff v reaches u by the one move of v that
    # swaps mv's removed and added edge pairs
    for m in ell_coverings[::37]:
        for mv in find_moves(m):
            m2 = apply_move(m, mv)
            assert apply_move(m2, move_back(m2, mv)) == m


def test_t_classes_partition(ell, ell_coverings):
    classes = t_classes(ell_coverings)
    assert len(classes) == 56
    assert sorted(Counter(len(c) for c in classes).items()) == [
        (3, 30), (7, 16), (11, 6), (15, 4)]
    seen = set()
    for c in classes:
        assert not (c & seen)
        seen |= c
    assert seen == set(ell_coverings)


def test_t_classes_rejects_a_set_not_closed_under_t_moves(ell):
    cls = t_class(initial_covering(ell))
    assert len(cls) > 1
    with pytest.raises(IncompleteCoveringSetError):
        t_classes(list(cls)[:1])


def test_t_class_matches_reference(ell_coverings, strip_coverings):
    for coverings in [ell_coverings] + strip_coverings:
        for m in coverings:
            assert t_class(m) == reference_t_class(m)


def test_t_classes_and_bijection_match_reference(ell, ell_coverings,
                                                 strip1, strip_coverings):
    tee = build_region(polyomino_region(4, 4))      # a T of four faces
    cases = [(ell, ell_coverings), (strip1, enumerate_coverings(strip1.g)),
             (tee, enumerate_coverings(tee.g))]
    cases += [(build_region(strip_region(n)), ms)
              for n, ms in zip((2, 3, 4), strip_coverings)]
    for tri, coverings in cases:
        assert t_classes(coverings) == reference_t_classes(coverings)
        got = class_bijection(tri, coverings)
        want = reference_class_bijection(tri, coverings)
        assert list(got.items()) == list(want.items())


@pytest.mark.parametrize("k", [4, 8, 12])
def test_site_edges_stay_in_g(k):
    # a site-derived move removes two of {a,b},{b,c},{c,d},{d,a} and
    # adds the other two, in either state of the site
    g = build_region(square_region(k)).g
    for _, a, b, c, d in proposal_sites(g):
        for u, v in ((a, b), (b, c), (c, d), (d, a)):
            assert edge(u, v) in g.own_edges


def test_t_class_of_initial(ell):
    m = initial_covering(ell)
    c = t_class(m)
    assert m in c
    # class closed under t-moves
    for m2 in c:
        for mv in find_moves(m2):
            if mv.kind == "t":
                assert apply_move(m2, mv) in c


def test_move_graph_connected(ell, ell_coverings, strip1, strip2):
    assert move_graph_connected(ell.g, ell_coverings)
    assert move_graph_connected(ell.g, ell_coverings[::-1])
    # a covering supplied twice is one covering
    assert move_graph_connected(ell.g, ell_coverings + [ell_coverings[5]])
    assert move_graph_connected(strip1.g, enumerate_coverings(strip1.g))
    assert move_graph_connected(strip2.g, enumerate_coverings(strip2.g))


def test_move_graph_connected_rejects_a_set_not_closed_under_moves(
        ell, ell_coverings):
    m0 = ell_coverings[0]
    near = {apply_move(m0, mv) for mv in find_moves(m0)} | {m0}
    far = [m for m in ell_coverings if m not in near][:6]
    with pytest.raises(IncompleteCoveringSetError):
        move_graph_connected(ell.g, [m0] + far)
    with pytest.raises(IncompleteCoveringSetError):
        move_graph_connected(ell.g, ell_coverings[:-1])


def wrong_mate(m):
    """m's dimers with the mate map of one of its moves applied."""
    mate = m.mate_map()
    mv = find_moves(m)[0]
    swap(mate, mv.a, mv.b, mv.c, mv.d)
    return DimerCovering(m.graph, m.dimers, mate)


def test_walks_reject_a_mate_map_that_disagrees_with_the_dimers(
        ell, ell_coverings):
    m = initial_covering(ell)
    with pytest.raises(CoveringError):
        t_class(wrong_mate(m))
    with pytest.raises(CoveringError):
        move_graph_connected(ell.g, [wrong_mate(m)] + ell_coverings)
    first, *rest = sorted(ell_coverings, key=lambda c: c.dimers)
    with pytest.raises(CoveringError):     # a class's least member
        t_classes([wrong_mate(first)] + rest)
    with pytest.raises(CoveringError):     # the chain trusts its moves too
        run(wrong_mate(m), ChainConfig(seed=1, steps=2000))
    with pytest.raises(CoveringError):     # dimers that cover nothing
        t_class(DimerCovering(ell.g, m.dimers[1:], m.mate_map()))


def test_keyed_walks_read_only_the_mate_maps_they_start_from(
        ell, ell_coverings):
    # the other coverings are found by their dimers' edge bits, so a
    # mate map that disagrees with them is never read
    start, *rest = ell_coverings
    assert move_graph_connected(ell.g,
                                [start] + [wrong_mate(m) for m in rest])
    starts = {min(cls, key=lambda c: c.dimers)
              for cls in t_classes(ell_coverings)}
    mixed = [m if m in starts else wrong_mate(m) for m in ell_coverings]
    assert t_classes(mixed) == t_classes(ell_coverings)


def test_keyed_walks_reject_a_covering_of_another_region(
        ell, ell_coverings, strip_coverings):
    foreign = strip_coverings[-1][0]    # strip 4 reaches past ell's G
    with pytest.raises(CoveringError):
        move_graph_connected(ell.g, ell_coverings + [foreign])
    with pytest.raises(CoveringError):
        t_classes(ell_coverings + [foreign])


def test_swap_twice_at_a_site_is_the_identity(ell_coverings):
    # swap the move a site supports, read the site again and swap back
    for m in ell_coverings[::37]:
        for site in proposal_sites(m.graph):
            mate = m.mate_map()
            mv = site_move(mate, site)
            if mv is None:
                continue
            swap(mate, *mv)
            assert mate != m.mate_map()
            back = site_move(mate, site)
            assert (set(LocalMove(site[0], *back).removes)
                    == set(LocalMove(site[0], *mv).adds))
            swap(mate, *back)
            assert mate == m.mate_map()


def test_trusted_move_matches_apply_move(ell_coverings):
    for m in ell_coverings[::37]:
        for site in proposal_sites(m.graph):
            mv = site_move(m.mate_view(), site)
            if mv is None:
                continue
            got = _moved(m, *mv)
            want = apply_move(m, LocalMove(site[0], *mv))
            assert got.dimers == want.dimers
            assert got.mate_map() == want.mate_map()


CHAIN_REGIONS = {"strip%d" % n: strip_region(n) for n in (1, 2, 3, 4)}
CHAIN_REGIONS.update(("square%d" % k, square_region(k)) for k in (4, 8))


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(CHAIN_REGIONS))
def test_t_class_members_are_valid_coverings(name, seed):
    # every member the walk builds unchecked is what validate_covering
    # makes of its dimers, down to the graph's own edge tuples; and
    # t_classes, which keys a supplied set by the same walk, finds the
    # same one class (up to 142 members on these 8x8 samples)
    tri = build_region(CHAIN_REGIONS[name])
    report = run(initial_covering(tri),
                 ChainConfig(seed=seed, steps=40000, sample_every=10000),
                 keep_trajectory=True)
    for dimers in report.trajectory:
        m = validate_covering(tri.g, dimers)
        cls = t_class(m)
        for member in cls:
            checked = validate_covering(tri.g, member.dimers)
            assert member.graph is tri.g
            assert member.dimers == checked.dimers
            assert all(e is tri.g.own_edges[e] for e in member.dimers)
            assert member.mate_map() == checked.mate_map()
        assert cls == reference_t_class(m)
        assert t_classes(list(cls)) == [cls]
