"""Property-based checks over random small regions and coverings.

Regions are grown as short random walks of unit faces from (1,1); the
root pair (f*, v*) is the first legal choice on the boundary.  Up to
four faces the resulting G stays within the oracle's vertex budget, so
every randomized identity below is checked exactly.  The integer
elimination is also compared with the Fraction reference of
test_kirchhoff.py on walks of up to 13 faces, beyond the oracle.
"""

from hypothesis import assume, given, settings, strategies as st

from octadimer.covering import expected_impurity_count, impurities
from octadimer.kirchhoff import (build_system, coverings_with_impurity,
                                 solve_p, total_coverings, tree_count)
from octadimer.lattice import (BLACK, W0, W1, classify_vertex, diagonal_edges,
                               edge, gamma_neighbors, is_black, is_white)
from octadimer.moves import apply_move, find_moves
from octadimer.oracle import enumerate_coverings, impurity_histogram
from octadimer.sampler import ChainConfig, run
from octadimer.slits import enclosed_dual_tree, forests, impurity_curve
from octadimer.temperley import initial_covering

from strategies import regions
from test_kirchhoff import assert_matches_reference

points = st.tuples(st.integers(-50, 50), st.integers(-50, 50))


@given(points)
def test_vertex_classification_partitions(v):
    c = classify_vertex(v)
    x, y = v
    if (x + y) % 2:
        assert c == BLACK and is_black(v) and not is_white(v)
    elif x % 2:
        assert c == W1 and is_white(v)
    else:
        assert c == W0 and is_white(v)


@given(points)
def test_neighbor_symmetry(v):
    for u in gamma_neighbors(v):
        assert v in gamma_neighbors(u)
    assert len(gamma_neighbors(v)) == (8 if is_white(v) else 4)


@given(points, points)
def test_edge_canonical(u, v):
    assume(u != v)
    assert edge(u, v) == edge(v, u)
    assert edge(u, v)[0] <= edge(u, v)[1]


@settings(max_examples=25, deadline=None)
@given(regions())
def test_region_invariants(tri):
    g = tri.g
    assert expected_impurity_count(g) == 1
    assert 1 <= tri.h_perp.d_star <= 3
    diag_at_root = [e for e in diagonal_edges(g) if tri.f_star in e]
    assert len(diag_at_root) == tri.h_perp.d_star + 1
    assert tri.e_star1 == edge(tri.v_star, tri.f_star)
    assert tri.e_star2 != tri.e_star1 and tri.f_star in tri.e_star2
    assert tri.n.white_count == tri.n.black_count


@settings(max_examples=15, deadline=None)
@given(regions())
def test_count_matches_oracle(tri):
    ms = enumerate_coverings(tri.g)
    assert total_coverings(tri) == len(ms)
    hist = impurity_histogram(tri.g, ms)
    for e, n in hist.items():
        assert coverings_with_impurity(tri, e) == n


@settings(max_examples=15, deadline=None)
@given(regions())
def test_p_values_are_probabilities(tri):
    sys = build_system(tri.h_perp)
    assert tree_count(sys) > 0
    p = solve_p(sys)
    for v, pv in p.items():
        assert 0 < pv < 1


@settings(max_examples=20, deadline=None)
@given(regions(max_steps=12))
def test_elimination_matches_reference_on_polyominoes(tri):
    assert_matches_reference(tri)


@settings(max_examples=20, deadline=None)
@given(regions())
def test_initial_covering_geometry(tri):
    m = initial_covering(tri)
    assert impurities(m) == (tri.e_star1,)
    c = impurity_curve(m, tri.e_star1)
    mids = {tuple(a + b for a, b in zip(*tri.e_star1)),
            tuple(a + b for a, b in zip(*tri.e_star2))}
    assert set(c.endpoints) == mids
    fp = forests(m)
    t = enclosed_dual_tree(c, fp)
    assert tri.f_star in t.vertices
    whites = {w for tree in fp.primary + fp.dual for w in tree.vertices}
    assert whites == set(tri.g.whites)


@settings(max_examples=20, deadline=None)
@given(regions(), st.randoms(use_true_random=False))
def test_moves_are_reversible(tri, rnd):
    m = initial_covering(tri)
    for _ in range(6):
        mvs = find_moves(m)
        assert mvs
        mv = rnd.choice(mvs)
        m2 = apply_move(m, mv)
        assert apply_move(m2, mv.reverse()) == m
        assert len(impurities(m2)) == 1
        m = m2


@settings(max_examples=10, deadline=None)
@given(regions(), st.integers(0, 2 ** 31))
def test_chain_stays_valid(tri, seed):
    m0 = initial_covering(tri)
    rep = run(m0, ChainConfig(seed=seed, steps=300))
    assert len(impurities(rep.final)) == 1
    assert rep.final.graph is tri.g
