"""Slit-curves, crossed edges, forests, and enclosed dual trees.

Curve geometry lives on the doubled lattice: points are 2x midpoints,
so diagonal midpoints are (odd, odd) and unit-edge midpoints have one
odd and one even coordinate.  A valid curve therefore never touches a
vertex of Gamma (which doubles to (even, even)).

The diamond fixture freezes a full hand-checked configuration: every
crossed edge, every curve, both forests, and the enclosed tree of each
of the four impurity curves.
"""

import pytest

from octadimer.covering import impurities, validate_covering
from octadimer.lattice import build_normal_graph, edge, is_unit_edge
from octadimer.moves import apply_move, find_moves
from octadimer.oracle import enumerate_coverings
from octadimer.slits import (CycleDetectedError, NoCurveError,
                             ResidualDiagonalError, StructureError,
                             arcs_of, enclosed_dual_tree, forests,
                             impurity_curve, slit_curves)
from octadimer.temperley import initial_covering

from conftest import unit_square_graph


def crossed_unit_edges(m):
    """The unit edges of G crossed by some slit-curve of m."""
    out = set()
    for arc in arcs_of(m):
        px, py = arc.unit_point
        cx, cy = arc.center
        out.add(edge(arc.center, (px - cx, py - cy)))
    return out


DIAMOND_CROSSED = {
    ((1, -1), (1, 0)), ((1, 0), (1, 1)), ((1, 1), (2, 1)),
    ((2, -2), (2, -1)), ((2, -1), (2, 0)), ((2, 0), (3, 0)),
    ((2, 1), (3, 1)), ((2, 2), (3, 2)), ((3, -3), (3, -2)),
    ((3, -2), (3, -1)), ((3, -1), (4, -1)), ((3, 0), (4, 0)),
    ((3, 2), (4, 2)), ((4, -4), (4, -3)), ((4, -3), (4, -2)),
    ((4, -1), (5, -1)), ((4, 0), (4, 1)), ((4, 1), (4, 2)),
    ((5, -3), (5, -2)), ((5, -2), (5, -1)), ((5, -1), (5, 0)),
    ((5, 0), (5, 1)), ((6, -2), (6, -1)), ((6, -1), (6, 0)),
}

DIAMOND_CURVES = [
    ((1, -1), (2, -1), (3, -1), (4, -1), (5, -1), (5, 0), (5, 1), (5, 2),
     (5, 3), (5, 4), (5, 5)),
    ((1, 1), (2, 1), (3, 1), (3, 2), (3, 3)),
    ((3, -3), (4, -3), (5, -3), (6, -3), (7, -3), (7, -2), (7, -1), (7, 0),
     (7, 1), (8, 1), (9, 1), (10, 1), (11, 1)),
    ((5, -5), (6, -5), (7, -5), (8, -5), (9, -5), (10, -5), (11, -5)),
    ((7, -7), (8, -7), (9, -7)),
    ((7, 5), (7, 4), (7, 3), (8, 3), (9, 3)),
    ((13, -3), (12, -3), (11, -3), (10, -3), (9, -3), (9, -2), (9, -1),
     (10, -1), (11, -1), (12, -1), (13, -1)),
]

DIAMOND_PRIMARY = {
    frozenset({(0, 0), (2, 0), (2, 2)}),
    frozenset({(2, -2), (4, -2), (4, 0), (6, -2), (6, 0)}),
    frozenset({(4, -4)}),
    frozenset({(4, 2)}),
}

DIAMOND_DUAL = {
    frozenset({(1, -1), (3, -1), (3, 1), (3, 3), (5, 1)}),
    frozenset({(1, 1)}),
    frozenset({(3, -3), (5, -3)}),
    frozenset({(5, -1), (7, -1)}),
}


def test_unit_square_curves():
    # hand-derived: each covering has one curve through the square's
    # single diagonal midpoint (1,1), crossing the two unit edges
    # perpendicular to the dimers
    g = unit_square_graph()
    h = validate_covering(g, [((0, 0), (1, 0)), ((0, 1), (1, 1))])
    v = validate_covering(g, [((0, 0), (0, 1)), ((1, 0), (1, 1))])
    assert crossed_unit_edges(h) == {((0, 0), (0, 1)), ((1, 0), (1, 1))}
    assert crossed_unit_edges(v) == {((0, 0), (1, 0)), ((0, 1), (1, 1))}
    (ch,) = slit_curves(h)
    (cv,) = slit_curves(v)
    assert ch.points == ((0, 1), (1, 1), (2, 1))
    assert cv.points == ((1, 0), (1, 1), (1, 2))
    # s-moves are not slit-preserving
    assert ch.points != cv.points


def test_arcs_count(diamond):
    # one arc per (black, G-corner) pair; every arc joins a diagonal
    # midpoint to a unit-edge midpoint
    arcs = arcs_of(diamond)
    for a in arcs:
        assert a.diag_point[0] % 2 and a.diag_point[1] % 2
        assert (a.unit_point[0] + a.unit_point[1]) % 2
    assert len({(a.diag_point, a.unit_point) for a in arcs}) == len(arcs)


@pytest.mark.parametrize("source", ["diamond", "ell_coverings"])
def test_diamond_crossed_edges(request, source):
    # the cut is local: at each black the crossed edges are exactly
    # those perpendicular to its dimer, and contracting the uncrossed
    # ones through the black gives the tree edges of the forests
    coverings = request.getfixturevalue(source)
    if source == "diamond":
        assert crossed_unit_edges(coverings) == DIAMOND_CROSSED
        coverings = [coverings]
    for m in coverings:
        g = m.graph
        xs = crossed_unit_edges(m)
        assert all(is_unit_edge(e) for e in xs)
        contracted = set()
        for b in g.blacks:
            w = m.mate(b)
            opposite = (2 * b[0] - w[0], 2 * b[1] - w[1])
            assert edge(b, w) not in xs and edge(b, opposite) not in xs
            kept = {u for u in g.neighbors(b) if edge(b, u) not in xs}
            assert kept == {w, opposite} & g.vertex_set
            if len(kept) == 2:
                contracted.add(edge(*kept))
        fp = forests(m)
        assert contracted == {e for t in fp.primary + fp.dual
                              for e in t.edges}


def test_diamond_curves(diamond):
    got = sorted(slit_curves(diamond), key=lambda c: c.points)
    assert [c.points for c in got] == DIAMOND_CURVES
    for c in got:
        # endpoints on diagonal midpoints, no lattice vertices touched
        for p in c.endpoints:
            assert p[0] % 2 and p[1] % 2
        assert all(p[0] % 2 or p[1] % 2 for p in c.points)
        assert len(set(c.points)) == len(c.points)


def test_diamond_forests(diamond):
    fp = forests(diamond)
    assert {t.vertices for t in fp.primary} == DIAMOND_PRIMARY
    assert {t.vertices for t in fp.dual} == DIAMOND_DUAL
    # trees are trees: |E| = |V| - 1
    for t in fp.primary + fp.dual:
        assert len(t.edges) == len(t.vertices) - 1


def test_diamond_enclosed_trees(diamond):
    fp = forests(diamond)
    want = {
        ((0, 0), (1, 1)): frozenset({(1, 1)}),
        ((4, -2), (5, -1)): frozenset({(5, -1), (7, -1)}),
    }
    for e in want:
        t = enclosed_dual_tree(impurity_curve(diamond, e), fp)
        assert t.vertices == want[e]
    # the other two curves hug an even vertex; they bound a primary
    # tree, not a dual one
    for e in (((3, 3), (4, 2)), ((4, -4), (5, -3))):
        with pytest.raises(StructureError):
            enclosed_dual_tree(impurity_curve(diamond, e), fp)


def test_impurity_curve_requires_impurity(diamond):
    with pytest.raises(NoCurveError):
        impurity_curve(diamond, ((2, 2), (3, 3)))


def test_residual_diagonal():
    # diagonal dimer with both flanking blacks missing from G: the
    # contraction has nowhere to anchor it
    g = build_normal_graph([(0, 0), (1, 1), (2, 0), (3, 1)])
    (m,) = enumerate_coverings(g)
    with pytest.raises(ResidualDiagonalError):
        forests(m)


def test_forest_partition(ell, ell_coverings):
    whites = set(ell.g.whites)
    w0 = {w for w in whites if w[0] % 2 == 0}
    for m in ell_coverings[::17]:
        fp = forests(m)
        prim = [t.vertices for t in fp.primary]
        dual = [t.vertices for t in fp.dual]
        assert set().union(*prim) == w0
        assert set().union(*dual) == whites - w0
        assert sum(len(v) for v in prim + dual) == len(whites)


def test_t_move_preserves_curves(ell, ell_coverings):
    for m in ell_coverings[::13]:
        curves = {c.points for c in slit_curves(m)}
        for mv in find_moves(m):
            m2 = apply_move(m, mv)
            curves2 = {c.points for c in slit_curves(m2)}
            if mv.kind == "t":
                assert curves2 == curves


def test_impurity_curve_ends_at_boundary_diagonals(ell, ell_coverings):
    # with k = 1 the impurity curve always runs between the midpoints
    # of the two boundary diagonals at f*
    mid1 = (ell.e_star1[0][0] + ell.e_star1[1][0],
            ell.e_star1[0][1] + ell.e_star1[1][1])
    mid2 = (ell.e_star2[0][0] + ell.e_star2[1][0],
            ell.e_star2[0][1] + ell.e_star2[1][1])
    for m in ell_coverings[::11]:
        (e,) = impurities(m)
        c = impurity_curve(m, e)
        assert set(c.endpoints) == {mid1, mid2}


def test_enclosed_tree_contains_f_star(ell, ell_coverings):
    for m in ell_coverings[::23]:
        (e,) = impurities(m)
        t = enclosed_dual_tree(impurity_curve(m, e), forests(m))
        assert ell.f_star in t.vertices
        w1 = e[0] if e[0][0] % 2 else e[1]
        assert w1 in t.vertices


def test_cycle_detection_unreachable_on_valid_input(ell, ell_coverings):
    # CycleDetectedError guards the contraction; valid coverings never
    # trigger it
    for m in ell_coverings[::7]:
        forests(m)
