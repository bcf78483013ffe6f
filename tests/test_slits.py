"""Slit-curves, crossed edges, forests, and enclosed dual trees.

Curve geometry lives on the doubled lattice: points are 2x midpoints,
so diagonal midpoints are (odd, odd) and unit-edge midpoints have one
odd and one even coordinate.  A valid curve therefore never touches a
vertex of Gamma (which doubles to (even, even)).

The diamond fixture freezes a full hand-checked configuration: every
crossed edge, every curve, both forests, and the enclosed tree of each
of the four impurity curves.  Arc objects and the arc-by-arc chainer
below are the reference the segment tracer of slits.slit_curves is
compared against, and that tracer is the reference for the one-curve
walk of slits.impurity_curve.  reference_forests, which builds a white
-> list adjacency from the dimers on every call and sorts the trees, is
the reference for the link-table walk of slits.forests.
"""

from dataclasses import dataclass

import pytest

from octadimer import slits
from octadimer.covering import (DimerCovering, impurities,
                                validate_covering)
from octadimer.lattice import (Memo, build_normal_graph, build_region, edge,
                               flanking_blacks, reach, strip_region)
from octadimer.moves import apply_move, find_moves
from octadimer.oracle import enumerate_coverings
from octadimer.sampler import ChainConfig, run
from octadimer.slits import (CycleDetectedError, ForestPair, NoCurveError,
                             ResidualDiagonalError, SlitCrossingError,
                             SlitCurve, SlitLoopError, StructureError, Tree,
                             enclosed_dual_tree, forests, impurity_curve,
                             slit_curves)
from octadimer.temperley import initial_covering

from conftest import unit_square_graph
from test_kirchhoff import polyomino_region, square_region
from test_lattice import is_unit_edge, is_white

CCW = ((1, 0), (0, 1), (-1, 0), (0, -1))


@dataclass(frozen=True)
class Arc:
    """A quarter arc around center joining two curve points."""

    center: tuple
    diag_point: tuple  # doubled midpoint of the diagonal {w_i, w_{i+1}}
    unit_point: tuple  # doubled midpoint of the crossed unit edge


def _doubled_mid(u, v):
    return (u[0] + v[0], u[1] + v[1])


def _black_of(arc):
    """The black whose arc it is: its unit point is the doubled
    midpoint of the edge from its center to that black."""
    return (arc.unit_point[0] - arc.center[0],
            arc.unit_point[1] - arc.center[1])


def arcs_of(m):
    """Every quarter arc generated by the covering m."""
    g = m.graph
    out = []
    for b in g.blacks:
        x, y = b
        ring = [(x + dx, y + dy) for dx, dy in CCW]
        partner = m.mate(b)
        j = ring.index(partner)
        for i in range(4):
            wi, wk = ring[i], ring[(i + 1) % 4]
            if wi not in g.vertex_set or wk not in g.vertex_set:
                continue
            if (j - i) % 4 in (1, 3):
                center = wi
            else:
                center = wk
            out.append(Arc(center, _doubled_mid(wi, wk),
                           _doubled_mid(center, b)))
    return out


def reference_slit_curves(m):
    """The slit-curves of m, chained one Arc object at a time."""
    grid = {}
    for arc in arcs_of(m):
        for p in (arc.diag_point, arc.unit_point):
            grid.setdefault(p, []).append(arc)
    for p, arcs in grid.items():
        if len(arcs) > 2:
            raise SlitCrossingError("curve point %r has degree %d"
                                    % (p, len(arcs)))

    unused = set()
    for arcs in grid.values():
        unused.update(arcs)
    curves = []
    for start in sorted(grid):
        if len(grid[start]) != 1:
            continue
        arc = grid[start][0]
        if arc not in unused:
            continue
        points = [start]
        while True:
            unused.discard(arc)
            nxt = (arc.unit_point if points[-1] == arc.diag_point
                   else arc.diag_point)
            points.append(nxt)
            following = [a for a in grid[nxt] if a in unused]
            if not following:
                break
            arc = following[0]
        if points[-1] < points[0]:
            points.reverse()
        curves.append(SlitCurve(tuple(points)))
    if unused:
        raise SlitLoopError("%d arcs form closed loops" % len(unused))
    return frozenset(curves)


def table_items(m):
    """(black, item) for every item of m's blacks' entries in the
    per-graph segment table, filling what is missing."""
    g = m.graph
    table = slits._segment_table(g)
    return [(b, s) for b in g.blacks
            for s in table[m.mate(b)[1] == b[1]][b]]


def reference_forests(m):
    """The forest pair of m from a white -> list adjacency built from
    its dimers, one pass per component, trees sorted by least white."""
    g = m.graph
    e = next((e for e in g.diagonals
              if not any(b in g.vertex_set for b in flanking_blacks(e))),
             None)
    if e is not None:
        raise ResidualDiagonalError(
            "diagonal edge %r is missed by every slit-curve" % (e,))
    mate = m._mate
    adjacency = {w: [] for w in g.whites}
    for b in g.blacks:
        w = mate[b]
        opposite = (2 * b[0] - w[0], 2 * b[1] - w[1])
        if opposite in adjacency:
            e = edge(w, opposite)
            adjacency[w].append((opposite, e))
            adjacency[opposite].append((w, e))
    primary, dual = [], []
    seen = set()
    for w in g.whites:
        if w in seen:
            continue
        seen.add(w)
        vs = [w]
        es = []
        degrees = 0
        for u in vs:
            degrees += len(adjacency[u])
            for v, e in adjacency[u]:
                if v not in seen:
                    seen.add(v)
                    vs.append(v)
                    es.append(e)
        if degrees != 2 * len(es):
            raise CycleDetectedError(
                "the contracted forest has a cycle through %r" % (w,))
        (primary if w[0] % 2 == 0 else dual).append(
            Tree(frozenset(vs), frozenset(es)))
    return ForestPair(tuple(sorted(primary, key=Tree.sort_key)),
                      tuple(sorted(dual, key=Tree.sort_key)))


def crossed_unit_edges(m):
    """The unit edges of G crossed by some slit-curve of m."""
    out = set()
    for arc in arcs_of(m):
        px, py = arc.unit_point
        cx, cy = arc.center
        out.add(edge(arc.center, (px - cx, py - cy)))
    return out


def reference_forest_vertices(m):
    """The white sets of the components of G's unit edges less those
    crossed_unit_edges(m) names: the cut the forests are read from."""
    g = m.graph
    crossed = crossed_unit_edges(m)
    adjacency = {v: [] for v in g.vertices}
    for u, v in g.edges:
        if is_unit_edge((u, v)) and (u, v) not in crossed:
            adjacency[u].append(v)
            adjacency[v].append(u)
    out = []
    left = set(g.vertices)
    while left:
        comp = reach([min(left)], adjacency.__getitem__)
        left -= comp
        out.append(frozenset(filter(is_white, comp)))
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
    # each item of the segment table is one arc: its first two points
    ends = [s[:2] for _, s in table_items(diamond)]
    assert len(ends) == len(arcs)
    assert set(ends) == {(a.diag_point, a.unit_point) for a in arcs}


@pytest.fixture(scope="module")
def strip_coverings():
    return [m for n in (2, 3, 4)
            for m in enumerate_coverings(build_region(strip_region(n)).g)]


def test_slit_curves_match_reference(diamond, ell_coverings,
                                     strip_coverings):
    for m in [diamond, *ell_coverings, *strip_coverings]:
        assert slit_curves(m) == reference_slit_curves(m)


def test_arc_table_matches_reference(diamond, ell_coverings,
                                     strip_coverings):
    # the per-graph table gives every black of every covering its own
    # arcs, on the call that fills it and after, and joins them as the
    # reference does: an item (d, u, d') for the two arcs at u, (d, u)
    # for a unit point u with one arc
    for m in [diamond, *ell_coverings, *strip_coverings]:
        arcs = arcs_of(m)
        want = sorted((_black_of(a), a.diag_point, a.unit_point)
                      for a in arcs)
        at_unit = {}
        for a in arcs:
            at_unit.setdefault(a.unit_point, set()).add(a.diag_point)
        for _ in range(2):
            items = table_items(m)
            assert sorted((b,) + s[:2] for b, s in items) == want
            for _, s in items:
                assert {s[0], *s[2:]} == at_unit[s[1]]


def test_impurity_curve_is_the_traced_curve_through_it(
        diamond, ell_coverings, strip_coverings, square8_samples):
    # the walk from the impurity's midpoint finds the one curve of the
    # full tracer that passes through that midpoint
    strip1 = enumerate_coverings(build_region(strip_region(1)).g)
    for m in [*enumerate_coverings(diamond.graph), *ell_coverings,
              *strip1, *strip_coverings, *square8_samples]:
        curves = slit_curves(m)
        for e in impurities(m):
            (c,) = [c for c in curves if _doubled_mid(*e) in c.points]
            assert impurity_curve(m, e) == c


def _with_arcs(monkeypatch, diamond, arcs):
    """The diamond's covering on a fresh copy of its graph, under a fake
    arc rule that gives the first black the arcs and every other black
    none: the fresh graph's segment table is empty, so the real joins
    and tracer run on the fake arcs."""
    g = build_normal_graph(diamond.graph.vertices)
    owner = g.blacks[0]
    monkeypatch.setattr(slits, "_black_arcs",
                        lambda vs, b, w: arcs if b == owner else [])
    return validate_covering(g, diamond.dimers)


def test_crossing_and_loop_sentinels(monkeypatch, diamond):
    # no covering reaches either error; fake arcs must.  Three arcs at a
    # unit point raise where the black's entry is built, three segments
    # from a diagonal point where the tracer keys them
    m = _with_arcs(monkeypatch, diamond, [((1, 1), (2, 1)), ((3, 1), (2, 1)),
                                          ((3, 3), (2, 1))])
    with pytest.raises(SlitCrossingError, match=r"\(2, 1\) has degree 3"):
        slit_curves(m)
    m = _with_arcs(monkeypatch, diamond, [((1, 1), (1, 2)), ((1, 1), (2, 1)),
                                          ((1, 1), (0, 1))])
    with pytest.raises(SlitCrossingError, match=r"\(1, 1\) has degree 3"):
        slit_curves(m)
    loop = [((1, 1), (1, 2)), ((3, 3), (1, 2)),
            ((3, 3), (2, 1)), ((1, 1), (2, 1))]
    m = _with_arcs(monkeypatch, diamond, loop + [((5, 5), (5, 6))])
    with pytest.raises(SlitLoopError, match="^4 arcs form closed loops$"):
        slit_curves(m)


def test_impurity_walk_loop_sentinel(monkeypatch, diamond):
    # no covering closes a curve; a fake arc rule that bends every arc
    # at a black next to the white c around c closes the impurity's
    # curve into a loop around c, and the walk must stop on it
    c = (4, -2)
    black_arcs = slits._black_arcs

    def around_c(vs, b, w):
        ring = [(b[0] + dx, b[1] + dy) for dx, dy in CCW]
        if c not in ring:
            return black_arcs(vs, b, w)
        i = ring.index(c)
        return [(_doubled_mid(c, ring[k]), _doubled_mid(c, b))
                for k in ((i - 1) % 4, (i + 1) % 4)]

    # the walk reads one black's segments a step; a walk that missed
    # the loop would fail here rather than run forever
    steps = []

    class Counted(Memo):
        __slots__ = ()

        def __getitem__(self, b):
            steps.append(b)
            if len(steps) > 100:
                raise AssertionError("the walk did not stop on the loop")
            return super().__getitem__(b)

    monkeypatch.setattr(slits, "_black_arcs", around_c)
    # a fresh graph, so its segment table is empty and filled by the
    # fake; its two Memos are swapped for counting ones
    g = build_normal_graph(diamond.graph.vertices)
    key = "%s.%s" % (slits._segment_table.__module__,
                     slits._segment_table.__qualname__)
    vars(g)[key] = tuple(Counted(t.build) for t in slits._segment_table(g))
    m = validate_covering(g, diamond.dimers)
    with pytest.raises(SlitLoopError, match="closes on itself"):
        impurity_curve(m, ((4, -2), (5, -1)))


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


def unfiltered_enclosed_tree(c, fp):
    """The dual tree whose whites are z and every odd white the curve
    closed through z encloses, each tested by the even-odd rule, with no
    bounding-box filter; None when the curve does not end on two
    diagonals sharing an odd white z, or no tree has those whites."""
    if not all(p[0] % 2 and p[1] % 2 for p in c.endpoints):
        return None
    d0, d1 = map(slits._diagonal_of, c.endpoints)
    shared = set(d0) & set(d1)
    if len(shared) != 1:
        return None
    (z,) = shared
    if z[0] % 2 == 0:
        return None
    polygon = list(c.points) + [(2 * z[0], 2 * z[1])]
    sides = list(zip(polygon, polygon[1:] + polygon[:1]))
    sites = {z} | {w for t in fp.dual for w in t.vertices
                   if w != z and slits._inside((2 * w[0], 2 * w[1]), sides)}
    return next((t for t in fp.dual if t.vertices == sites), None)


def test_enclosed_tree_matches_the_unfiltered_test(
        diamond, ell_coverings, strip_coverings, square8_samples):
    # the bounding-box filter drops only whites outside the curve
    for m in [*enumerate_coverings(diamond.graph), *ell_coverings,
              *strip_coverings, *square8_samples]:
        fp = forests(m)
        for e in impurities(m):
            c = impurity_curve(m, e)
            want = unfiltered_enclosed_tree(c, fp)
            if want is None:
                with pytest.raises(StructureError):
                    enclosed_dual_tree(c, fp)
            else:
                assert enclosed_dual_tree(c, fp) == want


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


@pytest.fixture(scope="module")
def square8_samples():
    tri = build_region(square_region(8))
    report = run(initial_covering(tri),
                 ChainConfig(seed=16, steps=40000, sample_every=10000),
                 keep_trajectory=True)
    return [validate_covering(tri.g, dimers) for dimers in report.trajectory]


def test_forests_match_the_cut(ell_coverings, square8_samples):
    # each tree spans the whites of one component of the cut unit
    # edges, and every component's whites make one tree
    for m in [*ell_coverings, *square8_samples]:
        fp = forests(m)
        trees = fp.primary + fp.dual
        assert sorted(sorted(t.vertices) for t in trees) == sorted(
            sorted(ws) for ws in reference_forest_vertices(m))
        for t in trees:
            assert len(t.edges) == len(t.vertices) - 1
            assert all(u in t.vertices and v in t.vertices
                       for u, v in t.edges)


def test_forests_match_reference(diamond, ell_coverings, strip_coverings,
                                 square8_samples):
    # ForestPair equality includes the order of the trees; each graph's
    # first call fills its link table, the later ones read it
    strip1 = enumerate_coverings(build_region(strip_region(1)).g)
    poly = enumerate_coverings(build_region(polyomino_region(5, 5)).g)
    for m in [diamond, *ell_coverings, *strip1, *strip_coverings, *poly,
              *square8_samples]:
        assert forests(m) == reference_forests(m)


def test_trees_come_in_ascending_least_white_order(ell_coverings,
                                                   square8_samples):
    for m in [*ell_coverings, *square8_samples]:
        fp = forests(m)
        for trees in (fp.primary, fp.dual):
            least = [min(t.vertices) for t in trees]
            assert least == sorted(set(least))


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


def test_cycle_detected_on_a_hand_built_mate_map():
    # the four blacks around (1, 1) each matched to the white that turns
    # their tree edges into a 4-cycle: no covering does this, but a
    # hand-built mate map can
    g = build_normal_graph([(x, y) for x in range(3) for y in range(3)])
    mate = {(1, 0): (0, 0), (2, 1): (2, 0), (1, 2): (2, 2), (0, 1): (0, 2)}
    with pytest.raises(CycleDetectedError):
        forests(DimerCovering(g, (), mate))


def test_cycle_detection_unreachable_on_valid_input(ell, ell_coverings):
    # CycleDetectedError guards the contraction; valid coverings never
    # trigger it
    for m in ell_coverings[::7]:
        forests(m)
