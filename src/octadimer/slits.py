"""Slit-curves of a covering and the forests they cut out.

Around every black vertex b, list its white neighbors w_0..w_3 in
counter-clockwise order.  For each corner (w_i, w_{i+1}) with both
whites present in G, exactly one quarter arc is drawn from the midpoint
of the diagonal {w_i, w_{i+1}}: it bends around w_i onto the unit edge
{w_i, b} when b's dimer sits at w_{i+1} or w_{i+3}, and around w_{i+1}
onto {w_{i+1}, b} when the dimer sits at w_i or w_{i+2}.  A unit edge
is therefore crossed exactly when it is perpendicular to the dimer at
its black endpoint, and a black's dimer edge and the edge opposite it
are never crossed.

Chaining arcs through shared points gives the slit-curves.  Curve
points are named by the doubled midpoint of the edge they sit on, so
all the geometry stays in integers.

Cutting G along the curves severs every diagonal with a flanking black
in G and every unit edge perpendicular to a dimer, so each black keeps
its dimer edge and, if present, the edge opposite it.  The cut is
local, and forests reads it off the dimers without drawing a curve:
each pass-through black contracts to a tree edge, the local form of
the generalised Temperley bijection (Kenyon, Propp and Wilson, "Trees
and matchings", 2000).  The primary forest lies on the even
sublattice, the dual forest on the odd one.
"""

import weakref
from dataclasses import dataclass

from .covering import DimerCovering
from .lattice import (Edge, Vertex, _edge_arg, diagonal_edges, edge,
                      flanking_blacks, is_diagonal_edge)


class StructureError(RuntimeError):
    """A structural impossibility surfaced; used as a test sentinel."""


class SlitCrossingError(StructureError):
    pass


class SlitLoopError(StructureError):
    pass


class CycleDetectedError(StructureError):
    pass


class ResidualDiagonalError(StructureError):
    pass


class NoCurveError(StructureError):
    pass


def _doubled_mid(u: Vertex, v: Vertex):
    return (u[0] + v[0], u[1] + v[1])


@dataclass(frozen=True)
class SlitCurve:
    """A maximal chain of arcs; points listed endpoint to endpoint.

    The direction is normalized so the first point is the smaller
    endpoint, making equal curves structurally equal.
    """

    points: tuple

    @property
    def endpoints(self):
        return (self.points[0], self.points[-1])

    def __len__(self):
        return len(self.points)


@dataclass(frozen=True)
class Tree:
    vertices: frozenset
    edges: frozenset

    def sort_key(self):
        return min(self.vertices)


@dataclass(frozen=True)
class ForestPair:
    primary: tuple  # trees on W0
    dual: tuple     # trees on W1


# graph -> ({black: its arcs} for blacks whose dimer is vertical, the
# same for horizontal dimers), one entry filled per black and
# orientation on first use
_ARCS = weakref.WeakKeyDictionary()


def _black_arcs(vs, b, w):
    """The quarter arcs at black b whose dimer sits at w, as the flat
    tuple (diag_point, unit_point, diag_point, unit_point, ...); vs is
    the vertex set of b's graph."""
    x, y = b
    ring = ((x + 1, y), (x, y + 1), (x - 1, y), (x, y - 1))  # CCW
    present = tuple(map(vs.__contains__, ring))
    j = ring.index(w)
    arcs = []
    for i in range(4):
        k = (i + 1) % 4
        if present[i] and present[k]:
            wi, wk = ring[i], ring[k]
            # the dimer at w_{i+1} or w_{i+3}: bend around w_i
            center = wi if (j - i) % 2 else wk
            arcs += ((wi[0] + wk[0], wi[1] + wk[1]),
                     (center[0] + x, center[1] + y))
    return tuple(arcs)


def _arc_table(g):
    """g's table of black arcs.

    A black's arcs depend on g and on j mod 2 alone, j the ring index
    of its mate: on whether its dimer is horizontal.  So they are
    computed once per graph object, black and orientation, and only
    when a covering first needs them, so a fresh graph's first call
    computes no arcs it does not use.  An entry is one flat tuple keyed
    by the graph's own black, since every object the table keeps adds
    to the garbage collector's work on a fresh graph's first call.
    """
    table = _ARCS.get(g)
    if table is None:
        table = _ARCS[g] = ({}, {})
    return table


def _arcs_at(table, vs, b, w):
    arcs_of = table[w[1] == b[1]]       # whether b's dimer is horizontal
    arcs = arcs_of.get(b)
    if arcs is None:
        arcs = arcs_of[b] = _black_arcs(vs, b, w)
    return arcs


def _arc_ends(m: DimerCovering):
    """(diag_point, unit_point) of every quarter arc of m."""
    g = m.graph
    vs = g.vertex_set
    table = _arc_table(g)
    mate = m._mate
    ends = []
    for b in g.blacks:
        ends += _arcs_at(table, vs, b, mate[b])
    points = iter(ends)
    return zip(points, points)


def slit_curves(m: DimerCovering):
    """The set of slit-curves of m, each in canonical direction."""
    nbrs = {}
    arcs = 0
    for p, q in _arc_ends(m):
        nbrs.setdefault(p, []).append(q)
        nbrs.setdefault(q, []).append(p)
        arcs += 1
    for p, ns in nbrs.items():
        if len(ns) > 2:
            raise SlitCrossingError("curve point %r has degree %d"
                                    % (p, len(ns)))

    # every open curve runs between two points of degree 1; arcs that
    # no such walk uses lie on closed loops
    curves = []
    ends = set()
    used = 0
    for start, ns in nbrs.items():
        if len(ns) != 1 or start in ends:
            continue
        prev, point = start, ns[0]
        points = [start, point]
        ns = nbrs[point]
        while len(ns) == 2:
            a, b = ns
            prev, point = point, (b if a == prev else a)
            points.append(point)
            ns = nbrs[point]
        ends.add(point)
        used += len(points) - 1
        if point < start:
            points.reverse()
        curves.append(SlitCurve(tuple(points)))
    if used != arcs:
        raise SlitLoopError("%d arcs form closed loops" % (arcs - used))
    return frozenset(curves)


# graph -> its first diagonal with no flanking black in it, or None
_RESIDUAL = weakref.WeakKeyDictionary()


def _residual_diagonal(g):
    """The first diagonal of g that no slit-curve crosses, or None.

    It depends on g alone, so it is found once per graph object.
    """
    if g not in _RESIDUAL:
        _RESIDUAL[g] = next(
            (e for e in diagonal_edges(g)
             if not any(b in g.vertex_set for b in flanking_blacks(e))),
            None)
    return _RESIDUAL[g]


def forests(m: DimerCovering) -> ForestPair:
    """The primary and dual forests of m, read off its dimers.

    Each black b whose opposite white is in G gives the tree edge
    {mate(b), opposite white}: the path through b that the cut along
    the slit-curves leaves.  One pass per component collects its whites
    and its edges, and a component with more edges than a tree raises
    CycleDetectedError.  A diagonal with no flanking black in G is
    crossed by no curve and raises ResidualDiagonalError.
    """
    g = m.graph
    e = _residual_diagonal(g)
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

    # one pass per component: its vertices, the edges that first reach
    # them, and the sum of its degrees, which is twice its edge count
    primary, dual = [], []
    seen = set()
    for w in g.whites:
        if w in seen:
            continue
        seen.add(w)
        vs = [w]
        es = []
        degrees = 0
        for u in vs:            # vs grows as the component is found
            nbrs = adjacency[u]
            degrees += len(nbrs)
            for v, e in nbrs:
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


def _follow(arcs, p):
    """One black's step along a curve entering it at diagonal point p:
    the unit point its arc from p reaches, and the diagonal point its
    other arc at that unit point reaches; None where there is none.

    A diagonal point is odd-odd and a unit point is not, so p can only
    sit at an even position of the flat arcs."""
    try:
        i = arcs.index(p)
    except ValueError:
        return None, None
    q = arcs[i + 1]
    for j in range(1, len(arcs), 2):
        if arcs[j] == q and j != i + 1:
            return q, arcs[j - 1]
    return q, None


def impurity_curve(m: DimerCovering, e: Edge) -> SlitCurve:
    """The unique slit-curve passing through the impurity e of m.

    Only that curve is traced, from e's midpoint both ways: a flanking
    black in G takes the curve through its two arcs at one unit point
    to its next diagonal, whose other flanking black b' = p - b (p the
    diagonal's doubled midpoint) takes over, until that black is not in
    G or a black has no second arc.
    """
    e = _edge_arg(e)
    mate = m._mate
    if not is_diagonal_edge(e) or mate.get(e[0]) != e[1]:
        raise NoCurveError("%r is not an impurity of the covering" % (e,))
    g = m.graph
    vs = g.vertex_set
    table = _arc_table(g)
    start = _doubled_mid(*e)
    seen = {start}
    halves = []
    for b in flanking_blacks(e):
        p = start
        half = []
        while b in vs:
            q, p = _follow(_arcs_at(table, vs, b, mate[b]), p)
            if q is None:
                break
            half.append(q)
            if p is None:
                break
            if p in seen:
                raise SlitLoopError(
                    "the slit-curve through %r closes on itself" % (e,))
            seen.add(p)
            half.append(p)
            b = (p[0] - b[0], p[1] - b[1])
        halves.append(half)
    back, forth = halves
    if not back and not forth:
        raise NoCurveError("no slit-curve meets the impurity %r" % (e,))
    back.reverse()
    points = back + [start] + forth
    if points[-1] < points[0]:
        points.reverse()
    return SlitCurve(tuple(points))


def _diagonal_of(p):
    """The white pair whose doubled midpoint is the diagonal point p."""
    px, py = p
    for sx in (-1, 1):
        for sy in (-1, 1):
            u = ((px + sx) // 2, (py + sy) // 2)
            if (u[0] + u[1]) % 2 == 0:
                return edge(u, ((px - sx) // 2, (py - sy) // 2))
    raise ValueError("%r is not a diagonal midpoint" % (p,))


def _inside(q, polygon):
    # Even-odd rule with a horizontal ray; strict inequalities make
    # vertices on the ray count as below it, so no perturbation is
    # needed.  All coordinates are integers and q is never on the
    # polygon, so the test is exact.
    qx, qy = q
    inside = False
    for (x1, y1), (x2, y2) in zip(polygon, polygon[1:] + polygon[:1]):
        if (y1 > qy) != (y2 > qy):
            # crossing abscissa minus qx, scaled by (y2 - y1)
            lhs = (x1 - qx) * (y2 - y1) + (qy - y1) * (x2 - x1)
            if (lhs > 0) == (y2 > y1):
                inside = not inside
    return inside


def enclosed_dual_tree(c: SlitCurve, fp: ForestPair) -> Tree:
    """The dual-forest tree surrounded by an impurity curve.

    The curve ends on two boundary diagonals sharing a white vertex z;
    closing it through z gives a Jordan polygon whose interior, plus z
    itself, carves one tree out of the forest.  A curve can just as
    well pinch off a primary tree, in which case z is even and no dual
    tree is enclosed.
    """
    p0, p1 = c.endpoints
    if not (p0[0] % 2 and p0[1] % 2 and p1[0] % 2 and p1[1] % 2):
        raise StructureError("curve does not end on diagonal edges")
    d0, d1 = _diagonal_of(p0), _diagonal_of(p1)
    shared = set(d0) & set(d1)
    if len(shared) != 1:
        raise StructureError(
            "terminal diagonals %r, %r do not share a vertex" % (d0, d1))
    z = shared.pop()
    if z[0] % 2 == 0:
        raise StructureError(
            "curve wraps the even vertex %r, not a dual tree" % (z,))
    polygon = list(c.points) + [(2 * z[0], 2 * z[1])]
    sites = {z}
    for tree in fp.dual:
        for w in tree.vertices:
            if w != z and _inside((2 * w[0], 2 * w[1]), polygon):
                sites.add(w)
    for tree in fp.dual:
        if tree.vertices == sites:
            return tree
    raise StructureError(
        "enclosed sites %r match no dual tree" % (sorted(sites),))
