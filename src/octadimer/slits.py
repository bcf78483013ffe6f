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

from dataclasses import dataclass

from .covering import DimerCovering, impurities
from .lattice import (Edge, Vertex, diagonal_edges, edge, flanking_blacks,
                      reach)

CCW = ((1, 0), (0, 1), (-1, 0), (0, -1))


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
class Arc:
    """A quarter arc around center joining two curve points."""

    center: Vertex
    diag_point: tuple  # doubled midpoint of the diagonal {w_i, w_{i+1}}
    unit_point: tuple  # doubled midpoint of the crossed unit edge


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


def arcs_of(m: DimerCovering):
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


def slit_curves(m: DimerCovering):
    """The set of slit-curves of m, each in canonical direction."""
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


def forests(m: DimerCovering) -> ForestPair:
    """The primary and dual forests of m, read off its dimers.

    Each black b whose opposite white is in G gives the tree edge
    {mate(b), opposite white}: the path through b that the cut along
    the slit-curves leaves.  A diagonal with no flanking black in G is
    crossed by no curve and raises ResidualDiagonalError.
    """
    g = m.graph
    for e in diagonal_edges(g):
        if not any(b in g.vertex_set for b in flanking_blacks(e)):
            raise ResidualDiagonalError(
                "diagonal edge %r is missed by every slit-curve" % (e,))

    adjacency = {w: [] for w in g.whites}
    for b in g.blacks:
        w = m.mate(b)
        opposite = (2 * b[0] - w[0], 2 * b[1] - w[1])
        if opposite in g.vertex_set:
            adjacency[w].append(opposite)
            adjacency[opposite].append(w)

    primary, dual = [], []
    seen = set()
    for w in g.whites:
        if w in seen:
            continue
        vs = frozenset(reach((w,), adjacency.__getitem__))
        seen |= vs
        es = frozenset(edge(u, v) for u in vs for v in adjacency[u])
        if len(es) != len(vs) - 1:
            raise CycleDetectedError(
                "the contracted forest has a cycle through %r" % (w,))
        (primary if w[0] % 2 == 0 else dual).append(Tree(vs, es))
    return ForestPair(tuple(sorted(primary, key=Tree.sort_key)),
                      tuple(sorted(dual, key=Tree.sort_key)))


def impurity_curve(m: DimerCovering, e: Edge) -> SlitCurve:
    """The unique slit-curve passing through the impurity e of m."""
    e = edge(*e)
    if e not in impurities(m):
        raise NoCurveError("%r is not an impurity of the covering" % (e,))
    target = _doubled_mid(*e)
    for c in slit_curves(m):
        if target in c.points:
            return c
    raise NoCurveError("no slit-curve meets the impurity %r" % (e,))


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
