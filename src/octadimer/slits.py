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

Chaining arcs through shared points gives the slit-curves.  A unit
edge has one black end, so arcs meet at a unit point only within one
black, whose arcs are joined there into segments once per graph; the
curves chain those segments through the diagonal points.  Curve points
are named by the doubled midpoint of the edge they sit on, so all the
geometry stays in integers.

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

from .covering import DimerCovering
from .lattice import (Edge, Memo, Vertex, _edge_arg, diagonal_edges, edge,
                      flanking_blacks, is_diagonal_edge, per_graph)


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


def _black_arcs(vs, b, w):
    """The quarter arcs at black b whose dimer sits at w, as
    (diag_point, unit_point) pairs; vs is the vertex set of b's graph."""
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
            arcs.append(((wi[0] + wk[0], wi[1] + wk[1]),
                         (center[0] + x, center[1] + y)))
    return arcs


def _black_segments(vs, b, w):
    """The arcs of black b whose dimer sits at w, joined at their unit
    points and listed once from each diagonal end: (d, u, d') where two
    arcs meet at u, and (d, u) where u ends a curve.

    A unit point is the midpoint of an edge at b, so no other black has
    an arc there, and each item is one arc of the curves.  A third arc
    at a unit point raises SlitCrossingError.
    """
    at = {}
    for d, u in _black_arcs(vs, b, w):
        at.setdefault(u, []).append(d)
    segments = []
    for u, ds in at.items():
        if len(ds) > 2:
            raise SlitCrossingError("curve point %r has degree %d"
                                    % (u, len(ds)))
        if len(ds) == 1:
            segments.append((ds[0], u))
        else:
            d, e = ds
            segments += ((d, u, e), (e, u, d))
    return tuple(segments)


@per_graph
def _segment_table(g):
    """g's table of black segments, indexed by whether a black's dimer
    is horizontal: two Memos, black -> its segments.

    A black's arcs depend on g and on j mod 2 alone, j the ring index
    of its mate: on whether its dimer is horizontal.  So its segments
    are built from one white of that orientation, once per graph
    object, black and orientation, and only when a covering first
    needs them, so a fresh graph's first call joins no arcs it does
    not use.
    """
    vs = g.vertex_set
    return (Memo(lambda b: _black_segments(vs, b, (b[0], b[1] + 1))),
            Memo(lambda b: _black_segments(vs, b, (b[0] + 1, b[1]))))


def slit_curves(m: DimerCovering):
    """The set of slit-curves of m, each in canonical direction.

    Every black's segments are keyed by the diagonal point they start
    from, at most two to a point, the first and the second to arrive.
    A curve runs from a diagonal point with one segment or from the
    unit point that ends a segment, and leaves each diagonal point it
    reaches through its other segment: the one that does not come back
    through the unit point it arrived by.
    """
    g = m.graph
    table = _segment_table(g)
    mate = m._mate
    first, second = {}, {}
    crowded = []
    tips = []
    arcs = 0
    for b in g.blacks:
        for s in table[mate[b][1] == b[1]][b]:
            d = s[0]
            if d not in first:
                first[d] = s
            elif d not in second:
                second[d] = s
            else:
                crowded.append(d)
            if len(s) == 2:
                tips.append(s)
            arcs += 1
    if crowded:
        d = crowded[0]
        raise SlitCrossingError("curve point %r has degree %d"
                                % (d, 2 + crowded.count(d)))

    # every open curve runs between two ends; arcs that no walk from an
    # end uses lie on closed loops
    starts = [((d,), d, None) for d in first if d not in second]
    starts += [((s[1], s[0]), s[0], s[1]) for s in tips]
    curves = []
    ends = set()
    used = 0
    for points, d, u in starts:
        if points[0] in ends:
            continue
        points = list(points)
        while True:
            s = first[d]
            if s[1] == u:               # the segment back to u
                s = second.get(d)
                if s is None:
                    break
            u = s[1]
            points.append(u)
            if len(s) == 2:
                break
            d = s[2]
            points.append(d)
        ends.add(points[-1])
        used += len(points) - 1
        if points[-1] < points[0]:
            points.reverse()
        curves.append(SlitCurve(tuple(points)))
    if used != arcs:
        raise SlitLoopError("%d arcs form closed loops" % (arcs - used))
    return frozenset(curves)


@per_graph
def _link_table(g):
    """g's links and its residual diagonal, found once per graph object.

    The links map each white w to a list of (b, o, e, horizontal): b a
    black neighbour of w whose opposite white o = 2b - w is in g, e the
    tree edge {w, o} and horizontal whether the line w-b-o is.  One pass
    over the blacks adds each line through a black with both ends in g
    to both ends.  The residual diagonal is the first diagonal of g that
    no slit-curve crosses, or None.
    """
    vs = g.vertex_set
    links = {w: [] for w in g.whites}
    for b in g.blacks:
        x, y = b
        # u < o on each line, so (u, o) is the canonical edge
        u, o = (x - 1, y), (x + 1, y)
        if u in vs and o in vs:
            e = (u, o)
            links[u].append((b, o, e, True))
            links[o].append((b, u, e, True))
        u, o = (x, y - 1), (x, y + 1)
        if u in vs and o in vs:
            e = (u, o)
            links[u].append((b, o, e, False))
            links[o].append((b, u, e, False))
    residual = next((e for e in diagonal_edges(g)
                     if vs.isdisjoint(flanking_blacks(e))), None)
    return links, residual


def forests(m: DimerCovering) -> ForestPair:
    """The primary and dual forests of m, read off its dimers.

    Each black b whose opposite white is in G gives the tree edge
    {mate(b), opposite white}: the path through b that the cut along
    the slit-curves leaves.  So a link (b, o, e, horizontal) of the
    graph's link table is a tree edge exactly when b's dimer lies along
    its line.  One pass per component collects its whites and its
    edges off the table, and a component with more edges than a tree
    raises CycleDetectedError.  The whites are walked in sorted order,
    so each component is first reached at its least white and the trees
    come out in Tree.sort_key order.  A diagonal with no flanking black
    in G is crossed by no curve and raises ResidualDiagonalError.
    """
    g = m.graph
    links, e = _link_table(g)
    if e is not None:
        raise ResidualDiagonalError(
            "diagonal edge %r is missed by every slit-curve" % (e,))

    # one pass per component: its vertices, the edges that first reach
    # them, and the sum of its degrees, which is twice its edge count
    mate = m._mate
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
            for b, o, e, horizontal in links[u]:
                if (mate[b][1] == b[1]) == horizontal:
                    degrees += 1
                    if o not in seen:
                        seen.add(o)
                        vs.append(o)
                        es.append(e)
        if degrees != 2 * len(es):
            raise CycleDetectedError(
                "the contracted forest has a cycle through %r" % (w,))
        (primary if w[0] % 2 == 0 else dual).append(
            Tree(frozenset(vs), frozenset(es)))
    return ForestPair(tuple(primary), tuple(dual))


def impurity_curve(m: DimerCovering, e: Edge) -> SlitCurve:
    """The unique slit-curve passing through the impurity e of m.

    Only that curve is traced, from e's midpoint both ways: a flanking
    black in G takes the curve along its segment from that diagonal to
    its next one, whose other flanking black b' = p - b (p the
    diagonal's doubled midpoint) takes over, until that black is not in
    G or a segment ends at a unit point.
    """
    e = _edge_arg(e)
    mate = m._mate
    if not is_diagonal_edge(e) or mate.get(e[0]) != e[1]:
        raise NoCurveError("%r is not an impurity of the covering" % (e,))
    g = m.graph
    vs = g.vertex_set
    table = _segment_table(g)
    start = _doubled_mid(*e)
    seen = {start}
    halves = []
    for b in flanking_blacks(e):
        p = start
        half = []
        while b in vs:
            for s in table[mate[b][1] == b[1]][b]:
                if s[0] == p:
                    break
            else:               # b has no segment from p
                break
            half.append(s[1])
            if len(s) == 2:
                break
            p = s[2]
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


def _inside(q, sides):
    # Even-odd rule with a horizontal ray over the polygon's sides;
    # strict inequalities make vertices on the ray count as below it,
    # so no perturbation is needed.  All coordinates are integers and q
    # is never on the polygon, so the test is exact.
    qx, qy = q
    inside = False
    for (x1, y1), (x2, y2) in sides:
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
    sides = list(zip(polygon, polygon[1:] + polygon[:1]))
    # the interior lies inside the polygon's open bounding box
    xs = [x for x, _ in polygon]
    ys = [y for _, y in polygon]
    x0, x1, y0, y1 = min(xs), max(xs), min(ys), max(ys)
    sites = {z}
    for tree in fp.dual:
        for w in tree.vertices:
            q = (2 * w[0], 2 * w[1])
            if (x0 < q[0] < x1 and y0 < q[1] < y1 and w != z
                    and _inside(q, sides)):
                sites.add(w)
    for tree in fp.dual:
        if tree.vertices == sites:
            return tree
    raise StructureError(
        "enclosed sites %r match no dual tree" % (sorted(sites),))
