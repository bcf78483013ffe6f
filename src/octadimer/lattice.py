"""Geometry of the dual square-octagon lattice.

The infinite graph Gamma has vertex set Z^2.  A vertex (x, y) is white
when x + y is even and black otherwise.  Unit edges join vertices at
distance one; diagonal edges join two white vertices differing by
(+-1, +-1).  The white vertices split into W0 (both coordinates even)
and W1 (both odd).  W0 carries the spacing-two square lattice Lambda,
W1 its planar dual Lambda-perp, and every diagonal edge joins a W0
vertex to a W1 vertex.

A finite induced subgraph of Gamma is called normal when both the
subgraph and its complement in Gamma are connected.  The number of
diagonal dimers in any perfect matching of a normal graph G is the
invariant (|W_G| - |B_G|) / 2.

Holes are found by counting cells, not by searching the complement: a
connected union of closed cells in the plane has V - E + F = 1 - h,
where h is the number of holes.  For a polyomino the cells are its
corners, sides and faces; for an induced subgraph of Gamma they are
its vertices, edges and triangles.  Each count is linear in the input.

The second half of this module builds the one-impurity graphs G of a
region: a polyomino H on Lambda given by its face centers, a
distinguished outer face vertex f* of the dual, and a distinguished
vertex v* of H.  Superimposing H with its full planar dual (one dual
edge per edge of H, boundary edges looping to f*) and inserting a black
vertex on every edge of H yields the balanced bipartite graph N once f*
and v* are dropped; G is the subgraph of Gamma induced by
V(N) + {f*, v*} and every covering of G carries exactly one impurity.
"""

import functools
from collections.abc import Iterable
from dataclasses import dataclass


class InvalidInputError(Exception):
    """Input fails a structural precondition."""


class NotConnectedError(InvalidInputError):
    pass


class ComplementNotConnectedError(InvalidInputError):
    """The vertex set has a hole: its complement in Gamma is disconnected."""


class RegionError(InvalidInputError):
    pass


class InvalidFStarError(RegionError):
    pass


class InvalidVStarError(RegionError):
    pass


W0 = "W0"
W1 = "W1"
BLACK = "B"

Vertex = tuple[int, int]
Edge = tuple[Vertex, Vertex]


def classify_vertex(v: Vertex) -> str:
    """Return W0, W1 or B according to the coordinate parities of v."""
    x, y = v
    if (x + y) % 2:
        return BLACK
    return W0 if x % 2 == 0 else W1


def edge(u: Vertex, v: Vertex) -> Edge:
    """Canonical (sorted) form of the edge {u, v}."""
    return (u, v) if u <= v else (v, u)


def is_diagonal_edge(e: Edge) -> bool:
    (x1, y1), (x2, y2) = e
    return abs(x1 - x2) == 1 and abs(y1 - y2) == 1


class NormalGraph:
    """A finite subgraph of Gamma with deterministic iteration order.

    Vertices and edges are kept as sorted tuples so that iteration
    order is deterministic everywhere downstream; an edge given as
    (v, u) with u < v is kept as (u, v), and each vertex's neighbours
    come out in ascending order.  build_normal_graph
    makes the induced, simply connected ones; the bipartite graph N of
    a region keeps only unit edges, leaving out the diagonals between
    its whites.
    """

    def __init__(self, vertices, edges):
        self.vertices = tuple(sorted(vertices))
        self.edges = tuple(sorted([e if e[0] <= e[1] else (e[1], e[0])
                                   for e in edges]))
        self.vertex_set = frozenset(self.vertices)
        self.edge_set = frozenset(self.edges)
        # the edges are sorted and canonical, so each vertex gets its
        # smaller neighbours and then its larger ones, each ascending
        adjacency = {v: [] for v in self.vertices}
        for u, v in self.edges:
            adjacency[u].append(v)
            adjacency[v].append(u)
        self._adjacency = {v: tuple(ns) for v, ns in adjacency.items()}
        self.whites = tuple([v for v in self.vertices
                             if not (v[0] + v[1]) % 2])
        self.blacks = tuple([v for v in self.vertices if (v[0] + v[1]) % 2])
        self.white_count = len(self.whites)
        self.black_count = len(self.blacks)

    def neighbors(self, v: Vertex):
        return self._adjacency[v]

    @functools.cached_property
    def own_edges(self) -> dict:
        """Each edge -> the graph's own tuple for it.

        (0, True) and (0, 1.0) hash and compare equal to (0, 1); looking
        an edge up here gives back plain-int points.
        """
        return {e: e for e in self.edges}

    @functools.cached_property
    def diagonals(self) -> tuple[Edge, ...]:
        """The diagonal edges, in sorted order, found on first use.

        Every edge of Gamma is a unit edge or a diagonal, and only a
        diagonal moves both coordinates.
        """
        return tuple([e for e in self.edges
                      if e[0][0] != e[1][0] and e[0][1] != e[1][1]])

    def __contains__(self, v):
        return v in self.vertex_set

    def __len__(self):
        return len(self.vertices)

    def __repr__(self):
        return "NormalGraph(%d vertices, %d edges)" % (
            len(self.vertices), len(self.edges))


def per_graph(build):
    """Decorate build(g) so that it runs once per graph object.

    The result is kept in g's own instance dict, beside g's cached
    properties, under build's module-qualified name, whose dots keep it
    apart from every attribute; so it lives exactly as long as g.
    """
    key = "%s.%s" % (build.__module__, build.__qualname__)

    @functools.wraps(build)
    def get(g):
        tables = g.__dict__
        try:
            return tables[key]
        except KeyError:
            pass
        table = tables[key] = build(g)
        return table

    return get


class Memo(dict):
    """key -> build(key), built on a key's first lookup and kept.

    The one form of a per-graph table whose entries are built lazily.
    build must not hold the graph: kept in the graph's own dict, the
    Memo would close a cycle, and the graph would outlive its last
    reference until the cyclic collector ran.
    """

    __slots__ = ("build",)

    def __init__(self, build):
        self.build = build

    def __missing__(self, key):
        value = self[key] = self.build(key)
        return value


def induced_edges(vertex_set) -> list[Edge]:
    """The edges of Gamma between vertices of vertex_set, in sorted order.

    Each vertex (x, y) tries only its larger neighbours: (x, y + 1) and
    (x + 1, y), and for a white (x + 1, y - 1) and (x + 1, y + 1) too,
    in that order.  Walking the vertices in sorted order so emits each
    edge once, canonical, and already sorted.
    """
    out = []
    for v in sorted(vertex_set):
        x, y = v
        if (x + y) % 2:
            ahead = ((x, y + 1), (x + 1, y))
        else:
            ahead = ((x, y + 1), (x + 1, y - 1), (x + 1, y), (x + 1, y + 1))
        for w in ahead:
            if w in vertex_set:
                out.append((v, w))
    return out


def reach(starts, neighbors) -> set:
    """The vertices reachable from starts, starts included.

    neighbors(v) lists the neighbors of v.
    """
    seen = set(starts)
    stack = list(seen)
    while stack:
        for w in neighbors(stack.pop()):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def build_normal_graph(vertex_set) -> NormalGraph:
    """Build the induced subgraph on vertex_set and verify it is normal.

    Each point must be a pair of plain ints, as for a Region.
    """
    if not isinstance(vertex_set, Iterable):
        raise InvalidInputError("%r is not a collection of points"
                                % (vertex_set,))
    return _normal_graph(frozenset(map(_point, vertex_set)))


def _normal_graph(vset: frozenset) -> NormalGraph:
    """The induced subgraph on vset, a set of plain-int points, if it
    is normal.

    Gamma triangulates the plane: each unit square carries one
    diagonal, which splits it into two triangles, one per flanking
    black.  The induced subgraph spans every triangle whose three
    vertices it holds, and once it is connected its complement is
    connected exactly when V - E + (triangles) = 1.
    """
    if not vset:
        raise InvalidInputError("empty vertex set")
    g = NormalGraph(vset, induced_edges(vset))
    if len(reach(g.vertices[:1], g._adjacency.__getitem__)) != len(g):
        raise NotConnectedError("vertex set is not connected in Gamma")
    triangles = sum([((x1, y2) in vset) + ((x2, y1) in vset)
                     for (x1, y1), (x2, y2) in g.diagonals])
    if len(g.vertices) - len(g.edges) + triangles != 1:
        raise ComplementNotConnectedError("vertex set encloses a hole")
    return g


def diagonal_edges(g: NormalGraph) -> tuple[Edge, ...]:
    """All diagonal edges of g, in sorted order.

    This is g's own tuple, g.diagonals, found once per graph and shared
    by every caller.
    """
    return g.diagonals


@dataclass(frozen=True)
class Region:
    """A polyomino on Lambda given by face centers, plus f* and v*.

    faces are W1 points (odd, odd) at the centers of the unit faces of
    H; f_star is the W1 vertex adjoined to the dual; v_star is the
    vertex of H removed together with f* when forming N.
    """

    faces: tuple[Vertex, ...]
    f_star: Vertex
    v_star: Vertex

    @staticmethod
    def of(faces, f_star, v_star) -> "Region":
        """Normalize the points; each must be a pair of plain ints."""
        if not isinstance(faces, Iterable):
            raise RegionError("faces %r are not a collection of points"
                              % (faces,))
        return Region(tuple(sorted(_point(f) for f in faces)),
                      _point(f_star), _point(v_star))


def _point(p) -> Vertex:
    # bool is an int subclass, and JSON true would otherwise pass as 1
    if not (isinstance(p, (list, tuple)) and len(p) == 2
            and type(p[0]) is int and type(p[1]) is int):
        raise RegionError("point %r is not a pair of integers" % (p,))
    return (p[0], p[1])


def _edge_arg(e) -> Edge:
    """The canonical edge named by e, which must be a pair of points."""
    if not (isinstance(e, (list, tuple)) and len(e) == 2):
        raise RegionError("%r is not a pair of points" % (e,))
    return edge(_point(e[0]), _point(e[1]))


def _face_corners(f: Vertex):
    x, y = f
    return ((x - 1, y - 1), (x + 1, y - 1), (x - 1, y + 1), (x + 1, y + 1))


def _face_sides(f: Vertex):
    x, y = f
    return (edge((x - 1, y - 1), (x + 1, y - 1)),
            edge((x - 1, y + 1), (x + 1, y + 1)),
            edge((x - 1, y - 1), (x - 1, y + 1)),
            edge((x + 1, y - 1), (x + 1, y + 1)))


def _flanking_faces(h_edge: Edge):
    """The two W1 points on either side of an edge of Lambda."""
    (x1, y1), (x2, y2) = h_edge
    if y1 == y2:
        mx = (x1 + x2) // 2
        return ((mx, y1 - 1), (mx, y1 + 1))
    my = (y1 + y2) // 2
    return ((x1 - 1, my), (x1 + 1, my))


def midpoint(e: Edge) -> Vertex:
    (x1, y1), (x2, y2) = e
    return ((x1 + x2) // 2, (y1 + y2) // 2)


def flanking_blacks(diag: Edge):
    """The two black vertices adjacent to both ends of a diagonal edge."""
    (x1, y1), (x2, y2) = diag
    return ((x1, y2), (x2, y1))


def _face_neighbors(f: Vertex):
    """The four W1 points one face away from f."""
    x, y = f
    return ((x + 2, y), (x - 2, y), (x, y + 2), (x, y - 2))


class DualGraph:
    """The full planar dual of H, one dual edge per edge of H.

    Vertices are the face centers plus f*.  An interior edge of H
    yields a dual edge between the two incident faces; a boundary edge
    yields a dual edge between its unique incident face and f*.  The
    d* dual edges realized by actual Lambda-perp steps from f* are the
    l-edges.  Dual edges are keyed by the crossed edge of H, so
    parallel f* edges stay distinct.
    """

    def __init__(self, faces, f_star, dual_edges, l_edges):
        self.faces = tuple(sorted(faces))
        self.f_star = f_star
        self.vertices = self.faces + (f_star,)
        self.dual_edges = tuple(sorted(dual_edges))  # (u, v, h_edge)
        self.l_edges = frozenset(l_edges)            # crossed h_edges
        self.d_star = len(l_edges)


class TemperleyTriple:
    """H, its full dual, the balanced bipartite graph N, and G.

    N is G less f*, v* and the diagonals.  Only the Temperley map reads
    it, so it is built on first use.
    """

    def __init__(self, region, h_vertices, h_edges, h_perp, g,
                 e_star1, e_star2):
        self.region = region
        self.h_vertices = h_vertices
        self.h_edges = h_edges
        self.h_perp = h_perp
        self.g = g
        self.e_star1 = e_star1
        self.e_star2 = e_star2
        self.f_star = region.f_star
        self.v_star = region.v_star

    @functools.cached_property
    def n(self) -> NormalGraph:
        """N: the vertices of G but f* and v*, and the unit edges of G
        between them."""
        dropped = (self.f_star, self.v_star)
        vertices = [v for v in self.g.vertices if v not in dropped]
        edges = [e for e in self.g.edges
                 if (e[0][0] == e[1][0] or e[0][1] == e[1][1])
                 and e[0] not in dropped and e[1] not in dropped]
        return NormalGraph(vertices, edges)


def build_region(region: Region) -> TemperleyTriple:
    """Construct H, the full dual, N and G from a Region.

    The region's points are read through Region.of, so a Region built
    directly is held to the same plain-int rule.
    """
    region = Region.of(region.faces, region.f_star, region.v_star)
    faces = region.faces
    if not faces:
        raise RegionError("region has no faces")
    face_set = frozenset(faces)
    if len(face_set) != len(faces):
        raise RegionError("duplicate faces")
    for f in faces:
        if classify_vertex(f) != W1:
            raise RegionError("face center %r is not an odd-odd point" % (f,))
    linked = reach(faces[:1], lambda f: [w for w in _face_neighbors(f)
                                         if w in face_set])
    if len(linked) != len(faces):
        raise RegionError("faces are not connected")
    h_vertices = frozenset(c for f in faces for c in _face_corners(f))
    h_edges = frozenset(s for f in faces for s in _face_sides(f))
    if len(h_vertices) - len(h_edges) + len(faces) != 1:
        raise RegionError("faces enclose a hole")

    f_star = region.f_star
    if classify_vertex(f_star) != W1:
        raise InvalidFStarError("f* must be an odd-odd point")
    if f_star in face_set:
        raise InvalidFStarError("f* lies inside the region")

    dual_edges = []
    l_edges = []
    for e in h_edges:
        p, q = _flanking_faces(e)
        inside = [f for f in (p, q) if f in face_set]
        if len(inside) == 2:
            dual_edges.append((min(inside), max(inside), e))
        else:
            outer = p if q in face_set else q
            dual_edges.append((inside[0], f_star, e))
            if outer == f_star:
                l_edges.append(e)
    if not 1 <= len(l_edges) <= 3:
        raise InvalidFStarError(
            "f* must touch the region through 1 to 3 dual lattice edges, "
            "got %d" % len(l_edges))
    if (len(h_vertices.union(_face_corners(f_star)))
            - len(h_edges.union(_face_sides(f_star))) + len(faces) + 1 != 1):
        raise InvalidFStarError("f* pinches off a hole")
    h_perp = DualGraph(faces, f_star, dual_edges, l_edges)

    v_star = region.v_star
    if v_star not in h_vertices:
        raise InvalidVStarError("v* is not a vertex of H")
    if edge(v_star, f_star) not in {edge(f_star, c)
                                    for c in _face_corners(f_star)}:
        raise InvalidVStarError("v* is not diagonally adjacent to f*")

    blacks = frozenset(midpoint(e) for e in h_edges)
    g_vertices = h_vertices | face_set | {f_star} | blacks

    # The two diagonal edges at f* with a flanking black outside G are
    # the only boundary diagonals of G; e*1 = {f*, v*} must be one of
    # them or the impurity cannot always be driven onto it.
    boundary = []
    for c in _face_corners(f_star):
        if c not in h_vertices:
            continue
        d = edge(f_star, c)
        if any(b not in g_vertices for b in flanking_blacks(d)):
            boundary.append(d)
    if len(boundary) != 2:
        raise InvalidFStarError(
            "expected exactly 2 boundary diagonals at f*, got %d"
            % len(boundary))
    e_star1 = edge(f_star, v_star)
    if e_star1 not in boundary:
        raise InvalidVStarError(
            "{f*, v*} is an interior diagonal; v* must sit on the "
            "boundary of G")
    e_star2 = boundary[0] if boundary[1] == e_star1 else boundary[1]

    g = _normal_graph(g_vertices)

    # f* and v* are two whites of G that N lacks
    if g.white_count - 2 != g.black_count:
        raise RegionError("N is not balanced; region construction is broken")

    return TemperleyTriple(region, h_vertices, h_edges, h_perp, g,
                           e_star1, e_star2)


def strip_region(n: int) -> Region:
    """A 1 x n row of faces with f* at the right end and v* above it."""
    if type(n) is not int:
        raise RegionError("strip length %r is not an integer" % (n,))
    if n < 1:
        raise RegionError("strip length must be positive")
    faces = [(2 * j - 1, 1) for j in range(1, n + 1)]
    return Region.of(faces, (2 * n + 1, 1), (2 * n, 2))


def ell_region() -> Region:
    """The three-face L-shaped region used throughout the test suite."""
    return Region.of([(1, 1), (3, 1), (1, 3)], (3, 3), (2, 4))
