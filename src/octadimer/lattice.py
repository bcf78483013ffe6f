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
    come out in ascending order.  NormalGraph(vertices, edges) sorts
    what it is given; build_normal_graph and build_region make the
    induced, simply connected ones in one walk over the sorted vertices
    (_induced), which sorts nothing a second time.  Either way _set
    sets every attribute, and edge_set is built on first use.  The
    bipartite graph N of a region keeps only unit edges, leaving out
    the diagonals between its whites.
    """

    def __init__(self, vertices, edges):
        vertices = sorted(vertices)
        edges = sorted([e if e[0] <= e[1] else (e[1], e[0]) for e in edges])
        # the edges are sorted and canonical, so each vertex gets its
        # smaller neighbours and then its larger ones, each ascending
        adjacency = {v: [] for v in vertices}
        for u, v in edges:
            adjacency[u].append(v)
            adjacency[v].append(u)
        # every edge of Gamma is a unit edge or a diagonal, and only a
        # diagonal moves both coordinates
        self._set(frozenset(vertices), vertices, edges, adjacency,
                  [v for v in vertices if not (v[0] + v[1]) % 2],
                  [v for v in vertices if (v[0] + v[1]) % 2],
                  [e for e in edges
                   if e[0][0] != e[1][0] and e[0][1] != e[1][1]])

    def _set(self, vertex_set, vertices, edges, adjacency, whites, blacks,
             diagonals):
        """Set every attribute, from sorted vertices, sorted canonical
        edges, ascending neighbour lists and the sorted whites, blacks
        and diagonals among them."""
        self.vertices = tuple(vertices)
        self.edges = tuple(edges)
        self.vertex_set = vertex_set
        self._adjacency = {v: tuple(ns) for v, ns in adjacency.items()}
        self.whites = tuple(whites)
        self.blacks = tuple(blacks)
        self.white_count = len(whites)
        self.black_count = len(blacks)
        self.diagonals = tuple(diagonals)

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
    def edge_set(self) -> frozenset:
        """The edges as a set, built on first use."""
        return frozenset(self.edges)

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


def _induced(vset: frozenset):
    """The subgraph of Gamma induced on vset, and its triangle count.

    One walk over the sorted vertices fills every part of the graph.
    Each vertex (x, y) tries only its larger neighbours: (x, y + 1) and
    (x + 1, y), and for a white (x + 1, y - 1) and (x + 1, y + 1) too,
    in that order.  So each edge comes out once, canonical and in sorted
    order, and each vertex gets its smaller neighbours, then its larger
    ones, each ascending.  A diagonal (x, y)-(x + 1, y -+ 1) spans one
    triangle for each of its flanking blacks (x, y -+ 1), (x + 1, y)
    in vset.
    """
    vertices = sorted(vset)
    adjacency = {v: [] for v in vertices}
    edges = []
    whites = []
    blacks = []
    diagonals = []
    triangles = 0
    for v in vertices:
        x, y = v
        if (x + y) % 2:
            blacks.append(v)
            ahead = ((x, y + 1), (x + 1, y))
        else:
            whites.append(v)
            ahead = ((x, y + 1), (x + 1, y - 1), (x + 1, y), (x + 1, y + 1))
        ns = adjacency[v]
        for w in ahead:
            if w in vset:
                e = (v, w)
                edges.append(e)
                ns.append(w)
                adjacency[w].append(v)
                if w[0] != x and w[1] != y:
                    diagonals.append(e)
                    triangles += ((x, w[1]) in vset) + ((w[0], y) in vset)
    g = NormalGraph.__new__(NormalGraph)
    g._set(vset, vertices, edges, adjacency, whites, blacks, diagonals)
    return g, triangles


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
    g, triangles = _induced(vset)
    if len(reach(g.vertices[:1], g._adjacency.__getitem__)) != len(g):
        raise NotConnectedError("vertex set is not connected in Gamma")
    if len(g.vertices) - len(g.edges) + triangles != 1:
        raise ComplementNotConnectedError("vertex set encloses a hole")
    return g


def diagonal_edges(g: NormalGraph) -> tuple[Edge, ...]:
    """All diagonal edges of g, in sorted order.

    This is g's own tuple, g.diagonals, found as g is built and shared
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


def midpoint(e: Edge) -> Vertex:
    (x1, y1), (x2, y2) = e
    return ((x1 + x2) // 2, (y1 + y2) // 2)


def flanking_blacks(diag: Edge):
    """The two black vertices adjacent to both ends of a diagonal edge."""
    (x1, y1), (x2, y2) = diag
    return ((x1, y2), (x2, y1))


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
    directly is held to the same plain-int rule.  One walk over the
    sorted faces visits each face's four sides and the face across
    each: a side is an interior edge of H when the face across is in
    the region too, and is kept once, from the lower of the two faces;
    otherwise it is a boundary edge, whose dual edge runs to f* once f*
    is checked.  The sides' midpoints are the blacks of G.
    """
    region = Region.of(region.faces, region.f_star, region.v_star)
    faces = region.faces
    if not faces:
        raise RegionError("region has no faces")
    face_set = frozenset(faces)
    if len(face_set) != len(faces):
        raise RegionError("duplicate faces")
    corners = []
    dual_edges = []                 # (lower face, upper face, side)
    rim = []                        # boundary sides: (face, across, side)
    links = {f: [] for f in faces}
    blacks = []
    for f in faces:
        x, y = f
        if not (x % 2 and y % 2):
            raise RegionError("face center %r is not an odd-odd point" % (f,))
        sw = (x - 1, y - 1)
        se = (x + 1, y - 1)
        nw = (x - 1, y + 1)
        ne = (x + 1, y + 1)
        corners += sw, se, nw, ne
        for across, side, mid in (((x, y - 2), (sw, se), (x, y - 1)),
                                  ((x - 2, y), (sw, nw), (x - 1, y)),
                                  ((x, y + 2), (nw, ne), (x, y + 1)),
                                  ((x + 2, y), (se, ne), (x + 1, y))):
            if across not in face_set:
                rim.append((f, across, side))
            elif across > f:
                dual_edges.append((f, across, side))
                links[f].append(across)
                links[across].append(f)
            else:
                continue            # kept from the lower face
            blacks.append(mid)
    if len(reach(faces[:1], links.__getitem__)) != len(faces):
        raise RegionError("faces are not connected")
    h_vertices = frozenset(corners)
    h_edges = frozenset([d[2] for d in dual_edges] + [d[2] for d in rim])
    if len(h_vertices) - len(h_edges) + len(faces) != 1:
        raise RegionError("faces enclose a hole")

    f_star = region.f_star
    if classify_vertex(f_star) != W1:
        raise InvalidFStarError("f* must be an odd-odd point")
    if f_star in face_set:
        raise InvalidFStarError("f* lies inside the region")

    l_edges = [side for _, across, side in rim if across == f_star]
    if not 1 <= len(l_edges) <= 3:
        raise InvalidFStarError(
            "f* must touch the region through 1 to 3 dual lattice edges, "
            "got %d" % len(l_edges))
    # adding f* as a face adds its corners outside H and its sides other
    # than the l-edges
    f_corners = _face_corners(f_star)
    new_corners = sum([c not in h_vertices for c in f_corners])
    if (len(h_vertices) + new_corners - (len(h_edges) + 4 - len(l_edges))
            + len(faces) + 1 != 1):
        raise InvalidFStarError("f* pinches off a hole")
    dual_edges += [(f, f_star, side) for f, _, side in rim]
    h_perp = DualGraph(faces, f_star, dual_edges, l_edges)

    v_star = region.v_star
    if v_star not in h_vertices:
        raise InvalidVStarError("v* is not a vertex of H")
    if v_star not in f_corners:
        raise InvalidVStarError("v* is not diagonally adjacent to f*")

    g_vertices = h_vertices.union(faces, (f_star,), blacks)

    # The two diagonal edges at f* with a flanking black outside G are
    # the only boundary diagonals of G; e*1 = {f*, v*} must be one of
    # them or the impurity cannot always be driven onto it.
    boundary = []
    for c in f_corners:
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
