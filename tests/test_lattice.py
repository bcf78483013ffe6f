"""Vertex classes, normal-graph validation, and region construction.

build_region makes one walk over the sorted faces and one over G's
sorted vertices.  reference_build_region is the multi-pass construction
it replaced, kept here as the reference: every side of every face, each
side's flanking faces looked up afterwards, the face links found by a
search, and G's edges taken from Gamma's definition and sorted by the
general NormalGraph constructor.  The two must agree field by field on
valid regions and fail with the same exception class and message on
invalid ones.
"""

import json
import time

import pytest

from octadimer.lattice import (
    BLACK, W0, W1, ComplementNotConnectedError, DualGraph,
    InvalidFStarError, InvalidInputError, InvalidVStarError, Memo,
    NormalGraph, NotConnectedError, Region, RegionError, TemperleyTriple,
    build_normal_graph, build_region, classify_vertex, diagonal_edges,
    edge, ell_region, flanking_blacks, is_diagonal_edge, midpoint,
    per_graph, reach, strip_region)

from test_kirchhoff import inputs, polyomino_region, square_region


# Reference geometry of Gamma, stated from its definition; the library
# builds its graphs without it.

def is_white(v) -> bool:
    return (v[0] + v[1]) % 2 == 0


def is_black(v) -> bool:
    return (v[0] + v[1]) % 2 == 1


def is_unit_edge(e) -> bool:
    (x1, y1), (x2, y2) = e
    return abs(x1 - x2) + abs(y1 - y2) == 1


UNIT_STEPS = ((1, 0), (0, 1), (-1, 0), (0, -1))
DIAGONAL_STEPS = ((1, 1), (-1, 1), (-1, -1), (1, -1))


def gamma_neighbors(v) -> set:
    """Neighbors of v in Gamma: 4 for a black vertex, 8 for a white one."""
    x, y = v
    out = {(x + dx, y + dy) for dx, dy in UNIT_STEPS}
    if is_white(v):
        out |= {(x + dx, y + dy) for dx, dy in DIAGONAL_STEPS}
    return out


def check_graph_construction(tri):
    """G's edges are Gamma's between its vertices, each listed once in
    sorted order; neighbour lists are sorted; the diagonals are shared;
    and the lazy N is the N of the eager construction."""
    g = tri.g
    want = {(v, w) for v in g.vertex_set for w in gamma_neighbors(v)
            if w in g.vertex_set and v < w}
    assert g.edges == tuple(sorted(want))
    for v in g.vertices:
        ns = g.neighbors(v)
        assert list(ns) == sorted(ns) == sorted(
            w for w in gamma_neighbors(v) if w in g.vertex_set)
    assert diagonal_edges(g) is diagonal_edges(g)
    assert diagonal_edges(g) == tuple(e for e in g.edges
                                      if is_diagonal_edge(e))
    n_vertices = g.vertex_set - {tri.f_star, tri.v_star}
    eager = NormalGraph(n_vertices,
                        [e for e in g.edges if is_unit_edge(e)
                         and e[0] in n_vertices and e[1] in n_vertices])
    assert tri.n.vertices == eager.vertices
    assert tri.n.edges == eager.edges
    assert tri.n.whites == eager.whites and tri.n.blacks == eager.blacks
    assert all(tri.n.neighbors(v) == eager.neighbors(v)
               for v in eager.vertices)


def flood_has_hole(points, neighbors, step) -> bool:
    """Reference hole check: whether the complement of points splits.

    The lattice has spacing step and neighbors(v) walks it.  Flood the
    complement inside the bounding box grown by one step.  Any
    complement point that can escape reaches the box frame, which lies
    entirely outside points and is connected through the far exterior.
    """
    xs = [x for x, _ in points]
    ys = [y for _, y in points]
    x0, x1 = min(xs) - step, max(xs) + step
    y0, y1 = min(ys) - step, max(ys) + step
    outside = {(x, y) for x in range(x0, x1 + 1, step)
               for y in range(y0, y1 + 1, step) if (x, y) not in points}
    frame = [(x, y) for x, y in outside if x in (x0, x1) or y in (y0, y1)]
    seen = reach(frame, lambda v: [w for w in neighbors(v) if w in outside])
    return len(seen) != len(outside)


def face_neighbors(f):
    x, y = f
    return ((x + 2, y), (x - 2, y), (x, y + 2), (x, y - 2))


def staircase(m):
    """2m + 1 faces climbing diagonally, f* and v* at the top step."""
    faces = ([(2 * i + 1, 2 * i + 1) for i in range(m)]
             + [(2 * i + 3, 2 * i + 1) for i in range(m)]
             + [(2 * m + 1, 2 * m + 1)])
    return Region.of(faces, (2 * m + 3, 2 * m + 1), (2 * m + 2, 2 * m + 2))


def _corners(f):
    x, y = f
    return ((x - 1, y - 1), (x + 1, y - 1), (x - 1, y + 1), (x + 1, y + 1))


def _sides(f):
    x, y = f
    return (edge((x - 1, y - 1), (x + 1, y - 1)),
            edge((x - 1, y + 1), (x + 1, y + 1)),
            edge((x - 1, y - 1), (x - 1, y + 1)),
            edge((x + 1, y - 1), (x + 1, y + 1)))


def _flanking_faces(h_edge):
    """The two W1 points on either side of an edge of Lambda."""
    (x1, y1), (x2, y2) = h_edge
    if y1 == y2:
        mx = (x1 + x2) // 2
        return ((mx, y1 - 1), (mx, y1 + 1))
    my = (y1 + y2) // 2
    return ((x1 - 1, my), (x1 + 1, my))


def reference_normal_graph(vset):
    """G on vset by Gamma's definition, with the hole check by cells."""
    if not vset:
        raise InvalidInputError("empty vertex set")
    g = NormalGraph(vset, {(v, w) for v in vset for w in gamma_neighbors(v)
                           if w in vset and v < w})
    if len(reach(g.vertices[:1], g.neighbors)) != len(g):
        raise NotConnectedError("vertex set is not connected in Gamma")
    triangles = sum([((x1, y2) in vset) + ((x2, y1) in vset)
                     for (x1, y1), (x2, y2) in g.edges
                     if is_diagonal_edge(((x1, y1), (x2, y2)))])
    if len(g.vertices) - len(g.edges) + triangles != 1:
        raise ComplementNotConnectedError("vertex set encloses a hole")
    return g


def reference_build_region(region):
    """The multi-pass construction of H, the full dual and G, with every
    check of build_region in the same order."""
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
    linked = reach(faces[:1], lambda f: [w for w in face_neighbors(f)
                                         if w in face_set])
    if len(linked) != len(faces):
        raise RegionError("faces are not connected")
    h_vertices = frozenset(c for f in faces for c in _corners(f))
    h_edges = frozenset(s for f in faces for s in _sides(f))
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
    if (len(h_vertices.union(_corners(f_star)))
            - len(h_edges.union(_sides(f_star))) + len(faces) + 1 != 1):
        raise InvalidFStarError("f* pinches off a hole")
    h_perp = DualGraph(faces, f_star, dual_edges, l_edges)

    v_star = region.v_star
    if v_star not in h_vertices:
        raise InvalidVStarError("v* is not a vertex of H")
    if edge(v_star, f_star) not in {edge(f_star, c)
                                    for c in _corners(f_star)}:
        raise InvalidVStarError("v* is not diagonally adjacent to f*")
    blacks = frozenset(midpoint(e) for e in h_edges)
    g_vertices = h_vertices | face_set | {f_star} | blacks
    boundary = []
    for c in _corners(f_star):
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
    g = reference_normal_graph(g_vertices)
    if g.white_count - 2 != g.black_count:
        raise RegionError("N is not balanced; region construction is broken")
    return TemperleyTriple(region, h_vertices, h_edges, h_perp, g,
                           e_star1, e_star2)


def assert_boundary_diagonals_end_the_l_edge_path(tri):
    """G's boundary diagonals, those with a flanking black outside G,
    are {e*1, e*2}: f* to the two ends of the path of l-edges."""
    f_star = tri.h_perp.f_star
    sides = tri.h_perp.l_edges
    path = {c for side in sides for c in side}
    ends = [c for c in _corners(f_star) if sum(c in s for s in sides) == 1]
    assert len(ends) == 2 and len(path) == len(sides) + 1
    boundary = {d for d in tri.g.diagonals
                if any(b not in tri.g.vertex_set for b in flanking_blacks(d))}
    assert boundary == {edge(f_star, c) for c in ends} == {tri.e_star1,
                                                            tri.e_star2}


def assert_same_construction(region):
    """build_region and reference_build_region give equal triples, or
    raise the same exception class with the same message."""
    try:
        want = reference_build_region(region)
    except InvalidInputError as exc:
        with pytest.raises(type(exc)) as got:
            build_region(region)
        assert type(got.value) is type(exc)
        assert str(got.value) == str(exc)
        return
    tri = build_region(region)
    assert tri.region == want.region
    assert tri.h_vertices == want.h_vertices
    assert tri.h_edges == want.h_edges
    hp, want_hp = tri.h_perp, want.h_perp
    assert hp.faces == want_hp.faces and hp.vertices == want_hp.vertices
    assert hp.dual_edges == want_hp.dual_edges
    assert hp.l_edges == want_hp.l_edges and hp.d_star == want_hp.d_star
    assert (tri.e_star1, tri.e_star2) == (want.e_star1, want.e_star2)
    assert_boundary_diagonals_end_the_l_edge_path(tri)
    g, want_g = tri.g, want.g
    assert g.vertices == want_g.vertices
    assert g.vertex_set == want_g.vertex_set
    assert g.edges == want_g.edges and g.edge_set == want_g.edge_set
    assert all(g.neighbors(v) == want_g.neighbors(v) for v in g.vertices)
    assert g.whites == want_g.whites and g.blacks == want_g.blacks
    assert (g.white_count, g.black_count) == (want_g.white_count,
                                              want_g.black_count)
    assert g.diagonals == want_g.diagonals


def test_vertex_classes():
    assert classify_vertex((0, 0)) == W0
    assert classify_vertex((1, 1)) == W1
    assert classify_vertex((1, 0)) == BLACK
    assert classify_vertex((0, 1)) == BLACK
    assert classify_vertex((-2, 4)) == W0
    assert classify_vertex((-1, 3)) == W1
    assert is_white((2, 2)) and is_white((3, 3))
    assert is_black((2, 3)) and not is_white((2, 3))


def test_gamma_neighbors():
    # whites see 4 unit + 4 diagonal neighbors, blacks only 4 unit
    nw = gamma_neighbors((0, 0))
    assert len(nw) == 8
    assert (1, 1) in nw and (1, 0) in nw and (-1, -1) in nw
    nb = gamma_neighbors((1, 0))
    assert len(nb) == 4
    assert all(abs(u[0] - 1) + abs(u[1]) == 1 for u in nb)
    # adjacency is symmetric
    assert (0, 0) in gamma_neighbors((1, 1))


def test_edge_helpers():
    e = edge((1, 1), (0, 0))
    assert e == ((0, 0), (1, 1))
    assert is_diagonal_edge(e) and not is_unit_edge(e)
    u = edge((1, 0), (0, 0))
    assert is_unit_edge(u) and not is_diagonal_edge(u)
    assert midpoint(((0, 0), (2, 0))) == (1, 0)


def test_unit_square_graph():
    g = build_normal_graph([(0, 0), (1, 0), (0, 1), (1, 1)])
    assert len(g) == 4
    assert g.white_count == 2 and g.black_count == 2
    # one diagonal {(0,0),(1,1)} plus the four sides
    assert len(g.edges) == 5
    assert diagonal_edges(g) == (((0, 0), (1, 1)),)


@pytest.mark.parametrize("region", [strip_region(n) for n in range(1, 9)]
                         + [ell_region()]
                         + [square_region(k) for k in (4, 8, 12)])
def test_graph_construction_on_the_ladder(region):
    check_graph_construction(build_region(region))


def test_normal_graph_canonicalizes_reversed_edges():
    g = NormalGraph([(0, 0), (1, 0), (0, 1), (1, 1)],
                    [((1, 1), (0, 0)), ((1, 0), (0, 0)), ((0, 0), (0, 1)),
                     ((1, 1), (0, 1)), ((1, 0), (1, 1))])
    want = build_normal_graph([(0, 0), (1, 0), (0, 1), (1, 1)])
    assert g.edges == want.edges
    assert g.edge_set == want.edge_set
    assert all(g.neighbors(v) == want.neighbors(v) for v in g.vertices)
    assert diagonal_edges(g) == (((0, 0), (1, 1)),)


def test_disconnected_rejected():
    with pytest.raises(NotConnectedError):
        build_normal_graph([(0, 0), (4, 0)])


def test_annulus_rejected():
    # ring of vertices around a missing center: complement splits
    ring = [(x, y) for x in range(-2, 3) for y in range(-2, 3)
            if (x, y) != (0, 0)]
    with pytest.raises(ComplementNotConnectedError):
        build_normal_graph(ring)


@pytest.mark.parametrize("vertex_set", [
    [(0, 0), (0, True)], [(0, 0), (0, "a")], [1, 2], 5])
def test_normal_graph_points_must_be_pairs_of_ints(vertex_set):
    # True would pass as 1 and keep a vertex (0, True); a string
    # coordinate, a bare int point and a non-collection would raise an
    # untyped TypeError
    with pytest.raises(InvalidInputError):
        build_normal_graph(vertex_set)


def test_region_of_normalizes():
    r = Region.of([[3, 1], [1, 1]], [3, 3], [2, 4])
    assert r.faces == ((1, 1), (3, 1))
    assert r.f_star == (3, 3) and r.v_star == (2, 4)


@pytest.mark.parametrize("faces, f_star, v_star", [
    ([[1]], [3, 1], [2, 2]),             # one coordinate
    ([[1, 1, 1]], [3, 1], [2, 2]),       # three coordinates
    ([[True, 1]], [3, 1], [2, 2]),       # bool passes for 1 unless refused
    ([[1.0, 1]], [3, 1], [2, 2]),
    ([[1, 1]], [3, "1"], [2, 2]),
    ([[1, 1]], [3, 1], 2),
])
def test_region_of_rejects_malformed_points(faces, f_star, v_star):
    with pytest.raises(RegionError):
        Region.of(faces, f_star, v_star)


def test_region_of_rejects_non_iterable_faces():
    with pytest.raises(RegionError, match="not a collection of points"):
        Region.of(5, (3, 3), (2, 4))
    with pytest.raises(RegionError, match="not a collection of points"):
        build_region(Region(faces=5, f_star=(3, 3), v_star=(2, 4)))


def test_build_region_reads_a_direct_region_through_region_of():
    # a Region built without Region.of is normalized, or refused, the same
    direct = Region(faces=[[3, 1], [1, 3], [1, 1]], f_star=[3, 3],
                    v_star=[2, 4])
    assert build_region(direct).region == ell_region()
    with pytest.raises(RegionError, match="not a pair of integers"):
        build_region(Region(faces=((True, 1),), f_star=(3, 1),
                            v_star=(2, 2)))
    with pytest.raises(RegionError, match="^duplicate faces$"):
        build_region(Region(faces=((1, 1), (3, 1), (1, 1)), f_star=(5, 1),
                            v_star=(4, 2)))
    with pytest.raises(RegionError, match="^region has no faces$"):
        build_region(Region(faces=(), f_star=(3, 3), v_star=(2, 4)))


@pytest.mark.parametrize("n", [2.5, True, "3", None])
def test_strip_region_requires_a_plain_int(n):
    with pytest.raises(RegionError):
        strip_region(n)


def test_strip_and_ell_factories():
    s = strip_region(2)
    assert s.faces == ((1, 1), (3, 1))
    assert s.f_star == (5, 1) and s.v_star == (4, 2)
    r = ell_region()
    assert r.faces == ((1, 1), (1, 3), (3, 1))
    assert r.f_star == (3, 3) and r.v_star == (2, 4)


def test_ell_triple_shape(ell):
    g = ell.g
    assert len(g) == 22
    assert g.white_count == 12 and g.black_count == 10
    assert len(g.edges) == 49
    assert len(diagonal_edges(g)) == 15
    assert ell.e_star1 == ((2, 4), (3, 3))
    assert ell.e_star2 == ((3, 3), (4, 2))
    assert ell.e_star1 == edge(ell.v_star, ell.f_star)
    assert ell.h_perp.d_star == 2
    # H has the 8 face corners and 10 sides; N drops f* and v*
    assert len(ell.h_vertices) == 8
    assert len(ell.h_edges) == 10
    assert len(ell.n.vertices) == 20
    assert ell.n.white_count == ell.n.black_count == 10


def test_strip_triple_shape(strip1):
    assert len(strip1.g) == 10
    assert strip1.h_perp.d_star == 1
    assert strip1.e_star1 == ((2, 2), (3, 1))
    assert strip1.e_star2 == ((2, 0), (3, 1))


def test_dual_graph_is_full_multigraph(ell):
    hp = ell.h_perp
    # one dual edge per edge of H, keyed by the crossed side
    assert len(hp.dual_edges) == len(ell.h_edges)
    assert hp.d_star == len(hp.l_edges) == 2
    assert hp.vertices == hp.faces + (ell.f_star,)


def test_region_validation_errors():
    with pytest.raises(RegionError):
        build_region(Region.of([], (3, 3), (2, 4)))
    with pytest.raises(RegionError):
        build_region(Region.of([(0, 0)], (3, 3), (2, 4)))
    with pytest.raises(RegionError):
        build_region(Region.of([(1, 1), (5, 1)], (3, 3), (2, 4)))
    # 3x3 face ring around a missing center face
    ring = [(1, 1), (3, 1), (5, 1), (1, 3), (5, 3), (1, 5), (3, 5), (5, 5)]
    with pytest.raises(RegionError):
        build_region(Region.of(ring, (7, 1), (6, 2)))


def test_f_star_validation():
    with pytest.raises(InvalidFStarError):
        build_region(Region.of([(1, 1)], (2, 2), (2, 2)))
    with pytest.raises(InvalidFStarError):
        build_region(Region.of([(1, 1)], (1, 1), (2, 2)))
    with pytest.raises(InvalidFStarError):
        build_region(Region.of([(1, 1)], (7, 7), (2, 2)))
    # C-shaped region open at (1,3): putting f* there closes the ring
    # and traps (3,3) inside
    cee = [(1, 1), (3, 1), (5, 1), (5, 3), (5, 5), (3, 5), (1, 5)]
    with pytest.raises(InvalidFStarError):
        build_region(Region.of(cee, (1, 3), (0, 2)))


def test_staircase_builds_in_linear_time():
    # the hole checks count cells of the faces, not of their bounding box
    region = staircase(320)
    start = time.perf_counter()
    tri = build_region(region)
    assert time.perf_counter() - start < 1.0
    assert len(tri.region.faces) == 641


def test_far_f_star_rejected_quickly():
    # a far-away f* fails its local checks, whatever the gap to the region
    start = time.perf_counter()
    with pytest.raises(InvalidFStarError):
        build_region(Region.of([(1, 1)], (8001, 8001), (8000, 8000)))
    assert time.perf_counter() - start < 1.0


def test_v_star_validation():
    with pytest.raises(InvalidVStarError):
        build_region(Region.of([(1, 1)], (3, 1), (0, 0)))
    with pytest.raises(InvalidVStarError):
        build_region(Region.of([(1, 1)], (3, 1), (3, 1)))
    # (4,0) is a corner of f* but {f*,(4,0)} is not a boundary diagonal
    # of G: both flanking blacks exist
    with pytest.raises(InvalidVStarError):
        build_region(Region.of([(1, 1)], (3, 1), (4, 0)))


def test_strip_v_star_choices():
    # the two legal v* for strip n=1 are the corners shared with the face
    for v_star in ((2, 2), (2, 0)):
        tri = build_region(Region.of([(1, 1)], (3, 1), v_star))
        assert_boundary_diagonals_end_the_l_edge_path(tri)


def test_per_graph_builds_once_per_graph_object():
    calls = []

    @per_graph
    def first(g):
        calls.append(g)
        return [len(g)]

    @per_graph
    def second(g):
        return "second"

    g = build_region(ell_region()).g
    h = build_region(ell_region()).g
    assert first(g) is first(g) and calls == [g]
    assert first(h) is not first(g) and calls == [g, h]
    assert second(g) == "second" and first(g) == [len(g)]
    assert calls == [g, h]
    # the keys are module-qualified names, so they cannot be attributes
    assert [k for k in vars(g) if "." in k] == [
        "%s.%s" % (f.__module__, f.__qualname__) for f in (first, second)]


def test_memo_builds_each_key_once():
    calls = []

    def build(key):
        calls.append(key)
        return [key]

    memo = Memo(build)
    assert memo == {} and calls == []
    first = memo[1]
    assert first == [1] and memo[1] is first and calls == [1]
    assert memo[2] == [2] and calls == [1, 2]
    assert memo[1] is first and memo[2] is memo[2] and calls == [1, 2]
    assert memo == {1: [1], 2: [2]} and memo.build is build
    assert 3 not in memo and memo.get(3) is None and calls == [1, 2]


@pytest.mark.parametrize(
    "region",
    [strip_region(n) for n in range(1, 9)] + [ell_region()]
    + [square_region(k) for k in range(2, 17)]
    + [polyomino_region(seed, 5 + 3 * seed) for seed in range(40)],
    ids=(["strip%d" % n for n in range(1, 9)] + ["ell"]
         + ["square%d" % k for k in range(2, 17)]
         + ["polyomino%d" % seed for seed in range(40)]))
def test_build_region_matches_reference(region):
    assert_same_construction(region)


RING = [(1, 1), (3, 1), (5, 1), (1, 3), (5, 3), (1, 5), (3, 5), (5, 5)]
CEE = [(1, 1), (3, 1), (5, 1), (5, 3), (5, 5), (3, 5), (1, 5)]
INVALID_REGIONS = [
    Region(faces=(), f_star=(3, 3), v_star=(2, 4)),
    Region(faces=5, f_star=(3, 3), v_star=(2, 4)),
    Region(faces=((True, 1),), f_star=(3, 1), v_star=(2, 2)),
    Region(faces=((1, 1), (3, 1), (1, 1)), f_star=(5, 1), v_star=(4, 2)),
    Region.of([(0, 0)], (3, 3), (2, 4)),
    Region.of([(1, 1), (2, 2)], (3, 3), (2, 4)),
    Region.of([(1, 1), (5, 1)], (3, 3), (2, 4)),
    Region.of(RING, (7, 1), (6, 2)),
    Region.of([(1, 1)], (2, 2), (2, 2)),
    Region.of([(1, 1)], (1, 1), (2, 2)),
    Region.of([(1, 1)], (7, 7), (2, 2)),
    Region.of([(1, 1)], (8001, 8001), (8000, 8000)),
    Region.of(CEE, (1, 3), (0, 2)),
    Region.of([(1, 1)], (3, 1), (0, 0)),
    Region.of([(1, 1)], (3, 1), (3, 1)),
    Region.of([(1, 1)], (3, 1), (4, 0)),
    Region.of([(1, 1), (3, 1)], (3, 3), (0, 2)),
    Region.of([(1, 1), (1, 3), (3, 3)], (3, 1), (2, 2)),
    Region.of([(1, 1), (3, 1), (1, 3), (1, 5), (3, 5)], (3, 3), (2, 2)),
]


def perfbench_invalid_regions():
    """The invalid region files of perfbench's exact workload that parse
    and name all three keys, as Regions."""
    out = []
    for seed in range(1, 6):
        for text in inputs.invalid_files(seed).values():
            try:
                obj = json.loads(text)
                out.append(Region(obj["faces"], obj["f_star"],
                                  obj["v_star"]))
            except (ValueError, KeyError):
                continue
    return out


@pytest.mark.parametrize("region",
                         INVALID_REGIONS + perfbench_invalid_regions())
def test_invalid_regions_fail_as_the_reference_does(region):
    with pytest.raises(InvalidInputError):
        reference_build_region(region)
    assert_same_construction(region)

