"""Property-based checks over random small regions and coverings.

Regions are grown as short random walks of unit faces from (1,1); the
root pair (f*, v*) is the first legal choice on the boundary.  Up to
four faces the resulting G stays within the oracle's vertex budget, so
every randomized identity below is checked exactly.  The integer
elimination is also compared with the Fraction reference of
test_kirchhoff.py on walks of up to 13 faces, beyond the oracle.  The
Euler-count hole checks are compared with the bounding-box flood of
test_lattice.py, the t-classes and slit-curves of chain samples with
the reference walk of test_moves.py and the Arc-object chainer of
test_slits.py, and cli.main is fuzzed with arbitrary file contents and
arbitrary flags.
"""

import contextlib
import copy
import io
import json
import os
import tempfile

from hypothesis import assume, given, settings, strategies as st

from octadimer import cli
from octadimer.covering import (covering_to_obj, expected_impurity_count,
                                impurities)
from octadimer.kirchhoff import (build_system, coverings_with_impurity,
                                 solve_p, total_coverings, tree_count)
from octadimer.lattice import (BLACK, W0, W1, ComplementNotConnectedError,
                               Region, RegionError, build_normal_graph,
                               build_region, classify_vertex, diagonal_edges,
                               edge, reach, strip_region)
from octadimer.moves import apply_move, find_moves, t_class
from octadimer.oracle import enumerate_coverings, impurity_histogram
from octadimer.sampler import ChainConfig, run
from octadimer.slits import (enclosed_dual_tree, forests, impurity_curve,
                             slit_curves)
from octadimer.temperley import initial_covering

from strategies import regions
from test_cli import STRIP1
from test_kirchhoff import assert_matches_reference
from test_lattice import (assert_same_construction, check_graph_construction,
                          face_neighbors, flood_has_hole, gamma_neighbors,
                          is_black, is_white)
from test_moves import move_back, reference_t_class
from test_slits import reference_slit_curves

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
    check_graph_construction(tri)


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
        assert apply_move(m2, move_back(m2, mv)) == m
        assert len(impurities(m2)) == 1
        m = m2


@settings(max_examples=10, deadline=None)
@given(regions(), st.integers(0, 2 ** 31))
def test_chain_stays_valid(tri, seed):
    m0 = initial_covering(tri)
    rep = run(m0, ChainConfig(seed=seed, steps=300))
    assert len(impurities(rep.final)) == 1
    assert rep.final.graph is tri.g


@settings(max_examples=60, deadline=None, derandomize=True)
@given(regions(), st.integers(0, 2 ** 31), st.integers(0, 400))
def test_t_class_matches_reference_walk(tri, seed, steps):
    m = run(initial_covering(tri), ChainConfig(seed=seed, steps=steps)).final
    assert t_class(m) == reference_t_class(m)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(regions(), st.integers(0, 2 ** 31), st.integers(0, 400))
def test_slit_curves_match_reference_chainer(tri, seed, steps):
    m = run(initial_covering(tri), ChainConfig(seed=seed, steps=steps)).final
    assert slit_curves(m) == reference_slit_curves(m)


@st.composite
def box_components(draw, neighbors, step, max_side=7):
    """A connected set: one component of a dense random subset of a box.

    The box has sides of up to max_side lattice points, spaced step
    apart, starting at (step // 2, step // 2).
    """
    cols, rows = draw(st.integers(1, max_side)), draw(st.integers(1, max_side))
    kept = {(step * x + step // 2, step * y + step // 2)
            for x in range(cols) for y in range(rows)
            if draw(st.integers(0, 3))}
    assume(kept)
    return frozenset(reach([min(kept)], lambda v: [w for w in neighbors(v)
                                                   if w in kept]))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(box_components(gamma_neighbors, 1))
def test_normal_graph_hole_check_matches_flood(vertices):
    try:
        build_normal_graph(vertices)
        hole = False
    except ComplementNotConnectedError:
        hole = True
    assert hole == flood_has_hole(vertices, gamma_neighbors, 1)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(box_components(face_neighbors, 2), st.data())
def test_region_hole_checks_match_flood(component, data):
    # f* is cut out of a connected set, so it often closes a ring
    f_star = data.draw(st.sampled_from(sorted(component)))
    faces = component - {f_star}
    assume(faces and len(reach([min(faces)], lambda f: [
        w for w in face_neighbors(f) if w in faces])) == len(faces))
    touching = sum(w in faces for w in face_neighbors(f_star))
    hole = flood_has_hole(faces, face_neighbors, 2)
    pinch = (not hole and 1 <= touching <= 3
             and flood_has_hole(component, face_neighbors, 2))
    try:
        build_region(Region.of(faces, f_star, (f_star[0] - 1, f_star[1] - 1)))
        message = None
    except RegionError as exc:
        message = str(exc)
    assert (message == "faces enclose a hole") == hole
    assert (message == "f* pinches off a hole") == pinch


@settings(max_examples=100, deadline=None, derandomize=True)
@given(regions(max_steps=12))
def test_build_region_matches_reference_on_random_regions(tri):
    assert_same_construction(tri.region)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(box_components(face_neighbors, 2), st.data())
def test_build_region_fails_as_the_reference_does(component, data):
    # f* is cut out of a connected set and v* is one of its corners or
    # f* itself, so most of these regions fail, at one check or another:
    # split or holed faces, v* off H, {f*, v*} an interior diagonal
    f_star = data.draw(st.sampled_from(sorted(component)))
    x, y = f_star
    v_star = data.draw(st.sampled_from([
        (x - 1, y - 1), (x + 1, y - 1), (x - 1, y + 1), (x + 1, y + 1),
        f_star]))
    assert_same_construction(Region.of(component - {f_star}, f_star,
                                       v_star))


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 9) | st.floats()
    | st.text(max_size=4),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=8), inner, max_size=4)),
    max_leaves=16)
nested = st.integers(1, 100_000).map(lambda n: "[" * n + "]" * n)
points_or_junk = (st.lists(st.integers(-1, 7), min_size=2, max_size=2)
                  | json_values)
region_objects = st.fixed_dictionaries({
    "faces": st.lists(points_or_junk, max_size=5),
    "f_star": points_or_junk, "v_star": points_or_junk})

STRIP1_COVERINGS = [covering_to_obj(m) for m in
                    enumerate_coverings(build_region(strip_region(1)).g)]


def same_value_other_type(p):
    """[1, 0] -> [True, False], [3, 1] -> [3.0, True]: equal, not ints."""
    return [c == 1 if c in (0, 1) else float(c) for c in p]


@st.composite
def covering_objects(draw):
    """A covering of strip 1 with up to two endpoints replaced."""
    obj = copy.deepcopy(draw(st.sampled_from(STRIP1_COVERINGS)))
    dimers = obj["dimers"]
    for i, j in draw(st.sets(st.tuples(st.integers(0, len(dimers) - 1),
                                       st.integers(0, 1)), max_size=2)):
        dimers[i][j] = draw(st.just(same_value_other_type(dimers[i][j]))
                            | json_values)
    return obj


def file_contents(objects):
    """File bytes: JSON of objects or of anything, deep nesting, or junk."""
    text = st.one_of(objects.map(json.dumps), json_values.map(json.dumps),
                     nested, st.text(max_size=12))
    return text.map(str.encode) | st.binary(max_size=12)


def run_main(files, argv):
    """Run cli.main on argv, {} slots filled by files holding the bytes.

    The call runs inside the temporary directory, so a relative output
    path lands there too.
    """
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for i, content in enumerate(files):
            paths.append(os.path.join(tmp, "%d.json" % i))
            with open(paths[-1], "wb") as fh:
                fh.write(content)
        out = io.StringIO()
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(out):
                code = cli.main([a.format(*paths) for a in argv])
        except SystemExit as exc:
            code = exc.code
        finally:
            os.chdir(cwd)
    assert code in (0, 2, 3)
    if code:
        assert set(json.loads(out.getvalue())) == {"error", "message"}
    return code


@settings(max_examples=200, deadline=None, derandomize=True)
@given(file_contents(region_objects), st.sampled_from(["build", "prob"]))
def test_cli_survives_any_region_file(content, command):
    run_main([content], [command, "{0}"])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(file_contents(covering_objects()), st.sampled_from([
    ("moves", "list", "{0}", "{1}"),
    ("render", "{0}", "{1}"),
    ("sample", "{0}", "{1}", "--seed", "1", "--steps", "0")]))
def test_cli_survives_any_covering_file(content, argv):
    code = run_main([json.dumps(STRIP1).encode(), content], argv)
    if code == 0:
        # an accepted covering names every endpoint by two plain ints
        obj = json.loads(content)
        assert all(type(c) is int for dimer in obj["dimers"]
                   for p in dimer for c in p)


# Each command on strip 1 ({0}) with the tree-built covering ({1}) at
# hand, the flags it knows, and the one that names an output path.
COMMAND_LINES = {
    "sample": (("sample", "{0}"),
               ("--seed", "--steps", "--burn-in", "--every", "--frames"),
               "--frames"),
    "prob": (("prob", "{0}"), (), None),
    "enumerate": (("enumerate", "{0}"), ("--histogram", "--limit"), None),
    "moves": (("moves", "list", "{0}"), (), None),
    "render": (("render", "{0}"), ("--slits", "--forests", "-o", "--out"),
               "-o"),
}
UNKNOWN_FLAGS = ("--nope", "-x", "--seeds", "---steps", "--histogram=1")
# Paths inside the run's directory: a new one, a file, a path under a
# file, and the directory itself.
PATHS = st.sampled_from(["out", "{0}", "{0}/x", "."])
# Small and negative ints, non-integers, the covering file and paths.
FLAG_VALUES = (st.integers(-3, 300).map(str)
               | st.sampled_from(["1.5", "x", "", "-", "--", "1e3", "0x1",
                                  "{1}"])
               | PATHS)
STRIP1_START = json.dumps(covering_to_obj(
    initial_covering(build_region(strip_region(1))))).encode()


@st.composite
def command_lines(draw):
    """argv for one command: its base, maybe valid chain flags and an
    output path, then up to six drawn flags with a value, flags missing
    their value and strays."""
    base, known, out = COMMAND_LINES[
        draw(st.sampled_from(sorted(COMMAND_LINES)))]
    argv = list(base)
    if base[0] == "sample" and draw(st.booleans()):
        argv += ["--seed", str(draw(st.integers(0, 9))),
                 "--steps", str(draw(st.integers(0, 300)))]
    if out and draw(st.booleans()):
        argv += [out, draw(PATHS)]
    flags = st.sampled_from(known + UNKNOWN_FLAGS)
    for token in draw(st.lists(st.tuples(flags, FLAG_VALUES) | st.tuples(flags)
                               | st.tuples(FLAG_VALUES), max_size=6)):
        argv += token
    return argv


@settings(max_examples=300, deadline=None, derandomize=True)
@given(command_lines())
def test_cli_survives_any_flags(argv):
    run_main([json.dumps(STRIP1).encode(), STRIP1_START], argv)
