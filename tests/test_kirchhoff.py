"""Exact counting through the reduced dual Laplacian.

Frozen numbers: the L-region system (det 56, p = 1/7, 2/7, 2/7, total
328) and the strip determinants 4, 15, 56, 209, 780, 2911, 10864,
40545, which obey a_n = 4 a_{n-1} - a_{n-2} and the closed form in
powers of 2 +- sqrt(3).  The sparse integer elimination is checked
against a dense fraction-free Gauss-Jordan with row swaps, kept here as
the reference (and used on random polyominoes in test_properties.py),
and by the exact residual A N = |det A| b on the dense rows, also with
the faces in orders other than build_system's, and on the larger
squares by its exact residual and a determinant mod a prime.  On
squares its determinant also equals bench/ladder.py's square_det, the
path recurrence P_k(4I - T) and one dense elimination.  The square
regions, the residual check and square_det are those of
bench/ladder.py, which runs the same checks in CI; the seeded 60-face
polyomino is the one perfbench/inputs.py draws for the exact workload.
"""

import dataclasses
import importlib.util
import json
import math
import pathlib
import random
from fractions import Fraction

import pytest

import octadimer
from octadimer import cli, kirchhoff
from octadimer.kirchhoff import (LaplacianSystem, NotDiagonalError,
                                 NotInGError, SingularSystemError,
                                 build_system, coverings_with_impurity,
                                 eliminate, impurity_probability,
                                 region_counts, solve_p, total_coverings,
                                 tree_count)
from octadimer.lattice import (InvalidInputError, Region, RegionError,
                               build_region, ell_region, strip_region)
from octadimer.oracle import impurity_histogram
from octadimer.slits import impurity_curve
from octadimer.temperley import initial_covering

STRIP_DETS = [4, 15, 56, 209, 780, 2911, 10864, 40545]

_spec = importlib.util.spec_from_file_location(
    "ladder", pathlib.Path(__file__).parents[1] / "bench" / "ladder.py")
ladder = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ladder)
square_region = ladder.square_region

_spec = importlib.util.spec_from_file_location(
    "inputs", pathlib.Path(__file__).parents[1] / "perfbench" / "inputs.py")
inputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(inputs)


def polyomino_region(seed, n):
    obj = inputs.polyomino(random.Random(seed), n)
    return Region.of(obj["faces"], obj["f_star"], obj["v_star"])


# the region ladder the elimination and its results are checked on
LADDER = ([strip_region(n) for n in range(1, 9)]
          + [ell_region(), square_region(4), square_region(8)])
LADDER_IDS = (["strip%d" % n for n in range(1, 9)]
              + ["ell", "square4", "square8"])


def dense_rows(sys):
    """A as a dense list of rows, from its sparse rows."""
    n = len(sys.order)
    a = [[0] * n for _ in range(n)]
    for i, adj in enumerate(sys.neighbors):
        a[i][i] = 4
        for j in adj:
            a[i][j] = -1
    return a


def reference_solve(sys):
    """det A and N = |det A| A^-1 b by the textbook fraction-free
    Gauss-Jordan elimination of the dense rows [A | b], with row swaps.

    Step k turns every row i != k into (p r_i - r_ik r_k) / prev, where
    p is the pivot and prev the pivot before it; the division is exact.
    At the end each diagonal entry is det of the row-swapped A, and
    column n holds it times the solution.
    """
    n = len(sys.order)
    m = [row + [sys.b[i]] for i, row in enumerate(dense_rows(sys))]
    sign, prev = 1, 1
    for k in range(n):
        pivot = next(i for i in range(k, n) if m[i][k])
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        row_k = m[k]
        p = row_k[k]
        for i in range(n):
            if i != k:
                r = m[i][k]
                m[i] = [(p * x - r * y) // prev for x, y in zip(m[i], row_k)]
        prev = p
    assert all(m[i][i] == prev for i in range(n))
    unit = 1 if prev > 0 else -1
    return sign * prev, [unit * row[n] for row in m]


def assert_solves(sys, det, counts):
    """A N == |det A| b exactly, over the dense rows of A."""
    for row, b in zip(dense_rows(sys), sys.b):
        assert sum(x * c for x, c in zip(row, counts)) == det * b


def assert_matches_reference(tri):
    sys = build_system(tri.h_perp)
    det, counts = eliminate(sys)
    ref_det, ref_counts = reference_solve(sys)
    assert det == abs(ref_det) > 0
    assert list(counts) == ref_counts
    assert_solves(sys, det, counts)


def test_ell_system(ell):
    sys = build_system(ell.h_perp)
    assert sys.order == ((1, 1), (1, 3), (3, 1))
    assert sys.neighbors == ((1, 2), (0,), (0,))
    assert dense_rows(sys) == [[4, -1, -1], [-1, 4, 0], [-1, 0, 4]]
    assert sys.b == (0, 1, 1)
    assert sys.d_star == 2


def test_ell_det_and_p(ell):
    sys = build_system(ell.h_perp)
    assert tree_count(sys) == 56
    p = solve_p(sys)
    assert p == {(1, 1): Fraction(1, 7), (1, 3): Fraction(2, 7),
                 (3, 1): Fraction(2, 7)}
    p = region_counts(ell)
    assert p[ell.f_star] == 1


def test_solution_keeps_one_denominator(ell):
    p = region_counts(ell)
    assert p.det == 56
    assert p.counts == {(1, 1): 8, (1, 3): 16, (3, 1): 16, ell.f_star: 56}
    assert dict(p) == {v: Fraction(n, 56) for v, n in p.counts.items()}


def test_solution_is_exported_from_the_package_root(ell):
    p = octadimer.region_counts(ell)
    assert isinstance(p, octadimer.Solution)
    assert octadimer.region_counts is region_counts


def test_ell_counts(ell):
    assert total_coverings(ell) == 328
    assert coverings_with_impurity(ell, ell.e_star1) == 56
    assert coverings_with_impurity(ell, ((0, 2), (1, 3))) == 16
    assert coverings_with_impurity(ell, ((0, 0), (1, 1))) == 8
    # edge orientation is canonicalized
    assert coverings_with_impurity(ell, ((3, 3), (2, 4))) == 56


def test_ell_probabilities(ell):
    assert impurity_probability(ell, ell.e_star1) == Fraction(7, 41)
    assert impurity_probability(ell, ((0, 2), (1, 3))) == Fraction(2, 41)
    assert impurity_probability(ell, ((0, 0), (1, 1))) == Fraction(1, 41)


def test_counts_match_oracle(ell, ell_coverings):
    hist = impurity_histogram(ell.g, ell_coverings)
    for e, n in hist.items():
        assert coverings_with_impurity(ell, e) == n
    assert sum(hist.values()) == total_coverings(ell)


def test_edge_arguments_validated(ell):
    with pytest.raises(NotDiagonalError):
        coverings_with_impurity(ell, ((0, 0), (1, 0)))
    with pytest.raises(NotInGError):
        coverings_with_impurity(ell, ((9, 9), (10, 10)))


@pytest.mark.parametrize("e", [
    ((1, 3),),                        # one point
    ((1, 3), (2, 4), (9, 9)),         # three points
    (("a", "b"), (2, 4)),             # not integers
    ((True, 3), (2, 4)),              # bool passes for 1 unless refused
    ((1.0, 3), (2, 4)),
    ((1, 3), 2),
    5,
    "ab",
], ids=["one-point", "three-points", "strings", "bool", "float",
        "int-point", "int", "str"])
def test_malformed_edge_arguments_rejected(ell, e):
    m = initial_covering(ell)
    for call in (lambda: coverings_with_impurity(ell, e),
                 lambda: impurity_probability(ell, e),
                 lambda: impurity_curve(m, e)):
        with pytest.raises(RegionError):
            call()


def test_edge_arguments_read_as_lists(ell):
    # the list form JSON gives, in either orientation
    m = initial_covering(ell)
    for e in ([[3, 3], [2, 4]], [[2, 4], [3, 3]]):
        assert coverings_with_impurity(ell, e) == 56
        assert impurity_curve(m, e) == impurity_curve(m, ell.e_star1)


def test_strip_determinants():
    dets = []
    for n in range(1, 41):
        tri = build_region(strip_region(n))
        dets.append(tree_count(build_system(tri.h_perp)))
    assert dets[:8] == STRIP_DETS
    for n in range(2, 40):
        assert dets[n] == 4 * dets[n - 1] - dets[n - 2]


def test_strip_closed_form():
    lp, lm = 2 + math.sqrt(3), 2 - math.sqrt(3)
    for n, a in enumerate(STRIP_DETS, start=1):
        closed = (lp ** (n + 1) - lm ** (n + 1)) / (2 * math.sqrt(3))
        assert abs(closed - a) / a < 1e-12


def test_strip_totals():
    for n, want in [(1, 12), (2, 50), (3, 192)]:
        assert total_coverings(build_region(strip_region(n))) == want


def test_strip_per_edge_counts():
    # all four edges of face j carry a_{j-1} coverings; the two f*
    # edges carry a_n
    tri = build_region(strip_region(3))
    a = [1] + STRIP_DETS
    for j in range(1, 4):
        f = (2 * j - 1, 1)
        for c in ((2 * j - 2, 0), (2 * j - 2, 2), (2 * j, 0), (2 * j, 2)):
            assert coverings_with_impurity(tri, (f, c) if f < c else (c, f)) \
                == a[j - 1]
    assert coverings_with_impurity(tri, tri.e_star1) == a[3]
    assert coverings_with_impurity(tri, tri.e_star2) == a[3]


def test_strip_site_probability_decay():
    # deeper sites are exponentially less likely to carry the impurity
    tri = build_region(strip_region(6))
    probs = [impurity_probability(tri, ((2 * j - 2, 0), (2 * j - 1, 1)))
             for j in range(1, 7)]
    assert all(p1 < p2 for p1, p2 in zip(probs, probs[1:]))
    # consecutive ratios approach 2 - sqrt(3) from one side
    ratios = [float(p1 / p2) for p1, p2 in zip(probs, probs[1:])]
    assert abs(ratios[-1] - (2 - math.sqrt(3))) < 1e-2


def test_corrected_asymptotic_constant():
    # per-edge probability at site j behaves like c * lam^-(n-j) with
    # c = (2 sqrt(3) - 3) / 6, not 1/4
    tri = build_region(strip_region(8))
    total = total_coverings(tri)
    a = [1] + STRIP_DETS
    lam = 2 + math.sqrt(3)
    c = (2 * math.sqrt(3) - 3) / 6
    for j in range(5, 9):
        exact = a[j - 1] / total
        approx = c * lam ** -(8 - j)
        assert abs(approx - exact) / exact < 0.01


def test_singular_system():
    # 4 I minus the adjacency of K5 sends the all-ones vector to 0; the
    # elimination meets the zero pivot at its last step
    order = tuple((2 * i + 1, 1) for i in range(5))
    sys = LaplacianSystem(
        order=order,
        neighbors=tuple(tuple(j for j in range(5) if j != i)
                        for i in range(5)),
        b=(0, 0, 0, 0, 1), d_star=1)
    assert tree_count(sys) == 0
    with pytest.raises(SingularSystemError):
        solve_p(sys)


@pytest.mark.parametrize("neighbors, b", [
    # 5 I - J has det -3125, but its leading 5 x 5 minor is 0, and no
    # face of a region has five neighbors
    (tuple(tuple(j for j in range(6) if j != i) for i in range(6)), (0,) * 6),
    (((2,), (0,)), (0, 1)),           # column n holds b
    (((1,), ()), (0, 1)),             # not symmetric
    (((0, 1), (0,)), (0, 1)),         # the row itself
    (((1, 1), (0,)), (0, 1)),         # repeated neighbor
    (((True,), (0,)), (0, 1)),        # not a plain int
    (((1,), (0,)), (0, 2)),           # b not 0 or 1
    (((1,), (0,)), (1,)),             # b too short
], ids=["six-neighbors", "index-n", "asymmetric", "self", "repeated",
        "bool", "b-entry", "b-length"])
def test_hand_built_rows_rejected(neighbors, b):
    order = tuple((2 * i + 1, 1) for i in range(len(neighbors)))
    sys = LaplacianSystem(order=order, neighbors=neighbors, b=b, d_star=1)
    for call in (tree_count, solve_p):
        with pytest.raises(InvalidInputError) as err:
            call(sys)
        assert not isinstance(err.value, SingularSystemError)


@pytest.mark.parametrize("d_star", ["x", -9, 2.5, True])
def test_hand_built_d_star_rejected(d_star):
    # each used to reach the total: "x" raised an untyped TypeError, -9
    # gave a total of -100, 2.5 one of 72.5 and True one of 50
    sys = LaplacianSystem(order=((1, 1), (3, 1)), neighbors=((1,), (0,)),
                          b=(0, 1), d_star=d_star)
    for call in (tree_count, solve_p):
        with pytest.raises(InvalidInputError, match="^d_star = "):
            call(sys)


@pytest.mark.parametrize("order", [
    ((1, 1), "a"),                    # not comparable: the faces are sorted
    ((1, 1), [1, 3]),                 # not hashable
    ((1, 1), (1, 1)),                 # a face given twice
], ids=["string", "list", "repeated"])
def test_hand_built_order_rejected(order):
    # the rows are fine, so tree_count still reads det; only the
    # Solution needs the faces
    sys = LaplacianSystem(order=order, neighbors=((1,), (0,)), b=(0, 1),
                          d_star=1)
    assert tree_count(sys) == 15
    with pytest.raises(InvalidInputError):
        solve_p(sys)


@pytest.mark.parametrize("region", LADDER, ids=LADDER_IDS)
def test_elimination_matches_reference(region):
    assert_matches_reference(build_region(region))


@pytest.mark.parametrize("region", LADDER, ids=LADDER_IDS)
def test_region_counts_is_the_face_solve_plus_f_star(region):
    # one Solution carries det, the counts and the total; region_counts
    # differs from the bare solve only by f* -> det
    tri = build_region(region)
    faces = solve_p(build_system(tri.h_perp))
    p = region_counts(tri)
    assert (p.det, p.total) == (faces.det, faces.total)
    assert p.counts == {**faces.counts, tri.f_star: p.det}
    assert tri.f_star not in faces and p[tri.f_star] == 1


ORDER_REGIONS = LADDER + [square_region(k) for k in (3, 5, 12)] + [
    polyomino_region(seed, n) for seed, n in ((3, 60), (5, 8), (7, 9))]
ORDER_IDS = LADDER_IDS + ["square3", "square5", "square12", "polyomino60",
                          "polyomino8", "polyomino9"]


@pytest.mark.parametrize("region", ORDER_REGIONS, ids=ORDER_IDS)
def test_pivot_order_is_a_permutation_of_the_faces(region):
    # build_system pivots in nested-dissection order; a region of at
    # most _LEAF faces keeps the sorted order of hp.faces
    hp = build_region(region).h_perp
    order = build_system(hp).order
    assert sorted(order) == list(hp.faces) and len(set(order)) == len(order)
    if len(order) <= kirchhoff._LEAF:
        assert order == hp.faces
    else:
        assert order != hp.faces


@pytest.mark.parametrize("k", [3, 4, 8, 12])
def test_square_pivot_order_ends_with_its_separator(k):
    # a square's x and y extents tie, so it is split along x at its
    # median column, which comes last, after every face left of it
    order = build_system(build_region(square_region(k)).h_perp).order
    mid = 2 * (k // 2) + 1
    assert [f[0] for f in order[-k:]] == [mid] * k
    left = {f for f in order if f[0] < mid}
    assert set(order[:len(left)]) == left


@pytest.mark.parametrize("region", ORDER_REGIONS, ids=ORDER_IDS)
def test_solution_faces_iterate_in_sorted_order(region):
    # solve_p's Solution lists the faces in sorted order, whatever the
    # pivot order; region_counts appends f*
    tri = build_region(region)
    sys = build_system(tri.h_perp)
    faces = list(tri.h_perp.faces)
    assert list(solve_p(sys)) == faces
    assert list(solve_p(permuted(sys, sys.order[::-1]))) == faces
    assert list(region_counts(tri)) == faces + [tri.f_star]


def test_entries_untouched_across_pivots():
    # row 4's column 5 is stored at level 0 and untouched through steps
    # 0 to 2, then step 3 updates it, bringing it up by piv[3] / piv[0]
    # first; step 0 updates row 4's column n (b) to level 1, and nothing
    # touches it again until row 4 is the pivot row at step 4, which
    # brings it up by piv[4] / piv[1]
    order = tuple((2 * i + 1, 1) for i in range(6))
    sys = LaplacianSystem(order=order,
                          neighbors=((4,), (2,), (1,), (4, 5), (0, 3, 5),
                                     (3, 4)),
                          b=(1, 0, 1, 0, 1, 0), d_star=1)
    det, counts = eliminate(sys)
    ref_det, ref_counts = reference_solve(sys)
    assert det == abs(ref_det) > 0
    assert list(counts) == ref_counts
    assert_solves(sys, det, counts)


def permuted(sys, order):
    """sys with its faces in the given order, neighbors and b remapped."""
    old = {v: i for i, v in enumerate(sys.order)}
    new = {v: i for i, v in enumerate(order)}
    return LaplacianSystem(
        order=tuple(order),
        neighbors=tuple(tuple(new[sys.order[j]] for j in sys.neighbors[old[v]])
                        for v in order),
        b=tuple(sys.b[old[v]] for v in order), d_star=sys.d_star)


FACE_ORDERS = {
    "reversed": lambda faces: faces[::-1],
    # build_system sorts by (x, y); this sorts by (y, x)
    "transposed": lambda faces: sorted(faces, key=lambda f: (f[1], f[0])),
    "shuffled": lambda faces: random.Random(12).sample(faces, len(faces)),
}


@pytest.mark.parametrize("how", sorted(FACE_ORDERS))
@pytest.mark.parametrize("region", LADDER + [polyomino_region(3, 60)],
                         ids=LADDER_IDS + ["polyomino60"])
def test_elimination_is_order_free(region, how):
    # which rows a step updates is read off the pivot row, so no face
    # order is assumed: any order gives the same det and the same counts
    sys = build_system(build_region(region).h_perp)
    det, counts = eliminate(sys)
    other = permuted(sys, FACE_ORDERS[how](sys.order))
    det2, counts2 = eliminate(other)
    assert det2 == det
    assert dict(zip(other.order, counts2)) == dict(zip(sys.order, counts))
    ref_det, ref_counts = reference_solve(other)
    assert det2 == abs(ref_det)
    assert list(counts2) == ref_counts
    assert_solves(other, det2, counts2)


def det_mod(a, p):
    """det a mod the prime p, by dense Gaussian elimination over GF(p)."""
    m = [[x % p for x in row] for row in a]
    n = len(m)
    det = 1
    for k in range(n):
        pivot = next(i for i in range(k, n) if m[i][k])
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            det = -det
        det = det * m[k][k] % p
        inv = pow(m[k][k], -1, p)
        for i in range(k + 1, n):
            if m[i][k]:
                r = m[i][k] * inv % p
                m[i] = [(x - r * y) % p for x, y in zip(m[i], m[k])]
    return det % p


@pytest.mark.parametrize("k", [12, 16])
def test_elimination_residual_on_large_squares(k):
    # A N = det b exactly, row by row with A and b rebuilt from the dual
    # graph, and det agrees with a dense elimination modulo a 61-bit prime
    tri = build_region(square_region(k))
    assert ladder.residual_ok(tri)
    sys = build_system(tri.h_perp)
    det, counts = eliminate(sys)
    prime = 2 ** 61 - 1
    assert det % prime == det_mod(dense_rows(sys), prime)
    assert det > 0 and all(0 < c < det for c in counts)


def test_square_det_by_hand():
    # one face; 4I minus the 4-cycle, eigenvalues 2, 4, 4, 6; the 3 x 3
    # grid, eigenvalues 4 - l_i - l_j over the path's l = sqrt 2, 0, -sqrt 2
    assert [ladder.square_det(k) for k in (1, 2, 3)] == [
        4, 2 * 4 * 4 * 6, (16 - 8) * (16 - 2) ** 2 * 4 ** 3]


@pytest.mark.parametrize("k", [4, 8, 12, 16, 24])
def test_elimination_det_matches_square_det(k):
    # det P_k(4I - T) from the path recurrence and a dense elimination,
    # sharing nothing with eliminate; bench/ladder.py checks every
    # square rung the same way
    sys = build_system(build_region(square_region(k)).h_perp)
    assert eliminate(sys)[0] == ladder.square_det(k)


def test_system_is_linear_in_size():
    # at most the diagonal and four neighbors per row, never n^2 entries
    sys = build_system(build_region(square_region(16)).h_perp)
    n = len(sys.order)

    def entries(x):
        if isinstance(x, (tuple, list)):
            return sum(entries(y) for y in x)
        return 1
    stored = sum(entries(getattr(sys, f.name))
                 for f in dataclasses.fields(sys)
                 if f.name not in ("order", "b", "d_star"))
    assert n == 256
    assert stored <= 5 * n


def test_one_elimination_per_call(monkeypatch, capsys, tmp_path, ell):
    calls = []

    def counted(sys):
        calls.append(sys)
        return eliminate(sys)
    monkeypatch.setattr(kirchhoff, "eliminate", counted)
    path = tmp_path / "ell.json"
    path.write_text(json.dumps({"faces": [[1, 1], [1, 3], [3, 1]],
                                "f_star": [3, 3], "v_star": [2, 4]}))
    for call in (lambda: cli.main(["prob", str(path)]),
                 lambda: total_coverings(ell),
                 lambda: impurity_probability(ell, ell.e_star1)):
        calls.clear()
        call()
        assert len(calls) == 1
