"""Counting coverings and impurity probabilities by exact linear algebra.

The number of t-classes equals the number of spanning trees of the
full dual of H, which by the matrix-tree theorem is |det A| for the
negative Laplacian A with the f* row and column removed.  Every non-f*
diagonal entry is pinned at 4, one per dual edge at the face, whether
or not the neighbor on the other side survives into A; the missing
neighbors act as absorbing boundary for the walk below.

Writing p_v for the probability that v belongs to T* under a uniform
spanning tree, p solves A p = b where b marks the faces reachable from
f* through an l-edge, and p_v is also the probability that a simple
random walk started at v first reaches f* through an l-edge.  A class
whose T* contains v hosts one covering per diagonal edge at v: four
for every face vertex, d* + 1 for f*.  Hence

    #coverings with impurity at {x, .} = |det A| p_x,
    #coverings in total = |det A| (4 sum_v p_v + d* - 3),

the sum running over all of V(H-perp) with p_f* = 1.

Every count is an integer: one fraction-free elimination of [A | b]
per region (eliminate, called once by solve_p) yields |det A| and
|det A| p together, and the integers |det A| p_v are the per-edge
counts themselves.  Fraction appears only where a probability is read
out: a Solution's items and impurity_probability.
"""

from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction

from .lattice import (InvalidInputError, TemperleyTriple, Edge,
                      is_diagonal_edge)


class SingularSystemError(InvalidInputError):
    pass


class NotDiagonalError(InvalidInputError):
    pass


class NotInGError(InvalidInputError):
    pass


@dataclass(frozen=True)
class LaplacianSystem:
    order: tuple          # V(H-perp) minus f*, lexicographic
    a: tuple              # rows of the reduced negative Laplacian
    b: tuple              # l-edge indicator
    d_star: int


def build_system(hp) -> LaplacianSystem:
    """The reduced negative Laplacian and boundary vector of a dual graph."""
    order = tuple(sorted(hp.faces))
    index = {v: i for i, v in enumerate(order)}
    n = len(order)
    a = [[0] * n for _ in range(n)]
    b = [0] * n
    for i, v in enumerate(order):
        a[i][i] = 4
    for u, v, h in hp.dual_edges:
        if hp.f_star in (u, v):
            face = v if u == hp.f_star else u
            if h in hp.l_edges:
                b[index[face]] = 1
        else:
            a[index[u]][index[v]] = -1
            a[index[v]][index[u]] = -1
    return LaplacianSystem(order, tuple(map(tuple, a)), tuple(b), hp.d_star)


def eliminate(sys: LaplacianSystem):
    """|det A| and the integers N = |det A| p over sys.order.

    One fraction-free (Bareiss) elimination of the augmented matrix
    [A | b]: after step k every entry below row k is a (k+1)-minor of
    the row-permuted matrix, so each division is exact and the last
    pivot D is +-det A.  The triangular U and column c it leaves still
    satisfy U p = c, and N_i = |D| p_i is an integer by Cramer's rule,
    so back-substitution U_ii N_i = |D| c_i - sum_{j>i} U_ij N_j
    divides exactly too.  Rows whose pivot-column entry is 0 are only
    rescaled, and only at their nonzero entries: most rows of the sparse
    Laplacian, so this takes about a third off the elimination.  Raises
    SingularSystemError when A is singular.
    """
    n = len(sys.order)
    m = [list(row) + [b] for row, b in zip(sys.a, sys.b)]
    prev = 1
    for k in range(n):
        if not m[k][k]:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                raise SingularSystemError("negative Laplacian is singular")
            m[k], m[swap] = m[swap], m[k]
        pivot = m[k][k]
        top = m[k][k + 1:]
        for i in range(k + 1, n):
            row = m[i]
            f = row[k]
            if f:
                row[k + 1:] = [(x * pivot - f * y) // prev
                               for x, y in zip(row[k + 1:], top)]
            else:
                row[k + 1:] = [x * pivot // prev if x else 0
                               for x in row[k + 1:]]
        prev = pivot
    det = abs(prev)
    counts = [0] * n
    for i in range(n - 1, -1, -1):
        row = m[i]
        rest = sum(u * c for u, c in zip(row[i + 1:n], counts[i + 1:]))
        counts[i] = (det * row[n] - rest) // row[i]
    return det, tuple(counts)


def tree_count(sys: LaplacianSystem) -> int:
    """|det A|: spanning trees of the full dual, so t-classes of G."""
    try:
        return eliminate(sys)[0]
    except SingularSystemError:
        return 0


class Solution(Mapping):
    """The exact solution p of A p = b over one common denominator.

    det is |det A| and counts[v] the integer |det A| p_v (Cramer's
    rule); read as a mapping, a Solution is v -> Fraction p_v.
    """

    def __init__(self, det: int, counts: dict):
        self.det = det
        self.counts = counts

    def __getitem__(self, v) -> Fraction:
        return Fraction(self.counts[v], self.det)

    def __iter__(self):
        return iter(self.counts)

    def __len__(self):
        return len(self.counts)


def solve_p(sys: LaplacianSystem, f_star=None) -> Solution:
    """Exact solution of A p = b, with p_f* = 1 adjoined when given."""
    det, counts = eliminate(sys)
    counts = dict(zip(sys.order, counts))
    if f_star is not None:
        counts[f_star] = det
    return Solution(det, counts)


@dataclass(frozen=True)
class RegionCounts:
    det: int              # |det A|, the number of t-classes
    at: dict              # dual vertex v -> |det A| p_v, with p_f* = 1
    total: int            # all coverings of G


def region_counts(tri: TemperleyTriple) -> RegionCounts:
    """Every count of a region, from one solve.

    at[v] is the number of coverings with the impurity on any one given
    diagonal edge at v.
    """
    sys = build_system(tri.h_perp)
    p = solve_p(sys, tri.f_star)
    return RegionCounts(p.det, p.counts,
                        4 * sum(p.counts.values()) + (sys.d_star - 3) * p.det)


def impurity_face(tri: TemperleyTriple, e: Edge):
    """The odd-odd end of the diagonal edge e of G, a vertex of H-perp."""
    e = (tuple(e[0]), tuple(e[1]))
    e = e if e[0] <= e[1] else (e[1], e[0])
    if not is_diagonal_edge(e):
        raise NotDiagonalError("%r is not a diagonal edge" % (e,))
    if e not in tri.g.edge_set:
        raise NotInGError("%r is not an edge of G" % (e,))
    return e[0] if e[0][0] % 2 else e[1]


def coverings_with_impurity(tri: TemperleyTriple, e: Edge) -> int:
    """How many coverings of G put their impurity on the diagonal e."""
    x = impurity_face(tri, e)
    return region_counts(tri).at[x]


def total_coverings(tri: TemperleyTriple) -> int:
    """|det A| (4 sum p_v + d* - 3) over all dual vertices."""
    return region_counts(tri).total


def impurity_probability(tri: TemperleyTriple, e: Edge) -> Fraction:
    """Chance that a uniform covering of G has its impurity on e."""
    x = impurity_face(tri, e)
    counts = region_counts(tri)
    return Fraction(counts.at[x], counts.total)
