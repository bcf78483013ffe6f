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
    #coverings in total = |det A| (4 sum_v p_v + d* + 1),

the sum running over the faces.

Every count is an integer: one fraction-free elimination of [A | b]
per region (eliminate, called once by solve_p) yields |det A| and
|det A| p together, and the integers |det A| p_v are the per-edge
counts themselves.  build_system puts the faces in coordinate nested-
dissection order (George 1973, "Nested dissection of a regular finite
element mesh"), which keeps the elimination's fill low, and eliminate
rescales an entry only when a step touches it.  solve_p returns the
counts with the total as one Solution, over the faces in sorted order;
region_counts adds f* with p_f* = 1.  Fraction appears only where a
probability is read out: a Solution's items and impurity_probability.
"""

from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction

from .lattice import (InvalidInputError, TemperleyTriple, Edge, _edge_arg,
                      is_diagonal_edge)


class SingularSystemError(InvalidInputError):
    pass


class NotDiagonalError(InvalidInputError):
    pass


class NotInGError(InvalidInputError):
    pass


@dataclass(frozen=True)
class LaplacianSystem:
    """A and b over the faces: row i is face order[i], and eliminate
    pivots on the rows in that order.  build_system gives the faces in
    nested-dissection order, not sorted."""

    order: tuple          # V(H-perp) minus f*, in pivot order
    neighbors: tuple      # per row, the columns of its -1 entries
    b: tuple              # l-edge indicator
    d_star: int


_LEAF = 8                 # parts of at most this many faces stay sorted


def _dissect(faces) -> tuple:
    """The faces, given sorted, in coordinate nested-dissection order.

    A part of more than _LEAF faces is split along its longer side at
    the median line of its faces: the faces before the line, then those
    after it, each ordered the same way, then the line itself.  No dual
    edge crosses the line, so eliminating either half fills nothing in
    the other.  A smaller part keeps its sorted order.
    """
    if len(faces) <= _LEAF:
        return tuple(faces)
    xs = [x for x, _ in faces]                # ascending: faces are sorted
    ys = sorted([y for _, y in faces])
    axis, line = (0, xs) if xs[-1] - xs[0] >= ys[-1] - ys[0] else (1, ys)
    mid = line[len(line) // 2]
    return (_dissect([f for f in faces if f[axis] < mid])
            + _dissect([f for f in faces if f[axis] > mid])
            + tuple([f for f in faces if f[axis] == mid]))


def build_system(hp) -> LaplacianSystem:
    """The reduced negative Laplacian and boundary vector of a dual graph.

    A is stored by rows: the diagonal is always 4, and row i holds -1 at
    each column in neighbors[i], so the system takes O(n) space.  order,
    the pivot order eliminate follows, is hp.faces in nested-dissection
    order (_dissect), so a region of at most _LEAF faces keeps its sorted
    order; an edge to f* marks b if it is an l-edge.
    """
    order = _dissect(hp.faces)
    index = {v: i for i, v in enumerate(order)}
    neighbors = [[] for _ in order]
    b = [0] * len(order)
    for u, v, h in hp.dual_edges:
        if v in index and u in index:
            i, j = index[u], index[v]
            neighbors[i].append(j)
            neighbors[j].append(i)
        elif h in hp.l_edges:
            b[index[v if u == hp.f_star else u]] = 1
    return LaplacianSystem(order, tuple(map(tuple, neighbors)), tuple(b),
                           hp.d_star)


def eliminate(sys: LaplacianSystem):
    """|det A| and the integers N = |det A| p over sys.order.

    One fraction-free (Bareiss) elimination of the augmented matrix
    [A | b] with no row swaps, pivoting in sys.order: a built A is
    symmetric, diagonally dominant and nonsingular, so positive definite,
    and every pivot (a leading principal minor) is positive.  Rows
    build_system cannot make raise InvalidInputError; a zero pivot, which
    only a singular hand-built system can give, raises
    SingularSystemError.

    Every entry of the partly eliminated A is a minor, symmetric in its
    row and column because A is, so a row stores only its columns on or
    right of the diagonal, and column n.  Step k updates exactly the
    rows i > k with column k, which by symmetry are the columns j < n
    of pivot row k, whose entry at column i is row i's factor; no face
    order is assumed.  Row i takes the pivot row, sorted by column, from
    column i on.

    An entry that step k does not update would only be rescaled by
    pivot/prev.  Instead each stored entry keeps the step it was last
    brought to, its level, and is brought up, x * piv[k] // piv[level],
    only when a step touches it: when a pivot row's update reaches it,
    or, for a row's remaining entries, once when that row becomes the
    pivot row.  The skipped rescales telescope, so the division is
    exact.  In build_system's order this costs 6 234 entry updates and
    1 092 bring-ups on 12 x 12, and 185 649 and 15 242 on 32 x 32, where
    lexicographic order, rescaling every untouched entry of an updated
    row, took 12 147 and 554 117 big-integer operations.

    Row k as it stands at step k is row k of the triangular U p = c the
    elimination leaves, so N_k = (|D| c_k - sum_{j>k} U_kj N_j) / U_kk,
    exact by Cramer's rule with D = det A the last pivot.
    """
    n = len(sys.order)
    _check_rows(sys, n)
    rows = []                     # row i: column -> (entry, level)
    for i, (adj, b) in enumerate(zip(sys.neighbors, sys.b)):
        row = {j: (-1, 0) for j in adj if j > i}
        row[i] = (4, 0)
        if b:
            row[n] = (b, 0)       # column n holds b
        rows.append(row)
    piv = [1]                     # piv[k]: pivot of step k - 1, divisor at k
    for k in range(n):
        prev = piv[k]
        top = sorted([(j, x if level == k else x * prev // piv[level])
                      for j, (x, level) in rows[k].items()])
        pivot = top.pop(0)[1]     # column k, the row's first
        if not pivot:
            raise SingularSystemError("negative Laplacian is singular")
        rows[k] = (pivot, top)    # row k of U, final
        piv.append(pivot)
        for p, (i, f) in enumerate(top):    # f: also row i's column k
            if i == n:
                break
            row = rows[i]
            for j, y in top[p:]:
                entry = row.get(j)
                if entry is None:             # fill-in
                    row[j] = (-f * y // prev, k + 1)
                    continue
                x, level = entry
                if level < k:
                    x = x * prev // piv[level]
                row[j] = ((x * pivot - f * y) // prev, k + 1)
    det = abs(piv[-1])
    counts = [0] * n + [-det]     # counts[n] folds |D| c_k into the sum
    for k in range(n - 1, -1, -1):
        pivot, top = rows[k]
        counts[k] = -sum(y * counts[j] for j, y in top) // pivot
    return det, tuple(counts[:n])


def _check_rows(sys: LaplacianSystem, n: int):
    """Reject rows, or a d_star, that build_system cannot make.

    d_star counts l-edges, so it is a plain non-negative int.  Rows of
    at most four distinct neighbors in range(n), none the row itself,
    with j in row i exactly when i is in row j, make A symmetric
    and diagonally dominant, so positive semidefinite: a zero leading
    minor then means det A = 0, and the elimination needs no swaps.
    eliminate relies on that symmetry: it reads the rows each step
    updates off the pivot row and stores only each row's upper
    triangle, so an asymmetric row must be rejected here, before any
    elimination.
    """
    cols = [set(adj) for adj in sys.neighbors]
    if len(cols) != n or len(sys.b) != n:
        raise InvalidInputError("system has %d rows and %d b entries for "
                                "%d faces" % (len(cols), len(sys.b), n))
    for i, (adj, c) in enumerate(zip(sys.neighbors, cols)):
        if not (len(c) == len(adj) <= 4 and i not in c
                and all(type(j) is int and 0 <= j < n and i in cols[j]
                        for j in adj)):
            raise InvalidInputError("row %d, neighbors %r, is not a row of "
                                    "a reduced dual Laplacian" % (i, adj))
        if type(sys.b[i]) is not int or sys.b[i] not in (0, 1):
            raise InvalidInputError("b[%d] = %r is not 0 or 1"
                                    % (i, sys.b[i]))
    if type(sys.d_star) is not int or sys.d_star < 0:
        raise InvalidInputError("d_star = %r is not a non-negative integer"
                                % (sys.d_star,))


def tree_count(sys: LaplacianSystem) -> int:
    """|det A|: spanning trees of the full dual, so t-classes of G."""
    try:
        return eliminate(sys)[0]
    except SingularSystemError:
        return 0


class Solution(Mapping):
    """Everything one solve of A p = b gives, over one common denominator.

    det is |det A|, the number of t-classes; counts[v] is the integer
    |det A| p_v (Cramer's rule), the number of coverings with the
    impurity on any one given diagonal edge at v; total is the number of
    coverings.  Read as a mapping, a Solution is v -> Fraction p_v.
    """

    def __init__(self, det: int, counts: dict, total: int):
        self.det = det
        self.counts = counts
        self.total = total

    def __getitem__(self, v) -> Fraction:
        return Fraction(self.counts[v], self.det)

    def __iter__(self):
        return iter(self.counts)

    def __len__(self):
        return len(self.counts)


def solve_p(sys: LaplacianSystem) -> Solution:
    """Exact solution of A p = b over the faces, with the covering total.

    The Solution lists the faces in sorted order, whatever sys.order is;
    a hand-built order that repeats a face or cannot be sorted raises
    InvalidInputError.
    """
    det, counts = eliminate(sys)
    try:
        by_face = dict(sorted(zip(sys.order, counts)))
    except TypeError:
        raise InvalidInputError("order %r cannot be sorted"
                                % (sys.order,)) from None
    if len(by_face) != len(counts):
        raise InvalidInputError("order %r repeats a face" % (sys.order,))
    return Solution(det, by_face, 4 * sum(counts) + (sys.d_star + 1) * det)


def region_counts(tri: TemperleyTriple) -> Solution:
    """Every count of a region from one solve, f* -> |det A| included."""
    p = solve_p(build_system(tri.h_perp))
    p.counts[tri.f_star] = p.det
    return p


def impurity_face(tri: TemperleyTriple, e: Edge):
    """The odd-odd end of the diagonal edge e of G, a vertex of H-perp."""
    e = _edge_arg(e)
    if not is_diagonal_edge(e):
        raise NotDiagonalError("%r is not a diagonal edge" % (e,))
    if e not in tri.g.edge_set:
        raise NotInGError("%r is not an edge of G" % (e,))
    return _odd_end(e)


def _odd_end(e: Edge):
    """The odd-odd end of a diagonal edge of G, unchecked."""
    return e[0] if e[0][0] % 2 else e[1]


def coverings_with_impurity(tri: TemperleyTriple, e: Edge) -> int:
    """How many coverings of G put their impurity on the diagonal e.

    Each call solves the whole region; for several edges, call
    region_counts once and read `counts[impurity_face(tri, e)]`.
    """
    x = impurity_face(tri, e)
    return region_counts(tri).counts[x]


def total_coverings(tri: TemperleyTriple) -> int:
    """|det A| (4 sum p_v + d* + 1) over the faces.

    Each call solves the whole region; region_counts gives this total
    together with det A and the per-edge counts from one solve.
    """
    return region_counts(tri).total


def impurity_probability(tri: TemperleyTriple, e: Edge) -> Fraction:
    """Chance that a uniform covering of G has its impurity on e.

    Each call solves the whole region; for several edges, call
    region_counts once and divide `counts[impurity_face(tri, e)]` by
    `total`.
    """
    x = impurity_face(tri, e)
    p = region_counts(tri)
    return Fraction(p.counts[x], p.total)
