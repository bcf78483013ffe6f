"""Brute-force ground truth for small instances.

Everything here is deliberately naive: exhaustive backtracking over
perfect matchings and exhaustive spanning-tree enumeration.  The rest
of the package is cross-checked against these enumerations, so they
favor obviousness over speed and refuse inputs beyond desk scale.
"""

from itertools import combinations

from .covering import validate_covering
from .lattice import InvalidInputError, is_diagonal_edge

MATCHING_VERTEX_LIMIT = 34
TREE_EDGE_LIMIT = 24


class TooLargeError(Exception):
    """The instance exceeds the soft size limit for brute force."""


def _check_size(size, what, limit):
    if limit is None:
        return
    # bool is an int subclass that would otherwise pass as 0 or 1
    if type(limit) is not int or limit < 0:
        raise InvalidInputError(
            "limit %r is neither None nor a nonnegative integer" % (limit,))
    if size > limit:
        raise TooLargeError("%d %s exceeds the enumeration limit %d"
                            % (size, what, limit))


def enumerate_coverings(g, limit=MATCHING_VERTEX_LIMIT):
    """All perfect matchings of g, in a deterministic order.

    Backtracks on the lowest-indexed uncovered vertex, trying its
    neighbors in sorted order, so the output order is reproducible.
    Pass limit=None to lift the size cap.
    """
    _check_size(len(g.vertices), "vertices", limit)
    if len(g.vertices) % 2:
        return []
    vertices = g.vertices
    index = {v: i for i, v in enumerate(vertices)}
    n = len(vertices)
    mate = [None] * n
    neighbor_idx = {v: tuple(index[w] for w in g.neighbors(v))
                    for v in vertices}
    out = []
    chosen = []

    def extend(lo):
        while lo < n and mate[lo] is not None:
            lo += 1
        if lo == n:
            out.append(validate_covering(
                g, [(vertices[i], vertices[j]) for i, j in chosen]))
            return
        mate[lo] = lo
        for j in neighbor_idx[vertices[lo]]:
            if j > lo and mate[j] is None:
                mate[j] = lo
                chosen.append((lo, j))
                extend(lo + 1)
                chosen.pop()
                mate[j] = None
        mate[lo] = None

    extend(0)
    del extend  # it refers to itself: without this, out lives until gc runs
    return out


def impurity_histogram(g, coverings=None):
    """Count, per diagonal edge, the coverings using it as a dimer."""
    if coverings is None:
        coverings = enumerate_coverings(g)
    counts = {}
    for m in coverings:
        for e in m.dimers:
            if is_diagonal_edge(e):
                counts[e] = counts.get(e, 0) + 1
    return dict(sorted(counts.items()))


def enumerate_spanning_trees(vertices, edges, limit=TREE_EDGE_LIMIT):
    """All spanning trees of a multigraph, as sorted tuples of edge keys.

    edges is a sequence of (u, v, key) triples; parallel edges are told
    apart by their keys.  Trees are emitted in lexicographic key order.
    """
    _check_size(len(edges), "edges", limit)
    vertices = sorted(vertices)
    if len(vertices) == 1:
        return [()]
    index = {v: i for i, v in enumerate(vertices)}
    n = len(vertices)
    edges = sorted(edges, key=lambda e: e[2])
    out = []
    for combo in combinations(range(len(edges)), n - 1):
        parent = list(range(n))

        def find(i):
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        ok = True
        for k in combo:
            u, v, _ = edges[k]
            ru, rv = find(index[u]), find(index[v])
            if ru == rv:
                ok = False
                break
            parent[ru] = rv
        if ok:
            out.append(tuple(edges[k][2] for k in combo))
    return out
