"""Brute-force enumeration cross-checks and size guards."""

import gc

import pytest

from octadimer.lattice import (InvalidInputError, build_normal_graph,
                               build_region, strip_region)
from octadimer.oracle import (MATCHING_VERTEX_LIMIT, TREE_EDGE_LIMIT,
                              TooLargeError, enumerate_coverings,
                              enumerate_spanning_trees, impurity_histogram)

from conftest import unit_square_graph

# per-diagonal impurity counts for the L-region, re-derived by the
# selftest; the pattern 8/16/56 sums to 328
ELL_HISTOGRAM = {
    ((0, 0), (1, 1)): 8, ((0, 2), (1, 1)): 8,
    ((0, 2), (1, 3)): 16, ((0, 4), (1, 3)): 16,
    ((1, 1), (2, 0)): 8, ((1, 1), (2, 2)): 8,
    ((1, 3), (2, 2)): 16, ((1, 3), (2, 4)): 16,
    ((2, 0), (3, 1)): 16, ((2, 2), (3, 1)): 16,
    ((2, 2), (3, 3)): 56, ((2, 4), (3, 3)): 56,
    ((3, 1), (4, 0)): 16, ((3, 1), (4, 2)): 16,
    ((3, 3), (4, 2)): 56,
}


def test_unit_square_two_coverings():
    ms = enumerate_coverings(unit_square_graph())
    assert len(ms) == 2


def test_diagonal_path_single_covering():
    # zigzag of four whites joined only by diagonals, k = 2; a diagonal
    # 4-cycle would enclose a black and fail the complement check
    g = build_normal_graph([(0, 0), (1, 1), (2, 0), (3, 1)])
    ms = enumerate_coverings(g)
    assert len(ms) == 1
    assert ms[0].dimers == (((0, 0), (1, 1)), ((2, 0), (3, 1)))


def test_ell_count_and_histogram(ell, ell_coverings):
    assert len(ell_coverings) == 328
    assert len(set(ell_coverings)) == 328
    hist = impurity_histogram(ell.g, ell_coverings)
    assert hist == ELL_HISTOGRAM
    assert sum(hist.values()) == 328


def test_strip_counts():
    for n, want in [(1, 12), (2, 50), (3, 192)]:
        tri = build_region(strip_region(n))
        assert len(enumerate_coverings(tri.g)) == want


def test_matching_limit(ell):
    assert len(ell.g) <= MATCHING_VERTEX_LIMIT
    with pytest.raises(TooLargeError):
        enumerate_coverings(ell.g, limit=10)


@pytest.mark.parametrize("limit", [-1, True, False, 10.0, "10"])
def test_invalid_limits_are_invalid_input(ell, strip1, limit):
    # a negative limit used to read as too large an instance, and bool
    # would pass as 0 or 1
    with pytest.raises(InvalidInputError):
        enumerate_coverings(ell.g, limit=limit)
    with pytest.raises(InvalidInputError):
        enumerate_spanning_trees("ab", [("a", "b", 1)], limit=limit)
    # a limit equal to the size, 0 included, lets the instance through
    assert len(enumerate_coverings(strip1.g, limit=len(strip1.g))) == 12
    assert enumerate_spanning_trees("a", [], limit=0) == [()]


def test_spanning_trees_triangle():
    edges = [("a", "b", 1), ("b", "c", 2), ("a", "c", 3)]
    trees = enumerate_spanning_trees("abc", edges)
    assert sorted(trees) == [(1, 2), (1, 3), (2, 3)]


def test_spanning_trees_multigraph():
    # doubled edge: each copy gives its own tree
    edges = [("a", "b", "e1"), ("a", "b", "e2")]
    assert sorted(enumerate_spanning_trees("ab", edges)) == [("e1",), ("e2",)]
    assert enumerate_spanning_trees(["a"], []) == [()]


def test_tree_counts_match_determinant(ell):
    # H and its full dual have the same number of spanning trees
    h_edges = [(e[0], e[1], e) for e in ell.h_edges]
    assert len(enumerate_spanning_trees(ell.h_vertices, h_edges)) == 56
    dual = ell.h_perp
    assert len(enumerate_spanning_trees(dual.vertices, dual.dual_edges)) == 56


def test_tree_limit():
    edges = [(i, i + 1, i) for i in range(TREE_EDGE_LIMIT + 1)]
    with pytest.raises(TooLargeError):
        enumerate_spanning_trees(range(TREE_EDGE_LIMIT + 2), edges)


def test_enumeration_leaves_no_reference_cycle(ell):
    # the coverings are freed with the caller's last reference, not at
    # the next cyclic collection
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        enumerate_coverings(ell.g)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
