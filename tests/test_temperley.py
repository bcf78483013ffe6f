"""Tree encodings of coverings and the class-level bijection.

pi is checked against the move-based t-class walk: on every covering
of the L-region and of strips 2-4, and on chain samples of the 4x4 and
8x8 squares, pi(m) is the class's e*1 member less e*1, and phi reads
one tree off every member of the class.

The heavy test sweeps all 328 coverings of the L-region: for every
t-class the enclosed dual tree T* must be the same for each member,
must equal the tree predicted by impurity_support on the class's
spanning tree, the class size must be the total diagonal degree of T*,
and the impurity edges seen across the class must be exactly the
diagonals whose odd-odd endpoint lies in T*.
"""

from collections import defaultdict
from fractions import Fraction

import pytest

from octadimer.covering import ForeignEdgeError, impurities, validate_covering
from octadimer.kirchhoff import region_counts
from octadimer.lattice import (Region, build_region, diagonal_edges, edge,
                               ell_region, strip_region)
from octadimer.moves import t_class, t_classes
from octadimer.oracle import enumerate_coverings, enumerate_spanning_trees
from octadimer.sampler import ChainConfig, run
from octadimer.slits import enclosed_dual_tree, forests, impurity_curve
from octadimer.temperley import (BijectionError, class_bijection, dual_tree,
                                 impurity_support, initial_covering, phi, pi,
                                 temperley_forward, tree_of_h)

from test_kirchhoff import square_region


def all_h_trees(tri):
    triples = [(e[0], e[1], e) for e in tri.h_edges]
    return enumerate_spanning_trees(tri.h_vertices, triples)


def test_tree_complementarity(ell):
    for keys in all_h_trees(ell):
        t = tree_of_h(ell, keys)
        assert t.root == ell.v_star
        assert t.edges == frozenset(keys)
        tp = dual_tree(ell, t)
        assert tp.root == ell.f_star
        assert t.edges | tp.edges == ell.h_edges
        assert not (t.edges & tp.edges)


def test_tree_of_h_rejects_edges_outside_h(ell):
    side = ((0, 2), (0, 4))
    keys = next(set(k) for k in all_h_trees(ell)
                if side in k and ((0, 0), (0, 2)) in k)
    # (0,0)-(0,4) joins two vertices of H, and swapped in for (0,2)-(0,4)
    # it leaves an edge set that spans H without a cycle
    for foreign in (((0, 0), (0, 4)), ((100, 100), (102, 100))):
        with pytest.raises(ForeignEdgeError):
            tree_of_h(ell, keys - {side} | {foreign})


def test_tree_of_h_rejects_edge_sets_that_are_not_spanning_trees(ell):
    n = len(ell.h_vertices) - 1
    # the sides of faces (1,1) and (3,1): n edges of H around two cycles,
    # leaving (0,4) and (2,4) out
    square = [edge((0, 0), (2, 0)), edge((2, 0), (2, 2)),
              edge((2, 2), (0, 2)), edge((0, 2), (0, 0))]
    cyclic = square + [edge((2, 0), (4, 0)), edge((4, 0), (4, 2)),
                       edge((4, 2), (2, 2))]
    assert len(cyclic) == n and set(cyclic) <= ell.h_edges
    keys = list(all_h_trees(ell)[0])
    too_few = keys[1:]
    repeated = keys[1:] + [keys[1]]
    # a spanning tree plus one edge reaches every vertex
    too_many = keys + [min(ell.h_edges - set(keys))]
    for edges in (cyclic, too_few, repeated, too_many):
        with pytest.raises(BijectionError):
            tree_of_h(ell, edges)


def test_forward_phi_round_trip(ell):
    for keys in all_h_trees(ell):
        t = tree_of_h(ell, keys)
        m = temperley_forward(ell, t)
        assert set(m.graph.vertices) == set(ell.n.vertices)
        assert phi(ell, m) == t


def test_initial_covering(ell, strip1, strip2):
    # the initial covering is built on G alone: N is left unbuilt
    fresh = build_region(ell_region())
    assert initial_covering(fresh) == initial_covering(ell)
    assert "n" not in fresh.__dict__
    for tri in (ell, strip1, strip2):
        m = initial_covering(tri)
        assert impurities(m) == (tri.e_star1,)
        # the initial covering is already its class's e*1 member, so
        # projecting just strips the impurity
        r = pi(tri, m)
        assert set(r.dimers) | {tri.e_star1} == set(m.dimers)


def tree_choice_regions():
    """The L-region, strips 1-8, and k x k squares for k = 2..12 with f*
    at the corner and, for even k, at the middle of the bottom side."""
    yield ell_region()
    for n in range(1, 9):
        yield strip_region(n)
    for k in range(2, 13):
        yield square_region(k)
        if k % 2 == 0:
            faces = [(2 * i + 1, 2 * j + 1) for i in range(k)
                     for j in range(k)]
            yield Region.of(faces, (k + 1, -1), (k, 0))


def test_initial_covering_takes_the_least_parent_bfs_tree():
    # each vertex's parent is its least neighbour in H one BFS level
    # nearer v*, computed here from H's edges alone
    for region in tree_choice_regions():
        tri = build_region(region)
        neighbors = defaultdict(list)
        for u, v in tri.h_edges:
            neighbors[u].append(v)
            neighbors[v].append(u)
        level = {tri.v_star: 0}
        frontier = [tri.v_star]
        while frontier:
            nxt = []
            for v in frontier:
                for w in neighbors[v]:
                    if w not in level:
                        level[w] = level[v] + 1
                        nxt.append(w)
            frontier = nxt
        t = phi(tri, initial_covering(tri))
        assert set(t.up) == tri.h_vertices - {tri.v_star}
        for x, (parent, _) in t.up.items():
            assert parent == min(w for w in neighbors[x]
                                 if level[w] == level[x] - 1)


def pi_cases(ell, ell_coverings):
    """(triple, coverings of its G): every covering of the L-region and
    of strips 2-4, and the finals of 20 000-step chains on the 4x4 and
    8x8 squares."""
    yield ell, ell_coverings
    for n in (2, 3, 4):
        tri = build_region(strip_region(n))
        yield tri, enumerate_coverings(tri.g)
    for k in (4, 8):
        tri = build_region(square_region(k))
        m0 = initial_covering(tri)
        yield tri, [run(m0, ChainConfig(seed=1, steps=20000)).final]


def test_pi_projects_to_n(ell, ell_coverings):
    for tri, coverings in pi_cases(ell, ell_coverings):
        for m in coverings:
            r = pi(tri, m)
            # the projection lives on N: no impurity left, f* and v* gone
            assert impurities(r) == ()
            assert tri.f_star not in r.mate_map()
            # it is the class's one e*1 member less e*1, as the walk finds
            cls = t_class(m)
            (hit,) = [c for c in cls if tri.e_star1 in c.dimers]
            assert r == validate_covering(
                tri.n, [d for d in hit.dimers if d != tri.e_star1])
            # and phi reads one tree off every member of the class
            assert {phi(tri, c) for c in cls} == {phi(tri, r)}


def test_class_bijection_is_bijective(ell, ell_coverings):
    cb = class_bijection(ell, ell_coverings)
    assert len(cb) == 56
    trees = {frozenset(t.edges) for t in cb.values()}
    assert len(trees) == 56  # injective
    assert trees == {frozenset(k) for k in all_h_trees(ell)}  # surjective


def test_support_frequencies_match_p(ell):
    p = region_counts(ell)
    hits = defaultdict(int)
    trees = all_h_trees(ell)
    for keys in trees:
        sup = impurity_support(ell, tree_of_h(ell, keys))
        assert ell.f_star in sup
        for v in sup:
            hits[v] += 1
    for v, pv in p.items():
        assert Fraction(hits[v], len(trees)) == pv


def test_class_structure(ell, ell_coverings):
    diag_deg = defaultdict(int)
    for e in diagonal_edges(ell.g):
        for x in e:
            if x[0] % 2:
                diag_deg[x] += 1
    assert diag_deg[ell.f_star] == ell.h_perp.d_star + 1

    for cls in t_classes(ell_coverings):
        rep = min(cls, key=lambda m: m.dimers)
        sup = impurity_support(ell, phi(ell, pi(ell, rep)))
        # every member's impurity curve encloses the same dual tree
        for m in cls:
            (e,) = impurities(m)
            t = enclosed_dual_tree(impurity_curve(m, e), forests(m))
            assert t.vertices == sup
        assert len(cls) == sum(diag_deg[x] for x in sup)
        class_imps = {imp for m in cls for imp in impurities(m)}
        want = {e for e in diagonal_edges(ell.g)
                if (e[0] if e[0][0] % 2 else e[1]) in sup}
        assert class_imps == want
