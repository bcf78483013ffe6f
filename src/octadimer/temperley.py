"""Temperley bijection between coverings and spanning trees.

Superimposing H (on the even sublattice) with its full planar dual
(faces plus f*) and placing a black vertex at the midpoint of every
edge of H gives the balanced bipartite graph N after f* and v* are
removed.  A spanning tree T of H rooted at v* and its complementary
dual tree T' rooted at f* orient every non-root vertex toward its
parent, and

    M = { {x, mid(e)} : e the parent edge of x in T or T' }

is a dimer covering of N: the classical bijection between coverings of
N and spanning trees of H, _tree_dimers its match rule and phi its read
rule.  A covering of G has one impurity {x, y}, y in H, and phi reads T
off it too, rooted at y.  A t-move swaps {a,b},{c,d} for {b,c},{d,a},
d the black midpoint of a and c: it reverses the tree edge through d,
rerooting T or T' from a to c, and neither edge set changes.  So a
t-class has one tree, phi(M) = phi(pi(M)), and pi rebuilds its
covering of N (the class's e*1 = {f*, v*} member less e*1) by the
match rule, with no walk over the class.

The subtree T* cut out of the dual forest by the impurity curve is
recovered here without geometry: delete from T' every f*-incident dual
edge that is not one of the l-edges and keep the component of f*.  A
class contains a covering with impurity {x, y} exactly when the odd
endpoint x lies in T*.
"""

from .covering import (DimerCovering, ForeignEdgeError, check_covering,
                       validate_covering)
from .lattice import TemperleyTriple, edge, midpoint
from .moves import t_classes


class BijectionError(RuntimeError):
    """The tree correspondence failed; used as a test sentinel."""


class RootedTree:
    """A spanning tree of H or of the dual, oriented toward its root."""

    def __init__(self, host, root, up):
        self.host = host          # "H" or "HPerp"
        self.root = root
        self.up = up              # child -> (parent, h_edge key)
        self.vertices = frozenset(up) | {root}
        self.edges = frozenset(h for _, h in up.values())

    def __eq__(self, other):
        return (self.host == other.host and self.root == other.root
                and self.up == other.up)

    def __hash__(self):
        return hash((self.host, self.root, self.edges))

    def __repr__(self):
        return "RootedTree(%s, root=%r, %d edges)" % (
            self.host, self.root, len(self.edges))


def _adjacency(vertices, triples):
    # Neighbour lists of the (u, v, key) triples, parallel edges kept.
    adjacency = {v: [] for v in vertices}
    for u, v, key in triples:
        adjacency[u].append((v, key))
        adjacency[v].append((u, key))
    return adjacency


def _bfs_up(root, adjacency):
    # Breadth-first parent map, each level visited in sorted order, so
    # each vertex's parent is the least vertex of the level before that
    # is adjacent to it, whatever the neighbour order.  A tree has one
    # orientation toward its root; only a choice of tree out of a
    # graph, as initial_covering makes, depends on that order.
    up = {}
    seen = {root}
    queue = [root]
    while queue:
        nxt = []
        for v in queue:
            for w, key in adjacency[v]:
                if w not in seen:
                    seen.add(w)
                    up[w] = (v, key)
                    nxt.append(w)
        queue = sorted(nxt)
    return up


def _grow(host, root, vertices, triples):
    # Orient toward root.  |V| - 1 edges that reach every vertex are a
    # spanning tree; a cycle, a missing edge or a repeat reaches fewer.
    up = _bfs_up(root, _adjacency(vertices, triples))
    if not len(triples) == len(up) == len(vertices) - 1:
        raise BijectionError("edge set is not a spanning tree of %s" % host)
    return RootedTree(host, root, up)


def tree_of_h(tri: TemperleyTriple, h_edges) -> RootedTree:
    """Orient a spanning edge set of H toward the root v*."""
    triples = []
    for e in h_edges:
        if e not in tri.h_edges:
            raise ForeignEdgeError(e)
        triples.append((*e, e))
    return _grow("H", tri.v_star, tri.h_vertices, triples)


def dual_tree(tri: TemperleyTriple, t: RootedTree) -> RootedTree:
    """The complementary spanning tree of the full dual, rooted at f*."""
    return _grow("HPerp", tri.f_star, tri.h_perp.vertices,
                 [d for d in tri.h_perp.dual_edges if d[2] not in t.edges])


def _tree_dimers(*trees) -> list:
    """Every non-root vertex of the given oriented trees matched to the
    black at the midpoint of its parent edge."""
    return [edge(x, midpoint(h)) for tree in trees
            for x, (_, h) in tree.up.items()]


def temperley_forward(tri: TemperleyTriple, t: RootedTree) -> DimerCovering:
    """The covering of N matching every non-root vertex to its parent edge."""
    return validate_covering(tri.n, _tree_dimers(t, dual_tree(tri, t)))


def phi(tri: TemperleyTriple, m: DimerCovering) -> RootedTree:
    """Read the spanning tree of H off a covering of N or of G.

    Each vertex x of H whose mate is a black b gives the edge of H from
    x to 2b - x.  In N that is every vertex but v*, and in G every
    vertex but the H end of the impurity.
    """
    mate = m.mate_view()
    h_edges = set()
    for x in tri.h_vertices:
        b = mate.get(x)
        if b is not None and (b[0] + b[1]) % 2:
            h_edges.add(edge(x, (2 * b[0] - x[0], 2 * b[1] - x[1])))
    return tree_of_h(tri, h_edges)


def pi(tri: TemperleyTriple, m: DimerCovering) -> DimerCovering:
    """Project a covering of G to N: the covering of N with m's tree,
    which is the e*1 member of m's t-class less f*, v* and e*1."""
    check_covering(tri.g, m)
    return temperley_forward(tri, phi(tri, m))


def class_bijection(tri: TemperleyTriple, coverings) -> dict:
    """Map each t-class of the coverings to its spanning tree of H.

    Keyed by the class representative (least dimer tuple); verified to
    be injective on classes and to hit every tree exactly once when
    compared against an independent tree enumeration by the caller.
    """
    classes = {}
    for cls in t_classes(coverings):
        hits = [c for c in cls if tri.e_star1 in c.dimers]
        if len(hits) != 1:
            raise BijectionError("t-class carries %d e*1 members" % len(hits))
        classes[min(cls, key=lambda c: c.dimers)] = phi(tri, hits[0])
    trees = list(classes.values())
    if len({t.edges for t in trees}) != len(trees):
        raise BijectionError("two t-classes mapped to the same tree")
    return classes


def impurity_support(tri: TemperleyTriple, t: RootedTree) -> frozenset:
    """Vertices of T*: where the class of t can host its impurity.

    Cut the dual tree at f*, keeping only the l-edges, and return the
    f*-component.  f* itself always qualifies.
    """
    tp = dual_tree(tri, t)
    kept = [(c, p, h) for c, (p, h) in tp.up.items()
            if tri.f_star not in (c, p) or h in tri.h_perp.l_edges]
    up = _bfs_up(tri.f_star, _adjacency(tp.vertices, kept))
    return frozenset(up) | {tri.f_star}


def initial_covering(tri: TemperleyTriple) -> DimerCovering:
    """A deterministic covering of G: BFS tree of H plus the e*1 impurity."""
    t = RootedTree("H", tri.v_star, _bfs_up(tri.v_star, _adjacency(
        tri.h_vertices, [(*e, e) for e in tri.h_edges])))
    return validate_covering(tri.g,
                             _tree_dimers(t, dual_tree(tri, t)) + [tri.e_star1])
