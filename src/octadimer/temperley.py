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
from .lattice import TemperleyTriple, edge, midpoint, reach
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


def _bfs_up(root, adjacency, sort=False):
    # Breadth-first parent map.  A tree has one orientation toward its
    # root, so only a choice of tree out of a graph, as initial_covering
    # makes, depends on the visiting order; sort visits each level in
    # sorted order, so each vertex's parent is the least vertex of the
    # level before that is adjacent to it, whatever the neighbour order.
    up = {}
    seen = {root}
    queue = [root]
    while queue:
        nxt = []
        for v in queue:
            for w, key in adjacency.get(v, ()):
                if w not in seen:
                    seen.add(w)
                    up[w] = (v, key)
                    nxt.append(w)
        queue = sorted(nxt) if sort else nxt
    return up


def _grow(host, root, vertices, adjacency):
    # Orient toward root; rejects disconnected or cyclic edge sets.
    t = RootedTree(host, root, _bfs_up(root, adjacency))
    n_edges = sum(len(nbrs) for nbrs in adjacency.values()) // 2
    if t.vertices != set(vertices) or n_edges != len(vertices) - 1:
        raise BijectionError("edge set is not a spanning tree of %s" % host)
    return t


def _h_adjacency(tri: TemperleyTriple, h_edges):
    adjacency = {v: [] for v in tri.h_vertices}
    for e in h_edges:
        if e not in tri.h_edges:
            raise ForeignEdgeError(e)
        u, v = e
        adjacency[u].append((v, e))
        adjacency[v].append((u, e))
    return adjacency


def tree_of_h(tri: TemperleyTriple, h_edges) -> RootedTree:
    """Orient a spanning edge set of H toward the root v*."""
    return _grow("H", tri.v_star, tri.h_vertices, _h_adjacency(tri, h_edges))


def dual_tree(tri: TemperleyTriple, t: RootedTree) -> RootedTree:
    """The complementary spanning tree of the full dual, rooted at f*."""
    adjacency = {v: [] for v in tri.h_perp.vertices}
    for u, v, h in tri.h_perp.dual_edges:
        if h not in t.edges:
            adjacency[u].append((v, h))
            adjacency[v].append((u, h))
    return _grow("HPerp", tri.f_star, tri.h_perp.vertices, adjacency)


def _tree_dimers(tri: TemperleyTriple, t: RootedTree) -> list:
    """Every non-root vertex of t and of its dual tree matched to the
    black at the midpoint of its parent edge."""
    return [edge(x, midpoint(h)) for tree in (t, dual_tree(tri, t))
            for x, (_, h) in tree.up.items()]


def temperley_forward(tri: TemperleyTriple, t: RootedTree) -> DimerCovering:
    """The covering of N matching every non-root vertex to its parent edge."""
    return validate_covering(tri.n, _tree_dimers(tri, t))


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
    adjacency = {v: [] for v in tp.vertices}
    for c, (p, h) in tp.up.items():
        if tri.f_star in (c, p) and h not in tri.h_perp.l_edges:
            continue
        adjacency[c].append(p)
        adjacency[p].append(c)
    return frozenset(reach([tri.f_star], adjacency.__getitem__))


def initial_covering(tri: TemperleyTriple) -> DimerCovering:
    """A deterministic covering of G: BFS tree of H plus the e*1 impurity."""
    t = RootedTree("H", tri.v_star,
                   _bfs_up(tri.v_star, _h_adjacency(tri, tri.h_edges),
                           sort=True))
    return validate_covering(tri.g, _tree_dimers(tri, t) + [tri.e_star1])
