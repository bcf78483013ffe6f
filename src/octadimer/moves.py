"""Local moves on dimer coverings and the t-equivalence relation.

An s-move rotates two parallel dimers around a unit square.  A t-move
slides an impurity: for whites a, c opposite across a black d and a
common diagonal neighbor b, it swaps {a,b}+{c,d} for {b,c}+{a,d}.
Both kinds are involutions on a fixed four-vertex site, which is what
makes a uniform random choice over sites a symmetric proposal kernel.

The move rule is written once, on mates: site_move reads the move a
site supports in either state and swap applies it, to a vertex -> vertex
mate map and an index -> index mate list alike.  Every edge of a
site is in G, so a move that site_move returns takes a covering to a
covering, and reading the site again gives the move that undoes it.
The walks therefore check their start once (check_covering) and trust
each move after it; apply_move validates a move handed in from outside.

site_table(g) is the one proposal list: it numbers g's vertices in
their sorted order and lists the unit squares, then the t-sites, over
those indices.  The chain draws from it, and proposal_sites maps it
back to vertices.

_walk is the one walk over coverings.  A covering's key is the OR of
bits 1 << i over its dimers, i the index of the dimer in g.edges, so
equal keys mean equal dimers, and a move changes the key by its site's
four-edge mask.  One mate list over site_table(g), read off the start,
is moved and moved back through a depth-first search by the same
site_move and swap; each covering newly reached is yielded and its key
added to the caller's set, which t_classes and move_graph_connected
read after requiring each key to be a supplied covering's.  t_class
builds each member from the member it was reached from.
"""

from bisect import bisect_left, insort
from dataclasses import dataclass
from typing import NamedTuple

from .covering import (DimerCovering, ForeignEdgeError, check_covering,
                       impurities, validate_covering)
from .lattice import InvalidInputError, Vertex, edge, per_graph


class InapplicableMoveError(InvalidInputError):
    pass


@dataclass(frozen=True)
class LocalMove:
    """Replace dimers {a,b},{c,d} by {b,c},{d,a}."""

    kind: str  # "s" or "t"
    a: Vertex
    b: Vertex
    c: Vertex
    d: Vertex

    @property
    def removes(self):
        return (edge(self.a, self.b), edge(self.c, self.d))

    @property
    def adds(self):
        return (edge(self.b, self.c), edge(self.d, self.a))

    def sort_key(self):
        return (self.kind, tuple(sorted(self.removes)))


def unit_squares(g):
    """All unit squares of g as (bl, br, tr, tl) corner tuples."""
    vs = g.vertex_set
    out = []
    for bl in g.vertices:
        x, y = bl
        br, tr, tl = (x + 1, y), (x + 1, y + 1), (x, y + 1)
        if br in vs and tr in vs and tl in vs:
            out.append((bl, br, tr, tl))
    return out


def t_sites(g):
    """All four-vertex t-move sites (a, b, c, d) of g, a < c.

    d is black, b a white unit neighbor of d, and a, c the two unit
    neighbors of d perpendicular to b; {a,b} and {b,c} are then the
    diagonal edges of the site.
    """
    vs = g.vertex_set
    out = []
    for d in g.blacks:
        x, y = d
        for ux, uy in ((1, 0), (0, 1), (-1, 0), (0, -1)):
            b = (x + ux, y + uy)
            a = (x - uy, y + ux)
            c = (x + uy, y - ux)
            if a in vs and b in vs and c in vs:
                if c < a:
                    a, c = c, a
                out.append((a, b, c, d))
    return sorted(out)


class SiteTable(NamedTuple):
    """g's vertices numbered in g.vertices order, and its sites over them.

    vertices[i] is vertex i and index maps it back.  sites is the one
    proposal list: the unit_squares as ("s", bl, br, tr, tl), then the
    t_sites as ("t", a, b, c, d), each vertex given by its index;
    proposal_sites maps it back to vertices.  g.vertices is sorted, so
    index order is coordinate order and edge(i, j) of two indices is
    the canonical edge of their vertices.  A mate list, mate[i] the
    index of vertex i's mate, is what site_move and swap read and move
    over these sites.  own_edges is g.own_edges, so dimers read off a
    mate list are g's own tuples.
    """

    vertices: tuple
    index: dict
    sites: tuple
    own_edges: dict

    def mate_list(self, m: DimerCovering) -> list:
        """m's mate map as a mate list over these indices."""
        index, mate = self.index, m._mate
        return [index[mate[v]] for v in self.vertices]

    def dimers(self, mate) -> tuple:
        """The dimers of a mate list as g's own edges, in sorted order."""
        vs, own = self.vertices, self.own_edges
        return tuple([own[vs[v], vs[w]] for v, w in enumerate(mate) if v < w])


@per_graph
def site_table(g) -> SiteTable:
    """The SiteTable of g, built once per graph object."""
    vertices = g.vertices
    index = {v: i for i, v in enumerate(vertices)}
    sites = [("s", index[a], index[b], index[c], index[d])
             for a, b, c, d in unit_squares(g)]
    sites += [("t", index[a], index[b], index[c], index[d])
              for a, b, c, d in t_sites(g)]
    return SiteTable(vertices, index, tuple(sites), g.own_edges)


def proposal_sites(g):
    """The state-independent proposal list: s-sites then t-sites.

    site_table(g).sites with each index mapped back to g's own vertex
    object, in the same order; built on each call and kept nowhere.
    """
    table = site_table(g)
    vs = table.vertices
    return tuple((kind, vs[a], vs[b], vs[c], vs[d])
                 for kind, a, b, c, d in table.sites)


def site_move(mate, site):
    """The move site supports under mate, as (a, b, c, d), or None.

    The move replaces dimers {a,b},{c,d} by {b,c},{d,a}; swap applies
    it to the mate map.  A square (bl, br, tr, tl) or t-site
    (a, b, c, d) admits a move in two states, and this is the only
    place either is written: (a, b, c, d) from {a,b},{c,d}, and back
    from {b,c},{d,a} as (b, c, d, a) at a square, (c, b, a, d) at a
    t-site.
    """
    kind, a, b, c, d = site
    if mate[a] == b and mate[c] == d:
        return a, b, c, d
    if mate[b] == c and mate[a] == d:
        return (b, c, d, a) if kind == "s" else (c, b, a, d)
    return None


def swap(mate, a, b, c, d):
    """Apply the move (a, b, c, d) of site_move to mate, in place.

    A t-move also drops the impurity {a,b} and adds the impurity {b,c}.
    """
    mate[a], mate[d], mate[b], mate[c] = d, a, c, b


def _moved(m: DimerCovering, a, b, c, d) -> DimerCovering:
    """m after the move (a, b, c, d) that site_move read off m, unchecked.

    Trusted: the move's four edges are in G and {a,b},{c,d} are dimers
    of m, so the result is a covering without validate_covering.  Its
    dimers are m's sorted dimers with {a,b},{c,d} replaced by g's own
    {b,c},{d,a}.
    """
    mate = dict(m._mate)
    swap(mate, a, b, c, d)
    dimers = list(m.dimers)
    i, j = sorted((bisect_left(m.dimers, edge(a, b)),
                   bisect_left(m.dimers, edge(c, d))))
    del dimers[j]
    del dimers[i]
    own_edges = m.graph.own_edges
    insort(dimers, own_edges[edge(b, c)])
    insort(dimers, own_edges[edge(d, a)])
    return DimerCovering(m.graph, tuple(dimers), mate)


@per_graph
def _keyed_sites(g):
    """The bit 1 << i of edge i of g.edges, and the sites with masks.

    A site's mask is the XOR of its four edges' bits, so a move at the
    site turns the key of a covering (the OR of its dimers' bits) into
    the key of the covering it moves to.  The sites are those of
    site_table(g), over vertex indices, and each t-site is also listed
    under its two diagonals {a,b} and {b,c} as index edges: it supports
    a move only while one of them is a dimer, so a covering's t-moves
    are all at the sites listed under its impurities.  Returns (edge ->
    bit, the (site, mask) pairs, {index diagonal: the pairs of its
    t-sites}), built once per graph object, for the walks: the masks of
    a large graph are large ints.
    """
    table = site_table(g)
    vs = table.vertices
    bits = {e: 1 << i for i, e in enumerate(g.edges)}
    pairs = []
    t_index = {}
    for site in table.sites:
        kind, a, b, c, d = site
        pair = (site, bits[edge(vs[a], vs[b])] ^ bits[edge(vs[b], vs[c])]
                ^ bits[edge(vs[c], vs[d])] ^ bits[edge(vs[d], vs[a])])
        pairs.append(pair)
        if kind == "t":
            t_index.setdefault(edge(a, b), []).append(pair)
            t_index.setdefault(edge(b, c), []).append(pair)
    return bits, tuple(pairs), t_index


def _key(bits, m: DimerCovering) -> int:
    """The OR of the bits of m's dimers; equal keys mean equal dimers."""
    key = 0
    for e in m.dimers:
        bit = bits.get(e)
        if bit is None:
            raise ForeignEdgeError(e)
        key |= bit
    return key


def find_moves(m: DimerCovering):
    """All moves applicable to m, sorted by (kind, removed edges)."""
    mate = m.mate_view()
    found = []
    for site in proposal_sites(m.graph):
        mv = site_move(mate, site)
        if mv is not None:
            found.append(LocalMove(site[0], *mv))
    return sorted(found, key=LocalMove.sort_key)


def apply_move(m: DimerCovering, mv: LocalMove) -> DimerCovering:
    """Apply mv to m, returning a new validated covering.

    mv may come from anywhere, so the new dimers go through
    validate_covering; the walks, whose moves come from site_move, use
    the unchecked _moved instead.  The dimers are m's sorted dimers less
    the two removed and plus the two added, so their sort is nearly
    linear.
    """
    r1, r2 = mv.removes
    mate = m.mate_view()
    if r1 == r2 or mate.get(mv.a) != mv.b or mate.get(mv.c) != mv.d:
        raise InapplicableMoveError("move removes edges not present in m")
    i, j = sorted((bisect_left(m.dimers, r1), bisect_left(m.dimers, r2)))
    dimers = list(m.dimers)
    del dimers[j]
    del dimers[i]
    dimers += mv.adds
    return validate_covering(m.graph, dimers)


class IncompleteCoveringSetError(InvalidInputError):
    """The coverings given to t_classes or move_graph_connected are not
    closed under the moves those walks take."""


def _walk(start: DimerCovering, key, pairs_of, seen):
    """Yield (from_key, to_key, move) for each covering that site moves
    newly reach from start, whose key is key; key and each key reached
    go into the caller's set seen, the walk's only one.

    start has been checked.  Its mate map is restated once as a mate
    list over site_table(g) and moved in place by a depth-first search:
    a move that site_move reads at an indexed site is applied with swap
    and its site's mask is XORed into the key, and it is undone by the
    move site_move reads back at the same site.  pairs_of(held) gives
    the (site, mask) pairs to try at a covering whose impurity set, as
    index edges, is held; a t-move's impurity change is carried along.
    move is the index move (a, b, c, d) that takes the covering keyed
    from_key, reached earlier, to the one keyed to_key.
    """
    table = site_table(start.graph)
    index = table.index
    mate = table.mate_list(start)
    # index order is coordinate order, so sorted pairs stay sorted
    held = frozenset((index[a], index[b]) for a, b in impurities(start))
    seen.add(key)
    stack = [(key, held, iter(pairs_of(held)), None)]
    while stack:
        key, held, pairs, came_by = stack[-1]
        for site, mask in pairs:
            mv = site_move(mate, site)
            if mv is None:
                continue
            nxt = key ^ mask
            if nxt in seen:
                continue
            yield key, nxt, mv
            swap(mate, *mv)
            seen.add(nxt)
            if site[0] == "t":
                a, b, c, _ = mv
                held = held - {edge(a, b)} | {edge(b, c)}
            stack.append((nxt, held, iter(pairs_of(held)), site))
            break
        else:
            stack.pop()
            if came_by is not None:
                swap(mate, *site_move(mate, came_by))


def _t_pairs(t_index):
    """pairs_of for _walk that tries only the t-sites at held's
    impurities, so the walk stays in one t-class."""
    return lambda held: [pair for e in held for pair in t_index.get(e, ())]


def _supplied_keys(start, key, pairs_of, supplied):
    """The keys _walk reaches from start, key included, as the walk's
    own set; a key outside supplied raises IncompleteCoveringSetError."""
    keys = set()
    for _, nxt, _ in _walk(start, key, pairs_of, keys):
        if nxt not in supplied:
            raise IncompleteCoveringSetError(
                "a move leaves the supplied covering set")
    return keys


def t_class(m: DimerCovering):
    """The full t-equivalence class of m.

    m is checked once, and _walk moves its mate list through the class
    by t-moves alone.  There is no supplied set to key against, and the
    callers want the members, so each one is built by _moved, unchecked,
    from the member it was reached from, with the walk's index move
    mapped to vertices.  Rebuilding each member from the walk's mate
    list instead took about three times as long: 0.038-0.054 s against
    0.013-0.018 s for the classes of 32 chain samples of the 8x8 square
    (Python 3.11, 2 vCPUs).
    """
    g = m.graph
    check_covering(g, m)
    bits, _, t_index = _keyed_sites(g)
    vs = site_table(g).vertices
    key = _key(bits, m)
    members = {key: m}
    for came_from, nxt, (a, b, c, d) in _walk(m, key, _t_pairs(t_index),
                                              set()):
        members[nxt] = _moved(members[came_from], vs[a], vs[b], vs[c], vs[d])
    return set(members.values())


def t_classes(coverings):
    """Partition coverings into t-equivalence classes.

    Classes come in the order of their least member's dimers.  The
    coverings are keyed by their dimers' edge bits in the graph of the
    least one, and each class is walked by key from its least member,
    which alone is checked and read through its mate map; the members
    returned are the supplied coverings.
    """
    ordered = sorted(set(coverings), key=lambda c: c.dimers)
    if not ordered:
        return []
    g = ordered[0].graph
    bits, _, t_index = _keyed_sites(g)
    by_key = {_key(bits, m): m for m in ordered}
    classes = []
    claimed = set()
    for key, m in by_key.items():
        if key in claimed:
            continue
        check_covering(g, m)
        keys = _supplied_keys(m, key, _t_pairs(t_index), by_key)
        claimed |= keys
        classes.append({by_key[k] for k in keys})
    return classes


def move_graph_connected(g, coverings) -> bool:
    """Whether s- and t-moves together connect coverings, all those of g.

    The walk starts from coverings[0], checked once, and moves only
    among the supplied coverings, found by the edge-bit keys of their
    dimers; no other covering's mate map is read.  A move that leaves
    them raises IncompleteCoveringSetError.  A covering supplied twice
    counts once.
    """
    if not coverings:
        return True
    start = coverings[0]
    check_covering(g, start)
    bits, pairs, _ = _keyed_sites(g)
    supplied = {_key(bits, m) for m in coverings}
    walked = _supplied_keys(start, _key(bits, start), lambda held: pairs,
                            supplied)
    return len(walked) == len(supplied)
