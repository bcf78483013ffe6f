"""Local moves on dimer coverings and the t-equivalence relation.

An s-move rotates two parallel dimers around a unit square.  A t-move
slides an impurity: for whites a, c opposite across a black d and a
common diagonal neighbor b, it swaps {a,b}+{c,d} for {b,c}+{a,d}.
Both kinds are involutions on a fixed four-vertex site, which is what
makes a uniform random choice over sites a symmetric proposal kernel.

The move rule is written once, on mate maps: site_move reads the move
a site supports and swap applies it.  Every edge of a site is in G, so
a move that site_move returns takes a covering to a covering.  The
walks (t_class, move_graph_connected) therefore validate the covering
they start from, once, and trust each move after it; apply_move stays
the validating path for a move handed in from outside.
"""

import weakref
from bisect import bisect_left, insort
from dataclasses import dataclass

from .covering import (CoveringError, DimerCovering, impurities,
                       validate_covering)
from .lattice import InvalidInputError, Vertex, edge, reach


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

    def reverse(self) -> "LocalMove":
        if self.kind == "s":
            return LocalMove("s", self.b, self.c, self.d, self.a)
        return LocalMove("t", self.c, self.b, self.a, self.d)

    def sort_key(self):
        return (self.kind, tuple(sorted(self.removes)))


def _own_vertices(g):
    """coordinate -> g's vertex object, so that a stored site list holds
    references to the graph's tuples rather than copies of them."""
    return {v: v for v in g.vertices}


def unit_squares(g):
    """All unit squares of g as (bl, br, tr, tl) corner tuples.

    Corners are g's own vertex objects (see _own_vertices).
    """
    own = _own_vertices(g)
    out = []
    for bl in g.vertices:
        x, y = bl
        br = own.get((x + 1, y))
        tr = own.get((x + 1, y + 1))
        tl = own.get((x, y + 1))
        if br and tr and tl:
            out.append((bl, br, tr, tl))
    return out


def t_sites(g):
    """All four-vertex t-move sites (a, b, c, d) of g, a < c.

    d is black, b a white unit neighbor of d, and a, c the two unit
    neighbors of d perpendicular to b; {a,b} and {b,c} are then the
    diagonal edges of the site.  Vertices are g's own objects.
    """
    own = _own_vertices(g)
    out = []
    for d in g.blacks:
        x, y = d
        for ux, uy in ((1, 0), (0, 1), (-1, 0), (0, -1)):
            b = own.get((x + ux, y + uy))
            a = own.get((x - uy, y + ux))
            c = own.get((x + uy, y - ux))
            if a and b and c:
                if c < a:
                    a, c = c, a
                out.append((a, b, c, d))
    return sorted(out)


# graph -> its proposal list; graphs are immutable and hash by identity
_SITES = weakref.WeakKeyDictionary()


def proposal_sites(g):
    """The state-independent proposal list: s-sites then t-sites.

    Built once per graph object, so the chain's single steps and every
    find_moves call over a t-class share one list.
    """
    sites = _SITES.get(g)
    if sites is None:
        sites = [("s",) + sq for sq in unit_squares(g)]
        sites += [("t",) + site for site in t_sites(g)]
        sites = _SITES[g] = tuple(sites)
    return sites


def site_move(mate, site):
    """The move site supports under mate, as (a, b, c, d), or None.

    The move replaces dimers {a,b},{c,d} by {b,c},{d,a}; swap applies
    it to the mate map.  A square (bl, br, tr, tl) or t-site
    (a, b, c, d) has two states that admit a move, and the second
    state's move is LocalMove.reverse of the first's.
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


def _moved_dimers(dimers, own_edges, a, b, c, d):
    """The sorted dimers with {a,b},{c,d} replaced by g's own {b,c},{d,a}."""
    out = list(dimers)
    i, j = sorted((bisect_left(dimers, edge(a, b)),
                   bisect_left(dimers, edge(c, d))))
    del out[j]
    del out[i]
    insort(out, own_edges[edge(b, c)])
    insort(out, own_edges[edge(d, a)])
    return tuple(out)


def _moved(m: DimerCovering, a, b, c, d) -> DimerCovering:
    """m after the move (a, b, c, d) that site_move read off m, unchecked.

    Trusted: the move's four edges are in G and {a,b},{c,d} are dimers
    of m, so the result is a covering without validate_covering.
    """
    mate = dict(m._mate)
    swap(mate, a, b, c, d)
    return DimerCovering(
        m.graph, _moved_dimers(m.dimers, m.graph.own_edges, a, b, c, d),
        mate)


# graph -> {diagonal edge: the t-sites whose {a,b} or {b,c} it is}
_T_INDEX = weakref.WeakKeyDictionary()


def _t_site_index(g):
    """The t-sites of g indexed by their two diagonal edges.

    A t-site supports a move only while one of its diagonals is a dimer,
    so a covering's t-moves are all at the sites indexed under its
    impurities.  Built once per graph object from proposal_sites.
    """
    index = _T_INDEX.get(g)
    if index is None:
        index = {}
        for site in proposal_sites(g):
            if site[0] == "t":
                _, a, b, c, _ = site
                index.setdefault(edge(a, b), []).append(site)
                index.setdefault(edge(b, c), []).append(site)
        _T_INDEX[g] = index
    return index


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


def _check_start(g, m: DimerCovering):
    """Check that m's dimers cover g and that its mate map agrees with
    them; a walk from m trusts every move after this."""
    if validate_covering(g, m.dimers)._mate != m._mate:
        raise CoveringError("the mate map disagrees with the dimers")


def t_class(m: DimerCovering):
    """The full t-equivalence class of m.

    m is validated once; its members come from trusted moves.  A t-move
    (a, b, c, d) from site_move removes the impurity {a,b} and adds the
    impurity {b,c}, so each member's impurities are carried along the
    walk and its t-moves are read off the diagonal index.
    """
    _check_start(m.graph, m)
    index = _t_site_index(m.graph)
    impurity_sets = {m: frozenset(impurities(m))}

    def neighbors(cur):
        held = impurity_sets[cur]
        mate = cur._mate
        out = []
        for e in held:
            for site in index.get(e, ()):
                mv = site_move(mate, site)
                if mv is None:
                    continue
                nxt = _moved(cur, *mv)
                if nxt not in impurity_sets:
                    a, b, c, _ = mv
                    impurity_sets[nxt] = held - {edge(a, b)} | {edge(b, c)}
                out.append(nxt)
        return out

    return reach([m], neighbors)


class IncompleteCoveringSetError(InvalidInputError):
    """The coverings given to t_classes or move_graph_connected are not
    closed under the moves those walks take."""


def t_classes(coverings):
    """Partition coverings into t-equivalence classes.

    Classes come in the order of their least member's dimers.
    """
    remaining = set(coverings)
    classes = []
    for m in sorted(remaining, key=lambda c: c.dimers):
        if m not in remaining:
            continue
        cls = t_class(m)
        if not cls <= remaining:
            raise IncompleteCoveringSetError(
                "t-class escapes the supplied covering set")
        remaining -= cls
        classes.append(cls)
    return classes


def move_graph_connected(g, coverings=None) -> bool:
    """Whether s- and t-moves together connect all coverings of g.

    The walk starts from coverings[0], validated once, and moves only
    among the supplied coverings, found by their dimers; each of them is
    read through its own mate map.  A move that leaves them raises
    IncompleteCoveringSetError.
    """
    from .oracle import enumerate_coverings
    if coverings is None:
        coverings = enumerate_coverings(g)
    if not coverings:
        return True
    start = coverings[0]
    _check_start(g, start)
    by_dimers = {m.dimers: m for m in coverings}
    by_dimers[start.dimers] = start
    sites = proposal_sites(g)
    own_edges = g.own_edges

    def neighbors(dimers):
        mate = by_dimers[dimers]._mate
        out = []
        for site in sites:
            mv = site_move(mate, site)
            if mv is None:
                continue
            nxt = _moved_dimers(dimers, own_edges, *mv)
            if nxt not in by_dimers:
                raise IncompleteCoveringSetError(
                    "a move leaves the supplied covering set")
            out.append(nxt)
        return out

    return len(reach([start.dimers], neighbors)) == len(coverings)
