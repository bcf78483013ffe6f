"""Local moves on dimer coverings and the t-equivalence relation.

An s-move rotates two parallel dimers around a unit square.  A t-move
slides an impurity: for whites a, c opposite across a black d and a
common diagonal neighbor b, it swaps {a,b}+{c,d} for {b,c}+{a,d}.
Both kinds are involutions on a fixed four-vertex site, which is what
makes a uniform random choice over sites a symmetric proposal kernel.
"""

import weakref
from bisect import bisect_left
from dataclasses import dataclass

from .covering import DimerCovering, impurities, validate_covering
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

    The move replaces dimers {a,b},{c,d} by {b,c},{d,a}; on the mate
    map that is ``mate[a], mate[d], mate[b], mate[c] = d, a, c, b``.  A
    square (bl, br, tr, tl) or t-site (a, b, c, d) has two states that
    admit a move, and the second state's move is LocalMove.reverse of
    the first's.
    """
    kind, a, b, c, d = site
    if mate[a] == b and mate[c] == d:
        return a, b, c, d
    if mate[b] == c and mate[a] == d:
        return (b, c, d, a) if kind == "s" else (c, b, a, d)
    return None


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


def _moves(m: DimerCovering, sites):
    """The moves that sites support under m, in site order."""
    mate = m.mate_view()
    for site in sites:
        mv = site_move(mate, site)
        if mv is not None:
            yield LocalMove(site[0], *mv)


def find_moves(m: DimerCovering):
    """All moves applicable to m, sorted by (kind, removed edges)."""
    return sorted(_moves(m, proposal_sites(m.graph)), key=LocalMove.sort_key)


def apply_move(m: DimerCovering, mv: LocalMove) -> DimerCovering:
    """Apply mv to m, returning a new validated covering.

    This is the one way a move becomes a covering: the new dimers go
    through validate_covering.  They are m's sorted dimers less the two
    removed and plus the two added, so its sort is nearly linear.
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


def t_class(m: DimerCovering):
    """The full t-equivalence class of m.

    A t-move (a, b, c, d) from site_move removes the impurity {a,b} and
    adds the impurity {b,c}, so each member's impurities are carried
    along the walk and its t-moves are read off the diagonal index.
    """
    index = _t_site_index(m.graph)
    impurity_sets = {m: frozenset(impurities(m))}

    def neighbors(cur):
        held = impurity_sets[cur]
        out = []
        for mv in _moves(cur, [site for e in held
                               for site in index.get(e, ())]):
            nxt = apply_move(cur, mv)
            if nxt not in impurity_sets:
                impurity_sets[nxt] = held - {mv.removes[0]} | {mv.adds[0]}
            out.append(nxt)
        return out

    return reach([m], neighbors)


class IncompleteCoveringSetError(InvalidInputError):
    """The coverings given to t_classes are not closed under t-moves."""


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
    """Whether s- and t-moves together connect all coverings of g."""
    from .oracle import enumerate_coverings
    if coverings is None:
        coverings = enumerate_coverings(g)
    if not coverings:
        return True
    sites = proposal_sites(g)
    seen = reach(coverings[:1], lambda cur: [apply_move(cur, mv)
                                             for mv in _moves(cur, sites)])
    return len(seen) == len(coverings)
