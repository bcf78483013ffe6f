"""Dimer coverings of normal graphs and their impurity bookkeeping.

A covering is a perfect matching; the diagonal dimers are the
impurities and their number equals (|W_G| - |B_G|) / 2 independently of
the covering.
"""

from types import MappingProxyType

from .lattice import (Edge, InvalidInputError, RegionError, Vertex, _point,
                      is_diagonal_edge)


class CoveringError(InvalidInputError):
    pass


class UncoveredVertexError(CoveringError):
    def __init__(self, v):
        super().__init__("vertex %r is not covered" % (v,))
        self.vertex = v


class DoublyCoveredVertexError(CoveringError):
    def __init__(self, v):
        super().__init__("vertex %r is covered twice" % (v,))
        self.vertex = v


class ForeignEdgeError(CoveringError):
    def __init__(self, e):
        super().__init__("edge %r does not belong to the graph" % (e,))
        self.edge = e


class OddImbalanceError(CoveringError):
    pass


class DimerCovering:
    """An immutable perfect matching, dimers kept in sorted order."""

    __slots__ = ("graph", "dimers", "_mate", "_hash")

    def __init__(self, graph, dimers, mate):
        self.graph = graph
        self.dimers = dimers
        self._mate = mate
        self._hash = hash(dimers)

    def mate(self, v: Vertex) -> Vertex:
        return self._mate[v]

    def mate_map(self) -> dict:
        return dict(self._mate)

    def mate_view(self):
        """The mate map as a read-only view, without copying it."""
        return MappingProxyType(self._mate)

    def __eq__(self, other):
        return isinstance(other, DimerCovering) and self.dimers == other.dimers

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "DimerCovering(%d dimers)" % len(self.dimers)


def validate_covering(g, dimers) -> DimerCovering:
    """Check that dimers is a perfect matching of g and wrap it.

    The covering keeps g's own edge tuples, so its dimers hold plain-int
    points whatever equal-comparing coordinates the caller passed.  A
    dimer is looked up as given first; lists and the reversed order are
    normalized only when that misses, and a dimer that is not a pair of
    points raises CoveringError.
    """
    mate = {}
    canonical = []
    own_edges = g.own_edges
    try:
        dimers = iter(dimers)
    except TypeError:
        raise CoveringError("dimers %r are not iterable" % (dimers,)) from None
    for d in dimers:
        try:
            e = own_edges.get(d)
        except TypeError:  # unhashable, such as a list of lists
            e = None
        if e is None:
            try:
                u, v = map(tuple, d)
                key = (u, v) if u <= v else (v, u)
                e = own_edges.get(key)
            except (TypeError, ValueError):
                raise CoveringError(
                    "dimer %r is not a pair of points" % (d,)) from None
            if e is None:
                raise ForeignEdgeError(key)
        a, b = e
        if a in mate:
            raise DoublyCoveredVertexError(a)
        if b in mate:
            raise DoublyCoveredVertexError(b)
        mate[a] = b
        mate[b] = a
        canonical.append(e)
    # mate holds only g's vertices, each once, so the sizes agree exactly
    # when every vertex is covered; the scan just names the first gap
    if len(mate) != len(g.vertices):
        for v in g.vertices:
            if v not in mate:
                raise UncoveredVertexError(v)
    canonical.sort()
    return DimerCovering(g, tuple(canonical), mate)


def check_covering(g, m: DimerCovering):
    """Check that m's dimers cover g and that its mate map agrees with
    them: the start check of a walk or chain that trusts its moves."""
    if validate_covering(g, m.dimers)._mate != m._mate:
        raise CoveringError("the mate map disagrees with the dimers")


def expected_impurity_count(g) -> int:
    """The invariant (|W_G| - |B_G|) / 2 of a coverable graph."""
    diff = g.white_count - g.black_count
    if diff < 0 or diff % 2:
        raise OddImbalanceError(
            "white/black imbalance %d admits no perfect matching" % diff)
    return diff // 2


def impurities(m: DimerCovering) -> tuple[Edge, ...]:
    """The diagonal dimers of m, in sorted order."""
    return tuple(e for e in m.dimers if is_diagonal_edge(e))


def covering_to_obj(m: DimerCovering) -> dict:
    return {"dimers": [[list(u), list(v)] for u, v in m.dimers]}


def covering_from_obj(g, obj) -> DimerCovering:
    try:
        dimers = [(_point(u), _point(v)) for u, v in obj["dimers"]]
    except (KeyError, TypeError, ValueError, RegionError) as exc:
        raise CoveringError("malformed covering object: %s" % exc) from exc
    return validate_covering(g, dimers)
