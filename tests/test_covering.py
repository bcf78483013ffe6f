"""Covering validation, the impurity-count identity, JSON round trips."""

import pytest

from octadimer.covering import (CoveringError, DoublyCoveredVertexError,
                                ForeignEdgeError, OddImbalanceError,
                                UncoveredVertexError,
                                covering_from_obj, covering_to_obj,
                                expected_impurity_count, impurities,
                                validate_covering)
from octadimer.lattice import build_normal_graph
from octadimer.temperley import initial_covering

from conftest import unit_square_graph


def test_unit_square_coverings():
    g = unit_square_graph()
    h = validate_covering(g, [((0, 0), (1, 0)), ((0, 1), (1, 1))])
    v = validate_covering(g, [((0, 0), (0, 1)), ((1, 0), (1, 1))])
    assert h != v
    assert h.mate((0, 0)) == (1, 0) and v.mate((0, 0)) == (0, 1)
    assert impurities(h) == () and impurities(v) == ()
    # the diagonal {(0,0),(1,1)} can never be a dimer here: the two
    # blacks it would orphan are not adjacent
    with pytest.raises(UncoveredVertexError):
        validate_covering(g, [((0, 0), (1, 1))])


def test_dimers_canonicalized():
    g = unit_square_graph()
    m = validate_covering(g, [((1, 0), (0, 0)), ((1, 1), (0, 1))])
    assert m.dimers == (((0, 0), (1, 0)), ((0, 1), (1, 1)))
    assert m == validate_covering(g, [((0, 0), (1, 0)), ((0, 1), (1, 1))])
    assert len({m, m}) == 1


def test_validation_errors(ell):
    g = unit_square_graph()
    with pytest.raises(UncoveredVertexError) as exc:
        validate_covering(g, [((0, 0), (1, 0))])
    assert exc.value.vertex == (0, 1)  # the first gap in vertex order
    with pytest.raises(DoublyCoveredVertexError):
        validate_covering(g, [((0, 0), (1, 0)), ((0, 0), (0, 1)),
                              ((1, 0), (1, 1))])
    with pytest.raises(ForeignEdgeError):
        validate_covering(g, [((0, 0), (2, 0)), ((0, 1), (1, 1))])
    with pytest.raises(OddImbalanceError):
        expected_impurity_count(build_normal_graph([(0, 0)]))
    # a dimer that is not a pair of points, or dimers that are not
    # iterable, raise the typed error, not TypeError or ValueError
    rest = list(initial_covering(ell).dimers)
    for bad in (5, ((0, 0), 5), (None, None), ((0, 0), (0, 1), (1, 1)),
                ((0, 0), ([0], [1])), ((0, 0), (0, None))):
        with pytest.raises(CoveringError) as exc:
            validate_covering(ell.g, [bad] + rest)
        assert type(exc.value) is CoveringError
        assert "not a pair of points" in str(exc.value)
    with pytest.raises(CoveringError) as exc:
        validate_covering(ell.g, None)
    assert type(exc.value) is CoveringError


def test_expected_impurity_count(ell, diamond):
    assert expected_impurity_count(unit_square_graph()) == 0
    assert expected_impurity_count(ell.g) == 1
    assert expected_impurity_count(diamond.graph) == 4


def test_diamond_impurities(diamond):
    assert impurities(diamond) == (((0, 0), (1, 1)), ((3, 3), (4, 2)),
                                   ((4, -4), (5, -3)), ((4, -2), (5, -1)))


def test_every_ell_covering_has_one_impurity(ell, ell_coverings):
    assert all(len(impurities(m)) == 1 for m in ell_coverings)


def test_json_round_trip(ell):
    m = initial_covering(ell)
    obj = covering_to_obj(m)
    assert set(obj) == {"dimers"}
    assert covering_from_obj(ell.g, obj) == m
    # round trip re-validates: corrupting the payload raises
    bad = {"dimers": obj["dimers"][1:]}
    with pytest.raises(UncoveredVertexError):
        covering_from_obj(ell.g, bad)


@pytest.mark.parametrize("one", [True, 1.0])
def test_dimers_hold_plain_int_points(ell, one):
    # (0, True) and (0, 1.0) compare equal to (0, 1); the covering must
    # keep the graph's own points, never the caller's bool or float
    m = initial_covering(ell)
    swapped = [tuple(tuple(one if c == 1 else c for c in p) for p in e)
               for e in m.dimers]
    assert any(type(c) is not int for e in swapped for p in e for c in p)
    m2 = validate_covering(ell.g, swapped)
    assert m2 == m
    assert all(e is ell.g.own_edges[e] for e in m2.dimers)
    assert all(type(c) is int for e in m2.dimers for p in e for c in p)
    assert all(type(c) is int for p in m2.mate_map() for c in p)


FORMS = {
    "lists": lambda u, v: [list(u), list(v)],
    "tuple_of_lists": lambda u, v: (list(u), list(v)),
    "reversed": lambda u, v: (v, u),
}


@pytest.mark.parametrize("form", sorted(FORMS))
def test_validate_covering_input_forms(ell, form):
    # dimers are looked up as given first; every other form falls back
    # to the normalized key and still yields the graph's own tuples
    m = initial_covering(ell)
    m2 = validate_covering(ell.g, [FORMS[form](u, v) for u, v in m.dimers])
    assert m2.dimers == m.dimers
    own = ell.g.own_edges
    assert all(e is own[e] for e in m2.dimers)
    assert all(m2.mate(a) is b and m2.mate(b) is a for a, b in m2.dimers)


def test_validation_error_order():
    # errors are raised at the first bad dimer in the order given
    g = unit_square_graph()
    double = [((0, 0), (1, 0)), ((0, 0), (0, 1))]
    foreign = [[[2, 0], [0, 0]]]
    with pytest.raises(DoublyCoveredVertexError) as exc:
        validate_covering(g, double + foreign)
    assert exc.value.vertex == (0, 0)
    with pytest.raises(ForeignEdgeError) as exc:
        validate_covering(g, foreign + double)
    assert exc.value.edge == ((0, 0), (2, 0))


def test_mate_view_is_read_only(ell):
    m = initial_covering(ell)
    view = m.mate_view()
    assert dict(view) == m.mate_map()
    v = m.dimers[0][0]
    with pytest.raises(TypeError):
        view[v] = v
    copy = m.mate_map()
    copy[v] = v
    assert m.mate(v) != v
