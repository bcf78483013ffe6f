"""Deterministic SVG output."""

import gc
import hashlib
import weakref
import xml.etree.ElementTree as ET

import pytest

from octadimer import moves, render, slits
from octadimer.lattice import Memo, build_region, ell_region
from octadimer.moves import t_class, t_classes
from octadimer.render import render_covering
from octadimer.sampler import ChainConfig, run
from octadimer.slits import forests, slit_curves
from octadimer.temperley import initial_covering

from test_kirchhoff import square_region

SVG = "{http://www.w3.org/2000/svg}"

# sha256 of render_covering's bytes, plain and with show_slits and
# show_forests, recorded before the graph's static layers were cached:
# the initial coverings of the L-region and the 8x8 square, and the
# final covering of a 20 000-step chain (seed 17) from the latter
RENDER_SHA256 = {
    "ell": (
        "77946cc68cbea0cb9a1939f05d0daf07ef181b6f1c63ff966e41cee1f2c82597",
        "d7043d8d55f1bcd52c51141645df585e31bbb3ae918ffd8a8939bfcecce14002"),
    "square8": (
        "b57acfbef6c7047a405bb02e5b7f0d84f10cec512a5951935945785644bcb463",
        "70adc4b0f50f01accd081a62e14c518d70e34002b68a9904c12b821321c7f72c"),
    "square8-seed17": (
        "e7ea90160246eb455f934154b6bf89a333834b165843061d4962bf355846bdd0",
        "e0762e5f416049cc033ec8f44e5ecfcb2f370e4219a543a5ad1e7256b6619a09"),
}


def _pinned_covering(name):
    if name == "ell":
        return initial_covering(build_region(ell_region()))
    m = initial_covering(build_region(square_region(8)))
    if name == "square8":
        return m
    return run(m, ChainConfig(seed=17, steps=20000)).final


@pytest.mark.parametrize("name", sorted(RENDER_SHA256))
def test_pinned_bytes(name):
    m = _pinned_covering(name)
    got = tuple(hashlib.sha256(render_covering(m, **kw).encode()).hexdigest()
                for kw in ({}, {"show_slits": True, "show_forests": True}))
    assert got == RENDER_SHA256[name]


def test_renders_of_one_graph_share_nothing_mutable(ell, ell_coverings):
    # what renders of one graph share is its picture: three joined
    # strings, and three fragment tables that a render only adds to;
    # each entry is an immutable string that depends only on the graph,
    # its edge or point and its layer, so a render of another covering
    # in between leaves a covering's bytes as they were
    kw = {"show_slits": True, "show_forests": True}
    a, b = ell_coverings[0], ell_coverings[1]
    first = render_covering(a, **kw)
    picture = render._picture(ell.g)
    assert [type(part) for part in picture] == [str, str, str] + [Memo] * 3
    layers = picture[3:]
    before = [dict(layer) for layer in layers]
    assert render_covering(b, **kw) != first
    assert render_covering(a, **kw) == first
    assert render._picture(ell.g) is picture
    for layer, old in zip(layers, before):
        assert all(layer[key] is value for key, value in old.items())
        assert all(type(value) is str and value == layer.build(key)
                   for key, value in layer.items())


def test_per_graph_tables_die_with_their_graph():
    # the chain, the walks, the curves, the forests and the picture each
    # keep one table in the graph's own dict, and reference counting
    # alone frees them with the graph: nothing else holds the graph
    builders = (moves.site_table, moves._keyed_sites, slits._segment_table,
                slits._link_table, render._picture)
    tri = build_region(square_region(3))
    m = run(initial_covering(tri), ChainConfig(seed=5, steps=200)).final
    t_classes(t_class(m))
    render_covering(m, show_slits=True, show_forests=True)
    g = tri.g
    assert {"%s.%s" % (b.__module__, b.__qualname__)
            for b in builders} <= set(vars(g))
    ref = weakref.ref(g)
    gc.disable()
    try:
        del tri, m, g
        assert ref() is None
    finally:
        gc.enable()


def test_byte_deterministic(ell):
    m = initial_covering(ell)
    assert render_covering(m, show_slits=True, show_forests=True) == \
        render_covering(m, show_slits=True, show_forests=True)


def test_parses_and_counts(ell):
    m = initial_covering(ell)
    root = ET.fromstring(render_covering(m))
    assert root.tag == SVG + "svg"
    assert root.get("viewBox") == "0 0 240 240"
    circles = root.findall(".//" + SVG + "circle")
    assert len(circles) == len(ell.g.vertices)
    lines = root.findall(".//" + SVG + "line")
    # one grey line per edge plus one heavy line per dimer
    assert len(lines) == len(ell.g.edges) + len(m.dimers)
    assert not root.findall(".//" + SVG + "polyline")


def test_slit_layer(ell):
    m = initial_covering(ell)
    root = ET.fromstring(render_covering(m, show_slits=True))
    polylines = root.findall(".//" + SVG + "polyline")
    assert len(polylines) == len(slit_curves(m))


def test_forest_layer(ell):
    m = initial_covering(ell)
    fp = forests(m)
    base = ET.fromstring(render_covering(m))
    with_forests = ET.fromstring(render_covering(m, show_forests=True))
    extra = (len(with_forests.findall(".//" + SVG + "line"))
             - len(base.findall(".//" + SVG + "line")))
    assert extra == sum(len(t.edges) for t in fp.primary + fp.dual)


def test_distinct_configurations_render_differently(ell, ell_coverings):
    a = render_covering(ell_coverings[0])
    b = render_covering(ell_coverings[1])
    assert a != b
