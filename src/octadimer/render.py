"""Deterministic SVG pictures of coverings, slit-curves and forests.

All geometry lives on the doubled integer grid (a lattice point (x, y)
sits at (2x, 2y), edge midpoints at odd sums), scaled by a fixed pixel
factor, so output bytes depend only on the input covering.  Slit
curves are drawn as polylines through their midpoint chains rather
than as circular arcs; the combinatorics, not the curvature, is what
the pictures are for.  Primary forest trees are solid, dual trees
dashed, matching the usual figure convention.
"""

from types import MappingProxyType
from typing import NamedTuple

from .covering import DimerCovering
from .lattice import is_diagonal_edge, per_graph
from .slits import forests, slit_curves

PX = 20          # pixels per half lattice unit
PAD = 2          # halves of padding around the bounding box

DIMER_STYLE = 'stroke="#1f77b4" stroke-width="7" stroke-linecap="round"'
IMPURITY_STYLE = 'stroke="#d62728" stroke-width="7" stroke-linecap="round"'
EDGE_STYLE = 'stroke="#bbbbbb" stroke-width="1"'
SLIT_STYLE = ('stroke="#e41a1c" stroke-width="3" fill="none" '
              'stroke-linejoin="round" stroke-linecap="round"')
PRIMARY_STYLE = 'stroke="#000000" stroke-width="4" stroke-linecap="round"'
DUAL_STYLE = ('stroke="#000000" stroke-width="4" stroke-linecap="round" '
              'stroke-dasharray="8,6"')


class _Frame(NamedTuple):
    x0: int
    y1: int
    width: int
    height: int

    @classmethod
    def of(cls, vertices):
        xs = [2 * x for x, _ in vertices]
        ys = [2 * y for _, y in vertices]
        x0 = min(xs) - PAD
        y1 = max(ys) + PAD
        return cls(x0, y1, (max(xs) + PAD - x0) * PX,
                   (y1 - (min(ys) - PAD)) * PX)

    def at(self, doubled):
        # SVG y axis points down.
        return ((doubled[0] - self.x0) * PX, (self.y1 - doubled[1]) * PX)

    def vertex(self, v):
        return self.at((2 * v[0], 2 * v[1]))


# a line from pixel (x1, y1) to (x2, y2) in a style
LINE = '<line x1="%d" y1="%d" x2="%d" y2="%d" %s/>'


class _Static(NamedTuple):
    frame: _Frame
    head: str       # XML declaration and the svg start tag
    edges: str      # one grey line per edge of G
    vertices: str   # one circle per vertex of G
    px: MappingProxyType  # vertex -> its pixel coordinates


@per_graph
def _static(g):
    """The parts of g's picture that no covering changes, made once per
    graph object: each layer is already joined, so a render adds only
    the dimers, forests and curves, joined from g's fragments.  Every
    part is immutable, so no render can change what the next one
    reads."""
    frame = _Frame.of(g.vertices)
    px = MappingProxyType({v: frame.vertex(v) for v in g.vertices})
    circles = []
    for v in g.vertices:
        x, y = px[v]
        if (v[0] + v[1]) % 2:
            circles.append(
                '<circle cx="%d" cy="%d" r="5" fill="#000000"/>' % (x, y))
        else:
            circles.append(
                '<circle cx="%d" cy="%d" r="6" fill="#ffffff" '
                'stroke="#000000" stroke-width="2"/>' % (x, y))
    return _Static(
        frame,
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        'viewBox="0 0 %d %d">' % (frame.width, frame.height),
        "\n".join([LINE % (*px[u], *px[v], EDGE_STYLE)
                   for u, v in g.edges]),
        "\n".join(circles),
        px)


class _Lines(dict):
    """edge -> its line in one layer, formatted on first use: in style,
    or in diagonal_style if the edge is diagonal."""

    __slots__ = ("px", "style", "diagonal_style")

    def __init__(self, px, style, diagonal_style):
        self.px = px
        self.style = style
        self.diagonal_style = diagonal_style

    def __missing__(self, e):
        px = self.px
        style = self.diagonal_style if is_diagonal_edge(e) else self.style
        line = self[e] = LINE % (*px[e[0]], *px[e[1]], style)
        return line


class _Points(dict):
    """doubled curve point -> its "x,y", formatted on first use."""

    __slots__ = ("at",)

    def __init__(self, at):
        self.at = at

    def __missing__(self, p):
        xy = self[p] = "%d,%d" % self.at(p)
        return xy


class _Fragments(NamedTuple):
    dimers: _Lines      # a dimer, or the impurity if diagonal
    primary: _Lines     # an edge of a primary tree
    dual: _Lines        # an edge of a dual tree
    points: _Points


@per_graph
def _fragments(g):
    """g's table of the fragments a covering's layers are joined from,
    one per graph object, each fragment formatted when a render first
    needs it.  A fragment is a string that depends only on g, its edge
    or point and its layer, so what one render adds to the table is
    what any later render of g would format."""
    static = _static(g)
    px = static.px
    return _Fragments(
        _Lines(px, DIMER_STYLE, IMPURITY_STYLE),
        _Lines(px, PRIMARY_STYLE, PRIMARY_STYLE),
        _Lines(px, DUAL_STYLE, DUAL_STYLE),
        _Points(static.frame.at))


def render_covering(m: DimerCovering, show_slits=False,
                    show_forests=False) -> str:
    """An SVG 1.1 document for the covering, stable byte for byte.

    Grey edges first, then dimers, forests and curves, then the
    vertices, so the covering's layers lie over the graph's edges and
    under its vertices.
    """
    g = m.graph
    static = _static(g)
    fragments = _fragments(g)
    parts = [static.head, static.edges]
    parts += map(fragments.dimers.__getitem__, m.dimers)
    if show_forests:
        fp = forests(m)
        for trees, lines in ((fp.primary, fragments.primary),
                             (fp.dual, fragments.dual)):
            for tree in trees:
                parts += map(lines.__getitem__, sorted(tree.edges))
    if show_slits:
        point = fragments.points.__getitem__
        for c in sorted(slit_curves(m), key=lambda c: c.points):
            parts.append('<polyline points="%s" %s/>'
                         % (" ".join(map(point, c.points)), SLIT_STYLE))
    parts.append(static.vertices)
    parts.append('</svg>')
    return "\n".join(parts) + "\n"
