"""Deterministic SVG pictures of coverings, slit-curves and forests.

All geometry lives on the doubled integer grid (a lattice point (x, y)
sits at (2x, 2y), edge midpoints at odd sums), scaled by a fixed pixel
factor, so output bytes depend only on the input covering.  Slit
curves are drawn as polylines through their midpoint chains rather
than as circular arcs; the combinatorics, not the curvature, is what
the pictures are for.  Primary forest trees are solid, dual trees
dashed, matching the usual figure convention.
"""

from typing import NamedTuple

from .covering import DimerCovering
from .lattice import Memo, is_diagonal_edge, per_graph
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


class _Picture(NamedTuple):
    head: str       # XML declaration and the svg start tag
    edges: str      # one grey line per edge of G
    vertices: str   # one circle per vertex of G
    dimers: Memo    # dimer -> its line, in the impurity style if diagonal
    trees: Memo     # forest edge -> its line, dashed on W1, solid on W0
    points: Memo    # doubled curve point -> its "x,y"


@per_graph
def _picture(g):
    """g's picture, made once per graph object: the layers no covering
    changes, already joined, and the fragments a covering's layers are
    joined from, each formatted when a render first needs it.  A
    fragment is a string that depends only on g, its edge or point and
    its layer, so what one render adds is what any later render of g
    would format."""
    frame = _Frame.of(g.vertices)
    px = {v: frame.vertex(v) for v in g.vertices}
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

    def dimer(e):
        style = IMPURITY_STYLE if is_diagonal_edge(e) else DIMER_STYLE
        return LINE % (*px[e[0]], *px[e[1]], style)

    def tree_edge(e):
        style = DUAL_STYLE if e[0][0] % 2 else PRIMARY_STYLE
        return LINE % (*px[e[0]], *px[e[1]], style)

    return _Picture(
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        'viewBox="0 0 %d %d">' % (frame.width, frame.height),
        "\n".join([LINE % (*px[u], *px[v], EDGE_STYLE)
                   for u, v in g.edges]),
        "\n".join(circles),
        Memo(dimer),
        Memo(tree_edge),
        Memo(lambda p: "%d,%d" % frame.at(p)))


def render_covering(m: DimerCovering, show_slits=False,
                    show_forests=False) -> str:
    """An SVG 1.1 document for the covering, stable byte for byte.

    Grey edges first, then dimers, forests and curves, then the
    vertices, so the covering's layers lie over the graph's edges and
    under its vertices.
    """
    picture = _picture(m.graph)
    parts = [picture.head, picture.edges]
    parts += map(picture.dimers.__getitem__, m.dimers)
    if show_forests:
        fp = forests(m)
        line = picture.trees.__getitem__
        for tree in fp.primary + fp.dual:
            parts += map(line, sorted(tree.edges))
    if show_slits:
        point = picture.points.__getitem__
        for c in sorted(slit_curves(m), key=lambda c: c.points):
            parts.append('<polyline points="%s" %s/>'
                         % (" ".join(map(point, c.points)), SLIT_STYLE))
    parts.append(picture.vertices)
    parts.append('</svg>')
    return "\n".join(parts) + "\n"
