"""Hypothesis strategies shared by the property-based tests.

Kept out of conftest.py so that only the modules using Hypothesis
need it installed.
"""

from hypothesis import assume, strategies as st

from octadimer.lattice import InvalidInputError, Region, build_region


@st.composite
def regions(draw, max_steps=3):
    """A region grown by a random walk of up to max_steps face steps."""
    steps = draw(st.lists(st.integers(0, 3), max_size=max_steps))
    faces = {(1, 1)}
    cur = (1, 1)
    for k in steps:
        dx, dy = ((2, 0), (0, 2), (-2, 0), (0, -2))[k]
        cur = (cur[0] + dx, cur[1] + dy)
        faces.add(cur)
    boundary = sorted({(f[0] + dx, f[1] + dy) for f in faces
                       for dx, dy in ((2, 0), (0, 2), (-2, 0), (0, -2))}
                      - faces)
    shift = draw(st.integers(0, len(boundary) - 1))
    for f in boundary[shift:] + boundary[:shift]:
        for c in ((f[0] - 1, f[1] - 1), (f[0] - 1, f[1] + 1),
                  (f[0] + 1, f[1] - 1), (f[0] + 1, f[1] + 1)):
            try:
                return build_region(Region.of(sorted(faces), f, c))
            except InvalidInputError:
                continue
    assume(False)
