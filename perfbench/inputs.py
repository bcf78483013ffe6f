"""Seeded input generation for the benchmark workloads.

Regions are plain JSON objects, {"faces": [[x, y], ...], "f_star": [x, y],
"v_star": [x, y]}, exactly what the ``octadimer`` CLI reads.  Everything
here is derived from the workload seed alone and uses no library code,
so the library only ever sees the generated regions and files.
"""

import hashlib
import json
import random

STEPS = ((2, 0), (-2, 0), (0, 2), (0, -2))


def rng_for(seed, label):
    """An independent, reproducible random stream per (seed, purpose)."""
    return random.Random("%d:%s" % (seed, label))


def region(faces, f_star, v_star):
    return {"faces": [list(f) for f in sorted(faces)],
            "f_star": list(f_star), "v_star": list(v_star)}


def strip(n):
    """1 x n row of faces, f* at the right end, v* above its left corner."""
    return region([(2 * j - 1, 1) for j in range(1, n + 1)],
                  (2 * n + 1, 1), (2 * n, 2))


def ell():
    """The worked three-face L-region: det A = 56, 328 coverings."""
    return region([(1, 1), (3, 1), (1, 3)], (3, 3), (2, 4))


def square(k):
    """k x k faces (2i+1, 2j+1), f* = (2k+1, 1), v* = (2k, 2)."""
    return region([(2 * i + 1, 2 * j + 1) for i in range(k) for j in range(k)],
                  (2 * k + 1, 1), (2 * k, 2))


def has_hole(cells):
    """Whether the complement of cells (spacing-two lattice) is split."""
    xs = [x for x, _ in cells]
    ys = [y for _, y in cells]
    x0, x1, y0, y1 = min(xs) - 2, max(xs) + 2, min(ys) - 2, max(ys) + 2
    outside = sum(1 for x in range(x0, x1 + 1, 2) for y in range(y0, y1 + 1, 2)
                  if (x, y) not in cells)
    seen = {(x0, y0)}
    stack = [(x0, y0)]
    while stack:
        x, y = stack.pop()
        for dx, dy in STEPS:
            w = (x + dx, y + dy)
            if (x0 <= w[0] <= x1 and y0 <= w[1] <= y1
                    and w not in cells and w not in seen):
                seen.add(w)
                stack.append(w)
    return len(seen) != outside


def polyomino(rng, n):
    """A simply connected polyomino of n faces grown cell by cell, with
    f* on a side touched by exactly one face.

    That f* placement gives d* = 1 and exactly two boundary diagonals at
    f* as long as neither cell diagonally behind f* is a face, so every
    result is a valid region without asking the library.
    """
    cells = {(1, 1)}
    while len(cells) < n:
        frontier = sorted({(x + dx, y + dy) for x, y in cells
                           for dx, dy in STEPS} - cells)
        cell = rng.choice(frontier)
        if not has_hole(cells | {cell}):
            cells.add(cell)
    mx = min(x for x, _ in cells) - 1
    my = min(y for _, y in cells) - 1
    cells = {(x - mx, y - my) for x, y in cells}
    candidates = []
    for fx, fy in sorted({(x + dx, y + dy) for x, y in cells
                          for dx, dy in STEPS} - cells):
        touching = [(dx, dy) for dx, dy in STEPS
                    if (fx + dx, fy + dy) in cells]
        if len(touching) != 1:
            continue
        (dx, dy), = touching
        px, py = dy, dx
        behind = ((fx - dx + px, fy - dy + py), (fx - dx - px, fy - dy - py))
        if any(c in cells for c in behind) or has_hole(cells | {(fx, fy)}):
            continue
        # the two corners f* shares with its one face
        hx, hy = dx // 2, dy // 2
        corners = ((fx + hx + hy, fy + hy + hx), (fx + hx - hy, fy + hy - hx))
        candidates.extend(((fx, fy), v) for v in corners)
    f_star, v_star = rng.choice(candidates)
    return region(cells, f_star, v_star)


def invalid_files(seed):
    """The five invalid region files of the `exact` workload, by name.

    The first two and the boolean coordinate vary with the seed; the
    one-coordinate face and the far-away f* are fixed inputs.
    """
    rng = rng_for(seed, "invalid")
    good = json.dumps(ell(), sort_keys=True)
    missing = ell()
    del missing[rng.choice(sorted(missing))]
    boolean = ell()
    # every coordinate equal to 1 may be written as true and still parse
    spots = [(i, j) for i, f in enumerate(boolean["faces"])
             for j, c in enumerate(f) if c == 1]
    i, j = rng.choice(spots)
    boolean["faces"][i][j] = True
    return {
        "malformed": good[:rng.randrange(1, len(good) - 1)],
        "missing_key": json.dumps(missing, sort_keys=True),
        "one_coordinate": '{"faces": [[1]], "f_star": [3, 1], "v_star": [2, 2]}',
        "boolean_coordinate": json.dumps(boolean, sort_keys=True),
        "far_f_star": ('{"faces": [[1, 1]], "f_star": [801, 801], '
                       '"v_star": [800, 800]}'),
    }


def digest(obj):
    """sha256 of the canonical JSON form of obj."""
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()
