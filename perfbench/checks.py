"""Output checks that do not trust the code under test.

The Kirchhoff numbers are re-derived modulo a 61-bit prime from the
region alone (the reduced Laplacian is rebuilt here from the faces), so
a wrong det A, p or count shows even on seeded regions no digest was
recorded for.  Byte digests pin the outputs of the fixed inputs to what
the code produced when the benchmark was defined (reference.json).
"""

import hashlib
import json
import os
from fractions import Fraction

from inputs import STEPS

Q = (1 << 61) - 1

with open(os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "reference.json")) as _fh:
    REFERENCE = json.load(_fh)


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def strip_dets(n):
    """det A of the strips 1..n: a_n = 4 a_(n-1) - a_(n-2), a_0 = 1, a_1 = 4."""
    out = [1, 4]
    while len(out) <= n:
        out.append(4 * out[-1] - out[-2])
    return out[1:n + 1]


def kirchhoff_mod(region):
    """(det A mod Q, {face: p_face mod Q}, d*) computed from the faces.

    A is 4 on the diagonal and -1 between lattice-adjacent faces, b marks
    the faces next to f*, and d* counts them (one l-edge each).
    """
    faces = sorted(tuple(f) for f in region["faces"])
    f_star = tuple(region["f_star"])
    index = {v: i for i, v in enumerate(faces)}
    n = len(faces)
    m = [[0] * (n + 1) for _ in range(n)]
    for v, i in index.items():
        m[i][i] = 4
        for dx, dy in STEPS:
            w = (v[0] + dx, v[1] + dy)
            if w in index:
                m[i][index[w]] = Q - 1
            elif w == f_star:
                m[i][n] = 1
    d_star = sum(row[n] for row in m)
    det = 1
    for k in range(n):
        pivot = next(i for i in range(k, n) if m[i][k])
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            det = -det
        det = det * m[k][k] % Q
        inv = pow(m[k][k], Q - 2, Q)
        m[k] = [x * inv % Q for x in m[k]]
        for i in range(n):
            r = m[i][k]
            if i != k and r:
                m[i] = [(x - r * y) % Q for x, y in zip(m[i], m[k])]
    return det % Q, {v: m[i][n] for v, i in index.items()}, d_star


def prob_errors(region, text):
    """Every way the JSON of `octadimer prob` disagrees with the region."""
    out = json.loads(text)
    det = int(out["det_A"])
    total = int(out["total"])
    det_q, p_q, d_star = kirchhoff_mod(region)
    f_star = tuple(region["f_star"])
    errors = []
    if det % Q != det_q:
        errors.append("det_A %d disagrees with the modular determinant" % det)
    if out["d_star"] != d_star:
        errors.append("d_star %r, want %d" % (out["d_star"], d_star))
    if set(out["p"]) != {json.dumps(list(v)) for v in list(p_q) + [f_star]}:
        errors.append("p is not keyed by the faces and f*")
    for key, value in out["p"].items():
        v = tuple(json.loads(key))
        count = Fraction(value) * det
        want = det_q if v == f_star else det_q * p_q.get(v, 0) % Q
        if count.denominator != 1 or count.numerator % Q != want:
            errors.append("det_A * p at %s is wrong" % key)
    counts = 0
    for item in out["edge_probabilities"]:
        count = int(item["count"])
        counts += count
        if item["probability"] != str(Fraction(count, total)):
            errors.append("probability at %r is not count/total" % item["edge"])
        u, v = (tuple(x) for x in item["edge"])
        odd = u if u[0] % 2 else v
        want = det_q if odd == f_star else det_q * p_q[odd] % Q
        if count % Q != want:
            errors.append("count at %r is not det_A * p" % item["edge"])
    if counts != total:
        errors.append("edge counts sum to %d, total is %d" % (counts, total))
    if total % Q != det_q * (4 * (sum(p_q.values()) + 1) + d_star - 3) % Q:
        errors.append("total %d is not det_A (4 sum p + d* - 3)" % total)
    return errors


def total_errors(region, det, total):
    """Check det A and the grand total of a region modulo Q."""
    det_q, p_q, d_star = kirchhoff_mod(region)
    errors = []
    if det % Q != det_q:
        errors.append("tree_count %d disagrees with the modular determinant"
                      % det)
    if total % Q != det_q * (4 * (sum(p_q.values()) + 1) + d_star - 3) % Q:
        errors.append("total_coverings %d is not det_A (4 sum p + d* - 3)"
                      % total)
    return errors


def matching_errors(vertices, edge_set, dimers):
    """Whether dimers (pairs of pairs) is a perfect matching of the graph."""
    seen = set()
    for u, v in dimers:
        e = tuple(sorted((tuple(u), tuple(v))))
        if e not in edge_set:
            return ["dimer %r is not an edge of G" % (e,)]
        seen.update(e)
    if len(seen) != 2 * len(dimers) or seen != vertices:
        return ["dimers do not cover every vertex exactly once"]
    return []
