"""Acceptance gate: one test per numbered criterion.

Each criterion gets exactly one test so `pytest -v` prints one
pass/fail line per criterion.  Tolerances and runtime budgets are
asserted inside the tests.

Criterion 4 checks the deep-site impurity probability on the n = 8
strip.  With a_0 = 1, a_1 = 4 and a_k = 4 a_{k-1} - a_{k-2}, each edge
of site j carries exactly a_{j-1} coverings and the strip has
4 (a_0 + ... + a_{n-1}) + 2 a_n coverings in all; the test asserts
both integers.  Since a_k grows like lam^(k+1) with lam = 2 + sqrt(3),
the per-edge probability at site j is c lam^-(n-j) with
c = 1 / (lam (4 / (lam - 1) + 2)) = (2 sqrt(3) - 3) / 6 = 0.0774, which
the test checks to 5% on the four deepest sites.  A prefactor of 1/4
was once claimed here; it is off by a factor (2 sqrt(3) + 3) / 2 = 3.23,
and the repository holds no source for it.
"""

import math
import time
from collections import Counter, defaultdict
from fractions import Fraction

from octadimer.covering import impurities
from octadimer.kirchhoff import (build_system, coverings_with_impurity,
                                 region_counts, total_coverings, tree_count)
from octadimer.lattice import build_region, ell_region, strip_region
from octadimer.moves import (apply_move, find_moves, move_graph_connected,
                             t_classes)
from octadimer.oracle import (enumerate_coverings, enumerate_spanning_trees,
                              impurity_histogram)
from octadimer.sampler import ChainConfig, run
from octadimer.slits import forests, slit_curves
from octadimer.temperley import (class_bijection, impurity_support,
                                 initial_covering, pi, tree_of_h)


def test_criterion_1_worked_example_exact():
    t0 = time.perf_counter()
    tri = build_region(ell_region())
    sys = build_system(tri.h_perp)
    assert tree_count(sys) == 56
    p = region_counts(tri)
    assert p[(1, 1)] == Fraction(1, 7)
    assert p[(1, 3)] == Fraction(2, 7)
    assert p[(3, 1)] == Fraction(2, 7)
    assert p[tri.f_star] == 1
    assert total_coverings(tri) == 328
    assert coverings_with_impurity(tri, ((1, 3), (2, 4))) == 16
    assert time.perf_counter() - t0 < 1.0


def test_criterion_2_oracle_cross_check(ell):
    t0 = time.perf_counter()
    ms = enumerate_coverings(ell.g)
    assert len(ms) == 328
    hist = impurity_histogram(ell.g, ms)
    for e, n in hist.items():
        assert coverings_with_impurity(ell, e) == n
    assert sorted(Counter(hist.values()).items()) == [(8, 4), (16, 8),
                                                      (56, 3)]
    assert time.perf_counter() - t0 < 30.0


def test_criterion_3_strip_family():
    want = [4, 15, 56, 209, 780, 2911]
    dets = []
    for n in range(1, 7):
        tri = build_region(strip_region(n))
        dets.append(tree_count(build_system(tri.h_perp)))
    assert dets == want
    for n in range(2, 6):
        assert dets[n] == 4 * dets[n - 1] - dets[n - 2]
    lp, lm = 2 + math.sqrt(3), 2 - math.sqrt(3)
    for n, a in enumerate(dets, start=1):
        closed = (lp ** (n + 1) - lm ** (n + 1)) / (2 * math.sqrt(3))
        assert abs(closed - a) / a < 1e-12
    for n in (1, 2, 3):
        tri = build_region(strip_region(n))
        assert total_coverings(tri) == len(enumerate_coverings(tri.g))


def test_criterion_4_strip_asymptotic_quarter_constant():
    # P(impurity on a fixed edge of site j) ~ c lam^-(n-j),
    # c = (2 sqrt(3) - 3) / 6, resting on the exact strip counts
    n = 8
    a = [1, 4]
    while len(a) <= n:
        a.append(4 * a[-1] - a[-2])
    tri = build_region(strip_region(n))
    total = total_coverings(tri)
    assert total == 4 * sum(a[:n]) + 2 * a[n]
    lam = 2 + math.sqrt(3)
    c = (2 * math.sqrt(3) - 3) / 6
    assert math.isclose(c, 1 / (lam * (4 / (lam - 1) + 2)))
    for j in range(n - 3, n + 1):
        e = ((2 * j - 2, 0), (2 * j - 1, 1))
        count = coverings_with_impurity(tri, e)
        assert count == a[j - 1]
        exact = count / total
        approx = c * lam ** -(n - j)
        assert abs(approx - exact) / exact < 0.05, (
            "site %d: exact %.6f vs approx %.6f" % (j, exact, approx))


def suite_regions():
    return [build_region(ell_region()), build_region(strip_region(1)),
            build_region(strip_region(2))]


def test_criterion_5_structural_sweep():
    for tri in suite_regions():
        k = (tri.g.white_count - tri.g.black_count) // 2
        for m in enumerate_coverings(tri.g):
            assert len(impurities(m)) == k                       # (a)
            curves = slit_curves(m)                              # (b)
            pts = [p for c in curves for p in c.points]
            assert len(pts) == len(set(pts))  # disjoint, no loops
            fp = forests(m)                                      # (c)
            for t in fp.primary + fp.dual:
                assert len(t.edges) == len(t.vertices) - 1
            canon = {c.points for c in curves}
            for mv in find_moves(m):                             # (d)
                if mv.kind == "t":
                    m2 = apply_move(m, mv)
                    assert {c.points for c in slit_curves(m2)} == canon
            mids = [tuple(a + b for a, b in zip(*e))
                    for e in impurities(m)]                      # (e)
            for c in curves:
                assert sum(p in c.points for p in mids) <= 1


def test_criterion_6_bijection_suite(ell, ell_coverings):
    classes = t_classes(ell_coverings)
    assert len(classes) == 56
    h_triples = [(e[0], e[1], e) for e in ell.h_edges]
    h_trees = enumerate_spanning_trees(ell.h_vertices, h_triples)
    assert len(h_trees) == 56
    dual = ell.h_perp
    assert len(enumerate_spanning_trees(dual.vertices, dual.dual_edges)) == 56
    cb = class_bijection(ell, ell_coverings)
    images = {frozenset(t.edges) for t in cb.values()}
    assert len(images) == len(cb) == 56              # injective
    assert images == {frozenset(t) for t in h_trees}  # surjective
    for cls in classes:
        assert len({pi(ell, m) for m in cls}) == 1   # pi constant


def test_criterion_7_harmonic_identity():
    for tri in suite_regions():
        p = region_counts(tri)
        h_triples = [(e[0], e[1], e) for e in tri.h_edges]
        trees = enumerate_spanning_trees(tri.h_vertices, h_triples)
        hits = defaultdict(int)
        for keys in trees:
            for v in impurity_support(tri, tree_of_h(tri, keys)):
                hits[v] += 1
        for v, pv in p.items():
            assert Fraction(hits[v], len(trees)) == pv


def test_criterion_8_sampler_statistics(ell, ell_coverings):
    t0 = time.perf_counter()
    m0 = initial_covering(ell)

    # uniformity over the 328 states, thinned lightly for sample volume
    rep = run(m0, ChainConfig(seed=20260825, steps=10 ** 6,
                              sample_every=10), keep_trajectory=True)
    n = rep.n_samples
    states = Counter(rep.trajectory)
    tv = 0.5 * (sum(abs(c / n - 1 / 328) for c in states.values())
                + (328 - len(states)) / 328)
    assert tv < 0.05, "TV distance %.4f" % tv

    # binomial z-test needs near-independent draws, so thin harder
    rep = run(m0, ChainConfig(seed=1, steps=10 ** 6, burn_in=10 ** 4,
                              sample_every=200))
    total = total_coverings(ell)
    hist = impurity_histogram(ell.g, ell_coverings)
    for e, c in hist.items():
        pe = c / total
        fe = rep.impurity_counts.get(e, 0) / rep.n_samples
        se = math.sqrt(pe * (1 - pe) / rep.n_samples)
        assert abs(fe - pe) < 3 * se, "edge %r off by %.2f SE" % (
            e, abs(fe - pe) / se)

    assert time.perf_counter() - t0 < 60.0


def test_criterion_9_move_graph_connected():
    for tri in suite_regions():
        assert move_graph_connected(tri.g, enumerate_coverings(tri.g))
