"""Per-layer timings of the counting, slit, chain, t-class and move-graph
paths over a region ladder.

Times lattice.build_region, kirchhoff.build_system, kirchhoff.tree_count
and kirchhoff.total_coverings, slits.slit_curves and slits.forests on
the region's initial_covering, sampler.run (seed 1, 20 000 steps, also
given as steps per second) from it, and slits.slit_curves and
moves.t_class on that run's final covering, on strips n = 1..8, the
L-region and k x k squares (faces (2i+1, 2j+1), f* = (2k+1, 1),
v* = (2k, 2)), each the median of five calls after one untimed call of
the chain and t_class, so the per-graph site lists are built.  The
L-region row also times oracle.enumerate_coverings and
moves.move_graph_connected over its enumeration.  It checks every
region's answers: the strip determinants follow
a_n = 4 a_{n-1} - a_{n-2} from a_0 = 1, a_{-1} = 0; on every region the
counts N = |det A| p from solve_p satisfy A N = |det A| b, with A and b
rebuilt from the dual graph, not from the system under test; the
forest pair splits G's whites into trees; the slit-curves of both
coverings use every arc, one per (black, corner with both whites in G)
pair counted from G alone, and each impurity's diagonal midpoint lies
on exactly one of them; and the t-class has 4(|T*| - 1) + d* + 1
members, T* being slits.enclosed_dual_tree of the final covering's
impurity curve; and on the L-region the oracle enumerates
total_coverings coverings, which s- and t-moves connect.

Stdlib only; it imports octadimer from the path, so

    PYTHONPATH=src python3 bench/ladder.py [--quick]

times the checkout it is run in, and PYTHONPATH=<other checkout>/src
times another.  One JSON object goes to stdout: provenance (Python,
nproc, the library's git commit and whether its tree is dirty, a hash
of its sources and a hash of the ladder) and one record per region.
--quick runs strips 1..8, the L-region and squares 4 and 8 once.  The
exit status is 1 if any check fails.
"""

import argparse
import hashlib
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import time

import octadimer
from octadimer import (ChainConfig, Region, build_region, build_system,
                       ell_region, enclosed_dual_tree, enumerate_coverings,
                       forests, impurities, impurity_curve, initial_covering,
                       move_graph_connected, run, slit_curves, solve_p,
                       strip_region, t_class, total_coverings, tree_count)

STRIPS = range(1, 9)
SQUARES = (4, 8, 12, 16, 24)
QUICK_SQUARES = (4, 8)
REPEATS = 5
CHAIN = ChainConfig(seed=1, steps=20000)


def square_region(k):
    """k x k faces (2i+1, 2j+1), f* = (2k+1, 1), v* = (2k, 2)."""
    faces = [(2 * i + 1, 2 * j + 1) for i in range(k) for j in range(k)]
    return Region.of(faces, (2 * k + 1, 1), (2 * k, 2))


def ladder(quick):
    regions = [("strip%d" % n, strip_region(n)) for n in STRIPS]
    regions.append(("ell", ell_region()))
    regions += [("square%d" % k, square_region(k))
                for k in (QUICK_SQUARES if quick else SQUARES)]
    return regions


def median_time(fn, repeats):
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times), result


def residual_ok(tri):
    """A N == |det A| b, row by row over the dual graph's faces."""
    hp = tri.h_perp
    p = solve_p(build_system(hp))
    b = dict.fromkeys(hp.faces, 0)
    for u, v, h in hp.dual_edges:
        if h in hp.l_edges:
            b[v if u == hp.f_star else u] = 1
    return all(4 * p.counts[v] - sum(p.counts[w] for w in hp.neighbors(v)
                                     if w != hp.f_star) == p.det * b[v]
               for v in hp.faces)


def forests_span(fp, g):
    """Every white of g lies in exactly one tree, and each tree has
    one edge fewer than it has vertices."""
    trees = fp.primary + fp.dual
    return (sorted(w for t in trees for w in t.vertices) == list(g.whites)
            and all(len(t.edges) == len(t.vertices) - 1 for t in trees))


def arc_count(g):
    """The (black, corner with both whites in g) pairs: one arc each."""
    vs = g.vertex_set
    n = 0
    for x, y in g.blacks:
        ring = ((x + 1, y), (x, y + 1), (x - 1, y), (x, y - 1))
        n += sum(ring[i - 1] in vs and ring[i] in vs for i in range(4))
    return n


def curves_ok(m, curves):
    """The curves use every arc, and each impurity's diagonal midpoint
    lies on exactly one of them."""
    if sum(len(c) - 1 for c in curves) != arc_count(m.graph):
        return False
    mids = [(u[0] + v[0], u[1] + v[1]) for u, v in impurities(m)]
    return all(sum(p in c.points for c in curves) == 1 for p in mids)


def t_class_size_ok(tri, m, size):
    """|t-class of m| == 4(|T*| - 1) + d* + 1."""
    e, = impurities(m)
    tree = enclosed_dual_tree(impurity_curve(m, e), forests(m))
    return size == 4 * (len(tree.vertices) - 1) + tri.h_perp.d_star + 1


def measure(name, region, repeats):
    t_region, tri = median_time(lambda: build_region(region), repeats)
    t_system, system = median_time(lambda: build_system(tri.h_perp), repeats)
    t_det, det = median_time(lambda: tree_count(system), repeats)
    t_total, total = median_time(lambda: total_coverings(tri), repeats)
    m = initial_covering(tri)
    t_curves, curves = median_time(lambda: slit_curves(m), repeats)
    t_forests, fp = median_time(lambda: forests(m), repeats)
    final = run(m, CHAIN).final
    t_class(final)
    t_chain, _ = median_time(lambda: run(m, CHAIN), repeats)
    t_final_curves, final_curves = median_time(lambda: slit_curves(final),
                                               repeats)
    t_t_class, cls = median_time(lambda: t_class(final), repeats)
    record = {"name": name, "faces": len(region.faces),
              "det_bits": det.bit_length(), "det": str(det),
              "total": str(total), "residual_ok": residual_ok(tri),
              "forests_span": forests_span(fp, tri.g),
              "curves_ok": (curves_ok(m, curves)
                            and curves_ok(final, final_curves)),
              "chain_steps_per_s": CHAIN.steps / t_chain,
              "t_class_size": len(cls),
              "t_class_ok": t_class_size_ok(tri, final, len(cls)),
              "seconds": {"build_region": t_region, "build_system": t_system,
                          "tree_count": t_det, "total_coverings": t_total,
                          "slit_curves": t_curves, "forests": t_forests,
                          "chain_run": t_chain,
                          "slit_curves_final": t_final_curves,
                          "t_class": t_t_class}}
    if name == "ell":
        t_enum, ms = median_time(lambda: enumerate_coverings(tri.g), repeats)
        t_conn, connected = median_time(
            lambda: move_graph_connected(tri.g, ms), repeats)
        record.update(coverings=len(ms), oracle_ok=len(ms) == total,
                      connected=connected)
        record["seconds"].update(enumerate_coverings=t_enum,
                                 move_graph_connected=t_conn)
    return record


def strip_recurrence_ok(records):
    dets = [int(r["det"]) for r in records
            if r["name"].startswith("strip")]
    a = [0, 1]
    for _ in dets:
        a.append(4 * a[-1] - a[-2])
    return dets == a[2:]


def _git(root, *args):
    try:
        out = subprocess.run(["git", "-C", str(root), *args], check=True,
                             capture_output=True, text=True).stdout
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.strip()


def provenance(regions, repeats):
    src = pathlib.Path(octadimer.__file__).resolve().parent
    sources = hashlib.sha256()
    for path in sorted(src.glob("*.py")):
        sources.update(path.name.encode() + b"\0" + path.read_bytes())
    spec = [[name, r.faces, r.f_star, r.v_star] for name, r in regions]
    status = _git(src, "status", "--porcelain", "--", ".")
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "commit": _git(src, "rev-parse", "HEAD"),
            "dirty": None if status is None else bool(status),
            "sources_sha256": sources.hexdigest(),
            "ladder_sha256": hashlib.sha256(
                json.dumps(spec).encode()).hexdigest(),
            "repeats": repeats}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--quick", action="store_true",
                        help="strips 1..8, the L-region and squares 4, 8, "
                        "one repeat")
    args = parser.parse_args(argv)
    repeats = 1 if args.quick else REPEATS
    regions = ladder(args.quick)
    records = [measure(name, region, repeats) for name, region in regions]
    ok = strip_recurrence_ok(records) and all(
        r["residual_ok"] and r["forests_span"] and r["curves_ok"]
        and r["t_class_ok"] and r.get("oracle_ok", True)
        and r.get("connected", True)
        for r in records)
    print(json.dumps({"provenance": provenance(regions, repeats),
                      "correct": ok, "regions": records}, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
