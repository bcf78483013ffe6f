"""Per-layer timings of the counting, slit, chain, t-class and move-graph
paths over a region ladder.

Times lattice.build_region, kirchhoff.build_system, kirchhoff.eliminate on
the built system alone, kirchhoff.tree_count and kirchhoff.total_coverings,
temperley.initial_covering, slits.slit_curves
and slits.forests on the region's initial_covering, sampler.run (seed 1,
20 000 steps, also given as steps per second) from it, and
slits.slit_curves, moves.t_class, temperley.pi, slits.impurity_curve and
render.render_covering with curves and forests on that run's final
covering, on strips n = 1..8, the L-region and k x k squares (faces
(2i+1, 2j+1), f* = (2k+1, 1), v* = (2k, 2)), each the median of five
calls after one untimed call of the chain, t_class and pi, so the
per-graph site table, the walk's edge masks and N are built.  It also
times slits.slit_curves, slits.forests and render.render_covering with
curves and forests cold: on the initial covering of a graph built just
before each call, so the per-graph segment, link and fragment tables
start empty, as in a one-shot `render` command.  On
every region it times the whole `prob` command in process, stdout
captured, on a region file, and on each square the whole `sample`
command (seed 1, 20 000 steps, every 100th state), which builds the
region and draws the final covering's curves around the chain; the
first command of the run also builds the CLI's parser.  The `emit` row
times the CLI's JSON writer (cli._json_text) alone on that region's
`prob` answer, parsed back from stdout.  After the
ladder it times one `selftest` command.  The L-region row also times
oracle.enumerate_coverings and, over its enumeration,
moves.move_graph_connected, moves.t_classes, temperley.class_bijection
and slits.forests of every covering.  It checks every region's
answers: the strip determinants follow a_n = 4 a_{n-1} - a_{n-2} from
a_0 = 1, a_{-1} = 0; on every region the counts N = |det A| p from
solve_p satisfy A N = |det A| b, with A and b rebuilt from the dual
graph, not from the system under test; on each square det A equals
square_det, computed without the library's elimination; the forest
pair, from the warm call and from the last cold one, splits G's whites
into trees; the slit-curves of both coverings
use every arc, one per (black, corner with both whites in G) pair
counted from G alone, and each impurity's diagonal midpoint lies on
exactly one of them, the one slits.impurity_curve returns; the t-class
has 4(|T*| - 1) + d* + 1 members, T* being slits.enclosed_dual_tree of the
final covering's impurity curve; pi of the final covering plus e*1 is
a member of its t-class; and `prob` exits 0 with det_A =
tree_count and total = total_coverings, and the writer turns its answer
back into the same stdout.  On each square `sample` exits
0, its final covering validates on G, it reports ceil(steps / every)
samples and its impurity counts sum to that.  On the L-region the
oracle enumerates total_coverings coverings, which s- and t-moves
connect, which fall into |det A| t-classes that biject with |det A|
trees, and whose forest pairs each split G's whites into trees.
`selftest` exits 0.

On each square it also replays eliminate's pivot pattern with no
integers: which entries each step stores, updates and brings up, the
scale each is over, and which parts are set aside and joined.  The
replay gives exact counts of the entry updates, bring-ups and join
products (see kirchhoff._triangulate) the solve makes in build_system's
order.  Each square also reports the median and largest bit size of
the entries the elimination stores (pivots, entries and column n of
its triangular system).  After the ladder come the solve-only rungs,
k x k squares too large for the rest of the ladder (k = 32 and 48):
build_region, build_system and eliminate timed, the replay counted,
the bit sizes read, det A checked against square_det and the counts
by A N = |det A| b.

Stdlib only; it imports octadimer from the path, so

    PYTHONPATH=src python3 bench/ladder.py [--quick]

times the checkout it is run in, and PYTHONPATH=<other checkout>/src
times another.  One JSON object goes to stdout: provenance (Python,
nproc, the library's git commit and whether its tree is dirty, a hash
of its sources and a hash of the ladder), the selftest record and one
record per region.
--quick runs strips 1..8, the L-region and squares 4 and 8 once, with
12 x 12, 16 x 16 and 24 x 24 as solve-only rungs, whose
nested-dissection order has two or more separator levels.  The exit
status is 1 if any check fails.
"""

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import tempfile
import time

import octadimer
from octadimer import (ChainConfig, Region, build_region, build_system,
                       class_bijection, ell_region, enclosed_dual_tree,
                       enumerate_coverings, forests, impurities,
                       impurity_curve, initial_covering,
                       move_graph_connected, pi, run, slit_curves, solve_p,
                       strip_region, t_class, t_classes, total_coverings,
                       tree_count, validate_covering)
from octadimer.cli import _json_text, main as cli_main
from octadimer.covering import CoveringError
from octadimer import kirchhoff
from octadimer.kirchhoff import eliminate
from octadimer.render import render_covering

STRIPS = range(1, 9)
SQUARES = (4, 8, 12, 16, 24)
QUICK_SQUARES = (4, 8)
SOLVE_ONLY = (32, 48)
QUICK_SOLVE_ONLY = (12, 16, 24)
REPEATS = 5
CHAIN = ChainConfig(seed=1, steps=20000)
SAMPLE_EVERY = 100


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
    neighbors = {v: set() for v in hp.vertices}
    for u, v, h in hp.dual_edges:
        neighbors[u].add(v)
        neighbors[v].add(u)
        if h in hp.l_edges:
            b[v if u == hp.f_star else u] = 1
    return all(4 * p.counts[v] - sum(p.counts[w] for w in neighbors[v]
                                     if w != hp.f_star) == p.det * b[v]
               for v in hp.faces)


def square_det(k):
    """det A of the k x k square, without the library's elimination.

    A = 4I - T (x) I - I (x) T, T the adjacency of the k-vertex path, is
    block tridiagonal: M = 4I - T on the diagonal and -I beside it.  The
    blocks commute, so det A = det P_k(M), where P_k(x), the determinant
    of the k x k tridiagonal matrix with x on its diagonal and -1 beside
    it, obeys P_0 = 1, P_1 = x, P_n = x P_{n-1} - P_{n-2}, at O(k^2) a
    step since M is tridiagonal.  P_k(M) is symmetric positive definite
    like A, so one dense fraction-free (Bareiss) elimination of it needs
    no row swaps.
    """
    before = [[int(i == j) for j in range(k)] for i in range(k)]
    p = [[4 if i == j else -1 if abs(i - j) == 1 else 0 for j in range(k)]
         for i in range(k)]
    for _ in range(k - 1):
        # row i of (4I - T) P is 4 P_i - P_{i-1} - P_{i+1}
        pad = [[0] * k] + p + [[0] * k]
        before, p = p, [[4 * x - u - d - z for x, u, d, z in zip(
            pad[i + 1], pad[i], pad[i + 2], before[i])] for i in range(k)]
    prev = 1
    for c in range(k):
        pivot = p[c][c]
        for i in range(c + 1, k):
            f = p[i][c]
            p[i] = [(pivot * x - f * y) // prev for x, y in zip(p[i], p[c])]
        prev = pivot
    return prev


def replay(system):
    """Entry updates, bring-ups and join products of eliminate(system),
    from its pivot pattern alone.

    It follows kirchhoff._triangulate with no integers: rows are built
    from A when first touched and hold, per stored column, a tag for the
    scale the entry is over (0 for A's own scale 1, a fresh tag per
    pivot and per join).  Step k brings up the pivot row's entries not
    over the scale it divides by, then updates each row i > k in the
    pivot row at the pivot row's columns from i on, bringing up those it
    finds over another scale; a column it does not find is filled in.
    A root whose parent is not the next row sets its part aside, with
    the rows of its later columns, until its parent, where each entry
    the continuing part also holds costs two join products.
    """
    n = len(system.order)
    adj, b = system.neighbors, system.b
    tags = itertools.count(1)

    def a_row(i):
        return dict.fromkeys([j for j in adj[i] if j > i] + [i] + [n] * b[i],
                             0)
    rows = [None] * n
    waiting = {}
    updates = bring_ups = products = 0
    scale = 0
    for k in range(n):
        for part, root in waiting.pop(k, ()):
            scale = root if scale == 0 else next(tags)
            for i, theirs in part.items():
                mine = rows[i]
                if mine is None:
                    rows[i] = theirs
                    continue
                for j, tag in theirs.items():
                    if j in mine:
                        products += 2
                        tag = scale
                    mine[j] = tag
        row = rows[k] or a_row(k)
        bring_ups += sum(tag != scale for tag in row.values())
        top = sorted(j for j in row if j != k)
        pivot = next(tags)
        for p, i in enumerate(top):
            if i == n:
                break
            if rows[i] is None:
                rows[i] = a_row(i)
            row = rows[i]
            for j in top[p:]:
                bring_ups += row.get(j, scale) != scale
                row[j] = pivot
            updates += len(top) - p
        parent = top[0] if top else n
        if parent == k + 1 < n:
            scale = pivot
            continue
        if parent < n:
            part = {}
            for i in top[:-1] if top[-1] == n else top:
                part[i], rows[i] = rows[i], None
            waiting.setdefault(parent, []).append((part, pivot))
        scale = 0
    return {"entry_updates": updates, "bring_ups": bring_ups,
            "join_products": products}


def entry_bits(system):
    """Median and largest bit size of the entries eliminate stores in the
    triangular system it solves (pivots, entries and column n), or None
    from a library without kirchhoff._triangulate."""
    triangulate = getattr(kirchhoff, "_triangulate", None)
    if triangulate is None:
        return {"entry_bits_median": None, "entry_bits_max": None}
    _, rows = triangulate(system, len(system.order))
    bits = [x.bit_length() for pivot, top in rows
            for x in [pivot] + [y for _, y in top]]
    return {"entry_bits_median": statistics.median(bits),
            "entry_bits_max": max(bits)}


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
    lies on exactly one of them, the curve impurity_curve returns."""
    if sum(len(c) - 1 for c in curves) != arc_count(m.graph):
        return False
    for e in impurities(m):
        mid = (e[0][0] + e[1][0], e[0][1] + e[1][1])
        if [c for c in curves if mid in c.points] != [impurity_curve(m, e)]:
            return False
    return True


def cold_time(region, fn, repeats):
    """Median time of fn on the initial covering of a graph built just
    before the call, so no per-graph table is filled yet, and the last
    call's result."""
    times = []
    for _ in range(repeats):
        m = initial_covering(build_region(region))
        start = time.perf_counter()
        result = fn(m)
        times.append(time.perf_counter() - start)
    return statistics.median(times), result


def render_all(m):
    return render_covering(m, show_slits=True, show_forests=True)


def cli_call(argv):
    """`octadimer argv` in process, stdout captured: exit code, stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = cli_main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def prob_command(path, det, total, repeats):
    """Median time of the `prob` command on the region file at path, the
    median time of the CLI's JSON writer alone on its answer, and
    whether it exits 0 with det_A and total equal to det and total and
    the writer gives back its stdout."""
    t, (code, stdout) = median_time(lambda: cli_call(["prob", path]),
                                    repeats)
    if code != 0:
        return t, None, False
    obj = json.loads(stdout)
    t_emit, text = median_time(lambda: _json_text(obj), repeats)
    return t, t_emit, (obj["det_A"] == str(det) and obj["total"] == str(total)
                       and text + "\n" == stdout)


def sample_command(path, g, repeats):
    """Median time of the `sample` command on the region file at path,
    and whether its output holds: exit 0, a final covering of g, the
    thinned sample count, and impurity counts summing to it."""
    argv = ["sample", path, "--seed", str(CHAIN.seed),
            "--steps", str(CHAIN.steps), "--every", str(SAMPLE_EVERY)]
    t, (code, stdout) = median_time(lambda: cli_call(argv), repeats)
    if code != 0:
        return t, False
    obj = json.loads(stdout)
    try:
        validate_covering(g, obj["final_covering"]["dimers"])
    except CoveringError:
        return t, False
    want = -(-CHAIN.steps // SAMPLE_EVERY)
    return t, (obj["n_samples"] == want
               and sum(obj["impurity_counts"].values()) == want)


def t_class_size_ok(tri, m, size):
    """|t-class of m| == 4(|T*| - 1) + d* + 1."""
    e, = impurities(m)
    tree = enclosed_dual_tree(impurity_curve(m, e), forests(m))
    return size == 4 * (len(tree.vertices) - 1) + tri.h_perp.d_star + 1


def measure(name, region, repeats, workdir):
    t_region, tri = median_time(lambda: build_region(region), repeats)
    t_system, system = median_time(lambda: build_system(tri.h_perp), repeats)
    t_eliminate, _ = median_time(lambda: eliminate(system), repeats)
    t_det, det = median_time(lambda: tree_count(system), repeats)
    t_total, total = median_time(lambda: total_coverings(tri), repeats)
    t_initial, m = median_time(lambda: initial_covering(tri), repeats)
    t_curves, curves = median_time(lambda: slit_curves(m), repeats)
    t_forests, fp = median_time(lambda: forests(m), repeats)
    final = run(m, CHAIN).final
    t_class(final)
    projected = pi(tri, final)
    t_chain, _ = median_time(lambda: run(m, CHAIN), repeats)
    t_final_curves, final_curves = median_time(lambda: slit_curves(final),
                                               repeats)
    t_t_class, cls = median_time(lambda: t_class(final), repeats)
    t_pi, _ = median_time(lambda: pi(tri, final), repeats)
    e, = impurities(final)
    t_imp_curve, _ = median_time(lambda: impurity_curve(final, e), repeats)
    t_render, _ = median_time(lambda: render_all(final), repeats)
    t_curves_cold, _ = cold_time(region, slit_curves, repeats)
    t_forests_cold, cold_fp = cold_time(region, forests, repeats)
    t_render_cold, _ = cold_time(region, render_all, repeats)
    record = {"name": name, "faces": len(region.faces),
              "det_bits": det.bit_length(), "det": str(det),
              "total": str(total), "residual_ok": residual_ok(tri),
              "forests_span": (forests_span(fp, tri.g)
                               and forests_span(cold_fp, tri.g)),
              "curves_ok": (curves_ok(m, curves)
                            and curves_ok(final, final_curves)),
              "chain_steps_per_s": CHAIN.steps / t_chain,
              "t_class_size": len(cls),
              "t_class_ok": t_class_size_ok(tri, final, len(cls)),
              "pi_ok": validate_covering(
                  tri.g, projected.dimers + (tri.e_star1,)) in cls,
              "seconds": {"build_region": t_region, "build_system": t_system,
                          "eliminate": t_eliminate, "tree_count": t_det,
                          "total_coverings": t_total,
                          "initial_covering": t_initial,
                          "slit_curves": t_curves, "forests": t_forests,
                          "chain_run": t_chain,
                          "slit_curves_final": t_final_curves,
                          "t_class": t_t_class, "pi_final": t_pi,
                          "impurity_curve_final": t_imp_curve,
                          "render_final": t_render,
                          "slit_curves_cold": t_curves_cold,
                          "forests_cold": t_forests_cold,
                          "render_cold": t_render_cold}}
    path = os.path.join(workdir, name + ".json")
    with open(path, "w") as f:
        json.dump({"faces": [list(v) for v in region.faces],
                   "f_star": list(region.f_star),
                   "v_star": list(region.v_star)}, f)
    (record["seconds"]["prob"], record["seconds"]["emit"],
     record["prob_ok"]) = prob_command(path, det, total, repeats)
    if name.startswith("square"):
        record["square_det_ok"] = det == square_det(
            math.isqrt(len(region.faces)))
        record.update(replay(system), **entry_bits(system))
        t_sample, record["sample_ok"] = sample_command(path, tri.g, repeats)
        record["seconds"]["sample"] = t_sample
    if name == "ell":
        t_enum, ms = median_time(lambda: enumerate_coverings(tri.g), repeats)
        t_conn, connected = median_time(
            lambda: move_graph_connected(tri.g, ms), repeats)
        t_classes_s, classes = median_time(lambda: t_classes(ms), repeats)
        t_bijection, trees = median_time(lambda: class_bijection(tri, ms),
                                         repeats)
        t_all_forests, pairs = median_time(lambda: list(map(forests, ms)),
                                           repeats)
        record.update(coverings=len(ms), oracle_ok=len(ms) == total,
                      connected=connected, t_classes=len(classes),
                      classes_ok=len(classes) == len(trees) == det,
                      forests_span=record["forests_span"] and all(
                          forests_span(fp, tri.g) for fp in pairs))
        record["seconds"].update(enumerate_coverings=t_enum,
                                 move_graph_connected=t_conn,
                                 t_classes=t_classes_s,
                                 class_bijection=t_bijection,
                                 forests_all=t_all_forests)
    return record


def measure_solve(k, repeats):
    """The solve alone on the k x k square: build_region, build_system
    and eliminate timed, the replay counted, the stored entries' bit
    sizes read, det A checked against square_det and the counts by
    residual_ok."""
    region = square_region(k)
    t_region, tri = median_time(lambda: build_region(region), repeats)
    t_system, system = median_time(lambda: build_system(tri.h_perp), repeats)
    t_eliminate, (det, _) = median_time(lambda: eliminate(system), repeats)
    return {"name": "square%d" % k, "faces": k * k,
            "det_bits": det.bit_length(), "det": str(det),
            "square_det_ok": det == square_det(k),
            "residual_ok": residual_ok(tri), **replay(system),
            **entry_bits(system),
            "seconds": {"build_region": t_region, "build_system": t_system,
                        "eliminate": t_eliminate}}


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
                        "solve-only squares 12, 16, 24, one repeat")
    args = parser.parse_args(argv)
    repeats = 1 if args.quick else REPEATS
    regions = ladder(args.quick)
    solve_only = QUICK_SOLVE_ONLY if args.quick else SOLVE_ONLY
    with tempfile.TemporaryDirectory() as workdir:
        records = [measure(name, region, repeats, workdir)
                   for name, region in regions]
    solves = [measure_solve(k, repeats) for k in solve_only]
    t_selftest, (code, _) = median_time(lambda: cli_call(["selftest"]), 1)
    selftest = {"seconds": t_selftest, "ok": code == 0}
    ok = selftest["ok"] and strip_recurrence_ok(records) and all(
        r["residual_ok"] and r["forests_span"] and r["curves_ok"]
        and r["t_class_ok"] and r["pi_ok"] and r["prob_ok"]
        and r.get("sample_ok", True) and r.get("square_det_ok", True)
        and r.get("oracle_ok", True)
        and r.get("connected", True) and r.get("classes_ok", True)
        for r in records) and all(
        r["square_det_ok"] and r["residual_ok"] for r in solves)
    spec = regions + [("solve%d" % k, square_region(k)) for k in solve_only]
    print(json.dumps({"provenance": provenance(spec, repeats),
                      "correct": ok, "selftest": selftest,
                      "regions": records, "solves": solves}, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
