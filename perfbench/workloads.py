"""The benchmark's three workloads: exact, chain and verify.

Each is a closed loop with one client.  Set-up makes the inputs from the
seed; then every pass issues the same operations in order, each after the
previous one returns.  An operation is timed around its call into the
library alone, and its output is checked afterwards, untimed.

Every operation belongs to part "a", "b" or "c" of its workload; the
end-to-end metrics part_a_s, part_b_s and part_c_s are the time one pass
spends in each part.  Every workload reports every metric, so the names
are generic; interactions.json says what each part is per workload, and
``Workload.named`` maps the per-workload names (prob_pass_s,
sample_steps_per_s, ...) onto the parts for the detail output.
"""

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import checks
import inputs
from octadimer import (cli, covering, kirchhoff, lattice, moves, oracle,
                       render, sampler, slits, temperley)


class CliResult(NamedTuple):
    code: int
    stdout: str


@dataclass
class Op:
    part: str                    # "a", "b" or "c"
    label: str
    call: Callable[[], object]   # the timed call into the library
    check: Callable[[object], list]  # untimed; returns error strings


@dataclass
class State:
    """What set-up hands to the passes of one workload."""
    inputs_sha256: str
    data: dict = field(default_factory=dict)


def cli_run(argv):
    """In-process `octadimer ...`, stdout captured, exit code returned."""
    buf = io.StringIO()
    code = 0
    with contextlib.redirect_stdout(buf):
        try:
            cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return CliResult(code, buf.getvalue())


def write_region(workdir, name, obj):
    path = os.path.join(workdir, name + ".json")
    with open(path, "w") as fh:
        fh.write(obj if isinstance(obj, str) else json.dumps(obj))
    return path


def to_region(obj):
    return lattice.Region.of(obj["faces"], obj["f_star"], obj["v_star"])


# -- exact ---------------------------------------------------------------

STRIPS = range(1, 9)
# faces of the seeded polyominoes given to `prob`; above 8 faces the cost
# of one shape varies 2.5x between seeds and swamps the rest of the ladder
PROB_POLYOMINOES = (6, 7, 8)
PROB_REPEATS = 2        # each `prob` file is answered this often per pass:
                        # the 4x4 square's one-second answer is most of
                        # part a, and three samples a run are too few
SQUARES = (4, 8, 12)
TOTAL_POLYOMINO = 60
INVALID_REPEATS = 5     # each invalid file is answered this often per pass,
                        # so that its median has enough samples
# Invalid files the library does not reject cleanly: a one-coordinate face
# raises ValueError and a boolean coordinate is accepted with exit 0.  No
# timed op may fail, so they are answered once per run, outside the passes,
# and their check results are reported apart (Workload.probes).
KNOWN_DEFECTS = ("one_coordinate", "boolean_coordinate")


def exact_setup(seed, workdir):
    prob = [("strip-%d" % n, inputs.strip(n)) for n in STRIPS]
    prob += [("ell", inputs.ell()), ("square-4", inputs.square(4))]
    prob += [("poly-%d" % n,
              inputs.polyomino(inputs.rng_for(seed, "prob-%d" % n), n))
             for n in PROB_POLYOMINOES]
    total = [("square-%d" % k, inputs.square(k)) for k in SQUARES]
    total.append(("poly-%d" % TOTAL_POLYOMINO, inputs.polyomino(
        inputs.rng_for(seed, "total"), TOTAL_POLYOMINO)))
    invalid = inputs.invalid_files(seed)
    return State(
        inputs.digest({"prob": prob, "total": total, "invalid": invalid}),
        {"prob": [(n, r, write_region(workdir, n, r)) for n, r in prob],
         "total": [(n, r, to_region(r)) for n, r in total],
         "invalid": [(n, write_region(workdir, "invalid-" + n, text))
                     for n, text in sorted(invalid.items())
                     if n not in KNOWN_DEFECTS],
         "defects": [(n, write_region(workdir, "invalid-" + n, invalid[n]))
                     for n in KNOWN_DEFECTS]})


def _prob_check(name, region):
    def check(res):
        if res.code != 0:
            return ["prob exited %r" % res.code]
        errors = checks.prob_errors(region, res.stdout)
        out = json.loads(res.stdout)
        want = checks.REFERENCE["prob"].get(name)
        if want is not None and checks.sha256(res.stdout) != want:
            errors.append("prob output differs from the recorded digest")
        if name.startswith("strip-"):
            n = int(name.split("-")[1])
            if out["det_A"] != str(checks.strip_dets(n)[-1]):
                errors.append("strip det_A %s, want %d"
                              % (out["det_A"], checks.strip_dets(n)[-1]))
        if name == "ell":
            probs = {json.dumps(e["edge"]): e["probability"]
                     for e in out["edge_probabilities"]}
            if (out["det_A"], out["total"]) != ("56", "328"):
                errors.append("L-region det/total %s/%s, want 56/328"
                              % (out["det_A"], out["total"]))
            if probs.get("[[1, 3], [2, 4]]") != "2/41":
                errors.append("L-region P at ((1,3),(2,4)) is not 2/41")
        return errors
    return check


def _total_call(region):
    def call():
        tri = lattice.build_region(region)
        system = kirchhoff.build_system(tri.h_perp)
        return kirchhoff.tree_count(system), kirchhoff.total_coverings(tri)
    return call


def _total_check(name, region):
    def check(res):
        det, total = res
        errors = checks.total_errors(region, det, total)
        want = checks.REFERENCE["total"].get(name)
        if want is not None and [str(det), str(total)] != want:
            errors.append("det/total %d/%d differ from the recorded %s"
                          % (det, total, "/".join(want)))
        return errors
    return check


def _reject_check(res):
    if res.code != 2:
        return ["invalid file answered with exit %r, want 2" % res.code]
    try:
        out = json.loads(res.stdout)
    except ValueError:
        return ["invalid file answered without a JSON object"]
    if not isinstance(out, dict) or "error" not in out:
        return ["invalid file answered without an error object"]
    return []


def exact_ops(state):
    d = state.data
    for _ in range(PROB_REPEATS):
        for name, region, path in d["prob"]:
            yield Op("a", "prob " + name,
                     lambda path=path: cli_run(["prob", path]),
                     _prob_check(name, region))
    for name, region, obj in d["total"]:
        yield Op("b", "total " + name, _total_call(obj),
                 _total_check(name, region))
    for _ in range(INVALID_REPEATS):
        for name, path in d["invalid"]:
            yield Op("c", "reject " + name,
                     lambda path=path: cli_run(["prob", path]),
                     _reject_check)


def exact_probes(state):
    for name, path in state.data["defects"]:
        yield Op("c", "reject " + name,
                 lambda path=path: cli_run(["prob", path]), _reject_check)


# -- chain ---------------------------------------------------------------

CHAIN_SQUARES = (8, 12)
CHAIN_SEEDS = 16        # chain seeds with recorded `sample` digests
STEPS, BURN_IN = 100000, 1000
THINNED, UNTHINNED = 100, 1
THINNED_REPEATS = 3     # the thinned runs are short, so each pass runs them
                        # three times to give their medians enough samples
STEP_CALLS = 150        # sampler.step calls per region per pass


def sample_argv(path, chain_seed, every):
    return ["sample", path, "--seed", str(chain_seed), "--steps", str(STEPS),
            "--burn-in", str(BURN_IN), "--every", str(every)]


def chain_setup(seed, workdir):
    rng = inputs.rng_for(seed, "chain")
    chain_seed = rng.randrange(CHAIN_SEEDS)
    regions = []
    for k in CHAIN_SQUARES:
        obj = inputs.square(k)
        tri = lattice.build_region(to_region(obj))
        regions.append({
            "name": "square-%d" % k,
            "path": write_region(workdir, "square-%d" % k, obj),
            "vertices": frozenset(tri.g.vertices),
            "edges": tri.g.edge_set,
            "m0": temperley.initial_covering(tri),
            "step_seed": rng.getrandbits(32),
        })
    return State(
        inputs.digest({"regions": [inputs.square(k) for k in CHAIN_SQUARES],
                       "chain_seed": chain_seed,
                       "step_seeds": [r["step_seed"] for r in regions]}),
        {"chain_seed": chain_seed, "regions": regions})


def _sample_check(region, chain_seed, every):
    key = "%s/every-%d/seed-%d" % (region["name"], every, chain_seed)

    def check(res):
        if res.code != 0:
            return ["sample exited %r" % res.code]
        out = json.loads(res.stdout)
        errors = checks.matching_errors(region["vertices"], region["edges"],
                                        out["final_covering"]["dimers"])
        want_samples = (STEPS - BURN_IN + every - 1) // every
        if out["n_samples"] != want_samples:
            errors.append("n_samples %r, want %d"
                          % (out["n_samples"], want_samples))
        if sum(out["impurity_counts"].values()) != out["n_samples"]:
            errors.append("impurity_counts do not sum to n_samples")
        if checks.sha256(res.stdout) != checks.REFERENCE["sample"][key]:
            errors.append("sample output differs from the recorded digest")
        return errors
    return check


def _step_ops(region):
    rng = random.Random(region["step_seed"])
    current = [region["m0"]]

    def call():
        before = current[0]
        current[0] = sampler.step(before, rng)
        return before, current[0]

    def check(res):
        before, after = res
        old, new = set(before.dimers), set(after.dimers)
        added, removed = new - old, old - new
        if not added and not removed:
            return []
        if len(added) != 2 or len(removed) != 2:
            return ["step changed %d dimers, a move changes 2"
                    % len(added | removed)]
        if not added <= region["edges"]:
            return ["step added a dimer that is not an edge of G"]
        if {v for e in added for v in e} != {v for e in removed for v in e}:
            return ["step did not keep the covered vertex set"]
        return []

    for i in range(STEP_CALLS):
        yield Op("c", "step %s #%d" % (region["name"], i), call, check)


def chain_ops(state):
    chain_seed = state.data["chain_seed"]
    for every, part, repeats in ((THINNED, "a", THINNED_REPEATS),
                                 (UNTHINNED, "b", 1)):
        for _ in range(repeats):
            for region in state.data["regions"]:
                yield Op(part, "sample %s every %d" % (region["name"], every),
                         lambda r=region, e=every: cli_run(
                             sample_argv(r["path"], chain_seed, e)),
                         _sample_check(region, chain_seed, every))
    for region in state.data["regions"]:
        yield from _step_ops(region)


# -- verify --------------------------------------------------------------

CROSSCHECK_STRIPS = (2, 3, 4)
CROSSCHECK_POLYOMINOES = (3, 4)   # faces; both stay within the oracle limit
GEOMETRY_SQUARE = 8
GEOMETRY_SAMPLES = 32
# The chain mixes slowly on 8x8: the mean |T*| of 64 samples ranges from
# 2.5 to 17.6 between chain seeds, and t_class work grows with |T*|.  So
# the samples come from a pool drawn with one fixed chain seed, sorted by
# the |T*| recorded in reference.json into GEOMETRY_SAMPLES strata, and
# the workload seed picks one sample per stratum: inputs vary with the
# seed, the work per pass hardly does.
POOL = checks.REFERENCE["geometry_pool"]


def verify_setup(seed, workdir):
    cross = [("ell", inputs.ell())]
    cross += [("strip-%d" % n, inputs.strip(n)) for n in CROSSCHECK_STRIPS]
    cross += [("poly-%d" % n,
               inputs.polyomino(inputs.rng_for(seed, "cross-%d" % n), n))
              for n in CROSSCHECK_POLYOMINOES]
    square = inputs.square(GEOMETRY_SQUARE)
    tri = lattice.build_region(to_region(square))
    sizes = POOL["tstar_sizes"]
    report = sampler.run(
        temperley.initial_covering(tri),
        sampler.ChainConfig(seed=POOL["chain_seed"],
                            steps=len(sizes) * POOL["spacing"],
                            sample_every=POOL["spacing"]),
        keep_trajectory=True)
    order = sorted(range(len(sizes)), key=lambda i: (sizes[i], i))
    width = len(sizes) // GEOMETRY_SAMPLES
    rng = inputs.rng_for(seed, "geometry")
    picks = [order[s * width + rng.randrange(width)]
             for s in range(GEOMETRY_SAMPLES)]
    samples = [covering.validate_covering(tri.g, report.trajectory[i])
               for i in picks]
    return State(
        inputs.digest({"crosscheck": cross, "square": square,
                       "samples": [list(m.dimers) for m in samples]}),
        {"cross": [(n, to_region(r)) for n, r in cross],
         "samples": samples, "d_star": tri.h_perp.d_star,
         "n_vertices": len(tri.g.vertices)})


def _crosscheck_call(region):
    def call():
        tri = lattice.build_region(region)
        ms = oracle.enumerate_coverings(tri.g)
        hist = oracle.impurity_histogram(tri.g, ms)
        per_edge = {e: kirchhoff.coverings_with_impurity(tri, e)
                    for e in lattice.diagonal_edges(tri.g)}
        return {
            "n": len(ms),
            "whites": tri.g.white_count,
            "hist": {e: hist.get(e, 0) for e in per_edge},
            "per_edge": per_edge,
            "total": kirchhoff.total_coverings(tri),
            "det": kirchhoff.tree_count(kirchhoff.build_system(tri.h_perp)),
            "classes": len(moves.t_classes(ms)),
            "trees": len(temperley.class_bijection(tri, ms)),
            "connected": moves.move_graph_connected(tri.g, ms),
            "forest_whites": [sum(len(t.vertices) for t in fp.primary + fp.dual)
                              for fp in map(slits.forests, ms)],
        }
    return call


def _crosscheck_check(res):
    errors = []
    if res["hist"] != res["per_edge"]:
        errors.append("oracle histogram differs from det A * p")
    if res["n"] != res["total"]:
        errors.append("%d coverings enumerated, total_coverings says %d"
                      % (res["n"], res["total"]))
    if not res["classes"] == res["trees"] == res["det"]:
        errors.append("t-classes %d, bijected trees %d, det A %d"
                      % (res["classes"], res["trees"], res["det"]))
    if not res["connected"]:
        errors.append("s- and t-moves do not connect the coverings")
    if any(n != res["whites"] for n in res["forest_whites"]):
        errors.append("a forest pair does not span the white vertices")
    return errors


def _geometry_call(m):
    def call():
        curves = slits.slit_curves(m)
        fp = slits.forests(m)
        e, = covering.impurities(m)
        curve = slits.impurity_curve(m, e)
        tree = slits.enclosed_dual_tree(curve, fp)
        return curves, curve, tree, moves.t_class(m)
    return call


def _geometry_check(d_star):
    def check(res):
        curves, curve, tree, cls = res
        errors = []
        if curve not in curves:
            errors.append("impurity curve is not among the slit-curves")
        odd = {u if u[0] % 2 else v
               for c in cls for u, v in covering.impurities(c)}
        if odd != set(tree.vertices):
            errors.append("t-class impurity endpoints are not T*")
        if len(cls) != 4 * (len(tree.vertices) - 1) + d_star + 1:
            errors.append("t-class has %d coverings, 4(|T*|-1)+d*+1 = %d"
                          % (len(cls), 4 * (len(tree.vertices) - 1)
                             + d_star + 1))
        return errors
    return check


def _render_check(n_vertices):
    def check(svg):
        errors = []
        if not (svg.startswith("<?xml") and svg.endswith("</svg>\n")):
            errors.append("render output is not one SVG document")
        if svg.count("<circle") != n_vertices:
            errors.append("render draws %d vertices, G has %d"
                          % (svg.count("<circle"), n_vertices))
        if svg.count('stroke="#d62728"') != 1:
            errors.append("render does not draw exactly one impurity")
        if svg.count('stroke="#1f77b4"') != n_vertices // 2 - 1:
            errors.append("render does not draw every other dimer")
        if "<polyline" not in svg:
            errors.append("render draws no slit-curve")
        return errors
    return check


def verify_ops(state):
    d = state.data
    for name, region in d["cross"]:
        yield Op("a", "crosscheck " + name, _crosscheck_call(region),
                 _crosscheck_check)
    for i, m in enumerate(d["samples"]):
        yield Op("b", "geometry sample %d" % i, _geometry_call(m),
                 _geometry_check(d["d_star"]))
    for i, m in enumerate(d["samples"]):
        yield Op("c", "render sample %d" % i,
                 lambda m=m: render.render_covering(
                     m, show_slits=True, show_forests=True),
                 _render_check(d["n_vertices"]))


@dataclass(frozen=True)
class Workload:
    setup: Callable
    ops: Callable
    # documented name -> ("pass", part[, rounds per pass]) | ("op", part)
    #                  | ("rate", parts, work per pass, unit)
    named: dict
    # untimed ops answered once per run after the passes, whose check
    # results are reported apart from attempted/failed: known defects
    probes: Callable = lambda state: ()


WORKLOADS = {
    "exact": Workload(exact_setup, exact_ops, {
        "prob_pass_s": ("pass", "a", PROB_REPEATS),
        "total_pass_s": ("pass", "b"),
        "reject_s": ("op", "c"),
    }, exact_probes),
    "chain": Workload(chain_setup, chain_ops, {
        "sample_steps_per_s": ("rate", ("a", "b"), len(CHAIN_SQUARES)
                               * (THINNED_REPEATS + 1) * STEPS, "1/s"),
        "step_calls_per_s": ("rate", ("c",),
                             len(CHAIN_SQUARES) * STEP_CALLS, "1/s"),
    }),
    "verify": Workload(verify_setup, verify_ops, {
        "crosscheck_pass_s": ("pass", "a"),
        "geometry_coverings_per_s": ("rate", ("b", "c"),
                                     GEOMETRY_SAMPLES, "1/s"),
    }),
}
