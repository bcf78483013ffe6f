"""Benchmark for octadimer: three closed-loop workloads, one client each.

    python3 perfbench/run.py --workload exact --seed 1 --seconds 35 --trace 0

runs set-up several times, then passes of the workload until --seconds
have elapsed, checks every operation's output, and prints as its last
line {"correct", "attempted", "failed", "metrics"}.  --trace 0 gives the
end-to-end metrics of BENCHMARK.json; --trace 1 alternates untraced and
traced passes and gives the per-layer metrics, tracing overhead
included.  The line before it is a detail object: provenance, the
workload's documented metrics with median, tail percentile and sample
count, and the failures seen.  ``--workload all`` runs every workload in
a child process, one after the other, and prints one table.

Every time the benchmark reports is in reference seconds: measured
seconds scaled by the CPU speed of the moment, read off a fixed Python
kernel timed around and during the work (see Speedometer).  The detail line keeps
the kernel rates, so measured seconds can be recovered.

`correct` is false when any timed operation fails its check, and
`failed` counts those operations.  Inputs that hit a known defect of the
library are answered once per run outside the passes; their check results
are the detail line's "known_defects", not counted in `failed`.
Run from the repository root; the library is imported from src/.
Output files go to perfbench/out/.
"""

import argparse
import bisect
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import NamedTuple

import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 11
PARTS = ("a", "b", "c")
TAIL_BEYOND = 10        # samples a tail percentile must have beyond it
PERCENTILES = (99.9, 99, 95, 90, 75, 50)


def summary(values):
    """Median, the highest percentile with TAIL_BEYOND samples beyond it,
    and the sample count."""
    values = sorted(values)
    n = len(values)
    out = {"median": statistics.median(values) if values else None, "n": n}
    for p in PERCENTILES:
        if n * (100 - p) / 100 >= TAIL_BEYOND:
            rank = max(1, -(-n * p // 100))
            out["p%g" % p] = values[int(rank) - 1]
            break
    return out


def git_commit():
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(ROOT, ".git", head[5:])) as fh:
            return fh.read().strip()
    except OSError:
        return None


def source_sha256():
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "octadimer")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read() + b"\0")
    return h.hexdigest()


REF_RATE = 6900.0    # reference-kernel runs per second in one reference second
CAL_SECONDS = 0.01   # length of one speed measurement
CAL_EVERY = 0.25     # seconds between speed measurements
CAL_WINDOW = 1.0     # seconds either side of the work whose readings count


def reference_kernel():
    """Fixed pure-Python work of the library's kinds, the yardstick of the
    CPU's current speed: tuple-keyed dict inserts and a sort (moves,
    sampler, kirchhoff's sparse rows) and string formatting (render, the
    CLI's JSON output)."""
    d = {}
    for i in range(300):
        d[(i, -i)] = (i * 7919) % 1009
    values = sorted(d.values())
    text = "".join('<p x="%d" y="%.2f"/>' % (v, v / 7) for v in values[:100])
    return values, text


class Speedometer:
    """Scales measured seconds to reference seconds.

    The CPU speed of a shared machine drifts: on 2 vCPUs the same pass
    took 1.9 s to 3.5 s a few minutes apart, and the speed moves within
    one second.  While ticking, an interval timer runs the reference
    kernel for CAL_SECONDS every CAL_EVERY seconds, also in the middle of
    a long op; clock() leaves the readings' own time out of what is
    measured.  A stretch of work is scaled by the mean kernel rate over
    REF_RATE, the mean taken over the readings within CAL_WINDOW of it.
    On 2 vCPUs, over two minutes, a 1.2 s Kirchhoff solve spread by 40%
    (IQR over median) raw, by 15% scaled by readings at its two ends and
    by 6.5% scaled by readings taken during it as well.  Of the kernels
    tried, dict work with string formatting tracked render, cross-check
    and Kirchhoff ops best (11%, 7.5%, 15% left when read at the ends,
    against 15%, 13%, 17% for dict work alone).
    """

    def __init__(self):
        self.rates = []
        self.times = []         # when each reading ended
        self.spent = 0.0        # seconds the readings took, in total
        self.busy = False

    def measure(self):
        if self.busy:           # the timer fired inside a reading
            return
        self.busy = True
        runs = 0
        start = time.perf_counter()
        now = start
        while now - start < CAL_SECONDS:
            reference_kernel()
            runs += 1
            now = time.perf_counter()
        self.rates.append(runs / (now - start))
        self.times.append(now)
        self.spent += now - start
        self.busy = False

    def clock(self):
        """perf_counter less the time taken by readings so far."""
        return time.perf_counter() - self.spent

    @contextlib.contextmanager
    def ticking(self):
        previous = signal.signal(signal.SIGALRM, lambda *_: self.measure())
        signal.setitimer(signal.ITIMER_REAL, CAL_EVERY, CAL_EVERY)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def scale(self, seconds, start):
        """Reference seconds of `seconds` of work begun at `start`."""
        end = start + seconds
        # the window, and always the readings right before and after
        lo = min(bisect.bisect_left(self.times, start - CAL_WINDOW),
                 bisect.bisect_right(self.times, start) - 1)
        hi = max(bisect.bisect_right(self.times, end + CAL_WINDOW),
                 bisect.bisect_left(self.times, end) + 1)
        rates = self.rates[max(lo, 0):hi]
        return seconds * sum(rates) / len(rates) / REF_RATE


class OpRecord(NamedTuple):
    pass_index: int
    part: str
    label: str
    start: float        # perf_counter when the op was issued
    seconds: float      # measured
    errors: list


class Run:
    """One workload run: set-up, timed passes, checks and metrics."""

    def __init__(self, workload, args, workdir):
        self.workload = workload
        self.args = args
        self.workdir = workdir
        self.tracer = None
        self.speed = Speedometer()
        self.ops_run = []       # OpRecord per op issued
        self.passes = []        # dicts: traced, wall (reference s), parts done,
                                # layer data

    def set_up(self):
        times = []
        with self.speed.ticking():
            for _ in range(SETUP_REPEATS):
                shutil.rmtree(self.workdir, ignore_errors=True)
                os.makedirs(self.workdir)
                self.speed.measure()
                start, clock = time.perf_counter(), self.speed.clock()
                self.state = self.workload.setup(self.args.seed, self.workdir)
                seconds = self.speed.clock() - clock
                self.speed.measure()
                times.append(self.speed.scale(seconds, start))
        self.setup_times = times

    def measure(self):
        if self.args.trace:
            self.tracer = spans.Tracer()
            self.op_ids = {p: self.tracer.name_id("op." + p) for p in PARTS}
        # a traced run needs one untraced and one traced pass at least
        min_passes = 2 if self.args.trace else 1
        deadline = time.perf_counter() + self.args.seconds
        while len(self.passes) < min_passes or time.perf_counter() < deadline:
            traced = self.tracer is not None and len(self.passes) % 2 == 1
            if not self.run_pass(traced, deadline, min_passes):
                break
        self.known_defects = {op.label: self.run_op(op, None)[2]
                              for op in self.workload.probes(self.state)}

    def run_pass(self, traced, deadline, min_passes):
        """One pass; False when the deadline cut it short."""
        index = len(self.passes)
        ops = list(self.workload.ops(self.state))
        last = {op.part: i for i, op in enumerate(ops)}
        done = set()
        tracer = self.tracer if traced else None
        if tracer is not None:
            tracer.install()
            tracer.counters = {}
            lo = tracer.mark()
        # traced passes are not scaled, and readings would add to the spans
        ticking = (contextlib.nullcontext() if traced
                   else self.speed.ticking())
        self.speed.measure()
        start, clock = time.perf_counter(), self.speed.clock()
        try:
            with ticking:
                for i, op in enumerate(ops):
                    if index >= min_passes and time.perf_counter() >= deadline:
                        break
                    op_start, seconds, errors = self.run_op(op, tracer)
                    self.ops_run.append(OpRecord(index, op.part, op.label,
                                                 op_start, seconds, errors))
                    if last[op.part] == i:
                        done.add(op.part)
        finally:
            wall = self.speed.clock() - clock
            self.speed.measure()
            if tracer is not None:
                tracer.uninstall()
        record = {"traced": traced, "wall": self.speed.scale(wall, start),
                  "done": done,
                  "complete": len(done) == len(last)}
        if tracer is not None:
            record["layers"] = spans.aggregate(tracer, lo, tracer.mark())
            record["counters"] = tracer.counters
            record["spans"] = tracer.mark() - lo
        self.passes.append(record)
        return record["complete"]

    def run_op(self, op, tracer):
        start, clock = time.perf_counter(), self.speed.clock()
        try:
            if tracer is None:
                result = op.call()
            else:
                tracer.active = True
                try:
                    result = tracer.call(self.op_ids[op.part], op.call, (), {})
                finally:
                    tracer.active = False
            seconds = self.speed.clock() - clock
        except Exception as exc:   # a failed op is counted, never fatal
            return start, self.speed.clock() - clock, [
                "%s: %s" % (type(exc).__name__, exc)]
        try:
            errors = op.check(result)
        except Exception as exc:
            errors = ["check raised %s: %s" % (type(exc).__name__, exc)]
        if tracer is not None and hasattr(result, "stdout"):
            c = tracer.counters
            c["cli.stdout_bytes"] = c.get("cli.stdout_bytes", 0) + len(
                result.stdout)
        return start, seconds, errors

    # -- results -----------------------------------------------------------

    def op_seconds(self, part):
        """Reference seconds of every op of a part, untraced passes only."""
        return [self.speed.scale(r.seconds, r.start) for r in self.ops_run
                if r.part == part and not self.passes[r.pass_index]["traced"]]

    def pass_sums(self, parts):
        """Reference seconds per untraced pass spent in all of parts, over
        the passes that completed every one of them."""
        sums = {}
        for r in self.ops_run:
            p = self.passes[r.pass_index]
            if r.part in parts and not p["traced"] and parts <= p["done"]:
                sums[r.pass_index] = (sums.get(r.pass_index, 0.0)
                                      + self.speed.scale(r.seconds, r.start))
        return list(sums.values())

    def part_time(self, part):
        """Reference seconds of one pass in a part: the sum over its ops of
        each op's median over the untraced passes, so that one slow op in
        one pass moves the figure less than a median of pass sums would."""
        by_label = {}
        for r in self.ops_run:
            if r.part == part and not self.passes[r.pass_index]["traced"]:
                by_label.setdefault(r.label, []).append(
                    self.speed.scale(r.seconds, r.start))
        return sum(statistics.median(v) for v in by_label.values())

    def end_to_end(self):
        values = {
            "setup_s": statistics.median(self.setup_times),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        for part in PARTS:
            values["part_%s_s" % part] = self.part_time(part)
        return values

    def per_layer(self):
        # passes the deadline cut short would understate times and overhead
        traced = [p for p in self.passes if p["traced"] and p["complete"]]
        first = traced[0]
        values = {}
        for module, functions in spans.TRACED.items():
            for fn in functions:
                name = module + "." + fn
                values[name + ".self_s"] = statistics.median(
                    p["layers"].get(name, (0, 0.0))[1] for p in traced)
                values[name + ".calls"] = first["layers"].get(name, (0, 0))[0]
        c = first["counters"]
        solves = first["layers"].get("kirchhoff.solve_p", (0, 0))[0]
        systems = len(c.get("kirchhoff.systems", ()))
        values.update({
            "kirchhoff.solves_per_region": solves / systems if systems else 0,
            "kirchhoff.matrix_n": c.get("kirchhoff.matrix_n", 0),
            "kirchhoff.det_bits": c.get("kirchhoff.det_bits", 0),
            "sampler.steps": c.get("sampler.steps", 0),
            "sampler.accept_ratio": (c.get("sampler.accepted", 0)
                                     / c["sampler.steps"]
                                     if c.get("sampler.steps") else 0),
            "oracle.coverings_enumerated": c.get(
                "oracle.coverings_enumerated", 0),
            "render.svg_bytes": c.get("render.svg_bytes", 0),
            "cli.stdout_bytes": c.get("cli.stdout_bytes", 0),
            "trace.spans": first["spans"],
            "trace.overhead_s": (
                statistics.median(p["wall"] for p in traced)
                - statistics.median(p["wall"] for p in self.passes
                                    if not p["traced"] and p["complete"])),
        })
        return values

    def named(self):
        out = {}
        for name, (kind, parts, *rest) in self.workload.named.items():
            if kind == "pass":
                repeats = rest[0] if rest else 1
                out[name] = summary([t / repeats
                                     for t in self.pass_sums({parts})])
            elif kind == "op":
                out[name] = summary(self.op_seconds(parts))
            else:
                work, unit = rest
                out[name] = dict(summary(
                    [work / s for s in self.pass_sums(set(parts))]),
                    unit=unit)
        return out

    def detail(self):
        failed = [r for r in self.ops_run if r.errors]
        failures = {}
        for r in failed:
            for e in r.errors:
                key = r.label + ": " + e
                failures[key] = failures.get(key, 0) + 1
        return {
            "provenance": {
                "python": platform.python_version(),
                "implementation": platform.python_implementation(),
                "nproc": os.cpu_count(),
                "workload": self.args.workload,
                "seed": self.args.seed,
                "seconds": self.args.seconds,
                "trace": self.args.trace,
                "git_commit": git_commit(),
                "source_sha256": source_sha256(),
                "inputs_sha256": self.state.inputs_sha256,
            },
            "attempted": len(self.ops_run),
            "failed": len(failed),
            "error_rate": len(failed) / len(self.ops_run),
            "failures": failures,
            "known_defects": self.known_defects,
            "passes": len(self.passes),
            "kernel_rate": dict(summary(self.speed.rates), ref=REF_RATE),
            "setup_s": summary(self.setup_times),
            "named": self.named(),
            "ops_s": {part: summary(self.op_seconds(part)) for part in PARTS},
        }


def metric_block(spec_metrics, values):
    missing = [m["name"] for m in spec_metrics if m["name"] not in values]
    if missing:
        raise RuntimeError("no value for metrics %s" % missing)
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec_metrics}


def run_one(args, spec):
    if not os.path.isfile(os.path.join(SRC, "octadimer", "__init__.py")):
        sys.exit("perfbench: src/octadimer not found under %s" % ROOT)
    sys.path.insert(0, SRC)
    import workloads
    workload = workloads.WORKLOADS[args.workload]
    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, "work-%s-%d" % (args.workload, os.getpid()))
    run = Run(workload, args, workdir)
    try:
        run.set_up()
        run.measure()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if args.trace:
        metrics = metric_block(spec["per_layer"], run.per_layer())
    else:
        metrics = metric_block(spec["end_to_end"], run.end_to_end())
    detail = run.detail()
    stem = os.path.join(OUT, "%s-seed%d-trace%d" % (
        args.workload, args.seed, args.trace))
    with open(stem + ".json", "w") as fh:
        json.dump({"detail": detail, "metrics": metrics}, fh, indent=1,
                  sort_keys=True)
    if run.tracer is not None:
        write_spans(run.tracer, stem + ".spans.tsv")
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps({
        "correct": not any(r.errors for r in run.ops_run),
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": metrics,
    }))


def write_spans(tracer, path):
    with open(path, "w") as fh:
        fh.write("id\tname\tstart\tend\tparent\n")
        for i in range(len(tracer.starts)):
            fh.write("%d\t%s\t%.9f\t%.9f\t%d\n" % (
                i, tracer.names[tracer.name_ids[i]], tracer.starts[i],
                tracer.ends[i], tracer.parents[i]))


def run_all(args, spec):
    """Every workload in its own child process, then one table."""
    code = 0
    rows = []
    for w in spec["workloads"]:
        argv = [sys.executable, os.path.abspath(__file__), "--workload",
                w["name"], "--seed", str(args.seed), "--seconds",
                str(args.seconds), "--trace", str(args.trace)]
        child = subprocess.run(argv, capture_output=True, text=True)
        sys.stderr.write(child.stderr)
        lines = child.stdout.strip().splitlines()
        if child.returncode or len(lines) < 2:
            print("%s: exit %d" % (w["name"], child.returncode))
            code = 1
            continue
        detail = json.loads(lines[-2])["detail"]
        result = json.loads(lines[-1])
        rows.append((w["name"], "correct", result["correct"], ""))
        rows.append((w["name"], "attempted", result["attempted"], "ops"))
        rows.append((w["name"], "failed", result["failed"], "ops"))
        rows.append((w["name"], "error_rate", detail["error_rate"], ""))
        for name, m in result["metrics"].items():
            rows.append((w["name"], name, m["value"], m["unit"]))
        for name, s in detail["named"].items():
            tail = {k: v for k, v in s.items() if k.startswith("p")}
            rows.append((w["name"], name, s["median"],
                         "%s n=%d %s" % (s.get("unit", "s"), s["n"],
                                         json.dumps(tail))))
        for failure, count in sorted(detail["failures"].items()):
            rows.append((w["name"], "FAILED x%d" % count, failure, ""))
        for label, errors in sorted(detail["known_defects"].items()):
            rows.append((w["name"], "known defect", label,
                         "; ".join(errors) or "fixed"))
    for row in rows:
        print("%-8s %-34s %-22s %s" % row)
    return code


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload == "all":
        return run_all(args, spec)
    if args.workload not in names:
        parser.error("--workload must be one of %s or all" % names)
    run_one(args, spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
