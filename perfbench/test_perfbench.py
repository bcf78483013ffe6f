"""Tests of the benchmark's own machinery.

    python3 -m pytest perfbench
"""

import json
import os
import random
import signal
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
import octadimer  # noqa: E402
from octadimer import (covering, kirchhoff, lattice, moves,  # noqa: E402
                       sampler, temperley)


def test_generator_is_deterministic_per_seed():
    for seed in (0, 1, 12345):
        for n in (3, 10, 60):
            a = inputs.polyomino(inputs.rng_for(seed, "p"), n)
            assert a == inputs.polyomino(inputs.rng_for(seed, "p"), n)
            assert len(a["faces"]) == n
        assert inputs.invalid_files(seed) == inputs.invalid_files(seed)
    shapes = {json.dumps(inputs.polyomino(inputs.rng_for(s, "p"), 10))
              for s in range(10)}
    assert len(shapes) > 1


def test_workload_setup_is_deterministic_per_seed(tmp_path):
    for name, w in workloads.WORKLOADS.items():
        first = w.setup(3, str(tmp_path)).inputs_sha256
        assert w.setup(3, str(tmp_path)).inputs_sha256 == first, name
        assert w.setup(4, str(tmp_path)).inputs_sha256 != first, name


def test_every_generated_region_builds():
    fixed = [inputs.ell(), inputs.square(4), inputs.square(12)]
    fixed += [inputs.strip(n) for n in range(1, 9)]
    seeded = [inputs.polyomino(inputs.rng_for(seed, "p%d" % n), n)
              for seed in range(30) for n in (3, 4, 6, 8, 10)]
    seeded += [inputs.polyomino(inputs.rng_for(seed, "total"), 60)
               for seed in range(3)]
    for obj in fixed + seeded:
        tri = lattice.build_region(workloads.to_region(obj))
        assert len(tri.g.vertices) > 0
    for obj in seeded:
        assert not inputs.has_hole(set(map(tuple, obj["faces"])))


def test_invalid_files_are_invalid():
    files = inputs.invalid_files(5)
    try:
        json.loads(files["malformed"])
    except ValueError:
        pass
    else:
        raise AssertionError("malformed file parses")
    assert len(json.loads(files["missing_key"])) == 2
    faces = json.loads(files["boolean_coordinate"])["faces"]
    assert any(c is True for f in faces for c in f)


def test_self_time_subtracts_direct_children_only():
    # 0 [0,10] > 1 [1,4] > 2 [2,3];  0 > 3 [5,6];  4 [7,9] is a root
    starts = [0.0, 1.0, 2.0, 5.0, 7.0]
    ends = [10.0, 4.0, 3.0, 6.0, 9.0]
    parents = [-1, 0, 1, 0, -1]
    assert spans.self_times(starts, ends, parents) == [6.0, 2.0, 1.0, 1.0, 2.0]
    # a slice starting at span 1 drops span 0's bookkeeping
    assert spans.self_times(starts, ends, parents, 1, 3) == [2.0, 1.0]


def test_traced_self_times_add_up_to_the_root_span():
    tri = lattice.build_region(lattice.ell_region())
    with spans.Tracer() as tracer:
        tracer.active = True
        root = tracer.name_id("root")
        tracer.call(root, kirchhoff.total_coverings, (tri,), {})
    agg = spans.aggregate(tracer, 0, tracer.mark())
    assert agg["kirchhoff.total_coverings"][0] == 1
    assert agg["kirchhoff.solve_p"][0] == 1       # via kirchhoff._system
    wall = tracer.ends[0] - tracer.starts[0]
    assert abs(sum(s for _, s in agg.values()) - wall) < 1e-9


def test_wrapped_functions_return_what_the_originals_do():
    tri = lattice.build_region(lattice.ell_region())
    m = temperley.initial_covering(tri)

    def outputs():
        return (moves.find_moves(m), kirchhoff.total_coverings(tri),
                sampler.step(m, random.Random(3)).dimers,
                [c.dimers for c in sorted(moves.t_class(m),
                                          key=lambda c: c.dimers)])
    want = outputs()
    original = covering.validate_covering
    with spans.Tracer() as tracer:
        tracer.active = True
        for namespace in (covering, moves, sampler, octadimer):
            assert namespace.validate_covering is not original
        got = outputs()
    assert got == want
    for namespace in (covering, moves, sampler, octadimer):
        assert namespace.validate_covering is original
    agg = spans.aggregate(tracer, 0, tracer.mark())
    assert agg["covering.validate_covering"][0] > 0   # through apply_move


def test_summary_tail_has_ten_samples_beyond_it():
    s = run.summary(range(100))
    assert s["n"] == 100 and s["median"] == 49.5 and s["p90"] == 89
    assert set(run.summary(range(5))) == {"median", "n"}


def test_prob_check_catches_a_wrong_count(tmp_path):
    region = inputs.ell()
    res = workloads.cli_run(["prob", workloads.write_region(
        str(tmp_path), "ell", region)])
    assert checks.prob_errors(region, res.stdout) == []
    wrong = res.stdout.replace('"count": "16"', '"count": "17"', 1)
    assert wrong != res.stdout and checks.prob_errors(region, wrong)


def test_interaction_table_covers_every_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    with open(os.path.join(HERE, "interactions.json")) as fh:
        table = json.load(fh)
    e2e = {m["name"] for m in spec["end_to_end"]}
    names = {w["name"] for w in spec["workloads"]}
    assert set(table["workloads"]) == names
    assert {m["name"] for m in spec["per_layer"]} == set(table["per_layer"])
    for entry in table["per_layer"].values():
        for target in entry["moves"]:
            assert target["metric"] in e2e
            assert target["workload"] in names | {"all"}


def test_speedometer_scales_by_the_mean_rate_around_the_work():
    speed = run.Speedometer()
    # readings at 0 s and 2 s bracket 1.5 s of work begun at 0.25 s; the
    # one at 20 s is outside the window and does not count
    speed.rates = [run.REF_RATE, run.REF_RATE * 3, run.REF_RATE * 100]
    speed.times = [0.0, 2.0, 20.0]
    assert speed.scale(1.5, 0.25) == 3.0
    speed.measure()
    assert len(speed.rates) == 4 and speed.rates[-1] > 0


def test_exact_times_only_files_that_are_rejected(tmp_path):
    w = workloads.WORKLOADS["exact"]
    state = w.setup(7, str(tmp_path))
    timed = [op for op in w.ops(state) if op.part == "c"]
    assert timed and all(op.check(op.call()) == [] for op in timed)
    probes = list(w.probes(state))
    assert {op.label for op in probes} == {
        "reject " + n for n in workloads.KNOWN_DEFECTS}
    assert not {op.label for op in probes} & {op.label for op in timed}


def test_speedometer_reads_during_long_work_and_leaves_that_out():
    speed = run.Speedometer()
    start, clock = time.perf_counter(), speed.clock()
    with speed.ticking():
        while time.perf_counter() - start < 4 * run.CAL_EVERY:
            pass
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
    assert len(speed.rates) >= 2
    assert all(start < t < time.perf_counter() for t in speed.times)
    measured = speed.clock() - clock
    assert abs(measured + speed.spent - (time.perf_counter() - start)) < 0.05
