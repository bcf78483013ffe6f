"""Per-layer times of two checkouts of octadimer, interleaved in one process.

    python3 bench/interleave.py BEFORE_SRC AFTER_SRC [--rounds N]

loads the octadimer package under each src/ directory under a name of
its own and, on strips n = 1..8, the L-region and bench/ladder.py's
k x k squares, k = 4, 8, 12, 16, times three things on
both, call by call in turn, the side that goes first alternating from
round to round: lattice.build_region, cli._json_text on the region's
`prob` answer, and the whole `prob` command in process, stdout
captured.  Each time is the median of N rounds (default 41).  Both
sides must print the same `prob` bytes, and each writer must give back
those bytes from the parsed answer; the exit status is 1 if not.

Timing both sides in one process, interleaved, keeps them on one
machine speed: separate processes on a shared machine can run at
speeds far enough apart to hide a per-layer change of tens of percent.
One JSON object goes to stdout: per region, each side's median and the
after/before ratio.
"""

import argparse
import contextlib
import importlib
import importlib.util
import io
import json
import os
import pathlib
import statistics
import sys
import tempfile
import time


def load(name, src):
    """The octadimer package under src, imported as name."""
    root = pathlib.Path(src, "octadimer")
    spec = importlib.util.spec_from_file_location(
        name, root / "__init__.py", submodule_search_locations=[str(root)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def square_region(lat, k):
    """bench/ladder.py's k x k square: faces (2i+1, 2j+1), f* = (2k+1, 1),
    v* = (2k, 2)."""
    return lat.Region.of([(2 * i + 1, 2 * j + 1) for i in range(k)
                          for j in range(k)], (2 * k + 1, 1), (2 * k, 2))


def prob(cli, path):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main(["prob", path])
    return out.getvalue()


def interleaved(fns, rounds):
    """Median seconds of each fn, called in turn, the first alternating."""
    times = [[] for _ in fns]
    order = list(range(len(fns)))
    for r in range(rounds):
        for i in (order if r % 2 == 0 else order[::-1]):
            start = time.perf_counter()
            fns[i]()
            times[i].append(time.perf_counter() - start)
    return [statistics.median(t) for t in times]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("before")
    parser.add_argument("after")
    parser.add_argument("--rounds", type=int, default=41)
    args = parser.parse_args(argv)
    sides = [load("octadimer_before", args.before),
             load("octadimer_after", args.after)]
    clis = [importlib.import_module(s.__name__ + ".cli") for s in sides]
    lattices = [importlib.import_module(s.__name__ + ".lattice")
                for s in sides]
    after = lattices[1]
    regions = ([("strip%d" % n, after.strip_region(n)) for n in range(1, 9)]
               + [("ell", after.ell_region())]
               + [("square%d" % k, square_region(after, k))
                  for k in (4, 8, 12, 16)])
    ok = True
    records = []
    with tempfile.TemporaryDirectory() as workdir:
        for name, region in regions:
            path = os.path.join(workdir, name + ".json")
            with open(path, "w") as f:
                json.dump({"faces": [list(v) for v in region.faces],
                           "f_star": list(region.f_star),
                           "v_star": list(region.v_star)}, f)
            stdout = [prob(cli, path) for cli in clis]
            obj = json.loads(stdout[0])
            ok &= (stdout[0] == stdout[1] and all(
                cli._json_text(obj) + "\n" == stdout[0] for cli in clis))
            record = {"name": name}
            for layer, fns in (
                    ("build_region", [
                        lambda lat=lat, r=lat.Region.of(
                            region.faces, region.f_star, region.v_star):
                        lat.build_region(r) for lat in lattices]),
                    ("emit", [lambda cli=cli: cli._json_text(obj)
                              for cli in clis]),
                    ("prob", [lambda cli=cli: prob(cli, path)
                              for cli in clis])):
                before, after = interleaved(fns, args.rounds)
                record[layer] = {"before_s": before, "after_s": after,
                                 "ratio": after / before}
            records.append(record)
    print(json.dumps({"before": args.before, "after": args.after,
                      "rounds": args.rounds, "correct": ok,
                      "regions": records}, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
