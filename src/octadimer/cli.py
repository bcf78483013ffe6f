"""Command-line front end.

Subcommands: build, enumerate, prob, moves, sample, render, selftest.
Regions travel as {"faces": [[x,y],...], "f_star": [x,y],
"v_star": [x,y]}, coverings as {"dimers": [[[x1,y1],[x2,y2]], ...]}.
Every output is JSON with sorted keys (byte-deterministic) except
render, which emits SVG.  _emit writes the bytes of json.dumps(obj,
indent=2, sort_keys=True) through _json_text, one join per container
over json's C string encoder, because json's own indented encoder runs
in pure Python; a point, a pair of plain ints inside a list, is written
from one template, with no call of its own.  prob writes each p_v and
each probability as the reduced "n/d" of its integer counts (_ratio),
with no Fraction.  Exit codes: 0 success, 2 a bad command
line, a validation failure or an output path that cannot be written, 3
enumeration infeasible, 1 selftest failure.  Every InvalidInputError a
command raises becomes exit 2 in main, at one place.
"""

import argparse
import functools
import json
import math
import os
import sys
from collections import Counter
from json.encoder import encode_basestring_ascii

from . import kirchhoff, moves, oracle, render, sampler, slits, temperley
from .covering import (covering_from_obj, covering_to_obj,
                       expected_impurity_count, validate_covering)
from .lattice import (InvalidInputError, Region, build_region,
                      diagonal_edges, edge, strip_region, ell_region)


def _json_text(obj, indent=""):
    """json.dumps(obj, indent=2, sort_keys=True), written at indent.

    Strings, lists, tuples, dicts and plain ints are written here; any
    other leaf (a bool, None or a float) is json.dumps of the leaf.
    Dict keys must be strings: the string encoder raises TypeError on
    any other.  An item of a list or tuple that is itself a list or
    tuple of exactly two plain ints, a point, is written from one
    template, with no call of its own.
    """
    if type(obj) is int:
        return int.__repr__(obj)
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = indent + "  "
        point = "[\n%s  %%d,\n%s  %%d\n%s]" % (inner, inner, inner)
        return "[\n%s%s\n%s]" % (inner, (",\n" + inner).join(
            [point % (x[0], x[1])
             if isinstance(x, (list, tuple)) and len(x) == 2
             and type(x[0]) is int and type(x[1]) is int
             else _json_text(x, inner) for x in obj]), indent)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = indent + "  "
        return "{\n%s%s\n%s}" % (inner, (",\n" + inner).join(
            [encode_basestring_ascii(k) + ": " + _json_text(v, inner)
             for k, v in sorted(obj.items())]), indent)
    return json.dumps(obj)


def _ratio(n, d):
    """str(Fraction(n, d)) for n >= 0 and d > 0: the reduced "n/d", or
    "n" when d divides n."""
    c = math.gcd(n, d)
    if c == d:
        return str(n // d)
    return "%d/%d" % (n // c, d // c)


def _emit(obj):
    sys.stdout.write(_json_text(obj) + "\n")


def _fail(code, kind, message):
    _emit({"error": kind, "message": message})
    raise SystemExit(code)


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        _fail(2, type(exc).__name__, "%s: %s" % (path, exc))


def _write(path, text):
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        _fail(2, type(exc).__name__, "%s: %s" % (path, exc))


def _load_region(path):
    # build_region reads the points through Region.of, once
    obj = _load_json(path)
    try:
        return build_region(Region(obj["faces"], obj["f_star"],
                                   obj["v_star"]))
    except (KeyError, TypeError) as exc:
        _fail(2, type(exc).__name__, "region file %s: %r" % (path, exc))


def _covering_or_initial(tri, path):
    """The covering in the file at path, else the tree-built covering."""
    if path:
        return covering_from_obj(tri.g, _load_json(path))
    return temperley.initial_covering(tri)


def cmd_build(args):
    tri = _load_region(args.region)
    g = tri.g
    _emit({
        "faces": [list(f) for f in tri.region.faces],
        "f_star": list(tri.f_star),
        "v_star": list(tri.v_star),
        "vertices": len(g.vertices),
        "edges": len(g.edges),
        "whites": g.white_count,
        "blacks": g.black_count,
        "expected_impurities": expected_impurity_count(g),
        "d_star": tri.h_perp.d_star,
        "e_star1": [list(v) for v in tri.e_star1],
        "e_star2": [list(v) for v in tri.e_star2],
        "diagonal_edges": [[list(u), list(v)]
                           for u, v in diagonal_edges(g)],
    })


def cmd_enumerate(args):
    tri = _load_region(args.region)
    try:
        ms = oracle.enumerate_coverings(tri.g, limit=args.limit)
    except oracle.TooLargeError as exc:
        _fail(3, "TooLargeError", str(exc))
    if args.histogram:
        hist = oracle.impurity_histogram(tri.g, ms)
        _emit({"count": len(ms),
               "histogram": [{"edge": [list(u), list(v)], "count": c}
                             for (u, v), c in sorted(hist.items())]})
    else:
        _emit({"count": len(ms),
               "coverings": [covering_to_obj(m) for m in ms]})


def cmd_prob(args):
    tri = _load_region(args.region)
    p = kirchhoff.region_counts(tri)
    edges = []
    for e in diagonal_edges(tri.g):
        count = p.counts[kirchhoff._odd_end(e)]
        edges.append({
            "edge": [list(e[0]), list(e[1])],
            "count": str(count),
            "probability": _ratio(count, p.total),
        })
    _emit({
        "det_A": str(p.det),
        "p": {"[%d, %d]" % v: _ratio(c, p.det) for v, c in p.counts.items()},
        "total": str(p.total),
        "d_star": tri.h_perp.d_star,
        "edge_probabilities": edges,
    })


def cmd_moves(args):
    tri = _load_region(args.region)
    found = moves.find_moves(_covering_or_initial(tri, args.covering))
    kinds = Counter(site[0] for site in moves.proposal_sites(tri.g))
    _emit({
        "sites": {"squares": kinds["s"], "t_sites": kinds["t"]},
        "count": len(found),
        "moves": [{"kind": mv.kind,
                   "removes": [[list(u), list(v)] for u, v in mv.removes],
                   "adds": [[list(u), list(v)] for u, v in mv.adds]}
                  for mv in found],
    })


def cmd_sample(args):
    tri = _load_region(args.region)
    m0 = _covering_or_initial(tri, args.m0)
    cfg = sampler.ChainConfig(seed=args.seed, steps=args.steps,
                              burn_in=args.burn_in, sample_every=args.every)
    if args.frames:
        # before the chain runs, so a bad path costs no steps
        try:
            os.makedirs(args.frames, exist_ok=True)
        except OSError as exc:
            _fail(2, type(exc).__name__, "%s: %s" % (args.frames, exc))
    report = sampler.run(m0, cfg, keep_trajectory=bool(args.frames))
    if args.frames:
        for i, dimers in enumerate(report.trajectory):
            _write(os.path.join(args.frames, "frame_%06d.svg" % i),
                   render.render_covering(validate_covering(tri.g, dimers)))
    final_obj = covering_to_obj(report.final)
    final_obj["curves"] = [[list(p) for p in c.points]
                           for c in sorted(slits.slit_curves(report.final),
                                           key=lambda c: c.points)]
    _emit({
        "config": {"seed": cfg.seed, "steps": cfg.steps,
                   "burn_in": cfg.burn_in, "sample_every": cfg.sample_every},
        "rng_algorithm": report.rng_algorithm,
        "acceptance_rate": report.acceptance_rate,
        "n_samples": report.n_samples,
        "impurity_counts": {_edge_key(e): c for e, c
                            in report.impurity_counts.items()},
        "impurity_frequencies": {_edge_key(e): f for e, f
                                 in report.impurity_frequencies().items()},
        "final_covering": final_obj,
    })


def _edge_key(e):
    """json.dumps(e) of an edge of plain-int points."""
    return "[[%d, %d], [%d, %d]]" % (e[0] + e[1])


def cmd_render(args):
    tri = _load_region(args.region)
    m = _covering_or_initial(tri, args.covering)
    svg = render.render_covering(m, show_slits=args.slits,
                                 show_forests=args.forests)
    if args.out:
        _write(args.out, svg)
    else:
        sys.stdout.write(svg)


def _check(label, got, want):
    ok = got == want
    print("%s %s" % ("ok  " if ok else "FAIL", label), end="")
    if not ok:
        print("  got %r want %r" % (got, want), end="")
    print()
    return ok


def cmd_selftest(args):
    ok = True
    tri = build_region(ell_region())
    p = kirchhoff.region_counts(tri)
    ok &= _check("L-region det A = 56", p.det, 56)
    ok &= _check("L-region p = (1/7, 2/7, 2/7, 1)",
                 [str(p[v]) for v in sorted(p)],
                 ["1/7", "2/7", "2/7", "1"])
    ok &= _check("L-region total = 328", p.total, 328)
    e13 = edge((1, 3), (2, 4))
    ok &= _check("L-region impurity count at (1,3) edge = 16",
                 kirchhoff.coverings_with_impurity(tri, e13), 16)
    ok &= _check("L-region P(impurity at (1,3) edge) = 2/41",
                 str(kirchhoff.impurity_probability(tri, e13)), "2/41")
    ms = oracle.enumerate_coverings(tri.g)
    ok &= _check("L-region oracle count = 328", len(ms), 328)
    hist = oracle.impurity_histogram(tri.g, ms)
    ok &= _check("L-region histogram matches det*p edge-by-edge",
                 all(hist[e] == p.counts[kirchhoff.impurity_face(tri, e)]
                     for e in hist), True)
    ok &= _check("L-region t-classes = 56",
                 len(moves.t_classes(ms)), 56)
    dets = []
    for n in range(1, 7):
        t = build_region(strip_region(n))
        dets.append(kirchhoff.tree_count(kirchhoff.build_system(t.h_perp)))
    ok &= _check("strip n=1..6 tree counts", dets, [4, 15, 56, 209, 780, 2911])
    t2 = build_region(strip_region(2))
    ok &= _check("strip n=2 total = oracle = 50",
                 (kirchhoff.total_coverings(t2),
                  len(oracle.enumerate_coverings(t2.g))), (50, 50))
    raise SystemExit(0 if ok else 1)


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as the JSON error object, exit 2."""

    def error(self, message):
        _fail(2, "UsageError", message)


@functools.cache
def _parser():
    """The command-line parser, built on the first call and reused.

    Parsing reads the parser and writes only the namespace it returns,
    so one parser serves every call of main in a process.
    """
    parser = _Parser(
        prog="octadimer",
        description="Dimer coverings with diagonal impurities: exact "
                    "counts, local-move dynamics, slit-curves, sampling.")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("build", help="validate a region and summarize G")
    p.add_argument("region")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("enumerate", help="brute-force all coverings")
    p.add_argument("region")
    p.add_argument("--histogram", action="store_true",
                   help="per-diagonal-edge impurity counts instead of states")
    p.add_argument("--limit", type=int, default=oracle.MATCHING_VERTEX_LIMIT,
                   help="vertex-count guard for the enumerator")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("prob", help="exact counts and impurity probabilities")
    p.add_argument("region")
    p.set_defaults(func=cmd_prob)

    p = sub.add_parser("moves", help="inspect local moves of a covering")
    p.add_argument("action", choices=["list"])
    p.add_argument("region")
    p.add_argument("covering", nargs="?",
                   help="covering JSON; default is the tree-built covering")
    p.set_defaults(func=cmd_moves)

    p = sub.add_parser("sample", help="run the lazy move chain")
    p.add_argument("region")
    p.add_argument("m0", nargs="?", help="starting covering JSON")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--burn-in", type=int, default=0)
    p.add_argument("--every", type=int, default=1)
    p.add_argument("--frames", metavar="DIR",
                   help="write one SVG per thinned sample into DIR")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("render", help="draw a covering as SVG")
    p.add_argument("region")
    p.add_argument("covering", nargs="?")
    p.add_argument("--slits", action="store_true")
    p.add_argument("--forests", action="store_true")
    p.add_argument("-o", "--out")
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("selftest",
                       help="re-derive the worked-example numbers")
    p.set_defaults(func=cmd_selftest)
    return parser


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        args.func(args)
    except InvalidInputError as exc:
        _fail(2, type(exc).__name__, str(exc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
