"""CLI surface: JSON shapes, exit codes, determinism."""

import hashlib
import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from octadimer import cli, kirchhoff, oracle, sampler
from octadimer.covering import validate_covering
from octadimer.lattice import Region, build_region
from octadimer.render import render_covering
from octadimer.temperley import initial_covering

from test_kirchhoff import LADDER
from test_sampler import reference_run

ELL = {"faces": [[1, 1], [1, 3], [3, 1]], "f_star": [3, 3], "v_star": [2, 4]}
STRIP1 = {"faces": [[1, 1]], "f_star": [3, 1], "v_star": [2, 2]}
STRIP2 = {"faces": [[1, 1], [3, 1]], "f_star": [5, 1], "v_star": [4, 2]}
STRIP8 = {"faces": [[2 * j - 1, 1] for j in range(1, 9)],
          "f_star": [17, 1], "v_star": [16, 2]}
SQUARE4 = {"faces": [[2 * i + 1, 2 * j + 1] for i in range(4)
                     for j in range(4)],
           "f_star": [9, 1], "v_star": [8, 2]}
SAMPLE_ARGS = ("--seed", "3", "--steps", "600", "--burn-in", "100",
               "--every", "10")


@pytest.fixture
def ell_file(tmp_path):
    p = tmp_path / "ell.json"
    p.write_text(json.dumps(ELL))
    return str(p)


@pytest.fixture
def strip_file(tmp_path):
    p = tmp_path / "strip1.json"
    p.write_text(json.dumps(STRIP1))
    return str(p)


def run_cli(capsys, *argv):
    rc = cli.main(list(argv))
    out = capsys.readouterr().out
    return rc, json.loads(out)


def run_cli_fail(capsys, *argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    out = capsys.readouterr().out
    return exc.value.code, json.loads(out)


def console(*argv):
    """`python -m octadimer.cli argv` in a fresh process: code, stdout."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-m", "octadimer.cli", *argv],
                          capture_output=True, text=True, env=env)
    return done.returncode, done.stdout


def in_process(capsys, *argv):
    """cli.main(argv) as the console runs it: exit code, stdout."""
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code
    return code, capsys.readouterr().out


@pytest.fixture
def fresh_parser():
    # the next main call builds the parser again, and so does the one
    # after this test
    cli._parser.cache_clear()
    yield
    cli._parser.cache_clear()


def test_one_parser_answers_a_sequence_of_calls(capsys, tmp_path, ell_file,
                                                fresh_parser):
    # a usage error leaves the parser as it found it: each later call
    # gives the bytes of a fresh process or its pinned digest
    strip2 = tmp_path / "strip2.json"
    strip2.write_text(json.dumps(STRIP2))
    bad = ("sample", ell_file, "--seed", "1", "--steps", "5", "--bogus")
    got_bad = in_process(capsys, *bad)
    got_prob = in_process(capsys, "prob", ell_file)
    got_sample = in_process(capsys, "sample", str(strip2), *SAMPLE_ARGS)
    assert got_bad[0] == 2 and json.loads(got_bad[1])["error"] == "UsageError"
    assert got_bad == console(*bad)
    assert got_prob == console("prob", ell_file)
    assert got_sample[0] == 0
    assert hashlib.sha256(got_sample[1].encode()).hexdigest() == (
        "5630020463223658d77c3c57accd32698879b039c548144375aa5629bf7a863e")


def test_parser_is_built_once(capsys, monkeypatch, strip_file, fresh_parser):
    built = []

    class Counted(cli._Parser):
        def __init__(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(cli, "_Parser", Counted)
    in_process(capsys, "prob", strip_file)
    first = list(built)
    for argv in (["build", strip_file], ["prob"], ["prob", strip_file]):
        in_process(capsys, *argv)
    # the root parser and one per subcommand, all on the first call
    assert first[0] == "octadimer" and len(first) == 8
    assert built == first


def test_enumerate_limit_default_is_the_oracle_guard():
    args = cli._parser().parse_args(["enumerate", "region.json"])
    assert args.limit == oracle.MATCHING_VERTEX_LIMIT


def test_help_lists_every_subcommand(capsys):
    code, out = in_process(capsys, "--help")
    assert code == 0
    for command in ("build", "enumerate", "prob", "moves", "sample",
                    "render", "selftest"):
        assert command in out


def test_build(capsys, ell_file):
    rc, obj = run_cli(capsys, "build", ell_file)
    assert rc == 0
    assert obj["vertices"] == 22 and obj["edges"] == 49
    assert obj["whites"] == 12 and obj["blacks"] == 10
    assert obj["expected_impurities"] == 1 and obj["d_star"] == 2
    assert obj["e_star1"] == [[2, 4], [3, 3]]
    assert obj["e_star2"] == [[3, 3], [4, 2]]
    assert len(obj["diagonal_edges"]) == 15


def test_build_output_is_stable(capsys, ell_file):
    cli.main(["build", ell_file])
    first = capsys.readouterr().out
    cli.main(["build", ell_file])
    assert capsys.readouterr().out == first


def test_enumerate(capsys, strip_file):
    rc, obj = run_cli(capsys, "enumerate", strip_file)
    assert rc == 0
    assert obj["count"] == 12
    assert len(obj["coverings"]) == 12
    assert all(set(c) == {"dimers"} for c in obj["coverings"])


def test_enumerate_histogram(capsys, ell_file):
    rc, obj = run_cli(capsys, "enumerate", ell_file, "--histogram")
    assert rc == 0
    assert obj["count"] == 328
    assert sum(h["count"] for h in obj["histogram"]) == 328
    counts = {tuple(map(tuple, h["edge"])): h["count"]
              for h in obj["histogram"]}
    assert counts[((2, 4), (3, 3))] == 56


def test_enumerate_limit(capsys, ell_file):
    code, obj = run_cli_fail(capsys, "enumerate", ell_file, "--limit", "5")
    assert code == 3
    assert obj["error"] == "TooLargeError"


def test_enumerate_negative_limit_exits_2(capsys, ell_file):
    code, obj = run_cli_fail(capsys, "enumerate", ell_file, "--limit", "-1")
    assert code == 2
    assert obj == {"error": "InvalidInputError",
                   "message": "limit -1 is neither None nor a nonnegative "
                              "integer"}


def test_prob(capsys, ell_file):
    rc, obj = run_cli(capsys, "prob", ell_file)
    assert rc == 0
    assert obj["det_A"] == "56" and obj["total"] == "328"
    assert obj["p"] == {"[1, 1]": "1/7", "[1, 3]": "2/7",
                        "[3, 1]": "2/7", "[3, 3]": "1"}
    probs = {tuple(map(tuple, e["edge"])): e for e in
             obj["edge_probabilities"]}
    assert len(probs) == 15
    assert probs[((2, 4), (3, 3))]["count"] == "56"
    assert probs[((2, 4), (3, 3))]["probability"] == "7/41"
    assert probs[((0, 0), (1, 1))]["probability"] == "1/41"


def test_moves_list(capsys, ell_file):
    rc, obj = run_cli(capsys, "moves", "list", ell_file)
    assert rc == 0
    assert obj["sites"] == {"squares": 13, "t_sites": 22}
    assert obj["count"] == 7 == len(obj["moves"])
    for mv in obj["moves"]:
        assert mv["kind"] in ("s", "t")
        assert len(mv["removes"]) == len(mv["adds"]) == 2


def test_moves_with_covering_file(capsys, tmp_path, strip_file):
    rc, obj = run_cli(capsys, "enumerate", strip_file)
    cov = tmp_path / "m.json"
    cov.write_text(json.dumps(obj["coverings"][0]))
    rc, obj = run_cli(capsys, "moves", "list", strip_file, str(cov))
    assert rc == 0 and obj["count"] >= 1


def test_sample(capsys, strip_file):
    args = ("sample", strip_file) + SAMPLE_ARGS
    rc, obj = run_cli(capsys, *args)
    assert rc == 0
    assert obj["config"] == {"seed": 3, "steps": 600, "burn_in": 100,
                             "sample_every": 10}
    assert obj["n_samples"] == 50
    assert obj["rng_algorithm"] == "python-random-mersenne-twister"
    assert sum(obj["impurity_counts"].values()) == 50
    assert set(obj["final_covering"]) == {"dimers", "curves"}
    # same seed, same bytes
    cli.main(list(args))
    first = capsys.readouterr().out
    cli.main(list(args))
    assert capsys.readouterr().out == first


def test_sample_frames(capsys, tmp_path, strip_file):
    # frame i is the render of state i of the per-step reference chain
    frames = tmp_path / "frames"
    rc, obj = run_cli(capsys, "sample", strip_file, "--seed", "1",
                      "--steps", "400", "--every", "40",
                      "--frames", str(frames))
    assert rc == 0
    files = sorted(f.name for f in frames.iterdir())
    assert files == ["frame_%06d.svg" % i for i in range(10)]
    ET.parse(frames / files[0])
    tri = build_region(Region.of(STRIP1["faces"], STRIP1["f_star"],
                                 STRIP1["v_star"]))
    want = reference_run(initial_covering(tri),
                         sampler.ChainConfig(seed=1, steps=400,
                                             sample_every=40),
                         keep_trajectory=True).trajectory
    assert len(set(want)) > 1
    for name, dimers in zip(files, want):
        assert (frames / name).read_text() == render_covering(
            validate_covering(tri.g, dimers))


@pytest.mark.parametrize("argv, error", [
    (("sample", "--seed", "1", "--steps", "3", "--frames", "{file}"),
     "FileExistsError"),
    (("render", "-o", "{missing}/x.svg"), "FileNotFoundError"),
])
def test_unwritable_output_path_exits_2(capsys, monkeypatch, tmp_path,
                                        ell_file, argv, error):
    # the frames directory is made before the chain, which never runs
    def unreachable(*args, **kwargs):
        raise AssertionError("sampler.run was called")
    monkeypatch.setattr(sampler, "run", unreachable)
    taken = tmp_path / "taken"
    taken.write_text("")
    argv = [a.format(file=taken, missing=tmp_path / "missing")
            for a in argv]
    code, obj = run_cli_fail(capsys, argv[0], ell_file, *argv[1:])
    assert code == 2
    assert obj["error"] == error


def test_render(capsys, tmp_path, ell_file):
    out = tmp_path / "ell.svg"
    rc = cli.main(["render", ell_file, "--slits", "--forests",
                   "-o", str(out)])
    assert rc == 0
    root = ET.parse(out).getroot()
    assert root.tag.endswith("svg")


def test_render_stdout(capsys, ell_file):
    rc = cli.main(["render", ell_file])
    assert rc == 0
    assert capsys.readouterr().out.startswith('<?xml version="1.0"')


def test_selftest(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["selftest"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.count("ok  ") == 10
    assert "FAIL" not in out


def test_malformed_json_exits_2(capsys, tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    code, obj = run_cli_fail(capsys, "build", str(p))
    assert code == 2
    assert "error" in obj


def test_deeply_nested_json_exits_2(capsys, tmp_path):
    p = tmp_path / "deep.json"
    p.write_text("[" * 100000 + "]" * 100000)
    code, obj = run_cli_fail(capsys, "prob", str(p))
    assert code == 2
    assert obj["error"] == "RecursionError"


def test_missing_file_exits_2(capsys):
    code, obj = run_cli_fail(capsys, "build", "/nonexistent.json")
    assert code == 2


def test_invalid_region_exits_2(capsys, tmp_path):
    p = tmp_path / "bad_region.json"
    p.write_text(json.dumps({"faces": [[1, 1]], "f_star": [3, 1],
                             "v_star": [4, 0]}))
    code, obj = run_cli_fail(capsys, "build", str(p))
    assert code == 2
    assert obj["error"] == "InvalidVStarError"


def test_invalid_covering_exits_2(capsys, tmp_path, strip_file):
    cov = tmp_path / "bad_cov.json"
    cov.write_text(json.dumps({"dimers": []}))
    code, obj = run_cli_fail(capsys, "render", strip_file, str(cov))
    assert code == 2


@pytest.mark.parametrize("endpoint", [[True, True], [[1], [2]]])
def test_malformed_covering_points_exit_2(capsys, tmp_path, ell_file,
                                          endpoint):
    # a covering endpoint obeys the same point rule as a region file
    rc, obj = run_cli(capsys, "sample", ell_file, "--seed", "1",
                      "--steps", "0")
    dimers = obj["final_covering"]["dimers"]
    i = next(i for i, d in enumerate(dimers) if [1, 1] in d)
    dimers[i][dimers[i].index([1, 1])] = endpoint
    cov = tmp_path / "cov.json"
    cov.write_text(json.dumps({"dimers": dimers}))
    code, obj = run_cli_fail(capsys, "sample", ell_file, str(cov),
                             "--seed", "1", "--steps", "0")
    assert code == 2
    assert obj["error"] == "CoveringError"


@pytest.mark.parametrize("region, argv, sha256", [
    (STRIP2, ("sample", "{}") + SAMPLE_ARGS,
     "5630020463223658d77c3c57accd32698879b039c548144375aa5629bf7a863e"),
    (ELL, ("moves", "list", "{}"),
     "c161532363a45198cad4b362603e8aaf41967626acd6431ffca4b8e491f3ed81"),
    (SQUARE4, ("prob", "{}"),
     "2a8daa7ea5e575981dcdc232089d5d4361cfe312901d5c6da2a1fc833829cf78"),
    (STRIP8, ("prob", "{}"),
     "d627b9ae73b81ba7d9d70cc610f0149d381a7109ff4f8332889b4445c0f4dab4"),
    (SQUARE4, ("sample", "{}", "--seed", "3", "--steps", "2000",
               "--every", "1"),
     "cffd835ba25f937bce79c26c32c471b7e622bb7391b0385074da6271c710da9c"),
    (ELL, ("build", "{}"),
     "f0a49d4e715d84b88b3c399bf2449eeca395fa6ff2b91dff3a5c26ddcc215fb7"),
    (ELL, ("enumerate", "{}", "--histogram"),
     "428b5a07aaee8b3a48db0a88cfe3a0fab4a3ab135db071024f0fd0def8a77494"),
    (STRIP2, ("enumerate", "{}"),
     "064f9669d5efbc19888b253b16955ccdd112583ecebb3125cddb8bbffe592b7c"),
])
def test_output_bytes_are_pinned(capsys, tmp_path, region, argv, sha256):
    # sample and moves recorded before find_moves and the chain shared one
    # move kernel, prob before the Fraction solve became integer elimination,
    # unthinned sample before run tracked the impurities through t-moves,
    # build and enumerate --histogram before the CLI dropped _edge_key,
    # _vertex_key and _load_covering, and full enumerate before _emit
    # stopped calling json.dumps with indent
    p = tmp_path / "region.json"
    p.write_text(json.dumps(region))
    assert cli.main([a.format(p) for a in argv]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


def test_error_message_with_a_non_ascii_path_is_pinned(capsys):
    # recorded while _emit called json.dumps(indent=2, sort_keys=True)
    path = "/nonexistent/r\u00e9gion-\u00f8.json"
    code, out = in_process(capsys, "prob", path)
    assert code == 2
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "b0a96bb3fb521519d815c81c4f09618761e814e837e0191f6d7b5c9b289fcf10")


json_leaves = (st.none() | st.booleans() | st.integers()
               | st.integers(-2 ** 200, 2 ** 200) | st.floats()
               | st.sampled_from([-0.0, 1e-7, 1e16, 0.1])
               | st.text() | st.text(st.characters(max_codepoint=0x20)))
# pairs, most of them points of two plain ints, which the writer
# formats from its point template
json_pairs = st.lists(st.integers() | st.booleans() | st.floats(),
                      min_size=2, max_size=2)
json_values = st.recursive(
    json_leaves,
    lambda inner: (st.lists(inner) | st.lists(inner).map(tuple)
                   | st.lists(json_pairs | json_pairs.map(tuple))
                   | st.dictionaries(st.text(), inner)),
    max_leaves=30)


@given(json_values)
def test_writer_matches_indented_json_dumps(obj):
    assert cli._json_text(obj) == json.dumps(obj, indent=2, sort_keys=True)


@pytest.mark.parametrize("obj", [
    [True, 1], [1, False], [2 ** 70, -3], [1, 2.0], (1, 2),
    [[1, 2], [3, 4]], [[True, 1], [1, False]], [[2 ** 70, -3], (1, 2)],
    [[1, 2.0], [1, 2, 3], [1], []], {"p": [[1, 2]], "q": [1, 2]},
    [{"edge": [[0, 0], [1, 1]]}, [[-1, 0], [0, -1]]]])
def test_writer_point_template_edge_cases(obj):
    # only a pair of plain ints inside a list takes the point template;
    # bools, floats and other lengths are written item by item
    assert cli._json_text(obj) == json.dumps(obj, indent=2, sort_keys=True)


def test_prob_strings_equal_fraction_strings():
    for region in LADDER:
        p = kirchhoff.region_counts(build_region(region))
        for d in (p.det, p.total):
            for n in list(p.counts.values()) + [0, d]:
                assert cli._ratio(n, d) == str(Fraction(n, d))
    assert cli._ratio(0, 1) == "0" and cli._ratio(1, 1) == "1"


def test_library_error_exits_2(capsys, monkeypatch, ell_file):
    # any InvalidInputError a command meets maps to exit 2 in main
    def singular(tri):
        raise kirchhoff.SingularSystemError("negative Laplacian is singular")
    monkeypatch.setattr(kirchhoff, "region_counts", singular)
    code, obj = run_cli_fail(capsys, "prob", ell_file)
    assert code == 2
    assert obj == {"error": "SingularSystemError",
                   "message": "negative Laplacian is singular"}


@pytest.mark.parametrize("faces", [[[1]], [[True, 1]], [[1.0, 1]]])
def test_malformed_coordinates_exit_2(capsys, tmp_path, faces):
    p = tmp_path / "bad_point.json"
    p.write_text(json.dumps(dict(STRIP1, faces=faces)))
    code, obj = run_cli_fail(capsys, "prob", str(p))
    assert code == 2
    assert obj["error"] == "RegionError"


@pytest.mark.parametrize("faces, message", [
    (5, "faces 5 are not a collection of points"),
    (None, "faces None are not a collection of points"),
    ("11", "point '1' is not a pair of integers"),
    ({"1": [1, 1]}, "point '1' is not a pair of integers"),
])
def test_region_faces_not_a_list_exit_2(capsys, tmp_path, faces, message):
    # recorded while the CLI read the region through Region.of before
    # build_region read it again
    p = tmp_path / "bad_faces.json"
    p.write_text(json.dumps(dict(STRIP1, faces=faces)))
    for command in ("build", "prob"):
        code, obj = run_cli_fail(capsys, command, str(p))
        assert code == 2
        assert obj == {"error": "RegionError", "message": message}


@pytest.mark.parametrize("flags", [("--steps", "-5"),
                                   ("--steps", "5", "--burn-in", "-1"),
                                   ("--steps", "5", "--every", "0")])
def test_invalid_chain_flags_exit_2(capsys, strip_file, flags):
    code, obj = run_cli_fail(capsys, "sample", strip_file, "--seed", "1",
                             *flags)
    assert code == 2
    assert obj["error"] == "InvalidInputError"


@pytest.mark.parametrize("argv", [
    ("sample", "{}", "--seed", "1", "--steps", "abc"),
    ("sample", "{}", "--seed", "1"),
    ("sample", "{}", "--seed", "1", "--steps", "5", "--bogus"),
    ("sample", "{}", "--seed", "1", "--steps", "5", "--every"),
    ("prob",),
    ("nope", "{}"),
    (),
])
def test_bad_command_line_exits_2(capsys, strip_file, argv):
    # argparse's own errors go through the JSON error object on stdout
    with pytest.raises(SystemExit) as exc:
        cli.main([a.format(strip_file) for a in argv])
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and err == ""
    assert json.loads(out)["error"] == "UsageError"
