"""Tests for the command line front end."""

import argparse
import json
import math
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from expmean.cli import (
    _COMMANDS,
    build_parser,
    load_problem,
    parse_problem,
    problem_to_dict,
    render_csv,
    render_json,
    run,
)
from expmean.errors import InputError, NumericalError
from expmean.zerofind import Zero

SQRT2 = "1.41421356237309504880168872421"

TWO_TERM_DOC = {
    "mode": "exact",
    "f": [
        {"coeff": [1, 0], "freq": "0"},
        {"coeff": [1, 0], "freq": "1"},
    ],
    "g": [{"coeff": [1, 0], "freq": "-1"}],
}

SQRT2_DOC = {
    "basis": ["1", SQRT2],
    "f": [
        {"coeff": [1, 0], "freq": ["0", "0"]},
        {"coeff": [1, 0], "freq": ["1", "0"]},
        {"coeff": [1, 0], "freq": ["0", "1"]},
    ],
}

QUADRATIC_DOC = {
    "f": [
        {"coeff": [6, 0], "freq": "0"},
        {"coeff": [-5, 0], "freq": "1"},
        {"coeff": [1, 0], "freq": "2"},
    ],
    "g": [{"coeff": [1, 0], "freq": "1"}],
}


@pytest.fixture
def problem_file(tmp_path):
    def write(doc, name="problem.json"):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    return write


def run_json(argv, capsys):
    code = run(argv)
    out = capsys.readouterr().out
    assert code == 0, out
    return json.loads(out)


# ---------------------------------------------------------------------------
# problem parsing


def test_parse_problem_defaults():
    p = parse_problem({"f": [{"coeff": [1, 0], "freq": "0"}, {"coeff": [2.5, 0], "freq": "1"}]})
    assert not p.exact
    assert p.basis.is_default()
    assert p.g.num_terms() == 1
    assert p.g.terms[0].coeff == 1.0 + 0j
    assert p.g.terms[0].freq.is_zero()


def test_parse_problem_round_trip_idempotent():
    for doc in (TWO_TERM_DOC, SQRT2_DOC, QUADRATIC_DOC):
        p1 = parse_problem(doc)
        d1 = problem_to_dict(p1)
        p2 = parse_problem(d1)
        assert problem_to_dict(p2) == d1
        assert p2.f == p1.f and p2.g == p1.g


def test_parse_problem_rejects_bad_documents():
    ok_f = [{"coeff": [1, 0], "freq": "0"}, {"coeff": [1, 0], "freq": "1"}]
    bad = [
        [],
        {"g": ok_f},
        {"f": ok_f, "extra": 1},
        {"f": ok_f, "mode": "fast"},
        {"f": ok_f, "basis": []},
        {"f": ok_f, "basis": [1.5]},
        {"f": [{"coeff": [1, 0]}]},
        {"f": [{"coeff": [1, 0], "freq": "1", "name": "x"}]},
        {"f": [{"coeff": [1], "freq": "1"}]},
        {"f": [{"coeff": [1, 0], "freq": "1/0"}]},
        {"f": [{"coeff": [1, 0], "freq": ["1"]}], "basis": ["1", SQRT2]},
        {"f": [{"coeff": [True, 0], "freq": "1"}]},
        {"f": [{"coeff": ["1e400", 0], "freq": "1"}]},
        {"f": [{"coeff": [1, 0], "freq": True}]},
        {"f": [{"coeff": [1, 0], "freq": 1.5}]},
        {"f": [{"coeff": [1, 0], "freq": [0.5]}]},
    ]
    for doc in bad:
        with pytest.raises(InputError):
            parse_problem(doc)


def test_parse_problem_exact_mode_coefficients():
    doc = {
        "mode": "exact",
        "f": [
            {"coeff": ["1/3", "-2"], "freq": "0"},
            {"coeff": [4, 0], "freq": "1"},
        ],
    }
    p = parse_problem(doc)
    assert p.exact
    assert problem_to_dict(p)["f"][0]["coeff"] == ["1/3", "-2"]
    # non-integral float literals are lossy in exact mode
    with pytest.raises(InputError):
        parse_problem({"mode": "exact", "f": [{"coeff": [0.1, 0], "freq": "0"}]})
    # integral-valued floats are fine
    p2 = parse_problem({"mode": "exact", "f": [{"coeff": [2.0, 0], "freq": "0"}, {"coeff": [1, 0], "freq": "1"}]})
    assert problem_to_dict(p2)["f"][0]["coeff"] == ["2", "0"]


def test_exact_mode_empty_g_is_the_exact_zero_sum(problem_file, capsys):
    doc = dict(TWO_TERM_DOC, g=[])
    assert parse_problem(doc).g.exact
    env = run_json(["mean", "--input", problem_file(doc)], capsys)
    assert env["results"]["M"] == [0.0, 0.0]


def test_load_problem_errors(tmp_path):
    with pytest.raises(InputError):
        load_problem(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(InputError):
        load_problem(str(bad))


# ---------------------------------------------------------------------------
# rendering


def test_render_json_deterministic_shapes():
    s = render_json({"b": 1.0, "a": [complex(-1, 0), None, True]})
    assert s == '{"a": [[-1.0, 0.0], null, true], "b": 1.0}'
    assert render_json(0.05) == "0.050000000000000003"
    assert render_json(2.0 ** 60) == "1.152921504606847e+18"
    with pytest.raises(NumericalError):
        render_json(float("nan"))
    with pytest.raises(NumericalError):
        render_json(float("inf"))


def test_render_json_floats_reload_exactly():
    values = [math.pi, 1 / 3, 6.02e23, -0.0, 1e-300]
    reloaded = json.loads(render_json(values))
    for a, b in zip(values, reloaded):
        assert a == b and isinstance(b, float)


def test_render_csv_quotes_embedded_commas():
    text = render_csv([["key", "value"], ["gens", '["-1", "0"]']])
    assert text.splitlines()[1] == 'gens,"[""-1"", ""0""]"'


# ---------------------------------------------------------------------------
# subcommands


def test_mean_two_term_envelope(problem_file, capsys):
    path = problem_file(TWO_TERM_DOC)
    env = run_json(["mean", "--input", path], capsys)
    assert env["command"] == "mean"
    assert env["version"]
    assert env["timing"] is None
    assert env["inputs"]["problem"]["mode"] == "exact"
    res = env["results"]
    assert res["M"] == [-1.0, 0.0]
    assert abs(res["A_first"][0] - 2 * math.pi) < 1e-12
    assert res["A_last"] == [0.0, 0.0]
    assert res["mean_exact"] == [["-1", "0"]]
    assert res["neg_generators"] == ["-1"]
    assert res["pos_generators"] == ["1"]


def test_mean_float_mode_has_no_exact_vector(problem_file, capsys):
    path = problem_file(SQRT2_DOC)
    env = run_json(["mean", "--input", path], capsys)
    assert env["results"]["mean_exact"] is None
    assert abs(env["results"]["M"][0] - math.sqrt(2)) < 1e-9


def test_density_commands(problem_file, capsys):
    path = problem_file(TWO_TERM_DOC)
    env = run_json(["density", "--input", path], capsys)
    assert env["results"]["density"] == 1.0
    assert env["results"]["span"] == "1"

    env = run_json(["density", "--input", path, "--R", "6"], capsys)
    res = env["results"]
    assert res["count"] == 12
    assert res["empirical_density"] == 1.0
    assert res["abs_error"] == 0.0


def test_zeros_lattice_and_emit_points(problem_file, capsys):
    path = problem_file(TWO_TERM_DOC)
    env = run_json(["zeros", "--input", path, "--R", "3"], capsys)
    res = env["results"]
    assert res["count"] == 6
    assert res["outer_winding"] == 6
    assert res["R_used"] == 3.0
    ims = sorted(z["im"] for z in res["zeros"])
    expect = [-2.5, -1.5, -0.5, 0.5, 1.5, 2.5]
    assert all(abs(a - b) < 1e-9 for a, b in zip(ims, expect))
    # --format csv prints the same zeros as re,im,multiplicity rows
    assert run(["zeros", "--input", path, "--R", "3", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "re,im,multiplicity"
    assert len(lines) == 7
    assert all(line.split(",")[2] == "1" for line in lines[1:])


def test_zeros_csv_format(problem_file, capsys):
    path = problem_file(TWO_TERM_DOC)
    code = run(["zeros", "--input", path, "--R", "1", "--format", "csv"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "re,im,multiplicity"
    assert len(lines) == 3


def test_verify_reports_pass(problem_file, capsys):
    path = problem_file(TWO_TERM_DOC)
    env = run_json(["verify", "--input", path, "--R-list", "3,6,12"], capsys)
    res = env["results"]
    assert res["verdict"] == "pass"
    assert res["final_abs_error"] < 0.05
    assert [row["R"] for row in res["rows"]] == [3.0, 6.0, 12.0]
    assert res["symbolic_mean"] == [-1.0, 0.0]


def test_verify_verdict_reads_no_rounding_noise(capsys, monkeypatch):
    # both rows match the symbolic mean 5 to about 4e-12, so their error
    # ratio is a ratio of rounding noise and says nothing about the trend
    monkeypatch.chdir(Path(__file__).resolve().parent.parent)
    argv = ["verify", "--input", "problems/laurent_quadratic.json", "--R-list", "1.5,2.5"]
    res = run_json(argv, capsys)["results"]
    assert [row["count"] for row in res["rows"]] == [6, 10]
    assert all(0 < row["abs_error"] < 1e-9 for row in res["rows"])
    assert res["verdict"] == "pass"


def test_laurent_check_agreement(problem_file, capsys):
    path = problem_file(QUADRATIC_DOC)
    env = run_json(["laurent-check", "--input", path], capsys)
    res = env["results"]
    assert res["q"] == 1
    assert res["residue_vs_roots"] < 1e-8
    assert res["bridge_vs_roots"] < 1e-9
    assert abs(res["mean_value_bridge"][0] - 5.0) < 1e-12


def test_laurent_check_degree_budget(problem_file, capsys):
    # q = 999983 * 1000003 makes the image of f a polynomial of degree 1000003
    doc = {
        "f": [{"coeff": [1, 0], "freq": "0"}, {"coeff": [1, 0], "freq": "1/999983"}],
        "g": [{"coeff": [1, 0], "freq": "1/1000003"}],
    }
    assert run(["laurent-check", "--input", problem_file(doc)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "exceeds the budget" in captured.err


def test_mean_series_budget(problem_file, capsys):
    # the highest end of 1 + e(1) would expand to frequency 10**6
    doc = {
        "f": [{"coeff": [1, 0], "freq": "0"}, {"coeff": [1, 0], "freq": "1"}],
        "g": [{"coeff": [1, 0], "freq": "1000000"}],
    }
    assert run(["mean", "--input", problem_file(doc)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "budget of 100000 terms" in captured.err


@pytest.mark.parametrize(
    "flags",
    [["zeros", "--R", "1e9"], ["density", "--R", "1e9"], ["verify", "--R-list", "1,1e9"]],
    ids=["zeros", "density", "verify"],
)
def test_zero_budget_exit_code(problem_file, capsys, flags):
    # 1 + e(1) has 2R zeros below height R
    path = problem_file(TWO_TERM_DOC)
    assert run(flags + ["--input", path]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "zero budget of 10000" in captured.err


def test_laurent_check_needs_rational_basis(problem_file, capsys):
    path = problem_file(SQRT2_DOC)
    assert run(["laurent-check", "--input", path]) == 2
    assert "error" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# exit codes and determinism


def test_exit_codes(problem_file, tmp_path, capsys):
    path = problem_file(TWO_TERM_DOC)
    assert run(["zeros", "--input", path]) == 2  # missing --R
    capsys.readouterr()
    assert run(["mean", "--input", str(tmp_path / "none.json")]) == 2
    capsys.readouterr()
    assert run(["verify", "--input", path]) == 2  # missing --R-list
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        run(["mean", "--input", path, "--bogus"])
    assert exc.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        run(["not-a-command"])
    assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "flags",
    [
        ["zeros", "--R", "nan"],
        ["zeros", "--R", "inf"],
        ["density", "--R", "inf"],
        ["verify", "--R-list", "2,inf"],
        ["verify", "--R-list", "2,4", "--tol", "nan"],
        ["verify", "--R-list", "2,4", "--tol", "0"],
    ],
    ids=["zeros-R-nan", "zeros-R-inf", "density-R-inf", "R-list-inf", "tol-nan", "tol-zero"],
)
def test_flags_must_be_finite_and_positive(problem_file, capsys, flags):
    path = problem_file(TWO_TERM_DOC)
    assert run(flags + ["--input", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "finite and positive" in captured.err


def test_empty_r_list_message(problem_file, capsys):
    path = problem_file(TWO_TERM_DOC)
    with pytest.raises(SystemExit) as exc:
        run(["verify", "--input", path, "--R-list", ",,"])
    assert exc.value.code == 2
    assert "empty --R-list" in capsys.readouterr().err


_UNREAD_FLAGS = {
    "mean": ["--R", "--R-list", "--tol", "--seed", "--emit-points", "--margin"],
    "laurent-check": ["--R", "--R-list", "--tol", "--seed", "--emit-points", "--margin"],
    "density": ["--R-list", "--tol", "--seed", "--emit-points", "--margin"],
    "zeros": ["--R-list", "--tol", "--seed", "--emit-points", "--margin"],
    "verify": ["--R", "--seed", "--emit-points", "--margin"],
}
_FLAG_VALUES = {"--R": "2", "--R-list": "1,2", "--tol": "0.1", "--seed": "1",
                "--emit-points": "points.csv", "--margin": "0.5"}
_UNREAD = [(command, flag) for command, flags in _UNREAD_FLAGS.items() for flag in flags]


@pytest.mark.parametrize("command, flag", _UNREAD, ids=[f"{c}{f}" for c, f in _UNREAD])
def test_flag_a_command_does_not_read_is_a_usage_error(tmp_path, capsys, monkeypatch, command, flag):
    def unread(path):
        raise AssertionError("the problem file was read")

    monkeypatch.setattr("expmean.cli.load_problem", unread)
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        run([command, "--input", "problem.json", flag, _FLAG_VALUES[flag]])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert not (tmp_path / "points.csv").exists()


def test_readme_flag_table_matches_the_parser():
    # each row of the README's "command | more flags" table names exactly the
    # flags the command parses beyond the common ones
    readme = Path(__file__).resolve().parent.parent / "README.md"
    lines = readme.read_text(encoding="utf-8").splitlines()
    table = {}
    for line in lines[lines.index("| command | more flags |") + 2:]:
        if not line.startswith("|"):
            break
        command, flags = (cell.strip() for cell in line.strip("|").split("|"))
        table[command.strip("`")] = set(re.findall(r"--[A-Za-z][A-Za-z-]*", flags))
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    common = {"-h", "--help", "--input", "--format", "--timing"}
    parsed = {
        name: {flag for action in sub._actions for flag in action.option_strings} - common
        for name, sub in commands.choices.items()
    }
    assert table == parsed


@pytest.mark.parametrize(
    "mode, tiny",
    # a float-mode denormal, and an exact part whose double image underflows to zero
    [("float", 1e-320), ("exact", "1e-400")],
)
def test_tiny_coefficient_reports_coefficient_scale(problem_file, capsys, mode, tiny):
    doc = {
        "mode": mode,
        "f": [{"coeff": [tiny, 0], "freq": "0"}, {"coeff": [1, 0], "freq": "1"}],
    }
    path = problem_file(doc)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["zeros", "--input", path, "--R", "2"]) == 3
    assert "coefficient scale" in capsys.readouterr().err


def test_numerical_failure_exit_code(problem_file, capsys, monkeypatch):
    path = problem_file(TWO_TERM_DOC)

    def boom(*args, **kwargs):
        raise NumericalError("synthetic failure")

    monkeypatch.setattr("expmean.cli.search_zeros", boom)
    assert run(["zeros", "--input", path, "--R", "2"]) == 3
    assert "numerical failure" in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["float", "exact"])
@pytest.mark.parametrize("part", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_coefficients_are_input_errors(tmp_path, capsys, mode, part):
    text = (
        '{"mode": "%s", "f": [{"coeff": [1, 0], "freq": "0"}, '
        '{"coeff": [%s, 0], "freq": "1"}]}' % (mode, part)
    )
    with pytest.raises(InputError):
        parse_problem(json.loads(text))
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert run(["mean", "--input", str(path)]) == 2
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_render_failure_exit_code(problem_file, capsys, monkeypatch, fmt):
    path = problem_file(TWO_TERM_DOC)
    monkeypatch.setitem(_COMMANDS, "mean", lambda problem, args: {"M": [math.nan, 0.0]})
    assert run(["mean", "--input", path, "--format", fmt]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "non-finite" in captured.err


@pytest.mark.parametrize("mode", ["float", "exact"])
def test_mean_beyond_double_range_exit_code(problem_file, capsys, mode):
    # the mean is about 9e835: float mode overflows inside the series, and
    # exact mode prints its exact answer with the float fields null
    doc = {
        "mode": mode,
        "f": [
            {"coeff": [1, 0], "freq": "0"},
            {"coeff": [3, 0], "freq": "1"},
            {"coeff": [1, 0], "freq": "2"},
        ],
        "g": [{"coeff": [1, 0], "freq": "2000"}],
    }
    path = problem_file(doc)
    if mode == "float":
        assert run(["mean", "--input", path]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "numerical failure" in captured.err
        return
    res = run_json(["mean", "--input", path], capsys)["results"]
    assert res["A_first"] is None and res["A_last"] is None and res["M"] is None
    [[re, im]] = res["mean_exact"]
    assert im == "0" and len(re) == 836
    # verify and laurent-check need the mean as a double
    assert run(["verify", "--R-list", "1,2", "--input", path]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "exact mean value does not fit a double" in captured.err
    # the Laurent routes run on double-precision images in either mode
    assert run(["laurent-check", "--input", path]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "double-precision images" in captured.err
    assert "use exact mode" not in captured.err


def test_numerical_failure_reports_partial_zeros(problem_file, capsys, monkeypatch):
    path = problem_file(TWO_TERM_DOC)

    def boom(*args, **kwargs):
        raise NumericalError("synthetic failure", partial=[Zero(complex(0.25, -0.5), 2)])

    monkeypatch.setattr("expmean.cli.search_zeros", boom)
    assert run(["zeros", "--input", path, "--R", "2"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    message, partial = captured.err.splitlines()
    assert "synthetic failure" in message
    assert json.loads(partial) == [{"re": 0.25, "im": -0.5, "multiplicity": 2}]


def test_output_bytes_deterministic(problem_file, capsys):
    path = problem_file(SQRT2_DOC)
    argv = ["zeros", "--input", path, "--R", "4"]
    first = run(argv), capsys.readouterr().out
    second = run(argv), capsys.readouterr().out
    assert first == second
    assert first[0] == 0


def test_module_entry_point(problem_file):
    path = problem_file(TWO_TERM_DOC)
    proc = subprocess.run(
        [sys.executable, "-m", "expmean", "mean", "--input", path],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    env = json.loads(proc.stdout)
    assert env["results"]["M"] == [-1.0, 0.0]
    usage = subprocess.run(
        [sys.executable, "-m", "expmean", "mean", "--input", path, "--bogus"],
        capture_output=True,
        text=True,
    )
    assert usage.returncode == 2
    assert "usage" in usage.stderr
