"""Tests for the command line front end."""

import argparse
import contextlib
import io
import json
import math
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expmean import zerofind
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
from expmean.sums import FrequencyBasis, exp_sum
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
    assert not p.f.exact
    assert p.f.basis.is_default()
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
        {"f": {"coeff": [1, 0], "freq": "0"}},
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
    assert p.f.exact
    assert problem_to_dict(p)["f"][0]["coeff"] == ["1/3", "-2"]
    # non-integral float literals are lossy in exact mode
    with pytest.raises(InputError):
        parse_problem({"mode": "exact", "f": [{"coeff": [0.1, 0], "freq": "0"}]})
    # integral-valued floats are fine
    p2 = parse_problem({"mode": "exact", "f": [{"coeff": [2.0, 0], "freq": "0"}, {"coeff": [1, 0], "freq": "1"}]})
    assert problem_to_dict(p2)["f"][0]["coeff"] == ["2", "0"]


def test_parse_problem_rejects_booleans_and_non_list_frequencies():
    one = {"coeff": [1, 0], "freq": "0"}
    for freq in ([True], {"1": 0}):
        with pytest.raises(InputError, match="f: term 1: "):
            parse_problem({"f": [one, {"coeff": [1, 0], "freq": freq}]})
    with pytest.raises(InputError, match="g: term 0: "):
        parse_problem({"mode": "exact", "f": [one], "g": [{"coeff": [False, 0], "freq": "0"}]})


@pytest.mark.parametrize("value", ["NaN", "-Infinity", "Infinity", "1e400"])
def test_non_finite_basis_exits_2(problem_file, capsys, value):
    doc = {"basis": [value], "f": [{"coeff": [1, 0], "freq": ["0"]}, {"coeff": [1, 0], "freq": ["1"]}]}
    assert run(["mean", "--input", problem_file(doc)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert "basis value" in captured.err


def test_negative_zero_keeps_its_sign_in_the_echo(problem_file, capsys):
    doc = {"f": [{"coeff": [1, -0.0], "freq": "0"}, {"coeff": [-0.0, 2], "freq": "1"}]}
    assert run(["density", "--input", problem_file(doc)]) == 0
    out = capsys.readouterr().out
    assert '"coeff": [1.0, -0.0]' in out and '"coeff": [-0.0, 2.0]' in out


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
    with pytest.raises(InputError, match="is not valid JSON"):
        load_problem(str(bad))
    # a JSON integer past Python's int-to-str digit limit stops json.load itself:
    # the document is valid JSON that Python will not convert
    bad.write_text('{"f": [{"coeff": [1' + "0" * 5000 + ', 0], "freq": "0"}]}')
    with pytest.raises(InputError, match="5001 digits") as exc:
        load_problem(str(bad))
    assert str(exc.value).startswith(f"cannot read {bad} as JSON: Exceeds the limit")


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


def test_verify_csv_has_one_row_per_rung(problem_file, capsys):
    # the empirical mean's real and imaginary parts each take a column
    doc = dict(TWO_TERM_DOC, mode="float", g=[{"coeff": [1, 2], "freq": "0"}])
    path = problem_file(doc)
    rows = run_json(["verify", "--input", path, "--R-list", "1,2"], capsys)["results"]["rows"]
    assert run(["verify", "--input", path, "--R-list", "1,2", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "R,count,empirical_re,empirical_im,abs_error"
    assert len(lines) == 1 + len(rows) == 3
    for line, row in zip(lines[1:], rows):
        cells = line.split(",")
        assert [float(cells[0]), int(cells[1])] == [row["R"], row["count"]]
        assert [float(cells[2]), float(cells[3])] == row["empirical_mean"]
        assert float(cells[4]) == row["abs_error"]
        assert float(cells[3]) != 0.0


def test_csv_complex_cells_parse_with_a_negative_imaginary_part(problem_file, capsys):
    # f = 1 + e(z), g = -2i: the mean is -2i, written 0.0-2.0j, not 0.0+-2.0j
    doc = dict(TWO_TERM_DOC, mode="float", g=[{"coeff": [0, -2], "freq": "0"}])
    path = problem_file(doc)
    assert run(["mean", "--input", path, "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "M,0.0-2.0j" in lines
    assert run(["laurent-check", "--input", path, "--format", "csv"]) == 0
    lines += capsys.readouterr().out.splitlines()
    cells = [line.split(",", 1)[1] for line in lines if line.endswith("j")]
    assert len(cells) == 6  # A_first, A_last, M and laurent-check's three sums
    for cell in cells:
        complex(cell)


def test_verify_verdict_reads_no_rounding_noise(capsys, monkeypatch):
    # both rows match the symbolic mean 5 to about 4e-12, so their error
    # ratio is a ratio of rounding noise and says nothing about the trend
    monkeypatch.chdir(Path(__file__).resolve().parent.parent)
    argv = ["verify", "--input", "problems/laurent_quadratic.json", "--R-list", "1.5,2.5"]
    res = run_json(argv, capsys)["results"]
    assert [row["count"] for row in res["rows"]] == [6, 10]
    assert all(0 < row["abs_error"] < 1e-9 for row in res["rows"])
    assert res["verdict"] == "pass"


# f = 2 - 3e(1/2) + e(1) has the image 2 - 3w + w^2 under w = e(z/2), with
# roots 1 and 2, and each root gives zeros of density 1/2
HALF_STEP_DOC = {
    "f": [
        {"coeff": [2, 0], "freq": "0"},
        {"coeff": [-3, 0], "freq": "1/2"},
        {"coeff": [1, 0], "freq": "1"},
    ],
    "g": [{"coeff": [1, 0], "freq": "1/2"}],
}


@pytest.mark.parametrize(
    "doc, q, residue, bridge, roots",
    [(QUADRATIC_DOC, 1, 5.0, 5.0, 5.0), (HALF_STEP_DOC, 2, 3.0, 1.5, 3.0)],
    ids=["q1", "q2"],
)
def test_laurent_check_agreement(problem_file, capsys, doc, q, residue, bridge, roots):
    path = problem_file(doc)
    env = run_json(["laurent-check", "--input", path], capsys)
    res = env["results"]
    assert res["q"] == q
    assert res["residue_vs_roots"] < 1e-8
    assert res["bridge_vs_roots"] < 1e-9
    assert abs(res["residue_formula_sum"][0] - residue) < 1e-12
    assert abs(res["mean_value_bridge"][0] - bridge) < 1e-12
    assert abs(res["sum_over_roots"][0] - roots) < 1e-9


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


def test_bad_r_list_message(problem_file, capsys):
    path = problem_file(TWO_TERM_DOC)
    with pytest.raises(SystemExit) as exc:
        run(["verify", "--input", path, "--R-list", "2,x"])
    assert exc.value.code == 2
    assert "bad --R-list" in capsys.readouterr().err


def test_runs_in_one_process_print_identical_bytes(problem_file, capsys):
    # run parses with one parser per process: neither other commands, with
    # their own flags and defaults, nor a usage error in between change a report
    path = problem_file(TWO_TERM_DOC)
    argv = ["verify", "--input", path, "--R-list", "1,2"]
    outs = []
    for other in (["zeros", "--input", path, "--R", "2"], ["mean", "--input", path, "--format", "csv"]):
        assert run(argv) == 0
        outs.append(capsys.readouterr().out)
        assert run(other) == 0
        with pytest.raises(SystemExit):
            run(["verify", "--input", path, "--R", "2"])
        capsys.readouterr()
    assert run(argv) == 0
    outs.append(capsys.readouterr().out)
    assert outs[0] and outs[0] == outs[1] == outs[2]


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
    # a float-mode denormal reaches strip_bound; an exact part whose double image
    # underflows to zero stops earlier, where the sum is converted to doubles
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
    expected = "coefficient scale" if mode == "float" else "does not fit a double"
    assert expected in capsys.readouterr().err


def test_float_coefficient_below_double_range_is_input_error(problem_file, capsys):
    tail = [{"coeff": [1, 0], "freq": "1"}, {"coeff": [1, 0], "freq": "2"}]
    path = problem_file({"f": [{"coeff": ["1e-400", 0], "freq": "0"}] + tail})
    assert run(["density", "--input", path, "--R", "2"]) == 2
    assert "below double range" in capsys.readouterr().err
    # one part that stays nonzero keeps the coefficient
    path = problem_file({"f": [{"coeff": ["1e-400", 1], "freq": "0"}] + tail})
    assert run(["density", "--input", path, "--R", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["results"]["span"] == "2"


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
    monkeypatch.setitem(_COMMANDS, "mean", lambda problem, args: {"M": complex(math.nan, 0.0)})
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
    assert run(["laurent-check", "--input", path]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "exact mean value does not fit a double" in captured.err
    assert "use exact mode" not in captured.err


_COMMAND_FLAGS = {
    "mean": [],
    "density": ["--R", "1"],
    "zeros": ["--R", "1"],
    "verify": ["--R-list", "1,2"],
    "laurent-check": [],
}
_ONE_TERM = {"coeff": [1, 0], "freq": "1"}

# (problem, commands, exit code, stderr fragment) for values no double holds
_BEYOND_DOUBLE = {
    # every command reads the frequencies as doubles
    "frequency": (
        {"f": [{"coeff": [1, 0], "freq": "1e400"}, _ONE_TERM]},
        list(_COMMAND_FLAGS), 2, "frequency is beyond double range",
    ),
    # exact mean runs without doubles; the other commands convert f to float mode
    "exact-coeff": (
        {"mode": "exact", "f": [{"coeff": ["1e400", 0], "freq": "0"}, _ONE_TERM]},
        ["density", "zeros", "verify", "laurent-check"], 3, "coefficient does not fit a double",
    ),
    # a nonzero exact coefficient whose double is 0 would vanish from f
    "tiny-exact-coeff": (
        {"mode": "exact", "f": [{"coeff": ["1e-400", 0], "freq": "0"}, _ONE_TERM]},
        ["density", "zeros", "verify", "laurent-check"], 3, "coefficient does not fit a double",
    ),
    # verify sums g at the zeros as a double, as laurent-check images it
    "exact-g-coeff": (
        {"mode": "exact", "f": [{"coeff": [1, 0], "freq": "0"}, _ONE_TERM],
         "g": [{"coeff": ["1e400", 0], "freq": "1/2"}]},
        ["verify", "laurent-check"], 3, "coefficient does not fit a double",
    ),
    # a nonzero exact term of g whose double is 0 would vanish from the sums
    "tiny-exact-g-coeff": (
        {"mode": "exact", "f": [{"coeff": [1, 0], "freq": "0"}, _ONE_TERM],
         "g": [{"coeff": ["1e-400", 0], "freq": "1/2"}, {"coeff": [1, 0], "freq": "0"}]},
        ["verify", "laurent-check"], 3, "coefficient does not fit a double",
    ),
    # the strip bound log 2 / (2 pi 1e-320) is past the largest double
    "strip-bound": (
        {"f": [{"coeff": [1, 0], "freq": "0"}, {"coeff": [1, 0], "freq": "1e-320"}]},
        ["density", "zeros"], 3, "strip bound is beyond double range",
    ),
    # q = 10**320, so neither roots / q nor q * bridge can be formed
    "denominator": (
        {"f": [{"coeff": [1, 0], "freq": "0"}, {"coeff": [1, 0], "freq": "1e-320"}]},
        ["laurent-check"], 2, "common denominator of the frequencies is beyond double range",
    ),
    # the exact mean is 0, but g = e(2001) at the image's roots +-2 is 2**2001
    "root-sum": (
        {
            "mode": "exact",
            "f": [{"coeff": [-4, 0], "freq": "0"}, {"coeff": [1, 0], "freq": "2"}],
            "g": [{"coeff": [1, 0], "freq": "2001"}],
        },
        ["laurent-check"], 3, "root sum does not fit a double",
    ),
    # the mean of g = 1e308 over the zeros of 1 + e(z) is 1e308, but the
    # constant terms carry a factor 2 pi and overflow on the way
    "float-mean": (
        {"f": [{"coeff": [1, 0], "freq": "0"}, _ONE_TERM], "g": [{"coeff": [1e308, 0], "freq": "0"}]},
        ["mean", "verify", "laurent-check"], 3, "mean value is not finite in double precision",
    ),
}


@pytest.mark.parametrize(
    "case, command",
    [(case, c) for case, (_, commands, _, _) in _BEYOND_DOUBLE.items() for c in commands],
)
def test_values_beyond_double_range_exit_code(problem_file, capsys, case, command):
    doc, _, code, message = _BEYOND_DOUBLE[case]
    assert run([command, "--input", problem_file(doc)] + _COMMAND_FLAGS[command]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and message in captured.err


@pytest.mark.parametrize("command", ["mean", "density"])
def test_rational_past_the_digit_limit_exit_code(problem_file, capsys, command):
    # both 4001-digit denominators parse, but the span and the support
    # generators between them have 8002-digit denominators
    doc = {"f": [{"coeff": [1, 0], "freq": "1/" + "3" * 4000 + "1"},
                 {"coeff": [1, 0], "freq": "1/" + "7" * 4000 + "3"}]}
    assert run([command, "--input", problem_file(doc)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    limit = f"{sys.get_int_max_str_digits()}-digit int-to-str limit"
    assert captured.err.count("\n") == 1 and limit in captured.err


def test_exact_coefficient_below_double_range_keeps_the_exact_mean(problem_file, capsys):
    # f = 1e-400 + e(z): the mean of g = 1 is the density 1, with no double in between
    doc = _BEYOND_DOUBLE["tiny-exact-coeff"][0]
    results = run_json(["mean", "--input", problem_file(doc)], capsys)["results"]
    assert results["mean_exact"] == [["1", "0"]]
    assert results["M"] == [1.0, 0.0]


@pytest.mark.parametrize("eps", ["1e-12", "1e-300"])
def test_zeros_with_a_strip_bound_near_double_range(problem_file, capsys, eps):
    # f = 1 + e(eps z) has its zeros at Im z = (2k + 1) / (2 eps), none within R = 1
    doc = {"f": [{"coeff": [1, 0], "freq": "0"}, {"coeff": [1, 0], "freq": eps}]}
    results = run_json(["zeros", "--input", problem_file(doc), "--R", "1"], capsys)["results"]
    assert results["count"] == 0
    assert results["strip_bound"] == pytest.approx(math.log(2) / (2 * math.pi * float(eps)))


@pytest.mark.parametrize("freqs, coeffs, b", [
    (("0", "1/10000", "1"), (1, 1, 3), "1103.18"),
    (("0", "1", "1000001/1000000"), (1, 1, 1), "110318"),
])
def test_strip_too_wide_for_doubles_fails_before_any_contour(
        problem_file, capsys, monkeypatch, freqs, coeffs, b):
    # at Re z = b the coefficient envelope overflows, so no contour on the
    # strip could be evaluated: the search says so instead of winding one
    seen = []
    evaluate_array = zerofind.evaluate_array
    monkeypatch.setattr(zerofind, "evaluate_array", lambda *a: seen.append(a) or evaluate_array(*a))
    path = problem_file({"f": [{"coeff": [c, 0], "freq": q} for c, q in zip(coeffs, freqs)]})
    for argv in (["zeros", "--R", "1"], ["density", "--R", "1"], ["verify", "--R-list", "1,2"]):
        assert run([*argv, "--input", path]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.strip() == (
            f"expmean: numerical failure: f or f' does not fit a double "
            f"at the strip edge |Re z| = {b}")
    assert seen == []


def test_strip_whose_envelope_nears_double_range_is_searched(problem_file, capsys):
    # b = 110.3 and the envelope there is 3.2e301: f and f' still fit a double
    doc = {"f": [{"coeff": [1, 0], "freq": "0"}, {"coeff": [1, 0], "freq": "1/1000"},
                 {"coeff": [3, 0], "freq": "1"}]}
    path = problem_file(doc)
    f = load_problem(path).f
    b = zerofind.strip_bound(f)
    assert b == pytest.approx(110.3, abs=0.05)
    assert float(zerofind.coefficient_envelope(f, b)) == pytest.approx(3.2e301, rel=0.01)
    for argv in (["zeros", "--R", "1"], ["density", "--R", "1"], ["verify", "--R-list", "1,2"]):
        assert run([*argv, "--input", path]) == 0, capsys.readouterr().err
        capsys.readouterr()


# JSON-like values, and the few non-JSON ones a library caller may pass
_ODD_VALUES = st.one_of(
    st.sampled_from([True, False, None, float("nan"), float("inf"), -float("inf"), -0.0,
                     10**400, "1e-400", "1/0", "NaN", "Infinity", 2.0, 0.5, 1e300, 5e-324,
                     complex(1, 2), complex(0.5, 0), "", "x", "3/4"]),
    st.integers(), st.floats(), st.complex_numbers(), st.text(max_size=4),
    st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
)


@settings(max_examples=300)
@given(st.booleans(), _ODD_VALUES, _ODD_VALUES)
def test_every_value_builds_or_is_an_input_error(exact, value, other):
    one = {"coeff": [1, 0], "freq": "1"}
    mode = "exact" if exact else "float"
    calls = {
        "lone coefficient": lambda: exp_sum([(value, 0), (1, 1)], exact=exact),
        "coefficient pair": lambda: exp_sum([((value, other), 0), (1, 1)], exact=exact),
        "frequency": lambda: exp_sum([(1, value), (1, other)], exact=exact),
        "basis": lambda: FrequencyBasis((value,)),
        "problem coeff": lambda: parse_problem(
            {"mode": mode, "f": [{"coeff": [value, other], "freq": "0"}, one]}),
        "problem freq": lambda: parse_problem(
            {"mode": mode, "f": [{"coeff": [1, 0], "freq": value}, one]}),
        "problem basis": lambda: parse_problem(
            {"basis": [value], "f": [{"coeff": [1, 0], "freq": [other]}]}),
        "problem terms": lambda: parse_problem({"mode": mode, "f": [value], "g": value}),
    }
    escaped = []
    for name, call in calls.items():
        try:
            call()
        except InputError:
            pass
        except Exception as exc:  # named, not raised: a huge value makes a huge report
            escaped.append(f"{name}: {type(exc).__name__}")
    assert not escaped


# each value serves as a coefficient part and as a frequency (5e-324 as its
# repr, the only float a frequency string can be)
_EXTREMES = ["1e400", "1e-400", 5e-324, 10**400, "1e-320", "1/1000003", 40, -40, 0, 1]
_EXTREME_TERMS = st.tuples(st.sampled_from(_EXTREMES), st.sampled_from(_EXTREMES))


@settings(max_examples=400)
@given(
    st.sampled_from(["float", "exact"]),
    st.sampled_from(["mean", "laurent-check"]),
    st.lists(_EXTREME_TERMS, min_size=1, max_size=3),
    st.lists(_EXTREME_TERMS, max_size=2),
)
def test_exit_code_contract_on_extreme_values(tmp_path_factory, mode, command, f_terms, g_terms):
    # every input exits 0, 2 or 3; none raises out of run
    def terms(pairs):
        return [{"coeff": [c, 0], "freq": q if isinstance(q, (int, str)) else repr(q)}
                for c, q in pairs]

    path = tmp_path_factory.getbasetemp() / "extreme.json"
    path.write_text(json.dumps({"mode": mode, "f": terms(f_terms), "g": terms(g_terms)}))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = run([command, "--input", str(path)])
        except Exception as exc:  # a value: pytest's report of an escaped one grew past 4 GB
            code = repr(exc)
    assert code in (0, 2, 3)


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


@pytest.mark.parametrize(
    "coeffs, R, depth, declined, message, claimed",
    [
        ([1, 1], "1", 20, lambda box: box.im_max < 0, "could not refine the zero", [(0.5, 1)]),
    ],
    ids=["centre-claim"],
)
def test_search_failures_print_the_claims_so_far(
    problem_file, capsys, monkeypatch, coeffs, R, depth, declined, message, claimed
):
    # Newton declines the boxes around one zero; the zeros it claimed
    # elsewhere follow the error on stderr
    newton = zerofind._newton_refine
    monkeypatch.setattr(
        zerofind, "_newton_refine", lambda ws, box: None if declined(box) else newton(ws, box)
    )
    monkeypatch.setattr(zerofind, "_MAX_DEPTH", depth)
    path = problem_file({"f": [{"coeff": [c, 0], "freq": k} for k, c in enumerate(coeffs)]})
    assert run(["zeros", "--input", path, "--R", R]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    error, partial = captured.err.splitlines()
    assert message in error
    got = json.loads(partial)
    assert [z["multiplicity"] for z in got] == [m for _, m in claimed]
    for z, (im, _) in zip(got, claimed):
        assert abs(complex(z["re"], z["im"]) - 1j * im) < 1e-6


def test_double_zero_newton_declines_is_claimed_at_a_box_centre(problem_file, capsys, monkeypatch):
    # Newton declines every box around the double zero at 0: bisection shrinks
    # that box until no cut line clears the zero, and the box's centre claims it
    newton = zerofind._newton_refine
    monkeypatch.setattr(
        zerofind, "_newton_refine", lambda ws, box: None if box.contains(0j) else newton(ws, box)
    )
    path = problem_file({"f": [{"coeff": [c, 0], "freq": k} for k, c in enumerate([1, -2, 1])]})
    assert run(["zeros", "--input", path, "--R", "1.3"]) == 0
    got = json.loads(capsys.readouterr().out)["results"]["zeros"]
    assert [z["multiplicity"] for z in got] == [2, 2, 2]
    for z, im in zip(got, (-1, 0, 1)):
        assert abs(complex(z["re"], z["im"]) - 1j * im) < 1e-6


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
