"""Command line front end.

Subcommands
-----------
mean          exact mean value of g over the zeros of f
density       mean number of zeros per unit height
zeros         locate zeros in a horizontal strip numerically
verify        compare the exact mean against strip averages over growing heights
laurent-check rational frequencies only: cross-check the residue route,
              the root sum of the image polynomial, and the mean-value bridge

Every command takes --input (required), --format json|csv and --timing;
density and zeros add --R, and verify --R-list and --tol.  Any other flag
is a usage error (exit 2).

Problem files are JSON objects with keys ``f``, ``g`` (optional, default the
constant 1), ``basis`` (optional, default ``["1"]``) and ``mode`` (optional,
``"float"`` or ``"exact"``, default ``"float"``).  Each term is an object
``{"coeff": [re, im], "freq": ...}`` where a frequency is a rational string
such as ``"3/2"`` or a vector of rational strings matching the basis length.
In exact mode the coefficient parts must be integers or rational strings.

Reports are JSON envelopes with sorted keys and floats printed to 17
significant digits, so a given input always produces identical bytes.
The ``timing`` field stays ``null`` unless ``--timing`` is passed.  A zero
search that fails also prints the zeros it found to stderr as one JSON line.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Sequence

from .errors import ExpmeanError, InputError, NumericalError
from .exact import ExactCoeff, GaussianRational, as_fraction
from .laurent import laurent_images, residue_formula_sum, sum_over_roots
from .meanvalue import mean_value, mean_zero_count
from .sums import ExponentialSum, Frequency, FrequencyBasis, exp_sum, one_sum
from .verify import convergence_report
from .zerofind import search_zeros

VERSION = "0.1.0"


# ---------------------------------------------------------------------------
# problem file parsing


@dataclass(frozen=True)
class Problem:
    f: ExponentialSum
    g: ExponentialSum
    basis: FrequencyBasis
    exact: bool


def _parse_part(raw: Any, exact: bool, where: str) -> Fraction | float:
    """One coefficient part: a Fraction in exact mode, a finite float otherwise."""
    if isinstance(raw, bool) or not isinstance(raw, (int, float, str)):
        raise InputError(f"{where}: expected a number or rational string")
    try:
        # Fraction(float) is exact and rejects NaN and infinities
        value = Fraction(raw) if isinstance(raw, float) else as_fraction(raw)
        if not exact:
            return raw if isinstance(raw, float) else float(value)
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise InputError(f"{where}: need a finite number or rational string, got {raw!r}") from exc
    if isinstance(raw, float) and value.denominator != 1:
        raise InputError(f"{where}: exact mode takes integers or rational strings, not {raw!r}")
    return value


def _parse_term(item: Any, basis: FrequencyBasis, exact: bool, where: str):
    """A ``(coeff, freq)`` pair in the form ``exp_sum`` takes."""
    if not isinstance(item, dict) or set(item) != {"coeff", "freq"}:
        raise InputError(f"{where}: terms are objects with coeff and freq")
    coeff, freq = item["coeff"], item["freq"]
    if not isinstance(coeff, list) or len(coeff) != 2:
        raise InputError(f"{where}: coeff must be a [re, im] pair")
    re, im = (_parse_part(part, exact, where) for part in coeff)
    if isinstance(freq, bool) or not isinstance(freq, (str, int, list)):
        raise InputError(f"{where}: a frequency is a rational string, an integer or a list")
    n = len(basis)
    if isinstance(freq, list) and len(freq) != n:
        raise InputError(f"{where}: frequency vector has {len(freq)} entries, basis has {n}")
    try:
        freq = Frequency.of(freq, n)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"{where}: bad frequency {freq!r}") from exc
    return (GaussianRational(re, im) if exact else complex(re, im)), freq


def _parse_sum(raw: Any, basis: FrequencyBasis, exact: bool, name: str) -> ExponentialSum:
    if not isinstance(raw, list):
        raise InputError(f"{name} must be a list of terms")
    pairs = [_parse_term(item, basis, exact, f"{name}[{i}]") for i, item in enumerate(raw)]
    return exp_sum(pairs, basis=basis, exact=exact)


def parse_problem(data: Any) -> Problem:
    if not isinstance(data, dict):
        raise InputError("problem file must be a JSON object")
    unknown = set(data) - {"basis", "mode", "f", "g"}
    if unknown:
        raise InputError(f"unknown problem keys: {sorted(unknown)}")
    raw_basis = data.get("basis", ["1"])
    # FrequencyBasis rejects an empty list and non-decimal or non-positive values
    if not isinstance(raw_basis, list) or not all(isinstance(b, str) for b in raw_basis):
        raise InputError("basis must be a non-empty list of decimal strings")
    try:
        basis = FrequencyBasis(tuple(raw_basis))
    except (ValueError, ArithmeticError) as exc:
        raise InputError(f"bad basis: {exc}") from exc
    mode = data.get("mode", "float")
    if mode not in ("float", "exact"):
        raise InputError('mode must be "exact" or "float"')
    exact = mode == "exact"
    if "f" not in data:
        raise InputError('problem file needs an "f" entry')
    f = _parse_sum(data["f"], basis, exact, "f")
    if "g" in data:
        g = _parse_sum(data["g"], basis, exact, "g")
    else:
        g = one_sum(basis=basis, exact=exact)
    return Problem(f=f, g=g, basis=basis, exact=exact)


def _coeff_to_json(coeff: Any, exact: bool) -> list:
    if exact:
        assert isinstance(coeff, ExactCoeff)
        return [str(coeff.scalar.re), str(coeff.scalar.im)]
    return [coeff.real, coeff.imag]


def _freq_to_json(freq: Frequency, basis: FrequencyBasis) -> Any:
    if basis.is_default():
        return str(freq.coords[0])
    return [str(c) for c in freq.coords]


def problem_to_dict(problem: Problem) -> dict:
    """Canonical JSON form; parsing it again gives back the same problem."""

    def render(s: ExponentialSum) -> list:
        return [
            {
                "coeff": _coeff_to_json(t.coeff, problem.exact),
                "freq": _freq_to_json(t.freq, problem.basis),
            }
            for t in s.terms
        ]

    return {
        "basis": list(problem.basis.values),
        "mode": "exact" if problem.exact else "float",
        "f": render(problem.f),
        "g": render(problem.g),
    }


def load_problem(path: str) -> Problem:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc
    return parse_problem(data)


# ---------------------------------------------------------------------------
# deterministic rendering


def _format_float(x: float) -> str:
    if x != x or x in (float("inf"), float("-inf")):
        raise NumericalError("cannot serialize a non-finite number")
    s = f"{x:.17g}"
    # keep integral values typed as floats on reload
    if "." not in s and "e" not in s and "E" not in s:
        s += ".0"
    return s


def render_json(obj: Any) -> str:
    """JSON with sorted keys and floats at 17 significant digits."""
    out: list[str] = []

    def emit(node: Any) -> None:
        if node is None:
            out.append("null")
        elif node is True:
            out.append("true")
        elif node is False:
            out.append("false")
        elif isinstance(node, str):
            out.append(json.dumps(node))
        elif isinstance(node, int):
            out.append(str(node))
        elif isinstance(node, float):
            out.append(_format_float(node))
        elif isinstance(node, complex):
            emit([node.real, node.imag])
        elif isinstance(node, dict):
            out.append("{")
            for i, key in enumerate(sorted(node)):
                if i:
                    out.append(", ")
                out.append(json.dumps(str(key)))
                out.append(": ")
                emit(node[key])
            out.append("}")
        elif isinstance(node, (list, tuple)):
            out.append("[")
            for i, item in enumerate(node):
                if i:
                    out.append(", ")
                emit(item)
            out.append("]")
        else:
            raise TypeError(f"cannot serialize {type(node).__name__}")

    emit(obj)
    return "".join(out)


def _csv_cell(value: Any) -> str:
    if isinstance(value, float):
        return _format_float(value)
    return str(value)


def render_csv(rows: list[list[Any]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for row in rows:
        writer.writerow([_csv_cell(c) for c in row])
    return buf.getvalue()


# ---------------------------------------------------------------------------
# result builders


def _c(z: complex | None) -> list[float] | None:
    return None if z is None else [float(z.real), float(z.imag)]


def _generators_json(gens, basis: FrequencyBasis) -> list:
    return [_freq_to_json(g, basis) for g in gens]


def _exact_vector_json(vec: tuple[GaussianRational, ...] | None) -> Any:
    if vec is None:
        return None
    return [[str(p.re), str(p.im)] for p in vec]


def cmd_mean(problem: Problem, args: argparse.Namespace) -> dict:
    res = mean_value(problem.f, problem.g)
    return {
        "A_first": _c(res.A_first),
        "A_last": _c(res.A_last),
        "M": _c(res.mean),
        "neg_generators": _generators_json(res.neg_generators, problem.basis),
        "pos_generators": _generators_json(res.pos_generators, problem.basis),
        "mean_exact": _exact_vector_json(res.mean_exact),
    }


def cmd_density(problem: Problem, args: argparse.Namespace) -> dict:
    f = problem.f
    density = mean_zero_count(f)
    span = f.terms[-1].freq - f.terms[0].freq
    out: dict[str, Any] = {
        "density": density,
        "span": _freq_to_json(span, problem.basis),
    }
    if args.R is not None:
        found = search_zeros(f, args.R)
        count = sum(z.multiplicity for z in found.zeros)
        empirical = count / (2.0 * found.height)
        out["R_used"] = found.height
        out["count"] = count
        out["empirical_density"] = empirical
        out["abs_error"] = abs(empirical - density)
    return out


def _zeros_json(zeros) -> list:
    return [
        {"re": z.location.real, "im": z.location.imag, "multiplicity": z.multiplicity}
        for z in zeros
    ]


def cmd_zeros(problem: Problem, args: argparse.Namespace) -> dict:
    if args.R is None:
        raise InputError("zeros needs --R")
    found = search_zeros(problem.f, args.R)
    return {
        "R_used": found.height,
        "strip_bound": found.strip,
        "outer_winding": found.outer_winding,
        "count": sum(z.multiplicity for z in found.zeros),
        "zeros": _zeros_json(found.zeros),
    }


def cmd_verify(problem: Problem, args: argparse.Namespace) -> dict:
    if not args.R_list:
        raise InputError("verify needs --R-list")
    report = convergence_report(problem.f, problem.g, args.R_list, tol=args.tol)
    rows = [
        {
            "R": r.R,
            "count": r.count,
            "weighted_sum": _c(r.weighted_sum),
            "empirical_mean": _c(r.empirical_mean),
            "abs_error": r.abs_error,
        }
        for r in report.rows
    ]
    return {
        "symbolic_mean": _c(report.symbolic_mean),
        "tolerance": report.tolerance,
        "rows": rows,
        "verdict": "pass" if report.verdict else "fail",
        "final_abs_error": report.rows[-1].abs_error,
    }


def cmd_laurent_check(problem: Problem, args: argparse.Namespace) -> dict:
    F, G, q = laurent_images(problem.f, problem.g)
    if G.is_zero() or F.exponent_span() == 0:
        residue = 0j
        roots = 0j
    else:
        residue = residue_formula_sum(F, G)
        roots = sum_over_roots(F, G)
    bridge = mean_value(problem.f, problem.g).float_mean()
    return {
        "q": q,
        "residue_formula_sum": _c(residue),
        "sum_over_roots": _c(roots),
        "mean_value_bridge": _c(bridge),
        "residue_vs_roots": abs(residue - roots),
        "bridge_vs_roots": abs(bridge - roots / q),
    }


_COMMANDS = {
    "mean": cmd_mean,
    "density": cmd_density,
    "zeros": cmd_zeros,
    "verify": cmd_verify,
    "laurent-check": cmd_laurent_check,
}


# ---------------------------------------------------------------------------
# csv projections of each result


def _result_rows(command: str, results: dict) -> list[list[Any]]:
    if command == "zeros":
        rows: list[list[Any]] = [["re", "im", "multiplicity"]]
        for z in results["zeros"]:
            rows.append([z["re"], z["im"], z["multiplicity"]])
        return rows
    if command == "verify":
        rows = [["R", "count", "empirical_re", "empirical_im", "abs_error"]]
        for r in results["rows"]:
            rows.append(
                [r["R"], r["count"], r["empirical_mean"][0], r["empirical_mean"][1], r["abs_error"]]
            )
        return rows
    rows = [["key", "value"]]
    for key in sorted(results):
        value = results[key]
        if isinstance(value, list) and len(value) == 2 and all(
            isinstance(p, float) for p in value
        ):
            rows.append([key, _format_float(value[0]) + "+" + _format_float(value[1]) + "j"])
        elif isinstance(value, (int, float, str)):
            rows.append([key, value])
        else:
            rows.append([key, json.dumps(value, sort_keys=True, default=str)])
    return rows


# ---------------------------------------------------------------------------
# argument parsing and dispatch


def _parse_r_list(raw: str) -> list[float]:
    try:
        values = [float(part) for part in raw.split(",") if part.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad --R-list {raw!r}") from exc
    if not values:
        raise argparse.ArgumentTypeError("empty --R-list")
    return values


_FLAGS = {
    "--input": dict(required=True, help="problem file (JSON)"),
    "--format": dict(choices=("json", "csv"), default="json"),
    "--timing": dict(action="store_true", help="fill the timing field (off: stable output bytes)"),
    "--R": dict(type=float, help="strip half-height"),
    "--R-list": dict(type=_parse_r_list, help="comma separated strip half-heights"),
    "--tol": dict(type=float, default=0.05, help="verification tolerance"),
}

# (help, flags read by the command beyond --input, --format and --timing)
_SUBCOMMANDS = {
    "mean": ("exact mean value of g over the zeros of f", ()),
    "density": ("mean number of zeros per unit height", ("--R",)),
    "zeros": ("locate zeros inside a strip", ("--R",)),
    "verify": ("compare exact mean against strip averages", ("--R-list", "--tol")),
    "laurent-check": ("cross-check the rational-frequency routes", ()),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="expmean", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"expmean {VERSION}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, flags) in _SUBCOMMANDS.items():
        # no prefix matching, which would read verify --R as --R-list
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        for flag in ("--input", "--format", "--timing") + flags:
            p.add_argument(flag, **_FLAGS[flag])
    return parser


def _inputs_echo(args: argparse.Namespace, problem: Problem) -> dict:
    """Every flag the command parsed, and the problem in canonical form."""
    echo = {key: value for key, value in vars(args).items() if key != "command"}
    echo["problem"] = problem_to_dict(problem)
    return echo


def run(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        problem = load_problem(args.input)
        start = time.perf_counter()
        results = _COMMANDS[args.command](problem, args)
        elapsed = time.perf_counter() - start
        if args.format == "csv":
            report = render_csv(_result_rows(args.command, results))
        else:
            envelope = {
                "command": args.command,
                "inputs": _inputs_echo(args, problem),
                "results": results,
                "timing": elapsed if args.timing else None,
                "version": VERSION,
            }
            report = render_json(envelope) + "\n"
    except InputError as exc:
        print(f"expmean: error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"expmean: numerical failure: {exc}", file=sys.stderr)
        if exc.partial is not None:
            print(render_json(_zeros_json(exc.partial)), file=sys.stderr)
        return 3
    except ExpmeanError as exc:
        print(f"expmean: error: {exc}", file=sys.stderr)
        return 3
    sys.stdout.write(report)
    return 0


def main() -> None:
    sys.exit(run())
