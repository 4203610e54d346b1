"""Output checks against references computed independently of ``expmean``.

* Zeros of the two-term sums and of the Laurent images come in closed
  form; residuals are recomputed with mpmath.
* Mean values come from the power-series inversion recurrence
  r_alpha = -sum_i c_i r_{alpha - d_i} evaluated with mpmath at 40
  digits, a different algorithm from the program's geometric series.
  The same recurrence on absolute values gives the sum of the sizes of
  the series terms; over the size of the mean it is the condition number
  ``cond`` by which rounding in a double-precision series is amplified.
* Laurent root sums are recomputed with ``numpy.roots``.

Every check returns a list of error strings (empty when the output is
correct) and the correct decimal digits of each compared value.
"""

from __future__ import annotations

from fractions import Fraction

import mpmath
import numpy as np

DIGITS_CAP = 16.0
# least digits an output needs to count as correct.  A value summed from a
# double-precision series needs SERIES_DIGITS - log10(cond): on mean-series
# sums of six seeds, 27 float means and the series routes of 41 laurent-check
# runs had digits + log10(cond) of at least 16.3, while the digits alone fell
# to 5.4; exact means always had 16 digits, root sums (the program's and
# numpy.roots') at least 12.9.
MIN_DIGITS = {"zero": 4.0, "mean-exact": 14.0, "roots": 11.0}
SERIES_DIGITS = 13.0


def digits(value, ref) -> float:
    """Correct decimal digits of value against ref, capped at 16."""
    err = abs(mpmath.mpc(value) - ref)
    scale = abs(ref) if ref != 0 else mpmath.mpf(1)
    if err == 0:
        return DIGITS_CAP
    return float(min(DIGITS_CAP, max(0.0, -mpmath.log10(err / scale))))


def _mp(x) -> mpmath.mpf:
    if isinstance(x, str):
        q = Fraction(x)
        return mpmath.mpf(q.numerator) / q.denominator
    return mpmath.mpf(x)


class Sums:
    """The f and g of a problem file as exact frequency vectors and mp coefficients."""

    def __init__(self, problem: dict):
        self.basis = [mpmath.mpf(b) for b in problem.get("basis", ["1"])]
        self.f = self._terms(problem["f"])
        self.g = self._terms(problem.get("g", [{"coeff": [1, 0], "freq": "0"}]))
        self.f.sort(key=lambda t: self.value(t[1]))

    def _terms(self, raw: list) -> list:
        nb = len(self.basis)
        out = []
        for t in raw:
            fr = t["freq"]
            if isinstance(fr, list):
                vec = tuple(Fraction(x) for x in fr)
            else:
                vec = (Fraction(fr),) + (Fraction(0),) * (nb - 1)
            out.append((mpmath.mpc(_mp(t["coeff"][0]), _mp(t["coeff"][1])), vec))
        return out

    def value(self, vec) -> mpmath.mpf:
        return mpmath.fsum(mpmath.mpf(x.numerator) / x.denominator * b
                           for x, b in zip(vec, self.basis))

    def f_at(self, z) -> tuple[mpmath.mpc, mpmath.mpf]:
        """f(z) and its coefficient envelope at Re z."""
        val = mpmath.mpc(0)
        env = mpmath.mpf(0)
        for c, a in self.f:
            v = self.value(a)
            val += c * mpmath.exp(2 * mpmath.pi * v * z)
            env += abs(c) * mpmath.exp(2 * mpmath.pi * v * z.real)
        return val, env


def _sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


class Reference:
    """The mean of g over the zeros of f and the condition number of its series."""

    def __init__(self, problem: dict):
        s = Sums(problem)
        (hi, hi_size), (lo, lo_size) = _end_sum(s, last=True), _end_sum(s, last=False)
        self.value = hi - lo
        self.cond = (hi_size + lo_size) / max(abs(self.value), mpmath.mpf(10) ** -30)

    def series_digits(self) -> float:
        """Least digits a double-precision series value of the mean needs."""
        return SERIES_DIGITS - float(mpmath.log10(max(self.cond, 1)))


def _end_sum(s: Sums, last: bool) -> tuple[mpmath.mpc, mpmath.mpf]:
    """(1/2 pi) times the constant term A at one frequency end of f, and the
    sum of the sizes of its terms (the recurrence run on absolute values)."""
    ce, ae = s.f[-1] if last else s.f[0]
    steps = [(c / ce, _sub(a, ae)) for c, a in s.f if a != ae]
    sign = -1 if last else 1
    memo: dict = {}
    values: dict = {}

    def r(alpha):
        # coefficient of e^{2 pi alpha z} in 1/(f / extreme term), and the
        # same coefficient with every step taken in absolute value
        if alpha in memo:
            return memo[alpha]
        if all(x == 0 for x in alpha):
            out = (mpmath.mpc(1), mpmath.mpf(1))
        else:
            v = values.get(alpha)
            if v is None:
                v = values[alpha] = s.value(alpha)
            if sign * v < 0:
                return (mpmath.mpc(0), mpmath.mpf(0))
            prev = [(c, r(_sub(alpha, d))) for c, d in steps]
            out = (-mpmath.fsum(c * p[0] for c, p in prev),
                   mpmath.fsum(abs(c) * p[1] for c, p in prev))
        memo[alpha] = out
        return out

    total, size = mpmath.mpc(0), mpmath.mpf(0)
    for cg, b in s.g:
        for c, a in s.f:
            target = tuple(-x for x in _sub(tuple(x + y for x, y in zip(b, a)), ae))
            value, value_size = r(target)
            w = cg * (c / ce) * s.value(a)
            total += w * value
            size += abs(w) * value_size
    return total, size


def closed_form_zeros(meta: dict, R: float) -> list[tuple[mpmath.mpc, int]]:
    """Every zero with |Im z| < R of a generated two-term sum or Laurent image."""
    out = []
    two_pi = 2 * mpmath.pi
    if meta["form"] == "two-term":
        basis = [mpmath.mpf(b) for b in meta["basis"]]
        a = mpmath.fsum(x * b for x, b in zip(meta["a"], basis))
        w = -mpmath.mpc(*meta["c0"]) / mpmath.mpc(*meta["c1"])
        families = [(mpmath.log(w) / (two_pi * a), 1 / a, 1)]
    else:
        q = meta["q"]
        families = [(q * mpmath.log(mpmath.mpc(re, im)) / two_pi, mpmath.mpf(q), m)
                    for re, im, m in meta["roots"]]
    for z0, step, mult in families:
        k0 = int(mpmath.floor(-z0.imag / step))
        span = int(R / step) + 2
        for k in range(k0 - span, k0 + span + 1):
            z = z0 + 1j * k * step
            if abs(z.imag) < R:
                out.append((z, mult))
    return out


def window_ok(ims: list[float], n: int, span: float) -> bool:
    """Fewer than n zeros in every horizontal window of height 0.999/span."""
    h = 0.999 / span
    ims = sorted(ims)
    j = 0
    for i in range(len(ims)):
        j = max(j, i)
        while j < len(ims) and ims[j] - ims[i] < h:
            j += 1
        if j - i >= n:
            return False
    return True


def _count_ok(count: int, R: float, meta: dict) -> bool:
    return abs(count - 2.0 * R * meta["span"]) < meta["n"]


def check_zeros(op, res: dict) -> tuple[list[str], list[float]]:
    errors: list[str] = []
    found = [(mpmath.mpc(z["re"], z["im"]), z["multiplicity"]) for z in res["zeros"]]
    R = res["R_used"]
    count = sum(m for _, m in found)
    if count != res["count"]:
        errors.append("count differs from the listed multiplicities")
    if not _count_ok(count, R, op.meta):
        errors.append(f"count {count} too far from 2R'*span")
    if not window_ok([z.imag for z, m in found for _ in range(m)], op.meta["n"], op.meta["span"]):
        errors.append("a window of height 1/span holds n or more zeros")
    ref = closed_form_zeros(op.meta, R)
    if sorted(m for _, m in ref) != sorted(m for _, m in found):
        errors.append(f"{len(found)} zeros found, closed form has {len(ref)}")
        return errors, []
    problem = Sums(op.problem)
    got = []
    unused = list(ref)
    for z, m in found:
        k = min(range(len(unused)), key=lambda i: abs(unused[i][0] - z))
        zr, mr = unused.pop(k)
        got.append(digits(z, zr))
        if mr != m:
            errors.append(f"zero at {z} has multiplicity {m}, closed form {mr}")
        if got[-1] < MIN_DIGITS["zero"]:
            errors.append(f"zero at {z} is {float(abs(z - zr)):.2e} from the closed form")
        val, env = problem.f_at(z)
        if abs(val) > 1e-8 * env:
            errors.append(f"residual {float(abs(val) / env):.2e} at {z}")
    return errors, got


def check_verify(op, res: dict, ref: Reference) -> tuple[list[str], list[float]]:
    errors = []
    for row in res["rows"]:
        if not _count_ok(row["count"], row["R"], op.meta):
            errors.append(f"row R={row['R']}: count {row['count']} too far from 2R'*span")
    got = [digits(mpmath.mpc(*res["symbolic_mean"]), ref.value)]
    if got[0] < ref.series_digits():
        errors.append(f"symbolic mean has {got[0]:.1f} correct digits, "
                      f"needs {ref.series_digits():.1f}")
    return errors, got


def check_mean(op, res: dict, ref: Reference) -> tuple[list[str], list[float]]:
    mode = op.kind
    got = [digits(mpmath.mpc(*res["M"]), ref.value)]
    need = MIN_DIGITS["mean-exact"] if mode == "mean-exact" else ref.series_digits()
    errors = []
    if got[0] < need:
        errors.append(f"{mode} mean has {got[0]:.1f} correct digits, needs {need:.1f}")
    if (res["mean_exact"] is None) != (mode == "mean-float"):
        errors.append("exact vector present in float mode or missing in exact mode")
    return errors, got


def numpy_root_sum(problem: dict) -> complex:
    """Sum of g over the roots of the Laurent image of f (integer frequencies)."""
    def poly(terms):
        return {int(Fraction(t["freq"])): complex(*map(float, t["coeff"])) for t in terms}

    f, g = poly(problem["f"]), poly(problem["g"])
    lo, hi = min(f), max(f)
    coeffs = [f.get(k, 0j) for k in range(hi, lo - 1, -1)]
    return complex(sum(sum(c * r ** k for k, c in g.items()) for r in np.roots(coeffs)))


def check_laurent(op, res: dict, ref: Reference) -> tuple[list[str], list[float]]:
    errors = []
    if res["q"] != 1:
        errors.append(f"q = {res['q']}, the frequencies are integers")
    need = {"mean_value_bridge": ref.series_digits(), "residue_formula_sum": ref.series_digits(),
            "sum_over_roots": MIN_DIGITS["roots"]}
    got = []
    for key, least in need.items():
        got.append(digits(mpmath.mpc(*res[key]), ref.value))
        if got[-1] < least:
            errors.append(f"{key} has {got[-1]:.1f} correct digits, needs {least:.1f}")
    own = digits(numpy_root_sum(op.problem), ref.value)
    if own < MIN_DIGITS["roots"]:
        errors.append(f"numpy.roots root sum agrees with the reference to {own:.1f} digits")
    return errors, got


def check(op, res: dict, refs: dict) -> tuple[list[str], list[float]]:
    """Errors and digits for one op's parsed ``results``, at 40 digits."""
    with mpmath.workdps(40):
        return _check(op, res, refs)


def _check(op, res: dict, refs: dict) -> tuple[list[str], list[float]]:
    if op.kind == "zeros":
        return check_zeros(op, res)
    key = op.meta.get("pair", op.name)
    if key not in refs:
        refs[key] = Reference(op.problem)
    if op.kind == "verify":
        return check_verify(op, res, refs[key])
    if op.kind == "laurent-check":
        return check_laurent(op, res, refs[key])
    return check_mean(op, res, refs[key])


def pair_errors(ops, results: dict, refs: dict) -> list[str]:
    """Float mean against exact mean for every problem run in both modes."""
    by_pair: dict = {}
    for op in ops:
        if op.kind in ("mean-exact", "mean-float") and op.name in results:
            by_pair.setdefault(op.meta["pair"], {})[op.kind] = results[op.name]["M"]
    errors = []
    for pair, ms in by_pair.items():
        if len(ms) == 2 and pair in refs:
            with mpmath.workdps(40):
                d = digits(mpmath.mpc(*ms["mean-float"]), mpmath.mpc(*ms["mean-exact"]))
            if d < refs[pair].series_digits():
                errors.append(f"problem {pair}: float and exact means agree to {d:.1f} digits")
    return errors
