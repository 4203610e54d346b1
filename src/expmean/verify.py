"""Empirical verification of the symbolic mean value.

S(R) is the sum of g over the zeros of f with |Im z| < R, counted with
multiplicity.  The mean value is the limit of S(R)/2R, and the horizontal
boundary integrals stay bounded as R grows, so the empirical mean should
approach the symbolic one like O(1/R).  This module computes S(R)/2R from
located zeros and reports the error trend over a ladder of heights.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass

from .errors import InputError
from .sums import ExponentialSum, evaluate
from .zerofind import _RESIDUAL_TOL, Zero, safe_ordinate, search_zeros

# flat-trend allowance for the median consecutive-error ratio
_TREND_SLACK = 0.9


@dataclass(frozen=True)
class ReportRow:
    R: float
    count: int
    weighted_sum: complex
    empirical_mean: complex
    abs_error: float
    noise_floor: float  # rounding noise: _RESIDUAL_TOL * sum of mult * |g(z)| / 2R


@dataclass(frozen=True)
class ConvergenceReport:
    symbolic_mean: complex
    rows: list[ReportRow]
    verdict: bool
    tolerance: float


def weighted_sum(zeros: list[Zero], g: ExponentialSum) -> complex:
    """Sum of g over the zero list, multiplicities included."""
    return sum((z.multiplicity * evaluate(g, z.location) for z in zeros), 0j)


def _row(zeros: list[Zero], height: float, g: ExponentialSum, symbolic: complex) -> ReportRow:
    """S(h)/2h over the zeros with |Im z| < h, with its error against symbolic."""
    inside = [z for z in zeros if abs(z.location.imag) < height]
    terms = [z.multiplicity * evaluate(g, z.location) for z in inside]
    s = sum(terms, 0j)
    emp = s / (2.0 * height)
    return ReportRow(
        R=height,
        count=sum(z.multiplicity for z in inside),
        weighted_sum=s,
        empirical_mean=emp,
        abs_error=abs(emp - symbolic),
        noise_floor=_RESIDUAL_TOL * sum(map(abs, terms)) / (2.0 * height),
    )


def convergence_report(
    f: ExponentialSum,
    g: ExponentialSum,
    R_list: list[float],
    tol: float = 0.05,
) -> ConvergenceReport:
    """Empirical means along increasing heights against the symbolic value.

    Each rung R gets the height safe_ordinate(f, R).  The strips are
    nested, so one search_zeros under the highest of these lines serves
    the whole ladder, and each row sums g over the zeros below its own
    height.  That is the top rung unless two rungs lie closer than the
    ordinate window.

    The verdict passes when the error at the largest height is below tol
    and the consecutive error ratios do not trend upward.  The boundary
    contribution to S(R)/2R fluctuates quasi-periodically, so over small
    height ladders a genuinely converging error trend can look flat;
    the median ratio therefore only needs to clear 1 minus a small slack
    rather than 1 exactly.  No rate is asserted beyond that, only
    boundedness-driven shrinkage.  In the trend an error at or below the
    row's noise floor counts as zero: a ratio of two rounding errors says
    nothing about convergence.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise InputError(f"tolerance must be finite and positive, got {tol!r}")
    if len(R_list) < 2:
        raise InputError("a convergence report needs at least two heights")
    if any(b <= a for a, b in zip(R_list, R_list[1:])):
        raise InputError("heights must be strictly increasing")
    from .meanvalue import mean_value

    symbolic = mean_value(f, g).float_mean()
    heights = [safe_ordinate(f, r) for r in R_list]
    zeros = search_zeros(f, R_list[heights.index(max(heights))]).zeros
    rows = sorted((_row(zeros, h, g, symbolic) for h in heights), key=lambda row: row.R)
    errors = [0.0 if r.abs_error <= r.noise_floor else r.abs_error for r in rows]
    ratios = []
    for a, b in zip(errors, errors[1:]):
        if a == 0 and b == 0:
            ratios.append(1.0)
        elif b == 0:
            ratios.append(float("inf"))
        else:
            ratios.append(a / b)
    verdict = rows[-1].abs_error < tol and statistics.median(ratios) >= _TREND_SLACK
    return ConvergenceReport(
        symbolic_mean=symbolic, rows=rows, verdict=verdict, tolerance=tol
    )


def fewnomial_check(zeros: list[Zero], n: int, span: float) -> bool:
    """Fewer than n zeros in every horizontal window of height 0.999/span.

    A sum of n terms with frequency span a_n - a_1 admits fewer than n
    zeros in any horizontal strip strictly lower than 1/(a_n - a_1); this
    scans all anchored windows over the sorted imaginary parts.
    """
    if span <= 0:
        raise InputError("frequency span must be positive")
    h = 0.999 / span
    ims = sorted(
        z.location.imag for z in zeros for _ in range(z.multiplicity)
    )
    j = 0
    for i in range(len(ims)):
        if j < i:
            j = i
        while j < len(ims) and ims[j] - ims[i] < h:
            j += 1
        if j - i >= n:
            return False
    return True
