"""Mean values over the zero set of an exponential sum.

The central quantity is the constant term A of the formal product

    g * f' / (c_k * exp(2*pi*a_k*z)) * (1 / ftilde_k)

where the k-th term is the lowest (FIRST) or highest (LAST) term of f and
ftilde_k is f divided by that term.  Away from the chosen end every other
frequency of ftilde_k lies on one side of zero, so 1/ftilde_k is a formal
series over the semigroup those frequencies generate, and its coefficients
follow from the power-series inversion recurrence in one pass outward from
frequency zero.  Only the finitely many terms within the frequency reach of
g * f' can meet it at frequency 0, so the constant term is well defined.
The pass walks an integer lattice, each coordinate counted in units of its
common denominator, with plain complex or Gaussian-rational coefficients,
and raises ResourceLimitError once it has queued more than
_MAX_SERIES_TERMS points.
The mean value of g over the zeros of f, per unit height of a widening
horizontal window, is

    mean = (A_last - A_first) / (2*pi).

With g = 1 this collapses to the highest frequency minus the lowest, the
mean density of zeros themselves.

Exact mode never forms f', whose factor 2*pi*a is not a Gaussian rational.
Writing each frequency as a = sum_j q_j * basis[j] gives
f' = 2*pi * sum_j basis[j] * D_j f, where D_j f scales each term of f by
its rational coordinate q_j.  So A = 2*pi * sum_j A_j * basis[j], where
A_j is the constant term of the product above with D_j f in place of f',
and the mean has the Gaussian-rational coordinates A_last_j - A_first_j.
"""

from __future__ import annotations

import cmath
import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .errors import InputError, NumericalError, ResourceLimitError
from .exact import GR_ONE, GR_ZERO, GaussianRational
from .sums import (
    End,
    ExpTerm,
    ExponentialSum,
    Frequency,
    FrequencyBasis,
    TWO_PI,
    derivative,
    divide_by_extreme_term,
    extreme_term,
    multiply,
    normalize,
)

CutoffLike = Union[int, float, str, Fraction]

# points one reciprocal series may queue before it gives up
_MAX_SERIES_TERMS = 100_000


def _as_cutoff(c: CutoffLike) -> Fraction:
    if not isinstance(c, (int, float, str, Fraction)):
        raise InputError(f"not a cutoff value: {c!r}")
    try:
        cut = Fraction(c)  # rejects NaN, infinities and malformed strings
    except (ValueError, OverflowError, ZeroDivisionError) as exc:
        raise InputError(f"cutoff must be a finite number, got {c!r}") from exc
    if cut < 0:
        raise InputError(f"cutoff must be non-negative, got {c!r}")
    return cut


@dataclass(frozen=True)
class TruncatedSeries:
    """A formal series kept exactly up to |frequency| <= cutoff."""

    sum: ExponentialSum


@dataclass(frozen=True)
class MeanValueResult:
    # None in exact mode when the exact value does not fit a double
    A_first: Optional[complex]
    A_last: Optional[complex]
    mean: Optional[complex]
    neg_generators: list[Frequency]
    pos_generators: list[Frequency]
    # exact-mode extras, as coordinates over the frequency basis; None when
    # the inputs carry float coefficients.
    # A = 2*pi * sum_j A_exact[j] * basis[j] at each end
    A_first_exact: Optional[tuple[GaussianRational, ...]] = None
    A_last_exact: Optional[tuple[GaussianRational, ...]] = None
    # mean = sum_j mean_exact[j] * basis[j]
    mean_exact: Optional[tuple[GaussianRational, ...]] = None

    def float_mean(self) -> complex:
        """The mean as a double; raises NumericalError when it does not fit one."""
        if self.mean is None:
            raise NumericalError("exact mean value does not fit a double")
        return self.mean


def truncated_reciprocal(
    ftilde: ExponentialSum, end: End, cutoff: CutoffLike
) -> TruncatedSeries:
    """Reciprocal of a sum whose constant term is one, up to the cutoff.

    For end=FIRST every other frequency beta of ftilde must be positive
    (mirrored for LAST).  Writing ftilde = 1 + sum c_beta e(beta), the
    power-series inversion recurrence

        r_0 = 1,    r_alpha = -sum_beta c_beta * r_(alpha - beta)

    fixes each coefficient from ones strictly nearer to frequency zero, so
    one pass over the points of the semigroup generated by the betas, in
    increasing distance from zero up to the cutoff, gives every term.

    The pass runs on an integer lattice: coordinate i is counted in units
    of 1/den[i], the common denominator of the betas' i-th coordinates, and
    distance in units of 1/scale, the common denominator of the basis
    values over den, so points are int tuples and distances ints.  The
    recurrence runs on plain complex or Gaussian-rational scalars.  The
    terms come out in order of distance, so two nonzero ones at one
    distance mean the basis is not Q-linearly independent.  Queuing more
    than _MAX_SERIES_TERMS points raises ResourceLimitError; float mode
    raises NumericalError once a coefficient overflows.
    """
    cut = _as_cutoff(cutoff)
    basis = ftilde.basis
    n = len(basis)
    zero_freq = Frequency((Fraction(0),) * n)
    one = ftilde.coefficient_at(zero_freq)
    if one != (GR_ONE if ftilde.exact else 1):
        raise InputError("reciprocal expansion requires a constant term equal to one")
    zero = GR_ZERO if ftilde.exact else 0j
    sign = 1 if end is End.FIRST else -1
    den = [math.lcm(*(t.freq.coords[i].denominator for t in ftilde.terms)) for i in range(n)]
    units = [b / d for b, d in zip(basis.fraction_values, den)]
    scale = math.lcm(*(u.denominator for u in units))
    weights = [sign * int(u * scale) for u in units]
    int_cut = math.floor(cut * scale)
    steps = []  # (beta on the lattice, its distance from zero, -c_beta)
    for t in ftilde.terms:
        beta = tuple(int(q * d) for q, d in zip(t.freq.coords, den))
        dist = sum(w * b for w, b in zip(weights, beta))
        if dist < 0:
            raise InputError(f"{end.value}-end expansion given a frequency past its end")
        if 0 < dist <= int_cut:
            steps.append((beta, dist, -t.coeff))

    coeffs: dict[tuple[int, ...], Union[complex, GaussianRational]] = {}
    kept = []  # (alpha, r_alpha) for r_alpha != 0, in order of distance
    kept_dist = None
    origin = (0,) * n
    queued = {origin}
    heap = [(0, origin)]
    while heap:
        dist, alpha = heapq.heappop(heap)
        if coeffs:
            r = zero
            for beta, _, neg_c in steps:
                prev = coeffs.get(tuple(a - b for a, b in zip(alpha, beta)))
                if prev is not None:
                    r = r + neg_c * prev
        else:
            r = one
        if not ftilde.exact and not cmath.isfinite(r):
            raise NumericalError("reciprocal series overflowed in float mode; use exact mode")
        coeffs[alpha] = r
        if r != zero:
            if dist == kept_dist:
                raise InputError(
                    "distinct frequency vectors share one numeric value; "
                    "the declared basis is not Q-linearly independent"
                )
            kept.append((alpha, r))
            kept_dist = dist
        for beta, step, _ in steps:
            nxt = tuple(a + b for a, b in zip(alpha, beta))
            if nxt not in queued and dist + step <= int_cut:
                queued.add(nxt)
                if len(queued) > _MAX_SERIES_TERMS:
                    raise ResourceLimitError(
                        f"reciprocal series exceeded its budget of {_MAX_SERIES_TERMS} terms"
                    )
                heapq.heappush(heap, (dist + step, nxt))
    if end is End.LAST:
        kept.reverse()
    terms = tuple(
        ExpTerm(r, Frequency(tuple(Fraction(a, d) for a, d in zip(alpha, den))))
        for alpha, r in kept
    )
    return TruncatedSeries(ExponentialSum(terms, basis, ftilde.exact))


def _derivative_products(f: ExponentialSum, g: ExponentialSum) -> list[ExponentialSum]:
    """[g * f'] in float mode; g * D_j f for each basis coordinate j in exact mode."""
    if not f.exact:
        return [multiply(g, derivative(f))]
    # terms of value 0 vanish from f', as in derivative
    moving = [t for t in f.terms if f.basis.value_key(t.freq) != 0]
    scaled = [[ExpTerm(t.coeff * GaussianRational(t.freq.coords[j], Fraction(0)), t.freq)
               for t in moving] for j in range(len(f.basis))]
    return [multiply(g, normalize(d_j, f.basis, exact=True)) for d_j in scaled]


def _a_value(f: ExponentialSum, products: list[ExponentialSum], end: End):
    """Constant term A at the chosen end from _derivative_products: a complex in
    float mode, the coordinates (A_j) with A = 2*pi * sum_j A_j * basis[j] in exact mode."""
    ext = extreme_term(f, end)
    inv = (GR_ONE if f.exact else 1.0) / ext.coeff
    zero = GR_ZERO if f.exact else 0j
    # each product over the extreme term, as (coefficient, frequency) pairs
    quotients = [[(c, t.freq - ext.freq) for t in p.terms if (c := t.coeff * inv) != zero]
                 for p in products]
    values = [f.basis.value_key(q) for p in quotients for _, q in p]
    coords = [zero] * len(products)
    if values:
        cut = max(Fraction(0), -min(values) if end is End.FIRST else max(values))
        series = truncated_reciprocal(divide_by_extreme_term(f, end), end, cut)
        series_at = {t.freq.coords: t.coeff for t in series.sum.terms}
        for j, p in enumerate(quotients):
            for c, q in p:
                mate = series_at.get((-q).coords)
                if mate is not None:
                    coords[j] = coords[j] + c * mate
    return tuple(coords) if f.exact else coords[0]


def _to_complex_A(coords: tuple[GaussianRational, ...], basis: FrequencyBasis) -> complex:
    """2*pi * sum_j coords[j] * basis[j] as a double."""
    acc = 0j
    for v, b in zip(coords, basis.float_values):
        if not v.is_zero():
            acc += 2.0 * math.pi * b * v.to_complex()
    return acc


def support_semigroup_generators(
    f: ExponentialSum,
) -> tuple[list[Frequency], list[Frequency]]:
    """Difference sets at each end: (lowest - others, highest - others).

    The mean of exp(2*pi*a*z) over the zeros of f can only be nonzero
    when a lies in the semigroup generated by one of these sets.  The terms
    have distinct increasing values, so each list is distinct, nonzero and
    ascending.
    """
    if f.is_zero():
        raise InputError("zero sum has no frequency ends")
    first = f.terms[0].freq
    last = f.terms[-1].freq
    return (
        [first - t.freq for t in reversed(f.terms[1:])],
        [last - t.freq for t in reversed(f.terms[:-1])],
    )


def mean_value(f: ExponentialSum, g: ExponentialSum) -> MeanValueResult:
    """Mean value of g over the zeros of f per unit of window height.

    Exact mode leaves A_first, A_last and mean None where they overflow a double.
    """
    if f.is_zero():
        raise InputError("mean-value computation requires a non-zero denominator sum")
    products = _derivative_products(f, g)
    a_first = _a_value(f, products, End.FIRST)
    a_last = _a_value(f, products, End.LAST)
    neg, pos = support_semigroup_generators(f)
    exact_extras = {}
    if f.exact:
        diff = tuple(last - first for first, last in zip(a_first, a_last))
        exact_extras = dict(A_first_exact=a_first, A_last_exact=a_last, mean_exact=diff)
        try:
            mean = complex(sum(
                (v.to_complex() * b for v, b in zip(diff, f.basis.float_values)), 0j
            ))
            a_first, a_last = _to_complex_A(a_first, f.basis), _to_complex_A(a_last, f.basis)
        except OverflowError:
            a_first = a_last = mean = cmath.inf  # does not fit a double, as below
    else:
        mean = (a_last - a_first) / TWO_PI
    if not all(cmath.isfinite(z) for z in (a_first, a_last, mean)):
        if not exact_extras:
            raise NumericalError("mean value is not finite in double precision")
        a_first = a_last = mean = None
    return MeanValueResult(
        A_first=a_first,
        A_last=a_last,
        mean=mean,
        neg_generators=neg,
        pos_generators=pos,
        **exact_extras,
    )


def mean_zero_count(f: ExponentialSum) -> float:
    """Mean number of zeros per unit height: highest minus lowest frequency."""
    if f.is_zero():
        raise InputError("zero sum has no zero count")
    vals = f.freq_values()
    return float(vals[-1] - vals[0])
