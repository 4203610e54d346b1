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
The pass (truncated_reciprocal) walks the int points of ftilde_k's lattice
and keeps their values in one table, the series.  mean_value puts f and the
products g * f' on one lattice (sums.align), where each product term's mate
is an int point, the cutoff an int, and its coefficient one table read.
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
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterator, Optional, Sequence, Union

from .errors import InputError, NumericalError, ResourceLimitError
from .exact import GR_ONE, GR_ZERO, GaussianRational
from .sums import (
    Coeff,
    End,
    ExponentialSum,
    Frequency,
    FrequencyBasis,
    TWO_PI,
    align,
    derivative,
    divide_by_extreme_term,
    from_points,
    multiply,
    reject_shared_value,
)

CutoffLike = Union[int, float, str, Fraction]

# points one reciprocal series may queue before it gives up
_MAX_SERIES_TERMS = 100_000
# numerator bits one exact series may store; a level adds about log2(D * max|c|)
_MAX_SERIES_BITS = 2**27


def _as_cutoff(c: CutoffLike) -> Fraction:
    if isinstance(c, bool) or not isinstance(c, (int, float, str, Fraction)):
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
    """A formal series kept exactly up to |frequency| <= cutoff: the table of
    truncated_reciprocal's walk, from keys (lattice points with coordinates
    in [-lim, lim]) to values, complex or the exact numerators (Re s, Im s,
    level) of s / denom**level, each read as a coefficient, a zero as none."""

    terms: dict[int, Union[complex, tuple[int, int, int]]]
    den: tuple[int, ...]
    lim: int
    basis: FrequencyBasis
    exact: bool
    denom: int = 1

    def _coeff(self, value) -> Optional[Coeff]:
        """The coefficient a table value stands for, or None for a zero or None."""
        if not (self.exact and value):
            return value or None
        re, im, level = value
        scale = self.denom**level
        return GaussianRational(Fraction(re, scale), Fraction(im, scale)) if re or im else None

    def lookup(self, point: Sequence[int], den: Sequence[int]) -> Optional[Coeff]:
        """The nonzero coefficient at frequency (point[i] / den[i]), or None."""
        key = 0
        for a, d, own in zip(point, den, self.den):
            k, rem = divmod(a * own, d)
            if rem or abs(k) > self.lim:
                return None
            key = key * (2 * self.lim + 1) + k
        return self._coeff(self.terms.get(key))

    @cached_property
    def sum(self) -> ExponentialSum:
        """The series as a sum, built on first read."""
        radix, pairs = 2 * self.lim + 1, []
        for key, value in self.terms.items():
            if (c := self._coeff(value)) is None:
                continue
            point = []  # coordinate n - 1 first
            for _ in self.den:
                key, digit = divmod(key + self.lim, radix)
                point.append(digit - self.lim)
            pairs.append((tuple(reversed(point)), c))
        return from_points(pairs, self.basis, self.den, self.exact)


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


def _walk(moves: list[tuple[int, int]], int_cut: int, table: dict) -> Iterator[tuple[int, int]]:
    """Lattice points other than zero within int_cut of it, as (distance, key).

    moves are the steps as (key, distance > 0).  table, the caller's, holds
    zero and marks each point queued with None until the caller fills it.
    Points come out in order of distance, ties in order of key, each before
    its successors are queued, so a caller that raises on a point does so
    before the budget is checked on the points after it.
    """
    heap = [(0, 0)]
    while heap:
        dist, key = heapq.heappop(heap)
        if dist:
            yield dist, key
        for move, step in moves:
            if dist + step <= int_cut and (nxt := key + move) not in table:
                table[nxt] = None
                if len(table) > _MAX_SERIES_TERMS:
                    raise ResourceLimitError(
                        f"reciprocal series exceeded its budget of {_MAX_SERIES_TERMS} terms"
                    )
                heapq.heappush(heap, (dist + step, nxt))


def truncated_reciprocal(ftilde: ExponentialSum, end: End, cutoff: CutoffLike) -> TruncatedSeries:
    """Reciprocal of a sum whose constant term is one, up to the cutoff.

    For end=FIRST every other frequency beta of ftilde must be positive
    (mirrored for LAST).  Writing ftilde = 1 + sum c_beta e(beta), the
    power-series inversion recurrence

        r_0 = 1,    r_alpha = -sum_beta c_beta * r_(alpha - beta)

    fixes each coefficient from ones strictly nearer to frequency zero, so
    one pass over the points of the semigroup generated by the betas, in
    increasing distance from zero up to the cutoff, gives every term.

    The pass runs on the int points of ftilde's lattice, so distances are
    ints.  A point is one int key, its coordinates as balanced digits in
    radix 2*lim + 1 with coordinate 0 leading, where every point the pass
    reaches or looks up has coordinates in [-lim, lim]:
    a step is one int add, a lookup one int-keyed dict get, and keys order
    as the coordinate tuples do.  Float mode runs the recurrence on complex
    numbers, adding the betas in the order of ftilde's terms.  Exact mode
    runs it on Gaussian-integer numerators
    s_alpha = r_alpha * D**level(alpha), where D is the common denominator
    of the c_beta and level = distance // (smallest beta distance): a step
    raises the level by at least one, so

        s_alpha = sum_beta (D * -c_beta) * D**(level(alpha) - level(alpha - beta) - 1)
                  * s_(alpha - beta)

    needs int arithmetic only, and a GaussianRational is built for each
    term read.  The terms come out in order of distance, so two nonzero
    ones at one distance mean the basis is not Q-linearly independent.
    Past _MAX_SERIES_TERMS queued points or _MAX_SERIES_BITS stored
    numerator bits it raises ResourceLimitError; float mode raises
    NumericalError once a coefficient overflows.
    """
    cut = _as_cutoff(cutoff)
    n = len(ftilde.basis)
    grid, (points,) = align([ftilde])
    one = dict(zip(points, ftilde.coeffs)).get((0,) * n)
    if one != (GR_ONE if ftilde.exact else 1):
        raise InputError("reciprocal expansion requires a constant term equal to one")
    sign = 1 if end is End.FIRST else -1
    int_cut = math.floor(cut * grid.scale)
    steps = []  # (beta as a point, its distance from zero, -c_beta)
    for beta, c in zip(points, ftilde.coeffs):
        dist = sign * grid.value(beta)
        if dist < 0:
            raise InputError(f"{end.value}-end expansion given a frequency past its end")
        if 0 < dist <= int_cut:
            steps.append((beta, dist, -c))

    # a reached point is at most int_cut // least steps from zero, so it and
    # the points one step behind it have coordinates in [-lim, lim]
    least = min((dist for _, dist, _ in steps), default=1)
    lim = (int_cut // least + 1) * max((abs(b) for beta, _, _ in steps for b in beta), default=0)
    radix = 2 * lim + 1
    moves = [(sum(b * radix ** (n - 1 - i) for i, b in enumerate(beta)), dist)
             for beta, dist, _ in steps]
    if ftilde.exact:
        denom = math.lcm(*(p.denominator for _, _, c in steps for p in (c.re, c.im)))
        recur = []  # (move, its level gap g, D * -c_beta times D**(g - 1) and D**g)
        for (move, dist), (_, _, c) in zip(moves, steps):
            gap = dist // least
            re, im = (p.numerator * (denom // p.denominator) for p in (c.re, c.im))
            recur.append((move, gap, tuple((re * denom**k, im * denom**k) for k in (gap - 1, gap))))
        coeffs = {0: (1, 0, 0)}  # key: (Re s_alpha, Im s_alpha, level(alpha))
        get, bits, last = coeffs.get, 0, 0  # last: distance of the last nonzero term
        for dist, key in _walk(moves, int_cut, coeffs):
            level = dist // least
            re = im = 0
            for move, gap, mults in recur:
                prev = get(key - move)
                if prev is not None:
                    pre, pim, plevel = prev
                    ar, ai = mults[level - plevel - gap]
                    re += ar * pre - ai * pim
                    im += ar * pim + ai * pre
            coeffs[key] = (re, im, level)
            bits += re.bit_length() + im.bit_length()
            if bits > _MAX_SERIES_BITS:
                msg = f"exact reciprocal series exceeded its budget of {_MAX_SERIES_BITS} bits"
                raise ResourceLimitError(msg)
            if re or im:
                if dist == last:
                    reject_shared_value()
                last = dist
    else:
        recur, denom = [(move, c) for (move, _), (_, _, c) in zip(moves, steps)], 1
        coeffs = {0: one}
        get, last = coeffs.get, 0
        for dist, key in _walk(moves, int_cut, coeffs):
            r = 0j
            for move, neg_c in recur:
                prev = get(key - move)
                if prev is not None:
                    r = r + neg_c * prev
            if not cmath.isfinite(r):
                raise NumericalError("reciprocal series overflowed in float mode; use exact mode")
            coeffs[key] = r
            if r:
                if dist == last:
                    reject_shared_value()
                last = dist
    return TruncatedSeries(coeffs, grid.den, lim, ftilde.basis, ftilde.exact, denom)


def _derivative_products(f: ExponentialSum, g: ExponentialSum) -> list[ExponentialSum]:
    """[g * f'] in float mode; g * D_j f for each basis coordinate j in exact mode."""
    if not f.exact:
        return [multiply(g, derivative(f))]
    grid, (points,) = align([f])
    # terms of value 0 vanish from f', as in derivative
    moving = [(p, c) for p, c in zip(points, f.coeffs) if grid.value(p)]
    return [multiply(g, from_points([(p, c * GaussianRational(Fraction(p[j], d), Fraction(0)))
                                     for p, c in moving], f.basis, grid.den, exact=True))
            for j, d in enumerate(grid.den)]


def _a_value(f: ExponentialSum, products: list[ExponentialSum], end: End):
    """Constant term A at the chosen end from _derivative_products: a complex in
    float mode, the coordinates (A_j) with A = 2*pi * sum_j A_j * basis[j] in exact mode."""
    k = 0 if end is End.FIRST else -1
    inv = (GR_ONE if f.exact else 1.0) / f.coeffs[k]
    zero = GR_ZERO if f.exact else 0j
    grid, (points, *product_points) = align([f, *products])
    top = points[k]
    # each product term over the extreme one, as (coefficient, point of its mate ext - t)
    quotients = [[(c, tuple(map(operator.sub, top, t)))
                  for t, c0 in zip(pts, p.coeffs) if (c := c0 * inv) != zero]
                 for p, pts in zip(products, product_points)]
    sign = 1 if end is End.FIRST else -1
    reach = max((sign * grid.value(m) for p in quotients for _, m in p), default=None)
    coords = [zero] * len(products)
    if reach is not None:
        cut = Fraction(max(0, reach), grid.scale)
        series = truncated_reciprocal(divide_by_extreme_term(f, end), end, cut)
        for j, p in enumerate(quotients):
            for c, m in p:
                mate = series.lookup(m, grid.den)
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


def support_semigroup_generators(f: ExponentialSum) -> tuple[list[Frequency], list[Frequency]]:
    """Difference sets at each end: (lowest - others, highest - others).

    The mean of exp(2*pi*a*z) over the zeros of f can only be nonzero
    when a lies in the semigroup generated by one of these sets.  The terms
    have distinct increasing values, so each list is distinct, nonzero and
    ascending.
    """
    if f.is_zero():
        raise InputError("zero sum has no frequency ends")
    n = f.num_terms()
    return ([f.difference(0, i) for i in range(n - 1, 0, -1)],
            [f.difference(-1, i) for i in range(n - 2, -1, -1)])


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
    return MeanValueResult(a_first, a_last, mean, neg, pos, **exact_extras)


def mean_zero_count(f: ExponentialSum) -> float:
    """Mean number of zeros per unit height: highest minus lowest frequency."""
    if f.is_zero():
        raise InputError("zero sum has no zero count")
    return f.span
