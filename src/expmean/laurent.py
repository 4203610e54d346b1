"""Laurent polynomials with integer exponents: the algebraic cross-check.

For a Laurent polynomial f the sum of g over the zeros of f away from the
origin equals A_n - A_1, where A_1 is the coefficient of 1/z in the series
expansion of g*f'/f in ascending powers and A_n is the same coefficient in
descending powers.  The module computes that difference two independent
ways:

* through the same truncated-series engine the exponential case uses,
  mapping z^k to exp(2*pi*k*z) (the exponential derivative carries the
  factor of z that turns the 1/z coefficient into a constant term), and
* by locating the roots numerically and adding up g's values.

Agreement between the two is the main correctness oracle for the series
engine on commensurate frequencies.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Mapping

import numpy as np

from .errors import InputError, NumericalError, ResourceLimitError
from .meanvalue import constant_term_A
from .sums import DEFAULT_BASIS, End, ExponentialSum, TWO_PI, exp_sum

_CLUSTER_RADIUS = 1e-7
# np.roots builds a companion matrix of this order: at 1024 it takes about
# 4 s on one core and 16 MB, and the cost grows with the cube of the degree
_MAX_DEGREE = 1024


class LaurentPolynomial:
    """Map from integer exponent to complex coefficient; zeros dropped."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[int, complex]):
        clean = {}
        for k, c in terms.items():
            if not isinstance(k, int):
                raise InputError(f"exponent is not an integer: {k!r}")
            c = complex(c)
            if c != 0:
                clean[int(k)] = c
        self.terms: dict[int, complex] = dict(sorted(clean.items()))

    def is_zero(self) -> bool:
        return not self.terms

    def min_exponent(self) -> int:
        if self.is_zero():
            raise InputError("zero polynomial has no exponents")
        return next(iter(self.terms))

    def max_exponent(self) -> int:
        if self.is_zero():
            raise InputError("zero polynomial has no exponents")
        return next(reversed(self.terms))

    def exponent_span(self) -> int:
        return self.max_exponent() - self.min_exponent()

    def evaluate(self, z: complex) -> complex:
        return sum(c * z**k for k, c in self.terms.items())

    def __eq__(self, other) -> bool:
        return isinstance(other, LaurentPolynomial) and self.terms == other.terms

    def __repr__(self) -> str:
        if self.is_zero():
            return "LaurentPolynomial(0)"
        bits = [f"{c!r}*z^{k}" for k, c in self.terms.items()]
        return "LaurentPolynomial(" + " + ".join(bits) + ")"


def laurent(terms: Mapping[int, complex]) -> LaurentPolynomial:
    return LaurentPolynomial(terms)


def roots_nonzero(p: LaurentPolynomial) -> list[tuple[complex, int]]:
    """Roots away from the origin, with multiplicities, sorted by position.

    Total multiplicity always equals the exponent span.  Close roots
    (within 1e-7) are merged into one entry with their count.  A span
    above _MAX_DEGREE raises ResourceLimitError before any work.
    """
    if p.is_zero():
        raise InputError("zero polynomial has no root set")
    span = p.exponent_span()
    if span > _MAX_DEGREE:
        raise ResourceLimitError(f"root solve of degree {span} exceeds the budget of {_MAX_DEGREE}")
    if span == 0:
        return []
    # ascending coefficients of z^{-k_min} * p
    k0 = p.min_exponent()
    coeffs = [0j] * (span + 1)
    for k, c in p.terms.items():
        coeffs[k - k0] = c
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            roots = np.roots(coeffs[::-1])
    except np.linalg.LinAlgError as exc:  # the companion matrix overflowed
        raise NumericalError(f"polynomial root solve failed: {exc}") from exc

    clusters: list[list[complex]] = []
    for z in sorted(map(complex, roots), key=lambda w: (w.real, w.imag)):
        for cl in clusters:
            if abs(z - cl[0]) <= _CLUSTER_RADIUS:
                cl.append(z)
                break
        else:
            clusters.append([z])
    out = [(sum(cl) / len(cl), len(cl)) for cl in clusters]
    out.sort(key=lambda rm: (rm[0].real, rm[0].imag))
    return out


def sum_over_roots(f: LaurentPolynomial, g: LaurentPolynomial) -> complex:
    """Sum of g's values, with multiplicity, over the non-zero roots of f."""
    total = 0j
    for z, mult in roots_nonzero(f):
        total += mult * g.evaluate(z)
    return total


def _exp_image(p: LaurentPolynomial) -> ExponentialSum:
    return exp_sum([(c, Fraction(k)) for k, c in p.terms.items()], DEFAULT_BASIS)


def residue_end_coefficient(f: LaurentPolynomial, g: LaurentPolynomial, end: End) -> complex:
    """Coefficient of 1/z in the series expansion of g*f'/f at one end.

    Under z = exp(2*pi*w) the quantity z*f'(z) becomes the exponential
    derivative scaled by 1/(2*pi), so the 1/z coefficient here is the
    exponential engine's constant term divided by 2*pi.
    """
    if f.is_zero():
        raise InputError("series expansion requires a non-zero denominator")
    if g.is_zero():
        return 0j
    F, G = _exp_image(f), _exp_image(g)
    try:
        return constant_term_A(F, G, end) / TWO_PI
    except NumericalError as exc:
        # the float-mode advice of the series engine does not apply here
        raise NumericalError(
            "residue route overflowed: the Laurent routes run on double-precision images"
        ) from exc


def residue_formula_sum(f: LaurentPolynomial, g: LaurentPolynomial) -> complex:
    """A_n - A_1: the series-engine value of the sum of g over f's roots."""
    a1 = residue_end_coefficient(f, g, End.FIRST)
    an = residue_end_coefficient(f, g, End.LAST)
    return an - a1


def laurent_images(
    f: ExponentialSum, g: ExponentialSum
) -> tuple[LaurentPolynomial, LaurentPolynomial, int]:
    """(F, G, q): the polynomials under w = exp(2*pi*z/q).

    q is the least common denominator of every frequency, so each exponent
    q*a is an integer.  Requires the default rational basis.
    """
    if not f.basis.is_default() or not g.basis.is_default():
        raise InputError("substitution requires the default rational basis")
    if f.is_zero():
        raise InputError("mean value requires a non-zero denominator sum")
    q = math.lcm(*(v.denominator for v in f.freq_values() + g.freq_values()))

    def to_laurent(s: ExponentialSum) -> LaurentPolynomial:
        s = s.to_float_mode()
        terms: dict[int, complex] = {}
        for t in s.terms:
            v = s.basis.value_key(t.freq) * q
            terms[int(v)] = t.coeff
        return LaurentPolynomial(terms)

    return to_laurent(f), to_laurent(g), q


def mean_via_substitution(f: ExponentialSum, g: ExponentialSum) -> complex:
    """Mean value for rational frequencies through the algebraic case.

    Each root of the image polynomial contributes a vertical progression
    of zeros with density 1/q per unit height, so the mean is the root
    sum divided by q.
    """
    F, G, q = laurent_images(f, g)
    if G.is_zero() or F.exponent_span() == 0:
        return 0j
    return sum_over_roots(F, G) / q
