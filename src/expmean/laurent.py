"""Laurent polynomials with integer exponents: the algebraic cross-check.

For a Laurent polynomial f the sum of g over the zeros of f away from the
origin equals A_n - A_1, where A_1 is the coefficient of 1/z in the series
expansion of g*f'/f in ascending powers and A_n is the same coefficient in
descending powers.  Under w = exp(2*pi*z/q) an exponential sum with
rational frequencies of common denominator q becomes such a polynomial:
``laurent_images`` builds the images, and ``sum_over_roots`` locates their
roots numerically and adds up g's values.  The series value is formed
elsewhere, by the ``laurent-check`` command, as q * ``mean_value(f, g)``;
agreement between that and the root sum is the main correctness oracle
for the series engine on commensurate frequencies.

The root solve returns every root as often as its multiplicity, so the sum
needs no multiplicities and never has to tell a multiple root from a
cluster of close simple ones.
"""

from __future__ import annotations

import sys
from typing import Mapping

import numpy as np

from .errors import InputError, NumericalError, ResourceLimitError
from .sums import ExponentialSum, align

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

    def exponent_span(self) -> int:
        """Highest exponent minus lowest."""
        if self.is_zero():
            raise InputError("zero polynomial has no exponents")
        return next(reversed(self.terms)) - next(iter(self.terms))

    def evaluate(self, z: complex) -> complex:
        return sum(c * z**k for k, c in self.terms.items())

    def __eq__(self, other) -> bool:
        return isinstance(other, LaurentPolynomial) and self.terms == other.terms

    def __repr__(self) -> str:
        if self.is_zero():
            return "LaurentPolynomial(0)"
        bits = [f"{c!r}*z^{k}" for k, c in self.terms.items()]
        return "LaurentPolynomial(" + " + ".join(bits) + ")"


def roots_nonzero(p: LaurentPolynomial) -> list[complex]:
    """Roots away from the origin, repeated by multiplicity, sorted by position.

    There are always exactly exponent-span of them.  A span above
    _MAX_DEGREE raises ResourceLimitError before any work, and a solve that
    returns a root of 0, or one that is not finite, raises NumericalError:
    in doubles the polynomial has no such root set.
    """
    if p.is_zero():
        raise InputError("zero polynomial has no root set")
    span = p.exponent_span()
    if span > _MAX_DEGREE:
        raise ResourceLimitError(f"root solve of degree {span} exceeds the budget of {_MAX_DEGREE}")
    if span == 0:
        return []
    # ascending coefficients of z^{-k_min} * p
    k0 = next(iter(p.terms))
    coeffs = [0j] * (span + 1)
    for k, c in p.terms.items():
        coeffs[k - k0] = c
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            roots = np.roots(coeffs[::-1])
    except np.linalg.LinAlgError as exc:  # the companion matrix overflowed
        raise NumericalError(f"polynomial root solve failed: {exc}") from exc
    for w in roots[(roots == 0) | ~np.isfinite(roots)]:
        raise NumericalError(f"polynomial root solve gave {complex(w)}: no finite non-zero double")
    return sorted(map(complex, roots), key=lambda w: (w.real, w.imag))


def sum_over_roots(f: LaurentPolynomial, g: LaurentPolynomial) -> complex:
    """Sum of g's values, with multiplicity, over the non-zero roots of f;
    0 without a root solve when g is zero or f has a single term."""
    if g.is_zero() or f.exponent_span() == 0:
        return 0j
    total = 0j
    try:
        for z in roots_nonzero(f):
            total += g.evaluate(z)
    except OverflowError as exc:  # a power of a root beyond double range
        raise NumericalError("root sum does not fit a double") from exc
    return total


def laurent_images(
    f: ExponentialSum, g: ExponentialSum
) -> tuple[LaurentPolynomial, LaurentPolynomial, int]:
    """(F, G, q): the polynomials under w = exp(2*pi*z/q).

    q is the least common denominator of every frequency, so each exponent
    q*a is an integer; a q beyond double range is an InputError.  Requires
    the default rational basis.
    """
    if not f.basis.is_default() or not g.basis.is_default():
        raise InputError("substitution requires the default rational basis")
    if f.is_zero():
        raise InputError("mean value requires a non-zero denominator sum")
    grid, points = align([f, g])
    q = grid.den[0]
    if q > sys.float_info.max:
        raise InputError("the common denominator of the frequencies is beyond double range")
    f_poly, g_poly = (LaurentPolynomial({p[0]: c for p, c in zip(pts, s.to_float_mode().coeffs)})
                      for s, pts in zip((f, g), points))
    return f_poly, g_poly, q
