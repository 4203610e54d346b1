"""Exact coefficient arithmetic.

``GaussianRational`` -- complex numbers with ``Fraction`` real and
imaginary parts, closed under +, -, *, / -- is the coefficient type of
exact-mode exponential sums.  Differentiation would put a transcendental
factor 2*pi*a on each term, so exact sums are never differentiated: the
mean-value engine reads that factor as one rational coordinate per basis
element instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import InputError

RationalLike = Union[int, str, Fraction]


def as_fraction(x) -> Fraction:
    """Parse an exact rational from an int, Fraction, or 'p/q' string; not a bool."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"not an exact rational: {x!r}") from exc
    raise InputError(f"not an exact rational: {x!r}")


@dataclass(frozen=True)
class GaussianRational:
    """Complex number with exact rational real and imaginary parts."""

    re: Fraction
    im: Fraction

    @staticmethod
    def of(re: RationalLike = 0, im: RationalLike = 0) -> "GaussianRational":
        return GaussianRational(as_fraction(re), as_fraction(im))

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __add__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __truediv__(self, other: "GaussianRational") -> "GaussianRational":
        d = other.re * other.re + other.im * other.im
        if d == 0:
            raise ZeroDivisionError("division by zero GaussianRational")
        return GaussianRational(
            (self.re * other.re + self.im * other.im) / d,
            (self.im * other.re - self.re * other.im) / d,
        )

    def to_complex(self) -> complex:
        return complex(self.re) + 1j * complex(self.im)

    def __repr__(self) -> str:
        return f"({self.re}{'+' if self.im >= 0 else ''}{self.im}i)"


GR_ZERO = GaussianRational(Fraction(0), Fraction(0))
GR_ONE = GaussianRational(Fraction(1), Fraction(0))


# The benchmark's tracer counts exact coefficient products by patching
# ``ExactCoeff.__mul__``; this alias is its only reader and goes once the
# tracer reads counters from the library.
ExactCoeff = GaussianRational
