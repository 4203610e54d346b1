"""Exact coefficient arithmetic.

Two layers:

* ``GaussianRational`` -- complex numbers with ``Fraction`` real and
  imaginary parts, closed under +, -, *, /.
* ``ExactCoeff`` -- the coefficient ring actually carried by exact-mode
  exponential sums.  A value is ``scalar + 2*pi * sum_j twopi[j]*basis[j]``,
  where ``basis`` is the list of real numbers the frequency basis declares.
  The ``twopi`` vector is what a single differentiation produces (each term
  picks up a factor ``2*pi*frequency``), and one such factor per product is
  all the mean-value pipeline ever needs.  Multiplying two coefficients that
  both carry a ``twopi`` part would require products of basis reals, which
  are not expressible exactly, so it raises.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import InputError

RationalLike = Union[int, str, Fraction]


def as_fraction(x) -> Fraction:
    """Parse an exact rational from an int, Fraction, or 'p/q' string."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
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


@dataclass(frozen=True)
class ExactCoeff:
    """scalar + 2*pi * (twopi . basis), with Gaussian-rational components.

    ``twopi`` has one entry per basis element.  The plain embedding of a
    rational coefficient has an all-zero ``twopi`` vector.
    """

    scalar: GaussianRational
    twopi: tuple[GaussianRational, ...]

    @staticmethod
    def plain(value: GaussianRational, basis_len: int) -> "ExactCoeff":
        return ExactCoeff(value, (GR_ZERO,) * basis_len)

    @staticmethod
    def zero(basis_len: int) -> "ExactCoeff":
        return ExactCoeff.plain(GR_ZERO, basis_len)

    @staticmethod
    def one(basis_len: int) -> "ExactCoeff":
        return ExactCoeff.plain(GR_ONE, basis_len)

    def has_twopi(self) -> bool:
        return any(not v.is_zero() for v in self.twopi)

    def is_zero(self) -> bool:
        return self.scalar.is_zero() and not self.has_twopi()

    def is_one(self) -> bool:
        return self.scalar == GR_ONE and not self.has_twopi()

    def __add__(self, other: "ExactCoeff") -> "ExactCoeff":
        return ExactCoeff(
            self.scalar + other.scalar,
            tuple(a + b for a, b in zip(self.twopi, other.twopi)),
        )

    def __sub__(self, other: "ExactCoeff") -> "ExactCoeff":
        return self + (-other)

    def __neg__(self) -> "ExactCoeff":
        return ExactCoeff(-self.scalar, tuple(-v for v in self.twopi))

    def __mul__(self, other: "ExactCoeff") -> "ExactCoeff":
        if self.has_twopi() and other.has_twopi():
            raise InputError(
                "exact coefficients support at most one derivative factor "
                "per product (a second would square a transcendental scale)"
            )
        return ExactCoeff(
            self.scalar * other.scalar,
            tuple(
                self.scalar * b + a * other.scalar
                for a, b in zip(self.twopi, other.twopi)
            ),
        )

    def divide_by_plain(self, other: "ExactCoeff") -> "ExactCoeff":
        """Divide by a coefficient with no 2*pi part."""
        if other.has_twopi():
            raise InputError("cannot divide exactly by a derivative-scaled coefficient")
        return ExactCoeff(
            self.scalar / other.scalar,
            tuple(v / other.scalar for v in self.twopi),
        )

    def to_complex(self, basis_floats: tuple[float, ...]) -> complex:
        import math

        acc = self.scalar.to_complex()
        for v, b in zip(self.twopi, basis_floats):
            if not v.is_zero():
                acc += 2.0 * math.pi * b * v.to_complex()
        return acc
