"""Exponential sums with exact real frequencies.

A sum is a finite list of terms ``c * exp(2*pi*a*z)`` with complex ``c`` and
real ``a``.  Frequencies are stored exactly as vectors of rationals over a
user-declared basis of positive reals, so that merging, ordering, and
constant-term extraction never depend on floating-point equality.  The basis
reals themselves enter only through high-precision decimal strings; their
Q-linear independence is asserted by the caller, not verified.

Coefficients come in two modes, carried by the sum and required to match
across operands: ``complex`` floats for numeric pipelines, or
:class:`expmean.exact.ExactCoeff` for exact symbolic identities.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence, Union

import numpy as np

from .errors import InputError
from .exact import ExactCoeff, GaussianRational, GR_ZERO, as_fraction

TWO_PI = 2.0 * math.pi

Coeff = Union[complex, ExactCoeff]


class End(enum.Enum):
    """Which frequency end of a sum an operation works from."""

    FIRST = "first"
    LAST = "last"


class FrequencyBasis:
    """Ordered list of positive reals, each given as a decimal string.

    The default basis is the single value 1, which covers every problem
    whose frequencies are plain rationals.  Basis values should carry at
    least 30 significant digits when they are irrational; the exact
    rational image of the decimal string is what ordering and tie
    detection use.
    """

    __slots__ = ("values", "fraction_values", "float_values", "_key_cache", "__weakref__")

    def __init__(self, values: Sequence[str] = ("1",)):
        if len(values) == 0:
            raise InputError("frequency basis must be non-empty")
        fracs = []
        for s in values:
            try:
                d = Decimal(str(s))
            except InvalidOperation:
                raise InputError(f"basis value is not a decimal string: {s!r}") from None
            f = Fraction(d)
            if f <= 0:
                raise InputError(f"basis values must be positive, got {s!r}")
            fracs.append(f)
        self.values: tuple[str, ...] = tuple(str(s) for s in values)
        self.fraction_values: tuple[Fraction, ...] = tuple(fracs)
        self.float_values: tuple[float, ...] = tuple(float(f) for f in fracs)
        self._key_cache: dict[tuple[Fraction, ...], Fraction] = {}

    def __len__(self) -> int:
        return len(self.values)

    def __eq__(self, other) -> bool:
        return isinstance(other, FrequencyBasis) and self.fraction_values == other.fraction_values

    def __hash__(self) -> int:
        return hash(self.fraction_values)

    def __repr__(self) -> str:
        return f"FrequencyBasis({list(self.values)!r})"

    def is_default(self) -> bool:
        return self.fraction_values == (Fraction(1),)

    def value_key(self, freq: "Frequency") -> Fraction:
        """Exact rational image of a frequency under this basis."""
        coords = freq.coords
        if len(coords) != len(self.fraction_values):
            raise InputError(
                f"frequency has {len(coords)} coordinates, basis has {len(self.fraction_values)}"
            )
        key = self._key_cache.get(coords)
        if key is None:
            key = sum((q * b for q, b in zip(coords, self.fraction_values)), Fraction(0))
            self._key_cache[coords] = key
        return key


DEFAULT_BASIS = FrequencyBasis(("1",))


@dataclass(frozen=True)
class Frequency:
    """Exact frequency: a vector of rationals, one per basis element."""

    coords: tuple[Fraction, ...]

    @staticmethod
    def of(raw, basis_len: int = 1) -> "Frequency":
        """Build from a rational-like scalar or a sequence of them."""
        if isinstance(raw, Frequency):
            return raw
        if isinstance(raw, (int, str, Fraction)):
            coords = [Fraction(0)] * basis_len
            coords[0] = as_fraction(raw)
            return Frequency(tuple(coords))
        coords = tuple(as_fraction(c) for c in raw)
        return Frequency(coords)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def __add__(self, other: "Frequency") -> "Frequency":
        return Frequency(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "Frequency") -> "Frequency":
        return Frequency(tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "Frequency":
        return Frequency(tuple(-a for a in self.coords))

    def __repr__(self) -> str:
        return "Frequency(" + ", ".join(str(c) for c in self.coords) + ")"


@dataclass(frozen=True)
class ExpTerm:
    """One term ``coeff * exp(2*pi*freq*z)``."""

    coeff: Coeff
    freq: Frequency


def _coeff_is_exact(c) -> bool:
    return isinstance(c, ExactCoeff)


def _coerce_coeff(c, exact: bool, basis_len: int) -> Coeff:
    """Normalize assorted coefficient inputs into the active mode's type."""
    if exact:
        if isinstance(c, ExactCoeff):
            if len(c.twopi) != basis_len:
                raise InputError("exact coefficient 2*pi vector length does not match basis")
            return c
        if isinstance(c, GaussianRational):
            return ExactCoeff.plain(c, basis_len)
        if isinstance(c, (int, str, Fraction)):
            return ExactCoeff.plain(GaussianRational.of(c), basis_len)
        if isinstance(c, tuple) and len(c) == 2:
            return ExactCoeff.plain(GaussianRational.of(c[0], c[1]), basis_len)
        raise InputError(f"not an exact coefficient: {c!r}")
    if isinstance(c, ExactCoeff):
        raise InputError("exact coefficient passed to a float-mode sum")
    try:
        if isinstance(c, GaussianRational):
            z = c.to_complex()
        elif isinstance(c, tuple) and len(c) == 2:
            z = complex(_float_part(c[0]), _float_part(c[1]))
        elif isinstance(c, (str, Fraction)):
            z = complex(_float_part(c))
        else:
            z = complex(c)
    except OverflowError as exc:
        raise InputError(f"coefficient {c!r} is beyond double range") from exc
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise InputError(f"coefficient {c!r} is not finite")
    return z


def _float_part(x) -> float:
    return float(as_fraction(x)) if isinstance(x, (str, Fraction)) else float(x)


def _coeff_zero(c) -> bool:
    return c.is_zero() if _coeff_is_exact(c) else c == 0


@dataclass(frozen=True)
class ExponentialSum:
    """Finite exponential sum; terms sorted by strictly increasing frequency.

    The empty term list denotes the zero function.  Instances are immutable
    and safe to share between threads.
    """

    terms: tuple[ExpTerm, ...]
    basis: FrequencyBasis
    exact: bool

    def is_zero(self) -> bool:
        return not self.terms

    def num_terms(self) -> int:
        return len(self.terms)

    def frequencies(self) -> list[Frequency]:
        return [t.freq for t in self.terms]

    def freq_values(self) -> list[Fraction]:
        return [self.basis.value_key(t.freq) for t in self.terms]

    def coefficient_at(self, freq: Frequency) -> Coeff:
        """Coefficient of the given frequency vector (zero if absent)."""
        for t in self.terms:
            if t.freq == freq:
                return t.coeff
        return ExactCoeff.zero(len(self.basis)) if self.exact else 0j

    @cached_property
    def _numeric(self) -> tuple[np.ndarray, np.ndarray]:
        freqs = np.array([float(v) for v in self.freq_values()], dtype=np.float64)
        if self.exact:
            bf = self.basis.float_values
            coeffs = np.array([t.coeff.to_complex(bf) for t in self.terms], dtype=np.complex128)
        else:
            coeffs = np.array([t.coeff for t in self.terms], dtype=np.complex128)
        return freqs, coeffs

    def numeric_parts(self) -> tuple[np.ndarray, np.ndarray]:
        """(frequency float array, coefficient complex array), cached."""
        return self._numeric

    def to_float_mode(self) -> "ExponentialSum":
        """Same sum with complex-float coefficients."""
        if not self.exact:
            return self
        bf = self.basis.float_values
        raw = [ExpTerm(t.coeff.to_complex(bf), t.freq) for t in self.terms]
        return normalize(raw, self.basis, exact=False)

    def __add__(self, other: "ExponentialSum") -> "ExponentialSum":
        return add(self, other)

    def __sub__(self, other: "ExponentialSum") -> "ExponentialSum":
        return add(self, negate(other))

    def __mul__(self, other: "ExponentialSum") -> "ExponentialSum":
        return multiply(self, other)

    def __neg__(self) -> "ExponentialSum":
        return negate(self)

    def __repr__(self) -> str:
        if not self.terms:
            return "ExponentialSum(0)"
        bits = [f"{t.coeff!r}*e(2pi*{self.basis.value_key(t.freq)}*z)" for t in self.terms]
        return "ExponentialSum(" + " + ".join(bits) + ")"


def _check_same_basis(a: ExponentialSum, b: ExponentialSum) -> None:
    if a.basis != b.basis:
        raise InputError("operands use different frequency bases")
    if a.exact != b.exact:
        raise InputError("operands mix exact and float coefficient modes")


def normalize(raw_terms: Iterable[ExpTerm], basis: FrequencyBasis, exact: bool) -> ExponentialSum:
    """Merge equal frequencies, drop zero coefficients, sort ascending.

    Idempotent.  Every coefficient must be of the mode ``exact`` names.
    Raises if two distinct frequency vectors collide at the same numeric
    value, which can only happen when the declared basis is not Q-linearly
    independent at the represented precision.
    """
    raw = list(raw_terms)
    for t in raw:
        if _coeff_is_exact(t.coeff) != exact:
            raise InputError("term list mixes exact and float coefficients")
        if len(t.freq.coords) != len(basis):
            raise InputError(
                f"term frequency has {len(t.freq.coords)} coordinates, basis has {len(basis)}"
            )

    merged: dict[tuple[Fraction, ...], Coeff] = {}
    for t in raw:
        key = t.freq.coords
        if key in merged:
            merged[key] = merged[key] + t.coeff
        else:
            merged[key] = t.coeff

    kept = [(Frequency(k), c) for k, c in merged.items() if not _coeff_zero(c)]
    kept.sort(key=lambda fc: basis.value_key(fc[0]))
    for (f1, _), (f2, _) in zip(kept, kept[1:]):
        if basis.value_key(f1) == basis.value_key(f2):
            raise InputError(
                "distinct frequency vectors share one numeric value; "
                "the declared basis is not Q-linearly independent"
            )
    return ExponentialSum(tuple(ExpTerm(c, f) for f, c in kept), basis, exact)


def exp_sum(pairs, basis: FrequencyBasis | None = None, exact: bool = False) -> ExponentialSum:
    """Convenience builder from ``[(coeff, freq), ...]`` pairs.

    ``freq`` may be an int, a 'p/q' string, a Fraction, a coordinate
    sequence, or a Frequency.  Coefficients are coerced into the requested
    mode.
    """
    basis = basis or DEFAULT_BASIS
    n = len(basis)
    raw = [
        ExpTerm(_coerce_coeff(c, exact, n), Frequency.of(f, n))
        for c, f in pairs
    ]
    return normalize(raw, basis, exact)


def zero_sum(basis: FrequencyBasis | None = None, exact: bool = False) -> ExponentialSum:
    return ExponentialSum((), basis or DEFAULT_BASIS, exact)


def one_sum(basis: FrequencyBasis | None = None, exact: bool = False) -> ExponentialSum:
    return exp_sum([(1, 0)], basis, exact)


def evaluate(f: ExponentialSum, z: complex) -> complex:
    """Pointwise value of the sum; overflow yields IEEE infinities."""
    freqs, coeffs = f.numeric_parts()
    if len(freqs) == 0:
        return 0j
    with np.errstate(over="ignore", invalid="ignore"):
        vals = coeffs * np.exp(TWO_PI * freqs * complex(z))
        return complex(vals.sum())


def evaluate_array(f: ExponentialSum, zs: np.ndarray) -> np.ndarray:
    """Vectorized evaluation at an array of complex points."""
    freqs, coeffs = f.numeric_parts()
    zs = np.asarray(zs, dtype=np.complex128)
    if len(freqs) == 0:
        return np.zeros(zs.shape, dtype=np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):
        return np.exp(TWO_PI * np.multiply.outer(zs, freqs)) @ coeffs


def coefficient_envelope(f: ExponentialSum, x: np.ndarray) -> np.ndarray:
    """sum_i |c_i| * exp(2*pi*a_i*x) for real x: a pointwise scale for |f|."""
    freqs, coeffs = f.numeric_parts()
    x = np.asarray(x, dtype=np.float64)
    if len(freqs) == 0:
        return np.zeros(x.shape, dtype=np.float64)
    with np.errstate(over="ignore"):
        return np.exp(TWO_PI * np.multiply.outer(x, freqs)) @ np.abs(coeffs)


def add(a: ExponentialSum, b: ExponentialSum) -> ExponentialSum:
    _check_same_basis(a, b)
    return normalize(list(a.terms) + list(b.terms), a.basis, exact=a.exact)


def negate(f: ExponentialSum) -> ExponentialSum:
    return ExponentialSum(
        tuple(ExpTerm(-t.coeff, t.freq) for t in f.terms), f.basis, f.exact
    )


def derivative(f: ExponentialSum) -> ExponentialSum:
    """Term-wise (c, a) -> (2*pi*a*c, a); zero-frequency terms vanish."""
    out = []
    for t in f.terms:
        key = f.basis.value_key(t.freq)
        if key == 0:
            continue
        if f.exact:
            factor = ExactCoeff(
                GR_ZERO,
                tuple(GaussianRational(q, Fraction(0)) for q in t.freq.coords),
            )
            out.append(ExpTerm(t.coeff * factor, t.freq))
        else:
            out.append(ExpTerm(t.coeff * (TWO_PI * float(key)), t.freq))
    return normalize(out, f.basis, exact=f.exact)


def multiply(a: ExponentialSum, b: ExponentialSum) -> ExponentialSum:
    """Term-list convolution; frequency vectors add componentwise."""
    _check_same_basis(a, b)
    raw = [
        ExpTerm(ta.coeff * tb.coeff, ta.freq + tb.freq)
        for ta in a.terms
        for tb in b.terms
    ]
    return normalize(raw, a.basis, exact=a.exact)


def extreme_term(f: ExponentialSum, end: End) -> ExpTerm:
    if f.is_zero():
        raise InputError("the zero sum has no extreme term")
    return f.terms[0] if end is End.FIRST else f.terms[-1]


def divide_by_extreme_term(f: ExponentialSum, end: End) -> ExponentialSum:
    """f divided by its lowest (FIRST) or highest (LAST) term.

    The result's constant term is set to exactly one; for FIRST all its
    frequencies are >= 0, for LAST all are <= 0.
    """
    ext = extreme_term(f, end)
    one = ExactCoeff.one(len(f.basis)) if f.exact else complex(1.0)
    out = []
    for t in f.terms:
        nf = t.freq - ext.freq
        if t is ext:
            c = one
        elif f.exact:
            c = t.coeff.divide_by_plain(ext.coeff)
        else:
            c = t.coeff / ext.coeff
        out.append(ExpTerm(c, nf))
    return normalize(out, f.basis, exact=f.exact)


def reflect(f: ExponentialSum) -> ExponentialSum:
    """The sum representing z -> f(-z): every frequency negated."""
    return normalize([ExpTerm(t.coeff, -t.freq) for t in f.terms], f.basis, exact=f.exact)
