"""Exponential sums with exact real frequencies.

A sum is a finite list of terms ``c * exp(2*pi*a*z)`` with complex ``c`` and
real ``a``.  Frequencies are exact rational vectors over a basis of positive
reals, given as high-precision decimal strings whose Q-linear independence
the caller asserts.  A sum holds each frequency as an int point of one
Lattice, the coarsest over its terms, so equal sums are equal field by field,
and merging, ordering and ties compare ints, never floats.  Only this module
builds or joins lattices; Frequency, the Fraction vector, serves parsing and
reading a sum's terms.

Coefficients come in two modes, carried by the sum and required to match
across operands: ``complex`` floats for numeric pipelines, or
:class:`expmean.exact.GaussianRational` for exact symbolic identities.
Differentiation is float-only, since 2*pi*a is not a Gaussian rational.

Array evaluation takes one exponential per frequency generator, not per
term: with L_j the lcm of coordinate j's denominators, a_i = sum_j P_ij g_j
for g_j = b_j / L_j and integers P_ij in [0, _MAX_POWER] when that needs
fewer generators than nonzero frequencies (else each nonzero frequency is a
generator), and powers come from repeated products, summed in cache-sized
blocks.  The exponentials at a set of points serve every sum with the same
generators, such as f and a derivative that keeps every nonzero frequency.
As g_j > 0 and P_ij >= 0, partial products lie between 1 and the term, so
they overflow exactly where the direct exponential does; 64 products lose
about 64 eps ~ 7e-15, under the zero search's 1e-13 clearance.  Scalar
``evaluate`` stays direct, so Newton's iterates and the zeros they locate do
not move.
"""

from __future__ import annotations

import enum
import math
import operator
import sys
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation
from fractions import Fraction
from functools import cached_property
from typing import Iterable, NamedTuple, NoReturn, Sequence, Union

import numpy as np

from .errors import InputError, NumericalError
from .exact import GR_ONE, GR_ZERO, GaussianRational, as_fraction

TWO_PI = 2.0 * math.pi
_MAX_POWER = 64
_BLOCK = 8192  # points per block of array evaluation, whose terms stay in cache
_MAX_DOUBLE = int(sys.float_info.max)

Coeff = Union[complex, GaussianRational]


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

    __slots__ = ("values", "fraction_values", "float_values", "_lattices")

    def __init__(self, values: Sequence[str] = ("1",)):
        if len(values) == 0:
            raise InputError("frequency basis must be non-empty")
        fracs, floats = [], []
        for s in values:
            try:
                f = Fraction(Decimal(str(s)))  # NaN and Infinity raise here
                floats.append(float(f))  # and here a value beyond double range
            except (InvalidOperation, ValueError, OverflowError):
                raise InputError(f"basis value {s!r} is not a decimal in double range") from None
            if f <= 0:
                raise InputError(f"basis values must be positive, got {s!r}")
            fracs.append(f)
        self.values: tuple[str, ...] = tuple(str(s) for s in values)
        self.fraction_values: tuple[Fraction, ...] = tuple(fracs)
        self.float_values: tuple[float, ...] = tuple(floats)
        self._lattices: dict[tuple[int, ...], Lattice] = {}

    def __len__(self) -> int:
        return len(self.values)

    def __eq__(self, other) -> bool:
        return isinstance(other, FrequencyBasis) and self.fraction_values == other.fraction_values

    def __hash__(self) -> int:
        return hash(self.fraction_values)

    def __repr__(self) -> str:
        return f"FrequencyBasis({list(self.values)!r})"

    def is_default(self) -> bool:
        return len(self.fraction_values) == 1 and self.fraction_values[0] == 1

    def value_key(self, freq: "Frequency") -> Fraction:
        """Exact rational image of a frequency under this basis."""
        if len(freq.coords) != len(self):
            raise InputError(f"frequency has {len(freq.coords)} coordinates, basis has {len(self)}")
        return sum((q * b for q, b in zip(freq.coords, self.fraction_values)), Fraction(0))

    def lattice(self, den: tuple[int, ...]) -> "Lattice":
        """The lattice with coordinate i in units of 1/den[i], kept per den; its
        scale is the common denominator of the basis values over den."""
        if den not in self._lattices:
            units = [b / d for b, d in zip(self.fraction_values, den)]
            scale = math.lcm(*(u.denominator for u in units))
            weights = tuple(u.numerator * (scale // u.denominator) for u in units)
            self._lattices[den] = Lattice(den, weights, scale)
        return self._lattices[den]


DEFAULT_BASIS = FrequencyBasis(("1",))


@dataclass(frozen=True)
class Frequency:
    """Exact frequency: a vector of rationals, one per basis element."""

    coords: tuple[Fraction, ...]

    @staticmethod
    def of(raw, basis_len: int = 1) -> "Frequency":
        """Build from a rational-like scalar or a list or tuple of them."""
        if isinstance(raw, Frequency):
            return raw
        if isinstance(raw, (list, tuple)):
            return Frequency(tuple(as_fraction(c) for c in raw))
        if not isinstance(raw, (int, str, Fraction)):
            raise InputError(f"not an exact frequency: {raw!r}")
        coords = [Fraction(0)] * basis_len
        coords[0] = as_fraction(raw)  # rejects a bool
        return Frequency(tuple(coords))

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


class Lattice(NamedTuple):
    """Frequencies as int points: coordinate i in units of 1/den[i], and the
    value of a point sum_i k_i * weights[i] in units of 1/scale."""

    den: tuple[int, ...]
    weights: tuple[int, ...]
    scale: int

    def value(self, point: Sequence[int]) -> int:
        return sum(map(operator.mul, point, self.weights))

    def freq(self, point: Sequence[int]) -> Frequency:
        return Frequency(tuple(map(Fraction, point, self.den)))


def reject_shared_value() -> NoReturn:
    """Raise the error for two distinct frequency vectors at one numeric value."""
    raise InputError("distinct frequency vectors share one numeric value; "
                     "the declared basis is not Q-linearly independent")


@dataclass(frozen=True)
class ExpTerm:
    """One term ``coeff * exp(2*pi*freq*z)``."""

    coeff: Coeff
    freq: Frequency


def _coerce_coeff(c, exact: bool) -> Coeff:
    """Read a coefficient -- a GaussianRational, a complex, an (re, im) pair
    or a lone real -- into the active mode's type."""
    if isinstance(c, GaussianRational):
        parts = (c.re, c.im)
    elif isinstance(c, complex):
        parts = (c.real, c.imag)
    else:
        parts = c if isinstance(c, tuple) and len(c) == 2 else (c, 0)
    re, im = (_read_part(p, exact) for p in parts)
    if exact:
        return GaussianRational(re, im)
    try:
        z = complex(float(re), float(im))
    except OverflowError as exc:
        raise InputError(f"coefficient {c!r} is beyond double range") from exc
    if z == 0 and (re != 0 or im != 0):
        raise InputError(f"coefficient {c!r} is below double range")
    return z


def _read_part(x, exact: bool) -> Fraction | float:
    """One coefficient part: a float must be finite, and in exact mode
    integral; anything else goes through as_fraction.  A float-mode float
    passes unchanged, so -0.0 keeps its sign."""
    if not isinstance(x, float):
        return as_fraction(x)
    if not math.isfinite(x):
        raise InputError(f"coefficient part {x!r} is not finite")
    if exact and not x.is_integer():
        raise InputError(f"exact mode takes integers or rational strings, not {x!r}")
    return Fraction(x) if exact else x


@dataclass(frozen=True)
class ExponentialSum:
    """Finite exponential sum; terms sorted by strictly increasing frequency.

    Term i is coeffs[i] * exp(2*pi*a_i*z), a_i the value of points[i] on
    lattice, the coarsest lattice over the terms.  The empty term list
    denotes the zero function.  Instances are immutable and safe to share
    between threads.
    """

    coeffs: tuple[Coeff, ...]
    points: tuple[tuple[int, ...], ...]
    lattice: Lattice
    basis: FrequencyBasis
    exact: bool

    @cached_property
    def terms(self) -> tuple[ExpTerm, ...]:
        """The terms with Frequency vectors, built on first read."""
        return tuple(map(ExpTerm, self.coeffs, map(self.lattice.freq, self.points)))

    def is_zero(self) -> bool:
        return not self.points

    def num_terms(self) -> int:
        return len(self.points)

    def freq_values(self) -> list[Fraction]:
        return [Fraction(self.lattice.value(p), self.lattice.scale) for p in self.points]

    @cached_property
    def span(self) -> float:
        """a_n - a_1 of a nonzero sum, rounded as float(Fraction) rounds it."""
        lat = self.lattice
        return (lat.value(self.points[-1]) - lat.value(self.points[0])) / lat.scale

    def difference(self, i: int, j: int) -> Frequency:
        """Frequency of term i minus that of term j."""
        return self.lattice.freq(tuple(map(operator.sub, self.points[i], self.points[j])))

    def coefficient_at(self, freq: Frequency) -> Coeff:
        """Coefficient of the given frequency vector (zero if absent)."""
        return next((t.coeff for t in self.terms if t.freq == freq), GR_ZERO if self.exact else 0j)

    @cached_property
    def numeric_parts(self) -> tuple[np.ndarray, np.ndarray]:
        """(frequency float array, coefficient complex array): the one float view,
        an exact sum's being that of to_float_mode, so it may raise NumericalError."""
        if self.exact:
            return self.to_float_mode().numeric_parts
        lat = self.lattice
        freqs = np.array([lat.value(p) / lat.scale for p in self.points], dtype=np.float64)
        return freqs, np.array(self.coeffs, dtype=np.complex128)

    @cached_property
    def _generators(self) -> tuple[list[float], list, list[list[tuple[int, int]]]]:
        """(2*pi*g_j; for each j the top power and the powers terms use; for each
        term its (j, P_ij) with P_ij > 0), a_i = sum_j P_ij g_j; see the module docstring."""
        freqs, lat = self.numeric_parts[0], self.lattice
        powers = np.array(self.points, dtype=object).reshape(-1, len(self.basis))  # may pass 2**63
        used = (powers != 0).any(axis=0)
        if np.all((powers >= 0) & (powers <= _MAX_POWER)) and used.sum() < np.count_nonzero(freqs):
            gens = [w / lat.scale for w in lat.weights]
            scales, powers = TWO_PI * np.array(gens)[used], powers[:, used].astype(int)
        else:
            used = freqs != 0
            scales, powers = TWO_PI * freqs[used], np.eye(len(freqs), dtype=int)[:, used]
        factors = [[(j, p) for j, p in enumerate(row) if p] for row in powers.tolist()]
        return scales.tolist(), [(max(col), set(col)) for col in powers.T.tolist()], factors

    def to_float_mode(self) -> "ExponentialSum":
        """Same sum with complex-float coefficients; NumericalError if one does not fit a double."""
        if not self.exact:
            return self
        try:
            coeffs = tuple(_coerce_coeff(c, False) for c in self.coeffs)
        except InputError as exc:
            raise NumericalError("exact coefficient does not fit a double") from exc
        return ExponentialSum(coeffs, self.points, self.lattice, self.basis, False)

    def __add__(self, other: "ExponentialSum") -> "ExponentialSum":
        return add(self, other)

    def __repr__(self) -> str:
        if not self.points:
            return "ExponentialSum(0)"
        bits = [f"{c!r}*e(2pi*{v}*z)" for c, v in zip(self.coeffs, self.freq_values())]
        return "ExponentialSum(" + " + ".join(bits) + ")"


def _check_same_basis(a: ExponentialSum, b: ExponentialSum) -> None:
    if a.basis != b.basis:
        raise InputError("operands use different frequency bases")
    if a.exact != b.exact:
        raise InputError("operands mix exact and float coefficient modes")


def from_points(pairs: Iterable[tuple[tuple[int, ...], Coeff]], basis: FrequencyBasis,
                den: tuple[int, ...], exact: bool) -> ExponentialSum:
    """The sum of (point, coefficient) pairs, coordinate i in units of 1/den[i]:
    every sum is built here.  Equal points merge, adding coefficients in order,
    zero coefficients drop, and the terms sort ascending on the coarsest
    lattice over them.  Two distinct points at one value raise, which only a
    basis that is not Q-linearly independent at its precision allows."""
    lat, merged = basis.lattice(den), {}
    for p, c in pairs:
        prev = merged.get(p)
        merged[p] = c if prev is None else prev + c
    kept = sorted(((lat.value(p), p, c) for p, c in merged.items()
                   if not (c.is_zero() if exact else c == 0)), key=operator.itemgetter(0))
    if any(a[0] == b[0] for a, b in zip(kept, kept[1:])):
        reject_shared_value()
    points = tuple(p for _, p, _ in kept)
    # coordinate i's unit grows by the gcd of den[i] and every point's coordinate i
    grow = tuple(math.gcd(d, *(p[i] for p in points)) for i, d in enumerate(den))
    if any(g > 1 for g in grow):
        den = tuple(map(operator.floordiv, den, grow))
        points = tuple(tuple(map(operator.floordiv, p, grow)) for p in points)
    return ExponentialSum(tuple(c for *_, c in kept), points, basis.lattice(den), basis, exact)


def normalize(raw_terms: Iterable[ExpTerm], basis: FrequencyBasis, exact: bool) -> ExponentialSum:
    """The sum of a term list, merged and sorted as from_points does.
    Idempotent.  Every coefficient must be of the mode ``exact`` names, and
    every frequency's value within double range."""
    terms = list(raw_terms)
    for t in terms:
        if len(t.freq.coords) != len(basis):
            n = len(t.freq.coords)
            raise InputError(f"term frequency has {n} coordinates, basis has {len(basis)}")
    den = tuple(math.lcm(*(t.freq.coords[i].denominator for t in terms)) for i in range(len(basis)))
    lat = basis.lattice(den)
    points = [tuple(q.numerator * (d // q.denominator) for q, d in zip(t.freq.coords, den))
              for t in terms]
    if any(isinstance(t.coeff, GaussianRational) != exact for t in terms):
        raise InputError("term list mixes exact and float coefficients")
    if any(abs(lat.value(p)) > _MAX_DOUBLE * lat.scale for p in points):
        raise InputError("a frequency is beyond double range")
    return from_points(zip(points, (t.coeff for t in terms)), basis, den, exact)


def exp_sum(pairs, basis: FrequencyBasis | None = None, exact: bool = False) -> ExponentialSum:
    """Convenience builder from ``[(coeff, freq), ...]`` pairs.

    ``freq`` may be an int, a 'p/q' string, a Fraction, a coordinate
    list or tuple, or a Frequency.  Coefficients are read into the requested
    mode (see _coerce_coeff).  A frequency whose value is beyond double range
    is an InputError; an error in one term names its index.
    """
    basis = basis or DEFAULT_BASIS
    raw = []
    for i, (c, f) in enumerate(pairs):
        try:
            raw.append(ExpTerm(_coerce_coeff(c, exact), Frequency.of(f, len(basis))))
        except InputError as exc:
            raise InputError(f"term {i}: {exc}") from exc
    return normalize(raw, basis, exact)


def one_sum(basis: FrequencyBasis | None = None, exact: bool = False) -> ExponentialSum:
    return exp_sum([(1, 0)], basis, exact)


def evaluate(f: ExponentialSum, z: complex) -> complex:
    """Pointwise value of the sum; overflow yields IEEE infinities."""
    freqs, coeffs = f.numeric_parts
    if len(freqs) == 0:
        return 0j
    with np.errstate(over="ignore", invalid="ignore"):
        vals = coeffs * np.exp(TWO_PI * freqs * complex(z))
        return complex(vals.sum())


class Exponentials(NamedTuple):
    """Points w and exp(s * w) for each generator scale s of a sum."""

    points: np.ndarray
    scales: list[float]
    values: list[np.ndarray]


def generator_exponentials(f: ExponentialSum, w: np.ndarray) -> Exponentials:
    """exp(2*pi*g_j*w) for each generator g_j of f: all that array evaluation exponentiates."""
    scales = f._generators[0]
    with np.errstate(over="ignore", invalid="ignore"):
        xs = (s * w for s in scales)  # in place, but a 0-d w gives scalars, not arrays
        return Exponentials(w, scales, [np.exp(x, out=x) if x.ndim else np.exp(x) for x in xs])


def _power_sum(f: ExponentialSum, e: Exponentials, coeffs: np.ndarray) -> np.ndarray:
    """sum_i coeffs[i] * prod_j u_j**P_ij for the generator exponentials u_j of f
    in e, _BLOCK points at a time: a block's powers (those terms use) and terms stay in cache."""
    _, needs, factors = f._generators
    out = np.zeros(e.points.shape, np.result_type(e.points, coeffs))
    if out.size <= _BLOCK:  # one block, the whole array
        blocks = [(e.values, out)]
    else:  # each element is summed 0 + its first term + ..., as in one block
        values = [u.reshape(-1) for u in e.values]
        blocks = [([u[s:s + _BLOCK] for u in values], out.reshape(-1)[s:s + _BLOCK])
                  for s in range(0, out.size, _BLOCK)]
    with np.errstate(over="ignore", invalid="ignore"):
        for values, acc in blocks:
            tables = []
            for u, (top, used) in zip(values, needs):
                cur, table = u, {1: u}
                for p in range(2, top + 1):
                    cur = cur * u
                    if p in used:
                        table[p] = cur
                tables.append(table)
            for c, row in zip(coeffs, factors):
                for j, p in row:
                    c = c * tables[j][p]
                acc += c
    return out


def evaluate_array(f: ExponentialSum, zs: np.ndarray | Exponentials) -> np.ndarray:
    """Vectorized evaluation at an array of complex points, one exponential
    per generator: off the term-by-term sum by about eps * max|2*pi*a*z|
    times the coefficient envelope, and non-finite where that sum is.  zs may
    be the Exponentials of points; they are read when their scales are f's."""
    if not (isinstance(zs, Exponentials) and zs.scales == f._generators[0]):
        zs = generator_exponentials(f, np.asarray(getattr(zs, "points", zs), dtype=np.complex128))
    return _power_sum(f, zs, f.numeric_parts[1])


def coefficient_envelope(f: ExponentialSum, x: np.ndarray) -> np.ndarray:
    """sum_i |c_i| * exp(2*pi*a_i*x) for real x: a pointwise scale for |f|."""
    x = np.asarray(x, dtype=np.float64)
    return _power_sum(f, generator_exponentials(f, x), np.abs(f.numeric_parts[1]))


def align(sums: Sequence[ExponentialSum]) -> tuple[Lattice, list[tuple[tuple[int, ...], ...]]]:
    """The join of the sums' lattices, whose unit on each coordinate is the
    finest of theirs, and each sum's points on it; of one sum, its own lattice
    and points.  The sums share one basis."""
    den = tuple(map(math.lcm, *(s.lattice.den for s in sums)))
    mults = [tuple(map(operator.floordiv, den, s.lattice.den)) for s in sums]
    return sums[0].basis.lattice(den), [s.points if s.lattice.den == den else
                                        tuple(tuple(map(operator.mul, p, m)) for p in s.points)
                                        for s, m in zip(sums, mults)]


def add(a: ExponentialSum, b: ExponentialSum) -> ExponentialSum:
    _check_same_basis(a, b)
    lat, (pa, pb) = align([a, b])
    return from_points(zip(pa + pb, a.coeffs + b.coeffs), a.basis, lat.den, a.exact)


def derivative(f: ExponentialSum) -> ExponentialSum:
    """Term-wise (c, a) -> (2*pi*a*c, a); zero-frequency terms vanish.

    Float mode only: 2*pi*a is not a Gaussian rational.
    """
    if f.exact:
        raise InputError("an exact sum has no exact derivative; convert it with to_float_mode")
    lat = f.lattice
    out = [(p, c * (TWO_PI * (v / lat.scale)))
           for p, c in zip(f.points, f.coeffs) if (v := lat.value(p))]
    return from_points(out, f.basis, lat.den, exact=False)


def multiply(a: ExponentialSum, b: ExponentialSum) -> ExponentialSum:
    """Term-list convolution; frequency points add componentwise."""
    _check_same_basis(a, b)
    lat, (pa, pb) = align([a, b])
    raw = [(tuple(map(operator.add, p, q)), c * d)
           for p, c in zip(pa, a.coeffs) for q, d in zip(pb, b.coeffs)]
    return from_points(raw, a.basis, lat.den, a.exact)


def _end_index(f: ExponentialSum, end: End) -> int:
    if f.is_zero():
        raise InputError("the zero sum has no extreme term")
    return 0 if end is End.FIRST else -1


def extreme_term(f: ExponentialSum, end: End) -> ExpTerm:
    return f.terms[_end_index(f, end)]


def divide_by_extreme_term(f: ExponentialSum, end: End) -> ExponentialSum:
    """f divided by its lowest (FIRST) or highest (LAST) term.

    The result's constant term is set to exactly one; for FIRST all its
    frequencies are >= 0, for LAST all are <= 0.
    """
    k = _end_index(f, end)
    ext, top = f.coeffs[k], f.points[k]
    one = GR_ONE if f.exact else complex(1.0)
    out = [(tuple(map(operator.sub, p, top)), one if p == top else c / ext)
           for p, c in zip(f.points, f.coeffs)]
    return from_points(out, f.basis, f.lattice.den, f.exact)
