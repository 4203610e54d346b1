"""Numerical zero location for exponential sums by the argument principle.

Every zero of a sum with at least two terms lies in an explicit vertical
strip |Re z| < B: once the extreme term is factored out, the remaining
tail is < 1 in modulus beyond the strip, so the sum cannot vanish there.
Inside the strip the zeros with |Im z| < R are isolated by recursive
rectangle bisection driven by boundary winding counts, refined by damped
Newton iteration, and assigned multiplicities by the winding count of a
small surrounding square.

Horizontal contour sides must avoid zeros.  A sum with n terms has fewer
than n zeros in any horizontal strip of height below 1/(a_n - a_1), so the
window |R' - R| <= min(1/(4(a_n - a_1)), R/2) always contains an ordinate R'
whose lines Im z = +-R' stay clear of every zero.  safe_ordinate is the one
rule that picks the measured best one: search_zeros(f, R) searches up to
safe_ordinate(f, R), and a verify ladder gives each rung that height.
Both refuse an expected zero count 2R(a_n - a_1) above _MAX_ZEROS before
any evaluation.  Every zero found meets the residual bound _RESIDUAL_TOL.
Interior cut lines get deterministic jitter when a contour lands too close
to a zero, so a search depends on f and R alone: it has no settings, and its
sizes and tolerances are the constants below.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .errors import (
    ContourOnZeroError,
    ContourTooCloseError,
    InputError,
    NumericalError,
    ResourceLimitError,
)
from .sums import (
    ExponentialSum,
    coefficient_envelope,
    derivative,
    evaluate,
    evaluate_array,
)

_CLEARANCE_REL = 1e-13
_BOX_DIAMETER = 1e-3
_MULT_RADIUS = 1e-4
_MERGE_RADIUS = 1e-7
_MAX_EDGE_DOUBLINGS = 11
_JITTER_ATTEMPTS = 12
_EDGE_SAMPLES = 32
_WINDING_TOL = 0.25
_STABLE_EPS = 0.05
_NEWTON_TOL = 1e-12
_MAX_DEPTH = 60
_SCAN_SAMPLES = 241
_RESIDUAL_TOL = 1e-9
_MAX_ZEROS = 10_000
# tail margin of strip_bound: any value below 1 keeps every zero in the strip
_STRIP_MARGIN = 0.5


@dataclass(frozen=True)
class Rect:
    re_min: float
    re_max: float
    im_min: float
    im_max: float

    def __post_init__(self):
        if not (self.re_min < self.re_max and self.im_min < self.im_max):
            raise InputError("rectangle sides must have positive length")

    def width(self) -> float:
        return self.re_max - self.re_min

    def height(self) -> float:
        return self.im_max - self.im_min

    def diameter(self) -> float:
        return math.hypot(self.width(), self.height())

    def center(self) -> complex:
        return complex(
            0.5 * (self.re_min + self.re_max), 0.5 * (self.im_min + self.im_max)
        )

    def contains(self, z: complex, pad: float = 0.0) -> bool:
        return (
            self.re_min - pad <= z.real <= self.re_max + pad
            and self.im_min - pad <= z.imag <= self.im_max + pad
        )


@dataclass(frozen=True)
class Zero:
    location: complex
    multiplicity: int


class QuadratureConfig:
    """No settings: only the first contour's samples per edge, which the
    benchmark's tracer reads to size a contour at the refinement cap."""

    edge_samples_initial = _EDGE_SAMPLES


@dataclass(frozen=True)
class ZeroSearch:
    """find_zeros plus the contour data the verifier wants to inspect."""

    zeros: list[Zero]
    strip: float
    height: float
    outer_winding: int


def strip_bound(f: ExponentialSum) -> float:
    """Smallest B with both coefficient tail sums <= _STRIP_MARGIN at |Re z| = B.

    Beyond the strip the factored-out extreme term dominates the rest of
    the sum by at least 1 - _STRIP_MARGIN, so no zero escapes it.
    """
    if f.num_terms() < 2:
        raise InputError("a strip bound needs at least two terms")
    freqs, coeffs = f.numeric_parts()
    mags = np.abs(coeffs)
    with np.errstate(over="ignore", divide="ignore"):
        # (magnitude ratio, frequency gap) of the other terms to the first, then the last
        ends = [
            (mags[1:] / mags[0], freqs[1:] - freqs[0]),
            (mags[:-1] / mags[-1], freqs[-1] - freqs[:-1]),
        ]

    def solve(ratio: np.ndarray, gap: np.ndarray) -> float:
        if not np.all(np.isfinite(ratio)):
            raise NumericalError("coefficient scale: a coefficient magnitude ratio is not finite")

        def tail(b: float) -> float:
            return float(np.sum(ratio * np.exp(-2 * math.pi * b * gap)))

        if tail(0.0) <= _STRIP_MARGIN:
            return 0.0
        hi = 1.0
        while tail(hi) > _STRIP_MARGIN:
            hi *= 2.0
            if hi > 1e9:
                raise NumericalError("strip bound bisection failed to bracket")
        lo = 0.0
        while hi - lo > 1e-12:
            mid = 0.5 * (lo + hi)
            if tail(mid) <= _STRIP_MARGIN:
                hi = mid
            else:
                lo = mid
        return hi

    return max(solve(ratio, gap) for ratio, gap in ends)


class _Workspace:
    """Shared evaluation state for one search: f, its derivative, arrays."""

    def __init__(self, f: ExponentialSum):
        self.f = f.to_float_mode()
        self.df = derivative(self.f)

    def ratio(self, zs: np.ndarray) -> np.ndarray:
        """f'/f at an array of points; raises if the contour hits a zero."""
        fv = evaluate_array(self.f, zs)
        dv = evaluate_array(self.df, zs)
        env = coefficient_envelope(self.f, zs.real)
        bad = ~np.isfinite(fv) | ~np.isfinite(dv) | (np.abs(fv) <= _CLEARANCE_REL * env)
        if np.any(bad):
            raise ContourOnZeroError("quadrature sample sits on or next to a zero")
        return dv / fv

    def small_residual(self, z: complex, tol: float, fz: complex | None = None) -> bool:
        """|f(z)| <= tol times the coefficient envelope at Re z; pass fz if known."""
        fz = evaluate(self.f, z) if fz is None else fz
        return abs(fz) <= tol * float(coefficient_envelope(self.f, np.array([z.real]))[0])


def _simpson_weights(n: int) -> np.ndarray:
    w = np.ones(n + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w / (3.0 * n)


def _winding_value(ws: _Workspace, rect: Rect, n: int) -> complex:
    """Composite-Simpson value of (1/2*pi*i) * boundary integral of f'/f."""
    corners = [
        complex(rect.re_min, rect.im_min),
        complex(rect.re_max, rect.im_min),
        complex(rect.re_max, rect.im_max),
        complex(rect.re_min, rect.im_max),
    ]
    t = np.arange(n + 1) / n
    deltas = [b - a for a, b in zip(corners, corners[1:] + corners[:1])]
    segments = [a + d * t for a, d in zip(corners, deltas)]
    samples = ws.ratio(np.concatenate(segments))
    w = _simpson_weights(n)
    total = 0j
    for d, edge in zip(deltas, samples.reshape(4, n + 1)):
        total += d * np.dot(w, edge)
    return total / (2j * math.pi)


def _winding(ws: _Workspace, rect: Rect) -> int:
    n = _EDGE_SAMPLES
    prev = _winding_value(ws, rect, n)
    for _ in range(_MAX_EDGE_DOUBLINGS):
        n *= 2
        cur = _winding_value(ws, rect, n)
        if abs(cur - prev) <= _STABLE_EPS:
            m = round(cur.real)
            if abs(cur - m) <= _WINDING_TOL:
                return int(m)
        prev = cur
    raise ContourTooCloseError(
        f"winding integral failed to settle on an integer over {rect}"
    )


def _line_minimum(ws: _Workspace, ordinate: float, b: float) -> float:
    xs = np.linspace(-b, b, _SCAN_SAMPLES)
    vals = np.abs(evaluate_array(ws.f, xs + 1j * ordinate))
    return float(vals.min())


def _best_ordinate(ws: _Workspace, r: float, window: float, b: float) -> float:
    """Ordinate r' with |r' - r| <= window maximizing the worse line minimum
    of the two lines Im z = +-r'; exact center wins ties."""

    def score(r_val: float) -> float:
        return min(_line_minimum(ws, r_val, b), _line_minimum(ws, -r_val, b))

    best_r = r
    best_v = score(r)
    span = window
    for _ in range(3):
        anchor = best_r
        offsets = np.linspace(-span, span, 21)
        for off in sorted(offsets, key=lambda o: (abs(o), o)):
            cand = float(anchor + off)
            if abs(cand - r) > window or cand == anchor:
                continue
            v = score(cand)
            if v > best_v:
                best_v, best_r = v, cand
        span /= 10.0
    return float(best_r)


def _ordinate_step(f: ExponentialSum, R: float) -> tuple[_Workspace, float, float]:
    """Workspace, strip bound B and safe ordinate of the search at R."""
    if f.num_terms() < 2:
        raise InputError("zero search needs at least two terms")
    if not (math.isfinite(R) and R > 0):
        raise InputError(f"half-height R must be finite and positive, got {R!r}")
    vals = f.freq_values()
    span = float(vals[-1] - vals[0])  # > 0: normalized terms have distinct values
    expected = 2.0 * float(R) * span
    if expected > _MAX_ZEROS:
        msg = f"{expected:.6g} expected zeros exceed the zero budget of {_MAX_ZEROS}"
        raise ResourceLimitError(msg)
    ws = _Workspace(f)
    b = strip_bound(f)
    return ws, b, _best_ordinate(ws, float(R), min(1.0 / (4.0 * span), 0.5 * float(R)), b)


def safe_ordinate(f: ExponentialSum, R: float) -> float:
    """The height of search_zeros(f, R): R' near R with both lines Im z = +-R' clear of zeros.

    Fewer than n zeros can occupy any horizontal strip of height under
    1/(a_n - a_1), so the window |R' - R| <= min(1/(4(a_n - a_1)), R/2)
    holds a line clear of every zero; this returns the sampled best one.
    """
    return _ordinate_step(f, R)[2]


def _bisect(ws: _Workspace, box: Rect, count: int) -> tuple[tuple[Rect, int], tuple[Rect, int]]:
    """Split a box across its longer side into two halves with windings.

    The exact midpoint is tried first, then cuts jittered by a generator
    seeded from the midpoint and the attempt; a cut is taken once both
    halves wind cleanly and their counts add up.
    """
    vertical = box.width() >= box.height()
    lo, hi = (box.re_min, box.re_max) if vertical else (box.im_min, box.im_max)
    mid = 0.5 * (lo + hi)
    for attempt in range(_JITTER_ATTEMPTS):
        cut = mid
        if attempt:
            # the leading "0:" keeps each cut where earlier versions' default seed put it
            rng = random.Random(f"0:{mid:.12e}:{attempt}")
            cut += rng.uniform(-0.2, 0.2) * (hi - lo)
        if not (lo < cut < hi):
            continue
        if vertical:
            a = Rect(box.re_min, cut, box.im_min, box.im_max)
            b = Rect(cut, box.re_max, box.im_min, box.im_max)
        else:
            a = Rect(box.re_min, box.re_max, box.im_min, cut)
            b = Rect(box.re_min, box.re_max, cut, box.im_max)
        try:
            wa = _winding(ws, a)
            wb = _winding(ws, b)
        except (ContourTooCloseError, ContourOnZeroError):
            continue
        if wa + wb == count:
            return (a, wa), (b, wb)
    raise NumericalError(f"no admissible cut line found inside {box}")


def _newton_refine(ws: _Workspace, box: Rect) -> complex | None:
    """Damped Newton from the box center; None when it fails to settle."""
    z = box.center()
    pad = 2.0 * box.diameter()
    fz = evaluate(ws.f, z)
    for _ in range(80):
        if ws.small_residual(z, _NEWTON_TOL, fz):
            # a point outside its own box belongs to a neighbor; claiming
            # it here would double-count the zero
            return z if box.contains(z, 1e-12) else None
        dz = evaluate(ws.df, z)
        if dz == 0 or not math.isfinite(abs(dz)):
            return None
        step = fz / dz
        lam = 1.0
        while lam > 1e-4:
            cand = z - lam * step
            fc = evaluate(ws.f, cand)
            if abs(fc) < abs(fz):
                z, fz = cand, fc
                break
            lam *= 0.5
        else:
            return None
        if not box.contains(z, pad):
            return None
    if ws.small_residual(z, _NEWTON_TOL, fz) and box.contains(z, 1e-12):
        return z
    return None


def _multiplicity(ws: _Workspace, point: complex, radius: float) -> int:
    r = radius
    for _ in range(6):
        sq = Rect(point.real - r, point.real + r, point.imag - r, point.imag + r)
        try:
            return _winding(ws, sq)
        except (ContourTooCloseError, ContourOnZeroError):
            r *= 0.5
    raise NumericalError(f"no clean multiplicity contour around {point}")


def _accounts_for(ws: _Workspace, z: complex, count: int, box: Rect) -> bool:
    """Whether the zero at z carries the box's whole count; a failed check says no."""
    try:
        return count == 1 or _multiplicity(ws, z, min(_MULT_RADIUS, box.diameter())) == count
    except NumericalError:
        return False


def search_zeros(f: ExponentialSum, R: float) -> ZeroSearch:
    """Zeros with |Im z| < height near R, plus the contour bookkeeping.

    Boxes are bisected until they are small; a small box is then claimed
    by the point Newton finds from its center when that point accounts
    for the box's whole count.  Otherwise, as for a mixed cluster of
    near-coincident but distinct zeros, it is bisected further, so each
    zero gets its own representative.
    """
    ws, b, height = _ordinate_step(f, R)
    outer = Rect(-b, b, -height, height)
    total = _winding(ws, outer)
    if total == 0:
        return ZeroSearch([], b, height, 0)

    points: list[complex] = []
    stack: list[tuple[Rect, int, int]] = [(outer, total, 0)]
    while stack:
        box, count, depth = stack.pop()
        if count == 0:
            continue
        if box.diameter() < _BOX_DIAMETER:
            z = _newton_refine(ws, box)
            if z is not None and _accounts_for(ws, z, count, box):
                points.append(z)
                continue
            if depth >= _MAX_DEPTH or box.diameter() <= 1e-10:
                z = box.center()
                if not ws.small_residual(z, _RESIDUAL_TOL):
                    raise NumericalError(
                        f"could not refine the zero inside {box} below the residual bound"
                    )
                points.append(z)
                continue
        elif depth >= _MAX_DEPTH:
            raise NumericalError(
                "subdivision depth exhausted before isolation",
                partial=_collect(ws, points, total, check=False),
            )
        for half, winding in _bisect(ws, box, count):
            stack.append((half, winding, depth + 1))

    zeros = _collect(ws, points, total, check=True)
    for z in zeros:
        if not (abs(z.location.real) < b + 1e-12 and abs(z.location.imag) < height):
            raise NumericalError(f"refined zero {z.location} escaped the search box")
    return ZeroSearch(zeros, b, height, total)


def _collect(ws: _Workspace, points: list[complex], total: int, check: bool) -> list[Zero]:
    """Merge nearby candidates, assign multiplicities, check conservation."""
    merged: list[complex] = []
    for p in sorted(points, key=lambda pc: (pc.imag, pc.real)):
        if any(abs(p - q) <= _MERGE_RADIUS for q in merged):
            continue
        merged.append(p)

    zeros: list[Zero] = []
    for p in merged:
        nearest = min(
            (abs(p - q) for q in merged if q is not p), default=math.inf
        )
        radius = min(_MULT_RADIUS, nearest / 3.0) if nearest < math.inf else _MULT_RADIUS
        mult = _multiplicity(ws, p, radius)
        if mult <= 0:
            raise NumericalError(f"refined point {p} shows no enclosed zero")
        zeros.append(Zero(p, mult))
    zeros.sort(key=lambda z: (z.location.imag, z.location.real))

    if check:
        if sum(z.multiplicity for z in zeros) != total:
            raise NumericalError(
                "multiplicities do not add up to the boundary winding count", partial=zeros
            )
        for z in zeros:
            if not ws.small_residual(z.location, _RESIDUAL_TOL):
                raise NumericalError(
                    f"zero at {z.location} fails the residual bound", partial=zeros
                )
    return zeros


def find_zeros(f: ExponentialSum, R: float) -> list[Zero]:
    """All zeros of f with |Im z| < R (up to the safe-ordinate shift)."""
    return search_zeros(f, R).zeros
