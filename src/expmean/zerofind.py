"""Numerical zero location for exponential sums by the argument principle.

Every zero of a sum with at least two terms lies in an explicit vertical
strip |Re z| < B: once the extreme term is factored out, the remaining
tail is < 1 in modulus beyond the strip, so the sum cannot vanish there.
Inside the strip the zeros with |Im z| < R are isolated by recursive
rectangle bisection driven by boundary winding counts, one generation of
boxes at a time.  A box below _BOX_DIAMETER = 0.1 is claimed in one of two
ways: by damped Newton from its center, when the point it settles on stays
in the box and carries the box's count (else the box is cut again), or at
its center, when the box cannot be cut and the center meets the residual
bound.  A box that can be neither cut nor claimed is the subdivision's one
failure.  Each zero's multiplicity is the winding count of the box that
claims it.  A winding count compares Simpson rules at doubling sample
counts and takes each exponential once: f and f' share the generator
exponentials of a contour, and a refined contour forms its points,
exponentials and envelope at its new samples only.  The first contours of
both halves of every cut in a generation are evaluated together, up to
_BATCH_CONTOURS per evaluation, and each contour's values are bitwise its
own; only a contour that does not settle there is refined alone.

Horizontal contour sides must avoid zeros.  A sum with n terms has fewer
than n zeros in any horizontal strip of height below 1/(a_n - a_1), so the
window |R' - R| <= min(1/(4(a_n - a_1)), R/2) always contains an ordinate R'
whose lines Im z = +-R' stay clear of every zero.  safe_ordinate is the one
rule that picks the measured best one, scoring candidate lines from a table
of the terms at fixed abscissae: search_zeros(f, R) searches up to
safe_ordinate(f, R), and a verify ladder gives each rung that height.
Both refuse an expected zero count 2R(a_n - a_1) above _MAX_ZEROS before
any evaluation.  Every zero found meets the residual bound _RESIDUAL_TOL.
Interior cut lines get deterministic jitter when a contour lands too close
to a zero, so a search depends on f and R alone: it has no settings, and its
sizes and tolerances are the constants below.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import random
from collections.abc import Iterator
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
    TWO_PI,
    ExponentialSum,
    Exponentials,
    coefficient_envelope,
    derivative,
    evaluate,
    evaluate_array,
    generator_exponentials,
)

_CLEARANCE_REL = 1e-13
_BOX_DIAMETER = 0.1
_MULT_RADIUS = 1e-4
_MERGE_RADIUS = 1e-7
_MAX_EDGE_DOUBLINGS = 11
_JITTER_ATTEMPTS = 12
_EDGE_SAMPLES = 32
# first contours evaluated by one ratio call, at most
_BATCH_CONTOURS = 256
_WINDING_TOL = 0.25
_STABLE_EPS = 0.05
_NEWTON_TOL = 1e-12
_MAX_DEPTH = 60
_SCAN_SAMPLES = 241
_TIE_REL = 1e-9
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
    """The zeros found plus the contour data the verifier wants to inspect."""

    zeros: list[Zero]
    strip: float
    height: float
    outer_winding: int


@functools.lru_cache(maxsize=1)
def strip_bound(f: ExponentialSum) -> float:
    """Smallest B with both coefficient tail sums <= _STRIP_MARGIN at |Re z| = B.

    Beyond the strip the factored-out extreme term dominates the rest of
    the sum by at least 1 - _STRIP_MARGIN, so no zero escapes it.  The last
    bound is kept; equal sums share |c| and frequencies, all that B reads.
    """
    if f.num_terms() < 2:
        raise InputError("a strip bound needs at least two terms")
    freqs, coeffs = f.numeric_parts
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
            if math.isinf(2 * math.pi * hi):
                raise NumericalError("strip bound is beyond double range")
        lo = 0.0
        while hi - lo > 1e-12:
            mid = 0.5 * (lo + hi)
            if mid == lo or mid == hi:  # neighbouring doubles: past 8192 they lie > 1e-12 apart
                break
            if tail(mid) <= _STRIP_MARGIN:
                hi = mid
            else:
                lo = mid
        return hi

    return max(solve(ratio, gap) for ratio, gap in ends)


class _Workspace:
    """Shared evaluation state for one search: f in float mode, its derivative."""

    def __init__(self, f: ExponentialSum):
        self.f = f
        self.df = derivative(f)

    def ratio(self, zs: np.ndarray | Exponentials, env: np.ndarray) -> np.ndarray:
        """f'/f at points, or their Exponentials, with envelope env; NaN marks
        a sample on or next to a zero, so each contour of a batch is judged alone."""
        fv = evaluate_array(self.f, zs)
        bad = np.abs(fv) <= _CLEARANCE_REL * env
        bad |= ~np.isfinite(fv)
        dv = evaluate_array(self.df, zs)
        bad |= ~np.isfinite(dv)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.divide(dv, fv, out=dv)
        out[bad] = np.nan
        return out

    def small_residual(self, z: complex, tol: float, fz: complex | None = None) -> bool:
        """|f(z)| <= tol times the coefficient envelope at Re z, summed term by
        term as evaluate sums f; pass fz if known."""
        fz = evaluate(self.f, z) if fz is None else fz
        freqs, coeffs = self.f.numeric_parts
        with np.errstate(over="ignore"):
            return abs(fz) <= tol * float(np.abs(coeffs) @ np.exp(TWO_PI * freqs * z.real))


@functools.cache
def _simpson_weights(n: int) -> np.ndarray:
    return np.r_[1.0, np.tile([4.0, 2.0], n // 2)[:-1], 1.0] / (3.0 * n)  # 1, 4, 2, ..., 4, 1


def _simpson_value(deltas: np.ndarray, edges: np.ndarray) -> complex:
    """Composite-Simpson value of (1/2*pi*i) * boundary integral of f'/f,
    from f'/f at n + 1 evenly spaced points on each edge, one row per edge."""
    return complex(deltas @ (edges @ _simpson_weights(edges.shape[1] - 1))) / (2j * math.pi)


def _contours(rects: list[Rect], n: int, odd: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Steps between the corners of each rect, counterclockwise from (re_min,
    im_min), one row per rect; and the points at t = k/n, k = 0..n (odd: k
    odd only), on each edge, edge by edge and rect by rect."""
    corners = np.array([
        [complex(r.re_min, r.im_min), complex(r.re_max, r.im_min),
         complex(r.re_max, r.im_max), complex(r.re_min, r.im_max)]
        for r in rects
    ])
    deltas = np.roll(corners, -1, axis=1) - corners
    t = np.arange(int(odd), n + 1, 1 + odd) / n
    return deltas, (corners[..., None] + deltas[..., None] * t).ravel()


def _envelope(ws: _Workspace, zs: np.ndarray, n: int) -> np.ndarray:
    """Coefficient envelope at contour points: it depends on Re z alone, so
    each vertical edge takes one value."""
    x = zs.real.reshape(-1, 2, 2, n + 1)  # per contour (bottom, right), (top, left)
    env = coefficient_envelope(ws.f, np.concatenate([x[:, :, 0], x[:, :, 1, :1]], axis=-1))
    env = np.concatenate([env[..., :-1], np.repeat(env[..., -1:], n + 1, axis=-1)], axis=-1)
    return env.ravel()


def _first_levels(
    ws: _Workspace, rects: list[Rect]
) -> Iterator[tuple[np.ndarray, Exponentials, np.ndarray, np.ndarray]]:
    """The first contour of each rect, at 2 * _EDGE_SAMPLES points per edge:
    yields its steps between corners, its generator exponentials, its
    envelope and its f'/f samples, one row per edge.  Up to _BATCH_CONTOURS
    contours share one ratio call; each contour's values are bitwise those of
    its own evaluation."""
    n = 2 * _EDGE_SAMPLES
    size = 4 * (n + 1)
    for start in range(0, len(rects), _BATCH_CONTOURS):
        deltas, zs = _contours(rects[start:start + _BATCH_CONTOURS], n)
        level, env = generator_exponentials(ws.f, zs), _envelope(ws, zs, n)
        samples = ws.ratio(level, env).reshape(-1, 4, n + 1)
        for k, (steps, edges) in enumerate(zip(deltas, samples)):
            part = slice(k * size, (k + 1) * size)
            values = [u[part] for u in level.values]
            yield steps, level._replace(points=zs[part], values=values), env[part], edges


def _interleave(even: np.ndarray, odd: np.ndarray) -> np.ndarray:
    """A contour's samples, edge by edge, from the level below's and the odd ones."""
    out = np.empty((4, 2 * odd.shape[1] + 1), dtype=odd.dtype)
    out[:, ::2], out[:, 1::2] = even.reshape(4, -1), odd
    return out.ravel()


def _winding(ws: _Workspace, rect: Rect, first: tuple | None = None) -> int:
    """Winding number of f around rect: Simpson values at n and 2n samples per
    edge, n doubling from _EDGE_SAMPLES, until two agree near an integer.  A
    contour's even samples are the last one's (t = 2k/2n is bitwise k/n): the
    first, at 2 * _EDGE_SAMPLES, gives the coarser value from them, and each
    later one forms its odd points, their exponentials and its envelope at
    their abscissae on the horizontal edges, and interleaves them with the
    last one's; f and f' are evaluated at all its samples.  first is rect's
    item of _first_levels when a batch has already evaluated it."""
    deltas, level, env, edges = first or next(_first_levels(ws, [rect]))
    prev = None
    for doubling in range(1, _MAX_EDGE_DOUBLINGS + 1):
        n = _EDGE_SAMPLES << doubling
        if prev is not None:
            odd = _contours([rect], n, odd=True)[1].reshape(4, -1)
            new = generator_exponentials(ws.f, odd).values
            odd_env = np.empty((2, 2, n // 2))  # per contour (bottom, right), (top, left)
            odd_env[:, 0] = coefficient_envelope(ws.f, odd.real.reshape(2, 2, -1)[:, 0])
            odd_env[:, 1] = env.reshape(2, 2, -1)[:, 1, :1]
            env = _interleave(env, odd_env.reshape(4, -1))
            level = level._replace(points=_interleave(level.points, odd))
            level = level._replace(values=[_interleave(u, v) for u, v in zip(level.values, new)])
            del edges, odd, new, odd_env  # free the level below's samples before evaluating
            edges = ws.ratio(level, env).reshape(4, n + 1)
        if np.isnan(edges).any():
            raise ContourOnZeroError("quadrature sample sits on or next to a zero")
        if prev is None:
            # a contiguous copy keeps the product's summation that of a contour of its own
            prev = _simpson_value(deltas, edges[:, ::2].copy())
        cur = _simpson_value(deltas, edges)
        if abs(cur - prev) <= _STABLE_EPS:
            m = round(cur.real)
            if abs(cur - m) <= _WINDING_TOL:
                return int(m)
        prev = cur
    raise ContourTooCloseError(
        f"winding integral failed to settle on an integer over {rect}"
    )


def _best_ordinate(f: ExponentialSum, r: float, window: float, b: float) -> float:
    """Ordinate r' with |r' - r| <= window maximizing the worse line minimum
    of the two lines Im z = +-r'.  Each of three rounds of 21 offsets,
    nearest first, is scored at once from a separable table: f(x + iy) is
    sum_i c_i e(a_i x) * exp(2 pi i a_i y), so the terms at the abscissae are
    computed once per scan, and a round takes one exponential per candidate
    line and term and one matrix product.  A candidate must win by a
    relative _TIE_REL, so ties (r' and period - r' for a periodic f) go to
    the nearer line whatever the rounding.  f is in float mode."""
    freqs, coeffs = f.numeric_parts
    xs = np.linspace(-b, b, _SCAN_SAMPLES)
    with np.errstate(over="ignore", invalid="ignore"):
        table = coeffs[:, None] * np.exp(2 * math.pi * np.outer(freqs, xs))

    def scores(cands: list[float]) -> np.ndarray:
        ords = np.array(cands)
        phases = np.exp(2j * math.pi * np.outer(np.concatenate([ords, -ords]), freqs))
        with np.errstate(over="ignore", invalid="ignore"):
            lows = np.abs(phases @ table).min(axis=1)
        return np.minimum(lows[:len(cands)], lows[len(cands):])

    best_r = r
    best_v = scores([r])[0]
    span = window
    for _ in range(3):
        anchor = best_r
        offsets = sorted(np.linspace(-span, span, 21), key=lambda o: (abs(o), o))
        cands = [float(anchor + off) for off in offsets]
        cands = [c for c in cands if abs(c - r) <= window and c != anchor]
        for cand, v in zip(cands, scores(cands)):
            if v > best_v * (1.0 + _TIE_REL):
                best_v, best_r = v, cand
        span /= 10.0
    return float(best_r)


def _ordinate_window(f: ExponentialSum, R: float) -> float:
    """min(1/(4(a_n - a_1)), R/2): how far the height of a search at R may lie from R."""
    return min(1.0 / (4.0 * f.span), 0.5 * float(R))


def _ordinate_step(f: ExponentialSum, R: float) -> tuple[ExponentialSum, float, float]:
    """f in float mode, strip bound B and safe ordinate of the search at R."""
    if f.num_terms() < 2:
        raise InputError("zero search needs at least two terms")
    if not (math.isfinite(R) and R > 0):
        raise InputError(f"half-height R must be finite and positive, got {R!r}")
    expected = 2.0 * float(R) * f.span  # > 0: normalized terms have distinct values
    if expected > _MAX_ZEROS:
        msg = f"{expected:.6g} expected zeros exceed the zero budget of {_MAX_ZEROS}"
        raise ResourceLimitError(msg)
    f = f.to_float_mode()
    b = strip_bound(f)
    # the envelope is convex in Re z, so the strip's edges hold its largest values
    top = float(coefficient_envelope(f, np.array([-b, b])).max())
    if not math.isfinite(top * max(1.0, TWO_PI * float(np.abs(f.numeric_parts[0]).max()))):
        raise NumericalError(f"f or f' does not fit a double at the strip edge |Re z| = {b:.6g}")
    return f, b, _best_ordinate(f, float(R), _ordinate_window(f, R), b)


def safe_ordinate(f: ExponentialSum, R: float) -> float:
    """The height of search_zeros(f, R): R' near R with both lines Im z = +-R' clear of zeros.

    Fewer than n zeros can occupy any horizontal strip of height under
    1/(a_n - a_1), so the window |R' - R| <= min(1/(4(a_n - a_1)), R/2)
    holds a line clear of every zero; this returns the sampled best one.
    """
    return _ordinate_step(f, R)[2]


def _cut_lines(box: Rect) -> Iterator[tuple[Rect, Rect]]:
    """Halves of box across its longer side: the exact midpoint first, then
    cuts jittered by a generator seeded from the midpoint and the attempt."""
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
            yield (Rect(box.re_min, cut, box.im_min, box.im_max),
                   Rect(cut, box.re_max, box.im_min, box.im_max))
        else:
            yield (Rect(box.re_min, box.re_max, box.im_min, cut),
                   Rect(box.re_min, box.re_max, cut, box.im_max))


def _bisect(ws: _Workspace, boxes: list[tuple[Rect, int]]) -> list[list[tuple[Rect, int]] | None]:
    """The two halves of each (box, count) with their windings, in box order,
    or None for a box that no cut line splits.

    A cut is taken once both halves wind cleanly and their counts add up;
    when neither the midpoint nor any jittered cut is, the box cannot be
    cut.  The first contours of every box's first cut are evaluated together
    (see _first_levels); a half that does not settle there is refined alone,
    the second only once the first has settled, and later cuts wind alone.
    """
    cuts = [_cut_lines(box) for box, _ in boxes]
    firsts = [next(c, None) for c in cuts]
    levels = _first_levels(ws, [half for pair in firsts if pair for half in pair])
    out = []
    for (box, count), first, rest in zip(boxes, firsts, cuts):
        tried = [(first, next(levels), next(levels))] if first else []
        for (a, b), la, lb in itertools.chain(tried, ((pair, None, None) for pair in rest)):
            try:
                wa = _winding(ws, a, la)
                wb = _winding(ws, b, lb)
            except (ContourTooCloseError, ContourOnZeroError):
                continue
            if wa + wb == count:
                out.append([(a, wa), (b, wb)])
                break
        else:
            out.append(None)
    return out


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


def _accounts_for(ws: _Workspace, z: complex, count: int, box: Rect) -> bool:
    """Whether the zero at z carries the box's whole count: one square around
    z of half-side min(_MULT_RADIUS, box diameter) must wind count times.  A
    contour that fails says no, and the box is cut again."""
    if count == 1:
        return True
    r = min(_MULT_RADIUS, box.diameter())
    try:
        return _winding(ws, Rect(z.real - r, z.real + r, z.imag - r, z.imag + r)) == count
    except (ContourTooCloseError, ContourOnZeroError):
        return False


def _position(zero: Zero) -> tuple[float, float]:
    return zero.location.imag, zero.location.real


def search_zeros(f: ExponentialSum, R: float) -> ZeroSearch:
    """Zeros with |Im z| < height near R, plus the contour bookkeeping.

    Boxes are bisected one generation at a time (see _bisect), and a box
    below _BOX_DIAMETER = 0.1 can be claimed in two ways.  Before it is cut,
    the point Newton finds from its center claims it when that point lies
    in the box and accounts for the box's whole count; when Newton fails or
    leaves the box, or for a mixed cluster of near-coincident but distinct
    zeros, the box is cut further, so each zero gets its own
    representative.  A box that cannot be cut, because no cut line is
    admissible or its generation is at _MAX_DEPTH, is claimed at its
    center when the center meets _RESIDUAL_TOL.  A box that can be neither
    cut nor claimed raises, the one failure of the subdivision.  A claim's
    multiplicity is the winding count of its box, so the multiplicities add
    up to the outer winding by construction.
    Two claims within _MERGE_RADIUS * min(1, 1/(a_n - a_1)) of each other
    raise: box counts cannot see one zero claimed by two boxes.  So do n or
    more zeros, counted with multiplicity, in a window of height
    0.999/(a_n - a_1): a sum of n terms has fewer there.  Every failure
    after the outer winding carries the sorted claims so far as partial.
    """
    f, b, height = _ordinate_step(f, R)
    ws = _Workspace(f)
    outer = Rect(-b, b, -height, height)
    total = _winding(ws, outer)
    claims: list[Zero] = []
    try:
        boxes = [(outer, total)]
        for depth in itertools.count():
            cutting = []
            for box, count in boxes:
                if count == 0:
                    continue
                if box.diameter() < _BOX_DIAMETER:
                    z = _newton_refine(ws, box)
                    if z is not None and _accounts_for(ws, z, count, box):
                        claims.append(Zero(z, count))
                        continue
                cutting.append((box, count))
            if not cutting:
                break
            boxes = []
            halves = _bisect(ws, cutting) if depth < _MAX_DEPTH else [None] * len(cutting)
            for (box, count), pair in zip(cutting, halves):
                z = box.center()
                if pair is not None:
                    boxes += pair
                elif box.diameter() < _BOX_DIAMETER and ws.small_residual(z, _RESIDUAL_TOL):
                    claims.append(Zero(z, count))
                else:
                    why = "no admissible cut line" if depth < _MAX_DEPTH else "depth exhausted"
                    raise NumericalError(f"could not refine the zero inside {box}: {why}")

        zeros = sorted(claims, key=_position)
        radius = _MERGE_RADIUS * min(1.0, 1.0 / f.span)
        for i, a in enumerate(zeros):
            for c in zeros[i + 1:]:  # sorted by Im z: only the next few can lie within reach
                if c.location.imag - a.location.imag > radius:
                    break
                if abs(c.location - a.location) <= radius:
                    raise NumericalError(f"two boxes claim the zeros {a.location} and {c.location}")
        # fewer than n zeros in any window of height below 1/span, with multiplicity
        ims = [z.location.imag for z in zeros]
        upto = list(itertools.accumulate((z.multiplicity for z in zeros), initial=0))
        n, window = f.num_terms(), 0.999 / f.span
        for i, y in enumerate(ims):
            if upto[bisect.bisect_left(ims, y + window)] - upto[i] >= n:
                raise NumericalError(
                    f"{n} or more zeros lie in the window of height {window:.6g} above Im z = {y}"
                )
        if upto[-1] != total:
            raise NumericalError("multiplicities do not add up to the boundary winding count")
        for z in zeros:
            if not ws.small_residual(z.location, _RESIDUAL_TOL):
                raise NumericalError(f"zero at {z.location} fails the residual bound")
            if not (abs(z.location.real) < b + 1e-12 and abs(z.location.imag) < height):
                raise NumericalError(f"refined zero {z.location} escaped the search box")
    except NumericalError as exc:  # a box that cannot be cut or claimed, or a failed check
        exc.partial = sorted(claims, key=_position)
        raise
    return ZeroSearch(zeros, b, height, total)
