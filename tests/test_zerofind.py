"""Tests for strip bounds, winding counts, and the rectangle zero search."""

import cmath
import dataclasses
import inspect
import math
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from climbbench import winding_census
from expmean import sums, zerofind
from expmean.cli import load_problem
from expmean.errors import (
    ContourOnZeroError,
    ContourTooCloseError,
    InputError,
    NumericalError,
    ResourceLimitError,
)
from expmean.laurent import LaurentPolynomial, laurent_images, roots_nonzero
from expmean.sums import FrequencyBasis, coefficient_envelope, evaluate, evaluate_array, exp_sum
from expmean.verify import convergence_report
from zero_oracle import bisection_route, reference_zeros, root_route, zero_errors
from expmean.zerofind import (
    QuadratureConfig,
    Rect,
    Zero,
    _winding,
    _Workspace,
    safe_ordinate,
    search_zeros,
    strip_bound,
)

SQRT2 = "1.41421356237309504880168872421"

TWO_TERM = exp_sum([(1, 0), (1, 1)])  # zeros at i(k + 1/2)
THREE_TERM = exp_sum([(6, 0), (-5, 1), (1, 2)])  # zeros at (ln2 or ln3)/2pi + ik
DOUBLE = exp_sum([(1, 0), (-2, 1), (1, 2)])  # (e^{2pi z} - 1)^2, double zeros at ik
TRIPLE = exp_sum([(1, 0), (-3, 1), (3, 2), (-1, 3)])  # (1 - e^{2pi z})^3, triple zeros at ik
SQRT2_SUM = load_problem(str(Path(__file__).resolve().parent.parent / "problems" / "sqrt2.json")).f


def winding_count(f, rect):
    return _winding(_Workspace(f), rect)


def tail_sums(f, b):
    freqs, coeffs = f.numeric_parts
    mags = np.abs(coeffs)
    first = float(np.sum(mags[1:] / mags[0] * np.exp(-2 * math.pi * b * (freqs[1:] - freqs[0]))))
    last = float(np.sum(mags[:-1] / mags[-1] * np.exp(-2 * math.pi * b * (freqs[-1] - freqs[:-1]))))
    return first, last


def test_strip_bound_two_term_closed_form():
    b = strip_bound(TWO_TERM)
    assert abs(b - math.log(2) / (2 * math.pi)) < 1e-11


def test_strip_bound_is_tight_and_sufficient():
    rng = random.Random(61)
    for _ in range(40):
        n = rng.randint(2, 5)
        pairs = [
            (cmath.rect(rng.uniform(0.3, 3), rng.uniform(0, 2 * math.pi)), k)
            for k in rng.sample(range(-6, 7), n)
        ]
        f = exp_sum(pairs)
        b = strip_bound(f)
        hi = tail_sums(f, b)
        assert max(hi) <= 0.5 + 1e-9
        if b > 1e-9:
            lo = tail_sums(f, b - 1e-6)
            assert max(lo) > 0.5 - 1e-9


def test_strip_bound_three_term_irrational():
    basis = FrequencyBasis(("1", SQRT2))
    f = exp_sum([(1, (0, 0)), (1, (1, 0)), (1, (0, 1))], basis)
    b = strip_bound(f)
    first, last = tail_sums(f, b)
    assert max(first, last) <= 0.5 + 1e-9


def test_strip_bound_ends_past_8192():
    # past 8192 neighbouring doubles lie more than the bisection's 1e-12
    # apart; the child process turns a hang into a failure
    code = (
        "from expmean.sums import exp_sum; from expmean.zerofind import strip_bound; "
        "print(strip_bound(exp_sum([(1, 0), (1, '1/100000')])), "
        "strip_bound(exp_sum([(1, 0), (10**10, '1/10000')])))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    b1, b2 = map(float, proc.stdout.split())
    assert abs(b1 - math.log(2) / (2 * math.pi * 1e-5)) < 1e-9 * b1
    assert abs(b2 - math.log(2e10) / (2 * math.pi * 1e-4)) < 1e-9 * b2
    assert 8192 < b1 < b2


@pytest.mark.parametrize("eps", ["1e-12", "1e-300"])
def test_strip_bound_brackets_up_to_double_range(eps):
    # f = 1 + e(eps z): the tail exp(-2 pi b eps) is 1/2 at b = log 2 / (2 pi eps)
    b = strip_bound(exp_sum([(1, 0), (1, eps)]))
    expected = math.log(2) / (2 * math.pi * float(eps))
    assert abs(b - expected) < 1e-9 * expected


def test_strip_bound_beyond_double_range_is_numerical_error():
    # b would be about 1e319, past the largest double
    with pytest.raises(NumericalError, match="strip bound is beyond double range"):
        strip_bound(exp_sum([(1, 0), (1, "1e-320")]))


def test_strip_bound_input_checks():
    with pytest.raises(InputError):
        strip_bound(exp_sum([(1, 2)]))


def test_winding_count_examples():
    assert winding_count(TWO_TERM, Rect(-1, 1, -1, 1)) == 2
    assert winding_count(TWO_TERM, Rect(-1, 1, 0.6, 1.4)) == 0
    assert winding_count(DOUBLE, Rect(-0.2, 0.2, -0.3, 0.3)) == 2


def test_winding_count_zero_on_contour():
    # the zero i/2 sits exactly on the top edge sample grid
    with pytest.raises(ContourOnZeroError):
        winding_count(TWO_TERM, Rect(-1, 1, -0.5, 0.5))


def test_winding_count_zero_barely_outside():
    # zeros at distance 1e-9 from the contour cannot be resolved
    eps = 1e-9
    with pytest.raises((ContourTooCloseError, ContourOnZeroError)):
        winding_count(TWO_TERM, Rect(-1, 1, -0.5 + eps, 0.5 - eps))


def test_rect_and_config_validation():
    with pytest.raises(InputError):
        Rect(0, 0, 0, 1)
    with pytest.raises(InputError):
        Rect(0, 1, 2, 1)


def test_search_has_no_settings():
    # a search depends on f and R alone; QuadratureConfig only holds the
    # first contour's samples per edge for the benchmark's tracer
    assert not dataclasses.is_dataclass(QuadratureConfig)
    assert vars(QuadratureConfig()) == {}
    assert QuadratureConfig().edge_samples_initial == 32
    params = {fn: list(inspect.signature(fn).parameters)
              for fn in (search_zeros, convergence_report)}
    assert params == {search_zeros: ["f", "R"],
                      convergence_report: ["f", "g", "R_list", "tol"]}


def test_default_window_formula(monkeypatch):
    # the ordinate window is min(1/(4(a_n - a_1)), R/2)
    seen = []
    best = zerofind._best_ordinate

    def spy(ws, r, window, b):
        seen.append(window)
        return best(ws, r, window, b)

    monkeypatch.setattr(zerofind, "_best_ordinate", spy)
    basis = FrequencyBasis(("1", SQRT2))
    sqrt2_sum = exp_sum([(1, (0, 0)), (1, (1, 0)), (1, (0, 1))], basis)
    for f, R, expected in (
        (TWO_TERM, 10.0, 0.25),
        (TWO_TERM, 0.25, 0.125),
        (THREE_TERM, 3.0, 0.125),
        (sqrt2_sum, 2.0, 1 / (4 * math.sqrt(2))),
    ):
        seen.clear()
        r = safe_ordinate(f, R)
        assert len(seen) == 1 and abs(seen[0] - expected) < 1e-15
        assert abs(r - R) <= expected
    with pytest.raises(InputError):
        safe_ordinate(exp_sum([(1, 3)]), 1.0)


def test_safe_ordinate_moves_off_zero():
    r = safe_ordinate(TWO_TERM, 0.5)
    assert r != 0.5
    assert abs(r - 0.5) <= 0.25 + 1e-12
    xs = np.linspace(-0.2, 0.2, 101)
    assert min(abs(evaluate(TWO_TERM, complex(x, r))) for x in xs) >= 0.1


def test_safe_ordinate_keeps_clear_height():
    assert safe_ordinate(TWO_TERM, 10.0) == 10.0


def test_safe_ordinate_prefers_strictly_better_line():
    # from 0.25 the window, capped at R/2, reaches down to Im = 0.125, whose
    # lines have a strictly larger minimum than the equidistant start
    assert safe_ordinate(TWO_TERM, 0.25) == 0.125


def test_safe_ordinate_keeps_periodic_ties_at_the_nearer_line():
    # f = P(e^{pi z}) with P's roots i, i, -2 has period 2 in Im z, with a
    # double zero at Im z = 1/2 and a simple one at Im z = 1, modulo 2.  From
    # R = 16/15 the candidate 2 - R gives the same pair of lines, so the two
    # score alike up to rounding; rounding must not carry the height below
    # Im z = 1 and lose the two zeros there.
    coeffs = np.poly([1j, 1j, -2])[::-1]
    R = 1.6 * 2 / 3
    for k in range(6):
        scale = cmath.rect(0.5 + 0.3 * k, 1.1 * k)
        f = exp_sum([(complex(scale * c), Fraction(j, 2)) for j, c in enumerate(coeffs)])
        assert 1.0 < safe_ordinate(f, R) <= R + zerofind._ordinate_window(f, R)
    assert sum(z.multiplicity for z in search_zeros(f, R).zeros) == 4


def test_zero_budget_is_checked_before_any_evaluation(monkeypatch):
    def fail(*args):
        raise AssertionError("evaluated before the zero budget check")

    for name in ("evaluate_array", "evaluate", "strip_bound"):
        monkeypatch.setattr(zerofind, name, fail)
    # 2R(a_n - a_1) = 2e9 expected zeros
    for call in (search_zeros, safe_ordinate):
        with pytest.raises(ResourceLimitError, match="zero budget of 10000"):
            call(TWO_TERM, 1e9)


def test_zero_budget_boundary(monkeypatch):
    monkeypatch.setattr(zerofind, "_MAX_ZEROS", 10)
    # expected counts: 2 * 5 * 1 = 10 is within the budget, 2 * 5.01 is not
    assert len(search_zeros(TWO_TERM, 5.0).zeros) == 10
    with pytest.raises(ResourceLimitError, match="zero budget of 10"):
        search_zeros(TWO_TERM, 5.01)
    with pytest.raises(ResourceLimitError):
        safe_ordinate(THREE_TERM, 2.51)


def test_find_zeros_two_term():
    zs = search_zeros(TWO_TERM, 3.0).zeros
    assert len(zs) == 6
    expected = [complex(0, k + 0.5) for k in range(-3, 3)]
    for z, e in zip(zs, expected):
        assert abs(z.location - e) < 1e-9
        assert z.multiplicity == 1


def test_find_zeros_double_zero():
    zs = search_zeros(DOUBLE, 0.6).zeros
    assert len(zs) == 1
    assert zs[0].multiplicity == 2
    assert abs(zs[0].location) < 1e-6


def test_find_zeros_single_term_raises():
    with pytest.raises(InputError):
        search_zeros(exp_sum([(2, 1)]), 1.0)


def test_find_zeros_against_root_lattice():
    # rational frequencies: zeros are log(roots)/2pi plus integer shifts
    s = search_zeros(THREE_TERM, 7.3)
    roots = roots_nonzero(LaurentPolynomial({0: 6, 1: -5, 2: 1}))
    expected = []
    for w in roots:
        base = cmath.log(w) / (2 * math.pi)
        k = math.floor(-s.height - base.imag) - 1
        while base.imag + k <= s.height:
            if abs(base.imag + k) < s.height:
                expected.append(complex(base.real, base.imag + k))
            k += 1
    key = lambda z: (round(z.imag, 6), round(z.real, 6))
    expected.sort(key=key)
    got = sorted((z.location for z in s.zeros), key=key)
    assert len(got) == len(expected) == 30
    for a, b in zip(got, expected):
        assert abs(a - b) < 1e-9


def test_small_box_with_two_zeros_is_split_again():
    # (e^{2pi z} - 1)(e^{2pi z} - 1.002): two simple zeros 3.2e-4 apart share a
    # small box whose Newton point does not carry its count, so it is bisected
    f = exp_sum([(1.002, 0), (-2.002, 1), (1, 2)])
    with bisection_route() as bisected:
        zs = search_zeros(f, 0.6).zeros
    assert bisected
    assert [z.multiplicity for z in zs] == [1, 1]
    expected = sorted([0j, complex(math.log(1.002) / (2 * math.pi), 0)], key=lambda z: z.real)
    for z, e in zip(sorted(zs, key=lambda z: z.location.real), expected):
        assert abs(z.location - e) < 1e-9


@pytest.mark.parametrize("f", [THREE_TERM, SQRT2_SUM], ids=["lattice", "sqrt2"])
def test_small_residual_scale_is_the_coefficient_envelope(f):
    # the one-point envelope, summed term by term, agrees with
    # coefficient_envelope's generator powers to far below 1e-12
    ws = _Workspace(f)
    for x in np.linspace(-3.0, 3.0, 13):
        env = float(coefficient_envelope(ws.f, np.array([x]))[0])
        z = complex(x, 0.7)
        assert ws.small_residual(z, 1e-9, 1e-9 * env * (1 - 1e-12))
        assert not ws.small_residual(z, 1e-9, 1e-9 * env * (1 + 1e-12))


@pytest.mark.parametrize("f, R", [(DOUBLE, 0.6), (TRIPLE, 1.3), (THREE_TERM, 5.1)],
                         ids=["double", "triple", "simple"])
def test_multiplicity_is_an_independent_winding(f, R):
    # the count of the claiming box equals the winding of a square around the zero
    zs = search_zeros(f, R).zeros
    assert zs
    ws, r = _Workspace(f), zerofind._MULT_RADIUS
    for z in zs:
        p = z.location
        assert _winding(ws, Rect(p.real - r, p.real + r, p.imag - r, p.imag + r)) == z.multiplicity


def _contour_sides(monkeypatch):
    """The shorter side of every contour the search winds, in call order.

    Every contour starts from _first_levels: the batched first levels of a
    generation's cuts, and a lone _winding's own."""
    sides, first_levels = [], zerofind._first_levels

    def spy(ws, rects):
        sides.extend(min(rect.width(), rect.height()) for rect in rects)
        return first_levels(ws, rects)

    monkeypatch.setattr(zerofind, "_first_levels", spy)
    return sides


def test_simple_zeros_wind_no_small_square(monkeypatch):
    # a box of count 1 needs no square to measure its zero's multiplicity (the
    # root route winds one square per claim, so the search bisects here)
    sides = _contour_sides(monkeypatch)
    with bisection_route() as bisected:
        zs = search_zeros(THREE_TERM, 5.1).zeros
    assert bisected
    assert all(z.multiplicity == 1 for z in zs)
    assert sides and min(sides) > 2 * zerofind._MULT_RADIUS


def test_depth_exhaustion_reports_sorted_claims_without_windings(monkeypatch):
    # the generation at depth 9 claims its small boxes, the zeros ln(2)/2pi + i
    # and ln(3)/2pi + i, before raising on a box of that generation still above
    # 0.1 (from depth 10 on the search completes); the error path winds no square
    monkeypatch.setattr(zerofind, "_MAX_DEPTH", 9)
    sides = _contour_sides(monkeypatch)
    with bisection_route() as bisected:
        with pytest.raises(NumericalError, match="depth exhausted") as exc:
            search_zeros(THREE_TERM, 1.3)
    assert bisected
    partial = exc.value.partial
    assert partial == sorted(partial, key=lambda z: (z.location.imag, z.location.real))
    got = sorted((z.location for z in partial), key=lambda z: z.real)
    for z, k in zip(got, (2, 3), strict=True):
        assert abs(z - complex(math.log(k) / (2 * math.pi), 1)) < 1e-9
    assert all(z.multiplicity == 1 for z in partial)
    assert min(sides) > 2 * zerofind._MULT_RADIUS


@pytest.mark.parametrize("f, R", [(THREE_TERM, 5.1), (SQRT2_SUM, 5.0)], ids=["three_term", "sqrt2"])
def test_bisection_fallback_finds_the_same_zeros(f, R, monkeypatch):
    # Newton declining every box of diameter >= 1e-3 forces isolation by
    # bisection down to that size; the zeros found must not change
    key = lambda z: (round(z.location.imag, 6), z.location.real)
    with bisection_route() as bisected:
        default = sorted(search_zeros(f, R).zeros, key=key)
        newton = zerofind._newton_refine
        monkeypatch.setattr(
            zerofind, "_newton_refine",
            lambda ws, box: None if box.diameter() >= 1e-3 else newton(ws, box),
        )
        fallback = sorted(search_zeros(f, R).zeros, key=key)
    assert len(bisected) == 2
    assert default and len(fallback) == len(default)
    assert [z.multiplicity for z in fallback] == [z.multiplicity for z in default]
    for a, b in zip(fallback, default):
        assert abs(a.location - b.location) < 1e-9


def test_winding_calls_per_zero(monkeypatch):
    # Newton claims a zero from a box below _BOX_DIAMETER = 0.1: about 16
    # winding calls per zero on sqrt2 at R=20, where bisecting every box
    # down to 1e-3 takes about 42
    sides = _contour_sides(monkeypatch)
    zs = search_zeros(SQRT2_SUM, 20.0).zeros
    assert len(zs) == 56
    assert len(sides) <= 20 * len(zs)


def test_centre_claims_when_newton_declines_every_box(monkeypatch):
    # bisection goes on to the generation at _MAX_DEPTH, which cuts no box:
    # a box's centre is claimed there once it meets the residual bound
    monkeypatch.setattr(zerofind, "_newton_refine", lambda ws, box: None)
    monkeypatch.setattr(zerofind, "_MAX_DEPTH", 70)
    zs = search_zeros(TWO_TERM, 1.0).zeros
    assert [z.multiplicity for z in zs] == [1, 1]
    for z, e in zip(zs, (-0.5j, 0.5j)):
        assert abs(z.location - e) < 1e-9


def test_failed_multiplicity_square_sends_the_box_back_to_bisection(monkeypatch):
    # the first square's contour sits on a zero: that one square says no, its
    # box is cut again, and a half still claims the double zero
    winding, squares, cut = zerofind._winding, [], []

    def first_square_on_a_zero(ws, rect, first=None):
        if rect.width() == 2 * zerofind._MULT_RADIUS:
            squares.append(rect.center())
            if len(squares) == 1:
                raise ContourOnZeroError("synthetic sample on a zero")
        return winding(ws, rect, first)

    halve = zerofind._bisect
    monkeypatch.setattr(zerofind, "_winding", first_square_on_a_zero)
    monkeypatch.setattr(zerofind, "_bisect", lambda ws, bs: cut.extend(bs) or halve(ws, bs))
    claim = [(0j, 2, zerofind._MULT_RADIUS)]
    assert list(zerofind._claim_rule(_Workspace(DOUBLE), claim)) == ["square"]
    assert len(squares) == 1
    squares.clear()
    with bisection_route() as bisected:
        zs = search_zeros(DOUBLE, 0.6).zeros
    assert bisected
    assert [z.multiplicity for z in zs] == [2]
    assert abs(zs[0].location) < 1e-6
    assert len(squares) == 2
    # the box whose square failed is cut although it is below 0.1
    assert any(b.diameter() < zerofind._BOX_DIAMETER and b.contains(squares[0]) for b, _ in cut)


def test_box_neither_cut_nor_claimed_raises_with_partial(monkeypatch):
    # Newton declines the boxes around 0.5j, and one below 0.01 has no cut
    # line while its centre fails the residual bound: the one failure of the
    # subdivision, after the zero at -0.5j is claimed
    newton, cut_lines = zerofind._newton_refine, zerofind._cut_lines
    monkeypatch.setattr(
        zerofind, "_newton_refine", lambda ws, box: None if box.contains(0.5j) else newton(ws, box)
    )
    monkeypatch.setattr(
        zerofind, "_cut_lines",
        lambda box: iter(()) if box.contains(0.5j) and box.diameter() < 0.01 else cut_lines(box),
    )
    with bisection_route() as bisected:
        with pytest.raises(NumericalError, match="no admissible cut line") as exc:
            search_zeros(TWO_TERM, 1.0)
    assert bisected
    [zero] = exc.value.partial
    assert zero.multiplicity == 1 and abs(zero.location + 0.5j) < 1e-9


def test_double_claim_raises_with_partial(monkeypatch):
    # two bisection boxes of count 1 whose Newton points coincide: counts add
    # up, yet one zero is claimed twice and the other missed
    monkeypatch.setattr(zerofind, "_newton_refine", lambda ws, box: 0.5j)
    with bisection_route() as bisected:
        with pytest.raises(NumericalError, match="two boxes claim") as exc:
            search_zeros(TWO_TERM, 1.0)
    assert bisected
    assert exc.value.partial == [Zero(0.5j, 1), Zero(0.5j, 1)]


@pytest.mark.parametrize(
    "s, R, n", [(2 * 10**7, 1e-7, 4), (10**8, 3e-8, 6), (10**10, 2e-9, 40), (10**10, 2e-8, 400)]
)
def test_zeros_closer_than_the_merge_radius_are_not_refused(s, R, n):
    # 1 + e(s z) has simple zeros at i(k + 1/2)/s, 1/s < 1e-7 apart: none is
    # taken for a double claim, as the merge radius scales with 1/(a_n - a_1)
    zs = search_zeros(exp_sum([(1, 0), (1, s)]), R).zeros
    assert [z.multiplicity for z in zs] == [1] * n
    for z, k in zip(zs, range(-n // 2, n // 2)):
        assert abs(z.location - 1j * (k + 0.5) / s) < 1e-9 / s


def test_refinement_cap_keeps_the_finest_settled_windings():
    # the merge-radius search of 1 + e(10**10 z) at R = 2e-8 holds the finest
    # settled windings known: 16 settle at doubling 10, none finer, so a cap
    # below 10 turns them into failures (the search itself still finds all
    # 400 zeros then, which is why the levels are counted here)
    with winding_census(zerofind) as outcomes:
        assert len(search_zeros(exp_sum([(1, 0), (1, 10**10)]), 2e-8).zeros) == 400
    assert outcomes[10, "settled"] == 16
    assert max(level for level, outcome in outcomes if outcome == "settled") == 10


@settings(max_examples=20)
@given(
    st.integers(1, 3).flatmap(
        lambda q: st.tuples(
            st.just(q),
            st.lists(st.integers(0, 3 * q), min_size=2, max_size=4, unique=True),
        )
    ),
    st.lists(st.tuples(st.floats(0.5, 2.0), st.floats(0, 2 * math.pi)), min_size=4, max_size=4),
    st.floats(0.5, 2.0),
)
def test_search_zeros_match_laurent_roots(exponents, polar, R):
    # rational frequencies k/q: under w = e^{2pi z/q} the zeros of f are
    # (q/2pi) log w + i q k over the roots w of the image polynomial F.  The
    # root route takes its zeros from those roots, so each sum runs on both
    # routes
    q, ks = exponents
    f = exp_sum([(cmath.rect(*rp), Fraction(k, q)) for k, rp in zip(ks, polar)])
    # the image's q is the least common denominator of the drawn k/q
    F, _, q = laurent_images(f, exp_sum([(1, 0)]))
    roots = roots_nonzero(F)
    assume(all(abs(a - b) >= 1e-3 for i, a in enumerate(roots) for b in roots[:i]))
    with root_route() as outcomes:
        on_roots = search_zeros(f, R)
    assert not isinstance(outcomes[0], str), outcomes
    with bisection_route() as bisected:
        on_bisection = search_zeros(f, R)
    assert bisected
    for s in (on_roots, on_bisection):
        expected = []
        for w in roots:
            base = q * cmath.log(w) / (2 * math.pi)
            k = math.floor((-s.height - base.imag) / q) + 1
            while base.imag + q * k < s.height:
                expected.append(base + 1j * q * k)
                k += 1
        # the roots are simple and the expected zeros lie far apart, so nearest
        # matches within 1e-8 pair them up
        assert len(s.zeros) == len(expected)
        for b in expected:
            z = min(s.zeros, key=lambda z: abs(z.location - b))
            assert abs(z.location - b) < 1e-8 and z.multiplicity == 1


def test_search_zeros_conservation_and_containment():
    for f, R in ((TWO_TERM, 4.2), (THREE_TERM, 3.7), (DOUBLE, 2.6)):
        s = search_zeros(f, R)
        assert safe_ordinate(f, R) == s.height
        total = sum(z.multiplicity for z in s.zeros)
        assert total == s.outer_winding
        b = strip_bound(f)
        span = float(f.freq_values()[-1] - f.freq_values()[0])
        assert abs(s.height - R) <= 1 / (4 * span) + 1e-12
        for z in s.zeros:
            assert abs(z.location.real) < b + 1e-9
            assert abs(z.location.imag) < s.height
            env = float(coefficient_envelope(f, np.array([z.location.real]))[0])
            assert abs(evaluate(f, z.location)) <= 1e-9 * env


def test_search_zeros_random_conservation():
    rng = random.Random(77)
    for _ in range(15):
        n = rng.randint(2, 4)
        pairs = [
            (cmath.rect(rng.uniform(0.5, 2), rng.uniform(0, 2 * math.pi)), k)
            for k in rng.sample(range(-3, 4), n)
        ]
        f = exp_sum(pairs)
        R = rng.uniform(1.0, 3.0)
        s = search_zeros(f, R)
        assert sum(z.multiplicity for z in s.zeros) == s.outer_winding
        span = float(f.freq_values()[-1] - f.freq_values()[0])
        # sanity: the count should track the mean density within a few units
        assert abs(sum(z.multiplicity for z in s.zeros) - 2 * s.height * span) < 2 * n


def test_find_zeros_deterministic():
    a = search_zeros(THREE_TERM, 5.1).zeros
    b = search_zeros(THREE_TERM, 5.1).zeros
    assert a == b


def test_fewnomial_window_on_found_zeros():
    # fewer than n zeros in any horizontal strip of height < 1/(a_n - a_1)
    for f, R, n in ((TWO_TERM, 6.0, 2), (THREE_TERM, 6.0, 3)):
        zs = search_zeros(f, R).zeros
        span = float(f.freq_values()[-1] - f.freq_values()[0])
        h = 0.999 / span
        ims = sorted(z.location.imag for z in zs for _ in range(z.multiplicity))
        for i in range(len(ims)):
            j = i
            while j < len(ims) and ims[j] < ims[i] + h:
                j += 1
            assert j - i < n


def _contour(rect, n):
    """Corner-to-corner steps and the n + 1 points on each edge, edge by edge."""
    corners = [complex(rect.re_min, rect.im_min), complex(rect.re_max, rect.im_min),
               complex(rect.re_max, rect.im_max), complex(rect.re_min, rect.im_max)]
    deltas = [b - a for a, b in zip(corners, corners[1:] + corners[:1])]
    t = np.arange(n + 1) / n
    return deltas, np.concatenate([a + d * t for a, d in zip(corners, deltas)])


def _reference_winding(ws, rect):
    """The winding loop that evaluates a fresh contour at both n and 2n."""

    def value(n):
        deltas, zs = _contour(rect, n)
        samples = ws.ratio(zs, coefficient_envelope(ws.f, zs.real))
        if np.isnan(samples).any():  # ratio's mark of a sample on or next to a zero
            raise ContourOnZeroError("reference sample sits on or next to a zero")
        w = np.ones(n + 1)
        w[1:-1:2], w[2:-1:2] = 4.0, 2.0
        w = w / (3.0 * n)
        total = 0j
        for d, edge in zip(deltas, samples.reshape(4, n + 1)):
            total += d * np.dot(w, edge)
        return total / (2j * math.pi)

    n = zerofind._EDGE_SAMPLES
    prev = value(n)
    for _ in range(zerofind._MAX_EDGE_DOUBLINGS):
        n *= 2
        cur = value(n)
        if abs(cur - prev) <= zerofind._STABLE_EPS:
            m = round(cur.real)
            if abs(cur - m) <= zerofind._WINDING_TOL:
                return int(m)
        prev = cur
    raise ContourTooCloseError("reference winding did not settle")


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (ContourTooCloseError, ContourOnZeroError) as exc:
        return type(exc)


WINDING_CASES = [
    (TWO_TERM, Rect(-1, 1, -1, 1), 2),
    (TWO_TERM, Rect(-1, 1, 0.6, 1.4), 0),
    (DOUBLE, Rect(-0.2, 0.2, -0.3, 0.3), 2),
    (THREE_TERM, Rect(-1, 1, -2.5, 2.5), 10),
    # the left edge Re z = 0 runs through the zero i/2 between samples
    (TWO_TERM, Rect(0, 1, 0.1, 0.8), ContourTooCloseError),
    # i/2 is a sample of the first contour's coarse rule
    (TWO_TERM, Rect(-1, 1, -0.5, 0.5), ContourOnZeroError),
    # +-i/2 are odd samples (t = 33/64, 31/64) of the first contour only
    (TWO_TERM, Rect(-31 / 32, 33 / 32, -0.5, 0.5), ContourOnZeroError),
]


@pytest.mark.parametrize(
    "f, rect, expected",
    WINDING_CASES,
    ids=["healthy", "count-0", "double-zero", "multi-zero", "cut-through-zero",
         "on-coarse-sample", "on-fine-sample"],
)
def test_winding_matches_two_evaluation_loop(f, rect, expected):
    ws = _Workspace(f)
    assert _outcome(_winding, ws, rect) == _outcome(_reference_winding, ws, rect) == expected


def test_batched_first_levels_match_lone_windings(monkeypatch):
    # every rect above in one batch, on each case's sum: a contour's slice is
    # bitwise the first level a lone winding evaluates, and its winding from
    # that slice is the lone winding
    rects = [rect for _, rect, _ in WINDING_CASES]
    n = 2 * zerofind._EDGE_SAMPLES
    for f, own, expected in WINDING_CASES:
        ws = _Workspace(f)
        ratio, calls = ws.ratio, []
        monkeypatch.setattr(
            ws, "ratio", lambda zs, env: calls.append(zs.points.size) or ratio(zs, env)
        )
        batch = list(zerofind._first_levels(ws, rects))
        assert calls == [len(rects) * 4 * (n + 1)]
        for rect, first in zip(rects, batch, strict=True):
            deltas, level, env, samples = first
            lone_deltas, lone_level, lone_env, lone_samples = next(
                zerofind._first_levels(ws, [rect])
            )
            assert level.points.tobytes() == _contour(rect, n)[1].tobytes()
            assert samples.tobytes() == lone_samples.tobytes()
            assert env.tobytes() == lone_env.tobytes()
            assert env.tobytes() == zerofind._envelope(ws, level.points, n).tobytes()
            assert deltas.tobytes() == lone_deltas.tobytes()
            for u, v in zip(level.values, lone_level.values, strict=True):
                assert u.tobytes() == v.tobytes()
            assert _outcome(_winding, ws, rect, first) == _outcome(_winding, ws, rect)
        assert _outcome(_winding, ws, own, batch[rects.index(own)]) == expected


def test_first_levels_evaluate_at_most_a_batch_per_call(monkeypatch):
    monkeypatch.setattr(zerofind, "_BATCH_CONTOURS", 3)
    ws = _Workspace(THREE_TERM)
    calls = []
    ratio = ws.ratio
    monkeypatch.setattr(ws, "ratio", lambda zs, env: calls.append(zs.points.size) or ratio(zs, env))
    rects = [Rect(-1, 1, k - 0.25, k + 0.25) for k in range(7)]
    assert len(list(zerofind._first_levels(ws, rects))) == 7
    assert calls == [4 * (2 * zerofind._EDGE_SAMPLES + 1) * k for k in (3, 3, 1)]


def test_capped_contour_ends_at_the_refinement_cap(monkeypatch):
    ws = _Workspace(TWO_TERM)
    sizes = []
    ratio = ws.ratio

    def spy(zs, env):
        sizes.append(zs.points.size)
        return ratio(zs, env)

    monkeypatch.setattr(ws, "ratio", spy)
    with pytest.raises(ContourTooCloseError):
        _winding(ws, Rect(0, 1, 0.1, 0.8))
    # one evaluation per comparison, the last at the size the tracer counts as capped
    n_top = QuadratureConfig.edge_samples_initial * 2 ** zerofind._MAX_EDGE_DOUBLINGS
    assert sizes == [4 * ((32 << k) + 1) for k in range(1, zerofind._MAX_EDGE_DOUBLINGS + 1)]
    assert sizes[-1] == 4 * (n_top + 1)


def test_winding_envelope_is_the_pointwise_envelope(monkeypatch):
    # _winding evaluates the envelope once per abscissa of the vertical edges,
    # and a refined level takes the level below's at its even samples
    cases = [(THREE_TERM, Rect(-0.7, 0.4, -2.3, 1.9), 8, 1),
             (TWO_TERM, Rect(0, 1, 0.1, 0.8), ContourTooCloseError,
              zerofind._MAX_EDGE_DOUBLINGS),  # capped: one call per doubling
             (THREE_TERM, Rect(0.1113, 1, -0.3, 0.3), 1, 4)]
    for f, rect, expected, levels in cases:
        ws = _Workspace(f)
        ratio, calls = ws.ratio, []

        def spy(zs, env):
            calls.append(np.array_equal(env, coefficient_envelope(ws.f, zs.points.real)))
            return ratio(zs, env)

        monkeypatch.setattr(ws, "ratio", spy)
        assert _outcome(_winding, ws, rect) == expected
        assert len(calls) == levels and all(calls)


def test_capped_contour_peak_memory():
    # a capped climb holds the top level's points, exponentials, envelope, f
    # and f' (4.5 times its complex array) and little more; powers and terms
    # formed as whole arrays would each add a full-size array
    top = 4 * ((zerofind._EDGE_SAMPLES << zerofind._MAX_EDGE_DOUBLINGS) + 1) * 16
    laurent = exp_sum([(1, 0), (2, "1/2"), (1j, 1), (-2, "3/2"), (1, 2)])
    # the zeros i/2 and about 0.1001 + 0.1753i lie on the left edges
    for f, rect in [(TWO_TERM, Rect(0, 1, 0.1, 0.8)),
                    (laurent, Rect(0.10011009644206033, 1.1, 0.0, 0.5))]:
        ws = _Workspace(f)
        with pytest.raises(ContourTooCloseError):
            _winding(ws, rect)  # warms the caches a climb fills
        tracemalloc.start()
        try:
            with pytest.raises(ContourTooCloseError):
                _winding(ws, rect)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6 * top, (rect, peak / top)


@pytest.mark.parametrize(
    "f, rect",
    # left edges 1e-3 from the zeros ln(2)/2pi and 0.2394 - 0.6386i: four levels each
    [(TWO_TERM, Rect(0, 1, 0.1, 0.8)), (THREE_TERM, Rect(0.1113, 1, -0.3, 0.3)),
     (exp_sum([(1, (0, 0)), (2, (1, 0)), (-1j, (0, 1))], FrequencyBasis(("1", SQRT2))),
      Rect(0.2404, 1.24, -0.94, -0.34))],
    ids=["capped", "laurent-image", "sqrt2-lattice"],
)
def test_refined_levels_are_bitwise_fresh_evaluations(monkeypatch, f, rect):
    # a level reuses the exponentials of the samples it shares with the level below
    ws = _Workspace(f)
    ratio, levels = ws.ratio, []

    def spy(zs, env):
        levels.append((zs.points, ratio(zs, env)))
        return levels[-1][1]

    monkeypatch.setattr(ws, "ratio", spy)
    _outcome(_winding, ws, rect)
    assert len(levels) >= 2
    for k, (points, got) in enumerate(levels, start=1):
        zs = _contour(rect, zerofind._EDGE_SAMPLES << k)[1]
        assert points.tobytes() == zs.tobytes()
        assert got.tobytes() == (evaluate_array(ws.df, zs) / evaluate_array(ws.f, zs)).tobytes()


def test_capped_contour_takes_one_exponential_per_sample(monkeypatch):
    build, counts = sums.generator_exponentials, []

    def spy(f, w):
        if np.iscomplexobj(w):  # the envelope's real exponentials are not counted
            counts.append(np.size(w) * len(f._generators[0]))
        return build(f, w)

    monkeypatch.setattr(sums, "generator_exponentials", spy)
    monkeypatch.setattr(zerofind, "generator_exponentials", spy)
    with pytest.raises(ContourTooCloseError):
        _winding(_Workspace(TWO_TERM), Rect(0, 1, 0.1, 0.8))
    # one generator: one exponential per distinct sample of the capped levels,
    # the top level's 4(n_top + 1), where f and f' at every level would take
    # about eight times as many
    n_top = zerofind._EDGE_SAMPLES << zerofind._MAX_EDGE_DOUBLINGS
    assert sum(counts) == 4 * (n_top + 1)


def _reference_ordinate(ws, r, window, b):
    """The ordinate scan that scores each candidate line by its own evaluation."""

    def line_minimum(ordinate):
        xs = np.linspace(-b, b, zerofind._SCAN_SAMPLES)
        return float(np.abs(evaluate_array(ws.f, xs + 1j * ordinate)).min())

    def score(r_val):
        return min(line_minimum(r_val), line_minimum(-r_val))

    best_r, best_v, span = r, score(r), window
    for _ in range(3):
        anchor = best_r
        for off in sorted(np.linspace(-span, span, 21), key=lambda o: (abs(o), o)):
            cand = float(anchor + off)
            if abs(cand - r) > window or cand == anchor:
                continue
            v = score(cand)
            if v > best_v * (1.0 + zerofind._TIE_REL):
                best_v, best_r = v, cand
        span /= 10.0
    return float(best_r)


def test_best_ordinate_matches_per_candidate_scoring(monkeypatch):
    basis = FrequencyBasis(("1", SQRT2))
    rng = random.Random(12)
    cases = [(TWO_TERM, 0.5), (TWO_TERM, 10.0), (TWO_TERM, 0.25), (THREE_TERM, 3.0),
             (DOUBLE, 2.0), (exp_sum([(1, (0, 0)), (1, (1, 0)), (1, (0, 1))], basis), 2.0)]
    while len(cases) < 18:
        pairs = [((rng.randint(-2, 2), rng.randint(-2, 2)), (rng.randint(0, 3), rng.randint(0, 2)))
                 for _ in range(rng.randint(2, 6))]
        f = exp_sum(pairs, basis)
        if f.num_terms() >= 2:
            cases.append((f, rng.uniform(0.2, 12.0)))
    evaluations = []

    def counted(f, zs):
        evaluations.append(zs.size)
        return evaluate_array(f, zs)

    monkeypatch.setattr(zerofind, "evaluate_array", counted)
    for f, R in cases:
        ws = _Workspace(f)
        window, b = zerofind._ordinate_window(f, R), strip_bound(f)
        evaluations.clear()
        got = zerofind._best_ordinate(ws.f, R, window, b)
        # the scan scores its lines from its own separable table
        assert evaluations == []
        assert got == _reference_ordinate(ws, R, window, b), (f, R)


def test_a_square_that_misses_its_root_sends_the_search_to_bisection(monkeypatch):
    # the root -1 of 1 + w moved by 1e-3 puts its claims 1.6e-4 from the zeros,
    # outside their squares of half-side 1e-4: a square winds 0, and the search
    # returns the zeros bisection finds from the outer box
    with bisection_route():
        expected = search_zeros(TWO_TERM, 3.0)
    solve = zerofind.laurent.roots_nonzero
    monkeypatch.setattr(zerofind.laurent, "roots_nonzero", lambda p: [w - 1e-3 for w in solve(p)])
    with root_route() as outcomes:
        assert search_zeros(TWO_TERM, 3.0) == expected
    assert outcomes == ["square"]


def test_a_root_off_its_zero_winds_but_fails_the_residual_bound(monkeypatch):
    # the root -1 of 1 + w moved by 1e-6 puts its claims 1.6e-7 from the zeros,
    # well inside their squares: the first square winds 1, but |f| there is
    # 5e-7 of the envelope, above _RESIDUAL_TOL, so the route declines and the
    # search returns the zeros bisection finds from the outer box
    with bisection_route():
        expected = search_zeros(TWO_TERM, 3.0)
    solve, winding, squares = zerofind.laurent.roots_nonzero, zerofind._winding, []

    def spy(ws, rect, first=None):
        n = winding(ws, rect, first)
        if rect.width() == 2 * zerofind._MULT_RADIUS:
            squares.append(n)
        return n

    monkeypatch.setattr(zerofind.laurent, "roots_nonzero", lambda p: [w - 1e-6 for w in solve(p)])
    monkeypatch.setattr(zerofind, "_winding", spy)
    with root_route() as outcomes:
        assert search_zeros(TWO_TERM, 3.0) == expected
    assert outcomes == ["residual"]
    assert squares == [1]


def test_the_root_route_claims_its_points_without_newton(monkeypatch):
    # each claim is a root as the solve placed it, with no Newton step after
    calls, newton = [], zerofind._newton_refine
    monkeypatch.setattr(zerofind, "_newton_refine", lambda *a: calls.append(a) or newton(*a))
    with root_route() as outcomes:
        found = search_zeros(THREE_TERM, 5.1)
    assert not isinstance(outcomes[0], str), outcomes
    assert calls == []
    assert zero_errors(THREE_TERM, found, "root") == []


def test_simple_zeros_2e_4_apart_stay_on_the_root_route():
    # (e(z) - 1)(e(z) - c) with c = exp(2 pi 2e-4): simple zeros at ik and
    # 2e-4 + ik, beyond the merge reach of 1e-4.  Squares of a third of the
    # gap wind 1 each, and the claims lie within 5e-14 of the zeros, which
    # bisection's Newton points miss by about 3e-10
    c = math.exp(2 * math.pi * 2e-4)
    f = exp_sum([(c, 0), (-(1 + c), 1), (1, 2)])
    with root_route() as outcomes:
        found = search_zeros(f, 1.0)
    assert not isinstance(outcomes[0], str), outcomes
    ref = reference_zeros(f, found.height)
    assert [m for _, m in ref] == [z.multiplicity for z in found.zeros] == [1, 1]
    for z in found.zeros:
        assert min(abs(z.location - r) for r, _ in ref) < 1e-12


def test_an_image_above_the_degree_cap_bisects():
    # 1 + e(z/100) + e(z) is F(e(z/100)) with F of degree 100
    f = exp_sum([(1, 0), (1, "1/100"), (1, 1)])
    with root_route() as outcomes:
        found = search_zeros(f, 1.5)
    assert outcomes == ["degree"]
    assert sum(z.multiplicity for z in found.zeros) == found.outer_winding == 2


def test_a_triple_root_is_one_claim_of_multiplicity_three():
    with root_route() as outcomes:
        found = search_zeros(TRIPLE, 1.3)
    assert not isinstance(outcomes[0], str)
    assert [z.multiplicity for z in found.zeros] == [3, 3, 3]
    assert zero_errors(TRIPLE, found, "root") == []


def test_distinct_zeros_merged_into_one_claim_are_claimed_at_a_zero():
    # (e(z) - 1)(e(z) - c) with e(z) = exp(2 pi z) and c = exp(2 pi 5e-5): simple
    # zeros at ik and 5e-5 + ik, one claim of multiplicity 2 on either route.
    # Their mean leaves |f| about 6e-9 of the envelope, above _RESIDUAL_TOL, so
    # the root route declines and bisection claims Newton's point, a zero
    c = math.exp(2 * math.pi * 5e-5)
    f = exp_sum([(c, 0), (-(1 + c), 1), (1, 2)])
    with bisection_route():
        expected = search_zeros(f, 1.0)
    with root_route() as outcomes:
        found = search_zeros(f, 1.0)
    assert outcomes == ["residual"]
    assert found == expected
    assert [z.multiplicity for z in found.zeros] == [2]
    assert min(abs(found.zeros[0].location - z) for z in (0, 5e-5)) < 1e-9


def test_a_lattice_unit_beyond_double_range_declines_before_the_solve():
    # 1 + e(63 z / (2 10**308)) has an image of degree 63, but q = 2 10**308
    # leaves z = q log(w)/2pi no doubles
    f = exp_sum([(1, 0), (1, Fraction(63, 2 * 10**308))])
    with root_route() as outcomes:
        found = search_zeros(f, 1.0)
    assert outcomes == ["solve"]
    assert found.zeros == [] and found.outer_winding == 0
