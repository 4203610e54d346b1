"""Tests for strip bounds, winding counts, and the rectangle zero search."""

import cmath
import dataclasses
import inspect
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from expmean import zerofind
from expmean.errors import (
    ContourOnZeroError,
    ContourTooCloseError,
    InputError,
    ResourceLimitError,
)
from expmean.laurent import laurent, laurent_images, roots_nonzero
from expmean.sums import FrequencyBasis, coefficient_envelope, evaluate, exp_sum
from expmean.verify import convergence_report
from expmean.zerofind import (
    QuadratureConfig,
    Rect,
    Zero,
    _winding,
    _Workspace,
    find_zeros,
    safe_ordinate,
    search_zeros,
    strip_bound,
)

SQRT2 = "1.41421356237309504880168872421"

TWO_TERM = exp_sum([(1, 0), (1, 1)])  # zeros at i(k + 1/2)
THREE_TERM = exp_sum([(6, 0), (-5, 1), (1, 2)])  # zeros at (ln2 or ln3)/2pi + ik
DOUBLE = exp_sum([(1, 0), (-2, 1), (1, 2)])  # (e^{2pi z} - 1)^2, double zeros at ik


def winding_count(f, rect):
    return _winding(_Workspace(f), rect)


def tail_sums(f, b):
    freqs, coeffs = f.numeric_parts()
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
              for fn in (search_zeros, find_zeros, convergence_report)}
    assert params == {search_zeros: ["f", "R"], find_zeros: ["f", "R"],
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
    assert len(find_zeros(TWO_TERM, 5.0)) == 10
    with pytest.raises(ResourceLimitError, match="zero budget of 10"):
        find_zeros(TWO_TERM, 5.01)
    with pytest.raises(ResourceLimitError):
        safe_ordinate(THREE_TERM, 2.51)


def test_find_zeros_two_term():
    zs = find_zeros(TWO_TERM, 3.0)
    assert len(zs) == 6
    expected = [complex(0, k + 0.5) for k in range(-3, 3)]
    for z, e in zip(zs, expected):
        assert abs(z.location - e) < 1e-9
        assert z.multiplicity == 1


def test_find_zeros_double_zero():
    zs = find_zeros(DOUBLE, 0.6)
    assert len(zs) == 1
    assert zs[0].multiplicity == 2
    assert abs(zs[0].location) < 1e-6


def test_find_zeros_single_term_raises():
    with pytest.raises(InputError):
        find_zeros(exp_sum([(2, 1)]), 1.0)


def test_find_zeros_against_root_lattice():
    # rational frequencies: zeros are log(roots)/2pi plus integer shifts
    s = search_zeros(THREE_TERM, 7.3)
    roots = roots_nonzero(laurent({0: 6, 1: -5, 2: 1}))
    expected = []
    for w, mult in roots:
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
    zs = search_zeros(f, 0.6).zeros
    assert [z.multiplicity for z in zs] == [1, 1]
    expected = sorted([0j, complex(math.log(1.002) / (2 * math.pi), 0)], key=lambda z: z.real)
    for z, e in zip(sorted(zs, key=lambda z: z.location.real), expected):
        assert abs(z.location - e) < 1e-9


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
    # (q/2pi) log w + i q k over the roots w of the image polynomial F
    q, ks = exponents
    f = exp_sum([(cmath.rect(*rp), Fraction(k, q)) for k, rp in zip(ks, polar)])
    # the image's q is the least common denominator of the drawn k/q
    F, _, q = laurent_images(f, exp_sum([(1, 0)]))
    roots = roots_nonzero(F)
    assume(all(abs(a - b) >= 1e-3 for i, (a, _) in enumerate(roots) for b, _ in roots[:i]))
    s = search_zeros(f, R)
    expected = []
    for w, mult in roots:
        base = q * cmath.log(w) / (2 * math.pi)
        k = math.floor((-s.height - base.imag) / q) + 1
        while base.imag + q * k < s.height:
            expected.append((base + 1j * q * k, mult))
            k += 1
    # expected zeros lie far apart, so nearest matches within 1e-8 pair them up
    assert len(s.zeros) == len(expected)
    for b, mult in expected:
        z = min(s.zeros, key=lambda z: abs(z.location - b))
        assert abs(z.location - b) < 1e-8 and z.multiplicity == mult


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
    a = find_zeros(THREE_TERM, 5.1)
    b = find_zeros(THREE_TERM, 5.1)
    assert a == b


def test_fewnomial_window_on_found_zeros():
    # fewer than n zeros in any horizontal strip of height < 1/(a_n - a_1)
    for f, R, n in ((TWO_TERM, 6.0, 2), (THREE_TERM, 6.0, 3)):
        zs = find_zeros(f, R)
        span = float(f.freq_values()[-1] - f.freq_values()[0])
        h = 0.999 / span
        ims = sorted(z.location.imag for z in zs for _ in range(z.multiplicity))
        for i in range(len(ims)):
            j = i
            while j < len(ims) and ims[j] < ims[i] + h:
                j += 1
            assert j - i < n
