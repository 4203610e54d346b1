"""Tests for the Laurent images and their root route, and for the two
values laurent-check compares: the series sum A_n - A_1 against the root
sum, and the mean value against the root sum over q."""

import cmath
import math
import random
from fractions import Fraction

import pytest

from expmean.errors import InputError, NumericalError, ResourceLimitError
from expmean.laurent import LaurentPolynomial, roots_nonzero, sum_over_roots
from expmean.meanvalue import mean_value
from expmean.sums import FrequencyBasis, exp_sum
from laurent_routes import root_mean, series_sum

SQRT2 = "1.41421356237309504880168872421"


def random_laurent(rng, span=6, mag=(0.5, 2.0)):
    lo = rng.randint(-3, 0)
    hi = lo + rng.randint(1, span)
    terms = {}
    for k in range(lo, hi + 1):
        if k in (lo, hi) or rng.random() < 0.6:
            r = rng.uniform(*mag)
            phi = rng.uniform(0, 2 * math.pi)
            terms[k] = cmath.rect(r, phi)
    return LaurentPolynomial(terms)


def test_construction_drops_zero_coefficients():
    p = LaurentPolynomial({0: 1, 2: 0, -1: 3})
    assert list(p.terms) == [-1, 0]
    assert p.exponent_span() == 1
    with pytest.raises(InputError):
        LaurentPolynomial({0.5: 1})


def test_roots_quadratic():
    rs = roots_nonzero(LaurentPolynomial({0: 6, 1: -5, 2: 1}))
    assert len(rs) == 2
    assert abs(rs[0] - 2) < 1e-10
    assert abs(rs[1] - 3) < 1e-10


def test_roots_single_negative_exponent():
    rs = roots_nonzero(LaurentPolynomial({0: 1, -1: -1}))
    assert len(rs) == 1
    assert abs(rs[0] - 1) < 1e-12


def test_roots_monomial_has_none():
    assert roots_nonzero(LaurentPolynomial({2: 1})) == []
    assert roots_nonzero(LaurentPolynomial({-3: 2.5})) == []


def test_roots_double_root_total_multiplicity():
    rs = roots_nonzero(LaurentPolynomial({0: 1, 1: -2, 2: 1}))  # (z-1)^2
    assert len(rs) == 2
    for z in rs:
        assert abs(z - 1) < 1e-6


def test_roots_triple_root_repeats_three_times():
    # np.roots spreads a triple root about 1e-5 around it; every copy counts
    f = LaurentPolynomial({0: -1, 1: 3, 2: -3, 3: 1})  # (z-1)^3
    rs = roots_nonzero(f)
    assert len(rs) == 3
    for z in rs:
        assert abs(z - 1) < 1e-4
    assert abs(sum_over_roots(f, LaurentPolynomial({1: 1})) - 3) < 1e-12


def test_roots_total_multiplicity_random():
    rng = random.Random(71)
    for _ in range(100):
        p = random_laurent(rng)
        rs = roots_nonzero(p)
        assert len(rs) == p.exponent_span()
        assert rs == sorted(rs, key=lambda w: (w.real, w.imag))


def test_roots_out_of_double_range_is_numerical_error():
    # the companion matrix holds c_k / c_lead, which overflows here
    with pytest.raises(NumericalError):
        roots_nonzero(LaurentPolynomial({0: 1e300, 1: 1.0, 2: 1e-300}))


def test_a_root_of_zero_in_doubles_is_numerical_error():
    # 1e-300 + w + 1e300 w^2: np.roots returns its root -1e-300 as exactly 0,
    # which the solve refuses whatever g the root sum would evaluate there
    with pytest.raises(NumericalError, match="gave 0j"):
        roots_nonzero(LaurentPolynomial({0: 1e-300, 1: 1.0, 2: 1e300}))
    with pytest.raises(NumericalError, match="gave 0j"):
        sum_over_roots(LaurentPolynomial({0: 1e-300, 1: 1.0, 2: 1e300}), LaurentPolynomial({1: 1}))


def test_roots_degree_budget_is_checked_up_front():
    # a companion matrix of order 10^6 would need 14.6 TiB
    f = LaurentPolynomial({0: 1, 1_000_003: 1})
    with pytest.raises(ResourceLimitError, match="degree 1000003"):
        roots_nonzero(f)
    with pytest.raises(ResourceLimitError):
        sum_over_roots(f, LaurentPolynomial({1: 1}))


def test_sum_over_roots_examples():
    f = LaurentPolynomial({0: 2, 1: -3, 2: 1})  # roots 1, 2
    assert abs(sum_over_roots(f, LaurentPolynomial({1: 1})) - 3) < 1e-9
    assert abs(sum_over_roots(f, LaurentPolynomial({0: 1})) - 2) < 1e-12
    f2 = LaurentPolynomial({0: -1, 1: 1})
    assert abs(sum_over_roots(f2, LaurentPolynomial({-1: 1})) - 1) < 1e-12


def test_root_sum_beyond_double_range_is_numerical_error():
    # g = z**2000 at the roots +-2 of f is 2**2000
    with pytest.raises(NumericalError):
        sum_over_roots(LaurentPolynomial({0: -4, 2: 1}), LaurentPolynomial({2000: 1}))
    with pytest.raises(NumericalError):
        root_mean(exp_sum([(-4, 0), (1, 2)]), exp_sum([(1, 2000)]))


def test_residue_end_coefficients_quadratic():
    f = LaurentPolynomial({0: 2, 1: -3, 2: 1})
    g = LaurentPolynomial({1: 1})
    # each end's 1/z coefficient is the images' constant term over 2*pi
    res = mean_value(exp_sum([(2, 0), (-3, 1), (1, 2)]), exp_sum([(1, 1)]))
    a1, an = res.A_first / (2 * math.pi), res.A_last / (2 * math.pi)
    assert abs(a1) < 1e-12
    assert abs(an - 3) < 1e-12
    assert abs(series_sum(f, g) - 3) < 1e-12


def test_residue_formula_g_one_counts_roots():
    rng = random.Random(5)
    for _ in range(30):
        f = random_laurent(rng)
        got = series_sum(f, LaurentPolynomial({0: 1}))
        assert abs(got - f.exponent_span()) < 1e-9


def test_residue_matches_root_sum_random():
    rng = random.Random(2024)
    for _ in range(200):
        f = random_laurent(rng)
        g = random_laurent(rng, span=3)
        direct = sum_over_roots(f, g)
        series = series_sum(f, g)
        assert abs(series - direct) < 1e-8, (f, g, series, direct)


def test_residue_matches_root_sum_degree_nine():
    # a root set on which an iterative solver with an absolute residual
    # tolerance stalls near 3e-12; the two routes agree to rounding
    coeffs = [-1 - 1j, -2 - 2j, 2 - 2j, 2j, 2j, -1 - 2j, -1, -2j, 2 - 2j, 1j]
    f = LaurentPolynomial(dict(enumerate(coeffs)))
    g = LaurentPolynomial({1: 1, -1: 1})
    assert len(roots_nonzero(f)) == 9
    assert abs(series_sum(f, g) - 2j) < 1e-12
    assert abs(sum_over_roots(f, g) - series_sum(f, g)) < 1e-12


def test_substitution_examples():
    f = exp_sum([(6, 0), (-5, 1), (1, 2)])
    g = exp_sum([(1, 1)])
    assert abs(root_mean(f, g) - 5) < 1e-9
    f2 = exp_sum([(1, 0), (1, 1)])
    assert abs(root_mean(f2, exp_sum([(1, 0)])) - 1) < 1e-12
    f3 = exp_sum([(1, 0), (1, "1/2")])
    assert abs(root_mean(f3, exp_sum([(1, 0)])) - 0.5) < 1e-12


def test_substitution_rejects_irrational_basis():
    basis = FrequencyBasis(("1", SQRT2))
    f = exp_sum([(1, (0, 0)), (1, (0, 1))], basis)
    with pytest.raises(InputError):
        root_mean(f, exp_sum([(1, (0, 0))], basis))


def test_substitution_zero_g():
    f = exp_sum([(1, 0), (1, 1)])
    assert root_mean(f, exp_sum([])) == 0


def test_bridge_identity_random():
    # series mean against the root-sum mean on rational frequencies
    rng = random.Random(99)
    for _ in range(50):
        n = rng.randint(2, 4)
        fpairs = []
        for k in rng.sample(range(-6, 7), n):
            r = rng.uniform(0.5, 2.0)
            fpairs.append((cmath.rect(r, rng.uniform(0, 2 * math.pi)), Fraction(k, 2)))
        gpairs = []
        for k in rng.sample(range(-4, 5), rng.randint(1, 3)):
            r = rng.uniform(0.5, 2.0)
            gpairs.append((cmath.rect(r, rng.uniform(0, 2 * math.pi)), Fraction(k, 2)))
        f = exp_sum(fpairs)
        g = exp_sum(gpairs)
        lhs = mean_value(f, g).mean
        rhs = root_mean(f, g)
        assert abs(lhs - rhs) < 1e-9, (f, g, lhs, rhs)
