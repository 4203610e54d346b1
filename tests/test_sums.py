"""Unit tests for exponential-sum construction and term algebra."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from expmean.errors import InputError
from expmean.exact import ExactCoeff, GaussianRational
from expmean.sums import (
    DEFAULT_BASIS,
    End,
    ExpTerm,
    ExponentialSum,
    Frequency,
    FrequencyBasis,
    add,
    derivative,
    divide_by_extreme_term,
    evaluate,
    evaluate_array,
    exp_sum,
    extreme_term,
    multiply,
    normalize,
    reflect,
)

SQRT2 = "1.41421356237309504880168872421"


def random_sum(rng, basis=None, max_terms=4, exact=False):
    basis = basis or DEFAULT_BASIS
    n = rng.randint(1, max_terms)
    pairs = []
    for _ in range(n):
        if exact:
            c = (Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                 Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
        else:
            c = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        f = Fraction(rng.randint(-12, 12), rng.randint(1, 6))
        pairs.append((c, f))
    return exp_sum(pairs, basis, exact=exact)


def test_normalize_merges_equal_frequencies():
    f = exp_sum([(1, "1/2"), (2, "1/2"), (1, 0)])
    assert f.num_terms() == 2
    assert f.coefficient_at(Frequency.of("1/2")) == 3 + 0j


def test_normalize_drops_zero_coefficients():
    f = exp_sum([(1, 1), (-1, 1), (2, 0)])
    assert f.num_terms() == 1
    assert f.freq_values() == [Fraction(0)]


def test_normalize_sorts_ascending():
    f = exp_sum([(1, 3), (1, -2), (1, "1/3")])
    assert f.freq_values() == [Fraction(-2), Fraction(1, 3), Fraction(3)]


def test_normalize_idempotent_random():
    rng = random.Random(101)
    for _ in range(200):
        f = random_sum(rng)
        g = normalize(f.terms, f.basis, f.exact)
        assert g == f


def test_normalize_rejects_mixed_modes():
    t1 = ExpTerm(1 + 0j, Frequency.of(0))
    t2 = ExpTerm(ExactCoeff.one(1), Frequency.of(1))
    for exact in (False, True):
        with pytest.raises(InputError):
            normalize([t1, t2], DEFAULT_BASIS, exact)


def test_normalize_detects_basis_collision():
    basis = FrequencyBasis(("1", "0.5"))
    # 1*b0 and 2*b1 land on the same numeric value
    f1 = Frequency((Fraction(1), Fraction(0)))
    f2 = Frequency((Fraction(0), Fraction(2)))
    with pytest.raises(InputError):
        normalize([ExpTerm(1 + 0j, f1), ExpTerm(1 + 0j, f2)], basis, exact=False)


def test_float_mode_coefficient_pairs_parse_rationals():
    pairs = [(("-1/2", "1/3"), 1), ((Fraction(3, 4), 2), 0), (("7", -1), "1/2")]
    assert exp_sum(pairs) == exp_sum(pairs, exact=True).to_float_mode()
    assert exp_sum([(("1/4", 0.5), 0)]).terms[0].coeff == 0.25 + 0.5j
    for bad in ("1/x", "1/0"):
        for exact in (False, True):
            with pytest.raises(InputError):
                exp_sum([((bad, 0), 1)], exact=exact)
            with pytest.raises(InputError):
                exp_sum([(bad, 1)], exact=exact)


@pytest.mark.parametrize(
    "coeff",
    ["1e400", ("1e400", 0), (0, "-1e400"), 10**400, float("nan"), float("inf"),
     -float("inf"), complex(1, float("nan")), (1.0, float("inf"))],
    ids=["lone", "pair-re", "pair-im", "int", "nan", "inf", "-inf", "complex-nan", "pair-inf"],
)
def test_float_mode_coefficient_beyond_double_range_is_input_error(coeff):
    # rejected when the sum is built, not later as a numerical failure
    with pytest.raises(InputError, match="beyond double range|not finite"):
        exp_sum([(1, 0), (coeff, 1)])


def test_basis_rejects_nonpositive_values():
    with pytest.raises(InputError):
        FrequencyBasis(("0",))
    with pytest.raises(InputError):
        FrequencyBasis(("-2",))


def test_sqrt2_basis_ordering():
    basis = FrequencyBasis(("1", SQRT2))
    one = Frequency((Fraction(1), Fraction(0)))
    rt2 = Frequency((Fraction(0), Fraction(1)))
    f = exp_sum([(1, rt2), (1, one)], basis)
    assert f.frequencies() == [one, rt2]
    assert basis.value_key(rt2) > basis.value_key(one)


def test_evaluate_two_term_oracle():
    # 1 + e^{2 pi z} at 0.1 + 0.2i, value frozen from a 30-digit computation
    f = exp_sum([(1, 0), (1, 1)])
    v = evaluate(f, 0.1 + 0.2j)
    assert abs(v - (1.5792387862734444572 + 1.7827136766071551544j)) < 1e-13


def test_evaluate_three_term_oracle():
    basis = FrequencyBasis(("1", SQRT2))
    f = exp_sum(
        [
            (2, (0, 0)),
            (-3, ("1/2", 0)),
            (1j, (0, 1)),
        ],
        basis,
    )
    v = evaluate(f, 0.05 - 0.03j)
    assert abs(v - (-1.0839048686598670099 + 1.8346468814727270538j)) < 1e-13


def test_evaluate_zero_sum():
    z = exp_sum([], DEFAULT_BASIS)
    assert evaluate(z, 1.7 + 2j) == 0j
    assert np.all(evaluate_array(z, np.array([1j, 2j])) == 0)


def test_evaluate_overflow_gives_infinity():
    f = exp_sum([(1, 100)])
    v = evaluate(f, 1000.0 + 0j)
    assert math.isinf(abs(v))


def test_evaluate_array_matches_scalar():
    rng = random.Random(7)
    f = random_sum(rng)
    zs = np.array([complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(20)])
    arr = evaluate_array(f, zs)
    for z, v in zip(zs, arr):
        assert abs(v - evaluate(f, z)) < 1e-12 * (1 + abs(v))


def test_add_and_multiply_are_pointwise():
    rng = random.Random(42)
    for _ in range(300):
        f = random_sum(rng)
        g = random_sum(rng)
        z = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        vf, vg = evaluate(f, z), evaluate(g, z)
        vs = evaluate(add(f, g), z)
        vp = evaluate(multiply(f, g), z)
        assert abs(vs - (vf + vg)) <= 1e-9 * (1 + abs(vf) + abs(vg))
        assert abs(vp - vf * vg) <= 1e-9 * (1 + abs(vf) * abs(vg))


def test_multiply_cancellation_exact():
    a = exp_sum([(1, 0), (-1, 1)], exact=True)
    b = exp_sum([(1, 0), (1, 1)], exact=True)
    p = multiply(a, b)
    # (1 - e)(1 + e) = 1 - e^2: the cross terms cancel exactly
    assert p.freq_values() == [Fraction(0), Fraction(2)]
    assert p.coefficient_at(Frequency.of(0)).is_one()


def test_multiply_rejects_basis_mismatch():
    f = exp_sum([(1, 0)])
    g = exp_sum([(1, (0, 1))], FrequencyBasis(("1", SQRT2)))
    with pytest.raises(InputError):
        multiply(f, g)
    h = exp_sum([(1, 0)], exact=True)
    with pytest.raises(InputError):
        add(f, h)


def test_derivative_finite_difference():
    rng = random.Random(88)
    h = 1e-6
    for _ in range(50):
        f = random_sum(rng, max_terms=3)
        df = derivative(f)
        z = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
        fd = (evaluate(f, z + h) - evaluate(f, z - h)) / (2 * h)
        assert abs(evaluate(df, z) - fd) < 1e-4 * (1 + abs(fd))


def test_derivative_oracle_value():
    f = exp_sum([(1, 0), (1, 1)])
    df = derivative(f)
    v = evaluate(df, 0.1 + 0.2j)
    assert abs(v - (3.6394646312618429507 + 11.201120379766178146j)) < 1e-12


def test_derivative_kills_constant_term():
    f = exp_sum([(5, 0), (2, 1)])
    df = derivative(f)
    assert df.freq_values() == [Fraction(1)]
    assert abs(df.terms[0].coeff - 2 * 2 * math.pi) < 1e-15


def test_derivative_exact_leibniz():
    rng = random.Random(5)
    for _ in range(50):
        f = random_sum(rng, max_terms=3, exact=True)
        g = random_sum(rng, max_terms=3, exact=True)
        lhs = derivative(multiply(f, g))
        rhs = add(multiply(derivative(f), g), multiply(f, derivative(g)))
        assert lhs == rhs


def test_derivative_exact_scale_is_symbolic():
    f = exp_sum([(3, "1/2")], exact=True)
    df = derivative(f)
    c = df.terms[0].coeff
    assert c.scalar.is_zero()
    assert c.twopi[0] == GaussianRational.of("3/2")


def test_second_derivative_requires_float_mode():
    f = exp_sum([(1, 1)], exact=True)
    with pytest.raises(InputError):
        derivative(derivative(f))
    g = exp_sum([(1, 1)])
    d2 = derivative(derivative(g))
    assert abs(d2.terms[0].coeff - (2 * math.pi) ** 2) < 1e-12


def test_divide_by_extreme_term_first():
    f = exp_sum([(2, -1), (3, 0), (4, 2)])
    u = divide_by_extreme_term(f, End.FIRST)
    assert u.freq_values() == [Fraction(0), Fraction(1), Fraction(3)]
    assert u.coefficient_at(Frequency.of(0)) == 1.0
    assert u.coefficient_at(Frequency.of(1)) == 1.5 + 0j


def test_divide_by_extreme_term_last():
    f = exp_sum([(2, -1), (3, 0), (4, 2)], exact=True)
    u = divide_by_extreme_term(f, End.LAST)
    assert u.freq_values() == [Fraction(-3), Fraction(-2), Fraction(0)]
    assert u.coefficient_at(Frequency.of(0)).is_one()
    assert u.coefficient_at(Frequency.of(-3)) == ExactCoeff.plain(
        GaussianRational.of("1/2"), 1
    )


def test_extreme_term_of_zero_sum_raises():
    with pytest.raises(InputError):
        extreme_term(exp_sum([]), End.FIRST)


def test_divide_is_pointwise_quotient():
    rng = random.Random(13)
    for _ in range(100):
        f = random_sum(rng)
        for end in (End.FIRST, End.LAST):
            u = divide_by_extreme_term(f, end)
            ext = extreme_term(f, end)
            z = complex(rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3))
            denom = evaluate(ExponentialSum((ext,), f.basis, f.exact), z)
            assert abs(evaluate(u, z) - evaluate(f, z) / denom) < 1e-9 * (
                1 + abs(evaluate(f, z) / denom)
            )


def test_reflect_involution_and_pointwise():
    rng = random.Random(23)
    for _ in range(100):
        f = random_sum(rng)
        r = reflect(f)
        assert reflect(r) == f
        z = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        assert abs(evaluate(r, z) - evaluate(f, -z)) < 1e-10 * (1 + abs(evaluate(f, -z)))


def test_exact_and_float_evaluation_agree():
    rng = random.Random(31)
    for _ in range(60):
        f = random_sum(rng, exact=True)
        g = f.to_float_mode()
        z = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
        vf, vg = evaluate(f, z), evaluate(g, z)
        assert abs(vf - vg) < 1e-12 * (1 + abs(vf))


def test_frequency_vector_arithmetic():
    a = Frequency.of((1, "1/2"))
    b = Frequency.of(("1/3", 2))
    assert (a + b).coords == (Fraction(4, 3), Fraction(5, 2))
    assert (a - b).coords == (Fraction(2, 3), Fraction(-3, 2))
    assert (-a).coords == (Fraction(-1), Fraction(-1, 2))
    assert not a.is_zero() and (a - a).is_zero()
