"""Unit tests for exponential-sum construction and term algebra."""

import math
import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expmean import sums, zerofind
from expmean.errors import InputError, NumericalError
from expmean.exact import GR_ONE, GaussianRational
from expmean.sums import (
    DEFAULT_BASIS,
    End,
    ExpTerm,
    ExponentialSum,
    Frequency,
    FrequencyBasis,
    add,
    coefficient_envelope,
    derivative,
    divide_by_extreme_term,
    evaluate,
    evaluate_array,
    exp_sum,
    extreme_term,
    generator_exponentials,
    multiply,
    normalize,
    one_sum,
)

SQRT2 = "1.41421356237309504880168872421"
SQRT3 = "1.73205080756887729352744634151"


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
    t2 = ExpTerm(GR_ONE, Frequency.of(1))
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


def _reference_normalize(raw_terms, basis, exact):
    """normalize's terms as it ran on Fraction-tuple keys and FrequencyBasis.value_key."""
    merged = {}
    for t in raw_terms:
        if isinstance(t.coeff, GaussianRational) != exact:
            raise InputError("term list mixes exact and float coefficients")
        if len(t.freq.coords) != len(basis):
            raise InputError(
                f"term frequency has {len(t.freq.coords)} coordinates, basis has {len(basis)}"
            )
        key = t.freq.coords
        merged[key] = merged[key] + t.coeff if key in merged else t.coeff
    kept = []
    for coords, c in merged.items():
        if not (c.is_zero() if exact else c == 0):
            f = Frequency(coords)
            kept.append((basis.value_key(f), f, c))
    kept.sort(key=lambda vfc: vfc[0])
    if any(a[0] == b[0] for a, b in zip(kept, kept[1:])):
        raise InputError(
            "distinct frequency vectors share one numeric value; "
            "the declared basis is not Q-linearly independent"
        )
    return tuple(ExpTerm(c, f) for _, f, c in kept)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except InputError as exc:
        return str(exc)


# 0.5 = 1/2 makes the second basis dependent: (1, 0, 0) and (0, 2, 0) share a value
ORACLE_BASES = [FrequencyBasis(("1", SQRT2, SQRT3)), FrequencyBasis(("1", "0.5", SQRT3))]


@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
@pytest.mark.parametrize("basis", ORACLE_BASES, ids=["independent", "dependent"])
def test_normalize_matches_fraction_keyed_normalize(basis, exact):
    rng = random.Random(7)
    coords = [Fraction(k, d) for k in range(-3, 4) for d in (1, 2, 3, 4, 6)]
    outcomes = set()
    for trial in range(150):
        # a pool of a few vectors makes repeats; each term may come back negated
        pool = [tuple(rng.choice(coords) for _ in range(3)) for _ in range(rng.randint(1, 5))]
        if rng.random() < 0.25:  # a vector that shares a value under the dependent basis
            pool.append((pool[0][0] + 1, pool[0][1] - 2, pool[0][2]))
        raw = []
        for _ in range(rng.randint(0, 8) if trial else 0):
            c = (Fraction(rng.randint(-4, 4), rng.randint(1, 3)), Fraction(rng.randint(-4, 4)))
            c = GaussianRational(*c) if exact else complex(*c)
            freq = Frequency(rng.choice(pool))
            raw.append(ExpTerm(c, freq))
            if rng.random() < 0.3:
                raw.append(ExpTerm(-c, freq))
        rng.shuffle(raw)
        got = _outcome(lambda *args: normalize(*args).terms, raw, basis, exact)
        assert got == _outcome(_reference_normalize, raw, basis, exact)
        outcomes.add(type(got))
    # a dependent basis raises on some lists, and every basis keeps others whole
    assert outcomes == ({tuple, str} if basis.values[1] == "0.5" else {tuple})


@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
def test_normalize_reads_no_value_key(monkeypatch, exact):
    # frequency 2 merges, 1 cancels and 0 stays; merging, the sort and the
    # collision check all run on the int lattice, so no Fraction value is read
    read, value_key = [], FrequencyBasis.value_key
    monkeypatch.setattr(
        FrequencyBasis, "value_key", lambda self, freq: read.append(freq) or value_key(self, freq)
    )
    one = GR_ONE if exact else 1 + 0j
    coeffs = (one, one, one, one, -one)
    raw = (ExpTerm(c, Frequency.of(k)) for c, k in zip(coeffs, (2, 0, 2, 1, 1)))
    f = normalize(raw, DEFAULT_BASIS, exact)
    assert [t.freq for t in f.terms] == [Frequency.of(0), Frequency.of(2)]
    assert f.terms[1].coeff == one + one
    assert read == []


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


@pytest.mark.parametrize("freq", [0.5, None, 1j], ids=["float", "none", "complex"])
def test_frequency_of_rejects_non_rational_scalars(freq):
    # neither a rational-like scalar nor a coordinate sequence
    with pytest.raises(InputError, match="not an exact frequency"):
        Frequency.of(freq)
    for exact in (False, True):
        with pytest.raises(InputError):
            exp_sum([(1, freq)], exact=exact)


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


@pytest.mark.parametrize(
    "coeff",
    ["1e-400", ("1e-400", 0), (0, "-1e-400"), ("1e-400", "1e-500"), Fraction(1, 10**400),
     GaussianRational.of("1e-400")],
    ids=["lone", "pair-re", "pair-im", "pair-both", "fraction", "gaussian"],
)
def test_float_mode_coefficient_below_double_range_is_input_error(coeff):
    # a nonzero coefficient whose double is 0 would be dropped as a zero term
    with pytest.raises(InputError, match="below double range"):
        exp_sum([(1, 0), (coeff, 1)])


def test_float_mode_coefficient_keeping_a_nonzero_part_is_accepted():
    f = exp_sum([(1, 0), (("1e-400", 2), 1), ((0, "0/5"), 2)])
    assert [t.coeff for t in f.terms] == [1, 2j]


def test_exact_mode_takes_integral_floats_and_complex_values():
    f = exp_sum([(2.0, 0), (complex(1, -3), 1), ((4.0, -0.0), 2)], exact=True)
    assert [t.coeff for t in f.terms] == [GaussianRational.of(2), GaussianRational.of(1, -3),
                                          GaussianRational.of(4)]
    for lossy in (0.5, complex(1, 0.5), (1, 0.1)):
        with pytest.raises(InputError, match="term 0: exact mode takes integers"):
            exp_sum([(lossy, 0)], exact=True)


def test_float_mode_keeps_the_sign_of_zero():
    c = exp_sum([((-0.0, 1.0), 0), (complex(2, -0.0), 1)])
    assert [math.copysign(1, x) for t in c.terms for x in (t.coeff.real, t.coeff.imag)] == [
        -1, 1, 1, -1]


@pytest.mark.parametrize("exact", [False, True])
def test_booleans_and_non_list_frequencies_are_rejected(exact):
    for pairs in ([(True, 0)], [((1, False), 0)], [(1, True)], [(1, [True])], [(1, {"1": 0})]):
        with pytest.raises(InputError, match="term 0: "):
            exp_sum(pairs, exact=exact)


def test_exact_coefficient_below_double_range_does_not_convert():
    f = exp_sum([("1e-400", 0), (1, 1)], exact=True)
    with pytest.raises(NumericalError, match="exact coefficient does not fit a double"):
        f.to_float_mode()
    # a part that stays nonzero keeps the coefficient, as in float mode
    g = exp_sum([(("1e-400", 2), 0), (1, 1)], exact=True).to_float_mode()
    assert [t.coeff for t in g.terms] == [2j, 1]


@pytest.mark.parametrize("value", ["NaN", "sNaN", "Infinity", "-Infinity", "1e400", "x"])
def test_basis_rejects_non_finite_values(value):
    with pytest.raises(InputError, match="basis value"):
        FrequencyBasis(("1", value))


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
    assert [t.freq for t in f.terms] == [one, rt2]
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
    # a scalar is a 0-d array, evaluated as the same point of an array
    one, env = evaluate_array(f, zs[3]), coefficient_envelope(f, zs[3].real)
    assert one.shape == env.shape == ()
    assert one.tobytes() == arr[3].tobytes()
    assert env.tobytes() == coefficient_envelope(f, zs.real)[3].tobytes()


def _kernel_cases():
    """Sums for each path of the float kernel, with whether they use the lattice."""
    rng = random.Random(11)
    basis = FrequencyBasis(("1", SQRT2, SQRT3))

    def coeff():
        return complex(rng.uniform(-3, 3), rng.uniform(-3, 3))

    cases = []
    for _ in range(6):
        # negative frequencies: one generator per nonzero frequency
        cases.append((random_sum(rng, max_terms=6), False))
        # a Laurent image P(e^{2 pi z/q}): one generator
        q = rng.randint(1, 4)
        cases.append((exp_sum([(coeff(), Fraction(k, q)) for k in range(rng.randint(2, 7))]), True))
        # nonnegative coordinates over {1, sqrt2, sqrt3}: at most three generators
        pairs = [(coeff(), (k // 9, k // 3 % 3, k % 3)) for k in rng.sample(range(27), 5)]
        cases.append((exp_sum(pairs, basis), None))
    # a power of 65 exceeds the cap, and so does an lcm past 2**63: one
    # generator per nonzero frequency
    cases.append((exp_sum([(1, 0), (2j, "1/65"), (-1, 1)]), False))
    cases.append((exp_sum([(1, 0), (2j, "1/3"), (-1, "1/9999999967"), (1, "1/9999999943")]), False))
    return cases


def _mp_sum(coeffs, values, z):
    with mpmath.workdps(30):
        two_pi_z = 2 * mpmath.pi * mpmath.mpc(z)
        return mpmath.fsum(mpmath.mpmathify(c) * mpmath.exp(two_pi_z * mpmath.mpf(a.numerator) / a.denominator)
                           for c, a in zip(coeffs, values))


def test_evaluate_array_and_envelope_match_mpmath():
    rng = random.Random(5)
    eps = np.finfo(float).eps
    paths = set()
    for f, lattice in _kernel_cases():
        freqs, coeffs = f.numeric_parts
        uses_lattice = len(f._generators[0]) < np.count_nonzero(freqs)
        assert lattice in (None, uses_lattice)
        paths.add(uses_lattice)
        # real parts reach far enough that some exponentials overflow
        zs = np.array([complex(rng.uniform(-300, 300), rng.uniform(-50, 50)) for _ in range(48)]
                      + [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(16)])
        zs = zs.reshape(4, 16) if rng.random() < 0.5 else zs
        got, env = evaluate_array(f, zs), coefficient_envelope(f, zs.real)
        with np.errstate(over="ignore", invalid="ignore"):
            direct = np.exp(2.0 * math.pi * np.multiply.outer(zs, freqs)) @ coeffs
            direct_env = np.exp(2.0 * math.pi * np.multiply.outer(zs.real, freqs)) @ np.abs(coeffs)
        assert np.array_equal(np.isfinite(got), np.isfinite(direct))
        assert np.array_equal(np.isfinite(env), np.isfinite(direct_env))
        arg = 2.0 * math.pi * np.abs(np.multiply.outer(zs, freqs)).max(axis=-1)
        # below the normal range every evaluation loses relative precision
        bound = 8 * eps * (1 + arg) * env + 1e-300
        values = f.freq_values()
        for z, v, e, b in zip(zs.ravel(), got.ravel(), env.ravel(), bound.ravel()):
            if np.isfinite(b):
                assert abs(v - complex(_mp_sum(coeffs, values, z))) <= b, (f, z)
                assert abs(e - float(_mp_sum(np.abs(coeffs), values, z.real).real)) <= b, (f, z)
    assert paths == {False, True}


@pytest.mark.parametrize(
    "f, shares",
    [
        (exp_sum([(6, 0), (-5, "1/2"), (1, 1)]), True),
        (exp_sum([(1, (0, 0, 0)), (2j, (1, 0, 0)), (-1, (0, 1, 0)), (3, (1, 1, 1))],
                 FrequencyBasis(("1", SQRT2, SQRT3))), True),
        (exp_sum([(1, -1), (2j, 0), (-1, "1/65"), (1, 1)]), True),
        # 5e-324 * 2 pi/16 rounds to 0, so f' keeps only e(1): another generator
        (exp_sum([(1, 0), (5e-324, "1/16"), (1, 1)]), False),
    ],
    ids=["laurent-image", "sqrt-lattice", "one-per-frequency", "derivative-loses-a-term"],
)
def test_shared_exponentials_evaluate_bitwise_as_fresh_points(f, shares):
    rng = random.Random(3)
    zs = np.array([complex(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(40)])
    df = derivative(f)
    assert (df._generators[0] == f._generators[0]) == shares
    shared = generator_exponentials(f, zs)
    for g in (f, df):
        assert evaluate_array(g, shared).tobytes() == evaluate_array(g, zs).tobytes()
    # only a sum with f's generators may read f's values
    poisoned = shared._replace(values=[np.full_like(u, np.nan) for u in shared.values])
    assert np.isnan(evaluate_array(f, poisoned)).all()
    got = evaluate_array(df, poisoned)
    assert np.isnan(got).all() if shares else got.tobytes() == evaluate_array(df, zs).tobytes()


def _reference_power_sum(f, e, coeffs):
    """The whole-array kernel: each power and each term a full-size array,
    added into a zero-filled accumulator."""
    _, needs, factors = f._generators
    tables = []
    with np.errstate(over="ignore", invalid="ignore"):
        for u, (top, used) in zip(e.values, needs):
            cur, table = u, {1: u}
            for p in range(2, top + 1):
                cur = cur * u
                if p in used:
                    table[p] = cur
            tables.append(table)
        out = np.zeros(e.points.shape, dtype=np.result_type(e.points, coeffs))
        for c, row in zip(coeffs, factors):
            for j, p in row:
                c = c * tables[j][p]
            out += c
    return out


BLOCK_SIZES = [1, sums._BLOCK - 1, sums._BLOCK, sums._BLOCK + 1, 3 * sums._BLOCK + 5]


@pytest.mark.parametrize("size", BLOCK_SIZES)
@pytest.mark.parametrize(
    "f",
    [
        exp_sum([(6, 0), (-5, "1/2"), (1, 1)]),
        exp_sum([(1, (0, 0, 0)), (2j, (1, 0, 0)), (-1, (0, 1, 0)), (3, (1, 1, 1))],
                FrequencyBasis(("1", SQRT2, SQRT3))),
        exp_sum([(1, -1), (2j, 0), (-1, "1/65"), (1, 1)]),
        exp_sum([(3, 0)]),  # f' is the zero sum, which no term fills
    ],
    ids=["laurent-image", "sqrt-lattice", "one-per-frequency", "constant"],
)
def test_blocked_evaluation_is_bitwise_the_whole_array_sum(f, size):
    rng = np.random.default_rng(size)
    # a third of the real parts reach far enough that some terms overflow or underflow
    zs = rng.uniform(-2, 2, size) + 1j * rng.uniform(-2, 2, size)
    zs[::3] = rng.uniform(-300, 300, zs[::3].size) + 1j * rng.uniform(-50, 50, zs[::3].size)
    for g in (f, derivative(f)):
        coeffs = g.numeric_parts[1]
        e = generator_exponentials(g, zs)
        poisoned = e._replace(values=[np.where(rng.random(size) < 0.1, np.nan, u) for u in e.values])
        for pts in (e, poisoned):
            want = _reference_power_sum(g, pts, coeffs)
            assert evaluate_array(g, pts).tobytes() == want.tobytes()
        want = _reference_power_sum(g, generator_exponentials(g, zs.real), np.abs(coeffs))
        assert coefficient_envelope(g, zs.real).tobytes() == want.tobytes()


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
    assert p.coefficient_at(Frequency.of(0)) == GR_ONE


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


def test_derivative_leibniz():
    rng = random.Random(5)
    for _ in range(50):
        f = random_sum(rng, max_terms=3)
        g = random_sum(rng, max_terms=3)
        lhs = derivative(multiply(f, g))
        rhs = add(multiply(derivative(f), g), multiply(f, derivative(g)))
        # the frequency-0 terms of rhs cancel only to rounding
        for freq in {t.freq for t in lhs.terms} | {t.freq for t in rhs.terms}:
            a, b = lhs.coefficient_at(freq), rhs.coefficient_at(freq)
            assert abs(a - b) <= 1e-12 * (1 + abs(a))


def test_derivative_rejects_exact_sum():
    # 2*pi*a is not a Gaussian rational, so an exact sum has no exact derivative
    with pytest.raises(InputError, match="no exact derivative"):
        derivative(exp_sum([(3, "1/2")], exact=True))


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
    assert u.coefficient_at(Frequency.of(0)) == GR_ONE
    assert u.coefficient_at(Frequency.of(-3)) == GaussianRational.of("1/2")


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
            denom = evaluate(normalize([ext], f.basis, f.exact), z)
            assert abs(evaluate(u, z) - evaluate(f, z) / denom) < 1e-9 * (
                1 + abs(evaluate(f, z) / denom)
            )


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


def _coarsest_den(s):
    """Each coordinate's least common denominator over the sum's Frequency terms."""
    return tuple(math.lcm(*(t.freq.coords[i].denominator for t in s.terms))
                 for i in range(len(s.basis)))


_EXACT_COEFF = st.builds(
    GaussianRational,
    st.fractions(-4, 4, max_denominator=3).filter(bool),
    st.fractions(-4, 4, max_denominator=3),
)


@st.composite
def _exact_terms(draw):
    """A basis, 2-6 terms at distinct frequencies and 0-4 more terms, exact."""
    basis = draw(st.sampled_from([DEFAULT_BASIS, FrequencyBasis(("1", SQRT2, SQRT3))]))
    coords = st.tuples(*[st.fractions(-2, 2, max_denominator=6)] * len(basis))
    term = st.tuples(_EXACT_COEFF, coords)
    terms = draw(st.lists(term, min_size=2, max_size=6, unique_by=lambda t: t[1]))
    return basis, terms, draw(st.lists(term, max_size=4))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(_exact_terms())
def test_routes_to_one_sum_are_equal_and_canonical(problem):
    # one sum reached by five routes: equal, equal hashes, one strip_bound
    # cache entry, each on the coarsest lattice over its own terms
    basis, terms, other = problem
    f, t = exp_sum(terms, basis, exact=True), exp_sum(other, basis, exact=True)
    minus_one = exp_sum([(-1, 0)], basis, exact=True)
    routes = [
        exp_sum(reversed(terms), basis, exact=True),
        multiply(f, one_sum(basis, exact=True)),
        add(add(f, t), multiply(t, minus_one)),
    ]
    for end in (End.FIRST, End.LAST):
        ext = extreme_term(f, end)
        routes.append(multiply(divide_by_extreme_term(f, end),
                               exp_sum([(ext.coeff, ext.freq)], basis, exact=True)))
    zerofind.strip_bound.cache_clear()
    b = zerofind.strip_bound(f)
    for s in [f, t, *routes]:
        assert s.lattice == s.basis.lattice(_coarsest_den(s))
        assert [s.lattice.freq(p) for p in s.points] == [term.freq for term in s.terms]
    for s in routes:
        assert s == f and hash(s) == hash(f)
        hits = zerofind.strip_bound.cache_info().hits
        assert zerofind.strip_bound(s) == b
        assert zerofind.strip_bound.cache_info().hits == hits + 1
