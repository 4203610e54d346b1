"""Tests for the constant-term pipeline and the mean-value identities."""

import cmath
import heapq
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expmean import meanvalue
from expmean.errors import InputError, NumericalError, ResourceLimitError
from expmean.exact import GR_ONE, GR_ZERO, GaussianRational
from expmean.laurent import laurent_images
from expmean.meanvalue import (
    MeanValueResult,
    _a_value,
    _derivative_products,
    mean_value,
    mean_zero_count,
    support_semigroup_generators,
    truncated_reciprocal,
)
from expmean.sums import (
    DEFAULT_BASIS,
    End,
    ExponentialSum,
    ExpTerm,
    Frequency,
    FrequencyBasis,
    divide_by_extreme_term,
    exp_sum,
    extreme_term,
    multiply,
    normalize,
    one_sum,
)
from expmean.verify import convergence_report
from expmean.zerofind import search_zeros

SQRT2 = "1.41421356237309504880168872421"
SQRT3 = "1.73205080756887729352744634151"
BASIS3 = FrequencyBasis(("1", SQRT2, SQRT3))


def reflect(f: ExponentialSum) -> ExponentialSum:
    """The sum representing z -> f(-z): every frequency negated."""
    return normalize([ExpTerm(t.coeff, -t.freq) for t in f.terms], f.basis, exact=f.exact)


def random_exact_sum(rng, max_terms=5, spread=8):
    n = rng.randint(2, max_terms)
    pairs = []
    freqs = rng.sample(range(-spread * 6, spread * 6), n)
    for k in freqs:
        c = (Fraction(rng.randint(-9, 9), rng.randint(1, 9)) or Fraction(1),
             Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
        pairs.append((c, Fraction(k, 6)))
    f = exp_sum(pairs, exact=True)
    if f.num_terms() < 2:
        return random_exact_sum(rng, max_terms, spread)
    return f


# ---------------------------------------------------------------- reciprocal


def test_reciprocal_two_term_geometric():
    ft = exp_sum([(1, 0), (1, 1)])
    s = truncated_reciprocal(ft, End.FIRST, 2.5)
    assert s.sum.freq_values() == [Fraction(0), Fraction(1), Fraction(2)]
    assert s.sum.coefficient_at(Frequency.of(0)) == 1
    assert s.sum.coefficient_at(Frequency.of(1)) == -1
    assert s.sum.coefficient_at(Frequency.of(2)) == 1


def test_reciprocal_of_one_is_one():
    ft = one_sum()
    for cut in (0, 1, 100):
        s = truncated_reciprocal(ft, End.FIRST, cut)
        assert s.sum == one_sum()


def test_reciprocal_three_term_truncated():
    ft = exp_sum([(1, 0), (Fraction(-5, 6), 1), (Fraction(1, 6), 2)], exact=True)
    s = truncated_reciprocal(ft, End.FIRST, 1)
    assert s.sum.freq_values() == [Fraction(0), Fraction(1)]
    assert s.sum.coefficient_at(Frequency.of(1)) == GaussianRational.of("5/6")


def test_reciprocal_requires_unit_constant_term():
    with pytest.raises(InputError):
        truncated_reciprocal(exp_sum([(2, 0), (1, 1)]), End.FIRST, 1)
    with pytest.raises(InputError):
        truncated_reciprocal(exp_sum([(1, 1)]), End.FIRST, 1)


def test_reciprocal_rejects_wrong_side_frequencies():
    ft = exp_sum([(1, -1), (1, 0)])
    with pytest.raises(InputError):
        truncated_reciprocal(ft, End.FIRST, 1)
    with pytest.raises(InputError):
        truncated_reciprocal(exp_sum([(1, 0), (1, 1)]), End.LAST, 1)


@pytest.mark.parametrize(
    "cutoff", [-3, Fraction(-1, 2), "-1", math.inf, math.nan, "1/0", True, False]
)
def test_reciprocal_rejects_negative_or_non_finite_cutoff(cutoff):
    with pytest.raises(InputError, match="cutoff"):
        truncated_reciprocal(exp_sum([(1, 0), (1, 1)]), End.FIRST, cutoff)


def test_reciprocal_truncation_soundness():
    # ftilde * (1/ftilde) == 1 up to the cutoff, at both ends
    rng = random.Random(17)
    for _ in range(60):
        f = random_exact_sum(rng)
        for end in (End.FIRST, End.LAST):
            sign = 1 if end is End.FIRST else -1
            ft = divide_by_extreme_term(f, end)
            cut = Fraction(rng.randint(0, 20), 2)
            s = truncated_reciprocal(ft, end, cut)
            prod = multiply(ft, s.sum)
            kept = [t for t in prod.terms if sign * f.basis.value_key(t.freq) <= cut]
            assert normalize(kept, f.basis, True) == one_sum(f.basis, True)


def _reference_reciprocal(ftilde, end, cut):
    """The recurrence walked on Fraction coordinates, then sorted by normalize."""
    basis = ftilde.basis
    sign = 1 if end is End.FIRST else -1
    steps = [
        (t.freq.coords, sign * basis.value_key(t.freq), -t.coeff)
        for t in ftilde.terms
        if 0 < sign * basis.value_key(t.freq) <= cut
    ]
    origin = (Fraction(0),) * len(basis)
    zero = GR_ZERO if ftilde.exact else 0j
    coeffs = {}
    queued, heap = {origin}, [(Fraction(0), origin)]
    while heap:
        dist, alpha = heapq.heappop(heap)
        if coeffs:
            r = zero
            for beta, _, neg_c in steps:
                prev = coeffs.get(tuple(a - b for a, b in zip(alpha, beta)))
                if prev is not None:
                    r = r + neg_c * prev
        else:
            r = ftilde.coefficient_at(Frequency(origin))
        coeffs[alpha] = r
        for beta, step, _ in steps:
            nxt = tuple(a + b for a, b in zip(alpha, beta))
            if nxt not in queued and dist + step <= cut:
                queued.add(nxt)
                heapq.heappush(heap, (dist + step, nxt))
    return normalize([ExpTerm(c, Frequency(k)) for k, c in coeffs.items()], basis, ftilde.exact)


# fractional coordinates over {1, sqrt2, sqrt3}: the lattice denominators are 2, 3 and 1
FRACTIONAL_FTILDE = [
    ((1, 0), (0, 0, 0)),
    ((Fraction(-1, 2), Fraction(1, 3)), ("1/2", 0, 0)),
    ((Fraction(2, 3), 0), (0, "1/3", 0)),
    ((0, Fraction(-3, 4)), (0, 0, 1)),
    ((Fraction(1, 5), Fraction(1, 5)), ("-1/2", "2/3", 0)),
]


@pytest.mark.parametrize("end", [End.FIRST, End.LAST])
@pytest.mark.parametrize("exact", [True, False])
def test_reciprocal_kernel_oracle(end, exact):
    sign = 1 if end is End.FIRST else -1
    pairs = [(c, tuple(sign * Fraction(x) for x in v)) for c, v in FRACTIONAL_FTILDE]
    ftilde = exp_sum(pairs, BASIS3, exact)
    cut = Fraction(4)
    series = truncated_reciprocal(ftilde, end, cut).sum
    assert series == _reference_reciprocal(ftilde, end, cut)
    assert series.num_terms() > 100
    assert all(sign * v <= cut for v in series.freq_values())
    # (1/2, 1/3, 0) = (1/2, 0, 0) + (0, 1/3, 0) has coefficient 2 c_1 c_2
    mixed = Frequency((sign * Fraction(1, 2), sign * Fraction(1, 3), Fraction(0)))
    assert mixed in {t.freq for t in series.terms}
    kept = [t for t in multiply(ftilde, series).terms if sign * BASIS3.value_key(t.freq) <= cut]
    if exact:
        assert normalize(kept, BASIS3, True) == one_sum(BASIS3, True)
        return
    for t in kept:
        target = 1 if t.freq.is_zero() else 0
        assert abs(t.coeff - target) < 1e-12


def test_reciprocal_dependent_basis_shares_a_value():
    # with basis (1, 2) the points (2, 0) and (0, 1) both sit at 2
    ftilde = exp_sum([(1, (0, 0)), (1, (1, 0)), (1, (0, 1))], FrequencyBasis(("1", "2")))
    assert truncated_reciprocal(ftilde, End.FIRST, Fraction(3, 2)).sum.num_terms() == 2
    with pytest.raises(InputError, match="share one numeric value"):
        truncated_reciprocal(ftilde, End.FIRST, 2)


def test_one_collision_error():
    # a dependent basis gives one text whether a sum, a product or a series collides
    basis = FrequencyBasis(("1", "0.5"))
    with pytest.raises(InputError) as built:
        exp_sum([(1, (1, 0)), (1, (0, 2))], basis)
    a = exp_sum([(1, (0, 0)), (1, (0, 1))], basis)
    b = exp_sum([(1, (0, 0)), (1, (1, -1))], basis)
    with pytest.raises(InputError) as product:
        multiply(a, b)
    ftilde = exp_sum([(1, (0, 0)), (1, (0, 1)), (1, (1, 0))], basis, exact=True)
    with pytest.raises(InputError) as series:
        truncated_reciprocal(ftilde, End.FIRST, 1)
    texts = {str(e.value) for e in (built, product, series)}
    assert texts == {"distinct frequency vectors share one numeric value; "
                     "the declared basis is not Q-linearly independent"}


def test_reciprocal_series_budget(monkeypatch):
    ftilde = exp_sum([(1, 0), (1, 1)])
    with pytest.raises(ResourceLimitError, match="budget of 100000 terms"):
        truncated_reciprocal(ftilde, End.FIRST, 10**6)
    # the walk queues points 0..cut: 10 fit a budget of 10, 11 do not
    monkeypatch.setattr(meanvalue, "_MAX_SERIES_TERMS", 10)
    assert truncated_reciprocal(ftilde, End.FIRST, 9).sum.num_terms() == 10
    with pytest.raises(ResourceLimitError):
        truncated_reciprocal(ftilde, End.FIRST, 10)


def test_exact_series_numerator_budget():
    # f = 1 + 10**300 e(z): each level of the first end's series adds about
    # 997 bits to a numerator, and g = e(-20000 z) reaches 19999 levels
    f = exp_sum([(1, 0), (10**300, 1)], exact=True)
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError, match=f"budget of {2**27} bits"):
        mean_value(f, exp_sum([(1, -20000)], exact=True))
    assert time.perf_counter() - start < 2.0


def _reference_lattice_walk(ftilde, end, cut):
    """The walk on int-tuple lattice points, with complex or GaussianRational
    recurrence scalars, that the int-keyed walk replaced."""
    basis = ftilde.basis
    n = len(basis)
    one = ftilde.coefficient_at(Frequency((Fraction(0),) * n))
    zero = GR_ZERO if ftilde.exact else 0j
    sign = 1 if end is End.FIRST else -1
    den = [math.lcm(*(t.freq.coords[i].denominator for t in ftilde.terms)) for i in range(n)]
    units = [b / d for b, d in zip(basis.fraction_values, den)]
    scale = math.lcm(*(u.denominator for u in units))
    weights = [sign * int(u * scale) for u in units]
    int_cut = math.floor(cut * scale)
    steps = []
    for t in ftilde.terms:
        beta = tuple(int(q * d) for q, d in zip(t.freq.coords, den))
        dist = sum(w * b for w, b in zip(weights, beta))
        if 0 < dist <= int_cut:
            steps.append((beta, dist, -t.coeff))
    coeffs = {}
    kept = []
    kept_dist = None
    origin = (0,) * n
    queued = {origin}
    heap = [(0, origin)]
    while heap:
        dist, alpha = heapq.heappop(heap)
        if coeffs:
            r = zero
            for beta, _, neg_c in steps:
                prev = coeffs.get(tuple(a - b for a, b in zip(alpha, beta)))
                if prev is not None:
                    r = r + neg_c * prev
        else:
            r = one
        if not ftilde.exact and not cmath.isfinite(r):
            raise NumericalError("reciprocal series overflowed in float mode; use exact mode")
        coeffs[alpha] = r
        if r != zero:
            if dist == kept_dist:
                raise InputError(
                    "distinct frequency vectors share one numeric value; "
                    "the declared basis is not Q-linearly independent"
                )
            kept.append((alpha, r))
            kept_dist = dist
        for beta, step, _ in steps:
            nxt = tuple(a + b for a, b in zip(alpha, beta))
            if nxt not in queued and dist + step <= int_cut:
                queued.add(nxt)
                if len(queued) > meanvalue._MAX_SERIES_TERMS:
                    budget = meanvalue._MAX_SERIES_TERMS
                    raise ResourceLimitError(
                        f"reciprocal series exceeded its budget of {budget} terms"
                    )
                heapq.heappush(heap, (dist + step, nxt))
    if end is End.LAST:
        kept.reverse()
    return [(r, Frequency(tuple(Fraction(a, d) for a, d in zip(alpha, den)))) for alpha, r in kept]


def _walk_outcome(walk, ftilde, end, cut):
    """The terms in order, float coefficients by their bits, or the error raised."""
    try:
        terms = walk(ftilde, end, cut)
    except (InputError, NumericalError, ResourceLimitError) as exc:
        return type(exc), str(exc)
    if ftilde.exact:
        return terms
    return [((c.real.hex(), c.imag.hex()), q) for c, q in terms]


def _int_keyed_walk(ftilde, end, cut):
    return [(t.coeff, t.freq) for t in truncated_reciprocal(ftilde, end, cut).sum.terms]


ORACLE_COORDS = sorted({Fraction(k, d) for k in range(-2, 3) for d in (1, 2, 3)})
ORACLE_BASES = [FrequencyBasis(("1",)), FrequencyBasis(("1", SQRT2)), BASIS3]


def _seeded_ftilde(seed, basis, end, exact):
    """1 plus 3-5 terms whose coordinates are in ORACLE_COORDS and values in
    [1/4, 1] (mirrored for LAST), with Gaussian-rational coefficients."""
    rng = random.Random(seed)
    sign = 1 if end is End.FIRST else -1
    pairs = {(0,) * len(basis): (1, 0)}
    want = 1 + rng.randint(3, 5)
    while len(pairs) < want:
        v = tuple(rng.choice(ORACLE_COORDS) for _ in basis.values)
        if Fraction(1, 4) <= basis.value_key(Frequency(v)) <= 1:
            pairs[v] = (Fraction(rng.randint(-9, 9), rng.randint(1, 9)) or Fraction(1),
                        Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
    return exp_sum([(c, tuple(sign * q for q in v)) for v, c in pairs.items()], basis, exact)


ORACLE_CASES = [
    (seed, basis, end, exact)
    for seed in range(3)
    for basis in ORACLE_BASES
    for end in (End.FIRST, End.LAST)
    for exact in (True, False)
]


@pytest.mark.parametrize(
    "seed, basis, end, exact",
    ORACLE_CASES,
    ids=[f"s{s}-n{len(b)}-{e.value}-{'exact' if x else 'float'}" for s, b, e, x in ORACLE_CASES],
)
def test_int_keyed_walk_matches_tuple_keyed_walk(seed, basis, end, exact):
    ftilde = _seeded_ftilde(seed, basis, end, exact)
    cut = Fraction(4 + seed)
    out = _walk_outcome(_int_keyed_walk, ftilde, end, cut)
    assert out == _walk_outcome(_reference_lattice_walk, ftilde, end, cut)
    assert len(out) > 20


@pytest.mark.parametrize("end", [End.FIRST, End.LAST])
@pytest.mark.parametrize("exact", [True, False])
def test_int_keyed_walk_negative_coordinates(end, exact):
    # sqrt2 - 1 over {1, sqrt2} steps back along coordinate 0, and the
    # coefficients' denominators are 6, 35 and 5
    sign = 1 if end is End.FIRST else -1
    pairs = [((1, 0), (0, 0)), ((Fraction(-1, 2), Fraction(1, 3)), (-sign, sign)),
             ((Fraction(2, 7), Fraction(-3, 5)), (sign, 0)), ((Fraction(4, 5), 0), (0, sign))]
    ftilde = exp_sum(pairs, FrequencyBasis(("1", SQRT2)), exact)
    out = _walk_outcome(_int_keyed_walk, ftilde, end, 8)
    assert out == _walk_outcome(_reference_lattice_walk, ftilde, end, 8)
    assert any(min(q.coords) < 0 < max(q.coords) for _, q in out)
    assert len(out) > 50


def test_int_keyed_walk_raises_as_tuple_keyed_walk(monkeypatch):
    def raised(ftilde, cut):
        out = _walk_outcome(_int_keyed_walk, ftilde, End.FIRST, cut)
        assert out == _walk_outcome(_reference_lattice_walk, ftilde, End.FIRST, cut)
        return out[0]

    # with basis (1, 2) the points (2, 0) and (0, 1) both sit at 2
    pairs = [(1, (0, 0)), (1, (1, 0)), (1, (0, 1))]
    for exact in (True, False):
        assert raised(exp_sum(pairs, FrequencyBasis(("1", "2")), exact), 2) is InputError
    assert raised(exp_sum([(1, 0), (1e200, 1)]), 3) is NumericalError
    monkeypatch.setattr(meanvalue, "_MAX_SERIES_TERMS", 50)
    steps = exp_sum([(1, (0, 0)), (1, (1, 0)), (1, (-1, 1))], FrequencyBasis(("1", SQRT2)), True)
    assert raised(steps, 20) is ResourceLimitError


# ------------------------------------------------------------ constant term


def test_constant_term_two_term_hand_values():
    f = exp_sum([(1, 0), (1, 1)], exact=True)
    g = exp_sum([(1, -1)], exact=True)
    result = mean_value(f, g)
    a1, an = result.A_first_exact, result.A_last_exact
    assert a1 == (GaussianRational.of(1),)  # exactly 2*pi
    assert an == (GR_ZERO,)
    assert abs(result.A_first - 2 * math.pi) < 1e-15
    assert result.A_last == 0


def test_constant_term_g_one_is_extreme_frequency():
    rng = random.Random(3)
    for _ in range(100):
        f = random_exact_sum(rng)
        g = one_sum(exact=True)
        products = _derivative_products(f, g)
        a1, an = _a_value(f, products, End.FIRST), _a_value(f, products, End.LAST)
        lo = f.terms[0].freq
        hi = f.terms[-1].freq
        assert a1 == tuple(GaussianRational(c, Fraction(0)) for c in lo.coords)
        assert an == tuple(GaussianRational(c, Fraction(0)) for c in hi.coords)


def test_constant_term_cutoff_independence():
    rng = random.Random(29)
    for _ in range(40):
        f = random_exact_sum(rng, max_terms=4)
        g = random_exact_sum(rng, max_terms=3)
        products = _derivative_products(f, g)
        for end in (End.FIRST, End.LAST):
            # the cutoff _a_value expands to, widened by 7/2
            ext = extreme_term(f, end)
            quotients = [[(t.coeff / ext.coeff, t.freq - ext.freq) for t in p.terms]
                         for p in products]
            values = [f.basis.value_key(q) for p in quotients for _, q in p]
            cut = max(0, -min(values)) if end is End.FIRST else max(0, max(values))
            series = truncated_reciprocal(divide_by_extreme_term(f, end), end, cut + Fraction(7, 2))
            series_at = {t.freq: t.coeff for t in series.sum.terms}
            widened = []
            for p in quotients:
                acc = GR_ZERO
                for c, q in p:
                    if -q in series_at:
                        acc = acc + c * series_at[-q]
                widened.append(acc)
            assert _a_value(f, products, end) == tuple(widened)


def _reference_a_value(f, products, end):
    """_a_value as it ran on Fraction frequencies: quotients by Frequency
    subtraction, values by value_key and mates by Fraction-tuple hash."""
    ext = extreme_term(f, end)
    inv = (GR_ONE if f.exact else 1.0) / ext.coeff
    zero = GR_ZERO if f.exact else 0j
    quotients = [[(c, t.freq - ext.freq) for t in p.terms if (c := t.coeff * inv) != zero]
                 for p in products]
    values = [f.basis.value_key(q) for p in quotients for _, q in p]
    coords = [zero] * len(products)
    if values:
        cut = max(Fraction(0), -min(values) if end is End.FIRST else max(values))
        series = truncated_reciprocal(divide_by_extreme_term(f, end), end, cut)
        series_at = {t.freq.coords: t.coeff for t in series.sum.terms}
        for j, p in enumerate(quotients):
            for c, q in p:
                mate = series_at.get((-q).coords)
                if mate is not None:
                    coords[j] = coords[j] + c * mate
    return tuple(coords) if f.exact else coords[0]


def _a_outcome(a_value, f, products, end):
    """The constant term, a float one by its bits, or the error raised."""
    try:
        a = a_value(f, products, end)
    except (InputError, NumericalError, ResourceLimitError) as exc:
        return type(exc), str(exc)
    return a if f.exact else (a.real.hex(), a.imag.hex())


# (1, 0, 0) and (0, 2, 0) share a value under the second basis
A_VALUE_BASES = [BASIS3, FrequencyBasis(("1", "0.5", SQRT3))]
A_VALUE_COORDS = [Fraction(k, d) for k in range(-2, 3) for d in (1, 2, 3)]


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
@pytest.mark.parametrize("basis", A_VALUE_BASES, ids=["independent", "dependent"])
def test_a_value_matches_fraction_keyed_a_value(basis, exact):
    rng = random.Random(11)
    outcomes = []
    for trial in range(40):
        # f's values lie at least 2/5 apart, so each series stays small
        while True:
            fv = [tuple(rng.choice(A_VALUE_COORDS) for _ in range(3)) for _ in range(3)]
            if trial % 4 == 1:  # steps (0, 1, 0) and (1, 0, 0): (0, 2, 0) shares a value
                fv[1:] = [tuple(map(sum, zip(fv[0], step))) for step in ((0, 1, 0), (1, 0, 0))]
            vals = sorted(basis.value_key(Frequency(v)) for v in fv)
            if min(b - a for a, b in zip(vals, vals[1:])) >= Fraction(2, 5) and vals[-1] < 4:
                break
        gv = [tuple(rng.choice(A_VALUE_COORDS) for _ in range(3)) for _ in range(rng.randint(0, 3))]
        # g holds the mirror of its first frequency and f's first, so product terms merge
        gv += [tuple(-q for q in v) for v in gv[:1]] + fv[:1]

        def coeff():
            return (Fraction(rng.randint(-4, 4), rng.randint(1, 3)) or Fraction(1),
                    Fraction(rng.randint(-4, 4), rng.randint(1, 3)))

        f = exp_sum([(coeff(), v) for v in fv], basis, exact)
        try:  # g = 0 every tenth
            g = exp_sum([(coeff(), v) for v in gv if trial % 10], basis, exact)
            products = _derivative_products(f, g)
        except InputError:  # g or a product collides under the dependent basis
            continue
        for end in (End.FIRST, End.LAST):
            got = _a_outcome(_a_value, f, products, end)
            assert got == _a_outcome(_reference_a_value, f, products, end)
            outcomes.append(got)
    raised = [o for o in outcomes if isinstance(o[0], type)]
    # the dependent basis raises on some series; every basis computes most
    assert (len(raised) > 0) == (basis is not BASIS3) and len(raised) < len(outcomes) // 2


def test_constant_term_zero_f_raises():
    with pytest.raises(InputError):
        mean_value(exp_sum([]), one_sum())


# ----------------------------------------------------------------- mean value


def test_mean_value_two_term_example():
    f = exp_sum([(1, 0), (1, 1)], exact=True)
    g = exp_sum([(1, -1)], exact=True)
    r = mean_value(f, g)
    assert r.mean == -1
    assert r.mean_exact == (GaussianRational.of(-1),)
    assert abs(r.A_first - 2 * math.pi) < 1e-15
    assert r.A_last == 0


def test_mean_value_three_term_example():
    f = exp_sum([(6, 0), (-5, 1), (1, 2)], exact=True)
    g = exp_sum([(1, 1)], exact=True)
    r = mean_value(f, g)
    assert r.mean == 5
    assert r.mean_exact == (GaussianRational.of(5),)
    assert r.A_first == 0
    assert abs(r.A_last - 10 * math.pi) < 1e-14


def test_mean_value_g_one_gives_frequency_span():
    rng = random.Random(11)
    for _ in range(50):
        f = random_exact_sum(rng)
        r = mean_value(f, one_sum(exact=True))
        span = f.freq_values()[-1] - f.freq_values()[0]
        assert r.mean_exact == (GaussianRational(span, Fraction(0)),)
        assert abs(r.mean - float(span)) < 1e-12 * (1 + abs(float(span)))
        assert abs(mean_zero_count(f) - float(span)) == 0


def test_mean_value_single_term_is_zero():
    f = exp_sum([(3, "7/2")], exact=True)
    r = mean_value(f, exp_sum([(2, -1)], exact=True))
    assert r.mean == 0
    assert r.A_first == r.A_last


def test_mean_value_zero_g_is_zero():
    f = exp_sum([(1, 0), (1, 1)], exact=True)
    r = mean_value(f, exp_sum([], exact=True))
    assert r.mean == 0 and r.A_first == 0 and r.A_last == 0


def test_mean_value_reflection_symmetry_exact():
    rng = random.Random(37)
    for _ in range(40):
        f = random_exact_sum(rng, max_terms=4)
        g = random_exact_sum(rng, max_terms=3)
        r1 = mean_value(f, g)
        r2 = mean_value(reflect(f), reflect(g))
        assert r1.mean_exact == r2.mean_exact


def test_mean_value_reflection_symmetry_float():
    rng = random.Random(41)
    for _ in range(40):
        f = random_exact_sum(rng, max_terms=4).to_float_mode()
        g = random_exact_sum(rng, max_terms=3).to_float_mode()
        r1 = mean_value(f, g)
        r2 = mean_value(reflect(f), reflect(g))
        assert abs(r1.mean - r2.mean) < 1e-12 * (1 + abs(r1.mean))


def _in_semigroup(generators, alpha):
    """Whether alpha is a sum of generators, repeats allowed, for rank-1
    frequencies whose generators are multiples of 1/6 of one sign."""
    target = alpha.coords[0] * 6
    if target.denominator != 1:
        return False
    sign = -1 if target < 0 else 1
    steps = [int(g.coords[0] * 6 * sign) for g in generators]
    reached = [True]
    for v in range(1, int(target * sign) + 1):
        reached.append(any(0 < s <= v and reached[v - s] for s in steps))
    return reached[-1]


def test_mean_value_support_vanishing():
    # single exponentials outside both difference semigroups average to zero
    rng = random.Random(53)
    checked = 0
    while checked < 30:
        f = random_exact_sum(rng, max_terms=4)
        neg, pos = support_semigroup_generators(f)
        # denominator 7 is coprime to every generator denominator (<= 6),
        # so only the integer alphas can lie in a semigroup
        alpha = Frequency.of(Fraction(rng.choice([-1, 1]) * rng.randint(1, 25), 7))
        if _in_semigroup(neg, alpha) or _in_semigroup(pos, alpha):
            continue
        g = exp_sum([(1, alpha)], exact=True)
        r = mean_value(f, g)
        assert all(v.is_zero() for v in r.mean_exact)
        checked += 1


BASIS2 = FrequencyBasis(("1", SQRT2))
# unit phases with rational parts, so every coefficient is exact and its
# modulus is the drawn one
PHASES = [(1, 0), (-1, 0), (0, 1), (0, -1), (Fraction(3, 5), Fraction(4, 5)), (Fraction(-4, 5), Fraction(3, 5))]
# f's coordinates stay in {0, 1/2, 1}, so its steps lie at least
# |1/2 - sqrt2/2| = 0.207 from zero and every series stays a few hundred terms
F_COORD = st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(1)])
G_COORD = st.sampled_from([Fraction(k, 2) for k in range(-2, 3)])
COEFF = st.tuples(st.fractions(Fraction(1, 2), Fraction(2), max_denominator=4), st.sampled_from(PHASES)).map(
    lambda mp: (mp[0] * mp[1][0], mp[0] * mp[1][1])
)


def _sums(coord, min_size, max_size):
    freqs = st.lists(st.tuples(coord, coord), min_size=min_size, max_size=max_size, unique=True)
    return freqs.flatmap(
        lambda fs: st.lists(COEFF, min_size=len(fs), max_size=len(fs)).map(
            lambda cs: exp_sum(list(zip(cs, fs)), BASIS2, exact=True)
        )
    )


def _scaled(c, s):
    return multiply(exp_sum([(c, (0, 0))], BASIS2, exact=True), s)


@settings(max_examples=50)
@given(
    _sums(F_COORD, 2, 4),
    _sums(G_COORD, 1, 3),
    _sums(G_COORD, 1, 3),
    COEFF,
    COEFF,
    st.tuples(G_COORD, G_COORD),
)
def test_mean_value_invariants(f, g, h, lam, c, b):
    result = mean_value(f, g)
    base = result.mean_exact
    # linear in g
    lam_gr = GaussianRational.of(*lam)
    combined = mean_value(f, g + _scaled(lam, h)).mean_exact
    assert combined == tuple(x + lam_gr * y for x, y in zip(base, mean_value(f, h).mean_exact))
    # f, c*f and e(b)*f have the same zeros
    assert mean_value(_scaled(c, f), g).mean_exact == base
    assert mean_value(multiply(exp_sum([(1, b)], BASIS2, exact=True), f), g).mean_exact == base
    # z -> -z maps the zeros of f to those of reflect(f), and g with them
    assert mean_value(reflect(f), reflect(g)).mean_exact == base
    # float mode agrees with exact mode
    approx = mean_value(f.to_float_mode(), g.to_float_mode()).mean
    assert abs(approx - result.mean) <= 1e-9 * max(1.0, abs(result.mean))


# ----------------------------------------------------------------- zero count


def test_mean_zero_count_examples():
    assert mean_zero_count(exp_sum([(1, 0), (1, 1)])) == 1.0
    assert mean_zero_count(exp_sum([(4, "5/3")])) == 0.0
    basis = FrequencyBasis(("1", SQRT2))
    f = exp_sum([(1, (0, 0)), (1, (1, 0)), (1, (0, 1))], basis)
    assert abs(mean_zero_count(f) - math.sqrt(2)) < 1e-15


# ----------------------------------------------------------------- semigroups


def test_semigroup_generators_three_frequencies():
    basis = FrequencyBasis(("1", SQRT2))
    f = exp_sum([(1, (0, 0)), (1, (1, 0)), (1, (0, 1))], basis)
    neg, pos = support_semigroup_generators(f)
    assert {n.coords for n in neg} == {
        (Fraction(-1), Fraction(0)),
        (Fraction(0), Fraction(-1)),
    }
    assert {p.coords for p in pos} == {
        (Fraction(-1), Fraction(1)),
        (Fraction(0), Fraction(1)),
    }


def test_semigroup_generators_single_term_and_duplicates():
    neg, pos = support_semigroup_generators(exp_sum([(2, 5)]))
    assert neg == [] and pos == []
    f = exp_sum([(1, 0), (1, 1), (1, 2)])
    neg, pos = support_semigroup_generators(f)
    # first - others and last - others, each in ascending value
    assert [n.coords for n in neg] == [(Fraction(-2),), (Fraction(-1),)]
    assert [p.coords for p in pos] == [(Fraction(1),), (Fraction(2),)]


def test_semigroup_generators_ascending_over_two_basis_values():
    # values 0 < 1 < sqrt2 < 1 + sqrt2
    basis = FrequencyBasis(("1", SQRT2))
    f = exp_sum([(1, (0, 0)), (2, (1, 0)), (3, (0, 1)), (4, (1, 1))], basis)
    neg, pos = support_semigroup_generators(f)
    assert [n.coords for n in neg] == [(-1, -1), (0, -1), (-1, 0)]
    assert [p.coords for p in pos] == [(1, 0), (0, 1), (1, 1)]
    for gens in (neg, pos):
        values = [basis.value_key(g) for g in gens]
        assert values == sorted(values) and len(set(values)) == 3


def test_frequency_arithmetic_stays_off_the_engines(monkeypatch):
    # sums carry int points from parsing on: the series, the Laurent images and
    # the zero search never add, subtract or value a Frequency
    def refuse(*args):
        raise AssertionError("Fraction-keyed frequency arithmetic")

    for name in ("__add__", "__sub__"):
        monkeypatch.setattr(Frequency, name, refuse)
    monkeypatch.setattr(FrequencyBasis, "value_key", refuse)
    rng = random.Random(61)
    grid = [(a, b, c) for a in (0, "1/2", 1) for b in (0, "1/2", 1) for c in (0, "1/2", 1)]
    coords = rng.sample(grid, 16)
    coeffs = [(rng.randint(1, 4), rng.randint(-2, 2)) for _ in coords]
    g_terms = [((1, 1), (1, "-1/2", 0)), ((-2, 0), (0, 0, "3/2"))]
    for exact in (False, True):
        f = exp_sum(list(zip(coeffs, coords)), BASIS3, exact)
        assert f.num_terms() == 16
        res = mean_value(f, exp_sum(g_terms, BASIS3, exact))
        assert len(res.neg_generators) == len(res.pos_generators) == 15
    found = search_zeros(f, 2.0)
    assert found.zeros and sum(z.multiplicity for z in found.zeros) == found.outer_winding
    rational = exp_sum([(c, Fraction(k, 6)) for k, c in enumerate(coeffs)])
    lf, lg, q = laurent_images(rational, exp_sum([(1, "1/2")]))
    assert (q, lf.exponent_span(), lg.terms) == (6, 15, {3: 1})


def test_engines_never_build_the_term_view(monkeypatch):
    # the Frequency view of a sum is for readers; the series, the zero search,
    # the Laurent images and the verify ladder read points and coefficients
    rng = random.Random(67)
    grid = [(a, b, c) for a in (0, "1/2", 1) for b in (0, "1/2", 1) for c in (0, "1/2", 1)]
    coords = rng.sample(grid, 8)
    coeffs = [(rng.randint(1, 4), rng.randint(-2, 2)) for _ in coords]
    g_terms = [((1, 1), (1, "-1/2", 0)), ((-2, 0), (0, 0, "3/2"))]
    sums = [(exp_sum(list(zip(coeffs, coords)), BASIS3, exact), exp_sum(g_terms, BASIS3, exact))
            for exact in (False, True)]
    rational = exp_sum([(c, Fraction(k, 6)) for k, c in enumerate(coeffs)])
    half = exp_sum([(1, "1/2")])

    def refuse(self):
        raise AssertionError("the Frequency view of a sum was built")

    monkeypatch.setattr(ExponentialSum, "terms", property(refuse))
    for f, g in sums:
        assert len(mean_value(f, g).pos_generators) == 7
    found = search_zeros(sums[0][0], 1.0)
    assert found.zeros and sum(z.multiplicity for z in found.zeros) == found.outer_winding
    lf, lg, q = laurent_images(rational, half)
    assert (q, lf.exponent_span(), lg.terms) == (6, 7, {3: 1})
    report = convergence_report(*sums[0], [0.5, 1.0])
    assert len(report.rows) == 2


def test_exact_mode_builds_coefficients_only_where_read(monkeypatch):
    # f = 1 + e(z) + e(sqrt2 z) + e(sqrt3 z), g = e(40 z): the walk at the
    # last end fills 29,310 points, of which _a_value reads a few dozen
    f = exp_sum([(1, (0, 0, 0)), (1, (1, 0, 0)), (1, (0, 1, 0)), (1, (0, 0, 1))], BASIS3, True)
    g = exp_sum([(1, (40, 0, 0))], BASIS3, True)
    series = truncated_reciprocal(divide_by_extreme_term(f, End.LAST), End.LAST, 40)
    built = []
    init = GaussianRational.__init__
    monkeypatch.setattr(GaussianRational, "__init__",
                        lambda self, *a, **k: built.append(None) or init(self, *a, **k))
    res = mean_value(f, g)
    assert len(built) < 100
    assert res.mean_exact == (GR_ZERO,) * 3
    assert len(series.terms) == 29_310
