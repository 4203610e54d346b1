"""Acceptance gate: ten end-to-end checks with stated tolerances and budgets.

Each check prints one pass/fail line (run with -s to see them all).  The
numeric checks share their located zero sets through a registry so the
window-count and conservation properties can be asserted over everything
the suite produced.
"""

import json
import math
import random
import subprocess
import sys
import time
from fractions import Fraction

from expmean.exact import GaussianRational
from expmean.laurent import (
    LaurentPolynomial,
    mean_via_substitution,
    residue_formula_sum,
    sum_over_roots,
)
from expmean.meanvalue import mean_value, mean_zero_count
from expmean.sums import ExponentialSum, Frequency, FrequencyBasis, exp_sum, one_sum
from expmean.verify import convergence_report, fewnomial_check, weighted_sum
from expmean.zerofind import ZeroSearch, search_zeros

SQRT2 = "1.41421356237309504880168872421"
SQRT5 = "2.2360679774997896964091736688"

# every zero search the criteria perform, for the cross-cutting checks
SEARCHES: list[tuple[str, ExponentialSum, ZeroSearch]] = []


def tracked_search(name: str, f: ExponentialSum, R: float) -> ZeroSearch:
    found = search_zeros(f, R)
    SEARCHES.append((name, f, found))
    return found


def report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def _nonzero_rational(rng: random.Random) -> Fraction:
    q = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    return q if q else Fraction(1)


def _random_exact_sum(rng: random.Random) -> ExponentialSum:
    if rng.random() < 0.5:
        basis = FrequencyBasis(("1",))
    else:
        basis = FrequencyBasis(("1", rng.choice((SQRT2, SQRT5))))
    width = len(basis.values)
    n = rng.randint(2, 6)
    seen: dict = {}
    while len(seen) < n:
        coords = tuple(
            Fraction(rng.randint(-8, 8), rng.randint(1, 6)) for _ in range(width)
        )
        seen[coords] = None
    pairs = []
    for coords in seen:
        coeff = GaussianRational(_nonzero_rational(rng), Fraction(rng.randint(-3, 3)))
        pairs.append((coeff, Frequency(coords)))
    return exp_sum(pairs, basis=basis, exact=True)


def test_criterion_01_counting_is_exact():
    rng = random.Random(1001)
    start = time.perf_counter()
    for _ in range(100):
        f = _random_exact_sum(rng)
        res = mean_value(f, one_sum(basis=f.basis, exact=True))
        first = f.terms[0].freq
        last = f.terms[-1].freq
        span = last - first
        assert res.A_first_exact is not None and res.A_last_exact is not None
        assert res.A_first_exact.scalar.is_zero()
        assert res.A_last_exact.scalar.is_zero()
        for i, part in enumerate(res.A_first_exact.twopi):
            assert part == GaussianRational(first.coords[i], Fraction(0))
        for i, part in enumerate(res.A_last_exact.twopi):
            assert part == GaussianRational(last.coords[i], Fraction(0))
        assert res.mean_exact is not None
        for i, part in enumerate(res.mean_exact):
            assert part == GaussianRational(span.coords[i], Fraction(0))
        assert abs(res.mean - mean_zero_count(f)) < 1e-12
    elapsed = time.perf_counter() - start
    report(
        1,
        elapsed < 5.0,
        f"mean with g=1 equals the frequency span exactly on 100 random "
        f"exact sums ({elapsed:.2f}s, budget 5s)",
    )


def _random_laurent(rng: random.Random, span_cap: int) -> LaurentPolynomial:
    k_min = rng.randint(-3, 3)
    span = rng.randint(0 if span_cap < 6 else 1, span_cap)

    def coeff() -> complex:
        mag = rng.uniform(0.5, 2.0)
        phase = rng.uniform(0.0, 2.0 * math.pi)
        return mag * complex(math.cos(phase), math.sin(phase))

    terms = {k_min: coeff(), k_min + span: coeff()}
    for k in range(k_min + 1, k_min + span):
        if rng.random() < 0.5:
            terms[k] = coeff()
    return LaurentPolynomial(terms)


def test_criterion_02_series_route_matches_root_sums():
    rng = random.Random(1002)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        f = _random_laurent(rng, span_cap=6)
        g = _random_laurent(rng, span_cap=4)
        gap = abs(residue_formula_sum(f, g) - sum_over_roots(f, g))
        worst = max(worst, gap)
        assert gap < 1e-8
    elapsed = time.perf_counter() - start
    report(
        2,
        elapsed < 30.0,
        f"series route vs root sums on 200 random pairs, worst gap "
        f"{worst:.3g} < 1e-8 ({elapsed:.2f}s, budget 30s)",
    )


def _random_rational_sum(rng: random.Random, n_lo: int, n_hi: int) -> ExponentialSum:
    n = rng.randint(n_lo, n_hi)
    freqs: dict = {}
    while len(freqs) < n:
        freqs[Fraction(rng.randint(-4, 4), rng.randint(1, 3))] = None
    pairs = []
    for q in freqs:
        mag = rng.uniform(0.5, 2.0)
        phase = rng.uniform(0.0, 2.0 * math.pi)
        pairs.append((mag * complex(math.cos(phase), math.sin(phase)), q))
    return exp_sum(pairs)


def test_criterion_03_substitution_bridge():
    rng = random.Random(1003)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        f = _random_rational_sum(rng, 2, 5)
        g = _random_rational_sum(rng, 1, 3)
        gap = abs(mean_value(f, g).mean - mean_via_substitution(f, g))
        worst = max(worst, gap)
        assert gap < 1e-9
    elapsed = time.perf_counter() - start
    report(
        3,
        elapsed < 30.0,
        f"symbolic mean vs substitution on 50 random rational pairs, worst "
        f"gap {worst:.3g} < 1e-9 ({elapsed:.2f}s, budget 30s)",
    )


def test_criterion_04_two_term_closed_form():
    start = time.perf_counter()
    f = exp_sum([(1, 0), (1, 1)], exact=True)
    g = exp_sum([(1, -1)], exact=True)
    res = mean_value(f, g)
    assert res.mean_exact == (GaussianRational.of(-1),)
    assert res.mean == -1.0
    found = tracked_search("criterion 4", f, 20.0)
    emp = weighted_sum(found.zeros, g) / (2.0 * found.height)
    err = abs(emp - (-1.0))
    elapsed = time.perf_counter() - start
    report(
        4,
        err < 0.05 and elapsed < 10.0,
        f"two-term mean is exactly -1, strip average off by {err:.3g} < 0.05 "
        f"({elapsed:.2f}s, budget 10s)",
    )


def test_criterion_05_quadratic_image():
    start = time.perf_counter()
    f = exp_sum([(6, 0), (-5, 1), (1, 2)])
    g = exp_sum([(1, 1)])
    res = mean_value(f, g)
    assert abs(res.mean - 5.0) < 1e-10
    found = tracked_search("criterion 5", f, 20.0)
    emp = weighted_sum(found.zeros, g) / (2.0 * found.height)
    err = abs(emp - 5.0)
    elapsed = time.perf_counter() - start
    report(
        5,
        err < 0.2 and elapsed < 20.0,
        f"three-term mean is 5, strip average off by {err:.3g} < 0.2 "
        f"({elapsed:.2f}s, budget 20s)",
    )


def _sqrt2_sum() -> ExponentialSum:
    basis = FrequencyBasis(("1", SQRT2))
    return exp_sum(
        [(1, (0, 0)), (1, (1, 0)), (1, (0, 1))], basis=basis
    )


def test_criterion_06_incommensurate_density():
    start = time.perf_counter()
    f = _sqrt2_sum()
    g = one_sum(basis=f.basis)
    target = math.sqrt(2.0)
    assert abs(mean_value(f, g).mean - target) < 1e-9
    assert abs(mean_zero_count(f) - target) < 1e-12
    heights = [5.0, 10.0, 20.0, 40.0, 50.0]
    errors = []
    for r in heights:
        found = tracked_search(f"criterion 6 R={r:g}", f, r)
        count = sum(z.multiplicity for z in found.zeros)
        errors.append(abs(count / (2.0 * found.height) - target))
    rep = convergence_report(f, g, heights, tol=0.05)
    elapsed = time.perf_counter() - start
    detail = ", ".join(f"{e:.3g}" for e in errors)
    report(
        6,
        errors[-1] < 0.05 and rep.verdict and elapsed < 60.0,
        f"zero density approaches sqrt(2): errors [{detail}], final < 0.05, "
        f"trend verdict {'pass' if rep.verdict else 'fail'} "
        f"({elapsed:.2f}s, budget 60s)",
    )


def test_criterion_07_support_vanishing():
    start = time.perf_counter()
    basis = FrequencyBasis(("1", SQRT2))
    f = exp_sum([(1, (0, 0)), (1, (0, 1))], basis=basis)
    g = exp_sum([(1, (1, 0))], basis=basis)
    res = mean_value(f, g)
    assert res.mean == 0.0
    found = tracked_search("criterion 7", f, 50.0)
    emp = weighted_sum(found.zeros, g) / (2.0 * found.height)
    err = abs(emp)
    elapsed = time.perf_counter() - start
    report(
        7,
        err < 0.05,
        f"mean vanishes off the support semigroups: exact 0, strip average "
        f"{err:.3g} < 0.05 ({elapsed:.2f}s)",
    )


def test_criterion_08_window_zero_counts():
    assert len(SEARCHES) >= 8, "earlier criteria must populate the registry"
    for name, f, found in SEARCHES:
        vals = f.freq_values()
        span = float(vals[-1] - vals[0])
        assert fewnomial_check(found.zeros, f.num_terms(), span), name
    report(
        8,
        True,
        f"every window of height just under 1/span holds fewer zeros than "
        f"terms, across {len(SEARCHES)} zero sets",
    )


def test_criterion_09_conservation_and_containment():
    assert len(SEARCHES) >= 8, "earlier criteria must populate the registry"
    for name, f, found in SEARCHES:
        total = sum(z.multiplicity for z in found.zeros)
        assert total == found.outer_winding, name
        for z in found.zeros:
            assert abs(z.location.real) < found.strip, name
            assert abs(z.location.imag) < found.height, name
    report(
        9,
        True,
        f"multiplicities match outer winding and all zeros sit strictly "
        f"inside the strip, across {len(SEARCHES)} searches",
    )


def test_criterion_10_deterministic_reports(tmp_path):
    doc = {
        "basis": ["1", SQRT2],
        "f": [
            {"coeff": [1, 0], "freq": ["0", "0"]},
            {"coeff": [1, 0], "freq": ["1", "0"]},
            {"coeff": [1, 0], "freq": ["0", "1"]},
        ],
    }
    path = tmp_path / "sqrt2.json"
    path.write_text(json.dumps(doc))
    argv = [
        sys.executable,
        "-m",
        "expmean",
        "verify",
        "--input",
        str(path),
        "--R-list",
        "5,10,20,40,50",
    ]
    first = subprocess.run(argv, capture_output=True)
    second = subprocess.run(argv, capture_output=True)
    assert first.returncode == 0, first.stderr.decode()
    assert second.returncode == 0
    env = json.loads(first.stdout)
    ok = first.stdout == second.stdout and env["results"]["verdict"] == "pass"
    report(
        10,
        ok,
        f"repeated runs emit byte-identical reports "
        f"({len(first.stdout)} bytes, verdict {env['results']['verdict']})",
    )
