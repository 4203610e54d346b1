"""Tests for the empirical mean and convergence reporting."""

import cmath

import pytest

from expmean import verify, zerofind
from expmean.errors import InputError, NumericalError
from expmean.meanvalue import mean_value
from expmean.sums import FrequencyBasis, exp_sum, one_sum
from expmean.verify import convergence_report, weighted_sum
from expmean.zerofind import Zero, search_zeros
from fewnomial import fewnomial_check
from laurent_routes import root_mean
from zero_oracle import bisection_route

TWO_TERM = exp_sum([(1, 0), (1, 1)])
THREE_TERM = exp_sum([(6, 0), (-5, 1), (1, 2)])
SQRT2_BASIS = FrequencyBasis(("1", "1.41421356237309504880168872421"))
SQRT2_SUM = exp_sum([(1, (0, 0)), (1, (1, 0)), (1, (0, 1))], SQRT2_BASIS)


def empirical_mean(f, g, R):
    """S(R')/2R' at the height R' = safe_ordinate(f, R) of one search, and R'."""
    s = search_zeros(f, R)
    return weighted_sum(s.zeros, g) / (2.0 * s.height), s.height


def test_weighted_sum_examples():
    zeros = search_zeros(TWO_TERM, 3.0).zeros
    assert len(zeros) == 6
    g = exp_sum([(1, -1)])
    assert abs(weighted_sum(zeros, g) + 6) < 1e-9
    assert weighted_sum(zeros, one_sum()) == 6
    assert weighted_sum([], g) == 0


def test_weighted_sum_multiplicity():
    zeros = [Zero(0.5j, 2), Zero(1.5j, 1)]
    assert weighted_sum(zeros, one_sum()) == 3


def test_empirical_mean_counting_exact():
    emp, r_used = empirical_mean(TWO_TERM, one_sum(), 10.0)
    assert r_used == 10.0
    assert emp == 1.0


def test_empirical_mean_two_term_g():
    emp, r_used = empirical_mean(TWO_TERM, exp_sum([(1, -1)]), 10.0)
    assert abs(emp + 1.0) < 1e-9


def test_empirical_mean_single_term_raises():
    with pytest.raises(InputError):
        empirical_mean(exp_sum([(1, 1)]), one_sum(), 2.0)


def test_empirical_matches_substitution_at_half_integer():
    # roots 2 and 3 are positive reals, so zero ordinates are integers and
    # a half-integer height captures exactly 2R zeros per progression
    g = exp_sum([(1, 1)])
    emp, r_used = empirical_mean(THREE_TERM, g, 7.5)
    assert r_used == 7.5
    sub = root_mean(THREE_TERM, g)
    assert abs(emp - sub) < 1e-7
    assert abs(emp - 5.0) < 1e-7


def test_convergence_report_two_term():
    rep = convergence_report(TWO_TERM, one_sum(), [3.0, 6.0, 12.0], tol=0.05)
    assert rep.verdict
    assert abs(rep.symbolic_mean - 1.0) < 1e-12
    assert [row.R for row in rep.rows] == sorted(row.R for row in rep.rows)
    for row in rep.rows:
        assert row.abs_error == abs(row.empirical_mean - rep.symbolic_mean)
        assert row.abs_error < 0.05
    assert rep.rows[-1].count == 24


def test_convergence_report_input_checks():
    with pytest.raises(InputError):
        convergence_report(TWO_TERM, one_sum(), [5.0])
    with pytest.raises(InputError):
        convergence_report(TWO_TERM, one_sum(), [5.0, 5.0])
    with pytest.raises(InputError):
        convergence_report(TWO_TERM, one_sum(), [5.0, 4.0])


def test_convergence_report_failing_tolerance():
    # g = e^{-2pi z} leaves refinement-level noise on the bisection route, never
    # below 1e-18 (the root route's zeros leave about 1e-31)
    g = exp_sum([(1, -1)])
    with bisection_route() as bisected:
        rep = convergence_report(TWO_TERM, g, [3.0, 6.0], tol=1e-18)
    assert bisected
    assert not rep.verdict
    assert rep.rows[-1].abs_error > 0


def test_fewnomial_check_examples(monkeypatch):
    # the two bisection boxes of TWO_TERM at R = 1 claim points 1e-3 apart:
    # both lie in one window of height 0.999, where a two-term sum has one zero
    step = iter(range(2))
    monkeypatch.setattr(zerofind, "_newton_refine", lambda ws, box: 0.5j + 1e-3j * next(step))
    with bisection_route() as bisected:
        with pytest.raises(NumericalError, match="window of height 0.999") as exc:
            search_zeros(TWO_TERM, 1.0)
    assert bisected
    assert exc.value.partial == [Zero(0.5j, 1), Zero(0.5j + 1e-3j, 1)]


def test_fewnomial_check_on_pipeline_outputs():
    # the reference scan rejects packed sets, so its passes below say something
    assert not fewnomial_check([Zero(0.1j, 1), Zero(0.2 + 0.1j, 1)], 2, 1.0)
    assert not fewnomial_check([Zero(0j, 3)], 3, 1.0)
    assert fewnomial_check([], 2, 1.0)
    for f, R in ((TWO_TERM, 5.0), (THREE_TERM, 4.5)):
        zeros = search_zeros(f, R).zeros
        span = float(f.freq_values()[-1] - f.freq_values()[0])
        assert fewnomial_check(zeros, f.num_terms(), span)


def test_report_matches_symbolic_mean_three_term():
    g = exp_sum([(1, 1)])
    rep = convergence_report(THREE_TERM, g, [4.5, 9.5], tol=0.3)
    assert abs(rep.symbolic_mean - mean_value(THREE_TERM, g).mean) < 1e-12
    assert rep.verdict


@pytest.mark.parametrize(
    "f, g, ladder, top",
    [
        (TWO_TERM, exp_sum([(1, -1)]), [1.5, 2.6, 4.2], 4.2),
        (THREE_TERM, exp_sum([(1, 1)]), [2.4, 3.7, 5.5], 5.5),
        (SQRT2_SUM, exp_sum([(1, (0, 1))], SQRT2_BASIS), [1.0, 2.0, 3.0], 3.0),
        # 0.1 apart, inside the ordinate window 1/(4 sqrt 2): the line of the
        # lower rung lies higher, so the one search runs there
        (SQRT2_SUM, exp_sum([(1, (0, 1))], SQRT2_BASIS), [2.0, 2.1], 2.0),
    ],
    ids=["two-term", "three-term", "sqrt2", "sqrt2-close-rungs"],
)
def test_ladder_rows_match_separate_searches(f, g, ladder, top, monkeypatch):
    searched = []

    def counting_search(f, R):
        searched.append(R)
        return search_zeros(f, R)

    monkeypatch.setattr(verify, "search_zeros", counting_search)
    rep = convergence_report(f, g, ladder, tol=1.0)
    assert searched == [top]
    separate = sorted((search_zeros(f, r) for r in ladder), key=lambda s: s.height)
    assert len(rep.rows) == len(separate)
    for row, s in zip(rep.rows, separate):
        assert (row.R, row.count) == (s.height, sum(z.multiplicity for z in s.zeros))
        assert cmath.isclose(row.weighted_sum, weighted_sum(s.zeros, g), rel_tol=1e-9)


def test_top_rung_ordinate_is_scanned_once(monkeypatch):
    # every lower height lies below the top rung's window, so the top
    # rung's search alone scans its ordinate
    scans = []
    best = zerofind._best_ordinate

    def spy(*args):
        scans.append(args[1])
        return best(*args)

    monkeypatch.setattr(zerofind, "_best_ordinate", spy)
    convergence_report(THREE_TERM, exp_sum([(1, 1)]), [2.4, 3.7, 5.5], tol=1.0)
    assert scans == [2.4, 3.7, 5.5]


@pytest.mark.parametrize("exact", [False, True])
def test_a_ladder_prepares_its_sum_once(monkeypatch, exact):
    # the rungs' ordinates and the one search share f's float view: one
    # derivative, for the search's workspace, and one strip-bound solve
    derivatives = []
    derivative = zerofind.derivative

    def spy(f):
        derivatives.append(f)
        return derivative(f)

    monkeypatch.setattr(zerofind, "derivative", spy)
    zerofind.strip_bound.cache_clear()
    f = exp_sum([(6, 0), (-5, 1), (1, 2)], exact=exact)
    convergence_report(f, exp_sum([(1, 1)], exact=exact), [2.4, 3.7, 5.5], tol=1.0)
    assert len(derivatives) == 1
    assert zerofind.strip_bound.cache_info().misses == 1


def test_noise_floor_scales_with_the_row_sum():
    rep = convergence_report(THREE_TERM, exp_sum([(1, 1)]), [4.5, 9.5], tol=0.3)
    for row in rep.rows:
        # |g| is 2 or 3 at every zero, so the floor sits between 1e-9 * 2 and 1e-9 * 3
        per_zero = row.noise_floor * 2 * row.R / (1e-9 * row.count)
        assert 2 - 1e-6 < per_zero < 3 + 1e-6
