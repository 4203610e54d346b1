"""Zero positions of rational sums on both routes of the search, against the
references of zero_oracle.py, and the oracle's own sensitivity."""

import cmath
import dataclasses
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings

from expmean import laurent, zerofind
from expmean.sums import exp_sum
from expmean.zerofind import Zero, search_zeros
from zero_oracle import _poly_from_roots, bisection_route, problems, root_route, zero_errors


def _image(roots, q=1, scale=1):
    return [(scale * c, Fraction(k, q)) for k, c in enumerate(_poly_from_roots(roots))]


TWIN = cmath.exp(2 * math.pi * 1e-6j)  # the twin of w = 1: zeros 1e-6 apart


@settings(max_examples=24)
@example(([(1, Fraction(0)), (1, Fraction(1))], 2.0))  # zeros on Re z = 0 and at Im z = k + 1/2
@example((_image([1, 1, 1]), 1.3))  # triple roots on |w| = 1
@example((_image([1j, 1j, -2], q=2), 1.6))  # double roots at dyadic ordinates
@example((_image([1, TWIN, 2j], scale=cmath.rect(0.7, 1.3)), 1.5))  # roots 1e-6 apart
@example((_image([-1, -1, 0.5, 2j], q=2, scale=1j), 2.4))
@given(problems())
def test_zeros_lie_at_the_references_on_both_routes(problem):
    terms, R = problem
    f = exp_sum(terms)
    with root_route() as outcomes:
        found = search_zeros(f, R)
    assert not isinstance(outcomes[0], str), outcomes
    assert zero_errors(f, found, "root") == []
    with bisection_route() as bisected:
        found = search_zeros(f, R)
    assert len(bisected) == 1
    assert zero_errors(f, found, "bisection") == []


THREE_TERM = exp_sum([(6, 0), (-5, 1), (1, 2)])  # zeros at (ln 2 or ln 3)/2pi + ik


@pytest.mark.parametrize("route", ["root", "bisection"])
def test_oracle_fails_on_newton_stopped_at_a_1e_6_residual(monkeypatch, route):
    # Newton starts from a box centre on bisection, and on the root route from
    # roots moved by a relative 1e-7 (their squares still hold their zeros), so
    # it has work left on both; the residual check is loosened with it, so the
    # oracle alone stands between the fault and the answer
    solve = laurent.roots_nonzero
    monkeypatch.setattr(laurent, "roots_nonzero", lambda p: [w * (1 + 1e-7) for w in solve(p)])
    spy = root_route if route == "root" else bisection_route
    with spy():
        assert zero_errors(THREE_TERM, search_zeros(THREE_TERM, 1.3), route) == []
    monkeypatch.setattr(zerofind, "_NEWTON_TOL", 1e-6)
    monkeypatch.setattr(zerofind, "_RESIDUAL_TOL", 1e-6)
    with spy() as seen:
        errors = zero_errors(THREE_TERM, search_zeros(THREE_TERM, 1.3), route)
    assert len(seen) == 1 and not isinstance(seen[0], str)
    assert errors and all("from the reference" in e for e in errors), errors


@pytest.mark.parametrize("route", ["root", "bisection"])
def test_oracle_fails_on_a_multiplicity_off_by_one(route):
    f = exp_sum(_image([1j, 1j, -2], q=2))
    spy = root_route if route == "root" else bisection_route
    with spy():
        found = search_zeros(f, 1.6)
    assert zero_errors(f, found, route) == []
    first, *rest = found.zeros
    planted = dataclasses.replace(
        found, zeros=[Zero(first.location, first.multiplicity + 1), *rest])
    assert zero_errors(f, planted, route) == [
        f"zero at {first.location} has multiplicity {first.multiplicity + 1}, "
        f"the reference {first.multiplicity}"]
