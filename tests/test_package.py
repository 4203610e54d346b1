"""Tests for the package's public surface."""

import expmean

# wrappers that repeated another public path, the search's retired settings
# class and the retired exact coefficient ring, all gone from the public surface
RETIRED = (
    "winding_count",
    "default_window",
    "empirical_mean",
    "constant_term_A_exact",
    "QuadratureConfig",
    "ExactCoeff",
    "find_zeros",
)


def test_all_names_resolve_once():
    assert len(expmean.__all__) == len(set(expmean.__all__))
    for name in expmean.__all__:
        assert hasattr(expmean, name), name


def test_retired_wrappers_stay_out():
    for name in RETIRED:
        assert name not in expmean.__all__
        assert not hasattr(expmean, name), name
