"""The two values the Laurent cross-check sets side by side, for tests that
compare them outside the laurent-check command."""

from expmean.laurent import LaurentPolynomial, laurent_images, sum_over_roots
from expmean.meanvalue import mean_value
from expmean.sums import ExponentialSum, exp_sum


def series_sum(f: LaurentPolynomial, g: LaurentPolynomial) -> complex:
    """A_n - A_1 from the series engine: the mean value of g's exponential
    image over the zeros of f's, under z = exp(2*pi*w)."""
    return mean_value(
        exp_sum([(c, k) for k, c in f.terms.items()]),
        exp_sum([(c, k) for k, c in g.terms.items()]),
    ).mean


def root_mean(f: ExponentialSum, g: ExponentialSum) -> complex:
    """Mean value for rational frequencies from the roots of the images:
    each root carries a vertical progression of zeros of density 1/q."""
    F, G, q = laurent_images(f, g)
    return sum_over_roots(F, G) / q
