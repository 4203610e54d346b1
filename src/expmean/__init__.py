"""Exact mean values of exponential sums over the zeros of another.

The core object is a finite sum of terms c * exp(2*pi*a*z) whose
frequencies a are rational vectors over a basis of positive reals.  The
package computes the mean value of one such sum over the zero set of
another symbolically, through constant terms of truncated reciprocal
series at both frequency ends, and checks the result numerically by
locating the zeros in horizontal strips and averaging.
"""

from .errors import (
    ContourOnZeroError,
    ContourTooCloseError,
    ExpmeanError,
    InputError,
    NumericalError,
    ResourceLimitError,
)
from .exact import ExactCoeff, GaussianRational, as_fraction
from .laurent import (
    LaurentPolynomial,
    laurent,
    laurent_images,
    mean_via_substitution,
    residue_end_coefficient,
    residue_formula_sum,
    roots_nonzero,
    sum_over_roots,
)
from .meanvalue import (
    MeanValueResult,
    constant_term_A,
    mean_value,
    mean_zero_count,
    semigroup_contains,
    support_semigroup_generators,
    truncated_reciprocal,
)
from .sums import (
    DEFAULT_BASIS,
    End,
    ExponentialSum,
    ExpTerm,
    Frequency,
    FrequencyBasis,
    coefficient_envelope,
    derivative,
    divide_by_extreme_term,
    evaluate,
    evaluate_array,
    exp_sum,
    extreme_term,
    multiply,
    normalize,
    one_sum,
    reflect,
    zero_sum,
)
from .verify import (
    ConvergenceReport,
    ReportRow,
    convergence_report,
    fewnomial_check,
    weighted_sum,
)
from .zerofind import (
    Rect,
    Zero,
    ZeroSearch,
    find_zeros,
    safe_ordinate,
    search_zeros,
    strip_bound,
)

__version__ = "0.1.0"

__all__ = [
    "ContourOnZeroError",
    "ContourTooCloseError",
    "ExpmeanError",
    "InputError",
    "NumericalError",
    "ResourceLimitError",
    "ExactCoeff",
    "GaussianRational",
    "as_fraction",
    "LaurentPolynomial",
    "laurent",
    "laurent_images",
    "mean_via_substitution",
    "residue_end_coefficient",
    "residue_formula_sum",
    "roots_nonzero",
    "sum_over_roots",
    "MeanValueResult",
    "constant_term_A",
    "mean_value",
    "mean_zero_count",
    "semigroup_contains",
    "support_semigroup_generators",
    "truncated_reciprocal",
    "DEFAULT_BASIS",
    "End",
    "ExponentialSum",
    "ExpTerm",
    "Frequency",
    "FrequencyBasis",
    "coefficient_envelope",
    "derivative",
    "divide_by_extreme_term",
    "evaluate",
    "evaluate_array",
    "exp_sum",
    "extreme_term",
    "multiply",
    "normalize",
    "one_sum",
    "reflect",
    "zero_sum",
    "ConvergenceReport",
    "ReportRow",
    "convergence_report",
    "fewnomial_check",
    "weighted_sum",
    "Rect",
    "Zero",
    "ZeroSearch",
    "find_zeros",
    "safe_ordinate",
    "search_zeros",
    "strip_bound",
    "__version__",
]
