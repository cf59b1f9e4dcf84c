"""Weighted means and the sharp constants of their Hardy-type inequalities.

The package splits into a small stack:

- :mod:`~hardymeans.weights` — weight sequences, their prefix sums and
  their declared ratio limit eta,
- :mod:`~hardymeans.generators` — generator functions and deviation
  kernels with the analytic metadata the solvers need,
- :mod:`~hardymeans.hardy` — closed-form constants and the
  characteristic-equation solver; ``constant_closed`` / ``constant_root``
  check eta and call the mean's own method,
- :mod:`~hardymeans.means` — power / Gini / quasiarithmetic / deviation
  means, one :class:`~hardymeans.means.MeanSpec` subclass per family
  carrying its evaluation, prefix evaluation, constants (closed form and
  characteristic root), specifier text and structural facts,
- :mod:`~hardymeans.homogenize` — scaling ladders and kernel
  normalization,
- :mod:`~hardymeans.empirical` — witness traces, probe sums, and the
  randomized inequality checker,
- :mod:`~hardymeans.cli` — the ``hardymeans`` command.
"""

from .errors import (
    BracketError,
    DerivativeUnavailableError,
    DomainError,
    HardyMeansError,
    InversionError,
    LimitNotDetected,
    NoBracketError,
    NoConvergenceError,
    NotIntegrableError,
    NotNormalizableError,
    TailBoundFailure,
    UsageError,
    ViolationFound,
    ZeroDerivativeError,
)
from .weights import WeightSequence, parse_weights
from .generators import (
    GeneratorFunction,
    QuasideviationKernel,
    dev_gini,
    dev_power,
    difference_kernel,
    exp_gen,
    log_gen,
    power_gap_kernel,
    power_gen,
    ratio_kernel,
    scaled_ratio_kernel,
    validate_generator,
    validate_kernel,
)
from .means import (
    Deviation,
    Gini,
    HomogeneousDeviation,
    MeanSpec,
    Power,
    QuasiArithmetic,
    parse_mean,
    prefix_values,
)
from .homogenize import (
    HomogenizationEstimate,
    h_of_kernel,
    homogenize,
    normalize_kernel,
)
from .hardy import (
    C_of,
    F_eval,
    HardyConstantResult,
    chi_f,
    constant_closed,
    constant_root,
    detect_order,
    gini_constant,
    solve_cef,
)
from .empirical import (
    EmpiricalTrace,
    PowerProbe,
    VerifyReport,
    est_lower_bound,
    genA_limit,
    genA_partial,
    hardy_ratio,
    verify_inequality,
)

__version__ = "0.1.0"

__all__ = [
    "BracketError",
    "C_of",
    "Deviation",
    "DerivativeUnavailableError",
    "DomainError",
    "EmpiricalTrace",
    "F_eval",
    "GeneratorFunction",
    "Gini",
    "HardyConstantResult",
    "HardyMeansError",
    "HomogeneousDeviation",
    "HomogenizationEstimate",
    "InversionError",
    "LimitNotDetected",
    "MeanSpec",
    "NoBracketError",
    "NoConvergenceError",
    "NotIntegrableError",
    "NotNormalizableError",
    "Power",
    "PowerProbe",
    "QuasiArithmetic",
    "QuasideviationKernel",
    "TailBoundFailure",
    "UsageError",
    "VerifyReport",
    "ViolationFound",
    "WeightSequence",
    "ZeroDerivativeError",
    "chi_f",
    "constant_closed",
    "constant_root",
    "detect_order",
    "dev_gini",
    "dev_power",
    "difference_kernel",
    "est_lower_bound",
    "exp_gen",
    "genA_limit",
    "genA_partial",
    "gini_constant",
    "h_of_kernel",
    "hardy_ratio",
    "homogenize",
    "log_gen",
    "normalize_kernel",
    "parse_mean",
    "parse_weights",
    "power_gap_kernel",
    "power_gen",
    "prefix_values",
    "ratio_kernel",
    "scaled_ratio_kernel",
    "solve_cef",
    "validate_generator",
    "validate_kernel",
    "verify_inequality",
]
