"""cvboson: exact boson sampling with continuous-variable Gaussian detectors.

Simulates linear-optical networks fed with single photons and measured by
displaced-number (CV-1), phase-randomized (PRCV-1), or discretized (DPRCV-1)
detectors: exact output distributions, reproducible samplers, and numeric
verification of every closed form the detector model rests on.
"""

from .version import VERSION as __version__

from .errors import GuardLimitError, InvalidPatternError, InvariantViolation
from .fock import (
    check_unitary,
    displacement_element,
    enumerate_fock_patterns,
    fock_amplitude,
    haar_unitary,
    submatrix_with_multiplicity,
)
from .permanent import permanent_naive, permanent_ryser
from .povm import (
    cvn_povm_element,
    detector_curves,
    dprcv1_povm,
    prcv_completeness_residual,
    prcv_phase_average,
    prcv_povm_diag,
)
from .special import (
    dark_count_probability,
    detector_efficiency,
    g_function,
    laguerre,
    lower_incomplete_gamma,
)
from .distribution import (
    DistributionTable,
    density_cv,
    density_prcv,
    distribution_table,
    leading_order,
    prob_dprcv,
)
from .sampler import SampleBatch, sample_cv1, sample_dprcv1, sample_fock, sample_prcv1
from .estimate import (
    BoundCheck,
    EstimateReport,
    PermanentEstimate,
    SweepFit,
    build_estimate_report,
    deviation_sweep,
    estimate_perm_from_samples,
    mult_bound_check,
    t_from_bits,
)

__all__ = [
    "__version__",
    "GuardLimitError",
    "InvalidPatternError",
    "InvariantViolation",
    "check_unitary",
    "displacement_element",
    "enumerate_fock_patterns",
    "fock_amplitude",
    "haar_unitary",
    "submatrix_with_multiplicity",
    "permanent_naive",
    "permanent_ryser",
    "cvn_povm_element",
    "dark_count_probability",
    "detector_curves",
    "detector_efficiency",
    "dprcv1_povm",
    "g_function",
    "laguerre",
    "lower_incomplete_gamma",
    "prcv_completeness_residual",
    "prcv_phase_average",
    "prcv_povm_diag",
    "DistributionTable",
    "density_cv",
    "density_prcv",
    "distribution_table",
    "leading_order",
    "prob_dprcv",
    "SampleBatch",
    "sample_cv1",
    "sample_dprcv1",
    "sample_fock",
    "sample_prcv1",
    "BoundCheck",
    "EstimateReport",
    "PermanentEstimate",
    "SweepFit",
    "build_estimate_report",
    "deviation_sweep",
    "estimate_perm_from_samples",
    "mult_bound_check",
    "t_from_bits",
]
