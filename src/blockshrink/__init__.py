"""Block-thresholded wavelet regression for known random designs.

The package fits a regression function observed at random design points by
reweighted empirical wavelet coefficients and blockwise keep-or-kill
thresholding, and ships a Monte Carlo harness that verifies the estimator's
risk-decay exponents and coefficient concentration behaviour.
"""

__version__ = "0.1.0"

from .basis import (
    CoefficientTree,
    WaveletBasis,
    evaluate_tree,
    exact_coefficients,
    make_basis,
    midpoint_grid,
    synthesize,
)
from .besov import (
    BesovBall,
    RateSpec,
    TestFunction,
    make_test_function,
    rate_spec,
)
from .design import (
    DesignDensity,
    Sample,
    density_from_spec,
    generate_sample,
    linear_tilt_design,
    piecewise_design,
    read_sample_csv,
    replication_seed,
    uniform_design,
)
from .estimator import (
    BlockGrid,
    Estimate,
    block_grid,
    block_statistics,
    blockshrink,
    empirical_coefficients,
    threshold_tree,
)
from .harness import (
    ConcentrationReport,
    ConfigError,
    ExperimentConfig,
    MomentReport,
    RiskReport,
    calibrate_threshold,
    fit_rate,
    run_diagnostics,
    run_rate_experiment,
    wilson_upper,
)

__all__ = [name for name in dir() if not name.startswith("_")]
