"""Multivariate log stationary-fractional-Brownian volatility toolkit.

Covariance kernels, exact spectral simulation of the coupled log-volatility
field, and moment-matching calibration of the roughness and amplitude
matrices from simulated or market panels.
"""

from .params import (
    InadmissibleParamsError,
    ModelParams,
    PairParams,
    StructuralError,
    ValidationReport,
    Violation,
    g_from_xi,
    mu_i,
    validate,
)
from .kernels import (
    KernelDomainError,
    RatioBound,
    SeriesResult,
    index_logvol_variance,
    index_ratio_bound,
    integrated_cov,
    interval_cov,
    log_kernel_cov,
    logvol_incr_corr,
    logvol_incr_cov,
    mrm_cross_cov_series,
    mrm_cross_cov_sia,
    msfbm_cross_cov,
    noise_correlation,
    sia_generalized_moment,
    wick_moment,
    zeta_exponent,
)

__version__ = "0.1.0"
