"""Closed-form covariance kernels and moment formulas.

Everything here is a pure function of its arguments.  Kernels are supported
on lags below the correlation scale T and vanish identically beyond it; the
integrated (block-averaged) variants additionally require the whole
integration rectangle to fit inside the support, i.e. tau + Delta <= T.
Functions accepting a lag are vectorized over it; ``msfbm_cross_cov``
additionally has a plain-float path for scalar lags (see its docstring).
The kernel coefficients have one implementation,
``PairParams.kernel_constants`` (C in ``params.linear_coeff``): each pair
computes its constants (xi_ij, A, B, C, T, 2 H_ij) once and caches them,
so a kernel call reads them instead of deriving them.
The block covariance has one implementation, shared by ``integrated_cov``,
``block_cov_sequence``, ``logvol_incr_cov`` and ``index_ratio_bound``; it is
finite at H_ij = 0, where it is that of the log kernel -ln(|x - y|/T).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .params import ModelParams, PairParams, linear_coeff, require_admissible
from .special import power_exp_integral

__all__ = [
    "KernelDomainError",
    "CovCurve",
    "SeriesResult",
    "RatioBound",
    "msfbm_cross_cov",
    "log_kernel_cov",
    "noise_correlation",
    "integrated_cov",
    "block_cov_sequence",
    "block_support",
    "interval_cov",
    "logvol_incr_cov",
    "logvol_incr_corr",
    "mrm_cross_cov_series",
    "mrm_cross_cov_sia",
    "zeta_exponent",
    "wick_moment",
    "sia_generalized_moment",
    "index_logvol_variance",
    "index_variance_decomposition",
    "index_ratio_bound",
]

# below this z = Delta/tau, ``_second_diff_excess`` sums a series in z^2
# whose first _SERIES_TERMS terms reach double precision there
_SERIES_Z = 0.0625
_SERIES_TERMS = 5
_TINY = np.finfo(float).tiny  # stands in for y = 0 where y^2 ln y -> 0

_DOMAIN_SLACK = 1.0 + 1e-12

# ``mrm_cross_cov_series`` stops when a term falls below _MRM_RTOL of the
# partial sum, or after _MRM_MAX_TERMS terms
_MRM_MAX_TERMS = 200
_MRM_RTOL = 1e-12

_NO_POWER_LAW = ("H_ij = 0 has no power-law kernel; use log_kernel_cov for "
                 "the multifractal branch")


class KernelDomainError(ValueError):
    """Arguments outside the validity window of a closed-form kernel."""


@dataclass(frozen=True)
class CovCurve:
    """A covariance curve: strictly increasing lags with one value each.

    The kernels return plain arrays; ``estimate`` builds these curves, for
    the empirical moments (``empirical_cross_cov``) and for a fit's
    residuals (``GmmResult.residuals``).
    """

    lags: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        lags = np.asarray(self.lags, dtype=float)
        vals = np.asarray(self.values, dtype=float)
        if lags.ndim != 1 or vals.shape != lags.shape:
            raise ValueError("lags and values must be 1-d arrays of equal length")
        if lags.size < 1:
            raise ValueError("curve needs at least one lag")
        if np.any(lags < 0):
            raise ValueError("lags must be non-negative")
        if np.any(np.diff(lags) <= 0):
            raise ValueError("lags must be strictly increasing")
        if not np.all(np.isfinite(vals)):
            raise ValueError("values must be finite")
        object.__setattr__(self, "lags", lags)
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return self.lags.size


@dataclass(frozen=True)
class SeriesResult:
    """Value of a truncated series with the achieved tolerance estimate."""

    value: float
    terms_used: int
    rel_error: float
    converged: bool


@dataclass(frozen=True)
class RatioBound:
    finite: float
    limit: float
    c_h: float


def _pair_coeffs(pair: PairParams) -> tuple[float, float, float]:
    """The pair's cached coefficients (A, B, C) of the cross kernel
    xi * [A - B (tau/T)^(2 H_ij) - C (tau/T)], where A = B + C;
    H_ij = 0 has no power-law kernel."""
    constants = pair.kernel_constants
    if constants is None:
        raise KernelDomainError(_NO_POWER_LAW)
    return constants[1:4]


def _dispatch(tau, fn):
    t = np.asarray(tau, dtype=float)
    if np.any(t < 0):
        raise KernelDomainError("lags must be non-negative")
    out = fn(t)
    return float(out) if t.ndim == 0 else out


def msfbm_cross_cov(tau, pair: PairParams):
    """Stationary cross-covariance of two coupled log-volatility marginals.

    Vanishes for tau >= T; at i = j it reduces to
    (nu^2/2) (1 - (tau/T)^(2H)) with nu^2 = lambda^2 / (H (1 - 2H)).

    Both paths read the per-pair constants that ``PairParams`` computes
    once (``kernel_constants``).  A scalar lag (``int`` or ``float``,
    including ``np.float64``) takes a path of plain float arithmetic with no
    numpy dispatch, since quadrature calls the kernel once per node; it
    returns the same ``float`` as the lag wrapped in a 0-d array.  Arrays,
    0-d included, take the numpy path.
    """
    # the check of _pair_coeffs, inline: a call costs a tenth of a node
    constants = pair.kernel_constants
    if constants is None:
        raise KernelDomainError(_NO_POWER_LAW)
    xi, a, b, c, T, h2 = constants

    if isinstance(tau, (float, int)):
        t = float(tau)
        if t < 0:
            raise KernelDomainError("lags must be non-negative")
        if t >= T:
            return 0.0
        u = t / T
        return float(xi * (a - b * u**h2 - c * u))

    def compute(t):
        u = np.minimum(t / T, 1.0)
        val = xi * (a - b * u**h2 - c * u)
        return np.where(t >= T, 0.0, val)

    return _dispatch(tau, compute)


def log_kernel_cov(tau, ell: float, xi: float, T: float):
    """Logarithmic kernel with short-scale cutoff ell.

    Equals -xi ln(tau/T) on (ell, T), vanishes beyond T, and is capped
    linearly by -xi (ln(ell/T) - 1 + tau/ell) below ell; continuous at both
    junctions.  This is the H = 0 (multifractal) covariance branch.
    """
    if not 0 < ell < T:
        raise KernelDomainError(f"need 0 < ell < T, got ell={ell}, T={T}")

    def compute(t):
        capped = -xi * (math.log(ell / T) - 1.0 + t / ell)
        middle = -xi * np.log(np.maximum(t, ell) / T)
        val = np.where(t < ell, capped, middle)
        return np.where(t >= T, 0.0, val)

    return _dispatch(tau, compute)


def noise_correlation(h, pair: PairParams):
    """Scale-dependent correlation of the driving noises:
    g (h/T)^(2 (H_ij - Hbar)) below T, constant g above."""
    def compute(hh):
        if np.any(hh <= 0):
            raise KernelDomainError("scale h must be positive")
        expo = 2.0 * (pair.H_ij - pair.h_bar)
        val = pair.g * np.minimum(hh / pair.T, 1.0) ** expo
        return np.where(hh > pair.T, pair.g, val)

    return _dispatch(h, compute)


def _power_log(log_y, alpha: float):
    """(y^a - 1)/a from ln y; ln y itself at a = 0."""
    return log_y if alpha == 0.0 else np.expm1(alpha * log_y) / alpha


def _second_diff_excess(z: np.ndarray, alpha: float, n_log: int) -> np.ndarray:
    """(E(z, a) - 1)/a at descending z, E(z, a) = (|1+z|^(a+2) + |1-z|^(a+2)
    - 2) / (z^2 (1+a)(2+a)); every term carries the factor a before it is
    divided out.  The first n_log entries use |1+-z|^(a+2) = |1+-z|^2 (1 + a
    (|1+-z|^a - 1)/a), which loses about eps/z^2; the rest (z < _SERIES_Z)
    the binomial series sum_{k>=2} 2 (a-1)(a-2)...(a-2k+3)/(2k)! z^(2k-2)."""
    out = np.empty(z.size)
    zl = z[:n_log]
    zp, zm = 1.0 + zl, np.abs(1.0 - zl)
    s = zp * zp * _power_log(np.log1p(zl), alpha)
    s += zm * zm * _power_log(np.log(np.maximum(zm, _TINY)), alpha)  # zm = 0 at z = 1
    out[:n_log] = (s / (zl * zl) - (3.0 + alpha)) / ((1.0 + alpha) * (2.0 + alpha))
    coefs = [(alpha - 1.0) / 12.0]
    for k in range(2, _SERIES_TERMS + 1):
        coefs.append(coefs[-1] * (alpha - 2.0 * k + 2.0) * (alpha - 2.0 * k + 1.0)
                     / ((2.0 * k + 1.0) * (2.0 * k + 2.0)))
    w = z[n_log:] ** 2
    acc = out[n_log:]
    acc[:] = coefs[-1]
    for coef in coefs[-2::-1]:
        acc *= w
        acc += coef
    acc *= w
    return out


def _unit_block_cov(tau: np.ndarray, delta: float, T: float, h_ij: float,
                    h_bar: float) -> np.ndarray:
    """Unit-amplitude block covariance over Delta^2 at ascending lags tau:
    B (1 - u^a E(z, a)) + C (1 - u E(z, 1)), a = 2 H_ij, u = tau/T,
    z = Delta/tau, A = B + C.  The B-term is -[(u^a - 1)/a + u^a (E - 1)/a]
    /(1 - a), finite at a = 0 (the log kernel -ln(|x - y|/T)); at tau = 0,
    u^a E is its z -> infinity limit (Delta/T)^a 2/((1+a)(2+a)).  z falls
    as tau grows, so each form is a slice."""
    alpha = 2.0 * h_ij
    c = linear_coeff(alpha, h_bar)
    # ends of the lags tau = 0, tau < Delta and z >= _SERIES_Z
    i0, i1, i2 = np.searchsorted(
        tau, (0.0, math.nextafter(delta, 0.0), delta / _SERIES_Z), side="right")
    # tau = 0, y = Delta/T: 1 - u^a E = -a (y^a - 1)/a + y^a (1 - 2/((1+a)(2+a)))
    p0 = _power_log(math.log(delta / T), alpha)
    e0 = (1.0 + alpha * p0) * (3.0 + alpha) / ((1.0 + alpha) * (2.0 + alpha))
    out = np.empty(tau.size)
    out[:i0] = c * (1.0 - delta / (3.0 * T)) - (p0 - e0) / (1.0 - alpha)
    u, z = tau[i0:] / T, delta / tau[i0:]
    p = _power_log(np.log(u), alpha)
    power = p + (alpha * p + 1.0) * _second_diff_excess(z, alpha, i2 - i0)
    lin = 1.0 - u
    if i1 > i0:  # tau < Delta: E(z, 1) - 1 = (z - 1)^3/(3 z^2)
        zs = z[:i1 - i0]
        lin[:i1 - i0] -= u[:i1 - i0] * (zs - 1.0) ** 3 / (3.0 * zs * zs)
    out[i0:] = c * lin - power / (1.0 - alpha)
    return out


def _check_window(tau, delta: float, T: float):
    t = np.asarray(tau, dtype=float)
    if delta <= 0:
        raise KernelDomainError(f"Delta must be positive, got {delta}")
    if np.any(t < 0):
        raise KernelDomainError("lags must be non-negative")
    if np.any(t + delta > T * _DOMAIN_SLACK):
        raise KernelDomainError(
            f"tau + Delta = {float(np.max(t)) + delta} exceeds the validity "
            f"window T = {T}"
        )


def integrated_cov(tau, delta: float, pair: PairParams):
    """Covariance of the two normalized block integrals of length Delta whose
    left endpoints are tau apart.  Finite at tau = 0 and symmetric in the
    marginals.  Its amplitude is g, not xi_ij = g sqrt(lambda_i^2 lambda_j^2),
    so dividing by Delta^2 recovers ``msfbm_cross_cov`` / sqrt(lambda_i^2
    lambda_j^2) as Delta -> 0, with a relative error of order (Delta/tau)^2
    for tau > 0.  On the lags k Delta it is g Delta^2 ``block_cov_sequence``."""
    _check_window(tau, delta, pair.T)
    _pair_coeffs(pair)  # rejects H_ij = 0

    def compute(t):
        lags, inv = np.unique(t, return_inverse=True)
        unit = _unit_block_cov(lags, delta, pair.T, pair.H_ij, pair.h_bar)
        return pair.g * delta * delta * unit[inv].reshape(t.shape)

    return _dispatch(tau, compute)


def block_support(n: int, delta: float, T: float) -> int:
    """Length of the prefix of ``block_cov_sequence`` that can be non-zero:
    the lags k < n with Delta + k Delta <= T, rounded as the window check."""
    limit = T * _DOMAIN_SLACK
    m = int(min(max(limit // delta, 0.0), n))
    while m < n and delta + m * delta <= limit:
        m += 1
    while m > 0 and delta + (m - 1) * delta > limit:
        m -= 1
    return m


def block_cov_sequence(n: int, delta: float, H_ij: float, h_bar: float,
                       T: float) -> np.ndarray:
    """Unit-amplitude block covariance over Delta^2 at the lags k Delta,
    k = 0..n-1: ``integrated_cov(k Delta, Delta, pair) / (g Delta^2)`` for
    joint roughness H_ij and marginal mean roughness h_bar.

    Entries whose block leaves the window (Delta + k Delta > T, the check of
    ``integrated_cov``) are zero, and only the support is evaluated.  The
    result is finite down to H_ij = 0, where it is the block covariance of
    the log kernel -ln(|x - y|/T).
    """
    m = block_support(n, delta, T)
    r = np.zeros(n)
    r[:m] = _unit_block_cov(np.arange(m) * delta, delta, T, H_ij, h_bar)
    return r


def interval_cov(interval_i: tuple, interval_j: tuple, pair: PairParams) -> float:
    """Covariance of the normalized integrals of the two marginals over two
    arbitrary intervals (not normalized by the interval lengths)."""
    p, q = map(float, interval_i)
    r, s = map(float, interval_j)
    if not (q > p and s > r):
        raise KernelDomainError("intervals must have positive length")
    dists = (abs(s - p), abs(r - q), abs(r - p), abs(s - q))
    span = max(dists)
    if span > pair.T * _DOMAIN_SLACK:
        raise KernelDomainError(
            f"interval separation {span} exceeds the validity window T = {pair.T}"
        )
    _, _, c = _pair_coeffs(pair)
    alpha = 2.0 * pair.H_ij
    area = (q - p) * (s - r)
    # B (area - psi(a)) and C (area - psi(1)), psi(a) the four-point second
    # difference (signs + + - -) of |x|^(a+2) / (T^a (1+a)(2+a)); its
    # |x|^2 part is 2 area.  d = 0 where the intervals touch.
    signed = list(zip((1.0, 1.0, -1.0, -1.0), dists))
    power = sum(sg * d * d * _power_log(math.log(max(d / pair.T, _TINY)), alpha)
                for sg, d in signed)
    power = ((3.0 + alpha) * area - power) / (
        (1.0 + alpha) * (2.0 + alpha) * (1.0 - alpha))
    linear = area - sum(sg * d**3 for sg, d in signed) / (6.0 * pair.T)
    return float(pair.g * (power + c * linear))


def logvol_incr_cov(tau, delta: float, pair: PairParams):
    """Covariance of the lag-tau increments of the two block-averaged
    marginals, cov(d_tau Omega_i / Delta, d_tau Omega_j / Delta).

    Equals 2 (C(0) - C(tau)) / Delta^2 in terms of the block covariance C,
    and is computed so: 2 g (unit(0) - unit(tau)) of ``block_cov_sequence``.
    """
    t = np.asarray(tau, dtype=float)
    if np.any(t <= 0):
        raise KernelDomainError("increment lag tau must be positive")
    _check_window(tau, delta, pair.T)
    _pair_coeffs(pair)  # rejects H_ij = 0

    def compute(tt):
        lags, inv = np.unique(np.append(0.0, tt), return_inverse=True)
        unit = _unit_block_cov(lags, delta, pair.T, pair.H_ij, pair.h_bar)
        return 2.0 * pair.g * (unit[0] - unit[inv[1:]].reshape(tt.shape))

    return _dispatch(tau, compute)


def _diagonal_pair(pair: PairParams, which: str) -> PairParams:
    if which == "i":
        return PairParams.diagonal(pair.lambda_i2, pair.H_i, pair.T)
    return PairParams.diagonal(pair.lambda_j2, pair.H_j, pair.T)


def logvol_incr_corr(tau: float, delta: float, pair: PairParams) -> float:
    """Correlation of the lag-tau log-volatility increments of the two
    marginals in the small-amplitude regime; bounded by 1 in magnitude."""
    cov_ij = logvol_incr_cov(tau, delta, pair)
    var_i = logvol_incr_cov(tau, delta, _diagonal_pair(pair, "i"))
    var_j = logvol_incr_cov(tau, delta, _diagonal_pair(pair, "j"))
    if var_i <= 0 or var_j <= 0:
        raise KernelDomainError(
            f"degenerate increment variance (var_i={var_i}, var_j={var_j})"
        )
    return cov_ij / math.sqrt(var_i * var_j)


def _series_constants(pair: PairParams) -> tuple[float, float, float]:
    a, b, c = _pair_coeffs(pair)
    xi = pair.xi_ij
    k = xi * b / pair.T ** (2.0 * pair.H_ij)
    l = xi * c / pair.T
    m = math.exp(xi * a)
    return k, l, m


def _check_series_domain(tau: float, delta: float, pair: PairParams):
    if not delta > 0:
        raise KernelDomainError(f"Delta must be positive, got {delta}")
    if not tau > delta:
        raise KernelDomainError(f"need tau > Delta, got tau={tau}, Delta={delta}")
    if tau + delta > pair.T * _DOMAIN_SLACK:
        raise KernelDomainError(
            f"tau + Delta = {tau + delta} exceeds the validity window T = {pair.T}"
        )


def mrm_cross_cov_series(tau: float, delta: float,
                         pair: PairParams) -> SeriesResult:
    """E[M_i over [t, t+Delta] times M_j over [t+tau, t+tau+Delta]] via the
    exponential-series expansion of the measure cross-moment.

    Expands exp(-K |x-y|^(2H)) and integrates each term exactly with
    incomplete-gamma identities; the linear factor exp(-L |x-y|) is kept
    inside the integrals.  Stops when the last term is below 1e-12 of the
    partial sum, or after 200 terms, reporting the achieved ratio;
    ``converged`` is False when the cap stopped it.
    """
    _check_series_domain(tau, delta, pair)
    k, l, m = _series_constants(pair)
    h2 = 2.0 * pair.H_ij

    def lin_integral(p: float, a: float, b: float) -> float:
        # int_a^b u^p exp(-L u) du
        return power_exp_integral(p, l, 1.0, a, b)

    total = 0.0
    last_ratio = math.inf
    coeff = 1.0  # (-K)^n / n!
    terms = 0
    for n in range(_MRM_MAX_TERMS):
        p = h2 * n
        f_n = (
            (delta + tau) * lin_integral(p, tau, tau + delta)
            - lin_integral(p + 1.0, tau, tau + delta)
            + lin_integral(p + 1.0, tau - delta, tau)
            + (delta - tau) * lin_integral(p, tau - delta, tau)
        )
        term = coeff * f_n
        total += term
        terms = n + 1
        if total != 0.0:
            last_ratio = abs(term) / abs(total)
            if last_ratio < _MRM_RTOL:
                break
        coeff *= -k / (n + 1.0)
    return SeriesResult(
        value=m * total,
        terms_used=terms,
        rel_error=last_ratio,
        converged=last_ratio < _MRM_RTOL,
    )


def mrm_cross_cov_sia(tau: float, delta: float, pair: PairParams) -> float:
    """First order (in the linear coefficient) form of the measure
    cross-moment: the pure power-kernel term minus L times the distance-
    weighted correction, each reduced to incomplete-gamma blocks.

    For i = j the correction vanishes and the value is
    M [F(tau+Delta) + F(tau-Delta) - 2 F(tau)].
    """
    _check_series_domain(tau, delta, pair)
    k, l, m = _series_constants(pair)
    h2 = 2.0 * pair.H_ij

    def j_int(n: float, a: float, b: float) -> float:
        # int_a^b z^n exp(-K z^(2H)) dz
        return power_exp_integral(n, k, h2, a, b)

    def f_block(x: float) -> float:
        return x * j_int(0.0, 0.0, x) - j_int(1.0, 0.0, x)

    pure = f_block(tau + delta) + f_block(tau - delta) - 2.0 * f_block(tau)
    upper = (
        -j_int(2.0, tau, tau + delta)
        + (delta + 2.0 * tau) * j_int(1.0, tau, tau + delta)
        - tau * (delta + tau) * j_int(0.0, tau, tau + delta)
    )
    lower = (
        -j_int(2.0, tau - delta, tau)
        + (2.0 * tau - delta) * j_int(1.0, tau - delta, tau)
        + tau * (delta - tau) * j_int(0.0, tau - delta, tau)
    )
    return m * (pure - l * (upper + lower))


def zeta_exponent(p: float, q: float, xi_ij: float) -> float:
    """Joint scaling exponent p + q - xi (p+q)^2 / 2 of the bivariate
    measure moments; symmetric in (p, q), concave in p + q."""
    return p + q - xi_ij * (p + q) ** 2 / 2.0


_WICK_MAX_N = 16


def wick_moment(cov) -> float:
    """E[X_1 ... X_n] for a centered Gaussian vector with the given
    covariance: zero for odd n, sum over perfect matchings of covariance
    products for even n."""
    c = np.asarray(cov, dtype=float)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise ValueError("covariance must be a square matrix")
    n = c.shape[0]
    if n > _WICK_MAX_N:
        raise ValueError(f"n = {n} exceeds the pairing-enumeration bound {_WICK_MAX_N}")
    scale = max(1.0, float(np.abs(c).max()))
    if np.abs(c - c.T).max() > 1e-10 * scale:
        raise ValueError("covariance must be symmetric")
    if np.linalg.eigvalsh(0.5 * (c + c.T)).min() < -1e-8 * scale:
        raise ValueError("covariance must be positive semidefinite within tolerance")
    if n % 2 == 1:
        return 0.0

    def pairing_sum(active: tuple) -> float:
        if not active:
            return 1.0
        first, rest = active[0], active[1:]
        total = 0.0
        for pos, partner in enumerate(rest):
            total += c[first, partner] * pairing_sum(rest[:pos] + rest[pos + 1:])
        return total

    return pairing_sum(tuple(range(n)))


def sia_generalized_moment(intervals: Sequence[tuple], params: ModelParams) -> float:
    """Leading small-amplitude term of E[prod_i ln(M_i(I_i)/|I_i|)]: the Wick
    moment of the Gaussian block integrals, with the amplitude factors
    lambda_i absorbed into the covariance matrix.  Zero for an odd number of
    factors."""
    require_admissible(params)
    d = params.d
    if len(intervals) != d:
        raise ValueError(f"expected {d} intervals, got {len(intervals)}")
    pts = [float(e) for iv in intervals for e in iv]
    if max(pts) - min(pts) > params.T * _DOMAIN_SLACK:
        raise KernelDomainError("intervals span a window longer than T")
    if d % 2 == 1:
        return 0.0
    lam = np.sqrt(params.lambda2_diag)
    sigma = np.empty((d, d))
    for i in range(d):
        for j in range(i, d):
            li = intervals[i][1] - intervals[i][0]
            lj = intervals[j][1] - intervals[j][0]
            cov = interval_cov(intervals[i], intervals[j], params.pair(i, j))
            sigma[i, j] = sigma[j, i] = lam[i] * lam[j] * cov / (li * lj)
    return wick_moment(sigma)


def index_logvol_variance(
    weights: Sequence[float], params: ModelParams, tau: float, delta: float
) -> float:
    """Small-amplitude variance of the lag-tau log-volatility increment of a
    weighted index of the d marginals: the quadratic form of the pairwise
    increment covariances with weights alpha_i^2 alpha_j^2 lambda_i lambda_j."""
    cross, diag = index_variance_decomposition(weights, params, tau, delta)
    return cross + diag


def index_variance_decomposition(
    weights: Sequence[float], params: ModelParams, tau: float, delta: float
) -> tuple[float, float]:
    """Split of the index increment variance into the off-diagonal (shared
    factor) and diagonal (idiosyncratic) sums."""
    require_admissible(params)
    w = np.asarray(weights, dtype=float)
    if w.shape != (params.d,):
        raise ValueError(f"expected {params.d} weights, got shape {w.shape}")
    if np.any(w <= 0):
        raise ValueError("weights must be positive")
    if not (0 < delta < params.T and 0 < tau < params.T):
        raise KernelDomainError("need 0 < Delta, tau < T")
    lam = np.sqrt(params.lambda2_diag)
    cross = 0.0
    diag = 0.0
    for i in range(params.d):
        for j in range(i, params.d):
            cov = logvol_incr_cov(tau, delta, params.pair(i, j))
            term = w[i] ** 2 * w[j] ** 2 * lam[i] * lam[j] * cov
            if i == j:
                diag += term
            else:
                cross += 2.0 * term
    return float(cross), float(diag)


def index_ratio_bound(
    H: float, Hprime: float, delta: float, tau: float, T: float, d: int
) -> RatioBound:
    """Lower bound for the ratio of the shared-factor term to the
    idiosyncratic term of the index variance, for the homogeneous
    configuration (common off-diagonal roughness H, marginal roughness H').

    Returns both the finite-H' bound (d-1) (tau/T)^(2(H-H')) / r(Delta/tau),
    exact down to H' = 0, and the H' -> 0 limit (d-1) (tau/T)^(2H) C_H
    (3 - 2 ln(Delta/tau)) with C_H = H (1-2H) (1+2H) (1+H) / (2 (2^(2H) - 1)).
    """
    if not 0 <= Hprime < H < 0.5:
        raise KernelDomainError(f"need 0 <= H' < H < 1/2, got H'={Hprime}, H={H}")
    if not 0 < delta < tau < T:
        raise KernelDomainError(
            f"need 0 < Delta < tau < T, got Delta={delta}, tau={tau}, T={T}"
        )
    if d < 1:
        raise ValueError("d must be >= 1")
    # unit(0) - unit(tau) with diagonal coefficients, at H and at H'
    rise = [-np.diff(_unit_block_cov(np.array([0.0, tau]), delta, T, h, h))[0]
            for h in (H, Hprime)]
    finite = (d - 1) * rise[0] / rise[1]
    c_h = H * (1.0 - 2.0 * H) * (1.0 + 2.0 * H) * (1.0 + H) / (
        2.0 * (2.0 ** (2.0 * H) - 1.0)
    )
    limit = (d - 1) * (tau / T) ** (2.0 * H) * c_h * (3.0 - 2.0 * math.log(delta / tau))
    return RatioBound(finite=float(finite), limit=float(limit), c_h=float(c_h))
