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
``block_cov_sequence``, ``expected_cross_cov``, ``logvol_incr_cov`` and
``index_ratio_bound``; it is finite at H_ij = 0, where it is that of the log
kernel -ln(|x - y|/T).  Its lag-0 branch is the one block-variance formula,
which ``expected_cross_cov`` also evaluates at longer blocks.  It computes
what depends on the lags alone once per lag set, and its roughness terms
take a number or a column of P roughness values (P rows), each row with the
bits of its own one-roughness call.  Every block kernel, ``interval_cov``
too, takes H_ij = 0; ``msfbm_cross_cov`` and the measure moments reject it
(their B = 1/(2 H_ij (1 - 2 H_ij)) is infinite there).
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
    "SeriesResult",
    "RatioBound",
    "msfbm_cross_cov",
    "log_kernel_cov",
    "noise_correlation",
    "integrated_cov",
    "block_cov_sequence",
    "block_support",
    "expected_cross_cov",
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


def _rows(alpha) -> tuple:
    """The row axes of a roughness term: () for one roughness, (P,) for a
    column (P, 1) of P roughness values."""
    return alpha.shape[:-1] if isinstance(alpha, np.ndarray) else ()


def _power_log(log_y, alpha):
    """(y^a - 1)/a from ln y; ln y itself at a < 1e-290, where a ln y could
    be subnormal (|ln y| >= 1.1e-16 unless y = 1) and lose its bits, while
    ln y is off by at most a (ln y)^2/2, far below its rounding.  For a
    column of rows each row takes its own branch."""
    small = alpha < 1e-290
    if isinstance(small, np.ndarray):
        if small.any():
            safe = np.where(small, 1.0, alpha)
            return np.where(small, log_y, np.expm1(safe * log_y) / safe)
    elif small:
        return log_y
    return np.expm1(alpha * log_y) / alpha


def _second_diff_excess(z: np.ndarray, n_log: int):
    """excess(a): (E(z, a) - 1)/a at descending z, E(z, a) = (|1+z|^(a+2) +
    |1-z|^(a+2) - 2) / (z^2 (1+a)(2+a)); every term carries the factor a
    before it is divided out.  The first n_log entries use |1+-z|^(a+2) =
    |1+-z|^2 (1 + a (|1+-z|^a - 1)/a), which loses about eps/z^2; the rest
    (z < _SERIES_Z) the binomial series sum_{k>=2} 2 (a-1)(a-2)...(a-2k+3)
    /(2k)! z^(2k-2), whose coefficients a column of rows holds per row.
    What depends on z alone is computed once, here."""
    zl = z[:n_log]
    zp, zm = 1.0 + zl, np.abs(1.0 - zl)
    zp2, log_zp, zl2 = zp * zp, np.log1p(zl), zl * zl
    zm2, log_zm = zm * zm, np.log(np.maximum(zm, _TINY))  # zm = 0 at z = 1
    w = z[n_log:] ** 2

    def excess(alpha) -> np.ndarray:
        out = np.empty(_rows(alpha) + z.shape)
        s = zp2 * _power_log(log_zp, alpha)
        s += zm2 * _power_log(log_zm, alpha)
        out[..., :n_log] = (s / zl2 - (3.0 + alpha)) / ((1.0 + alpha)
                                                       * (2.0 + alpha))
        coefs = [(alpha - 1.0) / 12.0]
        for k in range(2, _SERIES_TERMS + 1):
            coefs.append(coefs[-1] * (alpha - 2.0 * k + 2.0)
                         * (alpha - 2.0 * k + 1.0)
                         / ((2.0 * k + 1.0) * (2.0 * k + 2.0)))
        acc = out[..., n_log:]
        acc[:] = coefs[-1]
        for coef in coefs[-2::-1]:
            acc *= w
            acc += coef
        acc *= w
        return out

    return excess


def _unit_block_var(length, log_y, T: float, alpha, c):
    """Unit-amplitude variance of a block of the given length (at most T)
    over length^2, from log_y = ln(length/T): the tau = 0 branch of
    ``_block_cov_at``, c (1 - length/(3T)) - (p - e)/(1 - a) with
    p = (y^a - 1)/a and e = (1 + a p)(3 + a)/((1+a)(2+a)), since there
    1 - u^a E = -a p + y^a (1 - 2/((1+a)(2+a))).  Vectorized over length,
    and over rows when a and c are columns."""
    p = _power_log(log_y, alpha)
    e = (1.0 + alpha * p) * (3.0 + alpha) / ((1.0 + alpha) * (2.0 + alpha))
    return c * (1.0 - length / (3.0 * T)) - (p - e) / (1.0 - alpha)


def _unit_window_sum(m: int, delta: float, T: float, alpha, c):
    """S = sum_{|k| < m} r(k) of the unit block covariance r (m >= 2,
    m Delta <= T): the first difference V(m) - V(m-1) of V(L) = L^2
    ``_unit_block_var``(L Delta) = c (L^2 - L^3 Delta/(3T)) - L^2 (2 p_L - 3
    - a)/K, with K = (1-a)(1+a)(2+a) and p_L = ((L Delta/T)^a - 1)/a:

        c (2m - 1 - (3m^2 - 3m + 1) Delta/(3T))
        + [(2m - 1)(3 + a - 2 p_m) - 2 (m-1)^2 (p_m - p_(m-1))] / K,

    p_m - p_(m-1) = ((m-1) Delta/T)^a (x^a - 1)/a at x = 1 + 1/(m-1), from
    log1p.  Neither bracket cancels (the first lies in [m - 1, 2m), p_m <= 0
    and (m-1)^2 (p_m - p_(m-1)) < m), where the difference of the two V,
    each of size m^2 r(0), loses a factor m; the two terms cancel only as the
    kernel's own B- and C-terms do near H_ij = 1/2.  For columns a and c it
    is a column: ((m-1) Delta/T)^a is ``math.exp`` row by row, since
    ``np.exp`` can differ from it in the last bit."""
    log_prev = math.log((m - 1) * delta / T)
    p_m = _power_log(math.log(m * delta / T), alpha)
    expo = alpha * log_prev
    y_prev = (np.reshape([math.exp(v) for v in expo.ravel()], expo.shape)
              if isinstance(expo, np.ndarray) else math.exp(expo))
    step = y_prev * _power_log(math.log1p(1.0 / (m - 1)), alpha)
    lin = 2 * m - 1 - (3 * m * m - 3 * m + 1) * delta / (3.0 * T)
    power = ((2 * m - 1) * (3.0 + alpha - 2.0 * p_m)
             - 2.0 * (m - 1) ** 2 * step)
    return c * lin + power / ((1.0 - alpha) * (1.0 + alpha) * (2.0 + alpha))


def _block_cov_at(tau: np.ndarray, delta: float, T: float):
    """cov(a, c): the unit-amplitude block covariance over Delta^2 at
    ascending lags tau, B (1 - u^a E(z, a)) + C (1 - u E(z, 1)), a = 2 H_ij,
    c = C = ``linear_coeff``(a, h_bar), u = tau/T, z = Delta/tau, A = B + C.
    The B-term is -[(u^a - 1)/a + u^a (E - 1)/a]/(1 - a), finite at a = 0
    (the log kernel -ln(|x - y|/T)); at tau = 0, u^a E is its z -> infinity
    limit (Delta/T)^a 2/((1+a)(2+a)).  z falls as tau grows, so each form is
    a slice.  What depends on the lags alone is computed once, here; a and c
    are numbers, or columns (P, 1) that give P rows."""
    # ends of the lags tau = 0, tau < Delta and z >= _SERIES_Z
    i0, i1, i2 = np.searchsorted(
        tau, (0.0, math.nextafter(delta, 0.0), delta / _SERIES_Z), side="right")
    log_block = math.log(delta / T)
    u, z = tau[i0:] / T, delta / tau[i0:]
    log_u = np.log(u)
    excess = _second_diff_excess(z, i2 - i0)
    lin = 1.0 - u
    if i1 > i0:  # tau < Delta: E(z, 1) - 1 = (z - 1)^3/(3 z^2)
        zs = z[:i1 - i0]
        lin[:i1 - i0] -= u[:i1 - i0] * (zs - 1.0) ** 3 / (3.0 * zs * zs)

    def cov(alpha, c) -> np.ndarray:
        out = np.empty(_rows(alpha) + tau.shape)
        out[..., :i0] = _unit_block_var(delta, log_block, T, alpha, c)
        p = _power_log(log_u, alpha)
        power = p + (alpha * p + 1.0) * excess(alpha)
        out[..., i0:] = c * lin - power / (1.0 - alpha)
        return out

    return cov


def _unit_block_cov(tau: np.ndarray, delta: float, T: float, h_ij: float,
                    h_bar: float) -> np.ndarray:
    """``_block_cov_at`` at one (H_ij, h_bar)."""
    alpha = 2.0 * h_ij
    return _block_cov_at(tau, delta, T)(alpha, linear_coeff(alpha, h_bar))


def _pair_block_cov(t: np.ndarray, delta: float,
                    pair: PairParams) -> np.ndarray:
    """``_unit_block_cov`` of the pair at lags t in any order and shape."""
    lags, inv = np.unique(t, return_inverse=True)
    unit = _unit_block_cov(lags, delta, pair.T, pair.H_ij, pair.h_bar)
    return unit[inv].reshape(t.shape)


def _check_window(tau, delta: float, T: float):
    t = np.asarray(tau, dtype=float)
    if not delta > 0:
        raise KernelDomainError(f"Delta must be positive, got {delta}")
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
    return _dispatch(tau, lambda t: pair.g * delta * delta
                     * _pair_block_cov(t, delta, pair))


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


def expected_cross_cov(n: int, taus, delta: float, T: float):
    """curve(H_ij, h_bar): the model side of the moment conditions at unit
    amplitude, the exact expectation of ``estimate.empirical_cross_cov`` at
    the ascending lags ``taus`` (below n) of a series whose covariance
    sequence is r = ``block_cov_sequence(n, delta, H_ij, h_bar, T)``.  In the
    variogram gamma(k) = r(0) - r(k) and its sums Gamma(L) = sum_{|k| < L}
    (L - |k|) gamma(|k|) = L^2 r(0) - V(L), V(L) the variance of a sum of L
    consecutive entries, the terms in r(0) cancel:

        E Chat(k) = (Gamma(n-k) - Gamma(k) + k/n Gamma(n))/n^2
                    - (n-k)/n gamma(k).

    So a curve costs O(len(taus)), not O(n): r at the lags, and V(L) is L^2
    times the unit block variance at block length L Delta while L is at most
    the support M = ``block_support(n, delta, T)``.  Beyond it r vanishes
    (gamma = r(0)), so Gamma(L) = Gamma(M) + (L - M)((L + M) r(0) - S), with
    S = sum_{|k| < M} r(k) in closed form.  What depends on the window alone
    (the support, the lags inside it, the block lengths k, n - k and n with
    their spans, the weights) is computed once, here; ``curve`` only reads
    it.

    ``curve`` takes one roughness (numbers H_ij and h_bar) and returns the
    (q,) curve, or P of them (1-d arrays H_ij and h_bar of length P, or a
    number h_bar that every row shares) and returns a (P, q) array whose
    row i is curve(H_ij[i], h_bar[i]) bit for bit: the rows share every
    numpy call, so a roughness scan costs one call."""
    k = np.asarray(taus)
    q = k.size
    m = block_support(n, delta, T)
    rest, share = (n - k) / n, k / n
    inside = int(np.searchsorted(k, m))
    lags = np.concatenate(([0], k[:inside])) * delta
    lengths = np.concatenate((k, n - k, (n,)))
    length = np.minimum(lengths, m)
    span = np.maximum(length, 1) * delta
    log_span = np.log(span / T)
    blocks = length * length
    beyond, reach = lengths - length, lengths + m
    block_cov = _block_cov_at(lags, delta, T) if m else None

    def curve(H_ij, h_bar) -> np.ndarray:
        if isinstance(H_ij, np.ndarray):  # rows: columns (P, 1)
            H_ij = H_ij[:, None]
            if isinstance(h_bar, np.ndarray):
                h_bar = h_bar[:, None]
        alpha = 2.0 * H_ij
        if m == 0:
            return np.zeros(_rows(alpha) + (q,))
        c = linear_coeff(alpha, h_bar)
        r = block_cov(alpha, c)
        r0 = r[..., :1]
        gamma = np.empty(_rows(alpha) + (q,))
        gamma[...] = r0
        gamma[..., :inside] -= r[..., 1:]
        # Gamma(min(L, M)) = min(L, M)^2 (r(0) - V/L^2)
        sums = blocks * (r0 - _unit_block_var(span, log_span, T, alpha, c))
        if m < n:
            s = r0 if m == 1 else _unit_window_sum(m, delta, T, alpha, c)
            sums += beyond * (reach * r0 - s)
        sums /= n * n
        return (sums[..., q:2 * q] - sums[..., :q] + share * sums[..., -1:]
                - rest * gamma)

    return curve


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
    alpha = 2.0 * pair.H_ij
    c = linear_coeff(alpha, pair.h_bar)
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

    def compute(tt):
        unit = _pair_block_cov(np.append(0.0, tt), delta, pair)
        return 2.0 * pair.g * (unit[0] - unit[1:].reshape(tt.shape))

    return _dispatch(tau, compute)


def logvol_incr_corr(tau: float, delta: float, pair: PairParams) -> float:
    """Correlation of the lag-tau log-volatility increments of the two
    marginals in the small-amplitude regime; bounded by 1 in magnitude."""
    cov_ij = logvol_incr_cov(tau, delta, pair)
    var_i = logvol_incr_cov(
        tau, delta, PairParams.diagonal(pair.lambda_i2, pair.H_i, pair.T))
    var_j = logvol_incr_cov(
        tau, delta, PairParams.diagonal(pair.lambda_j2, pair.H_j, pair.T))
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
    _check_window(tau, delta, pair.T)
    if not tau > delta:
        raise KernelDomainError(f"need tau > Delta, got tau={tau}, Delta={delta}")


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
    if not np.all(w > 0):
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
