"""Moment estimators and two-stage GMM calibration.

The workflow mirrors the simulation study: each marginal is fitted on its
own (roughness H, amplitude lambda^2; the scale T is given or searched), then
every pair is fitted for its correlation g and joint roughness H_ij with the
marginals held fixed.  Moment conditions are empirical autocovariances of
the log-volatility series on a geometric lag grid, matched against the exact
model-implied expectation of the estimator (the demeaned 1/N estimator is
biased by the sample-mean variance, which is material when the correlation
scale is of the order of the sample span).

Constrained parameters never leave their boxes: the amplitude (lambda^2,
or g times the marginal amplitudes) enters the moment curve linearly and is
profiled out by weighted least squares clipped to its box, and the roughness
is searched on a bounded bracket.  This optimizes the same objective as the
tanh/logistic reparametrization but deterministically, without ridge
wandering.  This is the one optimiser path: a free scale T (univariate fits
only) is an outer bounded search over T of the first-stage profiled
objective, and the fit then runs at the chosen T.  Every model curve is a
fixed linear map, built once per fit and T, of ``kernels.block_cov_sequence``.

The second-stage weight inverts the exact Gaussian covariance of the moment
vector at the first-stage estimate.
"""

from __future__ import annotations

import math
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
import scipy.optimize as sopt

from .kernels import CovCurve, block_cov_sequence, block_support
from .params import ModelParams, ValidationReport, validate
from .simulate import (
    FieldPanel,
    SimulationError,
    SpectralFactor,
    default_workers,
    field_to_gaussian_proxy,
    field_to_measure,
    simulate_field,
    spectral_factor,
)

__all__ = [
    "LagGrid",
    "GmmResult",
    "McConfig",
    "McReport",
    "McRun",
    "ZeroVarianceError",
    "CalibrationError",
    "McValidationError",
    "PanelCalibration",
    "empirical_cross_cov",
    "d_statistic",
    "calibrate_univariate",
    "calibrate_pair",
    "calibrate_panel",
    "mc_validate",
    "default_workers",
]

_AMP_FLOOR = 1e-10


class ZeroVarianceError(ValueError):
    pass


class CalibrationError(RuntimeError):
    pass


class McValidationError(RuntimeError):
    """Too many replicas failed; ``failures`` holds the (replica, exception
    type name, message) record of each."""

    def __init__(self, message: str, failures: tuple = ()):
        super().__init__(message)
        self.failures = tuple(failures)


@dataclass(frozen=True)
class LagGrid:
    """Geometric lag grid floor(sqrt(2^k)), k = 0..Q, duplicates removed."""

    Q: int
    taus: tuple[int, ...]

    def __post_init__(self):
        if not self.taus:
            raise ValueError("lag grid must not be empty")
        if any(t <= 0 for t in self.taus):
            raise ValueError("lags must be positive integers")
        if any(b <= a for a, b in zip(self.taus, self.taus[1:])):
            raise ValueError("lags must be strictly increasing")

    @classmethod
    def default(cls, q: int = 19) -> "LagGrid":
        taus = sorted({int(math.isqrt(2**k)) for k in range(q + 1)})
        return cls(Q=q, taus=tuple(taus))

    def restrict(self, max_lag_exclusive: int) -> "LagGrid":
        kept = tuple(t for t in self.taus if t < max_lag_exclusive)
        if not kept:
            raise CalibrationError(
                f"no grid lags below {max_lag_exclusive}; series too short")
        return LagGrid(Q=self.Q, taus=kept)


@dataclass(frozen=True)
class GmmResult:
    params: dict
    objective: float
    iterations: int
    converged: bool
    weight: np.ndarray
    residuals: CovCurve
    notes: tuple = ()

    def to_dict(self) -> dict:
        return {
            "params": self.params,
            "objective": self.objective,
            "iterations": self.iterations,
            "converged": self.converged,
            "notes": list(self.notes),
        }


def empirical_cross_cov(
    x: np.ndarray,
    y: np.ndarray,
    grid: LagGrid,
    include_zero: bool = False,
    mask_x: np.ndarray | None = None,
    mask_y: np.ndarray | None = None,
) -> CovCurve:
    """Chat(k) = (1/N) sum_{l=1}^{N-k} (x_l - m_x)(y_{l+k} - m_y).

    Deliberately 1/N (not 1/(N-k)) so longer lags are shrunk toward zero.
    Directional: the (y, x) curve is a different object for k > 0.  Masked
    entries (mask False) are dropped from the means and from the products.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("series must be 1-d arrays of equal length")
    n = x.size
    lags = ((0,) if include_zero else ()) + grid.taus
    if lags[-1] >= n:
        raise ValueError(f"max lag {lags[-1]} must be below series length {n}")
    valid_x = np.ones(n, bool) if mask_x is None else np.asarray(mask_x, bool)
    valid_y = np.ones(n, bool) if mask_y is None else np.asarray(mask_y, bool)
    for name, valid in (("mask_x", valid_x), ("mask_y", valid_y)):
        if valid.shape != x.shape:
            raise ValueError(f"{name} shape {valid.shape} does not match the "
                             f"series shape {x.shape}")
    if not valid_x.any() or not valid_y.any():
        raise ValueError("mask excludes every observation")
    xc = np.where(valid_x, x - x[valid_x].mean(), 0.0)
    yc = np.where(valid_y, y - y[valid_y].mean(), 0.0)
    values = np.empty(len(lags))
    # einsum, not BLAS ddot: see _product_moment_cov
    for pos, k in enumerate(lags):
        values[pos] = float(np.einsum("i,i", xc[: n - k], yc[k:])) / n
    return CovCurve(np.array(lags, dtype=float), values,
                    meta={"estimator": "empirical-cross-cov", "n": n,
                          "lag_units": "delta"})


def d_statistic(curve: CovCurve) -> CovCurve:
    """Dhat(k) = Chat(k) - Chat(0); requires lag 0 in the input curve."""
    if curve.lags[0] != 0.0:
        raise ValueError("d_statistic needs the lag-0 value in the curve")
    meta = dict(curve.meta)
    meta["statistic"] = "d"
    return CovCurve(curve.lags, curve.values - curve.values[0], meta)


def _regularized_inverse(s: np.ndarray) -> tuple[np.ndarray, bool]:
    """V diag(1 / (max(lambda, 0) + eps)) V' over the eigenpairs of sym(s),
    eps = 1e-10 trace / q: inv(s + eps I) on a positive semidefinite ``s``,
    positive definite on any; the identity, flagged, if the trace is not
    positive or the decomposition fails."""
    q = s.shape[0]
    trace = float(np.trace(s))
    if not math.isfinite(trace) or trace <= 0:
        return np.eye(q), True
    try:
        lam, vecs = np.linalg.eigh(0.5 * (s + s.T))
    except np.linalg.LinAlgError:
        return np.eye(q), True
    w = (vecs / (np.maximum(lam, 0.0) + 1e-10 * trace / q)) @ vecs.T
    return 0.5 * (w + w.T), False


# ---------------------------------------------------------------------------
# model curves
# ---------------------------------------------------------------------------

def _curve_map(n: int, taus: Sequence[int], support: int,
               finite_sample_adjust: bool) -> np.ndarray:
    """The q x M matrix A whose product A @ r[:M] is the model side of the
    moment conditions for a symmetric cross-covariance sequence r that
    vanishes from M = ``support`` on: r at the lags, or with
    ``finite_sample_adjust`` the exact expectation of ``empirical_cross_cov``,
    (n-k)/n ([tau=k] + v_tau) - (W_tau(n-k) + W_tau(n) - W_tau(k)) / n^2 at
    (k, tau).  v_tau = (2 - [tau=0]) (n-tau) / n^2 weighs r(tau) in the
    sample-mean variance; W_tau(L) = max(0, min(L, n-tau)) + max(0, L-tau)
    - L [tau=0] counts it in n sum_{l<=L} E[x_l mean(y)]."""
    tau = np.arange(support)
    curve_map = (tau == np.asarray(taus)[:, None]).astype(float)
    if not finite_sample_adjust:
        return curve_map
    zero = tau == 0
    v = np.where(zero, 1.0, 2.0) * (n - tau) / n**2

    def w(length):
        return (np.maximum(0, np.minimum(length, n - tau))
                + np.maximum(0, length - tau) - length * zero)

    for row, k in zip(curve_map, taus):  # row by row: no q x M temporaries
        row[:] = (n - k) / n * (row + v) - (w(n - k) + w(n) - w(k)) / n**2
    return curve_map


def _product_moment_cov(rxu: np.ndarray, ryv: np.ndarray, rxv: np.ndarray,
                        ryu: np.ndarray, n: int,
                        taus: Sequence[int]) -> np.ndarray:
    """Exact Gaussian covariance between two families of product moments,
    cov((1/N) sum_t x_t y_{t+k}, (1/N) sum_s u_s v_{s+l}), given the four
    cross-covariance sequences of the underlying jointly Gaussian series
    (demeaning ignored: it only lowers the variance slightly and these
    matrices act as weights).

    By Isserlis' theorem entry (k, l) is

        (1/N^2) sum_m w_kl(m) [r_xu(|m|) r_yv(|m+l-k|)
                               + r_xv(|m+l|) r_yu(|m-k|)],

    where w_kl(m) = max(0, min(N-k, N-l, N-k+m, N-l-m)) counts the
    (t, s) pairs at offset m = s - t, and r(tau) = 0 for tau >= N.

    * Support truncation: with M one past the last non-zero index of the
      four sequences (the model sequences vanish beyond T), every non-zero
      term has |m| < M, so m runs over [max(1-M, k-N+1), min(M-1, N-l-1)].
    * Slices: each sequence is laid out once as its even, zero-padded
      extension r(|j|), |j| <= M-1+max(taus); the four factors are then
      contiguous slices of it and each entry is one dot product with w.
      It is an ``einsum``, not BLAS: OpenBLAS threads ``ddot`` above
      10 000 entries, and two processes doing that at once on the same
      cores ran each dot about 1000 times slower.
    * Symmetry: the matrix is symmetric in (k, l) for any four sequences,
      since they enter only through r(|.|): m -> -m maps the first term of
      (k, l) onto that of (l, k), and m -> m + l - k the second.  Only the
      upper triangle is computed and mirrored.
    """
    q = len(taus)
    seqs = [np.asarray(r, dtype=float)[:n] for r in (rxu, ryv, rxv, ryu)]
    support = max((int(np.flatnonzero(r)[-1]) + 1 for r in seqs if r.any()),
                  default=0)
    s = np.zeros((q, q))
    if support == 0 or q == 0:
        return s
    # r(|j|) for |j| <= M-1+max(taus), with lag 0 at index `zero`
    zero = support - 1 + max(taus)
    pad = np.zeros(max(taus))
    e_xu, e_yv, e_xv, e_yu = (
        np.concatenate([pad, r[support - 1:0:-1], r[:support], pad])
        for r in seqs)
    for a, k in enumerate(taus):
        for b in range(a, q):
            l = taus[b]
            lo = max(1 - support, k - n + 1)
            hi = min(support - 1, n - l - 1)
            if hi < lo:
                continue
            m = np.arange(lo, hi + 1, dtype=float)
            w = np.minimum(min(n - k, n - l),
                           np.minimum(n - k + m, n - l - m))
            i = zero + lo
            j = zero + hi + 1
            t = (e_xu[i:j] * e_yv[i + l - k:j + l - k]
                 + e_xv[i + l:j + l] * e_yu[i - k:j - k])
            s[a, b] = float(np.einsum("i,i", w, t)) / n**2
    lower = np.tril_indices(q, -1)
    s[lower] = s.T[lower]
    return s


# ---------------------------------------------------------------------------
# profiled search
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _ProfileOutcome:
    h: float
    amp: float
    objective: float
    evals: int
    amp_at_bound: bool
    h_at_bound: bool
    converged: bool


def _profiled_minimize(
    observed: np.ndarray,
    unit_curve: Callable[[float], np.ndarray],
    weight: np.ndarray,
    h_lo: float,
    h_hi: float,
    amp_lo: float,
    amp_hi: float,
    n_scan: int = 24,
) -> _ProfileOutcome:
    """Minimize (obs - a c(h))' W (obs - a c(h)) with the amplitude a solved
    in closed form (clipped to its box) at each roughness h: a coarse scan
    locates the basin, a bounded Brent search refines it."""
    evals = 0

    def amp_and_value(h: float) -> tuple[float, float]:
        c = unit_curve(h)
        wc = weight @ c
        denom = float(c @ wc)
        a = float(observed @ wc) / denom if denom > 0 else 0.0
        a = min(max(a, amp_lo), amp_hi)
        resid = observed - a * c
        return a, float(resid @ weight @ resid)

    hs = np.linspace(h_lo, h_hi, n_scan)
    vals = []
    for h in hs:
        vals.append(amp_and_value(h)[1])
        evals += 1
    best = int(np.argmin(vals))
    lo = hs[max(0, best - 1)]
    hi = hs[min(n_scan - 1, best + 1)]
    res = sopt.minimize_scalar(lambda h: amp_and_value(h)[1],
                               bounds=(lo, hi), method="bounded",
                               options={"xatol": 1e-7})
    evals += int(res.nfev)
    h_star = float(res.x)
    if vals[best] < res.fun:
        h_star = float(hs[best])
    amp, value = amp_and_value(h_star)
    at_bound = amp in (amp_lo, amp_hi)
    return _ProfileOutcome(h=h_star, amp=amp, objective=value, evals=evals,
                           amp_at_bound=at_bound,
                           h_at_bound=min(h_star - h_lo, h_hi - h_star) <= 1e-6,
                           converged=bool(res.success) or vals[best] < res.fun)


def _prepare_series(series: np.ndarray,
                    mask: np.ndarray | None = None) -> np.ndarray:
    s = np.asarray(series, dtype=float)
    if s.ndim != 1:
        raise ValueError("series must be 1-d")
    valid = np.ones(s.size, bool) if mask is None else np.asarray(mask, bool)
    if valid.shape != s.shape:
        raise ValueError("mask must match the series shape")
    if not np.all(np.isfinite(s[valid])):
        raise ValueError("series must be finite where unmasked")
    if valid.sum() < 2 or float(np.var(s[valid])) == 0.0:
        raise ZeroVarianceError("zero-variance series")
    return s


def _cv_adjusted_cross_moments(
    observed: np.ndarray,
    series: tuple[np.ndarray, np.ndarray],
    model_seqs: tuple[np.ndarray, np.ndarray, np.ndarray],
    n: int,
    taus: Sequence[int],
    curve_map: np.ndarray,
    masks: tuple = (None, None),
) -> tuple[np.ndarray, np.ndarray, bool]:
    """Regression-adjust the cross moments by the marginal moment residuals
    (at the fixed marginal parameters, model curves by ``curve_map``).  One
    regularized precision P of the joint [cross; marginal-i; marginal-j]
    moment covariance gives the weight P_cc, the inverse of the conditional
    covariance (so positive definite), and the regression coefficient
    -P_cc^-1 P_cm; also returns whether P fell back to the identity."""
    x, y = series
    mask_i, mask_j = masks
    r_ii, r_jj, r_ij = model_seqs
    grid_obj = LagGrid(Q=len(taus), taus=tuple(taus))
    obs_ii = empirical_cross_cov(x, x, grid_obj, mask_x=mask_i,
                                 mask_y=mask_i).values
    obs_jj = empirical_cross_cov(y, y, grid_obj, mask_x=mask_j,
                                 mask_y=mask_j).values
    support = curve_map.shape[1]
    marg_resid = np.concatenate([obs_ii - curve_map @ r_ii[:support],
                                 obs_jj - curve_map @ r_jj[:support]])

    s_cc = _product_moment_cov(r_ii, r_jj, r_ij, r_ij, n, taus)
    s_c_ii = _product_moment_cov(r_ii, r_ij, r_ii, r_ij, n, taus)
    s_c_jj = _product_moment_cov(r_ij, r_jj, r_ij, r_jj, n, taus)
    s_ii_ii = _product_moment_cov(r_ii, r_ii, r_ii, r_ii, n, taus)
    s_jj_jj = _product_moment_cov(r_jj, r_jj, r_jj, r_jj, n, taus)
    s_ii_jj = _product_moment_cov(r_ij, r_ij, r_ij, r_ij, n, taus)
    q = len(taus)
    precision, fallback = _regularized_inverse(np.block(
        [[s_cc, s_c_ii, s_c_jj], [s_c_ii.T, s_ii_ii, s_ii_jj],
         [s_c_jj.T, s_ii_jj.T, s_jj_jj]]))
    weight = precision[:q, :q]
    return (observed + np.linalg.solve(weight, precision[:q, q:] @ marg_resid),
            weight, fallback)


# ---------------------------------------------------------------------------
# calibration
# ---------------------------------------------------------------------------

def calibrate_univariate(
    logvol: np.ndarray,
    delta: float,
    grid: LagGrid | None = None,
    fix_T: float | None = None,
    t_max: float | None = None,
    finite_sample_adjust: bool = True,
    mask: np.ndarray | None = None,
) -> GmmResult:
    """Fit (H, lambda^2) from one log-volatility series by matching its
    autocovariance curve.  The scale T is fixed by the caller or, when
    ``fix_T`` is None, chosen in [N delta, t_max] (default 16 N delta) by a
    bounded search over T of the first-stage (identity-weight) profiled
    objective; second-stage objectives are not compared across T, since
    their weights depend on it.  The fit then runs at that T exactly as with
    ``fix_T`` given, and ``iterations`` includes the outer evaluations.

    The theoretical guarantees behind the moment matching are proved for
    H < 1/4; the estimator is exposed on the whole (0, 1/2) box.  ``mask``
    marks valid observations (imputed market entries are excluded from the
    empirical moments; the theoretical side assumes the gaps are sparse)."""
    s = _prepare_series(logvol, mask)
    n = s.size
    grid = (grid or LagGrid.default()).restrict(n)

    def unit_curve(t_val: float) -> Callable[[float], np.ndarray]:
        # one map per T: only the roughness varies within a search
        support = block_support(n, delta, t_val)
        curve_map = _curve_map(n, grid.taus, support, finite_sample_adjust)
        return lambda h: curve_map @ block_cov_sequence(
            n, delta, h, h, t_val)[:support]

    def search(observed, weight, unit) -> _ProfileOutcome:
        return _profiled_minimize(observed, unit, weight, 1e-4, 0.4999,
                                  _AMP_FLOOR, math.inf)

    scale_evals = 0
    if fix_T is None:
        t_floor = n * delta
        t_cap = t_max if t_max is not None else 16.0 * t_floor
        if t_cap <= t_floor:
            raise ValueError("t_max must exceed N * delta for a free scale")
        observed = empirical_cross_cov(s, s, grid, mask_x=mask,
                                       mask_y=mask).values
        identity = np.eye(len(grid.taus))
        outer = sopt.minimize_scalar(
            lambda t_val: search(observed, identity,
                                 unit_curve(t_val)).objective,
            bounds=(t_floor, t_cap), method="bounded")
        fix_T, scale_evals = float(outer.x), int(outer.nfev)
    if max(grid.taus) * delta + delta > fix_T:
        # keep only lags whose blocks fit inside the correlation window
        grid = grid.restrict(int(math.floor((fix_T - delta) / delta)))
    observed = empirical_cross_cov(s, s, grid, mask_x=mask, mask_y=mask).values
    unit = unit_curve(fix_T)
    first = search(observed, np.eye(len(grid.taus)), unit)
    r1 = max(first.amp, _AMP_FLOOR) * block_cov_sequence(
        n, delta, first.h, first.h, fix_T)
    weight, fallback = _regularized_inverse(
        _product_moment_cov(r1, r1, r1, r1, n, grid.taus))
    second = search(observed, weight, unit)
    h, lam2 = second.h, second.amp
    notes = ["identity-weight-fallback"] if fallback else []
    if second.amp_at_bound:
        notes.append("amplitude-at-bound")
    if second.h_at_bound:
        notes.append("roughness-at-bound")
    if not 0.0 < h < 0.5:
        raise CalibrationError(f"fitted H={h!r} outside (0, 0.5)")
    if not lam2 > 0.0:
        raise CalibrationError(f"fitted lambda2={lam2!r} not positive")
    residuals = CovCurve(grid.taus, observed - lam2 * unit(h),
                         meta={"statistic": "gmm-residual", "n": n,
                               "lag_units": "delta"})
    return GmmResult(params={"H": h, "lambda2": lam2, "T": fix_T},
                     objective=float(second.objective),
                     iterations=int(first.evals + second.evals + scale_evals),
                     converged=bool(first.converged and second.converged),
                     weight=weight, residuals=residuals, notes=tuple(notes))


def calibrate_pair(
    logvol_i: np.ndarray,
    logvol_j: np.ndarray,
    lambda_i2: float,
    lambda_j2: float,
    H_i: float,
    H_j: float,
    delta: float,
    grid: LagGrid | None = None,
    T: float | None = None,
    finite_sample_adjust: bool = True,
    mask_i: np.ndarray | None = None,
    mask_j: np.ndarray | None = None,
) -> GmmResult:
    """Fit (g, H_ij) for one pair with the marginal parameters held fixed.

    The constraints |g| <= 1 and H_ij >= (H_i + H_j)/2 hold at every iterate
    (amplitude box / bounded roughness bracket, equivalent to the tanh and
    scaled-logistic reparametrization of the same objective); the derived
    amplitude xi_ij = g sqrt(lambda_i^2 lambda_j^2) is returned alongside.
    """
    x = _prepare_series(logvol_i, mask_i)
    y = _prepare_series(logvol_j, mask_j)
    if x.size != y.size:
        raise ValueError("series must be aligned")
    n = x.size
    t_val = T if T is not None else n * delta
    grid = (grid or LagGrid.default()).restrict(n)
    if max(grid.taus) * delta + delta > t_val:
        grid = grid.restrict(int(math.floor((t_val - delta) / delta)))
    observed = empirical_cross_cov(x, y, grid, mask_x=mask_i,
                                   mask_y=mask_j).values
    lam = math.sqrt(lambda_i2 * lambda_j2)
    hbar = 0.5 * (H_i + H_j)

    def sequence(hij: float, h_bar: float, scale: float) -> np.ndarray:
        return scale * block_cov_sequence(n, delta, hij, h_bar, t_val)

    support = block_support(n, delta, t_val)
    curve_map = _curve_map(n, grid.taus, support, finite_sample_adjust)
    unit = lambda hij: curve_map @ sequence(hij, hbar, 1.0)[:support]
    h_lo, h_hi = hbar + 1e-6, 0.4999
    first = _profiled_minimize(observed, unit, np.eye(len(grid.taus)),
                               h_lo, h_hi, -lam, lam)
    r_ii = sequence(H_i, H_i, lambda_i2)
    r_jj = sequence(H_j, H_j, lambda_j2)
    r_ij = sequence(first.h, hbar, first.amp)
    # stack the (fixed) marginal moment conditions as control variates:
    # their errors are strongly correlated with the cross moments, so the
    # regression adjustment sharpens the fit without moving its expectation
    target, weight, fallback = _cv_adjusted_cross_moments(
        observed, (x, y), (r_ii, r_jj, r_ij), n, grid.taus, curve_map,
        (mask_i, mask_j))
    second = _profiled_minimize(target, unit, weight,
                                h_lo, h_hi, -lam, lam)
    hij = second.h
    g = min(max(second.amp / lam, -1.0), 1.0)
    notes = ["identity-weight-fallback"] if fallback else []
    if second.amp_at_bound:
        notes.append("correlation-at-bound")
    if second.h_at_bound:
        notes.append("roughness-at-bound")
    if not abs(g) <= 1.0:
        raise CalibrationError(f"fitted g={g!r} outside [-1, 1]")
    if not hbar <= hij < 0.5:
        raise CalibrationError(
            f"fitted H_ij={hij!r} outside [{hbar!r}, 0.5)")
    residuals = CovCurve(grid.taus, observed - lam * g * unit(hij),
                         meta={"statistic": "gmm-residual", "n": n,
                               "lag_units": "delta"})
    return GmmResult(
        params={"g": g, "H_ij": hij, "xi_ij": g * lam, "T": t_val},
        objective=float(second.objective),
        iterations=int(first.evals + second.evals),
        converged=bool(first.converged and second.converged),
        weight=weight, residuals=residuals, notes=tuple(notes))


@dataclass(frozen=True)
class PanelCalibration:
    h_mat: np.ndarray
    xi_mat: np.ndarray
    g_mat: np.ndarray
    marginals: dict
    pairs: dict
    failures: dict
    xi_eigenvalues: np.ndarray | None
    validation: ValidationReport | None
    T: float

    @property
    def d(self) -> int:
        return self.h_mat.shape[0]

    @property
    def complete(self) -> bool:
        return not self.failures

    @property
    def converged_pair_fraction(self) -> float:
        if not self.pairs:
            return 1.0
        done = sum(1 for r in self.pairs.values() if r.converged)
        return done / len(self.pairs)

    def to_params(self) -> ModelParams:
        if not self.complete:
            raise CalibrationError(
                f"panel calibration incomplete: {sorted(self.failures)}")
        return ModelParams(T=self.T, H=self.h_mat, xi=self.xi_mat)


def calibrate_panel(
    panel: FieldPanel,
    grid: LagGrid | None = None,
    T: float | None = None,
    workers: int | None = None,
    mask: np.ndarray | None = None,
) -> PanelCalibration:
    """d marginal fits followed by d(d-1)/2 pair fits on an aligned panel of
    log-volatility proxies.  A failed marginal aborts its dependent pairs
    (recorded per pair); positive semidefiniteness of the assembled amplitude
    matrix is reported via its eigenvalues, not enforced.  ``mask`` (d x n,
    True = valid) excludes imputed entries from the empirical moments."""
    d = panel.d
    delta = panel.delta
    t_val = T if T is not None else panel.n * delta
    n_workers = workers if workers is not None else default_workers()
    if mask is not None:
        mask = np.asarray(mask, bool)
        if mask.shape != panel.data.shape:
            raise ValueError("mask shape must match the panel")
    row_mask = (lambda i: None) if mask is None else (lambda i: mask[i])
    marginals: dict = {}
    failures: dict = {}
    for i in range(d):
        try:
            marginals[i] = calibrate_univariate(
                panel.data[i], delta, grid=grid, fix_T=t_val, mask=row_mask(i))
        except (ZeroVarianceError, ValueError, CalibrationError) as exc:
            failures[f"marginal-{i}"] = str(exc)

    todo = [(i, j) for i in range(d) for j in range(i + 1, d)]
    pairs: dict = {}

    def fit_pair(ij):
        i, j = ij
        if i not in marginals or j not in marginals:
            raise CalibrationError("marginal fit missing")
        mi, mj = marginals[i].params, marginals[j].params
        return calibrate_pair(
            panel.data[i], panel.data[j],
            lambda_i2=mi["lambda2"], lambda_j2=mj["lambda2"],
            H_i=mi["H"], H_j=mj["H"], delta=delta, grid=grid, T=t_val,
            mask_i=row_mask(i), mask_j=row_mask(j))

    if todo:
        with ThreadPoolExecutor(max_workers=max(1, n_workers)) as pool:
            futures = {ij: pool.submit(fit_pair, ij) for ij in todo}
        for ij in todo:  # deterministic merge order
            try:
                pairs[ij] = futures[ij].result()
            except Exception as exc:
                failures[f"pair-{ij[0]}-{ij[1]}"] = str(exc)

    h_mat = np.full((d, d), np.nan)
    xi_mat = np.full((d, d), np.nan)
    g_mat = np.full((d, d), np.nan)
    for i, res in marginals.items():
        h_mat[i, i] = res.params["H"]
        xi_mat[i, i] = res.params["lambda2"]
        g_mat[i, i] = 1.0
    for (i, j), res in pairs.items():
        h_mat[i, j] = h_mat[j, i] = res.params["H_ij"]
        xi_mat[i, j] = xi_mat[j, i] = res.params["xi_ij"]
        g_mat[i, j] = g_mat[j, i] = res.params["g"]

    eigs = None
    report = None
    if not failures:
        eigs = np.linalg.eigvalsh(0.5 * (xi_mat + xi_mat.T))
        report = validate(ModelParams(T=t_val, H=h_mat, xi=xi_mat))
    return PanelCalibration(h_mat=h_mat, xi_mat=xi_mat, g_mat=g_mat,
                            marginals=marginals, pairs=pairs,
                            failures=failures, xi_eigenvalues=eigs,
                            validation=report, T=t_val)


# ---------------------------------------------------------------------------
# Monte-Carlo validation harness
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class McConfig:
    """``n_list`` holds numbers of calibration observations: each replica
    simulates a field of length n * agg at step ``delta`` and aggregates by
    ``agg``, so the calibrated series has exactly n points and T keeps the
    value from ``params`` across the sweep."""

    params: ModelParams
    n_list: tuple[int, ...]
    replicas: int
    seed: int
    agg: int = 16
    proxy: str = "gaussian"      # "gaussian" | "measure"
    delta: float = 1.0
    grid: LagGrid | None = None
    workers: int | None = None
    max_failure_fraction: float = 0.2

    def __post_init__(self):
        if self.proxy not in ("gaussian", "measure"):
            raise ValueError("proxy mode must be 'gaussian' or 'measure'")
        if self.replicas < 1:
            raise ValueError("replicas must be >= 1")
        if self.params.d < 2:
            raise ValueError("the validation harness needs d >= 2")


@dataclass(frozen=True)
class McRun:
    n: int
    seed: int
    samples: dict
    failures: tuple  # (replica, exception type name, message) per failure

    @property
    def n_failures(self) -> int:
        return len(self.failures)

    def means(self) -> dict:
        return {k: float(np.mean(v)) for k, v in self.samples.items()}

    def stds(self) -> dict:
        out = {}
        for k, v in self.samples.items():
            out[k] = float(np.std(v, ddof=1)) if len(v) > 1 else float("nan")
        return out


@dataclass(frozen=True)
class McReport:
    runs: tuple
    slopes: dict | None
    replicas: int
    seed: int
    notes: tuple = ()

    def to_dict(self) -> dict:
        return {
            "replicas": self.replicas,
            "seed": self.seed,
            "notes": list(self.notes),
            "slopes": self.slopes,
            "runs": [
                {"n": r.n, "seed": r.seed, "n_failures": r.n_failures,
                 "failures": [{"replica": rep, "type": kind, "message": msg}
                              for rep, kind, msg in r.failures],
                 "means": r.means(), "stds": r.stds()}
                for r in self.runs
            ],
        }

    def replica_rows(self):
        """(n, replica, parameter, value) rows for the per-replica CSV."""
        for run in self.runs:
            length = max((len(v) for v in run.samples.values()), default=0)
            for rep in range(length):
                for name, vals in sorted(run.samples.items()):
                    if rep < len(vals):
                        yield run.n, rep, name, float(vals[rep])


_PARAM_KEYS = ("H_0", "lambda2_0", "H_1", "lambda2_1", "H_01", "g_01", "xi_01")


def _one_replica(config: McConfig, factor: SpectralFactor, run_seed: int,
                 replica: int) -> dict:
    panels, _ = simulate_field(config.params, factor.n, config.delta,
                               seed=run_seed, first_path=replica, factor=factor)
    panel = panels[0]
    if config.proxy == "gaussian":
        agg_panel = field_to_gaussian_proxy(panel, config.params, config.agg)
    else:
        agg_panel = field_to_measure(panel, config.params, config.agg)
    t_true = config.params.T
    res0 = calibrate_univariate(agg_panel.data[0], agg_panel.delta,
                                grid=config.grid, fix_T=t_true)
    res1 = calibrate_univariate(agg_panel.data[1], agg_panel.delta,
                                grid=config.grid, fix_T=t_true)
    pair = calibrate_pair(
        agg_panel.data[0], agg_panel.data[1],
        lambda_i2=res0.params["lambda2"], lambda_j2=res1.params["lambda2"],
        H_i=res0.params["H"], H_j=res1.params["H"],
        delta=agg_panel.delta, grid=config.grid, T=t_true)
    return {
        "H_0": res0.params["H"], "lambda2_0": res0.params["lambda2"],
        "H_1": res1.params["H"], "lambda2_1": res1.params["lambda2"],
        "H_01": pair.params["H_ij"], "g_01": pair.params["g"],
        "xi_01": pair.params["xi_ij"],
    }


def mc_validate(config: McConfig) -> McReport:
    """simulate -> calibrate -> collect, for every series length in the
    sweep; with three or more lengths the log-std versus log-length slope is
    fitted per parameter (theory: about -1/2)."""
    runs = []
    notes: list[str] = []
    workers = config.workers if config.workers is not None else default_workers()
    for n_idx, n in enumerate(config.n_list):
        run_seed = config.seed + 1009 * n_idx
        factor = spectral_factor(config.params, n * config.agg, config.delta)
        estimates: list = [None] * config.replicas
        failures = []
        with ThreadPoolExecutor(max_workers=max(1, workers)) as pool:
            futures = [
                pool.submit(_one_replica, config, factor, run_seed, rep)
                for rep in range(config.replicas)
            ]
        for rep, fut in enumerate(futures):
            try:
                estimates[rep] = fut.result()
            except (CalibrationError, SimulationError, ValueError) as exc:
                # library errors fail the replica; any other is a bug
                failures.append((rep, type(exc).__name__, str(exc)))
        # hold one factor at a time; a failed replica's traceback, kept by
        # its future, holds the factor too
        del factor, futures
        kept = [e for e in estimates if e is not None]
        if len(failures) > config.max_failure_fraction * config.replicas:
            kinds = Counter(kind for _, kind, _ in failures)
            counts = ", ".join(f"{count} {kind}" for kind, count in kinds.items())
            message = (f"{len(failures)}/{config.replicas} replicas failed at "
                       f"n={n} ({counts})")
            if failures:
                message += "; replica {}, {}: {}".format(*failures[0])
            raise McValidationError(message, failures)
        samples = {key: np.array([e[key] for e in kept]) for key in _PARAM_KEYS}
        if config.replicas == 1:
            notes.append(f"n={n}: single replica, standard deviations undefined")
        runs.append(McRun(n=n, seed=run_seed, samples=samples,
                          failures=tuple(failures)))

    slopes = None
    if len(config.n_list) >= 3 and config.replicas > 1:
        slopes = {}
        log_n = np.log([run.n for run in runs])
        for key in _PARAM_KEYS:
            stds = np.array([run.stds()[key] for run in runs])
            if np.all(np.isfinite(stds)) and np.all(stds > 0):
                slopes[key] = float(np.polyfit(log_n, np.log(stds), 1)[0])
            else:
                slopes[key] = float("nan")
    return McReport(runs=tuple(runs), slopes=slopes, replicas=config.replicas,
                    seed=config.seed, notes=tuple(notes))
