"""Moment estimators and two-stage GMM calibration.

The workflow mirrors the simulation study: each marginal is fitted on its
own (roughness H, amplitude lambda^2, at the given scale T), then every
pair is fitted for its correlation g and joint roughness H_ij with the
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
wandering.  This is the one optimiser path, at one given T: when T >= N
delta the moment curves fix only lambda^2 T^(-2H), so a search over T would
have nothing to find.  Every model curve is a closed form in the variogram
of the block covariance (``kernels.expected_cross_cov``) at the q lags and
at 2q + 1 block lengths, O(q) per roughness; the coarse scan of a search
evaluates all its roughness values in one call, as rows.  Only the weights,
built twice per fit, evaluate whole sequences (``kernels.block_cov_sequence``).

The second-stage weight inverts the exact Gaussian covariance of the moment
vector at the first-stage estimate.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
import scipy.optimize as sopt

from .kernels import block_cov_sequence, block_support, expected_cross_cov
from .params import ModelParams, ValidationReport, validate
from .simulate import (
    FieldPanel,
    SimulationError,
    SpectralFactor,
    fan_out,
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
    "calibrate_univariate",
    "calibrate_pair",
    "calibrate_panel",
    "mc_validate",
]

_AMP_FLOOR = 1e-10
_N_SCAN = 24  # roughness points of the coarse scan before Brent


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
    """Strictly increasing positive integer lags, in units of the series
    step; the default is the geometric grid floor(sqrt(2^k)), k = 0..q."""

    taus: tuple[int, ...]

    def __post_init__(self):
        bad = [t for t in self.taus if not (float(t).is_integer() and t > 0)]
        if bad:
            raise ValueError(f"lags must be positive integers, got {bad[0]}")
        object.__setattr__(self, "taus", tuple(int(t) for t in self.taus))
        if not self.taus:
            raise ValueError("lag grid must not be empty")
        if any(b <= a for a, b in zip(self.taus, self.taus[1:])):
            raise ValueError("lags must be strictly increasing")

    @classmethod
    def default(cls, q: int = 19) -> "LagGrid":
        if q < 0:
            raise ValueError(f"grid q must be at least 0, got {q}")
        return cls(tuple(sorted({math.isqrt(2**k) for k in range(q + 1)})))


@dataclass(frozen=True)
class GmmResult:
    """A fit and its window: ``n`` and ``delta`` are the length and step of
    the fitted series, T is in ``params``, ``grid`` holds its lags, and
    ``mask`` (None: all) marks the observations used; ``residuals`` (the
    observed moments minus the fitted curve) align with ``grid.taus``."""

    params: dict
    objective: float
    iterations: int
    converged: bool
    weight: np.ndarray
    residuals: np.ndarray
    n: int
    delta: float
    grid: LagGrid
    notes: tuple = ()
    mask: np.ndarray | None = None

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
    mask_x: np.ndarray | None = None,
    mask_y: np.ndarray | None = None,
) -> np.ndarray:
    """Chat(k) = (1/N) sum_{l=1}^{N-k} (x_l - m_x)(y_{l+k} - m_y) at the
    lags k of ``grid``: a (q,) array aligned with ``grid.taus``.

    Deliberately 1/N (not 1/(N-k)) so longer lags are shrunk toward zero.
    Directional: the (y, x) curve is a different object for k > 0.  Masked
    entries (mask False) are dropped from the means and from the products;
    an unmasked entry that is not finite is a ``ValueError``.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("series must be 1-d arrays of equal length")
    n = x.size
    lags = grid.taus
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
    if not (np.isfinite(x[valid_x]).all() and np.isfinite(y[valid_y]).all()):
        raise ValueError("series must be finite where unmasked")
    xc = np.where(valid_x, x - x[valid_x].mean(), 0.0)
    yc = np.where(valid_y, y - y[valid_y].mean(), 0.0)
    values = np.empty(len(lags))
    # einsum, not BLAS ddot: OpenBLAS threads ddot above 10 000 entries,
    # and two processes doing that at once on the same cores ran each dot
    # about 1000 times slower
    for pos, k in enumerate(lags):
        values[pos] = float(np.einsum("i,i", xc[: n - k], yc[k:])) / n
    return values


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
# moment covariances
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _SeqTransforms:
    """A covariance sequence on the FFT grid of one ``_seq_transforms`` call:
    ``r`` is r(j), zero from ``support`` (one past its last non-zero entry)
    to the grid length, and the real FFTs are those of the even extension
    r(|j|) (``full``), of j r(j) (``weighted``) and of r(j) for j > 0
    (``positive``)."""

    r: np.ndarray
    support: int
    full: np.ndarray
    weighted: np.ndarray
    positive: np.ndarray


def _seq_transforms(seqs: Sequence[np.ndarray], n: int,
                    taus: Sequence[int]) -> tuple[_SeqTransforms, ...]:
    """The sequences (truncated to n) on one grid for ``_product_moment_cov``.
    With M the largest support, an FFT length of at least 2M - 1 +
    2 max(taus) keeps every correlation at shifts up to 2 max(taus) free of
    wrap-around."""
    import scipy.fft  # already loaded by .simulate

    seqs = [np.asarray(r, dtype=float)[:n] for r in seqs]
    supports = [int(np.flatnonzero(r)[-1]) + 1 if r.any() else 0
                for r in seqs]
    length = scipy.fft.next_fast_len(
        max(2 * max(supports) - 1, 1) + 2 * max(taus, default=0), real=True)
    out = []
    for r, support in zip(seqs, supports):
        one_sided = np.zeros(length)
        one_sided[:support] = r[:support]
        even = one_sided.copy()
        even[length - support + 1:] = one_sided[1:support][::-1]
        positive = one_sided.copy()
        positive[0] = 0.0
        out.append(_SeqTransforms(
            r=one_sided, support=support, full=scipy.fft.rfft(even),
            weighted=scipy.fft.rfft(np.arange(length) * one_sided),
            positive=scipy.fft.rfft(positive)))
    return tuple(out)


def _ragged(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(entry, i) for i = 1..counts[entry] over every entry, flattened."""
    counts = np.maximum(counts, 0)
    entry = np.repeat(np.arange(counts.size), counts)
    return entry, np.arange(entry.size) - (np.cumsum(counts) - counts)[entry] + 1


def _product_moment_cov(rxu: _SeqTransforms, ryv: _SeqTransforms,
                        rxv: _SeqTransforms, ryu: _SeqTransforms, n: int,
                        taus: Sequence[int]) -> np.ndarray:
    """Exact Gaussian covariance between two families of product moments,
    cov((1/N) sum_t x_t y_{t+k}, (1/N) sum_s u_s v_{s+l}), given the four
    cross-covariance sequences of the underlying jointly Gaussian series
    from one ``_seq_transforms`` call (demeaning ignored: it only lowers the
    variance slightly and these matrices act as weights).

    By Isserlis' theorem entry (k, l) is

        (1/N^2) sum_m w_kl(m) [r_xu(|m|) r_yv(|m+l-k|)
                               + r_xv(|m+l|) r_yu(|m-k|)],

    where w_kl(m) = max(0, min(N-k, N-l, N-k+m, N-l-m)) counts the
    (t, s) pairs at offset m = s - t, and r(tau) = 0 for tau >= N.  The
    matrix is symmetric in (k, l) for any four sequences, since they enter
    only through r(|.|): m -> -m maps the first term of (k, l) onto that of
    (l, k), and m -> m + l - k the second.  Only l >= k is computed.

    * FFT form.  For l >= k, with s = l - k and sigma = k + l, the weight
      is w(m) = N - l - max(0, m) - max(0, -s - m) where that is positive.
      With a, b, c, d = r_xu, r_yv, r_xv, r_yu, C_uv(t) = sum_j u(|j|)
      v(|j+t|) and D_uv(t) = sum_{j>0} j u(j) v(j+t), the entry times N^2 is

          (N-l) [C_ab(s) + C_dc(sigma)] - D_ab(s) - D_ba(s)
          - D_dc(sigma) - D_cd(sigma) - k [E_dc(sigma) + E_cd(sigma)]
          - sum_{0<i<k} (k-i) [d(i) c(sigma-i) + c(i) d(sigma-i)]
          + sum_{0<i<M-N+k} i [a(N-l+i) b(N-k+i) + a(N-k+i) b(N-l+i)],

      with E_uv(t) = sum_{j>=0} u(j) v(j+t).  The correlations take 5
      inverse real FFTs of products of the inputs' transforms (C_ab, C_dc,
      D_ab + D_ba, D_dc + D_cd and E_dc + E_cd); the two direct sums have
      fewer than k terms each, and the last one (the clipped ends of the
      first term) is empty unless the support M exceeds N - k.
    * Near-N fallback.  Where N - l < M/16 the weight counts a few pairs
      while the correlations are of size M sum r^2, so the FFT pieces
      cancel (to 2e-12 of the largest entry on random sequences at
      l = N - 1).  Those entries are the direct dot product of w with the
      summand over m in [max(1-M, k-N+1), min(M-1, N-l-1)], O(M) each.  On
      the default grid at N = 2^14, N - l >= 15 660, so every entry takes
      the FFT form.
    * Rounding fallback.  The FFT pieces of an entry are at most of size
      (N - l + 2M + k)(|a| |b| + |c| |d|) (2-norms of the one-sided
      sequences), and round to a few ulps of that.  Where this bound
      exceeds 64 times the block's largest |entry| the pieces may cancel
      to the size of their rounding (as for a(0)^2 at l = N - 1 with
      M = 2, whose pieces are of size a(1)^2), so the entry is the direct
      sum too.  On the default shapes (N = 2^14 at T = N delta and at
      T = 1024 delta) the bound is at most 1.9 times that entry, and no
      entry switches.
    * Cost: O((M + max(taus)) log(M + max(taus))) for the correlations
      plus O(q^2 max(taus)) for the direct sums, against the O(q^2 M) of a
      dot product per entry.
    """
    import scipy.fft  # already loaded by .simulate

    q = len(taus)
    s = np.zeros((q, q))
    a, b, c, d = rxu, ryv, rxv, ryu
    support = max(a.support, b.support, c.support, d.support)
    if support == 0 or q == 0:
        return s
    length = a.r.size

    def corr(x, y, *spectra):
        # the correlations sum_j u(j) v(j+t) of x's and y's sequences whose
        # spectra conj(U) V are given: zero from t = M_x + M_y - 1 on, which
        # keeps a block that vanishes exactly free of rounding
        out = scipy.fft.irfft(sum(spectra), n=length)
        out[max(x.support + y.support - 1, 0):] = 0.0
        return out

    row, col = np.triu_indices(q)
    tau = np.asarray(taus)
    k, l = tau[row], tau[col]
    shift, span = l - k, k + l
    val = ((n - l) * (corr(a, b, np.conj(a.full) * b.full)[shift]
                      + corr(c, d, np.conj(d.full) * c.full)[span])
           - corr(a, b, np.conj(a.weighted) * b.full,
                  np.conj(b.weighted) * a.full)[shift]
           - corr(c, d, np.conj(d.weighted) * c.full,
                  np.conj(c.weighted) * d.full)[span]
           - k * (corr(c, d, np.conj(d.positive) * c.full,
                       np.conj(c.positive) * d.full)[span]
                  + d.r[0] * c.r[span] + c.r[0] * d.r[span]))
    entry, i = _ragged(k - 1)
    rest = span[entry] - i
    val -= np.bincount(entry, (k[entry] - i) * (d.r[i] * c.r[rest]
                                                + c.r[i] * d.r[rest]),
                       minlength=val.size)
    entry, i = _ragged(support - n + k - 1)
    near_l, near_k = (n - l)[entry] + i, (n - k)[entry] + i
    val += np.bincount(entry, i * (a.r[near_l] * b.r[near_k]
                                   + a.r[near_k] * b.r[near_l]),
                       minlength=val.size)
    norms = [float(np.linalg.norm(x.r)) for x in (a, b, c, d)]
    pieces = (n - l + 2 * support + k) * (norms[0] * norms[1]
                                          + norms[2] * norms[3])
    direct = (n - l < support / 16) | (pieces > 64 * np.abs(val).max())
    for e in np.flatnonzero(direct):
        ke, le = int(k[e]), int(l[e])
        m = np.arange(max(1 - support, ke - n + 1),
                      min(support - 1, n - le - 1) + 1)
        w = np.minimum(n - le, np.minimum(n - ke + m, n - le - m))
        t = (a.r[np.abs(m)] * b.r[np.abs(m + le - ke)]
             + c.r[np.abs(m + le)] * d.r[np.abs(m - ke)])
        val[e] = float(np.einsum("i,i", w, t))
    s[row, col] = s[col, row] = val / n**2
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
    unit_curve: Callable[[float | np.ndarray], np.ndarray],
    weight: np.ndarray,
    h_lo: float,
    h_hi: float,
    amp_lo: float,
    amp_hi: float,
) -> _ProfileOutcome:
    """Minimize (obs - a c(h))' W (obs - a c(h)) with the amplitude a solved
    in closed form (clipped to its box) at each roughness h: a coarse scan
    locates the basin, a bounded Brent search refines it.  ``unit_curve``
    takes one roughness, or an array of them and returns one curve per
    row: the scan is one call, and each scan value is computed from its
    row as from a one-point curve."""

    def amp_and_value(c: np.ndarray) -> tuple[float, float]:
        wc = weight @ c
        denom = float(c @ wc)
        a = float(observed @ wc) / denom if denom > 0 else 0.0
        a = min(max(a, amp_lo), amp_hi)
        resid = observed - a * c
        return a, float(resid @ weight @ resid)

    hs = np.linspace(h_lo, h_hi, _N_SCAN)
    vals = [amp_and_value(c)[1] for c in unit_curve(hs)]
    best = int(np.argmin(vals))
    lo = hs[max(0, best - 1)]
    hi = hs[min(_N_SCAN - 1, best + 1)]
    res = sopt.minimize_scalar(lambda h: amp_and_value(unit_curve(h))[1],
                               bounds=(lo, hi), method="bounded",
                               options={"xatol": 1e-7})
    h_star = float(res.x)
    if vals[best] < res.fun:
        h_star = float(hs[best])
    amp, value = amp_and_value(unit_curve(h_star))
    at_bound = amp in (amp_lo, amp_hi)
    return _ProfileOutcome(h=h_star, amp=amp, objective=value,
                           evals=_N_SCAN + int(res.nfev),
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
    if valid.sum() < 2:
        raise ZeroVarianceError(f"{valid.sum()} of {s.size} observations "
                                "unmasked, fewer than 2")
    if float(np.var(s[valid])) == 0.0:
        raise ZeroVarianceError("zero-variance series")
    return s


def _joint_moment_cov(model_seqs: tuple[np.ndarray, np.ndarray, np.ndarray],
                      n: int, taus: Sequence[int]) -> np.ndarray:
    """The 3q x 3q covariance of the [cross; marginal-i; marginal-j] moments
    from the model sequences (r_ii, r_jj, r_ij): six ``_product_moment_cov``
    blocks on the forward transforms of the three sequences."""
    t_ii, t_jj, t_ij = _seq_transforms(model_seqs, n, taus)
    s_cc = _product_moment_cov(t_ii, t_jj, t_ij, t_ij, n, taus)
    s_c_ii = _product_moment_cov(t_ii, t_ij, t_ii, t_ij, n, taus)
    s_c_jj = _product_moment_cov(t_ij, t_jj, t_ij, t_jj, n, taus)
    s_ii_ii = _product_moment_cov(t_ii, t_ii, t_ii, t_ii, n, taus)
    s_jj_jj = _product_moment_cov(t_jj, t_jj, t_jj, t_jj, n, taus)
    s_ii_jj = _product_moment_cov(t_ij, t_ij, t_ij, t_ij, n, taus)
    return np.block([[s_cc, s_c_ii, s_c_jj], [s_c_ii.T, s_ii_ii, s_ii_jj],
                     [s_c_jj.T, s_ii_jj.T, s_jj_jj]])


def _cv_adjusted_cross_moments(
    observed: np.ndarray,
    marginal_residuals: np.ndarray,
    model_seqs: tuple[np.ndarray, np.ndarray, np.ndarray],
    n: int,
    taus: Sequence[int],
) -> tuple[np.ndarray, np.ndarray, bool]:
    """Regression-adjust the cross moments by the marginal moment residuals
    (the stacked ``residuals`` of the two marginal fits).  One regularized
    precision P of the joint [cross; marginal-i; marginal-j] moment
    covariance, built from ``model_seqs`` (r_ii, r_jj, r_ij), gives the
    weight P_cc, the inverse of the conditional covariance (so positive
    definite), and the regression coefficient -P_cc^-1 P_cm; also returns
    whether P fell back to the identity."""
    q = len(taus)
    precision, fallback = _regularized_inverse(
        _joint_moment_cov(model_seqs, n, taus))
    weight = precision[:q, :q]
    adjust = np.linalg.solve(weight, precision[:q, q:] @ marginal_residuals)
    return observed + adjust, weight, fallback


# ---------------------------------------------------------------------------
# calibration
# ---------------------------------------------------------------------------

def _window_grid(grid: LagGrid | None, n: int, delta: float,
                 T: float) -> LagGrid:
    """The lags of ``grid`` (default ``LagGrid.default()``) below the support
    M = ``block_support(n, delta, T)`` of the model sequences: those below n
    whose blocks fit inside the window, (tau + 1) delta <= T.  A fit needs
    two lags, the fewest that fix both the amplitude and the roughness (with
    one, the profiled amplitude matches it at every roughness).  So a T that
    is not finite and at least 3 delta, the window of the lag-2 block, is a
    ``ValueError``, and fewer than two lags below M a ``CalibrationError``."""
    if not (math.isfinite(T) and T >= 3.0 * delta):
        raise ValueError(f"correlation scale T={T!r} must be finite and at "
                         f"least 3 delta = {3.0 * delta!r}")
    support = block_support(n, delta, T)
    kept = tuple(t for t in (grid or LagGrid.default()).taus if t < support)
    if len(kept) < 2:
        why = (f"a lag's block must fit the window, (tau + 1) delta <= "
               f"T = {T!r}" if support < n else "series too short")
        raise CalibrationError(
            f"fewer than 2 grid lags below {support}: {why}")
    return LagGrid(kept)


def _two_stage_fit(observed: np.ndarray, unit: Callable, h_lo: float,
                   h_hi: float, amp_lo: float, amp_hi: float,
                   reweigh: Callable[[_ProfileOutcome], tuple],
                   names: tuple[str, str, str]) -> tuple[float, float, dict]:
    """Two-step GMM: a profiled search under the identity weight, then one
    under the (target, weight, fallback) that ``reweigh(first)`` builds.
    ``names`` are the roughness, the amplitude and its at-bound note; an
    estimate out of its bracket or box (or NaN) is a ``CalibrationError``."""
    box = (h_lo, h_hi, amp_lo, amp_hi)
    first = _profiled_minimize(observed, unit, np.eye(observed.size), *box)
    target, weight, fallback = reweigh(first)
    second = _profiled_minimize(target, unit, weight, *box)
    h_name, amp_name, amp_note = names
    if not (h_lo <= second.h <= h_hi and amp_lo <= second.amp <= amp_hi):
        raise CalibrationError(
            f"fitted {h_name}={second.h!r}, {amp_name}={second.amp!r} "
            f"outside [{h_lo!r}, {h_hi!r}] x [{amp_lo!r}, {amp_hi!r}]")
    notes = ["identity-weight-fallback"] if fallback else []
    if second.amp_at_bound:
        notes.append(amp_note)
    if second.h_at_bound:
        notes.append("roughness-at-bound")
    return second.h, second.amp, dict(
        objective=float(second.objective), weight=weight, notes=tuple(notes),
        iterations=int(first.evals + second.evals),
        converged=bool(first.converged and second.converged))


def calibrate_univariate(
    logvol: np.ndarray,
    delta: float,
    T: float,
    grid: LagGrid | None = None,
    mask: np.ndarray | None = None,
) -> GmmResult:
    """Fit (H, lambda^2) at the correlation scale T from one log-volatility
    series by matching its autocovariance curve.  When T >= N delta every
    lag's block fits the window and the demeaning removes the kernel's
    constant, so the expected curve is lambda^2 T^(-2H) times a shape in H
    alone: the fit identifies H and lambda^2 T^(-2H), and lambda^2 is
    reported at the given T.

    The theoretical guarantees behind the moment matching are proved for
    H < 1/4; the estimator is exposed on the whole (0, 1/2) box.  ``mask``
    marks valid observations (imputed market entries are excluded from the
    empirical moments; the theoretical side assumes the gaps are sparse)."""
    mask = None if mask is None else np.asarray(mask, bool)
    s = _prepare_series(logvol, mask)
    n = s.size
    grid = _window_grid(grid, n, delta, T)
    observed = empirical_cross_cov(s, s, grid, mask_x=mask, mask_y=mask)

    curve = expected_cross_cov(n, grid.taus, delta, T)
    unit = lambda h: curve(h, h)

    def reweigh(first: _ProfileOutcome):
        r1 = first.amp * block_cov_sequence(n, delta, first.h, first.h, T)
        (t1,) = _seq_transforms([r1], n, grid.taus)
        return observed, *_regularized_inverse(
            _product_moment_cov(t1, t1, t1, t1, n, grid.taus))

    h, lam2, fit = _two_stage_fit(observed, unit, 1e-4, 0.4999, _AMP_FLOOR,
                                  math.inf, reweigh,
                                  ("H", "lambda2", "amplitude-at-bound"))
    return GmmResult(params={"H": h, "lambda2": lam2, "T": T},
                     residuals=observed - lam2 * unit(h), n=n, delta=delta,
                     grid=grid, mask=mask, **fit)


def calibrate_pair(
    logvol_i: np.ndarray,
    logvol_j: np.ndarray,
    marginal_i: GmmResult,
    marginal_j: GmmResult,
) -> GmmResult:
    """Fit (g, H_ij) for one pair given the ``calibrate_univariate`` fits of
    its two series: their H and lambda^2 are held fixed, the pair runs on
    their window (n, delta, T and ``grid``) and their masks, and their
    residuals are the control variates of the second stage.  Marginal fits
    on different windows, or a series whose length is not their n, are a
    ``ValueError``.

    The constraints |g| <= 1 and H_ij >= (H_i + H_j)/2 hold at every iterate
    (amplitude box / bounded roughness bracket, equivalent to the tanh and
    scaled-logistic reparametrization of the same objective); the derived
    amplitude xi_ij = g sqrt(lambda_i^2 lambda_j^2) is returned alongside.
    """
    fits = (marginal_i, marginal_j)
    window_i, window_j = ((m.n, m.delta, m.params["T"], list(m.grid.taus))
                          for m in fits)
    if window_i != window_j:
        raise ValueError("marginal fits disagree: n={}, delta={!r}, T={!r} "
                         "on lags {} against n={}, delta={!r}, T={!r} on "
                         "lags {}".format(*window_i, *window_j))
    n, delta, T, _ = window_i
    grid = marginal_i.grid
    x = _prepare_series(logvol_i, marginal_i.mask)
    y = _prepare_series(logvol_j, marginal_j.mask)
    if not x.size == y.size == n:
        raise ValueError(f"series of lengths {x.size} and {y.size} are not "
                         f"aligned with the marginal fits' n={n}")
    (H_i, lambda_i2), (H_j, lambda_j2) = (
        (m.params["H"], m.params["lambda2"]) for m in fits)
    hbar = 0.5 * (H_i + H_j)
    h_lo, h_hi = hbar + 1e-6, 0.4999
    if not h_lo < h_hi:
        raise CalibrationError(
            f"no H_ij to search: h_bar={hbar!r} leaves the bracket "
            f"(h_bar + 1e-6, {h_hi!r}) empty")
    observed = empirical_cross_cov(x, y, grid, mask_x=marginal_i.mask,
                                   mask_y=marginal_j.mask)
    lam = math.sqrt(lambda_i2 * lambda_j2)
    curve = expected_cross_cov(n, grid.taus, delta, T)
    unit = lambda hij: curve(hij, hbar)

    def reweigh(first: _ProfileOutcome):
        r_ii = lambda_i2 * block_cov_sequence(n, delta, H_i, H_i, T)
        r_jj = lambda_j2 * block_cov_sequence(n, delta, H_j, H_j, T)
        r_ij = first.amp * block_cov_sequence(n, delta, first.h, hbar, T)
        # stack the (fixed) marginal moment conditions as control variates:
        # their errors are strongly correlated with the cross moments, so the
        # regression adjustment sharpens the fit without moving its expectation
        return _cv_adjusted_cross_moments(
            observed, np.concatenate([m.residuals for m in fits]),
            (r_ii, r_jj, r_ij), n, grid.taus)

    hij, xi, fit = _two_stage_fit(observed, unit, h_lo, h_hi, -lam, lam,
                                  reweigh,
                                  ("H_ij", "xi_ij", "correlation-at-bound"))
    g = xi / lam
    return GmmResult(
        params={"g": g, "H_ij": hij, "xi_ij": g * lam, "T": T},
        residuals=observed - lam * g * unit(hij), n=n, delta=delta,
        grid=grid, **fit)


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


_ITEM_ERRORS = (CalibrationError, SimulationError, ValueError)


def _run_each(fn, items: Sequence) -> tuple[dict, dict]:
    """``fn`` over ``items`` on ``fan_out``: the results and the (exception
    type name, message) failures, keyed by item in item order.  Any exception
    outside ``_ITEM_ERRORS`` is a bug and propagates."""

    def attempt(item):
        try:
            return fn(item), None
        except _ITEM_ERRORS as exc:
            return None, (type(exc).__name__, str(exc))

    outcomes = dict(zip(items, fan_out(attempt, items)))
    return ({item: res for item, (res, fail) in outcomes.items() if not fail},
            {item: fail for item, (_, fail) in outcomes.items() if fail})


def calibrate_panel(
    panel: FieldPanel,
    grid: LagGrid | None = None,
    T: float | None = None,
    mask: np.ndarray | None = None,
) -> PanelCalibration:
    """d marginal fits, then d(d-1)/2 pair fits, each stage on ``fan_out``,
    on an aligned panel of log-volatility proxies.  A fit that raises one of
    ``_ITEM_ERRORS`` is recorded in ``failures``; a failed marginal fails its
    pairs, and any other exception propagates.  The amplitude matrix's
    eigenvalues report, not enforce, positive semidefiniteness.  ``mask``
    (d x n, True = valid) excludes imputed entries from the moments.  T
    defaults to N delta; a T that is not finite and at least 3 delta raises
    ``ValueError``, and a grid with fewer than two lags in the window
    ``CalibrationError``, before any fit runs."""
    d = panel.d
    delta = panel.delta
    t_val = T if T is not None else panel.n * delta
    _window_grid(grid, panel.n, delta, t_val)
    if mask is not None:
        mask = np.asarray(mask, bool)
        if mask.shape != panel.data.shape:
            raise ValueError("mask shape must match the panel")

    def fit_marginal(i):
        return calibrate_univariate(panel.data[i], delta, t_val, grid=grid,
                                    mask=None if mask is None else mask[i])

    def fit_pair(ij):
        i, j = ij
        if i not in marginals or j not in marginals:
            raise CalibrationError("marginal fit missing")
        return calibrate_pair(panel.data[i], panel.data[j], marginals[i],
                              marginals[j])

    marginals, failed = _run_each(fit_marginal, range(d))
    failures = {f"marginal-{i}": msg for i, (_, msg) in failed.items()}
    pairs, failed = _run_each(
        fit_pair, [(i, j) for i in range(d) for j in range(i + 1, d)])
    failures |= {f"pair-{i}-{j}": msg for (i, j), (_, msg) in failed.items()}

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

    eigs = report = None
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
    simulates a field of length n * agg at unit step and aggregates by
    ``agg``, so the calibrated series has exactly n points and T keeps the
    value from ``params`` across the sweep.  A replica fits marginals 0 and 1
    and their pair on the default lag grid, so ``params`` must have d = 2.
    The replicas run on ``fan_out``; one that raises one of ``_ITEM_ERRORS``
    is recorded as failed."""

    params: ModelParams
    n_list: tuple[int, ...]
    replicas: int
    seed: int
    agg: int = 16
    proxy: str = "gaussian"      # "gaussian" | "measure"
    max_failure_fraction: float = 0.2

    def __post_init__(self):
        if self.proxy not in ("gaussian", "measure"):
            raise ValueError("proxy mode must be 'gaussian' or 'measure'")
        if self.replicas < 1:
            raise ValueError("replicas must be >= 1")
        if not self.n_list or min(self.n_list) < 2:
            raise ValueError(f"n_list must hold counts >= 2, got "
                             f"{list(self.n_list)}")
        if self.agg < 1:
            raise ValueError(f"agg must be >= 1, got {self.agg}")
        if self.params.d != 2:
            raise ValueError(f"the validation harness fits one pair and needs "
                             f"d = 2, got d = {self.params.d}")


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
        return {k: float(np.std(v, ddof=1)) if len(v) > 1 else float("nan")
                for k, v in self.samples.items()}


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
            for rep in range(len(run.samples[_PARAM_KEYS[0]])):
                for name, vals in sorted(run.samples.items()):
                    yield run.n, rep, name, float(vals[rep])


_PARAM_KEYS = ("H_0", "lambda2_0", "H_1", "lambda2_1", "H_01", "g_01", "xi_01")


def _one_replica(config: McConfig, factor: SpectralFactor, run_seed: int,
                 replica: int) -> dict:
    panels, _ = simulate_field(config.params, factor.n, seed=run_seed,
                               first_path=replica, factor=factor)
    panel = panels[0]
    if config.proxy == "gaussian":
        agg_panel = field_to_gaussian_proxy(panel, config.agg)
    else:
        agg_panel = field_to_measure(panel, config.params, config.agg)
    t_true = config.params.T
    res0 = calibrate_univariate(agg_panel.data[0], agg_panel.delta, t_true)
    res1 = calibrate_univariate(agg_panel.data[1], agg_panel.delta, t_true)
    pair = calibrate_pair(agg_panel.data[0], agg_panel.data[1], res0, res1)
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
    for n_idx, n in enumerate(config.n_list):
        run_seed = config.seed + 1009 * n_idx
        factor = spectral_factor(config.params, n * config.agg)
        estimates, failed = _run_each(
            lambda rep: _one_replica(config, factor, run_seed, rep),
            range(config.replicas))
        del factor  # empties the closure's cell too: one factor at a time
        failures = [(rep, kind, msg) for rep, (kind, msg) in failed.items()]
        if len(failures) > config.max_failure_fraction * config.replicas:
            kinds = Counter(kind for _, kind, _ in failures)
            counts = ", ".join(f"{count} {kind}" for kind, count in kinds.items())
            message = (f"{len(failures)}/{config.replicas} replicas failed at "
                       f"n={n} ({counts})")
            if failures:
                message += "; replica {}, {}: {}".format(*failures[0])
            raise McValidationError(message, failures)
        samples = {key: np.array([e[key] for e in estimates.values()])
                   for key in _PARAM_KEYS}
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
