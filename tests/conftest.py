import math
from typing import Callable, Sequence
from unittest import mock

import numpy as np
import pytest
import scipy.fft
from hypothesis import settings

from mlogsfbm import ModelParams, PairParams
from mlogsfbm.params import linear_coeff, require_admissible
from mlogsfbm import simulate
from mlogsfbm.estimate import (
    CalibrationError,
    GmmResult,
    LagGrid,
    _joint_moment_cov,
    _prepare_series,
    _profiled_minimize,
    _regularized_inverse,
    _window_grid,
    empirical_cross_cov,
)
from mlogsfbm.kernels import (_unit_block_cov, _unit_block_var,
                              _unit_window_sum, block_cov_sequence,
                              block_support, expected_cross_cov)
from mlogsfbm.simulate import (
    CLIP_APPROX,
    CLIP_EXACT,
    EmbeddingDiagnostics,
    EmbeddingError,
    FieldPanel,
    SpectralFactor,
    _spectral_matrices,
)

# the property tests share a loaded machine: no per-example time limit
settings.register_profile("mlogsfbm", deadline=None)
settings.load_profile("mlogsfbm")

T_GRID = float(2**14)


@pytest.fixture
def fig2_pair() -> PairParams:
    """The coupled configuration used throughout the numerical experiments:
    H_1 = H_2 = 0.02, lambda^2 = 0.05, H_12 = 0.15, g = 0.5, T = 2^14."""
    return PairParams(g=0.5, H_ij=0.15, lambda_i2=0.05, lambda_j2=0.05,
                      H_i=0.02, H_j=0.02, T=T_GRID)


@pytest.fixture
def fig2_params() -> ModelParams:
    return ModelParams(
        T=T_GRID,
        H=[[0.02, 0.15], [0.15, 0.02]],
        xi=[[0.05, 0.025], [0.025, 0.05]],
    )


def random_admissible(rng: np.random.Generator, d: int, T: float = T_GRID) -> ModelParams:
    """Random admissible parameter set: correlation matrix from a Wishart
    draw, Hurst diagonal in (0.01, 0.2), off-diagonal above the pair means."""
    a = rng.standard_normal((d, d + 2))
    corr = a @ a.T
    scale = np.sqrt(np.diag(corr))
    corr = corr / np.outer(scale, scale)
    lam2 = rng.uniform(0.02, 0.08, size=d)
    xi = corr * np.sqrt(np.outer(lam2, lam2))
    h_diag = rng.uniform(0.01, 0.2, size=d)
    h = np.empty((d, d))
    for i in range(d):
        h[i, i] = h_diag[i]
        for j in range(i + 1, d):
            hbar = 0.5 * (h_diag[i] + h_diag[j])
            h[i, j] = h[j, i] = rng.uniform(hbar, 0.49)
    return ModelParams(T=T, H=h, xi=xi)


def scatter_spectral_matrices(params: ModelParams, n: int, delta: float):
    """``simulate._spectral_matrices`` as it stood before its matrices were
    gathered through a pair-row index, kept verbatim: one strided column
    write per matrix entry."""
    m_max = int(math.floor(params.T / delta))
    m = 1 << int(math.ceil(math.log2(2 * max(n, m_max))))
    d = params.d
    pairs = [(i, j) for i in range(d) for j in range(i, d)]
    # m_max <= M/2, so no lag wraps onto another: entries 0..M/2 are the
    # sequence, zero-padded, except that lags M/2 and -M/2 are one point
    padded = np.zeros((len(pairs), m // 2 + 1))
    for row, (i, j) in zip(padded, pairs):
        row[: m_max + 1] = simulate._covariance_sequence(params, i, j, delta,
                                                         m_max)
    padded[:, -1] *= 2.0
    # the DFT of an even sequence of length m is the DCT-I of its half
    half_spectra = scipy.fft.dct(padded, type=1, axis=1)
    spectra = np.empty((m // 2 + 1, d, d))
    for (i, j), values in zip(pairs, half_spectra):
        spectra[:, i, j] = values
        spectra[:, j, i] = values
    return m, spectra


def serial_spectral_factor(params: ModelParams, n: int,
                           delta: float = 1.0) -> SpectralFactor:
    """The factorisation as it stood before frequency chunks ran on worker
    threads and before the closed-form d = 2 root, kept verbatim: one
    whole-array ``eigh`` over all M/2 + 1 frequencies, its eigenvectors
    scaled by the square roots of the clipped eigenvalues."""
    m, spectra = _spectral_matrices(params, n, delta)
    eigvals, eigvecs = np.linalg.eigh(spectra)
    # an interior frequency k also stands for its mirror M - k
    weight = np.full(eigvals.shape[0], 2.0)
    weight[[0, -1]] = 1.0
    total = float(weight @ np.abs(eigvals).sum(axis=1))
    clipped = float(weight @ -np.clip(eigvals, None, 0.0).sum(axis=1))
    mass = clipped / total if total > 0 else 0.0
    half_min = eigvals.min(axis=1)
    diagnostics = EmbeddingDiagnostics(
        embedding_size=m,
        min_eigenvalues=np.concatenate([half_min, half_min[-2:0:-1]]),
        clipped_mass=mass,
        flag="exact" if mass <= CLIP_EXACT else "approximate",
    )
    if mass > CLIP_APPROX:
        raise EmbeddingError(
            f"clipped spectral mass {mass:.3e} exceeds the tolerance "
            f"{CLIP_APPROX:.0e}; the requested configuration does not embed",
            diagnostics,
        )
    matrix = eigvecs  # scaled in place: no second (M/2 + 1, d, d) array
    matrix *= np.sqrt(np.clip(eigvals, 0.0, None))[:, None, :]
    matrix.setflags(write=False)
    return SpectralFactor(params=params, n=n, delta=delta, matrix=matrix,
                          diagnostics=diagnostics)


# The spectrum, factorisation and draw as they stood before the pair rows
# ran on worker threads, the diagnostics were reduced per chunk and a
# stream's paths shared one array and one inverse FFT, kept verbatim but
# for their names and docstrings (the helpers they call are looked up on
# the module): the oracles that the pooled code equals byte for byte.

def gathered_spectral_matrices(params: ModelParams, n: int, delta: float):
    """Embedding size M and the spectral matrices at frequencies 0..M/2,
    shape (M/2 + 1, d, d); the matrix at M - k equals the one at k."""
    m_max = int(math.floor(params.T / delta))
    m = 1 << int(math.ceil(math.log2(2 * max(n, m_max))))
    d = params.d
    pairs = [(i, j) for i in range(d) for j in range(i, d)]
    # m_max <= M/2, so no lag wraps onto another: entries 0..M/2 are the
    # sequence, zero-padded, except that lags M/2 and -M/2 are one point
    padded = np.zeros((len(pairs), m // 2 + 1))
    for row, (i, j) in zip(padded, pairs):
        row[: m_max + 1] = simulate._covariance_sequence(params, i, j, delta,
                                                         m_max)
    padded[:, -1] *= 2.0
    # the DFT of an even sequence of length m is the DCT-I of its half (on
    # the calling thread: worker threads keep their scratch resident, +28 MB
    # of peak RSS at d = 5, n = 2^18)
    half_spectra = scipy.fft.dct(padded, type=1, axis=1, overwrite_x=True)
    # entry (i, j) of every matrix is row index[i, j] of half_spectra.  take
    # returns C order (half_spectra.T[:, index] would not) through a C copy
    # of its input, which the in-place transform leaves room for
    index = np.empty((d, d), dtype=np.intp)
    for row, (i, j) in enumerate(pairs):
        index[i, j] = index[j, i] = row
    return m, np.take(half_spectra.T, index, axis=1)


def whole_array_spectral_factor(params: ModelParams, n: int,
                                delta: float = 1.0) -> SpectralFactor:
    """``simulate.spectral_factor`` with its diagnostics reduced over the
    whole eigenvalue array, and at d != 2 a second array for ``eigh``."""
    require_admissible(params, strict_pd=True)
    if n < 2:
        raise ValueError("n must be >= 2")
    if delta <= 0:
        raise ValueError("delta must be positive")
    m, spectra = gathered_spectral_matrices(params, n, delta)
    n_freq, d = spectra.shape[:2]
    eigvals = np.empty((n_freq, d))
    matrix = spectra if d == 2 else np.empty((n_freq, d, d))

    def factor_chunk(start: int):
        chunk = slice(start, start + simulate._EIGH_CHUNK)
        if d == 2:
            simulate._symmetric_root_2x2(matrix[chunk], eigvals[chunk])
        else:
            eigvals[chunk], matrix[chunk] = np.linalg.eigh(spectra[chunk])

    simulate.fan_out(factor_chunk, range(0, n_freq, simulate._EIGH_CHUNK))
    del spectra
    # an interior frequency k also stands for its mirror M - k
    weight = np.full(eigvals.shape[0], 2.0)
    weight[[0, -1]] = 1.0
    total = float(weight @ np.abs(eigvals).sum(axis=1))
    clipped = float(weight @ -np.clip(eigvals, None, 0.0).sum(axis=1))
    mass = clipped / total if total > 0 else 0.0
    half_min = eigvals.min(axis=1)
    diagnostics = EmbeddingDiagnostics(
        embedding_size=m,
        min_eigenvalues=np.concatenate([half_min, half_min[-2:0:-1]]),
        clipped_mass=mass,
        flag="exact" if mass <= CLIP_EXACT else "approximate",
    )
    if mass > CLIP_APPROX:
        raise EmbeddingError(
            f"clipped spectral mass {mass:.3e} exceeds the tolerance "
            f"{CLIP_APPROX:.0e}; the requested configuration does not embed",
            diagnostics,
        )
    if d != 2:
        # eigenvectors scaled in place: no second (M/2 + 1, d, d) array
        matrix *= np.sqrt(np.clip(eigvals, 0.0, None))[:, None, :]
    matrix.setflags(write=False)
    return SpectralFactor(params=params, n=n, delta=delta, matrix=matrix,
                          diagnostics=diagnostics)


def hermitian_half(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """w[k] = (z[k] + conj z[M-k]) / 2 for k = 0..M/2, with z = re + i im
    of length M along axis 0 and z[M] read as z[0]; the real and imaginary
    parts of w are stacked on a new last axis.  w[0] and w[M/2] are real."""
    half = re.shape[0] // 2
    w = np.empty((half + 1,) + re.shape[1:] + (2,))
    w[0, ..., 0] = re[0]
    w[0, ..., 1] = 0.0
    w[1:, ..., 0] = 0.5 * (re[1:half + 1] + re[:half - 1:-1])
    w[1:, ..., 1] = 0.5 * (im[1:half + 1] - im[:half - 1:-1])
    return w


def two_half_field(params: ModelParams, n: int, delta: float, seed: int,
                   n_paths: int, first_path: int,
                   factor: SpectralFactor) -> list:
    """The panels of ``simulate.simulate_field`` drawn with one
    ``hermitian_half`` array, one product and one inverse FFT per path."""
    m = factor.diagnostics.embedding_size
    scale = math.sqrt(m)
    end = first_path + n_paths

    def draw(stream: int) -> list[FieldPanel]:
        """The panels of this stream's paths that fall in the call's range."""
        rng = simulate._path_rng(seed, stream)
        re = rng.standard_normal((m, params.d))
        im = rng.standard_normal((m, params.d))
        paths = range(max(first_path, 2 * stream), min(end, 2 * stream + 2))
        # z = re + i im; the Hermitian half of -i z = im - i re is v
        halves = [hermitian_half(re, im) if path % 2 == 0
                  else hermitian_half(im, -re) for path in paths]
        # each temporary is freed before the next is allocated; otherwise a
        # many-path call fragments the heap around the panels it keeps
        del re, im
        panels = []
        for path in paths:
            # (M/2 + 1, d, 2) real and imaginary parts, viewed as complex
            spectral = (factor.matrix @ halves.pop(0)).view(complex)
            draws = np.fft.irfft(spectral[..., 0], n=m, axis=0)
            del spectral
            data = np.ascontiguousarray(draws[:n].T)
            del draws
            data *= scale
            panels.append(FieldPanel(data=data, delta=delta, seed=seed,
                                     provenance="gaussian-field", path=path))
        return panels

    streams = range(first_path // 2, (end + 1) // 2)
    return [panel for pair in simulate.fan_out(draw, streams)
            for panel in pair]


def factor_or_diagnostics(build, *args):
    """(result or None, diagnostics) of a factorisation that may refuse."""
    try:
        result = build(*args)
    except EmbeddingError as exc:
        return None, exc.diagnostics
    diagnostics = result[1] if isinstance(result, tuple) else result.diagnostics
    return result, diagnostics


def with_box(eps: float):
    """Patch the covariance sequences to base + eps base[0] (box of ones on
    the support): for eps > 0 the spectra are indefinite."""
    original = simulate._covariance_sequence

    def boxed(params, i, j, delta, m_max):
        base = original(params, i, j, delta, m_max)
        return base + eps * base[0]

    return mock.patch.object(simulate, "_covariance_sequence", boxed)


def _curve_map(n: int, taus: Sequence[int], support: int) -> np.ndarray:
    """The q x M matrix A whose product A @ r[:M] is the model side of the
    moment conditions for a symmetric cross-covariance sequence r that
    vanishes from M = ``support`` on: the exact expectation of
    ``empirical_cross_cov`` at the lags ``taus``,
    (n-k)/n ([tau=k] + v_tau) - (W_tau(n-k) + W_tau(n) - W_tau(k)) / n^2 at
    (k, tau).  v_tau = (2 - [tau=0]) (n-tau) / n^2 weighs r(tau) in the
    sample-mean variance; W_tau(L) = max(0, min(L, n-tau)) + max(0, L-tau)
    - L [tau=0] counts it in n sum_{l<=L} E[x_l mean(y)].

    The linear-map form of the model curve: the oracle of the closed forms
    of ``kernels.expected_cross_cov``."""
    tau = np.arange(support)
    curve_map = (tau == np.asarray(taus)[:, None]).astype(float)
    zero = tau == 0
    v = np.where(zero, 1.0, 2.0) * (n - tau) / n**2

    def w(length):
        return (np.maximum(0, np.minimum(length, n - tau))
                + np.maximum(0, length - tau) - length * zero)

    for row, k in zip(curve_map, taus):  # row by row: no q x M temporaries
        row[:] = (n - k) / n * (row + v) - (w(n - k) + w(n) - w(k)) / n**2
    return curve_map


# The variogram and the model curve as they stood when the curve re-derived
# its window (support, lags, block spans and their logs) at each roughness,
# kept verbatim but for their names: the oracles that
# ``kernels.expected_cross_cov`` equals bit for bit.

def oracle_block_variogram(n: int, lags, lengths, delta: float, H_ij: float,
                           h_bar: float, T: float) -> tuple[np.ndarray, np.ndarray]:
    """The variogram of r = ``block_cov_sequence(n, delta, H_ij, h_bar, T)``
    at ascending lags k < n, gamma(k) = r(0) - r(k), and its sums at block
    lengths 0 <= L <= n, Gamma(L) = sum_{|k| < L} (L - |k|) gamma(|k|) =
    L^2 r(0) - V(L), V(L) the variance of a sum of L consecutive entries.

    Cost O(len(lags) + len(lengths)), not O(n): r is needed at the lags
    alone, and V(L) is L^2 times the unit block variance at block length
    L Delta while L is at most the support M = ``block_support(n, delta,
    T)``.  Beyond it r vanishes (gamma = r(0)), so V(L) = V(M) + (L - M) S
    with S = sum_{|k| < M} r(k) in closed form, and Gamma(L) = Gamma(M) +
    (L - M)((L + M) r(0) - S)."""
    m = block_support(n, delta, T)
    lags = np.asarray(lags)
    lengths = np.asarray(lengths)
    if m == 0:
        return np.zeros(lags.shape), np.zeros(lengths.shape)
    alpha = 2.0 * H_ij
    c = linear_coeff(alpha, h_bar)
    inside = int(np.searchsorted(lags, m))
    r = _unit_block_cov(np.concatenate(([0], lags[:inside])) * delta, delta,
                        T, H_ij, h_bar)
    gamma = r[0] - r[1:]
    if inside < lags.size:
        gamma = np.append(gamma, np.full(lags.size - inside, r[0]))
    # Gamma(min(L, M)) = min(L, M)^2 (r(0) - V/L^2), V/L^2 the block variance
    length = np.minimum(lengths, m)
    span = np.maximum(length, 1) * delta
    sums = length * length * (
        r[0] - _unit_block_var(span, np.log(span / T), T, alpha, c))
    if m < n:
        s = r[0] if m == 1 else _unit_window_sum(m, delta, T, alpha, c)
        sums += (lengths - length) * ((lengths + m) * r[0] - s)
    return gamma, sums


def oracle_model_curve(n: int, taus: Sequence[int], delta: float,
                       T: float) -> Callable[[float, float], np.ndarray]:
    """The model side of the moment conditions at unit amplitude, as a
    function of (h_ij, h_bar): the exact expectation of
    ``empirical_cross_cov`` at the lags ``taus`` for the sequence
    r = ``block_cov_sequence(n, delta, h_ij, h_bar, T)``, in O(len(taus)).
    With V(L) the variance of a sum of L consecutive entries,

        E Chat(k) = (n-k)/n (r(k) + V(n)/n^2) - (V(n-k) + V(n) - V(k))/n^2,

    and in the variogram (``oracle_block_variogram``) r(k) = r(0) -
    gamma(k), V(L) = L^2 r(0) - Gamma(L), the terms in r(0) cancel:

        E Chat(k) = (Gamma(n-k) - Gamma(k) + k/n Gamma(n))/n^2
                    - (n-k)/n gamma(k)."""
    k = np.asarray(taus)
    q = k.size
    lengths = np.concatenate((k, n - k, (n,)))
    rest, share = (n - k) / n, k / n

    def curve(h_ij: float, h_bar: float) -> np.ndarray:
        gamma, sums = oracle_block_variogram(n, k, lengths, delta, h_ij,
                                             h_bar, T)
        sums /= n * n
        return sums[q:2 * q] - sums[:q] + share * sums[-1] - rest * gamma

    return curve


# The pair fit as it stood when it took the marginal parameters, T and the
# grid as loose values and re-derived the marginal moment residuals itself,
# kept verbatim (renamed) as the oracle of ``estimate.calibrate_pair``, which
# takes the two marginal fits: at the fits' own values both give the same
# bits.

def scalar_cv_adjusted_cross_moments(
    observed: np.ndarray,
    series: tuple[np.ndarray, np.ndarray],
    model_seqs: tuple[np.ndarray, np.ndarray, np.ndarray],
    marginal_curves: tuple[np.ndarray, np.ndarray],
    n: int,
    taus: Sequence[int],
    masks: tuple = (None, None),
) -> tuple[np.ndarray, np.ndarray, bool]:
    """Regression-adjust the cross moments by the marginal moment residuals,
    the observed marginal moments minus ``marginal_curves`` (the model
    curves at the fixed marginal parameters).  One regularized precision P
    of the joint [cross; marginal-i; marginal-j] moment covariance, built
    from ``model_seqs`` (r_ii, r_jj, r_ij), gives the weight P_cc, the
    inverse of the conditional covariance (so positive definite), and the
    regression coefficient -P_cc^-1 P_cm; also returns whether P fell back
    to the identity."""
    x, y = series
    mask_i, mask_j = masks
    grid = LagGrid(tuple(taus))
    obs_ii = empirical_cross_cov(x, x, grid, mask_x=mask_i, mask_y=mask_i)
    obs_jj = empirical_cross_cov(y, y, grid, mask_x=mask_j, mask_y=mask_j)
    curve_ii, curve_jj = marginal_curves
    marg_resid = np.concatenate([obs_ii - curve_ii, obs_jj - curve_jj])

    q = len(taus)
    precision, fallback = _regularized_inverse(
        _joint_moment_cov(model_seqs, n, taus))
    weight = precision[:q, :q]
    return (observed + np.linalg.solve(weight, precision[:q, q:] @ marg_resid),
            weight, fallback)


def scalar_calibrate_pair(
    logvol_i: np.ndarray,
    logvol_j: np.ndarray,
    lambda_i2: float,
    lambda_j2: float,
    H_i: float,
    H_j: float,
    delta: float,
    T: float,
    grid: LagGrid | None = None,
    mask_i: np.ndarray | None = None,
    mask_j: np.ndarray | None = None,
) -> GmmResult:
    """Fit (g, H_ij) at the correlation scale T for one pair with the
    marginal parameters held fixed.

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
    hbar = 0.5 * (H_i + H_j)
    h_lo, h_hi = hbar + 1e-6, 0.4999
    if not h_lo < h_hi:
        raise CalibrationError(
            f"no H_ij to search: h_bar={hbar!r} leaves the bracket "
            f"(h_bar + 1e-6, {h_hi!r}) empty")
    grid = _window_grid(grid, n, delta, T)
    observed = empirical_cross_cov(x, y, grid, mask_x=mask_i,
                                   mask_y=mask_j)
    lam = math.sqrt(lambda_i2 * lambda_j2)

    def sequence(hij: float, h_bar: float, scale: float) -> np.ndarray:
        return scale * block_cov_sequence(n, delta, hij, h_bar, T)

    curve = expected_cross_cov(n, grid.taus, delta, T)
    unit = lambda hij: curve(hij, hbar)
    first = _profiled_minimize(observed, unit, np.eye(len(grid.taus)),
                               h_lo, h_hi, -lam, lam)
    r_ii = sequence(H_i, H_i, lambda_i2)
    r_jj = sequence(H_j, H_j, lambda_j2)
    r_ij = sequence(first.h, hbar, first.amp)
    # stack the (fixed) marginal moment conditions as control variates:
    # their errors are strongly correlated with the cross moments, so the
    # regression adjustment sharpens the fit without moving its expectation
    target, weight, fallback = scalar_cv_adjusted_cross_moments(
        observed, (x, y), (r_ii, r_jj, r_ij),
        (lambda_i2 * curve(H_i, H_i), lambda_j2 * curve(H_j, H_j)), n,
        grid.taus, (mask_i, mask_j))
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
    residuals = observed - lam * g * unit(hij)
    return GmmResult(
        params={"g": g, "H_ij": hij, "xi_ij": g * lam, "T": T},
        objective=float(second.objective),
        iterations=int(first.evals + second.evals),
        converged=bool(first.converged and second.converged),
        weight=weight, residuals=residuals, n=n, delta=delta, grid=grid,
        notes=tuple(notes))


def given_marginal(H: float, lambda2: float, T: float, n: int,
                   lags: Sequence[int] = (1, 2)) -> GmmResult:
    """A marginal fit at given values on the window (n, delta = 1, T, lags),
    built directly for the pair tests that need them: zero residuals, no
    search."""
    q = len(lags)
    return GmmResult(params={"H": H, "lambda2": lambda2, "T": T},
                     objective=0.0, iterations=0, converged=True,
                     weight=np.eye(q), residuals=np.zeros(q), n=n, delta=1.0,
                     grid=LagGrid(tuple(lags)))


def default_lags_below(support: int) -> tuple[int, ...]:
    """The lags of ``LagGrid.default()`` below ``support``."""
    return tuple(t for t in LagGrid.default().taus if t < support)
