import math
from typing import Sequence
from unittest import mock

import numpy as np
import pytest
import scipy.fft
from hypothesis import settings

from mlogsfbm import ModelParams, PairParams
from mlogsfbm import simulate
from mlogsfbm.simulate import (
    CLIP_APPROX,
    CLIP_EXACT,
    EmbeddingDiagnostics,
    EmbeddingError,
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
    of ``estimate._model_curve``."""
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
