"""Half-spectrum circulant embedding against the full-spectrum oracle.

The oracle is the sampler as it stood before the embedding kept only
frequencies 0..M/2: ``_periodize``, the full-FFT ``_spectral_matrices``,
the factorisation over all M frequencies and the full-M synthesis, kept
here verbatim (the covariance sequence is looked up on the module, so a
patched sequence reaches both samplers) but for three changes: the
embedding size M = 2^ceil(log2(2 max(N, floor(T/delta)))), which keeps
every lag of the support on the circle; the stream layout, path p being the
real (p even) or imaginary (p odd) part of the synthesis of stream p // 2;
and, at d = 2, the factor V sqrt(Lambda) V^T, the symmetric root that the
sampler computes in closed form, in place of V sqrt(Lambda).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    factor_or_diagnostics,
    hermitian_half,
    random_admissible,
    with_box,
)
from mlogsfbm import ModelParams
from mlogsfbm import simulate
from mlogsfbm.simulate import (
    CLIP_APPROX,
    CLIP_EXACT,
    EmbeddingDiagnostics,
    EmbeddingError,
    simulate_field,
    spectral_factor,
)


# ---------------------------------------------------------------------------
# oracle: the full-spectrum sampler
# ---------------------------------------------------------------------------

def _periodize(base: np.ndarray, m: int) -> np.ndarray:
    """Wrap a symmetric compactly supported sequence onto a circle of size m."""
    m_max = base.size - 1
    out = np.zeros(m)
    idx = np.arange(m)
    n_wraps = m_max // m + 1
    for n in range(-n_wraps, n_wraps + 1):
        shifted = np.abs(idx + n * m)
        mask = shifted <= m_max
        out[mask] += base[shifted[mask]]
    return out


def oracle_spectral_matrices(params: ModelParams, n: int, delta: float):
    m_max = int(math.floor(params.T / delta))
    m = 1 << int(math.ceil(math.log2(2 * max(n, m_max))))
    d = params.d
    seq = np.empty((m, d, d))
    for i in range(d):
        for j in range(i, d):
            base = simulate._covariance_sequence(params, i, j, delta, m_max)
            per = _periodize(base, m)
            seq[:, i, j] = per
            seq[:, j, i] = per
    # real part only: the periodized sequence is even, so the DFT is real
    spectra = np.fft.fft(seq, axis=0).real
    return m, spectra


def oracle_spectral_factor(params: ModelParams, n: int, delta: float):
    """(matrix of shape (M, d, d), diagnostics); EmbeddingError as before."""
    m, spectra = oracle_spectral_matrices(params, n, delta)
    eigvals, eigvecs = np.linalg.eigh(spectra)
    total = float(np.abs(eigvals).sum())
    clipped = float(np.abs(eigvals[eigvals < 0]).sum())
    mass = clipped / total if total > 0 else 0.0
    diagnostics = EmbeddingDiagnostics(
        embedding_size=m,
        min_eigenvalues=eigvals.min(axis=1),
        clipped_mass=mass,
        flag="exact" if mass <= CLIP_EXACT else "approximate",
    )
    if mass > CLIP_APPROX:
        raise EmbeddingError(
            f"clipped spectral mass {mass:.3e} exceeds the tolerance "
            f"{CLIP_APPROX:.0e}; the requested configuration does not embed",
            diagnostics,
        )
    matrix = eigvecs * np.sqrt(np.clip(eigvals, 0.0, None))[:, None, :]
    if params.d == 2:
        matrix = matrix @ eigvecs.swapaxes(1, 2)
    return matrix, diagnostics


def oracle_field(matrix: np.ndarray, n: int, seed: int, n_paths: int = 1,
                 first_path: int = 0) -> list:
    """Panel data of the full-M synthesis with an (M, d, d) factor: the real
    part for an even path, the imaginary part for an odd one."""
    m, d = matrix.shape[:2]
    scale = math.sqrt(m)
    out = []
    for path in range(first_path, first_path + n_paths):
        rng = simulate._path_rng(seed, path // 2)
        z = rng.standard_normal((m, d)) + 1j * rng.standard_normal(
            (m, d)
        )
        spectral = np.einsum("mij,mj->mi", matrix, z)
        draws = np.fft.ifft(spectral, axis=0) * scale
        part = draws.imag if path % 2 else draws.real
        out.append(np.ascontiguousarray(part[:n].T))
    return out


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _mirrored(half: np.ndarray) -> np.ndarray:
    """Full length-M array from frequencies 0..M/2, using X[M-k] = X[k]."""
    return np.concatenate([half, half[-2:0:-1]])


@st.composite
def embedding_cases(draw):
    d = draw(st.integers(1, 4))
    n = draw(st.integers(2, 200))
    delta = draw(st.floats(0.1, 4.0))
    # regimes of T against the circle m_n that N alone needs; beyond
    # m_n / 2 the embedding grows to keep the support on the circle
    m_n = 1 << int(math.ceil(math.log2(2 * n)))
    regime = draw(st.sampled_from(["m_max<m_n/2", "m_n/2<=m_max<m_n",
                                   "m_max>=m_n"]))
    lo, hi = {"m_max<m_n/2": (1, m_n // 2 - 1),
              "m_n/2<=m_max<m_n": (m_n // 2, m_n - 1),
              "m_max>=m_n": (m_n, 3 * m_n)}[regime]
    m_max = draw(st.integers(lo, hi))
    params = random_admissible(np.random.default_rng(draw(st.integers(0, 2**32))),
                               d, T=(m_max + 0.5) * delta)
    if draw(st.booleans()):
        h = params.H.copy()
        h[0, 0] = 0.0
        params = ModelParams(T=params.T, H=h, xi=params.xi)
    eps = draw(st.sampled_from([0.0, 0.0, 0.1, 1.0]))
    return params, n, delta, eps


# ---------------------------------------------------------------------------
# tests
# ---------------------------------------------------------------------------

class TestHalfSpectrumOracle:
    @settings(max_examples=150)
    @given(embedding_cases(), st.integers(0, 2**32))
    def test_factor_and_paths_match_full_spectrum(self, case, seed):
        params, n, delta, eps = case
        with with_box(eps):
            m, half = simulate._spectral_matrices(params, n, delta)
            m_full, full = oracle_spectral_matrices(params, n, delta)
            factor, diag = factor_or_diagnostics(spectral_factor, params, n, delta)
            _, diag_full = factor_or_diagnostics(oracle_spectral_factor,
                                                  params, n, delta)
        top = np.abs(full).max()
        assert m == m_full and half.shape == (m // 2 + 1, params.d, params.d)
        assert np.abs(half - full[: m // 2 + 1]).max() <= 1e-12 * top

        assert diag.embedding_size == diag_full.embedding_size == m
        assert diag.min_eigenvalues.shape == (m,)
        assert np.abs(diag.min_eigenvalues
                      - diag_full.min_eigenvalues).max() <= 1e-12 * top
        assert diag.clipped_mass == pytest.approx(diag_full.clipped_mass,
                                                  rel=1e-9, abs=1e-12)
        assert diag.flag == diag_full.flag
        if factor is None:
            assert diag_full.clipped_mass > CLIP_APPROX
            return

        vals, vecs = np.linalg.eigh(full[: m // 2 + 1])
        clipped = (vecs * np.clip(vals, 0.0, None)[:, None, :]) @ vecs.swapaxes(1, 2)
        rebuilt = factor.matrix @ factor.matrix.swapaxes(1, 2)
        assert factor.matrix.shape == (m // 2 + 1, params.d, params.d)
        assert np.abs(rebuilt - clipped).max() <= 1e-12 * top

        # the same Philox streams through the full-M synthesis of this
        # factor: the odd half of stream 0 alone, then both halves of stream 1
        panels, _ = simulate_field(params, n, delta, seed=seed, n_paths=3,
                                   first_path=1, factor=factor)
        expected = oracle_field(_mirrored(factor.matrix), n, seed, n_paths=3,
                                first_path=1)
        for panel, data in zip(panels, expected):
            assert np.abs(panel.data - data).max() <= 1e-12 * np.abs(data).max()

    @pytest.mark.parametrize("T, n, delta", [
        (600.0, 2**10, 1.0),      # m_max < M/2
        (1500.0, 2**10, 1.0),     # M/2 <= m_max < M
        (2.0**12, 2**10, 1.0),    # m_max >= M
        (2.0**12, 2**10, 0.5),
        (2048.5, 1000, 1.0),      # m_max = M/2: lags M/2 and -M/2 meet
    ])
    @pytest.mark.parametrize("h_0", [0.02, 0.0], ids=["H0=0.02", "H0=0"])
    def test_d2_panels_equal_the_oracle(self, T, n, delta, h_0):
        params = ModelParams(T=T, H=[[h_0, 0.15], [0.15, 0.02]],
                             xi=[[0.05, 0.025], [0.025, 0.05]])
        matrix, diag_full = oracle_spectral_factor(params, n, delta)
        panels, diag = simulate_field(params, n, delta, seed=11, n_paths=3,
                                      first_path=5)
        expected = oracle_field(matrix, n, seed=11, n_paths=3, first_path=5)
        for panel, data in zip(panels, expected):
            assert np.abs(panel.data - data).max() <= 1e-12
        assert (diag.embedding_size, diag.clipped_mass, diag.flag) == (
            diag_full.embedding_size, diag_full.clipped_mass, diag_full.flag)
        assert np.allclose(diag.min_eigenvalues, diag_full.min_eigenvalues,
                           rtol=0, atol=1e-12)


class TestHermitianHalf:
    @pytest.mark.parametrize("m", [4, 8, 64])
    def test_matches_the_definition(self, m):
        rng = np.random.default_rng(m)
        re, im = rng.standard_normal((2, m, 3))
        z = re + 1j * im
        k = np.arange(m // 2 + 1)
        expected = (z[k] + np.conj(z[(m - k) % m])) / 2
        w = hermitian_half(re, im)
        assert w.shape == (m // 2 + 1, 3, 2)
        assert np.array_equal(w[[0, -1], :, 1], np.zeros((2, 3)))
        assert np.array_equal(w[[0, -1], :, 0], re[[0, m // 2]])
        assert np.abs(w[..., 0] + 1j * w[..., 1] - expected).max() <= 1e-15
