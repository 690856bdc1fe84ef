import hashlib
import math
import os
import sys
import threading
import tracemalloc
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mlogsfbm import (
    InadmissibleParamsError,
    ModelParams,
    PairParams,
    integrated_cov,
    log_kernel_cov,
    msfbm_cross_cov,
    sia_generalized_moment,
)
from mlogsfbm import simulate
from mlogsfbm.params import mu_i
from mlogsfbm.simulate import (
    PROVENANCES,
    EmbeddingError,
    FieldPanel,
    SimulationError,
    field_to_gaussian_proxy,
    field_to_measure,
    read_panel_binary,
    read_panel_csv,
    simulate_field,
    simulate_prices,
    spectral_factor,
    SpectralFactor,
    write_panel_binary,
    write_panel_csv,
    write_table_csv,
    _spectral_matrices,
)
from conftest import (
    factor_or_diagnostics,
    gathered_spectral_matrices,
    hermitian_half,
    random_admissible,
    scatter_spectral_matrices,
    serial_spectral_factor,
    two_half_field,
    whole_array_spectral_factor,
    with_box,
)


def small_params(t=2**12):
    return ModelParams(T=t, H=[[0.02, 0.15], [0.15, 0.02]],
                       xi=[[0.05, 0.025], [0.025, 0.05]])


def mc_band(per_path_values, theory, n_sigma=3.0):
    vals = np.asarray(per_path_values)
    se = vals.std(ddof=1) / math.sqrt(len(vals))
    return abs(vals.mean() - theory) <= n_sigma * se, vals.mean(), se


class TestFieldStatistics:
    def test_univariate_lag_zero_variance(self):
        t = 2**12
        params = ModelParams(T=t, H=[[0.02]], xi=[[0.05]])
        panels, _ = simulate_field(params, t, 1.0, seed=101, n_paths=150)
        per_path = [float(np.mean(p.data[0] ** 2)) for p in panels]
        nu2_half = 0.05 / (2 * 0.02 * 0.96)
        ok, mean, se = mc_band(per_path, nu2_half)
        assert ok, f"lag-0 variance {mean} vs {nu2_half} (se {se})"

    def test_cross_covariance_lag_profile(self):
        params = small_params()
        pair = params.pair(0, 1)
        panels, _ = simulate_field(params, 2**12, 1.0, seed=55, n_paths=150)
        for lag in (0, 4, 32):
            per_path = [
                float(np.mean(p.data[0, : p.n - lag] * p.data[1, lag:]))
                for p in panels
            ]
            theory = msfbm_cross_cov(float(lag), pair)
            ok, mean, se = mc_band(per_path, theory)
            assert ok, f"lag {lag}: {mean} vs {theory} (se {se})"

    def test_uncoupled_marginals_are_uncorrelated(self):
        params = ModelParams(T=2**12, H=[[0.02, 0.15], [0.15, 0.02]],
                             xi=[[0.05, 0.0], [0.0, 0.05]])
        panels, _ = simulate_field(params, 2**12, 1.0, seed=9, n_paths=100)
        per_path = [float(np.mean(p.data[0] * p.data[1])) for p in panels]
        ok, mean, se = mc_band(per_path, 0.0)
        assert ok, f"cross covariance {mean} (se {se})"

    def test_stationarity_zero_mean(self):
        params = small_params()
        panels, _ = simulate_field(params, 2**12, 1.0, seed=77, n_paths=100)
        for row in range(2):
            per_path = [float(np.mean(p.data[row])) for p in panels]
            ok, mean, se = mc_band(per_path, 0.0, n_sigma=4.0)
            assert ok, f"marginal {row} mean {mean} (se {se})"

    def test_multifractal_marginal_uses_log_kernel(self):
        t = 2**12
        params = ModelParams(T=t, H=[[0.0, 0.12], [0.12, 0.05]],
                             xi=[[0.05, 0.02], [0.02, 0.05]])
        panels, _ = simulate_field(params, t, 1.0, seed=31, n_paths=120)
        per_path = [float(np.mean(p.data[0] ** 2)) for p in panels]
        theory = log_kernel_cov(0.0, 1.0, 0.05, float(t))
        assert theory == pytest.approx(0.05 * (1 + math.log(t)), rel=1e-12)
        ok, mean, se = mc_band(per_path, theory)
        assert ok, f"H=0 variance {mean} vs {theory} (se {se})"


class TestEmbedding:
    def test_exact_embedding_in_standard_configs(self):
        params = small_params()
        _, diag = simulate_field(params, 2**12, 1.0, seed=1, n_paths=1)
        assert diag.clipped_mass == 0.0
        assert diag.flag == "exact"
        assert diag.embedding_size == 2**13
        assert diag.min_eigenvalues.min() >= 0.0

    @pytest.mark.parametrize("ratio", [1.5, 4.0, 16.0])
    @pytest.mark.parametrize("delta", [1.0, 0.5])
    @pytest.mark.parametrize("h_0", [0.02, 0.0], ids=["H0=0.02", "H0=0"])
    def test_implied_covariance_is_the_kernel_when_T_exceeds_N_delta(
            self, ratio, delta, h_0):
        # F F^T over all M frequencies is the spectrum of the circulant the
        # paths are drawn from; its inverse DFT at lags < N is their
        # covariance, whatever the support T/delta beyond N
        n = 2**10
        params = ModelParams(T=ratio * n * delta, H=[[h_0, 0.15], [0.15, 0.02]],
                             xi=[[0.05, 0.025], [0.025, 0.05]])
        factor = spectral_factor(params, n, delta)
        assert factor.diagnostics.embedding_size >= 2 * ratio * n
        full = np.concatenate([factor.matrix, factor.matrix[-2:0:-1]])
        implied = np.fft.ifft(full @ full.swapaxes(1, 2), axis=0).real[:n]
        for i in range(2):
            for j in range(2):
                kernel = simulate._covariance_sequence(params, i, j, delta,
                                                       n - 1)
                error = np.abs(implied[:, i, j] - kernel).max()
                assert error <= 1e-12 * np.abs(kernel).max(), (i, j)

    @given(st.integers(2, 5000), st.floats(0.01, 10.0),
           st.one_of(st.just(1.0), st.floats(1e-3, 1.0)))
    def test_property_embedding_size_depends_on_n_alone_for_T_up_to_N_delta(
            self, n, delta, fraction):
        # T = fraction * n * delta; at fraction 1, T / delta can round above n
        params = ModelParams(T=fraction * n * delta, H=[[0.1]], xi=[[0.05]])
        m, _ = _spectral_matrices(params, n, delta)
        assert m == 1 << int(math.ceil(math.log2(2 * n)))

    def test_determinism_bit_identical(self):
        params = small_params()
        a, _ = simulate_field(params, 2**10, 1.0, seed=42, n_paths=3)
        b, _ = simulate_field(params, 2**10, 1.0, seed=42, n_paths=3)
        for pa, pb in zip(a, b):
            assert np.array_equal(pa.data, pb.data)
        c, _ = simulate_field(params, 2**10, 1.0, seed=43, n_paths=1)
        assert not np.array_equal(a[0].data, c[0].data)

    def test_spectral_matrices_commute_with_permutation(self):
        params = ModelParams(T=512.0, H=[[0.05, 0.2], [0.2, 0.25]],
                             xi=[[0.04, 0.015], [0.015, 0.06]])
        swapped = ModelParams(T=512.0, H=[[0.25, 0.2], [0.2, 0.05]],
                              xi=[[0.06, 0.015], [0.015, 0.04]])
        _, s = _spectral_matrices(params, 512, 1.0)
        _, s_swapped = _spectral_matrices(swapped, 512, 1.0)
        perm = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert np.allclose(perm @ s @ perm, s_swapped, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_spectral_matrices_match_scatter_oracle(self, d):
        # the index gather gives the scatter's bits, in C order
        rng = np.random.default_rng(100 + d)
        for t_scale, n in ((2.0**10, 2**10), (300.0, 2**11), (5000.0, 2**9)):
            params = random_admissible(rng, d, T=t_scale)
            m, spectra = _spectral_matrices(params, n, 1.0)
            m_old, oracle = scatter_spectral_matrices(params, n, 1.0)
            assert m == m_old
            assert spectra.flags["C_CONTIGUOUS"]
            assert np.array_equal(spectra, oracle)

    def test_inadmissible_params_rejected(self):
        bad = ModelParams(T=100.0, H=[[0.02, 0.01], [0.01, 0.02]],
                          xi=[[0.05, 0.02], [0.02, 0.05]])
        with pytest.raises(InadmissibleParamsError):
            simulate_field(bad, 64, 1.0, seed=0)

    def test_singular_xi_rejected_for_simulation(self):
        # admissible as a parameter set but only positive semidefinite
        border = ModelParams(T=100.0, H=[[0.1, 0.1], [0.1, 0.1]],
                             xi=[[0.05, 0.05], [0.05, 0.05]])
        from mlogsfbm.params import validate
        assert validate(border).admissible
        with pytest.raises(InadmissibleParamsError):
            simulate_field(border, 64, 1.0, seed=0)

    def test_log_marginal_with_power_law_cross_kernels_may_not_embed(self):
        # admissibility does not imply an embedding: a log (H_ii = 0)
        # marginal next to power-law cross kernels (11 of seeds 0-199 of
        # this draw raise)
        from mlogsfbm.params import validate
        drawn = random_admissible(np.random.default_rng(53), 3, T=32)
        h = np.array(drawn.H, dtype=float)
        h[0, 0] = 0.0
        params = ModelParams(T=drawn.T, H=h, xi=drawn.xi)
        assert validate(params).admissible
        with pytest.raises(EmbeddingError) as err:
            spectral_factor(params, 64, 1.0)
        mass = err.value.diagnostics.clipped_mass
        assert mass == pytest.approx(1.46e-2, rel=0.01)
        assert mass > simulate.CLIP_APPROX


class TestSpectralFactor:
    def test_caller_owns_the_factor(self):
        params = small_params()
        factor = spectral_factor(params, 2**10, 1.0)
        assert not factor.matrix.flags.writeable
        ref = weakref.ref(factor)
        simulate_field(params, 2**10, 1.0, seed=1, factor=factor)
        del factor
        assert ref() is None
        assert not hasattr(simulate, "_factor_cache")
        assert not hasattr(simulate, "clear_factor_cache")

    @pytest.mark.parametrize("params, n, delta", [
        (small_params(), 2**9, 1.0),
        (small_params(), 2**10, 0.5),
        (small_params(2**11), 2**10, 1.0),
        (ModelParams(T=2**12, H=[[0.02, 0.15], [0.15, 0.02]],
                     xi=[[0.05, 0.02], [0.02, 0.05]]), 2**10, 1.0),
    ], ids=["n", "delta", "T", "xi"])
    def test_factor_built_for_another_call_rejected(self, params, n, delta):
        factor = spectral_factor(small_params(), 2**10, 1.0)
        with pytest.raises(ValueError, match="does not fit"):
            simulate_field(params, n, delta, seed=1, factor=factor)

    def test_paths_addressable_with_and_without_factor(self):
        params = small_params()
        factor = spectral_factor(params, 2**10, 1.0)
        batch, diag = simulate_field(params, 2**10, 1.0, seed=8, n_paths=3)
        for k, panel in enumerate(batch):
            for given_factor in (None, factor):
                (alone,), diag_alone = simulate_field(
                    params, 2**10, 1.0, seed=8, first_path=k,
                    factor=given_factor)
                assert alone.path == k
                assert np.array_equal(alone.data, panel.data)
                assert diag_alone.to_dict() == diag.to_dict()
                assert np.array_equal(diag_alone.min_eigenvalues,
                                      diag.min_eigenvalues)


class TestMeasure:
    def test_constant_field_gives_mean_exactly(self):
        params = ModelParams(T=256.0, H=[[0.02]], xi=[[0.05]])
        panel = FieldPanel(data=np.zeros((1, 64)), delta=1.0, seed=0,
                           provenance="gaussian-field")
        out = field_to_measure(panel, params, agg=4)
        mu = mu_i(0.05, 0.02)
        assert np.allclose(out.data, mu, rtol=0, atol=1e-15)
        assert out.n == 16 and out.delta == 4.0

    def test_vanishing_intermittency_gives_zero_log_measure(self):
        params = ModelParams(T=256.0, H=[[0.02]], xi=[[1e-12]])
        panels, _ = simulate_field(params, 256, 1.0, seed=5, n_paths=1)
        out = field_to_measure(panels[0], params, agg=4)
        assert np.max(np.abs(out.data)) < 1e-4

    def test_agg_one_is_field_plus_mean(self):
        params = ModelParams(T=256.0, H=[[0.1]], xi=[[0.04]])
        panels, _ = simulate_field(params, 128, 1.0, seed=6, n_paths=1)
        out = field_to_measure(panels[0], params, agg=1)
        assert np.allclose(out.data, panels[0].data + mu_i(0.04, 0.1),
                           rtol=0, atol=1e-12)

    def test_log_marginal_shift_is_half_the_cutoff_variance(self):
        # H = 0: the shift is -lambda^2 (ln(T/delta) + 1) / 2, half the
        # lag-0 variance of the log kernel cut off at the grid step
        lam2, t, delta = 0.05, 256.0, 0.5
        params = ModelParams(T=t, H=[[0.0]], xi=[[lam2]])
        data = np.random.default_rng(9).normal(scale=0.3, size=(1, 64))
        panel = FieldPanel(data=data, delta=delta, seed=0,
                           provenance="gaussian-field")
        shift = field_to_measure(panel, params, agg=1).data - data
        expected = -0.5 * lam2 * (math.log(t / delta) + 1.0)
        rounding = 4 * np.finfo(float).eps * (1 + np.abs(data) + abs(expected))
        assert np.all(np.abs(shift - expected) <= rounding)

    def test_unit_mean_normalization(self):
        t = 2**12
        params = small_params(t)
        panels, _ = simulate_field(params, t, 1.0, seed=13, n_paths=80)
        per_path = [float(np.mean(np.exp(field_to_measure(p, params, 16).data)))
                    for p in panels]
        ok, mean, se = mc_band(per_path, 1.0)
        assert ok, f"E[M/Delta] = {mean} (se {se})"

    def test_overflow_guard(self):
        params = ModelParams(T=256.0, H=[[0.02]], xi=[[0.05]])
        data = np.zeros((1, 8))
        data[0, 3] = 750.0
        panel = FieldPanel(data=data, delta=1.0, seed=0,
                           provenance="gaussian-field")
        with pytest.raises(SimulationError, match="overflow"):
            field_to_measure(panel, params, agg=2)

    def test_aggregation_must_divide(self):
        params = ModelParams(T=256.0, H=[[0.02]], xi=[[0.05]])
        panel = FieldPanel(data=np.zeros((1, 10)), delta=1.0, seed=0,
                           provenance="gaussian-field")
        with pytest.raises(ValueError):
            field_to_measure(panel, params, agg=3)

    @pytest.mark.parametrize("d", [1, 3])
    def test_parameter_dimension_must_match_rows(self, d):
        # d = 1 would shift every row by marginal 0's mean, and d = 3 would
        # fail in numpy's broadcast: both are named with their two counts
        params = ModelParams(T=256.0, H=np.full((d, d), 0.02),
                             xi=np.full((d, d), 0.05) * (1 + np.eye(d)))
        panel = FieldPanel(data=np.zeros((2, 8)), delta=1.0, seed=0,
                           provenance="gaussian-field")
        with pytest.raises(ValueError, match=f"panel has 2 rows but the "
                                             f"parameters have d = {d}$"):
            field_to_measure(panel, params, agg=2)


class TestGaussianProxy:
    def test_agg_one_is_identity(self):
        params = small_params()
        panels, _ = simulate_field(params, 256, 1.0, seed=2, n_paths=1)
        out = field_to_gaussian_proxy(panels[0], agg=1)
        assert np.array_equal(out.data, panels[0].data)
        assert out.provenance == "gaussian-average-proxy"

    def test_variance_matches_discrete_block_covariance(self):
        # lag-0 theory for the discrete block mean: double sum of the kernel
        # over the grid points of one block (the cusp at lag 0 makes this
        # differ visibly from the continuous block integral)
        t = 2**12
        agg = 8
        params = small_params(t)
        panels, _ = simulate_field(params, t, 1.0, seed=21, n_paths=120)
        per_path = [float(np.mean(field_to_gaussian_proxy(p, agg).data[0] ** 2))
                    for p in panels]
        pair = PairParams.diagonal(0.05, 0.02, float(t))
        grid = np.arange(agg, dtype=float)
        theory = float(np.mean(
            msfbm_cross_cov(np.abs(grid[:, None] - grid[None, :]).ravel(), pair)))
        ok, mean, se = mc_band(per_path, theory)
        assert ok, f"proxy variance {mean} vs {theory} (se {se})"

    def test_cross_covariance_curve(self):
        t = 2**12
        agg = 8
        params = small_params(t)
        pair = params.pair(0, 1)
        lam = math.sqrt(0.05 * 0.05)
        panels, _ = simulate_field(params, t, 1.0, seed=22, n_paths=120)
        proxies = [field_to_gaussian_proxy(p, agg) for p in panels]
        for lag in (1, 4, 16):
            per_path = [
                float(np.mean(p.data[0, : p.n - lag] * p.data[1, lag:]))
                for p in proxies
            ]
            theory = lam * integrated_cov(lag * float(agg), float(agg), pair) / agg**2
            ok, mean, se = mc_band(per_path, theory)
            assert ok, f"proxy lag {lag}: {mean} vs {theory} (se {se})"


class TestPrices:
    def test_zero_measure_gives_constant_paths(self):
        values = np.full((2, 16), -np.inf)
        panel = FieldPanel(data=values, delta=1.0, seed=0,
                           provenance="logvol-measure")
        out = simulate_prices(panel, [3.0, -1.0], seed=11)
        assert type(out) is np.ndarray
        assert np.array_equal(out, np.tile([[3.0], [-1.0]], 17))

    def test_unit_measure_gives_brownian_increments(self):
        delta = 2.0
        panel = FieldPanel(data=np.zeros((1, 4096)), delta=delta, seed=0,
                           provenance="logvol-measure")
        out = simulate_prices(panel, [0.0], seed=29)
        incr = np.diff(out[0])
        se = delta * math.sqrt(2.0 / len(incr))
        assert abs(float(np.var(incr)) - delta) <= 3 * se
        assert abs(float(np.mean(incr))) <= 3 * math.sqrt(delta / len(incr))

    def test_realized_variance_refines_toward_measure(self):
        params = small_params()
        fields, _ = simulate_field(params, 2**10, 1.0, seed=3, n_paths=1)
        measure = field_to_measure(fields[0], params, agg=16)
        mass = measure.delta * np.exp(measure.data)
        errors = []
        for substeps in (4, 64):
            prices = simulate_prices(measure, [0.0, 0.0], seed=17,
                                     substeps=substeps)
            incr = np.diff(prices, axis=1)
            rv = (incr**2).reshape(2, measure.n, substeps).sum(axis=2)
            errors.append(float(np.mean(np.abs(rv / mass - 1.0))))
        # mean absolute relative error of a chi^2_n mean shrinks like 1/sqrt(n)
        assert errors[1] < errors[0] * 0.5
        assert errors[1] < 3.0 * math.sqrt(2.0 / 64)

    def test_provenance_required(self):
        panel = FieldPanel(data=np.zeros((1, 8)), delta=1.0, seed=0,
                           provenance="gaussian-field")
        with pytest.raises(ValueError, match="logvol-measure"):
            simulate_prices(panel, [0.0], seed=1)

    def test_deterministic(self):
        panel = FieldPanel(data=np.zeros((2, 32)), delta=1.0, seed=0,
                           provenance="logvol-measure")
        a = simulate_prices(panel, [0.0, 1.0], seed=5, substeps=2)
        b = simulate_prices(panel, [0.0, 1.0], seed=5, substeps=2)
        assert np.array_equal(a, b)

    def test_path_zero_noise_is_pinned(self):
        # the digest of the stream keyed by (seed, _PRICE_STREAM) alone, from
        # before each path got its own stream: path 0 still draws it
        data = np.random.default_rng(4).normal(-4.0, 0.3, (2, 64))
        panel = FieldPanel(data=data, delta=16.0, seed=4,
                           provenance="logvol-measure", path=0)
        out = simulate_prices(panel, [0.0, 1.0], seed=4, substeps=2)
        assert hashlib.sha256(out.tobytes()).hexdigest() == (
            "68095171f22a478280f31f91e1ece676a360b20747627fcf74124e7be2b1bde5")

    def test_each_path_has_its_own_noise(self):
        params = small_params()
        fields, _ = simulate_field(params, 2**10, 1.0, seed=4, n_paths=2)
        noises = []
        for panel in fields:
            measure = field_to_measure(panel, params, agg=16)
            prices = simulate_prices(measure, [0.0, 0.0], seed=4)
            mass = measure.delta * np.exp(measure.data)
            noises.append(np.diff(prices, axis=1) / np.sqrt(mass))
        assert not np.allclose(noises[0], noises[1])


class TestSerialization:
    def make_panel(self):
        rng = np.random.default_rng(4)
        return FieldPanel(data=rng.standard_normal((3, 17)), delta=16.0,
                          seed=99, provenance="gaussian-average-proxy", path=2)

    def test_csv_roundtrip_lossless(self):
        panel = self.make_panel()
        back = read_panel_csv(write_panel_csv(panel))
        assert np.array_equal(back.data, panel.data)
        assert back.delta == panel.delta
        assert back.seed == panel.seed
        assert back.provenance == panel.provenance
        assert back.path == panel.path

    def test_binary_roundtrip_bit_exact(self):
        panel = self.make_panel()
        blob = write_panel_binary(panel)
        assert blob.startswith(b"MSFB1")
        back = read_panel_binary(blob)
        assert np.array_equal(back.data, panel.data)
        assert back.delta == panel.delta

    def test_binary_magic_check(self):
        with pytest.raises(ValueError, match="magic"):
            read_panel_binary(b"NOPE!" + bytes(64))

    def test_binary_short_header(self):
        blob = write_panel_binary(self.make_panel())
        with pytest.raises(ValueError, match="header needs 38 bytes, got 20"):
            read_panel_binary(blob[:20])

    def test_binary_truncated_body(self):
        panel = self.make_panel()
        blob = write_panel_binary(panel)
        need = 8 * panel.d * panel.n
        with pytest.raises(ValueError, match=f"needs {need} bytes, got "
                                             f"{need - 8}"):
            read_panel_binary(blob[:-8])

    def test_binary_trailing_bytes(self):
        panel = self.make_panel()
        blob = write_panel_binary(panel)
        need = 8 * panel.d * panel.n
        with pytest.raises(ValueError, match=f"needs {need} bytes, got "
                                             f"{need + 3}"):
            read_panel_binary(blob + b"abc")

    def test_binary_bad_provenance_code(self):
        blob = bytearray(write_panel_binary(self.make_panel()))
        blob[37] = 9  # the provenance byte closes the 38-byte header
        with pytest.raises(ValueError, match="provenance code 9 unknown"):
            read_panel_binary(bytes(blob))

    def test_csv_requires_metadata(self):
        with pytest.raises(ValueError):
            read_panel_csv("t,m0\n0,1.0\n1,2.0\n")

    def test_csv_ragged_row(self):
        lines = write_panel_csv(self.make_panel()).splitlines()
        lines[3] += ",0.5"
        with pytest.raises(ValueError,
                           match="line 4 has 5 fields, expected 4"):
            read_panel_csv("\n".join(lines))

    def test_csv_non_numeric_field(self):
        lines = write_panel_csv(self.make_panel()).splitlines()
        lines[4] = "2,0.1,abc,0.3"
        with pytest.raises(ValueError, match="line 5 has a non-numeric"):
            read_panel_csv("\n".join(lines))

    @staticmethod
    def per_element_table(data, prefix):
        # the writer before the chunked one, kept as the oracle
        rows = ["t," + ",".join(f"{prefix}{i}" for i in range(data.shape[0]))]
        for k in range(data.shape[1]):
            rows.append(f"{k}," + ",".join(repr(float(v)) for v in data[:, k]))
        return "\n".join(rows) + "\n"

    @pytest.mark.parametrize("d", [1, 5])
    @pytest.mark.parametrize("n", [2, 4095, 4096, 4097])
    def test_table_matches_per_element_writer(self, d, n):
        data = np.random.default_rng(n).standard_normal((d, n))
        specials = [-math.inf, -0.0, 5e-324, 1e308]
        data.flat[-len(specials):] = specials
        data[0, 0] = specials[0]
        assert write_table_csv(data, "x") == self.per_element_table(data, "x")

    def test_panel_csv_is_metadata_then_table(self):
        panel = self.make_panel()
        first, rest = write_panel_csv(panel).split("\n", 1)
        assert first == "# delta=16.0 provenance=gaussian-average-proxy seed=99 path=2"
        assert rest == self.per_element_table(panel.data, "m")

    @pytest.mark.parametrize("old, new, message", [
        ("delta=16.0 ", "", "header has no delta= entry"),
        ("path=2", "path=2 stray", "header token 'stray' is not key=value"),
        ("seed=99", "seed=x", "header value seed='x' is not a valid int"),
    ], ids=["missing-key", "token-without-equals", "non-numeric-value"])
    def test_csv_malformed_header(self, old, new, message):
        text = write_panel_csv(self.make_panel())
        assert old in text.splitlines()[0]
        with pytest.raises(ValueError, match=message):
            read_panel_csv(text.replace(old, new, 1))


@st.composite
def panels(draw):
    """Any valid panel: finite values from subnormal to the largest double,
    plus -inf where the provenance admits it (a vanishing measure)."""
    provenance = draw(st.sampled_from(PROVENANCES))
    values = st.floats(allow_nan=False, allow_infinity=False)
    if provenance in ("logvol-measure", "market"):
        values = st.one_of(values, st.just(-math.inf))
    data = draw(arrays(np.float64, (draw(st.integers(1, 4)),
                                    draw(st.integers(2, 12))),
                       elements=values))
    return FieldPanel(
        data=data, provenance=provenance,
        delta=draw(st.floats(min_value=0.0, exclude_min=True,
                             allow_infinity=False)),
        seed=draw(st.integers(0, 2**63 - 1)),
        path=draw(st.integers(0, 2**32 - 1)))


@pytest.mark.parametrize("write, read", [
    (write_panel_csv, read_panel_csv),
    (write_panel_binary, read_panel_binary),
])
@given(panel=panels())
def test_panel_roundtrip_property(write, read, panel):
    back = read(write(panel))
    assert np.array_equal(back.data, panel.data)
    assert (back.delta, back.seed, back.provenance, back.path) == (
        panel.delta, panel.seed, panel.provenance, panel.path)


class TestIncrementCorrelationMonteCarlo:
    def test_rho_log_against_simulated_increments(self):
        from mlogsfbm import logvol_incr_corr
        t = 2**12
        params = small_params(t)
        agg = 64
        lag = 8  # in aggregated units
        panels, _ = simulate_field(params, t, 1.0, seed=71, n_paths=200)
        num, var0, var1 = [], [], []
        for p in panels:
            prox = field_to_gaussian_proxy(p, agg)
            d0 = prox.data[0, lag:] - prox.data[0, : prox.n - lag]
            d1 = prox.data[1, lag:] - prox.data[1, : prox.n - lag]
            num.append(float(np.mean(d0 * d1)))
            var0.append(float(np.mean(d0**2)))
            var1.append(float(np.mean(d1**2)))
        rho_hat = np.mean(num) / math.sqrt(np.mean(var0) * np.mean(var1))

        # exact correlation of the discrete block-mean increments
        grid_m = np.arange(-(agg - 1), agg)
        weights = (agg - np.abs(grid_m)) / agg**2

        def r_disc(i, j, k):
            lags = np.abs(k * agg + grid_m).astype(float)
            return float(np.dot(weights,
                                msfbm_cross_cov(lags, params.pair(i, j))))

        def incr_cov(i, j):
            return 2.0 * (r_disc(i, j, 0) - r_disc(i, j, lag))

        theory_disc = incr_cov(0, 1) / math.sqrt(incr_cov(0, 0) * incr_cov(1, 1))
        se = (np.std(num, ddof=1) / math.sqrt(len(num))
              / math.sqrt(np.mean(var0) * np.mean(var1)))
        assert abs(rho_hat - theory_disc) <= 3 * se, (rho_hat, theory_disc, se)
        # the continuous-block formula is the agg -> infinity limit; the
        # roughness cusp makes the approach slow (still ~8% at agg = 64)
        theory_cont = logvol_incr_corr(lag * float(agg), float(agg),
                                       params.pair(0, 1))
        assert theory_cont == pytest.approx(theory_disc, rel=0.12)


class TestSiaMomentMonteCarlo:
    def test_four_factor_moment_against_simulation(self):
        # two identical coupled pairs; the product of four block averages
        t = 256.0
        h = np.full((4, 4), 0.2)
        np.fill_diagonal(h, 0.05)
        g = 0.6
        corr = np.full((4, 4), g)
        np.fill_diagonal(corr, 1.0)
        xi = 0.05 * corr
        params = ModelParams(T=t, H=h, xi=xi)
        width = 8
        offsets = (0, 0, 16, 16)
        intervals = [(float(o), float(o + width)) for o in offsets]
        theory = sia_generalized_moment(intervals, params)

        panels, _ = simulate_field(params, 256, 1.0, seed=37, n_paths=300)
        span = max(o + width for o in offsets)
        per_path = []
        for panel in panels:
            # average the product over stationary translates within the path
            prods = []
            for start in range(0, panel.n - span, width):
                factors = [
                    panel.data[i, start + o:start + o + width].mean()
                    for i, o in enumerate(offsets)
                ]
                prods.append(np.prod(factors))
            per_path.append(float(np.mean(prods)))
        ok, mean, se = mc_band(per_path, theory)
        assert ok, f"four-factor moment {mean} vs {theory} (se {se})"


# ---------------------------------------------------------------------------
# threaded synthesis against the serial sampler
# ---------------------------------------------------------------------------
#
# The oracles are the factorisation as it stood before frequency chunks ran
# on worker threads, one whole-array ``eigh`` over all M/2 + 1 frequencies
# (``conftest.serial_spectral_factor``), which d >= 3 factors still equal
# byte for byte; at d = 2, one whole-array call of the closed-form root; the
# serial per-path loop of that time, which drew one path per Philox stream,
# kept here verbatim; and a serial full-spectrum synthesis in the layout of
# two paths per stream.

def per_path_field(params: ModelParams, n: int, delta: float, seed: int,
                   n_paths: int, first_path: int,
                   factor: SpectralFactor) -> list:
    """The sampler before two paths per stream, kept verbatim: path p is
    the Hermitian half of Philox stream (seed, p)."""
    m = factor.diagnostics.embedding_size
    scale = math.sqrt(m)
    panels = []
    for path in range(first_path, first_path + n_paths):
        rng = simulate._path_rng(seed, path)
        re = rng.standard_normal((m, params.d))
        im = rng.standard_normal((m, params.d))
        # (M/2 + 1, d, 2) real and imaginary parts, viewed as complex
        spectral = (factor.matrix @ hermitian_half(re, im)).view(complex)
        # each temporary is freed before the next is allocated; otherwise a
        # many-path call fragments the heap around the panels it keeps
        del re, im
        draws = np.fft.irfft(spectral[..., 0], n=m, axis=0)
        del spectral
        data = np.ascontiguousarray(draws[:n].T)
        del draws
        data *= scale
        panels.append(FieldPanel(data=data, delta=delta, seed=seed,
                                 provenance="gaussian-field", path=path))
    return panels


def serial_field(params: ModelParams, n: int, delta: float, seed: int,
                 n_paths: int, first_path: int,
                 factor: SpectralFactor) -> list:
    """Full-spectrum synthesis sqrt(M) ifft(F z) of Philox stream
    (seed, p // 2), path by path: its real part for an even path p, its
    imaginary part for an odd one."""
    m = factor.diagnostics.embedding_size
    full = np.concatenate([factor.matrix, factor.matrix[-2:0:-1]])
    panels = []
    for path in range(first_path, first_path + n_paths):
        rng = simulate._path_rng(seed, path // 2)
        z = rng.standard_normal((m, params.d)) + 1j * rng.standard_normal(
            (m, params.d))
        draws = np.fft.ifft(np.einsum("mij,mj->mi", full, z), axis=0)
        draws *= math.sqrt(m)
        part = draws.imag if path % 2 else draws.real
        panels.append(FieldPanel(data=np.ascontiguousarray(part[:n].T),
                                 delta=delta, seed=seed,
                                 provenance="gaussian-field", path=path))
    return panels


def equicorrelated_d5(n: int) -> ModelParams:
    """The CLI pipeline's model: every eigenvalue but one is repeated."""
    h = np.full((5, 5), 0.12)
    np.fill_diagonal(h, 0.02)
    xi = np.full((5, 5), 0.9 * 0.05)
    np.fill_diagonal(xi, 0.05)
    return ModelParams(T=float(n), H=h, xi=xi)


# name: (params, n, first_path); n = 2^14 has M/2 + 1 = 16385 frequencies,
# three chunks of which the last holds one frequency
THREAD_CASES = {
    "d2-n16384": (lambda: random_admissible(np.random.default_rng(3), 2),
                  2**14, 0),
    "d3-n1000-first2": (lambda: random_admissible(np.random.default_rng(8), 3,
                                                  T=700.0), 1000, 2),
    "d5-equicorrelated": (lambda: equicorrelated_d5(2**14), 2**14, 0),
}


class TestThreadedSynthesis:
    @pytest.mark.parametrize("workers", ["1", "2", "3"])
    @pytest.mark.parametrize("case", sorted(THREAD_CASES))
    def test_equals_the_serial_sampler(self, case, workers, monkeypatch):
        make, n, first_path = THREAD_CASES[case]
        params = make()
        monkeypatch.setenv("MSFBM_WORKERS", "1")
        if params.d == 2:
            expected = spectral_factor(params, n)
            whole, _ = closed_form_root(_spectral_matrices(params, n, 1.0)[1])
            assert np.array_equal(expected.matrix, whole)
        else:
            expected = serial_spectral_factor(params, n)
        expected_panels = serial_field(params, n, 1.0, seed=19, n_paths=4,
                                       first_path=first_path, factor=expected)
        one_worker, _ = simulate_field(params, n, 1.0, seed=19, n_paths=4,
                                       first_path=first_path, factor=expected)

        monkeypatch.setenv("MSFBM_WORKERS", workers)
        # frequent thread switches, to interleave the workers' writes
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            factor = spectral_factor(params, n)
            panels, _ = simulate_field(params, n, 1.0, seed=19, n_paths=4,
                                       first_path=first_path)
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(factor.matrix, expected.matrix)
        diag, want = factor.diagnostics, expected.diagnostics
        assert (diag.embedding_size, diag.clipped_mass, diag.flag) == (
            want.embedding_size, want.clipped_mass, want.flag)
        assert np.array_equal(diag.min_eigenvalues, want.min_eigenvalues)

        assert [p.path for p in panels] == list(range(first_path,
                                                      first_path + 4))
        for panel, alone, wanted in zip(panels, one_worker, expected_panels,
                                        strict=True):
            assert panel.path == alone.path == wanted.path
            assert np.array_equal(panel.data, alone.data)
            top = np.abs(wanted.data).max()
            assert np.abs(panel.data - wanted.data).max() <= 1e-12 * top

    def test_fan_out_runs_items_concurrently_in_order(self, monkeypatch):
        # two items meet at a barrier only if two threads run them at once
        monkeypatch.setenv("MSFBM_WORKERS", "2")
        barrier = threading.Barrier(2, timeout=30)

        def meet(x):
            barrier.wait()
            return x * x

        assert simulate.fan_out(meet, range(2)) == [0, 1]
        assert simulate.fan_out(lambda x: -x, range(7)) == [
            0, -1, -2, -3, -4, -5, -6]

    def test_one_item_runs_on_the_calling_thread(self, monkeypatch):
        monkeypatch.setenv("MSFBM_WORKERS", "3")
        caller = threading.get_ident()
        assert simulate.fan_out(lambda _: threading.get_ident(),
                                [None]) == [caller]

    def test_a_failed_path_reaches_the_caller(self, monkeypatch):
        monkeypatch.setenv("MSFBM_WORKERS", "2")
        original = simulate._path_rng

        def failing(seed, stream):
            if stream == 2:
                raise SimulationError("stream 2 (paths 4 and 5) failed")
            return original(seed, stream)

        monkeypatch.setattr(simulate, "_path_rng", failing)
        with pytest.raises(SimulationError, match="stream 2"):
            simulate_field(small_params(), 2**10, 1.0, seed=1, n_paths=6)
        with pytest.raises(SimulationError, match="stream 2"):
            simulate_field(small_params(), 2**10, 1.0, seed=1, first_path=5)
        panels, _ = simulate_field(small_params(), 2**10, 1.0, seed=1,
                                   n_paths=4)
        assert [p.path for p in panels] == [0, 1, 2, 3]

    def test_malformed_worker_count_fails(self, monkeypatch):
        monkeypatch.setenv("MSFBM_WORKERS", "two")
        with pytest.raises(ValueError, match="MSFBM_WORKERS='two'"):
            simulate_field(small_params(), 2**10, 1.0, seed=1)


# ---------------------------------------------------------------------------
# two paths per Philox stream
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def layout_case():
    """(params, n, factor) shared by the layout property's examples."""
    params = small_params(48.0)
    return params, 64, spectral_factor(params, 64)


class TestStreamLayout:
    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_even_path_equals_the_per_path_sampler(self, d):
        params = (equicorrelated_d5(1000) if d == 5 else
                  random_admissible(np.random.default_rng(d), d, T=700.0))
        factor = spectral_factor(params, 1000)
        panels, _ = simulate_field(params, 1000, 1.0, seed=23, n_paths=8,
                                   factor=factor)
        before = per_path_field(params, 1000, 1.0, seed=23, n_paths=4,
                                first_path=0, factor=factor)
        for j, old in enumerate(before):
            assert panels[2 * j].path == 2 * j
            assert np.array_equal(panels[2 * j].data, old.data)
        (odd,), _ = simulate_field(params, 1000, 1.0, seed=23, first_path=1,
                                   factor=factor)
        assert np.array_equal(odd.data, panels[1].data)
        assert not np.array_equal(odd.data, before[1].data)

    @given(first_path=st.integers(0, 9), n_paths=st.integers(1, 7))
    def test_property_batch_equals_paths_drawn_alone(self, layout_case,
                                                     first_path, n_paths):
        params, n, factor = layout_case
        batch, _ = simulate_field(params, n, 1.0, seed=3, n_paths=n_paths,
                                  first_path=first_path, factor=factor)
        assert [p.path for p in batch] == list(range(first_path,
                                                     first_path + n_paths))
        for panel in batch:
            (alone,), _ = simulate_field(params, n, 1.0, seed=3,
                                         first_path=panel.path, factor=factor)
            assert alone.path == panel.path
            assert np.array_equal(alone.data, panel.data)

    def test_partner_paths_are_independent_and_each_half_is_exact(self):
        n = 2**10
        params = small_params(float(n))
        pair = params.pair(0, 1)
        panels, _ = simulate_field(params, n, 1.0, seed=61, n_paths=2000)
        data = np.array([p.data for p in panels])  # (paths, d, n)
        even, odd = data[0::2], data[1::2]
        for a in range(2):
            for b in range(2):
                per_stream = np.mean(even[:, a] * odd[:, b], axis=1)
                ok, mean, se = mc_band(per_stream, 0.0)
                assert ok, f"partners {a}, {b}: {mean} (se {se})"
        for name, half in (("even", even), ("odd", odd)):
            for lag in (0, 1, 4):
                per_path = np.mean(half[:, 0, : n - lag] * half[:, 1, lag:],
                                   axis=1)
                theory = msfbm_cross_cov(float(lag), pair)
                ok, mean, se = mc_band(per_path, theory)
                assert ok, f"{name} lag {lag}: {mean} vs {theory} (se {se})"


# ---------------------------------------------------------------------------
# the closed-form d = 2 root against the eigh factor
# ---------------------------------------------------------------------------

def eigh_clipped(spectra: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(eigenvalues, V max(Lambda, 0) V^T) of each symmetric matrix."""
    vals, vecs = np.linalg.eigh(spectra)
    clipped = (vecs * np.clip(vals, 0.0, None)[:, None, :]) @ vecs.swapaxes(1, 2)
    return vals, clipped


def closed_form_root(spectra: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    root = spectra.copy()
    eigvals = np.empty(spectra.shape[:2])
    simulate._symmetric_root_2x2(root, eigvals)
    return root, eigvals


@st.composite
def d2_embedding_cases(draw):
    """d = 2 admissible sets, a log marginal at times, and boxed sequences
    whose spectra have clipped frequencies, from a trace to a refusal."""
    n = draw(st.integers(2, 300))
    delta = draw(st.floats(0.1, 4.0))
    m_max = draw(st.integers(1, 4 * n))
    params = random_admissible(np.random.default_rng(draw(st.integers(0, 2**32))),
                               2, T=(m_max + 0.5) * delta)
    if draw(st.booleans()):
        h = params.H.copy()
        h[0, 0] = 0.0
        params = ModelParams(T=params.T, H=h, xi=params.xi)
    eps = draw(st.sampled_from([0.0, 0.0, 1e-5, 1e-3, 0.1, 1.0]))
    return params, n, delta, eps


class TestClosedFormRoot:
    @given(d2_embedding_cases())
    def test_property_matches_the_eigh_factor(self, case):
        params, n, delta, eps = case
        with with_box(eps):
            m, spectra = _spectral_matrices(params, n, delta)
            factor, diag = factor_or_diagnostics(spectral_factor, params, n,
                                                 delta)
            _, want = factor_or_diagnostics(serial_spectral_factor, params, n,
                                            delta)
        top = np.abs(spectra).max()
        root, eigvals = closed_form_root(spectra)
        vals, clipped = eigh_clipped(spectra)
        assert np.array_equal(root, root.swapaxes(1, 2))
        assert np.abs(root @ root - clipped).max() <= 1e-12 * top
        assert np.abs(eigvals - vals).max() <= 1e-12 * top

        assert diag.embedding_size == want.embedding_size == m
        assert np.abs(diag.min_eigenvalues
                      - want.min_eigenvalues).max() <= 1e-12 * top
        assert diag.clipped_mass == pytest.approx(want.clipped_mass,
                                                  rel=1e-9, abs=1e-12)
        assert diag.flag == want.flag
        assert (factor is None) == (diag.clipped_mass > simulate.CLIP_APPROX)
        if factor is not None:
            assert np.array_equal(factor.matrix, root)

    @pytest.mark.parametrize("s, root, eigvals", [
        ([[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]], [0.0, 0.0]),
        ([[3.0, 0.0], [0.0, 3.0]], [[math.sqrt(3.0), 0.0], [0.0, math.sqrt(3.0)]],
         [3.0, 3.0]),
        ([[1.0, 2.0], [2.0, 4.0]],  # det = 0: S / sqrt(tr S)
         [[1 / math.sqrt(5.0), 2 / math.sqrt(5.0)],
          [2 / math.sqrt(5.0), 4 / math.sqrt(5.0)]], [0.0, 5.0]),
        ([[1.0, 2.0], [2.0, 1.0]],  # eigenvalue -1 clipped: sqrt(3) P+
         [[math.sqrt(0.75), math.sqrt(0.75)], [math.sqrt(0.75), math.sqrt(0.75)]],
         [-1.0, 3.0]),
        ([[-2.0, 0.0], [0.0, -2.0]], [[0.0, 0.0], [0.0, 0.0]], [-2.0, -2.0]),
    ], ids=["zero", "multiple-of-identity", "singular", "rank-one-clipped",
            "negative-definite"])
    def test_closed_cases(self, s, root, eigvals):
        spectra = np.array([s])
        got, got_vals = closed_form_root(spectra)
        assert np.abs(got[0] - np.array(root)).max() <= 4e-16 * max(
            1.0, np.abs(root).max())
        assert np.abs(got_vals[0] - np.array(eigvals)).max() <= 1e-15 * max(
            1.0, np.abs(eigvals).max())
        _, clipped = eigh_clipped(spectra)
        assert np.abs(got[0] @ got[0] - clipped[0]).max() <= 1e-12 * max(
            1.0, np.abs(spectra).max())


# ---------------------------------------------------------------------------
# pooled pair rows, per-chunk diagnostics and one array per stream against
# the code they replaced
# ---------------------------------------------------------------------------

class TestPooledFactor:
    @example(d=3, n=2**14, at_n_delta=True, delta=1.0, seed=5, eps=0.0,
             first_path=1, n_paths=3, workers="2")  # three eigh chunks
    @given(d=st.sampled_from([2, 3, 5]), n=st.integers(2, 600),
           at_n_delta=st.booleans(), delta=st.sampled_from([1.0, 0.5]),
           seed=st.integers(0, 2**32), eps=st.sampled_from([0.0, 0.0, 1e-3, 1.0]),
           first_path=st.integers(0, 5), n_paths=st.integers(1, 3),
           workers=st.sampled_from(["1", "2"]))
    def test_property_equals_the_whole_array_code_byte_for_byte(
            self, d, n, at_n_delta, delta, seed, eps, first_path, n_paths,
            workers):
        rng = np.random.default_rng(seed)
        if at_n_delta:
            T = n * delta
        else:  # a support of 1..n-1 lags
            T = (int(rng.integers(1, n)) + 0.5) * delta
        params = random_admissible(rng, d, T=T)
        with with_box(eps), mock.patch.dict(os.environ,
                                            {"MSFBM_WORKERS": workers}):
            m, spectra = _spectral_matrices(params, n, delta)
            m_old, gathered = gathered_spectral_matrices(params, n, delta)
            factor, diag = factor_or_diagnostics(spectral_factor, params, n,
                                                 delta)
            want, want_diag = factor_or_diagnostics(
                whole_array_spectral_factor, params, n, delta)
        assert m == m_old and spectra.shape == gathered.shape
        assert spectra.tobytes() == gathered.tobytes()
        assert (diag.embedding_size, diag.clipped_mass, diag.flag) == (
            want_diag.embedding_size, want_diag.clipped_mass, want_diag.flag)
        assert diag.min_eigenvalues.tobytes() == want_diag.min_eigenvalues.tobytes()
        assert (factor is None) == (want is None)
        if factor is None:
            return
        assert factor.matrix.tobytes() == want.matrix.tobytes()

        with mock.patch.dict(os.environ, {"MSFBM_WORKERS": workers}):
            panels, _ = simulate_field(params, n, delta, seed=seed,
                                       n_paths=n_paths, first_path=first_path,
                                       factor=factor)
            expected = two_half_field(params, n, delta, seed, n_paths,
                                      first_path, want)
        for panel, old in zip(panels, expected, strict=True):
            assert panel.path == old.path
            assert panel.data.tobytes() == old.data.tobytes()


class TestFactorMemory:
    """Traced allocations at d = 5, n = 2^16, T = n delta: the factorisation
    holds one (M/2 + 1, d, d) array, and a one-path draw about two (M, d)
    ones (the stream's half spectra and then its inverse FFT, beside one
    array of normals or the panel)."""

    n = 2**16

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_factor_peak_stays_near_the_factor(self, workers, monkeypatch):
        monkeypatch.setenv("MSFBM_WORKERS", workers)
        params = equicorrelated_d5(self.n)
        tracemalloc.start()
        try:
            factor = spectral_factor(params, self.n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.75 * factor.matrix.nbytes

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_one_path_allocates_about_two_path_arrays(self, workers,
                                                      monkeypatch):
        monkeypatch.setenv("MSFBM_WORKERS", workers)
        params = equicorrelated_d5(self.n)
        factor = spectral_factor(params, self.n)
        m = factor.diagnostics.embedding_size
        tracemalloc.start()
        try:
            (panel,), _ = simulate_field(params, self.n, seed=3,
                                         factor=factor)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert panel.data.shape == (params.d, self.n)
        assert peak <= 2.25 * m * params.d * 8
