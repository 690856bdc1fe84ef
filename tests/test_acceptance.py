"""Acceptance suite: one test per shipping criterion, each printing a
PASS/FAIL line with the measured numbers (run with ``pytest -s`` to see
them).  Tolerances are fixed here, not tuned at runtime."""

import json
import math
import time

import numpy as np
import pytest
import scipy.integrate as sint

from mlogsfbm import (
    ModelParams,
    PairParams,
    index_ratio_bound,
    integrated_cov,
    mrm_cross_cov_series,
    mrm_cross_cov_sia,
    msfbm_cross_cov,
    wick_moment,
)
from mlogsfbm.cli import main
from mlogsfbm.estimate import McConfig, mc_validate
from mlogsfbm.marketdata import OhlcBar, garman_klass
from mlogsfbm.simulate import (
    field_to_gaussian_proxy,
    field_to_measure,
    simulate_field,
    write_panel_csv,
)
from test_kernels import wick_oracle

T_FIG2 = float(2**14)


def fig2_params(h12=0.15, g=0.5):
    xi12 = g * 0.05
    return ModelParams(T=T_FIG2, H=[[0.02, h12], [h12, 0.02]],
                       xi=[[0.05, xi12], [xi12, 0.05]])


def report(criterion: str, passed: bool, detail: str):
    print(f"criterion {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, detail


class TestCriterion1:
    def test_diagonal_reduction(self):
        start = time.time()
        rng = np.random.default_rng(2024)
        worst = 0.0
        for _ in range(100):
            lam2 = rng.uniform(0.005, 0.3)
            h = rng.uniform(0.002, 0.498)
            t_scale = rng.uniform(10.0, 1e6)
            pair = PairParams.diagonal(lam2, h, t_scale)
            nu2_half = 0.5 * lam2 / (h * (1 - 2 * h))
            taus = np.linspace(0.0, t_scale, 50)
            got = msfbm_cross_cov(taus, pair)
            expected = nu2_half * (1 - (taus / t_scale) ** (2 * h))
            expected[taus >= t_scale] = 0.0
            scale = max(abs(nu2_half), 1.0)
            worst = max(worst, float(np.max(np.abs(got - expected))) / scale)
        elapsed = time.time() - start
        report("1", worst < 1e-12 and elapsed < 1.0,
               f"diagonal reduction worst rel error {worst:.2e}, "
               f"{elapsed:.2f}s (< 1s)")


def block_quadrature(pair, tau, delta, tol=3e-11):
    """2-D adaptive quadrature of the instantaneous kernel over the two
    blocks, iterated with a breakpoint wherever the lag-0 cusp crosses the
    inner integration range."""
    def inner(u):
        cusp = [u] if tau < u < tau + delta else None
        val, _ = sint.quad(lambda v: msfbm_cross_cov(abs(u - v), pair),
                           tau, tau + delta, points=cusp,
                           epsabs=tol, epsrel=tol, limit=200)
        return val

    val, _ = sint.quad(inner, 0.0, delta, epsabs=tol, epsrel=tol, limit=200)
    return val


class TestCriterion2:
    def test_quadrature_oracle(self):
        start = time.time()
        t_scale = 1000.0
        delta = 1.0
        worst = 0.0
        for hij in (0.05, 0.15, 0.3, 0.45):
            for frac in (0.25, 0.5, 0.75, 1.0):
                hbar = hij * frac
                pair = PairParams(g=0.7, H_ij=hij, lambda_i2=0.05,
                                  lambda_j2=0.05, H_i=hbar, H_j=hbar,
                                  T=t_scale)
                for ratio in (0.0, 1.0, 5.0, 50.0):
                    tau = ratio * delta
                    ref = block_quadrature(pair, tau, delta) / 0.05
                    got = integrated_cov(tau, delta, pair)
                    worst = max(worst, abs(got - ref) / abs(ref))
        elapsed = time.time() - start
        report("2", worst < 1e-8 and elapsed < 30.0,
               f"block covariance vs quadrature, worst rel error "
               f"{worst:.2e} over 64 grid points, {elapsed:.1f}s (< 30s)")


class TestCriterion3:
    def test_series_vs_quadrature_and_sia(self):
        start = time.time()
        t_scale = float(2**14)
        worst_series = 0.0
        points = []
        for hij, hbar_frac in ((0.05, 0.4), (0.15, 0.13), (0.25, 0.8),
                               (0.4, 0.5), (0.45, 1.0)):
            for g, tau, delta in ((0.5, 4.0, 1.0), (-0.99, 6.0, 1.0),
                                  (0.9, 40.0, 8.0), (0.25, 16.0, 2.0)):
                points.append((hij, hij * hbar_frac, g, tau, delta))
        assert len(points) == 20
        for hij, hbar, g, tau, delta in points:
            pair = PairParams(g=g, H_ij=hij, lambda_i2=0.05, lambda_j2=0.05,
                              H_i=hbar, H_j=hbar, T=t_scale)
            ref, _ = sint.dblquad(
                lambda v, u: math.exp(msfbm_cross_cov(abs(u - v), pair)),
                0.0, delta, tau, tau + delta, epsabs=1e-12, epsrel=1e-11)
            got = mrm_cross_cov_series(tau, delta, pair)
            assert got.converged
            worst_series = max(worst_series, abs(got.value - ref) / abs(ref))
        worst_sia = 0.0
        for hij, hbar, g, tau, delta in points:
            pair = PairParams(g=g, H_ij=hij, lambda_i2=0.005, lambda_j2=0.005,
                              H_i=hbar, H_j=hbar, T=t_scale)
            series = mrm_cross_cov_series(tau, delta, pair).value
            sia = mrm_cross_cov_sia(tau, delta, pair)
            worst_sia = max(worst_sia, abs(sia - series) / abs(series))
        elapsed = time.time() - start
        report("3", worst_series < 1e-8 and worst_sia < 1e-3 and elapsed < 60.0,
               f"measure moment: series vs quadrature {worst_series:.2e}, "
               f"first-order vs series {worst_sia:.2e} at small amplitude, "
               f"{elapsed:.1f}s (< 60s)")


class TestCriterion4:
    def test_simulation_fidelity(self):
        start = time.time()
        params = fig2_params()
        pair = params.pair(0, 1)
        n = 2**14
        panels, diag = simulate_field(params, n, 1.0, seed=404, n_paths=100)
        assert diag.clipped_mass == 0.0
        lags = (0, 1, 2, 4, 8, 16, 32, 64)
        hits = 0
        details = []
        for lag in lags:
            # fields are centered by construction: plain product averages
            per_path = np.array([
                float(np.mean(p.data[0, : n - lag] * p.data[1, lag:]))
                for p in panels
            ])
            theory = msfbm_cross_cov(float(lag), pair)
            se = per_path.std(ddof=1) / math.sqrt(len(per_path))
            z = abs(per_path.mean() - theory) / se
            hits += int(z <= 3.0)
            details.append(f"lag {lag}: z={z:.2f}")
        elapsed = time.time() - start
        report("4", hits >= 7 and elapsed < 120.0,
               f"cross covariance within 3 SE at {hits}/8 lags "
               f"({'; '.join(details)}), {elapsed:.1f}s (< 2min)")


@pytest.fixture(scope="module")
def recovery_runs():
    """The two-marginal recovery experiments at desk scale: 50 replicas of
    N = 2^14 observations each (aggregation 16, T = 2^14).  The
    (H12 = 0.15, g = 0.5) configuration serves both sub-criteria."""
    runs = {}
    start = time.time()
    for key, h12, g, seed in (("H0.02", 0.02, 0.5, 101),
                              ("H0.15", 0.15, 0.5, 102),
                              ("g-0.5", 0.15, -0.5, 104),
                              ("g-0.99", 0.15, -0.99, 105)):
        cfg = McConfig(params=fig2_params(h12, g), n_list=(2**14,),
                       replicas=50, seed=seed, agg=16)
        runs[key] = mc_validate(cfg).runs[0]
    runs["elapsed"] = time.time() - start
    return runs


class TestCriterion5:
    def test_co_hurst_recovery(self, recovery_runs):
        details = []
        ok = True
        for key, h12 in (("H0.02", 0.02), ("H0.15", 0.15)):
            mean = recovery_runs[key].means()["H_01"]
            ok = ok and abs(mean - h12) <= 0.02
            details.append(f"H12={h12}: mean {mean:+.4f}")
        report("5a", ok, f"{'; '.join(details)} (tolerance +-0.02)")

    def test_correlation_recovery(self, recovery_runs):
        details = []
        ok = True
        for key, g in (("H0.15", 0.5), ("g-0.5", -0.5), ("g-0.99", -0.99)):
            mean = recovery_runs[key].means()["g_01"]
            ok = ok and abs(mean - g) <= 0.05
            details.append(f"g={g}: mean {mean:+.4f}")
        elapsed = recovery_runs["elapsed"]
        report("5b", ok and elapsed < 1200.0,
               f"{'; '.join(details)} (tolerance +-0.05), "
               f"all four experiments in {elapsed:.0f}s (< 20min)")


class TestCriterion6:
    def test_error_scaling_slopes(self):
        start = time.time()
        # aggregation 64 keeps every size in the multi-epoch regime
        cfg = McConfig(params=fig2_params(), n_list=(2**10, 2**12, 2**14),
                       replicas=30, seed=42, agg=64)
        rep = mc_validate(cfg)
        slope_h = rep.slopes["H_01"]
        slope_g = rep.slopes["g_01"]
        ok = -0.65 <= slope_h <= -0.35 and -0.65 <= slope_g <= -0.35
        elapsed = time.time() - start
        report("6", ok and elapsed < 1800.0,
               f"ln(std) vs ln(N) slopes: H12 {slope_h:.3f}, g {slope_g:.3f} "
               f"(band [-0.65, -0.35]), {elapsed:.0f}s (< 30min)")


class TestCriterion7:
    def test_wick_against_enumeration(self):
        rng = np.random.default_rng(7)
        worst = 0.0
        for n in (2, 4, 6, 8):
            for _ in range(50):
                a = rng.standard_normal((n, n + 2))
                cov = a @ a.T
                got = wick_moment(cov)
                ref = wick_oracle(cov)
                worst = max(worst, abs(got - ref) / max(1.0, abs(ref)))
        odd_ok = all(
            wick_moment(np.eye(n) + 0.1) == 0.0 for n in (3, 5, 7, 9))
        report("7", worst < 1e-12 and odd_ok,
               f"pairing enumeration agreement {worst:.2e} over n in "
               f"{{2,4,6,8}} x 50 matrices; odd orders exactly 0")


class TestCriterion8:
    def test_small_amplitude_measure_covariance(self):
        start = time.time()
        lam2 = 0.005
        g = 0.5
        params = ModelParams(T=T_FIG2, H=[[0.02, 0.15], [0.15, 0.02]],
                             xi=[[lam2, g * lam2], [g * lam2, lam2]])
        pair = params.pair(0, 1)
        agg = 16
        n = 2**14
        n_paths = 300
        panels, _ = simulate_field(params, n, 1.0, seed=808, n_paths=n_paths)
        measures = [field_to_measure(p, params, agg) for p in panels]
        xs = np.array([m.data[0] for m in measures])
        ys = np.array([m.data[1] for m in measures])
        # grand means over (paths, time): demeaning bias is O(1/paths)
        xs = xs - xs.mean()
        ys = ys - ys.mean()
        n_panel = xs.shape[1]
        delta = float(agg)
        ok = True
        details = []
        for lag in (1, 2, 4, 8, 16):
            per_path = np.mean(xs[:, : n_panel - lag] * ys[:, lag:], axis=1)
            theory = lam2 * integrated_cov(lag * delta, delta, pair) / delta**2
            se = per_path.std(ddof=1) / math.sqrt(n_paths)
            z = abs(per_path.mean() - theory) / se
            ok = ok and z <= 3.0
            details.append(f"lag {lag}: z={z:.2f}")
        elapsed = time.time() - start
        report("8", ok and elapsed < 300.0,
               f"measure log covariance vs small-amplitude theory at 5 lags "
               f"({'; '.join(details)}), {elapsed:.0f}s (< 5min)")


class TestCriterion9:
    def test_index_ratio_bound_near_two_d(self):
        h = 0.15
        details = []
        ok = True
        t_scale = float(2**14)
        tau = t_scale * (1.0 - 1e-9)  # the slow-decay regime (tau/T)^2H ~ 1
        for d in (10, 100):
            rb = index_ratio_bound(h, 0.0, tau / 5.0, tau, t_scale, d)
            rel = abs(rb.limit - 2 * d) / (2 * d)
            ok = ok and rel <= 0.10
            details.append(f"d={d}: bound {rb.limit:.2f} vs {2*d} "
                           f"({rel:.1%})")
        report("9", ok, "; ".join(details))


class TestCriterion10:
    def test_garman_klass_properties(self):
        rng = np.random.default_rng(10)
        n_bars = 100_000
        o, c = rng.uniform(1.0, 300.0, size=(2, n_bars))
        h = np.maximum(o, c) * np.exp(rng.uniform(0.0, 0.25, n_bars))
        l = np.minimum(o, c) * np.exp(-rng.uniform(0.0, 0.25, n_bars))
        scales = rng.uniform(0.01, 100.0, n_bars)
        import datetime as dt
        date = dt.date(2020, 1, 2)
        worst_scale = 0.0
        non_negative = True
        for i in range(n_bars):
            bar = OhlcBar(date, o[i], h[i], l[i], c[i])
            value = garman_klass(bar)
            non_negative = non_negative and value >= 0.0
            s = scales[i]
            scaled = garman_klass(OhlcBar(date, o[i] * s, h[i] * s,
                                          l[i] * s, c[i] * s))
            worst_scale = max(worst_scale,
                              abs(value - scaled) / max(1.0, abs(value)))
        range_only = garman_klass(OhlcBar(date, 100.0, 110.0, 90.0, 100.0))
        trend = garman_klass(OhlcBar(date, 100.0, 105.0, 100.0, 105.0))
        expect_range = 0.5 * math.log(11.0 / 9.0) ** 2
        expect_trend = (0.5 - (2 * math.log(2) - 1)) * math.log(1.05) ** 2
        hand_ok = (abs(range_only - expect_range) < 1e-9
                   and abs(trend - expect_trend) < 1e-9)
        report("10", non_negative and worst_scale < 1e-14 and hand_ok,
               f"non-negative on {n_bars} random bars, scale invariance "
               f"{worst_scale:.2e}, hand values to 1e-9")


class TestCriterion11:
    def test_synthetic_panel_pipeline(self, tmp_path):
        start = time.time()
        d = 5
        h_true, h_cross, g_true, lam2 = 0.02, 0.12, 0.9, 0.05
        h = np.full((d, d), h_cross)
        np.fill_diagonal(h, h_true)
        corr = np.full((d, d), g_true)
        np.fill_diagonal(corr, 1.0)
        params = ModelParams(T=T_FIG2, H=h, xi=lam2 * corr)
        agg = 16
        n_field = 2**14 * agg
        panels, _ = simulate_field(params, n_field, 1.0, seed=1111, n_paths=1)
        proxy = field_to_gaussian_proxy(panels[0], agg)
        panel_path = tmp_path / "panel.csv"
        panel_path.write_text(write_panel_csv(proxy))
        out = tmp_path / "cal"
        code = main(["calibrate", "--panel", str(panel_path),
                     "--T", repr(T_FIG2), "--out", str(out)])
        doc = json.loads((out / "params_estimate.json").read_text())
        h_mat = np.array(doc["H"], dtype=float)
        g_mat = np.array(doc["g"], dtype=float)
        off = ~np.eye(d, dtype=bool)
        mean_h_diag = float(np.mean(np.diag(h_mat)))
        mean_h_cross = float(np.mean(h_mat[off]))
        mean_g = float(np.mean(g_mat[off]))
        ok = (code == 0
              and abs(mean_h_diag - h_true) <= 0.02
              and abs(mean_h_cross - h_cross) <= 0.02
              and abs(mean_g - g_true) <= 0.05)
        elapsed = time.time() - start
        report("11", ok,
               f"5-asset pipeline: mean H_ii {mean_h_diag:+.4f} (true "
               f"{h_true}), mean H_ij {mean_h_cross:+.4f} (true {h_cross}), "
               f"mean g {mean_g:+.4f} (true {g_true}), exit {code}, "
               f"{elapsed:.0f}s")
