import gc
import math
import weakref
from fractions import Fraction
from typing import Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlogsfbm import CovCurve, ModelParams, PairParams, integrated_cov
from mlogsfbm.estimate import (
    CalibrationError,
    LagGrid,
    McConfig,
    McValidationError,
    ZeroVarianceError,
    _AMP_FLOOR,
    _ProfileOutcome,
    _curve_map,
    _profiled_minimize,
    calibrate_pair,
    calibrate_panel,
    calibrate_univariate,
    d_statistic,
    default_workers,
    empirical_cross_cov,
    mc_validate,
)
from mlogsfbm.kernels import block_cov_sequence, block_support
from mlogsfbm.simulate import (
    FieldPanel,
    field_to_gaussian_proxy,
    simulate_field,
    spectral_factor,
)


class TestLagGrid:
    def test_default_grid_values(self):
        grid = LagGrid.default()
        assert grid.Q == 19
        assert grid.taus[:8] == (1, 2, 4, 5, 8, 11, 16, 22)
        assert grid.taus[-1] == 724
        # duplicates from floor(sqrt(2^k)) removed: 20 raw values, 18 kept
        assert len(grid.taus) == 18

    def test_restrict(self):
        grid = LagGrid.default().restrict(100)
        assert grid.taus[-1] == 90
        with pytest.raises(CalibrationError):
            LagGrid.default().restrict(1)

    def test_invariants(self):
        with pytest.raises(ValueError):
            LagGrid(Q=2, taus=(1, 1, 2))
        with pytest.raises(ValueError):
            LagGrid(Q=2, taus=(0, 1))


class TestEmpiricalCrossCov:
    def test_constant_series_gives_zero(self):
        grid = LagGrid(Q=3, taus=(1, 2, 4))
        x = np.full(64, 3.7)
        curve = empirical_cross_cov(x, x, grid, include_zero=True)
        assert np.allclose(curve.values, 0.0)

    def test_lag_zero_is_biased_sample_variance(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(257)
        grid = LagGrid(Q=1, taus=(1,))
        curve = empirical_cross_cov(x, x, grid, include_zero=True)
        assert curve.values[0] == pytest.approx(float(np.var(x)), rel=1e-12)

    def test_shift_invariance(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(300)
        y = rng.standard_normal(300)
        grid = LagGrid(Q=3, taus=(1, 4, 16))
        base = empirical_cross_cov(x, y, grid).values
        shifted = empirical_cross_cov(x + 17.3, y - 5.1, grid).values
        assert np.allclose(shifted, base, rtol=0, atol=1e-12)

    def test_scaling_equivariance_exact_for_power_of_two(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(200)
        y = rng.standard_normal(200)
        grid = LagGrid(Q=2, taus=(1, 8))
        base = empirical_cross_cov(x, y, grid).values
        scaled = empirical_cross_cov(4.0 * x, 4.0 * y, grid).values
        assert np.array_equal(scaled, 16.0 * base)

    def test_directional(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal(128)
        y = np.roll(x, 1)
        grid = LagGrid(Q=1, taus=(1,))
        fwd = empirical_cross_cov(x, y, grid).values[0]
        bwd = empirical_cross_cov(y, x, grid).values[0]
        assert fwd != bwd

    def test_white_noise_bound(self):
        n = 2**14
        grid = LagGrid.default()
        bound = 4.0 / math.sqrt(n)
        hits = 0
        total = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            x = rng.standard_normal(n)
            y = rng.standard_normal(n)
            vals = empirical_cross_cov(x, y, grid).values
            hits += int(np.sum(np.abs(vals) <= bound))
            total += vals.size
        assert hits / total >= 0.99

    def test_matches_blas_dot_form(self):
        # the lag sums are einsums; np.dot gives the same sums up to
        # summation order, relative to the sum of |products|
        rng = np.random.default_rng(6)
        n = 2**14
        x = np.cumsum(rng.standard_normal(n)) * 0.01 + rng.standard_normal(n)
        y = np.roll(x, 3) + rng.standard_normal(n)
        mask = rng.random(n) > 0.1
        grid = LagGrid.default()
        got = empirical_cross_cov(x, y, grid, include_zero=True,
                                  mask_x=mask, mask_y=mask).values
        xc = np.where(mask, x - x[mask].mean(), 0.0)
        yc = np.where(mask, y - y[mask].mean(), 0.0)
        for value, k in zip(got, (0,) + grid.taus):
            ref = float(np.dot(xc[: n - k], yc[k:])) / n
            scale = float(np.dot(np.abs(xc[: n - k]), np.abs(yc[k:]))) / n
            assert abs(value - ref) <= 1e-13 * scale

    def test_lag_exceeding_length(self):
        grid = LagGrid(Q=1, taus=(50,))
        with pytest.raises(ValueError):
            empirical_cross_cov(np.zeros(50), np.zeros(50), grid)

    def test_mask_excludes_entries(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(100)
        x_spiked = x.copy()
        x_spiked[10] = 1e6
        mask = np.ones(100, bool)
        mask[10] = False
        grid = LagGrid(Q=1, taus=(1,))
        clean = empirical_cross_cov(x, x, grid).values[0]
        masked = empirical_cross_cov(x_spiked, x_spiked, grid,
                                     mask_x=mask, mask_y=mask).values[0]
        assert abs(masked - clean) < 0.1 * abs(clean) + 0.05

    def test_short_mask_rejected(self):
        x = np.random.default_rng(5).standard_normal(64)
        grid = LagGrid(Q=1, taus=(1,))
        with pytest.raises(ValueError, match=r"mask_y shape \(63,\) .* \(64,\)"):
            empirical_cross_cov(x, x, grid, mask_y=np.ones(63, bool))

    def test_two_dimensional_mask_rejected(self):
        x = np.random.default_rng(5).standard_normal(64)
        grid = LagGrid(Q=1, taus=(1,))
        with pytest.raises(ValueError,
                           match=r"mask_x shape \(2, 64\) .* \(64,\)"):
            empirical_cross_cov(x, x, grid, mask_x=np.ones((2, 64), bool))


class TestDStatistic:
    def test_constant_curve(self):
        curve = CovCurve(np.array([0.0, 1.0, 2.0]), np.full(3, 0.7))
        assert np.allclose(d_statistic(curve).values, 0.0)

    def test_arithmetic(self):
        curve = CovCurve(np.array([0.0, 1.0, 2.0]), np.array([1.0, 0.4, 0.1]))
        assert np.allclose(d_statistic(curve).values, [0.0, -0.6, -0.9])

    def test_matches_kernel_difference(self, fig2_pair):
        lags = np.array([0.0, 1.0, 4.0, 16.0])
        vals = integrated_cov(lags, 1.0, fig2_pair)
        curve = CovCurve(lags, vals)
        expected = vals - vals[0]
        assert np.allclose(d_statistic(curve).values, expected, rtol=1e-14)

    def test_requires_lag_zero(self):
        curve = CovCurve(np.array([1.0, 2.0]), np.array([0.4, 0.1]))
        with pytest.raises(ValueError):
            d_statistic(curve)


def _expected_curve(r: np.ndarray, n: int, lags: Sequence[int]) -> np.ndarray:
    """Exact finite-sample expectation of ``empirical_cross_cov`` under a
    model with (symmetric) cross-covariance sequence r(tau), tau = 0..n-1."""
    r = np.asarray(r, dtype=float)
    prefix = np.concatenate([[0.0], np.cumsum(r)])  # prefix[m] = sum r[0:m]

    def psum(m):
        # sum_{tau=0..m} r(tau), clipped to the available range
        return prefix[np.clip(m + 1, 0, n)]

    l = np.arange(1, n + 1)
    h = (psum(n - l) + psum(l - 1) - r[0]) / n  # E[x_l * mean(y)]
    hsum = np.concatenate([[0.0], np.cumsum(h)])
    tau = np.arange(1, n)
    vbar = (r[0] + 2.0 * np.sum((1.0 - tau / n) * r[1:])) / n
    out = np.empty(len(lags))
    for pos, k in enumerate(lags):
        cross = hsum[n - k] + (hsum[n] - hsum[k])
        out[pos] = (n - k) / n * (r[k] + vbar) - cross / n
    return out


def _toeplitz_expectation(r: np.ndarray, n: int) -> np.ndarray:
    """E[empirical_cross_cov(x, y)] at every lag 0..n-1 from first
    principles: the estimator is bilinear, x^T B_k y, with B_k[a, b] its
    value on the unit vectors (e_a, e_b), so its expectation is
    sum_ab B_k[a, b] cov(x_a, y_b), and cov(x_a, y_b) = r(|a - b|)."""
    grid = LagGrid(Q=n, taus=tuple(range(1, n)))
    basis = np.eye(n)
    out = np.zeros(n)
    for a in range(n):
        for b in range(n):
            c = empirical_cross_cov(basis[a], basis[b], grid,
                                    include_zero=True).values
            out += c * r[abs(a - b)]
    return out


def assert_close_to_largest(got, want, rtol=1e-13):
    scale = float(np.max(np.abs(want), initial=0.0))
    assert np.max(np.abs(got - want), initial=0.0) <= rtol * scale


def _sequence(n, support, seed):
    r = np.zeros(n)
    r[:support] = np.random.default_rng(seed).standard_normal(support)
    return r


class TestExpectedCurveOracle:
    """The exact expectation the moment conditions match, kept as the
    prefix-sum routine the estimator used before its linear map; checked
    here against the definition of ``empirical_cross_cov``."""

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 16), support=st.integers(0, 16),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_toeplitz_expectation(self, n, support, seed):
        r = _sequence(n, min(support, n), seed)
        assert_close_to_largest(_expected_curve(r, n, range(n)),
                                _toeplitz_expectation(r, n))

    def test_white_noise_by_hand(self):
        # unit white noise: E[(x_l - mean)(x_m - mean)] = [l=m] - 1/n, so
        # E Chat(0) = (n-1)/n and E Chat(k) = -(n-k)/n^2
        n = 7
        r = np.eye(1, n)[0]
        k = np.arange(n)
        want = np.where(k == 0, (n - 1) / n, -(n - k) / n**2)
        assert_close_to_largest(_toeplitz_expectation(r, n), want, 1e-15)
        assert_close_to_largest(_expected_curve(r, n, k), want, 1e-15)


def _exact_expectation(r: np.ndarray, n: int, lags) -> np.ndarray:
    """E Chat(k) in rational arithmetic, from the definition:
    E[(x_a - mean)(y_b - mean)] = r(|a-b|) - s_a/n - s_b/n + sum(s)/n^2,
    with s_a = sum_c r(|a-c|)."""
    rf = [Fraction(float(v)) for v in r]
    row = [sum(rf[abs(a - c)] for c in range(n)) for a in range(n)]
    total = sum(row)
    return np.array([float(sum(
        rf[k] - (row[l] + row[l + k]) / n + total / n**2
        for l in range(n - k)) / n) for k in lags])


@st.composite
def curve_map_cases(draw, max_n=400):
    n = draw(st.integers(1, max_n))
    lags = sorted(draw(st.lists(st.integers(0, n - 1), min_size=1,
                                max_size=20, unique=True)))
    support = n if draw(st.booleans()) else draw(st.integers(0, n))
    return n, lags, support, draw(st.integers(0, 2**32 - 1))


class TestCurveMap:
    """``_curve_map`` against the oracle: A @ r[:M] is the model curve."""

    @settings(max_examples=300, deadline=None)
    @given(curve_map_cases(), st.booleans())
    def test_property_matches_oracle(self, case, adjust):
        # the scale is the curve's largest entry over every lag: where the
        # drawn lags lie past the support they see only the sample-mean
        # bias, and there the oracle's prefix sums lose digits against
        # that scale (up to 7e-13 of the drawn lags' own largest entry in
        # 20 000 random cases; the map stays within 1.5e-14 of the exact
        # value, see test_property_matches_exact_rationals)
        n, lags, support, seed = case
        r = _sequence(n, support, seed)
        curve_map = _curve_map(n, lags, support, adjust)
        assert curve_map.shape == (len(lags), support)
        if adjust:
            curve = _expected_curve(r, n, range(n))
        else:
            curve = r
        got = curve_map @ r[:support]
        scale = float(np.max(np.abs(curve)))
        assert np.max(np.abs(got - curve[lags])) <= 1e-13 * scale

    @settings(max_examples=60, deadline=None)
    @given(curve_map_cases(max_n=40))
    def test_property_matches_exact_rationals(self, case):
        n, lags, support, seed = case
        r = _sequence(n, support, seed)
        assert_close_to_largest(_curve_map(n, lags, support, True)
                                @ r[:support],
                                _exact_expectation(r, n, lags))

    @pytest.mark.parametrize("t_over_delta", [1024, 2**14],
                             ids=["T-1024-delta", "T-N-delta"])
    def test_fixed_shapes_match_oracle(self, t_over_delta):
        n, delta = 2**14, 16.0
        taus = LagGrid.default().restrict(
            min(n, t_over_delta - 1)).taus
        support = block_support(n, delta, t_over_delta * delta)
        curve_map = _curve_map(n, taus, support, True)
        for hij, h_bar in ((0.02, 0.02), (0.15, 0.02), (0.25, 0.25)):
            r = 0.05 * block_cov_sequence(n, delta, hij, h_bar,
                                          t_over_delta * delta)
            assert_close_to_largest(curve_map @ r[:support],
                                    _expected_curve(r, n, taus))

    def test_without_adjustment_selects_the_lags(self):
        curve_map = _curve_map(50, (1, 2, 4, 8, 49), 40, False)
        r = np.arange(40.0) + 1.0
        assert np.array_equal(curve_map @ r, [2.0, 3.0, 5.0, 9.0, 0.0])


class TestCurveMapBuilds:
    """One map per fit, or per T in the free-scale search: a per-evaluation
    rebuild costs about as much as a hundred evaluations at T = N delta."""

    @staticmethod
    def _count(monkeypatch):
        import mlogsfbm.estimate as est
        built = []

        def counting(*args):
            built.append(args)
            return _curve_map(*args)

        monkeypatch.setattr(est, "_curve_map", counting)
        return built

    @staticmethod
    def _series():
        rng = np.random.default_rng(11)
        return rng.standard_normal((2, 2048)).cumsum(axis=1) * 0.01

    def test_pair_builds_once(self, monkeypatch):
        built = self._count(monkeypatch)
        x, y = self._series()
        res = calibrate_pair(x, y, 0.05, 0.05, 0.02, 0.02, 1.0, T=1024.0)
        assert len(built) == 1
        assert res.iterations > 20

    def test_univariate_fixed_scale_builds_once(self, monkeypatch):
        built = self._count(monkeypatch)
        calibrate_univariate(self._series()[0], 1.0, fix_T=1024.0)
        assert len(built) == 1

    def test_univariate_free_scale_builds_once_per_scale(self, monkeypatch):
        built = self._count(monkeypatch)
        x = self._series()[0]
        free = calibrate_univariate(x, 1.0, t_max=4 * 2048.0)
        outer = len(built) - 1  # the last build is the fit at the chosen T
        built.clear()
        fixed = calibrate_univariate(x, 1.0, fix_T=free.params["T"])
        assert len(built) == 1
        # iterations count the outer evaluations on top of the fit's own
        assert outer == free.iterations - fixed.iterations >= 2


class TestProfiledReduction:
    """With a curve that does not depend on the roughness the profiled
    search is weighted least squares in the amplitude."""

    @staticmethod
    def _case():
        b = np.array([1.0, 0.5, 0.25, 0.125])
        observed = np.array([2.1, 0.9, 0.6, 0.2])
        weight = np.array([[4.0, 1.0, -0.5, 0.2],
                           [1.0, 3.0, 0.8, -0.3],
                           [-0.5, 0.8, 2.0, 0.4],
                           [0.2, -0.3, 0.4, 1.5]])
        assert np.linalg.eigvalsh(weight).min() > 0
        assert not np.allclose(weight, np.diag(np.diag(weight)))
        wls = float(b @ weight @ observed) / float(b @ weight @ b)
        return b, observed, weight, wls

    def test_reduces_to_weighted_least_squares(self):
        b, observed, weight, wls = self._case()
        out = _profiled_minimize(observed, lambda h: b, weight, 0.1, 0.4,
                                 -10.0, 10.0)
        assert out.amp == pytest.approx(wls, rel=1e-12)
        assert out.converged and not out.amp_at_bound

    @pytest.mark.parametrize("side", ["below", "above"])
    def test_clipped_to_the_amplitude_box(self, side):
        b, observed, weight, wls = self._case()
        lo, hi = (wls + 1.0, wls + 2.0) if side == "below" else \
            (wls - 2.0, wls - 1.0)
        out = _profiled_minimize(observed, lambda h: b, weight, 0.1, 0.4,
                                 lo, hi)
        assert out.amp == (lo if side == "below" else hi)
        assert out.amp_at_bound


# the non-default options the README documents, each on the profiled path
ALTERNATIVES = ({"finite_sample_adjust": False},)
ALTERNATIVE_IDS = ("no-finite-sample-adjust",)


@pytest.fixture(scope="module")
def smooth_panels():
    """Shared simulated panels: H = 0.25, lambda^2 = 0.06, 12 paths."""
    params = ModelParams(T=2**12, H=[[0.25]], xi=[[0.06]])
    panels, _ = simulate_field(params, 2**16, 1.0, seed=14, n_paths=12)
    return params, [field_to_gaussian_proxy(p, params, 16) for p in panels]


class TestCalibrateUnivariate:
    def test_smooth_case_recovers_amplitude_and_roughness(self, smooth_panels):
        params, proxies = smooth_panels
        lam2s, hs = [], []
        for prox in proxies:
            res = calibrate_univariate(prox.data[0], prox.delta,
                                       fix_T=params.T)
            assert res.converged
            lam2s.append(res.params["lambda2"])
            hs.append(res.params["H"])
        assert np.mean(lam2s) == pytest.approx(0.06, rel=0.10)
        assert np.mean(hs) == pytest.approx(0.25, abs=0.05)

    def test_zero_variance_rejected(self):
        with pytest.raises(ZeroVarianceError):
            calibrate_univariate(np.full(512, 1.0), 1.0, fix_T=512.0)

    def test_amplitude_at_bound_is_a_note_not_a_failure(self):
        # differenced white noise has a negative lag-1 autocovariance that
        # no positive amplitude fits, so the amplitude ends at its floor;
        # as with the pair's correlation bound, converged reports the
        # optimiser alone
        e = np.random.default_rng(3).standard_normal(2049)
        res = calibrate_univariate(np.diff(e), 1.0, fix_T=2048.0)
        assert res.params["lambda2"] == _AMP_FLOOR
        assert "amplitude-at-bound" in res.notes
        assert res.converged

    def test_estimates_inside_boxes(self, smooth_panels):
        params, proxies = smooth_panels
        res = calibrate_univariate(proxies[0].data[0], proxies[0].delta,
                                   fix_T=params.T)
        assert 0.0 < res.params["H"] < 0.5
        assert res.params["lambda2"] > 0

    def test_free_scale_stays_in_box(self, smooth_panels):
        # the free scale is an outer search over T; the fit at its T-hat is
        # the fixed-scale fit there
        params, proxies = smooth_panels
        prox = proxies[0]
        free = calibrate_univariate(prox.data[0], prox.delta, fix_T=None,
                                    t_max=8.0 * prox.n * prox.delta)
        floor = prox.n * prox.delta
        t_hat = free.params["T"]
        assert floor <= t_hat <= 8.0 * floor
        fixed = calibrate_univariate(prox.data[0], prox.delta, fix_T=t_hat)
        assert free.params == fixed.params
        assert free.objective == fixed.objective
        assert free.converged == fixed.converged
        assert free.notes == fixed.notes
        assert free.iterations > fixed.iterations

    @pytest.mark.parametrize("options", ALTERNATIVES, ids=ALTERNATIVE_IDS)
    def test_profiled_alternatives_agree_roughly(self, smooth_panels,
                                                 options):
        params, proxies = smooth_panels
        for prox in proxies:
            a = calibrate_univariate(prox.data[0], prox.delta, fix_T=params.T)
            b = calibrate_univariate(prox.data[0], prox.delta, fix_T=params.T,
                                     **options)
            assert b.converged
            assert 0.0 < b.params["H"] < 0.5 and b.params["lambda2"] > 0.0
            assert b.params["H"] == pytest.approx(a.params["H"], abs=0.08)
            assert b.params["lambda2"] == pytest.approx(a.params["lambda2"],
                                                        rel=0.5)

    def test_objective_non_negative(self, smooth_panels):
        params, proxies = smooth_panels
        res = calibrate_univariate(proxies[1].data[0], proxies[1].delta,
                                   fix_T=params.T)
        assert res.objective >= 0.0
        assert len(res.residuals) == len(res.residuals.lags)


@pytest.fixture(scope="module")
def fig2_proxy_panels():
    params = ModelParams(T=2**12, H=[[0.02, 0.15], [0.15, 0.02]],
                         xi=[[0.05, 0.025], [0.025, 0.05]])
    panels, _ = simulate_field(params, 2**16, 1.0, seed=23, n_paths=10)
    return params, [field_to_gaussian_proxy(p, params, 16) for p in panels]


class TestCalibratePair:
    def test_recovers_pair_parameters_on_average(self, fig2_proxy_panels):
        params, proxies = fig2_proxy_panels
        gs, hs = [], []
        for prox in proxies:
            m0 = calibrate_univariate(prox.data[0], prox.delta, fix_T=params.T)
            m1 = calibrate_univariate(prox.data[1], prox.delta, fix_T=params.T)
            res = calibrate_pair(
                prox.data[0], prox.data[1],
                m0.params["lambda2"], m1.params["lambda2"],
                m0.params["H"], m1.params["H"], prox.delta, T=params.T)
            gs.append(res.params["g"])
            hs.append(res.params["H_ij"])
        assert np.mean(gs) == pytest.approx(0.5, abs=0.15)
        assert np.mean(hs) == pytest.approx(0.15, abs=0.06)

    def test_self_pair_with_true_marginals(self, fig2_proxy_panels):
        params, proxies = fig2_proxy_panels
        prox = proxies[2]
        res = calibrate_pair(prox.data[0], prox.data[0], 0.05, 0.05,
                             0.02, 0.02, prox.delta, T=params.T)
        assert res.params["g"] == pytest.approx(1.0, abs=0.05)

    def test_constraints_hold_by_construction(self, fig2_proxy_panels):
        params, proxies = fig2_proxy_panels
        prox = proxies[3]
        res = calibrate_pair(prox.data[0], prox.data[1], 0.05, 0.05,
                             0.02, 0.02, prox.delta, T=params.T)
        assert abs(res.params["g"]) <= 1.0
        assert res.params["H_ij"] >= 0.02
        assert res.params["xi_ij"] == pytest.approx(
            res.params["g"] * 0.05, rel=1e-12)

    @pytest.mark.parametrize("options", ALTERNATIVES, ids=ALTERNATIVE_IDS)
    def test_profiled_alternatives_agree_roughly(self, fig2_proxy_panels,
                                                 options):
        params, proxies = fig2_proxy_panels
        default, alternative = [], []
        for prox in proxies:
            args = (prox.data[0], prox.data[1], 0.05, 0.05, 0.02, 0.02,
                    prox.delta)
            a = calibrate_pair(*args, T=params.T)
            b = calibrate_pair(*args, T=params.T, **options)
            assert b.converged
            assert abs(b.params["g"]) <= 1.0
            assert 0.02 <= b.params["H_ij"] < 0.5
            default.append((a.params["g"], a.params["H_ij"]))
            alternative.append((b.params["g"], b.params["H_ij"]))
        g_a, h_a = np.mean(default, axis=0)
        g_b, h_b = np.mean(alternative, axis=0)
        assert h_b == pytest.approx(h_a, abs=0.08)
        assert g_b == pytest.approx(g_a, rel=0.5)

    def test_misaligned_series_rejected(self):
        with pytest.raises(ValueError):
            calibrate_pair(np.zeros(100) + np.arange(100),
                           np.zeros(50) + np.arange(50),
                           0.05, 0.05, 0.02, 0.02, 1.0)


class TestOutOfBoxFit:
    """A search that returns a roughness outside its box is a typed
    failure, not an assertion that ``python -O`` would strip."""

    @staticmethod
    def _profile_returning(h):
        def fake(observed, unit_curve, weight, h_lo, h_hi, amp_lo, amp_hi,
                 n_scan=24):
            amp = min(max(0.05, amp_lo), amp_hi)
            return _ProfileOutcome(h=h, amp=amp, objective=0.0, evals=1,
                                   amp_at_bound=False, h_at_bound=False,
                                   converged=True)
        return fake

    def test_univariate(self, monkeypatch):
        import mlogsfbm.estimate as est
        monkeypatch.setattr(est, "_profiled_minimize",
                            self._profile_returning(0.7))
        x = np.random.default_rng(5).standard_normal(2048)
        with pytest.raises(CalibrationError, match="H=0.7"):
            calibrate_univariate(x, 1.0, fix_T=2048.0)

    def test_pair(self, monkeypatch):
        import mlogsfbm.estimate as est
        monkeypatch.setattr(est, "_profiled_minimize",
                            self._profile_returning(0.7))
        rng = np.random.default_rng(6)
        x, y = rng.standard_normal((2, 2048))
        with pytest.raises(CalibrationError, match="H_ij=0.7"):
            calibrate_pair(x, y, 0.05, 0.05, 0.02, 0.02, 1.0, T=2048.0)


class TestWeightDefects:
    """A second-stage weight that fell back to the identity is reported in
    the notes; any other weight is positive definite by construction."""

    @staticmethod
    def _series():
        rng = np.random.default_rng(6)
        return rng.standard_normal((2, 2048))

    def test_pair_inverse_fallback_reported(self, monkeypatch):
        import mlogsfbm.estimate as est
        monkeypatch.setattr(est, "_regularized_inverse",
                            lambda s: (np.eye(s.shape[0]), True))
        x, y = self._series()
        res = calibrate_pair(x, y, 0.05, 0.05, 0.02, 0.02, 1.0, T=2048.0)
        assert "identity-weight-fallback" in res.notes

    def test_indefinite_covariance_gives_definite_weight(self, monkeypatch):
        import mlogsfbm.estimate as est
        exact = est._product_moment_cov

        def indefinite(*args):
            # a negative first diagonal entry, with the trace kept positive
            s = exact(*args)
            s[0, 0] -= 0.5 * np.trace(s)
            return s

        monkeypatch.setattr(est, "_product_moment_cov", indefinite)
        x, y = self._series()
        for res in (calibrate_univariate(x, 1.0, fix_T=2048.0),
                    calibrate_pair(x, y, 0.05, 0.05, 0.02, 0.02, 1.0,
                                   T=2048.0)):
            assert "identity-weight-fallback" not in res.notes
            assert np.array_equal(res.weight, res.weight.T)
            assert np.linalg.eigvalsh(res.weight)[0] > 0.0


class TestCalibratePanel:
    def test_two_asset_panel(self, fig2_proxy_panels):
        params, proxies = fig2_proxy_panels
        cal = calibrate_panel(proxies[0], T=params.T, workers=2)
        assert cal.complete
        assert cal.h_mat.shape == (2, 2)
        assert np.array_equal(cal.h_mat, cal.h_mat.T)
        assert np.array_equal(cal.xi_mat, cal.xi_mat.T)
        assert cal.xi_eigenvalues is not None
        assert cal.validation is not None
        assert 0.0 <= cal.converged_pair_fraction <= 1.0
        rebuilt = cal.to_params()
        assert rebuilt.d == 2

    def test_single_asset_degenerates_to_univariate(self, fig2_proxy_panels):
        params, proxies = fig2_proxy_panels
        solo = FieldPanel(data=proxies[0].data[:1], delta=proxies[0].delta,
                          seed=0, provenance="gaussian-average-proxy")
        cal = calibrate_panel(solo, T=params.T)
        assert cal.pairs == {}
        assert 0 in cal.marginals
        assert cal.complete

    def test_constant_row_isolated(self, fig2_proxy_panels):
        params, proxies = fig2_proxy_panels
        data = np.vstack([proxies[0].data, np.zeros(proxies[0].n)])
        panel = FieldPanel(data=data, delta=proxies[0].delta, seed=0,
                           provenance="gaussian-average-proxy")
        cal = calibrate_panel(panel, T=params.T, workers=2)
        assert "marginal-2" in cal.failures
        assert (0, 1) in cal.pairs
        assert "pair-0-2" in cal.failures and "pair-1-2" in cal.failures
        with pytest.raises(CalibrationError):
            cal.to_params()


class TestMcValidate:
    def test_single_replica_flags_undefined_std(self):
        params = ModelParams(T=2**10, H=[[0.1, 0.2], [0.2, 0.1]],
                             xi=[[0.05, 0.02], [0.02, 0.05]])
        cfg = McConfig(params=params, n_list=(2**8,), replicas=1, seed=3,
                       agg=4, workers=1)
        report = mc_validate(cfg)
        assert math.isnan(report.runs[0].stds()["H_01"])
        assert any("single replica" in note for note in report.notes)

    def test_replica_rows_structure(self):
        params = ModelParams(T=2**10, H=[[0.1, 0.2], [0.2, 0.1]],
                             xi=[[0.05, 0.02], [0.02, 0.05]])
        cfg = McConfig(params=params, n_list=(2**8,), replicas=2, seed=3,
                       agg=4, workers=1)
        report = mc_validate(cfg)
        rows = list(report.replica_rows())
        assert len(rows) == 2 * 7  # replicas x tracked parameters
        n, rep, name, value = rows[0]
        assert n == 2**8 and rep == 0 and isinstance(value, float)

    def test_failure_threshold(self, monkeypatch):
        import mlogsfbm.estimate as est
        params = ModelParams(T=2**10, H=[[0.1, 0.2], [0.2, 0.1]],
                             xi=[[0.05, 0.02], [0.02, 0.05]])

        def exploding(config, n_field, run_seed, replica):
            raise CalibrationError("boom")

        monkeypatch.setattr(est, "_one_replica", exploding)
        cfg = McConfig(params=params, n_list=(2**8,), replicas=4, seed=3,
                       agg=4, workers=1)
        with pytest.raises(McValidationError):
            est.mc_validate(cfg)

    def test_failure_threshold_keeps_the_records(self, monkeypatch):
        import mlogsfbm.estimate as est

        def flat(config, factor, run_seed, replica):
            raise ZeroVarianceError(f"flat series in replica {replica}")

        monkeypatch.setattr(est, "_one_replica", flat)
        with pytest.raises(McValidationError) as info:
            est.mc_validate(self.sweep(n_list=(2**8,), replicas=4, workers=2))
        assert info.value.failures == tuple(
            (rep, "ZeroVarianceError", f"flat series in replica {rep}")
            for rep in range(4))
        assert str(info.value) == (
            "4/4 replicas failed at n=256 (4 ZeroVarianceError); "
            "replica 0, ZeroVarianceError: flat series in replica 0")

    def sweep(self, **kwargs):
        params = ModelParams(T=2**10, H=[[0.1, 0.2], [0.2, 0.1]],
                             xi=[[0.05, 0.02], [0.02, 0.05]])
        return McConfig(params=params, seed=3, agg=4, **kwargs)

    @pytest.mark.parametrize("failing_replica", [None, 1])
    def test_one_factor_per_length_held_one_at_a_time(self, monkeypatch,
                                                      failing_replica):
        import mlogsfbm.estimate as est
        built = []
        one_replica = est._one_replica

        def counting(*args):
            assert all(ref() is None for ref in built)
            factor = spectral_factor(*args)
            built.append(weakref.ref(factor))
            return factor

        def replica(config, factor, run_seed, replica):
            if replica == failing_replica:
                raise CalibrationError("forced")
            return one_replica(config, factor, run_seed, replica)

        monkeypatch.setattr(est, "spectral_factor", counting)
        monkeypatch.setattr(est, "_one_replica", replica)
        gc.disable()  # reference counting alone must free each factor
        try:
            est.mc_validate(self.sweep(n_list=(2**7, 2**8), replicas=3,
                                       workers=2, max_failure_fraction=0.5))
        finally:
            gc.enable()
        assert len(built) == 2

    def test_samples_independent_of_worker_count(self):
        one, two = (mc_validate(self.sweep(n_list=(2**7, 2**8), replicas=3,
                                           workers=w)) for w in (1, 2))
        for run_one, run_two in zip(one.runs, two.runs):
            assert run_one.samples.keys() == run_two.samples.keys()
            for key, values in run_one.samples.items():
                assert np.array_equal(values, run_two.samples[key]), key

    def test_library_failure_recorded(self, monkeypatch):
        import mlogsfbm.estimate as est
        one_replica = est._one_replica

        def failing(config, factor, run_seed, replica):
            if replica == 1:
                raise CalibrationError("forced")
            return one_replica(config, factor, run_seed, replica)

        monkeypatch.setattr(est, "_one_replica", failing)
        report = est.mc_validate(self.sweep(
            n_list=(2**8,), replicas=3, workers=1, max_failure_fraction=0.5))
        run = report.runs[0]
        assert run.failures == ((1, "CalibrationError", "forced"),)
        assert run.n_failures == 1 and run.samples["H_0"].size == 2
        assert report.to_dict()["runs"][0]["failures"] == [
            {"replica": 1, "type": "CalibrationError", "message": "forced"}]

    def test_programming_error_propagates(self, monkeypatch):
        import mlogsfbm.estimate as est

        def broken(config, factor, run_seed, replica):
            raise TypeError("not a replica failure")

        monkeypatch.setattr(est, "_one_replica", broken)
        with pytest.raises(TypeError, match="not a replica failure"):
            est.mc_validate(self.sweep(n_list=(2**8,), replicas=2, workers=1,
                                       max_failure_fraction=1.0))

    def test_invalid_config(self):
        params = ModelParams(T=2**10, H=[[0.1, 0.2], [0.2, 0.1]],
                             xi=[[0.05, 0.02], [0.02, 0.05]])
        with pytest.raises(ValueError):
            McConfig(params=params, n_list=(64,), replicas=0, seed=1)
        with pytest.raises(ValueError):
            McConfig(params=params, n_list=(64,), replicas=2, seed=1,
                     proxy="bogus")


class TestWorkers:
    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("MSFBM_WORKERS", "3")
        assert default_workers() == 3
        monkeypatch.delenv("MSFBM_WORKERS")
        assert default_workers() >= 1

    def test_env_below_one_clamps_to_one(self, monkeypatch):
        monkeypatch.setenv("MSFBM_WORKERS", "0")
        assert default_workers() == 1

    def test_env_not_an_integer_names_the_variable(self, monkeypatch):
        monkeypatch.setenv("MSFBM_WORKERS", "two")
        with pytest.raises(ValueError, match="MSFBM_WORKERS='two'"):
            default_workers()


class TestRescaledDifferenceStatistic:
    def test_converges_to_theoretical_difference(self):
        # the (N/(N-k))-rescaled D-statistic of the block averages tends to
        # the theoretical difference curve as the sample grows
        params = ModelParams(T=2**10, H=[[0.1, 0.2], [0.2, 0.1]],
                             xi=[[0.05, 0.02], [0.02, 0.05]])
        agg = 4
        pair = params.pair(0, 1)
        grid = LagGrid(Q=4, taus=(1, 4, 16))
        lags = np.array([0, 1, 4, 16])
        # population covariance of the discrete block means (the statistic's
        # actual target; the continuous block integral differs at short lags
        # through the kernel cusp)
        from mlogsfbm import msfbm_cross_cov
        m = np.arange(-(agg - 1), agg)
        w = (agg - np.abs(m)) / agg**2
        theory = np.array([
            float(np.dot(w, msfbm_cross_cov(
                np.abs(k * agg + m).astype(float), pair)))
            for k in lags
        ])
        d_theory = theory[1:] - theory[0]
        errors = []
        for n_panel, paths in ((2**9, 40), (2**12, 40)):
            panels, _ = simulate_field(params, n_panel * agg, 1.0,
                                       seed=61, n_paths=paths)
            vals = []
            for p in panels:
                prox = field_to_gaussian_proxy(p, params, agg)
                curve = empirical_cross_cov(prox.data[0], prox.data[1], grid,
                                            include_zero=True)
                n = prox.n
                rescaled = curve.values * n / (n - curve.lags)
                vals.append(rescaled[1:] - rescaled[0])
            vals = np.array(vals)
            err = np.abs(vals.mean(axis=0) - d_theory)
            se = vals.std(axis=0, ddof=1) / math.sqrt(paths)
            errors.append((err, se))
        small_err, small_se = errors[0]
        big_err, big_se = errors[1]
        assert np.all(big_err <= 4.0 * big_se)
        assert big_err.max() < small_err.max()


class TestMaskedCalibration:
    def test_imputed_entries_excluded(self):
        params = ModelParams(T=2**12, H=[[0.15]], xi=[[0.05]])
        panels, _ = simulate_field(params, 2**14, 1.0, seed=91, n_paths=1)
        prox = field_to_gaussian_proxy(panels[0], params, 16)
        series = prox.data[0].copy()
        mask = np.ones(series.size, bool)
        rng = np.random.default_rng(4)
        bad = rng.choice(series.size, size=5, replace=False)
        series[bad] = math.log(1e-12)   # floored zero-range entries
        mask[bad] = False
        clean = calibrate_univariate(prox.data[0], 16.0, fix_T=params.T)
        masked = calibrate_univariate(series, 16.0, fix_T=params.T, mask=mask)
        spoiled = calibrate_univariate(series, 16.0, fix_T=params.T)
        assert masked.params["lambda2"] == pytest.approx(
            clean.params["lambda2"], rel=0.15)
        # without the mask the floored spikes wreck the amplitude
        assert abs(spoiled.params["lambda2"] - clean.params["lambda2"]) > \
            3 * abs(masked.params["lambda2"] - clean.params["lambda2"])
