import gc
import math
import re
import weakref
from fractions import Fraction
from typing import Sequence

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mlogsfbm import ModelParams
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
    empirical_cross_cov,
    mc_validate,
)
from mlogsfbm.kernels import block_cov_sequence, block_support
from mlogsfbm.simulate import (
    FieldPanel,
    default_workers,
    field_to_gaussian_proxy,
    simulate_field,
    spectral_factor,
)


class TestLagGrid:
    def test_default_grid_values(self):
        grid = LagGrid.default()
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
            LagGrid((1, 1, 2))
        with pytest.raises(ValueError):
            LagGrid((0, 1))


class TestEmpiricalCrossCov:
    def test_constant_series_gives_zero(self):
        grid = LagGrid((1, 2, 4))
        x = np.full(64, 3.7)
        curve = empirical_cross_cov(x, x, grid, include_zero=True)
        assert np.allclose(curve.values, 0.0)

    def test_lag_zero_is_biased_sample_variance(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(257)
        grid = LagGrid((1,))
        curve = empirical_cross_cov(x, x, grid, include_zero=True)
        assert curve.values[0] == pytest.approx(float(np.var(x)), rel=1e-12)

    def test_shift_invariance(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(300)
        y = rng.standard_normal(300)
        grid = LagGrid((1, 4, 16))
        base = empirical_cross_cov(x, y, grid).values
        shifted = empirical_cross_cov(x + 17.3, y - 5.1, grid).values
        assert np.allclose(shifted, base, rtol=0, atol=1e-12)

    def test_scaling_equivariance_exact_for_power_of_two(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(200)
        y = rng.standard_normal(200)
        grid = LagGrid((1, 8))
        base = empirical_cross_cov(x, y, grid).values
        scaled = empirical_cross_cov(4.0 * x, 4.0 * y, grid).values
        assert np.array_equal(scaled, 16.0 * base)

    def test_directional(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal(128)
        y = np.roll(x, 1)
        grid = LagGrid((1,))
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
        grid = LagGrid((50,))
        with pytest.raises(ValueError):
            empirical_cross_cov(np.zeros(50), np.zeros(50), grid)

    def test_mask_excludes_entries(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(100)
        x_spiked = x.copy()
        x_spiked[10] = 1e6
        mask = np.ones(100, bool)
        mask[10] = False
        grid = LagGrid((1,))
        clean = empirical_cross_cov(x, x, grid).values[0]
        masked = empirical_cross_cov(x_spiked, x_spiked, grid,
                                     mask_x=mask, mask_y=mask).values[0]
        assert abs(masked - clean) < 0.1 * abs(clean) + 0.05

    def test_short_mask_rejected(self):
        x = np.random.default_rng(5).standard_normal(64)
        grid = LagGrid((1,))
        with pytest.raises(ValueError, match=r"mask_y shape \(63,\) .* \(64,\)"):
            empirical_cross_cov(x, x, grid, mask_y=np.ones(63, bool))

    def test_two_dimensional_mask_rejected(self):
        x = np.random.default_rng(5).standard_normal(64)
        grid = LagGrid((1,))
        with pytest.raises(ValueError,
                           match=r"mask_x shape \(2, 64\) .* \(64,\)"):
            empirical_cross_cov(x, x, grid, mask_x=np.ones((2, 64), bool))


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
    grid = LagGrid(tuple(range(1, n)))
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


def assert_within_rounding(curve_map, r, n, want):
    """Each entry of curve_map @ r[:M] lies within its rounding error of the
    exact value ``want`` (Higham 2002, Accuracy and Stability of Numerical
    Algorithms, sec. 3.1), to first order in the unit roundoff u:
    M u sum_tau |A_ktau r_tau| for the M-term dot product,
    u (5 |A_ktau| + 20/n) |r_tau| for the five roundings of each entry in
    ``_curve_map`` (its two terms are at most 1 + 2/n and 4/n, so an entry
    that cancels keeps an error of order u/n), and u/2 |want| for the
    rounding of the exact value; M + 6 covers M + 5 + 1/2."""
    support = curve_map.shape[1]
    r = r[:support]
    u = np.finfo(float).eps / 2
    bound = u * ((support + 6) * (np.abs(curve_map) @ np.abs(r))
                 + 20.0 / n * np.abs(r).sum())
    assert np.all(np.abs(curve_map @ r - want) <= bound)


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
    @given(curve_map_cases())
    def test_property_matches_oracle(self, case):
        # the scale is the curve's largest entry over every lag: where the
        # drawn lags lie past the support they see only the sample-mean
        # bias, and there the oracle's prefix sums lose digits against
        # that scale (up to 7e-13 of the drawn lags' own largest entry in
        # 20 000 random cases; the map stays within 1.5e-14 of the exact
        # value, see test_property_matches_exact_rationals)
        n, lags, support, seed = case
        r = _sequence(n, support, seed)
        curve_map = _curve_map(n, lags, support)
        assert curve_map.shape == (len(lags), support)
        curve = _expected_curve(r, n, range(n))
        got = curve_map @ r[:support]
        scale = float(np.max(np.abs(curve)))
        assert np.max(np.abs(got - curve[lags])) <= 1e-13 * scale

    @settings(max_examples=60, deadline=None)
    @given(curve_map_cases(max_n=40))
    # the products cancel: sum |A r| = 0.18 against an entry of 1.4e-4
    @example((6, [3], 6, 0))
    def test_property_matches_exact_rationals(self, case):
        n, lags, support, seed = case
        r = _sequence(n, support, seed)
        assert_within_rounding(_curve_map(n, lags, support), r, n,
                               _exact_expectation(r, n, lags))

    @pytest.mark.parametrize("case", [(6, [3], 6, 0), (40, [0, 7, 39], 40, 1),
                                      (17, [2, 5, 16], 9, 2)])
    def test_exact_rationals_bound_sees_a_perturbed_entry(self, case):
        n, lags, support, seed = case
        r = _sequence(n, support, seed)
        curve_map = _curve_map(n, lags, support)
        want = _exact_expectation(r, n, lags)
        assert_within_rounding(curve_map, r, n, want)
        terms = np.abs(curve_map * r[:support])
        row, col = np.unravel_index(np.argmax(terms), terms.shape)
        curve_map[row, col] *= 1.0 + 1e-12
        with pytest.raises(AssertionError):
            assert_within_rounding(curve_map, r, n, want)

    @pytest.mark.parametrize("t_over_delta", [1024, 2**14],
                             ids=["T-1024-delta", "T-N-delta"])
    def test_fixed_shapes_match_oracle(self, t_over_delta):
        n, delta = 2**14, 16.0
        taus = LagGrid.default().restrict(
            min(n, t_over_delta - 1)).taus
        support = block_support(n, delta, t_over_delta * delta)
        curve_map = _curve_map(n, taus, support)
        for hij, h_bar in ((0.02, 0.02), (0.15, 0.02), (0.25, 0.25)):
            r = 0.05 * block_cov_sequence(n, delta, hij, h_bar,
                                          t_over_delta * delta)
            assert_close_to_largest(curve_map @ r[:support],
                                    _expected_curve(r, n, taus))


class TestCurveMapBuilds:
    """One map per fit: a per-evaluation rebuild costs about as much as a
    hundred evaluations at T = N delta."""

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
        calibrate_univariate(self._series()[0], 1.0, T=1024.0)
        assert len(built) == 1


class TestScaleInvariance:
    """At T >= N delta every block fits the window, the marginal kernel is a
    constant minus lambda^2 T^(-2H) tau^(2H) / (2H (1 - 2H)), and the
    demeaned moments cannot see the constant: the curves at T and T' differ
    by the factor (T'/T)^(-2H) alone, so a marginal identifies H and
    lambda^2 T^(-2H), not T."""

    @settings(max_examples=40, deadline=None)
    @given(h=st.floats(1e-3, 0.45), n=st.integers(8, 2048),
           base=st.floats(1.0, 4.0), ratio=st.floats(1.0, 16.0),
           delta=st.sampled_from([1.0, 16.0]), seed=st.integers(0, 2**32 - 1))
    @example(h=0.05, n=4096, base=1.0, ratio=16.0, delta=16.0, seed=0)
    def test_curves_scale_and_first_stage_is_blind(self, h, n, base, ratio,
                                                   delta, seed):
        t, t2 = base * n * delta, base * ratio * n * delta
        assert block_support(n, delta, t) == block_support(n, delta, t2) == n
        taus = LagGrid.default().restrict(n).taus
        curve_map = _curve_map(n, taus, n)

        # a constant sequence has expectation 0: exactly when the entries
        # are dyadic (n a power of two), else within their rounding
        zero = curve_map @ np.ones(n)
        if n & (n - 1) == 0:
            assert np.all(zero == 0.0)
        else:
            assert_within_rounding(curve_map, np.ones(n), n,
                                   np.zeros(len(taus)))

        # the unit curves scale by (T'/T)^(-2h); the scale is the size of
        # the terms before the constant cancels
        def unit(t_val):
            return lambda hh: curve_map @ block_cov_sequence(
                n, delta, hh, hh, t_val)

        r2 = block_cov_sequence(n, delta, h, h, t2)
        got, want = unit(t2)(h), ratio ** (-2.0 * h) * unit(t)(h)
        scale = float(np.max(np.abs(curve_map) @ np.abs(r2)))
        assert np.max(np.abs(got - want)) <= 1e-13 * scale

        # the first-stage profiled fit: the same objective, H to the search's
        # resolution (bounded Brent stops within about 1e-7 of the minimum),
        # and at that H the amplitude scales by (T'/T)^(2H)
        noise = np.random.default_rng(seed).standard_normal(len(taus))
        observed = 0.05 * unit(t)(h) * (1.0 + 0.2 * noise)
        eye = np.eye(len(taus))
        fits = [_profiled_minimize(observed, unit(t_val), eye, 1e-4, 0.4999,
                                   _AMP_FLOOR, math.inf) for t_val in (t, t2)]
        assert not any(fit.amp_at_bound for fit in fits)
        assert fits[1].objective == pytest.approx(fits[0].objective,
                                                  rel=1e-9, abs=0.0)
        assert abs(fits[1].h - fits[0].h) <= 1e-6
        c = unit(t)(fits[1].h)
        amp_at_t = float(observed @ c) / float(c @ c)
        assert fits[1].amp == pytest.approx(
            amp_at_t * ratio ** (2.0 * fits[1].h), rel=1e-12, abs=0.0)


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
                                       T=params.T)
            assert res.converged
            lam2s.append(res.params["lambda2"])
            hs.append(res.params["H"])
        assert np.mean(lam2s) == pytest.approx(0.06, rel=0.10)
        assert np.mean(hs) == pytest.approx(0.25, abs=0.05)

    def test_zero_variance_rejected(self):
        with pytest.raises(ZeroVarianceError):
            calibrate_univariate(np.full(512, 1.0), 1.0, T=512.0)

    def test_amplitude_at_bound_is_a_note_not_a_failure(self):
        # differenced white noise has a negative lag-1 autocovariance that
        # no positive amplitude fits, so the amplitude ends at its floor;
        # as with the pair's correlation bound, converged reports the
        # optimiser alone
        e = np.random.default_rng(3).standard_normal(2049)
        res = calibrate_univariate(np.diff(e), 1.0, T=2048.0)
        assert res.params["lambda2"] == _AMP_FLOOR
        assert "amplitude-at-bound" in res.notes
        assert res.converged

    def test_estimates_inside_boxes(self, smooth_panels):
        params, proxies = smooth_panels
        res = calibrate_univariate(proxies[0].data[0], proxies[0].delta,
                                   T=params.T)
        assert 0.0 < res.params["H"] < 0.5
        assert res.params["lambda2"] > 0

    def test_objective_non_negative(self, smooth_panels):
        params, proxies = smooth_panels
        res = calibrate_univariate(proxies[1].data[0], proxies[1].delta,
                                   T=params.T)
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
            m0 = calibrate_univariate(prox.data[0], prox.delta, T=params.T)
            m1 = calibrate_univariate(prox.data[1], prox.delta, T=params.T)
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

    def test_empty_roughness_bracket_named(self, monkeypatch):
        # both marginals at the roughness ceiling leave no H_ij >= h_bar
        # below 0.4999: a typed failure naming h_bar, before any search
        import mlogsfbm.estimate as est
        calls = []
        monkeypatch.setattr(est, "_profiled_minimize",
                            lambda *args: calls.append(args))
        x, y = np.random.default_rng(9).standard_normal((2, 512))
        with pytest.raises(CalibrationError, match=r"h_bar=0\.4999\b"):
            calibrate_pair(x, y, 0.05, 0.05, 0.4999, 0.4999, 1.0, T=512.0)
        assert calls == []

    def test_misaligned_series_rejected(self):
        with pytest.raises(ValueError):
            calibrate_pair(np.zeros(100) + np.arange(100),
                           np.zeros(50) + np.arange(50),
                           0.05, 0.05, 0.02, 0.02, 1.0, T=100.0)


BAD_SCALES = (0.0, -3.0, math.nan, math.inf, 1.5)


class TestBadScale:
    """At delta = 1 a T that is not finite or is below 2, where the lag-1
    block leaves the window, is a ValueError that names T: from each fit,
    and from a panel before any fit runs."""

    @staticmethod
    def _series():
        return np.random.default_rng(7).standard_normal((2, 256))

    @pytest.mark.parametrize("t_val", BAD_SCALES)
    def test_fits_reject(self, t_val):
        x, y = self._series()
        named = re.escape(f"T={t_val!r}")
        with pytest.raises(ValueError, match=named):
            calibrate_univariate(x, 1.0, t_val)
        with pytest.raises(ValueError, match=named):
            calibrate_pair(x, y, 0.05, 0.05, 0.02, 0.02, 1.0, t_val)

    @pytest.mark.parametrize("t_val", BAD_SCALES)
    def test_panel_rejects_before_any_fit(self, t_val, monkeypatch):
        import mlogsfbm.estimate as est
        calls = []
        monkeypatch.setattr(est, "calibrate_univariate",
                            lambda *args, **kwargs: calls.append(args))
        panel = FieldPanel(data=self._series(), delta=1.0, seed=0,
                           provenance="gaussian-average-proxy")
        with pytest.raises(ValueError, match=re.escape(f"T={t_val!r}")):
            calibrate_panel(panel, T=t_val)
        assert calls == []

    def test_two_delta_fits_lag_one(self):
        x, y = self._series()
        grid = LagGrid((1,))
        assert calibrate_univariate(x, 1.0, 2.0, grid=grid).params["T"] == 2.0
        assert calibrate_pair(x, y, 0.05, 0.05, 0.02, 0.02, 1.0, 2.0,
                              grid=grid).params["T"] == 2.0


class TestWindowRule:
    """A fit keeps the grid lags tau < n whose blocks fit the window,
    (tau + 1) delta <= T: those below ``kernels.block_support``."""

    @staticmethod
    def _series():
        return np.random.default_rng(8).standard_normal((2, 1024))

    @pytest.mark.parametrize("t_val", [2.0, 2.5])
    def test_default_grid_fits_lag_one(self, t_val):
        x, y = self._series()
        uni = calibrate_univariate(x, 1.0, t_val)
        pair = calibrate_pair(x, y, 0.05, 0.05, 0.02, 0.02, 1.0, t_val)
        assert list(uni.residuals.lags) == [1.0]
        assert list(pair.residuals.lags) == [1.0]

    def test_last_fitting_lag_kept(self):
        # lag 256 of the default grid fits T = 257 delta exactly
        x, _ = self._series()
        res = calibrate_univariate(x, 16.0, 257 * 16.0)
        assert res.residuals.lags[-1] == 256.0

    @given(n=st.integers(2, 2000), delta=st.sampled_from([1.0, 0.5, 16.0]),
           ratio=st.floats(2.0, 3000.0), q=st.integers(0, 22))
    @settings(max_examples=200, deadline=None)
    def test_kept_lags_are_those_below_block_support(self, n, delta, ratio, q):
        import mlogsfbm.estimate as est
        T = ratio * delta
        support = block_support(n, delta, T)
        below = tuple(t for t in LagGrid.default(q).taus if t < support)
        grid, got_support = est._window_grid(LagGrid.default(q), n, delta, T)
        assert got_support == support
        assert grid.taus == below
        # each kept block lies inside the window, and a next grid lag below
        # n would not
        assert all((t + 1) * delta <= T * (1 + 1e-12) for t in grid.taus)
        rest = [t for t in LagGrid.default(q).taus if t > below[-1] and t < n]
        assert not rest or (rest[0] + 1) * delta > T


class TestOutOfBoxFit:
    """A search that returns a roughness outside its box is a typed
    failure, not an assertion that ``python -O`` would strip."""

    @staticmethod
    def _profile_returning(h):
        def fake(observed, unit_curve, weight, h_lo, h_hi, amp_lo, amp_hi):
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
            calibrate_univariate(x, 1.0, T=2048.0)

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
        calls = []

        def indefinite(*args):
            # a negative first diagonal entry, with the trace kept positive
            calls.append(args)
            s = exact(*args)
            s[0, 0] -= 0.5 * np.trace(s)
            return s

        monkeypatch.setattr(est, "_product_moment_cov", indefinite)
        x, y = self._series()
        fits = (lambda: calibrate_univariate(x, 1.0, T=2048.0),
                lambda: calibrate_pair(x, y, 0.05, 0.05, 0.02, 0.02, 1.0,
                                       T=2048.0))
        for fit, blocks in zip(fits, (1, 6)):
            calls.clear()
            res = fit()
            # the weight was built from the patched blocks: one for a
            # marginal, six for a pair
            assert len(calls) == blocks
            assert "identity-weight-fallback" not in res.notes
            assert np.array_equal(res.weight, res.weight.T)
            assert np.linalg.eigvalsh(res.weight)[0] > 0.0


class TestCalibratePanel:
    def test_two_asset_panel(self, fig2_proxy_panels, monkeypatch):
        params, proxies = fig2_proxy_panels
        monkeypatch.setenv("MSFBM_WORKERS", "2")
        cal = calibrate_panel(proxies[0], T=params.T)
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

    def test_constant_row_isolated(self, fig2_proxy_panels, monkeypatch):
        params, proxies = fig2_proxy_panels
        data = np.vstack([proxies[0].data, np.zeros(proxies[0].n)])
        panel = FieldPanel(data=data, delta=proxies[0].delta, seed=0,
                           provenance="gaussian-average-proxy")
        monkeypatch.setenv("MSFBM_WORKERS", "2")
        cal = calibrate_panel(panel, T=params.T)
        assert "marginal-2" in cal.failures
        assert (0, 1) in cal.pairs
        assert "pair-0-2" in cal.failures and "pair-1-2" in cal.failures
        with pytest.raises(CalibrationError):
            cal.to_params()

    @staticmethod
    def three_rows(proxies) -> FieldPanel:
        data = np.vstack([proxies[0].data, proxies[1].data[:1]])
        return FieldPanel(data=data, delta=proxies[0].delta, seed=0,
                          provenance="gaussian-average-proxy")

    def test_fits_independent_of_worker_count(self, fig2_proxy_panels,
                                              monkeypatch):
        params, proxies = fig2_proxy_panels
        cals = []
        for workers in ("1", "2"):
            monkeypatch.setenv("MSFBM_WORKERS", workers)
            cals.append(calibrate_panel(self.three_rows(proxies), T=params.T))
        one, two = cals
        assert one.complete and two.complete
        for name in ("h_mat", "xi_mat", "g_mat", "xi_eigenvalues"):
            assert np.array_equal(getattr(one, name), getattr(two, name)), name
        for key in ("marginals", "pairs"):
            fits_one, fits_two = getattr(one, key), getattr(two, key)
            assert list(fits_one) == list(fits_two)
            for item, fit in fits_one.items():
                other = fits_two[item]
                assert fit.to_dict() == other.to_dict(), item
                assert np.array_equal(fit.weight, other.weight), item
                assert np.array_equal(fit.residuals.values,
                                      other.residuals.values), item

    def test_only_library_errors_fail_a_pair(self, fig2_proxy_panels,
                                             monkeypatch):
        import mlogsfbm.estimate as est
        params, proxies = fig2_proxy_panels
        panel = self.three_rows(proxies)
        fit = est.calibrate_pair

        def forced(kind):
            def failing(x, y, *args, **kwargs):
                if np.shares_memory(y, panel.data[2]):
                    raise kind(f"forced {kind.__name__}")
                return fit(x, y, *args, **kwargs)
            return failing

        monkeypatch.setenv("MSFBM_WORKERS", "2")
        monkeypatch.setattr(est, "calibrate_pair", forced(CalibrationError))
        cal = calibrate_panel(panel, T=params.T)
        assert cal.failures == {"pair-0-2": "forced CalibrationError",
                                "pair-1-2": "forced CalibrationError"}
        assert list(cal.pairs) == [(0, 1)]
        monkeypatch.setattr(est, "calibrate_pair", forced(TypeError))
        with pytest.raises(TypeError, match="forced TypeError"):
            calibrate_panel(panel, T=params.T)


class TestMcValidate:
    def test_single_replica_flags_undefined_std(self):
        params = ModelParams(T=2**10, H=[[0.1, 0.2], [0.2, 0.1]],
                             xi=[[0.05, 0.02], [0.02, 0.05]])
        cfg = McConfig(params=params, n_list=(2**8,), replicas=1, seed=3,
                       agg=4)
        report = mc_validate(cfg)
        assert math.isnan(report.runs[0].stds()["H_01"])
        assert any("single replica" in note for note in report.notes)

    def test_replica_rows_structure(self, monkeypatch):
        params = ModelParams(T=2**10, H=[[0.1, 0.2], [0.2, 0.1]],
                             xi=[[0.05, 0.02], [0.02, 0.05]])
        monkeypatch.setenv("MSFBM_WORKERS", "1")
        cfg = McConfig(params=params, n_list=(2**8,), replicas=2, seed=3,
                       agg=4)
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
        monkeypatch.setenv("MSFBM_WORKERS", "1")
        cfg = McConfig(params=params, n_list=(2**8,), replicas=4, seed=3,
                       agg=4)
        with pytest.raises(McValidationError):
            est.mc_validate(cfg)

    def test_failure_threshold_keeps_the_records(self, monkeypatch):
        import mlogsfbm.estimate as est

        def flat(config, factor, run_seed, replica):
            raise ZeroVarianceError(f"flat series in replica {replica}")

        monkeypatch.setattr(est, "_one_replica", flat)
        monkeypatch.setenv("MSFBM_WORKERS", "2")
        with pytest.raises(McValidationError) as info:
            est.mc_validate(self.sweep(n_list=(2**8,), replicas=4))
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
        monkeypatch.setenv("MSFBM_WORKERS", "2")
        gc.disable()  # reference counting alone must free each factor
        try:
            est.mc_validate(self.sweep(n_list=(2**7, 2**8), replicas=3,
                                       max_failure_fraction=0.5))
        finally:
            gc.enable()
        assert len(built) == 2

    def test_samples_independent_of_worker_count(self, monkeypatch):
        reports = []
        for workers in ("1", "2"):
            monkeypatch.setenv("MSFBM_WORKERS", workers)
            reports.append(mc_validate(self.sweep(n_list=(2**7, 2**8),
                                                  replicas=3)))
        one, two = reports
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
        monkeypatch.setenv("MSFBM_WORKERS", "1")
        report = est.mc_validate(self.sweep(
            n_list=(2**8,), replicas=3, max_failure_fraction=0.5))
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
        monkeypatch.setenv("MSFBM_WORKERS", "1")
        with pytest.raises(TypeError, match="not a replica failure"):
            est.mc_validate(self.sweep(n_list=(2**8,), replicas=2,
                                       max_failure_fraction=1.0))

    def test_invalid_config(self):
        params = ModelParams(T=2**10, H=[[0.1, 0.2], [0.2, 0.1]],
                             xi=[[0.05, 0.02], [0.02, 0.05]])
        with pytest.raises(ValueError):
            McConfig(params=params, n_list=(64,), replicas=0, seed=1)
        with pytest.raises(ValueError):
            McConfig(params=params, n_list=(64,), replicas=2, seed=1,
                     proxy="bogus")

    def test_needs_two_marginals(self):
        # a replica fits marginals 0 and 1 and their pair only
        three = ModelParams(T=2**10, H=np.full((3, 3), 0.2),
                            xi=np.full((3, 3), 0.02) + 0.03 * np.eye(3))
        with pytest.raises(ValueError, match="needs d = 2, got d = 3"):
            McConfig(params=three, n_list=(64,), replicas=2, seed=1)


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
        grid = LagGrid((1, 4, 16))
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
        clean = calibrate_univariate(prox.data[0], 16.0, T=params.T)
        masked = calibrate_univariate(series, 16.0, T=params.T, mask=mask)
        spoiled = calibrate_univariate(series, 16.0, T=params.T)
        assert masked.params["lambda2"] == pytest.approx(
            clean.params["lambda2"], rel=0.15)
        # without the mask the floored spikes wreck the amplitude
        assert abs(spoiled.params["lambda2"] - clean.params["lambda2"]) > \
            3 * abs(masked.params["lambda2"] - clean.params["lambda2"])
