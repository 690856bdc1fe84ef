import gc
import inspect
import math
import re
import warnings
import weakref
from fractions import Fraction
from typing import Sequence

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (_curve_map, default_lags_below, given_marginal,
                      oracle_model_curve, scalar_calibrate_pair)
from mlogsfbm import ModelParams
from mlogsfbm.estimate import (
    CalibrationError,
    LagGrid,
    McConfig,
    McValidationError,
    ZeroVarianceError,
    _AMP_FLOOR,
    _N_SCAN,
    _ProfileOutcome,
    _profiled_minimize,
    calibrate_pair,
    calibrate_panel,
    calibrate_univariate,
    empirical_cross_cov,
    mc_validate,
)
from mlogsfbm.kernels import (_unit_block_var, _unit_window_sum,
                              block_cov_sequence, block_support,
                              expected_cross_cov)
from mlogsfbm.params import linear_coeff
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

    @pytest.mark.parametrize("q", [-1, -3])
    def test_negative_q_named(self, q):
        with pytest.raises(ValueError, match=f"grid q must be at least 0, "
                                             f"got {q}$"):
            LagGrid.default(q)

    def test_invariants(self):
        with pytest.raises(ValueError):
            LagGrid((1, 1, 2))
        with pytest.raises(ValueError):
            LagGrid((0, 1))
        with pytest.raises(ValueError, match=r"must be positive integers, "
                                             r"got 1\.5$"):
            LagGrid((1.5, 2.0))
        with pytest.raises(ValueError, match="lag grid must not be empty"):
            LagGrid(())

    def test_integral_numpy_lags_stored_as_int(self):
        grid = LagGrid((np.int64(1), np.float64(4.0)))
        assert grid.taus == (1, 4)
        assert [type(t) for t in grid.taus] == [int, int]


class TestEmpiricalCrossCov:
    def test_constant_series_gives_zero(self):
        grid = LagGrid((1, 2, 4))
        x = np.full(64, 3.7)
        assert np.allclose(empirical_cross_cov(x, x, grid), 0.0)

    def test_lags_are_demeaned_products_over_n(self):
        # 1/N at every lag, not 1/(N - k)
        rng = np.random.default_rng(1)
        x = rng.standard_normal(257)
        xc = x - x.mean()
        curve = empirical_cross_cov(x, x, LagGrid((1, 5)))
        for value, k in zip(curve, (1, 5)):
            assert value == pytest.approx(float(xc[:-k] @ xc[k:]) / x.size,
                                          rel=1e-12)

    def test_shift_invariance(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(300)
        y = rng.standard_normal(300)
        grid = LagGrid((1, 4, 16))
        base = empirical_cross_cov(x, y, grid)
        shifted = empirical_cross_cov(x + 17.3, y - 5.1, grid)
        assert np.allclose(shifted, base, rtol=0, atol=1e-12)

    def test_scaling_equivariance_exact_for_power_of_two(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(200)
        y = rng.standard_normal(200)
        grid = LagGrid((1, 8))
        base = empirical_cross_cov(x, y, grid)
        scaled = empirical_cross_cov(4.0 * x, 4.0 * y, grid)
        assert np.array_equal(scaled, 16.0 * base)

    def test_directional(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal(128)
        y = np.roll(x, 1)
        grid = LagGrid((1,))
        fwd = empirical_cross_cov(x, y, grid)[0]
        bwd = empirical_cross_cov(y, x, grid)[0]
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
            vals = empirical_cross_cov(x, y, grid)
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
        got = empirical_cross_cov(x, y, grid, mask_x=mask, mask_y=mask)
        xc = np.where(mask, x - x[mask].mean(), 0.0)
        yc = np.where(mask, y - y[mask].mean(), 0.0)
        for value, k in zip(got, grid.taus):
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
        clean = empirical_cross_cov(x, x, grid)[0]
        masked = empirical_cross_cov(x_spiked, x_spiked, grid,
                                     mask_x=mask, mask_y=mask)[0]
        assert abs(masked - clean) < 0.1 * abs(clean) + 0.05

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf],
                             ids=["nan", "+inf", "-inf"])
    def test_non_finite_unmasked_entry_rejected(self, bad):
        # rejected before any arithmetic, so with no RuntimeWarning; the
        # same entry masked out drops from the moments whatever its value
        x, y = np.random.default_rng(7).standard_normal((2, 64))
        y_bad = y.copy()
        y_bad[10] = bad
        mask = np.ones(64, bool)
        mask[10] = False
        grid = LagGrid((1, 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for args in ((x, y_bad), (y_bad, x)):
                with pytest.raises(ValueError, match="^series must be finite "
                                                     "where unmasked$"):
                    empirical_cross_cov(*args, grid)
            got = empirical_cross_cov(x, y_bad, grid, mask_y=mask)
        assert np.all(np.isfinite(got))
        assert np.array_equal(got, empirical_cross_cov(x, y, grid, mask_y=mask))

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

    @pytest.mark.parametrize("y, mask_x, message", [
        (np.zeros(63), None, "series must be 1-d arrays of equal length"),
        (np.zeros((2, 32)), None, "series must be 1-d arrays of equal length"),
        (np.zeros(64), np.zeros(64, bool), "mask excludes every observation"),
    ], ids=["unequal", "2-d", "empty-mask"])
    def test_malformed_input_rejected(self, y, mask_x, message):
        x = np.random.default_rng(5).standard_normal(64 if y.ndim == 1
                                                     else y.shape)
        with pytest.raises(ValueError, match=f"^{message}$"):
            empirical_cross_cov(x, y, LagGrid((1,)), mask_x=mask_x)


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
    sum_ab B_k[a, b] cov(x_a, y_b), and cov(x_a, y_b) = r(|a - b|).  The
    lag-0 value is the demeaned product over n."""
    grid = LagGrid(tuple(range(1, n)))
    basis = np.eye(n)
    centred = basis - 1.0 / n
    out = np.zeros(n)
    for a in range(n):
        for b in range(n):
            c = empirical_cross_cov(basis[a], basis[b], grid)
            lag0 = float(centred[a] @ centred[b]) / n
            out += np.concatenate(([lag0], c)) * r[abs(a - b)]
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
    """The oracle of the closed-form curves, ``conftest._curve_map``, against
    the prefix-sum oracle and exact rationals: A @ r[:M] is the model
    curve."""

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

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(8, 2048))
    @example(n=4096)
    def test_constant_sequence_has_zero_expectation(self, n):
        # the demeaned moments cannot see a constant: exactly 0 when the
        # entries are dyadic (n a power of two), else within their rounding
        taus = default_lags_below(n)
        curve_map = _curve_map(n, taus, n)
        zero = curve_map @ np.ones(n)
        if n & (n - 1) == 0:
            assert np.all(zero == 0.0)
        else:
            assert_within_rounding(curve_map, np.ones(n), n,
                                   np.zeros(len(taus)))

    @pytest.mark.parametrize("t_over_delta", [1024, 2**14],
                             ids=["T-1024-delta", "T-N-delta"])
    def test_fixed_shapes_match_oracle(self, t_over_delta):
        n, delta = 2**14, 16.0
        taus = default_lags_below(min(n, t_over_delta - 1))
        support = block_support(n, delta, t_over_delta * delta)
        curve_map = _curve_map(n, taus, support)
        for hij, h_bar in ((0.02, 0.02), (0.15, 0.02), (0.25, 0.25)):
            r = 0.05 * block_cov_sequence(n, delta, hij, h_bar,
                                          t_over_delta * delta)
            assert_close_to_largest(curve_map @ r[:support],
                                    _expected_curve(r, n, taus))


def kernel_term_size(delta: float, h_ij: float, h_bar: float,
                     T: float) -> float:
    """kappa = |c| + (|p| + |e|)/(1 - a), the size of the terms of the unit
    block covariance at lag 0 (``kernels._unit_block_var`` at length
    Delta); they bound those of every lag and of every block variance up to
    length T, so each such value rounds to within a few u kappa."""
    alpha = 2.0 * h_ij
    log_y = math.log(delta / T)
    p = log_y if alpha == 0.0 else math.expm1(alpha * log_y) / alpha
    e = (1.0 + alpha * p) * (3.0 + alpha) / ((1.0 + alpha) * (2.0 + alpha))
    return abs(linear_coeff(alpha, h_bar)) + (abs(p) + abs(e)) / (1.0 - alpha)


def closed_form_error_bound(n, lags, delta, h_ij, h_bar, T):
    """Per-entry bound on |closed form - A @ r[:M]| with A the ``_curve_map``
    oracle and r the block covariance sequence: the oracle's own rounding
    (the bound of ``assert_within_rounding`` less its u/2 |want|) plus
    32 u kappa (1 + sum_tau |A_ktau|).  kappa (``kernel_term_size``) bounds
    the rounding of each kernel value, which reaches the oracle through
    sum |A| and the closed form through its few terms of size kappa (r(0),
    gamma(k), the block variances over n^2 and the window sum S over n).
    Returns the oracle's curve and the bound."""
    support = block_support(n, delta, T)
    curve_map = _curve_map(n, lags, support)
    r = block_cov_sequence(n, delta, h_ij, h_bar, T)[:support]
    u = np.finfo(float).eps / 2
    kappa = kernel_term_size(delta, h_ij, h_bar, T)
    bound = u * ((support + 6) * (np.abs(curve_map) @ np.abs(r))
                 + 20.0 / n * np.abs(r).sum()
                 + 32.0 * kappa * (1.0 + np.abs(curve_map).sum(axis=1)))
    return curve_map @ r, bound


def assert_closed_form_within_rounding(got, n, lags, delta, h_ij, h_bar, T):
    want, bound = closed_form_error_bound(n, lags, delta, h_ij, h_bar, T)
    assert np.all(np.abs(got - want) <= bound)


def roughness(lo: float = 0.0):
    """H in [lo, 0.4999], subnormal values included: below a = 2 H = 1e-290
    the kernel's (y^a - 1)/a is ln y."""
    return st.one_of(st.just(lo), st.floats(lo, 0.4999))


@st.composite
def closed_form_cases(draw, max_n=300):
    """(n, lags, delta, h_ij, h_bar, T) with T at N delta, above it, below
    it, or at 2 delta (support M = 2), and 0 <= h_bar <= h_ij <= 0.4999."""
    n = draw(st.integers(2, max_n))
    delta = draw(st.sampled_from([1.0, 16.0]))
    where = draw(st.sampled_from(["at", "above", "below", "two"]))
    ratio = {"at": 1.0, "above": draw(st.floats(1.0, 64.0)),
             "below": draw(st.floats(2.0, n)) / n, "two": 2.0 / n}[where]
    h_bar = draw(roughness())
    h_ij = draw(roughness(h_bar))
    lags = sorted(draw(st.lists(st.integers(0, n - 1), min_size=1,
                                max_size=20, unique=True)))
    return n, lags, delta, h_ij, h_bar, ratio * n * delta


class TestClosedFormCurve:
    """``kernels.expected_cross_cov``, the closed form in the variogram,
    against the ``_curve_map`` oracle within the rounding of both, on both
    sides of T = N delta and down to H_ij = h_bar = 0."""

    @settings(max_examples=300, deadline=None)
    @given(closed_form_cases())
    @example((300, [0, 1, 2, 150, 299], 1.0, 0.0, 0.0, 300.0))
    @example((300, [1, 2, 4, 255], 16.0, 0.4999, 0.4999, 4800.0))
    @example((300, [1, 5, 100], 16.0, 0.4999, 0.0, 300 * 16.0 / 4))
    @example((257, [1, 2, 200], 1.0, 0.15, 0.02, 2.0))
    @example((64, [1, 3, 63], 16.0, 0.0, 0.0, 64 * 16.0 * 64))
    @example((8, [0, 3, 7], 16.0, 0.1, 0.1, 8.0))  # T < delta: no support
    @example((4, [0, 1, 2, 3], 1.0, 5e-324, 0.0, 4.0))  # subnormal H_ij
    def test_property_matches_curve_map(self, case):
        n, lags, delta, h_ij, h_bar, T = case
        got = expected_cross_cov(n, lags, delta, T)(h_ij, h_bar)
        assert_closed_form_within_rounding(got, n, lags, delta, h_ij, h_bar,
                                           T)

    @pytest.mark.parametrize("t_over_delta", [2, 1024, 2**13, 2**14, 2**16],
                             ids=["T-2-delta", "T-1024-delta", "T-half-N",
                                  "T-N-delta", "T-4N-delta"])
    @pytest.mark.parametrize("delta", [1.0, 16.0])
    def test_fixed_shapes(self, t_over_delta, delta):
        n, T = 2**14, t_over_delta * delta
        taus = default_lags_below(block_support(n, delta, T))
        for h_ij, h_bar in ((0.0, 0.0), (0.02, 0.02), (0.15, 0.02),
                            (0.25, 0.25), (0.45, 0.05), (0.4999, 0.4999)):
            got = expected_cross_cov(n, taus, delta, T)(h_ij, h_bar)
            assert_closed_form_within_rounding(got, n, taus, delta, h_ij,
                                               h_bar, T)

    @pytest.mark.parametrize("case", [
        (6, [3], 1.0, 6.0), (40, [0, 7, 39], 16.0, 40 * 16.0 * 3),
        (17, [2, 5, 16], 1.0, 9.0), (30, [1, 2, 29], 16.0, 32.0)])
    def test_bound_sees_a_perturbed_entry(self, case):
        n, lags, delta, T = case
        got = expected_cross_cov(n, lags, delta, T)(0.15, 0.02)
        assert_closed_form_within_rounding(got, n, lags, delta, 0.15, 0.02, T)
        got[np.argmax(np.abs(got))] *= 1.0 + 1e-12
        with pytest.raises(AssertionError):
            assert_closed_form_within_rounding(got, n, lags, delta, 0.15,
                                               0.02, T)

    @staticmethod
    def _window_sum_bound(m, delta, T, alpha, c):
        # 8 u times the size of the closed form's terms, at most
        # 2m |c| + 2m (4 + a + 2 |p_m|)/K
        log_m = math.log(m * delta / T)
        p_m = log_m if alpha < 1e-290 else math.expm1(alpha * log_m) / alpha
        k = (1.0 - alpha) * (1.0 + alpha) * (2.0 + alpha)
        return 4.0 * np.finfo(float).eps * 2 * m * (
            abs(c) + (4.0 + alpha + 2.0 * abs(p_m)) / k)

    @staticmethod
    def _window_sum_mpmath(m, delta, T, alpha, c):
        # V(m) - V(m-1) of V(L) = L^2 c (1 - L delta/(3T)) - L^2 (2 p_L - 3
        # - a)/K, the block variance of _unit_block_var, in 60 digits
        import mpmath
        with mpmath.workdps(60):
            a, cc, t = mpmath.mpf(alpha), mpmath.mpf(c), mpmath.mpf(T)
            k = (1 - a) * (1 + a) * (2 + a)

            def v(length):
                span = length * mpmath.mpf(delta)
                p = (mpmath.log(span / t) if alpha == 0.0
                     else mpmath.expm1(a * mpmath.log(span / t)) / a)
                return length**2 * (cc * (1 - span / (3 * t))
                                    - (2 * p - 3 - a) / k)

            return float(v(m) - v(m - 1))

    @settings(max_examples=200, deadline=None)
    @given(m=st.integers(2, 2**14), delta=st.sampled_from([1.0, 16.0]),
           ratio=st.floats(1.0, 4.0), h_bar=roughness(),
           rise=st.one_of(st.just(0.0), st.floats(0.0, 1.0)))
    @example(m=2**14, delta=16.0, ratio=1.0, h_bar=0.225, rise=1.0)
    @example(m=4, delta=1.0, ratio=1.0, h_bar=0.0, rise=1e-323)
    @example(m=2, delta=1.0, ratio=1.0, h_bar=0.0, rise=0.0)
    def test_window_sum_matches_mpmath(self, m, delta, ratio, h_bar, rise):
        # S = sum_{|k| < M} r(k), which continues V beyond the support
        alpha = 2.0 * (h_bar + rise * (0.4999 - h_bar))
        c = linear_coeff(alpha, h_bar)
        T = ratio * m * delta
        got = _unit_window_sum(m, delta, T, alpha, c)
        want = self._window_sum_mpmath(m, delta, T, alpha, c)
        assert abs(got - want) <= self._window_sum_bound(m, delta, T, alpha, c)

    def test_window_sum_bound_sees_the_cancelling_difference(self):
        # V(M) - V(M-1) from two block variances loses a factor of about M
        m, delta, alpha = 2**14, 16.0, 0.9
        T = m * delta
        c = linear_coeff(alpha, 0.225)
        span = np.array([m, m - 1]) * delta
        var = _unit_block_var(span, np.log(span / T), T, alpha, c)
        naive = m * m * var[0] - (m - 1) ** 2 * var[1]
        want = self._window_sum_mpmath(m, delta, T, alpha, c)
        assert abs(naive - want) > self._window_sum_bound(m, delta, T, alpha, c)


@st.composite
def curve_rows(draw):
    """A ``closed_form_cases`` window with 1 to 30 (h_ij, h_bar) rows on it,
    drawn as that case draws its own.  A batch of four rows or more may
    hold the ends H_ij = 0, subnormal and 0.4999 among the others, so that a
    branch taken for the whole batch shows."""
    n, lags, delta, h_ij, h_bar, T = draw(closed_form_cases())
    size = draw(st.integers(1, 30))
    rows = [(h_ij, h_bar)]
    if size >= 4 and draw(st.booleans()):
        rows += [(0.0, 0.0), (5e-324, 0.0), (0.4999, draw(roughness()))]
    while len(rows) < size:
        low = draw(roughness())
        rows.append((draw(roughness(low)), low))
    rows = draw(st.permutations(rows))
    return (n, lags, delta, T), rows


_END_ROWS = [(0.0, 0.0), (5e-324, 0.0), (0.15, 0.02), (0.4999, 0.2),
             (1e-300, 0.0), (0.25, 0.25), (0.4999, 0.4999)]


class TestCurveWindowOnce:
    """``kernels.expected_cross_cov`` computes its window (support, lags,
    block spans and weights) once per call and only the roughness terms per
    curve evaluation: the arithmetic of ``conftest.oracle_model_curve``,
    which re-derived the window each time, in the same order, so the same
    bits."""

    @settings(max_examples=300, deadline=None)
    @given(closed_form_cases())
    @example((300, [0, 1, 2, 150, 299], 1.0, 0.0, 0.0, 300.0))
    @example((300, [1, 5, 100], 16.0, 0.4999, 0.0, 300 * 16.0 / 4))
    @example((257, [1, 2, 200], 1.0, 0.15, 0.02, 2.0))
    @example((8, [0, 3, 7], 16.0, 0.1, 0.1, 8.0))  # T < delta: no support
    @example((4, [0, 1, 2, 3], 1.0, 5e-324, 0.0, 4.0))  # subnormal H_ij
    def test_property_equals_oracle(self, case):
        n, lags, delta, h_ij, h_bar, T = case
        got = expected_cross_cov(n, lags, delta, T)(h_ij, h_bar)
        want = oracle_model_curve(n, lags, delta, T)(h_ij, h_bar)
        assert _bits(got) == _bits(want)

    @settings(max_examples=200, deadline=None)
    @given(curve_rows())
    @example(((8, [0, 3, 7], 16.0, 8.0), _END_ROWS))  # m = 0: no support
    @example(((10, [0, 1, 5], 1.0, 1.5), _END_ROWS))  # m = 1
    @example(((300, [1, 5, 100], 16.0, 300 * 16.0 / 4), _END_ROWS))  # m < n
    @example(((300, [0, 1, 2, 150, 299], 1.0, 300.0), _END_ROWS))  # m = n
    def test_rows_equal_oracle(self, case):
        # row i of one call is the oracle's curve at row i, bit for bit,
        # also when every row shares the first row's h_bar
        (n, lags, delta, T), rows = case
        h_ij, h_bar = (np.array(column) for column in zip(*rows))
        curve = expected_cross_cov(n, lags, delta, T)
        oracle = oracle_model_curve(n, lags, delta, T)
        got, shared = curve(h_ij, h_bar), curve(h_ij, float(h_bar[0]))
        assert got.shape == shared.shape == (len(rows), len(lags))
        for i, (h, low) in enumerate(rows):
            assert _bits(got[i]) == _bits(oracle(h, low)), (h, low)
            assert _bits(shared[i]) == _bits(oracle(h, rows[0][1])), h

    @pytest.mark.parametrize("t_over_delta", [2, 1024, 2**13, 2**14, 2**16],
                             ids=["T-2-delta", "T-1024-delta", "T-half-N",
                                  "T-N-delta", "T-4N-delta"])
    @pytest.mark.parametrize("delta", [1.0, 16.0])
    def test_fixed_shapes_equal_oracle(self, t_over_delta, delta):
        n, T = 2**14, t_over_delta * delta
        taus = default_lags_below(block_support(n, delta, T))
        curve = expected_cross_cov(n, taus, delta, T)
        for h_ij, h_bar in ((0.0, 0.0), (0.02, 0.02), (0.15, 0.02),
                            (0.25, 0.25), (0.45, 0.05), (0.4999, 0.4999)):
            want = oracle_model_curve(n, taus, delta, T)(h_ij, h_bar)
            assert _bits(curve(h_ij, h_bar)) == _bits(want), (h_ij, h_bar)

    @pytest.mark.parametrize("case", [
        (2**14, default_lags_below(2**14), 16.0, 2**14 * 16.0),
        (300, [0, 1, 5, 100, 299], 16.0, 300 * 16.0 / 4)],
        ids=["T=N*delta", "lags-beyond-support"])
    def test_no_call_writes_the_window(self, case):
        n, lags, delta, T = case
        curve = expected_cross_cov(n, lags, delta, T)
        first = _bits(curve(0.15, 0.02))
        other = curve(0.4, 0.3)
        assert _bits(other) != first
        assert _bits(curve(0.15, 0.02)) == first


class TestCurveCost:
    """No O(N) work inside the roughness search: whole covariance sequences
    are built for the weights alone, one per marginal fit and three per
    pair fit, however many curve evaluations the search makes."""

    @staticmethod
    def _count(monkeypatch):
        import mlogsfbm.estimate as est
        built = []
        exact = est.block_cov_sequence

        def counting(*args):
            built.append(args)
            return exact(*args)

        monkeypatch.setattr(est, "block_cov_sequence", counting)
        return built

    @staticmethod
    def _series():
        rng = np.random.default_rng(11)
        return rng.standard_normal((2, 2048)).cumsum(axis=1) * 0.01

    @pytest.mark.parametrize("t_val", [1024.0, 2048.0],
                             ids=["T/delta=1024", "T=N*delta"])
    def test_pair_builds_three_sequences(self, monkeypatch, t_val):
        x, y = self._series()
        mi, mj = (calibrate_univariate(s, 1.0, T=t_val) for s in (x, y))
        built = self._count(monkeypatch)
        res = calibrate_pair(x, y, mi, mj)
        assert len(built) == 3
        assert res.iterations > 20

    @pytest.mark.parametrize("t_val", [1024.0, 2048.0],
                             ids=["T/delta=1024", "T=N*delta"])
    def test_univariate_builds_one_sequence(self, monkeypatch, t_val):
        built = self._count(monkeypatch)
        res = calibrate_univariate(self._series()[0], 1.0, T=t_val)
        assert len(built) == 1
        assert res.iterations > 20


class TestScanIsOneCall:
    """Each ``_profiled_minimize`` stage evaluates its _N_SCAN scan points in
    one curve call; Brent's points and the other evaluations are one-point
    calls, and ``GmmResult.iterations`` still counts _N_SCAN per scan plus
    Brent's evaluations."""

    @staticmethod
    def _count(monkeypatch):
        import mlogsfbm.estimate as est
        calls, brent = [], []
        exact_curve = est.expected_cross_cov
        exact_minimize = est.sopt.minimize_scalar

        def counting_curve(*args):
            curve = exact_curve(*args)

            def counted(H_ij, h_bar):
                calls.append((np.array(H_ij), np.array(h_bar)))
                return curve(H_ij, h_bar)

            return counted

        def counting_minimize(*args, **kwargs):
            res = exact_minimize(*args, **kwargs)
            brent.append(int(res.nfev))
            return res

        monkeypatch.setattr(est, "expected_cross_cov", counting_curve)
        monkeypatch.setattr(est.sopt, "minimize_scalar", counting_minimize)
        return calls, brent

    @staticmethod
    def _check(calls, brent, res, h_lo, shared_h_bar):
        # scan, Brent, the stage's optimum; twice; then the residuals
        first, second = brent
        want = ([_N_SCAN] + [0] * (first + 1) + [_N_SCAN] + [0] * (second + 1)
                + [0])
        assert [h.size if h.ndim else 0 for h, _ in calls] == want
        assert res.iterations == 2 * _N_SCAN + first + second
        scan = np.linspace(h_lo, 0.4999, _N_SCAN)
        for h, h_bar in (calls[0], calls[first + 2]):
            assert _bits(h) == _bits(scan)
            assert h_bar.shape == (() if shared_h_bar else scan.shape)

    def test_univariate(self, monkeypatch):
        x = TestCurveCost._series()[0]
        calls, brent = self._count(monkeypatch)
        res = calibrate_univariate(x, 1.0, T=1024.0)
        self._check(calls, brent, res, 1e-4, shared_h_bar=False)

    def test_pair(self, monkeypatch):
        x, y = TestCurveCost._series()
        mi, mj = (calibrate_univariate(s, 1.0, T=1024.0) for s in (x, y))
        calls, brent = self._count(monkeypatch)
        res = calibrate_pair(x, y, mi, mj)
        h_lo = 0.5 * (mi.params["H"] + mj.params["H"]) + 1e-6
        self._check(calls, brent, res, h_lo, shared_h_bar=True)


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
        taus = default_lags_below(n)

        # the unit curves scale by (T'/T)^(-2h): the closed form has no term
        # in r(0), so only the rounding of r(0) - r(k) and of the block
        # variances is left (at most 5.4e-16 of the scale in 400 random
        # cases, against 1.8e-15 for the map); the scale is the size of the
        # terms of the oracle's sum, before the constant cancels
        def unit(t_val):
            curve = expected_cross_cov(n, taus, delta, t_val)
            return lambda hh: curve(hh, hh)

        r2 = block_cov_sequence(n, delta, h, h, t2)
        got, want = unit(t2)(h), ratio ** (-2.0 * h) * unit(t)(h)
        scale = float(np.max(np.abs(_curve_map(n, taus, n)) @ np.abs(r2)))
        assert np.max(np.abs(got - want)) <= 4e-15 * scale

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

    @staticmethod
    def _constant(b):
        """The curve b at every roughness: one row per entry of an array."""
        return lambda h: np.broadcast_to(b, np.shape(h) + b.shape)

    def test_reduces_to_weighted_least_squares(self):
        b, observed, weight, wls = self._case()
        out = _profiled_minimize(observed, self._constant(b), weight, 0.1,
                                 0.4, -10.0, 10.0)
        assert out.amp == pytest.approx(wls, rel=1e-12)
        assert out.converged and not out.amp_at_bound

    @pytest.mark.parametrize("side", ["below", "above"])
    def test_clipped_to_the_amplitude_box(self, side):
        b, observed, weight, wls = self._case()
        lo, hi = (wls + 1.0, wls + 2.0) if side == "below" else \
            (wls - 2.0, wls - 1.0)
        out = _profiled_minimize(observed, self._constant(b), weight, 0.1,
                                 0.4, lo, hi)
        assert out.amp == (lo if side == "below" else hi)
        assert out.amp_at_bound


@pytest.fixture(scope="module")
def smooth_panels():
    """Shared simulated panels: H = 0.25, lambda^2 = 0.06, 12 paths."""
    params = ModelParams(T=2**12, H=[[0.25]], xi=[[0.06]])
    panels, _ = simulate_field(params, 2**16, 1.0, seed=14, n_paths=12)
    return params, [field_to_gaussian_proxy(p, 16) for p in panels]


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

    @pytest.mark.parametrize("shape, mask, bad, message", [
        ((2, 128), None, None, "series must be 1-d"),
        ((256,), np.ones(255, bool), None, "mask must match the series shape"),
        ((256,), None, 3, "series must be finite where unmasked"),
    ], ids=["2-d", "mask-shape", "nan"])
    def test_malformed_series_rejected(self, shape, mask, bad, message):
        x = np.random.default_rng(5).standard_normal(shape)
        if bad is not None:
            x[bad] = np.nan
        with pytest.raises(ValueError, match=f"^{message}$"):
            calibrate_univariate(x, 1.0, T=128.0, mask=mask)

    @pytest.mark.parametrize("kept", [0, 1])
    def test_mask_keeping_fewer_than_two_named(self, kept):
        # a varying series that the mask empties is not called flat
        mask = np.zeros(64, bool)
        mask[:kept] = True
        x = np.random.default_rng(5).standard_normal(64)
        with pytest.raises(ZeroVarianceError, match=re.escape(
                f"{kept} of 64 observations unmasked, fewer than 2")):
            calibrate_univariate(x, 1.0, T=64.0, mask=mask)

    def test_fit_records_its_mask(self):
        x = np.random.default_rng(5).standard_normal(256)
        assert calibrate_univariate(x, 1.0, T=256.0).mask is None
        mask = np.random.default_rng(6).random(256) > 0.1
        masked = calibrate_univariate(x, 1.0, T=256.0, mask=mask)
        assert masked.mask is mask
        # a non-bool mask is recorded as the bool array the fit used
        as_int = calibrate_univariate(x, 1.0, T=256.0, mask=mask.astype(int))
        assert as_int.mask.dtype == bool
        assert np.array_equal(as_int.mask, mask)

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
        assert res.residuals.shape == (len(res.grid.taus),)


@pytest.fixture(scope="module")
def fig2_proxy_panels():
    params = ModelParams(T=2**12, H=[[0.02, 0.15], [0.15, 0.02]],
                         xi=[[0.05, 0.025], [0.025, 0.05]])
    panels, _ = simulate_field(params, 2**16, 1.0, seed=23, n_paths=10)
    return params, [field_to_gaussian_proxy(p, 16) for p in panels]


class TestCalibratePair:
    def test_recovers_pair_parameters_on_average(self, fig2_proxy_panels):
        params, proxies = fig2_proxy_panels
        gs, hs = [], []
        for prox in proxies:
            m0 = calibrate_univariate(prox.data[0], prox.delta, T=params.T)
            m1 = calibrate_univariate(prox.data[1], prox.delta, T=params.T)
            res = calibrate_pair(prox.data[0], prox.data[1], m0, m1)
            gs.append(res.params["g"])
            hs.append(res.params["H_ij"])
        assert np.mean(gs) == pytest.approx(0.5, abs=0.15)
        assert np.mean(hs) == pytest.approx(0.15, abs=0.06)

    def test_self_pair_with_its_marginal_fit(self, fig2_proxy_panels):
        params, proxies = fig2_proxy_panels
        prox = proxies[2]
        m0 = calibrate_univariate(prox.data[0], prox.delta, T=params.T)
        res = calibrate_pair(prox.data[0], prox.data[0], m0, m0)
        assert res.params["g"] == pytest.approx(1.0, abs=0.05)

    def test_constraints_hold_by_construction(self, fig2_proxy_panels):
        params, proxies = fig2_proxy_panels
        prox = proxies[3]
        m0, m1 = (calibrate_univariate(row, prox.delta, T=params.T)
                  for row in prox.data)
        res = calibrate_pair(prox.data[0], prox.data[1], m0, m1)
        assert abs(res.params["g"]) <= 1.0
        assert res.params["H_ij"] >= 0.5 * (m0.params["H"] + m1.params["H"])
        assert res.params["xi_ij"] == pytest.approx(
            res.params["g"] * math.sqrt(m0.params["lambda2"]
                                        * m1.params["lambda2"]), rel=1e-12)

    def test_empty_roughness_bracket_named(self, monkeypatch):
        # both marginals at the roughness ceiling leave no H_ij >= h_bar
        # below 0.4999: a typed failure naming h_bar, before any search
        import mlogsfbm.estimate as est
        calls = []
        monkeypatch.setattr(est, "_profiled_minimize",
                            lambda *args: calls.append(args))
        x, y = np.random.default_rng(9).standard_normal((2, 512))
        ceiling = given_marginal(0.4999, 0.05, 512.0, 512)
        with pytest.raises(CalibrationError, match=r"h_bar=0\.4999\b"):
            calibrate_pair(x, y, ceiling, ceiling)
        assert calls == []

    def test_misaligned_series_rejected(self):
        marginal = given_marginal(0.02, 0.05, 100.0, 100)
        with pytest.raises(ValueError, match="aligned"):
            calibrate_pair(np.zeros(100) + np.arange(100),
                           np.zeros(50) + np.arange(50),
                           marginal, marginal)

    def test_takes_its_window_from_the_marginal_fits(self):
        assert list(inspect.signature(calibrate_pair).parameters) == [
            "logvol_i", "logvol_j", "marginal_i", "marginal_j"]

    @pytest.mark.parametrize("other", [{"T": 1024.0},
                                       {"grid": LagGrid((1, 2, 4))},
                                       {"delta": 16.0}, {"n": 1024}],
                             ids=["T", "lags", "delta", "n"])
    def test_disagreeing_marginal_fits_named(self, other):
        # the pair runs on the marginal fits' window (n, delta, T, lags), so
        # fits on different windows have no pair.  At T = 16 N delta every
        # fit but the grid one keeps the whole default grid, so each differs
        # from the first fit in the one value named
        x, y = np.random.default_rng(9).standard_normal((2, 2048))
        fit_i = {"delta": 1.0, "T": 32768.0}
        fit_j = {"n": 2048, **fit_i, **other}
        mi = calibrate_univariate(x, **fit_i)
        mj = calibrate_univariate(y[:fit_j.pop("n")], **fit_j)
        if "grid" not in other:
            assert mi.grid == mj.grid
        window_i, window_j = (
            f"n={m.n}, delta={m.delta!r}, T={m.params['T']!r} on lags "
            f"{list(m.grid.taus)}" for m in (mi, mj))
        named = re.escape(f"marginal fits disagree: {window_i} against "
                          f"{window_j}")
        with pytest.raises(ValueError, match=named + "$"):
            calibrate_pair(x, y, mi, mj)

    def test_series_shorter_than_the_fits_rejected(self):
        x, y = np.random.default_rng(9).standard_normal((2, 2048))
        mi, mj = (calibrate_univariate(s, 1.0, T=2048.0) for s in (x, y))
        with pytest.raises(ValueError, match=re.escape(
                "series of lengths 1024 and 1024 are not aligned with the "
                "marginal fits' n=2048")):
            calibrate_pair(x[:1024], y[:1024], mi, mj)


@pytest.fixture(scope="module")
def oracle_panels():
    """fig2-like proxies of 1024 observations at delta = 1 (no aggregation)
    and at delta = 16, with a 5% mask of each row."""
    params = ModelParams(T=2**12, H=[[0.02, 0.15], [0.15, 0.02]],
                         xi=[[0.05, 0.025], [0.025, 0.05]])
    panels = {}
    for agg, seed in ((1, 41), (16, 43)):
        (field,), _ = simulate_field(params, 1024 * agg, 1.0, seed=seed)
        panels[float(agg)] = field_to_gaussian_proxy(field, agg)
    mask = np.random.default_rng(47).random((2, 1024)) > 0.05
    return panels, mask


def _bits(value) -> bytes:
    return np.asarray(value, dtype=float).tobytes()


class TestPairTakesMarginalFits:
    """``calibrate_pair`` on two marginal fits gives the bits of the pair
    fit that took their values as loose arguments
    (``conftest.scalar_calibrate_pair``): a marginal fit's residuals are the
    observed moments minus lambda^2 times the model curve at its H, on the
    same lags, mask and floats as the old fit's own control variates.  The
    pair takes its masks from the marginal fits alone."""

    @pytest.mark.parametrize("masked", [False, True],
                             ids=["unmasked", "masked"])
    @pytest.mark.parametrize("t_share", [1.0, 0.125],
                             ids=["T=N*delta", "T=N*delta/8"])
    @pytest.mark.parametrize("delta", [1.0, 16.0], ids=["delta-1", "delta-16"])
    def test_every_fit_keeps_its_bits(self, oracle_panels, delta, t_share,
                                      masked):
        panels, mask = oracle_panels
        panel = panels[delta]
        t_val = t_share * panel.n * delta
        masks = tuple(mask) if masked else (None, None)
        mi, mj = (calibrate_univariate(row, delta, t_val, mask=m)
                  for row, m in zip(panel.data, masks))
        got = calibrate_pair(*panel.data, mi, mj)
        want = scalar_calibrate_pair(
            *panel.data, mi.params["lambda2"], mj.params["lambda2"],
            mi.params["H"], mj.params["H"], delta, t_val, None, *masks)
        assert got.params.keys() == want.params.keys()
        for key, value in got.params.items():
            assert _bits(value) == _bits(want.params[key]), key
        for name in ("weight", "objective"):
            assert _bits(getattr(got, name)) == _bits(getattr(want, name))
        assert got.grid == want.grid
        assert _bits(got.residuals) == _bits(want.residuals)
        assert (got.iterations, got.converged, got.notes) == (
            want.iterations, want.converged, want.notes)

    def test_panel_fits_hold_row_views_of_its_mask(self, oracle_panels):
        panels, mask = oracle_panels
        panel = panels[16.0]
        t_val = 0.125 * panel.n * panel.delta
        cal = calibrate_panel(panel, T=t_val, mask=mask)
        for i, fit in cal.marginals.items():
            assert np.shares_memory(fit.mask, mask)
            assert np.array_equal(fit.mask, mask[i])
        mi, mj = cal.marginals[0], cal.marginals[1]
        want = scalar_calibrate_pair(
            *panel.data, mi.params["lambda2"], mj.params["lambda2"],
            mi.params["H"], mj.params["H"], panel.delta, t_val, None, *mask)
        got = cal.pairs[(0, 1)]
        for key, value in got.params.items():
            assert _bits(value) == _bits(want.params[key]), key
        assert _bits(got.weight) == _bits(want.weight)


BAD_SCALES = (0.0, -3.0, math.nan, math.inf, 1.5, 2.0, 2.5)


class TestBadScale:
    """At delta = 1 a T that is not finite or is below 3, where the lag-2
    block leaves the window and at most one lag fits, is a ValueError that
    names T: from a marginal fit, and from a panel before any fit runs (a
    pair takes its T from its marginal fits)."""

    @staticmethod
    def _series():
        return np.random.default_rng(7).standard_normal((2, 256))

    @pytest.mark.parametrize("t_val", BAD_SCALES)
    def test_fits_reject(self, t_val):
        x, _ = self._series()
        named = re.escape(f"T={t_val!r}")
        with pytest.raises(ValueError, match=named):
            calibrate_univariate(x, 1.0, t_val)

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

    def test_panel_rejects_a_one_lag_grid_before_any_fit(self, monkeypatch):
        import mlogsfbm.estimate as est
        calls = []
        monkeypatch.setattr(est, "calibrate_univariate",
                            lambda *args, **kwargs: calls.append(args))
        panel = FieldPanel(data=self._series(), delta=1.0, seed=0,
                           provenance="gaussian-average-proxy")
        with pytest.raises(CalibrationError, match="fewer than 2 grid lags"):
            calibrate_panel(panel, grid=LagGrid.default(1))
        assert calls == []

    @pytest.mark.parametrize("grid", [LagGrid((1,)), LagGrid.default(1),
                                      LagGrid((1, 200))],
                             ids=["lag-1", "q=1", "one-below-T"])
    def test_one_lag_is_not_a_fit(self, grid):
        # with one lag the profiled amplitude matches it at every roughness,
        # so the objective is 0 throughout and H is rounding noise
        x, _ = self._series()
        with pytest.raises(ValueError, match=re.escape("T=2.0")):
            calibrate_univariate(x, 1.0, 2.0, grid=grid)
        with pytest.raises(CalibrationError, match="fewer than 2 grid lags"):
            calibrate_univariate(x, 1.0, 100.0, grid=grid)


class TestWindowRule:
    """A fit keeps the grid lags tau < n whose blocks fit the window,
    (tau + 1) delta <= T: those below ``kernels.block_support``."""

    @staticmethod
    def _series():
        return np.random.default_rng(8).standard_normal((2, 1024))

    @pytest.mark.parametrize("t_val", [2.0, 2.5])
    def test_default_grid_lag_one_alone_rejected(self, t_val):
        x, _ = self._series()
        with pytest.raises(ValueError, match=re.escape(f"T={t_val!r}")):
            calibrate_univariate(x, 1.0, t_val)

    @pytest.mark.parametrize("t_val", [3.0, 3.5])
    def test_default_grid_fits_two_lags_from_three_delta(self, t_val):
        x, y = self._series()
        mi, mj = (calibrate_univariate(s, 1.0, t_val) for s in (x, y))
        pair = calibrate_pair(x, y, mi, mj)
        assert mi.grid.taus == (1, 2)
        assert pair.grid.taus == (1, 2)

    def test_last_fitting_lag_kept(self):
        # lag 256 of the default grid fits T = 257 delta exactly
        x, _ = self._series()
        res = calibrate_univariate(x, 16.0, 257 * 16.0)
        assert res.grid.taus[-1] == 256

    def test_window_cut_names_T(self):
        x, _ = self._series()
        with pytest.raises(CalibrationError,
                           match=r"fewer than 2 grid lags below 10: .*"
                                 r"\(tau \+ 1\) delta <= T = 10\.0$"):
            calibrate_univariate(x, 1.0, 10.0, grid=LagGrid((5, 50)))

    def test_short_series_named(self):
        x, _ = self._series()
        with pytest.raises(CalibrationError,
                           match="fewer than 2 grid lags below 40: series "
                                 "too short"):
            calibrate_univariate(x[:40], 1.0, 1024.0, grid=LagGrid((5, 50)))

    @given(n=st.integers(2, 2000), delta=st.sampled_from([1.0, 0.5, 16.0]),
           ratio=st.floats(2.0, 3000.0), q=st.integers(0, 22))
    @settings(max_examples=200, deadline=None)
    def test_kept_lags_are_those_below_block_support(self, n, delta, ratio, q):
        # fewer than two is an error: below T = 3 delta for any grid
        import mlogsfbm.estimate as est
        T = ratio * delta
        support = block_support(n, delta, T)
        below = tuple(t for t in LagGrid.default(q).taus if t < support)
        if T < 3.0 * delta:
            with pytest.raises(ValueError, match=re.escape(f"T={T!r}")):
                est._window_grid(LagGrid.default(q), n, delta, T)
            return
        if len(below) < 2:
            with pytest.raises(CalibrationError, match="fewer than 2"):
                est._window_grid(LagGrid.default(q), n, delta, T)
            return
        grid = est._window_grid(LagGrid.default(q), n, delta, T)
        assert grid.taus == below
        # each kept block lies inside the window, and a next grid lag below
        # n would not
        assert all((t + 1) * delta <= T * (1 + 1e-12) for t in grid.taus)
        rest = [t for t in LagGrid.default(q).taus if t > below[-1] and t < n]
        assert not rest or (rest[0] + 1) * delta > T


class TestOutOfBoxFit:
    """A search that returns a roughness outside its box, or a NaN
    amplitude, is a typed failure, not an assertion that ``python -O``
    would strip."""

    @staticmethod
    def _profile_returning(h, amp=0.05):
        def fake(observed, unit_curve, weight, h_lo, h_hi, amp_lo, amp_hi):
            clipped = min(max(amp, amp_lo), amp_hi)  # a NaN stays NaN
            return _ProfileOutcome(h=h, amp=clipped, objective=0.0, evals=1,
                                   amp_at_bound=False, h_at_bound=False,
                                   converged=True)
        return fake

    def test_univariate(self, monkeypatch):
        import mlogsfbm.estimate as est
        x = np.random.default_rng(5).standard_normal(2048)
        for h, amp, named in ((0.7, 0.05, "H=0.7"), (0.45, math.nan, "=nan")):
            monkeypatch.setattr(est, "_profiled_minimize",
                                self._profile_returning(h, amp))
            with pytest.raises(CalibrationError, match=named):
                calibrate_univariate(x, 1.0, T=2048.0)

    def test_pair(self, monkeypatch):
        import mlogsfbm.estimate as est
        rng = np.random.default_rng(6)
        x, y = rng.standard_normal((2, 2048))
        mi, mj = (calibrate_univariate(s, 1.0, T=2048.0) for s in (x, y))
        for h, amp, named in ((0.7, 0.05, "H_ij=0.7"),
                              (0.45, math.nan, "=nan")):
            monkeypatch.setattr(est, "_profiled_minimize",
                                self._profile_returning(h, amp))
            with pytest.raises(CalibrationError, match=named):
                calibrate_pair(x, y, mi, mj)


class TestWeightDefects:
    """A second-stage weight that fell back to the identity is reported in
    the notes; any other weight is positive definite by construction."""

    @staticmethod
    def _series():
        rng = np.random.default_rng(6)
        return rng.standard_normal((2, 2048))

    def test_pair_inverse_fallback_reported(self, monkeypatch):
        import mlogsfbm.estimate as est
        x, y = self._series()
        mi, mj = (calibrate_univariate(s, 1.0, T=2048.0) for s in (x, y))
        assert "identity-weight-fallback" not in mi.notes + mj.notes
        monkeypatch.setattr(est, "_regularized_inverse",
                            lambda s: (np.eye(s.shape[0]), True))
        res = calibrate_pair(x, y, mi, mj)
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

        x, y = self._series()
        mi, mj = (calibrate_univariate(s, 1.0, T=2048.0) for s in (x, y))
        monkeypatch.setattr(est, "_product_moment_cov", indefinite)
        fits = (lambda: calibrate_univariate(x, 1.0, T=2048.0),
                lambda: calibrate_pair(x, y, mi, mj))
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

    def test_mask_shape_must_match_the_panel(self):
        data = np.random.default_rng(5).standard_normal((2, 128))
        panel = FieldPanel(data=data, delta=1.0, seed=0,
                           provenance="gaussian-average-proxy")
        with pytest.raises(ValueError,
                           match="^mask shape must match the panel$"):
            calibrate_panel(panel, mask=np.ones((2, 127), bool))

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
                assert np.array_equal(fit.residuals, other.residuals), item

    def test_disagreeing_marginal_fits_fail_their_pairs(
            self, fig2_proxy_panels, monkeypatch):
        import mlogsfbm.estimate as est
        params, proxies = fig2_proxy_panels
        panel = self.three_rows(proxies)
        fit = est.calibrate_univariate

        def third_at_half_T(series, delta, T, **kwargs):
            if np.shares_memory(series, panel.data[2]):
                T = 0.5 * T
            return fit(series, delta, T, **kwargs)

        monkeypatch.setattr(est, "calibrate_univariate", third_at_half_T)
        cal = calibrate_panel(panel, T=params.T)
        assert list(cal.pairs) == [(0, 1)]
        assert sorted(cal.failures) == ["pair-0-2", "pair-1-2"]
        for message in cal.failures.values():
            assert message.startswith(
                f"marginal fits disagree: n={panel.n}, delta={panel.delta!r}, "
                f"T={params.T!r} on lags ")
            assert (f"against n={panel.n}, delta={panel.delta!r}, "
                    f"T={0.5 * params.T!r} on lags ") in message

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

    def test_measure_proxy_sweep(self, monkeypatch):
        import mlogsfbm.estimate as est
        params = ModelParams(T=2**10, H=[[0.1, 0.2], [0.2, 0.1]],
                             xi=[[0.05, 0.02], [0.02, 0.05]])
        monkeypatch.setenv("MSFBM_WORKERS", "1")
        runs = {proxy: mc_validate(McConfig(
                    params=params, n_list=(2**8,), replicas=2, seed=3, agg=4,
                    proxy=proxy)).runs[0]
                for proxy in ("measure", "gaussian")}
        measure = runs["measure"]
        assert measure.failures == ()
        assert sorted(measure.samples) == sorted(est._PARAM_KEYS)
        for key, values in measure.samples.items():
            assert values.shape == (2,) and np.all(np.isfinite(values)), key
            # the same draws through the other proxy fit other values
            assert not np.array_equal(values, runs["gaussian"].samples[key])

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

    @pytest.mark.parametrize("field, kwargs", [
        ("n_list", dict(n_list=())),
        ("n_list", dict(n_list=(64, 1))),
        ("agg", dict(n_list=(64,), agg=0)),
    ])
    def test_sweep_bounds_name_the_field(self, field, kwargs):
        params = ModelParams(T=2**10, H=[[0.1, 0.2], [0.2, 0.1]],
                             xi=[[0.05, 0.02], [0.02, 0.05]])
        with pytest.raises(ValueError, match=f"^{field} must"):
            McConfig(params=params, replicas=2, seed=1, **kwargs)

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
                prox = field_to_gaussian_proxy(p, agg)
                n = prox.n
                x, y = (row - row.mean() for row in prox.data)
                curve = np.concatenate((
                    [float(x @ y) / n],
                    empirical_cross_cov(*prox.data, grid)))
                rescaled = curve * n / (n - lags)
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
        prox = field_to_gaussian_proxy(panels[0], 16)
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
