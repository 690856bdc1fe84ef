import dataclasses
import math
import pickle
import struct

import mpmath
import numpy as np
import pytest
import scipy.integrate as sint
from hypothesis import given, settings
from hypothesis import strategies as st

from mlogsfbm import (
    KernelDomainError,
    ModelParams,
    PairParams,
    index_logvol_variance,
    index_ratio_bound,
    integrated_cov,
    interval_cov,
    log_kernel_cov,
    logvol_incr_corr,
    logvol_incr_cov,
    mrm_cross_cov_series,
    mrm_cross_cov_sia,
    msfbm_cross_cov,
    noise_correlation,
    sia_generalized_moment,
    wick_moment,
    zeta_exponent,
)
from mlogsfbm.kernels import (
    _dispatch,
    block_cov_sequence,
    index_variance_decomposition,
)
from conftest import T_GRID, random_admissible

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def kernel_quadrature(pair, tau, delta, tol=1e-11):
    """Independent oracle: double quadrature of the instantaneous kernel over
    the two blocks, normalized by lambda_i lambda_j."""
    lam = math.sqrt(pair.lambda_i2 * pair.lambda_j2)
    val, err = sint.dblquad(
        lambda v, u: msfbm_cross_cov(abs(u - v), pair),
        0.0, delta, tau, tau + delta, epsabs=tol, epsrel=tol)
    return val / lam, err / lam


class TestMsfbmCrossCov:
    def test_diagonal_lag_zero_variance(self):
        pair = PairParams.diagonal(0.05, 0.02, T_GRID)
        assert msfbm_cross_cov(0.0, pair) == pytest.approx(
            0.05 / (2 * 0.02 * 0.96), rel=1e-14)

    def test_vanishes_at_and_beyond_t(self, fig2_pair):
        assert msfbm_cross_cov(T_GRID, fig2_pair) == 0.0
        assert msfbm_cross_cov(5 * T_GRID, fig2_pair) == 0.0
        diag = PairParams.diagonal(0.07, 0.3, 100.0)
        assert msfbm_cross_cov(100.0, diag) == pytest.approx(0.0, abs=1e-15)

    def test_diagonal_reduction_formula(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            lam2 = rng.uniform(0.01, 0.2)
            h = rng.uniform(0.005, 0.49)
            t_scale = rng.uniform(10.0, 1e5)
            pair = PairParams.diagonal(lam2, h, t_scale)
            nu2 = lam2 / (h * (1 - 2 * h))
            for tau in np.linspace(0.0, t_scale, 23):
                expected = 0.5 * nu2 * (1 - (tau / t_scale) ** (2 * h))
                assert msfbm_cross_cov(tau, pair) == pytest.approx(
                    expected, rel=1e-12, abs=1e-12)

    def test_cross_value_high_precision(self, fig2_pair):
        # re-derive the three-term bracket with 50-digit arithmetic
        mpmath.mp.dps = 50
        hij = mpmath.mpf("0.15")
        hbar = mpmath.mpf("0.02")
        xi = mpmath.mpf("0.025")
        u = mpmath.mpf("0.3")
        a = (1 + 2 * hij - 2 * hbar) / (2 * hij * (1 - 2 * hbar))
        b = 1 / (2 * hij * (1 - 2 * hij))
        c = (2 * hij - 2 * hbar) / ((2 * hij - 1) * (1 - 2 * hbar))
        expected = float(xi * (a - b * u ** (2 * hij) - c * u))
        assert msfbm_cross_cov(0.3 * T_GRID, fig2_pair) == pytest.approx(
            expected, rel=1e-12)

    def test_continuous_at_t(self, fig2_pair):
        eps = 1e-9
        assert msfbm_cross_cov(T_GRID * (1 - eps), fig2_pair) == pytest.approx(
            0.0, abs=1e-7)

    def test_symmetry_in_marginals(self):
        pair_ij = PairParams(g=0.4, H_ij=0.2, lambda_i2=0.03, lambda_j2=0.08,
                             H_i=0.05, H_j=0.25, T=50.0)
        pair_ji = PairParams(g=0.4, H_ij=0.2, lambda_i2=0.08, lambda_j2=0.03,
                             H_i=0.25, H_j=0.05, T=50.0)
        for tau in (0.0, 3.0, 17.5, 49.0):
            assert msfbm_cross_cov(tau, pair_ij) == msfbm_cross_cov(tau, pair_ji)

    def test_zero_co_hurst_signals_log_branch(self):
        pair = PairParams.diagonal(0.05, 0.0, 100.0)
        with pytest.raises(KernelDomainError, match="log_kernel_cov"):
            msfbm_cross_cov(1.0, pair)

    def test_vectorized_matches_scalar(self, fig2_pair):
        taus = np.array([0.0, 1.0, 64.0, T_GRID, 2 * T_GRID])
        vec = msfbm_cross_cov(taus, fig2_pair)
        assert vec.shape == taus.shape
        for t, v in zip(taus, vec):
            assert v == msfbm_cross_cov(float(t), fig2_pair)

    def test_negative_lag_in_an_array_rejected(self, fig2_pair):
        with pytest.raises(KernelDomainError,
                           match="^lags must be non-negative$"):
            msfbm_cross_cov(np.array([1.0, -1.0]), fig2_pair)

    def test_vectorized_matches_scalar_at_random_lags(self):
        # numpy's SIMD power loop and libm pow may round u^(2H) apart by one
        # ulp; xi (a - b u^(2H) - c u) cancels, so that ulp is one of the
        # terms, not of the result (near T it is thousands of result ulps)
        for seed in (7, 19, 103):
            rng = np.random.default_rng(seed)
            params = random_admissible(rng, 3)
            taus = rng.uniform(0.0, 1.2 * params.T, 400)
            for i in range(3):
                for j in range(i, 3):
                    pair = params.pair(i, j)
                    a, b, c = pair.kernel_constants[1:4]
                    terms = abs(pair.xi_ij) * (abs(a) + abs(b) + abs(c))
                    vec = msfbm_cross_cov(taus, pair)
                    for t, v in zip(taus, vec):
                        want = msfbm_cross_cov(float(t), pair)
                        assert abs(v - want) <= 2 * np.spacing(terms)

    def test_scalar_path_matches_0d_array_path(self):
        # the 0-d numpy path is the oracle of the plain-float scalar path
        for seed in (5, 17, 101):
            rng = np.random.default_rng(seed)
            params = random_admissible(rng, 3)
            t_scale = params.T
            taus = np.concatenate([[0.0, t_scale],
                                   rng.uniform(0.0, 1.2 * t_scale, 200)])
            for i in range(3):
                for j in range(i, 3):
                    pair = params.pair(i, j)
                    for t in taus:
                        want = msfbm_cross_cov(np.asarray(t), pair)
                        got = msfbm_cross_cov(float(t), pair)
                        assert type(got) is float
                        assert got == want
                        assert msfbm_cross_cov(np.float64(t), pair) == want
                    assert msfbm_cross_cov(7, pair) == msfbm_cross_cov(
                        np.asarray(7.0), pair)
                    assert math.isnan(msfbm_cross_cov(math.nan, pair))
                    with pytest.raises(KernelDomainError, match="non-negative"):
                        msfbm_cross_cov(-1e-9, pair)


@st.composite
def swapped_pairs(draw):
    """A pair of a random admissible d=3 set, the same pair with its
    marginals swapped (H_i <-> H_j, lambda_i^2 <-> lambda_j^2), and a block
    length Delta and lag tau with Delta < tau and tau + Delta <= T."""
    params = random_admissible(
        np.random.default_rng(draw(st.integers(0, 2**32 - 1))), 3)
    i, j = draw(st.sampled_from([(0, 1), (0, 2), (1, 2)]))
    pair = params.pair(i, j)
    swapped = PairParams(g=pair.g, H_ij=pair.H_ij, lambda_i2=pair.lambda_j2,
                         lambda_j2=pair.lambda_i2, H_i=pair.H_j, H_j=pair.H_i,
                         T=pair.T)
    delta = pair.T * draw(st.floats(1e-4, 0.25))
    tau = delta + (pair.T - 2.0 * delta) * draw(st.floats(1e-3, 1.0))
    return pair, swapped, delta, tau


class TestKernelProperties:
    @settings(max_examples=60)
    @given(case=swapped_pairs())
    def test_property_symmetric_in_the_marginals(self, case):
        pair, swapped, delta, tau = case
        lags = np.array([0.0, delta, tau, pair.T, 1.5 * pair.T])
        assert msfbm_cross_cov(tau, pair) == msfbm_cross_cov(tau, swapped)
        assert np.array_equal(msfbm_cross_cov(lags, pair),
                              msfbm_cross_cov(lags, swapped))
        for t in (0.0, tau):
            assert (integrated_cov(t, delta, pair)
                    == integrated_cov(t, delta, swapped))
        assert (logvol_incr_cov(tau, delta, pair)
                == logvol_incr_cov(tau, delta, swapped))
        assert np.array_equal(
            block_cov_sequence(64, delta, pair.H_ij, pair.h_bar, pair.T),
            block_cov_sequence(64, delta, swapped.H_ij, swapped.h_bar,
                               swapped.T))
        assert (mrm_cross_cov_sia(tau, delta, pair)
                == mrm_cross_cov_sia(tau, delta, swapped))

    @settings(max_examples=60)
    @given(seed=st.integers(0, 2**32 - 1), i=st.integers(0, 2))
    def test_property_diagonal_reduction(self, seed, i):
        # at i = j: (nu^2/2) (1 - (tau/T)^(2H)), nu^2 = lambda^2/(H(1-2H))
        rng = np.random.default_rng(seed)
        pair = random_admissible(rng, 3).pair(i, i)
        h, t_scale = pair.H_ij, pair.T
        nu2 = pair.lambda_i2 / (h * (1.0 - 2.0 * h))
        taus = t_scale * np.r_[0.0, rng.uniform(0.0, 1.0, 20), 1.0]
        expected = 0.5 * nu2 * (1.0 - (taus / t_scale) ** (2.0 * h))
        scalars = [msfbm_cross_cov(float(t), pair) for t in taus]
        for got in (msfbm_cross_cov(taus, pair), np.array(scalars)):
            assert np.allclose(got, expected, rtol=1e-12, atol=1e-12 * nu2)

    @settings(max_examples=100)
    @given(seed=st.integers(0, 2**32 - 1),
           ij=st.sampled_from([(0, 0), (0, 1), (0, 2), (1, 2)]),
           log_t=st.floats(0.0, 5.0), frac=st.floats(1e-3, 0.95))
    def test_property_small_block_limit(self, seed, ij, log_t, frac):
        # integrated_cov carries g where msfbm_cross_cov carries
        # xi_ij = g sqrt(lambda_i^2 lambda_j^2); the error is O((Delta/tau)^2)
        pair = random_admissible(np.random.default_rng(seed), 3,
                                 T=10.0**log_t).pair(*ij)
        tau = frac * pair.T
        delta = 1e-3 * tau
        lam = math.sqrt(pair.lambda_i2 * pair.lambda_j2)
        got = integrated_cov(tau, delta, pair) * lam / delta**2
        expected = msfbm_cross_cov(tau, pair)
        assert got == pytest.approx(expected, rel=10.0 * (delta / tau)**2)


# ---------------------------------------------------------------------------
# oracle: the kernel as it stood before PairParams cached its constants,
# kept verbatim; it derives A, B, C, xi_ij and 2 H_ij on every call
# ---------------------------------------------------------------------------

def _linear_coeff(h2: float, h_bar: float) -> float:
    return (h2 - 2.0 * h_bar) / ((h2 - 1.0) * (1.0 - 2.0 * h_bar))


def _uncached_coeffs(pair: PairParams) -> tuple[float, float, float]:
    if pair.H_ij <= 0:
        raise KernelDomainError(
            "H_ij = 0 has no power-law kernel; use log_kernel_cov for the "
            "multifractal branch"
        )
    h2, h_bar = 2.0 * pair.H_ij, pair.h_bar
    a = (1.0 + h2 - 2.0 * h_bar) / (h2 * (1.0 - 2.0 * h_bar))
    b = 1.0 / (h2 * (1.0 - h2))
    return a, b, _linear_coeff(h2, h_bar)


def uncached_msfbm_cross_cov(tau, pair: PairParams):
    a, b, c = _uncached_coeffs(pair)
    xi = pair.xi_ij
    T = pair.T
    h2 = 2.0 * pair.H_ij

    if isinstance(tau, (float, int)):
        t = float(tau)
        if t < 0:
            raise KernelDomainError("lags must be non-negative")
        if t >= T:
            return 0.0
        u = t / T
        return float(xi * (a - b * u**h2 - c * u))

    def compute(t):
        u = np.minimum(t / T, 1.0)
        val = xi * (a - b * u**h2 - c * u)
        return np.where(t >= T, 0.0, val)

    return _dispatch(tau, compute)


def _bits(value) -> bytes:
    return struct.pack("<d", value)


def _fields(pair: PairParams) -> dict:
    return {f.name: getattr(pair, f.name) for f in dataclasses.fields(pair)}


class TestPairConstantsCache:
    """``PairParams`` computes its kernel constants once; the kernel that
    reads them gives the uncached kernel's bits."""

    @settings(max_examples=100)
    @given(seed=st.integers(0, 2**32 - 1), log_t=st.floats(0.0, 6.0),
           ij=st.sampled_from([(0, 0), (0, 1), (0, 2), (1, 2), (2, 2)]),
           fracs=st.lists(st.floats(0.0, 1.5), min_size=1, max_size=8))
    def test_property_scalar_matches_uncached_oracle(self, seed, log_t, ij,
                                                     fracs):
        pair = random_admissible(np.random.default_rng(seed), 3,
                                 T=10.0**log_t).pair(*ij)
        t_scale = pair.T
        lags = [0.0, t_scale, 2.0 * t_scale, math.nan] + [
            f * t_scale for f in fracs]
        lags += [np.float64(t) for t in lags]
        lags += [0, int(t_scale), int(t_scale) + 1] + [
            int(f * t_scale) for f in fracs]
        for t in lags:
            got = msfbm_cross_cov(t, pair)
            want = uncached_msfbm_cross_cov(t, pair)
            assert type(got) is float
            assert _bits(got) == _bits(want), t
        taus = np.array([0.0, t_scale, math.nan] + [f * t_scale for f in fracs])
        assert np.array_equal(msfbm_cross_cov(taus, pair),
                              uncached_msfbm_cross_cov(taus, pair),
                              equal_nan=True)

    def test_replace_gives_the_new_pairs_values(self, fig2_pair):
        before = msfbm_cross_cov(100.0, fig2_pair)
        moved = dataclasses.replace(fig2_pair, H_ij=0.3)
        fresh = PairParams(**{**_fields(fig2_pair), "H_ij": 0.3})
        assert msfbm_cross_cov(100.0, moved) == msfbm_cross_cov(100.0, fresh)
        assert msfbm_cross_cov(100.0, moved) != before
        assert moved.kernel_constants == fresh.kernel_constants
        assert msfbm_cross_cov(100.0, fig2_pair) == before

    def test_zero_co_hurst_raises_on_every_call(self):
        pair = PairParams.diagonal(0.05, 0.0, 100.0)
        for tau in (1.0, 1.0, np.array([1.0, 2.0]), np.array([1.0, 2.0])):
            with pytest.raises(KernelDomainError, match="log_kernel_cov"):
                msfbm_cross_cov(tau, pair)
        assert pair.kernel_constants is None

    def test_cache_leaves_identity_unchanged(self, fig2_pair):
        fresh = PairParams(**_fields(fig2_pair))
        msfbm_cross_cov(100.0, fig2_pair)
        mrm_cross_cov_series(200.0, 16.0, fig2_pair)
        assert "kernel_constants" in vars(fig2_pair)
        assert fig2_pair == fresh
        assert hash(fig2_pair) == hash(fresh)
        assert repr(fig2_pair) == repr(fresh)
        restored = pickle.loads(pickle.dumps(fig2_pair))
        assert restored == fresh and hash(restored) == hash(fresh)
        assert repr(restored) == repr(fresh)
        assert (msfbm_cross_cov(100.0, restored)
                == msfbm_cross_cov(100.0, fresh))


class TestLogKernelCov:
    def test_vanishes_at_t(self):
        assert log_kernel_cov(T_GRID, 1.0, 0.05, T_GRID) == 0.0

    def test_branch_continuity_at_cutoff(self):
        ell, xi = 2.0, 0.05
        capped = log_kernel_cov(ell * (1 - 1e-12), ell, xi, T_GRID)
        logged = log_kernel_cov(ell, ell, xi, T_GRID)
        assert capped == pytest.approx(logged, rel=1e-9)
        assert logged == pytest.approx(-xi * math.log(ell / T_GRID), rel=1e-14)

    def test_hand_value(self):
        assert log_kernel_cov(64.0, 1.0, 0.05, T_GRID) == pytest.approx(
            -0.05 * math.log(64.0 / T_GRID), rel=1e-14)
        assert log_kernel_cov(64.0, 1.0, 0.05, T_GRID) == pytest.approx(
            0.27725887222, rel=1e-10)

    def test_cutoff_domain(self):
        with pytest.raises(KernelDomainError):
            log_kernel_cov(1.0, 10.0, 0.05, 10.0)


class TestNoiseCorrelation:
    def test_branches_agree_at_t(self, fig2_pair):
        assert noise_correlation(T_GRID, fig2_pair) == pytest.approx(
            fig2_pair.g, rel=1e-14)
        assert noise_correlation(2 * T_GRID, fig2_pair) == fig2_pair.g

    def test_diagonal_is_one(self):
        pair = PairParams.diagonal(0.05, 0.1, 100.0)
        for h in (0.1, 1.0, 50.0, 99.0, 500.0):
            assert noise_correlation(h, pair) == pytest.approx(1.0, rel=1e-15)

    def test_hand_value(self, fig2_pair):
        expected = 0.5 * 0.5 ** (2 * (0.15 - 0.02))
        assert noise_correlation(0.5 * T_GRID, fig2_pair) == pytest.approx(
            expected, rel=1e-13)
        assert expected == pytest.approx(0.41754, abs=1e-5)

    def test_bounded_by_one(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            params = random_admissible(rng, 3)
            pair = params.pair(0, 2)
            h = rng.uniform(1e-3, 3 * params.T)
            assert abs(noise_correlation(h, pair)) <= 1.0 + 1e-15

    @pytest.mark.parametrize("h", [0.0, np.array([1.0, 0.0])],
                             ids=["zero", "zero-in-array"])
    def test_zero_scale_rejected(self, fig2_pair, h):
        # a negative scale fails the lag check first
        with pytest.raises(KernelDomainError,
                           match="^scale h must be positive$"):
            noise_correlation(h, fig2_pair)


class TestIntegratedCov:
    def test_small_delta_recovers_instantaneous_kernel(self, fig2_pair):
        lam = math.sqrt(fig2_pair.lambda_i2 * fig2_pair.lambda_j2)
        tau = 100.0
        target = msfbm_cross_cov(tau, fig2_pair) / lam
        errs = []
        for delta in (1.0, 0.1, 0.001):
            approx = integrated_cov(tau, delta, fig2_pair) / delta**2
            errs.append(abs(approx - target))
        # quadratic decay in Delta/tau until the floating-point floor
        assert errs[1] < errs[0] * 2e-2
        assert errs[2] < 1e-10

    def test_diagonal_lag_zero_against_quadrature(self):
        pair = PairParams.diagonal(0.05, 0.02, T_GRID)
        ref, _ = kernel_quadrature(pair, 0.0, 16.0)
        assert integrated_cov(0.0, 16.0, pair) == pytest.approx(ref, rel=1e-8)

    def test_cross_lag_against_quadrature(self, fig2_pair):
        ref, _ = kernel_quadrature(fig2_pair, 5.0, 1.0)
        assert integrated_cov(5.0, 1.0, fig2_pair) == pytest.approx(ref, rel=1e-8)

    def test_quadrature_grid(self):
        # compressed version of the full acceptance sweep
        for hij, hbar_frac, ratio in [(0.05, 0.5, 0.0), (0.3, 0.9, 1.0),
                                      (0.45, 0.2, 5.0), (0.15, 1.0, 50.0)]:
            hbar = hij * hbar_frac
            pair = PairParams(g=0.7, H_ij=hij, lambda_i2=0.05, lambda_j2=0.05,
                              H_i=hbar, H_j=hbar, T=1000.0)
            delta = 1.0
            tau = ratio * delta
            ref, _ = kernel_quadrature(pair, tau, delta)
            assert integrated_cov(tau, delta, pair) == pytest.approx(ref, rel=1e-8)

    def test_symmetric_and_finite_at_zero(self, fig2_pair):
        val = integrated_cov(0.0, 1.0, fig2_pair)
        assert math.isfinite(val)

    def test_out_of_domain(self, fig2_pair):
        with pytest.raises(KernelDomainError):
            integrated_cov(T_GRID, 1.0, fig2_pair)
        # a NaN Delta fails the window check of every block kernel
        for kernel in (integrated_cov, logvol_incr_cov):
            with pytest.raises(KernelDomainError,
                               match="Delta must be positive, got nan"):
                kernel(2.0, math.nan, fig2_pair)

    def test_interval_cov_consistency(self, fig2_pair):
        # also near H = 0, where the power-law terms are of order 1/H
        rough = PairParams(g=0.5, H_ij=1e-8, lambda_i2=0.05, lambda_j2=0.05,
                           H_i=1e-8, H_j=1e-8, T=T_GRID)
        for pair in (fig2_pair, rough):
            for tau in (0.0, 1.0, 3.0, 40.0):
                a = integrated_cov(tau, 2.0, pair)
                b = interval_cov((0.0, 2.0), (tau, tau + 2.0), pair)
                assert a == pytest.approx(b, rel=1e-12)

    def test_interval_cov_unequal_lengths_against_quadrature(self, fig2_pair):
        lam = math.sqrt(fig2_pair.lambda_i2 * fig2_pair.lambda_j2)
        ref, _ = sint.dblquad(
            lambda v, u: msfbm_cross_cov(abs(u - v), fig2_pair),
            0.0, 3.0, 5.0, 12.0, epsabs=1e-11, epsrel=1e-11)
        got = interval_cov((0.0, 3.0), (5.0, 12.0), fig2_pair)
        assert got == pytest.approx(ref / lam, rel=1e-8)

    @pytest.mark.parametrize("interval_i, interval_j, message", [
        ((1.0, 1.0), (2.0, 3.0), "intervals must have positive length"),
        ((0.0, 1.0), (3.0, 2.0), "intervals must have positive length"),
        ((0.0, 1.0), (T_GRID, T_GRID + 1.0),
         f"interval separation {T_GRID + 1.0} exceeds the validity window "
         f"T = {T_GRID}"),
    ])
    def test_interval_cov_domain(self, fig2_pair, interval_i, interval_j,
                                 message):
        with pytest.raises(KernelDomainError) as info:
            interval_cov(interval_i, interval_j, fig2_pair)
        assert str(info.value) == message


class TestLogvolIncrements:
    def test_increment_identity(self, fig2_pair):
        # the closed form is 2 g (unit(0) - unit(tau)) of the block
        # covariance: one path with integrated_cov, so only the rounding of
        # the g Delta^2 scaling separates them
        for delta in (1.0, 4.0, 16.0):
            for tau in (1.0, 5.0, 64.0, 1000.0):
                direct = logvol_incr_cov(tau, delta, fig2_pair)
                via_blocks = 2.0 * (integrated_cov(0.0, delta, fig2_pair)
                                    - integrated_cov(tau, delta, fig2_pair)) / delta**2
                assert direct == pytest.approx(via_blocks, rel=1e-10, abs=1e-13)

    def test_zero_correlation_gives_zero(self):
        pair = PairParams(g=0.0, H_ij=0.15, lambda_i2=0.05, lambda_j2=0.05,
                          H_i=0.02, H_j=0.02, T=T_GRID)
        for tau in (1.0, 10.0):
            assert logvol_incr_cov(tau, 1.0, pair) == 0.0

    def test_diagonal_reduces_to_univariate_variance(self):
        pair = PairParams.diagonal(0.05, 0.02, T_GRID)
        val = logvol_incr_cov(8.0, 1.0, pair)
        via_blocks = 2.0 * (integrated_cov(0.0, 1.0, pair)
                            - integrated_cov(8.0, 1.0, pair))
        assert val == pytest.approx(via_blocks, rel=1e-10)
        assert val > 0

    def test_variance_increases_with_lag(self):
        pair = PairParams.diagonal(0.05, 0.1, T_GRID)
        vals = [logvol_incr_cov(t, 1.0, pair) for t in (2.0, 8.0, 64.0, 512.0)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_correlation_diagonal_is_one(self):
        pair = PairParams.diagonal(0.05, 0.02, T_GRID)
        assert logvol_incr_corr(8.0, 1.0, pair) == pytest.approx(1.0, rel=1e-12)

    def test_correlation_zero_for_uncorrelated(self):
        pair = PairParams(g=0.0, H_ij=0.15, lambda_i2=0.05, lambda_j2=0.05,
                          H_i=0.02, H_j=0.02, T=T_GRID)
        assert logvol_incr_corr(8.0, 1.0, pair) == 0.0

    def test_correlation_bounded(self):
        rng = np.random.default_rng(41)
        for _ in range(40):
            params = random_admissible(rng, 2)
            pair = params.pair(0, 1)
            tau = rng.uniform(2.0, params.T / 4)
            delta = rng.uniform(0.1, tau)
            if tau + delta > params.T:
                continue
            rho = logvol_incr_corr(tau, delta, pair)
            assert abs(rho) <= 1.0 + 1e-9
        # a multifractal marginal, H_i = 0, has the log kernel's variance
        params = ModelParams(T=1024.0, H=[[0.0, 0.1], [0.1, 0.02]],
                             xi=[[0.05, 0.025], [0.025, 0.05]])
        for tau, delta in ((2.0, 1.0), (32.0, 4.0), (512.0, 16.0)):
            rho = logvol_incr_corr(tau, delta, params.pair(0, 1))
            assert -1.0 <= rho <= 1.0

    def test_requires_positive_lag(self, fig2_pair):
        with pytest.raises(KernelDomainError):
            logvol_incr_cov(0.0, 1.0, fig2_pair)

    def test_degenerate_variance_rejected(self):
        # at tau = 3e-13 Delta the exact increment variance of a multifractal
        # marginal (about 1e-25) is below the rounding of the block variance
        # it is computed from, and the computed value is not positive
        pair = PairParams(g=0.5, H_ij=0.1, lambda_i2=0.05, lambda_j2=0.05,
                          H_i=0.0, H_j=0.0, T=1024.0)
        with pytest.raises(KernelDomainError,
                           match=r"^degenerate increment variance \(var_i="):
            logvol_incr_corr(3e-13, 1.0, pair)


class TestMrmCrossCov:
    def test_independent_measures_give_area_squared(self):
        pair = PairParams(g=0.0, H_ij=0.15, lambda_i2=0.05, lambda_j2=0.05,
                          H_i=0.02, H_j=0.02, T=T_GRID)
        res = mrm_cross_cov_series(4.0, 1.0, pair)
        assert res.value == pytest.approx(1.0, rel=1e-14)
        assert mrm_cross_cov_sia(4.0, 1.0, pair) == pytest.approx(1.0, rel=1e-14)

    def test_diagonal_series_matches_gamma_closed_form(self):
        # with no linear term the first-order formula is exact, so the two
        # independent code paths must agree to series tolerance
        pair = PairParams.diagonal(0.05, 0.02, T_GRID)
        for tau, delta in [(4.0, 1.0), (40.0, 8.0), (1000.0, 16.0)]:
            res = mrm_cross_cov_series(tau, delta, pair)
            assert res.converged
            assert res.value == pytest.approx(
                mrm_cross_cov_sia(tau, delta, pair), rel=1e-10)

    def test_series_against_quadrature(self, fig2_pair):
        def integrand(v, u):
            return math.exp(msfbm_cross_cov(abs(u - v), fig2_pair))
        ref, _ = sint.dblquad(integrand, 0.0, 1.0, 4.0, 5.0,
                              epsabs=1e-11, epsrel=1e-11)
        res = mrm_cross_cov_series(4.0, 1.0, fig2_pair)
        assert res.value == pytest.approx(ref, rel=1e-8)

    def test_sia_close_to_series_for_small_amplitude(self):
        pair = PairParams(g=0.5, H_ij=0.15, lambda_i2=0.005, lambda_j2=0.005,
                          H_i=0.02, H_j=0.02, T=T_GRID)
        series = mrm_cross_cov_series(8.0, 1.0, pair).value
        sia = mrm_cross_cov_sia(8.0, 1.0, pair)
        assert sia == pytest.approx(series, rel=1e-3)

    def test_negative_correlation(self):
        pair = PairParams(g=-0.99, H_ij=0.15, lambda_i2=0.05, lambda_j2=0.05,
                          H_i=0.02, H_j=0.02, T=T_GRID)
        def integrand(v, u):
            return math.exp(msfbm_cross_cov(abs(u - v), pair))
        ref, _ = sint.dblquad(integrand, 0.0, 1.0, 6.0, 7.0,
                              epsabs=1e-11, epsrel=1e-11)
        res = mrm_cross_cov_series(6.0, 1.0, pair)
        assert res.value == pytest.approx(ref, rel=1e-8)

    def test_domain_requires_tau_above_delta(self, fig2_pair):
        with pytest.raises(KernelDomainError):
            mrm_cross_cov_series(1.0, 2.0, fig2_pair)

    @pytest.mark.parametrize("form", [mrm_cross_cov_series, mrm_cross_cov_sia])
    def test_overflowing_exponential_is_a_domain_error(self, form):
        # xi A = g lambda^2 (1 + 2 H_ij - 2 h_bar) / (2 H_ij (1 - 2 h_bar)),
        # 12 500 at H_ij = 1e-6: M = exp(xi A) is not a float
        pair = PairParams(g=0.5, H_ij=1e-6, lambda_i2=0.05, lambda_j2=0.05,
                          H_i=1e-6, H_j=1e-6, T=1024.0)
        xi_a = pair.xi_ij * pair.kernel_constants[1]
        with pytest.raises(KernelDomainError) as info:
            form(8.0, 4.0, pair)
        assert str(info.value) == f"M = exp(xi A) overflows at xi A = {xi_a}"

    @pytest.mark.parametrize("form", [mrm_cross_cov_series, mrm_cross_cov_sia])
    def test_domain_checks_run_in_order(self, form):
        # the window, then tau > Delta, then H_ij > 0
        zero = PairParams.diagonal(0.05, 0.0, 100.0)
        for tau, delta, message in (
                (99.0, 2.0, "tau + Delta = 101.0 exceeds the validity window "
                            "T = 100.0"),
                (2.0, math.nan, "Delta must be positive, got nan"),
                (1.0, 2.0, "need tau > Delta, got tau=1.0, Delta=2.0"),
                (4.0, 2.0, "H_ij = 0 has no power-law kernel")):
            with pytest.raises(KernelDomainError) as info:
                form(tau, delta, zero)
            assert str(info.value).startswith(message)

    def test_nonconvergence_flagged(self, fig2_pair, monkeypatch):
        import mlogsfbm.kernels as kern
        monkeypatch.setattr(kern, "_MRM_MAX_TERMS", 2)
        res = mrm_cross_cov_series(4.0, 1.0, fig2_pair)
        assert not res.converged
        assert res.terms_used == 2
        assert res.rel_error > 1e-12


class TestZetaExponent:
    def test_values(self):
        assert zeta_exponent(0.0, 0.0, 0.3) == 0.0
        assert zeta_exponent(1.0, 0.0, 0.0) == 1.0
        assert zeta_exponent(1.0, 1.0, 0.05) == pytest.approx(1.9, rel=1e-15)

    def test_symmetric_and_concave(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            p, q = rng.uniform(-2, 3, size=2)
            xi = rng.uniform(0.0, 0.2)
            assert zeta_exponent(p, q, xi) == zeta_exponent(q, p, xi)
        # concavity in p+q: second difference <= 0
        xi = 0.07
        vals = [zeta_exponent(s, 0.0, xi) for s in (1.0, 2.0, 3.0)]
        assert vals[0] - 2 * vals[1] + vals[2] <= 0


def enumerate_pairings(indices):
    """Independent pairing enumerator used as the oracle."""
    if not indices:
        yield []
        return
    first = indices[0]
    for k in range(1, len(indices)):
        partner = indices[k]
        rest = indices[1:k] + indices[k + 1:]
        for tail in enumerate_pairings(rest):
            yield [(first, partner)] + tail


def wick_oracle(cov):
    n = cov.shape[0]
    if n % 2:
        return 0.0
    total = 0.0
    for pairing in enumerate_pairings(tuple(range(n))):
        prod = 1.0
        for i, j in pairing:
            prod *= cov[i, j]
        total += prod
    return total


class TestWickMoment:
    def test_odd_is_zero(self):
        rng = np.random.default_rng(8)
        for n in (1, 3, 5, 7):
            a = rng.standard_normal((n, n + 1))
            cov = a @ a.T
            assert wick_moment(cov) == 0.0

    def test_pair_case(self):
        cov = np.array([[2.0, 0.7], [0.7, 1.0]])
        assert wick_moment(cov) == pytest.approx(0.7)

    def test_all_ones_four(self):
        assert wick_moment(np.ones((4, 4))) == pytest.approx(3.0, abs=1e-14)

    def test_against_enumeration(self):
        rng = np.random.default_rng(13)
        for n in (2, 4, 6):
            for _ in range(10):
                a = rng.standard_normal((n, n + 2))
                cov = a @ a.T
                assert wick_moment(cov) == pytest.approx(
                    wick_oracle(cov), rel=1e-12)

    def test_six_has_fifteen_pairings(self):
        pairings = list(enumerate_pairings(tuple(range(6))))
        assert len(pairings) == 15

    def test_size_guard(self):
        with pytest.raises(ValueError):
            wick_moment(np.eye(18))

    def test_symmetry_guard(self):
        bad = np.array([[1.0, 0.5], [0.2, 1.0]])
        with pytest.raises(ValueError):
            wick_moment(bad)

    @pytest.mark.parametrize("cov, message", [
        (np.ones(3), "covariance must be a square matrix"),
        (np.ones((2, 3)), "covariance must be a square matrix"),
        (np.diag([1.0, -1.0]),
         "covariance must be positive semidefinite within tolerance"),
    ])
    def test_shape_and_definiteness_guards(self, cov, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            wick_moment(cov)


class TestSiaGeneralizedMoment:
    def test_two_marginals_reduce_to_single_pair(self, fig2_params):
        intervals = [(0.0, 1.0), (5.0, 6.0)]
        got = sia_generalized_moment(intervals, fig2_params)
        pair = fig2_params.pair(0, 1)
        lam = math.sqrt(0.05 * 0.05)
        expected = lam * interval_cov(intervals[0], intervals[1], pair)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_identical_marginals_same_interval(self):
        # g = 1 coupling of two copies: the leading term is the block variance
        lam2, h = 0.05, 0.1
        params = ModelParams(T=T_GRID, H=[[h, h], [h, h]],
                             xi=[[lam2, lam2], [lam2, lam2]])
        got = sia_generalized_moment([(0.0, 2.0), (0.0, 2.0)], params)
        pair = PairParams.diagonal(lam2, h, T_GRID)
        expected = lam2 * integrated_cov(0.0, 2.0, pair) / 4.0
        assert got == pytest.approx(expected, rel=1e-12)

    def test_odd_count_vanishes(self):
        rng = np.random.default_rng(17)
        params = random_admissible(rng, 3)
        assert sia_generalized_moment(
            [(0.0, 1.0), (2.0, 3.0), (4.0, 5.0)], params) == 0.0

    def test_window_guard(self, fig2_params):
        with pytest.raises(KernelDomainError):
            sia_generalized_moment(
                [(0.0, 1.0), (2 * T_GRID, 2 * T_GRID + 1)], fig2_params)

    def test_one_interval_per_marginal(self, fig2_params):
        with pytest.raises(ValueError, match="^expected 2 intervals, got 1$"):
            sia_generalized_moment([(0.0, 1.0)], fig2_params)


class TestIndexVariance:
    def test_single_asset_reduction(self):
        params = ModelParams(T=T_GRID, H=[[0.1]], xi=[[0.05]])
        tau, delta = 16.0, 4.0
        got = index_logvol_variance([1.0], params, tau, delta)
        pair = PairParams.diagonal(0.05, 0.1, T_GRID)
        assert got == pytest.approx(
            0.05 * logvol_incr_cov(tau, delta, pair), rel=1e-12)

    def test_diagonal_model_term_by_term(self):
        d = 4
        lam2 = np.array([0.04, 0.05, 0.06, 0.07])
        h_diag = np.array([0.05, 0.1, 0.15, 0.2])
        h = np.full((d, d), 0.3)
        np.fill_diagonal(h, h_diag)
        params = ModelParams(T=T_GRID, H=h, xi=np.diag(lam2))
        # strictly PD is not required here; off-diagonal xi = 0
        tau, delta = 32.0, 8.0
        got = index_logvol_variance([1.0 / d] * d, params, tau, delta)
        expected = sum(
            (1.0 / d) ** 4 * lam2[i]
            * logvol_incr_cov(tau, delta, PairParams.diagonal(lam2[i], h_diag[i], T_GRID))
            for i in range(d))
        assert got == pytest.approx(expected, rel=1e-12)

    def test_homogeneous_two_term_split(self):
        d = 5
        lam2, h_prime, h_cross = 0.05, 0.02, 0.15
        h = np.full((d, d), h_cross)
        np.fill_diagonal(h, h_prime)
        params = ModelParams(T=T_GRID, H=h, xi=np.full((d, d), lam2))
        tau, delta = 80.0, 16.0
        cross, diag = index_variance_decomposition(
            [1.0 / d] * d, params, tau, delta)
        pair_cross = PairParams(g=1.0, H_ij=h_cross, lambda_i2=lam2,
                                lambda_j2=lam2, H_i=h_prime, H_j=h_prime,
                                T=T_GRID)
        pair_diag = PairParams.diagonal(lam2, h_prime, T_GRID)
        expected_cross = (d**2 - d) / d**4 * lam2 * logvol_incr_cov(
            tau, delta, pair_cross)
        expected_diag = 1.0 / d**3 * lam2 * logvol_incr_cov(
            tau, delta, pair_diag)
        assert cross == pytest.approx(expected_cross, rel=1e-12)
        assert diag == pytest.approx(expected_diag, rel=1e-12)
        assert index_logvol_variance([1.0 / d] * d, params, tau, delta) == \
            pytest.approx(expected_cross + expected_diag, rel=1e-12)

    def test_non_negative(self):
        rng = np.random.default_rng(29)
        for _ in range(10):
            params = random_admissible(rng, 3)
            tau = rng.uniform(4.0, params.T / 8)
            delta = rng.uniform(0.5, tau / 2)
            w = rng.uniform(0.1, 1.0, size=3)
            assert index_logvol_variance(w, params, tau, delta) >= -1e-15

    def test_factor_term_dominates_linearly_in_d(self):
        # equal-weight homogeneous basket: cross/diagonal ratio ~ (d-1)
        tau, delta = 64.0, 8.0
        ratios = {}
        for d in (10, 50):
            h = np.full((d, d), 0.15)
            np.fill_diagonal(h, 0.02)
            params = ModelParams(T=T_GRID, H=h, xi=np.full((d, d), 0.05))
            cross, diag = index_variance_decomposition(
                [1.0 / d] * d, params, tau, delta)
            ratios[d] = cross / diag
        assert ratios[50] / ratios[10] == pytest.approx(49.0 / 9.0, rel=1e-9)

    def test_domain(self, fig2_params):
        with pytest.raises(KernelDomainError):
            index_logvol_variance([0.5, 0.5], fig2_params, 2 * T_GRID, 1.0)
        for weights in ([0.0, 1.0], [math.nan, 1.0]):
            with pytest.raises(ValueError, match="weights must be positive"):
                index_variance_decomposition(weights, fig2_params, 8.0, 1.0)
        with pytest.raises(ValueError, match=r"^expected 2 weights, got "
                                             r"shape \(3,\)$"):
            index_variance_decomposition([0.2, 0.3, 0.5], fig2_params, 8.0,
                                         1.0)


_SMALL_Z = 1e-4


def _second_diff_ratio(z, alpha: float):
    """(|1+z|^(a+2) + |1-z|^(a+2) - 2) / (z^2 (1+a)(2+a)), the normalised
    second difference of |x|^(a+2) at step z.  Below _SMALL_Z it is the
    series 1 + a (a-1) z^2/12; at a = 1 it is exactly 1 while z <= 1, since
    the second difference of |x|^3 there is 6 z^2."""
    z = np.asarray(z, dtype=float)
    if alpha == 1.0 and np.all(z <= 1.0):
        return np.ones_like(z)
    direct = (
        np.abs(1.0 + z) ** (alpha + 2.0)
        + np.abs(1.0 - z) ** (alpha + 2.0)
        - 2.0
    ) / (z * z * (1.0 + alpha) * (alpha + 2.0))
    if alpha == 1.0:
        return np.where(z <= 1.0, 1.0, direct)
    small = z < _SMALL_Z
    if not small.any():
        return direct
    series = 1.0 + alpha * (alpha - 1.0) * (z * z / 12.0)
    return np.where(small, series, direct)


def _increment_variance_bracket(z: float, hurst: float) -> float:
    """Increment-variance shape as a function of z = Delta/tau alone, with
    the (tau/T)^(2H) factor stripped; extends continuously to hurst = 0."""
    if hurst == 0.0:
        if z >= 1.0:
            raise KernelDomainError("need z = Delta/tau < 1 at the H' -> 0 limit")
        corr = ((1.0 + z) ** 2 * math.log1p(z)
                + (1.0 - z) ** 2 * math.log1p(-z)) / (2.0 * z * z)
        return -math.log(z) + corr
    h2 = 2.0 * hurst
    e2 = float(_second_diff_ratio(np.asarray(z), h2))
    bracket = e2 - z**h2 / ((1.0 + h2) * (1.0 + hurst))
    return bracket / (h2 * (1.0 - h2))


def _finite_ratio_bound_reference(H, Hprime, delta, tau, T, d):
    """The finite bound as computed before the shared block covariance, from
    the two routines above (kept verbatim as the oracle)."""
    z = delta / tau
    r = _increment_variance_bracket(z, Hprime) / _increment_variance_bracket(z, H)
    return (d - 1) * (tau / T) ** (2.0 * (H - Hprime)) / r


@st.composite
def ratio_bound_cases(draw, log_marginal=True):
    # z = Delta/tau in [0.01, 0.99]: the oracle loses about eps/z^2 times
    # 1/H' to cancellation, which stays below 1e-9 there
    H = draw(st.floats(0.02, 0.49))
    Hprime = draw(st.floats(0.01, H, exclude_max=True))
    if log_marginal:
        Hprime = draw(st.sampled_from((0.0, Hprime)))
    delta = draw(st.sampled_from((0.1, 1.0, 16.0)))
    tau = delta / draw(st.floats(0.01, 0.99))
    T = (tau + delta) * draw(st.floats(1.0, 1e3))
    return H, Hprime, delta, tau, T, draw(st.integers(1, 200))


class TestIndexRatioBound:
    @given(ratio_bound_cases())
    def test_finite_matches_reference(self, case):
        want = _finite_ratio_bound_reference(*case)
        assert index_ratio_bound(*case).finite == pytest.approx(want, rel=1e-8)

    @given(ratio_bound_cases(log_marginal=False))
    def test_finite_is_the_increment_variance_ratio(self, case):
        # H' > 0: the diagonal PairParams kernels have no H = 0 branch
        H, Hprime, delta, tau, T, d = case
        var = [logvol_incr_cov(tau, delta, PairParams.diagonal(0.05, h, T))
               for h in (H, Hprime)]
        got = index_ratio_bound(H, Hprime, delta, tau, T, d).finite
        assert got == pytest.approx((d - 1) * var[0] / var[1], rel=1e-13)

    def test_single_asset_is_zero(self):
        rb = index_ratio_bound(0.15, 0.0, 1.0, 5.0, T_GRID, 1)
        assert rb.finite == 0.0
        assert rb.limit == 0.0

    def test_c_h_high_precision(self):
        mpmath.mp.dps = 50
        h = mpmath.mpf("0.15")
        expected = float(h * (1 - 2 * h) * (1 + 2 * h) * (1 + h)
                         / (2 * (2 ** (2 * h) - 1)))
        rb = index_ratio_bound(0.15, 0.0, 1.0, 5.0, T_GRID, 10)
        assert rb.c_h == pytest.approx(expected, rel=1e-13)

    def test_c_h_at_a_vanishing_co_hurst(self):
        # 2^(2H) - 1 rounds to 0 below H = 8e-17; C_H -> 1/(4 ln 2)
        rb = index_ratio_bound(1e-300, 0.0, 1.0, 5.0, T_GRID, 2)
        assert rb.c_h == pytest.approx(1.0 / (4.0 * math.log(2.0)), rel=1e-15)
        assert math.isfinite(rb.limit) and math.isfinite(rb.finite)

    def test_needs_one_marginal(self):
        with pytest.raises(ValueError, match="^d must be >= 1$"):
            index_ratio_bound(0.2, 0.05, 1.0, 10.0, 100.0, 0)

    def test_limit_near_two_d_in_slow_decay_regime(self):
        # tau close to T so the (tau/T)^(2H) factor is ~ 1
        tau = 0.99 * T_GRID
        for d in (10, 100):
            rb = index_ratio_bound(0.15, 0.0, tau / 5.0, tau, T_GRID, d)
            assert rb.limit == pytest.approx(2 * d, rel=0.10)

    def test_finite_bound_positive_and_ordering_checked(self):
        rb = index_ratio_bound(0.2, 0.05, 1.0, 10.0, 100.0, 7)
        assert rb.finite > 0
        with pytest.raises(KernelDomainError):
            index_ratio_bound(0.05, 0.2, 1.0, 10.0, 100.0, 7)
        with pytest.raises(KernelDomainError):
            index_ratio_bound(0.2, 0.05, 10.0, 1.0, 100.0, 7)
