"""``kernels.block_cov_sequence``, the one implementation of the block
covariance the estimator uses, against the per-fit model class it replaced
(kept verbatim as the oracle), against 50-digit ``mpmath`` and against
``integrated_cov``."""

from typing import Sequence

import mpmath
import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from mlogsfbm import (
    KernelDomainError,
    PairParams,
    integrated_cov,
    interval_cov,
    logvol_incr_cov,
)
from mlogsfbm.kernels import block_cov_sequence, block_support

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


class _BlockCovModel:
    """Optimizer-facing model curve: precomputes every roughness-independent
    array once per fit so a parameter evaluation costs a few vector power
    calls.  Matches integrated_cov / delta^2 to rounding (tested)."""

    def __init__(self, n: int, delta: float, taus: Sequence[int]):
        self.n = n
        self.delta = delta
        self.taus = tuple(taus)
        k = np.arange(1, n)
        self.abs_lags = k * delta
        self.z = delta / self.abs_lags
        z = self.z
        # second-difference ratio at alpha = 1 is exactly 1 for z <= 1
        self.e1 = np.where(
            z <= 1.0, 1.0,
            (np.abs(1 + z) ** 3 + np.abs(1 - z) ** 3 - 2) / (6 * z * z))
        self.small = z < 1e-4
        self.z2_12 = z * z / 12.0

    def _e_ratio(self, alpha: float) -> np.ndarray:
        z = self.z
        direct = (
            np.abs(1.0 + z) ** (alpha + 2.0)
            + np.abs(1.0 - z) ** (alpha + 2.0)
            - 2.0
        ) / (z * z * (1.0 + alpha) * (alpha + 2.0))
        if self.small.any():
            series = 1.0 + alpha * (alpha - 1.0) * self.z2_12
            return np.where(self.small, series, direct)
        return direct

    def cov_sequence(self, hij: float, hbar: float, scale: float,
                     t_val: float) -> np.ndarray:
        """scale * cov(block_0, block_k) / delta^2 for k = 0..n-1 with the
        kernel coefficients of joint roughness hij and marginal mean hbar."""
        h2 = 2.0 * hij
        a = (1.0 + h2 - 2.0 * hbar) / (h2 * (1.0 - 2.0 * hbar))
        b = 1.0 / (h2 * (1.0 - h2))
        c = (h2 - 2.0 * hbar) / ((h2 - 1.0) * (1.0 - 2.0 * hbar))
        u = self.abs_lags / t_val
        g2h = u**h2 * self._e_ratio(h2)
        g1 = u * self.e1
        r = np.empty(self.n)
        r[1:] = a - b * g2h - c * g1
        dt = self.delta / t_val
        r[0] = (a - 2.0 * b * dt**h2 / ((1.0 + h2) * (2.0 + h2))
                - c * dt / 3.0)
        r *= scale
        r[self.delta + np.arange(self.n) * self.delta > t_val * (1 + 1e-12)] = 0.0
        return r


DELTAS = (0.1, 1.0 / 3.0, 1.0, 16.0)


@st.composite
def sequence_cases(draw):
    n = draw(st.integers(1, 2**14))
    delta = draw(st.sampled_from(DELTAS))
    kind = draw(st.sampled_from(("multiple", "near-multiple", "anywhere")))
    if kind == "anywhere":
        t_val = draw(st.floats(0.5 * delta, 1.5 * (n + 1) * delta))
    else:
        # exact multiples of delta, and one rounding step either side of
        # the window check
        t_val = draw(st.integers(0, n + 2)) * delta
        if kind == "near-multiple":
            t_val *= 1.0 + draw(st.sampled_from((-2e-12, -1e-12, 1e-12,
                                                 2e-12)))
        t_val = max(t_val, 0.5 * delta)
    h_bar = draw(st.floats(1e-4, 0.45))
    hij = draw(st.one_of(st.just(h_bar), st.floats(h_bar + 1e-6, 0.4999)))
    scale = draw(st.one_of(st.just(1.0), st.floats(-1.0, 1.0),
                           st.floats(1e-10, 10.0)))
    return n, delta, hij, h_bar, scale, t_val


@given(sequence_cases())
def test_matches_model_class(case):
    # the model class is the old formula, and the less accurate side: at
    # H = 1e-4 and T near 1e4 Delta, where its last lags still take the
    # direct second difference, its own error reaches 1.4e-5 of the largest
    # entry (and 94% of the last entry; see the mpmath property)
    n, delta, hij, h_bar, scale, t_val = case
    want = _BlockCovModel(n, delta, ()).cov_sequence(hij, h_bar, scale, t_val)
    got = scale * block_cov_sequence(n, delta, hij, h_bar, t_val)
    assert np.max(np.abs(got - want), initial=0.0) <= (
        5e-5 * np.max(np.abs(want), initial=0.0))


def _unit_mpmath(k, delta, t_val, hij, h_bar):
    """Unit block covariance over Delta^2 at the lag k Delta, in 50 digits:
    B (area - psi(a)) + C (area - psi(1)) with psi(a) the four-point second
    difference of |x|^(a+2) / (T^a (1+a)(2+a)), and at a = 0 the log form
    (3 area - sum of +-D^2 ln(D/T)) / 2 of the B-term."""
    with mpmath.workdps(50):
        tau = mpmath.mpf(k * delta)  # the double the code evaluates
        d, t_val = mpmath.mpf(delta), mpmath.mpf(t_val)
        a, hb = 2 * mpmath.mpf(hij), mpmath.mpf(h_bar)
        area = d * d
        points = ((tau + d, 1), (abs(tau - d), 1), (tau, -1), (tau, -1))
        if a == 0:
            power = (3 * area - sum(sg * D * D * mpmath.log(D / t_val)
                                    for D, sg in points if D > 0)) / 2
        else:
            psi = sum(sg * D ** (a + 2) for D, sg in points) / (
                t_val**a * (1 + a) * (2 + a))
            power = (area - psi) / (a * (1 - a))
        psi1 = sum(sg * D**3 for D, sg in points) / (6 * t_val)
        c = (a - 2 * hb) / ((a - 1) * (1 - 2 * hb))
        return float((power + c * (area - psi1)) / area)


@st.composite
def precision_cases(draw):
    hij = draw(st.one_of(st.just(0.0), st.floats(1e-10, 1e-3),
                         st.floats(1e-10, 0.5, exclude_max=True)))
    h_bar = draw(st.floats(0.0, hij))
    delta = draw(st.sampled_from(DELTAS))
    t_val = draw(st.floats(2.0, 1.37 * 2**16)) * delta
    m = block_support(2**17, delta, t_val)
    lags = draw(st.lists(st.integers(0, m - 1), max_size=4))
    return hij, h_bar, delta, t_val, m, sorted({0, 1, m - 1, *lags})


@given(precision_cases())
def test_matches_mpmath(case):
    # 1e-13 where tau + Delta <= T/2 and 1e-10 on the rest of the support,
    # where the kernel vanishes toward T.  As H_ij -> 1/2 the B- and C-terms
    # grow as 1/(1 - 2 H_ij) and cancel, so the bound grows with them.
    hij, h_bar, delta, t_val, m, lags = case
    got = block_cov_sequence(m, delta, hij, h_bar, t_val)
    for k in lags:
        want = _unit_mpmath(k, delta, t_val, hij, h_bar)
        rtol = 1e-13 if (k + 1) * delta <= t_val / 2 else 1e-10
        assert abs(got[k] - want) <= rtol * abs(want) / (1.0 - 2.0 * hij), k


def _log_kernel_quadrature(tau, delta, t_val):
    """Delta^-2 times the double integral of -ln(|x - y|/T) over
    [0, Delta] x [tau, tau + Delta], as the integral over s = y - x - tau of
    the triangle weight Delta - |s|, split at the singularity s = -tau."""
    with mpmath.workdps(30):
        d, tau, t_val = map(mpmath.mpf, (delta, tau, t_val))
        nodes = sorted({-d, d, mpmath.mpf(0)} | ({-tau} if tau <= d else set()))
        val = mpmath.quad(lambda s: -(d - abs(s)) * mpmath.log(abs(tau + s) / t_val),
                          nodes)
        return float(val / (d * d))


@pytest.mark.parametrize("delta, t_val", [(1.0, 64.0), (16.0, 16.0 * 1000.0),
                                          (0.1, 0.1 * 2**14)])
def test_log_kernel_at_zero_roughness(delta, t_val):
    # H_ij = 0: the block covariance of -ln(|x - y|/T), which the pair
    # kernels take too; a power-law pair at H_ij = h_bar = 1e-12 is within
    # its O(H) distance of it
    n = 64
    seq = block_cov_sequence(n, delta, 0.0, 0.0, t_val)
    pair = PairParams(g=1.0, H_ij=1e-12, lambda_i2=0.05, lambda_j2=0.05,
                      H_i=1e-12, H_j=1e-12, T=t_val)
    g = 0.7
    zero = PairParams(g=g, H_ij=0.0, lambda_i2=0.05, lambda_j2=0.03,
                      H_i=0.0, H_j=0.0, T=t_val)
    support = block_support(n, delta, t_val)
    for k in sorted({0, 1, 2, 5, 17, support - 1}):
        want = _log_kernel_quadrature(k * delta, delta, t_val)
        assert seq[k] == pytest.approx(want, rel=1e-12, abs=0.0)
        near = integrated_cov(k * delta, delta, pair) / delta**2
        assert near == pytest.approx(want, rel=1e-10, abs=0.0)
        exact = integrated_cov(k * delta, delta, zero) / (g * delta**2)
        assert exact == pytest.approx(want, rel=1e-12, abs=0.0)
        if k:
            assert logvol_incr_cov(k * delta, delta, zero) == pytest.approx(
                2.0 * g * (seq[0] - seq[k]), rel=1e-12, abs=0.0)
        if k <= 17:
            blocks = interval_cov((0.0, delta), (k * delta, k * delta + delta),
                                  zero)
            assert blocks == pytest.approx(
                integrated_cov(k * delta, delta, zero), rel=1e-12, abs=0.0)


@given(hij=st.floats(0.0, 5e-291, exclude_max=True),
       share=st.floats(0.0, 1.0), delta=st.sampled_from(DELTAS),
       ratio=st.floats(3.0, 2048.0))
# the smallest H_ij: expm1(a ln y)/a would keep none of its bits
@example(hij=5e-324, share=0.0, delta=1.0, ratio=4.0)
def test_subnormal_roughness_is_the_log_kernel(hij, share, delta, ratio):
    # below a = 2 H_ij = 1e-290, (y^a - 1)/a is ln y: a ln y would be
    # subnormal, and the kernel is that of H_ij = 0 to the last bit
    n = 64
    got = block_cov_sequence(n, delta, hij, share * hij, ratio * delta)
    want = block_cov_sequence(n, delta, 0.0, 0.0, ratio * delta)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("delta", DELTAS)
@pytest.mark.parametrize("hij, h_bar", [(0.15, 0.02), (0.02, 0.02),
                                        (0.49, 0.1), (0.25, 0.25)])
def test_integrated_cov_on_the_lag_grid(delta, hij, h_bar):
    # T = 2^14 delta: z = 1/k runs below the small-z switch at 1e-4
    n = 2**14
    pair = PairParams(g=-0.7, H_ij=hij, lambda_i2=0.05, lambda_j2=0.05,
                      H_i=h_bar, H_j=h_bar, T=n * delta)
    seq = block_cov_sequence(n, delta, hij, h_bar, pair.T)
    lags = np.arange(n) * delta
    got = integrated_cov(lags, delta, pair) / delta**2
    want = pair.g * seq
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


# (n, delta, T, support): T inside the series span, at it and beyond it;
# then T = 3 delta at delta = 0.1, where delta + 2 delta rounds above T and
# only the window slack keeps lag 2, and T two slacks below, where it does not
SUPPORT_CASES = (
    (2**14, 16.0, 1024 * 16.0, 1024),
    (2**14, 16.0, 2**14 * 16.0, 2**14),
    (2**14, 16.0, 16 * 2**14 * 16.0, 2**14),
    (64, 0.1, 0.3, 3),
    (64, 0.1, 0.3 * (1.0 - 2e-12), 2),
    # the count T // delta that block_support starts from is one lag short
    # of the support, and one lag over it (a brute-force count agrees)
    (2**18, 0.001, 244.07799999975592, 244078),
    (50000, 0.3271767315263787, 14816.525463888769, 45285),
)
SUPPORT_IDS = ("inside", "at-span", "beyond", "slack-keeps", "slack-drops",
               "floor-short", "floor-over")


@pytest.mark.parametrize("n, delta, t_val, support", SUPPORT_CASES,
                         ids=SUPPORT_IDS)
def test_support_is_the_non_zero_prefix(n, delta, t_val, support):
    assert 0.1 + 2 * 0.1 > 0.3  # the rounding the slack cases rely on
    assert block_support(n, delta, t_val) == support
    r = block_cov_sequence(n, delta, 0.15, 0.1, t_val)
    assert r[support - 1] != 0.0
    assert not r[support:].any()


@given(sequence_cases())
def test_support_rounds_as_the_window_check(case):
    # the last lag of the support passes integrated_cov's check, the first
    # lag past it fails
    n, delta, hij, h_bar, _, t_val = case
    pair = PairParams(g=1.0, H_ij=hij, lambda_i2=0.05, lambda_j2=0.05,
                      H_i=h_bar, H_j=h_bar, T=t_val)
    support = block_support(n, delta, t_val)
    assert 0 <= support <= n
    if support > 0:
        integrated_cov((support - 1) * delta, delta, pair)
    if support < n:
        with pytest.raises(KernelDomainError):
            integrated_cov(support * delta, delta, pair)
