"""``kernels.block_cov_sequence``, the one implementation of the block
covariance the estimator uses, against the per-fit model class it replaced
(kept verbatim as the oracle) and against ``integrated_cov``."""

from typing import Sequence

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mlogsfbm import KernelDomainError, PairParams, integrated_cov
from mlogsfbm.kernels import block_cov_sequence, block_support


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
def test_matches_model_class_exactly(case):
    n, delta, hij, h_bar, scale, t_val = case
    want = _BlockCovModel(n, delta, ()).cov_sequence(hij, h_bar, scale, t_val)
    got = scale * block_cov_sequence(n, delta, hij, h_bar, t_val)
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
)
SUPPORT_IDS = ("inside", "at-span", "beyond", "slack-keeps", "slack-drops")


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
