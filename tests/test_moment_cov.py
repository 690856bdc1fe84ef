"""The GMM weight kernel ``_product_moment_cov`` against its reference:
the plain double loop over lag pairs that it replaced, kept verbatim."""

from typing import Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlogsfbm.estimate import LagGrid, _product_moment_cov
from mlogsfbm.kernels import block_cov_sequence


def _product_moment_cov_reference(rxu: np.ndarray, ryv: np.ndarray,
                                  rxv: np.ndarray, ryu: np.ndarray, n: int,
                                  taus: Sequence[int]) -> np.ndarray:
    """Exact Gaussian covariance between two families of product moments,
    cov((1/N) sum_t x_t y_{t+k}, (1/N) sum_s u_s v_{s+l}), given the four
    cross-covariance sequences of the underlying jointly Gaussian series
    (demeaning ignored: it only lowers the variance slightly and these
    matrices act as weights)."""
    q = len(taus)

    def rval(r, m):
        m = np.abs(m)
        out = np.zeros(m.shape)
        ok = m < n
        out[ok] = r[m[ok]]
        return out

    s = np.empty((q, q))
    for a in range(q):
        for b in range(q):
            k, l = taus[a], taus[b]
            m = np.arange(-(n - k) + 1, n - l)
            w = np.minimum(n - l, n - k + m) - np.maximum(1, 1 + m) + 1
            w = np.clip(w, 0, None)
            term = (rval(rxu, m) * rval(ryv, m + l - k)
                    + rval(rxv, m + l) * rval(ryu, m - k))
            s[a, b] = float(np.sum(w * term)) / n**2
    return s


def assert_matches_reference(got, want):
    assert got.shape == want.shape
    scale = float(np.max(np.abs(want))) if want.size else 0.0
    assert np.max(np.abs(got - want), initial=0.0) <= 1e-12 * scale


N_FIXED = 2**14
DELTA = 16.0

# the six blocks of _cv_adjusted_cross_moments and the univariate weight,
# whose sequences are (r1, r1, r1, r1)
PATTERNS = ("s_cc", "s_c_ii", "s_c_jj", "s_ii_ii", "s_jj_jj", "s_ii_jj",
            "univariate")


def _pattern_args(name, t_val):
    r_ii = 0.05 * block_cov_sequence(N_FIXED, DELTA, 0.02, 0.02, t_val)
    r_jj = 0.04 * block_cov_sequence(N_FIXED, DELTA, 0.06, 0.06, t_val)
    r_ij = 0.02 * block_cov_sequence(N_FIXED, DELTA, 0.15, 0.04, t_val)
    r_1 = 0.06 * block_cov_sequence(N_FIXED, DELTA, 0.25, 0.25, t_val)
    return {
        "s_cc": (r_ii, r_jj, r_ij, r_ij),
        "s_c_ii": (r_ii, r_ij, r_ii, r_ij),
        "s_c_jj": (r_ij, r_jj, r_ij, r_jj),
        "s_ii_ii": (r_ii, r_ii, r_ii, r_ii),
        "s_jj_jj": (r_jj, r_jj, r_jj, r_jj),
        "s_ii_jj": (r_ij, r_ij, r_ij, r_ij),
        "univariate": (r_1, r_1, r_1, r_1),
    }[name]


def _fixed_taus(t_val):
    # the lags the calibrations keep: blocks must fit inside T
    return LagGrid.default().restrict(
        min(N_FIXED, int((t_val - DELTA) // DELTA))).taus


@pytest.mark.parametrize("t_val", [1024 * DELTA, N_FIXED * DELTA],
                         ids=["T-1024-delta", "T-N-delta"])
@pytest.mark.parametrize("name", PATTERNS)
def test_fixed_shapes_match_reference(name, t_val):
    args = _pattern_args(name, t_val)
    taus = _fixed_taus(t_val)
    got = _product_moment_cov(*args, N_FIXED, taus)
    assert_matches_reference(
        got, _product_moment_cov_reference(*args, N_FIXED, taus))
    assert np.array_equal(got, got.T)


def test_support_truncated_at_t():
    # the model sequences vanish beyond T, which is what the truncation uses
    t_val = 1024 * DELTA
    r_ii = _pattern_args("s_ii_ii", t_val)[0]
    assert np.flatnonzero(r_ii)[-1] + 1 == 1024


@st.composite
def moment_cov_cases(draw):
    n = draw(st.integers(8, 400))
    inner = draw(st.lists(st.integers(0, n - 2), max_size=12, unique=True))
    taus = sorted(inner) + [n - 1]
    support = draw(st.integers(0, n))
    supports = [support] + [draw(st.integers(0, support)) for _ in range(3)]
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    seqs = []
    for m in supports:
        r = np.zeros(n)
        r[:m] = rng.standard_normal(m)
        seqs.append(r)
    return n, taus, seqs


@settings(max_examples=200)
@given(moment_cov_cases())
def test_property_matches_reference(case):
    # independent sequences: the upper-triangle fill must still match the
    # reference's lower triangle
    n, taus, (rxu, ryv, rxv, ryu) = case
    got = _product_moment_cov(rxu, ryv, rxv, ryu, n, taus)
    assert_matches_reference(
        got, _product_moment_cov_reference(rxu, ryv, rxv, ryu, n, taus))
    assert np.array_equal(got, got.T)
