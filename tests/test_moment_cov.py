"""The GMM weight kernel ``_product_moment_cov`` (FFT correlations) against
two oracles, each kept verbatim: the plain double loop over lag pairs, and
the slice form (one dot product per entry) that the FFT form replaced."""

from typing import Sequence

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import default_lags_below
from mlogsfbm.estimate import (
    _joint_moment_cov,
    _product_moment_cov,
    _seq_transforms,
)
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


def _product_moment_cov_slices(rxu: np.ndarray, ryv: np.ndarray,
                               rxv: np.ndarray, ryu: np.ndarray, n: int,
                               taus: Sequence[int]) -> np.ndarray:
    """Exact Gaussian covariance between two families of product moments,
    cov((1/N) sum_t x_t y_{t+k}, (1/N) sum_s u_s v_{s+l}), given the four
    cross-covariance sequences of the underlying jointly Gaussian series
    (demeaning ignored: it only lowers the variance slightly and these
    matrices act as weights).

    By Isserlis' theorem entry (k, l) is

        (1/N^2) sum_m w_kl(m) [r_xu(|m|) r_yv(|m+l-k|)
                               + r_xv(|m+l|) r_yu(|m-k|)],

    where w_kl(m) = max(0, min(N-k, N-l, N-k+m, N-l-m)) counts the
    (t, s) pairs at offset m = s - t, and r(tau) = 0 for tau >= N.

    * Support truncation: with M one past the last non-zero index of the
      four sequences (the model sequences vanish beyond T), every non-zero
      term has |m| < M, so m runs over [max(1-M, k-N+1), min(M-1, N-l-1)].
    * Slices: each sequence is laid out once as its even, zero-padded
      extension r(|j|), |j| <= M-1+max(taus); the four factors are then
      contiguous slices of it and each entry is one dot product with w.
      It is an ``einsum``, not BLAS: OpenBLAS threads ``ddot`` above
      10 000 entries, and two processes doing that at once on the same
      cores ran each dot about 1000 times slower.
    * Symmetry: the matrix is symmetric in (k, l) for any four sequences,
      since they enter only through r(|.|): m -> -m maps the first term of
      (k, l) onto that of (l, k), and m -> m + l - k the second.  Only the
      upper triangle is computed and mirrored.
    """
    q = len(taus)
    seqs = [np.asarray(r, dtype=float)[:n] for r in (rxu, ryv, rxv, ryu)]
    support = max((int(np.flatnonzero(r)[-1]) + 1 for r in seqs if r.any()),
                  default=0)
    s = np.zeros((q, q))
    if support == 0 or q == 0:
        return s
    # r(|j|) for |j| <= M-1+max(taus), with lag 0 at index `zero`
    zero = support - 1 + max(taus)
    pad = np.zeros(max(taus))
    e_xu, e_yv, e_xv, e_yu = (
        np.concatenate([pad, r[support - 1:0:-1], r[:support], pad])
        for r in seqs)
    for a, k in enumerate(taus):
        for b in range(a, q):
            l = taus[b]
            lo = max(1 - support, k - n + 1)
            hi = min(support - 1, n - l - 1)
            if hi < lo:
                continue
            m = np.arange(lo, hi + 1, dtype=float)
            w = np.minimum(min(n - k, n - l),
                           np.minimum(n - k + m, n - l - m))
            i = zero + lo
            j = zero + hi + 1
            t = (e_xu[i:j] * e_yv[i + l - k:j + l - k]
                 + e_xv[i + l:j + l] * e_yu[i - k:j - k])
            s[a, b] = float(np.einsum("i,i", w, t)) / n**2
    lower = np.tril_indices(q, -1)
    s[lower] = s.T[lower]
    return s


def fft_form(rxu, ryv, rxv, ryu, n, taus):
    return _product_moment_cov(*_seq_transforms((rxu, ryv, rxv, ryu), n, taus),
                               n, taus)


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
    return default_lags_below(min(N_FIXED, int((t_val - DELTA) // DELTA)))


@pytest.mark.parametrize("t_val", [1024 * DELTA, N_FIXED * DELTA],
                         ids=["T-1024-delta", "T-N-delta"])
@pytest.mark.parametrize("name", PATTERNS)
def test_fixed_shapes_match_reference(name, t_val):
    args = _pattern_args(name, t_val)
    taus = _fixed_taus(t_val)
    got = fft_form(*args, N_FIXED, taus)
    assert_matches_reference(
        got, _product_moment_cov_reference(*args, N_FIXED, taus))
    assert_matches_reference(
        got, _product_moment_cov_slices(*args, N_FIXED, taus))
    assert np.array_equal(got, got.T)


@pytest.mark.parametrize("t_val", [1024 * DELTA, N_FIXED * DELTA],
                         ids=["T-1024-delta", "T-N-delta"])
def test_pair_blocks_match_slices(t_val):
    # the six blocks share the forward transforms of three sequences
    r_ii, r_jj, r_ij = _pattern_args("s_cc", t_val)[:3]
    taus = _fixed_taus(t_val)
    assert_pair_blocks_match_slices((r_ii, r_jj, r_ij), N_FIXED, taus)


def test_support_truncated_at_t():
    # the model sequences vanish beyond T, which is what the truncation uses
    t_val = 1024 * DELTA
    r_ii = _pattern_args("s_ii_ii", t_val)[0]
    assert np.flatnonzero(r_ii)[-1] + 1 == 1024


def assert_pair_blocks_match_slices(model_seqs, n, taus):
    # a block can vanish exactly (a zero sequence), so the scale is that of
    # the joint matrix the weight inverts
    blocks = {
        pattern: _product_moment_cov_slices(
            *[model_seqs[i] for i in SEQUENCE_PATTERNS[pattern]], n, taus)
        for pattern in PATTERNS[:6]}
    got = _joint_moment_cov(model_seqs, n, taus)
    assert_matches_reference(got, np.block([
        [blocks["s_cc"], blocks["s_c_ii"], blocks["s_c_jj"]],
        [blocks["s_c_ii"].T, blocks["s_ii_ii"], blocks["s_ii_jj"]],
        [blocks["s_c_jj"].T, blocks["s_ii_jj"].T, blocks["s_jj_jj"]]]))
    assert np.array_equal(got, got.T)


# the sequences (of r_ii, r_jj, r_ij, and a fourth independent one) behind
# each pattern
SEQUENCE_PATTERNS = {
    "s_cc": (0, 1, 2, 2),
    "s_c_ii": (0, 2, 0, 2),
    "s_c_jj": (2, 1, 2, 1),
    "s_ii_ii": (0, 0, 0, 0),
    "s_jj_jj": (1, 1, 1, 1),
    "s_ii_jj": (2, 2, 2, 2),
    "independent": (0, 1, 2, 3),
}


@st.composite
def moment_cov_cases(draw):
    """n up to 2048 and up to 18 lags, always with n - 1 and often with
    more in the last 1% of n; a support that often exceeds n - (a lag), so
    the weight's clipped ends occur; four sign-changing sequences, each
    zero from its own support on, the first up to the support."""
    n = draw(st.integers(8, 2048))
    inner = draw(st.lists(st.integers(0, n - 2), max_size=14, unique=True))
    tail = draw(st.lists(st.integers(n - 1 - n // 100, n - 1), max_size=3))
    taus = sorted(set(inner) | set(tail) | {n - 1})
    support = draw(st.one_of(st.integers(0, n),
                             st.integers(n - max(1, n // 8), n)))
    supports = [support] + [draw(st.integers(0, support)) for _ in range(3)]
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    seqs = []
    for m in supports:
        r = np.zeros(n)
        r[:m] = rng.standard_normal(m)
        seqs.append(r)
    return n, taus, seqs


# the entry a(0)^2 / 64 at N = 8, l = 7, whose FFT pieces are of size a(1)^2
# and cancelled to 1.8e-11 of it before the rounding fallback
NEAR_N_SUPPORT_2 = (8, [7], [np.array([0.00123, 0.29875, 0, 0, 0, 0, 0, 0])]
                    + [np.zeros(8)] * 3)


@settings(max_examples=200, deadline=None)
@given(moment_cov_cases(), st.sampled_from(sorted(SEQUENCE_PATTERNS)))
@example(NEAR_N_SUPPORT_2, "s_ii_ii")
def test_property_matches_reference(case, pattern):
    # sequences shared as in a pair's blocks, or independent: the upper-
    # triangle fill must still match the reference's lower triangle
    n, taus, seqs = case
    args = [seqs[i] for i in SEQUENCE_PATTERNS[pattern]]
    got = fft_form(*args, n, taus)
    want = _product_moment_cov_reference(*args, n, taus)
    assert_matches_reference(got, want)
    assert_matches_reference(_product_moment_cov_slices(*args, n, taus), want)
    assert np.array_equal(got, got.T)


@settings(max_examples=50, deadline=None)
@given(moment_cov_cases())
def test_property_pair_blocks_match_slices(case):
    n, taus, seqs = case
    assert_pair_blocks_match_slices(seqs[:3], n, taus)
