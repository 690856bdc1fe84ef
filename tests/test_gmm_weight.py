"""The pair-stage GMM weight against its reference: the two-inverse Schur
complement it replaced, kept verbatim with the ridge (LU) inverse it used."""

import math
from typing import Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import serial_spectral_factor
import mlogsfbm.estimate as est
from mlogsfbm import ModelParams
from mlogsfbm.estimate import (
    LagGrid,
    _curve_map,
    _cv_adjusted_cross_moments,
    _regularized_inverse,
    calibrate_pair,
    calibrate_univariate,
    empirical_cross_cov,
)
from mlogsfbm.simulate import field_to_gaussian_proxy, simulate_field

_product_moment_cov = est._product_moment_cov


def _regularized_inverse_reference(s: np.ndarray) -> tuple[np.ndarray, bool]:
    q = s.shape[0]
    trace = float(np.trace(s))
    if not math.isfinite(trace) or trace <= 0:
        return np.eye(q), True
    try:
        w = np.linalg.inv(s + 1e-10 * trace / q * np.eye(q))
    except np.linalg.LinAlgError:
        return np.eye(q), True
    return 0.5 * (w + w.T), False


def _cv_adjusted_cross_moments_reference(
    observed: np.ndarray,
    series: tuple[np.ndarray, np.ndarray],
    model_seqs: tuple[np.ndarray, np.ndarray, np.ndarray],
    n: int,
    taus: Sequence[int],
    curve_map: np.ndarray,
    masks: tuple = (None, None),
) -> tuple[np.ndarray, np.ndarray, bool]:
    """Regression-adjust the cross moments by the marginal moment residuals
    (at the fixed marginal parameters, model curves by ``curve_map``) and
    return the adjusted observations, the inverse of their model covariance,
    and whether either inverse fell back to the identity."""
    x, y = series
    mask_i, mask_j = masks
    r_ii, r_jj, r_ij = model_seqs
    grid_obj = LagGrid(tuple(taus))
    obs_ii = empirical_cross_cov(x, x, grid_obj, mask_x=mask_i,
                                 mask_y=mask_i).values
    obs_jj = empirical_cross_cov(y, y, grid_obj, mask_x=mask_j,
                                 mask_y=mask_j).values
    support = curve_map.shape[1]
    marg_resid = np.concatenate([obs_ii - curve_map @ r_ii[:support],
                                 obs_jj - curve_map @ r_jj[:support]])

    s_cc = _product_moment_cov(r_ii, r_jj, r_ij, r_ij, n, taus)
    s_c_ii = _product_moment_cov(r_ii, r_ij, r_ii, r_ij, n, taus)
    s_c_jj = _product_moment_cov(r_ij, r_jj, r_ij, r_jj, n, taus)
    s_ii_ii = _product_moment_cov(r_ii, r_ii, r_ii, r_ii, n, taus)
    s_jj_jj = _product_moment_cov(r_jj, r_jj, r_jj, r_jj, n, taus)
    s_ii_jj = _product_moment_cov(r_ij, r_ij, r_ij, r_ij, n, taus)
    s_mm = np.block([[s_ii_ii, s_ii_jj], [s_ii_jj.T, s_jj_jj]])
    s_cm = np.hstack([s_c_ii, s_c_jj])
    mm_inv, mm_fallback = _regularized_inverse_reference(s_mm)
    beta = s_cm @ mm_inv
    adjusted = observed - beta @ marg_resid
    s_adj = s_cc - beta @ s_cm.T
    weight, fallback = _regularized_inverse_reference(0.5 * (s_adj + s_adj.T))
    return adjusted, weight, mm_fallback or fallback


def _random_orthogonal(rng, q):
    qmat, r = np.linalg.qr(rng.standard_normal((q, q)))
    return qmat * np.sign(np.diag(r))


def _symmetric(rng, eigenvalues):
    v = _random_orthogonal(rng, len(eigenvalues))
    s = (v * eigenvalues) @ v.T
    return 0.5 * (s + s.T)


def assert_close_to_largest(got, want, rtol):
    assert np.max(np.abs(got - want)) <= rtol * np.max(np.abs(want))


N_SMALL = 64
TAUS = (1, 2, 3, 5, 8, 13)


@st.composite
def joint_cases(draw):
    """A random SPD joint covariance of [cross; marginal-i; marginal-j]
    moments with condition number at most 1e3, at a random overall scale,
    and random series, model sequences and observations around it."""
    q = draw(st.integers(1, len(TAUS)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cond = draw(st.floats(1.0, 1e3))
    scale = 10.0 ** draw(st.floats(-8.0, 2.0))
    eigenvalues = scale * cond ** rng.uniform(0.0, 1.0, 3 * q)
    eigenvalues[:2] = scale, scale * cond
    joint = _symmetric(rng, eigenvalues)
    x, y = rng.standard_normal((2, N_SMALL))
    seqs = tuple(rng.standard_normal(N_SMALL) for _ in range(3))
    return joint, q, x, y, seqs, rng.standard_normal(q)


def _blocks_of(joint, q, seqs):
    """A stand-in for ``_product_moment_cov`` that returns the blocks of
    ``joint`` for the six argument patterns of the control-variate step."""
    ii, jj, ij = map(id, seqs)
    c, i, j = slice(0, q), slice(q, 2 * q), slice(2 * q, 3 * q)
    blocks = {
        (ii, jj, ij, ij): (c, c),
        (ii, ij, ii, ij): (c, i),
        (ij, jj, ij, jj): (c, j),
        (ii, ii, ii, ii): (i, i),
        (jj, jj, jj, jj): (j, j),
        (ij, ij, ij, ij): (i, j),
    }

    def fake(rxu, ryv, rxv, ryu, n, taus):
        rows, cols = blocks[tuple(map(id, (rxu, ryv, rxv, ryu)))]
        return joint[rows, cols].copy()

    return fake


class TestAgainstSchurReference:
    @settings(max_examples=150)
    @given(case=joint_cases())
    def test_property_matches_reference(self, case):
        # the two ridges differ at about 1e-10 cond; 1e-6 leaves room
        joint, q, x, y, seqs, observed = case
        taus = TAUS[:q]
        curve_map = _curve_map(N_SMALL, taus, N_SMALL)
        fake = _blocks_of(joint, q, seqs)
        module = globals()
        saved = (est._product_moment_cov, module["_product_moment_cov"],
                 est._seq_transforms)
        est._product_moment_cov = module["_product_moment_cov"] = fake
        # the fake finds its blocks by the identity of the raw sequences
        est._seq_transforms = lambda model_seqs, n, taus: tuple(model_seqs)
        try:
            args = (observed, (x, y), seqs, N_SMALL, taus, curve_map)
            got = _cv_adjusted_cross_moments(*args)
            want = _cv_adjusted_cross_moments_reference(*args)
        finally:
            (est._product_moment_cov, module["_product_moment_cov"],
             est._seq_transforms) = saved
        assert got[2] is want[2] is False
        assert_close_to_largest(got[0], want[0], 1e-6)
        assert_close_to_largest(got[1], want[1], 1e-6)
        assert_close_to_largest(_regularized_inverse(joint)[0],
                                _regularized_inverse_reference(joint)[0], 1e-6)

    @pytest.mark.parametrize("t_val", [1024.0, 2048.0],
                             ids=["T/delta=1024", "T=N*delta"])
    def test_one_inverse_per_pair_weight(self, monkeypatch, t_val):
        calls = []

        def counting(s):
            calls.append(s.shape)
            return _regularized_inverse(s)

        monkeypatch.setattr(est, "_regularized_inverse", counting)
        rng = np.random.default_rng(2)
        x, y = rng.standard_normal((2, 2048))
        res = calibrate_pair(x, y, 0.05, 0.05, 0.02, 0.02, 1.0, T=t_val)
        q = len(res.residuals.lags)
        assert calls == [(3 * q, 3 * q)]


@st.composite
def indefinite_cases(draw):
    """Symmetric matrices with at least one negative eigenvalue and a
    positive trace of at least about 1% of the largest eigenvalue."""
    q = draw(st.integers(2, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    negatives = draw(st.integers(1, q - 1))
    surplus = draw(st.floats(0.01, 1.0))
    scale = 10.0 ** draw(st.floats(-8.0, 6.0))
    neg = -rng.uniform(0.01, 1.0, negatives)
    pos = rng.uniform(0.01, 1.0, q - negatives)
    pos *= (1.0 + surplus) * -neg.sum() / pos.sum()
    return _symmetric(rng, scale * np.concatenate([neg, pos]))


class TestRegularizedInverse:
    @settings(max_examples=200)
    @given(s=indefinite_cases())
    def test_property_positive_definite_on_indefinite_input(self, s):
        # the floor is 1e-10 trace / q, so the weight's condition number is
        # at most about 1e10 q lambda_max / trace: the trace is kept at about
        # 1% of lambda_max or more for double precision to resolve it
        assert np.linalg.eigvalsh(s)[0] < 0.0 < np.trace(s)
        w, fallback = _regularized_inverse(s)
        assert not fallback
        assert np.array_equal(w, w.T)
        assert np.linalg.eigvalsh(w)[0] > 0.0

    def test_ridge_inverse_on_psd_input(self):
        rng = np.random.default_rng(4)
        s = _symmetric(rng, np.r_[0.0, rng.uniform(0.1, 10.0, 7)])
        assert_close_to_largest(_regularized_inverse(s)[0],
                                _regularized_inverse_reference(s)[0], 1e-6)

    @pytest.mark.parametrize("s", [np.zeros((3, 3)), -np.eye(3),
                                   np.full((3, 3), np.nan)],
                             ids=["zero", "negative-trace", "nan"])
    def test_identity_fallback(self, s):
        w, fallback = _regularized_inverse(s)
        assert fallback
        assert np.array_equal(w, np.eye(3))


@pytest.fixture(scope="module")
def long_window_fit():
    """fig2 parameters at T = 2^18, one seed-5 path aggregated by 16, and
    its pair fit at T = N delta with fitted marginals: the fit whose weight
    was indefinite, and which moved between (H_ij, g) = (0.027, 0) and
    (0.16, -1) under rounding-level scalings of the model sequence, before
    the joint precision replaced the Schur subtraction.  Also returns the
    two marginal fits, the second of which ends at its roughness floor.
    The path is drawn through the ``eigh`` factor it was found with, which
    differs from the closed-form d = 2 root by an orthogonal factor."""
    params = ModelParams(T=2.0**18, H=[[0.02, 0.15], [0.15, 0.02]],
                         xi=[[0.05, 0.025], [0.025, 0.05]])
    (panel,), _ = simulate_field(params, 2**18, 1.0, seed=5,
                                 factor=serial_spectral_factor(params, 2**18))
    proxy = field_to_gaussian_proxy(panel, params, 16)
    t_val = proxy.n * proxy.delta
    mi, mj = (calibrate_univariate(proxy.data[i], proxy.delta, T=t_val)
              for i in range(2))

    def fit():
        return calibrate_pair(
            proxy.data[0], proxy.data[1], mi.params["lambda2"],
            mj.params["lambda2"], mi.params["H"], mj.params["H"],
            proxy.delta, T=t_val)

    return fit, fit(), (mi, mj)


class TestRoundingStability:
    @pytest.mark.parametrize("eps", [-4e-16, -2e-16, 2e-16, 4e-16])
    def test_pair_fit_stable_under_rounding_scaling(self, long_window_fit,
                                                    monkeypatch, eps):
        fit, plain, _ = long_window_fit
        exact = est.block_cov_sequence
        monkeypatch.setattr(est, "block_cov_sequence",
                            lambda *args: exact(*args) * (1.0 + eps))
        scaled = fit()
        for res in (plain, scaled):
            assert np.linalg.eigvalsh(res.weight)[0] > 0.0
        assert scaled.params["H_ij"] == pytest.approx(plain.params["H_ij"],
                                                      abs=1e-6)
        assert scaled.params["g"] == pytest.approx(plain.params["g"], abs=1e-6)
        assert scaled.notes == plain.notes


class TestRoughnessAtBound:
    def test_marginal_at_its_floor_is_noted(self, long_window_fit):
        _, _, (interior, floor) = long_window_fit
        assert floor.params["H"] == pytest.approx(1e-4, abs=1e-6)
        assert floor.converged
        assert "roughness-at-bound" in floor.notes
        assert interior.params["H"] == pytest.approx(0.0118, abs=1e-4)
        assert "roughness-at-bound" not in interior.notes
