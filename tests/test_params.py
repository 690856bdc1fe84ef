import math

import numpy as np
import pytest

from mlogsfbm import (
    ModelParams,
    PairParams,
    StructuralError,
    g_from_xi,
    mu_i,
    validate,
)
from conftest import random_admissible


class TestValidate:
    def test_fig2_configuration_admissible(self, fig2_params):
        assert validate(fig2_params).admissible

    def test_univariate_admissible(self):
        p = ModelParams(T=100.0, H=[[0.1]], xi=[[0.05]])
        assert validate(p).admissible

    def test_co_hurst_below_mean_reported_with_indices(self):
        p = ModelParams(T=100.0, H=[[0.02, 0.01], [0.01, 0.02]],
                        xi=[[0.05, 0.02], [0.02, 0.05]])
        report = validate(p)
        assert not report.admissible
        hits = [v for v in report.violations if v.code == "co-hurst-floor"]
        assert hits and hits[0].indices == (0, 1)

    def test_asymmetric_matrix_reported(self):
        h = np.array([[0.02, 0.15], [0.15, 0.02]])
        xi = np.array([[0.05, 0.025], [0.024, 0.05]])
        report = validate(ModelParams(T=10.0, H=h, xi=xi))
        assert "symmetry-xi" in report.codes()

    def test_asymmetric_hurst_reported(self):
        h = np.array([[0.02, 0.15], [0.16, 0.02]])
        xi = np.array([[0.05, 0.025], [0.025, 0.05]])
        hits = [v for v in validate(ModelParams(T=10.0, H=h, xi=xi)).violations
                if v.code == "symmetry-H"]
        assert [v.indices for v in hits] == [(0, 1)]

    def test_zero_co_hurst_off_diagonal_rejected(self):
        p = ModelParams(T=10.0, H=[[0.0, 0.0], [0.0, 0.0]],
                        xi=[[0.05, 0.02], [0.02, 0.05]])
        assert "co-hurst-zero" in validate(p).codes()

    def test_zero_hurst_diagonal_accepted(self):
        p = ModelParams(T=10.0, H=[[0.0, 0.12], [0.12, 0.0]],
                        xi=[[0.05, 0.02], [0.02, 0.05]])
        assert validate(p).admissible

    def test_hurst_half_rejected(self):
        p = ModelParams(T=10.0, H=[[0.5]], xi=[[0.05]])
        assert "hurst-range" in validate(p).codes()

    @pytest.mark.parametrize("lambda2", [0.0, -0.05])
    def test_non_positive_intermittency_reported(self, lambda2):
        p = ModelParams(T=10.0, H=[[0.02, 0.15], [0.15, 0.02]],
                        xi=[[0.05, 0.0], [0.0, lambda2]])
        hits = [v for v in validate(p).violations
                if v.code == "intermittency-positive"]
        assert [v.indices for v in hits] == [(1,)]

    @pytest.mark.parametrize("hij", [0.5, 0.7, -0.1])
    def test_off_diagonal_hurst_range_reported(self, hij):
        p = ModelParams(T=10.0, H=[[0.02, hij], [hij, 0.02]],
                        xi=[[0.05, 0.02], [0.02, 0.05]])
        hits = [v for v in validate(p).violations if v.code == "hurst-range"]
        assert [v.indices for v in hits] == [(0, 1)]

    def test_cauchy_schwarz_violation(self):
        p = ModelParams(T=10.0, H=[[0.02, 0.15], [0.15, 0.02]],
                        xi=[[0.05, 0.06], [0.06, 0.05]])
        assert "cauchy-schwarz" in validate(p).codes()

    def test_psd_violation_with_pairwise_feasible_entries(self):
        g = -0.9
        xi = 0.05 * np.array([[1.0, g, g], [g, 1.0, g], [g, g, 1.0]])
        h = np.full((3, 3), 0.2)
        np.fill_diagonal(h, 0.05)
        report = validate(ModelParams(T=10.0, H=h, xi=xi))
        assert "xi-not-psd" in report.codes()

    def test_dimension_mismatch_is_structural(self):
        with pytest.raises(StructuralError):
            ModelParams(T=10.0, H=[[0.1, 0.2], [0.2, 0.1]], xi=[[0.05]])

    def test_non_finite_is_structural(self):
        with pytest.raises(StructuralError):
            ModelParams(T=10.0, H=[[np.nan]], xi=[[0.05]])

    def test_validate_is_pure_and_idempotent(self, fig2_params):
        first = validate(fig2_params)
        second = validate(fig2_params)
        assert first == second
        assert str(first) == str(second)

    def test_principal_restrictions_admissible(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            params = random_admissible(rng, d=4)
            assert validate(params).admissible
            for i in range(4):
                for j in range(4):
                    pair = params.pair(i, j)  # raises if inadmissible
                    assert abs(pair.g) <= 1.0


class TestGFromXi:
    def test_fig2_value(self, fig2_params):
        g = g_from_xi(fig2_params)
        assert g[0, 1] == pytest.approx(0.5, abs=1e-15)
        assert np.allclose(np.diag(g), 1.0)
        assert np.array_equal(g, g.T)

    def test_diagonal_model_gives_identity(self):
        p = ModelParams(T=10.0, H=[[0.1, 0.2], [0.2, 0.3]],
                        xi=np.diag([0.05, 0.07]))
        assert np.allclose(g_from_xi(p), np.eye(2))

    def test_strong_negative_correlation(self):
        p = ModelParams(T=10.0, H=[[0.02, 0.15], [0.15, 0.02]],
                        xi=[[0.05, -0.0495], [-0.0495, 0.05]])
        assert g_from_xi(p)[0, 1] == pytest.approx(-0.99, rel=1e-14)

    def test_zero_intermittency_errors(self):
        p = ModelParams(T=10.0, H=[[0.1]], xi=[[0.0]])
        with pytest.raises(StructuralError):
            g_from_xi(p)

    def test_roundtrip_reconstruction(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            params = random_admissible(rng, d=5)
            g = g_from_xi(params)
            lam = np.sqrt(params.lambda2_diag)
            rebuilt = g * np.outer(lam, lam)
            assert np.allclose(rebuilt, params.xi, rtol=1e-14, atol=0)


class TestMu:
    def test_paper_style_values(self):
        assert mu_i(0.05, 0.02) == pytest.approx(-0.05 / (4 * 0.02 * 0.96), rel=1e-14)
        assert mu_i(0.06, 0.25) == pytest.approx(-0.12, rel=1e-14)

    def test_vanishing_intermittency(self):
        assert mu_i(0.0, 0.1) == 0.0

    def test_strictly_negative(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            lam2 = rng.uniform(1e-6, 0.5)
            h = rng.uniform(1e-4, 0.4999)
            val = mu_i(lam2, h)
            assert val < 0
            nu2 = lam2 / (h * (1 - 2 * h))
            assert val == pytest.approx(-nu2 / 4, rel=1e-14)

    def test_zero_hurst_signals_multifractal_branch(self):
        with pytest.raises(ValueError, match="grid-cutoff"):
            mu_i(0.05, 0.0)

    def test_out_of_range_hurst(self):
        with pytest.raises(ValueError):
            mu_i(0.05, 0.5)


class TestPairParams:
    def test_diagonal_constructor(self):
        pair = PairParams.diagonal(0.05, 0.02, 100.0)
        assert pair.g == 1.0
        assert pair.h_bar == 0.02
        assert pair.xi_ij == pytest.approx(0.05)

    def test_rejects_co_hurst_below_mean(self):
        with pytest.raises(ValueError):
            PairParams(g=0.5, H_ij=0.01, lambda_i2=0.05, lambda_j2=0.05,
                       H_i=0.02, H_j=0.02, T=10.0)

    def test_rejects_excess_correlation(self):
        with pytest.raises(ValueError):
            PairParams(g=1.2, H_ij=0.15, lambda_i2=0.05, lambda_j2=0.05,
                       H_i=0.02, H_j=0.02, T=10.0)


class TestSerialization:
    def test_json_roundtrip_lossless(self):
        rng = np.random.default_rng(19)
        for _ in range(10):
            params = random_admissible(rng, d=3)
            back = ModelParams.from_json(params.to_json())
            assert back.T == params.T
            assert np.array_equal(back.H, params.H)
            assert np.array_equal(back.xi, params.xi)

    def test_json_keys(self, fig2_params):
        import json
        doc = json.loads(fig2_params.to_json())
        assert set(doc) == {"d", "T", "H", "xi"}
        assert doc["d"] == 2

    def test_declared_dimension_checked(self):
        with pytest.raises(StructuralError):
            ModelParams.from_json('{"d": 3, "T": 10.0, "H": [[0.1]], "xi": [[0.05]]}')

    @pytest.mark.parametrize("doc, key", [
        ('{"T": null, "H": [[0.1]], "xi": [[0.05]]}', "'T'"),
        ('{"T": 10.0, "H": [["x"]], "xi": [[0.05]]}', "'H'"),
        ('{"d": null, "T": 10.0, "H": [[0.1]], "xi": [[0.05]]}', "'d'"),
        ('{"T": 10.0, "H": [[0.1]]}', "'xi'"),
        ('[10.0, [[0.1]], [[0.05]]]', "JSON object"),
    ], ids=["null-T", "text-H", "null-d", "missing-xi", "list"])
    def test_malformed_document_names_the_key(self, doc, key):
        with pytest.raises(StructuralError, match=key):
            ModelParams.from_json(doc)

    def test_immutability(self, fig2_params):
        with pytest.raises(ValueError):
            fig2_params.H[0, 0] = 0.3
