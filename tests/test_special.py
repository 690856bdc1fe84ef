import math

import numpy as np
import pytest
import scipy.integrate as sint
import scipy.special as ss

from mlogsfbm.special import (
    lower_incomplete_gamma,
    power_exp_integral,
    scaled_lower_gamma,
)


class TestLowerIncompleteGamma:
    def test_closed_form_s_equals_one(self):
        for x in (0.1, 1.0, 3.0, 20.0):
            assert lower_incomplete_gamma(1.0, x) == pytest.approx(
                1.0 - math.exp(-x), rel=1e-14)
        assert lower_incomplete_gamma(1.0, 1.0) == pytest.approx(
            0.6321205588285577, rel=1e-13)

    def test_zero_argument(self):
        for s in (0.1, 0.5, 1.0, 7.3):
            assert lower_incomplete_gamma(s, 0.0) == 0.0

    def test_against_quadrature(self):
        # the t^-1/2 singularity as an algebraic weight, so QUADPACK's
        # error estimate holds
        val, err = sint.quad(lambda t: math.exp(-t), 0.0, 2.0, weight="alg",
                             wvar=(-0.5, 0.0), epsabs=1e-14, epsrel=1e-14)
        assert err < 1e-12
        assert lower_incomplete_gamma(0.5, 2.0) == pytest.approx(val, rel=1e-12)

    def test_against_scipy_reference(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            s = rng.uniform(0.05, 40.0)
            x = rng.uniform(0.0, 80.0)
            ref = ss.gammainc(s, x) * math.gamma(s)
            if ref == 0.0:
                continue
            assert lower_incomplete_gamma(s, x) == pytest.approx(ref, rel=1e-12)

    def test_recurrence(self):
        # gamma(s+1, x) = s gamma(s, x) - x^s exp(-x)
        for s in np.linspace(0.05, 5.0, 12):
            for x in np.geomspace(0.01, 50.0, 12):
                lhs = lower_incomplete_gamma(s + 1.0, x)
                rhs = s * lower_incomplete_gamma(s, x) - x**s * math.exp(-x)
                assert lhs == pytest.approx(rhs, rel=1e-11, abs=1e-300)

    def test_monotone_in_x_and_limit(self):
        s = 2.7
        xs = np.linspace(0.0, 60.0, 40)
        vals = [lower_incomplete_gamma(s, x) for x in xs]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        strict = [v for x, v in zip(xs, vals) if x <= 20.0]
        assert all(b > a for a, b in zip(strict, strict[1:]))
        assert vals[-1] == pytest.approx(math.gamma(s), rel=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            lower_incomplete_gamma(0.0, 1.0)
        with pytest.raises(ValueError):
            lower_incomplete_gamma(-1.0, 1.0)
        with pytest.raises(ValueError):
            lower_incomplete_gamma(1.0, -0.1)


class TestScaledLowerGamma:
    def test_matches_positive_branch(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            s = rng.uniform(0.1, 30.0)
            y = rng.uniform(1e-8, 50.0)
            ref = lower_incomplete_gamma(s, y) / y**s
            assert scaled_lower_gamma(s, y) == pytest.approx(ref, rel=1e-11)

    def test_at_zero(self):
        for s in (0.3, 1.0, 12.5):
            assert scaled_lower_gamma(s, 0.0) == pytest.approx(1.0 / s, rel=1e-15)

    def test_negative_argument_against_quadrature(self):
        # gamma(s, y)/y^s = int_0^1 u^(s-1) exp(-y u) du for any real y
        for s in (0.4, 1.7, 6.0, 25.0):
            for y in (-3.0, -0.5, -1e-6):
                ref, err = sint.quad(
                    lambda u: u ** (s - 1.0) * math.exp(-y * u), 0.0, 1.0,
                    epsabs=1e-14, epsrel=1e-13)
                assert scaled_lower_gamma(s, y) == pytest.approx(ref, rel=1e-11)

    def test_continuity_across_zero(self):
        s = 3.2
        left = scaled_lower_gamma(s, -1e-10)
        right = scaled_lower_gamma(s, 1e-10)
        assert left == pytest.approx(right, rel=1e-9)


class TestPowerExpIntegral:
    @pytest.mark.parametrize("n,c,rho,a,b", [
        (0.0, 1.3, 0.3, 0.0, 5.0),
        (1.0, 1.3, 0.3, 2.0, 9.0),
        (2.0, -0.02, 1.0, 3.0, 4.0),
        (0.04, 0.8, 0.04, 1.0, 100.0),
        (1.5, 0.0, 0.5, 0.5, 2.0),
        (0.0, -1.1, 0.7, 0.0, 2.0),
    ])
    def test_against_quadrature(self, n, c, rho, a, b):
        ref, err = sint.quad(lambda z: z**n * math.exp(-c * z**rho), a, b,
                             epsabs=1e-13, epsrel=1e-12, limit=200)
        assert power_exp_integral(n, c, rho, a, b) == pytest.approx(ref, rel=1e-10)

    def test_zero_length(self):
        assert power_exp_integral(1.0, 0.5, 1.0, 2.0, 2.0) == 0.0

    def test_domain(self):
        with pytest.raises(ValueError):
            power_exp_integral(1.0, 0.5, 0.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            power_exp_integral(1.0, 0.5, 1.0, 2.0, 1.0)
        with pytest.raises(ValueError):
            power_exp_integral(-1.0, 0.5, 1.0, 0.0, 1.0)
