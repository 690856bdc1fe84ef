"""``power_exp_integral`` against quadrature, against the same closed form in
50-digit ``mpmath``, and against the hand-rolled incomplete gamma it
replaced (kept verbatim below as the reference)."""

import math
import sys

import mpmath
import pytest
import scipy.integrate as sint
from hypothesis import example, given
from hypothesis import strategies as st

from mlogsfbm.special import power_exp_integral

# -- reference: the series and continued fraction special.py used before ----

_MAX_ITER = 600
_EPS = 1e-16


def _gamma_series_sum(s: float, x: float) -> float:
    # sum_{n>=0} x^n / (s (s+1) ... (s+n)); gamma(s,x) = exp(s ln x - x) * sum
    term = 1.0 / s
    total = term
    ap = s
    for _ in range(_MAX_ITER):
        ap += 1.0
        term *= x / ap
        total += term
        if abs(term) < abs(total) * _EPS:
            return total
    raise RuntimeError(f"gamma series did not converge for s={s}, x={x}")


def _upper_gamma_cf(s: float, x: float) -> float:
    # modified Lentz continued fraction for Gamma(s,x) * exp(x) * x^(-s)
    tiny = 1e-300
    b = x + 1.0 - s
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_ITER):
        an = -i * (i - s)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            return h
    raise RuntimeError(f"gamma continued fraction did not converge for s={s}, x={x}")


def scaled_lower_gamma(s: float, y: float) -> float:
    """gamma(s, y) / y^s, extended to y <= 0 where it is entire in y.

    Equals sum_k (-y)^k / (k! (s+k)); positive for every real y, with
    scaled_lower_gamma(s, 0) = 1/s.
    """
    if not (s > 0 and math.isfinite(s)):
        raise ValueError(f"s must be positive and finite, got {s}")
    if y == 0.0:
        return 1.0 / s
    if y < 0.0:
        # all terms positive once y < 0
        term = 1.0
        total = 1.0 / s
        for k in range(1, _MAX_ITER):
            term *= (-y) / k
            contrib = term / (s + k)
            total += contrib
            if contrib < total * _EPS:
                return total
        raise RuntimeError(f"scaled gamma series did not converge for s={s}, y={y}")
    if y < s + 1.0:
        return math.exp(-y) * _gamma_series_sum(s, y)
    h = _upper_gamma_cf(s, y)
    return math.exp(math.lgamma(s) - s * math.log(y)) - math.exp(-y) * h


def reference_power_exp_integral(n: float, c: float, rho: float, a: float,
                                 b: float) -> tuple[float, float]:
    """The old ``power_exp_integral``'s two terms, int_0^b and int_0^a."""
    s = (n + 1.0) / rho
    upper = b ** (n + 1.0) * scaled_lower_gamma(s, c * b**rho)
    lower = 0.0 if a == 0.0 else a ** (n + 1.0) * scaled_lower_gamma(s, c * a**rho)
    return upper / rho, lower / rho


# -- the closed form in 50 digits --------------------------------------------

def _mpmath_terms(n, c, rho, a, b) -> tuple[float, float]:
    """int_0^b and int_0^a of z^n exp(-c z^rho), as x^(n+1) M(s, s+1,
    -c x^rho) / (n+1) in 50 digits at the doubles the code evaluates."""
    with mpmath.workdps(50):
        n, c, rho = map(mpmath.mpf, (n, c, rho))
        s = (n + 1) / rho

        def part(x):
            x = mpmath.mpf(x)
            return x ** (n + 1) * mpmath.hyp1f1(s, s + 1, -c * x**rho) / (n + 1)

        return part(b), part(a)


@st.composite
def integral_cases(draw):
    """n in (-1, 200], rho in [0.02, 2], c b^rho in [-60, 60] and
    0 <= a <= b in [1e-3, 1e3].  M(s, s+1, -y) lies in [exp(-60), exp(60)]
    there and n + 1 <= 201, so b^(n+1) is kept in [exp(66) m, exp(-60) M]
    for the smallest and largest normal doubles m and M: then int_0^b is a
    normal double too (beyond, it can overflow: see the ValueError test)."""
    n = draw(st.floats(-1.0, 200.0, exclude_min=True))
    rho = draw(st.floats(0.02, 2.0))
    log_b_min = max(math.log(1e-3),
                    (math.log(sys.float_info.min) + 66.0) / (n + 1.0))
    log_b_max = min(math.log(1e3),
                    (math.log(sys.float_info.max) - 60.0) / (n + 1.0))
    b = math.exp(draw(st.floats(log_b_min, log_b_max)))
    c = draw(st.floats(-60.0, 60.0)) / b**rho
    a = b * draw(st.floats(0.0, 1.0))
    return n, c, rho, a, b


# the measured worst corner of scipy's hyp1f1 on this domain: s = 15.5, y = 59.4
_WORST = (14.5, 59.4, 1.0, 0.0, 1.0)
# s = 1/16, y = 5.2e-279: scipy's hyp1f1 returns inf here
_TINY_Y = (-0.9375, 5.2e-279, 1.0, 0.0, 1.0)


@given(integral_cases())
@example(_WORST)
@example(_TINY_Y)
def test_matches_mpmath(case):
    upper, lower = _mpmath_terms(*case)
    with mpmath.workdps(50):
        want, scale = float(upper - lower), float(abs(upper) + abs(lower))
    assert abs(power_exp_integral(*case) - want) <= 1e-11 * scale


@given(integral_cases())
@example(_WORST)
@example(_TINY_Y)
def test_matches_reference(case):
    upper, lower = reference_power_exp_integral(*case)
    got = power_exp_integral(*case)
    assert abs(got - (upper - lower)) <= 1e-11 * (abs(upper) + abs(lower))


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

    def test_overflow_is_a_value_error(self):
        # int_0^1 z exp(800 z) dz is about 1e345: no double holds it
        with pytest.raises(ValueError, match=r"not finite for n=1, c=-800"):
            power_exp_integral(1, -800, 1, 0, 1)
