"""The power-exponential integral behind the measure covariance formulas.

The covariance series and its first-order approximation need integrals
``int z^n exp(-c z^rho) dz`` where c can be negative (the linear-term
coefficient of the cross kernel changes sign with the roughness gap, and the
amplitude can be negative for anti-correlated pairs).  With s = (n + 1)/rho,
int_0^x z^n exp(-c z^rho) dz = x^(n+1) M(s, s + 1, -c x^rho) / (n + 1)
(DLMF 8.5.1), and Kummer's function M is entire in its last argument, so
everything stays real-valued for either sign of c.
"""

from __future__ import annotations

import math

__all__ = ["power_exp_integral"]


def power_exp_integral(n: float, c: float, rho: float, a: float, b: float) -> float:
    """int_a^b z^n exp(-c z^rho) dz for 0 <= a <= b, n > -1, rho > 0, any real c."""
    if not (rho > 0):
        raise ValueError(f"rho must be positive, got {rho}")
    if not (n > -1):
        raise ValueError(f"n must exceed -1, got {n}")
    if not 0 <= a <= b:
        raise ValueError(f"need 0 <= a <= b, got a={a}, b={b}")
    if a == b:
        return 0.0
    from scipy.special import hyp1f1  # here, so `import mlogsfbm` loads no scipy

    s = (n + 1.0) / rho

    def kummer(y: float) -> float:
        # M(s, s+1, -y) = 1 - s y / (s+1) + ... rounds to 1 for |y| < 1e-17,
        # where scipy's hyp1f1 returns inf or nan for s below about 0.2
        return 1.0 if abs(y) < 1e-17 else float(hyp1f1(s, s + 1.0, -y))

    upper = b ** (n + 1.0) * kummer(c * b**rho)
    lower = 0.0 if a == 0.0 else a ** (n + 1.0) * kummer(c * a**rho)
    value = (upper - lower) / (n + 1.0)
    if not math.isfinite(value):
        raise ValueError(f"int_a^b z^n exp(-c z^rho) dz is not finite for "
                         f"n={n}, c={c}, rho={rho}, a={a}, b={b}")
    return value
