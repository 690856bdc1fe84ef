import numpy as np
import pytest
from hypothesis import settings

from mlogsfbm import ModelParams, PairParams

# the property tests share a loaded machine: no per-example time limit
settings.register_profile("mlogsfbm", deadline=None)
settings.load_profile("mlogsfbm")

T_GRID = float(2**14)


@pytest.fixture
def fig2_pair() -> PairParams:
    """The coupled configuration used throughout the numerical experiments:
    H_1 = H_2 = 0.02, lambda^2 = 0.05, H_12 = 0.15, g = 0.5, T = 2^14."""
    return PairParams(g=0.5, H_ij=0.15, lambda_i2=0.05, lambda_j2=0.05,
                      H_i=0.02, H_j=0.02, T=T_GRID)


@pytest.fixture
def fig2_params() -> ModelParams:
    return ModelParams(
        T=T_GRID,
        H=[[0.02, 0.15], [0.15, 0.02]],
        xi=[[0.05, 0.025], [0.025, 0.05]],
    )


def random_admissible(rng: np.random.Generator, d: int, T: float = T_GRID) -> ModelParams:
    """Random admissible parameter set: correlation matrix from a Wishart
    draw, Hurst diagonal in (0.01, 0.2), off-diagonal above the pair means."""
    a = rng.standard_normal((d, d + 2))
    corr = a @ a.T
    scale = np.sqrt(np.diag(corr))
    corr = corr / np.outer(scale, scale)
    lam2 = rng.uniform(0.02, 0.08, size=d)
    xi = corr * np.sqrt(np.outer(lam2, lam2))
    h_diag = rng.uniform(0.01, 0.2, size=d)
    h = np.empty((d, d))
    for i in range(d):
        h[i, i] = h_diag[i]
        for j in range(i + 1, d):
            hbar = 0.5 * (h_diag[i] + h_diag[j])
            h[i, j] = h[j, i] = rng.uniform(hbar, 0.49)
    return ModelParams(T=T, H=h, xi=xi)
