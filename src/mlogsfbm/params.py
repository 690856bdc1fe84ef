"""Parameter containers and admissibility validation.

The model couples d log-volatility marginals through two symmetric d x d
matrices: a roughness matrix ``H`` (entries in [0, 1/2), diagonal = marginal
Hurst exponents) and an amplitude matrix ``xi`` (diagonal = intermittency
coefficients lambda_i^2).  Admissibility requires H[i][j] >= (H[i][i] +
H[j][j]) / 2, positive semidefiniteness of ``xi`` and non-vanishing
off-diagonal H entries; the H = 0 case is allowed on the diagonal only and is
handled by the logarithmic kernel branch of the simulator.  Admissibility does
not imply that the set embeds: a log marginal next to power-law cross kernels
can leave too much negative spectral mass, and the simulator then raises
``EmbeddingError``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

__all__ = [
    "StructuralError",
    "InadmissibleParamsError",
    "Violation",
    "ValidationReport",
    "ModelParams",
    "PairParams",
    "validate",
    "g_from_xi",
    "mu_i",
    "linear_coeff",
]

# eigenvalue floor used in the positive-semidefiniteness check; tolerates
# rounding in user-supplied matrices
PSD_FLOOR_SCALE = 1e-10


class StructuralError(ValueError):
    """Malformed input (shape, finiteness), distinct from admissibility failure."""


class InadmissibleParamsError(ValueError):
    """Raised by operations that require an admissible parameter set."""

    def __init__(self, report: "ValidationReport"):
        self.report = report
        lines = "; ".join(v.message for v in report.violations)
        super().__init__(f"inadmissible parameters: {lines}")


@dataclass(frozen=True)
class Violation:
    code: str
    indices: tuple[int, ...]
    message: str


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...] = ()

    @property
    def admissible(self) -> bool:
        return not self.violations

    def codes(self) -> tuple[str, ...]:
        return tuple(v.code for v in self.violations)

    def __str__(self) -> str:
        if self.admissible:
            return "admissible"
        return "\n".join(f"[{v.code}] {v.message}" for v in self.violations)


def _frozen_array(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class ModelParams:
    """Correlation scale T plus the co-Hurst and co-intermittency matrices.

    ``H`` and ``xi`` are stored dense and read-only.  Diagonals carry the
    marginal Hurst exponents and intermittency coefficients.  Instances are
    immutable and safe to share across workers.
    """

    T: float
    H: np.ndarray
    xi: np.ndarray

    def __post_init__(self):
        h = np.asarray(self.H, dtype=float)
        x = np.asarray(self.xi, dtype=float)
        if h.ndim != 2 or h.shape[0] != h.shape[1]:
            raise StructuralError(f"H must be square, got shape {h.shape}")
        if x.shape != h.shape:
            raise StructuralError(
                f"xi shape {x.shape} does not match H shape {h.shape}"
            )
        if h.shape[0] < 1:
            raise StructuralError("d must be >= 1")
        if not (np.all(np.isfinite(h)) and np.all(np.isfinite(x))):
            raise StructuralError("H and xi must be finite-valued")
        if not (math.isfinite(self.T) and self.T > 0):
            raise StructuralError(f"T must be a positive real, got {self.T}")
        object.__setattr__(self, "H", _frozen_array(h))
        object.__setattr__(self, "xi", _frozen_array(x))

    @property
    def d(self) -> int:
        return self.H.shape[0]

    @property
    def H_diag(self) -> np.ndarray:
        return np.diag(self.H)

    @property
    def lambda2_diag(self) -> np.ndarray:
        return np.diag(self.xi)

    def pair(self, i: int, j: int) -> "PairParams":
        """2x2 principal restriction for marginals (i, j)."""
        li2 = float(self.xi[i, i])
        lj2 = float(self.xi[j, j])
        if li2 <= 0 or lj2 <= 0:
            raise StructuralError("pair extraction needs positive intermittencies")
        return PairParams(
            g=float(self.xi[i, j]) / math.sqrt(li2 * lj2),
            H_ij=float(self.H[i, j]),
            lambda_i2=li2,
            lambda_j2=lj2,
            H_i=float(self.H[i, i]),
            H_j=float(self.H[j, j]),
            T=float(self.T),
        )

    def to_json(self) -> str:
        doc = {
            "d": self.d,
            "T": self.T,
            "H": self.H.tolist(),
            "xi": self.xi.tolist(),
        }
        return json.dumps(doc, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "ModelParams":
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise StructuralError("parameter document must be a JSON object")

        def value(key, convert, what):
            if key not in doc:
                raise StructuralError(
                    f"missing key {key!r} in parameter document")
            try:
                return convert(doc[key])
            except (TypeError, ValueError) as exc:
                raise StructuralError(
                    f"key {key!r} in parameter document must be {what}, "
                    f"got {doc[key]!r}") from exc

        matrix = lambda v: np.asarray(v, dtype=float)
        params = cls(T=value("T", float, "a number"),
                     H=value("H", matrix, "a numeric matrix"),
                     xi=value("xi", matrix, "a numeric matrix"))
        if "d" in doc and value("d", int, "an integer") != params.d:
            raise StructuralError(
                f"declared d={doc['d']} does not match matrix size {params.d}"
            )
        return params


def linear_coeff(h2: float, h_bar: float) -> float:
    """C of the cross kernel at h2 = 2 H_ij (see
    ``PairParams.kernel_constants``); finite at h2 = 0."""
    return (h2 - 2.0 * h_bar) / ((h2 - 1.0) * (1.0 - 2.0 * h_bar))


@dataclass(frozen=True)
class PairParams:
    """Parameters of one (i, j) pair: correlation g, joint roughness H_ij,
    the two marginal intermittencies and Hurst exponents, and the scale T.

    The derived values ``h_bar``, ``xi_ij`` and ``kernel_constants`` are
    computed on first use and cached on the instance (they are not fields:
    ``==``, ``hash`` and ``repr`` see the seven fields only)."""

    g: float
    H_ij: float
    lambda_i2: float
    lambda_j2: float
    H_i: float
    H_j: float
    T: float

    def __post_init__(self):
        if not all(
            math.isfinite(v)
            for v in (self.g, self.H_ij, self.lambda_i2, self.lambda_j2,
                      self.H_i, self.H_j, self.T)
        ):
            raise StructuralError("pair parameters must be finite")
        if self.T <= 0:
            raise StructuralError("T must be positive")
        if self.lambda_i2 <= 0 or self.lambda_j2 <= 0:
            raise StructuralError("intermittencies must be positive")
        if abs(self.g) > 1:
            raise InadmissibleParamsError(ValidationReport((Violation(
                "cauchy-schwarz", (), f"|g|={abs(self.g)} exceeds 1"),)))
        for name, h in (("H_ij", self.H_ij), ("H_i", self.H_i), ("H_j", self.H_j)):
            if not 0 <= h < 0.5:
                raise InadmissibleParamsError(ValidationReport((Violation(
                    "hurst-range", (), f"{name}={h} outside [0, 1/2)"),)))
        if self.H_ij < self.h_bar:
            raise InadmissibleParamsError(ValidationReport((Violation(
                "co-hurst-floor", (),
                f"H_ij={self.H_ij} below (H_i+H_j)/2={self.h_bar}"),)))

    @cached_property
    def h_bar(self) -> float:
        return 0.5 * (self.H_i + self.H_j)

    @cached_property
    def xi_ij(self) -> float:
        return self.g * math.sqrt(self.lambda_i2 * self.lambda_j2)

    @cached_property
    def kernel_constants(self) -> tuple[float, ...] | None:
        """(xi_ij, A, B, C, T, 2 H_ij) of the cross kernel
        xi_ij [A - B (tau/T)^(2 H_ij) - C (tau/T)], where A = B + C, or None
        at H_ij = 0, which has no power-law kernel."""
        if self.H_ij <= 0:
            return None
        h2, h_bar = 2.0 * self.H_ij, self.h_bar
        a = (1.0 + h2 - 2.0 * h_bar) / (h2 * (1.0 - 2.0 * h_bar))
        b = 1.0 / (h2 * (1.0 - h2))
        return (self.xi_ij, a, b, linear_coeff(h2, h_bar), self.T, h2)

    @classmethod
    def diagonal(cls, lambda2: float, H: float, T: float) -> "PairParams":
        """Univariate pair (i = j): g = 1 and H_ij = H_i = H_j = H."""
        return cls(g=1.0, H_ij=H, lambda_i2=lambda2, lambda_j2=lambda2,
                   H_i=H, H_j=H, T=T)


def validate(params: ModelParams) -> ValidationReport:
    """Check every admissibility invariant; the report lists each violation
    with the offending indices.  Structural problems raise instead (they are
    caught at construction time)."""
    h = params.H
    x = params.xi
    d = params.d
    bad: list[Violation] = []

    if not np.array_equal(h, h.T):
        ii, jj = np.argwhere(h != h.T)[0]
        bad.append(Violation("symmetry-H", (int(ii), int(jj)),
                             f"H[{ii}][{jj}] != H[{jj}][{ii}]"))
    if not np.array_equal(x, x.T):
        ii, jj = np.argwhere(x != x.T)[0]
        bad.append(Violation("symmetry-xi", (int(ii), int(jj)),
                             f"xi[{ii}][{jj}] != xi[{jj}][{ii}]"))

    for i in range(d):
        if x[i, i] <= 0:
            bad.append(Violation("intermittency-positive", (i,),
                                 f"xi[{i}][{i}]={x[i, i]} must be > 0"))
        if not 0 <= h[i, i] < 0.5:
            bad.append(Violation("hurst-range", (i,),
                                 f"H[{i}][{i}]={h[i, i]} outside [0, 1/2)"))

    for i in range(d):
        for j in range(i + 1, d):
            hij = h[i, j]
            if not 0 <= hij < 0.5:
                bad.append(Violation("hurst-range", (i, j),
                                     f"H[{i}][{j}]={hij} outside [0, 1/2)"))
            elif hij == 0:
                bad.append(Violation("co-hurst-zero", (i, j),
                                     f"H[{i}][{j}]=0 off the diagonal"))
            hbar = 0.5 * (h[i, i] + h[j, j])
            if hij < hbar:
                bad.append(Violation("co-hurst-floor", (i, j),
                                     f"H[{i}][{j}]={hij} below (H_i+H_j)/2={hbar}"))
            prod = x[i, i] * x[j, j]
            if prod > 0 and abs(x[i, j]) > math.sqrt(prod):
                bad.append(Violation("cauchy-schwarz", (i, j),
                                     f"|xi[{i}][{j}]| exceeds lambda_i*lambda_j"))

    # PSD with a small floor: tolerate rounding in user-supplied matrices
    sym_x = 0.5 * (x + x.T)
    eigs = np.linalg.eigvalsh(sym_x)
    floor = -PSD_FLOOR_SCALE * abs(np.trace(sym_x)) / d
    if eigs.min() < floor:
        bad.append(Violation("xi-not-psd", (),
                             f"min eigenvalue {eigs.min():.3e} below floor {floor:.3e}"))

    return ValidationReport(tuple(bad))


def require_admissible(params: ModelParams, strict_pd: bool = False) -> ValidationReport:
    """Raise InadmissibleParamsError unless ``validate`` passes; with
    ``strict_pd`` additionally require xi to be strictly positive definite
    (needed for simulation)."""
    report = validate(params)
    if not report.admissible:
        raise InadmissibleParamsError(report)
    if strict_pd:
        eigs = np.linalg.eigvalsh(0.5 * (params.xi + params.xi.T))
        if eigs.min() <= 0:
            raise InadmissibleParamsError(ValidationReport((Violation(
                "xi-not-pd", (),
                f"simulation needs strictly positive definite xi; "
                f"min eigenvalue {eigs.min():.3e}"),)))
    return report


def g_from_xi(params: ModelParams) -> np.ndarray:
    """Correlation matrix g[i][j] = xi[i][j] / (lambda_i lambda_j)."""
    lam2 = params.lambda2_diag
    if np.any(lam2 <= 0):
        i = int(np.argmax(lam2 <= 0))
        raise StructuralError(f"zero intermittency on diagonal entry {i}")
    scale = np.sqrt(np.outer(lam2, lam2))
    return params.xi / scale


def mu_i(lambda2: float, H: float) -> float:
    """Normalizing mean -lambda^2 / (4 H (1 - 2H)) making E[exp(field)] = 1.

    Defined for 0 < H < 1/2 only; the H = 0 (multifractal) branch takes its
    mean from the grid-cutoff logarithmic kernel inside the simulator.
    """
    if H == 0:
        raise ValueError(
            "H=0 marginals use the grid-cutoff kernel normalization "
            "(see the simulator), not the closed-form mean"
        )
    if not 0 < H < 0.5:
        raise ValueError(f"H={H} outside (0, 1/2)")
    if lambda2 < 0:
        raise ValueError("lambda2 must be non-negative")
    return -lambda2 / (4.0 * H * (1.0 - 2.0 * H))
