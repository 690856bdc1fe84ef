"""Exact sampling of the coupled log-volatility field and of price paths.

The d-dimensional stationary Gaussian field is drawn by multivariate
circulant embedding (Dietrich & Newsam 1997; Chan & Wood 1999): per-pair
covariance sequences, at lags |k| <= floor(T/delta) = m_max, are laid out on
a circle of size M = 2^ceil(log2(2 max(N, m_max))), so no lag wraps onto
another and the path covariance is exact at every lag.  The sequences are
even, so the spectral matrix at frequency M - k equals the one at k; only
frequencies k = 0..M/2 are computed (a DCT-I of the first M/2 + 1 entries)
and factorized, once, into a ``SpectralFactor`` that the caller owns and
shares across paths.  As every kernel here is compactly supported (zero
beyond the correlation scale T), the spectrum samples the true spectral
density and is non-negative up to rounding; negative eigenvalues are
clipped and counted.  At d = 2 a frequency's factor is the closed-form
symmetric square root of its clipped matrix; at any other d it is the
eigenvectors of ``eigh`` scaled by the roots of the clipped eigenvalues,
bit for bit those of one whole-array ``eigh`` call.

Randomness is counter-based (Philox).  Philox stream (seed, s) draws M
complex standard normals z and yields two independent exact paths: path 2s
from the Hermitian half w[k] = (z[k] + conj z[M-k]) / 2 and path 2s + 1
from the anti-Hermitian half v[k] = (z[k] - conj z[M-k]) / 2i (real at
k = 0 and M/2).  An inverse real FFT of F[k] w[k] gives Re(ifft(F z)) of
the full-spectrum sampler, and one of F[k] v[k] gives Im(ifft(F z)).  Any
path can be regenerated on its own from its stream.

Streams, and chunks of frequencies in the factorisation, are computed on
``default_workers()`` threads; each is an independent computation written
to its own slot, so the result does not depend on the thread count.
"""

from __future__ import annotations

import io
import math
import os
import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.fft

from . import kernels
from .params import ModelParams, mu_i, require_admissible

__all__ = [
    "FieldPanel",
    "EmbeddingDiagnostics",
    "EmbeddingError",
    "SimulationError",
    "SpectralFactor",
    "spectral_factor",
    "simulate_field",
    "field_to_measure",
    "field_to_gaussian_proxy",
    "simulate_prices",
    "write_panel_csv",
    "read_panel_csv",
    "write_panel_binary",
    "read_panel_binary",
    "default_workers",
    "fan_out",
]

PROVENANCES = ("gaussian-field", "logvol-measure", "gaussian-average-proxy", "market")

# relative clipped spectral mass thresholds
CLIP_EXACT = 1e-6
CLIP_APPROX = 1e-3

_EXP_OVERFLOW = 700.0

_MAGIC = b"MSFB1"

_SEED_MASK = (1 << 64) - 1
_PRICE_STREAM = 0x9E3779B97F4A7C15  # distinct Philox stream for price noise

# frequencies per factorisation call: about 1.6 MB of eigh workspace at d = 5
_EIGH_CHUNK = 8192


class EmbeddingError(RuntimeError):
    def __init__(self, message: str, diagnostics: "EmbeddingDiagnostics | None" = None):
        super().__init__(message)
        self.diagnostics = diagnostics


class SimulationError(RuntimeError):
    pass


@dataclass(frozen=True)
class EmbeddingDiagnostics:
    embedding_size: int
    min_eigenvalues: np.ndarray  # per-frequency minimum, length M
    clipped_mass: float          # relative clipped spectral mass
    flag: str                    # "exact" | "approximate"

    def __post_init__(self):
        object.__setattr__(self, "min_eigenvalues",
                           np.asarray(self.min_eigenvalues, dtype=float))

    def to_dict(self) -> dict:
        return {
            "embedding_size": self.embedding_size,
            "clipped_mass": self.clipped_mass,
            "min_eigenvalue": float(self.min_eigenvalues.min()),
            "argmin_frequency": int(self.min_eigenvalues.argmin()),
            "flag": self.flag,
        }


def default_workers() -> int:
    env = os.environ.get("MSFBM_WORKERS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ValueError(
                f"MSFBM_WORKERS={env!r} is not an integer") from None
    return os.cpu_count() or 1


def fan_out(fn, items) -> list:
    """``[fn(x) for x in items]`` in item order, on min(default_workers(),
    len(items)) threads; serial, without a pool, when that is 1.  The first
    exception, in item order, reaches the caller."""
    items = list(items)
    workers = min(default_workers(), len(items))
    if workers <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def _check_values(data: np.ndarray, provenance: str):
    if np.any(np.isnan(data)) or np.any(np.isposinf(data)):
        raise ValueError("panel values must not contain NaN or +inf")
    if provenance in ("gaussian-field", "gaussian-average-proxy") and not np.all(
        np.isfinite(data)
    ):
        raise ValueError(f"{provenance} panels must be finite-valued")


@dataclass(frozen=True)
class FieldPanel:
    """d x N grid of field samples at uniform step delta.

    ``provenance`` records what the rows are: raw centered field values,
    log-measure values ln(M_Delta / Delta) (where -inf encodes a vanishing
    measure), block-averaged Gaussian proxies, or market observations.
    """

    data: np.ndarray
    delta: float
    seed: int
    provenance: str
    path: int = 0

    def __post_init__(self):
        data = np.asarray(self.data, dtype=float)
        if data.ndim != 2:
            raise ValueError(f"panel data must be 2-d, got shape {data.shape}")
        if data.shape[1] < 2:
            raise ValueError("panel needs at least 2 samples per marginal")
        if self.provenance not in PROVENANCES:
            raise ValueError(f"unknown provenance {self.provenance!r}")
        if not self.delta > 0:
            raise ValueError("delta must be positive")
        _check_values(data, self.provenance)
        data = np.ascontiguousarray(data)
        data.setflags(write=False)
        object.__setattr__(self, "data", data)

    @property
    def d(self) -> int:
        return self.data.shape[0]

    @property
    def n(self) -> int:
        return self.data.shape[1]


def _covariance_sequence(params: ModelParams, i: int, j: int,
                         delta: float, m_max: int) -> np.ndarray:
    lags = np.arange(m_max + 1, dtype=float) * delta
    if i == j and params.H[i, i] == 0.0:
        return kernels.log_kernel_cov(lags, delta, float(params.xi[i, i]), params.T)
    return kernels.msfbm_cross_cov(lags, params.pair(i, j))


def _spectral_matrices(params: ModelParams, n: int, delta: float):
    """Embedding size M and the spectral matrices at frequencies 0..M/2,
    shape (M/2 + 1, d, d); the matrix at M - k equals the one at k."""
    m_max = int(math.floor(params.T / delta))
    m = 1 << int(math.ceil(math.log2(2 * max(n, m_max))))
    d = params.d
    pairs = [(i, j) for i in range(d) for j in range(i, d)]
    # m_max <= M/2, so no lag wraps onto another: entries 0..M/2 are the
    # sequence, zero-padded, except that lags M/2 and -M/2 are one point
    padded = np.zeros((len(pairs), m // 2 + 1))
    for row, (i, j) in zip(padded, pairs):
        row[: m_max + 1] = _covariance_sequence(params, i, j, delta, m_max)
    padded[:, -1] *= 2.0
    # the DFT of an even sequence of length m is the DCT-I of its half (on
    # the calling thread: worker threads keep their scratch resident, +28 MB
    # of peak RSS at d = 5, n = 2^18)
    half_spectra = scipy.fft.dct(padded, type=1, axis=1, overwrite_x=True)
    # entry (i, j) of every matrix is row index[i, j] of half_spectra.  take
    # returns C order (half_spectra.T[:, index] would not) through a C copy
    # of its input, which the in-place transform leaves room for
    index = np.empty((d, d), dtype=np.intp)
    for row, (i, j) in enumerate(pairs):
        index[i, j] = index[j, i] = row
    return m, np.take(half_spectra.T, index, axis=1)


@dataclass(frozen=True)
class SpectralFactor:
    """Read-only per-frequency square roots F[k], k = 0..M/2 (F[k] F[k]^T is
    the clipped spectral matrix, and F[M-k] = F[k] is not stored) for one
    (params, n, delta), shareable across threads."""

    params: ModelParams
    n: int
    delta: float
    matrix: np.ndarray  # (M/2 + 1, d, d)
    diagnostics: EmbeddingDiagnostics


def _symmetric_root_2x2(block: np.ndarray, eigvals: np.ndarray) -> None:
    """Overwrite each symmetric S = [[a, b], [b, c]] of ``block`` (k, 2, 2)
    with its clipped symmetric square root F, so that F F^T keeps the
    positive part of S, and write its eigenvalues, ascending, to ``eigvals``
    (k, 2).  Closed form (Higham 2008, Functions of Matrices, sec. 6): with
    mid = (a + c)/2 and r = hypot((a - c)/2, b), lambda+ = mid + r and
    lambda- = det S / lambda+ (mid - r where lambda+ <= 0; the quotient
    does not cancel), F = (S + s I) q where
      lambda- >= 0: s = sqrt(lambda+ lambda-), q = 1/sqrt(a + c + 2s)
                    (F^2 = S by Cayley-Hamilton);
      lambda- < 0:  s = -lambda-, q = sqrt(max(lambda+, 0))/(lambda+ - lambda-)
                    (sqrt(lambda+) times the projector onto its eigenvector);
    and F = 0 where q is not finite (S = 0, or S a negative multiple of I)."""
    a, b, c = block[:, 0, 0], block[:, 0, 1], block[:, 1, 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        mid = 0.5 * (a + c)
        r = np.hypot(0.5 * (a - c), b)
        upper = mid + r
        lower = np.where(upper > 0, (a * c - b * b) / upper, mid - r)
        psd = lower >= 0
        shift = np.where(psd, np.sqrt(upper * lower), -lower)
        scale = np.where(psd, 1.0 / np.sqrt(a + c + 2.0 * shift),
                         np.sqrt(np.maximum(upper, 0.0)) / (upper - lower))
    scale[~np.isfinite(scale)] = 0.0
    eigvals[:, 0], eigvals[:, 1] = lower, upper
    block[:, 0, 0] += shift
    block[:, 1, 1] += shift
    block *= scale[:, None, None]


def spectral_factor(params: ModelParams, n: int, delta: float = 1.0) -> SpectralFactor:
    """Factorize the circulant embedding for paths of length ``n`` at step
    ``delta``; ``EmbeddingError`` if the clipped mass exceeds CLIP_APPROX.

    The per-frequency factors run in chunks of ``_EIGH_CHUNK`` frequencies
    on ``default_workers()`` threads, each frequency on its own, so the
    factor does not depend on the thread count.  At d = 2 each factor is
    the closed-form symmetric root of ``_symmetric_root_2x2``, computed in
    place.  At any other d it is the eigenvectors scaled by the square
    roots of the clipped eigenvalues: LAPACK factors each matrix on its own,
    so the factor equals that of one whole-array ``eigh`` call bit for
    bit."""
    require_admissible(params, strict_pd=True)
    if n < 2:
        raise ValueError("n must be >= 2")
    if delta <= 0:
        raise ValueError("delta must be positive")
    m, spectra = _spectral_matrices(params, n, delta)
    n_freq, d = spectra.shape[:2]
    eigvals = np.empty((n_freq, d))
    matrix = spectra if d == 2 else np.empty((n_freq, d, d))

    def factor_chunk(start: int):
        chunk = slice(start, start + _EIGH_CHUNK)
        if d == 2:
            _symmetric_root_2x2(matrix[chunk], eigvals[chunk])
        else:
            eigvals[chunk], matrix[chunk] = np.linalg.eigh(spectra[chunk])

    fan_out(factor_chunk, range(0, n_freq, _EIGH_CHUNK))
    del spectra
    # an interior frequency k also stands for its mirror M - k
    weight = np.full(eigvals.shape[0], 2.0)
    weight[[0, -1]] = 1.0
    total = float(weight @ np.abs(eigvals).sum(axis=1))
    clipped = float(weight @ -np.clip(eigvals, None, 0.0).sum(axis=1))
    mass = clipped / total if total > 0 else 0.0
    half_min = eigvals.min(axis=1)
    diagnostics = EmbeddingDiagnostics(
        embedding_size=m,
        min_eigenvalues=np.concatenate([half_min, half_min[-2:0:-1]]),
        clipped_mass=mass,
        flag="exact" if mass <= CLIP_EXACT else "approximate",
    )
    if mass > CLIP_APPROX:
        raise EmbeddingError(
            f"clipped spectral mass {mass:.3e} exceeds the tolerance "
            f"{CLIP_APPROX:.0e}; the requested configuration does not embed",
            diagnostics,
        )
    if d != 2:
        # eigenvectors scaled in place: no second (M/2 + 1, d, d) array
        matrix *= np.sqrt(np.clip(eigvals, 0.0, None))[:, None, :]
    matrix.setflags(write=False)
    return SpectralFactor(params=params, n=n, delta=delta, matrix=matrix,
                          diagnostics=diagnostics)


def _path_rng(seed: int, stream: int) -> np.random.Generator:
    key = np.array([seed & _SEED_MASK, stream & _SEED_MASK], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _hermitian_half(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """w[k] = (z[k] + conj z[M-k]) / 2 for k = 0..M/2, with z = re + i im
    of length M along axis 0 and z[M] read as z[0]; the real and imaginary
    parts of w are stacked on a new last axis.  w[0] and w[M/2] are real."""
    half = re.shape[0] // 2
    w = np.empty((half + 1,) + re.shape[1:] + (2,))
    w[0, ..., 0] = re[0]
    w[0, ..., 1] = 0.0
    w[1:, ..., 0] = 0.5 * (re[1:half + 1] + re[:half - 1:-1])
    w[1:, ..., 1] = 0.5 * (im[1:half + 1] - im[:half - 1:-1])
    return w


def simulate_field(
    params: ModelParams,
    n: int,
    delta: float = 1.0,
    seed: int = 0,
    n_paths: int = 1,
    first_path: int = 0,
    factor: SpectralFactor | None = None,
) -> tuple[list[FieldPanel], EmbeddingDiagnostics]:
    """Draw ``n_paths`` independent centered field panels of length ``n``,
    paths ``first_path`` to ``first_path + n_paths - 1``.

    ``factor`` is ``spectral_factor(params, n, delta)``, built here if not
    given.  Path p is the Hermitian (p even) or anti-Hermitian (p odd) half
    of Philox stream (seed, p // 2), see the module docstring, so results
    are reproducible under any execution order, any path can be drawn alone
    and a sweep can be streamed in batches via ``first_path``, all passing
    one ``factor``.  Each half synthesises only the M/2 + 1 frequencies the
    factor holds, with an inverse real FFT.  The streams are drawn on
    ``default_workers()`` threads (a single stream starts no pool); the
    panels, in path order, do not depend on the count.
    Means are *not* added here; see ``field_to_measure``.
    """
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    if first_path < 0:
        raise ValueError("first_path must be >= 0")
    if factor is None:
        factor = spectral_factor(params, n, delta)
    elif (factor.n, factor.delta, factor.params.T) != (n, delta, params.T) or not (
            np.array_equal(factor.params.H, params.H)
            and np.array_equal(factor.params.xi, params.xi)):
        raise ValueError(f"spectral factor for n={factor.n}, delta={factor.delta!r}"
                         " does not fit this call's params, n or delta")
    m = factor.diagnostics.embedding_size
    scale = math.sqrt(m)
    end = first_path + n_paths

    def draw(stream: int) -> list[FieldPanel]:
        """The panels of this stream's paths that fall in the call's range."""
        rng = _path_rng(seed, stream)
        re = rng.standard_normal((m, params.d))
        im = rng.standard_normal((m, params.d))
        paths = range(max(first_path, 2 * stream), min(end, 2 * stream + 2))
        # z = re + i im; the Hermitian half of -i z = im - i re is v
        halves = [_hermitian_half(re, im) if path % 2 == 0
                  else _hermitian_half(im, -re) for path in paths]
        # each temporary is freed before the next is allocated; otherwise a
        # many-path call fragments the heap around the panels it keeps
        del re, im
        panels = []
        for path in paths:
            # (M/2 + 1, d, 2) real and imaginary parts, viewed as complex
            spectral = (factor.matrix @ halves.pop(0)).view(complex)
            draws = np.fft.irfft(spectral[..., 0], n=m, axis=0)
            del spectral
            data = np.ascontiguousarray(draws[:n].T)
            del draws
            data *= scale
            panels.append(FieldPanel(data=data, delta=delta, seed=seed,
                                     provenance="gaussian-field", path=path))
        return panels

    streams = range(first_path // 2, (end + 1) // 2)
    panels = [panel for pair in fan_out(draw, streams) for panel in pair]
    return panels, factor.diagnostics


def _marginal_means(params: ModelParams, delta: float) -> np.ndarray:
    """Per-marginal mean shifts making E[exp(field + mean)] = 1; H = 0
    marginals take the grid-cutoff kernel variance."""
    means = np.empty(params.d)
    for i in range(params.d):
        h = float(params.H[i, i])
        lam2 = float(params.xi[i, i])
        if h > 0:
            means[i] = mu_i(lam2, h)
        else:
            var0 = kernels.log_kernel_cov(0.0, delta, lam2, params.T)
            means[i] = -0.5 * var0
    return means


def _check_aggregation(panel: FieldPanel, agg: int):
    if panel.provenance != "gaussian-field":
        raise ValueError(
            f"expected a gaussian-field panel, got {panel.provenance!r}")
    if agg < 1 or panel.n % agg != 0:
        raise ValueError(f"agg={agg} must be >= 1 and divide n={panel.n}")


def field_to_measure(panel: FieldPanel, params: ModelParams, agg: int) -> FieldPanel:
    """ln(M_Delta'(k Delta') / Delta') at the aggregated step Delta' = agg * delta.

    The measure is a left-endpoint Riemann sum of exp(field + mean) over each
    aggregation block.  Field entries that would overflow exp() abort with a
    diagnostic instead of propagating infinities.
    """
    _check_aggregation(panel, agg)
    shifted = panel.data + _marginal_means(params, panel.delta)[:, None]
    peak = float(shifted.max())
    if peak > _EXP_OVERFLOW:
        i, k = np.unravel_index(int(shifted.argmax()), shifted.shape)
        raise SimulationError(
            f"field value {peak:.1f} at marginal {i}, sample {k} exceeds the "
            f"exp() overflow guard ({_EXP_OVERFLOW:.0f})"
        )
    blocks = np.exp(shifted).reshape(panel.d, panel.n // agg, agg)
    with np.errstate(divide="ignore"):
        values = np.log(blocks.mean(axis=2))
    return FieldPanel(data=values, delta=panel.delta * agg, seed=panel.seed,
                      provenance="logvol-measure", path=panel.path)


def field_to_gaussian_proxy(panel: FieldPanel, params: ModelParams, agg: int) -> FieldPanel:
    """Block averages of the centered field: the linear (small-amplitude)
    stand-in for the log measure, lambda_i Omega_Delta' / Delta'."""
    _check_aggregation(panel, agg)
    values = panel.data.reshape(panel.d, panel.n // agg, agg).mean(axis=2)
    return FieldPanel(data=values, delta=panel.delta * agg, seed=panel.seed,
                      provenance="gaussian-average-proxy", path=panel.path)


def simulate_prices(
    measure_panel: FieldPanel,
    x0: Sequence[float],
    seed: int,
    substeps: int = 1,
) -> np.ndarray:
    """The (d, n * substeps + 1) price paths, column 0 equal to ``x0``, at
    time step ``measure_panel.delta / substeps``, with conditionally
    Gaussian increments: over block k the total increment variance is the
    measure mass M_Delta'(k), split evenly across ``substeps``
    sub-increments.  Driving noises are independent across marginals and
    independent of the volatility field; each path index of
    ``measure_panel`` has its own noise stream."""
    if measure_panel.provenance != "logvol-measure":
        raise ValueError(
            f"price simulation needs a logvol-measure panel, got "
            f"{measure_panel.provenance!r}")
    if substeps < 1:
        raise ValueError("substeps must be >= 1")
    x0 = np.asarray(list(x0), dtype=float)
    if x0.shape != (measure_panel.d,):
        raise ValueError(f"x0 must have length {measure_panel.d}")
    d, n = measure_panel.d, measure_panel.n
    mass = measure_panel.delta * np.exp(measure_panel.data)  # block variances
    rng = _path_rng(seed, _PRICE_STREAM + measure_panel.path)
    z = rng.standard_normal((d, n, substeps))
    incr = np.sqrt(mass / substeps)[:, :, None] * z
    paths = np.empty((d, n * substeps + 1))
    paths[:, 0] = x0
    np.cumsum(incr.reshape(d, n * substeps), axis=1, out=paths[:, 1:])
    paths[:, 1:] += x0[:, None]
    return paths


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def write_panel_csv(panel: FieldPanel) -> str:
    buf = io.StringIO()
    buf.write(f"# delta={panel.delta!r} provenance={panel.provenance} "
              f"seed={panel.seed} path={panel.path}\n")
    buf.write("t," + ",".join(f"m{i}" for i in range(panel.d)) + "\n")
    for k in range(panel.n):
        row = ",".join(repr(float(v)) for v in panel.data[:, k])
        buf.write(f"{k},{row}\n")
    return buf.getvalue()


def read_panel_csv(text: str) -> FieldPanel:
    lines = text.strip().splitlines()
    if len(lines) < 3 or not lines[0].startswith("#"):
        raise ValueError("not a panel CSV (missing metadata comment)")
    meta = {"path": "0"}
    for tok in lines[0][1:].split():
        key, eq, value = tok.partition("=")
        if not eq:
            raise ValueError(f"panel CSV header token {tok!r} is not key=value")
        meta[key] = value
    header = {}
    for key, kind in (("delta", float), ("seed", int), ("provenance", str),
                      ("path", int)):
        try:
            header[key] = kind(meta[key])
        except KeyError:
            raise ValueError(f"panel CSV header has no {key}= entry") from None
        except ValueError:
            raise ValueError(f"panel CSV header value {key}={meta[key]!r} "
                             f"is not a valid {kind.__name__}") from None
    width = len(lines[1].split(","))
    rows = []
    for lineno, line in enumerate(lines[2:], start=3):
        fields = line.split(",")
        if len(fields) != width:
            raise ValueError(f"line {lineno} has {len(fields)} fields, "
                             f"expected {width} as in the header")
        try:
            rows.append([float(v) for v in fields[1:]])
        except ValueError:
            raise ValueError(
                f"line {lineno} has a non-numeric field: {line!r}") from None
    return FieldPanel(data=np.array(rows).T, **header)


def write_panel_binary(panel: FieldPanel) -> bytes:
    header = struct.pack(
        "<5sIQdqIB",
        _MAGIC,
        panel.d,
        panel.n,
        panel.delta,
        panel.seed,
        panel.path,
        PROVENANCES.index(panel.provenance),
    )
    body = np.ascontiguousarray(panel.data, dtype="<f8").tobytes()
    return header + body


def read_panel_binary(blob: bytes) -> FieldPanel:
    head_size = struct.calcsize("<5sIQdqIB")
    if len(blob) < head_size:
        raise ValueError(
            f"panel header needs {head_size} bytes, got {len(blob)}")
    magic, d, n, delta, seed, path, prov = struct.unpack(
        "<5sIQdqIB", blob[:head_size])
    if magic != _MAGIC:
        raise ValueError(f"bad magic {magic!r}, expected {_MAGIC!r}")
    if prov >= len(PROVENANCES):
        raise ValueError(f"provenance code {prov} unknown, expected "
                         f"0..{len(PROVENANCES) - 1}")
    if len(blob) - head_size != 8 * d * n:
        raise ValueError(f"panel body of {d}x{n} values needs {8 * d * n} "
                         f"bytes, got {len(blob) - head_size}")
    data = np.frombuffer(blob[head_size:], dtype="<f8", count=d * n).reshape(d, n)
    return FieldPanel(data=data.copy(), delta=delta, seed=seed,
                      provenance=PROVENANCES[prov], path=path)
