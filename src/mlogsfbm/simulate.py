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
the full-spectrum sampler, and one of F[k] v[k] gives Im(ifft(F z)); one
batched inverse FFT serves both paths of a stream.  Any path can be
regenerated on its own from its stream.

Three kinds of task run on ``default_workers()`` threads: a pair's
covariance row and its DCT-I, a chunk of frequencies of the factorisation
with its eigenvalue diagnostics (|lambda| sums, clipped sums, minima), and a
Philox stream.  Each is an independent computation written to its own slot,
so the result does not depend on the thread count.  The factorisation holds
one (M/2 + 1, d, d) array, the spectrum factorised in place, beside
per-row and per-chunk temporaries; a stream holds one (M/2 + 1, d, k, 2)
array for its k <= 2 paths and one (M, d) array of normals at a time.
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
    "write_table_csv",
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

PANEL_MAGIC = b"MSFB1"  # first bytes of a binary panel

_SEED_MASK = (1 << 64) - 1
_PRICE_STREAM = 0x9E3779B97F4A7C15  # distinct Philox stream for price noise

# frequencies per factorisation call: about 1.6 MB of eigh workspace at d = 5
_EIGH_CHUNK = 8192

_CSV_CHUNK = 4096  # columns per tolist(): a whole-array one doubles the peak


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
        if not 0 < self.delta < math.inf:
            raise ValueError(f"delta must be positive and finite, got {self.delta}")
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
    shape (M/2 + 1, d, d); the matrix at M - k equals the one at k.  Each
    pair's row is one task on ``default_workers()`` threads."""
    m_max = int(math.floor(params.T / delta))
    m = 1 << int(math.ceil(math.log2(2 * max(n, m_max))))
    d = params.d
    spectra = np.empty((m // 2 + 1, d, d))

    def pair_row(pair: tuple[int, int]):
        i, j = pair
        # m_max <= M/2, so no lag wraps onto another: entries 0..M/2 are the
        # sequence, zero-padded, except that lags M/2 and -M/2 are one point
        row = np.zeros(m // 2 + 1)
        row[: m_max + 1] = _covariance_sequence(params, i, j, delta, m_max)
        row[-1] *= 2.0
        # the DFT of an even sequence of length m is the DCT-I of its half
        # (rows on worker threads: +11-13 MB of peak RSS at d = 5,
        # n = 2^18, over the same rows on the calling thread)
        spectra[:, i, j] = spectra[:, j, i] = scipy.fft.dct(
            row, type=1, overwrite_x=True)

    fan_out(pair_row, [(i, j) for i in range(d) for j in range(i, d)])
    return m, spectra


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

    The pair rows of the spectrum, then the per-frequency factors in chunks
    of ``_EIGH_CHUNK`` frequencies, run on ``default_workers()`` threads,
    each row and each frequency on its own, so the factor does not depend
    on the thread count.  Each chunk also writes its rows of the
    diagnostics: the sums of |eigenvalues| and of clipped eigenvalues, and
    the minima.  At d = 2 each factor is the closed-form symmetric root of
    ``_symmetric_root_2x2``; at any other d it is the eigenvectors of
    ``eigh`` scaled by the square roots of the clipped eigenvalues: LAPACK
    factors each matrix on its own, so the factor equals that of one
    whole-array ``eigh`` call bit for bit.  Either is written over the
    spectrum, so the one (M/2 + 1, d, d) array held is the factor."""
    require_admissible(params, strict_pd=True)
    if n < 2:
        raise ValueError("n must be >= 2")
    if not 0 < delta < math.inf:
        raise ValueError(f"delta must be positive and finite, got {delta}")
    m, matrix = _spectral_matrices(params, n, delta)
    n_freq, d = matrix.shape[:2]
    # per frequency: sum of |eigenvalues|, clipped (negative) mass, minimum
    row_abs, row_clipped, half_min = (np.empty(n_freq) for _ in range(3))

    def factor_chunk(start: int):
        chunk = slice(start, start + _EIGH_CHUNK)
        block = matrix[chunk]
        if d == 2:
            eigvals = np.empty((len(block), 2))
            _symmetric_root_2x2(block, eigvals)
        else:
            eigvals, block[...] = np.linalg.eigh(block)
        row_abs[chunk] = np.abs(eigvals).sum(axis=1)
        row_clipped[chunk] = -np.clip(eigvals, None, 0.0).sum(axis=1)
        half_min[chunk] = eigvals.min(axis=1)
        if d != 2:
            # eigenvectors scaled in place: no second (M/2 + 1, d, d) array
            block *= np.sqrt(np.clip(eigvals, 0.0, None))[:, None, :]

    fan_out(factor_chunk, range(0, n_freq, _EIGH_CHUNK))
    # an interior frequency k also stands for its mirror M - k
    weight = np.full(n_freq, 2.0)
    weight[[0, -1]] = 1.0
    total = float(weight @ row_abs)
    clipped = float(weight @ row_clipped)
    mass = clipped / total if total > 0 else 0.0
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
    matrix.setflags(write=False)
    return SpectralFactor(params=params, n=n, delta=delta, matrix=matrix,
                          diagnostics=diagnostics)


def _path_rng(seed: int, stream: int) -> np.random.Generator:
    key = np.array([seed & _SEED_MASK, stream & _SEED_MASK], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


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
    m, d = factor.diagnostics.embedding_size, params.d
    half = m // 2
    scale = math.sqrt(m)
    end = first_path + n_paths

    def draw(stream: int) -> list[FieldPanel]:
        """The panels of this stream's paths that fall in the call's range."""
        rng = _path_rng(seed, stream)
        paths = range(max(first_path, 2 * stream), min(end, 2 * stream + 2))
        # (M/2 + 1, d, path, 2): real and imaginary parts of each path's half
        halves = np.empty((half + 1, d, len(paths), 2))
        # z = re + i im: the even path's half is w of z, the odd path's is w
        # of -i z = im - i re, so re gives the even real and the odd
        # imaginary part, im the even imaginary and the odd real part
        for part in (0, 1):  # re, then im: one (M, d) normal array at a time
            x = rng.standard_normal((m, d))
            ahead, behind = x[1:half + 1], x[:half - 1:-1]  # z[k], z[M-k]
            for slot, path in enumerate(paths):
                out = halves[:, :, slot, part ^ path % 2]
                if part == path % 2:  # real part: 2 Re w[k], w[0] = x[0]
                    out[0] = x[0]
                    np.add(ahead, behind, out=out[1:])
                else:  # imaginary part: 2 Im w[k], w[0] real
                    out[0] = 0.0
                    # the odd path's -re[k] - (-re[M-k]) is re[M-k] - re[k]
                    np.subtract(*((ahead, behind) if part else (behind, ahead)),
                                out=out[1:])
            del x, ahead, behind, out  # views keep their base alive
        halves[1:] *= 0.5
        # F[k] w[k] in place, a chunk of frequencies at a time
        columns = halves.reshape(half + 1, d, -1)
        for start in range(0, half + 1, _EIGH_CHUNK):
            chunk = slice(start, start + _EIGH_CHUNK)
            np.matmul(factor.matrix[chunk], columns[chunk], out=columns[chunk])
        # one inverse real FFT for the stream's paths
        draws = np.fft.irfft(halves.view(complex)[..., 0], n=m, axis=0)
        del halves, columns
        panels = []
        for slot, path in enumerate(paths):
            data = np.ascontiguousarray(draws[:n, :, slot].T)
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
    if panel.d != params.d:
        raise ValueError(f"panel has {panel.d} rows but the parameters "
                         f"have d = {params.d}")
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


def field_to_gaussian_proxy(panel: FieldPanel, agg: int) -> FieldPanel:
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

def write_table_csv(data: np.ndarray, prefix: str) -> str:
    """A ``t,<prefix>0,<prefix>1,...`` header, then one ``k,v0,v1,...`` row
    per column k of the (d, n) array, each value as its ``repr``."""
    buf = io.StringIO()
    buf.write("t," + ",".join(f"{prefix}{i}" for i in range(data.shape[0])) + "\n")
    for k0 in range(0, data.shape[1], _CSV_CHUNK):
        for k, row in enumerate(data[:, k0:k0 + _CSV_CHUNK].T.tolist(), k0):
            buf.write(f"{k},{','.join(map(repr, row))}\n")
    return buf.getvalue()


def write_panel_csv(panel: FieldPanel) -> str:
    return (f"# delta={panel.delta!r} provenance={panel.provenance} "
            f"seed={panel.seed} path={panel.path}\n"
            + write_table_csv(panel.data, "m"))


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
        PANEL_MAGIC,
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
    if magic != PANEL_MAGIC:
        raise ValueError(f"bad magic {magic!r}, expected {PANEL_MAGIC!r}")
    if prov >= len(PROVENANCES):
        raise ValueError(f"provenance code {prov} unknown, expected "
                         f"0..{len(PROVENANCES) - 1}")
    if len(blob) - head_size != 8 * d * n:
        raise ValueError(f"panel body of {d}x{n} values needs {8 * d * n} "
                         f"bytes, got {len(blob) - head_size}")
    data = np.frombuffer(blob[head_size:], dtype="<f8", count=d * n).reshape(d, n)
    return FieldPanel(data=data.copy(), delta=delta, seed=seed,
                      provenance=PROVENANCES[prov], path=path)
