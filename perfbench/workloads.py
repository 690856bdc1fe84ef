"""The four benchmark workloads.

Each workload builds its inputs from a seed in ``setup`` (counted in the
set-up time) and then runs operations, one ``run_op`` call at a time, in a
closed loop.  An operation returns how many units it attempted and how many
failed, whether its outputs passed the workload's checks, a digest of its
outputs (to compare a traced run with a plain one of the same seed) and named
sub-timings.  ``run_op`` also receives the reference-loop timer of
``child.py``; a workload whose operation has stages samples it between them.
Program functions are looked up through their modules at call time, so the
traced run's wrappers see every call; output checks call the program only
through names the tracer does not wrap.

Shapes default to the benchmark's; the benchmark's own tests pass smaller
ones.  See README.md for why each workload exists.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.integrate as sint

from mlogsfbm import cli, estimate, kernels
from mlogsfbm import simulate as sim
from mlogsfbm.params import ModelParams, PairParams

# |z| limit of the path-batch moment check: the small-amplitude theory is
# checked per batch, and with 5 lags a 5-sigma limit keeps the chance of a
# spurious failure below 1e-5 per batch on any seed
Z_LIMIT = 5.0
LAGS = (1, 2, 4, 8, 16)
ORACLE_RTOL = 1e-8
SIA_RTOL = 1e-3


@dataclass
class OpResult:
    attempted: int
    failed: int
    problems: list = field(default_factory=list)
    digest: str = ""
    timings: dict = field(default_factory=dict)
    # an operation timed in stages: the wall time of each stage and the
    # reference-loop samples taken between them (see child.py)
    stages: list = field(default_factory=list)
    stage_refs: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(np.ascontiguousarray(part, dtype="<f8").tobytes())
        elif isinstance(part, bytes):
            h.update(part)
        else:
            h.update(repr(part).encode())
    return h.hexdigest()


def _fresh_factorisation():
    """Drop cached spectral factors so each operation pays factorisation the
    way a fresh user process or sweep does.  A program without the module
    cache pays it anyway."""
    clear = getattr(sim, "clear_factor_cache", None)
    if clear is not None:
        clear()


def _fig2_params(lam2: float) -> ModelParams:
    """H_ii = 0.02, H_12 = 0.15, g = 0.5, T = 2^14."""
    return ModelParams(T=2.0**14, H=[[0.02, 0.15], [0.15, 0.02]],
                       xi=[[lam2, 0.5 * lam2], [0.5 * lam2, lam2]])


# ---------------------------------------------------------------------------
# mc-sweep
# ---------------------------------------------------------------------------

@dataclass
class McSweep:
    """One operation is one ``mc_validate`` sweep of ``replicas`` replicas,
    spectral factorisation included; the unit is a replica."""

    seed: int
    n_obs: int = 2**14
    agg: int = 16
    replicas: int = 2
    name = "mc-sweep"
    unit = "replica"

    def setup(self, workdir: Path):
        self.params = _fig2_params(0.05)

    def run_op(self, index: int, reference=None) -> OpResult:
        _fresh_factorisation()
        config = estimate.McConfig(
            params=self.params, n_list=(self.n_obs,), replicas=self.replicas,
            seed=self.seed * 1000 + index, agg=self.agg,
            max_failure_fraction=1.0)
        report = estimate.mc_validate(config)
        run = report.runs[0]
        out = OpResult(attempted=self.replicas, failed=run.n_failures)
        s = run.samples
        if run.n_failures:
            out.problems.append(f"{run.n_failures} replicas failed")
        hbar = 0.5 * (s["H_0"] + s["H_1"])
        if np.any(s["H_01"] < hbar) or np.any(s["H_01"] >= 0.5):
            out.problems.append("H_01 outside [H-bar, 1/2)")
        if np.any(np.abs(s["g_01"]) > 1.0):
            out.problems.append("|g_01| > 1")
        for key in ("H_0", "H_1"):
            if np.any(s[key] <= 0.0) or np.any(s[key] >= 0.5):
                out.problems.append(f"{key} outside (0, 1/2)")
        for key in ("lambda2_0", "lambda2_1"):
            if np.any(s[key] <= 0.0):
                out.problems.append(f"{key} not positive")
        out.digest = _digest(*(s[k] for k in sorted(s)))
        return out


# ---------------------------------------------------------------------------
# cli-pipeline
# ---------------------------------------------------------------------------

@dataclass
class CliPipeline:
    """One operation is ``mlogsfbm simulate`` then ``mlogsfbm calibrate`` on
    its Gaussian proxy panel, in CSV; the unit is a pipeline.  Fits counted
    for failures: d marginals and d(d-1)/2 pairs."""

    seed: int
    d: int = 5
    n: int = 2**18
    agg: int = 16
    name = "cli-pipeline"
    unit = "pipeline"

    def setup(self, workdir: Path):
        d = self.d
        h = np.full((d, d), 0.12)
        np.fill_diagonal(h, 0.02)
        xi = np.full((d, d), 0.9 * 0.05)
        np.fill_diagonal(xi, 0.05)
        self.params = ModelParams(T=float(self.n), H=h, xi=xi)
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        self.params_file = workdir / "params.json"
        self.params_file.write_text(self.params.to_json())

    def run_op(self, index: int, reference=None) -> OpResult:
        _fresh_factorisation()
        sim_dir = self.workdir / f"op{index}" / "sim"
        cal_dir = self.workdir / f"op{index}" / "cal"
        proxy = sim_dir / "logvol_proxy_p000.csv"
        t0 = time.perf_counter()
        rc_sim = cli.main([
            "simulate", "--params", str(self.params_file), "--n", str(self.n),
            "--agg", str(self.agg), "--seed", str(self.seed * 1000 + index),
            "--format", "csv", "--out", str(sim_dir)])
        t1 = time.perf_counter()
        # the two user actions are timed as two stages, with a reference
        # sample between them: the 25 s pipeline is too long for samples
        # taken only at its ends to track the machine's speed
        mid_ref = reference() if reference is not None else None
        t2 = time.perf_counter()
        rc_cal = None
        if rc_sim == cli.EXIT_OK:
            rc_cal = cli.main(["calibrate", "--panel", str(proxy),
                               "--out", str(cal_dir)])
        t3 = time.perf_counter()
        out = self._check(rc_sim, rc_cal, sim_dir, cal_dir, proxy)
        out.timings = {"simulate_s": t1 - t0, "calibrate_s": t3 - t2,
                       "op_s": (t1 - t0) + (t3 - t2)}
        if mid_ref is not None:
            out.stages = [t1 - t0, t3 - t2]
            out.stage_refs = [mid_ref]
        shutil.rmtree(self.workdir / f"op{index}")
        return out

    def _check(self, rc_sim, rc_cal, sim_dir, cal_dir, proxy) -> OpResult:
        d = self.d
        pair_keys = [f"{i}-{j}" for i in range(d) for j in range(i + 1, d)]
        out = OpResult(attempted=d + len(pair_keys), failed=0)
        if rc_sim != cli.EXIT_OK or rc_cal != cli.EXIT_OK:
            out.problems.append(f"exit codes simulate={rc_sim} calibrate={rc_cal}")
        if rc_sim != cli.EXIT_OK or not (cal_dir / "pairs.json").is_file():
            out.failed = out.attempted
            return out
        diagnostics = json.loads((sim_dir / "diagnostics.json").read_text())
        if diagnostics["flag"] != "exact":
            out.problems.append(f"embedding flag {diagnostics['flag']!r}")
        marginals = json.loads((cal_dir / "marginals.json").read_text())
        pairs = json.loads((cal_dir / "pairs.json").read_text())
        estimate_doc = json.loads((cal_dir / "params_estimate.json").read_text())
        fits = [marginals.get(str(i)) for i in range(d)]
        fits += [pairs.get(key) for key in pair_keys]
        out.failed = sum(1 for fit in fits if fit is None or not fit["converged"])
        if len(marginals) != d or len(pairs) != len(pair_keys):
            out.problems.append(f"{len(marginals)} marginals and "
                                f"{len(pairs)} pairs present")
        if estimate_doc["converged_pair_fraction"] < cli.PAIR_CONVERGENCE_FLOOR:
            out.problems.append("converged-pair fraction "
                                f"{estimate_doc['converged_pair_fraction']}")
        text = proxy.read_text()
        panel = sim.read_panel_csv(text)
        if panel.d != d or panel.n != self.n // self.agg:
            out.problems.append(f"proxy panel shape {panel.d}x{panel.n}")
        if sim.write_panel_csv(panel) != text:
            out.problems.append("re-read proxy panel differs from the one written")
        out.digest = _digest(
            text.encode(), (cal_dir / "params_estimate.json").read_bytes(),
            (cal_dir / "marginals.json").read_bytes(),
            (cal_dir / "pairs.json").read_bytes())
        return out


# ---------------------------------------------------------------------------
# path-batch
# ---------------------------------------------------------------------------

@dataclass
class PathBatch:
    """One operation draws ``paths`` paths in one ``simulate_field`` call,
    aggregates each to its log measure and checks the lagged product moments
    against the small-amplitude theory; the unit is a path.  Batch k draws
    paths [k*paths, (k+1)*paths) of the seed's stream."""

    seed: int
    n: int = 2**14
    agg: int = 16
    paths: int = 300
    name = "path-batch"
    unit = "path"

    def setup(self, workdir: Path):
        lam2 = 0.005
        self.params = _fig2_params(lam2)
        # the theory is computed here, before the traced run wraps
        # integrated_cov, so that the check adds no kernel spans
        delta = float(self.agg)
        pair = self.params.pair(0, 1)
        self.theory = [lam2 * kernels.integrated_cov(lag * delta, delta, pair)
                       / delta**2 for lag in LAGS]

    def run_op(self, index: int, reference=None) -> OpResult:
        out = OpResult(attempted=self.paths, failed=0)
        try:
            panels, _ = sim.simulate_field(
                self.params, self.n, delta=1.0, seed=self.seed,
                n_paths=self.paths, first_path=index * self.paths)
        except sim.EmbeddingError as exc:
            out.failed = self.paths
            out.problems.append(f"embedding failed: {exc}")
            return out
        measures = []
        for panel in panels:
            try:
                measures.append(sim.field_to_measure(panel, self.params, self.agg))
            except sim.SimulationError:
                out.failed += 1
        if out.failed:
            out.problems.append(f"{out.failed} paths overflowed")
        if len(measures) < 2:
            return out
        xs = np.array([m.data[0] for m in measures])
        ys = np.array([m.data[1] for m in measures])
        xs = xs - xs.mean()
        ys = ys - ys.mean()
        n_panel = xs.shape[1]
        zs = []
        for lag, theory in zip(LAGS, self.theory):
            per_path = np.mean(xs[:, : n_panel - lag] * ys[:, lag:], axis=1)
            se = per_path.std(ddof=1) / math.sqrt(len(measures))
            zs.append(float(abs(per_path.mean() - theory) / se))
        if max(zs) > Z_LIMIT:
            out.problems.append(
                "moment z-scores " + ", ".join(f"{z:.2f}" for z in zs))
        out.digest = _digest(xs, ys, np.array(zs))
        out.timings = {"max_z": max(zs)}
        return out


# ---------------------------------------------------------------------------
# kernel-oracle
# ---------------------------------------------------------------------------

def block_quadrature(pair: PairParams, tau: float, delta: float) -> float:
    """Iterated adaptive quadrature of the scalar instantaneous kernel over
    two blocks, with a breakpoint where the lag-0 cusp crosses the inner
    range (the criterion-2 oracle)."""
    tol = 3e-11

    def inner(u):
        cusp = [u] if tau < u < tau + delta else None
        val, _ = sint.quad(lambda v: kernels.msfbm_cross_cov(abs(u - v), pair),
                           tau, tau + delta, points=cusp,
                           epsabs=tol, epsrel=tol, limit=200)
        return val

    val, _ = sint.quad(inner, 0.0, delta, epsabs=tol, epsrel=tol, limit=200)
    return val


# criterion-2 points kept, as (H_ij, H-bar fraction, tau / Delta): the lag-0
# cusp, where the oracle does 93% of its kernel calls, at the roughest and
# the smoothest cross kernel, and three off-cusp lags at every H_ij.  The
# full 64-point grid takes about 45 s.
BLOCK_POINTS = ((0.05, 0.25, 0.0), (0.45, 1.0, 0.0)) + tuple(
    (hij, frac, ratio)
    for hij, frac in ((0.05, 0.25), (0.15, 0.5), (0.3, 0.75), (0.45, 1.0))
    for ratio in (1.0, 5.0, 50.0))
# criterion-3 points: (H_ij, H-bar fraction) x (g, tau, Delta)
SERIES_CELLS = ((0.05, 0.4), (0.15, 0.13), (0.25, 0.8), (0.4, 0.5), (0.45, 1.0))
SERIES_POINTS = ((0.5, 4.0, 1.0), (-0.99, 6.0, 1.0), (0.9, 40.0, 8.0),
                 (0.25, 16.0, 2.0))


@dataclass
class KernelOracle:
    """One operation is one oracle pass: criterion-2 block quadrature of the
    scalar kernel against ``integrated_cov``, then the criterion-3 measure
    cross-moment series against 2-D quadrature and its first-order form.
    The points are the acceptance suite's and the seed only orders them:
    adaptive quadrature's cost changes erratically with the last bits of its
    inputs, and drawing g and lambda^2 per seed moved the kernel-call count
    of a pass between 214k and 373k.  The unit is a pass.  Points counted
    for failures: every block point and every series evaluation (one at
    each amplitude per series point)."""

    seed: int
    block_spec: tuple = BLOCK_POINTS
    series_cells: tuple = SERIES_CELLS
    name = "kernel-oracle"
    unit = "pass"

    def setup(self, workdir: Path):
        block = [(PairParams(g=0.7, H_ij=hij, lambda_i2=0.05, lambda_j2=0.05,
                             H_i=hij * frac, H_j=hij * frac, T=1000.0), ratio)
                 for hij, frac, ratio in self.block_spec]
        series = [(hij, hij * frac, g, tau, delta)
                  for hij, frac in self.series_cells
                  for g, tau, delta in SERIES_POINTS]
        rng = random.Random(self.seed)
        self.block_points = rng.sample(block, len(block))
        self.series_points = rng.sample(series, len(series))

    def run_op(self, index: int, reference=None) -> OpResult:
        worst_block = worst_series = worst_sia = 0.0
        not_converged = 0
        values = []
        for pair, ratio in self.block_points:
            lam = math.sqrt(pair.lambda_i2 * pair.lambda_j2)
            ref = block_quadrature(pair, ratio, 1.0) / lam
            got = kernels.integrated_cov(ratio, 1.0, pair)
            worst_block = max(worst_block, abs(got - ref) / abs(ref))
            values.append(got)
        t_scale = float(2**14)
        for hij, hbar, g, tau, delta in self.series_points:
            pair = PairParams(g=g, H_ij=hij, lambda_i2=0.05, lambda_j2=0.05,
                              H_i=hbar, H_j=hbar, T=t_scale)
            ref, _ = sint.dblquad(
                lambda v, u: math.exp(kernels.msfbm_cross_cov(abs(u - v), pair)),
                0.0, delta, tau, tau + delta, epsabs=1e-12, epsrel=1e-11)
            got = kernels.mrm_cross_cov_series(tau, delta, pair)
            not_converged += not got.converged
            worst_series = max(worst_series, abs(got.value - ref) / abs(ref))
            small = PairParams(g=g, H_ij=hij, lambda_i2=0.005, lambda_j2=0.005,
                               H_i=hbar, H_j=hbar, T=t_scale)
            series = kernels.mrm_cross_cov_series(tau, delta, small)
            not_converged += not series.converged
            sia = kernels.mrm_cross_cov_sia(tau, delta, small)
            worst_sia = max(worst_sia, abs(sia - series.value) / abs(series.value))
            values += [got.value, series.value, sia]
        n_points = len(self.block_points) + 2 * len(self.series_points)
        out = OpResult(attempted=n_points, failed=not_converged)
        if not_converged:
            out.problems.append(f"{not_converged} series did not converge")
        if worst_block > ORACLE_RTOL or worst_series > ORACLE_RTOL:
            out.problems.append(
                f"relative error block {worst_block:.2e}, "
                f"series {worst_series:.2e} (limit {ORACLE_RTOL:.0e})")
        if worst_sia > SIA_RTOL:
            out.problems.append(f"first-order vs series {worst_sia:.2e}")
        out.digest = _digest(np.array(values))
        out.timings = {"worst_rel_error": max(worst_block, worst_series)}
        return out


WORKLOADS = {cls.name: cls for cls in (McSweep, CliPipeline, PathBatch,
                                       KernelOracle)}
