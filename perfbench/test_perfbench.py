"""Tests of the benchmark itself, on small shapes:

* a forced failure is counted against its workload's base, not dropped;
* traced operations give the same outputs as plain ones of the same seed;
* every count of the traced run repeats exactly across two same-seed runs,
  and every per-layer metric the layer map assigns to a workload is non-zero;
* a wrap target that is missing from the program fails the traced run;
* the launcher refuses to run without the program's source.

    python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import spans  # noqa: E402
import workloads  # noqa: E402
from mlogsfbm import estimate, kernels  # noqa: E402
from mlogsfbm import simulate as sim  # noqa: E402

SMALL = {
    "mc-sweep": dict(n_obs=256, agg=4, replicas=2),
    "cli-pipeline": dict(d=3, n=2**12, agg=4),
    "path-batch": dict(n=2**10, agg=4, paths=40),
    "kernel-oracle": dict(block_spec=((0.45, 1.0, 0.0), (0.45, 1.0, 5.0)),
                          series_cells=((0.25, 0.8),)),
}
# per-layer metrics that README.md's layer map assigns to each workload: each
# must be non-zero, so that a wrapper that has gone missing fails here
_FITS = tuple(f"estimate.{fn}.{stat}"
              for fn in ("calibrate_pair", "calibrate_univariate")
              for stat in ("calls", "busy_s", "p50_s"))
EXERCISED = {
    "mc-sweep": _FITS + (
        "estimate.fit.evals", "estimate.mc_validate.self_s",
        "estimate.empirical_cross_cov.busy_s",
        "simulate.simulate_field.per_path_s", "simulate.embedding_size",
        "simulate.factor_bytes"),
    "cli-pipeline": _FITS + (
        "estimate.fit.evals", "estimate.calibrate_panel.self_s",
        "estimate.calibrate_panel.parallelism",
        "estimate.empirical_cross_cov.busy_s",
        "simulate.simulate_field.cold_s", "simulate.embedding_size",
        "simulate.factor_bytes", "simulate.write_panel_csv.busy_s",
        "simulate.write_panel_csv.bytes", "simulate.read_panel_csv.busy_s",
        "simulate.read_panel_csv.bytes", "cli.simulate.busy_s",
        "cli.simulate.self_s", "cli.calibrate.busy_s", "cli.calibrate.self_s"),
    "path-batch": ("simulate.simulate_field.per_path_s",
                   "simulate.field_to_measure.busy_s",
                   "simulate.embedding_size"),
    "kernel-oracle": (
        "kernels.msfbm_cross_cov.calls", "kernels.msfbm_cross_cov.busy_s",
        "kernels.msfbm_cross_cov.p50_us", "kernels.msfbm_cross_cov.p99_us",
        "kernels.integrated_cov.busy_s", "kernels.mrm_cross_cov_series.busy_s",
        "kernels.mrm_cross_cov_series.terms",
        "kernels.mrm_cross_cov_sia.busy_s", "special.power_exp_integral.calls",
        "special.power_exp_integral.busy_s"),
}
COUNT_UNITS = ("count", "bytes")


def _run(name, workdir, traced=False, n_ops=1, seed=3):
    tracer = spans.Tracer() if traced else None
    workload = workloads.WORKLOADS[name](seed=seed, **SMALL[name])
    workload.setup(workdir)
    if tracer is not None:
        spans.instrument(tracer)
    try:
        results = [workload.run_op(i) for i in range(n_ops)]
    finally:
        if tracer is not None:
            tracer.restore()
    return results, tracer


def _counts(tracer) -> dict:
    units = dict(spans.PER_LAYER)
    values = spans.per_layer_values(tracer)
    counts = {k: v for k, v in values.items() if units[k] in COUNT_UNITS}
    counts.update({f"{name}.calls": st.calls for name, st in tracer.stats.items()})
    return counts


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_equals_plain_and_counts_repeat(name, tmp_path):
    plain, _ = _run(name, tmp_path / "plain", n_ops=2)
    first, tracer_a = _run(name, tmp_path / "a", traced=True, n_ops=2)
    second, tracer_b = _run(name, tmp_path / "b", traced=True, n_ops=2)
    for result in plain + first + second:
        assert result.ok, result.problems
        assert result.failed == 0
    assert [r.digest for r in first] == [r.digest for r in plain]
    assert [r.digest for r in second] == [r.digest for r in plain]
    assert _counts(tracer_a) == _counts(tracer_b)
    values = spans.per_layer_values(tracer_a)
    for key in EXERCISED[name]:
        assert values[key] > 0, key


def test_missing_wrap_target_fails():
    tracer = spans.Tracer()
    with pytest.raises(AttributeError, match="no_such_function"):
        tracer.wrap(kernels, "no_such_function", "kernels.no_such_function")


def test_wrappers_are_removed(tmp_path):
    original = kernels.msfbm_cross_cov
    _run("kernel-oracle", tmp_path, traced=True)
    assert kernels.msfbm_cross_cov is original


def test_pair_spans_carry_pair_ids(tmp_path):
    _, tracer = _run("cli-pipeline", tmp_path, traced=True)
    groups = {group for _, name, _, group, *_ in tracer.spans
              if name == "estimate.calibrate_pair"}
    assert groups == {"pair-0-1", "pair-0-2", "pair-1-2"}
    panel = [sid for sid, name, *_ in tracer.spans
             if name == "estimate.calibrate_panel"]
    parents = {parent for _, name, parent, *_ in tracer.spans
               if name == "estimate.calibrate_pair"}
    assert parents == set(panel)


def test_mc_replica_failure_counted(tmp_path, monkeypatch):
    one_replica = estimate._one_replica

    def failing(config, n_field, run_seed, replica):
        if replica == 1:
            raise estimate.CalibrationError("forced")
        return one_replica(config, n_field, run_seed, replica)

    monkeypatch.setattr(estimate, "_one_replica", failing)
    (result,), _ = _run("mc-sweep", tmp_path)
    assert (result.attempted, result.failed) == (2, 1)
    assert not result.ok


def test_cli_pair_failure_counted(tmp_path, monkeypatch):
    calibrate_pair = estimate.calibrate_pair
    calls = []

    def failing(*args, **kwargs):
        calls.append(1)
        if len(calls) == 1:
            raise estimate.CalibrationError("forced")
        return calibrate_pair(*args, **kwargs)

    monkeypatch.setattr(estimate, "calibrate_pair", failing)
    (result,), _ = _run("cli-pipeline", tmp_path)
    assert (result.attempted, result.failed) == (6, 1)
    assert not result.ok


def test_path_overflow_counted(tmp_path, monkeypatch):
    to_measure = sim.field_to_measure

    def failing(panel, params, agg):
        if panel.path == 7:
            raise sim.SimulationError("forced overflow")
        return to_measure(panel, params, agg)

    monkeypatch.setattr(sim, "field_to_measure", failing)
    (result,), _ = _run("path-batch", tmp_path)
    assert (result.attempted, result.failed) == (40, 1)
    assert not result.ok


def test_unconverged_series_counted(tmp_path, monkeypatch):
    series = kernels.mrm_cross_cov_series
    calls = []

    def failing(*args, **kwargs):
        calls.append(1)
        out = series(*args, **kwargs)
        if len(calls) == 1:
            out = kernels.SeriesResult(out.value, out.terms_used, 1.0, False)
        return out

    monkeypatch.setattr(kernels, "mrm_cross_cov_series", failing)
    (result,), _ = _run("kernel-oracle", tmp_path)
    assert (result.attempted, result.failed) == (2 + 2 * 4, 1)
    assert not result.ok


def test_launcher_fails_without_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "path-batch",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)
