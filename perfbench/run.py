"""Benchmark launcher.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` it measures the end-to-end metrics: it starts set-up
probes and one timed run, each in a fresh interpreter with fixed worker and
BLAS thread counts, and prints ``setup_s`` (median over the probes and the
timed run), ``peak_rss_mb`` and ``op_ref`` (median over the operations of
an operation's wall time in units of the reference loop's, timed next to
it).
With ``--trace 1`` it runs a fixed number of operations twice with the same
seed, plain and then with every layer spanned, checks that both give the same
outputs, and prints the per-layer metrics and the tracing overhead.
``--workload all`` runs the four workloads one after another and ends with
one combined result whose metric names are prefixed by the workload.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the recorded environment and each workload's own figures by name.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from spans import PER_LAYER  # noqa: E402

WORKLOADS = ("mc-sweep", "cli-pipeline", "path-batch", "kernel-oracle")
# 2 cores: 2 calibration/replica worker threads x 1 BLAS thread
WORKERS = 2
CHILD_ENV = {
    "MSFBM_WORKERS": str(WORKERS),
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
SETUP_PROBES = 2
# operations per traced run: one cold and one warm batch for path-batch,
# so that the warm per-path time exists
TRACE_OPS = {"mc-sweep": 1, "cli-pipeline": 1, "path-batch": 2,
             "kernel-oracle": 1}
DEADLINE_S = 175.0


class ChildFailed(RuntimeError):
    pass


def _child(mode: str, args, deadline: float, **extra) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(CHILD_ENV)
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--mode", mode]
    for key, value in extra.items():
        cmd += [f"--{key}", str(value)]
    t0 = time.monotonic()
    timeout = deadline - t0
    if timeout <= 0:
        raise ChildFailed("out of time before starting a run")
    try:
        proc = subprocess.run(cmd + ["--t0", repr(t0)], env=env, cwd=ROOT,
                              stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{mode} run exceeded {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{mode} run exited with {proc.returncode}")
    return json.loads(lines[-1])


def _totals(run: dict) -> tuple[int, int, list]:
    attempted = sum(op["attempted"] for op in run["ops"])
    failed = sum(op["failed"] for op in run["ops"])
    problems = [p for op in run["ops"] for p in op["problems"]]
    return attempted, failed, problems


def _figures(workload: str, run: dict) -> list[str]:
    """The workload's own figures, by name and unit."""
    ops = run["ops"]
    op_s = statistics.median(op["wall_s"] for op in ops)
    units = ops[0]["attempted"]
    attempted, failed, _ = _totals(run)
    lines = [f"{workload}: {len(ops)} operations; walls "
             + " ".join(f"{op['wall_s']:.3f}" for op in ops),
             f"op_s {op_s:.4f} s (median wall time)"]
    if workload == "mc-sweep":
        lines.append(f"replicas_per_s {units / op_s:.4f} 1/s "
                     f"({units} replicas per sweep, factorisation included)")
        base = "replicas"
    elif workload == "cli-pipeline":
        for key in ("simulate_s", "calibrate_s"):
            value = statistics.median(op["timings"][key] for op in ops)
            lines.append(f"{key} {value:.4f} s")
        base = "fits"
    elif workload == "path-batch":
        lines.append(f"paths_per_s {units / op_s:.4f} 1/s "
                     f"({units} paths per batch); largest moment |z| "
                     f"{max(op['timings'].get('max_z', 0.0) for op in ops):.2f}")
        base = "paths"
    else:
        lines.append(f"oracle_s {op_s:.4f} s; worst relative error "
                     f"{max(op['timings']['worst_rel_error'] for op in ops):.2e}")
        base = "points"
    lines.append(f"fail_fraction {failed / attempted:.6f} "
                 f"({failed} of {attempted} {base})")
    return lines


def _measure(args, deadline: float) -> tuple[dict, list[str]]:
    setups = [_child("setup", args, deadline)["setup_s"]
              for _ in range(SETUP_PROBES)]
    run = _child("plain", args, deadline, seconds=args.seconds)
    setups.append(run["setup_s"])
    attempted, failed, problems = _totals(run)
    metrics = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": run["peak_rss_mb"],
        "op_ref": statistics.median(op["ref_norm"] for op in run["ops"]),
    }
    units = {"setup_s": "s", "peak_rss_mb": "MB", "op_ref": "ref"}
    lines = ["env " + json.dumps(run["env"], sort_keys=True)]
    lines += _figures(args.workload, run)
    lines += [f"{k} {v:.4f} {units[k]}" for k, v in metrics.items()]
    lines += [f"problem: {p}" for p in problems]
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]}
                          for k, v in metrics.items()}}
    return result, lines


def _trace(args, deadline: float) -> tuple[dict, list[str]]:
    ops = TRACE_OPS[args.workload]
    plain = _child("plain", args, deadline, ops=ops)
    traced = _child("traced", args, deadline, ops=ops)
    attempted, failed, problems = _totals(traced)
    problems += _totals(plain)[2]
    if [op["digest"] for op in plain["ops"]] != [op["digest"] for op in traced["ops"]]:
        problems.append("traced outputs differ from plain outputs")
    plain_s, traced_s = (sum(op["wall_s"] for op in run["ops"])
                         for run in (plain, traced))
    overhead = traced_s - plain_s
    values = dict(traced["per_layer"])
    values["trace.overhead_s"] = overhead
    values["trace.overhead_frac"] = overhead / plain_s
    values["fail_fraction"] = failed / attempted
    units = dict(PER_LAYER)
    units.update({"trace.overhead_s": "s", "trace.overhead_frac": "ratio",
                  "fail_fraction": "fraction"})
    lines = ["env " + json.dumps(traced["env"], sort_keys=True),
             f"{args.workload}: {ops} operations plain {plain_s:.4f} s, "
             f"traced {traced_s:.4f} s; spans in {traced['spans_file']}"]
    lines += [f"{k} {v} {units[k]}" for k, v in values.items()]
    lines += [f"problem: {p}" for p in problems]
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]}
                          for k, v in values.items()}}
    return result, lines


def _combined(results: dict) -> dict:
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{key}": metric for name, r in results.items()
                    for key, metric in r["metrics"].items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "mlogsfbm" / "__init__.py").is_file():
        print(f"no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        one = argparse.Namespace(**{**vars(args), "workload": name})
        try:
            result, lines = (_trace if args.trace else _measure)(
                one, time.monotonic() + DEADLINE_S)
        except ChildFailed as exc:
            print(f"benchmark run of {name} failed: {exc}", file=sys.stderr)
            return 1
        for line in lines:
            print(line)
        results[name] = result
    final = results[names[0]] if len(names) == 1 else _combined(results)
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
