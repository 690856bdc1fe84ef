"""One benchmark process.  ``run.py`` starts a fresh one for every timed run
and every set-up probe, so no program state (such as a module-level factor
cache) carries over between runs.

Modes:
  setup   build the workload's inputs, report the set-up time and exit
  plain   run operations in a closed loop for --seconds (or exactly --ops)
  traced  run exactly --ops operations with every layer spanned

Every operation is bracketed by the reference loop (``reference_s``), and a
workload that times its operation in stages takes a sample between them.
An operation's ``ref_norm`` is the sum over its stages of the stage's wall
time over the mean of the two samples around it.

Prints one JSON object as its last line of standard output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = (ROOT / "src").resolve()
sys.path.insert(1, str(SRC))


def _commit() -> str | None:
    """The checked-out commit, when the checkout is a git work tree."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[5:]
    return target.read_text().strip() if target.is_file() else ref


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "mlogsfbm").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "MSFBM_WORKERS": os.environ.get("MSFBM_WORKERS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "commit": _commit(),
        "source_digest": _source_digest(),
    }


def reference_s() -> float:
    """Wall time of fixed work that no program change touches: a loop of
    scalar float calls in the interpreter and a loop of small numpy FFTs,
    the two kinds of work the program's layers do.  Timed next to each
    operation, it gives the machine's speed at that moment, which drifts on
    a shared machine (README.md, "Steadiness")."""
    import numpy as np

    start = time.perf_counter()
    total = 0.0
    for i in range(400_000):
        total += math.exp(-i * 1e-6) * (i % 7)
    x = np.linspace(0.0, 1.0, 2**16)
    for _ in range(25):
        total += np.exp(np.fft.irfft(np.fft.rfft(x) * 0.5)).sum()
    return time.perf_counter() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "plain", "traced"),
                        required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--ops", type=int, default=0)
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() just before this process started")
    args = parser.parse_args(argv)

    import mlogsfbm
    if not Path(mlogsfbm.__file__).resolve().is_relative_to(SRC):
        print(f"mlogsfbm imported from {mlogsfbm.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    tracer = None
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workload = WORKLOADS[args.workload](seed=args.seed)
    try:
        workload.setup(workdir)
        setup_s = time.monotonic() - args.t0
        if args.mode == "setup":
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if args.mode == "traced":
            import spans
            tracer = spans.Tracer()
            spans.instrument(tracer)
        ops = []
        ref_before = reference_s()
        start = time.perf_counter()
        while True:
            t = time.perf_counter()
            result = workload.run_op(len(ops), reference_s)
            wall = time.perf_counter() - t
            ref_after = reference_s()
            # a workload that checks or cleans up after its timed part
            # reports the timed part as op_s
            op_s = result.timings.get("op_s", wall)
            refs = [ref_before, *result.stage_refs, ref_after]
            ref_norm = sum(stage / ((a + b) / 2) for stage, a, b
                           in zip(result.stages or [op_s], refs, refs[1:]))
            ops.append({"wall_s": op_s, "ref_norm": ref_norm,
                        "attempted": result.attempted, "failed": result.failed,
                        "problems": result.problems, "digest": result.digest,
                        "timings": result.timings})
            ref_before = ref_after
            if args.ops:
                if len(ops) >= args.ops:
                    break
            elif time.perf_counter() - start >= args.seconds:
                break
    finally:
        if tracer is not None:
            tracer.restore()
        shutil.rmtree(workdir, ignore_errors=True)

    out = {
        "workload": args.workload, "seed": args.seed, "mode": args.mode,
        "unit": workload.unit, "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ops": ops, "env": environment(),
    }
    if tracer is not None:
        out["per_layer"] = spans.per_layer_values(tracer)
        out["spans_file"] = str(_write_spans(tracer, args).relative_to(ROOT))
    print(json.dumps(out))
    return 0


def _write_spans(tracer, args) -> Path:
    """Keep the traced run's spans (not the leaf calls) for inspection."""
    path = ROOT / ".perfbench_out" / f"spans-{args.workload}-{args.seed}.json"
    path.parent.mkdir(exist_ok=True)
    fields = ("id", "name", "parent", "group", "thread", "start", "end")
    path.write_text(json.dumps([dict(zip(fields, span)) for span in tracer.spans]))
    return path


if __name__ == "__main__":
    sys.exit(main())
