"""Span tracer for the benchmark's traced run.

The tracer replaces public functions of the program's layers with thin
wrappers *where they are looked up* (for example ``estimate.simulate_field``
and ``cli.calibrate_panel`` as well as ``simulate.simulate_field``), so that
calls made inside ``mc_validate`` and the CLI are spanned without touching
the program's files.  Everything is undone by ``Tracer.restore``.

A span records its name, start, end, parent span and a group id (a replica
or pair id).  The parent of a span is the innermost open span of the same
thread; a span opened at the top of a worker thread takes the innermost open
span of the thread that created the tracer, which is the thread that fans the
work out in ``mc_validate`` and ``calibrate_panel``.  Hot scalar functions
are "leaf" spans: they feed the per-name statistics and their parent's self
time but are not stored one by one.
"""

from __future__ import annotations

import functools
import threading
import time
from array import array
from collections import defaultdict

import numpy as np


class _Span:
    __slots__ = ("sid", "name", "parent", "group", "start", "children")

    def __init__(self, sid, name, parent, group):
        self.sid = sid
        self.name = name
        self.parent = parent
        self.group = group
        self.start = 0.0
        self.children = []


class _Stats:
    __slots__ = ("calls", "busy", "self_s", "durations")

    def __init__(self):
        self.calls = 0
        self.busy = 0.0
        self.self_s = 0.0
        self.durations = array("d")


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


class Tracer:
    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._owner = threading.get_ident()
        self._owner_stack: list = []
        self._next_sid = 0
        self._patches: list = []
        self.stats: dict = defaultdict(_Stats)
        self.counters: dict = defaultdict(int)
        self.spans: list = []   # (sid, name, parent sid, group, thread, start, end)
        self.field_calls: list = []   # (duration, n_paths, shape) per simulate_field

    # -- span bookkeeping --------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            owner = threading.get_ident() == self._owner
            stack = self._owner_stack if owner else []
            self._local.stack = stack
        return stack

    def _open(self, name: str, group, leaf: bool) -> _Span:
        stack = self._stack()
        with self._lock:
            if stack:
                parent = stack[-1]
                group = parent.group
            else:
                parent = self._owner_stack[-1] if self._owner_stack else None
                if group is None and parent is not None:
                    group = parent.group
            self._next_sid += 1
            span = _Span(self._next_sid, name, parent, group)
            if not leaf:
                stack.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: _Span, leaf: bool) -> float:
        end = time.perf_counter()
        duration = end - span.start
        with self._lock:
            if not leaf:
                self._stack().pop()
            own = duration - _covered(span.children) if span.children else duration
            st = self.stats[span.name]
            st.calls += 1
            st.busy += duration
            st.self_s += own
            st.durations.append(duration)
            if span.parent is not None:
                span.parent.children.append((span.start, end))
            if not leaf:
                self.spans.append((span.sid, span.name,
                                   span.parent.sid if span.parent else None,
                                   span.group, threading.get_ident(),
                                   span.start, end))
        span.children = None
        return duration

    def add(self, counter: str, amount=1):
        with self._lock:
            self.counters[counter] += amount

    # -- patching ----------------------------------------------------------

    def wrap(self, module, attr: str, name: str, leaf: bool = False,
             group=None, on_call=None):
        """Replace ``module.attr`` by a spanned wrapper.  ``group(tracer,
        args, kwargs)`` names the group of a span opened at the top of a
        thread; ``on_call(tracer, args, kwargs, result, duration)`` records
        counts from a successful call.  A missing attribute raises, so a
        layer that was renamed or moved fails the traced run instead of
        reading 0."""
        original = getattr(module, attr, None)
        if original is None:
            raise AttributeError(
                f"{module.__name__}.{attr} not found: the traced run cannot "
                f"record {name}")
        tracer = self

        @functools.wraps(original)
        def spanned(*args, **kwargs):
            label = group(tracer, args, kwargs) if group is not None else None
            span = tracer._open(name, label, leaf)
            try:
                result = original(*args, **kwargs)
            finally:
                duration = tracer._close(span, leaf)
            if on_call is not None:
                on_call(tracer, args, kwargs, result, duration)
            return result

        setattr(module, attr, spanned)
        self._patches.append((module, attr, original))

    def restore(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    # -- summaries ---------------------------------------------------------

    def summary(self, name: str) -> dict:
        st = self.stats.get(name)
        if st is None or st.calls == 0:
            return {"calls": 0, "busy_s": 0.0, "self_s": 0.0,
                    "p50_s": 0.0, "p99_s": 0.0}
        durations = np.frombuffer(st.durations, dtype=float)
        return {"calls": st.calls, "busy_s": st.busy,
                "self_s": st.self_s,
                "p50_s": float(np.percentile(durations, 50)),
                "p99_s": float(np.percentile(durations, 99))}

    def parallelism(self, name: str) -> float:
        """Busy time of the direct children of ``name`` spans over the wall
        time of those spans."""
        parents = {sid: end - start for sid, n, _, _, _, start, end in self.spans
                   if n == name}
        if not parents:
            return 0.0
        child_busy = sum(end - start for _, _, parent, _, _, start, end
                         in self.spans if parent in parents)
        return child_busy / sum(parents.values())


# ---------------------------------------------------------------------------
# what the traced run wraps
# ---------------------------------------------------------------------------

def _row_index(arr) -> int | None:
    base = getattr(arr, "base", None)
    if base is None or getattr(base, "ndim", 0) != 2:
        return None
    offset = (arr.__array_interface__["data"][0]
              - base.__array_interface__["data"][0])
    return offset // base.strides[0]


def _pair_group(tracer, args, kwargs):
    i, j = _row_index(args[0]), _row_index(args[1])
    return None if i is None or j is None else f"pair-{i}-{j}"


def _replica_group(tracer, args, kwargs):
    replica = args[3] if len(args) > 3 else kwargs.get("replica")
    return f"replica-{replica}"


def _fit_counts(tracer, args, kwargs, result, duration):
    tracer.add("estimate.fit.evals", int(result.iterations))
    tracer.add("estimate.fit.not_converged", int(not result.converged))
    tracer.add("estimate.fit.weight_fallback",
               int("identity-weight-fallback" in result.notes))
    tracer.add("estimate.fit.amp_at_bound",
               int(any(note.endswith("-at-bound") for note in result.notes)))


def _series_terms(tracer, args, kwargs, result, duration):
    tracer.add("kernels.mrm_cross_cov_series.terms", int(result.terms_used))


def _arg(args, kwargs, pos: int, name: str, default):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _field_shape(tracer, args, kwargs, result, duration):
    params = args[0]
    n = _arg(args, kwargs, 1, "n", None)
    delta = _arg(args, kwargs, 2, "delta", 1.0)
    n_paths = _arg(args, kwargs, 4, "n_paths", 1)
    m = int(result[1].embedding_size)
    shape = (params.H.tobytes(), params.xi.tobytes(), params.T, n, delta)
    with tracer._lock:
        counters = tracer.counters
        counters["simulate.embedding_size"] = max(
            counters["simulate.embedding_size"], m)
        counters["simulate.factor_bytes"] = max(
            counters["simulate.factor_bytes"], m * params.d**2 * 8)
        tracer.field_calls.append((duration, int(n_paths), shape))


def _csv_written(tracer, args, kwargs, result, duration):
    tracer.add("simulate.write_panel_csv.bytes", len(result))


def _csv_read(tracer, args, kwargs, result, duration):
    tracer.add("simulate.read_panel_csv.bytes", len(args[0]))


def instrument(tracer: Tracer):
    """Wrap the public functions of each layer where the program and the
    workloads look them up."""
    from mlogsfbm import cli, estimate, kernels, simulate, special

    w = tracer.wrap
    w(kernels, "msfbm_cross_cov", "kernels.msfbm_cross_cov", leaf=True)
    w(kernels, "integrated_cov", "kernels.integrated_cov")
    w(kernels, "mrm_cross_cov_series", "kernels.mrm_cross_cov_series",
      on_call=_series_terms)
    w(kernels, "mrm_cross_cov_sia", "kernels.mrm_cross_cov_sia")
    for module in (special, kernels):
        w(module, "power_exp_integral", "special.power_exp_integral", leaf=True)
    for module in (simulate, estimate, cli):
        w(module, "simulate_field", "simulate.simulate_field",
          on_call=_field_shape)
        w(module, "field_to_measure", "simulate.field_to_measure")
        w(module, "field_to_gaussian_proxy", "simulate.field_to_gaussian_proxy")
    w(cli, "simulate_prices", "simulate.simulate_prices")
    w(cli, "write_panel_csv", "simulate.write_panel_csv", on_call=_csv_written)
    w(cli, "read_panel_csv", "simulate.read_panel_csv", on_call=_csv_read)
    w(estimate, "empirical_cross_cov", "estimate.empirical_cross_cov")
    w(estimate, "calibrate_univariate", "estimate.calibrate_univariate",
      on_call=_fit_counts)
    w(estimate, "calibrate_pair", "estimate.calibrate_pair",
      group=_pair_group, on_call=_fit_counts)
    w(cli, "calibrate_panel", "estimate.calibrate_panel")
    w(estimate, "mc_validate", "estimate.mc_validate")
    w(estimate, "_one_replica", "estimate.replica", group=_replica_group)
    w(cli, "cmd_simulate", "cli.simulate")
    w(cli, "cmd_calibrate", "cli.calibrate")


# (name, unit) of every per-layer metric, in report order
PER_LAYER = (
    ("kernels.msfbm_cross_cov.calls", "count"),
    ("kernels.msfbm_cross_cov.busy_s", "s"),
    ("kernels.msfbm_cross_cov.p50_us", "us"),
    ("kernels.msfbm_cross_cov.p99_us", "us"),
    ("kernels.integrated_cov.busy_s", "s"),
    ("kernels.mrm_cross_cov_series.busy_s", "s"),
    ("kernels.mrm_cross_cov_series.terms", "count"),
    ("kernels.mrm_cross_cov_sia.busy_s", "s"),
    ("special.power_exp_integral.calls", "count"),
    ("special.power_exp_integral.busy_s", "s"),
    ("simulate.simulate_field.cold_s", "s"),
    ("simulate.simulate_field.per_path_s", "s"),
    ("simulate.embedding_size", "count"),
    ("simulate.factor_bytes", "bytes"),
    ("simulate.field_to_measure.busy_s", "s"),
    ("simulate.write_panel_csv.busy_s", "s"),
    ("simulate.write_panel_csv.bytes", "bytes"),
    ("simulate.read_panel_csv.busy_s", "s"),
    ("simulate.read_panel_csv.bytes", "bytes"),
    ("estimate.calibrate_pair.calls", "count"),
    ("estimate.calibrate_pair.busy_s", "s"),
    ("estimate.calibrate_pair.p50_s", "s"),
    ("estimate.calibrate_univariate.calls", "count"),
    ("estimate.calibrate_univariate.busy_s", "s"),
    ("estimate.calibrate_univariate.p50_s", "s"),
    ("estimate.fit.evals", "count"),
    ("estimate.fit.not_converged", "count"),
    ("estimate.fit.weight_fallback", "count"),
    ("estimate.fit.amp_at_bound", "count"),
    ("estimate.calibrate_panel.self_s", "s"),
    ("estimate.calibrate_panel.parallelism", "ratio"),
    ("estimate.mc_validate.self_s", "s"),
    ("estimate.empirical_cross_cov.busy_s", "s"),
    ("cli.simulate.busy_s", "s"),
    ("cli.simulate.self_s", "s"),
    ("cli.calibrate.busy_s", "s"),
    ("cli.calibrate.self_s", "s"),
)


def per_layer_values(tracer: Tracer) -> dict:
    """Every per-layer metric; a function the workload never calls reads 0."""
    values = {}
    for metric, unit in PER_LAYER:
        name, stat = metric.rsplit(".", 1)
        if unit in ("count", "bytes") and stat != "calls":
            values[metric] = tracer.counters.get(metric, 0)
        elif stat == "parallelism":
            values[metric] = tracer.parallelism(name)
        elif stat in ("cold_s", "per_path_s"):
            values[metric] = _field_timing(tracer, stat)
        elif unit == "us":
            values[metric] = tracer.summary(name)[stat.replace("_us", "_s")] * 1e6
        else:
            values[metric] = tracer.summary(name)[stat]
    return values


def _field_timing(tracer: Tracer, stat: str) -> float:
    """cold_s: the first ``simulate_field`` call for each shape (spectral
    factorisation plus its paths); per_path_s: the median per-path time of
    the later, warm calls."""
    seen = set()
    cold = 0.0
    warm = []
    for duration, n_paths, shape in tracer.field_calls:
        if shape in seen:
            warm.append(duration / n_paths)
        else:
            seen.add(shape)
            cold += duration
    if stat == "cold_s":
        return cold
    return float(np.median(warm)) if warm else 0.0
