"""Per-layer tracing of dcn_robust, done entirely from outside the package.

``install`` replaces module-level functions of ``dcn_robust`` that their
call sites look up at call time (``cli.simulate_nmttf``,
``reachability.evaluate``, ``simulation._critical_point`` ...) with
wrappers that record a span per call: name, layer, start, end and the
span that was open when it started. Spans stay in memory. Pool workers are
forked from the traced process, so they inherit the wrappers; each chunk
they run returns its spans to the parent along with its result, and the
parent files them under the ``_run_chunked`` span that submitted it.

``layer_metrics`` turns the spans of one pass into the per-layer metrics.
A span's self time is its duration minus the part of it that its child
spans cover.
"""

from __future__ import annotations

import functools
import os
import statistics
import time
from concurrent.futures import ProcessPoolExecutor

# Per-layer metrics of a traced pass, with their units.
PER_LAYER_UNITS = {
    "topology.build_ms": "ms",
    "topology.builds": "count",
    "topology.self_ms": "ms",
    "simulation.rng_us_per_sample": "us",
    "simulation.masks_us_per_sample": "us",
    "simulation.critical_point_ms_per_sample": "ms",
    "simulation.probes_per_sample": "count",
    "simulation.pools": "count",
    "simulation.pool_ms": "ms",
    "simulation.worker_busy_frac": "ratio",
    "simulation.chunk_ms_p50": "ms",
    "simulation.chunk_ms_max": "ms",
    "simulation.aggregate_ms": "ms",
    "simulation.self_ms": "ms",
    "reachability.partition_calls": "count",
    "reachability.partition_ms_per_call": "ms",
    "reachability.evaluate_self_ms_per_sample": "ms",
    "reachability.aspl_exact_ms_per_sample": "ms",
    "reachability.aspl_sampled_ms_per_sample": "ms",
    "reachability.bfs_sources": "count",
    "reachability.bfs_ms_per_source": "ms",
    "reachability.aspl_dist_mb": "MiB-computed",
    "reachability.self_ms": "ms",
    "analytic.closed_form_ms": "ms",
    "analytic.self_ms": "ms",
    "capacity.assign_ms": "ms",
    "capacity.self_ms": "ms",
    "report.emit_ms": "ms",
    "report.bytes": "bytes",
    "report.self_ms": "ms",
    "cli.self_ms": "ms",
    "trace.overhead_frac": "ratio",
    "trace.uncovered_frac": "ratio",
}

LAYERS = ("topology", "simulation", "reachability", "analytic", "capacity", "report", "cli")

# (module, attribute, span name, layer). Functions the CLI imported by name
# are wrapped in the module that calls them, because that is where the
# lookup happens.
_WRAPPED = (
    ("cli", "main", "cli.main", "cli"),
    ("cli", "build_topology", "topology.build", "topology"),
    ("simulation", "build_topology", "topology.build", "topology"),
    ("cli", "simulate_nmttf", "simulation.simulate_nmttf", "simulation"),
    ("cli", "survival_sweep", "simulation.survival_sweep", "simulation"),
    ("cli", "survival_sweep_2d", "simulation.survival_sweep_2d", "simulation"),
    ("cli", "classed_sweep", "simulation.classed_sweep", "simulation"),
    ("simulation", "sample_rng", "simulation.sample_rng", "simulation"),
    ("simulation", "_alive_after", "simulation._alive_after", "simulation"),
    ("simulation", "_apply_removals", "simulation._apply_removals", "simulation"),
    ("simulation", "_critical_point", "simulation._critical_point", "simulation"),
    ("simulation", "_aggregate_point", "simulation._aggregate_point", "simulation"),
    ("simulation", "closed_form_mttf", "analytic.closed_form_mttf", "analytic"),
    ("simulation", "normalized_time_table", "analytic.normalized_time_table", "analytic"),
    ("reachability", "evaluate", "reachability.evaluate", "reachability"),
    ("reachability", "_all_servers_reach_gateway", "reachability.probe", "reachability"),
    ("reachability", "_partition_arrays", "reachability.partition", "reachability"),
    ("reachability", "_aspl_exact", "reachability.aspl_exact", "reachability"),
    ("reachability", "_aspl_sampled", "reachability.aspl_sampled", "reachability"),
    ("reachability", "_bfs_distances", "reachability.bfs", "reachability"),
    ("cli", "builtin_dataset", "capacity.builtin_dataset", "capacity"),
    ("cli", "assign_capacities", "capacity.assign", "capacity"),
    ("cli", "_emit", "report.emit", "report"),
    ("cli", "reliability_rows", "report.reliability_rows", "report"),
    ("cli", "to_csv_text", "report.to_csv_text", "report"),
    ("cli", "to_json_text", "report.to_json_text", "report"),
)

_REPORT_TEXT = {"report.to_csv_text", "report.to_json_text"}
_MASKS = {"simulation._alive_after", "simulation._apply_removals"}


class Span:
    __slots__ = ("sid", "parent", "name", "layer", "t0", "t1", "pid", "count", "nbytes")

    def __init__(self, sid, parent, name, layer, t0, t1, pid, count=0, nbytes=0):
        self.sid = sid
        self.parent = parent
        self.name = name
        self.layer = layer
        self.t0 = t0
        self.t1 = t1
        self.pid = pid
        self.count = count  # BFS sources of a reachability.bfs span
        self.nbytes = nbytes  # text emitted, or the BFS distance matrix size


class Tracer:
    """Span buffer of one process, with the stack of currently open spans."""

    def __init__(self) -> None:
        self.main_pid = os.getpid()
        self.spans: list[Span] = []
        self.stack: list[tuple[int, int]] = []
        self.pools: list[tuple[int, int]] = []  # (max_workers, lifetime ns)
        self._next = 0

    def new_id(self) -> tuple[int, int]:
        self._next += 1
        return (os.getpid(), self._next)

    def add(self, name, layer, t0, t1, sid=None, count=0, nbytes=0) -> None:
        parent = self.stack[-1] if self.stack else None
        self.spans.append(
            Span(sid or self.new_id(), parent, name, layer, t0, t1, os.getpid(), count, nbytes)
        )

    def call(self, name: str, layer: str, fn, args, kwargs):
        sid = self.new_id()
        self.stack.append(sid)
        t0 = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter_ns()
            self.stack.pop()
        count = nbytes = 0
        if name in _REPORT_TEXT and isinstance(result, str):
            nbytes = len(result.encode("utf-8"))
        elif name == "reachability.bfs" and len(getattr(result, "shape", ())) == 2:
            # One row of float64 distances per source.
            count = result.shape[0]
            nbytes = count * result.shape[1] * 8
        self.add(name, layer, t0, t1, sid, count, nbytes)
        return result


# The tracer of this process. Pool workers reach it through fork.
_ACTIVE: Tracer | None = None


def _wrap(tracer: Tracer, module, attr: str, name: str, layer: str) -> None:
    original = getattr(module, attr)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        return tracer.call(name, layer, original, args, kwargs)

    setattr(module, attr, wrapper)


def _chunk_entry(fn_name: str, *args, **kwargs):
    """Run one chunk under a fresh span buffer and hand the spans back.

    In a pool worker the buffer inherited through fork holds the parent's
    spans; they are set aside so that only this chunk's spans travel back.
    """
    from dcn_robust import simulation

    tracer = _ACTIVE
    saved = tracer.spans, tracer.stack
    tracer.spans, tracer.stack = [], []
    try:
        chunk = getattr(simulation, fn_name)
        value = tracer.call("simulation.chunk", "simulation", chunk, args, kwargs)
        return value, tracer.spans
    finally:
        tracer.spans, tracer.stack = saved


def _traced_run_chunked(tracer: Tracer, original):
    def run(fn, *args, **kwargs):
        entry = functools.partial(_chunk_entry, fn.__name__)
        parts = original(entry, *args, **kwargs)
        parent = tracer.stack[-1]
        values = []
        for value, spans in parts:
            for span in spans:
                if span.parent is None:
                    span.parent = parent
            tracer.spans.extend(spans)
            values.append(value)
        return values

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        return tracer.call("simulation.run_chunked", "simulation", run, args, kwargs)

    return wrapper


def _traced_pool(tracer: Tracer):
    class TracedPool(ProcessPoolExecutor):
        """Times pool start (construction to first submit) and shutdown."""

        def __init__(self, *args, **kwargs):
            self._bench_t0 = time.perf_counter_ns()
            self._bench_started = False
            super().__init__(*args, **kwargs)

        def submit(self, fn, /, *args, **kwargs):
            future = super().submit(fn, *args, **kwargs)
            if not self._bench_started:
                self._bench_started = True
                tracer.add(
                    "simulation.pool_start", "simulation", self._bench_t0, time.perf_counter_ns()
                )
            return future

        def shutdown(self, wait=True, *, cancel_futures=False):
            t0 = time.perf_counter_ns()
            super().shutdown(wait=wait, cancel_futures=cancel_futures)
            t1 = time.perf_counter_ns()
            tracer.add("simulation.pool_shutdown", "simulation", t0, t1)
            tracer.pools.append((self._max_workers, t1 - self._bench_t0))

    return TracedPool


def install(tracer: Tracer) -> None:
    """Wrap dcn_robust's layer boundaries so that calls record spans.

    A name the package no longer has is skipped, so the metrics built on
    it read 0, as for a layer that does not run.
    """
    global _ACTIVE
    from dcn_robust import cli, reachability, simulation

    _ACTIVE = tracer
    modules = {"cli": cli, "simulation": simulation, "reachability": reachability}
    for module_name, attr, name, layer in _WRAPPED:
        if hasattr(modules[module_name], attr):
            _wrap(tracer, modules[module_name], attr, name, layer)
    if hasattr(simulation, "_run_chunked"):
        simulation._run_chunked = _traced_run_chunked(tracer, simulation._run_chunked)
    if hasattr(simulation, "ProcessPoolExecutor"):
        simulation.ProcessPoolExecutor = _traced_pool(tracer)


# --- turning spans into metrics ---------------------------------------------


def _covered(intervals) -> int:
    """Total length of the union of [t0, t1) intervals."""
    total = 0
    end = None
    for t0, t1 in sorted(intervals):
        if end is None or t0 > end:
            total += t1 - t0
            end = t1
        elif t1 > end:
            total += t1 - end
            end = t1
    return total


def self_times(spans: list[Span]) -> dict:
    """Self time (ns) per span id: duration minus the part children cover."""
    children: dict = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out = {}
    for span in spans:
        kids = [
            (max(k.t0, span.t0), min(k.t1, span.t1))
            for k in children.get(span.sid, ())
            if k.t1 > span.t0 and k.t0 < span.t1
        ]
        out[span.sid] = span.t1 - span.t0 - _covered(kids)
    return out


def layer_metrics(tracer: Tracer, launch_ns: int, end_ns: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass, except ``trace.overhead_frac``,
    which needs the untraced passes and is filled in by the harness.

    ``launch_ns`` is when the pass's process was launched and ``end_ns``
    when its last report was written; the share of that interval that no
    top-level span of the pass's own process covers is
    ``trace.uncovered_frac``.
    """
    spans = tracer.spans
    own = self_times(spans)
    by_name: dict[str, list[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def total_ms(name: str) -> float:
        return sum(s.t1 - s.t0 for s in by_name.get(name, ())) / 1e6

    def count(name: str) -> int:
        return len(by_name.get(name, ()))

    def per(value: float, n: float) -> float:
        return value / n if n else 0.0

    parent_name = {s.sid: s.name for s in spans}
    masks_ns = sum(
        s.t1 - s.t0
        for s in spans
        if s.name in _MASKS and parent_name.get(s.parent) not in _MASKS
    )
    chunks = by_name.get("simulation.chunk", [])
    chunk_ms = [(s.t1 - s.t0) / 1e6 for s in chunks]
    worker_chunk_ns = sum(s.t1 - s.t0 for s in chunks if s.pid != tracer.main_pid)
    samples = count("simulation.sample_rng")
    critical = count("simulation._critical_point")
    bfs = by_name.get("reachability.bfs", [])
    sources = sum(s.count for s in bfs)
    evaluate = by_name.get("reachability.evaluate", [])
    top = [(s.t0, s.t1) for s in spans if s.parent is None and s.pid == tracer.main_pid]

    m = {
        "topology.build_ms": total_ms("topology.build"),
        "topology.builds": count("topology.build"),
        "simulation.rng_us_per_sample": per(total_ms("simulation.sample_rng") * 1e3, samples),
        "simulation.masks_us_per_sample": per(masks_ns / 1e3, samples),
        "simulation.critical_point_ms_per_sample": per(
            total_ms("simulation._critical_point"), critical
        ),
        "simulation.probes_per_sample": per(count("reachability.probe"), critical),
        "simulation.pools": len(tracer.pools),
        "simulation.pool_ms": total_ms("simulation.pool_start")
        + total_ms("simulation.pool_shutdown"),
        "simulation.worker_busy_frac": per(
            worker_chunk_ns, sum(workers * life for workers, life in tracer.pools)
        ),
        "simulation.chunk_ms_p50": statistics.median(chunk_ms) if chunk_ms else 0.0,
        "simulation.chunk_ms_max": max(chunk_ms, default=0.0),
        "simulation.aggregate_ms": total_ms("simulation._aggregate_point"),
        "reachability.partition_calls": count("reachability.partition"),
        "reachability.partition_ms_per_call": per(
            total_ms("reachability.partition"), count("reachability.partition")
        ),
        "reachability.evaluate_self_ms_per_sample": per(
            sum(own[s.sid] for s in evaluate) / 1e6, len(evaluate)
        ),
        "reachability.aspl_exact_ms_per_sample": per(
            total_ms("reachability.aspl_exact"), count("reachability.aspl_exact")
        ),
        "reachability.aspl_sampled_ms_per_sample": per(
            total_ms("reachability.aspl_sampled"), count("reachability.aspl_sampled")
        ),
        "reachability.bfs_sources": sources,
        "reachability.bfs_ms_per_source": per(total_ms("reachability.bfs"), sources),
        "reachability.aspl_dist_mb": max((s.nbytes for s in bfs), default=0) / 2**20,
        "analytic.closed_form_ms": total_ms("analytic.closed_form_mttf"),
        "capacity.assign_ms": total_ms("capacity.assign"),
        "report.emit_ms": total_ms("report.emit"),
        "report.bytes": sum(s.nbytes for s in spans if s.name in _REPORT_TEXT),
        "trace.uncovered_frac": 1.0 - _covered(top) / (end_ns - launch_ns),
    }
    for layer in LAYERS:
        m[f"{layer}.self_ms"] = sum(own[s.sid] for s in spans if s.layer == layer) / 1e6
    return m
