"""Seeded Monte Carlo failure engine.

Every sample draws its own counter-based RNG stream from
``(master_seed, stream_tag, point, sample)``, so results are byte-identical
no matter how samples are distributed over worker processes. The stream
index packs ``(tag << 56) | (point << 32) | sample``, so a plan may hold
at most 2**24 grid points and 2**32 samples.

The three survival sweeps (one failure type, the link x switch grid, and
per-class ratios on the three-layer fabric) share one driver over a list
of grid points. A point says what each sample removes as ``(selector,
count)`` draws from cached element pools, plus the fields that label its
rows; every (point, chunk) task of one operation runs on a single process
pool.

Critical points (the minimal number of removals that disconnects a server)
are located by bisection over each sample's removal permutation, which is
valid because gateway reachability only degrades as the removal prefix
grows.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import reachability
from .analytic import (
    FailureType,
    MttfQuality,
    OutOfScopeError,
    closed_form_mttf,
    normalized_time_table,
)
from .topology import (
    LAYER_AGGREGATION,
    LAYER_CORE,
    LAYER_EDGE,
    Topology,
    TopologyKind,
    TopologyParams,
    build_topology,
)

__all__ = [
    "ExperimentPlan",
    "MetricSample",
    "ReliabilityResult",
    "ElementClass",
    "UnsupportedPlanError",
    "simulate_nmttf",
    "survival_sweep",
    "survival_sweep_2d",
    "classed_sweep",
    "confidence_interval",
    "resolve_workers",
    "plan_to_doc",
    "plan_from_doc",
]

WORKERS_ENV = "DCN_ROBUST_THREADS"

DEFAULT_NMTTF_SAMPLES = 2000
DEFAULT_SWEEP_SAMPLES = 100

KNOWN_METRICS = ("asr", "sc", "aspl", "rcr_cpu", "rcr_mem")

# Stream tags keep RNG streams of different experiment kinds disjoint.
_TAG_NMTTF = 0
_TAG_SWEEP = 1
_TAG_SWEEP_2D = 2
_TAG_CLASSED = 3


class UnsupportedPlanError(ValueError):
    """The plan asks for a combination the engine does not support."""


class ElementClass(str, Enum):
    """Three-layer element classes for per-class failure ratios."""

    EDGE_SWITCH = "edge-switch"
    AGG_SWITCH = "agg-switch"
    CORE_SWITCH = "core-switch"
    EDGE_LINK = "edge-link"
    AGG_LINK = "agg-link"
    CORE_LINK = "core-link"

    @property
    def is_switch_class(self) -> bool:
        return self.value.endswith("switch")

    @property
    def failure(self) -> FailureType:
        """The failure type of the elements in this class."""
        return FailureType.SWITCH if self.is_switch_class else FailureType.LINK


@dataclass(frozen=True)
class ExperimentPlan:
    """What to simulate: topology, failure type(s), FER grid(s), sampling.

    ``class_ratios`` is set for a three-layer classed sweep only: each
    element class maps to its fixed failure ratio, except the one class
    that maps to None and is swept over the grid. A mapping is accepted
    and stored as (class, ratio) pairs in class-name order.
    """

    params: TopologyParams
    failures: tuple[FailureType, ...]
    fer_grids: tuple[tuple[float, ...], ...] = ()
    samples: int = DEFAULT_SWEEP_SAMPLES
    master_seed: int = 0
    metrics: tuple[str, ...] = ("asr", "sc")
    class_ratios: tuple[tuple[ElementClass, float | None], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "failures", tuple(FailureType(f) for f in self.failures))
        object.__setattr__(
            self, "fer_grids", tuple(tuple(float(x) for x in g) for g in self.fer_grids)
        )
        object.__setattr__(self, "metrics", tuple(self.metrics))
        ratios = (
            (ElementClass(c), None if r is None else float(r))
            for c, r in dict(self.class_ratios).items()
        )
        object.__setattr__(
            self, "class_ratios", tuple(sorted(ratios, key=lambda item: item[0].value))
        )
        if not self.failures:
            raise UnsupportedPlanError("plan needs at least one failure type")
        if len(self.fer_grids) not in (0, len(self.failures)):
            raise UnsupportedPlanError("plan needs one FER grid per failure type")
        for grid in self.fer_grids:
            if list(grid) != sorted(grid):
                raise UnsupportedPlanError("FER grid must be sorted ascending")
            if grid and (grid[0] < 0.0 or grid[-1] > 1.0):
                raise UnsupportedPlanError("FER grid values must lie in [0, 1]")
        if self.samples < 1:
            raise UnsupportedPlanError(f"samples must be >= 1, got {self.samples}")
        if self.samples > 2**32:
            raise UnsupportedPlanError(f"samples must be <= 2**32, got {self.samples}")
        points = math.prod(len(g) for g in self.fer_grids)
        if points > 2**24:
            raise UnsupportedPlanError(f"grid points must be <= 2**24, got {points}")
        if not 0 <= self.master_seed < 2**64:
            raise UnsupportedPlanError("master_seed must fit in 64 bits")
        for metric in self.metrics:
            if metric not in KNOWN_METRICS:
                raise UnsupportedPlanError(
                    f"unknown metric {metric!r}; known: {', '.join(KNOWN_METRICS)}"
                )
        if self.class_ratios:
            self._check_class_ratios()

    def _check_class_ratios(self) -> None:
        if self.params.kind is not TopologyKind.THREE_LAYER:
            raise UnsupportedPlanError("class-based sweeps apply to the three-layer topology only")
        swept = [c for c, ratio in self.class_ratios if ratio is None]
        if len(swept) != 1:
            raise UnsupportedPlanError("exactly one element class must be swept (ratio None)")
        if len({c.failure for c, _ in self.class_ratios}) != 1:
            raise UnsupportedPlanError("cannot mix switch and link classes in one sweep")
        kind = swept[0].failure
        if self.failures != (kind,):
            raise UnsupportedPlanError(f"a {kind.value}-class sweep has failures [{kind.value!r}]")
        for c, ratio in self.class_ratios:
            if ratio is not None and not 0.0 <= ratio <= 1.0:
                raise UnsupportedPlanError(f"{c.value} ratio must lie in [0, 1], got {ratio}")


@dataclass(frozen=True)
class MetricSample:
    """One aggregated measurement at one grid point."""

    topology: str
    params: str
    failure_type: str
    metric: str
    mean: float | None
    ci95_half_width: float | None
    samples: int
    fer_link: float | None = None
    fer_switch: float | None = None
    fer_server: float | None = None
    normalized_time: float | None = None
    extra: dict = field(default_factory=dict)


@dataclass(frozen=True)
class ReliabilityResult:
    """Simulated reliable-phase outcome plus the analytic reference."""

    params: TopologyParams
    failure: FailureType
    universe: int  # element count F of the failure type
    nmttf_sim: float
    ci95_half_width: float | None
    critical_fer: float
    critical_points: np.ndarray
    samples: int
    nmttf_theoretical: float | None
    theoretical_quality: MttfQuality | None
    relative_error: float | None
    note: str | None = None


def confidence_interval(values) -> tuple[float | None, float | None]:
    """Normal-approximation 95% interval: (mean, 1.96 * s / sqrt(N)).

    The half-width is None below two samples (and the mean too with zero).
    """
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        return None, None
    if np.all(arr == arr[0]):  # keeps degenerate estimates exact
        return float(arr[0]), (0.0 if arr.size >= 2 else None)
    mean = float(arr.mean())
    if arr.size < 2:
        return mean, None
    half = 1.96 * float(arr.std(ddof=1)) / math.sqrt(arr.size)
    return mean, half


def resolve_workers(requested: int | None = None) -> int:
    """Worker-process count: explicit argument, else the DCN_ROBUST_THREADS
    environment variable, else (or when 0) the machine's CPU count."""
    if requested is None:
        raw = os.environ.get(WORKERS_ENV, "0")
        try:
            requested = int(raw)
        except ValueError:
            raise UnsupportedPlanError(f"{WORKERS_ENV} must be an integer, got {raw!r}")
    if requested < 0:
        raise UnsupportedPlanError("worker count must be >= 0")
    if requested == 0:
        return os.cpu_count() or 1
    return requested


def sample_rng(master_seed: int, tag: int, point: int, sample: int) -> np.random.Generator:
    """Counter-based per-sample generator; order-independent by design."""
    stream = (tag << 56) | (point << 32) | sample
    return np.random.Generator(np.random.Philox(key=[master_seed, stream]))


def removal_count(fer: float, total: int) -> int:
    """floor(fer * total), guarding against binary round-off on exact grids."""
    return int(math.floor(fer * total + 1e-9))


# --- element pools and masks -------------------------------------------------

# Node-kind tags each element class draws from: one tag for a switch class,
# the two endpoint tags for a link class.
_CLASS_LAYERS = {
    ElementClass.EDGE_SWITCH: (LAYER_EDGE,),
    ElementClass.AGG_SWITCH: (LAYER_AGGREGATION,),
    ElementClass.CORE_SWITCH: (LAYER_CORE,),
    ElementClass.EDGE_LINK: ("server", LAYER_EDGE),
    ElementClass.AGG_LINK: (LAYER_EDGE, LAYER_AGGREGATION),
    ElementClass.CORE_LINK: (LAYER_AGGREGATION, LAYER_CORE),
}

_POOL_CACHE: dict[tuple[TopologyParams, FailureType | ElementClass], tuple[np.ndarray, bool]] = {}


def _element_pool(
    topo: Topology, selector: FailureType | ElementClass
) -> tuple[np.ndarray, bool]:
    """(ids, on_nodes): the elements *selector* removes from, as node ids
    (switches, servers) or edge indices (links), in ascending order.

    Aggregation-pair and core-core interconnect links belong to no element
    class and are never candidates for class-based removal.
    """
    key = (topo.params, selector)
    cached = _POOL_CACHE.get(key)
    if cached is not None:
        return cached
    if selector is FailureType.LINK:
        pool = np.arange(topo.n_links), False
    elif selector is FailureType.SWITCH:
        pool = np.arange(topo.n_servers, topo.n_nodes), True
    elif selector is FailureType.SERVER:
        pool = np.arange(topo.n_servers), True
    else:
        kinds = np.array(["server"] * topo.n_servers + list(topo.switch_layers))
        tags = _CLASS_LAYERS[selector]
        if selector.is_switch_class:
            pool = np.flatnonzero(kinds == tags[0]), True
        else:
            a, b = kinds[topo.edges_u], kinds[topo.edges_v]
            lo, hi = tags
            pool = np.flatnonzero(((a == lo) & (b == hi)) | ((a == hi) & (b == lo))), False
    _POOL_CACHE[key] = pool
    return pool


def _alive_after(topo: Topology, removals) -> tuple[np.ndarray, np.ndarray]:
    """(node_alive, edge_alive) after removing each ``(ids, on_nodes)`` set.

    A removed node takes its incident links down with it.
    """
    node_alive = np.ones(topo.n_nodes, dtype=bool)
    edge_alive = np.ones(topo.n_links, dtype=bool)
    nodes_removed = False
    for ids, on_nodes in removals:
        if on_nodes:
            node_alive[ids] = False
            nodes_removed = True
        else:
            edge_alive[ids] = False
    if nodes_removed:  # skips two gathers per link-only bisection probe
        edge_alive &= node_alive[topo.edges_u] & node_alive[topo.edges_v]
    return node_alive, edge_alive


def _apply_removals(
    topo: Topology, pools, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Masks of one sweep sample: each ``(ids, on_nodes, count)`` pool loses
    *count* uniformly random elements, drawn in order from *rng*."""
    return _alive_after(
        topo,
        [(ids[rng.permutation(len(ids))[:count]], on_nodes) for ids, on_nodes, count in pools],
    )


def _critical_point(topo: Topology, failure: FailureType, perm: np.ndarray) -> int:
    """Minimal removal-prefix length of *perm* (indices into the failure
    type's element pool) that disconnects a server.

    Reachability is monotone along the prefix, so bisection over the prefix
    length finds the same point as checking after every single removal.
    """
    ids, on_nodes = _element_pool(topo, failure)
    order = ids[perm]
    lo, hi = 0, len(order)  # invariants: connected at lo, disconnected at hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        node_alive, edge_alive = _alive_after(topo, [(order[:mid], on_nodes)])
        if reachability._all_servers_reach_gateway(topo, node_alive, edge_alive):
            lo = mid
        else:
            hi = mid
    return hi


# --- worker-side execution ---------------------------------------------------

_TOPO_CACHE: dict[TopologyParams, Topology] = {}


def _cached_topology(params: TopologyParams) -> Topology:
    topo = _TOPO_CACHE.get(params)
    if topo is None:
        topo = build_topology(params)
        _TOPO_CACHE[params] = topo
    return topo


def _nmttf_chunk(
    params: TopologyParams,
    failure: FailureType,
    master_seed: int,
    start: int,
    stop: int,
) -> np.ndarray:
    topo = _cached_topology(params)
    big_f = len(_element_pool(topo, failure)[0])
    out = np.empty(stop - start, dtype=np.int64)
    for k in range(start, stop):
        rng = sample_rng(master_seed, _TAG_NMTTF, 0, k)
        perm = rng.permutation(big_f)
        out[k - start] = _critical_point(topo, failure, perm)
    return out


def _metric_chunk(
    params: TopologyParams,
    draws: tuple,
    metrics: tuple[str, ...],
    capacities: tuple[np.ndarray, np.ndarray] | None,
    master_seed: int,
    tag: int,
    point: int,
    start: int,
    stop: int,
) -> dict[str, np.ndarray]:
    """Evaluate the requested metrics over one range of sample indices.

    *draws* is a tuple of ``(selector, count)`` pairs: each sample removes
    *count* uniformly random elements of each selector's pool, drawn in
    order from the sample's own stream.
    """
    topo = _cached_topology(params)
    pools = [(*_element_pool(topo, selector), count) for selector, count in draws]
    n = stop - start
    out: dict[str, np.ndarray] = {m: np.full(n, np.nan) for m in metrics}
    if "aspl" in metrics:
        out["aspl_pairs"] = np.zeros(n)
        out["aspl_exact"] = np.ones(n)
    cpu = mem = None
    if capacities is not None:
        cpu, mem = capacities

    for k in range(start, stop):
        rng = sample_rng(master_seed, tag, point, k)
        node_alive, edge_alive = _apply_removals(topo, pools, rng)
        row = reachability.evaluate(
            topo,
            node_alive,
            edge_alive,
            metrics,
            cpu=cpu,
            mem=mem,
            aspl_rng=rng,
        )
        i = k - start
        for m in metrics:
            value = getattr(row, m)
            if m == "aspl":
                if value is not None and value.hops is not None:
                    out[m][i] = value.hops
                    out["aspl_pairs"][i] = value.pairs
                    out["aspl_exact"][i] = 1.0 if value.exact else 0.0
            elif value is not None:
                out[m][i] = value
    return out


# --- parallel map ------------------------------------------------------------


def _chunks(samples: int, workers: int) -> list[tuple[int, int]]:
    size = max(1, math.ceil(samples / (workers * 4)))
    return [(s, min(s + size, samples)) for s in range(0, samples, size)]


def _run_chunked(fn, tasks: list[tuple], workers: int) -> list:
    """``[fn(*task) for task in tasks]``, on one process pool when
    *workers* (already resolved) exceeds one."""
    if workers == 1 or len(tasks) == 1:
        return [fn(*task) for task in tasks]
    with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
        futures = [pool.submit(fn, *task) for task in tasks]
        return [f.result() for f in futures]


# --- public operations ---------------------------------------------------------


def simulate_nmttf(plan: ExperimentPlan, workers: int | None = None) -> ReliabilityResult:
    """Estimate the normalized mean time to the first server disconnection.

    Each sample removes uniformly random elements of the plan's failure
    type until some server loses every gateway path, then converts the
    critical point to normalized time. The analytic closed form (when in
    scope) is attached along with its relative error.
    """
    if len(plan.failures) != 1:
        raise UnsupportedPlanError("reliability simulation takes exactly one failure type")
    failure = plan.failures[0]
    if plan.class_ratios:
        raise UnsupportedPlanError("class ratios apply to classed sweeps only, not to MTTF")
    if failure is FailureType.SERVER:
        raise UnsupportedPlanError(
            "server failures end the reliable phase at the first removal; nothing to simulate"
        )
    topo = _cached_topology(plan.params)
    big_f = len(_element_pool(topo, failure)[0])

    workers = resolve_workers(workers)
    tasks = [
        (plan.params, failure, plan.master_seed, start, stop)
        for start, stop in _chunks(plan.samples, workers)
    ]
    critical = np.concatenate(_run_chunked(_nmttf_chunk, tasks, workers))
    table = normalized_time_table(big_f)
    per_sample_nt = table[critical]
    mean, half = confidence_interval(per_sample_nt)

    theo = quality = rel = None
    note = None
    try:
        estimate = closed_form_mttf(plan.params, failure, 1.0)
        theo, quality = estimate.value, estimate.quality
        rel = abs(mean - theo) / mean
    except OutOfScopeError as exc:
        note = str(exc)

    return ReliabilityResult(
        params=plan.params,
        failure=failure,
        universe=big_f,
        nmttf_sim=mean,
        ci95_half_width=half,
        critical_fer=float(critical.mean()) / big_f,
        critical_points=critical,
        samples=plan.samples,
        nmttf_theoretical=theo,
        theoretical_quality=quality,
        relative_error=rel,
        note=note,
    )


def _aggregate_point(
    parts: list[dict[str, np.ndarray]],
    metrics: tuple[str, ...],
    base: dict,
) -> list[MetricSample]:
    rows = []
    merged = {
        key: np.concatenate([p[key] for p in parts]) for key in parts[0]
    }
    for metric in metrics:
        values = merged[metric]
        defined = values[~np.isnan(values)]
        mean, half = confidence_interval(defined)
        extra = {}
        if metric == "aspl" and defined.size:
            mask = ~np.isnan(values)
            extra["pairs_mean"] = float(merged["aspl_pairs"][mask].mean())
            extra["exact"] = bool(merged["aspl_exact"][mask].all())
        rows.append(
            MetricSample(
                metric=metric,
                mean=mean,
                ci95_half_width=half,
                samples=int(defined.size),
                extra=extra,
                **base,
            )
        )
    return rows


def _sweep(
    plan: ExperimentPlan,
    tag: int,
    points: list[tuple[tuple, dict]],
    workers: int | None,
    capacity_assignment,
) -> list[MetricSample]:
    """Evaluate the plan's metrics at every grid point, on one pool.

    Each point is ``(draws, row_fields)``: the ``(selector, count)`` draws of
    :func:`_metric_chunk` and the fields that label the point's rows. A
    point's RNG stream index is its position in *points*.
    """
    capacities = _plan_capacities(plan, capacity_assignment)
    workers = resolve_workers(workers)
    spans = _chunks(plan.samples, workers)
    tasks = [
        (plan.params, draws, plan.metrics, capacities, plan.master_seed, tag, point, start, stop)
        for point, (draws, _) in enumerate(points)
        for start, stop in spans
    ]
    parts = _run_chunked(_metric_chunk, tasks, workers)
    rows: list[MetricSample] = []
    for point, (_, fields) in enumerate(points):
        base = {
            "topology": plan.params.kind.value,
            "params": plan.params.args_text(),
            **fields,
        }
        point_parts = parts[point * len(spans) : (point + 1) * len(spans)]
        rows.extend(_aggregate_point(point_parts, plan.metrics, base))
    return rows


def survival_sweep(
    plan: ExperimentPlan,
    workers: int | None = None,
    capacity_assignment=None,
) -> list[MetricSample]:
    """Sweep one failure type over the plan's FER grid.

    Per grid value, each sample removes floor(fer*F) uniformly random
    elements and reports the requested metrics with mean and 95% CI.
    A capacity assignment is required when rcr metrics are requested.
    """
    if len(plan.failures) != 1 or len(plan.fer_grids) != 1 or plan.class_ratios:
        raise UnsupportedPlanError("1-D sweep takes one failure type, one grid, no class ratios")
    failure = plan.failures[0]
    big_f = len(_element_pool(_cached_topology(plan.params), failure)[0])
    table = normalized_time_table(big_f)
    points = []
    for fer in plan.fer_grids[0]:
        f = removal_count(fer, big_f)
        fields = {
            "failure_type": failure.value,
            f"fer_{failure.value}": fer,
            "normalized_time": float(table[f]),
        }
        points.append((((failure, f),), fields))
    return _sweep(plan, _TAG_SWEEP, points, workers, capacity_assignment)


def survival_sweep_2d(
    plan: ExperimentPlan,
    workers: int | None = None,
    capacity_assignment=None,
) -> list[MetricSample]:
    """Sweep link and switch failures jointly over a grid product.

    Link and switch removals are drawn independently from their full
    element populations; a link that is both failed and attached to a
    failed switch counts once.
    """
    if len(plan.failures) != 2 or len(plan.fer_grids) != 2:
        raise UnsupportedPlanError("2-D sweep takes two failure types with one grid each")
    if set(plan.failures) != {FailureType.LINK, FailureType.SWITCH}:
        raise UnsupportedPlanError("2-D sweep supports the link x switch combination")
    topo = _cached_topology(plan.params)
    grids = dict(zip(plan.failures, plan.fer_grids))
    points = [
        (
            (
                (FailureType.LINK, removal_count(fer_link, topo.n_links)),
                (FailureType.SWITCH, removal_count(fer_switch, topo.n_switches)),
            ),
            {"failure_type": "link+switch", "fer_link": fer_link, "fer_switch": fer_switch},
        )
        for fer_link in grids[FailureType.LINK]
        for fer_switch in grids[FailureType.SWITCH]
    ]
    return _sweep(plan, _TAG_SWEEP_2D, points, workers, capacity_assignment)


def classed_sweep(
    plan: ExperimentPlan,
    workers: int | None = None,
    capacity_assignment=None,
) -> list[MetricSample]:
    """Three-layer sweep with the plan's per-class failure ratios.

    The one class whose ratio is None is swept over the plan's grid; the
    others stay at their fixed ratios (see ``ExperimentPlan.class_ratios``).
    """
    if not plan.class_ratios or len(plan.fer_grids) != 1:
        raise UnsupportedPlanError("classed sweep takes class ratios and exactly one grid")
    topo = _cached_topology(plan.params)

    def size(element_class: ElementClass) -> int:
        return len(_element_pool(topo, element_class)[0])

    fixed = tuple(
        (c, removal_count(ratio, size(c))) for c, ratio in plan.class_ratios if ratio is not None
    )
    swept = next(c for c, ratio in plan.class_ratios if ratio is None)
    points = [
        (
            fixed + ((swept, removal_count(fer, size(swept))),),
            {"failure_type": swept.value, f"fer_{swept.failure.value}": fer},
        )
        for fer in plan.fer_grids[0]
    ]
    return _sweep(plan, _TAG_CLASSED, points, workers, capacity_assignment)


def _plan_capacities(
    plan: ExperimentPlan, assignment
) -> tuple[np.ndarray, np.ndarray] | None:
    if not any(m.startswith("rcr") for m in plan.metrics):
        return None
    if assignment is None:
        raise UnsupportedPlanError("rcr metrics require a capacity assignment")
    return (
        np.asarray(assignment.capacity_vector("cpu"), dtype=float),
        np.asarray(assignment.capacity_vector("memory"), dtype=float),
    )


def plan_to_doc(plan: ExperimentPlan) -> dict:
    """JSON-ready plan document (same format family as topology documents)."""
    from .topology import params_to_doc

    doc = {
        "params": params_to_doc(plan.params),
        "failures": [f.value for f in plan.failures],
        "fer_grids": [list(g) for g in plan.fer_grids],
        "samples": plan.samples,
        "master_seed": plan.master_seed,
        "metrics": list(plan.metrics),
    }
    if plan.class_ratios:
        doc["class_ratios"] = {c.value: ratio for c, ratio in plan.class_ratios}
    return doc


def plan_from_doc(doc: dict) -> ExperimentPlan:
    from .topology import params_from_doc

    try:
        return ExperimentPlan(
            params=params_from_doc(doc["params"]),
            failures=tuple(FailureType(f) for f in doc["failures"]),
            fer_grids=tuple(tuple(g) for g in doc.get("fer_grids", ())),
            samples=int(doc.get("samples", DEFAULT_SWEEP_SAMPLES)),
            master_seed=int(doc.get("master_seed", 0)),
            metrics=tuple(doc.get("metrics", ("asr", "sc"))),
            class_ratios=doc.get("class_ratios", ()),
        )
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, UnsupportedPlanError):
            raise
        raise UnsupportedPlanError(f"bad plan document: {exc}") from exc
