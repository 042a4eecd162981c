"""Seeded Monte Carlo failure engine.

Every sample draws its own counter-based RNG stream from
``(master_seed, stream_tag, point, sample)``, so results are byte-identical
no matter how samples are distributed over worker processes. The stream
index packs ``(tag << 56) | (point << 32) | sample``, so a plan may hold
at most 2**24 grid points and 2**32 samples. A Philox stream is a function
of its key alone (Salmon et al., "Parallel random numbers: as easy as 1,
2, 3", SC 2011), so each chunk re-keys one generator per sample rather
than building a new one.

MTTF and the three survival sweeps (one failure type, the link x switch
grid, and per-class ratios on the three-layer fabric) share one driver,
``_run_samples``, over a list of grid points, each with its own
per-sample function: ``_critical_sample`` draws a removal order and
returns its critical point, ``_metric_sample`` removes a sweep point's
``(selector, count)`` draws from element pools and returns the
``reachability.SurvivalMetrics`` record. The (point, chunk) tasks of one
operation share at most one process pool; each runs ``_chunk``, which
returns its samples' results in sample order, and the parent turns a
sweep point's records into one row per metric. An operation too small to
spread over two workers runs inline, and ``ProcessPoolExecutor`` (with
multiprocessing under it) is imported on the first operation that forks,
not with this module.

``_cached_topology``, an ``lru_cache`` of the topologies of the last eight
params asked for, is the one store that lasts for the whole process. What
is derived from a topology (pools, the CSR pattern, each cluster graph and
its probe view) is cached on it by ``topology.derived``, and each
operation builds the costly parts before it starts a pool, so forked
workers inherit them.

Critical points (the minimal number of removals that disconnects a server)
start from a cut bound. Each element's removal time is its position in the
sample's permutation. Servers joined by links the failure type never
removes form a cluster, and a cluster whose boundary links are all removed
is stranded, so one past the earliest time some cluster loses its last
boundary link bounds the critical point from above; these are the minimal
cuts of the first-order model behind ``analytic.min_cut_catalog`` (Burtin
and Pittel, Theory Probab. Appl. 17, 1972). Two probes certify it: every
server reaches a gateway one removal before it, and some server is
stranded at it. When the first probe refutes the bound, a larger cut
stranded a server first, and the widest paths to the root give the answer,
which the same probes certify. The last removal count at which a server
still reaches a gateway is the largest, over its paths to the root, of the
smallest removal time on the path: the fixpoint of ``b[v] = max over edges
(u, v) of min(b[u], t_uv)`` with ``b[root] = F``, which Bellman-Ford rounds
over the (max, min) semiring reach (M. Pollack, "The maximum capacity
through a network", Oper. Res. 8, 1960; T. C. Hu, "The maximum capacity
route problem", Oper. Res. 9, 1961). The bound, the rounds and the probes
read one removal time per slot of one graph with each cluster one node:
``reachability._pattern`` itself unless a never-removed link joins servers.
"""

from __future__ import annotations

import functools
import math
import numbers
import os
import sys
from collections.abc import Sequence
from dataclasses import dataclass, field
from enum import Enum

import numpy as np
# numpy loads numpy.random on first use. Loading it with this module lets
# the pool workers forked for each operation inherit it, where each would
# otherwise load it again (about 14 ms a worker).
import numpy.random  # noqa: F401

from . import reachability
from .analytic import (
    FailureType,
    MttfQuality,
    OutOfScopeError,
    closed_form_mttf,
    normalized_time_table,
)
# Called through this module's globals, so a wrapper set on
# simulation._alive_after sees every sweep sample.
from .reachability import _alive_after
from .topology import (
    LAYER_AGGREGATION,
    LAYER_CORE,
    LAYER_EDGE,
    Topology,
    TopologyKind,
    TopologyParams,
    _as_int,
    _json,
    build_topology,
    derived,
    params_from_doc,
    params_to_doc,
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


def _is_list(value) -> bool:
    """A sequence or NumPy array, but no string (read a character at a time)."""
    return isinstance(value, (Sequence, np.ndarray)) and not isinstance(value, str)


def _is_number(value) -> bool:
    """A real number other than bool, which ``float()`` would make 0 or 1."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _expect(ok: bool, rule: str, value) -> None:
    if not ok:
        raise UnsupportedPlanError(f"plan: {rule}, got {_json(value)}")


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
        ok = isinstance(self.params, TopologyParams)
        _expect(ok, "params must be TopologyParams", self.params)
        for name in ("samples", "master_seed"):
            value = _as_int(getattr(self, name), f"plan: {name}", UnsupportedPlanError)
            object.__setattr__(self, name, value)
        for name in ("failures", "metrics"):
            value = getattr(self, name)
            ok = _is_list(value) and all(isinstance(x, str) for x in value)
            _expect(ok, f"{name} must be a list of strings", value)
        grids = self.fer_grids
        ok = _is_list(grids) and all(_is_list(g) for g in grids)
        _expect(ok, "fer_grids must be a list of lists", grids)
        for value in (x for g in grids for x in g):
            _expect(_is_number(value), "FER values must be numbers", value)
        ratios = []
        for c, ratio in dict(self.class_ratios).items():
            c = ElementClass(c)
            ok = ratio is None or _is_number(ratio)
            _expect(ok, f"class ratio {c.value} must be a number or null", ratio)
            ratios.append((c, None if ratio is None else float(ratio)))
        object.__setattr__(self, "failures", tuple(FailureType(f) for f in self.failures))
        object.__setattr__(self, "fer_grids", tuple(tuple(map(float, g)) for g in grids))
        object.__setattr__(self, "metrics", tuple(self.metrics))
        object.__setattr__(self, "class_ratios", tuple(sorted(ratios, key=lambda r: r[0].value)))
        if not self.failures:
            raise UnsupportedPlanError("plan needs at least one failure type")
        if len(self.fer_grids) not in (0, len(self.failures)):
            raise UnsupportedPlanError("plan needs one FER grid per failure type")
        for grid in self.fer_grids:
            if not grid:
                raise UnsupportedPlanError("FER grid must hold at least one value")
            if not all(0.0 <= x <= 1.0 for x in grid):  # NaN fails both comparisons
                raise UnsupportedPlanError("FER grid values must lie in [0, 1]")
            if any(a >= b for a, b in zip(grid, grid[1:])):  # one row per FER value
                raise UnsupportedPlanError("FER grid must be strictly ascending, no value twice")
        if not 1 <= self.samples <= 2**32:
            raise UnsupportedPlanError(f"samples must lie in [1, 2**32], got {self.samples}")
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
        if len(set(self.metrics)) != len(self.metrics):
            raise UnsupportedPlanError(f"metrics repeat a name: {', '.join(self.metrics)}")
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
    """Most worker processes an operation may use: explicit argument, else
    DCN_ROBUST_THREADS, else (or when 0) the CPUs this process may run on."""
    if requested is None:
        raw = os.environ.get(WORKERS_ENV, "0")
        try:
            requested = int(raw)
        except ValueError:
            raise UnsupportedPlanError(f"{WORKERS_ENV} must be an integer, got {raw!r}")
    if requested < 0:
        raise UnsupportedPlanError("worker count must be >= 0")
    if requested == 0:
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    return requested


def sample_rng(
    master_seed: int, tag: int, point: int, sample: int, rng: np.random.Generator | None = None
) -> np.random.Generator:
    """The sample's counter-based generator, order-independent by design:
    *rng*, a Philox generator, re-keyed to the sample's stream, or a new
    one where it is None. Setting the whole state (key, zero counter,
    spent buffer, no buffered 32-bit half) makes the next draws those of a
    new generator of that key, whatever *rng* drew before."""
    if rng is None:
        rng = np.random.Generator(np.random.Philox(key=0))
    stream = (tag << 56) | (point << 32) | sample
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": [0, 0, 0, 0], "key": [master_seed, stream]},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return rng


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

@derived
def _element_pool(
    topo: Topology, selector: FailureType | ElementClass
) -> tuple[np.ndarray, bool]:
    """(ids, on_nodes): the elements *selector* removes from, as node ids
    (switches, servers) or edge indices (links), in ascending order.

    Aggregation-pair and core-core interconnect links belong to no element
    class and are never candidates for class-based removal.
    """
    if selector is FailureType.LINK:
        return np.arange(topo.n_links), False
    if selector is FailureType.SWITCH:
        return np.arange(topo.n_servers, topo.n_nodes), True
    if selector is FailureType.SERVER:
        return np.arange(topo.n_servers), True
    kinds = np.array(["server"] * topo.n_servers + list(topo.switch_layers))
    tags = _CLASS_LAYERS[selector]
    if selector.is_switch_class:
        return np.flatnonzero(kinds == tags[0]), True
    a, b = kinds[topo.edges_u], kinds[topo.edges_v]
    lo, hi = tags
    return np.flatnonzero(((a == lo) & (b == hi)) | ((a == hi) & (b == lo))), False


def _apply_removals(
    topo: Topology, pools, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Masks of one sweep sample: each ``(ids, on_nodes, count)`` pool loses
    *count* uniformly random elements, drawn in order from *rng*."""
    return _alive_after(
        topo,
        [(ids[rng.permutation(len(ids))[:count]], on_nodes) for ids, on_nodes, count in pools],
    )


def _edge_times(topo: Topology, failure: FailureType, perm: np.ndarray) -> np.ndarray:
    """Removal time of each link, then of each gateway's edge to the
    super-root (``reachability._pattern``'s edge order), under the removal
    order *perm* of the failure type's element pool.

    An element's time is its own position in *perm*, never-removed ones
    take F; a link under node failures takes the earlier of its
    endpoints' times, and a gateway edge its gateway's.
    """
    ids, on_nodes = _element_pool(topo, failure)
    big_f = len(ids)
    times = np.full(topo.n_nodes if on_nodes else topo.n_links, big_f)
    times[ids[0] :][perm] = np.arange(big_f)  # the pool is one id range from ids[0]
    if on_nodes:
        link_times = np.minimum(times[topo.edges_u], times[topo.edges_v])
        return np.concatenate([link_times, times[topo.gateways]])
    return np.concatenate([times, np.full(len(topo.gateways), big_f)])


@derived
def _cluster_graph(topo: Topology, failure: FailureType) -> tuple[np.ndarray, ...]:
    """(indices, indptr, slot_edge, cluster): the CSR pattern of
    ``reachability._pattern`` with each server cluster contracted to one
    node, the edge each slot holds, and each server's cluster.

    A cluster is a set of servers joined by links *failure* never removes
    (switch failures spare the server-server links, the others none), which
    ``reachability._component_labels`` numbers 0..k-1 in first-node order.
    Where no such link joins two servers (all but DCell with l >= 1 under
    switch failures), each server is its own cluster and the pattern's own
    arrays are returned. The k clusters are nodes 0..k-1, the switches
    follow, and the root comes last. A cluster's row holds the edges that
    leave it: once every one is down, its servers are stranded (the cuts of
    the Burtin-Pittel model behind ``analytic.min_cut_catalog``). Every node
    of a generated fabric keeps an edge, so no row is empty, as ``reduceat``
    over the rows needs.
    """
    indices, indptr, slot_edge = reachability._pattern(topo)
    servers = topo.n_servers
    inner = (topo.edges_v < servers) & (failure is FailureType.SWITCH)  # u < v: two servers
    if not inner.any():
        return indices, indptr, slot_edge, np.arange(servers)
    cluster = reachability._component_labels(reachability._subgraph(topo, inner))[1][:servers]
    node = np.concatenate([cluster, cluster.max() + 1 + np.arange(topo.n_switches + 1)])
    row = np.repeat(node, np.diff(indptr))
    col = node[indices].astype(np.int32)  # half the memory the memo keeps
    order = np.argsort(row, kind="stable")
    keep = order[row[order] != col[order]]
    indptr = np.concatenate([[0], np.cumsum(np.bincount(row[keep], minlength=node[-1] + 1))])
    return col[keep], indptr, slot_edge[keep], cluster


@derived
def _cluster_probe(topo: Topology, failure: FailureType) -> tuple:
    """The ``reachability._probe_view`` of ``_cluster_graph``: where that is
    the pattern itself, the partition's own ``reachability._server_view``."""
    indices, indptr, _, cluster = _cluster_graph(topo, failure)
    if indices is reachability._pattern(topo)[0]:
        return reachability._server_view(topo)
    return reachability._probe_view(reachability.CsrGraph(indices, indptr), cluster.max() + 1)


def _cut_bound(topo: Topology, failure: FailureType, slot_time: np.ndarray) -> int:
    """The earliest time at which every edge leaving some server cluster
    (its row of ``_cluster_graph``, timed by *slot_time*) is down: an upper
    bound on the earliest stranding time, since that cluster's servers
    reach no gateway one removal later."""
    indptr = _cluster_graph(topo, failure)[1]
    starts = indptr[: len(indptr) - topo.n_switches - 2]  # the cluster rows
    return int(np.maximum.reduceat(slot_time[: indptr[len(starts)]], starts).min())


def _stranding_times(topo: Topology, failure: FailureType, slot_time: np.ndarray) -> np.ndarray:
    """Per server, the largest removal-prefix length after which it still
    reaches a gateway (-1 if it never does).

    That is the value of the widest path from its cluster to the root of
    ``_cluster_graph``: the largest, over paths, of the smallest slot time
    (*slot_time*) on the path. The root holds F and every other node
    starts at -1; each round sets b[v] to the largest, over v's edges
    (u, v), of min(b[u], t_uv). After r rounds b[v] is the best over paths
    of at most r edges, so the rounds settle within one per node.
    """
    indices, indptr, _, cluster = _cluster_graph(topo, failure)
    big_f = len(_element_pool(topo, failure)[0])
    best = np.full(len(indptr) - 1, -1, dtype=np.int64)
    best[-1] = big_f
    for _ in range(len(best)):
        reach = np.maximum.reduceat(np.minimum(best[indices], slot_time), indptr[:-1])
        reach[-1] = big_f
        if np.array_equal(reach, best):
            return best[cluster]
        best = reach
    raise RuntimeError(f"widest paths did not settle in {len(best)} rounds")


def _critical_point(topo: Topology, failure: FailureType, perm: np.ndarray) -> int:
    """Minimal removal-prefix length of *perm* (indices into the failure
    type's element pool) that disconnects a server.

    Every step reads the removal time of each slot of ``_cluster_graph``
    (``_edge_times``), taken once. The first candidate is one past the
    cluster-cut bound (``_cut_bound``). Reachability only degrades as the
    prefix grows, so two probes prove a candidate: every server reaches a
    gateway one removal earlier, and some server does not at it. A probe
    is ``reachability._all_servers_reach_gateway`` over ``_cluster_probe``,
    with the slots timed at or after the prefix live. When the first probe
    refutes the bound, the candidate is one past the earliest stranding
    time of the widest paths (``_stranding_times``) instead, proved by the
    same two probes. A refuted bound costs one probe more than a proved
    one; any other refutation raises RuntimeError. At a prefix at or below
    the bound every cluster keeps a live slot, so the probe is told to
    skip its check for a cluster with none.
    """
    slot_time = _edge_times(topo, failure, perm)[_cluster_graph(topo, failure)[2]]
    probe = _cluster_probe(topo, failure)
    bound = _cut_bound(topo, failure, slot_time)

    def all_reach(prefix: int) -> bool:
        return reachability._all_servers_reach_gateway(probe, slot_time >= prefix, prefix <= bound)

    source, critical = "cut bound", bound + 1
    refuted = critical < 1 or not all_reach(critical - 1)
    if refuted:
        source = "widest path"
        critical = int(_stranding_times(topo, failure, slot_time).min()) + 1
        refuted = critical < 1 or not all_reach(critical - 1)
    if refuted or all_reach(critical):
        raise RuntimeError(f"{source} gives critical point {critical}, which the probes refute")
    return critical


# --- worker-side execution ---------------------------------------------------

# perfbench/passrun.py builds every topology of a pass (four in each of its
# workloads) before it times the pass, so the cache must hold them all.
@functools.lru_cache(maxsize=8)
def _cached_topology(params: TopologyParams) -> Topology:
    """The topology of *params*, built by this module's ``build_topology``
    once while it stays among the eight params asked for last."""
    return build_topology(params)


def _critical_sample(failure: FailureType, topo: Topology, rng: np.random.Generator) -> int:
    """One MTTF sample: the critical point of the removal order that *rng*
    draws over the failure type's element pool."""
    big_f = len(_element_pool(topo, failure)[0])
    return _critical_point(topo, failure, rng.permutation(big_f))


def _metric_sample(
    draws: tuple, metrics: tuple[str, ...], cpu, mem, topo: Topology, rng: np.random.Generator
) -> reachability.SurvivalMetrics:
    """One sweep sample: the requested metrics once *draws*, a tuple of
    ``(selector, count)`` pairs, are removed. Each pair removes *count*
    uniformly random elements of the selector's pool, drawn in order from
    *rng*, which then draws the sampled ASPL's sources."""
    pools = [(*_element_pool(topo, selector), count) for selector, count in draws]
    alive = _apply_removals(topo, pools, rng)  # (node_alive, edge_alive)
    return reachability.evaluate(topo, *alive, metrics, cpu=cpu, mem=mem, aspl_rng=rng)


def _chunk(
    params: TopologyParams, sample, master_seed: int, tag: int, point: int, start: int, stop: int
) -> list:
    """``sample(topology, rng)`` for each sample of ``range(start, stop)``
    at grid point *point*, in sample order: one generator for the chunk,
    re-keyed by ``sample_rng`` to each sample's stream."""
    topo = _cached_topology(params)
    out = []
    rng = None
    for k in range(start, stop):
        rng = sample_rng(master_seed, tag, point, k, rng)
        out.append(sample(topo, rng))
    return out


# --- parallel map ------------------------------------------------------------


def __getattr__(name: str):
    """``ProcessPoolExecutor``, imported on first use and kept as a module
    attribute (PEP 562): an operation that runs inline never loads
    ``concurrent.futures.process``, multiprocessing, socket or subprocess."""
    if name != "ProcessPoolExecutor":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from concurrent.futures import ProcessPoolExecutor

    globals()[name] = ProcessPoolExecutor
    return ProcessPoolExecutor


def _run_chunked(fn, tasks: list[tuple], workers: int) -> list:
    """``[fn(*task) for task in tasks]`` on a pool of one worker per two tasks,
    at most *workers*; inline when that is one, as a pool would cost more.
    The pool is this module's ``ProcessPoolExecutor`` attribute, so the
    first operation that forks loads it, and a class set there in its
    place is the one started."""
    workers = min(workers, len(tasks) // 2)
    if workers <= 1:
        return [fn(*task) for task in tasks]
    with sys.modules[__name__].ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(fn, *task) for task in tasks]
        return [f.result() for f in futures]


def _run_samples(plan: ExperimentPlan, tag: int, samplers: list, workers: int | None) -> list[list]:
    """Each sampler's ``plan.samples`` results, in sample order. Sampler i
    is grid point i of stream *tag*; its samples are cut into chunks of
    about a quarter of a worker's share, and every (point, chunk) task of
    the operation goes to one ``_run_chunked`` call."""
    workers = resolve_workers(workers)
    samples = plan.samples
    size = max(1, math.ceil(samples / (workers * 4)))
    starts = range(0, samples, size)
    tasks = [
        (plan.params, sampler, plan.master_seed, tag, point, start, min(start + size, samples))
        for point, sampler in enumerate(samplers)
        for start in starts
    ]
    parts = iter(_run_chunked(_chunk, tasks, workers))
    return [[r for _ in starts for r in next(parts)] for _ in samplers]


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
    if plan.fer_grids:
        raise UnsupportedPlanError("FER grids apply to sweeps only, not to MTTF")
    if failure is FailureType.SERVER:
        raise UnsupportedPlanError(
            "server failures end the reliable phase at the first removal; nothing to simulate"
        )
    topo = _cached_topology(plan.params)
    big_f = len(_element_pool(topo, failure)[0])
    # Built before the pool forks, with reachability._pattern and the
    # cluster graph under it, so that the workers inherit all three.
    _cluster_probe(topo, failure)

    samplers = [functools.partial(_critical_sample, failure)]
    critical = np.array(_run_samples(plan, _TAG_NMTTF, samplers, workers)[0], dtype=np.int64)
    mean, half = confidence_interval(normalized_time_table(big_f)[critical])

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
        critical_fer=confidence_interval(critical / big_f)[0],  # the report row's mean
        critical_points=critical,
        samples=plan.samples,
        nmttf_theoretical=theo,
        theoretical_quality=quality,
        relative_error=rel,
        note=note,
    )


def _aggregate_point(
    records: list[reachability.SurvivalMetrics],
    metrics: tuple[str, ...],
    base: dict,
) -> list[MetricSample]:
    """One row per metric over a point's per-sample records. A sample whose
    ASPL is undefined (no two accessible servers share a component) is left
    out of the ASPL row. A row of two or more samples that are all equal is
    flagged ``degenerate``: its half-width of 0.0 is not certainty."""
    rows = []
    for metric in metrics:
        values = [getattr(r, metric) for r in records]
        extra = {}
        if metric == "aspl":
            estimates = [v for v in values if v.hops is not None]
            values = [v.hops for v in estimates]
            if estimates:
                extra["pairs_mean"] = float(np.mean([v.pairs for v in estimates]))
                extra["exact"] = all(v.exact for v in estimates)
        if len(values) >= 2 and all(v == values[0] for v in values):
            extra["degenerate"] = True
        mean, half = confidence_interval(values)
        rows.append(
            MetricSample(
                metric=metric,
                mean=mean,
                ci95_half_width=half,
                samples=len(values),
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
    """Evaluate the plan's metrics at every grid point, on at most one pool.

    Each point is ``(draws, row_fields)``: the ``(selector, count)`` draws of
    :func:`_metric_sample` and the fields that label the point's rows. A
    point's RNG stream index is its position in *points*.
    """
    if not plan.metrics:
        raise UnsupportedPlanError("a sweep needs at least one metric")
    capacities = _plan_capacities(plan, capacity_assignment)
    reachability._server_view(_cached_topology(plan.params))  # forked workers inherit it
    samplers = [
        functools.partial(_metric_sample, draws, plan.metrics, *capacities) for draws, _ in points
    ]
    base = {"topology": plan.params.kind.value, "params": plan.params.args_text()}
    rows: list[MetricSample] = []
    for records, (_, fields) in zip(_run_samples(plan, tag, samplers, workers), points):
        rows.extend(_aggregate_point(records, plan.metrics, {**base, **fields}))
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


def _plan_capacities(plan: ExperimentPlan, assignment) -> tuple:
    """The (cpu, memory) vectors of *assignment*, which must have been made
    for the plan's own topology; (None, None) when no rcr metric reads them."""
    if assignment is not None and assignment.topology.params != plan.params:
        raise UnsupportedPlanError(
            f"capacity assignment is for {params_to_doc(assignment.topology.params)}, "
            f"the plan runs {params_to_doc(plan.params)}"
        )
    if not any(m.startswith("rcr") for m in plan.metrics):
        return None, None
    if assignment is None:
        raise UnsupportedPlanError("rcr metrics require a capacity assignment")
    return assignment.cpu, assignment.memory


def plan_to_doc(plan: ExperimentPlan) -> dict:
    """JSON-ready plan document (same format family as topology documents)."""
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
    """Inverse of :func:`plan_to_doc`; names any field that is not one of
    :class:`ExperimentPlan`'s, and refuses class_ratios that are no JSON
    object (the plan also takes the (class, ratio) pairs it stores). The
    plan checks its own field types and values, and keeps its defaults."""
    if not isinstance(doc, dict):
        raise UnsupportedPlanError(f"plan: expected an object, got {_json(doc)}")
    unknown = [name for name in doc if name not in ExperimentPlan.__dataclass_fields__]
    if unknown:
        raise UnsupportedPlanError(f"bad plan document: unknown field {', '.join(unknown)}")
    ratios = doc.get("class_ratios", {})
    if type(ratios) is not dict:
        raise UnsupportedPlanError(f"plan: class_ratios must be an object, got {_json(ratios)}")
    try:
        return ExperimentPlan(**{**doc, "params": params_from_doc(doc["params"])})
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, UnsupportedPlanError):
            raise
        raise UnsupportedPlanError(f"bad plan document: {exc}") from exc
