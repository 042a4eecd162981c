"""Connectivity and survivability metrics on a degraded topology.

A server counts as accessible only while some path of surviving links and
switches connects it to a surviving gateway. All operations are pure
functions of (topology, removal sets); a shared immutable topology can be
evaluated against many degradations concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph

from .topology import Topology

__all__ = [
    "DegradedNetwork",
    "SubnetworkPartition",
    "SurvivalMetrics",
    "AsplEstimate",
    "partition",
    "accessible_server_ratio",
    "server_connectivity",
    "average_shortest_path_length",
    "remaining_capacity_ratio",
    "evaluate",
]

EXACT_ASPL_SERVER_LIMIT = 4000
SAMPLED_ASPL_PAIRS = 100_000
_ASPL_SOURCE_CHUNK = 512


@dataclass(frozen=True)
class DegradedNetwork:
    """A topology minus removed links, switches and servers.

    Removed switches implicitly disable their incident links; those links
    are not members of ``removed_links``.
    """

    topology: Topology
    removed_links: frozenset[tuple[int, int]] = frozenset()
    removed_switches: frozenset[int] = frozenset()
    removed_servers: frozenset[int] = frozenset()

    def __post_init__(self) -> None:
        topo = self.topology
        object.__setattr__(
            self,
            "removed_links",
            frozenset((u, v) if u < v else (v, u) for u, v in self.removed_links),
        )
        object.__setattr__(self, "removed_switches", frozenset(self.removed_switches))
        object.__setattr__(self, "removed_servers", frozenset(self.removed_servers))
        for node in self.removed_servers:
            if not topo.is_server(node):
                raise ValueError(f"removed server {node} is not a server node")
        for node in self.removed_switches:
            if not (topo.n_servers <= node < topo.n_nodes):
                raise ValueError(f"removed switch {node} is not a switch node")
        if self.removed_links:
            known = topo.edge_index()
            for link in self.removed_links:
                if link not in known:
                    raise ValueError(f"removed link {link} is not in the topology")

    @cached_property
    def node_alive(self) -> np.ndarray:
        alive = np.ones(self.topology.n_nodes, dtype=bool)
        if self.removed_switches:
            alive[list(self.removed_switches)] = False
        if self.removed_servers:
            alive[list(self.removed_servers)] = False
        return alive

    @cached_property
    def edge_alive(self) -> np.ndarray:
        topo = self.topology
        alive = self.node_alive[topo.edges_u] & self.node_alive[topo.edges_v]
        if self.removed_links:
            idx = topo.edge_index()
            dead = [idx[link] for link in self.removed_links]
            alive[dead] = False
        return alive


class _PartitionArrays(NamedTuple):
    """Fast-path partition result over the full node index space."""

    labels: np.ndarray  # component label per node (removed nodes isolated)
    node_alive: np.ndarray
    accessible_component: np.ndarray  # bool per component label
    server_counts: np.ndarray  # surviving servers per component label


def _subgraph(topology: Topology, edge_alive: np.ndarray) -> sp.csr_matrix:
    u = topology.edges_u[edge_alive]
    v = topology.edges_v[edge_alive]
    n = topology.n_nodes
    data = np.ones(2 * len(u), dtype=np.int8)
    return sp.csr_matrix(
        (data, (np.concatenate([u, v]), np.concatenate([v, u]))), shape=(n, n)
    )


def _partition_arrays(
    topology: Topology, node_alive: np.ndarray, edge_alive: np.ndarray
) -> _PartitionArrays:
    n_comp, labels = csgraph.connected_components(
        _subgraph(topology, edge_alive), directed=False
    )
    alive_gateways = topology.gateways[node_alive[topology.gateways]]
    accessible = np.zeros(n_comp, dtype=bool)
    accessible[labels[alive_gateways]] = True
    server_alive = node_alive[: topology.n_servers]
    server_counts = np.bincount(
        labels[: topology.n_servers][server_alive], minlength=n_comp
    )
    return _PartitionArrays(labels, node_alive, accessible, server_counts)


def _all_servers_reach_gateway(
    topology: Topology, node_alive: np.ndarray, edge_alive: np.ndarray
) -> bool:
    """True iff every surviving server lies in a component with a surviving
    gateway (the operational-network test applied after removals)."""
    arrays = _partition_arrays(topology, node_alive, edge_alive)
    server_alive = node_alive[: topology.n_servers]
    labels = arrays.labels[: topology.n_servers][server_alive]
    return bool(np.all(arrays.accessible_component[labels]))


def _accessible_server_mask(topology: Topology, arrays: _PartitionArrays) -> np.ndarray:
    mask = np.zeros(topology.n_servers, dtype=bool)
    server_alive = arrays.node_alive[: topology.n_servers]
    labels = arrays.labels[: topology.n_servers]
    mask[server_alive] = arrays.accessible_component[labels[server_alive]]
    return mask


@dataclass(frozen=True)
class SubnetworkPartition:
    """Connected components of the surviving graph, flagged by gateway access."""

    components: tuple[frozenset[int], ...]
    accessible: tuple[int, ...]  # indices into components
    accessible_server_counts: tuple[int, ...]  # s_k, aligned with accessible
    n_servers_total: int
    accessible_server_mask: np.ndarray  # bool per original server id

    @property
    def accessible_server_total(self) -> int:
        return int(sum(self.accessible_server_counts))


def partition(degraded: DegradedNetwork) -> SubnetworkPartition:
    """Enumerate surviving components and mark the operational ones."""
    topo = degraded.topology
    arrays = _partition_arrays(topo, degraded.node_alive, degraded.edge_alive)
    alive_nodes = np.flatnonzero(arrays.node_alive)
    if len(alive_nodes) == 0:
        return SubnetworkPartition(
            components=(),
            accessible=(),
            accessible_server_counts=(),
            n_servers_total=topo.n_servers,
            accessible_server_mask=np.zeros(topo.n_servers, dtype=bool),
        )
    alive_labels = arrays.labels[alive_nodes]

    order = np.argsort(alive_labels, kind="stable")
    sorted_nodes = alive_nodes[order]
    sorted_labels = alive_labels[order]
    boundaries = np.flatnonzero(np.diff(sorted_labels)) + 1
    groups = np.split(sorted_nodes, boundaries)
    group_labels = [int(g[0]) for g in np.split(sorted_labels, boundaries)]

    components = tuple(frozenset(int(n) for n in g) for g in groups)
    accessible = tuple(
        i for i, lab in enumerate(group_labels) if arrays.accessible_component[lab]
    )
    counts = tuple(int(arrays.server_counts[group_labels[i]]) for i in accessible)
    return SubnetworkPartition(
        components=components,
        accessible=accessible,
        accessible_server_counts=counts,
        n_servers_total=topo.n_servers,
        accessible_server_mask=_accessible_server_mask(topo, arrays),
    )


def accessible_server_ratio(part: SubnetworkPartition, total_servers: int | None = None) -> float:
    """Fraction of the original servers that still reach a gateway."""
    total = part.n_servers_total if total_servers is None else total_servers
    if total <= 0:
        raise ValueError("total server count must be positive")
    return part.accessible_server_total / total


def server_connectivity(part: SubnetworkPartition) -> float:
    """Density of the logical complete-graph union over accessible components."""
    s_a = part.accessible_server_total
    if s_a <= 1:
        return 0.0
    num = sum(s * (s - 1) for s in part.accessible_server_counts)
    return num / (s_a * (s_a - 1))


class AsplEstimate(NamedTuple):
    """Average shortest path length plus how it was measured.

    ``hops`` is None when fewer than two servers are accessible. ``pairs``
    is the number of same-component server pairs averaged over; ``exact``
    is False when the pair population was subsampled.
    """

    hops: float | None
    pairs: int
    exact: bool


def average_shortest_path_length(
    degraded: DegradedNetwork,
    part: SubnetworkPartition | None = None,
    *,
    exact_limit: int = EXACT_ASPL_SERVER_LIMIT,
    sampled_pairs: int = SAMPLED_ASPL_PAIRS,
    rng: np.random.Generator | None = None,
) -> AsplEstimate:
    """Mean hop count between accessible servers of the same component.

    Exact all-pairs BFS up to *exact_limit* accessible servers; beyond
    that, *sampled_pairs* uniformly random pairs are measured instead
    (cross-component pairs never contribute).
    """
    if part is None:
        part = partition(degraded)
    servers = np.flatnonzero(part.accessible_server_mask)
    return _aspl(degraded.topology, degraded.edge_alive, servers, exact_limit, sampled_pairs, rng)


def _aspl(
    topology: Topology,
    edge_alive: np.ndarray,
    servers: np.ndarray,
    exact_limit: int,
    sampled_pairs: int,
    rng: np.random.Generator | None,
) -> AsplEstimate:
    """ASPL among the accessible *servers* over the surviving links: exact
    up to *exact_limit* servers, else over *sampled_pairs* random pairs."""
    if len(servers) < 2:
        return AsplEstimate(None, 0, True)
    graph = _subgraph(topology, edge_alive)
    exact = len(servers) <= exact_limit
    if exact:
        total, pairs = _aspl_exact(graph, servers)
    else:
        rng = rng if rng is not None else np.random.default_rng()
        total, pairs = _aspl_sampled(graph, servers, sampled_pairs, rng)
    return AsplEstimate(total / pairs if pairs else None, pairs, exact)


def _bfs_distances(graph: sp.csr_matrix, sources: np.ndarray) -> np.ndarray:
    return csgraph.shortest_path(
        graph, method="D", unweighted=True, directed=False, indices=sources
    )


def _aspl_exact(graph: sp.csr_matrix, servers: np.ndarray) -> tuple[float, int]:
    accessible = np.zeros(graph.shape[0], dtype=bool)
    accessible[servers] = True
    total = 0.0
    pairs = 0
    for start in range(0, len(servers), _ASPL_SOURCE_CHUNK):
        chunk = servers[start : start + _ASPL_SOURCE_CHUNK]
        dist = _bfs_distances(graph, chunk)[:, accessible]
        finite = np.isfinite(dist)
        total += float(dist[finite].sum())
        pairs += int(finite.sum())
    # Ordered pairs counted both ways; self-distances contribute zero but
    # inflate the pair count by one per server.
    pairs = (pairs - len(servers)) // 2
    return total / 2.0, pairs


def _aspl_sampled(
    graph: sp.csr_matrix,
    servers: np.ndarray,
    n_pairs: int,
    rng: np.random.Generator,
) -> tuple[float, int]:
    left = servers[rng.integers(0, len(servers), size=n_pairs)]
    right = servers[rng.integers(0, len(servers), size=n_pairs)]
    keep = left != right
    left, right = left[keep], right[keep]
    order = np.argsort(left, kind="stable")
    left, right = left[order], right[order]
    uniq, starts = np.unique(left, return_index=True)
    total = 0.0
    pairs = 0
    bounds = np.append(starts, len(left))
    for c0 in range(0, len(uniq), _ASPL_SOURCE_CHUNK):
        chunk = uniq[c0 : c0 + _ASPL_SOURCE_CHUNK]
        dist = _bfs_distances(graph, chunk)
        for row, src in enumerate(chunk):
            i = c0 + row
            targets = right[bounds[i] : bounds[i + 1]]
            d = dist[row, targets]
            finite = np.isfinite(d)
            total += float(d[finite].sum())
            pairs += int(finite.sum())
    return total, pairs


def remaining_capacity_ratio(
    part: SubnetworkPartition,
    capacities,
    resource: str | None = None,
) -> float:
    """Capacity-weighted accessible ratio: sum of accessible-server
    capacities over the total.

    *capacities* is either a per-server vector, or a capacity assignment
    object (see :mod:`dcn_robust.capacity`) combined with a *resource* of
    ``"cpu"`` or ``"memory"``.
    """
    if hasattr(capacities, "capacity_vector"):
        capacities = capacities.capacity_vector(resource if resource is not None else "cpu")
    elif resource is not None and resource not in ("cpu", "memory"):
        raise ValueError(f"resource must be 'cpu' or 'memory', got {resource!r}")
    capacities = np.asarray(capacities, dtype=float)
    if len(capacities) != part.n_servers_total:
        raise ValueError(
            f"capacity assignment covers {len(capacities)} servers, "
            f"topology has {part.n_servers_total}"
        )
    total = float(capacities.sum())
    if total <= 0:
        raise ValueError("total capacity must be positive")
    return float(capacities[part.accessible_server_mask].sum()) / total


@dataclass(frozen=True)
class SurvivalMetrics:
    """One degraded network's survivability readings."""

    asr: float | None = None
    sc: float | None = None
    aspl: AsplEstimate | None = None
    rcr_cpu: float | None = None
    rcr_mem: float | None = None


def evaluate(
    topology: Topology,
    node_alive: np.ndarray,
    edge_alive: np.ndarray,
    metrics,
    *,
    cpu: np.ndarray | None = None,
    mem: np.ndarray | None = None,
    aspl_rng: np.random.Generator | None = None,
    aspl_exact_limit: int = EXACT_ASPL_SERVER_LIMIT,
    aspl_sampled_pairs: int = SAMPLED_ASPL_PAIRS,
) -> SurvivalMetrics:
    """Array-level metric evaluation for the simulation hot path.

    Computes only the requested metric names over one degraded state given
    as alive masks, skipping construction of the object-level partition.
    """
    want = set(metrics)
    arrays = _partition_arrays(topology, node_alive, edge_alive)
    acc_counts = arrays.server_counts[arrays.accessible_component]
    s_a = int(acc_counts.sum())

    asr = s_a / topology.n_servers if "asr" in want else None
    sc = None
    if "sc" in want:
        if s_a <= 1:
            sc = 0.0
        else:
            sc = float((acc_counts * (acc_counts - 1)).sum()) / (s_a * (s_a - 1))

    mask = None
    if want & {"aspl", "rcr_cpu", "rcr_mem"}:
        mask = _accessible_server_mask(topology, arrays)

    aspl = None
    if "aspl" in want:
        servers = np.flatnonzero(mask)
        aspl = _aspl(
            topology, edge_alive, servers, aspl_exact_limit, aspl_sampled_pairs, aspl_rng
        )

    rcr_cpu = rcr_mem = None
    if "rcr_cpu" in want:
        rcr_cpu = float(cpu[mask].sum() / cpu.sum())
    if "rcr_mem" in want:
        rcr_mem = float(mem[mask].sum() / mem.sum())

    return SurvivalMetrics(asr=asr, sc=sc, aspl=aspl, rcr_cpu=rcr_cpu, rcr_mem=rcr_mem)
