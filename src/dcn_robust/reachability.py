"""Connectivity and survivability metrics on a degraded topology.

A server counts as accessible only while some path of surviving links and
switches connects it to a surviving gateway. All operations are pure
functions of (topology, removal sets); a shared immutable topology can be
evaluated against many degradations concurrently.

One engine serves both APIs: ``_alive_after`` builds the alive masks of a
set of removals, ``_partition_arrays`` turns them into a
``SubnetworkPartition`` that keeps the graph it labelled, and each metric
has one formula over it that ``evaluate`` (the simulation hot path) and
the object-level functions share.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph

from .topology import Topology, derived

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
    if nodes_removed:  # skips two gathers per link-only certificate probe
        edge_alive &= node_alive[topo.edges_u] & node_alive[topo.edges_v]
    return node_alive, edge_alive


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
    # Both masks come from one _alive_after call over the removals.
    node_alive: np.ndarray = field(init=False, repr=False, compare=False)
    edge_alive: np.ndarray = field(init=False, repr=False, compare=False)

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
        edge_ids = []
        if self.removed_links:
            pairs = zip(topo.edges_u.tolist(), topo.edges_v.tolist())
            index = dict(zip(pairs, range(topo.n_links)))
            for link in self.removed_links:
                if link not in index:
                    raise ValueError(f"removed link {link} is not in the topology")
                edge_ids.append(index[link])
        nodes = [*self.removed_switches, *self.removed_servers]
        node_alive, edge_alive = _alive_after(
            topo,
            [(np.array(nodes, dtype=np.int64), True), (np.array(edge_ids, dtype=np.int64), False)],
        )
        object.__setattr__(self, "node_alive", node_alive)
        object.__setattr__(self, "edge_alive", edge_alive)


@derived
def _pattern(topology: Topology) -> sp.csr_matrix:
    """The canonical CSR pattern of the links and of one edge from each
    gateway to a super-root (node ``n_nodes``), both directions; a slot's
    value is its edge's number (links, then gateway edges), counted from 1
    so that no slot holds a zero a sparse operation could drop."""
    n, gateways = topology.n_nodes, topology.gateways
    u = np.concatenate([topology.edges_u, gateways])
    v = np.concatenate([topology.edges_v, np.full(len(gateways), n)])
    edge = np.tile(np.arange(1, len(u) + 1), 2)
    return sp.csr_matrix((edge, (np.r_[u, v], np.r_[v, u])), shape=(n + 1, n + 1))


def _subgraph(
    topology: Topology, edge_alive: np.ndarray, gateway_alive: np.ndarray | None = None
) -> sp.csr_matrix:
    """The surviving links, both directions, as a float64 CSR graph sliced
    from ``_pattern``; with *gateway_alive*, the root and the edges of the
    surviving gateways too."""
    pattern = _pattern(topology)
    size = topology.n_nodes + (gateway_alive is not None)
    if gateway_alive is None:
        gateway_alive = np.zeros(len(topology.gateways), dtype=bool)
    keep = np.concatenate([[False], edge_alive, gateway_alive])[pattern.data]
    indptr = np.concatenate([[0], np.cumsum(keep)])[pattern.indptr[: size + 1]]
    return sp.csr_matrix((np.ones(indptr[-1]), pattern.indices[keep], indptr), (size, size))


@dataclass(frozen=True)
class SubnetworkPartition:
    """Connected components of the surviving graph, flagged by gateway access.

    The fields are the arrays of one connected-components call over the
    full node index space, and the surviving-link graph it labelled; the
    node-set views are built on first use.
    """

    labels: np.ndarray  # component label per node (removed nodes isolated)
    node_alive: np.ndarray
    accessible_component: np.ndarray  # bool per component label
    server_counts: np.ndarray  # surviving servers per component label
    n_servers_total: int
    graph: sp.csr_matrix  # surviving links, both directions

    @cached_property
    def accessible_server_mask(self) -> np.ndarray:
        """Bool per original server id: alive and in an accessible component."""
        n = self.n_servers_total
        return self.node_alive[:n] & self.accessible_component[self.labels[:n]]

    @cached_property
    def _accessible_counts(self) -> np.ndarray:
        """Surviving servers per accessible component, in label order."""
        return self.server_counts[self.accessible_component]

    @property
    def accessible_server_total(self) -> int:
        return int(self._accessible_counts.sum())

    @cached_property
    def _live_labels(self) -> np.ndarray:
        """Labels of the components that hold a surviving node, ascending."""
        return np.unique(self.labels[self.node_alive])

    @cached_property
    def components(self) -> tuple[frozenset[int], ...]:
        """Surviving nodes of each component, in label order."""
        alive = np.flatnonzero(self.node_alive)
        alive = alive[np.argsort(self.labels[alive], kind="stable")]
        starts = np.searchsorted(self.labels[alive], self._live_labels)
        return tuple(frozenset(g.tolist()) for g in np.split(alive, starts)[1:])

    @cached_property
    def accessible(self) -> tuple[int, ...]:
        """Indices into ``components`` of those that reach a gateway."""
        return tuple(np.flatnonzero(self.accessible_component[self._live_labels]).tolist())

    @cached_property
    def accessible_server_counts(self) -> tuple[int, ...]:
        """s_k per accessible component, aligned with ``accessible``."""
        return tuple(self._accessible_counts.tolist())


def _partition_arrays(
    topology: Topology, node_alive: np.ndarray, edge_alive: np.ndarray
) -> SubnetworkPartition:
    graph = _subgraph(topology, edge_alive)
    n_comp, labels = csgraph.connected_components(graph, directed=False)
    alive_gateways = topology.gateways[node_alive[topology.gateways]]
    accessible = np.zeros(n_comp, dtype=bool)
    accessible[labels[alive_gateways]] = True
    server_alive = node_alive[: topology.n_servers]
    server_counts = np.bincount(
        labels[: topology.n_servers][server_alive], minlength=n_comp
    )
    return SubnetworkPartition(
        labels, node_alive, accessible, server_counts, topology.n_servers, graph
    )


def _all_servers_reach_gateway(
    topology: Topology, node_alive: np.ndarray, edge_alive: np.ndarray
) -> bool:
    """True iff every surviving server reaches a surviving gateway (the
    operational-network test applied after removals). It is the probe of
    the certificate that checks each critical point the simulation's cut
    bound or widest paths give: one breadth-first search from the
    super-root, directed, since the graph holds both directions of every
    edge."""
    root, servers = topology.n_nodes, topology.n_servers
    graph = _subgraph(topology, edge_alive, node_alive[topology.gateways])
    reached = np.zeros(root + 1, dtype=bool)
    reached[csgraph.breadth_first_order(graph, root, True, return_predecessors=False)] = True
    return bool((reached[:servers] | ~node_alive[:servers]).all())


def partition(degraded: DegradedNetwork) -> SubnetworkPartition:
    """Label surviving components and mark the operational ones."""
    return _partition_arrays(degraded.topology, degraded.node_alive, degraded.edge_alive)


def accessible_server_ratio(part: SubnetworkPartition) -> float:
    """Fraction of the original servers that still reach a gateway."""
    if part.n_servers_total <= 0:
        raise ValueError("total server count must be positive")
    return part.accessible_server_total / part.n_servers_total


def server_connectivity(part: SubnetworkPartition) -> float:
    """Density of the logical complete-graph union over accessible components."""
    counts = part._accessible_counts
    s_a = int(counts.sum())
    if s_a <= 1:
        return 0.0
    # Both operands are exact integers below 2**53, so the float quotient
    # is the correctly rounded one.
    return float((counts * (counts - 1)).sum()) / (s_a * (s_a - 1))


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
    part: SubnetworkPartition, *, rng: np.random.Generator | None = None
) -> AsplEstimate:
    """Mean hop count between accessible servers of the same component of
    *part*, over the surviving-link graph it labelled.

    Both modes fold each single-link server into its neighbour plus one
    hop (``_fold``), run one bit-parallel multi-source BFS (``_bit_bfs``)
    from the anchors, and differ only in the pairs they count: every pair
    up to ``EXACT_ASPL_SERVER_LIMIT`` accessible servers (``_aspl_exact``),
    beyond that ``SAMPLED_ASPL_PAIRS`` uniformly random pairs drawn from
    *rng*, measured from the distinct anchors of their left ends
    (``_aspl_sampled``). Cross-component pairs never contribute.
    """
    servers = np.flatnonzero(part.accessible_server_mask)
    if len(servers) < 2:
        return AsplEstimate(None, 0, True)
    exact = len(servers) <= EXACT_ASPL_SERVER_LIMIT
    if exact:
        total, pairs = _aspl_exact(part.graph, servers)
    else:
        rng = rng if rng is not None else np.random.default_rng()
        total, pairs = _aspl_sampled(part.graph, servers, SAMPLED_ASPL_PAIRS, rng)
    return AsplEstimate(total / pairs if pairs else None, pairs, exact)


# Constants of the SWAR popcount, which runs on any numpy (np.bitwise_count
# needs numpy 2.0) and takes fewer passes than a per-byte table lookup.
_M1, _M2, _M4, _H01 = (
    np.uint64(m)
    for m in (0x5555555555555555, 0x3333333333333333, 0x0F0F0F0F0F0F0F0F, 0x0101010101010101)
)
_S1, _S2, _S4, _S56 = (np.uint64(s) for s in (1, 2, 4, 56))


def _popcount(words: np.ndarray) -> np.ndarray:
    """Set bits of each row of a 2-D ``uint64`` array, which is not written to."""
    half = words >> _S1
    half &= _M1
    x = words - half
    half = x >> _S2
    half &= _M2
    x &= _M2
    x += half
    x += x >> _S4
    x &= _M4
    x *= _H01  # each word's byte counts summed into its top byte
    x >>= _S56
    return x.sum(axis=1, dtype=np.int64)


def _fold(graph: sp.csr_matrix, servers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(anchor, off) per node of *graph*, folding the pendant servers.

    A server of *servers* with one link, whose neighbour has two or more,
    is a pendant: its anchor is that neighbour and its ``off`` is one hop.
    Every other node is its own anchor, zero hops off. Every path from a
    pendant runs through its anchor, and no shortest path between two
    other nodes runs through a pendant, so for servers s != t of one
    component d(s, t) = off[s] + off[t] + d(anchor[s], anchor[t]), also
    over the graph without the pendants. The neighbour's second link
    keeps the two servers of a two-server component from folding into
    each other. Folding degree-1 vertices is a standard step for
    closeness and all-pairs distance sums (Sariyüce, Kaya, Saule and
    Çatalyürek, "Graph Manipulations for Fast Centrality Computation",
    ACM TKDD 11(3), 2017).
    """
    degree = np.diff(graph.indptr)
    single = servers[degree[servers] == 1]
    neighbour = graph.indices[graph.indptr[single]]
    pendant = degree[neighbour] >= 2
    anchor = np.arange(graph.shape[0])
    anchor[single[pendant]] = neighbour[pendant]
    off = np.zeros(graph.shape[0], dtype=np.int64)
    off[single[pendant]] = 1
    return anchor, off


def _linked_first(
    graph: sp.csr_matrix, sources: np.ndarray, targets: np.ndarray
) -> tuple[sp.csr_matrix, np.ndarray, int]:
    """(graph, row, n_sources): *graph* cut to the nodes that can matter to
    a path between two ends (*sources* and *targets*), reordered so that
    the linked ones of *sources* take the first ``n_sources`` rows in
    their given order; node v is row ``row[v]``, -1 where it was cut.

    A node with one link that is no end lies inside no path between two
    ends, so it is cut (the pendant servers ``_fold`` leaves behind). A
    node left without a link reaches nothing and is cut too, so every
    row left is a non-empty ``reduceat`` segment for ``_bit_bfs``.
    """
    n = graph.shape[0]
    degree = np.diff(graph.indptr)
    end = np.zeros(n, dtype=bool)
    end[targets] = True
    end[sources] = True
    leaf = (degree == 1) & ~end
    degree = degree - np.bincount(graph.indices[graph.indptr[:-1][leaf]], minlength=n)
    linked = (degree > 0) & ~leaf
    head = sources[linked[sources]]
    linked[head] = False
    nodes = np.concatenate([head, np.flatnonzero(linked)])
    row = np.full(n, -1, dtype=np.int64)
    row[nodes] = np.arange(len(nodes))
    return graph[nodes][:, nodes], row, len(head)


def _bit_bfs(graph: sp.csr_matrix, n_sources: int):
    """BFS levels from each of the first *n_sources* rows of *graph*, whose
    every row has a link: yields ``(start, width, level, new_bits)``.

    Bit-parallel multi-source BFS (Then et al., "The More the Merrier",
    PVLDB 8(4), 2014): each block of ``_ASPL_SOURCE_CHUNK`` sources, rows
    ``start`` to ``start + width``, gets one bit per source in every row's
    ``uint64`` words, and one level ORs the frontier rows of each row's
    neighbours and keeps the bits the row has not seen. ``new_bits[r]``
    holds bit ``s - start`` exactly when row r is ``level`` hops from
    source row s; it must not be written to.
    """
    starts, neighbours = graph.indptr[:-1], graph.indices
    for start in range(0, n_sources, _ASPL_SOURCE_CHUNK):
        width = min(_ASPL_SOURCE_CHUNK, n_sources - start)
        bit = np.arange(width)
        frontier = np.zeros((graph.shape[0], (width + 63) // 64), dtype=np.uint64)
        frontier[start + bit, bit // 64] = np.uint64(1) << (bit % 64).astype(np.uint64)
        visited = frontier.copy()
        level = 0
        while True:
            level += 1
            frontier = np.bitwise_or.reduceat(frontier[neighbours], starts, axis=0)
            frontier &= ~visited
            if not frontier.any():
                break
            visited |= frontier
            yield start, width, level, frontier


def _weight_planes(weights: np.ndarray) -> list[tuple[int, np.ndarray | None]]:
    """``(2**j, mask)`` per bit j that some of *weights* has: the mask's
    ``uint64`` words hold bit c where ``weights[c]`` has bit j, as in a
    ``_bit_bfs`` row; None where every weight has it."""
    words = (len(weights) + 63) // 64
    shifts = np.arange(64, dtype=np.uint64)
    planes = []
    for j in range(int(weights.max()).bit_length()):
        has = (weights >> j) & 1
        if has.all():
            planes.append((1 << j, None))
        elif has.any():
            bits = np.zeros(words * 64, dtype=np.uint64)
            bits[: len(weights)] = has
            mask = (bits.reshape(words, 64) << shifts).sum(axis=1, dtype=np.uint64)
            planes.append((1 << j, mask))
    return planes


def _aspl_exact(graph: sp.csr_matrix, servers: np.ndarray) -> tuple[float, int]:
    """(hop total, pair count) over the same-component pairs of *servers*.

    The servers are folded into their anchors (``_fold``), and one
    ``_bit_bfs`` runs from every distinct anchor with a link, over the
    graph without the pendants. With w_a servers on anchor a, n_c(s) of
    *servers* in s's component and one hop ``off_s`` per pendant s, the
    hop total is the sum over anchor pairs a < b of w_a w_b d(a, b), plus
    the sum over servers of off_s (n_c(s) - 1); the pair count is the sum
    over components of n_c (n_c - 1) / 2. Each level weighs a row's new
    bits by the source weights one bit plane at a time
    (``_weight_planes``); without pendants the one plane is a plain
    popcount. Hop totals and pair counts are exact integers.
    """
    anchor, off = _fold(graph, servers)
    anchors, slot, weight = np.unique(anchor[servers], return_inverse=True, return_counts=True)
    sub, row, n_sources = _linked_first(graph, anchors, anchors)
    linked = row[anchors] >= 0
    w = weight[linked]
    reach = np.zeros(n_sources, dtype=np.int64)  # servers reached per row
    total = 0
    block = None
    for start, width, level, new_bits in _bit_bfs(sub, n_sources):
        if start != block:
            block = start
            planes = _weight_planes(w[start : start + width])
        rows = new_bits[:n_sources]
        counts = sum(
            scale * _popcount(rows if mask is None else rows & mask) for scale, mask in planes
        )
        reach += counts
        total += level * int(w @ counts)
    in_component = weight.copy()
    in_component[linked] += reach
    # Pairs across anchors were reached from both of their ends.
    total = total // 2 + int(off[servers] @ (in_component[slot] - 1))
    pairs = int(w @ reach) // 2 + int((weight * (weight - 1)).sum()) // 2
    return float(total), pairs


def _bfs_distances(graph: sp.csr_matrix, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Hop distance over *graph* of each pair ``(left[i], right[i])``;
    ``inf`` where the two ends share no component.

    One ``_bit_bfs`` runs from the distinct left ends, and at each level
    pair i reads its bit out of the new-frontier row of ``right[i]``, so
    no distance matrix is built.
    """
    dist = np.where(left == right, 0.0, np.inf)
    sources, source_of = np.unique(left, return_inverse=True)
    sub, row, n_sources = _linked_first(graph, sources, right)
    # Linked sources hold the leading rows, so a left end's row is its
    # source index; -1 marks an end that was cut.
    src = row[sources][source_of]
    dst = row[right]
    block = None
    for start, width, level, new_bits in _bit_bfs(sub, n_sources):
        if start != block:
            block = start
            pick = np.flatnonzero((src >= start) & (src < start + width) & (dst >= 0))
            bit = src[pick] - start
            word = bit // 64
            mask = np.uint64(1) << (bit % 64).astype(np.uint64)
            ends = dst[pick]
        dist[pick[(new_bits[ends, word] & mask) != 0]] = level
    return dist


def _aspl_sampled(
    graph: sp.csr_matrix,
    servers: np.ndarray,
    n_pairs: int,
    rng: np.random.Generator,
) -> tuple[float, int]:
    """(hop total, pair count) over the same-component pairs among
    *n_pairs* pairs of *servers* drawn uniformly, self-pairs dropped.

    Each pair is measured between the anchors of its ends (``_fold``),
    plus their hops off them, so the BFS runs from distinct anchors.
    """
    left = servers[rng.integers(0, len(servers), size=n_pairs)]
    right = servers[rng.integers(0, len(servers), size=n_pairs)]
    keep = left != right
    left, right = left[keep], right[keep]
    anchor, off = _fold(graph, servers)
    dist = _bfs_distances(graph, anchor[left], anchor[right]) + (off[left] + off[right])
    reached = dist[np.isfinite(dist)]
    # Integer hop counts below 2**53: the float sum is exact.
    return float(reached.sum()), len(reached)


def remaining_capacity_ratio(part: SubnetworkPartition, capacities) -> float:
    """Capacity-weighted accessible ratio: sum of accessible-server
    capacities over the total, from one capacity per server."""
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
) -> SurvivalMetrics:
    """Array-level metric evaluation for the simulation hot path.

    Computes only the requested metric names over one degraded state given
    as alive masks, with the same formulas as the object-level API. ASPL is
    exact up to ``EXACT_ASPL_SERVER_LIMIT`` accessible servers; above it,
    the same bit-parallel BFS measures ``SAMPLED_ASPL_PAIRS`` pairs drawn
    from *aspl_rng*. Both run it from the anchors of the folded
    single-link servers (``_fold``), not from every server.
    """
    want = set(metrics)
    part = _partition_arrays(topology, node_alive, edge_alive)
    return SurvivalMetrics(
        asr=accessible_server_ratio(part) if "asr" in want else None,
        sc=server_connectivity(part) if "sc" in want else None,
        aspl=average_shortest_path_length(part, rng=aspl_rng) if "aspl" in want else None,
        rcr_cpu=remaining_capacity_ratio(part, cpu) if "rcr_cpu" in want else None,
        rcr_mem=remaining_capacity_ratio(part, mem) if "rcr_mem" in want else None,
    )
