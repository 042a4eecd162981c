"""Connectivity and survivability metrics on a degraded topology.

A server counts as accessible only while some path of surviving links and
switches connects it to a surviving gateway. All operations are pure
functions of (topology, removal sets); a shared immutable topology can be
evaluated against many degradations concurrently.

One engine serves both APIs: ``_alive_after`` builds the alive masks of a
set of removals, ``_partition_arrays`` turns them into a
``SubnetworkPartition`` (the servers that reach a gateway, and the
surviving graph), and each metric has one formula over it that
``evaluate`` (the simulation hot path) and the object-level API share.

Graphs are plain CSR arrays (``CsrGraph``) sliced from one cached pattern
per topology, and every traversal is numpy. One reach kernel (``_reach``)
serves the partition and the critical-point probe: a BFS tree of the
intact graph, cut at its dead slots, then pull rounds that reach what
those cut off over the live slots. Components are labelled by min-label
propagation, for server connectivity alone, and ASPL is a bit-parallel
BFS. No scipy is imported.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .topology import Topology, _as_int, derived

__all__ = [
    "CsrGraph",
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
    if nodes_removed:  # skips two gathers per link-only sweep sample
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
        links = (
            [_as_int(end, "each end of removed_links", ValueError) for end in link]
            for link in self.removed_links
        )
        object.__setattr__(
            self, "removed_links", frozenset((u, v) if u < v else (v, u) for u, v in links)
        )
        for name in ("removed_switches", "removed_servers"):
            nodes = (_as_int(node, f"each of {name}", ValueError) for node in getattr(self, name))
            object.__setattr__(self, name, frozenset(nodes))
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
def _pattern(topology: Topology) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(indices, indptr, slot_edge): the canonical CSR pattern, columns
    ascending in each row, of the links and of one edge from each gateway
    to a super-root (node ``n_nodes``), both directions, and the edge each
    slot holds, numbered from 0: links first, then gateway edges."""
    n, gateways = topology.n_nodes, topology.gateways
    u = np.concatenate([topology.edges_u, gateways])
    v = np.concatenate([topology.edges_v, np.full(len(gateways), n)])
    row, col = np.concatenate([u, v]), np.concatenate([v, u])
    order = np.argsort(row * (n + 1) + col, kind="stable")  # by row, then column
    indptr = np.concatenate([[0], np.cumsum(np.bincount(row, minlength=n + 1))])
    return col[order].astype(np.int32), indptr, order % len(u)


class CsrGraph(NamedTuple):
    """An unweighted graph as plain CSR arrays: node v's neighbours are
    ``indices[indptr[v]:indptr[v + 1]]``."""

    indices: np.ndarray
    indptr: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        n = len(self.indptr) - 1
        return n, n


def _row_slots(indptr: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(slots, bounds): the slots of each of *rows* in turn, row i's at
    ``slots[bounds[i]:bounds[i + 1]]``."""
    start = indptr[rows]
    counts = indptr[rows + 1] - start
    bounds = np.concatenate([[0], np.cumsum(counts)])
    return np.arange(bounds[-1]) + np.repeat(start - bounds[:-1], counts), bounds


def _subgraph(topology: Topology, edge_alive: np.ndarray) -> CsrGraph:
    """The surviving links, both directions, sliced from ``_pattern`` by
    each slot's edge: columns ascending in each row, one row per node."""
    indices, indptr, slot_edge = _pattern(topology)
    gateway_edges = np.zeros(len(topology.gateways), dtype=bool)
    keep = np.concatenate([edge_alive, gateway_edges])[slot_edge]
    indptr = np.concatenate([[0], np.cumsum(keep)])[indptr[: topology.n_nodes + 1]]
    return CsrGraph(indices[keep], indptr)


@dataclass(frozen=True)
class SubnetworkPartition:
    """The servers that reach a surviving gateway, and the surviving graph.

    The graph's components are labelled on first use, for server
    connectivity alone.
    """

    accessible_server_mask: np.ndarray  # bool per original server id
    n_servers_total: int
    graph: CsrGraph  # surviving links, both directions

    @cached_property
    def _accessible_counts(self) -> np.ndarray:
        """Accessible servers per component label of ``graph``."""
        labels = _component_labels(self.graph)[1][: self.n_servers_total]
        return np.bincount(labels[self.accessible_server_mask])

    @property
    def accessible_server_total(self) -> int:
        return int(np.count_nonzero(self.accessible_server_mask))


def _component_labels(graph: CsrGraph) -> tuple[int, np.ndarray]:
    """(count, labels): connected components numbered in the order of
    their first node, as a depth-first labelling from node 0 upward gives.

    Min-label propagation with hooking and pointer jumping (Shiloach and
    Vishkin, "An O(log n) parallel connectivity algorithm", J. Algorithms
    3, 1982): each round, every linked node and the node its label names
    both take the least label among its neighbours', then every label
    jumps to its label's label until none moves. Labels only fall and
    always name a node of their own component. A round that moves nothing
    leaves both ends of every link with one label, so each component
    holds one label, which is its least node: that node's label cannot
    fall below it. Ranking those nodes gives the numbering.
    """
    indices, indptr = graph
    rows = np.flatnonzero(np.diff(indptr))
    starts = indptr[rows]
    label = np.arange(len(indptr) - 1)
    indices = indices.astype(np.intp)  # one conversion, not one per round
    while True:
        before = label.copy()
        low = np.minimum.reduceat(label[indices], starts)
        np.minimum.at(label, label[rows], low)
        label[rows] = np.minimum(label[rows], low)
        while True:
            jumped = label[label]
            if np.array_equal(jumped, label):
                break
            label = jumped
        if np.array_equal(label, before):
            break
    first = np.cumsum(label == np.arange(len(label))) - 1
    return int(first[-1]) + 1, first[label]


def _probe_view(graph: CsrGraph, clusters: int) -> tuple:
    """(indices, indptr, slot, owner, target, kept, tree): the probe's view
    of a cluster graph whose nodes 0..clusters-1 are the server clusters,
    each with a row, and whose last node is the root (no cluster's anchor:
    the gateways are switches). The pendant clusters (``_fold``) are cut
    out; ``slot`` maps each slot kept to *graph*'s, ``owner`` names the
    cluster of each slot of the cluster rows, ``target`` lists each cluster
    kept and each pendant's anchor (a pendant reaches the root exactly when
    its one slot is live and its anchor does), and ``kept`` the nodes left.
    ``tree`` is a BFS tree of the intact view from the root, one
    ``(node, parent, slot)`` triple of arrays per layer: each node below
    the root, its parent one layer up and *graph*'s slot joining them."""
    anchor, off = _fold(graph, np.arange(clusters))
    cut = off.astype(bool)
    keep = ~cut[graph.indices] & ~np.repeat(cut, np.diff(graph.indptr))
    indptr = np.concatenate([[0], np.cumsum(keep)])[graph.indptr]
    indices, slot = graph.indices[keep].astype(np.intp), np.flatnonzero(keep)
    owner = np.repeat(np.arange(clusters), np.diff(graph.indptr[: clusters + 1]))
    seen = np.zeros(len(cut), dtype=bool)
    seen[-1] = True
    frontier, tree = np.flatnonzero(seen), []
    while len(frontier):
        slots, bounds = _row_slots(indptr, frontier)
        node, first = np.unique(indices[slots], return_index=True)
        fresh = ~seen[node]
        node, first = node[fresh], first[fresh]
        parent = np.repeat(frontier, np.diff(bounds))[first]
        tree.append((node, parent, slot[slots[first]]))
        seen[node] = True
        frontier = node
    is_target = np.zeros(len(cut), dtype=bool)
    is_target[anchor[:clusters]] = True  # np.unique(x) would import numpy.ma
    target = np.flatnonzero(is_target)
    # The last layer found no node.
    return indices, indptr, slot, owner, target, np.flatnonzero(~cut), tuple(tree[:-1])


@derived
def _server_view(topology: Topology) -> tuple:
    """The ``_probe_view`` of ``_pattern`` with each server its own cluster."""
    return _probe_view(CsrGraph(*_pattern(topology)[:2]), topology.n_servers)


def _reach(view: tuple, alive: np.ndarray, until: np.ndarray | None = None) -> np.ndarray:
    """Per node of the ``_probe_view`` *view*, whether it reaches the root
    over the slots *alive* flags, pendants aside: exact for every node at
    the fixpoint, or for the nodes of *until* once all of them are reached.

    The view's BFS tree seeds the search, one pass per layer: a node is
    reached when its parent is and its tree slot is live. Then each pull
    round gathers the slots of the nodes still unreached and reaches those
    with a live slot to a reached node, until every node of *until* is
    reached or a round reaches nothing new (Beamer, Asanovic and Patterson,
    "Direction-Optimizing Breadth-First Search", SC 2012). The seed holds
    only nodes with a live path, and at the fixpoint the first unreached
    node on any live path would have a reached, live neighbour.
    """
    indices, indptr, slot, _, _, rows, tree = view  # rows: the kept nodes
    reached = np.zeros(len(indptr) - 1, dtype=bool)
    reached[-1] = True
    for node, parent, tree_slot in tree:
        reached[node] = reached[parent] & alive[tree_slot]
    while until is None or not reached[until].all():
        rows = rows[~reached[rows]]
        slots, bounds = _row_slots(indptr, rows)
        pulled = alive[slot[slots]] & reached[indices[slots]]
        fresh = np.repeat(rows, np.diff(bounds))[pulled]
        if not len(fresh):
            break
        reached[fresh] = True
    return reached


def _all_servers_reach_gateway(graph: tuple, alive: np.ndarray, linked: bool = False) -> bool:
    """True iff every server reaches a surviving gateway, over the
    ``_probe_view`` *graph* of a cluster graph whose live slots *alive*
    flags: the probe of the certificate that checks each critical point
    the simulation's cut bound or widest paths give.

    A cluster with no live slot is stranded, so the probe fails at once;
    *linked* says the caller knows every cluster keeps one (as at a prefix
    at or below the cut bound), and skips that check. Otherwise it is
    ``_reach``, stopped once every target is reached.
    """
    owner, target = graph[3], graph[4]
    if not linked:
        live = np.zeros(owner[-1] + 1, dtype=bool)
        live[owner[alive[: len(owner)]]] = True
        linked = live.all()
    return bool(linked and _reach(graph, alive, target)[target].all())


def _partition_arrays(
    topology: Topology, node_alive: np.ndarray, edge_alive: np.ndarray
) -> SubnetworkPartition:
    """The live servers ``_reach`` joins to the root of the ``_server_view``,
    a ``_pattern`` slot live while its link, or gateway, is. A server with
    its first slot live to a reached node is reached too: every server has
    a link, and a pendant's one slot joins it to its anchor."""
    indices, indptr, slot_edge = _pattern(topology)
    alive = np.concatenate([edge_alive, node_alive[topology.gateways]])[slot_edge]
    reached = _reach(_server_view(topology), alive)
    n = topology.n_servers
    first = indptr[:n]
    mask = node_alive[:n] & (reached[:n] | (alive[first] & reached[indices[first]]))
    return SubnetworkPartition(mask, n, _subgraph(topology, edge_alive))


def partition(degraded: DegradedNetwork) -> SubnetworkPartition:
    """The servers that still reach a gateway, and the surviving graph."""
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
    *part*, over its surviving-link graph.

    Both modes fold each single-link server into its neighbour plus one
    hop (``_fold``), run one bit-parallel multi-source BFS (``_bit_bfs``)
    from the anchors, and count once per block of sources, from its
    reached bits and its bit-sliced pair distances. They differ only in
    the pairs they count: every pair up to ``EXACT_ASPL_SERVER_LIMIT``
    accessible servers (``_aspl_exact``), beyond that
    ``SAMPLED_ASPL_PAIRS`` uniformly random pairs drawn from *rng*
    (ValueError without one), measured from the distinct anchors of
    their left ends (``_aspl_sampled``). Cross-component pairs never contribute.
    """
    servers = np.flatnonzero(part.accessible_server_mask)
    if len(servers) < 2:
        return AsplEstimate(None, 0, True)
    exact = len(servers) <= EXACT_ASPL_SERVER_LIMIT
    if exact:
        total, pairs = _aspl_exact(part.graph, servers)
    elif rng is None:
        raise ValueError(
            f"{len(servers)} accessible servers exceed EXACT_ASPL_SERVER_LIMIT "
            f"({EXACT_ASPL_SERVER_LIMIT}): sampled ASPL needs an rng"
        )
    else:
        total, pairs = _aspl_sampled(part.graph, servers, SAMPLED_ASPL_PAIRS, rng)
    return AsplEstimate(total / pairs if pairs else None, pairs, exact)


def _popcount(words: np.ndarray) -> np.ndarray:
    """Set bits of each row of a 2-D ``uint64`` array."""
    return np.bitwise_count(words).sum(axis=1, dtype=np.int64)


def _fold(graph: CsrGraph, servers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
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
    off = np.zeros(graph.shape[0], dtype=np.int8)
    off[single[pendant]] = 1
    return anchor, off


def _linked_first(
    graph: CsrGraph, sources: np.ndarray, targets: np.ndarray
) -> tuple[CsrGraph, np.ndarray, int]:
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
    row = np.full(n, -1, dtype=np.intp)
    row[nodes] = np.arange(len(nodes))
    slots, bounds = _row_slots(graph.indptr, nodes)
    cols = row[graph.indices[slots]]
    keep = cols >= 0
    return CsrGraph(cols[keep], np.concatenate([[0], np.cumsum(keep)])[bounds]), row, len(head)


def _bit_bfs(graph: CsrGraph, n_sources: int, n_rows: int):
    """BFS from each of the first *n_sources* rows of *graph*, whose every
    row has a link: yields ``(start, width, seen, hops)`` per block.

    Bit-parallel multi-source BFS (Then et al., "The More the Merrier",
    PVLDB 8(4), 2014): each block of ``_ASPL_SOURCE_CHUNK`` sources, rows
    ``start`` to ``start + width``, gets one bit per source in every row's
    ``uint64`` words, and one level ORs the frontier rows of each row's
    neighbours and keeps the bits the row has not seen. ``seen[r]`` holds
    bit ``s - start`` exactly when row r is reachable from source row s,
    row s itself included. The distances are bit-sliced over the first
    *n_rows* rows: level l ORs its new bits into ``hops[j]`` for each set
    bit j of l, so row r is ``sum(2**j for j where hops[j][r] has bit
    s - start)`` hops from s. Neither may be written to.
    """
    starts, neighbours = graph.indptr[:-1], graph.indices
    for start in range(0, n_sources, _ASPL_SOURCE_CHUNK):
        width = min(_ASPL_SOURCE_CHUNK, n_sources - start)
        bit = np.arange(width)
        frontier = np.zeros((graph.shape[0], (width + 63) // 64), dtype=np.uint64)
        frontier[start + bit, bit // 64] = np.uint64(1) << (bit % 64).astype(np.uint64)
        seen, hops, level = frontier.copy(), [], 0
        while True:
            level += 1
            frontier = np.bitwise_or.reduceat(np.take(frontier, neighbours, axis=0), starts, axis=0)
            frontier &= ~seen
            if not frontier.any():
                break
            seen |= frontier
            if level == 1 << len(hops):  # the first level with bit len(hops)
                hops.append(np.zeros((n_rows, frontier.shape[1]), dtype=np.uint64))
            for j in range(len(hops)):
                if level >> j & 1:
                    hops[j] |= frontier[:n_rows]
        yield start, width, seen, hops


def _weight_planes(weights: np.ndarray, rows: int) -> list[tuple[int, np.ndarray | None]]:
    """``(2**j, mask)`` per bit j that some of *weights* has: the mask is
    *rows* rows of ``uint64`` words holding bit c where ``weights[c]`` has
    bit j, as in a ``_bit_bfs`` row; None where every weight has it. Whole
    rows, not one broadcast row, keep an AND with them one contiguous pass."""
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
            planes.append((1 << j, np.tile(mask, (rows, 1))))
    return planes


def _weigh(bits: np.ndarray, planes) -> np.ndarray:
    """Per row of *bits*, laid out as a ``_bit_bfs`` row, the sum of the
    weights whose bits are set, from their ``_weight_planes``."""
    return sum(scale * _popcount(bits if mask is None else bits & mask) for scale, mask in planes)


def _aspl_exact(graph: CsrGraph, servers: np.ndarray) -> tuple[float, int]:
    """(hop total, pair count) over the same-component pairs of *servers*.

    The servers are folded into their anchors (``_fold``), and one
    ``_bit_bfs`` runs from every distinct anchor with a link, over the
    graph without the pendants. With w_a servers on anchor a, n_c(s) of
    *servers* in s's component and one hop ``off_s`` per pendant s, the
    hop total is the sum over anchor pairs a < b of w_a w_b d(a, b), plus
    the sum over servers of off_s (n_c(s) - 1); the pair count is the sum
    over components of n_c (n_c - 1) / 2. Each source block is counted
    once: its reached bits give the servers each row reaches, and its
    bit-sliced hops the sum of their distances, both weighing a row's bits
    by the source weights one bit plane at a time (``_weigh``); without
    pendants the one plane is a plain popcount. Hop totals and pair counts
    are exact integers.
    """
    anchor, off = _fold(graph, servers)
    anchors, slot, weight = np.unique(anchor[servers], return_inverse=True, return_counts=True)
    sub, row, n_sources = _linked_first(graph, anchors, anchors)
    linked = row[anchors] >= 0
    w = weight[linked]
    reach = -w  # servers reached per row, less its own, which its seen bit holds
    total = 0
    for start, width, seen, hops in _bit_bfs(sub, n_sources, n_sources):
        planes = _weight_planes(w[start : start + width], n_sources)
        reach += _weigh(seen[:n_sources], planes)
        total += int(w @ sum((1 << j) * _weigh(bits, planes) for j, bits in enumerate(hops)))
    in_component = weight.copy()
    in_component[linked] += reach
    # Pairs across anchors were reached from both of their ends.
    total = total // 2 + int(off[servers] @ (in_component[slot] - 1))
    pairs = int(w @ reach) // 2 + int((weight * (weight - 1)).sum()) // 2
    return float(total), pairs


def _bfs_distances(graph: CsrGraph, ends, hops, n_pairs: int, rng) -> tuple[int, int]:
    """(hop total, pair count) over the pairs among *n_pairs* int32 draws (the
    values and stream state of int64 ones) of two indices into *ends* from
    *rng*, self-pairs dropped, whose ends share a component of *graph*: each
    adds their hop distance plus both ``hops``. One ``_bit_bfs`` runs from the
    distinct left ends; each block reads its pairs' bits once from its reached
    bits and its bit-sliced hops."""
    src = rng.integers(0, len(ends), size=n_pairs, dtype=np.int32)  # left ends
    dst = rng.integers(0, len(ends), size=n_pairs, dtype=np.int32)  # right ends
    left = np.zeros(graph.shape[0], dtype=bool)  # np.unique(x) would import numpy.ma
    left[ends[np.bincount(src, minlength=len(ends)) > 0]] = True
    sub, row, n_sources = _linked_first(graph, np.flatnonzero(left), ends)
    # Each end's row, or -1 - node where it was cut: equal codes, equal ends.
    code = np.where(row[ends] >= 0, row[ends], -1 - ends)
    code = code.astype(np.intp if len(row) * _ASPL_SOURCE_CHUNK >= 2**34 else np.int32)
    hop = np.take(hops, src) + np.take(hops, dst)
    twice = src == dst  # one index twice: dropped
    src, dst = np.take(code, src), np.take(code, dst)
    reached = ((src == dst) & ~twice).astype(np.uint8)  # 0 hops apart
    dst[twice] = -1  # masked with the cut ends, as its row's seen bit holds its source
    chunk, blocks = _ASPL_SOURCE_CHUNK, [0, n_pairs]
    if n_sources > chunk:
        order = np.argsort(src)
        src, dst, hop, reached = src[order], dst[order], hop[order], reached[order]
        blocks = [*np.searchsorted(src, np.arange(0, n_sources, chunk)), n_pairs]
    # Bit b of a row: bit b & 7 of little-endian byte b >> 3 (src becomes b >> 3, dst its address).
    mask = np.left_shift(np.uint8(1), src.astype(np.uint8) & 7)
    mask[(src < 0) | (dst < 0)] = 0  # a cut end reads row 0, masked
    np.maximum(dst, 0, out=dst)
    src = (np.maximum(src, 0, out=src) % chunk >> 3).astype(np.uint8)
    total = 0
    for start, _, seen, hop_planes in _bit_bfs(sub, n_sources, sub.shape[0]):
        part = slice(blocks[start // chunk], blocks[start // chunk + 1])
        dst[part] *= seen.shape[1] * 8  # bytes a row
        dst[part] += src[part]

        def hit(bits):  # np.take gathers by an int32 index about 3x faster than bits[index]
            return np.take(bits.astype("<u8", copy=False).view(np.uint8), dst[part]) & mask[part]

        reached[part] |= hit(seen)
        total += sum((1 << j) * int(np.count_nonzero(hit(b))) for j, b in enumerate(hop_planes))
    got = reached.astype(bool)
    return total + int(hop.sum(where=got)), int(np.count_nonzero(got))


def _aspl_sampled(
    graph: CsrGraph,
    servers: np.ndarray,
    n_pairs: int,
    rng: np.random.Generator,
) -> tuple[float, int]:
    """(hop total, pair count) over the same-component pairs among
    *n_pairs* pairs of *servers* drawn uniformly, self-pairs dropped.

    Each pair is measured between the anchors of its ends (``_fold``),
    plus their hops off them, so the BFS runs from distinct anchors.
    """
    anchor, off = _fold(graph, servers)
    total, pairs = _bfs_distances(graph, anchor[servers], off[servers], n_pairs, rng)
    # Integer hop counts below 2**53: the float sum is exact.
    return float(total), pairs


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
    from *aspl_rng*, then required. Both run it from the anchors of the
    folded single-link servers (``_fold``), not from every server, and
    count once per block of sources from its reached bits and bit-sliced distances.
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
