import math

import numpy as np
import pytest
import scipy.sparse as sp
from scipy import integrate
from scipy.sparse import csgraph

from dcn_robust import reachability, simulation
from dcn_robust.analytic import FailureType, MinCutSpec, _mean_lifetime
from dcn_robust.topology import (
    TopologyKind,
    TopologyParams,
    build_bcube,
    build_dcell,
    build_fat_tree,
    build_three_layer,
)


# The reliable-nmttf benchmark configurations (acceptance scale).
NMTTF_CONFIGS = [
    (TopologyParams(kind=TopologyKind.FAT_TREE, n=24), FailureType.LINK),
    (TopologyParams(kind=TopologyKind.FAT_TREE, n=24), FailureType.SWITCH),
    (TopologyParams(kind=TopologyKind.BCUBE, n=15, l=2), FailureType.LINK),
    (TopologyParams(kind=TopologyKind.BCUBE, n=15, l=2), FailureType.SWITCH),
    (TopologyParams(kind=TopologyKind.DCELL, n=7, l=2), FailureType.LINK),
    (TopologyParams(kind=TopologyKind.DCELL, n=7, l=2), FailureType.SWITCH),
    (TopologyParams(kind=TopologyKind.THREE_LAYER, n_a=12, n_e=48, pairs=6), FailureType.LINK),
]


@pytest.fixture(scope="session")
def tiny_topologies():
    """Small instances used by oracle-style tests."""
    return {
        "three-layer": build_three_layer(2, 3, 2),
        "fat-tree": build_fat_tree(4),
        "bcube": build_bcube(4, 1),
        "bcube-cell": build_bcube(2, 0),
        "bcube-2x2": build_bcube(2, 1),
        "dcell": build_dcell(4, 1),
    }


def bfs_distances(adj: list[list[int]], source: int) -> list[float]:
    """Plain BFS used as the independent oracle for path metrics."""
    dist = [float("inf")] * len(adj)
    dist[source] = 0
    queue = [source]
    while queue:
        nxt = []
        for u in queue:
            for v in adj[u]:
                if dist[v] == float("inf"):
                    dist[v] = dist[u] + 1
                    nxt.append(v)
        queue = nxt
    return dist


def degraded_adjacency(topo, removed_links=(), removed_switches=(), removed_servers=()):
    """Adjacency lists of the surviving graph (oracle-side construction)."""
    dead_nodes = set(removed_switches) | set(removed_servers)
    dead_links = {tuple(sorted(link)) for link in removed_links}
    adj = [[] for _ in range(topo.n_nodes)]
    for u, v in zip(topo.edges_u.tolist(), topo.edges_v.tolist()):
        if u in dead_nodes or v in dead_nodes or (u, v) in dead_links:
            continue
        adj[u].append(v)
        adj[v].append(u)
    return adj


def coo_subgraph(topo, edge_alive):
    """The surviving links, both directions, built from COO triples: the
    construction ``reachability._subgraph`` slices a cached pattern for."""
    u = topo.edges_u[edge_alive]
    v = topo.edges_v[edge_alive]
    n = topo.n_nodes
    data = np.ones(2 * len(u), dtype=np.int8)
    return sp.csr_matrix((data, (np.concatenate([u, v]), np.concatenate([v, u]))), shape=(n, n))


def scipy_graph(graph):
    """*graph* (a ``reachability.CsrGraph``) as the scipy matrix the
    csgraph oracles read."""
    return sp.csr_matrix((np.ones(len(graph.indices)), graph.indices, graph.indptr), graph.shape)


def oracle_server_clusters(topo) -> np.ndarray:
    """Each server's cluster under switch failures: scipy's connected
    components of the server-server links, renumbered in the order of
    each component's first server."""
    servers = topo.n_servers
    graph = coo_subgraph(topo, topo.edges_v < servers)[:servers, :servers]
    _, labels = csgraph.connected_components(graph, directed=False)
    _, first, inverse = np.unique(labels, return_index=True, return_inverse=True)
    return np.argsort(np.argsort(first))[inverse]


def oracle_all_reach(topo, node_alive, edge_alive) -> bool:
    """Oracle for ``reachability._all_servers_reach_gateway``: one scipy
    breadth-first search from a super-root joined to the surviving
    gateways, over the links *edge_alive* keeps; True iff it reaches
    every server *node_alive* keeps."""
    root = topo.n_nodes
    gateways = topo.gateways[node_alive[topo.gateways]]
    u = np.concatenate([topo.edges_u[edge_alive], gateways])
    v = np.concatenate([topo.edges_v[edge_alive], np.full(len(gateways), root)])
    graph = sp.csr_matrix((np.ones(len(u)), (u, v)), shape=(root + 1, root + 1))
    order = csgraph.breadth_first_order(graph, root, directed=False, return_predecessors=False)
    reached = np.zeros(root + 1, dtype=bool)
    reached[order] = True
    servers = topo.n_servers
    return bool((reached[:servers] | ~node_alive[:servers]).all())


def oracle_accessible_servers(topo, adj, removed_switches=()) -> set[int]:
    """Servers reachable from any surviving gateway (multi-source BFS)."""
    dead = set(removed_switches)
    seen = {g for g in topo.gateways.tolist() if g not in dead}
    queue = list(seen)
    while queue:
        u = queue.pop()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return {n for n in seen if n < topo.n_servers}


def slot_times(topo, failure, perm) -> np.ndarray:
    """Removal time of each slot of ``simulation._cluster_graph`` under the
    removal order *perm*, as ``simulation._critical_point`` reads them."""
    slot_edge = simulation._cluster_graph(topo, failure)[2]
    return simulation._edge_times(topo, failure, perm)[slot_edge]


def tree_stranding_times(topo, failure, perm) -> np.ndarray:
    """Oracle for ``simulation._stranding_times``: per server, the smallest
    removal time on its path to the super-root in a maximum spanning tree
    over the edges' removal times, -1 where it has no path.

    A maximum spanning tree keeps a maximin path between every pair of
    nodes (T. C. Hu, Oper. Res. 9, 1961), whichever one the solver
    returns. It runs on the full pattern, without clusters.
    """
    big_f = len(perm)
    root = topo.n_nodes
    indices, indptr, slot_edge = reachability._pattern(topo)
    row = np.repeat(np.arange(root + 1), np.diff(indptr))
    upper = row < indices  # each edge once
    times = simulation._edge_times(topo, failure, perm)[slot_edge[upper]]
    # Weights F + 1 - t lie in [1, F + 1]: csgraph reads a 0 as no edge.
    graph = sp.csr_matrix(
        ((big_f + 1.0) - times, (row[upper], indices[upper])), shape=(root + 1, root + 1)
    )
    tree = csgraph.minimum_spanning_tree(graph).tocoo()
    order, parent = csgraph.breadth_first_order(
        tree, root, directed=False, return_predecessors=True
    )
    child = np.where(parent[tree.col] == tree.row, tree.col, tree.row)
    up_time = np.empty(root + 1, dtype=np.int64)
    up_time[child] = big_f + 1 - tree.data.astype(np.int64)
    best = np.full(root + 1, -1, dtype=np.int64)
    best[root] = big_f
    for node in order[1:].tolist():  # each parent comes before its children
        best[node] = min(best[parent[node]], up_time[node])
    return best[: topo.n_servers]


def oracle_server_rings(topo):
    """Servers grouped by server-server links, each group with its switches.

    Returns ``(rings, unpaired, ungated)``: every group of servers joined by
    server-server links, paired with the switches those servers hang off;
    the servers that do not have exactly two server peers; and the
    switches that servers hang off but that are not gateways. In DCell
    with l = 2 every server has one level-1 and one level-2 peer, so
    ``unpaired`` is empty and the groups are rings. While ``ungated`` is
    empty and only switches fail, a server is stranded exactly when every
    switch of its group has failed: the first switch on any path out of
    the group is a gateway.
    """
    s = topo.n_servers
    peers = [[] for _ in range(s)]
    switch_of = [[] for _ in range(s)]
    switches = set()
    for u, v in zip(topo.edges_u.tolist(), topo.edges_v.tolist()):
        if u < s and v < s:
            peers[u].append(v)
            peers[v].append(u)
        elif u < s or v < s:
            server, switch = (u, v) if u < s else (v, u)
            switch_of[server].append(switch)
            switches.add(switch)
    rings = []
    seen = [False] * s
    for start in range(s):
        if seen[start]:
            continue
        seen[start] = True
        group = [start]
        for u in group:
            for v in peers[u]:
                if not seen[v]:
                    seen[v] = True
                    group.append(v)
        rings.append(
            (frozenset(group), frozenset(w for u in group for w in switch_of[u]))
        )
    unpaired = {u for u in range(s) if len(peers[u]) != 2}
    return rings, unpaired, switches - set(topo.gateways.tolist())


def mttf_numeric_quadrature(mincut: MinCutSpec, lifetime: float = 1.0) -> float:
    """Independent oracle for ``analytic.burtin_pittel_mttf``.

    Integrates the approximated reliability exp(-t^r c / E^r) over t in
    [0, inf) numerically, after the substitution x = t^r:
    ``(1/r) * int_0^inf x^(1/r-1) exp(-k x) dx`` with k = c / E^r.
    """
    mean = _mean_lifetime(lifetime)
    r, c = mincut.r, mincut.c
    k = c / mean**r
    # Beyond x0 the exponential factor is below 1e-18 of its peak; the
    # remaining tail is orders below the 1e-8 oracle tolerance.
    x0 = 42.0 / k
    if r == 1:
        value, err = integrate.quad(lambda x: math.exp(-k * x), 0.0, x0, epsabs=0, epsrel=1e-12)
    else:
        # x^(1/r-1) is an integrable endpoint singularity; integrate it as
        # an algebraic weight so the quadrature sees only the smooth part.
        value, err = integrate.quad(
            lambda x: math.exp(-k * x),
            0.0,
            x0,
            weight="alg",
            wvar=(1.0 / r - 1.0, 0.0),
            epsabs=0,
            epsrel=1e-12,
        )
    if not math.isfinite(value) or (value > 0 and err / value > 1e-9):
        raise ArithmeticError(f"quadrature did not converge: value={value}, err={err}")
    return value / r
