import tracemalloc

import numpy as np
import pytest
from scipy.sparse import csgraph

from dcn_robust import reachability, simulation
from dcn_robust.analytic import FailureType
from dcn_robust.reachability import (
    AsplEstimate,
    DegradedNetwork,
    SurvivalMetrics,
    accessible_server_ratio,
    average_shortest_path_length,
    evaluate,
    partition,
    remaining_capacity_ratio,
    server_connectivity,
    _ASPL_SOURCE_CHUNK,
    _alive_after,
    _all_servers_reach_gateway,
    _aspl_exact,
    _aspl_sampled,
    _bfs_distances,
    _bit_bfs,
    _component_labels,
    _fold,
    _linked_first,
    _partition_arrays,
    _popcount,
    _subgraph,
)
from dcn_robust.simulation import ElementClass, _element_pool, sample_rng
from dcn_robust.topology import (
    TopologyKind,
    build_bcube,
    build_dcell,
    build_fat_tree,
    build_three_layer,
    build_topology,
)

from conftest import (
    NMTTF_CONFIGS,
    bfs_distances,
    coo_subgraph,
    degraded_adjacency,
    oracle_accessible_servers,
    oracle_all_reach,
    scipy_graph,
    slot_times,
)


def switch_ids(topo):
    return np.arange(topo.n_servers, topo.n_nodes)


def oracle_hops(adj, servers):
    """Brute-force all-pairs BFS: (hop total, pair count) over the
    same-component pairs of *servers*."""
    servers = sorted(servers)
    total = 0
    pairs = 0
    for i, s in enumerate(servers):
        dist = bfs_distances(adj, s)
        for t in servers[i + 1 :]:
            if dist[t] != float("inf"):
                total += dist[t]
                pairs += 1
    return total, pairs


def oracle_aspl(topo, adj, accessible):
    """Brute-force all-pairs BFS over accessible servers, same component."""
    total, pairs = oracle_hops(adj, accessible)
    return (total / pairs if pairs else None), pairs


def dijkstra_hops(graph, servers):
    """(hop total, pair count) from scipy's unweighted Dijkstra, 512
    sources per call: the exact ASPL kernel the MS-BFS replaced."""
    graph = scipy_graph(graph)
    accessible = np.zeros(graph.shape[0], dtype=bool)
    accessible[servers] = True
    total = 0.0
    pairs = 0
    for start in range(0, len(servers), 512):
        dist = csgraph.shortest_path(
            graph, method="D", unweighted=True, directed=False,
            indices=servers[start : start + 512],
        )[:, accessible]
        finite = np.isfinite(dist)
        total += float(dist[finite].sum())
        pairs += int(finite.sum())
    # Ordered pairs counted both ways, plus one zero self-distance per server.
    return total / 2.0, (pairs - len(servers)) // 2


def dijkstra_sampled(graph, servers, n_pairs, rng):
    """(hop total, pair count) over *n_pairs* random pairs of *servers*,
    by one scipy Dijkstra per distinct left end in calls of 512 sources:
    the sampled ASPL kernel the bit-parallel BFS replaced."""
    graph = scipy_graph(graph)
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
    for c0 in range(0, len(uniq), 512):
        chunk = uniq[c0 : c0 + 512]
        dist = csgraph.shortest_path(
            graph, method="D", unweighted=True, directed=False, indices=chunk
        )
        for row in range(len(chunk)):
            i = c0 + row
            d = dist[row, right[bounds[i] : bounds[i + 1]]]
            finite = np.isfinite(d)
            total += float(d[finite].sum())
            pairs += int(finite.sum())
    return total, pairs


def removed_links(topo, rng, count):
    idx = rng.choice(topo.n_links, size=count, replace=False)
    return {(int(topo.edges_u[i]), int(topo.edges_v[i])) for i in idx}


def accessible_counts(part):
    """Accessible servers per component of the partition's graph that
    holds one, in label order."""
    labels = _component_labels(part.graph)[1][: part.n_servers_total]
    return np.unique(labels[part.accessible_server_mask], return_counts=True)[1].tolist()


def split_fabric(topo, rng):
    """Link removals leaving several server-holding components, some with
    a surviving gateway and some without."""
    for _ in range(1000):
        degraded = DegradedNetwork(
            topo, removed_links=removed_links(topo, rng, rng.integers(1, topo.n_links))
        )
        part = partition(degraded)
        holding = len(np.unique(_component_labels(part.graph)[1][: topo.n_servers]))
        gated = len(accessible_counts(part))
        if holding >= 2 and 0 < gated < holding:
            return degraded
    raise AssertionError("no split found")


class TestPartition:
    def test_failure_free_single_component(self, tiny_topologies):
        for topo in tiny_topologies.values():
            part = partition(DegradedNetwork(topo))
            assert _component_labels(part.graph)[0] == 1
            assert accessible_counts(part) == [topo.n_servers]
            assert accessible_server_ratio(part) == 1.0
            assert server_connectivity(part) == 1.0

    def test_single_switch_cell_loses_everything(self):
        topo = build_bcube(2, 0)
        part = partition(DegradedNetwork(topo, removed_switches={2}))
        assert accessible_counts(part) == []
        assert accessible_server_ratio(part) == 0.0
        # the two servers survive as isolated components
        labels = _component_labels(part.graph)[1]
        assert labels[0] != labels[1] and not part.graph.indices.size

    def test_three_layer_losing_an_aggregation_pair_drops_its_module(self):
        topo = build_three_layer(2, 3, 2)  # 12 servers, 2 modules of 6
        pair = {topo.n_servers + 2, topo.n_servers + 3}
        part = partition(DegradedNetwork(topo, removed_switches=pair))
        assert accessible_counts(part) == [6]
        assert accessible_server_ratio(part) == 0.5
        lost = set(range(6))  # module 0 servers come first
        assert not (lost & set(np.flatnonzero(part.accessible_server_mask)))

    def test_matches_oracle_on_random_removals(self, tiny_topologies):
        rng = np.random.default_rng(7)
        for topo in tiny_topologies.values():
            for _ in range(25):
                k_sw = rng.integers(0, topo.n_switches + 1)
                k_ln = rng.integers(0, topo.n_links // 2 + 1)
                switches = set(
                    int(s)
                    for s in rng.choice(switch_ids(topo), size=k_sw, replace=False)
                )
                links = removed_links(topo, rng, k_ln)
                degraded = DegradedNetwork(
                    topo, removed_links=links, removed_switches=switches
                )
                part = partition(degraded)
                adj = degraded_adjacency(topo, links, switches)
                expected = oracle_accessible_servers(topo, adj, switches)
                assert set(np.flatnonzero(part.accessible_server_mask)) == expected

    def test_rejects_wrong_ids(self, tiny_topologies):
        topo = tiny_topologies["bcube"]
        with pytest.raises(ValueError):
            DegradedNetwork(topo, removed_servers={topo.n_nodes - 1})
        with pytest.raises(ValueError):
            DegradedNetwork(topo, removed_switches={0})
        with pytest.raises(ValueError, match=r"removed link \(0, 1\) is not in the topology"):
            DegradedNetwork(topo, removed_links={(0, 1)})
        known = (int(topo.edges_u[0]), int(topo.edges_v[0]))
        with pytest.raises(ValueError, match=r"removed link \(0, 1\)"):
            DegradedNetwork(topo, removed_links={known, (1, 0)})

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("removed_switches", {16.5}, "each of removed_switches must be an integer, got 16.5"),
            ("removed_servers", {True}, "each of removed_servers must be an integer, got true"),
            ("removed_links", {(0.0, 16)}, "each end of removed_links must be an integer, got 0.0"),
            ("removed_links", {(True, 16)}, "end of removed_links must be an integer, got true"),
        ],
        ids=["switch-16.5", "server-true", "link-float-end", "link-bool-end"],
    )
    def test_refuses_ids_that_are_no_integers(self, field, value, message):
        # On fat-tree 4, 16.5 would remove switch 16 and True server 1.
        with pytest.raises(ValueError, match=message):
            DegradedNetwork(build_fat_tree(4), **{field: value})

    def test_stores_numpy_ids_as_ints(self):
        topo = build_fat_tree(4)
        link = (np.int64(topo.edges_v[0]), np.int32(topo.edges_u[0]))
        degraded = DegradedNetwork(
            topo,
            removed_links={link},
            removed_switches={np.int64(16)},
            removed_servers=np.array([1]),
        )
        assert degraded == DegradedNetwork(
            topo,
            removed_links={(int(topo.edges_u[0]), int(topo.edges_v[0]))},
            removed_switches={16},
            removed_servers={1},
        )
        ids = [*degraded.removed_switches, *degraded.removed_servers]
        ids += [end for link in degraded.removed_links for end in link]
        assert all(type(x) is int for x in ids)

    def test_masks_are_the_engine_masks(self, tiny_topologies):
        # The object API's masks come from the engine's one mask builder.
        rng = np.random.default_rng(41)
        for topo in tiny_topologies.values():
            for _ in range(10):
                edges = rng.choice(topo.n_links, size=rng.integers(0, topo.n_links), replace=False)
                switches = rng.choice(
                    switch_ids(topo), size=rng.integers(0, topo.n_switches + 1), replace=False
                )
                servers = rng.choice(
                    topo.n_servers, size=rng.integers(0, topo.n_servers + 1), replace=False
                )
                # Each link in a random endpoint order.
                ends = np.stack([topo.edges_u[edges], topo.edges_v[edges]], axis=1)
                flip = rng.random(len(edges)) < 0.5
                ends[flip] = ends[flip][:, ::-1]
                degraded = DegradedNetwork(
                    topo,
                    removed_links={(int(u), int(v)) for u, v in ends},
                    removed_switches=set(switches.tolist()),
                    removed_servers=set(servers.tolist()),
                )
                node_alive, edge_alive = _alive_after(
                    topo, [(edges, False), (switches, True), (servers, True)]
                )
                assert np.array_equal(degraded.node_alive, node_alive)
                assert np.array_equal(degraded.edge_alive, edge_alive)


class TestRatios:
    def test_all_accessible_even_when_split(self):
        # two accessible halves of 50 each
        part_like = partition(DegradedNetwork(build_bcube(2, 0)))
        assert accessible_server_ratio(part_like) == 1.0

    def test_asr_example_70_of_100(self, tiny_topologies):
        # direct arithmetic on the contract
        topo = build_three_layer(2, 5, 10)  # 100 servers, modules of 10
        pairs = [{topo.n_servers + 2 + 2 * m, topo.n_servers + 3 + 2 * m} for m in range(3)]
        removed = set().union(*pairs)
        part = partition(DegradedNetwork(topo, removed_switches=removed))
        assert accessible_server_ratio(part) == pytest.approx(0.7)

    def test_sc_two_equal_components(self):
        # Core 12 keeps only aggregation pair (14, 15) and core 13 only
        # (16, 17): two accessible modules of 6 servers each.
        topo = build_three_layer(2, 3, 2)
        cut = {(12, 16), (12, 17), (13, 14), (13, 15)}
        part = partition(DegradedNetwork(topo, removed_links=cut))
        assert accessible_counts(part) == [6, 6]
        assert server_connectivity(part) == 5 / 11  # 2 * 6 * 5 / (12 * 11)

    def test_sc_degenerate_is_zero(self):
        topo = build_bcube(2, 0)
        part = partition(DegradedNetwork(topo, removed_servers={1}))
        assert accessible_counts(part) == [1]
        assert server_connectivity(part) == 0.0

    def test_sc_one_if_single_accessible_component(self, tiny_topologies):
        topo = tiny_topologies["dcell"]
        part = partition(DegradedNetwork(topo, removed_servers={0, 5}))
        assert accessible_counts(part) == [topo.n_servers - 2]
        assert server_connectivity(part) == 1.0

    def test_asr_monotone_under_removal_chains(self, tiny_topologies):
        rng = np.random.default_rng(13)
        for topo in tiny_topologies.values():
            switches = switch_ids(topo).copy()
            rng.shuffle(switches)
            last = 1.0
            for k in range(len(switches) + 1):
                part = partition(
                    DegradedNetwork(topo, removed_switches=set(switches[:k].tolist()))
                )
                asr = accessible_server_ratio(part)
                assert asr <= last + 1e-12
                last = asr


class TestAspl:
    def test_shared_switch_pair(self):
        topo = build_bcube(2, 0)
        est = average_shortest_path_length(partition(DegradedNetwork(topo)))
        assert est == AsplEstimate(2.0, 1, True)

    def test_fat_tree_4_failure_free_matches_bfs_oracle(self):
        topo = build_fat_tree(4)
        adj = degraded_adjacency(topo)
        expected, pairs = oracle_aspl(topo, adj, set(range(topo.n_servers)))
        est = average_shortest_path_length(partition(DegradedNetwork(topo)))
        assert est.pairs == pairs == 120
        assert est.hops == pytest.approx(expected)
        # frozen oracle value: 8 same-edge pairs at 2, 16 same-pod at 4, 96 at 6
        assert est.hops == pytest.approx(656 / 120)

    def test_dcell_4_1_failure_free_regression(self):
        topo = build_dcell(4, 1)
        adj = degraded_adjacency(topo)
        expected, _ = oracle_aspl(topo, adj, set(range(topo.n_servers)))
        est = average_shortest_path_length(partition(DegradedNetwork(topo)))
        assert est.hops == pytest.approx(expected)
        assert est.hops == pytest.approx(670 / 190)  # frozen from the oracle

    def test_matches_oracle_under_removals(self, tiny_topologies):
        rng = np.random.default_rng(5)
        for topo in tiny_topologies.values():
            links = removed_links(topo, rng, topo.n_links // 4)
            degraded = DegradedNetwork(topo, removed_links=links)
            part = partition(degraded)
            adj = degraded_adjacency(topo, links)
            accessible = oracle_accessible_servers(topo, adj)
            expected, pairs = oracle_aspl(topo, adj, accessible)
            est = average_shortest_path_length(part)
            if expected is None:
                assert est.hops is None
            else:
                assert est.pairs == pairs
                assert est.hops == pytest.approx(expected)

    def test_undefined_below_two_servers(self):
        topo = build_bcube(2, 0)
        est = average_shortest_path_length(
            partition(DegradedNetwork(topo, removed_servers={0}))
        )
        assert est.hops is None or est.pairs == 0
        est = average_shortest_path_length(
            partition(DegradedNetwork(topo, removed_switches={2}))
        )
        assert est.hops is None
        assert est.pairs == 0

    def test_sampled_mode_needs_an_rng(self, monkeypatch):
        topo = build_fat_tree(8)  # 128 servers
        degraded = DegradedNetwork(topo)
        part = partition(degraded)
        assert average_shortest_path_length(part).exact  # the exact mode draws nothing
        monkeypatch.setattr(reachability, "EXACT_ASPL_SERVER_LIMIT", 10)
        limit = r"128 accessible servers exceed EXACT_ASPL_SERVER_LIMIT \(10\)"
        with pytest.raises(ValueError, match=limit):
            average_shortest_path_length(part)
        with pytest.raises(ValueError, match=limit):
            evaluate(topo, degraded.node_alive, degraded.edge_alive, ("aspl",))
        # Given a generator, the estimate is the one drawn before the
        # unseeded fallback was refused.
        est = average_shortest_path_length(part, rng=np.random.default_rng(7))
        assert est == AsplEstimate(5.7160460215183875, 99171, False)
        row = evaluate(
            topo, degraded.node_alive, degraded.edge_alive, ("aspl",),
            aspl_rng=np.random.default_rng(7),
        )
        assert row.aspl == est

    def test_sampled_mode_agrees_with_exact(self, monkeypatch):
        topo = build_fat_tree(8)  # 128 servers
        degraded = DegradedNetwork(topo)
        exact = average_shortest_path_length(partition(degraded))
        monkeypatch.setattr(reachability, "EXACT_ASPL_SERVER_LIMIT", 10)
        monkeypatch.setattr(reachability, "SAMPLED_ASPL_PAIRS", 30_000)
        sampled = average_shortest_path_length(partition(degraded), rng=np.random.default_rng(11))
        assert not sampled.exact
        assert sampled.pairs > 0
        assert sampled.hops == pytest.approx(exact.hops, rel=0.02)


class TestAsplKernel:
    """``_aspl_exact`` is pinned integer-equal to the oracles."""

    @staticmethod
    def assert_matches_oracle(degraded, min_accessible=0):
        topo = degraded.topology
        adj = degraded_adjacency(
            topo, degraded.removed_links, degraded.removed_switches, degraded.removed_servers
        )
        graph = _subgraph(topo, degraded.edge_alive)
        accessible = oracle_accessible_servers(topo, adj, degraded.removed_switches)
        assert len(accessible) > min_accessible
        surviving = set(np.flatnonzero(degraded.node_alive[: topo.n_servers]).tolist())
        # The kernel counts same-component pairs of any server set; the
        # surviving set adds components without a gateway.
        for servers in (accessible, surviving):
            ids = np.array(sorted(servers), dtype=np.int64)
            assert _aspl_exact(graph, ids) == oracle_hops(adj, servers)

    def test_matches_bfs_oracle_intact_and_split(self, tiny_topologies):
        rng = np.random.default_rng(23)
        for topo in tiny_topologies.values():
            self.assert_matches_oracle(DegradedNetwork(topo))
            self.assert_matches_oracle(split_fabric(topo, rng))

    def test_sources_spanning_several_words(self):
        topo = build_fat_tree(8)  # 128 servers
        rng = np.random.default_rng(29)
        links = removed_links(topo, rng, topo.n_links // 5)
        self.assert_matches_oracle(DegradedNetwork(topo, removed_links=links), 64)

    def test_sources_spanning_several_blocks(self):
        topo = build_fat_tree(14)  # 686 servers
        rng = np.random.default_rng(31)
        switches = set(rng.choice(switch_ids(topo), size=20, replace=False).tolist())
        self.assert_matches_oracle(
            DegradedNetwork(topo, removed_switches=switches), _ASPL_SOURCE_CHUNK
        )

    def test_folds_pendants_onto_server_anchors(self):
        # DCell(4,1): server 0 keeps only its link to server 4, which has a
        # second link, so server 4 (itself in the set) is its anchor.
        # Servers 1 and 8 keep only their link to each other: a two-server
        # component without a gateway, where neither folds into the other.
        topo = build_dcell(4, 1)
        degraded = DegradedNetwork(topo, removed_links={(0, 20), (1, 20), (8, 22)})
        anchor, off = _fold(_subgraph(topo, degraded.edge_alive), np.arange(topo.n_servers))
        assert (anchor[0], off[0], off[4]) == (4, 1, 0)
        assert (anchor[[1, 8]].tolist(), off[[1, 8]].tolist()) == ([1, 8], [0, 0])
        self.assert_matches_oracle(degraded)

    @pytest.mark.parametrize("chunk", [_ASPL_SOURCE_CHUNK, 64])
    def test_weights_spanning_four_bit_planes(self, chunk, monkeypatch):
        monkeypatch.setattr(reachability, "_ASPL_SOURCE_CHUNK", chunk)
        # BCube(9,1): server s links to switches 81 + s // 9 and 90 + s % 9.
        # Cutting the second link leaves 8, 5 and 2 pendant servers on
        # switches 81, 82 and 83, so the anchor weights 1, 2, 5 and 8 fill
        # bit planes 0 to 3, and the 69 anchors end on a partial word.
        topo = build_bcube(9, 1)
        cut = [*range(0, 8), *range(9, 14), 18, 19]
        degraded = DegradedNetwork(topo, removed_links={(s, 90 + s % 9) for s in cut})
        anchor, _ = _fold(_subgraph(topo, degraded.edge_alive), np.arange(topo.n_servers))
        anchors, weight = np.unique(anchor[: topo.n_servers], return_counts=True)
        assert sorted(weight[anchors >= topo.n_servers].tolist()) == [2, 5, 8]
        assert len(anchors) == 69
        self.assert_matches_oracle(degraded)

    @pytest.mark.parametrize("words", [[0], [1], [1 << 63], [2**64 - 1], [0, 1, 1 << 63, 2**64 - 1]])
    def test_popcount_matches_bin_count(self, words):
        rows = np.array(words, dtype=np.uint64).reshape(-1, 1)
        assert _popcount(rows).tolist() == [bin(w).count("1") for w in words]
        row = rows.reshape(1, -1)
        assert _popcount(row).tolist() == [sum(bin(w).count("1") for w in words)]

    @pytest.mark.parametrize(
        "build, args",
        [
            (build_three_layer, (12, 48, 6)),
            (build_fat_tree, (24,)),
            (build_bcube, (58, 1)),
            (build_bcube, (15, 2)),
            (build_bcube, (5, 4)),
            (build_dcell, (58, 1)),
            (build_dcell, (7, 2)),
        ],
        ids=lambda v: getattr(v, "__name__", str(v)),
    )
    def test_matches_dijkstra_on_acceptance_configurations(self, build, args):
        # One link-FER-0.4 sample per acceptance configuration.
        topo = build(*args)
        rng = np.random.default_rng(37)
        degraded = DegradedNetwork(
            topo, removed_links=removed_links(topo, rng, int(0.4 * topo.n_links))
        )
        servers = np.flatnonzero(partition(degraded).accessible_server_mask)
        graph = _subgraph(topo, degraded.edge_alive)
        assert len(servers) > _ASPL_SOURCE_CHUNK
        assert _aspl_exact(graph, servers) == dijkstra_hops(graph, servers)


class TestAsplSampled:
    """``_aspl_sampled`` is pinned integer-equal to the Dijkstra oracle it
    replaced, drawing the same pairs from the same stream."""

    @staticmethod
    def assert_matches_oracle(graph, servers, n_pairs, seed):
        rng = np.random.default_rng(seed)
        assert _aspl_sampled(graph, servers, n_pairs, rng) == dijkstra_sampled(
            graph, servers, n_pairs, np.random.default_rng(seed)
        )
        # The kernel spends exactly the two pair draws of the stream.
        twin = np.random.default_rng(seed)
        twin.integers(0, len(servers), size=n_pairs)
        twin.integers(0, len(servers), size=n_pairs)
        assert rng.bit_generator.state == twin.bit_generator.state

    def test_matches_oracle_intact_and_split(self, tiny_topologies):
        rng = np.random.default_rng(43)
        for topo in tiny_topologies.values():
            for degraded in (DegradedNetwork(topo), split_fabric(topo, rng)):
                graph = _subgraph(topo, degraded.edge_alive)
                accessible = partition(degraded).accessible_server_mask
                surviving = degraded.node_alive[: topo.n_servers]
                for servers in (accessible, surviving):
                    self.assert_matches_oracle(graph, np.flatnonzero(servers), 2000, 47)

    def test_estimate_over_the_limit(self, monkeypatch):
        topo = build_fat_tree(8)  # 128 servers
        monkeypatch.setattr(reachability, "EXACT_ASPL_SERVER_LIMIT", 10)
        rng = np.random.default_rng(53)
        degraded = DegradedNetwork(topo, removed_links=removed_links(topo, rng, 40))
        part = partition(degraded)
        servers = np.flatnonzero(part.accessible_server_mask)
        total, pairs = dijkstra_sampled(
            part.graph, servers, reachability.SAMPLED_ASPL_PAIRS, np.random.default_rng(59)
        )
        est = average_shortest_path_length(part, rng=np.random.default_rng(59))
        assert est == AsplEstimate(total / pairs, pairs, False)
        self.assert_matches_oracle(part.graph, servers, reachability.SAMPLED_ASPL_PAIRS, 59)

    def test_fat_tree_26_link_fer_005(self):
        # The size the benchmark's sampled operation runs at.
        topo = build_fat_tree(26)
        rng = np.random.default_rng(61)
        degraded = DegradedNetwork(
            topo, removed_links=removed_links(topo, rng, round(0.05 * topo.n_links))
        )
        part = partition(degraded)
        servers = np.flatnonzero(part.accessible_server_mask)
        assert len(servers) > reachability.EXACT_ASPL_SERVER_LIMIT
        self.assert_matches_oracle(part.graph, servers, reachability.SAMPLED_ASPL_PAIRS, 67)
        # No per-pair array wider than the int32 draws: 100 000 pairs took
        # an 11 MiB transient when each had int64 ends and a float distance.
        tracemalloc.start()
        try:
            _aspl_sampled(
                part.graph, servers, reachability.SAMPLED_ASPL_PAIRS, np.random.default_rng(67)
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * 2**20

    def test_dcell_link_failures_fold_onto_servers(self):
        topo = build_dcell(4, 2)  # 420 servers
        rng = np.random.default_rng(73)
        degraded = DegradedNetwork(
            topo, removed_links=removed_links(topo, rng, round(0.3 * topo.n_links))
        )
        part = partition(degraded)
        servers = np.flatnonzero(part.accessible_server_mask)
        anchor, off = _fold(part.graph, servers)
        # Some pendant servers hang on a server, not on a switch.
        assert (anchor[servers][off[servers] == 1] < topo.n_servers).any()
        self.assert_matches_oracle(part.graph, servers, 20_000, 79)


def unpack(words, width):
    """Bit c of each row of a ``_bit_bfs`` block as column c, padding included."""
    bits = np.unpackbits(words.astype("<u8").view(np.uint8), axis=1, bitorder="little")
    assert not bits[:, width:].any()
    return bits[:, :width].astype(np.int64)


class TestBitBfs:
    """``_bit_bfs``'s blocks decode, pair by pair, to the BFS oracle:
    reachability from ``seen`` and the distance from the hop planes."""

    @pytest.mark.parametrize("chunk", [_ASPL_SOURCE_CHUNK, 64, 128])
    @pytest.mark.parametrize("planes_of", ["sources", "all rows"])
    def test_decodes_to_bfs_oracle(self, chunk, planes_of, monkeypatch):
        monkeypatch.setattr(reachability, "_ASPL_SOURCE_CHUNK", chunk)
        topo = build_fat_tree(8)  # 208 nodes
        rng = np.random.default_rng(87)  # leaves two components with a link
        links = removed_links(topo, rng, topo.n_links // 3)
        adj = degraded_adjacency(topo, links)
        graph = _subgraph(topo, DegradedNetwork(topo, removed_links=links).edge_alive)
        ends = np.sort(rng.choice(topo.n_nodes, 170, replace=False))
        sub, row, n_sources = _linked_first(graph, ends, ends)
        n_rows = n_sources if planes_of == "sources" else sub.shape[0]
        # Blocks of 64 end on a partial word; at 128 the last block has
        # fewer words per row than the first.
        assert n_sources > 2 * 64 and n_sources % 64 and n_sources % 128 <= 64
        assert sub.shape[0] > n_sources
        node = np.empty(sub.shape[0], dtype=np.int64)
        node[row[row >= 0]] = np.flatnonzero(row >= 0)
        blocks, dists = [], []
        for start, width, seen, hops in _bit_bfs(sub, n_sources, n_rows):
            blocks.append((start, width))
            words = (width + 63) // 64
            assert seen.shape == (sub.shape[0], words)
            assert all(bits.shape == (n_rows, words) for bits in hops)
            reach = unpack(seen, width)
            hop = sum((1 << j) * unpack(bits, width) for j, bits in enumerate(hops))
            for c in range(width):
                d = np.array(bfs_distances(adj, int(node[start + c])))[node]
                assert reach[:, c].tolist() == (d < np.inf).tolist()
                assert hop[:, c].tolist() == np.where(d < np.inf, d, 0)[:n_rows].tolist()
                assert d[start + c] == 0 and reach[start + c, c] == 1
                dists.extend(d.tolist())
        assert blocks == [(s, min(chunk, n_sources - s)) for s in range(0, n_sources, chunk)]
        assert np.inf in dists and max(d for d in dists if d < np.inf) >= 4


class PresetPairs:
    """Stands in for the generator ``_bfs_distances`` draws from: hands out
    the given left ends, then the given right ends."""

    def __init__(self, left, right):
        self.draws = [left, right]

    def integers(self, low, high, size, dtype):
        draw = np.asarray(self.draws.pop(0), dtype=dtype)
        assert low == 0 and draw.shape == (size,) and (draw < high).all()
        return draw


class TestBfsDistances:
    """``_bfs_distances`` is pinned pair by pair to the BFS oracle, and
    over a whole batch, whose sources span several blocks."""

    # At 2**30 sources a block, the byte addresses are int64 (see ``code``).
    @pytest.mark.parametrize("chunk", [_ASPL_SOURCE_CHUNK, 64, 128, 2**30])
    def test_matches_bfs_oracle(self, chunk, monkeypatch):
        monkeypatch.setattr(reachability, "_ASPL_SOURCE_CHUNK", chunk)
        topo = build_fat_tree(8)  # 208 nodes
        n = topo.n_nodes
        rng = np.random.default_rng(71)
        links = removed_links(topo, rng, topo.n_links // 3)
        links.add((0, int(topo.edges_v[topo.edges_u == 0][0])))  # server 0's one link
        adj = degraded_adjacency(topo, links)
        assert adj[0] == []
        graph = _subgraph(topo, DegradedNetwork(topo, removed_links=links).edge_alive)
        # 180 distinct left ends, server 0 among them, each repeated; those
        # with a link fill blocks of 64 and end on a partial word, and at
        # 128 a last block with fewer words per row than the first.
        sources = np.concatenate([[0], rng.choice(np.arange(1, n), 179, replace=False)])
        linked = sum(1 for s in sources.tolist() if adj[s])
        assert linked > 2 * 64 and linked % 64 and linked % 128 <= 64
        left = np.concatenate([sources, rng.choice(sources, size=450)])
        right = rng.integers(0, n, size=len(left))
        right[:5] = left[:5]
        # Two indices per node, so that a pair of one node at two indices
        # counts (0 hops apart) while a pair of one index does not.
        ends = np.concatenate([np.arange(n), np.arange(n)])
        hops = rng.integers(0, 3, size=2 * n)
        oracle = {int(s): bfs_distances(adj, int(s)) for s in sources}
        expected = []
        for s, t in zip(left.tolist(), right.tolist()):
            d = oracle[s][t]
            expected.append((int(d) + hops[s] + hops[n + t], 1) if d < np.inf else (0, 0))
            got = _bfs_distances(graph, ends, hops, 1, PresetPairs([s], [n + t]))
            assert got == expected[-1], (s, t)
        assert _bfs_distances(graph, ends, hops, 1, PresetPairs([7], [7])) == (0, 0)
        pairs = PresetPairs(np.append(left, left[:9]), np.append(right + n, left[:9]))
        got = _bfs_distances(graph, ends, hops, len(left) + 9, pairs)
        assert got == tuple(map(sum, zip(*expected)))
        dists = [oracle[s][t] for s, t in zip(left.tolist(), right.tolist())]
        assert np.inf in dists and 0 in dists[1:] and max(d for d in dists if d < np.inf) > 2

    def test_no_pairs(self):
        graph = _subgraph(build_bcube(2, 0), np.ones(2, dtype=bool))
        none = PresetPairs([], [])
        assert _bfs_distances(graph, np.arange(3), np.zeros(3), 0, none) == (0, 0)


class TestSubgraph:
    def test_pattern_numbers_each_slot_by_its_edge_from_zero(self, tiny_topologies):
        for topo in tiny_topologies.values():
            indices, indptr, slot_edge = reachability._pattern(topo)
            root = topo.n_nodes
            u = np.concatenate([topo.edges_u, topo.gateways])  # links, then gateway edges
            v = np.concatenate([topo.edges_v, np.full(len(topo.gateways), root)])
            row = np.repeat(np.arange(root + 1), np.diff(indptr))
            assert indices.dtype == np.int32 and slot_edge.dtype == np.int64
            assert np.array_equal(np.sort(slot_edge), np.repeat(np.arange(len(u)), 2))
            assert np.array_equal(np.minimum(row, indices), u[slot_edge])
            assert np.array_equal(np.maximum(row, indices), v[slot_edge])
            assert (np.diff(row * (root + 1) + indices) > 0).all()  # columns ascend per row

    def test_slice_equals_the_coo_build(self, tiny_topologies):
        rng = np.random.default_rng(29)
        for topo in tiny_topologies.values():
            for share in (0.0, 0.3, 1.0):
                edge_alive = rng.random(topo.n_links) >= share
                graph = _subgraph(topo, edge_alive)
                oracle = coo_subgraph(topo, edge_alive)
                assert graph.shape == oracle.shape == (topo.n_nodes, topo.n_nodes)
                assert np.array_equal(graph.indptr, oracle.indptr)
                assert np.array_equal(graph.indices, oracle.indices)
                # Columns strictly ascend within each row: sorted, no duplicates.
                row = np.repeat(np.arange(topo.n_nodes), np.diff(graph.indptr))
                assert (np.diff(row * topo.n_nodes + graph.indices) > 0).all()


# The survival-aspl benchmark topologies and the reliable-nmttf ones the
# switch-failure clusters are labelled on.
GATED_TOPOLOGIES = [
    (build_fat_tree, (24,)),
    (build_fat_tree, (26,)),
    (build_three_layer, (12, 48, 6)),
    (build_dcell, (58, 1)),
    (build_dcell, (7, 2)),
    (build_bcube, (15, 2)),
]


def random_removals(topo, rng, share):
    """Alive masks after removing about *share* of the links and of the
    switches, gateways among them, and a few servers."""
    links = np.flatnonzero(rng.random(topo.n_links) < share)
    switches = switch_ids(topo)[rng.random(topo.n_switches) < share]
    servers = rng.choice(topo.n_servers, rng.integers(3), replace=False)
    return _alive_after(topo, [(links, False), (switches, True), (servers, True)])


def connectivity_of(labels, mask):
    """Server connectivity from component *labels* per server and the
    accessible-server *mask*: the complete graphs' edges over the pairs."""
    counts = np.bincount(labels[mask])
    s_a = int(counts.sum())
    return 0.0 if s_a <= 1 else float((counts * (counts - 1)).sum()) / (s_a * (s_a - 1))


class TestComponentLabels:
    """``_component_labels`` numbers the components of a partition's graph
    as csgraph does: in the order of their first node. Server connectivity
    reads them."""

    @staticmethod
    def assert_matches_csgraph(topo, node_alive, edge_alive):
        part = _partition_arrays(topo, node_alive, edge_alive)
        k, labels = csgraph.connected_components(coo_subgraph(topo, edge_alive), directed=False)
        count, got = _component_labels(part.graph)
        assert count == k and np.array_equal(got, labels)
        mask = part.accessible_server_mask
        assert server_connectivity(part) == connectivity_of(labels[: topo.n_servers], mask)

    def test_tiny_topologies(self, tiny_topologies):
        rng = np.random.default_rng(83)
        for topo in tiny_topologies.values():
            for share in (0.0, 0.2, 0.5, 0.8, 1.0):
                self.assert_matches_csgraph(topo, *random_removals(topo, rng, share))

    @pytest.mark.parametrize(
        "build, args", GATED_TOPOLOGIES, ids=lambda v: getattr(v, "__name__", str(v))
    )
    def test_gated_configurations(self, build, args):
        topo = build(*args)
        rng = np.random.default_rng(89)
        for fer in (0.05, 0.4, 0.9):
            links = np.flatnonzero(rng.random(topo.n_links) < fer)
            switches = switch_ids(topo)[rng.random(topo.n_switches) < fer]
            for removal in ((links, False), (switches, True)):
                self.assert_matches_csgraph(topo, *_alive_after(topo, [removal]))

    def test_every_node_removed(self):
        topo = build_fat_tree(4)
        node_alive, edge_alive = _alive_after(topo, [(np.arange(topo.n_nodes), True)])
        self.assert_matches_csgraph(topo, node_alive, edge_alive)


class TestPartitionReach:
    """A partition's accessible servers are the ones ``_reach`` joins to a
    surviving gateway, at its fixpoint over the ``_server_view``: the BFS
    oracle's, under link, switch, server and element-class removals, alone
    and together. Server connectivity reads the labels of its graph."""

    @staticmethod
    def assert_matches_oracle(topo, removals):
        node_alive, edge_alive = _alive_after(topo, removals)
        part = _partition_arrays(topo, node_alive, edge_alive)
        links = zip(topo.edges_u[~edge_alive].tolist(), topo.edges_v[~edge_alive].tolist())
        dead = np.flatnonzero(~node_alive)
        switches = dead[dead >= topo.n_servers].tolist()
        adj = degraded_adjacency(topo, links, switches, dead[dead < topo.n_servers].tolist())
        expected = oracle_accessible_servers(topo, adj, switches)
        assert set(np.flatnonzero(part.accessible_server_mask).tolist()) == expected
        labels = _component_labels(part.graph)[1][: topo.n_servers]
        assert server_connectivity(part) == connectivity_of(labels, part.accessible_server_mask)

    @classmethod
    def assert_all_removals(cls, topo, rng, fers):
        selectors = [FailureType.LINK, FailureType.SWITCH, FailureType.SERVER]
        if topo.params.kind is TopologyKind.THREE_LAYER:
            selectors += list(ElementClass)
        for fer in fers:
            removals = []
            for selector in selectors:
                ids, on_nodes = _element_pool(topo, selector)
                removals.append((ids[rng.random(len(ids)) < fer], on_nodes))
                cls.assert_matches_oracle(topo, removals[-1:])
            cls.assert_matches_oracle(topo, removals)

    def test_tiny_topologies(self, tiny_topologies):
        rng = np.random.default_rng(101)
        for topo in tiny_topologies.values():
            self.assert_all_removals(topo, rng, (0.0, 0.05, 0.2, 0.5, 0.9, 1.0))

    @pytest.mark.parametrize(
        "build, args", GATED_TOPOLOGIES, ids=lambda v: getattr(v, "__name__", str(v))
    )
    def test_gated_configurations(self, build, args):
        self.assert_all_removals(build(*args), np.random.default_rng(103), (0.05, 0.4))

    @pytest.mark.parametrize("failure", [FailureType.LINK, FailureType.SWITCH])
    def test_the_link_failure_probe_is_the_partition_view(self, tiny_topologies, failure):
        # One cached view serves the partition and the link-failure probe.
        for topo in tiny_topologies.values():
            shared = simulation._cluster_probe(topo, failure) is reachability._server_view(topo)
            assert shared is (failure is FailureType.LINK)


class TestProbe:
    """``_all_servers_reach_gateway`` over a failure type's cluster graph
    equals the csgraph BFS oracle over the whole fabric, whether the BFS
    tree of the intact view reaches every target alone or the pull rounds
    repair what its dead slots cut off."""

    @staticmethod
    def probe(topo, failure, perm, prefix):
        alive = slot_times(topo, failure, perm) >= prefix
        return _all_servers_reach_gateway(simulation._cluster_probe(topo, failure), alive)

    @staticmethod
    def tree_reaches_every_target(view, alive):
        """The probe's seed alone: the view's tree, layer by layer, over
        the live slots."""
        indptr, target, tree = view[1], view[4], view[6]
        reached = np.zeros(len(indptr) - 1, dtype=bool)
        reached[-1] = True
        for node, parent, slot in tree:
            reached[node] = reached[parent] & alive[slot]
        return bool(reached[target].all())

    @staticmethod
    def links_first(topo, links):
        """A link-failure removal order that takes *links* first."""
        first = np.isin(np.arange(topo.n_links), links)
        return np.concatenate([np.flatnonzero(first), np.flatnonzero(~first)])

    @pytest.mark.parametrize("failure", [FailureType.LINK, FailureType.SWITCH])
    def test_every_prefix_of_stream_permutations(self, tiny_topologies, failure):
        for topo in tiny_topologies.values():
            ids, on_nodes = _element_pool(topo, failure)
            for k in range(4):
                perm = sample_rng(20250810, simulation._TAG_NMTTF, 0, k).permutation(len(ids))
                for prefix in range(len(ids) + 1):
                    masks = _alive_after(topo, [(ids[perm[:prefix]], on_nodes)])
                    assert self.probe(topo, failure, perm, prefix) is oracle_all_reach(
                        topo, *masks
                    )

    @pytest.mark.parametrize("failure", [FailureType.LINK, FailureType.SWITCH])
    def test_no_removal_reaches_and_every_removal_strands(self, tiny_topologies, failure):
        for topo in tiny_topologies.values():
            big_f = len(_element_pool(topo, failure)[0])
            perm = np.random.default_rng(97).permutation(big_f)
            assert self.probe(topo, failure, perm, 0) is True
            assert self.probe(topo, failure, perm, big_f) is False

    def test_failed_edge_switch_strands_its_pendant_cluster(self):
        # Fat-tree(4): servers 0 and 1 hang off one edge switch alone. Each
        # is a pendant cluster: cut from the graph the search walks, with
        # the switch as its target.
        topo = build_fat_tree(4)
        switch = int(topo.edges_v[topo.edges_u == 0][0])
        _, indptr, _, _, target, kept, _ = simulation._cluster_probe(topo, FailureType.SWITCH)
        assert (indptr[1:3] == 0).all() and not np.isin([0, 1, 2], target).any()
        assert switch in target and not np.isin([0, 1, 2], kept).any()
        first = switch - topo.n_servers
        perm = np.concatenate([[first], np.delete(np.arange(topo.n_switches), first)])
        assert self.probe(topo, FailureType.SWITCH, perm, 0) is True
        assert self.probe(topo, FailureType.SWITCH, perm, 1) is False
        masks = _alive_after(topo, [(np.array([switch]), True)])
        assert oracle_all_reach(topo, *masks) is False

    def test_every_gateway_down_strands_every_server(self, tiny_topologies):
        for topo in tiny_topologies.values():
            ids = _element_pool(topo, FailureType.SWITCH)[0]
            first = np.isin(ids, topo.gateways)
            perm = np.concatenate([np.flatnonzero(first), np.flatnonzero(~first)])
            assert self.probe(topo, FailureType.SWITCH, perm, len(topo.gateways)) is False

    def test_a_live_detour_repairs_a_dead_tree_slot(self):
        # Fat-tree(4) under link failures: the servers fold onto their edge
        # switches, the targets. One edge switch's tree link to its parent
        # goes down; its link to the pod's other aggregation switch stays.
        topo = build_fat_tree(4)
        view = simulation._cluster_probe(topo, FailureType.LINK)
        slot_edge = simulation._cluster_graph(topo, FailureType.LINK)[2]
        node, _, slot = view[6][2]
        assert np.isin(node, view[4]).all()
        perm = self.links_first(topo, slot_edge[slot[:1]])
        alive = slot_times(topo, FailureType.LINK, perm) >= 1
        assert not self.tree_reaches_every_target(view, alive)
        assert _all_servers_reach_gateway(view, alive) is True
        assert oracle_all_reach(topo, *_alive_after(topo, [(perm[:1], False)])) is True

    def test_a_dead_switch_only_component_does_not_stop_the_probe(self):
        # Every link of one aggregation switch of fat-tree(4) goes down: it
        # is a component of its own, with no server, that no round reaches.
        # The edge switches below it in the tree reach through the other.
        topo = build_fat_tree(4)
        view = simulation._cluster_probe(topo, FailureType.LINK)
        switch = view[6][1][0][0]
        links = np.flatnonzero((topo.edges_u == switch) | (topo.edges_v == switch))
        perm = self.links_first(topo, links)
        alive = slot_times(topo, FailureType.LINK, perm) >= len(links)
        assert not self.tree_reaches_every_target(view, alive)
        assert _all_servers_reach_gateway(view, alive) is True
        assert oracle_all_reach(topo, *_alive_after(topo, [(links, False)])) is True

    @pytest.mark.parametrize("failure", [FailureType.LINK, FailureType.SWITCH])
    def test_the_tree_spans_the_view(self, tiny_topologies, failure):
        for topo in tiny_topologies.values():
            indices, indptr, _, _ = simulation._cluster_graph(topo, failure)
            _, _, _, _, target, kept, tree = simulation._cluster_probe(topo, failure)
            root = len(indptr) - 2
            nodes = np.concatenate([node for node, _, _ in tree])
            assert np.array_equal(np.sort(nodes), kept[kept != root])
            assert np.isin(target, kept).all()
            above = np.array([root])
            for node, parent, slot in tree:
                assert np.isin(parent, above).all()
                assert ((indptr[parent] <= slot) & (slot < indptr[parent + 1])).all()
                assert np.array_equal(indices[slot], node)
                above = node

    def test_nmttf_stream_needs_the_tree_alone_and_the_repair(self):
        # One removal before the critical point every server reaches; on
        # some samples the tree shows it alone, on others only the pull
        # rounds do.
        outcomes = set()
        for params, failure in NMTTF_CONFIGS:
            topo = build_topology(params)
            view = simulation._cluster_probe(topo, failure)
            big_f = len(_element_pool(topo, failure)[0])
            for k in range(20):
                perm = sample_rng(20250810, simulation._TAG_NMTTF, 0, k).permutation(big_f)
                critical = simulation._critical_point(topo, failure, perm)
                alive = slot_times(topo, failure, perm) >= critical - 1
                assert _all_servers_reach_gateway(view, alive) is True
                outcomes.add(self.tree_reaches_every_target(view, alive))
        assert outcomes == {True, False}


class TestRemainingCapacity:
    def test_constant_capacities_equal_asr(self, tiny_topologies):
        rng = np.random.default_rng(3)
        for topo in tiny_topologies.values():
            switches = set(
                int(s) for s in rng.choice(switch_ids(topo), size=1, replace=False)
            )
            part = partition(DegradedNetwork(topo, removed_switches=switches))
            caps = np.full(topo.n_servers, 0.37)
            rcr = remaining_capacity_ratio(part, caps)
            assert rcr == pytest.approx(accessible_server_ratio(part), rel=1e-12)

    def test_missing_server_is_configuration_error(self):
        topo = build_bcube(2, 0)
        part = partition(DegradedNetwork(topo))
        with pytest.raises(ValueError, match="covers"):
            remaining_capacity_ratio(part, np.ones(topo.n_servers - 1))


class TestEvaluate:
    ALL_METRICS = ("asr", "sc", "aspl", "rcr_cpu", "rcr_mem")

    def test_matches_object_level_api(self, tiny_topologies):
        # Both paths share each metric's formula, so they agree exactly.
        rng = np.random.default_rng(17)
        for topo in tiny_topologies.values():
            cpu = rng.uniform(0.1, 2.0, topo.n_servers)
            mem = rng.uniform(0.1, 2.0, topo.n_servers)
            removals = [
                {"removed_links": removed_links(topo, rng, topo.n_links // 4)},
                {"removed_switches": set(rng.choice(switch_ids(topo), size=1).tolist())},
                {"removed_servers": set(rng.choice(topo.n_servers, size=1).tolist())},
            ]
            for removed in removals:
                degraded = DegradedNetwork(topo, **removed)
                part = partition(degraded)
                row = evaluate(
                    topo, degraded.node_alive, degraded.edge_alive, self.ALL_METRICS,
                    cpu=cpu, mem=mem,
                )
                assert row == SurvivalMetrics(
                    asr=accessible_server_ratio(part),
                    sc=server_connectivity(part),
                    aspl=average_shortest_path_length(part),
                    rcr_cpu=remaining_capacity_ratio(part, cpu),
                    rcr_mem=remaining_capacity_ratio(part, mem),
                )

    def test_aspl_reads_the_partition_graph(self, monkeypatch):
        # One surviving-link graph per state: the partition's serves ASPL.
        topo = build_fat_tree(4)
        degraded = DegradedNetwork(topo, removed_links={(0, 22)})
        calls = []

        def counted(*args):
            calls.append(args)
            return _subgraph(*args)

        monkeypatch.setattr(reachability, "_subgraph", counted)
        row = evaluate(topo, degraded.node_alive, degraded.edge_alive, ("asr", "aspl"))
        assert len(calls) == 1
        assert row.aspl == average_shortest_path_length(partition(degraded))

    def test_every_node_removed(self):
        topo = build_fat_tree(4)
        degraded = DegradedNetwork(
            topo,
            removed_switches=set(switch_ids(topo).tolist()),
            removed_servers=set(range(topo.n_servers)),
        )
        part = partition(degraded)
        assert not part.graph.indices.size
        assert accessible_counts(part) == []
        assert not part.accessible_server_mask.any()
        caps = np.ones(topo.n_servers)
        row = evaluate(
            topo, degraded.node_alive, degraded.edge_alive, self.ALL_METRICS, cpu=caps, mem=caps
        )
        assert row == SurvivalMetrics(0.0, 0.0, AsplEstimate(None, 0, True), 0.0, 0.0)
