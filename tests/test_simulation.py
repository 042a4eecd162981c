import functools
import itertools
import json
import math
import os
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse import csgraph

from dcn_robust import reachability, simulation
from dcn_robust.analytic import (
    FailureType,
    MinCutSpec,
    MttfQuality,
    min_cut_catalog,
    normalized_time,
    normalized_time_table,
)
from dcn_robust.capacity import assign_capacities, builtin_dataset
from dcn_robust.report import reliability_rows
from dcn_robust.simulation import (
    ElementClass,
    ExperimentPlan,
    UnsupportedPlanError,
    _alive_after,
    _critical_point,
    _element_pool,
    classed_sweep,
    confidence_interval,
    removal_count,
    resolve_workers,
    sample_rng,
    simulate_nmttf,
    survival_sweep,
    survival_sweep_2d,
    plan_from_doc,
    plan_to_doc,
)
from dcn_robust.topology import (
    GatewayPolicy,
    TopologyKind,
    TopologyParams,
    build_bcube,
    build_topology,
    derived,
    serialize_topology,
)

from conftest import (
    NMTTF_CONFIGS,
    degraded_adjacency,
    oracle_accessible_servers,
    oracle_all_reach,
    oracle_server_clusters,
    slot_times,
    tree_stranding_times,
)


def plan_for(params, failure, **kw):
    kw.setdefault("samples", 50)
    kw.setdefault("master_seed", 1234)
    return ExperimentPlan(params=params, failures=(failure,), **kw)


BCUBE_2x2 = TopologyParams(kind=TopologyKind.BCUBE, n=2, l=1)
BCUBE_CELL = TopologyParams(kind=TopologyKind.BCUBE, n=2, l=0)
DCELL_SMALL = TopologyParams(kind=TopologyKind.DCELL, n=4, l=1)
THREE_LAYER_SMALL = TopologyParams(kind=TopologyKind.THREE_LAYER, n_a=3, n_e=4, pairs=2)


class TestConfidenceInterval:
    def test_constant_samples_have_zero_width(self):
        mean, half = confidence_interval([0.4] * 100)
        assert mean == pytest.approx(0.4)
        assert half == 0.0

    def test_bernoulli_example(self):
        values = [0.0, 1.0] * 1000
        mean, half = confidence_interval(values)
        assert mean == pytest.approx(0.5)
        expected = 1.96 * np.std(values, ddof=1) / math.sqrt(2000)
        assert half == pytest.approx(expected)
        assert half == pytest.approx(0.0219, abs=2e-4)

    def test_single_sample_has_no_interval(self):
        mean, half = confidence_interval([3.0])
        assert mean == 3.0
        assert half is None

    def test_empty(self):
        assert confidence_interval([]) == (None, None)


class TestSamplingUniformity:
    def test_removal_subsets_match_hypergeometric(self):
        # Every 2-subset of a 5-element universe should be equally likely.
        counts = Counter()
        trials = 20_000
        for k in range(trials):
            rng = sample_rng(99, 5, 0, k)
            subset = frozenset(rng.permutation(5)[:2].tolist())
            counts[subset] += 1
        assert len(counts) == 10
        expected = trials / 10
        chi2 = sum((n - expected) ** 2 / expected for n in counts.values())
        # 9 degrees of freedom, p=0.001 critical value
        assert chi2 < 27.88

    def test_streams_are_independent_of_order(self):
        a = sample_rng(7, 1, 3, 11).permutation(20)
        b = sample_rng(7, 1, 3, 11).permutation(20)
        c = sample_rng(7, 1, 3, 12).permutation(20)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)


class TestRekeyedStreams:
    TAGS = (
        simulation._TAG_NMTTF,
        simulation._TAG_SWEEP,
        simulation._TAG_SWEEP_2D,
        simulation._TAG_CLASSED,
    )

    @staticmethod
    def draws(rng) -> list:
        return [rng.permutation(50), rng.integers(0, 10**9, size=7), rng.random(5)]

    @pytest.mark.parametrize("master_seed", [0, 2**64 - 1])
    def test_a_rekeyed_generator_draws_what_a_fresh_one_does(self, master_seed):
        # A chunk's generator is re-keyed per sample after earlier samples
        # drew from it, 32-bit draws among them (sampled ASPL's pairs).
        used = sample_rng(1, 0, 0, 0)
        for tag in self.TAGS:
            for sample in (0, 2**32 - 1):
                # Each 32-bit draw takes one half of a 64-bit word: draw
                # until the other half is left in the buffer.
                used.integers(0, 1000, dtype=np.int32)
                while not used.bit_generator.state["has_uint32"]:
                    used.integers(0, 1000, dtype=np.int32)
                rekeyed = sample_rng(master_seed, tag, 0, sample, used)
                assert rekeyed is used
                stream = (tag << 56) | sample
                # The 128-bit integer key splits into the words [seed, stream].
                oracle = np.random.Generator(np.random.Philox(key=(stream << 64) | master_seed))
                fresh = sample_rng(master_seed, tag, 0, sample)
                want = self.draws(oracle)
                for got in (self.draws(rekeyed), self.draws(fresh)):
                    assert all(np.array_equal(g, w) for g, w in zip(got, want))

    def test_seeds_below_2_63_keep_the_streams_of_a_two_word_key(self):
        # Philox(key=[seed, stream]) holds both words exactly while they fit
        # int64, which every stream does: those streams have not changed.
        for master_seed in (0, 20250810, 2**63 - 1):
            for tag in self.TAGS:
                stream = (tag << 56) | (2**24 - 1 << 32) | (2**32 - 1)
                old = np.random.Generator(np.random.Philox(key=[master_seed, stream]))
                new = sample_rng(master_seed, tag, 2**24 - 1, 2**32 - 1)
                assert all(
                    np.array_equal(g, w) for g, w in zip(self.draws(new), self.draws(old))
                )


class TestRemovalCount:
    def test_floor(self):
        assert removal_count(0.4, 6728) == 2691
        assert removal_count(0.0, 100) == 0
        assert removal_count(1.0, 100) == 100

    def test_exact_products_survive_float_noise(self):
        assert removal_count(0.3, 3630) == 1089  # 0.3*3630 == 1088.9999... in binary


def forward_critical_point(topo, failure, perm):
    """Oracle: re-check gateway reachability after every single removal."""
    for f in range(1, len(perm) + 1):
        removed_switches = (
            set((topo.n_servers + perm[:f]).tolist())
            if failure is FailureType.SWITCH
            else set()
        )
        removed_links = set()
        if failure is FailureType.LINK:
            removed_links = {
                (int(topo.edges_u[i]), int(topo.edges_v[i])) for i in perm[:f]
            }
        adj = degraded_adjacency(topo, removed_links, removed_switches)
        accessible = oracle_accessible_servers(topo, adj, removed_switches)
        alive_servers = topo.n_servers - 0
        if len(accessible) < alive_servers:
            return f
    return len(perm)


def all_servers_accessible(topo, node_alive, edge_alive):
    """Oracle of the certificate's probe: the partition counts every
    surviving server as accessible."""
    part = reachability._partition_arrays(topo, node_alive, edge_alive)
    return part.accessible_server_total == int(node_alive[: topo.n_servers].sum())


def bisect_critical_point(topo, failure, perm):
    """Oracle: bisection over the removal-prefix length, one partition
    per step (valid because reachability only degrades as the prefix
    grows)."""
    ids, on_nodes = _element_pool(topo, failure)
    order = ids[perm]
    lo, hi = 0, len(order)  # invariants: connected at lo, disconnected at hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        node_alive, edge_alive = _alive_after(topo, [(order[:mid], on_nodes)])
        if all_servers_accessible(topo, node_alive, edge_alive):
            lo = mid
        else:
            hi = mid
    return hi


def param_id(params: TopologyParams) -> str:
    return f"{params.kind.value}({params.args_text()})"


def _tree_cases():
    """Topology params under every gateway policy their top level admits."""
    bases = [
        TopologyParams(kind=TopologyKind.FAT_TREE, n=4),
        TopologyParams(kind=TopologyKind.BCUBE, n=3, l=1),
        BCUBE_2x2,
        BCUBE_CELL,
        DCELL_SMALL,
        THREE_LAYER_SMALL,
    ]
    policies = [GatewayPolicy.max_density(), GatewayPolicy.min_density(), GatewayPolicy.count(2)]
    cases = []
    for base in bases:
        top_level = len(build_topology(base).gateways)  # every one under max
        for policy in policies:
            if policy.mode != "count" or policy.g <= top_level:
                params = replace(base, gateway_policy=policy)
                cases.append(pytest.param(params, id=f"{param_id(base)}-{policy}"))
    return cases


class TestCriticalPoint:
    @pytest.mark.parametrize("params", _tree_cases())
    @pytest.mark.parametrize("failure", [FailureType.LINK, FailureType.SWITCH])
    def test_tree_equals_per_removal_scan(self, params, failure):
        topo = build_topology(params)
        big_f = topo.n_links if failure is FailureType.LINK else topo.n_switches
        rng = np.random.default_rng(42)
        for _ in range(40):
            perm = rng.permutation(big_f)
            assert _critical_point(topo, failure, perm) == forward_critical_point(
                topo, failure, perm
            )

    @pytest.mark.parametrize(
        "params,failure",
        [pytest.param(p, f, id=f"{param_id(p)}-{f.value}") for p, f in NMTTF_CONFIGS],
    )
    def test_tree_equals_bisection_on_the_nmttf_stream(self, params, failure):
        topo = build_topology(params)
        big_f = len(_element_pool(topo, failure)[0])
        for k in range(30):
            perm = sample_rng(20250810, simulation._TAG_NMTTF, 0, k).permutation(big_f)
            critical = _critical_point(topo, failure, perm)
            assert critical == bisect_critical_point(topo, failure, perm)
            times = simulation._stranding_times(topo, failure, slot_times(topo, failure, perm))
            assert critical == int(times.min()) + 1

    @pytest.mark.parametrize(
        "params,failure",
        [
            pytest.param(p, f, id=f"{param_id(p)}-{f.value}")
            for p, f in [
                *NMTTF_CONFIGS,
                *itertools.product((BCUBE_2x2, DCELL_SMALL), (FailureType.LINK, FailureType.SWITCH)),
            ]
        ],
    )
    def test_sweep_samples_on_the_nmttf_stream_strand_at_the_critical_point(
        self, params, failure
    ):
        # A sweep sample drawn from an MTTF sample's stream removes a prefix
        # of that sample's order: _apply_removals and _nmttf_chunk take one
        # permutation each from it. So the partition and the cluster graph
        # agree sample by sample: every server reaches a gateway one removal
        # before the critical point, and some server does not at it.
        topo = simulation._cached_topology(params)
        big_f = len(_element_pool(topo, failure)[0])
        for k in range(20):
            perm = sample_rng(20250810, simulation._TAG_NMTTF, 0, k).permutation(big_f)
            critical = _critical_point(topo, failure, perm)
            asr = [
                simulation._metric_chunk(
                    params, ((failure, removed),), ("asr",), None,
                    20250810, simulation._TAG_NMTTF, 0, k, k + 1,
                )[0].asr
                for removed in (critical - 1, critical)
            ]
            assert asr[0] == 1.0 and asr[1] < 1.0, (k, critical, asr)

    @pytest.mark.parametrize(
        "params,failure",
        [pytest.param(p, f, id=f"{param_id(p)}-{f.value}") for p, f in NMTTF_CONFIGS],
    )
    def test_both_probes_equal_csgraph_on_the_nmttf_stream(self, params, failure):
        topo = build_topology(params)
        ids, on_nodes = _element_pool(topo, failure)
        graph = simulation._cluster_probe(topo, failure)
        for k in range(100):
            perm = sample_rng(20250810, simulation._TAG_NMTTF, 0, k).permutation(len(ids))
            critical = _critical_point(topo, failure, perm)
            times = slot_times(topo, failure, perm)
            for prefix, reach in ((critical - 1, True), (critical, False)):
                node_alive, edge_alive = _alive_after(topo, [(ids[perm[:prefix]], on_nodes)])
                assert oracle_all_reach(topo, node_alive, edge_alive) is reach
                assert reachability._all_servers_reach_gateway(graph, times >= prefix) is reach

    def test_two_probes_per_proved_bound_and_three_per_refuted(self, monkeypatch):
        # The certificate's contract, looked up through the module
        # attribute as the benchmark's tracer wraps it.
        calls = []
        probe = reachability._all_servers_reach_gateway
        monkeypatch.setattr(
            reachability, "_all_servers_reach_gateway", lambda *args: calls.append(1) or probe(*args)
        )
        counts = Counter()
        for params, failure in NMTTF_CONFIGS:
            topo = build_topology(params)
            big_f = len(_element_pool(topo, failure)[0])
            for k in range(30):
                perm = sample_rng(20250810, simulation._TAG_NMTTF, 0, k).permutation(big_f)
                bound = simulation._cut_bound(topo, failure, slot_times(topo, failure, perm)) + 1
                calls.clear()
                proved = _critical_point(topo, failure, perm) == bound
                counts[proved, len(calls)] += 1
        assert set(counts) == {(True, 2), (False, 3)}

    def test_skipping_the_cluster_check_up_to_the_cut_bound_changes_no_answer(
        self, tiny_topologies
    ):
        # At a prefix at or below the cut bound every cluster keeps a live
        # slot, so _critical_point lets the probe skip its check for one
        # without: the flagged probe must answer as the full one there.
        cases = [
            (topo, failure, [np.random.default_rng(k) for k in range(5)])
            for topo in tiny_topologies.values()
            for failure in (FailureType.LINK, FailureType.SWITCH)
        ]
        cases += [
            (build_topology(params), failure,
             [sample_rng(20250810, simulation._TAG_NMTTF, 0, k) for k in range(4)])
            for params, failure in NMTTF_CONFIGS
        ]
        probes = 0
        for topo, failure, rngs in cases:
            graph = simulation._cluster_probe(topo, failure)
            big_f = len(_element_pool(topo, failure)[0])
            for rng in rngs:
                times = slot_times(topo, failure, rng.permutation(big_f))
                for prefix in range(simulation._cut_bound(topo, failure, times) + 1):
                    alive = times >= prefix
                    full = reachability._all_servers_reach_gateway(graph, alive)
                    assert reachability._all_servers_reach_gateway(graph, alive, True) is full
                    probes += 1
        assert probes > 1000

    def test_the_nmttf_stream_proves_some_bounds_and_refutes_others(self):
        proved = refuted = 0
        for params, failure in NMTTF_CONFIGS:
            topo = build_topology(params)
            big_f = len(_element_pool(topo, failure)[0])
            for k in range(30):
                perm = sample_rng(20250810, simulation._TAG_NMTTF, 0, k).permutation(big_f)
                bound = simulation._cut_bound(topo, failure, slot_times(topo, failure, perm)) + 1
                critical = _critical_point(topo, failure, perm)
                assert critical <= bound
                proved += critical == bound
                refuted += critical < bound
        assert proved > 0 and refuted > 0

    @pytest.mark.parametrize(
        "params,failure",
        [
            pytest.param(p, f, id=f"{param_id(p)}-{f.value}")
            for p in (
                TopologyParams(kind=TopologyKind.FAT_TREE, n=4),
                THREE_LAYER_SMALL,
                BCUBE_CELL,  # every server has one link
                DCELL_SMALL,
            )
            for f in (FailureType.LINK, FailureType.SWITCH)
        ],
    )
    def test_stranding_times_are_the_last_connected_prefix(self, params, failure):
        topo = build_topology(params)
        ids, on_nodes = _element_pool(topo, failure)
        rng = np.random.default_rng(3)
        for _ in range(5):
            perm = rng.permutation(len(ids))
            times = simulation._stranding_times(topo, failure, slot_times(topo, failure, perm))
            for f in range(len(ids) + 1):
                node_alive, edge_alive = _alive_after(topo, [(ids[perm[:f]], on_nodes)])
                part = reachability._partition_arrays(topo, node_alive, edge_alive)
                assert np.array_equal(part.accessible_server_mask, times >= f)

    @pytest.mark.parametrize(
        "params,failure",
        [pytest.param(p, f, id=f"{param_id(p)}-{f.value}") for p, f in NMTTF_CONFIGS],
    )
    def test_widest_paths_equal_the_spanning_tree_on_the_nmttf_stream(self, params, failure):
        topo = build_topology(params)
        big_f = len(_element_pool(topo, failure)[0])
        for k in range(10):
            perm = sample_rng(20250810, simulation._TAG_NMTTF, 0, k).permutation(big_f)
            assert np.array_equal(
                simulation._stranding_times(topo, failure, slot_times(topo, failure, perm)),
                tree_stranding_times(topo, failure, perm),
            )

    def test_clusters_contract_to_one_node_each(self):
        # DCell 7/2: 3192 servers, 456 switches and the root; under switch
        # failures its server-server links join the servers into 136 clusters.
        topo = build_topology(TopologyParams(kind=TopologyKind.DCELL, n=7, l=2))
        indices, indptr, slot_edge, cluster = simulation._cluster_graph(topo, FailureType.SWITCH)
        assert len(indptr) - 1 == 593 == cluster.max() + 1 + topo.n_switches + 1
        row = np.repeat(np.arange(len(indptr) - 1), np.diff(indptr))
        assert not (row == indices).any()
        inner = (topo.edges_u < topo.n_servers) & (topo.edges_v < topo.n_servers)
        assert len(slot_edge) == 2 * (topo.n_links - inner.sum() + len(topo.gateways))
        indices, indptr, slot_edge, cluster = simulation._cluster_graph(topo, FailureType.LINK)
        assert len(indptr) - 1 == topo.n_nodes + 1
        assert np.array_equal(cluster, np.arange(topo.n_servers))
        assert len(slot_edge) == 2 * (topo.n_links + len(topo.gateways))

    def test_switch_clusters_are_the_server_link_components(self, tiny_topologies):
        for topo in tiny_topologies.values():
            # Two servers share a cluster exactly when server-server links
            # join them, and clusters are numbered in first-server order.
            cluster = simulation._cluster_graph(topo, FailureType.SWITCH)[3]
            assert np.array_equal(cluster, oracle_server_clusters(topo))

    @pytest.mark.parametrize("params", _tree_cases())
    def test_probe_equals_the_partition(self, params):
        topo = build_topology(params)
        rng = np.random.default_rng(11)
        seen = set()
        for failure in (FailureType.LINK, FailureType.SWITCH):
            ids, on_nodes = _element_pool(topo, failure)
            graph = simulation._cluster_probe(topo, failure)
            for _ in range(30):
                perm = rng.permutation(len(ids))
                # Short prefixes mostly, where both answers occur.
                prefix = min(int(rng.geometric(0.3)) - 1, len(ids))
                alive = slot_times(topo, failure, perm) >= prefix
                probe = reachability._all_servers_reach_gateway(graph, alive)
                node_alive, edge_alive = _alive_after(topo, [(ids[perm[:prefix]], on_nodes)])
                assert probe == all_servers_accessible(topo, node_alive, edge_alive)
                seen.add((probe, bool(node_alive[topo.gateways].all())))
        # Both answers, with and without a gateway down (True with one down
        # needs a second gateway).
        want = {(True, True), (False, True), (False, False)}
        if len(topo.gateways) > 1:
            want.add((True, False))
        assert want <= seen

    @staticmethod
    def _dcell_link_case(seed):
        """DCell 4/1 under link failures: the cut bound is proved at seed 0
        and refuted at seed 1, where two linked servers lose their switch
        links before one server loses both of its own links."""
        topo = build_topology(DCELL_SMALL)
        perm = np.random.default_rng(seed).permutation(topo.n_links)
        times = slot_times(topo, FailureType.LINK, perm)
        bound = simulation._cut_bound(topo, FailureType.LINK, times) + 1
        return topo, perm, bound, _critical_point(topo, FailureType.LINK, perm)

    def test_bound_one_too_low_is_refuted(self, monkeypatch):
        topo, perm, bound, true_point = self._dcell_link_case(0)
        assert bound == true_point >= 2
        cut = simulation._cut_bound
        monkeypatch.setattr(simulation, "_cut_bound", lambda *args: cut(*args) - 1)
        with pytest.raises(RuntimeError, match=f"cut bound gives critical point {true_point - 1},"):
            _critical_point(topo, FailureType.LINK, perm)

    def test_bound_one_too_high_falls_back_to_the_tree(self, monkeypatch):
        topo, perm, bound, true_point = self._dcell_link_case(0)
        assert bound == true_point
        cut, tree, calls = simulation._cut_bound, simulation._stranding_times, []
        monkeypatch.setattr(simulation, "_cut_bound", lambda *args: cut(*args) + 1)
        monkeypatch.setattr(
            simulation, "_stranding_times", lambda *args: calls.append(args) or tree(*args)
        )
        assert _critical_point(topo, FailureType.LINK, perm) == true_point
        assert len(calls) == 1

    @pytest.mark.parametrize("shift", [-1, 1])
    def test_off_by_one_tree_is_refuted(self, monkeypatch, shift):
        topo, perm, bound, true_point = self._dcell_link_case(1)
        assert 2 <= true_point < bound  # the bound is refuted: the widest paths decide
        tree = simulation._stranding_times
        monkeypatch.setattr(
            simulation, "_stranding_times", lambda *args: tree(*args) + shift
        )
        with pytest.raises(
            RuntimeError, match=f"widest path gives critical point {true_point + shift},"
        ):
            _critical_point(topo, FailureType.LINK, perm)


# Every kind, with each failure type in the min-cut catalog's scope.
CATALOG_CASES = [
    TopologyParams(kind=TopologyKind.FAT_TREE, n=4),
    TopologyParams(kind=TopologyKind.FAT_TREE, n=24),
    TopologyParams(kind=TopologyKind.BCUBE, n=3, l=1),
    TopologyParams(kind=TopologyKind.BCUBE, n=15, l=2),
    DCELL_SMALL,
    TopologyParams(kind=TopologyKind.DCELL, n=58, l=1),
    TopologyParams(kind=TopologyKind.DCELL, n=3, l=2),
    TopologyParams(kind=TopologyKind.DCELL, n=7, l=2),
    TopologyParams(kind=TopologyKind.THREE_LAYER, n_a=12, n_e=48, pairs=6),
]


def cluster_cuts(topo, failure):
    """Each server cluster's cut as the set of elements it removes: its
    boundary links, or under switch failures the switches they lead to
    (links run from the lower node id, and servers come first)."""
    _, indptr, slot_edge, cluster = simulation._cluster_graph(topo, failure)
    starts = indptr[: cluster.max() + 2]
    boundary = slot_edge[: starts[-1]]
    elements = topo.edges_v[boundary] if failure is FailureType.SWITCH else boundary
    return [frozenset(cut.tolist()) for cut in np.split(elements, starts[1:-1])]


class TestCutCatalog:
    @pytest.mark.parametrize(
        "params,failure",
        [
            pytest.param(p, f, id=f"{param_id(p)}-{f.value}")
            for p in CATALOG_CASES
            for f in (FailureType.LINK, FailureType.SWITCH)
        ],
    )
    def test_smallest_cluster_cut_has_the_catalog_size(self, params, failure):
        cuts = cluster_cuts(build_topology(params), failure)
        assert min(len(cut) for cut in cuts) == min_cut_catalog(params, failure).r

    @pytest.mark.parametrize("params", CATALOG_CASES, ids=param_id)
    def test_switch_clusters_equal_the_server_link_components(self, params):
        # csgraph over the server-server links is the oracle for the
        # engine's own partition, and each cluster's row holds exactly the
        # links from its servers to switches.
        topo = build_topology(params)
        servers = topo.n_servers
        inner = topo.edges_v < servers  # links run from the lower node id
        graph = sp.csr_matrix(
            (np.ones(inner.sum()), (topo.edges_u[inner], topo.edges_v[inner])),
            shape=(servers, servers),
        )
        k, labels = csgraph.connected_components(graph, directed=False)
        _, indptr, slot_edge, cluster = simulation._cluster_graph(topo, FailureType.SWITCH)
        assert np.array_equal(cluster, labels)
        outer = np.flatnonzero((topo.edges_u < servers) & ~inner)
        expected = [set() for _ in range(k)]
        for edge, server in zip(outer.tolist(), topo.edges_u[outer].tolist()):
            expected[labels[server]].add(edge)
        starts = indptr[: k + 1]
        rows = np.split(slot_edge[: starts[-1]], starts[1:-1])
        assert [set(row.tolist()) for row in rows] == expected

    def test_dcell3_switch_census(self):
        # Criterion 7's ring census: C(9, 4) = 126 cuts of 2 l^2 = 8 switches.
        params = TopologyParams(kind=TopologyKind.DCELL, n=7, l=2)
        spec = min_cut_catalog(params, FailureType.SWITCH)
        cuts = cluster_cuts(build_topology(params), FailureType.SWITCH)
        minimal = {cut for cut in cuts if len(cut) == spec.r}
        assert (spec.r, len(minimal)) == (8, 126) == (spec.r, spec.c)

    @pytest.mark.parametrize(
        "params,failure",
        [
            pytest.param(p, f, id=f"{param_id(p)}-{f.value}")
            for p in (
                TopologyParams(kind=TopologyKind.FAT_TREE, n=4),
                TopologyParams(kind=TopologyKind.BCUBE, n=3, l=1),
                DCELL_SMALL,
                TopologyParams(kind=TopologyKind.DCELL, n=3, l=2),
                THREE_LAYER_SMALL,
            )
            for f in (FailureType.LINK, FailureType.SWITCH)
        ],
    )
    def test_every_cluster_cut_strands_a_server(self, params, failure):
        # What makes the bound an upper bound on the critical point.
        topo = build_topology(params)
        cuts = cluster_cuts(topo, failure)
        assert len(cuts) <= topo.n_servers
        for cut in cuts:
            ids = np.array(sorted(cut))
            node_alive, edge_alive = _alive_after(topo, [(ids, failure is FailureType.SWITCH)])
            assert not all_servers_accessible(topo, node_alive, edge_alive)


class TestSimulateNmttf:
    def test_single_cell_link_is_deterministic(self):
        # any first link removal disconnects one of the two servers
        res = simulate_nmttf(plan_for(BCUBE_CELL, FailureType.LINK, samples=20), workers=1)
        assert set(res.critical_points.tolist()) == {1}
        assert res.nmttf_sim == pytest.approx(normalized_time(1, 2))
        assert res.relative_error == pytest.approx(0.0)  # theo = 1/|S| = 1/2

    @pytest.mark.parametrize(
        "params,failure",
        [
            (BCUBE_2x2, FailureType.LINK),  # 8 links -> 40320 permutations
            (BCUBE_2x2, FailureType.SWITCH),  # 4 switches
            (TopologyParams(kind=TopologyKind.DCELL, n=2, l=1), FailureType.SWITCH),
        ],
    )
    def test_exhaustive_permutation_oracle_small(self, params, failure):
        topo = build_topology(params)
        big_f = topo.n_links if failure is FailureType.LINK else topo.n_switches
        table = normalized_time_table(big_f)
        total = 0.0
        count = 0
        for perm in itertools.permutations(range(big_f)):
            total += table[forward_critical_point(topo, failure, np.array(perm))]
            count += 1
        oracle = total / count
        res = simulate_nmttf(plan_for(params, failure, samples=400), workers=1)
        margin = res.ci95_half_width if res.ci95_half_width else 1e-12
        assert abs(res.nmttf_sim - oracle) <= margin

    def test_dcell2_switch_exactness_small(self):
        # a DCell with l=1: any two switch failures strand a server pair
        res = simulate_nmttf(plan_for(DCELL_SMALL, FailureType.SWITCH, samples=30), workers=1)
        assert set(res.critical_points.tolist()) == {2}
        assert res.nmttf_sim == pytest.approx(normalized_time(2, 5))
        assert res.theoretical_quality.value == "exact"
        assert res.nmttf_theoretical == pytest.approx(math.sqrt(4 * 20 + 1) / 20)

    @pytest.mark.parametrize(
        "params,failure,big_f",
        [
            # One switch: its failure strands every server, so c = 1.
            (TopologyParams(kind=TopologyKind.BCUBE, n=4, l=0), FailureType.SWITCH, 1),
            # No redundant path: every link and every switch is a cut.
            (TopologyParams(kind=TopologyKind.FAT_TREE, n=2), FailureType.LINK, 6),
            (TopologyParams(kind=TopologyKind.FAT_TREE, n=2), FailureType.SWITCH, 5),
        ],
        ids=["bcube-4-0-switch", "fat-tree-2-link", "fat-tree-2-switch"],
    )
    def test_single_element_cuts_match_the_simulation(self, params, failure, big_f):
        # Any first removal strands a server, so the simulation is exact.
        assert min_cut_catalog(params, failure) == MinCutSpec(1, big_f)
        res = simulate_nmttf(plan_for(params, failure, samples=20), workers=1)
        assert set(res.critical_points.tolist()) == {1}
        assert res.nmttf_sim == normalized_time(1, big_f) == res.nmttf_theoretical

    @pytest.mark.parametrize("policy", ["min", "count=1"])
    def test_dcell2_switch_with_one_gateway(self, policy):
        # The one gateway fails first with chance 1/(n+1) and strands every
        # server then; otherwise two switch failures strand a server pair.
        params = replace(DCELL_SMALL, gateway_policy=GatewayPolicy.parse(policy))
        n = params.n
        exact = 1 / (n + 1) / (n + 1) + n / (n + 1) * normalized_time(2, n + 1)
        res = simulate_nmttf(plan_for(params, FailureType.SWITCH, samples=4000), workers=1)
        assert res.theoretical_quality is MttfQuality.EXACT
        assert res.nmttf_theoretical == pytest.approx(exact, rel=1e-14) == 0.40
        assert abs(res.nmttf_sim - exact) <= res.ci95_half_width
        assert set(res.critical_points.tolist()) == {1, 2}

    def test_server_failures_rejected(self):
        with pytest.raises(UnsupportedPlanError):
            simulate_nmttf(plan_for(BCUBE_2x2, FailureType.SERVER))

    def test_class_ratios_rejected(self):
        ratios = {ElementClass.EDGE_LINK: None, ElementClass.AGG_LINK: 0.25}
        plan = plan_for(THREE_LAYER_SMALL, FailureType.LINK, class_ratios=ratios)
        with pytest.raises(UnsupportedPlanError, match="class ratios"):
            simulate_nmttf(plan, workers=1)

    def test_fer_grids_rejected(self):
        plan = plan_for(THREE_LAYER_SMALL, FailureType.LINK, fer_grids=((0.0, 0.5),))
        with pytest.raises(UnsupportedPlanError, match="FER grids"):
            simulate_nmttf(plan, workers=1)

    def test_dcell_l3_switch_has_no_analytic_reference(self):
        params = TopologyParams(kind=TopologyKind.DCELL, n=2, l=3)
        res = simulate_nmttf(plan_for(params, FailureType.SWITCH, samples=3), workers=1)
        assert res.nmttf_theoretical is None
        assert res.relative_error is None
        assert res.note and "l=3" in res.note

    def test_critical_fer_matches_critical_points(self):
        res = simulate_nmttf(plan_for(BCUBE_2x2, FailureType.LINK, samples=100), workers=1)
        assert res.critical_fer == pytest.approx(res.critical_points.mean() / 8)

    @pytest.mark.parametrize(
        "params,failure",
        [pytest.param(p, f, id=f"{param_id(p)}-{f.value}") for p, f in NMTTF_CONFIGS],
    )
    def test_critical_fer_is_the_report_rows_mean(self, params, failure):
        # mean(c) / F and mean(c / F) differ in the last bits for many
        # draws; the field and the report row take the same one.
        res = simulate_nmttf(plan_for(params, failure, samples=40), workers=1)
        row = next(r for r in reliability_rows(res) if r.metric == "critical_fer")
        assert res.critical_fer == row.mean


class TestSurvivalSweep:
    def test_zero_fer_gives_perfect_metrics(self):
        plan = plan_for(
            DCELL_SMALL,
            FailureType.LINK,
            fer_grids=((0.0,),),
            samples=5,
            metrics=("asr", "sc"),
        )
        rows = survival_sweep(plan, workers=1)
        by_metric = {r.metric: r for r in rows}
        assert by_metric["asr"].mean == 1.0
        assert by_metric["sc"].mean == 1.0
        assert by_metric["asr"].ci95_half_width == 0.0
        assert by_metric["asr"].normalized_time == 0.0

    def test_all_equal_samples_are_flagged_degenerate(self):
        plan = plan_for(
            DCELL_SMALL, FailureType.LINK, fer_grids=((0.0, 0.4),), samples=20, metrics=("asr",)
        )
        zero, varied = survival_sweep(plan, workers=1)
        assert zero.ci95_half_width == 0.0
        assert zero.extra == {"degenerate": True}
        assert varied.ci95_half_width > 0.0
        assert varied.extra == {}
        single = survival_sweep(replace(plan, samples=1), workers=1)[0]
        assert single.ci95_half_width is None
        assert single.extra == {}

    def test_rows_carry_grid_and_time(self):
        plan = plan_for(
            BCUBE_2x2,
            FailureType.LINK,
            fer_grids=((0.0, 0.25, 0.5),),
            samples=10,
            metrics=("asr",),
        )
        rows = survival_sweep(plan, workers=1)
        assert [r.fer_link for r in rows] == [0.0, 0.25, 0.5]
        table = normalized_time_table(8)
        assert rows[1].normalized_time == pytest.approx(table[2])
        assert all(r.fer_switch is None and r.fer_server is None for r in rows)

    def test_asr_means_match_oracle_estimates(self):
        plan = plan_for(
            DCELL_SMALL,
            FailureType.SWITCH,
            fer_grids=((0.4,),),
            samples=400,
            metrics=("asr",),
        )
        topo = build_topology(DCELL_SMALL)
        f = removal_count(0.4, topo.n_switches)
        rng = np.random.default_rng(8)
        oracle_values = []
        for _ in range(400):
            removed = set(
                (topo.n_servers + rng.permutation(topo.n_switches)[:f]).tolist()
            )
            adj = degraded_adjacency(topo, removed_switches=removed)
            oracle_values.append(
                len(oracle_accessible_servers(topo, adj, removed)) / topo.n_servers
            )
        row = survival_sweep(plan, workers=1)[0]
        se = 2 * math.hypot(
            np.std(oracle_values) / 20, row.ci95_half_width / 1.96 if row.ci95_half_width else 0
        )
        assert row.mean == pytest.approx(np.mean(oracle_values), abs=max(se, 0.02))

    def test_aspl_undefined_marker_row(self):
        # single-switch cell: removing the switch kills all gateway paths
        plan = plan_for(
            BCUBE_CELL,
            FailureType.SWITCH,
            fer_grids=((1.0,),),
            samples=4,
            metrics=("aspl",),
        )
        row = survival_sweep(plan, workers=1)[0]
        assert row.mean is None
        assert row.samples == 0

    def test_grid_validation(self):
        with pytest.raises(UnsupportedPlanError):
            plan_for(BCUBE_2x2, FailureType.LINK, fer_grids=((0.5, 0.1),))
        with pytest.raises(UnsupportedPlanError):
            plan_for(BCUBE_2x2, FailureType.LINK, fer_grids=((0.1, 1.2),))
        with pytest.raises(UnsupportedPlanError):
            plan_for(BCUBE_2x2, FailureType.LINK, samples=0)
        with pytest.raises(UnsupportedPlanError):
            plan_for(BCUBE_2x2, FailureType.LINK, metrics=("asr", "latency"))
        # An empty grid gives no grid point to run.
        with pytest.raises(UnsupportedPlanError, match="at least one value"):
            plan_for(BCUBE_2x2, FailureType.LINK, fer_grids=((),))
        with pytest.raises(UnsupportedPlanError, match="at least one value"):
            ExperimentPlan(
                params=BCUBE_2x2,
                failures=(FailureType.LINK, FailureType.SWITCH),
                fer_grids=((0.0, 0.5), ()),
            )
        # A value given twice would run two points, and write two rows, at
        # one FER.
        for grids in [((0.2, 0.2),), ((0.0, 0.5), (0.1, 0.3, 0.3))]:
            with pytest.raises(UnsupportedPlanError, match="strictly ascending"):
                ExperimentPlan(
                    params=BCUBE_2x2,
                    failures=(FailureType.LINK, FailureType.SWITCH)[: len(grids)],
                    fer_grids=grids,
                )

    @pytest.mark.parametrize("sweep", [survival_sweep, survival_sweep_2d])
    def test_capacity_assignment_of_another_topology_refused(self, sweep):
        # BCube 4/1 and fat-tree 4 both have 16 servers.
        bcube = assign_capacities(build_bcube(4, 1), builtin_dataset("google"), "unbalanced")
        fat_tree = TopologyParams(kind=TopologyKind.FAT_TREE, n=4)
        own = assign_capacities(build_topology(fat_tree), builtin_dataset("google"), "unbalanced")
        failures = (FailureType.LINK, FailureType.SWITCH)[: 2 if sweep is survival_sweep_2d else 1]
        plan = ExperimentPlan(
            params=fat_tree,
            failures=failures,
            fer_grids=((0.0, 0.5),) * len(failures),
            samples=3,
            metrics=("asr", "rcr_cpu"),
        )
        with pytest.raises(UnsupportedPlanError, match="capacity assignment is for"):
            sweep(plan, workers=1, capacity_assignment=bcube)
        rows = sweep(plan, workers=1, capacity_assignment=own)
        assert [r.metric for r in rows[:2]] == ["asr", "rcr_cpu"]


class TestSweep2d:
    def test_origin_cell_is_perfect(self):
        plan = ExperimentPlan(
            params=DCELL_SMALL,
            failures=(FailureType.LINK, FailureType.SWITCH),
            fer_grids=((0.0, 0.3), (0.0, 0.4)),
            samples=8,
            master_seed=3,
            metrics=("asr",),
        )
        rows = survival_sweep_2d(plan, workers=1)
        assert len(rows) == 4
        origin = rows[0]
        assert (origin.fer_link, origin.fer_switch) == (0.0, 0.0)
        assert origin.mean == 1.0

    def test_bcube5_barely_degrades_over_the_grid(self):
        # The densest fabric stays near-perfect over most of the combined
        # range; at the extreme corner its loss is bounded by the direct
        # interface-severance arithmetic (1 - (1-0.6*0.6)^5 ~ 0.89), far
        # above where every other topology lands.
        plan = ExperimentPlan(
            params=TopologyParams(kind=TopologyKind.BCUBE, n=5, l=4),
            failures=(FailureType.LINK, FailureType.SWITCH),
            fer_grids=((0.0, 0.2, 0.4), (0.0, 0.2, 0.4)),
            samples=20,
            master_seed=99,
            metrics=("asr",),
        )
        rows = survival_sweep_2d(plan, workers=2)
        for row in rows:
            assert row.mean >= 0.87
            if row.fer_link <= 0.2 and row.fer_switch <= 0.2:
                assert row.mean > 0.99

    def test_marginal_row_consistent_with_1d(self):
        samples = 300
        plan2d = ExperimentPlan(
            params=DCELL_SMALL,
            failures=(FailureType.LINK, FailureType.SWITCH),
            fer_grids=((0.0,), (0.4,)),
            samples=samples,
            master_seed=21,
            metrics=("asr",),
        )
        row2d = survival_sweep_2d(plan2d, workers=1)[0]
        plan1d = plan_for(
            DCELL_SMALL,
            FailureType.SWITCH,
            fer_grids=((0.4,),),
            samples=samples,
            master_seed=22,
            metrics=("asr",),
        )
        row1d = survival_sweep(plan1d, workers=1)[0]
        margin = (row2d.ci95_half_width or 0) + (row1d.ci95_half_width or 0)
        assert abs(row2d.mean - row1d.mean) <= max(margin, 1e-9)


class TestClassedSweep:
    def test_class_pools_match_a_per_element_scan(self):
        params = TopologyParams(
            kind=TopologyKind.THREE_LAYER, n_a=3, n_e=4, pairs=2, include_core_core_link=True
        )
        topo = build_topology(params)

        def kind_of(node):
            return "server" if topo.is_server(node) else topo.switch_layer(node)

        kinds = {
            "edge-switch": {"edge"},
            "agg-switch": {"aggregation"},
            "core-switch": {"core"},
            "edge-link": {"server", "edge"},
            "agg-link": {"edge", "aggregation"},
            "core-link": {"aggregation", "core"},
        }
        for element_class in ElementClass:
            want = kinds[element_class.value]
            if element_class.is_switch_class:
                switches = range(topo.n_servers, topo.n_nodes)
                expected = [n for n in switches if {kind_of(n)} == want]
            else:
                expected = [
                    i
                    for i, (u, v) in enumerate(zip(topo.edges_u.tolist(), topo.edges_v.tolist()))
                    if {kind_of(u), kind_of(v)} == want
                ]
            ids, on_nodes = _element_pool(topo, element_class)
            assert ids.tolist() == expected
            assert on_nodes == element_class.is_switch_class
        # aggregation-pair and core-core links belong to no class
        link_classes = [c for c in ElementClass if not c.is_switch_class]
        assert sum(len(_element_pool(topo, c)[0]) for c in link_classes) < topo.n_links

    def test_all_zero_ratios_keep_everything(self):
        ratios = {
            ElementClass.EDGE_SWITCH: None,
            ElementClass.AGG_SWITCH: 0.0,
            ElementClass.CORE_SWITCH: 0.0,
        }
        plan = plan_for(
            THREE_LAYER_SMALL,
            FailureType.SWITCH,
            fer_grids=((0.0,),),
            samples=4,
            metrics=("asr",),
            class_ratios=ratios,
        )
        row = classed_sweep(plan, workers=1)[0]
        assert row.mean == 1.0
        assert row.failure_type == "edge-switch"

    def test_edge_switch_sweep_is_deterministic_fraction(self):
        # removing k of the E edge switches always removes k*n_e servers
        ratios = {
            ElementClass.EDGE_SWITCH: None,
            ElementClass.AGG_SWITCH: 0.0,
            ElementClass.CORE_SWITCH: 0.0,
        }
        plan = plan_for(
            THREE_LAYER_SMALL,
            FailureType.SWITCH,
            fer_grids=((0.0, 0.5, 1.0),),
            samples=12,
            metrics=("asr",),
            class_ratios=ratios,
        )
        rows = classed_sweep(plan, workers=1)
        edges_total = 6
        for row, fer in zip(rows, (0.0, 0.5, 1.0)):
            k = removal_count(fer, edges_total)
            assert row.mean == pytest.approx(1 - k / edges_total)
            assert row.ci95_half_width == 0.0

    def test_one_core_switch_down_changes_nothing(self):
        base = {
            ElementClass.EDGE_SWITCH: None,
            ElementClass.AGG_SWITCH: 0.0,
            ElementClass.CORE_SWITCH: 0.0,
        }
        one_core = dict(base, **{ElementClass.CORE_SWITCH: 0.5})

        def plan_with(ratios):
            return plan_for(
                THREE_LAYER_SMALL,
                FailureType.SWITCH,
                fer_grids=((0.0, 0.5),),
                samples=40,
                metrics=("asr",),
                class_ratios=ratios,
            )

        rows_a = classed_sweep(plan_with(base), workers=1)
        rows_b = classed_sweep(plan_with(one_core), workers=1)
        for a, b in zip(rows_a, rows_b):
            margin = (a.ci95_half_width or 0) + (b.ci95_half_width or 0)
            assert abs(a.mean - b.mean) <= max(margin, 1e-9)

    def test_rejects_other_topologies_and_bad_ratio_sets(self):
        def plan_with(params, ratios):
            return plan_for(
                params,
                FailureType.SWITCH,
                fer_grids=((0.1,),),
                metrics=("asr",),
                class_ratios=ratios,
            )

        with pytest.raises(UnsupportedPlanError):
            classed_sweep(plan_with(BCUBE_2x2, {ElementClass.EDGE_SWITCH: None}), workers=1)
        with pytest.raises(UnsupportedPlanError):
            classed_sweep(
                plan_with(THREE_LAYER_SMALL, {ElementClass.EDGE_SWITCH: 0.1}), workers=1
            )
        with pytest.raises(UnsupportedPlanError):
            classed_sweep(
                plan_with(
                    THREE_LAYER_SMALL,
                    {ElementClass.EDGE_SWITCH: None, ElementClass.AGG_LINK: 0.1},
                ),
                workers=1,
            )


class TestGatewayPolicySensitivity:
    def test_single_gateway_hurts_switch_survivability(self):
        from dcn_robust.topology import GatewayPolicy

        def asr_at_04(policy):
            params = TopologyParams(
                kind=TopologyKind.DCELL, n=4, l=1, gateway_policy=policy
            )
            plan = ExperimentPlan(
                params=params,
                failures=(FailureType.SWITCH,),
                fer_grids=((0.4,),),
                samples=300,
                master_seed=88,
                metrics=("asr",),
            )
            return survival_sweep(plan, workers=1)[0]

        full = asr_at_04(GatewayPolicy.max_density())
        single = asr_at_04(GatewayPolicy.min_density())
        # with one gateway, drawing it among the 2 removed switches of 5
        # zeroes the sample; with all five as gateways it rarely matters
        margin = (full.ci95_half_width or 0) + (single.ci95_half_width or 0)
        assert single.mean < full.mean - margin

    def test_link_failures_barely_affected_by_gpd(self):
        from dcn_robust.topology import GatewayPolicy

        params = TopologyParams(
            kind=TopologyKind.BCUBE, n=4, l=1, gateway_policy=GatewayPolicy.min_density()
        )
        plan = ExperimentPlan(
            params=params,
            failures=(FailureType.LINK,),
            fer_grids=((0.2,),),
            samples=200,
            master_seed=88,
            metrics=("asr",),
        )
        single = survival_sweep(plan, workers=1)[0]
        assert single.mean > 0.9


class TestDeterminismAndWorkers:
    def test_identical_results_across_worker_counts(self):
        plan = plan_for(DCELL_SMALL, FailureType.LINK, fer_grids=((0.2, 0.4),), samples=40)
        rows1 = survival_sweep(plan, workers=1)
        rows2 = survival_sweep(plan, workers=2)
        assert rows1 == rows2
        for failure in (FailureType.LINK, FailureType.SWITCH):
            res1 = simulate_nmttf(plan_for(DCELL_SMALL, failure, samples=60), workers=1)
            res2 = simulate_nmttf(plan_for(DCELL_SMALL, failure, samples=60), workers=2)
            assert np.array_equal(res1.critical_points, res2.critical_points)
            assert res1.nmttf_sim == res2.nmttf_sim
        plan2d = ExperimentPlan(
            params=DCELL_SMALL,
            failures=(FailureType.LINK, FailureType.SWITCH),
            fer_grids=((0.0, 0.3), (0.2, 0.4)),
            samples=20,
            master_seed=5,
        )
        assert survival_sweep_2d(plan2d, workers=1) == survival_sweep_2d(plan2d, workers=2)
        classed = plan_for(
            THREE_LAYER_SMALL,
            FailureType.LINK,
            fer_grids=((0.1, 0.5),),
            samples=20,
            class_ratios={ElementClass.EDGE_LINK: None, ElementClass.AGG_LINK: 0.25},
        )
        assert classed_sweep(classed, workers=1) == classed_sweep(classed, workers=2)

    @staticmethod
    def counting_pools(monkeypatch, pool=simulation.ProcessPoolExecutor) -> list:
        """The pools the simulation starts from now on, each started as *pool*."""
        created = []

        def counting(*args, **kwargs):
            created.append(pool(*args, **kwargs))
            return created[-1]

        monkeypatch.setattr(simulation, "ProcessPoolExecutor", counting)
        return created

    def test_one_pool_per_operation(self, monkeypatch):
        created = self.counting_pools(monkeypatch)
        plan = plan_for(DCELL_SMALL, FailureType.LINK, fer_grids=((0.1, 0.2, 0.3),), samples=8)
        rows = survival_sweep(plan, workers=2)
        assert len(created) == 1
        assert [r.fer_link for r in rows[::2]] == [0.1, 0.2, 0.3]

    def test_fewer_than_two_tasks_per_worker_run_inline(self, monkeypatch):
        created = self.counting_pools(monkeypatch)
        sweep = plan_for(DCELL_SMALL, FailureType.LINK, fer_grids=((0.3,),), samples=2)
        # Two samples are two tasks: below two per worker, so no pool.
        assert survival_sweep(sweep, workers=2) == survival_sweep(sweep, workers=1)
        assert created == []
        survival_sweep(replace(sweep, samples=4), workers=2)
        assert len(created) == 1
        for samples, pools in ((3, 1), (4, 2)):
            simulate_nmttf(plan_for(DCELL_SMALL, FailureType.LINK, samples=samples), workers=2)
            assert len(created) == pools
        # Ten tasks at eight workers: a pool of five, not none.
        rows = survival_sweep(replace(sweep, samples=10), workers=8)
        assert [pool._max_workers for pool in created[pools:]] == [5]
        assert rows == survival_sweep(replace(sweep, samples=10), workers=1)

    def test_identical_results_under_spawn(self, monkeypatch):
        # Spawned workers inherit no topology or pool cache from the parent,
        # so they must rebuild everything from the task alone.
        from multiprocessing import get_context

        sweep = plan_for(DCELL_SMALL, FailureType.LINK, fer_grids=((0.2, 0.4),), samples=8)
        mttf = plan_for(DCELL_SMALL, FailureType.SWITCH, samples=8)
        expected = survival_sweep(sweep, workers=1), simulate_nmttf(mttf, workers=1)
        spawn_pool = functools.partial(
            simulation.ProcessPoolExecutor, mp_context=get_context("spawn")
        )
        created = self.counting_pools(monkeypatch, spawn_pool)
        rows = survival_sweep(sweep, workers=2)
        result = simulate_nmttf(mttf, workers=2)
        assert len(created) == 2  # eight samples at two workers: both on the pool
        assert rows == expected[0]
        assert np.array_equal(result.critical_points, expected[1].critical_points)
        assert result.nmttf_sim == expected[1].nmttf_sim

    def test_the_pool_module_loads_on_the_first_operation_that_forks(self):
        code = """
import sys
import dcn_robust, dcn_robust.cli
import numpy as np
from dcn_robust import simulation
from dcn_robust.analytic import FailureType
from dcn_robust.topology import TopologyKind, TopologyParams

params = TopologyParams(kind=TopologyKind.DCELL, n=4, l=1)
sweep = simulation.ExperimentPlan(params, (FailureType.LINK,), ((0.3,),), samples=2)
simulation.survival_sweep(sweep, workers=2)  # two tasks: inline
print("concurrent.futures.process" in sys.modules)
mttf = simulation.ExperimentPlan(params, (FailureType.LINK,), samples=4, master_seed=5)
forked = simulation.simulate_nmttf(mttf, workers=2)
print("concurrent.futures.process" in sys.modules)
inline = simulation.simulate_nmttf(mttf, workers=1)
print(np.array_equal(forked.critical_points, inline.critical_points)
      and (forked.nmttf_sim, forked.ci95_half_width) == (inline.nmttf_sim, inline.ci95_half_width))
"""
        env = {**os.environ, "PYTHONPATH": str(Path(simulation.__file__).resolve().parents[1])}
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.split() == ["False", "True", "True"]

    def test_the_pool_class_is_a_module_attribute(self):
        from concurrent.futures import ProcessPoolExecutor

        assert hasattr(simulation, "ProcessPoolExecutor")
        assert simulation.ProcessPoolExecutor is ProcessPoolExecutor
        assert not hasattr(simulation, "ThreadPoolExecutor")

    def test_resolve_workers_env(self, monkeypatch):
        monkeypatch.setenv("DCN_ROBUST_THREADS", "3")
        assert resolve_workers() == 3
        monkeypatch.setenv("DCN_ROBUST_THREADS", "0")
        assert resolve_workers() >= 1
        monkeypatch.delenv("DCN_ROBUST_THREADS")
        assert resolve_workers(2) == 2
        monkeypatch.setenv("DCN_ROBUST_THREADS", "lots")
        with pytest.raises(UnsupportedPlanError):
            resolve_workers()

    def test_default_is_the_cpus_this_process_may_run_on(self, monkeypatch):
        # Under ``taskset -c 0`` on two CPUs: one CPU allowed, two present.
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.delenv("DCN_ROBUST_THREADS", raising=False)
        assert resolve_workers() == resolve_workers(0) == 1
        # Where the OS has no affinity call, the CPU count stands.
        monkeypatch.delattr(os, "sched_getaffinity")
        assert resolve_workers() == 2


class TestRngStreamBounds:
    # Only constructs the plans: the stream index packs the point into 24
    # bits and the sample into 32, so larger plans would alias streams.
    def test_sample_count_bound(self):
        plan_for(BCUBE_2x2, FailureType.LINK, samples=2**32)
        with pytest.raises(UnsupportedPlanError, match="samples"):
            plan_for(BCUBE_2x2, FailureType.LINK, samples=2**32 + 1)

    def test_grid_point_bound_counts_the_product(self):
        def plan_2d(n_link, n_switch):
            return ExperimentPlan(
                params=BCUBE_2x2,
                failures=(FailureType.LINK, FailureType.SWITCH),
                fer_grids=(np.linspace(0, 1, n_link), np.linspace(0, 1, n_switch)),
            )

        plan_2d(2**12, 2**12)
        with pytest.raises(UnsupportedPlanError, match="grid points"):
            plan_2d(2**12 + 1, 2**12)


class TestDerivedMemo:
    def test_derived_builds_once_per_topology_and_key(self):
        calls = []

        @derived
        def probe(topology, key):
            calls.append(key)
            return object()

        topo = build_topology(DCELL_SMALL)
        assert probe(topo, 1) is probe(topo, 1)
        assert probe(topo, 2) is not probe(topo, 1)
        assert calls == [1, 2]

    def test_each_engine_function_builds_once(self):
        topo = build_topology(THREE_LAYER_SMALL)
        assert reachability._pattern(topo) is reachability._pattern(topo)
        link, switch = FailureType.LINK, FailureType.SWITCH
        assert simulation._cluster_graph(topo, link) is simulation._cluster_graph(topo, link)
        assert simulation._cluster_graph(topo, switch) is not simulation._cluster_graph(topo, link)
        edge = ElementClass.EDGE_LINK
        assert _element_pool(topo, edge) is _element_pool(topo, edge)
        # One entry per function and key; both cluster graphs read the
        # pattern, built once.
        assert len(topo.memo) == 4

    def test_the_link_cluster_graph_is_the_pattern_itself(self):
        topo = build_topology(DCELL_SMALL)
        graph = simulation._cluster_graph(topo, FailureType.LINK)
        pattern = reachability._pattern(topo)
        assert len(pattern) == 3 and all(a is b for a, b in zip(graph[:3], pattern))

    @pytest.mark.parametrize(
        "params",
        [
            THREE_LAYER_SMALL,
            TopologyParams(kind=TopologyKind.FAT_TREE, n=4),
            BCUBE_CELL,
            TopologyParams(kind=TopologyKind.BCUBE, n=3, l=2),
            TopologyParams(kind=TopologyKind.DCELL, n=4, l=0),
            DCELL_SMALL,
            TopologyParams(kind=TopologyKind.DCELL, n=3, l=2),
        ],
        ids=param_id,
    )
    def test_switch_failures_contract_only_where_two_servers_share_a_link(self, params):
        # Switch failures never remove a server-server link, and only DCell
        # with l >= 1 has one: everywhere else the switch cluster graph is
        # the pattern's own arrays and its probe the partition's view.
        topo = build_topology(params)
        switch = FailureType.SWITCH
        graph = simulation._cluster_graph(topo, switch)
        shared = all(a is b for a, b in zip(graph[:3], reachability._pattern(topo)))
        assert shared is not (params.kind is TopologyKind.DCELL and params.l >= 1)
        assert (simulation._cluster_probe(topo, switch) is reachability._server_view(topo)) is shared
        assert (int(graph[3].max()) + 1 == topo.n_servers) is shared

    def test_a_filled_memo_changes_no_equality_repr_or_document(self):
        topo = build_topology(DCELL_SMALL)
        before = repr(topo), serialize_topology(topo)
        simulation._cluster_graph(topo, FailureType.SWITCH)
        _element_pool(topo, FailureType.LINK)
        assert topo.memo
        fresh = build_topology(DCELL_SMALL)
        assert topo == fresh and fresh == topo
        assert (repr(topo), serialize_topology(topo)) == before
        assert (repr(fresh), serialize_topology(fresh)) == before

    def test_a_rebuilt_topology_starts_with_an_empty_memo(self):
        # Derived data lives on the object, not under its params.
        topo = build_topology(DCELL_SMALL)
        pattern = reachability._pattern(topo)
        rebuilt = build_topology(DCELL_SMALL)
        assert rebuilt.memo == {}
        again = reachability._pattern(rebuilt)
        assert again is not pattern
        assert all(a is not b and np.array_equal(a, b) for a, b in zip(again, pattern))
        assert replace(topo).memo == {}

    def test_the_topology_cache_drops_the_least_recent_params_past_its_bound(self):
        cached = simulation._cached_topology
        cached.cache_clear()
        size = cached.cache_info().maxsize
        assert size == 8
        params = [TopologyParams(kind=TopologyKind.BCUBE, n=n, l=0) for n in range(2, size + 3)]
        first, second = (cached(p) for p in params[:2])
        kept = [cached(p) for p in params[2:-1]]
        assert cached(params[0]) is first  # size entries: all kept; params[0] is now the newest
        assert cached.cache_info()[:] == (1, size, size, size)  # hits, misses, maxsize, currsize
        last = cached(params[-1])  # one past the bound: params[1], the least recent, goes
        assert cached.cache_info().currsize == size
        assert cached(params[0]) is first
        assert all(cached(p) is topo for p, topo in zip(params[2:-1], kept))
        assert cached(params[-1]) is last
        assert cached.cache_info().misses == size + 1
        assert cached(params[1]) is not second
        assert cached.cache_info().misses == size + 2


class TestPlanDocuments:
    def test_round_trip(self):
        plan = ExperimentPlan(
            params=THREE_LAYER_SMALL,
            failures=(FailureType.SWITCH,),
            fer_grids=((0.0, 0.1),),
            samples=17,
            master_seed=99,
            metrics=("asr", "sc"),
        )
        assert plan_from_doc(plan_to_doc(plan)) == plan

    def test_class_ratios_round_trip(self):
        plan = plan_for(
            THREE_LAYER_SMALL,
            FailureType.LINK,
            fer_grids=((0.0, 0.2),),
            class_ratios={ElementClass.EDGE_LINK: None, ElementClass.AGG_LINK: 0.25},
        )
        doc = plan_to_doc(plan)
        assert doc["class_ratios"] == {"agg-link": 0.25, "edge-link": None}
        assert plan_from_doc(doc) == plan
        assert "class_ratios" not in plan_to_doc(plan_for(BCUBE_2x2, FailureType.LINK))

    def test_class_ratios_must_match_the_failure_type(self):
        ratios = {ElementClass.EDGE_LINK: None, ElementClass.AGG_LINK: 0.25}
        with pytest.raises(UnsupportedPlanError, match="link-class"):
            plan_for(THREE_LAYER_SMALL, FailureType.SWITCH, class_ratios=ratios)
        with pytest.raises(UnsupportedPlanError, match="ratio"):
            plan_for(
                THREE_LAYER_SMALL,
                FailureType.LINK,
                class_ratios={ElementClass.EDGE_LINK: None, ElementClass.AGG_LINK: 1.5},
            )

    def test_repeated_metric_rejected(self):
        with pytest.raises(UnsupportedPlanError, match="repeat"):
            plan_for(BCUBE_2x2, FailureType.LINK, metrics=("asr", "sc", "asr"))

    @pytest.mark.parametrize(
        "grid",
        [(float("nan"),), (0.0, float("nan")), (float("nan"), 0.5), (0.5, float("inf"))],
        ids=["nan-only", "nan-last", "nan-first", "inf"],
    )
    def test_every_grid_value_is_range_checked(self, grid):
        with pytest.raises(UnsupportedPlanError, match=r"must lie in \[0, 1\]"):
            plan_for(BCUBE_2x2, FailureType.LINK, fer_grids=(grid,))

    @pytest.mark.parametrize(
        "ratio, message",
        [("0.25", 'got "0.25"'), (True, "got true")],
        ids=["string", "bool"],
    )
    def test_class_ratio_must_be_a_json_number(self, ratio, message):
        plan = plan_for(
            THREE_LAYER_SMALL,
            FailureType.LINK,
            fer_grids=((0.0, 0.2),),
            class_ratios={ElementClass.EDGE_LINK: None, ElementClass.AGG_LINK: 0.25},
        )
        doc = plan_to_doc(plan)
        doc["class_ratios"]["agg-link"] = ratio
        must = "class ratio agg-link must be a number or null"
        with pytest.raises(UnsupportedPlanError, match=f"{must}, {message}"):
            plan_from_doc(doc)
        doc["class_ratios"] = [["agg-link", 0.25]]
        with pytest.raises(UnsupportedPlanError, match="class_ratios must be an object"):
            plan_from_doc(doc)

    def test_bad_documents(self):
        with pytest.raises(UnsupportedPlanError):
            plan_from_doc({"failures": ["link"]})
        plan = plan_to_doc(plan_for(BCUBE_2x2, FailureType.LINK))
        plan["failures"] = ["meteor"]
        with pytest.raises(UnsupportedPlanError):
            plan_from_doc(plan)
        # A misspelled field would otherwise leave its default in force.
        for name, value in (("sample", 5), ("seed", 3), ("fer_grid", [[0.1]])):
            doc = {**plan_to_doc(plan_for(BCUBE_2x2, FailureType.LINK)), name: value}
            with pytest.raises(UnsupportedPlanError, match=f"unknown field {name}$"):
                plan_from_doc(doc)


class TestPlanFieldTypes:
    """A library plan is held to the rules a plan document is: the plan
    checks its own fields, so what runs is what its echo says."""

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("samples", 2.9, "plan: samples must be an integer, got 2.9"),
            ("samples", True, "plan: samples must be an integer, got true"),
            ("master_seed", 1.5, "plan: master_seed must be an integer, got 1.5"),
            ("master_seed", True, "plan: master_seed must be an integer, got true"),
            ("fer_grids", (("0.5",),), 'plan: FER values must be numbers, got "0.5"'),
            ("fer_grids", ((0.0, np.True_),), "plan: FER values must be numbers, got np.True_"),
            ("fer_grids", np.array([0.5]), "plan: fer_grids must be a list of lists, got array"),
            ("failures", "link", 'plan: failures must be a list of strings, got "link"'),
            ("metrics", "asr", 'plan: metrics must be a list of strings, got "asr"'),
            ("metrics", ("asr", 1), 'plan: metrics must be a list of strings, got ["asr", 1]'),
        ],
        ids=[
            "samples-float", "samples-bool", "seed-float", "seed-bool", "fer-string",
            "fer-numpy-bool", "grids-flat-array", "failures-string", "metrics-string",
            "metrics-int",
        ],
    )
    def test_a_mistyped_library_plan_is_refused(self, field, value, message):
        fields = {"failures": (FailureType.LINK,), "fer_grids": ((0.5,),), field: value}
        with pytest.raises(UnsupportedPlanError) as err:
            ExperimentPlan(params=BCUBE_2x2, **fields)
        assert str(err.value).startswith(message)

    def test_params_that_are_no_topology_params_are_refused(self):
        # A dict used to build a plan; plan_to_doc then raised AttributeError
        # and simulate_nmttf TypeError (a dict is no cache key).
        message = 'plan: params must be TopologyParams, got {"kind": "fat-tree", "n": 4}'
        with pytest.raises(UnsupportedPlanError) as err:
            ExperimentPlan(params={"kind": "fat-tree", "n": 4}, failures=(FailureType.LINK,))
        assert str(err.value) == message

    @pytest.mark.parametrize("ratio", ["0.25", True], ids=["string", "bool"])
    def test_a_mistyped_library_class_ratio_is_refused(self, ratio):
        with pytest.raises(UnsupportedPlanError, match="class ratio agg-link must be a number"):
            plan_for(
                THREE_LAYER_SMALL,
                FailureType.LINK,
                fer_grids=((0.0, 0.2),),
                class_ratios={ElementClass.EDGE_LINK: None, ElementClass.AGG_LINK: ratio},
            )

    def test_numpy_numbers_are_stored_as_python_numbers(self):
        params = TopologyParams(kind=TopologyKind.BCUBE, n=np.int64(2), l=np.int32(1))
        plan = ExperimentPlan(
            params=params,
            failures=(FailureType.LINK,),
            fer_grids=(np.linspace(0, 1, 3, dtype=np.float32),),
            samples=np.int64(5),
            master_seed=np.uint64(7),
        )
        same = plan_for(BCUBE_2x2, FailureType.LINK, fer_grids=((0.0, 0.5, 1.0),), samples=5)
        assert plan == replace(same, master_seed=7)
        assert type(plan.samples) is int and type(plan.master_seed) is int
        assert all(type(x) is float for x in plan.fer_grids[0])
        assert plan_from_doc(plan_to_doc(plan)) == plan
        # The echo a JSON report writes re-reads as the plan.
        assert plan_from_doc(json.loads(json.dumps(plan_to_doc(plan)))) == plan

    def test_a_replaced_field_is_checked_too(self):
        plan = plan_for(BCUBE_2x2, FailureType.LINK)
        with pytest.raises(UnsupportedPlanError, match="metrics must be a list of strings"):
            replace(plan, metrics="asr")
