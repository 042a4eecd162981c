import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest

from dcn_robust.topology import (
    GatewayPolicy,
    TopologyKind,
    TopologyParameterError,
    TopologyParams,
    TopologyParseError,
    build_bcube,
    build_dcell,
    build_fat_tree,
    build_three_layer,
    build_topology,
    dcell_server_count,
    gateway_port_density,
    params_from_doc,
    params_to_doc,
    parse_topology,
    serialize_topology,
)

from conftest import bfs_distances, degraded_adjacency


def closed_form_counts(params: TopologyParams) -> tuple[int, int, int]:
    """(servers, switches, links) from the construction rules."""
    if params.kind is TopologyKind.THREE_LAYER:
        servers = params.pairs * params.n_a * params.n_e
        switches = 2 + 2 * params.pairs + params.pairs * params.n_a
        links = (
            servers
            + 2 * params.pairs * params.n_a
            + 4 * params.pairs
            + params.pairs
            + (1 if params.include_core_core_link else 0)
        )
        return servers, switches, links
    if params.kind is TopologyKind.FAT_TREE:
        n = params.n
        return n**3 // 4, (n // 2) ** 2 + n * n, 3 * n**3 // 4
    if params.kind is TopologyKind.BCUBE:
        n, l = params.n, params.l
        return n ** (l + 1), (l + 1) * n**l, (l + 1) * n ** (l + 1)
    t = dcell_server_count(params.n, params.l)
    return t, t // params.n, t + t * params.l // 2


PARAM_GRID = (
    [TopologyParams(kind=TopologyKind.THREE_LAYER, n_a=a, n_e=e, pairs=p, include_core_core_link=c)
     for a in (1, 2, 12) for e in (1, 3, 48) for p in (1, 2, 6) for c in (False, True)]
    + [TopologyParams(kind=TopologyKind.FAT_TREE, n=n) for n in (2, 4, 6, 8, 12, 24)]
    + [TopologyParams(kind=TopologyKind.BCUBE, n=n, l=l) for n in (2, 3, 4, 5) for l in (0, 1, 2)]
    + [TopologyParams(kind=TopologyKind.DCELL, n=n, l=l) for n in (2, 3, 4, 7) for l in (0, 1, 2)]
)


def param_id(params: TopologyParams) -> str:
    return f"{params.kind.value}({params.args_text()})"


@pytest.mark.parametrize("params", PARAM_GRID, ids=param_id)
def test_count_closure(params):
    topo = build_topology(params)
    servers, switches, links = closed_form_counts(params)
    assert topo.n_servers == servers
    assert topo.n_switches == switches
    assert topo.n_links == links


@pytest.mark.parametrize("params", PARAM_GRID, ids=param_id)
def test_failure_free_connectivity_and_simplicity(params):
    topo = build_topology(params)
    pairs = set(zip(topo.edges_u.tolist(), topo.edges_v.tolist()))
    assert len(pairs) == topo.n_links, "parallel edges"
    assert all(u < v for u, v in pairs), "self-loops or non-canonical edges"
    adj = degraded_adjacency(topo)
    dist = bfs_distances(adj, 0)
    assert all(d != float("inf") for d in dist), "disconnected when failure-free"


@pytest.mark.parametrize("params", PARAM_GRID, ids=param_id)
def test_server_degrees(params):
    topo = build_topology(params)
    expected = 1
    if params.kind in (TopologyKind.BCUBE, TopologyKind.DCELL):
        expected = params.l + 1
    deg = np.bincount(
        np.concatenate([topo.edges_u, topo.edges_v]), minlength=topo.n_nodes
    )[: topo.n_servers]
    assert set(deg.tolist()) == {expected}


@pytest.mark.parametrize("params", PARAM_GRID[::7], ids=param_id)
def test_build_determinism(params):
    a = serialize_topology(build_topology(params))
    b = serialize_topology(build_topology(params))
    assert a == b


# Catalog spot checks (the full 20-row sweep lives in the acceptance suite).
@pytest.mark.parametrize(
    "builder,expect",
    [
        (lambda: build_three_layer(12, 48, 6), (3456, 86, 3630)),
        (lambda: build_three_layer(12, 48, 1), (576, 16, 605)),
        (lambda: build_fat_tree(24), (3456, 720, 10368)),
        (lambda: build_fat_tree(4), (16, 20, 48)),
        (lambda: build_fat_tree(2), (2, 5, 6)),
        (lambda: build_bcube(58, 1), (3364, 116, 6728)),
        (lambda: build_bcube(4, 1), (16, 8, 32)),
        (lambda: build_bcube(2, 0), (2, 1, 2)),
        (lambda: build_dcell(58, 1), (3422, 59, 5133)),
        (lambda: build_dcell(7, 2), (3192, 456, 6384)),
        (lambda: build_dcell(4, 1), (20, 5, 30)),
    ],
)
def test_reference_sizes(builder, expect):
    topo = builder()
    assert (topo.n_servers, topo.n_switches, topo.n_links) == expect


def test_three_layer_smallest_module():
    # Formula count; the agg pair and core-core interconnects are real links.
    topo = build_three_layer(1, 1, 1, include_core_core_link=True)
    assert (topo.n_servers, topo.n_switches, topo.n_links) == (1, 5, 9)


def test_three_layer_cores_reach_every_aggregation_switch():
    topo = build_three_layer(3, 2, 4)
    adj = degraded_adjacency(topo)
    aggs = [
        topo.n_servers + i
        for i, layer in enumerate(topo.switch_layers)
        if layer == "aggregation"
    ]
    for core in topo.gateways.tolist():
        assert set(aggs) <= set(adj[core])


def test_fat_tree_core_pod_wiring():
    n = 6
    topo = build_fat_tree(n)
    adj = degraded_adjacency(topo)
    half = n // 2
    cores = topo.gateways.tolist()  # every core under the default max policy
    assert len(cores) == half * half
    for core in cores:
        # one aggregation link into each of the n pods
        pods = sorted((a - topo.n_servers - half * half) // n for a in adj[core])
        assert pods == list(range(n))


def test_dcell_level_links_form_perfect_matching():
    for n, l in [(2, 1), (4, 1), (3, 2), (4, 2)]:
        topo = build_dcell(n, l)
        # level-k links are exactly the server-server edges
        seen = np.zeros(topo.n_servers, dtype=int)
        count = 0
        for u, v in zip(topo.edges_u.tolist(), topo.edges_v.tolist()):
            if v < topo.n_servers:  # both endpoints servers
                seen[u] += 1
                seen[v] += 1
                count += 1
        assert count == topo.n_servers * l // 2
        assert set(seen.tolist()) == ({l} if l else {0})


def test_gateway_defaults():
    assert len(build_three_layer(2, 2, 3).gateways) == 2
    assert len(build_fat_tree(8).gateways) == 16
    bc = build_bcube(3, 2)
    assert len(bc.gateways) == 9
    assert all(bc.switch_layer(g) == "level-2" for g in bc.gateways.tolist())
    dc = build_dcell(4, 1)
    assert len(dc.gateways) == dc.n_switches


def test_gateway_policies():
    topo = build_fat_tree(8)
    one = build_fat_tree(8, GatewayPolicy.min_density())
    assert len(one.gateways) == 1
    three = build_fat_tree(8, GatewayPolicy.count(3))
    assert len(three.gateways) == 3
    assert three.gateways.tolist() == sorted(topo.gateways.tolist())[:3]
    with pytest.raises(TopologyParameterError):
        build_fat_tree(8, GatewayPolicy.count(17))  # only 16 cores
    assert GatewayPolicy.parse("count=5") == GatewayPolicy.count(5)
    with pytest.raises(TopologyParameterError):
        GatewayPolicy.parse("most")


def test_gateway_port_density_values():
    assert gateway_port_density(build_fat_tree(24)) == pytest.approx(1.0)
    three = build_three_layer(12, 48, 6)
    assert gateway_port_density(three) == pytest.approx(24 / 3456)
    assert gateway_port_density(three) == pytest.approx(0.007, abs=2e-4)
    assert gateway_port_density(build_bcube(4, 1)) == pytest.approx(1.0)
    assert gateway_port_density(build_dcell(4, 1)) == pytest.approx(1.0)
    ft_min = build_fat_tree(24, GatewayPolicy.min_density())
    assert gateway_port_density(ft_min) == pytest.approx(24 / 3456)


@pytest.mark.parametrize(
    "factory",
    [
        lambda: build_fat_tree(5),
        lambda: build_fat_tree(0),
        lambda: build_bcube(1, 1),
        lambda: build_bcube(4, -1),
        lambda: build_dcell(1, 1),
        lambda: build_three_layer(0, 4, 1),
        lambda: build_three_layer(4, 0, 1),
        lambda: build_three_layer(4, 4, 0),
    ],
)
def test_parameter_errors(factory):
    with pytest.raises(TopologyParameterError):
        factory()


# One small instance of each kind with at least two top-level switches,
# under each gateway policy.
POLICY_GRID = tuple(
    replace(params, gateway_policy=policy)
    for params in (
        TopologyParams(
            kind=TopologyKind.THREE_LAYER, n_a=2, n_e=3, pairs=2, include_core_core_link=True
        ),
        TopologyParams(kind=TopologyKind.FAT_TREE, n=4),
        TopologyParams(kind=TopologyKind.BCUBE, n=3, l=1),
        TopologyParams(kind=TopologyKind.DCELL, n=3, l=1),
    )
    for policy in (GatewayPolicy.max_density(), GatewayPolicy.min_density(), GatewayPolicy.count(2))
)


def test_serialize_round_trip():
    for params in (PARAM_GRID[0], PARAM_GRID[-1],
                   TopologyParams(kind=TopologyKind.BCUBE, n=2, l=0), *POLICY_GRID):
        topo = build_topology(params)
        again = parse_topology(serialize_topology(topo))
        assert again == topo
        assert serialize_topology(again) == serialize_topology(topo)


def test_parse_rejects_unknown_edge_endpoint():
    doc = serialize_topology(build_bcube(2, 0))
    bad = doc.replace('"edges":[[0,2],[1,2]]', '"edges":[[0,2],[1,99]]')
    with pytest.raises(TopologyParseError, match=r"edges\[1\].*99"):
        parse_topology(bad)


def test_parse_rejects_server_gateway():
    doc = serialize_topology(build_bcube(2, 0))
    bad = doc.replace('"gateways":[2]', '"gateways":[0]')
    with pytest.raises(TopologyParseError, match=r"gateways\[0\]: got 0, params build 2"):
        parse_topology(bad)


def test_parse_refuses_a_document_with_an_edge_removed():
    doc = json.loads(serialize_topology(build_fat_tree(4)))
    doc["edges"].pop(17)
    with pytest.raises(TopologyParseError, match="edges: got 47, params build 48 entries"):
        parse_topology(json.dumps(doc))


@pytest.mark.parametrize("policy", ["max", "min", "count=2"])
def test_parse_refuses_gateways_that_contradict_the_policy(policy):
    doc = json.loads(serialize_topology(build_fat_tree(4, GatewayPolicy.parse(policy))))
    # fat-tree 4's top-level switches are 16 to 19.
    doc["gateways"] = {"max": [16], "min": [17], "count=2": [16, 17, 18]}[policy]
    with pytest.raises(TopologyParseError, match=r"^gateways"):
        parse_topology(json.dumps(doc))


def test_parse_refuses_a_renamed_switch_layer():
    doc = json.loads(serialize_topology(build_fat_tree(4)))
    doc["nodes"][20]["layer"] = "core"  # an aggregation switch
    with pytest.raises(
        TopologyParseError, match=r'nodes\[20\]: got .*"core"}, params build .*"aggregation"}'
    ):
        parse_topology(json.dumps(doc))


def test_parse_rejects_garbage():
    with pytest.raises(TopologyParseError, match="line"):
        parse_topology("{not json")
    with pytest.raises(TopologyParseError, match="format"):
        parse_topology("{}")



@pytest.mark.parametrize(
    "field, value, message",
    [
        ("params", [], r"params: expected an object, got \[\]"),
        ("n", "4", 'params: n must be an integer, got "4"'),
        ("n", 4.0, "params: n must be an integer, got 4.0"),
        ("n", True, "params: n must be an integer, got true"),
        ("gateway_policy", 5, "gateway_policy: expected a string, got 5"),
    ],
)
def test_parse_refuses_params_of_the_wrong_json_type(field, value, message):
    doc = json.loads(serialize_topology(build_fat_tree(4)))
    if field == "params":
        doc["params"] = value
    else:
        doc["params"][field] = value
    with pytest.raises(TopologyParseError, match=message):
        parse_topology(json.dumps(doc))


def test_three_layer_core_link_flag_must_be_a_bool():
    doc = params_to_doc(TopologyParams(kind=TopologyKind.THREE_LAYER, n_a=1, n_e=1, pairs=1))
    doc["include_core_core_link"] = 1
    with pytest.raises(TopologyParseError, match="include_core_core_link must be true or false"):
        params_from_doc(doc)


@pytest.mark.parametrize(
    "kind, fields, message",
    [
        (TopologyKind.FAT_TREE, {"n": 4.0}, "fat-tree: n must be an integer, got 4.0"),
        (TopologyKind.FAT_TREE, {"n": "4"}, 'fat-tree: n must be an integer, got "4"'),
        (TopologyKind.BCUBE, {"n": 2, "l": 1.0}, "bcube: l must be an integer, got 1.0"),
        (
            TopologyKind.THREE_LAYER,
            {"n_a": 1, "n_e": 1, "pairs": 1, "include_core_core_link": 1},
            "three-layer: include_core_core_link must be true or false",
        ),
    ],
    ids=["fat-tree-n-float", "fat-tree-n-string", "bcube-l-float", "core-link-one"],
)
def test_params_refuse_a_field_of_the_wrong_type(kind, fields, message):
    # 4.0 and "4" would fail later, inside a bound check or a generator;
    # a core-core link of 1 would build, and its echo would not parse.
    with pytest.raises(TopologyParameterError, match=message):
        TopologyParams(kind=kind, **fields)


def test_gateway_count_must_be_an_integer():
    # 2.5 would select two gateways and echo count=2.5, which parse refuses.
    with pytest.raises(TopologyParameterError, match="count's g must be an integer, got 2.5"):
        GatewayPolicy("count", 2.5)
    with pytest.raises(TopologyParameterError, match="count's g must be an integer, got true"):
        GatewayPolicy.count(True)


def test_numpy_integers_are_stored_as_ints():
    params = TopologyParams(
        kind=TopologyKind.FAT_TREE, n=np.int64(4), gateway_policy=GatewayPolicy.count(np.int32(2))
    )
    assert params == TopologyParams(
        kind=TopologyKind.FAT_TREE, n=4, gateway_policy=GatewayPolicy.count(2)
    )
    assert type(params.n) is int and type(params.gateway_policy.g) is int
    assert params_from_doc(params_to_doc(params)) == params
    # The document of its topology serializes, and parses back as it.
    topology = build_topology(params)
    assert parse_topology(serialize_topology(topology)) == topology


# The construction fields the paper gives each kind, and a valid instance.
TAKES = {
    TopologyKind.THREE_LAYER: ("n_a", "n_e", "pairs", "include_core_core_link"),
    TopologyKind.FAT_TREE: ("n",),
    TopologyKind.BCUBE: ("n", "l"),
    TopologyKind.DCELL: ("n", "l"),
}
VALID = {
    TopologyKind.THREE_LAYER: {"n_a": 2, "n_e": 3, "pairs": 2},
    TopologyKind.FAT_TREE: {"n": 4},
    TopologyKind.BCUBE: {"n": 3, "l": 1},
    TopologyKind.DCELL: {"n": 3, "l": 1},
}
FIELD_VALUES = {"n": 4, "l": 1, "n_a": 2, "n_e": 3, "pairs": 2, "include_core_core_link": True}
FOREIGN = [
    (kind, name) for kind in TopologyKind for name in FIELD_VALUES if name not in TAKES[kind]
]


@pytest.mark.parametrize("kind, name", FOREIGN, ids=lambda v: getattr(v, "value", v))
def test_params_refuse_a_field_the_kind_does_not_take(kind, name):
    TopologyParams(kind=kind, **VALID[kind])
    with pytest.raises(TopologyParameterError, match=f"{kind.value}: takes no {name}"):
        TopologyParams(kind=kind, **VALID[kind], **{name: FIELD_VALUES[name]})


@pytest.mark.parametrize("kind, name", FOREIGN, ids=lambda v: getattr(v, "value", v))
def test_params_document_refuses_a_field_the_kind_does_not_take(kind, name):
    doc = params_to_doc(TopologyParams(kind=kind, **VALID[kind]))
    assert sorted(doc) == sorted(["kind", "gateway_policy", *TAKES[kind]])
    doc[name] = FIELD_VALUES[name]
    with pytest.raises(TopologyParseError, match=f"{kind.value} takes no {name}"):
        params_from_doc(doc)


@pytest.mark.parametrize("policy", ["max", "min", "count=2"])
@pytest.mark.parametrize("params", PARAM_GRID, ids=param_id)
def test_params_round_trip_through_their_document(params, policy):
    params = replace(params, gateway_policy=GatewayPolicy.parse(policy))
    assert params_from_doc(params_to_doc(params)) == params


@pytest.mark.parametrize("params", PARAM_GRID, ids=param_id)
def test_n_servers_matches_the_construction_rules(params):
    assert params.n_servers == closed_form_counts(params)[0]


# Every size the benchmark's workloads (perfbench/workloads.py) build.
WORKLOAD_SIZES = [
    TopologyParams(kind=TopologyKind.THREE_LAYER, n_a=12, n_e=48, pairs=6),
    TopologyParams(kind=TopologyKind.FAT_TREE, n=24),
    TopologyParams(kind=TopologyKind.FAT_TREE, n=26),
    TopologyParams(kind=TopologyKind.BCUBE, n=15, l=2),
    TopologyParams(kind=TopologyKind.BCUBE, n=5, l=4),
    TopologyParams(kind=TopologyKind.DCELL, n=58, l=1),
    TopologyParams(kind=TopologyKind.DCELL, n=7, l=2),
]
# sha256 of the serialized builds below. It pins every generator's bytes:
# never regenerate it to make a generator change pass.
GENERATOR_BYTES_SHA256 = "46fcdf7f982204c55a0f15457dfc36714d126412bc3cc68dce371a24917b2abd"


def test_generators_keep_their_bytes():
    digest = hashlib.sha256()
    for base in PARAM_GRID + WORKLOAD_SIZES:
        top = len(build_topology(base).gateways)  # the default policy takes them all
        for policy in ("max", "min", f"count={max(1, top // 2)}"):
            params = replace(base, gateway_policy=GatewayPolicy.parse(policy))
            digest.update(serialize_topology(build_topology(params)).encode())
    assert digest.hexdigest() == GENERATOR_BYTES_SHA256


@pytest.mark.parametrize("params", PARAM_GRID[::5], ids=param_id)
def test_build_topology_keeps_the_callers_params(params):
    assert build_topology(params).params is params
