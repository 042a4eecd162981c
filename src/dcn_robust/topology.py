"""Generators for the four data-center network topologies.

Each builder produces an immutable :class:`Topology`: servers and switches
with stable integer ids (servers first, then switches, both in generator
traversal order), a canonical sorted edge list, and a default gateway set
(all top-level switches). Identical parameters always produce identical
topologies, bit-for-bit in serialized form.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import cached_property

import numpy as np

__all__ = [
    "TopologyKind",
    "GatewayPolicy",
    "TopologyParams",
    "Topology",
    "TopologyParameterError",
    "TopologyParseError",
    "build_three_layer",
    "build_fat_tree",
    "build_bcube",
    "build_dcell",
    "build_topology",
    "gateway_port_density",
    "serialize_topology",
    "parse_topology",
    "params_to_doc",
    "params_from_doc",
]


class TopologyParameterError(ValueError):
    """Raised when construction parameters violate a topology's bounds."""


class TopologyParseError(ValueError):
    """Raised when a topology document is malformed or inconsistent."""


class TopologyKind(str, Enum):
    THREE_LAYER = "three-layer"
    FAT_TREE = "fat-tree"
    BCUBE = "bcube"
    DCELL = "dcell"


# Switch layer tags. Three-layer and Fat-tree use the named layers; BCube
# and DCell use "level-<k>".
LAYER_CORE = "core"
LAYER_AGGREGATION = "aggregation"
LAYER_EDGE = "edge"


def level_layer(k: int) -> str:
    return f"level-{k}"


@dataclass(frozen=True)
class GatewayPolicy:
    """How many top-level switches act as external gateways.

    ``max`` designates every top-level switch, ``min`` exactly one, and
    ``count`` a fixed number g (the g top-level switches with the smallest
    node ids, for reproducibility).
    """

    mode: str  # "max" | "min" | "count"
    g: int | None = None

    def __post_init__(self) -> None:
        if self.mode not in ("max", "min", "count"):
            raise TopologyParameterError(f"gateway_policy: unknown mode {self.mode!r}")
        if self.mode == "count":
            if self.g is None or self.g < 1:
                raise TopologyParameterError("gateway_policy: count requires g >= 1")
        elif self.g is not None:
            raise TopologyParameterError(f"gateway_policy: mode {self.mode!r} takes no g")

    @classmethod
    def max_density(cls) -> "GatewayPolicy":
        return cls("max")

    @classmethod
    def min_density(cls) -> "GatewayPolicy":
        return cls("min")

    @classmethod
    def count(cls, g: int) -> "GatewayPolicy":
        return cls("count", g)

    @classmethod
    def parse(cls, text: str) -> "GatewayPolicy":
        if text == "max":
            return cls.max_density()
        if text == "min":
            return cls.min_density()
        if text.startswith("count="):
            try:
                return cls.count(int(text[len("count="):]))
            except ValueError as exc:
                raise TopologyParameterError(f"gateway_policy: bad count in {text!r}") from exc
        raise TopologyParameterError(f"gateway_policy: expected max, min or count=g, got {text!r}")

    def __str__(self) -> str:
        return self.mode if self.mode != "count" else f"count={self.g}"


@dataclass(frozen=True)
class TopologyParams:
    """Construction parameters for one topology instance."""

    kind: TopologyKind
    n: int | None = None  # switch port count (fat-tree, bcube, dcell)
    l: int | None = None  # server interface level (bcube, dcell)
    n_a: int | None = None  # three-layer: aggregation ports toward edge switches
    n_e: int | None = None  # three-layer: edge ports toward servers
    pairs: int | None = None  # three-layer: aggregation-pair (module) count
    include_core_core_link: bool = False
    gateway_policy: GatewayPolicy = field(default_factory=GatewayPolicy.max_density)

    def __post_init__(self) -> None:
        kind = TopologyKind(self.kind)
        object.__setattr__(self, "kind", kind)
        if kind is TopologyKind.THREE_LAYER:
            for name in ("n_a", "n_e", "pairs"):
                value = getattr(self, name)
                if value is None or value < 1:
                    raise TopologyParameterError(f"three-layer: {name} must be >= 1, got {value}")
        elif kind is TopologyKind.FAT_TREE:
            if self.n is None or self.n < 2 or self.n % 2 != 0:
                raise TopologyParameterError(f"fat-tree: n must be even and >= 2, got {self.n}")
        else:  # bcube, dcell
            if self.n is None or self.n < 2:
                raise TopologyParameterError(f"{kind.value}: n must be >= 2, got {self.n}")
            if self.l is None or self.l < 0:
                raise TopologyParameterError(f"{kind.value}: l must be >= 0, got {self.l}")

    def args_text(self) -> str:
        """Compact parameter echo without the kind, e.g. ``n=58,l=1``."""
        if self.kind is TopologyKind.THREE_LAYER:
            core = "" if not self.include_core_core_link else ",core-link"
            return f"n_a={self.n_a},n_e={self.n_e},pairs={self.pairs}{core}"
        if self.kind is TopologyKind.FAT_TREE:
            return f"n={self.n}"
        return f"n={self.n},l={self.l}"

    def label(self) -> str:
        """Human-readable echo, e.g. ``bcube(n=58,l=1)``."""
        return f"{self.kind.value}({self.args_text()})"


def dcell_server_count(n: int, l: int) -> int:
    """Server count t_l of the recursive construction (t_0 = n)."""
    t = n
    for _ in range(l):
        t = (t + 1) * t
    return t


@dataclass(frozen=True, eq=False)
class Topology:
    """An immutable typed graph of servers, switches, links and gateways.

    Servers occupy node ids ``[0, n_servers)``; switches occupy
    ``[n_servers, n_servers + n_switches)`` and carry a layer tag. Edges are
    stored canonically (u < v, lexicographically sorted).
    """

    params: TopologyParams
    n_servers: int
    switch_layers: tuple[str, ...]
    edges_u: np.ndarray
    edges_v: np.ndarray
    gateways: np.ndarray

    @property
    def n_switches(self) -> int:
        return len(self.switch_layers)

    @property
    def n_nodes(self) -> int:
        return self.n_servers + self.n_switches

    @property
    def n_links(self) -> int:
        return len(self.edges_u)

    @property
    def switch_ids(self) -> np.ndarray:
        return np.arange(self.n_servers, self.n_nodes)

    def is_server(self, node: int) -> bool:
        return 0 <= node < self.n_servers

    def switch_layer(self, node: int) -> str:
        if not (self.n_servers <= node < self.n_nodes):
            raise ValueError(f"node {node} is not a switch")
        return self.switch_layers[node - self.n_servers]

    def neighbors(self) -> list[list[int]]:
        """Plain adjacency lists (used by slow-path traversals and tests)."""
        adj: list[list[int]] = [[] for _ in range(self.n_nodes)]
        for u, v in zip(self.edges_u.tolist(), self.edges_v.tolist()):
            adj[u].append(v)
            adj[v].append(u)
        return adj

    def edge_index(self) -> dict[tuple[int, int], int]:
        return {
            (int(u), int(v)): i
            for i, (u, v) in enumerate(zip(self.edges_u, self.edges_v))
        }

    @cached_property
    def top_level_switches(self) -> np.ndarray:
        """Switch ids at the highest hierarchical level, in id order."""
        tag = _top_layer_tag(self.params)
        offset = self.n_servers
        return np.array(
            [offset + i for i, layer in enumerate(self.switch_layers) if layer == tag],
            dtype=np.int64,
        )

    def with_gateway_policy(self, policy: GatewayPolicy) -> "Topology":
        """A copy of this topology with gateways re-designated under *policy*."""
        gates = _select_gateways(self.top_level_switches, policy)
        params = replace(self.params, gateway_policy=policy)
        return Topology(
            params=params,
            n_servers=self.n_servers,
            switch_layers=self.switch_layers,
            edges_u=self.edges_u,
            edges_v=self.edges_v,
            gateways=gates,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Topology):
            return NotImplemented
        return (
            self.params == other.params
            and self.n_servers == other.n_servers
            and self.switch_layers == other.switch_layers
            and np.array_equal(self.edges_u, other.edges_u)
            and np.array_equal(self.edges_v, other.edges_v)
            and np.array_equal(self.gateways, other.gateways)
        )


def _top_layer_tag(params: TopologyParams) -> str:
    if params.kind in (TopologyKind.THREE_LAYER, TopologyKind.FAT_TREE):
        return LAYER_CORE
    if params.kind is TopologyKind.BCUBE:
        return level_layer(params.l or 0)
    return level_layer(0)  # dcell: every switch sits at the (single) top level


def _select_gateways(top_level: np.ndarray, policy: GatewayPolicy) -> np.ndarray:
    if policy.mode == "max":
        return top_level.copy()
    g = 1 if policy.mode == "min" else int(policy.g or 0)
    if g > len(top_level):
        raise TopologyParameterError(
            f"gateway_policy: g={g} exceeds the {len(top_level)} top-level switches"
        )
    return top_level[:g].copy()  # smallest node ids, deterministic


def _finish(
    params: TopologyParams,
    n_servers: int,
    switch_layers: list[str],
    edges: list[tuple[int, int]],
) -> Topology:
    arr = np.array([(u, v) if u < v else (v, u) for u, v in edges], dtype=np.int64)
    order = np.lexsort((arr[:, 1], arr[:, 0]))
    arr = arr[order]
    topo = Topology(
        params=params,
        n_servers=n_servers,
        switch_layers=tuple(switch_layers),
        edges_u=np.ascontiguousarray(arr[:, 0]),
        edges_v=np.ascontiguousarray(arr[:, 1]),
        gateways=np.empty(0, dtype=np.int64),
    )
    return topo.with_gateway_policy(params.gateway_policy)


def build_three_layer(
    n_a: int,
    n_e: int,
    pairs: int,
    include_core_core_link: bool = False,
    gateway_policy: GatewayPolicy | None = None,
) -> Topology:
    """Two core switches over `pairs` aggregation pairs, n_a edge switches
    per pair and n_e servers per edge switch."""
    params = TopologyParams(
        kind=TopologyKind.THREE_LAYER,
        n_a=n_a,
        n_e=n_e,
        pairs=pairs,
        include_core_core_link=include_core_core_link,
        gateway_policy=gateway_policy or GatewayPolicy.max_density(),
    )
    n_servers = pairs * n_a * n_e
    s = n_servers  # first switch id

    core = [s, s + 1]
    agg = [s + 2 + i for i in range(2 * pairs)]
    edge = [s + 2 + 2 * pairs + i for i in range(pairs * n_a)]
    layers = (
        [LAYER_CORE] * 2 + [LAYER_AGGREGATION] * (2 * pairs) + [LAYER_EDGE] * (pairs * n_a)
    )

    edges: list[tuple[int, int]] = []
    for p in range(pairs):
        pair_agg = (agg[2 * p], agg[2 * p + 1])
        edges.append(pair_agg)  # aggregation pair interconnect
        for c in core:
            edges.append((c, pair_agg[0]))
            edges.append((c, pair_agg[1]))
        for e in range(n_a):
            esw = edge[p * n_a + e]
            edges.append((pair_agg[0], esw))
            edges.append((pair_agg[1], esw))
            base = (p * n_a + e) * n_e
            for port in range(n_e):
                edges.append((base + port, esw))
    if include_core_core_link:
        edges.append((core[0], core[1]))

    return _finish(params, n_servers, layers, edges)


def build_fat_tree(n: int, gateway_policy: GatewayPolicy | None = None) -> Topology:
    """n-port folded-Clos fabric: (n/2)^2 cores, n pods, n^3/4 servers."""
    params = TopologyParams(
        kind=TopologyKind.FAT_TREE,
        n=n,
        gateway_policy=gateway_policy or GatewayPolicy.max_density(),
    )
    half = n // 2
    n_servers = half * half * n
    s = n_servers

    core = [s + i for i in range(half * half)]  # core (i, j) -> s + i*half + j
    layers = [LAYER_CORE] * (half * half)
    edges: list[tuple[int, int]] = []
    for p in range(n):
        pod_base = s + half * half + p * n
        aggs = [pod_base + a for a in range(half)]
        edgs = [pod_base + half + e for e in range(half)]
        layers.extend([LAYER_AGGREGATION] * half)
        layers.extend([LAYER_EDGE] * half)
        for a_idx, a in enumerate(aggs):
            for e in edgs:
                edges.append((a, e))
            for j in range(half):
                edges.append((core[a_idx * half + j], a))
        for e_idx, e in enumerate(edgs):
            base = (p * half + e_idx) * half
            for port in range(half):
                edges.append((base + port, e))

    return _finish(params, n_servers, layers, edges)


def build_bcube(n: int, l: int, gateway_policy: GatewayPolicy | None = None) -> Topology:
    """Recursive server-centric fabric: n^(l+1) servers, l+1 switch levels."""
    params = TopologyParams(
        kind=TopologyKind.BCUBE,
        n=n,
        l=l,
        gateway_policy=gateway_policy or GatewayPolicy.max_density(),
    )
    n_servers = n ** (l + 1)
    per_level = n**l
    s = n_servers

    layers: list[str] = []
    for k in range(l + 1):
        layers.extend([level_layer(k)] * per_level)

    # The level-k port of server i connects to the level-k switch whose index
    # is i with base-n digit k removed.
    edges: list[tuple[int, int]] = []
    for k in range(l + 1):
        stride = n**k
        level_base = s + k * per_level
        for i in range(n_servers):
            m = (i // (stride * n)) * stride + (i % stride)
            edges.append((i, level_base + m))

    return _finish(params, n_servers, layers, edges)


def build_dcell(n: int, l: int, gateway_policy: GatewayPolicy | None = None) -> Topology:
    """Recursive server-linked fabric: cells of n servers plus one switch,
    with one direct server-server link per pair of sub-cells at each level."""
    params = TopologyParams(
        kind=TopologyKind.DCELL,
        n=n,
        l=l,
        gateway_policy=gateway_policy or GatewayPolicy.max_density(),
    )
    t = [n]  # t[k]: servers in a level-k cell
    for k in range(1, l + 1):
        t.append((t[k - 1] + 1) * t[k - 1])
    n_servers = t[l]
    n_cells = n_servers // n
    s = n_servers
    layers = [level_layer(0)] * n_cells

    edges: list[tuple[int, int]] = [(i, s + i // n) for i in range(n_servers)]

    def link_level(level: int, base: int) -> None:
        if level == 0:
            return
        sub = t[level - 1]
        g = sub + 1  # number of level-(l-1) cells in a level-l cell
        for i in range(g):
            for j in range(i + 1, g):
                edges.append((base + i * sub + (j - 1), base + j * sub + i))
        for i in range(g):
            link_level(level - 1, base + i * sub)

    link_level(l, 0)
    return _finish(params, n_servers, layers, edges)


def build_topology(params: TopologyParams) -> Topology:
    """Dispatch to the matching generator."""
    if params.kind is TopologyKind.THREE_LAYER:
        return build_three_layer(
            params.n_a, params.n_e, params.pairs,
            params.include_core_core_link, params.gateway_policy,
        )
    if params.kind is TopologyKind.FAT_TREE:
        return build_fat_tree(params.n, params.gateway_policy)
    if params.kind is TopologyKind.BCUBE:
        return build_bcube(params.n, params.l, params.gateway_policy)
    return build_dcell(params.n, params.l, params.gateway_policy)


def gateway_ports(topology: Topology) -> int:
    """Port count of one gateway switch.

    For Three-layer a core's relevant ports are those facing the
    aggregation layer (2 per module pair); the other kinds use the uniform
    switch port count n.
    """
    params = topology.params
    if params.kind is TopologyKind.THREE_LAYER:
        return 2 * params.pairs
    return int(params.n)


def gateway_port_density(topology: Topology) -> float:
    """Gateway ports available per server, in (0, 1]."""
    g = len(topology.gateways)
    if g == 0:
        raise ValueError("topology has no gateways")
    return gateway_ports(topology) * g / topology.n_servers


# --- document round-trip ---------------------------------------------------

_FORMAT = "dcn-topology/1"


def params_to_doc(params: TopologyParams) -> dict:
    doc: dict = {"kind": params.kind.value, "gateway_policy": str(params.gateway_policy)}
    if params.kind is TopologyKind.THREE_LAYER:
        doc.update(
            n_a=params.n_a,
            n_e=params.n_e,
            pairs=params.pairs,
            include_core_core_link=params.include_core_core_link,
        )
    elif params.kind is TopologyKind.FAT_TREE:
        doc.update(n=params.n)
    else:
        doc.update(n=params.n, l=params.l)
    return doc


def params_from_doc(doc: dict) -> TopologyParams:
    try:
        kind = TopologyKind(doc["kind"])
    except (KeyError, ValueError) as exc:
        raise TopologyParseError(f"params: bad or missing kind: {exc}") from exc
    policy = GatewayPolicy.parse(doc.get("gateway_policy", "max"))
    fields = {k: doc.get(k) for k in ("n", "l", "n_a", "n_e", "pairs")}
    return TopologyParams(
        kind=kind,
        include_core_core_link=bool(doc.get("include_core_core_link", False)),
        gateway_policy=policy,
        **fields,
    )


def serialize_topology(topology: Topology) -> str:
    """Self-describing UTF-8 document; identical params yield identical bytes."""
    nodes = [{"id": i, "kind": "server"} for i in range(topology.n_servers)]
    nodes.extend(
        {"id": topology.n_servers + i, "kind": "switch", "layer": layer}
        for i, layer in enumerate(topology.switch_layers)
    )
    doc = {
        "format": _FORMAT,
        "params": params_to_doc(topology.params),
        "nodes": nodes,
        "edges": [[int(u), int(v)] for u, v in zip(topology.edges_u, topology.edges_v)],
        "gateways": [int(g) for g in topology.gateways],
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def parse_topology(document: str) -> Topology:
    """Inverse of :func:`serialize_topology`, validating graph invariants."""
    try:
        doc = json.loads(document)
    except json.JSONDecodeError as exc:
        raise TopologyParseError(f"not valid JSON at line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(doc, dict) or doc.get("format") != _FORMAT:
        raise TopologyParseError(f"format: expected {_FORMAT!r}")
    for key in ("params", "nodes", "edges", "gateways"):
        if key not in doc:
            raise TopologyParseError(f"missing field {key!r}")

    params = params_from_doc(doc["params"])

    servers: set[int] = set()
    switches: dict[int, str] = {}
    for pos, node in enumerate(doc["nodes"]):
        try:
            nid, kind = int(node["id"]), node["kind"]
        except (KeyError, TypeError, ValueError) as exc:
            raise TopologyParseError(f"nodes[{pos}]: bad entry: {exc}") from exc
        if nid in servers or nid in switches:
            raise TopologyParseError(f"nodes[{pos}]: duplicate id {nid}")
        if kind == "server":
            servers.add(nid)
        elif kind == "switch":
            switches[nid] = str(node.get("layer", ""))
        else:
            raise TopologyParseError(f"nodes[{pos}]: unknown kind {kind!r}")
    n_servers = len(servers)
    n_nodes = n_servers + len(switches)
    if servers != set(range(n_servers)):
        raise TopologyParseError("nodes: server ids must be 0..n_servers-1")
    if set(switches) != set(range(n_servers, n_nodes)):
        raise TopologyParseError("nodes: switch ids must follow server ids contiguously")
    layers = tuple(switches[i] for i in range(n_servers, n_nodes))

    seen: set[tuple[int, int]] = set()
    pairs: list[tuple[int, int]] = []
    for pos, e in enumerate(doc["edges"]):
        if not (isinstance(e, list) and len(e) == 2):
            raise TopologyParseError(f"edges[{pos}]: expected a pair")
        u, v = int(e[0]), int(e[1])
        if u == v:
            raise TopologyParseError(f"edges[{pos}]: self-loop at node {u}")
        for end in (u, v):
            if not (0 <= end < n_nodes):
                raise TopologyParseError(f"edges[{pos}]: unknown node id {end}")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise TopologyParseError(f"edges[{pos}]: duplicate edge {key}")
        seen.add(key)
        pairs.append(key)

    gateways = []
    for pos, g in enumerate(doc["gateways"]):
        g = int(g)
        if g not in switches:
            raise TopologyParseError(f"gateways[{pos}]: node {g} is not a switch")
        gateways.append(g)

    arr = np.array(sorted(pairs), dtype=np.int64).reshape(len(pairs), 2)
    return Topology(
        params=params,
        n_servers=n_servers,
        switch_layers=layers,
        edges_u=np.ascontiguousarray(arr[:, 0]),
        edges_v=np.ascontiguousarray(arr[:, 1]),
        gateways=np.array(sorted(gateways), dtype=np.int64),
    )
