"""Generators for the four data-center network topologies.

:func:`build_topology` is the one construction path; the per-kind builders
are shorthand for it. It returns an immutable :class:`Topology` holding the
caller's own params object, servers and switches with stable integer ids
(servers first, then switches, both in generator traversal order), a
canonical sorted edge list, and a default gateway set
(all top-level switches). Identical parameters always produce identical
topologies, bit-for-bit in serialized form, and a topology document
parses only as the topology its params build: a topology is a function
of its :class:`TopologyParams`. What the engine derives from a topology
lives on that object (:func:`derived`), not in a cache keyed by params.
"""

from __future__ import annotations

import functools
import json
import numbers
from dataclasses import dataclass, field, fields
from enum import Enum

import numpy as np

__all__ = [
    "TopologyKind",
    "GatewayPolicy",
    "KIND_FIELDS",
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
            object.__setattr__(self, "g", _as_int(self.g, "gateway_policy: count's g"))
            if self.g < 1:
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
        if not isinstance(text, str):
            raise TopologyParseError(f"gateway_policy: expected a string, got {text!r}")
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


# The construction fields each kind takes, in echo order, with their lower
# bounds (None: the core-core link flag); other fields keep their defaults.
KIND_FIELDS: dict[TopologyKind, dict[str, int | None]] = {
    TopologyKind.THREE_LAYER: {"n_a": 1, "n_e": 1, "pairs": 1, "include_core_core_link": None},
    TopologyKind.FAT_TREE: {"n": 2},  # and even
    TopologyKind.BCUBE: {"n": 2, "l": 0},
    TopologyKind.DCELL: {"n": 2, "l": 0},
}


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
        taken = KIND_FIELDS[kind]
        for f in fields(self):
            if f.name in taken or f.name in ("kind", "gateway_policy"):
                continue
            if getattr(self, f.name) != f.default:
                raise TopologyParameterError(
                    f"{kind.value}: takes no {f.name} (it takes {', '.join(taken)})"
                )
        even = kind is TopologyKind.FAT_TREE
        for name, low in taken.items():
            value = getattr(self, name)
            if low is None and not isinstance(value, bool):  # the core-core link flag
                raise TopologyParameterError(f"{kind.value}: {name} must be true or false")
            if low is not None and value is not None:
                value = _as_int(value, f"{kind.value}: {name}")
                object.__setattr__(self, name, value)
            if low is not None and (value is None or value < low or (even and value % 2)):
                rule = f"even and >= {low}" if even else f">= {low}"
                raise TopologyParameterError(f"{kind.value}: {name} must be {rule}, got {value}")

    def construction_fields(self) -> dict:
        """The fields this kind takes, in echo order."""
        return {name: getattr(self, name) for name in KIND_FIELDS[self.kind]}

    @property
    def n_servers(self) -> int:
        """Server count of the instance these parameters build."""
        if self.kind is TopologyKind.THREE_LAYER:
            return self.pairs * self.n_a * self.n_e
        if self.kind is TopologyKind.FAT_TREE:
            return self.n**3 // 4
        if self.kind is TopologyKind.BCUBE:
            return self.n ** (self.l + 1)
        return dcell_server_count(self.n, self.l)

    def args_text(self) -> str:
        """Compact parameter echo without the kind, e.g. ``n=58,l=1``."""
        return ",".join(
            "core-link" if name == "include_core_core_link" else f"{name}={value}"
            for name, value in self.construction_fields().items()
            if value is not False
        )


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
    stored canonically (u < v, lexicographically sorted). ``memo`` (see
    :func:`derived`) takes no part in equality, ``repr`` or serialization.
    """

    params: TopologyParams
    n_servers: int
    switch_layers: tuple[str, ...]
    edges_u: np.ndarray
    edges_v: np.ndarray
    gateways: np.ndarray
    memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def n_switches(self) -> int:
        return len(self.switch_layers)

    @property
    def n_nodes(self) -> int:
        return self.n_servers + self.n_switches

    @property
    def n_links(self) -> int:
        return len(self.edges_u)

    def is_server(self, node: int) -> bool:
        return 0 <= node < self.n_servers

    def switch_layer(self, node: int) -> str:
        if not (self.n_servers <= node < self.n_nodes):
            raise ValueError(f"node {node} is not a switch")
        return self.switch_layers[node - self.n_servers]

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


def derived(fn):
    """Cache ``fn(topology, *keys)`` in ``topology.memo``, so that what
    depends only on the fabric is built once per topology and key."""

    @functools.wraps(fn)
    def cached(topology: Topology, *keys):
        memo, key = topology.memo, (fn, *keys)
        if key not in memo:
            memo[key] = fn(topology, *keys)
        return memo[key]

    return cached


def _select_gateways(top_level: np.ndarray, policy: GatewayPolicy) -> np.ndarray:
    if policy.mode == "max":
        return top_level
    g = 1 if policy.mode == "min" else policy.g
    if g > len(top_level):
        raise TopologyParameterError(
            f"gateway_policy: g={g} exceeds the {len(top_level)} top-level switches"
        )
    return top_level[:g]  # smallest node ids, deterministic


# Each generator lays out one kind from its params: it returns the switch
# layers (switch ids follow the servers, in layer order), the edges, in any
# orientation and order, and the layer tag its gateways come from.


def _three_layer(params: TopologyParams):
    n_a, n_e, pairs = params.n_a, params.n_e, params.pairs
    s = params.n_servers  # the two cores, then the aggregation pairs, then the edge switches
    layers = [LAYER_CORE] * 2 + [LAYER_AGGREGATION] * (2 * pairs) + [LAYER_EDGE] * (pairs * n_a)
    edges = [(s, s + 1)] if params.include_core_core_link else []
    for p in range(pairs):
        a, b = s + 2 + 2 * p, s + 3 + 2 * p  # the pair, linked to each other and both cores
        edges += [(a, b), (s, a), (s, b), (s + 1, a), (s + 1, b)]
        for e in range(p * n_a, (p + 1) * n_a):
            esw = s + 2 + 2 * pairs + e
            edges += [(a, esw), (b, esw)]
            edges += [(server, esw) for server in range(e * n_e, (e + 1) * n_e)]
    return layers, edges, LAYER_CORE


def _fat_tree(params: TopologyParams):
    n, half = params.n, params.n // 2
    s = params.n_servers  # core (i, j) is s + i*half + j; the n pods follow
    layers = [LAYER_CORE] * (half * half) + ([LAYER_AGGREGATION] * half + [LAYER_EDGE] * half) * n
    edges = []
    for p in range(n):
        pod = s + half * half + p * n  # its aggregation switches, then its edge switches
        for i in range(half):
            agg, esw, first = pod + i, pod + half + i, (p * half + i) * half
            edges += [(agg, pod + half + e) for e in range(half)]
            edges += [(s + i * half + j, agg) for j in range(half)]
            edges += [(server, esw) for server in range(first, first + half)]
    return layers, edges, LAYER_CORE


def _bcube(params: TopologyParams):
    n, l = params.n, params.l
    per_level = n**l
    servers = np.arange(params.n_servers, dtype=np.int64)
    layers = [level_layer(k) for k in range(l + 1) for _ in range(per_level)]
    # The level-k port of server i connects to the level-k switch whose index
    # is i with base-n digit k removed.
    edges = []
    for k in range(l + 1):
        stride = n**k
        level_base = params.n_servers + k * per_level
        m = (servers // (stride * n)) * stride + servers % stride
        edges.append(np.column_stack((servers, level_base + m)))
    return layers, np.concatenate(edges), level_layer(l)


def _dcell(params: TopologyParams):
    n, l = params.n, params.l
    t = [dcell_server_count(n, k) for k in range(l + 1)]  # servers in a level-k cell
    n_servers = params.n_servers
    layers = [level_layer(0)] * (n_servers // n)

    edges: list[tuple[int, int]] = [(i, n_servers + i // n) for i in range(n_servers)]

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
    return layers, edges, level_layer(0)  # every switch sits at the one level


_GENERATORS = {
    TopologyKind.THREE_LAYER: _three_layer,
    TopologyKind.FAT_TREE: _fat_tree,
    TopologyKind.BCUBE: _bcube,
    TopologyKind.DCELL: _dcell,
}


def build_topology(params: TopologyParams) -> Topology:
    """The topology *params* build; the one construction path, of which
    the per-kind builders are shorthand."""
    layers, edges, top = _GENERATORS[params.kind](params)
    arr = np.sort(np.asarray(edges, dtype=np.int64), axis=1)  # u < v
    arr = arr[np.lexsort((arr[:, 1], arr[:, 0]))]
    n_servers = params.n_servers
    top_level = n_servers + np.flatnonzero(np.array(layers) == top).astype(np.int64)
    return Topology(
        params=params,
        n_servers=n_servers,
        switch_layers=tuple(layers),
        edges_u=np.ascontiguousarray(arr[:, 0]),
        edges_v=np.ascontiguousarray(arr[:, 1]),
        gateways=_select_gateways(top_level, params.gateway_policy),
    )


def build_three_layer(
    n_a: int,
    n_e: int,
    pairs: int,
    include_core_core_link: bool = False,
    gateway_policy: GatewayPolicy | None = None,
) -> Topology:
    """Two core switches over `pairs` aggregation pairs, n_a edge switches
    per pair and n_e servers per edge switch."""
    policy = gateway_policy or GatewayPolicy.max_density()
    return build_topology(TopologyParams(
        TopologyKind.THREE_LAYER, n_a=n_a, n_e=n_e, pairs=pairs,
        include_core_core_link=include_core_core_link, gateway_policy=policy,
    ))


def build_fat_tree(n: int, gateway_policy: GatewayPolicy | None = None) -> Topology:
    """n-port folded-Clos fabric: (n/2)^2 cores, n pods, n^3/4 servers."""
    policy = gateway_policy or GatewayPolicy.max_density()
    return build_topology(TopologyParams(TopologyKind.FAT_TREE, n=n, gateway_policy=policy))


def build_bcube(n: int, l: int, gateway_policy: GatewayPolicy | None = None) -> Topology:
    """Recursive server-centric fabric: n^(l+1) servers, l+1 switch levels."""
    policy = gateway_policy or GatewayPolicy.max_density()
    return build_topology(TopologyParams(TopologyKind.BCUBE, n=n, l=l, gateway_policy=policy))


def build_dcell(n: int, l: int, gateway_policy: GatewayPolicy | None = None) -> Topology:
    """Recursive server-linked fabric: cells of n servers plus one switch,
    with one direct server-server link per pair of sub-cells at each level."""
    policy = gateway_policy or GatewayPolicy.max_density()
    return build_topology(TopologyParams(TopologyKind.DCELL, n=n, l=l, gateway_policy=policy))


def gateway_ports(topology: Topology) -> int:
    """Port count of one gateway switch.

    For Three-layer a core's relevant ports are those facing the
    aggregation layer (2 per module pair); the other kinds use the uniform
    switch port count n.
    """
    params = topology.params
    if params.kind is TopologyKind.THREE_LAYER:
        return 2 * params.pairs
    return params.n


def gateway_port_density(topology: Topology) -> float:
    """Gateway ports available per server, in (0, 1]."""
    g = len(topology.gateways)
    if g == 0:
        raise ValueError("topology has no gateways")
    return gateway_ports(topology) * g / topology.n_servers


# --- document round-trip ---------------------------------------------------

_FORMAT = "dcn-topology/1"


def params_to_doc(params: TopologyParams) -> dict:
    return {
        "kind": params.kind.value,
        "gateway_policy": str(params.gateway_policy),
        **params.construction_fields(),
    }


def params_from_doc(doc: dict) -> TopologyParams:
    """Inverse of :func:`params_to_doc`; refuses a field the kind does not
    take, or a field value of the wrong JSON type."""
    if not isinstance(doc, dict):
        raise TopologyParseError(f"params: expected an object, got {_json(doc)}")
    try:
        kind = TopologyKind(doc["kind"])
    except (KeyError, ValueError) as exc:
        raise TopologyParseError(f"params: bad or missing kind: {exc}") from exc
    foreign = sorted(set(doc) - {"kind", "gateway_policy", *KIND_FIELDS[kind]})
    if foreign:
        raise TopologyParseError(f"params: {kind.value} takes no {', '.join(foreign)}")
    for name, low in KIND_FIELDS[kind].items():
        # bool is a subclass of int, so compare exact types.
        if name in doc and type(doc[name]) is not (bool if low is None else int):
            want = "true or false" if low is None else "an integer"
            raise TopologyParseError(f"params: {name} must be {want}, got {_json(doc[name])}")
    return TopologyParams(
        kind=kind,
        gateway_policy=GatewayPolicy.parse(doc.get("gateway_policy", "max")),
        **{name: doc[name] for name in KIND_FIELDS[kind] if name in doc},
    )


def _topology_doc(topology: Topology) -> dict:
    nodes = [{"id": i, "kind": "server"} for i in range(topology.n_servers)]
    nodes.extend(
        {"id": topology.n_servers + i, "kind": "switch", "layer": layer}
        for i, layer in enumerate(topology.switch_layers)
    )
    return {
        "format": _FORMAT,
        "params": params_to_doc(topology.params),
        "nodes": nodes,
        "edges": [[int(u), int(v)] for u, v in zip(topology.edges_u, topology.edges_v)],
        "gateways": [int(g) for g in topology.gateways],
    }


def serialize_topology(topology: Topology) -> str:
    """Self-describing UTF-8 document; identical params yield identical bytes."""
    return json.dumps(_topology_doc(topology), sort_keys=True, separators=(",", ":")) + "\n"


def _json(value) -> str:
    """*value* as JSON where it has a JSON form, else its ``repr``."""
    try:
        return json.dumps(value, sort_keys=True)
    except TypeError:
        return repr(value)


def _as_int(value, what: str, error: type[ValueError] = TopologyParameterError) -> int:
    """*value* as an int, which it must be exactly: any ``numbers.Integral``,
    NumPy's included, but bool; else *error* says what *what* must be."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise error(f"{what} must be an integer, got {_json(value)}")
    return int(value)


def parse_topology(document: str) -> Topology:
    """Inverse of :func:`serialize_topology`: the topology the document's
    params build.

    The document's ``nodes``, ``edges`` and ``gateways`` must equal that
    build's own serialization, compared as JSON values, so a document
    parses only as the topology its params build; the error names the
    first entry that differs, or both lengths.
    """
    try:
        doc = json.loads(document)
    except json.JSONDecodeError as exc:
        raise TopologyParseError(f"not valid JSON at line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(doc, dict) or doc.get("format") != _FORMAT:
        raise TopologyParseError(f"format: expected {_FORMAT!r}")
    for key in ("params", "nodes", "edges", "gateways"):
        if key not in doc:
            raise TopologyParseError(f"missing field {key!r}")

    topology = build_topology(params_from_doc(doc["params"]))
    built = _topology_doc(topology)
    for key in ("nodes", "edges", "gateways"):
        got, want = doc[key], built[key]
        if _json(got) == _json(want):
            continue
        if not isinstance(got, list) or len(got) != len(want):
            size = len(got) if isinstance(got, list) else "no list"
            raise TopologyParseError(f"{key}: got {size}, params build {len(want)} entries")
        pos = next(i for i, (a, b) in enumerate(zip(got, want)) if _json(a) != _json(b))
        raise TopologyParseError(
            f"{key}[{pos}]: got {_json(got[pos])}, params build {_json(want[pos])}"
        )
    return topology
