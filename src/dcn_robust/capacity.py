"""Heterogeneous server capacities and placement across topology modules.

Servers are binned into classes with normalized CPU/memory capacities.
The class instances are placed over the topology's modules (aggregation
pairs, pods, sub-cells) either spread evenly (balanced) or packed together
(unbalanced), and on three-layer and fat-tree fabrics the worst-case
module can be knocked out deliberately to measure the remaining capacity.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .reachability import DegradedNetwork
from .topology import (
    LAYER_AGGREGATION,
    Topology,
    TopologyKind,
    dcell_server_count,
)

__all__ = [
    "Resource",
    "Placement",
    "ServerClass",
    "CapacityAssignment",
    "ConfigurationError",
    "builtin_dataset",
    "load_dataset",
    "module_partition",
    "assign_capacities",
    "remove_richest_module",
]

FRACTION_TOLERANCE = 1e-9


class ConfigurationError(ValueError):
    """Invalid dataset, placement or resource selection."""


class Resource(str, Enum):
    CPU = "cpu"
    MEMORY = "memory"

    @classmethod
    def of(cls, value: "Resource | str") -> "Resource":
        try:
            return cls(value)
        except ValueError:
            raise ConfigurationError(
                f"resource must be 'cpu' or 'memory', got {value!r}"
            ) from None


class Placement(str, Enum):
    BALANCED = "balanced"
    UNBALANCED = "unbalanced"


@dataclass(frozen=True)
class ServerClass:
    """One machine type: normalized capacities and its share of the fleet."""

    type_number: int
    cpu: float
    memory: float
    fraction: float

    def __post_init__(self) -> None:
        for name in ("cpu", "memory", "fraction"):
            value = getattr(self, name)
            if not 0.0 < value <= 1.0:
                raise ConfigurationError(
                    f"server class {self.type_number}: {name} must be in (0, 1], got {value}"
                )


_GOOGLE = (
    ServerClass(1, 0.50, 0.50, 0.53),
    ServerClass(2, 0.50, 0.25, 0.31),
    ServerClass(3, 0.50, 0.75, 0.08),
    ServerClass(4, 1.00, 1.00, 0.07),
    ServerClass(5, 0.25, 0.25, 0.01),
)

_SYNTHETIC = (
    ServerClass(1, 1.00, 1.00, 0.16666666667),
    ServerClass(2, 0.20, 0.20, 0.83333333333),
)

_BUILTIN = {"google": _GOOGLE, "synthetic": _SYNTHETIC}


def _check_fractions(classes: tuple[ServerClass, ...], origin: str) -> tuple[ServerClass, ...]:
    total = sum(c.fraction for c in classes)
    if abs(total - 1.0) > FRACTION_TOLERANCE:
        raise ConfigurationError(f"{origin}: class fractions sum to {total!r}, expected 1")
    seen = set()
    for c in classes:
        if c.type_number in seen:
            raise ConfigurationError(f"{origin}: duplicate type number {c.type_number}")
        seen.add(c.type_number)
    return classes


def builtin_dataset(name: str) -> tuple[ServerClass, ...]:
    """The bundled machine-type tables: ``google`` (trace-derived, five
    classes) or ``synthetic`` (1/6 of servers hold half the capacity)."""
    try:
        return _BUILTIN[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown dataset {name!r}; built-ins: {', '.join(sorted(_BUILTIN))}"
        ) from None


def load_dataset(text: str, origin: str = "<dataset>") -> tuple[ServerClass, ...]:
    """Parse a dataset override: CSV rows type_number,cpu,memory,fraction."""
    reader = csv.DictReader(io.StringIO(text))
    required = {"type_number", "cpu", "memory", "fraction"}
    if reader.fieldnames is None or not required <= set(reader.fieldnames):
        raise ConfigurationError(
            f"{origin}: header must contain {', '.join(sorted(required))}"
        )
    classes = []
    for line, row in enumerate(reader, start=2):
        try:
            classes.append(
                ServerClass(
                    type_number=int(row["type_number"]),
                    cpu=float(row["cpu"]),
                    memory=float(row["memory"]),
                    fraction=float(row["fraction"]),
                )
            )
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(f"{origin}: line {line}: {exc}") from exc
    if not classes:
        raise ConfigurationError(f"{origin}: no classes defined")
    return _check_fractions(tuple(classes), origin)


def module_partition(topology: Topology) -> list[np.ndarray]:
    """Server ids grouped by topology module.

    Three-layer: the servers under one aggregation pair. Fat-tree: one
    pod. BCube/DCell: one level-(l-1) sub-unit (the whole network when
    l = 0). All builders lay modules out contiguously, in id order.
    """
    params = topology.params
    servers = topology.n_servers
    if params.kind is TopologyKind.THREE_LAYER:
        size = params.n_a * params.n_e
    elif params.kind is TopologyKind.FAT_TREE:
        size = (params.n // 2) ** 2
    elif params.l == 0:
        size = servers
    elif params.kind is TopologyKind.BCUBE:
        size = params.n**params.l
    else:
        size = dcell_server_count(params.n, params.l - 1)
    ids = np.arange(servers)
    return [ids[start : start + size] for start in range(0, servers, size)]


@dataclass(frozen=True)
class CapacityAssignment:
    """Per-server capacities plus the module layout used to place them,
    on the topology they were placed over."""

    topology: Topology
    placement: Placement
    class_of_server: np.ndarray  # type_number per server id
    cpu: np.ndarray
    memory: np.ndarray
    modules: tuple[np.ndarray, ...]

    def capacity_vector(self, resource: Resource | str) -> np.ndarray:
        resource = Resource.of(resource)
        return self.cpu if resource is Resource.CPU else self.memory

    def module_capacity(self, resource: Resource | str) -> np.ndarray:
        vec = self.capacity_vector(resource)
        return np.array([float(vec[m].sum()) for m in self.modules])


def _class_counts(classes: tuple[ServerClass, ...], servers: int) -> list[int]:
    """Apportion servers to classes, largest fractional remainder first.

    Keeps every class count within one of fraction * servers.
    """
    exact = [c.fraction * servers for c in classes]
    counts = [int(x) for x in exact]
    remainder = servers - sum(counts)
    order = sorted(
        range(len(classes)),
        key=lambda i: (-(exact[i] - counts[i]), -classes[i].fraction, classes[i].type_number),
    )
    for i in order[:remainder]:
        counts[i] += 1
    return counts


def assign_capacities(
    topology: Topology,
    classes: tuple[ServerClass, ...],
    placement: Placement | str,
) -> CapacityAssignment:
    """Distribute class instances over the topology's modules.

    Balanced deals every class round-robin across modules (per-module
    counts differ by at most one); unbalanced fills modules contiguously
    from the classes sorted by descending CPU, packing equal servers
    together.
    """
    placement = Placement(placement)
    classes = _check_fractions(tuple(classes), "dataset")
    modules = module_partition(topology)
    servers = topology.n_servers
    counts = _class_counts(classes, servers)

    class_ids = np.empty(servers, dtype=np.int64)
    if placement is Placement.UNBALANCED:
        order = sorted(
            range(len(classes)), key=lambda i: (-classes[i].cpu, classes[i].type_number)
        )
        fill = np.concatenate(
            [np.full(counts[i], i, dtype=np.int64) for i in order if counts[i]]
        )
        # Modules are consecutive server-id ranges that cover every server
        # in order, so filling in id order packs same-class servers module
        # by module.
        class_ids[:] = fill
    else:
        # Round-robin one instance at a time; a full module drops out of
        # the rotation. Per-module class counts differ by at most one
        # except where module capacity forces a skip (tail classes).
        per_module: list[list[int]] = [[] for _ in modules]
        room = [len(m) for m in modules]
        cursor = 0
        for idx, count in enumerate(counts):
            dealt = 0
            while dealt < count:
                m = cursor % len(modules)
                cursor += 1
                if room[m] == 0:
                    continue
                per_module[m].append(idx)
                room[m] -= 1
                dealt += 1
            cursor = 0  # each class restarts at the first module
        for module, members in zip(modules, per_module):
            class_ids[module] = np.array(members, dtype=np.int64)

    cpu = np.array([c.cpu for c in classes])[class_ids]
    memory = np.array([c.memory for c in classes])[class_ids]
    type_numbers = np.array([c.type_number for c in classes])[class_ids]
    return CapacityAssignment(
        topology=topology,
        placement=placement,
        class_of_server=type_numbers,
        cpu=cpu,
        memory=memory,
        modules=tuple(modules),
    )


def _isolating_switches(topology: Topology, module: np.ndarray) -> list[int]:
    """The aggregation switches two hops from the module's servers.

    On three-layer and fat-tree fabrics a module (an aggregation pair's
    servers, or a pod) reaches the rest of the network only through them,
    so removing them cuts it off. A BCube or DCell module is joined to the
    rest through its servers' own links, so no set of switches cuts it off
    alone, and those fabrics are refused.
    """
    kind = topology.params.kind
    if kind not in (TopologyKind.THREE_LAYER, TopologyKind.FAT_TREE):
        raise ConfigurationError(
            f"targeted module removal needs a switch-only cut, which {kind.value} lacks"
        )
    reached = np.zeros(topology.n_nodes, dtype=bool)
    reached[module] = True
    for _ in range(2):
        step = reached.copy()
        step[topology.edges_v[reached[topology.edges_u]]] = True
        step[topology.edges_u[reached[topology.edges_v]]] = True
        reached = step
    aggregation = np.array(topology.switch_layers) == LAYER_AGGREGATION
    switches = np.flatnonzero(reached[topology.n_servers :] & aggregation) + topology.n_servers
    return switches.tolist()


def remove_richest_module(
    assignment: CapacityAssignment, resource: Resource | str
) -> DegradedNetwork:
    """Cut the highest-capacity module off the topology the assignment
    carries, by removing its aggregation switches (three-layer and
    fat-tree only; see ``_isolating_switches``).

    Ties break toward the smallest module index. The resulting RCR is
    deterministic: no sampling is involved.
    """
    resource = Resource.of(resource)
    totals = assignment.module_capacity(resource)
    richest = int(np.argmax(totals))  # argmax takes the first maximum
    topology = assignment.topology
    switches = _isolating_switches(topology, assignment.modules[richest])
    return DegradedNetwork(topology, removed_switches=frozenset(switches))
