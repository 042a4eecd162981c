"""Reliability and survivability analysis of data-center network topologies.

Builds three-layer, fat-tree, BCube and DCell fabrics, simulates random
link/switch/server failures, measures reachability and path-quality
metrics, and cross-validates Monte Carlo mean-time-to-failure estimates
against min-cut closed forms.
"""

__version__ = "0.1.0"

from .analytic import (
    FailureType,
    MinCutSpec,
    MttfEstimate,
    MttfQuality,
    burtin_pittel_mttf,
    closed_form_mttf,
    elapsed_time,
    min_cut_catalog,
    normalized_time,
)
from .capacity import (
    CapacityAssignment,
    Placement,
    Resource,
    ServerClass,
    assign_capacities,
    builtin_dataset,
    module_partition,
    remove_richest_module,
)
from .classify import MeasuredConfig, QualitativeGrade, classify
from .reachability import (
    DegradedNetwork,
    SubnetworkPartition,
    accessible_server_ratio,
    average_shortest_path_length,
    partition,
    remaining_capacity_ratio,
    server_connectivity,
)
from .simulation import (
    ElementClass,
    ExperimentPlan,
    MetricSample,
    ReliabilityResult,
    classed_sweep,
    confidence_interval,
    simulate_nmttf,
    survival_sweep,
    survival_sweep_2d,
)
from .topology import (
    GatewayPolicy,
    Topology,
    TopologyKind,
    TopologyParams,
    build_bcube,
    build_dcell,
    build_fat_tree,
    build_three_layer,
    build_topology,
    gateway_port_density,
    parse_topology,
    serialize_topology,
)

__all__ = [name for name in dir() if not name.startswith("_")]
