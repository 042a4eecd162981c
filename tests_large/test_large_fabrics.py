"""MTTF and ASR checks on fabrics above the acceptance sizes.

This tier is not collected by the tier-1 command (pyproject's testpaths
is ``tests``). Run it from the repository root with
``PYTHONPATH=src python -m pytest -q tests_large``. It covers fat-tree 48
(27 648 servers), BCube 8/4 (32 768) and DCell 4/3 (176 820), each under
link and under switch failures, over the first samples of the MTTF
stream, and bounds the traced memory peak of each fabric's build and of
the kernels that derive the engine's graphs from it. The whole tier takes
well under a minute on two cores.

A sweep sample drawn from an MTTF sample's stream removes a prefix of
that sample's removal order: ``_apply_removals`` and ``_critical_sample``
each take one permutation of the element pool from it. So the critical
point and the accessible-server ratio can be compared sample by sample.
"""

import tracemalloc

import numpy as np
import pytest

from dcn_robust import reachability, simulation
from dcn_robust.analytic import FailureType
from dcn_robust.simulation import _critical_point, _element_pool, _metric_sample, sample_rng
from dcn_robust.topology import TopologyKind, TopologyParams, build_topology

SEED = 20250810
SAMPLES = 3
FABRICS = [
    TopologyParams(kind=TopologyKind.FAT_TREE, n=48),
    TopologyParams(kind=TopologyKind.BCUBE, n=8, l=4),
    TopologyParams(kind=TopologyKind.DCELL, n=4, l=3),
]
CASES = [
    pytest.param(params, failure, id=f"{params.kind.value}-{params.args_text()}-{failure.value}")
    for params in FABRICS
    for failure in (FailureType.LINK, FailureType.SWITCH)
]


def asr_after(params, failure, removed: int, sample: int) -> float:
    """ASR once the first *removed* elements of MTTF sample *sample*'s
    removal order are gone."""
    record = _metric_sample(
        ((failure, removed),), ("asr",), None, None,
        simulation._cached_topology(params), sample_rng(SEED, simulation._TAG_NMTTF, 0, sample),
    )
    return record.asr


def removal_order(params, failure, sample: int) -> np.ndarray:
    topo = simulation._cached_topology(params)
    big_f = len(_element_pool(topo, failure)[0])
    return sample_rng(SEED, simulation._TAG_NMTTF, 0, sample).permutation(big_f)


@pytest.mark.parametrize("params, failure", CASES)
def test_asr_leaves_one_at_the_critical_point(params, failure):
    # Every server reaches a gateway one removal before the critical
    # point, and some server does not at it.
    topo = simulation._cached_topology(params)
    for k in range(SAMPLES):
        critical = _critical_point(topo, failure, removal_order(params, failure, k))
        before, at = (asr_after(params, failure, c, k) for c in (critical - 1, critical))
        assert before == 1.0 and at < 1.0, (k, critical, before, at)


@pytest.mark.parametrize("params, failure", CASES)
def test_asr_never_rises_along_a_removal_order(params, failure):
    # Each count removes a prefix of the next one's removals, so a server
    # stranded at one count stays stranded at every larger one.
    topo = simulation._cached_topology(params)
    big_f = len(_element_pool(topo, failure)[0])
    for k in range(SAMPLES):
        critical = _critical_point(topo, failure, removal_order(params, failure, k))
        steps = np.linspace(0, big_f, 9).astype(int).tolist()
        counts = sorted({*steps, critical - 1, critical, critical + 1})
        asr = [asr_after(params, failure, c, k) for c in counts]
        assert asr[0] == 1.0 and asr[-1] == 0.0, (k, asr)
        assert all(a >= b for a, b in zip(asr, asr[1:])), (k, counts, asr)


def traced_peak(fn):
    """(fn's result, the peak of the memory traced while it ran)."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def edge_bytes(topo) -> int:
    return topo.edges_u.nbytes + topo.edges_v.nbytes


FABRIC_IDS = [f"{p.kind.value}-{p.args_text()}" for p in FABRICS]


@pytest.mark.parametrize("params", FABRICS, ids=FABRIC_IDS)
def test_a_build_peaks_within_five_times_its_edge_arrays(params):
    # The generators lay out their links as index arrays, so a build holds
    # the edges a few times over (the layout, one sort key per link, its
    # sorted copy and the two ends divmod splits it into), never a Python
    # tuple per link.
    topo, peak = traced_peak(lambda: build_topology(params))
    assert peak <= 5 * edge_bytes(topo), (peak, edge_bytes(topo), peak / edge_bytes(topo))


# Traced peak of each kernel in multiples of edge_bytes, run in this order
# on a fresh topology. Measured with numpy 2.4, in the order fat-tree 48 /
# BCube 8/4 / DCell 4/3: _pattern 5.7, 5.8, 6.3; _server_view 3.9, 6.3,
# 9.5; _cluster_probe under switch failures 0.2, 0.2, 5.1, as fat-tree and
# BCube share the server view and only DCell contracts. Each bound clears
# the largest peak by 16-19 %.
KERNEL_PEAK_BOUNDS = {"pattern": 7.5, "server view": 11.0, "switch probe": 6.0}


@pytest.mark.parametrize("params", FABRICS, ids=FABRIC_IDS)
def test_each_kernel_peaks_within_its_bound(params):
    topo = build_topology(params)
    kernels = {
        "pattern": lambda: reachability._pattern(topo),
        "server view": lambda: reachability._server_view(topo),
        "switch probe": lambda: simulation._cluster_probe(topo, FailureType.SWITCH),
    }
    peaks = {name: traced_peak(fn)[1] / edge_bytes(topo) for name, fn in kernels.items()}
    assert all(peaks[name] <= bound for name, bound in KERNEL_PEAK_BOUNDS.items()), peaks
    # Switch failures remove no link between two servers, so only DCell's
    # server-server links join servers into clusters.
    graph = simulation._cluster_graph(topo, FailureType.SWITCH)
    shared = all(a is b for a, b in zip(graph[:3], reachability._pattern(topo)))
    assert shared is (params.kind is not TopologyKind.DCELL)
    view = reachability._server_view(topo)
    assert (simulation._cluster_probe(topo, FailureType.SWITCH) is view) is shared
