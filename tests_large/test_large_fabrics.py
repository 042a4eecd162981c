"""MTTF and ASR checks on fabrics above the acceptance sizes.

This tier is not collected by the tier-1 command (pyproject's testpaths
is ``tests``). Run it from the repository root with
``PYTHONPATH=src python -m pytest -q tests_large``. It covers fat-tree 48
(27 648 servers), BCube 8/4 (32 768) and DCell 4/3 (176 820), each under
link and under switch failures, over the first samples of the MTTF
stream. The whole tier takes well under a minute on two cores.

A sweep sample drawn from an MTTF sample's stream removes a prefix of
that sample's removal order: ``_apply_removals`` and ``_nmttf_chunk``
each take one permutation of the element pool from it. So the critical
point and the accessible-server ratio can be compared sample by sample.
"""

import numpy as np
import pytest

from dcn_robust import simulation
from dcn_robust.analytic import FailureType
from dcn_robust.simulation import _critical_point, _element_pool, _metric_chunk, sample_rng
from dcn_robust.topology import TopologyKind, TopologyParams

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
    (record,) = _metric_chunk(
        params, ((failure, removed),), ("asr",), None,
        SEED, simulation._TAG_NMTTF, 0, sample, sample + 1,
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
