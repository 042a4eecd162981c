"""Qualitative grading of measured robustness results.

Pure rule set over measurements taken at a failed-elements ratio of 0.4:
reachability grades compare each family's accessible-server ratios against
reference curves (the strongest and weakest measured behaviors), path
quality grades bucket the average shortest path length. Grades are a
deterministic function of the numeric inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

from .analytic import FailureType
from .topology import TopologyKind

__all__ = [
    "QualitativeGrade",
    "Criterion",
    "MeasuredConfig",
    "GradeRecord",
    "ClassifierInputError",
    "classify",
]

ASR_NEAR_TOLERANCE = 0.01
ASR_GOOD_FLOOR = 0.8
ASPL_EXCELLENT_MAX = 6.0
ASPL_FAIR_MIN = 12.0


class ClassifierInputError(ValueError):
    """A grade decision needs a series that was not supplied."""


class QualitativeGrade(str, Enum):
    BAD = "bad"
    POOR = "poor"
    FAIR = "fair"
    GOOD = "good"
    EXCELLENT = "excellent"


class Criterion(str, Enum):
    REACHABILITY = "reachability"
    PATH_QUALITY = "path-quality"


@dataclass(frozen=True)
class MeasuredConfig:
    """Measured behavior of one topology configuration at FER 0.4.

    ``interfaces`` is the server port count (1 for switch-centric
    topologies); ``asr``/``aspl`` map failure types to the measured mean.
    """

    family: TopologyKind
    label: str
    interfaces: int
    asr: dict[FailureType, float] = field(default_factory=dict)
    aspl: dict[FailureType, float | None] = field(default_factory=dict)


@dataclass(frozen=True)
class GradeRecord:
    family: TopologyKind
    failure: FailureType
    criterion: Criterion
    grade: QualitativeGrade


def _graded_configs(configs: list[MeasuredConfig]) -> list[MeasuredConfig]:
    """Drop server-centric configurations with no equal-interface
    counterpart in the other server-centric family (they cannot be
    compared, so they are not graded)."""
    interface_sets = {
        kind: {c.interfaces for c in configs if c.family is kind}
        for kind in (TopologyKind.BCUBE, TopologyKind.DCELL)
    }
    if not interface_sets[TopologyKind.BCUBE] or not interface_sets[TopologyKind.DCELL]:
        return list(configs)
    common = interface_sets[TopologyKind.BCUBE] & interface_sets[TopologyKind.DCELL]
    return [
        c
        for c in configs
        if c.family not in (TopologyKind.BCUBE, TopologyKind.DCELL)
        or c.interfaces in common
    ]


def _asr_series(
    configs: list[MeasuredConfig], family: TopologyKind, failure: FailureType
) -> list[float]:
    values = []
    for c in configs:
        if c.family is not family:
            continue
        if failure not in c.asr:
            raise ClassifierInputError(f"missing asr[{failure.value}] for {c.label}")
        values.append(c.asr[failure])
    return values


def _reference_asr(
    configs: list[MeasuredConfig], family: TopologyKind, interfaces: int | None
) -> float | None:
    """Switch-failure ASR of the reference configuration, if supplied."""
    for c in configs:
        if c.family is family and (interfaces is None or c.interfaces == interfaces):
            return c.asr.get(FailureType.SWITCH)
    return None


def _reachability_grade(
    configs: list[MeasuredConfig],
    family: TopologyKind,
    failure: FailureType,
) -> QualitativeGrade:
    if failure is FailureType.SERVER:
        # Server removals never strand other servers; every family keeps
        # the remaining fleet reachable.
        return QualitativeGrade.EXCELLENT
    if family is TopologyKind.THREE_LAYER:
        return QualitativeGrade.BAD  # worst measured behavior, pinned
    series = _asr_series(configs, family, failure)
    if not series:
        raise ClassifierInputError(f"no {family.value} configurations supplied")

    all_above = all(v > ASR_GOOD_FLOOR for v in series)
    all_below = all(v < ASR_GOOD_FLOOR for v in series)

    if all_above:
        excellent_ref = _reference_asr(configs, TopologyKind.DCELL, interfaces=3)
        if excellent_ref is None:
            raise ClassifierInputError(
                "excellent-reference series absent: dcell with 3 interfaces, switch failures"
            )
        if any(abs(v - excellent_ref) <= ASR_NEAR_TOLERANCE for v in series):
            return QualitativeGrade.EXCELLENT
        return QualitativeGrade.GOOD
    if all_below:
        poor_ref = _reference_asr(configs, TopologyKind.FAT_TREE, interfaces=None)
        if poor_ref is None:
            raise ClassifierInputError(
                "poor-reference series absent: fat-tree, switch failures"
            )
        if any(abs(v - poor_ref) <= ASR_NEAR_TOLERANCE for v in series):
            return QualitativeGrade.POOR
    return QualitativeGrade.FAIR


def _path_quality_grade(
    configs: list[MeasuredConfig],
    family: TopologyKind,
    failure: FailureType,
) -> QualitativeGrade:
    values = []
    for c in configs:
        if c.family is not family:
            continue
        if failure not in c.aspl or c.aspl[failure] is None:
            raise ClassifierInputError(f"missing aspl[{failure.value}] for {c.label}")
        # Grade at whole-hop resolution: the excellent reference is the
        # (integer) fat-tree hop count and path lengths are hop counts.
        values.append(math.floor(c.aspl[failure] + 0.5))
    if not values:
        raise ClassifierInputError(f"no {family.value} configurations supplied")
    if all(v <= ASPL_EXCELLENT_MAX for v in values):
        return QualitativeGrade.EXCELLENT
    if any(v > ASPL_FAIR_MIN for v in values):
        return QualitativeGrade.FAIR
    return QualitativeGrade.GOOD


def classify(
    configs: list[MeasuredConfig],
    failures: tuple[FailureType, ...] = (
        FailureType.LINK,
        FailureType.SWITCH,
        FailureType.SERVER,
    ),
) -> list[GradeRecord]:
    """Grade every supplied family per failure type and criterion."""
    graded = _graded_configs(configs)
    families = [kind for kind in TopologyKind if any(c.family is kind for c in graded)]

    records: list[GradeRecord] = []
    for failure in failures:
        for family in families:
            records.append(
                GradeRecord(
                    family, failure, Criterion.REACHABILITY,
                    _reachability_grade(graded, family, failure),
                )
            )
            records.append(
                GradeRecord(
                    family, failure, Criterion.PATH_QUALITY,
                    _path_quality_grade(graded, family, failure),
                )
            )
    return records
