"""Closed-form reliability machinery.

Element lifetimes are independent exponentials with mean ``E[tau]``; the
time to reach f failures out of F follows from order statistics. The mean
time to the first server disconnection is approximated from the smallest
cut sets (size r, count c) of each topology, with a numeric-quadrature
oracle for cross-checking and exact handling of the one case where any two
switch failures disconnect servers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy import integrate

from .topology import TopologyKind, TopologyParams, dcell_server_count

__all__ = [
    "FailureType",
    "MinCutSpec",
    "LifetimeModel",
    "MttfQuality",
    "MttfEstimate",
    "OutOfScopeError",
    "elapsed_time",
    "normalized_time",
    "normalized_time_table",
    "burtin_pittel_mttf",
    "mttf_numeric_quadrature",
    "min_cut_catalog",
    "closed_form_mttf",
    "interface_gain_server_threshold",
    "fat_tree_deficit_server_threshold",
]


class FailureType(str, Enum):
    LINK = "link"
    SWITCH = "switch"
    SERVER = "server"


class OutOfScopeError(ValueError):
    """The requested analytic result is outside the covered cases."""


@dataclass(frozen=True)
class MinCutSpec:
    """Smallest disconnecting element-set size r and count c.

    c is kept as a real number: the catalog expresses it through formulas
    that are integral at exact parameter points.
    """

    r: int
    c: float

    def __post_init__(self) -> None:
        if self.r < 1:
            raise ValueError(f"min-cut size r must be >= 1, got {self.r}")
        if self.c < 1:
            raise ValueError(f"min-cut count c must be >= 1, got {self.c}")


@dataclass(frozen=True)
class LifetimeModel:
    """Exponential element lifetime with the given mean."""

    mean_element_lifetime: float = 1.0

    def __post_init__(self) -> None:
        if not self.mean_element_lifetime > 0:
            raise ValueError("mean element lifetime must be positive")


def _mean_lifetime(lifetime: LifetimeModel | float) -> float:
    if isinstance(lifetime, LifetimeModel):
        return lifetime.mean_element_lifetime
    return float(lifetime)


def elapsed_time(f: int, big_f: int, lifetime: LifetimeModel | float = 1.0) -> float:
    """Mean time until f of F exponential elements have failed.

    Expectation of the f-th order statistic of F i.i.d. exponentials:
    ``E[tau] * sum_{i=0}^{f-1} 1/(F-i)``.
    """
    mean = _mean_lifetime(lifetime)
    if big_f < 1:
        raise ValueError(f"element count F must be >= 1, got {big_f}")
    if not 0 <= f <= big_f:
        raise ValueError(f"failure count f={f} outside [0, {big_f}]")
    # Summed smallest-terms-first for accuracy.
    return mean * math.fsum(1.0 / (big_f - i) for i in reversed(range(f)))


def normalized_time(f: int, big_f: int) -> float:
    """Elapsed time in units of the mean element lifetime."""
    return elapsed_time(f, big_f, 1.0)


def normalized_time_table(big_f: int) -> np.ndarray:
    """normalized_time(f, F) for every f in 0..F, as one cumulative array."""
    steps = 1.0 / (big_f - np.arange(big_f, dtype=np.float64))
    table = np.empty(big_f + 1)
    table[0] = 0.0
    np.cumsum(steps, out=table[1:])
    return table


def burtin_pittel_mttf(mincut: MinCutSpec, lifetime: LifetimeModel | float = 1.0) -> float:
    """First-order min-cut approximation of the mean time to the first
    server disconnection: ``(E[tau]/r) * c**(-1/r) * Gamma(1/r)``."""
    mean = _mean_lifetime(lifetime)
    r, c = mincut.r, mincut.c
    return (mean / r) * c ** (-1.0 / r) * math.gamma(1.0 / r)


def mttf_numeric_quadrature(
    mincut: MinCutSpec, lifetime: LifetimeModel | float = 1.0
) -> float:
    """Independent oracle for :func:`burtin_pittel_mttf`.

    Integrates the approximated reliability exp(-t^r c / E^r) over t in
    [0, inf) numerically, after the substitution x = t^r:
    ``(1/r) * int_0^inf x^(1/r-1) exp(-k x) dx`` with k = c / E^r.
    """
    mean = _mean_lifetime(lifetime)
    r, c = mincut.r, mincut.c
    k = c / mean**r
    # Beyond x0 the exponential factor is below 1e-18 of its peak; the
    # remaining tail is orders below the 1e-8 oracle tolerance.
    x0 = 42.0 / k
    if r == 1:
        value, err = integrate.quad(lambda x: math.exp(-k * x), 0.0, x0, epsabs=0, epsrel=1e-12)
    else:
        # x^(1/r-1) is an integrable endpoint singularity; integrate it as
        # an algebraic weight so the quadrature sees only the smooth part.
        value, err = integrate.quad(
            lambda x: math.exp(-k * x),
            0.0,
            x0,
            weight="alg",
            wvar=(1.0 / r - 1.0, 0.0),
            epsabs=0,
            epsrel=1e-12,
        )
    if not math.isfinite(value) or (value > 0 and err / value > 1e-9):
        raise ArithmeticError(f"quadrature did not converge: value={value}, err={err}")
    return value / r


_SWITCH_QUALITY_POOR = "poor approximation"


class MttfQuality(str, Enum):
    EXACT = "exact"
    APPROXIMATE = "approximate"
    POOR_APPROXIMATION = "poor-approximation"


@dataclass(frozen=True)
class MttfEstimate:
    value: float
    quality: MttfQuality

    @property
    def exact(self) -> bool:
        return self.quality is MttfQuality.EXACT


def _server_count(params: TopologyParams) -> int:
    if params.kind is TopologyKind.THREE_LAYER:
        return params.pairs * params.n_a * params.n_e
    if params.kind is TopologyKind.FAT_TREE:
        return params.n**3 // 4
    if params.kind is TopologyKind.BCUBE:
        return params.n ** (params.l + 1)
    return dcell_server_count(params.n, params.l)


def min_cut_catalog(params: TopologyParams, failure: FailureType) -> MinCutSpec:
    """Smallest cut size and count for a (topology, failure type) pair."""
    if failure is FailureType.SERVER:
        raise OutOfScopeError("server failures have no min-cut model: any one ends the reliable phase")
    servers = _server_count(params)
    kind = params.kind

    if failure is FailureType.LINK:
        if kind in (TopologyKind.THREE_LAYER, TopologyKind.FAT_TREE):
            return MinCutSpec(1, servers)
        if kind is TopologyKind.BCUBE:
            return MinCutSpec(params.l + 1, servers)
        # dcell: at l=1, two directly-linked servers that both lose their
        # switch link form an island, adding 0.5|S| cuts of the same size.
        if params.l == 1:
            return MinCutSpec(2, 1.5 * servers)
        return MinCutSpec(params.l + 1, servers)

    # switch failures
    if kind is TopologyKind.THREE_LAYER:
        return MinCutSpec(1, servers / params.n_e)
    if kind is TopologyKind.FAT_TREE:
        return MinCutSpec(1, (2.0 * servers**2) ** (1.0 / 3.0))
    if kind is TopologyKind.BCUBE:
        return MinCutSpec(params.l + 1, servers)
    if params.l > 2:
        raise OutOfScopeError(f"dcell switch min-cuts are not characterized for l={params.l} (> 2)")
    if params.l < 1:
        raise OutOfScopeError("dcell switch min-cuts require l >= 1")
    return MinCutSpec(2 * params.l**2, math.comb(params.n + params.l, 2 * params.l))


def closed_form_mttf(
    params: TopologyParams,
    failure: FailureType,
    lifetime: LifetimeModel | float = 1.0,
) -> MttfEstimate:
    """Closed-form mean time to first disconnection, flagged by quality.

    Most cases use the min-cut approximation. DCell with l=1 under switch
    failures is exact (any two switch failures strand a server pair):
    ``E[tau] * sqrt(4|S|+1) / |S|``. The approximation is known-poor for
    BCube l=1 and DCell l=2 switch failures and flagged as such.
    """
    mean = _mean_lifetime(lifetime)
    kind = params.kind
    if failure is FailureType.SWITCH and kind is TopologyKind.DCELL and params.l == 1:
        servers = _server_count(params)
        return MttfEstimate(mean * math.sqrt(4 * servers + 1) / servers, MttfQuality.EXACT)

    value = burtin_pittel_mttf(min_cut_catalog(params, failure), mean)
    quality = MttfQuality.APPROXIMATE
    if failure is FailureType.SWITCH and (
        (kind is TopologyKind.BCUBE and params.l == 1)
        or (kind is TopologyKind.DCELL and params.l == 2)
    ):
        quality = MttfQuality.POOR_APPROXIMATION
    return MttfEstimate(value, quality)


def interface_gain_server_threshold(l: int) -> float:
    """Server count above which going from l to l+1 server interfaces
    raises the link-failure MTTF:
    ``(((l+2)/(l+1)) * Gamma(1/(l+1)) / Gamma(1/(l+2))) ** ((l+1)(l+2))``.

    Decreasing in l; 0.955 at l=1, so any feasible size qualifies.
    """
    if l < 1:
        raise ValueError(f"threshold defined for l >= 1, got {l}")
    ratio = ((l + 2) / (l + 1)) * math.gamma(1.0 / (l + 1)) / math.gamma(1.0 / (l + 2))
    return ratio ** ((l + 1) * (l + 2))


def fat_tree_deficit_server_threshold() -> float:
    """Server count above which Fat-tree's link-failure MTTF drops below
    the weakest server-centric case (DCell with l=1): 6/pi = 1.909."""
    return 6.0 / math.pi
