"""The benchmark's workloads: CLI operations, their sizes and why each exists.

A workload is a list of operations. Each operation is one ``dcn-robust``
command line, run through ``dcn_robust.cli.main(argv)``; the harness adds
``--seed``, ``--samples``, ``--format`` and ``--out``. One pass runs the
operations one at a time in a fresh interpreter (a closed loop with one
client), and a run repeats passes until its time is up.

Each workload exists to show one queued optimisation (the ROADMAP items) and
to hold the others flat:

* ``reliable-nmttf`` spends its time in ``simulation._critical_point`` and
  its ~log2(F) ``_partition_arrays`` probes. It shows the bottleneck tree
  that replaces the bisection (ROADMAP item 3). It computes no ASPL, so
  MS-BFS (item 2) must leave it flat.
* ``survival-aspl`` spends over 99 % of each sample in the Dijkstra/BFS
  ASPL, exact on the 3k configurations and sampled on one configuration
  above ``EXACT_ASPL_SERVER_LIMIT``. It shows MS-BFS (item 2) in
  ``samples_per_s`` and ``peak_rss_mb``. It never bisects, so item 3 must
  leave it flat; with two samples per operation it spawns few pools, so
  item 4 moves it little.
* ``survival-grid`` runs many grid points with 1-2 ms samples, and every
  grid point spawns its own process pool. Pool start-up, masks,
  aggregation and emission weigh heavily, so it shows the single sweep
  driver with one pool per operation (item 4). It evaluates one partition
  per sample instead of ~13 bisection probes, so item 3 must show no
  change here.

``BENCHMARK.json`` gates on ``reliable-nmttf`` and ``survival-aspl`` only.
``survival-grid`` stays runnable by name (``run.py --workload
survival-grid``) for the pool change, but it is not gated: its hundred
process forks per pass make it far more sensitive to CPU time taken by
other tenants of the host than the other two. On a 2-vCPU VM the median
host steal during its passes reached 26 %, and across ten runs the
quartile spread of its ``samples_per_s`` was 26 % of the median, above
the largest bound (25 %) the gate allows. The gated workloads' spreads
are in the baseline of ``README.md``.
"""

from __future__ import annotations

from dataclasses import dataclass

DEFAULT_SEED = 20250810  # the acceptance gate's seed

# Samples per operation in the self-tests' tiny size.
TINY_SAMPLES = 2

_THREE_LAYER = ("--topology", "three-layer", "--na", "12", "--ne", "48", "--pairs", "6")
_FAT_TREE = ("--topology", "fat-tree", "--n", "24")
_BCUBE_3 = ("--topology", "bcube", "--n", "15", "--l", "2")
_BCUBE_5 = ("--topology", "bcube", "--n", "5", "--l", "4")
_DCELL_2 = ("--topology", "dcell", "--n", "58", "--l", "1")
_DCELL_3 = ("--topology", "dcell", "--n", "7", "--l", "2")
# 4394 servers, of which about 4170 stay accessible at link FER 0.05:
# above EXACT_ASPL_SERVER_LIMIT (4000), so the sampled ASPL path runs.
_FAT_TREE_26 = ("--topology", "fat-tree", "--n", "26")


@dataclass(frozen=True)
class Op:
    """One CLI operation of a workload.

    ``points`` is the number of grid points the command evaluates, so one
    pass completes ``points * samples`` Monte Carlo samples for it. ``fmt``
    is the report format: ASPL operations write JSON because only the JSON
    report carries the ``exact`` flag. ``aspl_sampled`` marks the one
    configuration whose ASPL must be sampled rather than exact.
    """

    name: str
    argv: tuple[str, ...]
    samples: int
    points: int = 1
    fmt: str = "csv"
    aspl_sampled: bool = False

    @property
    def command(self) -> str:
        return self.argv[0]

    def full_argv(self, seed: int, samples: int, out: str) -> list[str]:
        return [
            *self.argv,
            "--seed", str(seed),
            "--samples", str(samples),
            "--format", self.fmt,
            "--out", out,
        ]


def _mttf(name: str, topo: tuple[str, ...], failure: str) -> Op:
    return Op(name, ("mttf", *topo, "--failure", failure), samples=100)


def _aspl(
    name: str,
    topo: tuple[str, ...],
    failure: str,
    fer: str,
    sampled: bool = False,
    extra: tuple[str, ...] = ("--metrics", "aspl"),
) -> Op:
    return Op(
        name,
        ("sweep", *topo, "--failure", failure, "--fer", fer, *extra),
        samples=2,
        fmt="json",
        aspl_sampled=sampled,
    )


WORKLOADS: dict[str, tuple[Op, ...]] = {
    "reliable-nmttf": (
        _mttf("fat-tree-link", _FAT_TREE, "link"),
        _mttf("fat-tree-switch", _FAT_TREE, "switch"),
        _mttf("bcube-3-link", _BCUBE_3, "link"),
        _mttf("bcube-3-switch", _BCUBE_3, "switch"),
        _mttf("dcell-3-link", _DCELL_3, "link"),
        _mttf("dcell-3-switch", _DCELL_3, "switch"),
        _mttf("three-layer-link", _THREE_LAYER, "link"),
    ),
    "survival-aspl": (
        _aspl("fat-tree-link", _FAT_TREE, "link", "0.4"),
        _aspl("fat-tree-switch", _FAT_TREE, "switch", "0.4"),
        _aspl("three-layer-link", _THREE_LAYER, "link", "0.4"),
        _aspl("dcell-2-link", _DCELL_2, "link", "0.4"),
        _aspl("fat-tree-26-sampled", _FAT_TREE_26, "link", "0.05", sampled=True),
        # Keeps the capacity layer (dataset, placement) in a gated workload.
        _aspl(
            "three-layer-switch-rcr",
            _THREE_LAYER,
            "switch",
            "0.4",
            extra=("--metrics", "aspl,rcr_cpu,rcr_mem", "--dataset", "google"),
        ),
    ),
    "survival-grid": (
        Op(
            "fat-tree-asr-sc",
            ("sweep", *_FAT_TREE, "--failure", "link", "--fer", "0:0.4:0.05",
             "--metrics", "asr,sc"),
            samples=10,
            points=9,
        ),
        Op(
            "three-layer-rcr",
            ("sweep", *_THREE_LAYER, "--failure", "switch", "--fer", "0:0.4:0.05",
             "--metrics", "asr,rcr_cpu,rcr_mem", "--dataset", "google"),
            samples=10,
            points=9,
        ),
        Op(
            "bcube-5-2d",
            ("sweep2d", *_BCUBE_5, "--fer-link", "0:0.4:0.1", "--fer-switch", "0:0.4:0.1"),
            samples=10,
            points=25,
        ),
        Op(
            "three-layer-classed",
            ("classed-sweep", *_THREE_LAYER, "--sweep-class", "edge-switch",
             "--fixed", "agg-switch=0.25", "--fixed", "core-switch=0", "--fer", "0:0.4:0.05"),
            samples=10,
            points=9,
        ),
        # Acceptance criterion 7's point. Some samples really strand an
        # 8-server island here (a known spec defect, see the acceptance
        # tests), so ASR is never asserted to be 1.0: the digest and the
        # generic [0, 1] bound are its only checks.
        Op(
            "dcell-3-switch-half",
            ("sweep", *_DCELL_3, "--failure", "switch", "--fer", "0.5", "--metrics", "asr"),
            samples=100,
        ),
    ),
}
