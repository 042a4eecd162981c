"""Self-tests of the benchmark harness.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
The end-to-end tests run each workload at its tiny size (two samples per
operation) in subprocesses, exactly as the benchmark is invoked.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))
sys.path.insert(0, str(ROOT / "src"))

from perfbench import checks, run, spans  # noqa: E402
from perfbench.run import END_TO_END_UNITS  # noqa: E402
from perfbench.workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402


def _run(*args: str) -> tuple[subprocess.CompletedProcess, dict]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--tiny", "--seconds", "0", *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return proc, json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_names_what_the_harness_prints():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {w["name"] for w in doc["workloads"]} <= set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == spans.PER_LAYER_UNITS


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc, result = _run("--workload", workload, "--trace", str(trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] == len(WORKLOADS[workload]) * (2 if trace else 1)
    units = spans.PER_LAYER_UNITS if trace else END_TO_END_UNITS
    assert {name: m["unit"] for name, m in result["metrics"].items()} == units
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float))
        assert f"{workload} {name} = " in proc.stdout
    assert f"{workload} failed_ops_ratio = 0 ratio" in proc.stdout


def test_corrupted_reference_digest_is_a_failed_operation(tmp_path, monkeypatch, capsys):
    doc = json.loads(run.REFERENCE.read_text(encoding="utf-8"))
    assert doc["seed"] == DEFAULT_SEED
    digests = doc["digests"]["tiny"]["survival-grid"]
    victim = sorted(digests)[0]
    digests[victim] = "0" * 64
    corrupted = tmp_path / "reference.json"
    corrupted.write_text(json.dumps(doc), encoding="utf-8")
    monkeypatch.setattr(run, "REFERENCE", corrupted)

    assert run.main(["--workload", "survival-grid", "--tiny", "--seconds", "0"]) == 0
    out = capsys.readouterr().out
    result = json.loads(out.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["attempted"] == len(WORKLOADS["survival-grid"])
    assert result["failed"] == 1
    assert f"{victim}: digest differs from the reference" in out
    assert set(result["metrics"]) == set(END_TO_END_UNITS)


def test_json_digest_ignores_extra_fields_but_not_numbers():
    op = WORKLOADS["survival-aspl"][0]
    point = {"fer_link": 0.4, "mean": 4.5, "ci95_half": None, "samples": 2, "exact": True}
    series = {"topology": "fat-tree", "params": "n=24", "failure_type": "link", "metric": "aspl"}
    doc = {"seed": 7, "plan": {}, "series": [{**series, "points": [point]}]}

    def digest(d):
        return checks.digest(op, json.dumps(d).encode("utf-8"))

    base = digest(doc)
    doc["plan"] = {"echo": "fixed"}
    doc["series"][0]["points"][0] = {**point, "pairs_mean": 12.5}
    assert digest(doc) == base
    doc["series"][0]["points"][0] = {**point, "mean": 4.5000001}
    assert digest(doc) != base


def test_missing_aspl_flag_fails_the_check():
    op = WORKLOADS["survival-aspl"][0]
    point = {"fer_link": 0.4, "mean": 4.5, "ci95_half": None, "samples": 2}
    raw = json.dumps(
        {"seed": 7, "series": [{"metric": "aspl", "points": [point]}]}
    ).encode("utf-8")
    assert checks._invariants(op, raw, 2, None) == ["ASPL exact=None, expected True"]


def test_tracer_skips_a_name_the_package_no_longer_has(tmp_path, monkeypatch):
    from dcn_robust import cli, reachability, simulation

    # Let monkeypatch restore every name install() replaces.
    modules = {"cli": cli, "simulation": simulation, "reachability": reachability}
    for module_name, attr, *_ in spans._WRAPPED:
        module = modules[module_name]
        monkeypatch.setattr(module, attr, getattr(module, attr))
    for attr in ("_run_chunked", "ProcessPoolExecutor"):
        monkeypatch.setattr(simulation, attr, getattr(simulation, attr))
    monkeypatch.setattr(spans, "_ACTIVE", None)
    monkeypatch.setenv("DCN_ROBUST_THREADS", "2")
    monkeypatch.delattr(reachability, "_bfs_distances")

    tracer = spans.Tracer()
    spans.install(tracer)
    t0 = time.perf_counter_ns()
    op = WORKLOADS["reliable-nmttf"][0]
    assert cli.main(op.full_argv(DEFAULT_SEED, 4, str(tmp_path / "out.csv"))) == 0
    layers = spans.layer_metrics(tracer, t0, time.perf_counter_ns())

    assert layers["reachability.bfs_sources"] == 0
    assert layers["simulation.probes_per_sample"] > 1
    assert layers["simulation.pools"] == 1
    assert layers["simulation.chunk_ms_max"] > 0


def _span(sid, parent, t0, t1, layer="simulation", pid=1):
    return spans.Span(sid, parent, f"s{sid}", layer, t0, t1, pid)


def test_self_time_subtracts_the_union_of_children():
    parent = _span(1, None, 0, 100)
    # Two overlapping children (as from two pool workers) and one nested
    # grandchild that must not be subtracted from the parent a second time.
    kids = [_span(2, 1, 10, 50), _span(3, 1, 40, 70), _span(4, 2, 20, 30)]
    own = spans.self_times([parent, *kids])
    assert own[1] == 100 - 60
    assert own[2] == 40 - 10
    assert own[3] == 30
    assert own[4] == 10
