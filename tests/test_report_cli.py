import json

import pytest

from dcn_robust.analytic import FailureType
from dcn_robust.cli import main
from dcn_robust.report import (
    CSV_COLUMNS,
    Report,
    gnuplot_script,
    reliability_rows,
    to_csv_text,
    to_json_text,
)
from dcn_robust.simulation import (
    ExperimentPlan,
    classed_sweep,
    plan_from_doc,
    plan_to_doc,
    simulate_nmttf,
    survival_sweep,
)
from dcn_robust.topology import TopologyKind, TopologyParams, parse_topology


SMALL = TopologyParams(kind=TopologyKind.DCELL, n=4, l=1)


def small_sweep_report(seed=5):
    plan = ExperimentPlan(
        params=SMALL,
        failures=(FailureType.LINK,),
        fer_grids=((0.0, 0.4),),
        samples=16,
        master_seed=seed,
        metrics=("asr", "sc"),
    )
    rows = survival_sweep(plan, workers=1)
    return Report(plan=plan_to_doc(plan), seed=seed, rows=tuple(rows))


class TestReportFormats:
    def test_csv_schema(self):
        text = to_csv_text(small_sweep_report())
        header = text.splitlines()[0]
        assert header == ",".join(CSV_COLUMNS)
        assert header == (
            "topology,params,failure_type,fer_link,fer_switch,fer_server,"
            "normalized_time,metric,mean,ci95_half,samples,seed"
        )
        line = text.splitlines()[1].split(",")
        assert line[0] == "dcell"
        assert line[-1] == "5"

    def test_empty_fields_for_inapplicable_axes(self):
        text = to_csv_text(small_sweep_report())
        row = text.splitlines()[1]
        # fer_switch and fer_server columns are empty on a link sweep
        cells = row.split(",")
        # params "n=4,l=1" is quoted, so parse via csv
        import csv as _csv
        import io

        cells = next(_csv.reader(io.StringIO(row)))
        assert cells[4] == "" and cells[5] == ""

    def test_json_nesting(self):
        report = small_sweep_report()
        doc = json.loads(to_json_text(report))
        assert doc["tool"] == "dcn-robust"
        assert doc["seed"] == 5
        assert doc["plan"]["params"]["kind"] == "dcell"
        metrics = {s["metric"] for s in doc["series"]}
        assert metrics == {"asr", "sc"}
        for series in doc["series"]:
            assert len(series["points"]) == 2

    def test_byte_stable_across_runs(self):
        a, b = small_sweep_report(), small_sweep_report()
        assert to_csv_text(a) == to_csv_text(b)
        assert to_json_text(a) == to_json_text(b)

    def test_reliability_rows_shape(self):
        plan = ExperimentPlan(
            params=SMALL, failures=(FailureType.SWITCH,), samples=10, master_seed=1
        )
        rows = reliability_rows(simulate_nmttf(plan, workers=1))
        metrics = [r.metric for r in rows]
        assert metrics == ["nmttf_sim", "critical_fer", "nmttf_theo", "relative_error"]
        assert rows[2].extra["quality"] == "exact"

    def test_gnuplot_script_references_csv(self):
        report = small_sweep_report()
        script = gnuplot_script("out.csv", report)
        assert "out.csv" in script
        assert "yerrorlines" in script


class TestCli:
    def test_gen_summary(self, capsys):
        assert main(["gen", "--topology", "bcube", "--n", "58", "--l", "1"]) == 0
        out = capsys.readouterr().out
        assert "servers=3364 switches=116 links=6728" in out

    def test_gen_writes_parseable_document(self, tmp_path, capsys):
        out = tmp_path / "topo.json"
        assert main(["gen", "--topology", "dcell", "--n", "4", "--l", "1", "--out", str(out)]) == 0
        topo = parse_topology(out.read_text())
        assert topo.n_servers == 20

    def test_usage_error_exit_2(self):
        assert main(["gen", "--topology", "escher"]) == 2
        assert main(["frobnicate"]) == 2
        assert main([]) == 2

    def test_configuration_error_exit_3(self, capsys):
        assert main(["gen", "--topology", "fat-tree", "--n", "5"]) == 3
        assert "n must be even" in capsys.readouterr().err
        assert main(["gen", "--topology", "bcube", "--n", "4"]) == 3

    def test_missing_dataset_file_exit_3(self, tmp_path):
        assert (
            main(
                [
                    "sweep", "--topology", "bcube", "--n", "2", "--l", "1",
                    "--failure", "link", "--fer", "0.1", "--metrics", "rcr_cpu",
                    "--dataset", str(tmp_path / "nope.csv"),
                ]
            )
            == 3
        )

    def test_reconcile_exit_0(self, capsys):
        assert main(["reconcile-table1"]) == 0
        out = capsys.readouterr().out
        assert out.count("NOTE") == 2
        assert out.count("PASS") == 18
        assert "FAIL" not in out

    def test_reconcile_unexplained_mismatch_exit_4(self, monkeypatch, capsys):
        import dcn_robust.cli as cli_mod
        from dcn_robust.reconcile import CatalogRow, RowResult
        from dcn_robust.topology import TopologyKind, TopologyParams

        row = CatalogRow(
            "3k", "BCube2",
            TopologyParams(kind=TopologyKind.BCUBE, n=58, l=1), 6728, 116, 3364,
        )
        broken = [RowResult(row, "FAIL", (6728, 117, 3364), "expected ... got ...")]
        monkeypatch.setattr(cli_mod, "reconcile_reference_catalog", lambda: broken)
        assert main(["reconcile-table1"]) == 4
        assert "FAIL" in capsys.readouterr().out

    def test_mttf_csv_output(self, tmp_path, capsys):
        out = tmp_path / "mttf.csv"
        code = main(
            [
                "mttf", "--topology", "dcell", "--n", "4", "--l", "1",
                "--failure", "switch", "--samples", "10", "--seed", "3",
                "--out", str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert any(",nmttf_sim," in line for line in lines)
        assert any(",relative_error," in line for line in lines)

    def test_sweep_json_deterministic(self, tmp_path):
        args = [
            "sweep", "--topology", "bcube", "--n", "4", "--l", "1",
            "--failure", "link", "--fer", "0:0.4:0.2", "--metrics", "asr",
            "--samples", "12", "--seed", "9", "--format", "json",
        ]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        doc = json.loads(a.read_text())
        points = doc["series"][0]["points"]
        assert [p["fer_link"] for p in points] == [0.0, 0.2, 0.4]

    def test_sweep_grid_syntax_inclusive_ends(self, tmp_path):
        out = tmp_path / "grid.json"
        assert (
            main(
                [
                    "sweep", "--topology", "bcube", "--n", "2", "--l", "1",
                    "--failure", "link", "--fer", "0:0.4:0.05",
                    "--metrics", "asr", "--samples", "2",
                    "--format", "json", "--out", str(out),
                ]
            )
            == 0
        )
        points = json.loads(out.read_text())["series"][0]["points"]
        fers = [p["fer_link"] for p in points]
        assert fers[0] == 0.0 and fers[-1] == 0.4
        assert len(fers) == 9

    def test_sweep2d_rows(self, tmp_path):
        out = tmp_path / "grid2.json"
        assert (
            main(
                [
                    "sweep2d", "--topology", "dcell", "--n", "4", "--l", "1",
                    "--fer-link", "0,0.2", "--fer-switch", "0,0.2",
                    "--samples", "6", "--seed", "2", "--format", "json",
                    "--out", str(out),
                ]
            )
            == 0
        )
        doc = json.loads(out.read_text())
        points = doc["series"][0]["points"]
        assert len(points) == 4
        assert {(p["fer_link"], p["fer_switch"]) for p in points} == {
            (0.0, 0.0), (0.0, 0.2), (0.2, 0.0), (0.2, 0.2)
        }

    def test_classed_sweep_cli(self, tmp_path):
        out = tmp_path / "classed.csv"
        code = main(
            [
                "classed-sweep", "--topology", "three-layer",
                "--na", "3", "--ne", "4", "--pairs", "2",
                "--sweep-class", "edge-switch",
                "--fixed", "agg-switch=0.0", "--fixed", "core-switch=0.0",
                "--fer", "0:1:0.5", "--samples", "5", "--out", str(out),
            ]
        )
        assert code == 0
        body = out.read_text()
        assert "edge-switch" in body

    def test_classed_sweep_plan_echo_reproduces_the_run(self, tmp_path):
        out = tmp_path / "classed.json"
        code = main(
            [
                "classed-sweep", "--topology", "three-layer",
                "--na", "3", "--ne", "4", "--pairs", "2",
                "--sweep-class", "edge-link", "--fixed", "agg-link=0.25",
                "--fer", "0:0.5:0.25", "--samples", "6", "--seed", "3",
                "--format", "json", "--out", str(out),
            ]
        )
        assert code == 0
        text = out.read_text()
        doc = json.loads(text)
        assert doc["plan"]["failures"] == ["link"]
        assert doc["plan"]["class_ratios"] == {"agg-link": 0.25, "edge-link": None}
        plan = plan_from_doc(doc["plan"])
        rows = classed_sweep(plan, workers=1)
        echo = Report(plan=plan_to_doc(plan), seed=plan.master_seed, rows=tuple(rows))
        assert to_json_text(echo) == text

    def test_capacity_cli(self, tmp_path, capsys):
        out = tmp_path / "cap.json"
        code = main(
            [
                "capacity", "--topology", "three-layer",
                "--na", "12", "--ne", "48", "--pairs", "6",
                "--dataset", "synthetic", "--placement", "unbalanced",
                "--remove-richest", "cpu", "--format", "json", "--out", str(out),
            ]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        point = doc["series"][0]["points"][0]
        assert point["mean"] == pytest.approx(0.5, rel=1e-12)

    def test_classify_cli(self, tmp_path):
        measured = {
            "configs": [
                {
                    "family": "fat-tree",
                    "label": "FT",
                    "interfaces": 1,
                    "series": {
                        "link": {"asr": 0.6, "aspl": 5.9},
                        "switch": {"asr": 0.6, "aspl": 5.9},
                        "server": {"asr": 0.6, "aspl": 5.9},
                    },
                }
            ]
        }
        src = tmp_path / "measured.json"
        src.write_text(json.dumps(measured))
        out = tmp_path / "grades.json"
        assert main(["classify", "--input", str(src), "--out", str(out)]) == 0
        grades = json.loads(out.read_text())["grades"]
        lookup = {(g["failure"], g["criterion"]): g["grade"] for g in grades if g["family"] == "fat-tree"}
        assert lookup[("link", "reachability")] == "poor"
        assert lookup[("link", "path-quality")] == "excellent"

    def test_classify_missing_series_exit_3(self, tmp_path):
        src = tmp_path / "measured.json"
        src.write_text(json.dumps({"configs": [
            {"family": "bcube", "label": "B", "interfaces": 2,
             "series": {"link": {"asr": 0.9}}}
        ]}))
        assert main(["classify", "--input", str(src)]) == 3

    def test_gnuplot_emission(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert (
            main(
                [
                    "sweep", "--topology", "bcube", "--n", "2", "--l", "1",
                    "--failure", "link", "--fer", "0,0.5", "--metrics", "asr",
                    "--samples", "3", "--out", str(out), "--gnuplot",
                ]
            )
            == 0
        )
        script = out.with_suffix(".gp")
        assert script.exists()
        assert "sweep.csv" in script.read_text()

    def test_plan_file_round_trip(self, tmp_path):
        plan = ExperimentPlan(
            params=SMALL,
            failures=(FailureType.LINK,),
            fer_grids=((0.0, 0.5),),
            samples=4,
            master_seed=17,
            metrics=("asr",),
        )
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps(plan_to_doc(plan)))
        out = tmp_path / "from_plan.json"
        # --failure/--fer are still required flags; the plan file wins
        assert main(["sweep", "--plan", str(plan_path), "--failure", "link",
                     "--fer", "0", "--format", "json", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["seed"] == 17
        assert doc["plan"]["samples"] == 4
