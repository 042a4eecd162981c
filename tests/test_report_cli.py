import argparse
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from dcn_robust import cli, simulation
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
    survival_sweep_2d,
)
from dcn_robust.topology import TopologyKind, TopologyParams, build_topology, parse_topology


SMALL = TopologyParams(kind=TopologyKind.DCELL, n=4, l=1)
TINY_THREE_LAYER = ["--topology", "three-layer", "--na", "2", "--ne", "2", "--pairs", "2"]
CAPACITY_3K = [
    "capacity", "--topology", "three-layer", "--na", "12", "--ne", "48", "--pairs", "6",
    "--dataset", "synthetic",
]


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

    def test_degenerate_flag_is_in_json_only(self):
        report = small_sweep_report()
        doc = json.loads(to_json_text(report))
        for series in doc["series"]:
            zero, varied = series["points"]
            assert zero["ci95_half"] == 0.0 and zero["degenerate"] is True
            assert varied["ci95_half"] > 0.0 and "degenerate" not in varied
        assert "degenerate" not in to_csv_text(report)

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
        # The sweep's rows alternate asr and sc; each curve keeps its own.
        plots = [line for line in script.splitlines() if line.startswith("plot")]
        metric, mean, ci = (CSV_COLUMNS.index(c) + 1 for c in ("metric", "mean", "ci95_half"))
        fer = CSV_COLUMNS.index("fer_link") + 1
        assert plots == [
            f"plot 'out.csv' skip 1 using {fer}:(strcol({metric}) eq '{name}' ? ${mean} : NaN)"
            f":{ci} with yerrorlines title '{name}'"
            for name in ("asr", "sc")
        ]

    def test_gnuplot_script_doubles_a_quote_in_the_csv_name(self):
        # gnuplot reads '' as one quote inside a single-quoted string.
        plots = [
            line
            for line in gnuplot_script("it's.csv", small_sweep_report()).splitlines()
            if line.startswith("plot")
        ]
        assert plots and all(line.startswith("plot 'it''s.csv' skip 1 ") for line in plots)

    def test_gnuplot_script_draws_one_curve_per_fer_link(self):
        plan = ExperimentPlan(
            params=SMALL,
            failures=(FailureType.LINK, FailureType.SWITCH),
            fer_grids=((0.0, 0.5), (0.0, 0.5)),
            samples=4,
            metrics=("asr", "sc"),
        )
        report = Report(plan=plan_to_doc(plan), seed=0, rows=tuple(survival_sweep_2d(plan, 1)))
        plots = [line for line in gnuplot_script("g.csv", report).splitlines() if "plot" in line]
        metric, mean, ci, link, switch = (
            CSV_COLUMNS.index(c) + 1
            for c in ("metric", "mean", "ci95_half", "fer_link", "fer_switch")
        )
        # One plot per metric, against fer_switch, with one curve per fer_link.
        assert plots == [
            "plot " + ", ".join(
                f"'g.csv' skip 1 using {switch}:(strcol({metric}) eq '{name}'"
                f" && strcol({link}) eq '{fer}' ? ${mean} : NaN):{ci}"
                f" with yerrorlines title '{name} fer_link={fer}'"
                for fer in ("0.0", "0.5")
            )
            for name in ("asr", "sc")
        ]
        # Each curve's rows run forward along fer_switch.
        cells = list(csv.reader(io.StringIO(to_csv_text(report))))[1:]
        assert [(c[link - 1], c[switch - 1]) for c in cells if c[metric - 1] == "asr"] == [
            ("0.0", "0.0"), ("0.0", "0.5"), ("0.5", "0.0"), ("0.5", "0.5")
        ]


# The fields of a fat-tree entry of a classify document, as JSON text.
CLASSIFY_FIELDS = {"interfaces": "1", "asr": "0.6", "aspl": "5.9"}


def classify_text(**bad) -> str:
    """A classify document of two fat-tree entries; the second takes the
    fields in *bad*, JSON text put in as written."""

    def entry(interfaces, asr, aspl):
        values = f'{{"asr": {asr}, "aspl": {aspl}}}'
        series = ", ".join(f'"{failure}": {values}' for failure in ("link", "switch", "server"))
        return f'{{"family": "fat-tree", "interfaces": {interfaces}, "series": {{{series}}}}}'

    return f'{{"configs": [{entry(**CLASSIFY_FIELDS)}, {entry(**{**CLASSIFY_FIELDS, **bad})}]}}'


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

    @pytest.mark.parametrize("command, option", [("sweep", "--plan"), ("classify", "--input")])
    def test_malformed_json_input_exit_3(self, command, option, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main([command, option, str(path)]) == 3
        assert f"error: {path}: not a JSON document" in capsys.readouterr().err

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize(
        "command",
        [
            ["sweep", "--failure", "link", "--fer", "0.5:0.1:0.1"],
            ["sweep2d", "--fer-link", "0.5:0.1:0.1", "--fer-switch", "0"],
        ],
        ids=["sweep", "sweep2d"],
    )
    def test_empty_grid_exit_3(self, command, threads, monkeypatch, tmp_path, capsys):
        # Refused before any pool starts, whatever the worker count.
        monkeypatch.setenv("DCN_ROBUST_THREADS", threads)
        out = tmp_path / "r.csv"
        argv = command[:1] + TINY_THREE_LAYER + command[1:] + ["--samples", "2", "--out", str(out)]
        assert main(argv) == 3
        assert "FER grid must hold at least one value" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_empty_grid_in_a_plan_file_exit_3(self, threads, monkeypatch, tmp_path, capsys):
        monkeypatch.setenv("DCN_ROBUST_THREADS", threads)
        plan = ExperimentPlan(params=SMALL, failures=(FailureType.LINK,), fer_grids=((0.0,),))
        doc = plan_to_doc(plan)
        doc["fer_grids"] = [[]]
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(doc))
        assert main(["sweep", "--plan", str(path)]) == 3
        assert "FER grid must hold at least one value" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "grid",
        [[0.0, float("nan")], [float("nan")], [0.0, float("nan"), 0.5]],
        ids=["nan-last", "nan-only", "nan-inside"],
    )
    def test_nan_grid_in_a_plan_file_exit_3(self, grid, tmp_path, capsys):
        # json writes and reads NaN, which fails every comparison, so every
        # value is range-checked, not only the ends.
        doc = plan_to_doc(ExperimentPlan(params=SMALL, failures=(FailureType.LINK,)))
        doc["fer_grids"] = [grid]
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(doc))
        assert main(["sweep", "--plan", str(path)]) == 3
        assert "FER grid values must lie in [0, 1]" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("samples", 2.9, "plan: samples must be an integer, got 2.9"),
            ("samples", "2", 'plan: samples must be an integer, got "2"'),
            ("samples", True, "plan: samples must be an integer, got true"),
            ("master_seed", "7", 'plan: master_seed must be an integer, got "7"'),
            ("master_seed", 7.0, "plan: master_seed must be an integer, got 7.0"),
            ("fer_grids", [["0.5"]], 'plan: FER values must be numbers, got "0.5"'),
            ("fer_grids", [[0.0, True]], "plan: FER values must be numbers, got true"),
            ("fer_grids", [0.5], "plan: fer_grids must be a list of lists, got [0.5]"),
            ("fer_grids", "0.5", 'plan: fer_grids must be a list of lists, got "0.5"'),
            ("metrics", "asr", 'plan: metrics must be a list of strings, got "asr"'),
            ("metrics", ["asr", 1], 'plan: metrics must be a list of strings, got ["asr", 1]'),
            ("failures", "link", 'plan: failures must be a list of strings, got "link"'),
        ],
    )
    def test_plan_field_of_the_wrong_json_type_exit_3(
        self, field, value, message, tmp_path, capsys
    ):
        # int(2.9) and int("7") would run another plan than the document
        # says, and a string of metrics or failures is no list of names.
        plan = ExperimentPlan(params=SMALL, failures=(FailureType.LINK,), fer_grids=((0.5,),))
        doc = plan_to_doc(plan)
        doc[field] = value
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(doc))
        assert main(["sweep", "--plan", str(path)]) == 3
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "params, message",
        [
            ({"kind": "fat-tree", "n": 4, "gateway_policy": 5}, "gateway_policy: expected a string"),
            ([], "params: expected an object, got []"),
            ({"kind": "fat-tree", "n": "4"}, 'params: n must be an integer, got "4"'),
        ],
        ids=["gateway-policy-not-a-string", "params-not-an-object", "n-not-an-integer"],
    )
    def test_bad_params_in_a_plan_file_exit_3(self, params, message, tmp_path, capsys):
        doc = plan_to_doc(ExperimentPlan(params=SMALL, failures=(FailureType.LINK,)))
        doc["params"] = params
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(doc))
        assert main(["mttf", "--plan", str(path)]) == 3
        assert message in capsys.readouterr().err

    def test_dataset_sweep_builds_its_topology_once(self, monkeypatch, capsys):
        # The capacity assignment is placed over the sweep's own topology.
        simulation._cached_topology.cache_clear()
        monkeypatch.setenv("DCN_ROBUST_THREADS", "1")
        builds = {"cli": 0, "simulation": 0}

        def counting(module):
            def build(params):
                builds[module] += 1
                return build_topology(params)

            return build

        monkeypatch.setattr(cli, "build_topology", counting("cli"))
        monkeypatch.setattr(simulation, "build_topology", counting("simulation"))
        argv = [
            "sweep", *TINY_THREE_LAYER, "--failure", "switch", "--fer", "0,0.5",
            "--metrics", "asr,rcr_cpu", "--dataset", "google", "--samples", "2",
        ]
        assert main(argv) == 0
        assert builds == {"cli": 0, "simulation": 1}

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

    @pytest.mark.parametrize(
        "argv",
        [
            ["capacity", "--topology", "fat-tree", "--n", "4", "--remove-richest", "cpu"],
            ["sweep", "--topology", "bcube", "--n", "2", "--l", "1", "--failure", "link",
             "--fer", "0.1", "--metrics", "rcr_cpu", "--samples", "2"],
        ],
        ids=["capacity", "sweep"],
    )
    def test_dataset_file_that_is_not_utf8_exit_3(self, argv, tmp_path, capsys):
        path = tmp_path / "classes.csv"
        path.write_bytes("type_number,cpu,memory,fraction\n1,1.0,1.0,1.0\n".encode("utf-16"))
        assert main([*argv, "--dataset", str(path)]) == 3
        assert f"error: {path}: not UTF-8 text" in capsys.readouterr().err

    def test_mttf_plan_echo_names_no_metric_and_reruns_to_the_same_report(self, tmp_path):
        first, again, other = (tmp_path / f"{name}.json" for name in ("first", "again", "other"))
        argv = ["mttf", *TINY_THREE_LAYER, "--failure", "link", "--samples", "4", "--format",
                "json"]
        assert main([*argv, "--out", str(first)]) == 0
        plan = json.loads(first.read_text())["plan"]
        assert plan["metrics"] == []
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan))
        assert main(["mttf", "--plan", str(path), "--format", "json", "--out", str(again)]) == 0
        assert again.read_bytes() == first.read_bytes()
        # A plan that names sweep metrics runs the same MTTF and echoes none.
        path.write_text(json.dumps({**plan, "metrics": ["aspl", "rcr_cpu"]}))
        assert main(["mttf", "--plan", str(path), "--format", "json", "--out", str(other)]) == 0
        assert other.read_bytes() == first.read_bytes()

    @pytest.mark.parametrize(
        "command, bad",
        [
            (["sweep", "--failure", "link", "--fer", "0.1,abc"], "'abc'"),
            (["sweep", "--failure", "link", "--fer", "0:x:0.1"], "'x'"),
            (["sweep2d", "--fer-link", "0,abc", "--fer-switch", "0"], "--fer-link: 'abc'"),
            (["classed-sweep", "--sweep-class", "edge-link", "--fer", "0.1",
              "--fixed", "agg-link=abc"], "'abc'"),
            (["classed-sweep", "--sweep-class", "edge-link", "--fer", "0.1",
              "--fixed", "bogus=0.1"], "'bogus'"),
            # Refused before a grid is built: a range with no finite bound,
            # or with more values than a plan may hold, never returned.
            (["sweep", "--failure", "link", "--fer", "nan"], "--fer: 'nan' is not a finite"),
            (["sweep", "--failure", "link", "--fer", "0.1,inf"], "--fer: 'inf' is not a finite"),
            (["sweep", "--failure", "link", "--fer", "0:1:nan"], "--fer: 'nan' is not a finite"),
            (["sweep", "--failure", "link", "--fer", "0:inf:0.1"], "--fer: 'inf' is not a finite"),
            (["sweep", "--failure", "link", "--fer", "0:1:-inf"], "--fer: '-inf' is not a finite"),
            (["sweep", "--failure", "link", "--fer", "0:1:1e-300"],
             "--fer: '0:1:1e-300' makes more than 2**24 values"),
            (["sweep", "--failure", "link", "--fer", "0:0:1e-300"],
             "--fer: '0:0:1e-300' makes more than 2**24 values"),
            (["sweep", "--failure", "link", "--fer", f"0:1:{2**-24!r}"],  # 2**24 + 1 values
             "makes more than 2**24 values"),
            (["sweep2d", "--fer-link", "0:1:1e-12", "--fer-switch", "0"],
             "--fer-link: '0:1:1e-12' makes more than 2**24 values"),
        ],
    )
    def test_malformed_grid_or_ratio_exit_3(self, command, bad, capsys):
        topology = ["--topology", "three-layer", "--na", "3", "--ne", "4", "--pairs", "2"]
        assert main(command[:1] + topology + command[1:] + ["--samples", "2"]) == 3
        assert bad in capsys.readouterr().err

    def test_topology_option_the_kind_does_not_take_exit_3(self, capsys):
        argv = [
            "sweep", "--topology", "fat-tree", "--n", "4", "--l", "3", "--core-core-link",
            "--pairs", "9", "--failure", "link", "--fer", "0.1", "--samples", "2",
        ]
        assert main(argv) == 3
        assert "fat-tree: takes no l" in capsys.readouterr().err

    def test_repeated_metric_exit_3(self, capsys):
        argv = [
            "sweep", "--topology", "fat-tree", "--n", "4", "--failure", "link",
            "--fer", "0.1", "--metrics", "asr,asr", "--samples", "2",
        ]
        assert main(argv) == 3
        assert "repeat" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, option",
        [
            ("sweep", ["--topology", "bcube"]),
            ("sweep", ["--n", "4"]),
            ("sweep", ["--l", "0"]),
            ("sweep", ["--na", "2"]),
            ("sweep", ["--ne", "2"]),
            ("sweep", ["--pairs", "2"]),
            ("sweep", ["--core-core-link"]),
            ("sweep", ["--gateway-policy", "max"]),
            ("sweep", ["--seed", "0"]),
            ("sweep", ["--samples", "7"]),
            ("sweep", ["--metrics", "sc"]),
            ("sweep", ["--failure", "switch"]),
            ("sweep", ["--fer", "0.5,0.9"]),
            ("mttf", ["--failure", "link"]),
            ("mttf", ["--seed", "3"]),
            ("sweep2d", ["--fer-link", "0"]),
            ("sweep2d", ["--fer-switch", "0"]),
            ("sweep2d", ["--metrics", "asr"]),
            ("classed-sweep", ["--sweep-class", "edge-link"]),
            ("classed-sweep", ["--fixed", "agg-link=0.25"]),
            ("classed-sweep", ["--fer", "0.1"]),
        ],
        ids=lambda v: v if isinstance(v, str) else v[0],
    )
    def test_plan_option_next_to_plan_exit_3(self, command, option, tmp_path, capsys):
        plan = ExperimentPlan(params=SMALL, failures=(FailureType.LINK,), fer_grids=((0.0,),))
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan_to_doc(plan)))
        assert main([command, "--plan", str(path), *option]) == 3
        assert f"{option[0]} cannot be given with --plan" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["mttf", "sweep", "sweep2d", "classed-sweep"])
    def test_every_plan_command_option_is_a_plan_option_or_documented(self, command):
        # An option missing from _PLAN_OPTIONS would be dropped silently
        # next to --plan instead of refused.
        documented = {"-h", "--help", "--plan", "--out", "--format", "--gnuplot", "--dataset",
                      "--placement"}
        (commands,) = (
            a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        )
        stray = [
            action.option_strings
            for action in commands.choices[command]._actions
            if not set(action.option_strings) <= documented
            and cli._PLAN_OPTIONS.get(action.dest) not in action.option_strings
        ]
        assert stray == []

    def test_unknown_plan_field_exit_3(self, tmp_path, capsys):
        plan = ExperimentPlan(params=SMALL, failures=(FailureType.LINK,), fer_grids=((0.0,),))
        path = tmp_path / "plan.json"
        path.write_text(json.dumps({**plan_to_doc(plan), "sample": 5}))
        assert main(["sweep", "--plan", str(path)]) == 3
        assert "unknown field sample" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, missing",
        [
            (["mttf", *TINY_THREE_LAYER], "--failure"),
            (["mttf", "--failure", "link"], "--topology"),
            (["sweep", *TINY_THREE_LAYER, "--fer", "0.1"], "--failure"),
            (["sweep", *TINY_THREE_LAYER, "--failure", "link"], "--fer"),
            (["sweep2d", *TINY_THREE_LAYER, "--fer-switch", "0"], "--fer-link"),
            (["sweep2d", *TINY_THREE_LAYER, "--fer-link", "0"], "--fer-switch"),
            (["classed-sweep", *TINY_THREE_LAYER, "--fer", "0.1"], "--sweep-class"),
            (["classed-sweep", *TINY_THREE_LAYER, "--sweep-class", "edge-link"], "--fer"),
        ],
        ids=lambda v: v if isinstance(v, str) else v[0],
    )
    def test_missing_plan_option_exit_3(self, argv, missing, capsys):
        assert main(argv) == 3
        assert f"{missing} is required" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["gen"], "--topology is required"),
            (["capacity", "--dataset", "synthetic", "--remove-richest", "cpu"],
             "--topology is required"),
            (["mttf", "--failure", "link"], "--topology is required (or provide --plan)"),
            (["sweep", *TINY_THREE_LAYER, "--fer", "0.1"],
             "--failure is required (or provide --plan)"),
        ],
        ids=lambda v: v if isinstance(v, str) else v[0],
    )
    def test_missing_option_names_plan_only_where_the_command_takes_it(
        self, argv, message, capsys
    ):
        assert main(argv) == 3
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "command, takes_plan",
        [("gen", False), ("capacity", False), ("mttf", True), ("sweep", True)],
        ids=lambda v: v if isinstance(v, str) else "",
    )
    def test_topology_help_names_plan_only_where_the_command_takes_it(
        self, command, takes_plan, capsys
    ):
        assert main([command, "--help"]) == 0
        text = " ".join(capsys.readouterr().out.split())
        assert "topology family (required" in text
        assert ("required unless --plan is given" in text) is takes_plan

    @pytest.mark.parametrize(
        "argv",
        [
            ["mttf", "--failure", "link"],
            ["sweep", "--failure", "link", "--fer", "0,0.3"],
            ["sweep2d", "--fer-link", "0.1", "--fer-switch", "0,0.2"],
            ["classed-sweep", "--sweep-class", "edge-link", "--fer", "0:0.5:0.25"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_plan_document_omitting_samples_and_metrics_takes_the_command_defaults(
        self, argv, tmp_path
    ):
        # The same run as the command without --samples and --metrics.
        first, again = tmp_path / "first.json", tmp_path / "again.json"
        assert main([*argv, *TINY_THREE_LAYER, "--format", "json", "--out", str(first)]) == 0
        plan = json.loads(first.read_text())["plan"]
        del plan["samples"], plan["metrics"]
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan))
        assert main([argv[0], "--plan", str(path), "--format", "json", "--out", str(again)]) == 0
        assert again.read_bytes() == first.read_bytes()

    @pytest.mark.parametrize(
        "argv",
        [
            ["mttf", "--failure", "switch", "--samples", "6"],
            ["sweep", "--failure", "link", "--fer", "0,0.3", "--metrics", "asr,sc,aspl"],
            ["sweep2d", "--fer-link", "0.1", "--fer-switch", "0,0.2"],
            ["classed-sweep", "--sweep-class", "edge-link", "--fixed", "agg-link=0.25",
             "--fer", "0:0.5:0.25"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_plan_echo_reruns_to_the_same_report(self, argv, tmp_path, capsys):
        topology = [*TINY_THREE_LAYER, "--core-core-link", "--gateway-policy", "count=1"]
        first = tmp_path / "first.json"
        options = ["--seed", "5", "--format", "json", "--out"]
        assert main([*argv, *topology, "--samples", "4", *options, str(first)]) == 0
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(json.loads(first.read_text())["plan"]))
        again = tmp_path / "again.json"
        assert main([argv[0], "--plan", str(path), "--format", "json", "--out", str(again)]) == 0
        assert again.read_text() == first.read_text()

    def test_targeted_removal_on_bcube_exit_3(self, capsys):
        argv = [
            "capacity", "--topology", "bcube", "--n", "4", "--l", "1",
            "--dataset", "synthetic", "--placement", "unbalanced", "--remove-richest", "cpu",
        ]
        assert main(argv) == 3
        assert "switch-only cut" in capsys.readouterr().err

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

    @pytest.mark.parametrize(
        "argv, name, echo",
        [
            (
                ["sweep", "--failure", "switch", "--fer", "0,0.5"],
                "survival_sweep",
                (["switch"], [[0.0, 0.5]], ["asr", "sc"]),
            ),
            (
                ["sweep2d", "--fer-link", "0.1", "--fer-switch", "0,0.2"],
                "survival_sweep_2d",
                (["link", "switch"], [[0.1], [0.0, 0.2]], ["asr"]),
            ),
            (
                ["classed-sweep", "--sweep-class", "edge-link", "--fer", "0.3"],
                "classed_sweep",
                (["link"], [[0.3]], ["asr"]),
            ),
        ],
    )
    def test_sweep_commands_call_the_module_attribute(self, argv, name, echo, monkeypatch, capsys):
        # The parser is built once per process and binds no sweep function:
        # the sweep body reads the module attribute as it runs, so a wrapper
        # set on it after the parser was built is the one called.
        topo = ["--topology", "three-layer", "--na", "2", "--ne", "2", "--pairs", "1"]
        assert main([*argv, *topo, "--samples", "2"]) == 0
        capsys.readouterr()
        calls = []
        monkeypatch.setattr(cli, name, lambda plan, **kw: calls.append(plan) or [])
        assert main([*argv, *topo, "--format", "json"]) == 0
        (plan,) = calls
        doc = json.loads(capsys.readouterr().out)["plan"]
        assert doc == plan_to_doc(plan)
        assert (doc["failures"], doc["fer_grids"], doc["metrics"]) == echo

    def test_one_parser_serves_every_call(self, capsys):
        assert cli.build_parser() is cli.build_parser()
        cli.build_parser.cache_clear()
        for argv in (["reconcile-table1"], ["gen", *TINY_THREE_LAYER], ["--version"]):
            assert main(argv) == 0
        info = cli.build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 2)  # built by the first call alone

    def test_classed_sweeps_echo_only_their_own_ratios(self, capsys):
        ratios = []
        for fixed in (["--fixed", "agg-link=0.25"], ["--fixed", "core-link=0.5"], []):
            argv = [
                "classed-sweep", *TINY_THREE_LAYER, "--sweep-class", "edge-link",
                *fixed, "--fer", "0.1", "--samples", "2", "--format", "json",
            ]
            assert main(argv) == 0
            ratios.append(json.loads(capsys.readouterr().out)["plan"]["class_ratios"])
        assert ratios == [
            {"agg-link": 0.25, "edge-link": None},
            {"core-link": 0.5, "edge-link": None},
            {"edge-link": None},
        ]

    def test_a_usage_error_leaves_the_next_call_unchanged(self, capsys):
        argv = ["sweep", *TINY_THREE_LAYER, "--failure", "link", "--fer", "0,0.5", "--samples", "3"]
        assert main(argv) == 0
        before = capsys.readouterr().out
        assert main([*argv, "--metrics"]) == 2  # --metrics without its value
        capsys.readouterr()
        assert main(argv) == 0
        assert capsys.readouterr().out == before

    def test_plan_option_is_refused_after_a_plain_run(self, tmp_path, capsys):
        argv = ["mttf", *TINY_THREE_LAYER, "--failure", "link", "--samples", "4", "--seed", "3"]
        assert main(argv) == 0
        plan = ExperimentPlan(params=SMALL, failures=(FailureType.LINK,))
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan_to_doc(plan)))
        capsys.readouterr()
        assert main(["mttf", "--plan", str(path), "--seed", "3"]) == 3
        assert "--seed cannot be given with --plan" in capsys.readouterr().err

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

    @pytest.mark.parametrize(
        "resource, metric", [("cpu", "rcr_cpu"), ("memory", "rcr_mem")]
    )
    def test_capacity_names_its_metric_as_the_sweeps_do(self, resource, metric, capsys):
        code = main(
            [
                "capacity", "--topology", "three-layer",
                "--na", "12", "--ne", "48", "--pairs", "6",
                "--dataset", "synthetic", "--placement", "unbalanced",
                "--remove-richest", resource, "--format", "json",
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        doc = json.loads(captured.out)
        assert doc["series"][0]["metric"] == metric
        assert doc["plan"]["metrics"] == [metric]
        assert captured.err.startswith(f"{metric}=")

    def test_capacity_has_no_samples_option(self, capsys):
        argv = [*CAPACITY_3K, "--placement", "balanced", "--remove-richest", "cpu"]
        assert main([*argv, "--samples", "9"]) == 2
        assert "unrecognized arguments: --samples 9" in capsys.readouterr().err

    def test_capacity_has_no_seed_option(self, capsys):
        argv = [*CAPACITY_3K, "--placement", "balanced", "--remove-richest", "cpu"]
        assert main([*argv, "--seed", "9"]) == 2
        assert "unrecognized arguments: --seed 9" in capsys.readouterr().err
        assert main([*argv, "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["seed"] == 0 and "master_seed" not in doc["plan"]

    def test_capacity_echo_is_no_runnable_plan(self, tmp_path, capsys):
        argv = [
            "capacity", "--topology", "fat-tree", "--n", "4", "--dataset", "synthetic",
            "--remove-richest", "cpu", "--format", "json",
        ]
        assert main(argv) == 0
        echo = json.loads(capsys.readouterr().out)["plan"]
        assert echo == {
            "params": {"kind": "fat-tree", "gateway_policy": "max", "n": 4},
            "dataset": "synthetic",
            "placement": "balanced",
            "remove_richest": "cpu",
            "metrics": ["rcr_cpu"],
        }
        path = tmp_path / "echo.json"
        path.write_text(json.dumps(echo))
        for command in ("mttf", "sweep"):
            assert main([command, "--plan", str(path)]) == 3
            assert "bad plan document" in capsys.readouterr().err

    def test_capacity_without_dataset_exit_3(self, capsys):
        argv = ["capacity", "--topology", "fat-tree", "--n", "4", "--remove-richest", "cpu"]
        assert main(argv) == 3
        assert "--dataset is required" in capsys.readouterr().err

    def test_capacity_placement_defaults_to_balanced(self, capsys):
        assert main([*CAPACITY_3K, "--remove-richest", "cpu", "--format", "json"]) == 0
        point = json.loads(capsys.readouterr().out)["series"][0]["points"][0]
        assert point["placement"] == "balanced"
        assert point["mean"] == pytest.approx(5 / 6, rel=1e-12)

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

    @pytest.mark.parametrize("text", ["[]", '{"configs": 5}', "{}"])
    def test_classify_input_not_a_configs_object_exit_3(self, text, tmp_path, capsys):
        src = tmp_path / "measured.json"
        src.write_text(text)
        assert main(["classify", "--input", str(src)]) == 3
        assert "'configs' is a list" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, text, message",
        [
            ("interfaces", "3.9", "configs[1].interfaces must be an integer >= 1, got 3.9"),
            ("interfaces", '"3"', 'configs[1].interfaces must be an integer >= 1, got "3"'),
            ("interfaces", "true", "configs[1].interfaces must be an integer >= 1, got true"),
            ("interfaces", "0", "configs[1].interfaces must be an integer >= 1, got 0"),
            ("asr", '"0.95"', 'configs[1].series.link.asr must be a finite number, got "0.95"'),
            ("asr", "true", "configs[1].series.link.asr must be a finite number, got true"),
            ("asr", "NaN", "configs[1].series.link.asr must be a finite number, got NaN"),
            ("asr", "null", "configs[1].series.link.asr must be a finite number, got null"),
            ("aspl", '"5.9"', 'series.link.aspl must be a finite number or null, got "5.9"'),
            ("aspl", "-Infinity", "series.link.aspl must be a finite number or null, got -Infinity"),
        ],
    )
    def test_classify_mistyped_field_exit_3(self, field, text, message, tmp_path, capsys):
        # int(3.9) would pair the entry with another family's reference,
        # and float() would read a string, a bool or NaN as a measurement.
        src = tmp_path / "measured.json"
        src.write_text(classify_text(**{field: text}))
        assert main(["classify", "--input", str(src)]) == 3
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("aspl", ["4", "5.5"])
    def test_classify_takes_integral_values(self, aspl, tmp_path):
        src = tmp_path / "measured.json"
        src.write_text(classify_text(interfaces="2", asr="1", aspl=aspl))
        out = tmp_path / "grades.json"
        assert main(["classify", "--input", str(src), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["grades"]

    def test_classify_reads_a_null_aspl_as_not_measured(self, tmp_path, capsys):
        # The type check admits null; grading then finds the value missing.
        src = tmp_path / "measured.json"
        src.write_text(classify_text(aspl="null"))
        assert main(["classify", "--input", str(src)]) == 3
        assert "error: missing aspl[link] for config[1]\n" == capsys.readouterr().err

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

    @pytest.mark.parametrize(
        "argv",
        [
            ["mttf", "--topology", "bcube", "--n", "2", "--l", "1", "--failure", "link"],
            CAPACITY_3K + ["--remove-richest", "cpu"],
        ],
        ids=["mttf", "capacity"],
    )
    def test_gnuplot_is_a_sweep_option(self, argv, tmp_path, capsys):
        # Other reports have no FER column to plot against.
        assert main(argv + ["--out", str(tmp_path / "r.csv"), "--gnuplot"]) == 2
        assert "unrecognized arguments: --gnuplot" in capsys.readouterr().err

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
        assert main(["sweep", "--plan", str(plan_path), "--format", "json", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["seed"] == 17
        assert doc["plan"]["samples"] == 4


def test_cli_import_leaves_scipy_integrate_out():
    # Only the quadrature oracle under tests/ integrates; every run would
    # otherwise pay for loading scipy.integrate at start-up.
    code = "import sys, dcn_robust.cli; print('scipy.integrate' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


def test_sampled_aspl_and_mttf_leave_numpy_ma_out(tmp_path):
    # A plain np.unique(x) imports numpy.ma on first use, which costs
    # 10-25 ms once per process inside the first operation that calls it.
    runs = [
        ["sweep", "--topology", "fat-tree", "--n", "26", "--failure", "link", "--fer", "0.05",
         "--metrics", "aspl", "--samples", "1", "--format", "json",
         "--out", str(tmp_path / "aspl.json")],
        ["mttf", "--topology", "fat-tree", "--n", "4", "--failure", "link", "--samples", "20",
         "--out", str(tmp_path / "mttf.csv")],
    ]
    code = (
        "import sys\n"
        "from dcn_robust.cli import main\n"
        f"assert all(main(argv) == 0 for argv in {runs!r})\n"
        "print('numpy.ma' in sys.modules)"
    )
    env = {
        **os.environ,
        "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1]),
        "DCN_ROBUST_THREADS": "1",  # every sample in this interpreter
    }
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip().splitlines()[-1] == "False"
    (point,) = json.loads((tmp_path / "aspl.json").read_text())["series"][0]["points"]
    assert point["exact"] is False


def test_cli_import_leaves_scipy_out():
    # The package runs on numpy alone; scipy serves the tests' oracles.
    code = "import sys, dcn_robust.cli; print('scipy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize(
    "argv",
    [
        ["mttf", "--topology", "fat-tree", "--n", "4", "--failure", "link", "--samples", "20"],
        ["mttf", "--topology", "dcell", "--n", "4", "--l", "1", "--failure", "switch",
         "--samples", "20"],
        ["sweep", *TINY_THREE_LAYER, "--failure", "switch", "--fer", "0,0.5",
         "--metrics", "asr,sc,aspl,rcr_cpu", "--dataset", "google", "--samples", "3"],
        ["capacity", "--topology", "fat-tree", "--n", "4", "--dataset", "synthetic",
         "--remove-richest", "cpu"],
        ["classify", "--input", "{measured}"],
    ],
    ids=lambda argv: "-".join(argv[:1] + [a for a in argv if a in ("link", "switch")]),
)
def test_cli_runs_with_scipy_blocked(argv, tmp_path):
    # None in sys.modules makes every import of scipy, or of any of its
    # submodules, raise ImportError.
    measured = tmp_path / "measured.json"
    measured.write_text(classify_text())
    argv = [a.format(measured=measured) for a in argv]
    code = (
        "import sys; sys.modules['scipy'] = None\n"
        "from dcn_robust.cli import main\n"
        f"sys.exit(main({argv!r}))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr


# The sha256 of every output of each command at a tiny size, recorded by
# running the code before the report emitters read their columns from
# CSV_COLUMNS. "stdout" is the standard output less its "wrote <path>"
# lines; other keys name files the command writes. Change a digest only
# with a change that means to alter that output.
GOLDEN_RUNS = {
    "gen": (
        ["gen", "--topology", "bcube", "--n", "2", "--l", "1", "--out", "topo.json"],
        {
            "stdout": "1ce3391cd10eb98ac5d69b12d7ecb9a744374a48c5cf0d49092628daa8e25c55",
            "topo.json": "d0fcfc16a62d73eff556980581543ce0c176496f92a6820d55f9c1fb50251149",
        },
    ),
    "mttf-csv": (
        ["mttf", "--topology", "fat-tree", "--n", "4", "--failure", "link", "--samples", "20"],
        {"stdout": "a41014dd2b71207db0dbf767d6791e924a59151ace4c74caf14eeb6a7aab417f"},
    ),
    "mttf-json": (
        ["mttf", "--topology", "dcell", "--n", "3", "--l", "1", "--failure", "switch",
         "--samples", "20", "--seed", "7", "--format", "json"],
        {"stdout": "3acc9279cb2cb8a2639cee495da3947f1df62cac3457d35d4f9f44cd1a91e4ef"},
    ),
    "sweep-gnuplot": (
        ["sweep", "--topology", "fat-tree", "--n", "4", "--failure", "link", "--fer", "0,0.2",
         "--metrics", "asr,sc,aspl", "--samples", "8", "--out", "sweep.csv", "--gnuplot"],
        {
            "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "sweep.csv": "8ab3e780a7801dec06d380256ca7899469da0b927db8f917d7570e91c35e7729",
            "sweep.gp": "8edef8ab8f02045b7cd90f3c2400bcf5253b09d027f0d70b474fb0cd31525900",
        },
    ),
    "sweep-json": (
        ["sweep", *TINY_THREE_LAYER, "--failure", "switch", "--fer", "0,0.5",
         "--metrics", "asr,sc,aspl,rcr_cpu", "--dataset", "google", "--samples", "3",
         "--format", "json"],
        {"stdout": "2e4a438e9fddbef5314520d0d74387de1255ca85330199fc4327c983179eed92"},
    ),
    "sweep2d-gnuplot": (
        ["sweep2d", "--topology", "bcube", "--n", "2", "--l", "1", "--fer-link", "0,0.25",
         "--fer-switch", "0,0.5", "--samples", "4", "--out", "grid.csv", "--gnuplot"],
        {
            "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "grid.csv": "828bba9ad057604bbc8bc452831058e2aef2f6161911de74acdebd440b980684",
            "grid.gp": "61b68ae07a4410fe2b24f2fbce161871155e57489cd0385d4a4cefb0fc4e61e1",
        },
    ),
    "classed-sweep-json": (
        ["classed-sweep", "--topology", "three-layer", "--na", "3", "--ne", "4", "--pairs", "2",
         "--sweep-class", "edge-link", "--fixed", "agg-link=0.25", "--fer", "0:0.5:0.25",
         "--samples", "6", "--seed", "3", "--format", "json"],
        {"stdout": "72801cfbce4a1ae1d333825ccde602b0366526a4424c2b84d66915947441a11b"},
    ),
    "capacity-csv": (
        ["capacity", "--topology", "fat-tree", "--n", "4", "--dataset", "synthetic",
         "--remove-richest", "cpu"],
        {"stdout": "175973103f86188d64112c35fa5371aaecbe5118604a5a30a738f190e457c3d4"},
    ),
    "capacity-json": (
        ["capacity", *TINY_THREE_LAYER, "--dataset", "synthetic", "--placement", "unbalanced",
         "--remove-richest", "memory", "--format", "json"],
        {"stdout": "c2e14320b9c590a5b6e1b33b3402f9d0a77811ed10d466c41aa32a138ca0a200"},
    ),
    "classify-stdout": (
        ["classify", "--input", "measured.json"],
        {"stdout": "15e11768b00c6b3955817aeac7ca48c41addbd3ea42828c2f93e93eb38c5e61e"},
    ),
    "classify-out": (
        ["classify", "--input", "measured.json", "--out", "grades.json"],
        {
            "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "grades.json": "15e11768b00c6b3955817aeac7ca48c41addbd3ea42828c2f93e93eb38c5e61e",
        },
    ),
    "reconcile-table1": (
        ["reconcile-table1"],
        {"stdout": "1e3fa040e180b39c1293358b6ef9f79798c1c9e38e688176e52b9dcbf71dfed8"},
    ),
}


@pytest.mark.parametrize("name", list(GOLDEN_RUNS))
def test_cli_outputs_keep_their_bytes(name, tmp_path, monkeypatch, capsys):
    argv, digests = GOLDEN_RUNS[name]
    monkeypatch.setenv("DCN_ROBUST_THREADS", "1")
    monkeypatch.chdir(tmp_path)  # relative --out paths keep tmp_path out of the outputs
    Path("measured.json").write_text(classify_text())
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines(keepends=True)
    outputs = {
        "stdout": "".join(line for line in lines if not line.startswith("wrote ")).encode(),
        **{key: Path(key).read_bytes() for key in digests if key != "stdout"},
    }
    assert {key: hashlib.sha256(data).hexdigest() for key, data in outputs.items()} == digests
