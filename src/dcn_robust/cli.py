"""Command-line front end.

Exit codes: 0 success, 2 usage error, 3 configuration error,
4 reconciliation failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import __version__
from .analytic import FailureType, OutOfScopeError
from .capacity import (
    ConfigurationError,
    Placement,
    Resource,
    assign_capacities,
    builtin_dataset,
    load_dataset,
    remove_richest_module,
)
from .classify import ClassifierInputError, MeasuredConfig, classify
from .reachability import partition, remaining_capacity_ratio
from .reconcile import reconcile_reference_catalog
from .report import Report, gnuplot_script, reliability_rows, to_csv_text, to_json_text
from .simulation import (
    DEFAULT_NMTTF_SAMPLES,
    DEFAULT_SWEEP_SAMPLES,
    ElementClass,
    ExperimentPlan,
    MetricSample,
    UnsupportedPlanError,
    classed_sweep,
    plan_from_doc,
    plan_to_doc,
    simulate_nmttf,
    survival_sweep,
    survival_sweep_2d,
)
from .topology import (
    GatewayPolicy,
    TopologyKind,
    TopologyParameterError,
    TopologyParams,
    TopologyParseError,
    build_topology,
    serialize_topology,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CONFIG = 3
EXIT_RECONCILE = 4

_CONFIG_ERRORS = (
    ConfigurationError,
    UnsupportedPlanError,
    TopologyParameterError,
    TopologyParseError,
    ClassifierInputError,
    OutOfScopeError,
    OSError,
)


def _add_common(sub: argparse.ArgumentParser, samples_default: int) -> None:
    sub.add_argument("--seed", type=int, default=0, help="master RNG seed")
    sub.add_argument("--samples", type=int, default=samples_default)
    sub.add_argument("--out", type=Path, help="write the report here instead of stdout")
    sub.add_argument("--format", choices=("csv", "json"), default="csv")
    sub.add_argument(
        "--gnuplot",
        action="store_true",
        help="also emit a gnuplot script next to a CSV --out",
    )


def _add_topology(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--topology",
        choices=[k.value for k in TopologyKind],
        help="topology family (required unless --plan is given)",
    )
    sub.add_argument("--n", type=int, help="switch port count")
    sub.add_argument("--l", type=int, help="server interface level (bcube/dcell)")
    sub.add_argument("--na", type=int, help="three-layer: edge switches per aggregation pair")
    sub.add_argument("--ne", type=int, help="three-layer: server ports per edge switch")
    sub.add_argument("--pairs", type=int, help="three-layer: aggregation pair count")
    sub.add_argument(
        "--core-core-link",
        action="store_true",
        help="three-layer: include the direct core-core link",
    )
    sub.add_argument("--gateway-policy", default="max", help="max, min or count=g")


def _params_from_args(args: argparse.Namespace) -> TopologyParams:
    if args.topology is None:
        raise UnsupportedPlanError("--topology is required (or provide --plan)")
    kind = TopologyKind(args.topology)
    policy = GatewayPolicy.parse(args.gateway_policy)
    if kind is TopologyKind.THREE_LAYER:
        return TopologyParams(
            kind=kind,
            n_a=args.na,
            n_e=args.ne,
            pairs=args.pairs,
            include_core_core_link=args.core_core_link,
            gateway_policy=policy,
        )
    return TopologyParams(kind=kind, n=args.n, l=args.l, gateway_policy=policy)


def _parse_grid(text: str) -> tuple[float, ...]:
    """start:stop:step (inclusive of both ends within 1e-9), or a comma list."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise UnsupportedPlanError(f"--fer: expected start:stop:step, got {text!r}")
        start, stop, step = (float(p) for p in parts)
        if step <= 0:
            raise UnsupportedPlanError("--fer: step must be positive")
        values = []
        k = 0
        while True:
            value = round(start + k * step, 12)
            if value > stop + 1e-9:
                break
            values.append(value)
            k += 1
        return tuple(values)
    return tuple(float(p) for p in text.split(","))


def _load_capacity(args: argparse.Namespace, params: TopologyParams):
    if getattr(args, "dataset", None) is None:
        return None
    name = args.dataset
    if name in ("google", "synthetic"):
        classes = builtin_dataset(name)
    else:
        classes = load_dataset(Path(name).read_text(encoding="utf-8"), origin=name)
    topo = build_topology(params)
    return assign_capacities(topo, classes, getattr(args, "placement", "balanced"))


def _emit(args: argparse.Namespace, report: Report) -> None:
    text = to_csv_text(report) if args.format == "csv" else to_json_text(report)
    if args.out is None:
        sys.stdout.write(text)
        return
    args.out.write_text(text, encoding="utf-8")
    print(f"wrote {args.out}")
    if args.format == "csv" and getattr(args, "gnuplot", False):
        script = args.out.with_suffix(".gp")
        script.write_text(gnuplot_script(args.out.name, report), encoding="utf-8")
        print(f"wrote {script}")


def _report(plan: ExperimentPlan, rows, notes=()) -> Report:
    return Report(
        plan=plan_to_doc(plan),
        seed=plan.master_seed,
        rows=tuple(rows),
        notes=tuple(notes),
    )


# --- subcommand bodies -------------------------------------------------------


def _cmd_gen(args: argparse.Namespace) -> int:
    params = _params_from_args(args)
    topo = build_topology(params)
    print(f"servers={topo.n_servers} switches={topo.n_switches} links={topo.n_links}")
    if args.out is not None:
        args.out.write_text(serialize_topology(topo), encoding="utf-8")
        print(f"wrote {args.out}")
    return EXIT_OK


def _plan_from_args(
    args: argparse.Namespace,
    failures: tuple[FailureType, ...],
    grids: tuple[tuple[float, ...], ...],
    metrics: tuple[str, ...],
    class_ratios=(),
) -> ExperimentPlan:
    if getattr(args, "plan", None) is not None:
        doc = json.loads(Path(args.plan).read_text(encoding="utf-8"))
        return plan_from_doc(doc)
    return ExperimentPlan(
        params=_params_from_args(args),
        failures=failures,
        fer_grids=grids,
        samples=args.samples,
        master_seed=args.seed,
        metrics=metrics,
        class_ratios=class_ratios,
    )


def _cmd_mttf(args: argparse.Namespace) -> int:
    plan = _plan_from_args(args, (FailureType(args.failure),), (), ("asr",))
    result = simulate_nmttf(plan)
    rows = reliability_rows(result)
    notes = (result.note,) if result.note else ()
    _emit(args, _report(plan, rows, notes))
    theo = "n/a" if result.nmttf_theoretical is None else f"{result.nmttf_theoretical:.6g}"
    re_text = "n/a" if result.relative_error is None else f"{result.relative_error:.4f}"
    ci = "n/a" if result.ci95_half_width is None else f"{result.ci95_half_width:.2g}"
    print(
        f"nmttf_sim={result.nmttf_sim:.6g} ci95={ci} "
        f"critical_fer={result.critical_fer:.6g} nmttf_theo={theo} re={re_text}",
        file=sys.stderr,
    )
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> int:
    metrics = tuple(args.metrics.split(","))
    plan = _plan_from_args(
        args, (FailureType(args.failure),), (_parse_grid(args.fer),), metrics
    )
    assignment = _load_capacity(args, plan.params)
    rows = survival_sweep(plan, capacity_assignment=assignment)
    _emit(args, _report(plan, rows))
    return EXIT_OK


def _cmd_sweep_2d(args: argparse.Namespace) -> int:
    metrics = tuple(args.metrics.split(","))
    plan = _plan_from_args(
        args,
        (FailureType.LINK, FailureType.SWITCH),
        (_parse_grid(args.fer_link), _parse_grid(args.fer_switch)),
        metrics,
    )
    assignment = _load_capacity(args, plan.params)
    rows = survival_sweep_2d(plan, capacity_assignment=assignment)
    _emit(args, _report(plan, rows))
    return EXIT_OK


def _cmd_classed_sweep(args: argparse.Namespace) -> int:
    metrics = tuple(args.metrics.split(","))
    swept = ElementClass(args.sweep_class)
    ratios: dict[ElementClass, float | None] = {swept: None}
    for spec in args.fixed or ():
        if "=" not in spec:
            raise UnsupportedPlanError(f"--fixed expects CLASS=RATIO, got {spec!r}")
        name, _, value = spec.partition("=")
        ratios[ElementClass(name)] = float(value)
    plan = _plan_from_args(
        args, (swept.failure,), (_parse_grid(args.fer),), metrics, ratios
    )
    assignment = _load_capacity(args, plan.params)
    rows = classed_sweep(plan, capacity_assignment=assignment)
    _emit(args, _report(plan, rows))
    return EXIT_OK


def _cmd_capacity(args: argparse.Namespace) -> int:
    params = _params_from_args(args)
    assignment = _load_capacity(args, params)
    if assignment is None:
        raise ConfigurationError("--dataset is required")
    resource = Resource.of(args.remove_richest)
    topo = assignment.topology
    degraded = remove_richest_module(topo, assignment, resource)
    part = partition(degraded)
    rcr = remaining_capacity_ratio(part, assignment, resource.value)
    plan = ExperimentPlan(
        params=params,
        failures=(FailureType.SWITCH,),
        samples=1,
        master_seed=args.seed,
        metrics=("asr",),
    )
    row = MetricSample(
        topology=params.kind.value,
        params=params.args_text(),
        failure_type="targeted-module",
        metric=f"rcr_{resource.value}",
        mean=rcr,
        ci95_half_width=None,
        samples=1,
        extra={
            "placement": assignment.placement.value,
            "dataset": args.dataset,
            "removed_switches": sorted(int(s) for s in degraded.removed_switches),
        },
    )
    _emit(args, _report(plan, [row]))
    print(
        f"rcr_{resource.value}={rcr!r} placement={assignment.placement.value}",
        file=sys.stderr,
    )
    return EXIT_OK


def _cmd_classify(args: argparse.Namespace) -> int:
    doc = json.loads(Path(args.input).read_text(encoding="utf-8"))
    configs = []
    for pos, entry in enumerate(doc.get("configs", ())):
        try:
            series = entry["series"]
            configs.append(
                MeasuredConfig(
                    family=TopologyKind(entry["family"]),
                    label=str(entry.get("label", f"config[{pos}]")),
                    interfaces=int(entry["interfaces"]),
                    asr={
                        FailureType(k): float(v["asr"])
                        for k, v in series.items()
                        if "asr" in v
                    },
                    aspl={
                        FailureType(k): (None if v.get("aspl") is None else float(v["aspl"]))
                        for k, v in series.items()
                    },
                )
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ClassifierInputError(f"configs[{pos}]: {exc}") from exc
    records = classify(configs)
    out_doc = {
        "grades": [
            {
                "family": r.family.value,
                "failure": r.failure.value,
                "criterion": r.criterion.value,
                "grade": r.grade.value,
            }
            for r in records
        ]
    }
    text = json.dumps(out_doc, sort_keys=True, indent=2) + "\n"
    if args.out is not None:
        args.out.write_text(text, encoding="utf-8")
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_reconcile(args: argparse.Namespace) -> int:
    failed = False
    for result in reconcile_reference_catalog():
        row = result.row
        line = (
            f"{result.status:4s} {row.size:3s} {row.name:12s} "
            f"links={result.observed[0]} switches={result.observed[1]} "
            f"servers={result.observed[2]}"
        )
        if result.detail:
            line += f"  ({result.detail})"
        print(line)
        failed = failed or result.status == "FAIL"
    return EXIT_RECONCILE if failed else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dcn-robust",
        description="Generate data-center topologies and analyze their "
        "robustness to random element failures.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    gen = commands.add_parser("gen", help="build a topology and print its element counts")
    _add_topology(gen)
    gen.add_argument("--out", type=Path, help="write the topology document here")
    gen.set_defaults(handler=_cmd_gen)

    mttf = commands.add_parser("mttf", help="simulate time to the first disconnection")
    _add_topology(mttf)
    _add_common(mttf, DEFAULT_NMTTF_SAMPLES)
    mttf.add_argument("--failure", choices=("link", "switch"), required=True)
    mttf.add_argument("--plan", type=Path, help="load an experiment plan document")
    mttf.set_defaults(handler=_cmd_mttf)

    sweep = commands.add_parser("sweep", help="sweep survivability metrics over a FER grid")
    _add_topology(sweep)
    _add_common(sweep, DEFAULT_SWEEP_SAMPLES)
    sweep.add_argument("--failure", choices=("link", "switch", "server"), required=True)
    sweep.add_argument("--fer", required=True, help="grid: start:stop:step or v1,v2,...")
    sweep.add_argument("--metrics", default="asr,sc")
    sweep.add_argument("--dataset", help="google, synthetic or a CSV file (for rcr metrics)")
    sweep.add_argument("--placement", choices=[p.value for p in Placement], default="balanced")
    sweep.add_argument("--plan", type=Path, help="load an experiment plan document")
    sweep.set_defaults(handler=_cmd_sweep)

    sweep2d = commands.add_parser("sweep2d", help="sweep link and switch failures jointly")
    _add_topology(sweep2d)
    _add_common(sweep2d, DEFAULT_SWEEP_SAMPLES)
    sweep2d.add_argument("--fer-link", required=True)
    sweep2d.add_argument("--fer-switch", required=True)
    sweep2d.add_argument("--metrics", default="asr")
    sweep2d.add_argument("--dataset")
    sweep2d.add_argument("--placement", choices=[p.value for p in Placement], default="balanced")
    sweep2d.add_argument("--plan", type=Path)
    sweep2d.set_defaults(handler=_cmd_sweep_2d)

    classed = commands.add_parser(
        "classed-sweep", help="three-layer sweep with per-class failure ratios"
    )
    _add_topology(classed)
    _add_common(classed, DEFAULT_SWEEP_SAMPLES)
    classed.add_argument(
        "--sweep-class", required=True, choices=[c.value for c in ElementClass]
    )
    classed.add_argument(
        "--fixed",
        action="append",
        metavar="CLASS=RATIO",
        help="fixed ratio for another class (repeatable)",
    )
    classed.add_argument("--fer", required=True)
    classed.add_argument("--metrics", default="asr")
    classed.add_argument("--dataset")
    classed.add_argument("--placement", choices=[p.value for p in Placement], default="balanced")
    classed.set_defaults(handler=_cmd_classed_sweep)

    cap = commands.add_parser(
        "capacity", help="targeted removal of the highest-capacity module"
    )
    _add_topology(cap)
    _add_common(cap, 1)
    cap.add_argument("--dataset", required=True)
    cap.add_argument("--placement", choices=[p.value for p in Placement], required=True)
    cap.add_argument("--remove-richest", choices=("cpu", "memory"), required=True)
    cap.set_defaults(handler=_cmd_capacity)

    cls = commands.add_parser("classify", help="grade measured results qualitatively")
    cls.add_argument("--input", type=Path, required=True, help="measured results JSON")
    cls.add_argument("--out", type=Path)
    cls.set_defaults(handler=_cmd_classify)

    rec = commands.add_parser(
        "reconcile-table1", help="check generators against the reference catalog"
    )
    rec.set_defaults(handler=_cmd_reconcile)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except _CONFIG_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
