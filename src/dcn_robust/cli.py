"""Command-line front end.

Exit codes: 0 success, 2 usage error, 3 configuration error,
4 reconciliation failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import replace
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
    _cached_topology,
    classed_sweep,
    plan_from_doc,
    plan_to_doc,
    simulate_nmttf,
    survival_sweep,
    survival_sweep_2d,
)
from .topology import (
    GatewayPolicy,
    Topology,
    TopologyKind,
    TopologyParameterError,
    TopologyParams,
    TopologyParseError,
    _json,
    build_topology,
    params_to_doc,
    serialize_topology,
)

EXIT_OK = 0
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


def _add_output(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--out", type=Path, help="write the report here instead of stdout")
    sub.add_argument("--format", choices=("csv", "json"), default="csv")


def _add_topology(sub: argparse.ArgumentParser, unless: str = "") -> None:
    """The topology options, each stored under its TopologyParams field name.
    They default to None, so a command taking --plan can tell a given one;
    *unless* names what stands in for --topology there."""
    sub.add_argument(
        "--topology",
        choices=[k.value for k in TopologyKind],
        help=f"topology family (required{unless})",
    )
    sub.add_argument("--n", type=int, help="switch port count (fat-tree/bcube/dcell)")
    sub.add_argument("--l", type=int, help="server interface level (bcube/dcell)")
    sub.add_argument(
        "--na", dest="n_a", type=int, help="three-layer: edge switches per aggregation pair"
    )
    sub.add_argument("--ne", dest="n_e", type=int, help="three-layer: server ports per edge switch")
    sub.add_argument("--pairs", type=int, help="three-layer: aggregation pair count")
    sub.add_argument(
        "--core-core-link",
        dest="include_core_core_link",
        action="store_true",
        default=None,
        help="three-layer: include the direct core-core link",
    )
    sub.add_argument("--gateway-policy", help="max (the default), min or count=g")


def _add_dataset(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--dataset", help="google, synthetic or a CSV file (for rcr metrics)")
    sub.add_argument("--placement", choices=[p.value for p in Placement], default="balanced")


# The options an experiment plan is made of, by argparse dest. --plan loads
# a plan document in place of all of them.
_PLAN_OPTIONS = {
    "topology": "--topology", "n": "--n", "l": "--l", "n_a": "--na", "n_e": "--ne",
    "pairs": "--pairs", "include_core_core_link": "--core-core-link",
    "gateway_policy": "--gateway-policy", "seed": "--seed", "samples": "--samples",
    "metrics": "--metrics", "failure": "--failure", "fer": "--fer", "fer_link": "--fer-link",
    "fer_switch": "--fer-switch", "sweep_class": "--sweep-class", "fixed": "--fixed",
}


def _add_plan(sub: argparse.ArgumentParser, grid, samples: int, metrics: tuple[str, ...]) -> None:
    """The options shared by every command that runs an experiment plan.
    *grid* reads the command's failure types, grids and class ratios from
    the arguments. Plan options default to None, so that a given one is
    refused next to --plan; *samples* and *metrics* are their defaults, and a document's."""
    _add_topology(sub, " unless --plan is given")
    sub.add_argument("--seed", type=int, help="master RNG seed (default 0)")
    sub.add_argument("--samples", type=int, help=f"samples per point (default {samples})")
    sub.add_argument(
        "--plan", type=Path, help="load an experiment plan document in place of the plan options"
    )
    _add_output(sub)
    sub.set_defaults(grid=grid, default_samples=samples, default_metrics=metrics)


def _add_sweep(commands, name: str, help: str, grid, metrics: str = "asr"):
    """A sweep subcommand, run by :func:`_cmd_sweep`."""
    sub = commands.add_parser(name, help=help)
    _add_plan(sub, grid, DEFAULT_SWEEP_SAMPLES, tuple(metrics.split(",")))
    sub.add_argument("--metrics", help=f"comma-separated metric names (default {metrics})")
    sub.add_argument(
        "--gnuplot",
        action="store_true",
        help="also emit a gnuplot script next to a CSV --out",
    )
    _add_dataset(sub)
    sub.set_defaults(handler=_cmd_sweep)
    return sub


def _required(args: argparse.Namespace, dest: str):
    value = getattr(args, dest)
    if value is None:
        alternative = " (or provide --plan)" if hasattr(args, "plan") else ""
        raise UnsupportedPlanError(f"{_PLAN_OPTIONS[dest]} is required{alternative}")
    return value


def _params_from_args(args: argparse.Namespace) -> TopologyParams:
    policy = args.gateway_policy
    return TopologyParams(
        kind=TopologyKind(_required(args, "topology")),
        n=args.n,
        l=args.l,
        n_a=args.n_a,
        n_e=args.n_e,
        pairs=args.pairs,
        include_core_core_link=bool(args.include_core_core_link),
        gateway_policy=GatewayPolicy.parse("max" if policy is None else policy),
    )


def _parse_float(text: str, option: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise UnsupportedPlanError(f"{option}: {text!r} is not a number") from None
    if not math.isfinite(value):
        raise UnsupportedPlanError(f"{option}: {text!r} is not a finite number")
    return value


def _parse_grid(text: str, option: str = "--fer") -> tuple[float, ...]:
    """start:stop:step (inclusive of both ends within 1e-9), or a comma list.
    A range is refused before it is built if it makes more than the 2**24
    values a plan may hold."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise UnsupportedPlanError(f"{option}: expected start:stop:step, got {text!r}")
        start, stop, step = (_parse_float(p, option) for p in parts)
        if step <= 0:
            raise UnsupportedPlanError(f"{option}: step must be positive")
        if (stop + 1e-9 - start) / step >= 2**24:
            raise UnsupportedPlanError(f"{option}: {text!r} makes more than 2**24 values")
        values = []
        k = 0
        while True:
            value = round(start + k * step, 12)
            if value > stop + 1e-9:
                break
            values.append(value)
            k += 1
        return tuple(values)
    return tuple(_parse_float(p, option) for p in text.split(","))


def _load_capacity(args: argparse.Namespace, topology: Topology):
    """The --dataset placed over *topology*, or None without --dataset."""
    if args.dataset is None:
        return None
    name = args.dataset
    if name in ("google", "synthetic"):
        classes = builtin_dataset(name)
    else:
        classes = load_dataset(_read_text(Path(name)), origin=name)
    return assign_capacities(topology, classes, args.placement)


def _write(out: Path | None, text: str) -> None:
    """Write *text* to the file *out* and say so, or to stdout without one."""
    if out is None:
        sys.stdout.write(text)
        return
    out.write_text(text, encoding="utf-8")
    print(f"wrote {out}")


def _emit(args: argparse.Namespace, report: Report) -> None:
    _write(args.out, to_csv_text(report) if args.format == "csv" else to_json_text(report))
    # --gnuplot is a sweep option; its script reads the CSV written to --out.
    if args.out is not None and args.format == "csv" and getattr(args, "gnuplot", False):
        _write(args.out.with_suffix(".gp"), gnuplot_script(args.out.name, report))


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
        _write(args.out, serialize_topology(topo))
    return EXIT_OK


def _read_text(path: Path) -> str:
    """The UTF-8 text in *path*; other bytes are a configuration error
    naming the file."""
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigurationError(f"{path}: not UTF-8 text: {exc}") from exc


def _read_json(path: Path):
    """The JSON document in *path*; a file that is not JSON is a
    configuration error naming the file."""
    text = _read_text(path)
    try:
        return json.loads(text)
    except ValueError as exc:
        raise ConfigurationError(f"{path}: not a JSON document: {exc}") from exc


def _plan_from_args(args: argparse.Namespace) -> ExperimentPlan:
    """The plan document given with --plan, or the plan the options make;
    a document's omitted samples and metrics are the command's defaults."""
    if args.plan is not None:
        for dest, flag in _PLAN_OPTIONS.items():
            if getattr(args, dest, None) is not None:
                raise UnsupportedPlanError(f"{flag} cannot be given with --plan, which replaces it")
        doc = _read_json(args.plan)
        if isinstance(doc, dict):
            doc = {"samples": args.default_samples, "metrics": list(args.default_metrics), **doc}
        return plan_from_doc(doc)
    failures, grids, ratios = args.grid(args)
    metrics = getattr(args, "metrics", None)  # mttf has no --metrics
    return ExperimentPlan(
        params=_params_from_args(args),
        failures=failures,
        fer_grids=grids,
        samples=args.default_samples if args.samples is None else args.samples,
        master_seed=0 if args.seed is None else args.seed,
        metrics=args.default_metrics if metrics is None else tuple(metrics.split(",")),
        class_ratios=ratios,
    )


def _cmd_mttf(args: argparse.Namespace) -> int:
    # An MTTF run evaluates no metric, so its plan and echo name none.
    plan = replace(_plan_from_args(args), metrics=())
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


def _failure_only(args: argparse.Namespace):
    return (FailureType(_required(args, "failure")),), (), ()


def _grid(args: argparse.Namespace, dest: str) -> tuple[float, ...]:
    return _parse_grid(_required(args, dest), _PLAN_OPTIONS[dest])


def _one_grid(args: argparse.Namespace):
    return (FailureType(_required(args, "failure")),), (_grid(args, "fer"),), ()


def _link_switch_grids(args: argparse.Namespace):
    grids = (_grid(args, "fer_link"), _grid(args, "fer_switch"))
    return (FailureType.LINK, FailureType.SWITCH), grids, ()


def _class_grid(args: argparse.Namespace):
    swept = ElementClass(_required(args, "sweep_class"))
    ratios: dict[ElementClass, float | None] = {swept: None}
    for spec in args.fixed or ():
        if "=" not in spec:
            raise UnsupportedPlanError(f"--fixed expects CLASS=RATIO, got {spec!r}")
        name, _, value = spec.partition("=")
        if name not in {c.value for c in ElementClass}:
            raise UnsupportedPlanError(f"--fixed: unknown class {name!r} in {spec!r}")
        ratios[ElementClass(name)] = _parse_float(value, "--fixed")
    return (swept.failure,), (_grid(args, "fer"),), ratios


def _cmd_sweep(args: argparse.Namespace) -> int:
    """Body of every sweep command. It reads its sweep function from this
    module's globals as it runs, so a wrapper set later is the one called."""
    sweep = {"sweep": survival_sweep, "sweep2d": survival_sweep_2d,
             "classed-sweep": classed_sweep}[args.command]
    plan = _plan_from_args(args)
    assignment = _load_capacity(args, _cached_topology(plan.params))
    rows = sweep(plan, capacity_assignment=assignment)
    _emit(args, _report(plan, rows))
    return EXIT_OK


def _cmd_capacity(args: argparse.Namespace) -> int:
    params = _params_from_args(args)
    if args.dataset is None:
        raise ConfigurationError("--dataset is required")
    assignment = _load_capacity(args, build_topology(params))
    resource = Resource.of(args.remove_richest)
    degraded = remove_richest_module(assignment, resource)
    part = partition(degraded)
    rcr = remaining_capacity_ratio(part, assignment.capacity_vector(resource))
    metric = "rcr_cpu" if resource is Resource.CPU else "rcr_mem"  # the sweeps' names
    # What ran. It is no experiment plan, so --plan refuses it (exit 3).
    echo = {
        "params": params_to_doc(params),
        "dataset": args.dataset,
        "placement": assignment.placement.value,
        "remove_richest": args.remove_richest,
        "metrics": [metric],
    }
    row = MetricSample(
        topology=params.kind.value,
        params=params.args_text(),
        failure_type="targeted-module",
        metric=metric,
        mean=rcr,
        ci95_half_width=None,
        samples=1,
        extra={
            "placement": assignment.placement.value,
            "dataset": args.dataset,
            "removed_switches": sorted(degraded.removed_switches),
        },
    )
    _emit(args, Report(plan=echo, seed=0, rows=(row,)))
    print(
        f"{metric}={rcr!r} placement={assignment.placement.value}",
        file=sys.stderr,
    )
    return EXIT_OK


def _measured_config(pos: int, entry) -> MeasuredConfig:
    """Entry *pos* of a classify document. interfaces must be a JSON
    integer >= 1, and each series' asr and aspl (aspl may be null) a
    finite JSON number: ``int(3.9)`` would pair the entry with another
    family's reference, and ``float("0.95")`` or ``float(True)`` would
    grade what was never measured."""

    def number(values: dict, failure: str, name: str) -> float | None:
        value = values.get(name)
        if name == "aspl" and value is None:
            return None
        if type(value) not in (int, float) or not math.isfinite(value):
            raise ClassifierInputError(
                f"configs[{pos}].series.{failure}.{name} must be a finite number"
                f"{' or null' * (name == 'aspl')}, got {_json(value)}"
            )
        return float(value)

    try:
        series, interfaces = entry["series"], entry["interfaces"]
        if type(interfaces) is not int or interfaces < 1:
            raise ClassifierInputError(
                f"configs[{pos}].interfaces must be an integer >= 1, got {_json(interfaces)}"
            )
        return MeasuredConfig(
            family=TopologyKind(entry["family"]),
            label=str(entry.get("label", f"config[{pos}]")),
            interfaces=interfaces,
            asr={FailureType(k): number(v, k, "asr") for k, v in series.items() if "asr" in v},
            aspl={FailureType(k): number(v, k, "aspl") for k, v in series.items()},
        )
    except ClassifierInputError:
        raise
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ClassifierInputError(f"configs[{pos}]: {exc}") from exc


def _cmd_classify(args: argparse.Namespace) -> int:
    doc = _read_json(args.input)
    entries = doc.get("configs") if isinstance(doc, dict) else None
    if not isinstance(entries, list):
        raise ClassifierInputError(f"{args.input}: expected an object whose 'configs' is a list")
    configs = [_measured_config(pos, entry) for pos, entry in enumerate(entries)]
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
    _write(args.out, json.dumps(out_doc, sort_keys=True, indent=2) + "\n")
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """One parser per process: it binds no engine function, so calls share it."""
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
    _add_plan(mttf, _failure_only, DEFAULT_NMTTF_SAMPLES, ())
    mttf.add_argument("--failure", choices=("link", "switch"), help="required unless --plan")
    mttf.set_defaults(handler=_cmd_mttf)

    sweep = _add_sweep(
        commands, "sweep", "sweep survivability metrics over a FER grid", _one_grid, "asr,sc"
    )
    sweep.add_argument(
        "--failure", choices=("link", "switch", "server"), help="required unless --plan"
    )
    sweep.add_argument("--fer", help="grid: start:stop:step or v1,v2,...")

    sweep2d = _add_sweep(
        commands, "sweep2d", "sweep link and switch failures jointly", _link_switch_grids
    )
    sweep2d.add_argument("--fer-link")
    sweep2d.add_argument("--fer-switch")

    classed = _add_sweep(
        commands, "classed-sweep", "three-layer sweep with per-class failure ratios", _class_grid
    )
    classed.add_argument("--sweep-class", choices=[c.value for c in ElementClass])
    classed.add_argument(
        "--fixed",
        action="append",
        metavar="CLASS=RATIO",
        help="fixed ratio for another class (repeatable)",
    )
    classed.add_argument("--fer")

    cap = commands.add_parser(
        "capacity", help="targeted removal of the highest-capacity module"
    )
    _add_topology(cap)
    _add_output(cap)
    _add_dataset(cap)
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
