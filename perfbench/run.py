"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root. NAME is one of the workloads in
``perfbench/workloads.py``, or ``all`` to run every workload untraced and
traced and print every metric. The run is a closed loop: it launches one
pass at a time (a fresh interpreter that imports the package, builds the
workload's topologies and runs each operation once through the CLI) and
keeps launching passes until ``--seconds`` have gone by, with at least one
pass. Every operation's report is checked (see ``checks.py``).

With ``--trace 0`` the end-to-end metrics are medians over the passes.
With ``--trace 1`` each round runs an untraced pass and then a traced pass
with the same seed and worker count; the per-layer metrics are medians
over the traced passes, and the traced wall time against the untraced one
is the tracing overhead.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. A readable copy of every metric
and the run's environment go to the lines before it, and the full record
to ``.perfbench/results/``. The exit code is 0 whenever a result is
printed, also when operations failed; without the package source under
``src/`` the run exits with 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from perfbench import checks  # noqa: E402
from perfbench.spans import PER_LAYER_UNITS  # noqa: E402
from perfbench.workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "samples_per_s": "1/s",
    "peak_rss_mb": "MiB",
}

WORK = ROOT / ".perfbench"
REFERENCE = ROOT / "perfbench" / "reference.json"
PASS_TIMEOUT_S = 150
# No new round starts when it could end after this many seconds of the run.
RUN_LIMIT_S = 150


class HarnessError(RuntimeError):
    """The benchmark itself could not run (as opposed to a failed operation)."""


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _cpu_ticks() -> list[int] | None:
    """The machine-wide CPU time counters (user, nice, system, idle, iowait,
    irq, softirq, steal, ...), or None where /proc/stat is unavailable."""
    try:
        with open("/proc/stat", encoding="utf-8") as f:
            return [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None


def _steal_share(before: list[int] | None, after: list[int] | None) -> float | None:
    """Share of CPU time the hypervisor gave to others between two readings."""
    if before is None or after is None or len(before) < 8:
        return None
    delta = [b - a for a, b in zip(before, after)]
    return delta[7] / sum(delta) if sum(delta) else None


def _pass_env() -> dict:
    env = dict(os.environ)
    env["DCN_ROBUST_THREADS"] = str(_nproc())
    return env


def _kill_session(proc: subprocess.Popen) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.communicate()


def _run_child(argv: list[str], timeout: float) -> None:
    """Run a child in its own session; kill the session if it overruns."""
    proc = subprocess.Popen(
        argv,
        cwd=ROOT,
        env=_pass_env(),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        start_new_session=True,
    )
    try:
        _, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        _kill_session(proc)
        raise HarnessError(f"{' '.join(argv[1:3])} ran over {timeout} s")
    except BaseException:  # interrupted or terminated: take the child down too
        _kill_session(proc)
        raise
    if proc.returncode != 0:
        _kill_session(proc)  # pool workers a crashed pass may have left
        tail = err.decode("utf-8", "replace").strip().splitlines()[-3:]
        raise HarnessError(f"{' '.join(argv[1:3])} exited {proc.returncode}: {' | '.join(tail)}")


def _launch_pass(args, workload: str, index: int, traced: bool) -> dict:
    tag = f"pass{index:02d}-{'traced' if traced else 'plain'}"
    outdir = WORK / "work" / workload / tag
    result = outdir / "result.json"
    launch_ns = time.perf_counter_ns()
    argv = [
        sys.executable, "-m", "perfbench.passrun",
        "--workload", workload,
        "--seed", str(args.seed),
        "--launch-ns", str(launch_ns),
        "--outdir", str(outdir),
        "--result", str(result),
    ]
    if traced:
        argv.append("--traced")
    if args.tiny:
        argv.append("--tiny")
    ticks = _cpu_ticks()
    _run_child(argv, PASS_TIMEOUT_S)
    res = json.loads(result.read_text(encoding="utf-8"))
    res["steal_share"] = _steal_share(ticks, _cpu_ticks())
    return res


def _load_reference(seed: int, size: str, workload: str) -> dict[str, str]:
    """The recorded digests of a workload's reports, or none at another seed."""
    doc = json.loads(REFERENCE.read_text(encoding="utf-8"))
    if seed != doc["seed"]:
        return {}
    return doc["digests"].get(size, {}).get(workload, {})


def _median_or_none(values: list, digits: int) -> float | None:
    known = [v for v in values if v is not None]
    return round(statistics.median(known), digits) if known else None


def _iqr(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def run_workload(args, workload: str, trace: bool) -> dict:
    """Run passes for ``args.seconds`` and return the run's full record."""
    ops = WORKLOADS[workload]
    shutil.rmtree(WORK / "work" / workload, ignore_errors=True)
    size = "tiny" if args.tiny else "full"
    expected = _load_reference(args.seed, size, workload)
    # Compile and cache the package's bytecode before anything is timed.
    _run_child(
        [sys.executable, "-c", "import sys; sys.path.insert(0, 'src'); import dcn_robust.cli"],
        PASS_TIMEOUT_S,
    )

    passes: list[dict] = []
    first: dict[str, bytes] = {}
    problems: list[str] = []
    attempted = failed = 0
    start = time.perf_counter()
    index = 0
    while True:
        round_start = time.perf_counter()
        for traced in (False, True) if trace else (False,):
            res = _launch_pass(args, workload, index, traced)
            res["traced"] = traced
            passes.append(res)
            for op, record in zip(ops, res["ops"]):
                found, raw = checks.check_op(op, record, expected.get(op.name), first.get(op.name))
                if raw is not None:
                    first.setdefault(op.name, raw)
                attempted += 1
                if found:
                    failed += 1
                    problems.extend(
                        f"pass {index} {'traced' if traced else 'plain'} {op.name}: {p}"
                        for p in found
                    )
        index += 1
        now = time.perf_counter()
        if now - start >= args.seconds or now - start + (now - round_start) > RUN_LIMIT_S:
            break

    plain = [p for p in passes if not p["traced"]]
    series = {
        "wall_s": [p["wall_s"] for p in plain],
        "setup_s": [p["setup_s"] for p in plain],
        "samples_per_s": [p["samples"] / (p["wall_s"] - p["setup_s"]) for p in plain],
        "peak_rss_mb": [p["peak_rss_mb"] for p in plain],
    }
    units = END_TO_END_UNITS
    if trace:
        traced = [p for p in passes if p["traced"]]
        series = {name: [p["layers"][name] for p in traced] for name in traced[0]["layers"]}
        overhead = statistics.median(p["wall_s"] for p in traced) / statistics.median(
            p["wall_s"] for p in plain
        ) - 1.0
        series["trace.overhead_frac"] = [overhead]
        units = PER_LAYER_UNITS
    metrics = {
        name: {"value": statistics.median(series[name]), "unit": unit}
        for name, unit in units.items()
    }
    return {
        "workload": workload,
        "seed": args.seed,
        "trace": int(trace),
        "size": size,
        "seconds": args.seconds,
        "environment": {
            "nproc": _nproc(),
            "cpu_model": _cpu_model(),
            "platform": platform.platform(),
            "steal_share_median": _median_or_none([p["steal_share"] for p in passes], 4),
            **passes[0]["env"],
        },
        "passes": len(passes),
        "attempted": attempted,
        "failed": failed,
        "failed_ops_ratio": failed / attempted,
        "problems": problems,
        "metrics": metrics,
        "spread": {name: _iqr(series[name]) for name in units},
        "raw": passes,
    }


def _print_record(record: dict) -> None:
    env = record["environment"]
    print(
        f"# {record['workload']} trace={record['trace']} seed={record['seed']} "
        f"passes={record['passes']} nproc={env['nproc']} workers={env['workers']} "
        f"cpu={env['cpu_model']!r} python={env['python']} numpy={env['numpy']} "
        f"scipy={env['scipy']} host_steal={env['steal_share_median']}"
    )
    for name, m in record["metrics"].items():
        print(f"{record['workload']} {name} = {m['value']:.6g} {m['unit']}"
              f" (median; quartile spread {record['spread'][name]:.3g})")
    print(
        f"{record['workload']} failed_ops_ratio = {record['failed_ops_ratio']:.6g} ratio"
        f" ({record['failed']} of {record['attempted']} operations)"
    )
    for problem in record["problems"][:20]:
        print(f"{record['workload']} FAILED {problem}")


def _save_record(record: dict) -> None:
    out = WORK / "results"
    out.mkdir(parents=True, exist_ok=True)
    name = f"{record['workload']}-seed{record['seed']}-trace{record['trace']}.json"
    (out / name).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="dcn-robust benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true", help="two samples per operation (for the self-tests)"
    )
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must fit in 64 bits")

    if not (ROOT / "src" / "dcn_robust" / "cli.py").is_file():
        print(f"error: no dcn_robust package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    runs = (
        [(w, t) for w in WORKLOADS for t in (False, True)]
        if args.workload == "all"
        else [(args.workload, bool(args.trace))]
    )
    records = []
    try:
        for workload, trace in runs:
            record = run_workload(args, workload, trace)
            _save_record(record)
            _print_record(record)
            records.append(record)
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {
            f"{r['workload']}/{name}": m for r in records for name, m in r["metrics"].items()
        }
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _terminate)
    sys.exit(main())
