"""One pass of a workload, in a fresh interpreter.

Run from the repository root as
``python3 -m perfbench.passrun --workload NAME --seed N --launch-ns T
--outdir DIR --result FILE [--traced] [--tiny]``, where ``T`` is the
``time.perf_counter_ns()`` reading the caller took just before launching
this process (the clock is system-wide on Linux). The pass imports the
package, builds the workload's topologies into the simulation's topology
cache, runs every operation once through ``dcn_robust.cli.main`` and writes
a JSON result: set-up and wall times from launch, samples completed, peak
RSS, what each operation returned, and with ``--traced`` the per-layer
metrics.
"""

import time

_T_START = time.perf_counter_ns()  # before anything else is imported

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from perfbench.workloads import TINY_SAMPLES, WORKLOADS  # noqa: E402


def _peak_rss_mb() -> float:
    """Peak RSS of this process or of any pool worker it has reaped (KiB on Linux)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024.0


def run_pass(args: argparse.Namespace) -> dict:
    ops = WORKLOADS[args.workload]
    sys.path.insert(0, str(Path.cwd() / "src"))

    tracer = None
    if args.traced:
        from perfbench import spans

        tracer = spans.Tracer()

    import numpy
    import scipy
    from dcn_robust import cli, simulation

    if tracer is not None:
        spans.install(tracer)

    universes = {}
    for op in ops:
        parsed = cli.build_parser().parse_args(list(op.argv))
        topo = simulation._cached_topology(cli._params_from_args(parsed))
        if op.command == "mttf":
            universes[op.name] = topo.n_links if parsed.failure == "link" else topo.n_switches
    setup_ns = time.perf_counter_ns()
    if tracer is not None:
        tracer.add("harness.setup", "harness", _T_START, setup_ns)

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    results = []
    samples = 0
    for op in ops:
        n = TINY_SAMPLES if args.tiny else op.samples
        out = outdir / f"{op.name}.{op.fmt}"
        argv = op.full_argv(args.seed, n, str(out))
        error = None
        t0 = time.perf_counter_ns()
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
                io.StringIO()
            ):
                rc = cli.main(argv)
        except Exception:  # an operation that raises is a failed operation
            rc = None
            error = traceback.format_exc()
        if rc == 0:
            samples += n * op.points
        results.append(
            {
                "name": op.name,
                "rc": rc,
                "error": error,
                "out": str(out),
                "seconds": (time.perf_counter_ns() - t0) / 1e9,
                "samples": n,
                "universe": universes.get(op.name),
            }
        )
    end_ns = time.perf_counter_ns()

    result = {
        "launch_ns": args.launch_ns,
        "wall_s": (end_ns - args.launch_ns) / 1e9,
        "setup_s": (setup_ns - args.launch_ns) / 1e9,
        "samples": samples,
        "peak_rss_mb": _peak_rss_mb(),
        "ops": results,
        "env": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "workers": simulation.resolve_workers(),
        },
    }
    if tracer is not None:
        result["layers"] = spans.layer_metrics(tracer, args.launch_ns, end_ns)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--launch-ns", type=int, required=True)
    parser.add_argument("--outdir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)
    result = run_pass(args)
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
