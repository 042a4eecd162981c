"""Output checks for the benchmark's operations.

Every operation's report is checked three ways:

* its rows hash to the digest recorded in ``reference.json``, when the
  run uses the seed and size the digests were recorded at. A CSV report
  holds rows only and is hashed as it is; a JSON report is hashed as a
  canonical dump of its rows' fixed fields. So new JSON ``extra`` fields
  or a fixed plan echo leave the digest unchanged, while numeric drift
  changes it;
* invariants that hold for any seed: ASR, SC and RCR in [0, 1], critical
  points in [1, F], the expected number of rows and samples, and ASPL
  ``exact`` false exactly on the configuration above the exact limit;
* its bytes equal the same operation's bytes in the run's first pass (all
  passes of a run share a seed, and traced passes must match untraced
  ones, in the style of the determinism criterion).

A check returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from pathlib import Path

from perfbench.workloads import Op

# The fields of a JSON report that carry its numbers. Any other key of a
# point is an ``extra`` field and stays out of the digest.
_SERIES_FIELDS = ("topology", "params", "failure_type", "metric")
_POINT_FIELDS = (
    "fer_link",
    "fer_switch",
    "fer_server",
    "normalized_time",
    "mean",
    "ci95_half",
    "samples",
)
_UNIT_METRICS = {"asr", "sc", "rcr_cpu", "rcr_mem"}


def json_rows(doc: dict) -> str:
    """A canonical dump of a JSON report's seed and rows, ``extra`` fields left out."""
    rows = [
        {
            **{k: series[k] for k in _SERIES_FIELDS},
            **{k: point[k] for k in _POINT_FIELDS if k in point},
        }
        for series in doc["series"]
        for point in series["points"]
    ]
    return json.dumps({"seed": doc["seed"], "rows": rows}, sort_keys=True)


def digest(op: Op, raw: bytes) -> str:
    """sha256 of a report's rows: a CSV report's text, or ``json_rows`` of a JSON one."""
    text = raw.decode("utf-8")
    rows = json_rows(json.loads(text)) if op.fmt == "json" else text
    return hashlib.sha256(rows.encode("utf-8")).hexdigest()


def _invariants(op: Op, raw: bytes, samples: int, universe: int | None) -> list[str]:
    problems = []
    if op.fmt == "json":
        for series in json.loads(raw)["series"]:
            metric = series["metric"]
            if len(series["points"]) != op.points:
                problems.append(f"{len(series['points'])} {metric} points, expected {op.points}")
            for p in series["points"]:
                defined = p["samples"]
                # A sample with fewer than two accessible servers has no
                # ASPL and is left out of the count.
                if defined != samples and not (metric == "aspl" and defined < samples):
                    problems.append(f"{metric} over {defined} samples, expected {samples}")
                if metric in _UNIT_METRICS and not 0.0 <= p["mean"] <= 1.0:
                    problems.append(f"{metric} {p['mean']} outside [0, 1]")
                if metric != "aspl" or not defined:
                    continue
                # A missing flag is a problem too, not a pass.
                exact = not op.aspl_sampled
                if p.get("exact") is not exact:
                    problems.append(f"ASPL exact={p.get('exact')}, expected {exact}")
                if p["mean"] < 1.0:
                    problems.append(f"ASPL mean {p['mean']} below one hop")
        return problems

    rows = list(csv.DictReader(io.StringIO(raw.decode("utf-8"))))
    if op.command == "mttf":
        by_metric = {r["metric"]: r for r in rows}
        for name in ("nmttf_sim", "critical_fer"):
            if name not in by_metric:
                problems.append(f"no {name} row")
        if problems:
            return problems
        if not float(by_metric["nmttf_sim"]["mean"]) > 0.0:
            problems.append("nmttf_sim is not positive")
        # The mean of critical points in [1, F], divided by F.
        fer = float(by_metric["critical_fer"]["mean"])
        if not 1.0 / universe - 1e-12 <= fer <= 1.0:
            problems.append(f"critical_fer {fer} outside [1/F, 1] with F={universe}")
        if int(by_metric["nmttf_sim"]["samples"]) != samples:
            problems.append("nmttf_sim sample count differs from the request")
        return problems

    metrics = {r["metric"] for r in rows}
    if len(rows) != op.points * len(metrics):
        problems.append(f"{len(rows)} rows for {op.points} points x {len(metrics)} metrics")
    for r in rows:
        mean = float(r["mean"])
        if r["metric"] in _UNIT_METRICS and not 0.0 <= mean <= 1.0:
            problems.append(f"{r['metric']} {mean} outside [0, 1]")
        if int(r["samples"]) != samples:
            problems.append(f"{r['metric']} over {r['samples']} samples, expected {samples}")
    return problems


def check_op(
    op: Op,
    record: dict,
    expected_digest: str | None,
    first_bytes: bytes | None,
) -> tuple[list[str], bytes | None]:
    """Problems with one operation's output, and the output's bytes."""
    if record["rc"] != 0:
        reason = record["error"] or f"exit code {record['rc']}"
        return [f"operation failed: {reason.strip().splitlines()[-1]}"], None
    path = Path(record["out"])
    if not path.is_file():
        return ["no report written"], None
    raw = path.read_bytes()
    try:
        problems = _invariants(op, raw, record["samples"], record["universe"])
        if expected_digest is not None and digest(op, raw) != expected_digest:
            problems.append("digest differs from the reference")
    except (ValueError, KeyError, TypeError) as exc:
        problems = [f"unreadable report: {exc!r}"]
    if first_bytes is not None and raw != first_bytes:
        problems.append("bytes differ from the run's first pass")
    return problems, raw
