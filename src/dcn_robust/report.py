"""Report assembly and emission.

A report is a plan echo plus measurement rows. The JSON form nests
plan -> series -> points; the CSV form is the flat projection with a fixed
column order. Both serializations are byte-deterministic for a given plan
and seed, independent of worker count.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass

from . import __version__
from .simulation import MetricSample, ReliabilityResult, confidence_interval

__all__ = [
    "CSV_COLUMNS",
    "Report",
    "reliability_rows",
    "to_csv_text",
    "to_json_text",
    "gnuplot_script",
]

CSV_COLUMNS = (
    "topology",
    "params",
    "failure_type",
    "fer_link",
    "fer_switch",
    "fer_server",
    "normalized_time",
    "metric",
    "mean",
    "ci95_half",
    "samples",
    "seed",
)
# gnuplot numbers a CSV's columns from 1.
_COLUMN_NUMBER = {name: number for number, name in enumerate(CSV_COLUMNS, 1)}
# The columns that name a JSON series; its points hold the others.
_SERIES_KEY = ("topology", "params", "failure_type", "metric")
# Where a row sits: its FER values and normalized time.
_AXES = CSV_COLUMNS[CSV_COLUMNS.index("failure_type") + 1 : CSV_COLUMNS.index("metric")]
# gnuplot's x axis is the first FER column a report fills, fer_link last:
# a link x switch sweep draws one curve per fer_link value.
_X_AXES = sorted(
    (name for name in _AXES if name.startswith("fer_")), key=lambda name: name == "fer_link"
)
_TOOL = "dcn-robust"


@dataclass(frozen=True)
class Report:
    """Plan echo, measurement rows and free-form notes."""

    plan: dict
    seed: int
    rows: tuple[MetricSample, ...]
    notes: tuple[str, ...] = ()


def reliability_rows(result: ReliabilityResult) -> list[MetricSample]:
    """Flatten a reliability simulation into report rows."""
    base = dict(
        topology=result.params.kind.value,
        params=result.params.args_text(),
        failure_type=result.failure.value,
    )
    critical = result.critical_points
    fer_mean, fer_half = confidence_interval(critical / result.universe)
    # Flagged as sweep rows are: two or more critical points, all equal.
    flag = {"degenerate": True} if len(critical) >= 2 and (critical == critical[0]).all() else {}
    # (metric, mean, ci95 half-width, samples, extra) per row.
    values = [
        ("nmttf_sim", result.nmttf_sim, result.ci95_half_width, result.samples, dict(flag)),
        ("critical_fer", fer_mean, fer_half, result.samples, dict(flag)),
    ]
    if result.nmttf_theoretical is not None:
        quality = {"quality": result.theoretical_quality.value}
        values.append(("nmttf_theo", result.nmttf_theoretical, None, 0, quality))
        values.append(("relative_error", result.relative_error, None, 0, {}))
    return [
        MetricSample(metric=m, mean=mean, ci95_half_width=half, samples=k, extra=extra, **base)
        for m, mean, half, k, extra in values
    ]


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def to_csv_text(report: Report) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in report.rows:
        cells = {**vars(row), "ci95_half": row.ci95_half_width, "seed": report.seed}
        writer.writerow(_cell(cells[name]) for name in CSV_COLUMNS)
    return out.getvalue()


def _point_doc(row: MetricSample) -> dict:
    doc: dict = {
        "mean": row.mean,
        "ci95_half": row.ci95_half_width,
        "samples": row.samples,
    }
    for name in _AXES:
        value = getattr(row, name)
        if value is not None:
            doc[name] = value
    if row.extra:
        doc.update(row.extra)
    return doc


def to_json_text(report: Report) -> str:
    series: dict[tuple, dict] = {}  # in first-seen order
    for row in report.rows:
        key = tuple(getattr(row, name) for name in _SERIES_KEY)
        if key not in series:
            series[key] = {**dict(zip(_SERIES_KEY, key)), "points": []}
        series[key]["points"].append(_point_doc(row))
    doc = {
        "tool": _TOOL,
        "version": __version__,
        "seed": report.seed,
        "plan": report.plan,
        "notes": list(report.notes),
        "series": list(series.values()),
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def gnuplot_script(csv_path: str, report: Report) -> str:
    """A pipeable gnuplot script plotting mean vs FER per metric series,
    each from its own metric's rows of a sweep's CSV. A link x switch
    sweep plots against ``fer_switch``, one curve per ``fer_link`` value.
    A quote in *csv_path* is doubled, as gnuplot reads it in single quotes."""
    metrics = list(dict.fromkeys(row.metric for row in report.rows))
    axes = [
        axis
        for axis in _X_AXES
        if any(getattr(row, axis) is not None for row in report.rows)
    ]
    col = _COLUMN_NUMBER
    fer_col = col[axes[0] if axes else "fer_link"]
    links = [""]
    if axes == ["fer_switch", "fer_link"]:
        links = list(dict.fromkeys(_cell(row.fer_link) for row in report.rows))
    quoted = csv_path.replace("'", "''")
    lines = [
        "set datafile separator ','",
        "set key outside",
        "set xlabel 'failed elements ratio'",
    ]
    for metric in metrics:
        curves = []
        for link in links:
            # Rows of the other curves read NaN, which gnuplot skips.
            test, title = f"strcol({col['metric']}) eq '{metric}'", metric
            if link:
                test += f" && strcol({col['fer_link']}) eq '{link}'"
                title += f" fer_link={link}"
            curves.append(
                f"'{quoted}' skip 1 using {fer_col}:({test} ? ${col['mean']} : NaN)"
                f":{col['ci95_half']} with yerrorlines title '{title}'"
            )
        lines.append(f"set ylabel '{metric}'")
        lines.append("plot " + ", ".join(curves))
        lines.append("pause -1")
    return "\n".join(lines) + "\n"
