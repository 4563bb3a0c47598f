"""Report emission: deterministic CSV/JSON plus hand-rolled SVG charts.

``report.json`` and ``report.csv`` contain only deterministic fields, so
a rerun with the same configuration and master seed reproduces them byte
for byte. Wall-clock timings are real measurements and therefore live in
a separate ``timings.csv``.
"""

from __future__ import annotations

import json
from dataclasses import asdict, fields
from pathlib import Path

from .errors import ConfigurationError
from .evaluate import CellAggregate, MetricsReport, TrialRecord

FORMATS = ("csv", "json", "svg")

CSV_COLUMNS = (
    "method",
    "n",
    "outlier_ratio",
    "trials",
    "successes",
    "rr_percent",
    "mean_re_deg",
    "mean_te_cm",
    "mean_precision",
    "mean_recall",
    "mean_f1",
)

Y_LABEL = "registration recall (%)"  # every chart plots recall, 0..100
_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd", "#8c564b")


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def report_to_csv(report: MetricsReport) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for c in report.cells:
        row = asdict(c)
        lines.append(",".join(_cell(row[col]) for col in CSV_COLUMNS))
    return "\n".join(lines) + "\n"


def timings_to_csv(report: MetricsReport) -> str:
    lines = ["method,n,outlier_ratio,trial,wall_time_s"]
    for r in report.records:
        lines.append(
            f"{r.method},{r.n},{_cell(r.outlier_ratio)},{r.trial},{_cell(r.wall_time_s)}"
        )
    return "\n".join(lines) + "\n"


def report_to_json(report: MetricsReport) -> str:
    records = []
    for r in report.records:
        rec = asdict(r)
        rec.pop("wall_time_s")  # nondeterministic; lives in timings.csv
        records.append(rec)
    cells = [asdict(c) for c in report.cells]
    doc = {"config": report.config, "records": records, "cells": cells}
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"


def report_from_json(text: str, source: str = "report") -> MetricsReport:
    """Rebuild a report from ``report.json`` text; ``source`` names it in errors."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"{source}: not JSON ({exc})") from exc
    try:
        records = tuple(
            _entry(TrialRecord, rec, f"{source}: records[{i}]", wall_time_s=0.0)
            for i, rec in enumerate(doc["records"])
        )
        cells = tuple(
            _entry(CellAggregate, cell, f"{source}: cells[{i}]")
            for i, cell in enumerate(doc["cells"])
        )
        return MetricsReport(config=doc["config"], records=records, cells=cells)
    except (KeyError, TypeError) as exc:
        raise ConfigurationError(f"{source}: not a metrics report document: {exc}") from exc


# JSON value types accepted for each field annotation of TrialRecord and
# CellAggregate; bool is an int subclass, so it is refused for numbers.
_FIELD_TYPES = {"str": (str,), "int": (int,), "float": (int, float), "bool": (bool,)}


def _entry(cls, doc, where: str, **zeroed):
    """``cls(**zeroed, **doc)`` once every field in ``doc`` has its declared type.

    Missing or unknown fields and a ``doc`` that is not an object are left
    to the constructor, which raises TypeError.
    """
    if isinstance(doc, dict):
        for f in fields(cls):
            value = doc.get(f.name)
            kind, _, optional = f.type.partition(" | ")
            if f.name not in doc or (value is None and optional):
                continue
            if not isinstance(value, _FIELD_TYPES[kind]) or (
                    isinstance(value, bool) and kind != "bool"):
                raise ConfigurationError(f"{where}.{f.name} must be {f.type}, got {value!r}")
    return cls(**zeroed, **doc)


# -- SVG -----------------------------------------------------------------------


def svg_line_chart(
    title: str,
    x_label: str,
    x_values: list[float],
    series: dict[str, list[float | None]],
) -> str:
    """Self-contained line chart, y fixed to 0..100, one polyline per series."""
    width, height = 720.0, 480.0
    left, right, top, bottom = 72.0, 180.0, 48.0, 56.0
    plot_w = width - left - right
    plot_h = height - top - bottom

    xs = [float(v) for v in x_values]
    x_min, x_max = min(xs), max(xs)
    span = x_max - x_min

    def sx(v: float) -> float:
        if span == 0.0:
            return left + plot_w / 2.0
        return left + (v - x_min) / span * plot_w

    def sy(v: float) -> float:
        return top + (100.0 - v) / 100.0 * plot_h

    def fmt(v: float) -> str:
        return f"{v:.2f}"

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width:g} {height:g}" '
        f'font-family="sans-serif" font-size="13">',
        f'<rect x="0" y="0" width="{width:g}" height="{height:g}" fill="white"/>',
        f'<text x="{left + plot_w / 2:.2f}" y="24" text-anchor="middle" '
        f'font-size="16">{title}</text>',
    ]
    for tick in (0, 25, 50, 75, 100):
        y = sy(tick)
        out.append(
            f'<line x1="{fmt(left)}" y1="{fmt(y)}" x2="{fmt(left + plot_w)}" '
            f'y2="{fmt(y)}" stroke="#dddddd"/>'
        )
        out.append(
            f'<text x="{fmt(left - 8)}" y="{fmt(y + 4)}" text-anchor="end">{tick}</text>'
        )
    for v in xs:
        x = sx(v)
        out.append(
            f'<line x1="{fmt(x)}" y1="{fmt(top + plot_h)}" x2="{fmt(x)}" '
            f'y2="{fmt(top + plot_h + 5)}" stroke="#333333"/>'
        )
        out.append(
            f'<text x="{fmt(x)}" y="{fmt(top + plot_h + 20)}" text-anchor="middle">{v:g}</text>'
        )
    out.append(
        f'<line x1="{fmt(left)}" y1="{fmt(top)}" x2="{fmt(left)}" '
        f'y2="{fmt(top + plot_h)}" stroke="#333333"/>'
    )
    out.append(
        f'<line x1="{fmt(left)}" y1="{fmt(top + plot_h)}" x2="{fmt(left + plot_w)}" '
        f'y2="{fmt(top + plot_h)}" stroke="#333333"/>'
    )
    out.append(
        f'<text x="{fmt(left + plot_w / 2)}" y="{fmt(height - 12)}" '
        f'text-anchor="middle">{x_label}</text>'
    )
    out.append(
        f'<text x="20" y="{fmt(top + plot_h / 2)}" text-anchor="middle" '
        f'transform="rotate(-90 20 {fmt(top + plot_h / 2)})">{Y_LABEL}</text>'
    )
    for s, (label, values) in enumerate(series.items()):
        color = _PALETTE[s % len(_PALETTE)]
        points = [
            (sx(x), sy(v)) for x, v in zip(xs, values) if v is not None
        ]
        if points:
            path = " ".join(f"{fmt(px)},{fmt(py)}" for px, py in points)
            out.append(
                f'<polyline points="{path}" fill="none" stroke="{color}" stroke-width="2"/>'
            )
            for px, py in points:
                out.append(f'<circle cx="{fmt(px)}" cy="{fmt(py)}" r="3.5" fill="{color}"/>')
        ly = top + 10 + 22 * s
        lx = left + plot_w + 16
        out.append(
            f'<line x1="{fmt(lx)}" y1="{fmt(ly)}" x2="{fmt(lx + 24)}" y2="{fmt(ly)}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        out.append(f'<text x="{fmt(lx + 30)}" y="{fmt(ly + 4)}">{label}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


def _recall_by_axis(report: MetricsReport, axis: str) -> tuple[list[float], dict[str, list[float | None]]]:
    """Mean RR per (method, axis value); averages over the other axis."""
    values = sorted({getattr(c, axis) for c in report.cells})
    methods = sorted({c.method for c in report.cells})
    series: dict[str, list[float | None]] = {}
    for method in methods:
        line: list[float | None] = []
        for v in values:
            cells = [
                c for c in report.cells if c.method == method and getattr(c, axis) == v
            ]
            if cells:
                line.append(sum(c.rr_percent for c in cells) / len(cells))
            else:
                line.append(None)
        series[method] = line
    return [float(v) for v in values], series


def report_to_svgs(report: MetricsReport) -> dict[str, str]:
    """One chart per swept axis; a single chart if nothing is swept."""
    charts: dict[str, str] = {}
    n_count = len({c.n for c in report.cells})
    ratio_count = len({c.outlier_ratio for c in report.cells})
    if n_count > 1 or ratio_count == 1:
        xs, series = _recall_by_axis(report, "n")
        charts["rr_vs_n.svg"] = svg_line_chart(
            "Registration recall vs correspondence count",
            "correspondences (N)",
            xs,
            series,
        )
    if ratio_count > 1:
        xs, series = _recall_by_axis(report, "outlier_ratio")
        charts["rr_vs_outlier_ratio.svg"] = svg_line_chart(
            "Registration recall vs outlier ratio",
            "outlier ratio",
            xs,
            series,
        )
    return charts


def emit_reports(
    report: MetricsReport,
    out_dir: str | Path,
    formats: tuple[str, ...] = FORMATS,
    include_timings: bool = True,
) -> dict[str, Path]:
    """Write the requested formats into ``out_dir``; returns name -> path."""
    bad = sorted(set(formats) - set(FORMATS))
    if bad:
        raise ConfigurationError(f"unknown report formats {bad}, expected subset of {FORMATS}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written: dict[str, Path] = {}

    def put(name: str, text: str) -> None:
        path = out_dir / name
        path.write_text(text)
        written[name] = path

    if "csv" in formats:
        put("report.csv", report_to_csv(report))
        if include_timings:
            put("timings.csv", timings_to_csv(report))
    if "json" in formats:
        put("report.json", report_to_json(report))
    if "svg" in formats:
        for name, text in report_to_svgs(report).items():
            put(name, text)
    return written


def merge_reports(reports: list[MetricsReport]) -> MetricsReport:
    """Concatenate reports (e.g. one per ablation variant) for joint emission."""
    if not reports:
        raise ConfigurationError("merge_reports: nothing to merge")
    records: list[TrialRecord] = []
    cells: list[CellAggregate] = []
    for r in reports:
        records.extend(r.records)
        cells.extend(r.cells)
    return MetricsReport(
        config={"merged": [r.config for r in reports]},
        records=tuple(records),
        cells=tuple(cells),
    )
