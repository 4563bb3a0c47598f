"""Report emission: CSV/JSON determinism, SVG structure, merging."""

import xml.etree.ElementTree as ET

import pytest

from reglab.errors import ConfigurationError
from reglab.evaluate import CellAggregate, ExperimentConfig, MetricsReport, TrialRecord, run_experiment
from reglab.reports import (
    CSV_COLUMNS,
    FORMATS,
    emit_reports,
    merge_reports,
    report_from_json,
    report_to_csv,
    report_to_json,
    report_to_svgs,
    svg_line_chart,
    timings_to_csv,
)


def make_cell(method="oracle", n=100, ratio=0.5, rr=100.0, re=0.01, te=0.5):
    return CellAggregate(
        method=method,
        n=n,
        outlier_ratio=ratio,
        trials=4,
        successes=int(round(rr / 25.0)),
        rr_percent=rr,
        mean_re_deg=re,
        mean_te_cm=te,
        mean_precision=1.0,
        mean_recall=1.0,
        mean_f1=1.0,
    )


def make_record(method="oracle", n=100, ratio=0.5, trial=0, wall=0.25):
    return TrialRecord(
        method=method,
        n=n,
        outlier_ratio=ratio,
        trial=trial,
        scene_seed=42,
        ok=True,
        success=True,
        re_deg=0.01,
        te_cm=0.5,
        precision=1.0,
        recall=1.0,
        f1=1.0,
        inlier_count=50,
        wall_time_s=wall,
    )


def make_report(cells, records=()):
    return MetricsReport(config={"master_seed": 0}, records=tuple(records), cells=tuple(cells))


# -- CSV -------------------------------------------------------------------------


def test_csv_header_and_rows():
    text = report_to_csv(make_report([make_cell(), make_cell(method="sm", rr=75.0)]))
    lines = text.splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 3
    assert text.endswith("\n")
    assert lines[1] == "oracle,100,0.5,4,4,100.0,0.01,0.5,1.0,1.0,1.0"


def test_csv_none_becomes_empty_cell():
    cell = make_cell(rr=0.0, re=None, te=None)
    row = report_to_csv(make_report([cell])).splitlines()[1]
    assert row == "oracle,100,0.5,4,0,0.0,,,1.0,1.0,1.0"


def test_csv_floats_round_trip_via_repr():
    cell = make_cell(re=0.1 + 0.2)  # 0.30000000000000004
    row = report_to_csv(make_report([cell])).splitlines()[1]
    assert repr(0.1 + 0.2) in row
    assert float(row.split(",")[6]) == 0.1 + 0.2


def test_timings_csv_one_row_per_record():
    records = [make_record(trial=t, wall=0.1 * t) for t in range(3)]
    text = timings_to_csv(make_report([], records))
    lines = text.splitlines()
    assert lines[0] == "method,n,outlier_ratio,trial,wall_time_s"
    assert len(lines) == 4
    assert lines[2] == "oracle,100,0.5,1,0.1"


# -- JSON ------------------------------------------------------------------------


def test_json_excludes_wall_times():
    report = make_report([make_cell()], [make_record()])
    import json

    doc = json.loads(report_to_json(report))
    assert set(doc) == {"config", "records", "cells"}
    assert "wall_time_s" not in doc["records"][0]
    assert "mean_wall_time_s" not in doc["cells"][0]
    assert doc["records"][0]["scene_seed"] == 42


def test_json_round_trip_preserves_deterministic_fields():
    report = make_report(
        [make_cell(), make_cell(method="ransac", rr=50.0, re=None, te=None)],
        [make_record(), make_record(method="ransac", trial=1)],
    )
    back = report_from_json(report_to_json(report))
    assert back.config == report.config
    # wall times are zeroed on load; everything else must survive
    assert report_to_csv(back) == report_to_csv(report)
    assert report_to_json(back) == report_to_json(report)
    assert back.records[0].wall_time_s == 0.0
    assert back.records[1].success == report.records[1].success


def test_json_rejects_non_report_documents():
    with pytest.raises(ConfigurationError):
        report_from_json("{}")
    with pytest.raises(ConfigurationError):
        report_from_json('{"config": {}, "records": [{"method": "x"}], "cells": []}')


@pytest.mark.parametrize(
    "section, field, value",
    [
        ("cells", "rr_percent", "abc"),
        ("cells", "n", "x"),
        ("cells", "n", 100.0),
        ("cells", "trials", True),
        ("cells", "method", 3),
        ("cells", "mean_re_deg", "0.1"),
        ("records", "ok", 1),
        ("records", "n", False),
        ("records", "inlier_count", 5.5),
        ("records", "re_deg", [1.0]),
    ],
)
def test_json_rejects_wrong_typed_fields(section, field, value):
    import json

    doc = json.loads(report_to_json(make_report([make_cell()], [make_record()])))
    doc[section][0][field] = value
    with pytest.raises(ConfigurationError, match=rf"^r\.json: {section}\[0\]\.{field} must be"):
        report_from_json(json.dumps(doc), "r.json")


def test_json_accepts_null_optionals_and_integral_floats():
    import json

    doc = json.loads(report_to_json(make_report([make_cell(re=None, te=None)], [make_record()])))
    doc["cells"][0]["rr_percent"] = 100
    doc["records"][0]["re_deg"] = None
    back = report_from_json(json.dumps(doc))
    assert back.cells[0].mean_re_deg is None and back.cells[0].rr_percent == 100
    assert back.records[0].re_deg is None


# -- SVG -------------------------------------------------------------------------


def chart_root(text: str) -> ET.Element:
    return ET.fromstring(text)


SVG_NS = "{http://www.w3.org/2000/svg}"


def tags(root: ET.Element, name: str) -> list[ET.Element]:
    return root.findall(f".//{SVG_NS}{name}")


def test_svg_chart_is_valid_xml_with_one_polyline_per_series():
    text = svg_line_chart(
        "demo",
        "N",
        [100.0, 200.0, 400.0],
        {"oracle": [100.0, 100.0, 100.0], "ransac": [90.0, 80.0, 60.0]},
    )
    root = chart_root(text)
    assert len(tags(root, "polyline")) == 2
    labels = {t.text for t in tags(root, "text")}
    assert {"oracle", "ransac", "demo", "N"} <= labels


def test_svg_chart_drops_none_points():
    text = svg_line_chart("demo", "N", [1.0, 2.0, 3.0], {"a": [50.0, None, 70.0]})
    poly = tags(chart_root(text), "polyline")[0]
    assert len(poly.attrib["points"].split()) == 2
    assert len(tags(chart_root(text), "circle")) == 2


def test_svg_chart_all_none_series_has_no_polyline_but_keeps_legend():
    text = svg_line_chart("demo", "N", [1.0, 2.0], {"a": [None, None]})
    root = chart_root(text)
    assert len(tags(root, "polyline")) == 0
    assert "a" in {t.text for t in tags(root, "text")}


def test_svg_chart_single_x_value_does_not_crash():
    text = svg_line_chart("demo", "N", [500.0], {"a": [100.0]})
    root = chart_root(text)
    circle = tags(root, "circle")[0]
    assert float(circle.attrib["cy"]) == pytest.approx(48.0)  # rr=100 sits at plot top


def test_report_to_svgs_axis_selection():
    both = make_report(
        [make_cell(n=n, ratio=r) for n in (100, 200) for r in (0.2, 0.4)]
    )
    assert set(report_to_svgs(both)) == {"rr_vs_n.svg", "rr_vs_outlier_ratio.svg"}

    only_n = make_report([make_cell(n=n) for n in (100, 200)])
    assert set(report_to_svgs(only_n)) == {"rr_vs_n.svg"}

    only_ratio = make_report([make_cell(ratio=r) for r in (0.2, 0.4)])
    assert set(report_to_svgs(only_ratio)) == {"rr_vs_outlier_ratio.svg"}

    nothing_swept = make_report([make_cell()])
    assert set(report_to_svgs(nothing_swept)) == {"rr_vs_n.svg"}


def test_report_to_svgs_averages_over_other_axis():
    report = make_report(
        [
            make_cell(n=100, ratio=0.2, rr=100.0),
            make_cell(n=100, ratio=0.4, rr=50.0),
            make_cell(n=200, ratio=0.2, rr=80.0),
            make_cell(n=200, ratio=0.4, rr=40.0),
        ]
    )
    text = report_to_svgs(report)["rr_vs_n.svg"]
    poly = tags(chart_root(text), "polyline")[0]
    pts = [tuple(map(float, p.split(","))) for p in poly.attrib["points"].split()]
    # y = top + (100 - rr)/100 * plot_h with top=48, plot_h=376
    assert pts[0][1] == pytest.approx(48.0 + 0.25 * 376.0)  # mean(100, 50) = 75
    assert pts[1][1] == pytest.approx(48.0 + 0.40 * 376.0)  # mean(80, 40) = 60


# -- emit ------------------------------------------------------------------------


def full_report():
    return make_report(
        [make_cell(n=n) for n in (100, 200)],
        [make_record(n=n, trial=t) for n in (100, 200) for t in range(2)],
    )


def test_emit_reports_writes_requested_formats(tmp_path):
    written = emit_reports(full_report(), tmp_path)
    assert set(written) == {"report.csv", "timings.csv", "report.json", "rr_vs_n.svg"}
    for path in written.values():
        assert path.exists() and path.stat().st_size > 0
    assert written["report.csv"].read_text() == report_to_csv(full_report())


def test_emit_reports_respects_format_subset(tmp_path):
    written = emit_reports(full_report(), tmp_path, formats=("json",))
    assert set(written) == {"report.json"}
    assert not (tmp_path / "report.csv").exists()


def test_emit_reports_can_skip_timings(tmp_path):
    written = emit_reports(full_report(), tmp_path, formats=("csv",), include_timings=False)
    assert set(written) == {"report.csv"}


def test_emit_reports_rejects_unknown_format(tmp_path):
    with pytest.raises(ConfigurationError, match="pdf"):
        emit_reports(full_report(), tmp_path, formats=("csv", "pdf"))
    assert FORMATS == ("csv", "json", "svg")


def test_emitted_reports_are_byte_identical_across_reruns(tmp_path):
    cfg = ExperimentConfig(
        methods=("oracle", "sm"), n_values=(60, 90), outlier_ratios=(0.3,), trials=2
    )
    a = emit_reports(run_experiment(cfg), tmp_path / "a")
    b = emit_reports(run_experiment(cfg), tmp_path / "b")
    for name in ("report.csv", "report.json", "rr_vs_n.svg"):
        assert a[name].read_bytes() == b[name].read_bytes()


# -- merge -----------------------------------------------------------------------


def test_merge_reports_concatenates():
    r1 = make_report([make_cell()], [make_record()])
    r2 = make_report([make_cell(method="sm")], [make_record(method="sm")])
    merged = merge_reports([r1, r2])
    assert merged.config == {"merged": [r1.config, r2.config]}
    assert len(merged.records) == 2
    assert [c.method for c in merged.cells] == ["oracle", "sm"]


def test_merge_reports_rejects_empty():
    with pytest.raises(ConfigurationError):
        merge_reports([])
