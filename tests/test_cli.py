"""Command line interface: subcommands, artifacts, exit codes."""

import json
from pathlib import Path

import numpy as np
import pytest

import reglab.evaluate
from conftest import make_rng
from reglab.autodiff import Tensor
from reglab.blocks import GPINet
from reglab.cli import main
from reglab.formats import (
    load_correspondences,
    load_transform,
    save_correspondences,
    save_transform,
)
from reglab.geometry import CorrespondenceSet, RigidTransform
from reglab.synth import SceneConfig, generate


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def write_ply(path, pts):
    lines = [
        "ply",
        "format ascii 1.0",
        f"element vertex {len(pts)}",
        "property float x",
        "property float y",
        "property float z",
        "end_header",
    ]
    lines += [" ".join(repr(float(v)) for v in row) for row in pts]
    path.write_text("\n".join(lines) + "\n")


TETRA = np.array([[0.0, 0, 0], [1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0]])


# -- generate ---------------------------------------------------------------------


def test_generate_writes_loadable_scene(tmp_path, capsys):
    out = tmp_path / "scene"
    code, doc = run_cli(
        ["generate", "--n", "40", "--outlier-ratio", "0.25", "--seed", "3",
         "--out", str(out)],
        capsys,
    )
    assert code == 0
    assert doc["n"] == 40 and doc["outliers"] == 10 and doc["seed"] == 3

    c = load_correspondences(out / "correspondences.csv")
    gt = load_transform(out / "gt_transform.json")
    direct_c, direct_gt = generate(SceneConfig(n=40, outlier_ratio=0.25, seed=3))
    assert np.array_equal(c.source, direct_c.source)
    assert np.array_equal(c.labels, direct_c.labels)
    assert np.array_equal(gt.rotation, direct_gt.rotation)


def test_generate_rejects_bad_config(tmp_path, capsys):
    code = main(["generate", "--n", "0", "--out", str(tmp_path / "x")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


# -- register ---------------------------------------------------------------------


def test_register_oracle_on_synthetic_scene(tmp_path, capsys):
    out = tmp_path / "res"
    code, doc = run_cli(
        ["register", "--method", "oracle", "--n", "120", "--outlier-ratio", "0.4",
         "--seed", "1", "--out", str(out)],
        capsys,
    )
    assert code == 0
    assert doc["ok"] and doc["success"]
    assert doc["re_deg"] < 1.0 and doc["te_cm"] < 3.0
    assert doc["precision"] == 1.0 and doc["recall"] == 1.0 and doc["f1"] == 1.0
    assert doc["method"] == "oracle" and doc["n"] == 120
    saved = json.loads((out / "result.json").read_text())
    assert saved == doc


def test_register_from_csv_with_gt(tmp_path, capsys):
    scene = tmp_path / "scene"
    main(["generate", "--n", "100", "--outlier-ratio", "0.3", "--seed", "5",
          "--out", str(scene)])
    capsys.readouterr()
    code, doc = run_cli(
        ["register", "--method", "ransac", "--input", str(scene / "correspondences.csv"),
         "--gt", str(scene / "gt_transform.json"), "--ransac-iterations", "300"],
        capsys,
    )
    assert code == 0
    assert doc["ok"] and doc["success"]
    assert doc["inlier_count"] >= 60
    assert doc["precision"] > 0.9  # labels travel with the CSV


def test_register_oracle_needs_labels(tmp_path, capsys):
    path = tmp_path / "plain.csv"
    save_correspondences(path, CorrespondenceSet(TETRA, TETRA))
    code = main(["register", "--method", "oracle", "--input", str(path)])
    assert code == 2
    assert "labeled" in capsys.readouterr().err


def test_register_missing_input_file(tmp_path, capsys):
    code = main(["register", "--input", str(tmp_path / "nope.csv")])
    assert code == 2
    capsys.readouterr()


def test_register_from_ply_pair(tmp_path, capsys):
    src, tgt = tmp_path / "src.ply", tmp_path / "tgt.ply"
    write_ply(src, TETRA)
    write_ply(tgt, TETRA)
    code, doc = run_cli(
        ["register", "--method", "ransac", "--source-ply", str(src),
         "--target-ply", str(tgt)],
        capsys,
    )
    assert code == 0 and doc["ok"]
    got = np.array(doc["transform"]["rotation"]).reshape(3, 3)
    assert np.allclose(got, np.eye(3), atol=1e-9)
    assert np.allclose(doc["transform"]["translation"], 0.0, atol=1e-9)


def test_register_ply_requires_both_files(tmp_path, capsys):
    src = tmp_path / "src.ply"
    write_ply(src, TETRA)
    assert main(["register", "--source-ply", str(src)]) == 2
    capsys.readouterr()


def test_register_ply_row_count_mismatch(tmp_path, capsys):
    src, tgt = tmp_path / "src.ply", tmp_path / "tgt.ply"
    write_ply(src, TETRA)
    write_ply(tgt, TETRA[:3])
    assert main(["register", "--source-ply", str(src), "--target-ply", str(tgt)]) == 2
    assert "4 vs 3" in capsys.readouterr().err


def collinear_csv(tmp_path):
    pts = np.array([[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0], [3.0, 0, 0]])
    path = tmp_path / "line.csv"
    save_correspondences(path, CorrespondenceSet(pts, pts))
    return path


def test_register_exit_3_when_pipeline_degenerates(tmp_path, capsys):
    code = main(
        ["register", "--method", "gpinet", "--channels", "8", "--granularities", "1",
         "--input", str(collinear_csv(tmp_path))]
    )
    out = capsys.readouterr().out
    assert code == 3
    doc = json.loads(out)
    assert doc["ok"] is False and "degenerate" in doc["reason"]


def test_register_exit_3_when_ransac_fails(tmp_path, capsys):
    code = main(["register", "--method", "ransac", "--input", str(collinear_csv(tmp_path))])
    assert code == 3
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is False and "degenerate" in doc["reason"]


FAILED_REGISTER_KEYS = {"delta", "method", "n", "ok", "reason", "scene"}
PIPELINE_KEYS = {"seed_count", "hypothesis_count"}
CLASSIFICATION_KEYS = {"precision", "recall", "f1"}


@pytest.mark.parametrize("method, extra", [
    ("oracle", PIPELINE_KEYS | CLASSIFICATION_KEYS),
    ("gpinet", PIPELINE_KEYS | CLASSIFICATION_KEYS),
    ("ransac", set()),
    ("sm", set()),
])
def test_register_failure_on_a_labeled_scene_grades_only_what_exists(method, extra, tmp_path,
                                                                    capsys):
    """No transform, so no errors against the ground truth; the pipeline methods
    still have probabilities, so they get precision, recall and F1."""
    pts = np.array([[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0], [3.0, 0, 0]])
    csv = tmp_path / "line.csv"
    save_correspondences(csv, CorrespondenceSet(pts, pts, np.ones(4, dtype=bool)))
    gt = tmp_path / "gt.json"
    save_transform(gt, RigidTransform.identity())
    code = main(["register", "--method", method, "--channels", "8", "--granularities", "1",
                 "--input", str(csv), "--gt", str(gt)])
    doc = json.loads(capsys.readouterr().out)
    assert code == 3 and doc["ok"] is False
    assert set(doc) == FAILED_REGISTER_KEYS | extra


def test_unknown_flag_exits_2_via_argparse(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["register", "--frobnicate"])
    assert exc.value.code == 2
    capsys.readouterr()


PLY_HEADER = (
    "ply\nformat ascii 1.0\nelement vertex {}\n"
    "property float x\nproperty float y\nproperty float z\nend_header\n"
)
CSV_LABELED = "xs,ys,zs,xt,yt,zt,label\n"

# name -> (file written, its content, how the file reaches `register`);
# bytes content is written raw, None makes a directory of that name.
MALFORMED_INPUTS = {
    "csv_is_directory": ("corr.csv", None, "--input"),
    "csv_not_utf8": ("latin1.csv", CSV_LABELED.encode() + b"\xff,0,0,0,0,0,1\n", "--input"),
    "csv_bad_header": ("bad.csv", "a,b,c\n1,2,3\n", "--input"),
    "csv_short_row": ("short.csv", CSV_LABELED + "1,2,3,4,5,6\n", "--input"),
    "csv_header_only": ("empty.csv", CSV_LABELED, "--input"),
    "csv_non_numeric_cell": ("text.csv", CSV_LABELED + "1,2,3,4,5,spam,1\n", "--input"),
    "csv_label_not_binary": ("label.csv", CSV_LABELED + "0,0,0,0,0,0,2\n", "--input"),
    "transform_not_json": ("gt.json", '{"rotation": [1, 0, 0,', "--gt"),
    "ply_count_not_integer": ("src.ply", PLY_HEADER.format("four") + "0 0 0\n", "--source-ply"),
    "ply_vertex_not_numeric": ("src.ply", PLY_HEADER.format(1) + "0 zero 0\n", "--source-ply"),
    "ply_header_line_truncated": ("src.ply", "ply\nformat\nend_header\n", "--source-ply"),
    "params_not_json": ("params.json", "{bad", "--params"),
    "params_entry_lacks_shape": ("params.json", '{"parameters": {"a": {}}}', "--params"),
    "params_config_unknown_key": ("params.json", '{"config": {"bogus": 1}, "parameters": {}}',
                                  "--params"),
    "params_config_wrong_type": ("params.json", '{"config": {"channels": "32"}, "parameters": {}}',
                                 "--params"),
    "params_config_is_list": ("params.json", '{"config": [32, 3], "parameters": {}}', "--params"),
    "params_sc_sigma_nan": ("params.json", '{"config": {"sc_sigma": NaN}, "parameters": {}}',
                            "--params"),
    "params_sc_sigma_infinite": ("params.json",
                                 '{"config": {"sc_sigma": Infinity}, "parameters": {}}', "--params"),
    "params_bottleneck_ratio_zero": ("params.json",
                                     '{"config": {"bottleneck_ratio": 0}, "parameters": {}}',
                                     "--params"),
    "params_shuffle_groups_negative": ("params.json",
                                       '{"config": {"shuffle_groups": -2}, "parameters": {}}',
                                       "--params"),
    "params_shape_two_unknown_dims": (
        "params.json", '{"parameters": {"a": {"shape": [-2, -3], "values": [1, 2, 3, 4, 5, 6]}}}',
        "--params"),
    "params_shape_overflows": ("params.json", '{"parameters": {"a": {"shape": [1e400], "values": []}}}',
                               "--params"),
    "params_shape_too_big": (
        "params.json", '{"parameters": {"a": {"shape": [3000000000, 3000000000, 0], "values": []}}}',
        "--params"),
}


def write_input(path, content):
    if content is None:
        path.mkdir()
    elif isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content)


@pytest.mark.parametrize("case", sorted(MALFORMED_INPUTS))
def test_register_malformed_input_exits_2(case, tmp_path, capsys):
    name, content, flag = MALFORMED_INPUTS[case]
    bad = tmp_path / name
    write_input(bad, content)
    good_csv = tmp_path / "good.csv"
    save_correspondences(good_csv, CorrespondenceSet(TETRA, TETRA, np.ones(4, dtype=bool)))
    good_ply = tmp_path / "tgt.ply"
    write_ply(good_ply, TETRA)
    argv = ["register", "--method", "oracle", flag, str(bad)]
    if flag == "--params":
        argv = ["register", "--method", "gpinet", "--n", "20", flag, str(bad)]
    elif flag == "--gt":
        argv += ["--input", str(good_csv)]
    elif flag == "--source-ply":
        argv += ["--target-ply", str(good_ply)]
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and str(bad) in err


BENCH_PARAMS = Path(__file__).resolve().parents[1] / "bench" / "model" / "params.json"

# case -> (key the error must name, or None when the file loads; edit of the entries)
PARAMS_MISMATCHES = {
    "statistic_cut_to_31": ("dmg.bottom_up_1.bnorm.running_mean",
                            lambda p, k: p[k].update(shape=[1, 31], values=p[k]["values"][:31])),
    "unknown_entry": ("dmg.top_down_9.lin.weight",
                      lambda p, k: p.update({k: p["dmg.top_down_1.lin.weight"]})),
    "misspelled_statistic": ("dmg.bottom_up_1.bnorm.running_means",
                             lambda p, k: p.update({k: p.pop(k[:-1])})),
    "one_statistic_of_a_pair": ("dmg.fusion.bnorm.running_var", lambda p, k: p.pop(k)),
    "parameter_of_wrong_shape": ("head.lin.weight",
                                 lambda p, k: p[k].update(shape=p[k]["shape"][::-1])),
    "nan_value": ("head.lin.bias", lambda p, k: p[k]["values"].__setitem__(0, float("nan"))),
    "infinite_value": ("head.lin.weight", lambda p, k: p[k]["values"].__setitem__(3, float("inf"))),
    "negative_infinite_statistic": ("dmg.fusion.bnorm.running_var",
                                    lambda p, k: p[k]["values"].__setitem__(0, float("-inf"))),
    "both_statistics_left_out": (None, lambda p, k: [p.pop(f"dmg.fusion.bnorm.{stat}")
                                                     for stat in ("running_mean", "running_var")]),
}


@pytest.mark.parametrize("case", sorted(PARAMS_MISMATCHES))
def test_register_loads_only_a_params_file_that_matches_the_model(case, tmp_path, capsys):
    """Keys and shapes must be the model's and values finite; a layer's two statistics may
    be left out together."""
    key, edit = PARAMS_MISMATCHES[case]
    doc = json.loads(BENCH_PARAMS.read_text())
    edit(doc["parameters"], key)
    path = tmp_path / "params.json"
    path.write_text(json.dumps(doc))
    code = main(["register", "--method", "gpinet", "--n", "100", "--params", str(path)])
    err = capsys.readouterr().err
    if key is not None:
        assert code == 2
        assert err.startswith("error: ") and str(path) in err and repr(key) in err
        assert "Traceback" not in err
        return
    assert code == 0 and err == ""
    model, full = GPINet.load(path), GPINet.load(BENCH_PARAMS)
    assert model.dmg.fusion.bnorm.running_mean is None
    c, _ = generate(SceneConfig(n=100, seed=4))
    assert model.predict(c).tobytes() == full.predict(c).tobytes()


@pytest.mark.parametrize("field, value", [
    ("bottleneck_ratio", 8), ("shuffle_groups", 4), ("sc_sigma", 0.2),
    ("top_down_include_finest", True),
])
def test_register_refuses_a_params_file_that_moves_a_fixed_rule(field, value, tmp_path, capsys):
    """The config keeps all six keys; the blocks' four fixed rules must hold their values."""
    doc = json.loads(BENCH_PARAMS.read_text())
    doc["config"][field] = value
    path = tmp_path / "params.json"
    path.write_text(json.dumps(doc))
    code = main(["register", "--method", "gpinet", "--n", "100", "--params", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and str(path) in err and f"{field!r} is fixed at" in err
    assert "Traceback" not in err


# -- benchmark / ablate -------------------------------------------------------------


def bench_args(out, fmt="csv,json,svg"):
    return [
        "benchmark", "--method", "oracle,sm", "--n", "60", "--outlier-ratio", "0.3",
        "--trials", "2", "--format", fmt, "--out", str(out),
    ]


def test_benchmark_emits_reports(tmp_path, capsys):
    out = tmp_path / "bench"
    code, doc = run_cli(bench_args(out), capsys)
    assert code == 0
    assert doc["cells"] == 2 and doc["trials"] == 4
    assert set(doc["out"]) == {"report.csv", "timings.csv", "report.json", "rr_vs_n.svg"}
    header = (out / "report.csv").read_text().splitlines()[0]
    assert header.startswith("method,n,outlier_ratio")


def test_benchmark_reruns_are_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli(bench_args(a, fmt="csv,json"), capsys)[0] == 0
    assert run_cli(bench_args(b, fmt="csv,json"), capsys)[0] == 0
    assert (a / "report.csv").read_bytes() == (b / "report.csv").read_bytes()
    assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()
    assert (a / "timings.csv").read_bytes() != (b / "timings.csv").read_bytes()


def test_benchmark_rejects_unknown_method(tmp_path, capsys):
    code = main(["benchmark", "--method", "warp", "--out", str(tmp_path / "x")])
    assert code == 2
    capsys.readouterr()


def test_ablate_pairs_full_against_variant(tmp_path, capsys):
    out = tmp_path / "ablate"
    code, doc = run_cli(
        ["ablate", "--ablate", "gfa", "--n", "40", "--outlier-ratio", "0",
         "--trials", "1", "--channels", "8", "--granularities", "1",
         "--format", "csv", "--out", str(out)],
        capsys,
    )
    assert code == 0
    assert doc["variants"] == ["full", "gfa"]
    rows = (out / "report.csv").read_text().splitlines()[1:]
    assert {r.split(",")[0] for r in rows} == {"gpinet", "gpinet_no_gfa"}


# -- train ---------------------------------------------------------------------------


TRAIN_ARGS = [
    "train", "--n", "16", "--channels", "8", "--granularities", "1", "--pool", "2",
    "--iterations", "3", "--learning-rate", "0.05",
]


def test_train_writes_params_and_loss_curve(tmp_path, capsys):
    out = tmp_path / "run"
    code, doc = run_cli(TRAIN_ARGS + ["--out", str(out)], capsys)
    assert code == 0
    assert doc["iterations"] == 3

    lines = (out / "loss.csv").read_text().splitlines()
    assert lines[0] == "iteration,scene,loss"
    assert len(lines) == 4
    assert [ln.split(",")[1] for ln in lines[1:]] == ["0", "1", "0"]
    for ln in lines[1:]:
        assert np.isfinite(float(ln.split(",")[2]))

    model = GPINet.load(out / "params.json")  # artifact is loadable as-is
    assert model.config.channels == 8

    capsys.readouterr()
    code2, doc2 = run_cli(
        ["register", "--params", str(out / "params.json"), "--n", "80",
         "--outlier-ratio", "0", "--seed", "2"],
        capsys,
    )
    assert code2 == 0 and doc2["ok"] and doc2["success"]


def test_train_numeric_fault_exits_4(tmp_path, capsys, monkeypatch):
    def poisoned(probs, labels):
        return Tensor(np.array([[np.nan]]), requires_grad=True)

    monkeypatch.setattr(reglab.evaluate, "bce_loss", poisoned)
    code = main(TRAIN_ARGS + ["--out", str(tmp_path / "run")])
    assert code == 4
    assert "numeric fault:" in capsys.readouterr().err


# -- report ---------------------------------------------------------------------------


def test_report_reemits_byte_identical_csv(tmp_path, capsys):
    bench = tmp_path / "bench"
    run_cli(bench_args(bench), capsys)
    out = tmp_path / "again"
    code, doc = run_cli(
        ["report", "--input", str(bench / "report.json"), "--out", str(out)],
        capsys,
    )
    assert code == 0
    assert (out / "report.csv").read_bytes() == (bench / "report.csv").read_bytes()
    assert (out / "report.json").read_bytes() == (bench / "report.json").read_bytes()
    assert not (out / "timings.csv").exists()  # wall times are not reconstructable
    assert (out / "rr_vs_n.svg").read_bytes() == (bench / "rr_vs_n.svg").read_bytes()


def test_report_format_subset(tmp_path, capsys):
    bench = tmp_path / "bench"
    run_cli(bench_args(bench, fmt="json"), capsys)
    out = tmp_path / "csv_only"
    code, doc = run_cli(
        ["report", "--input", str(bench / "report.json"), "--format", "csv",
         "--out", str(out)],
        capsys,
    )
    assert code == 0
    assert set(doc["out"]) == {"report.csv"}


def test_report_rejects_non_report_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    assert main(["report", "--input", str(bad), "--out", str(tmp_path / "x")]) == 2
    capsys.readouterr()


REPORT_CELL = {
    "method": "oracle", "n": 20, "outlier_ratio": 0.6, "trials": 1, "successes": 1,
    "rr_percent": 100.0, "mean_re_deg": 0.07, "mean_te_cm": 0.55, "mean_precision": 1.0,
    "mean_recall": 1.0, "mean_f1": 1.0,
}


def one_cell_report(**fields) -> str:
    """report.json text with one cell, whose ``fields`` replace the valid values."""
    return json.dumps({"config": {}, "records": [], "cells": [{**REPORT_CELL, **fields}]})


def test_one_cell_report_is_valid(tmp_path, capsys):
    good = tmp_path / "report.json"
    good.write_text(one_cell_report())
    assert main(["report", "--input", str(good), "--out", str(tmp_path / "x")]) == 0
    capsys.readouterr()


@pytest.mark.parametrize(
    "content",
    [None, b"\xff{}", b"{bad", one_cell_report(rr_percent="abc"), one_cell_report(n="x")],
    ids=["directory", "not_utf8", "not_json", "cell_rr_percent_is_str", "cell_n_is_str"],
)
def test_report_unreadable_input_exits_2(content, tmp_path, capsys):
    bad = tmp_path / "report.json"
    write_input(bad, content)
    assert main(["report", "--input", str(bad), "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(bad) in err


def test_register_refuses_an_n_squared_matrix_before_allocating(monkeypatch, capsys):
    """sm at N = 30000 needs a 7.2 GB consistency matrix: exit 2, nothing near N^2 allocated."""
    import tracemalloc

    import reglab.kernels

    def no_block(*args, **kwargs):
        raise AssertionError("a row block was computed")

    monkeypatch.setattr(reglab.kernels, "consistency_rows", no_block)
    tracemalloc.start()
    try:
        code = main(["register", "--method", "sm", "--n", "30000"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: consistency_matrix: N = 30000") and "limit" in err
    assert peak < 50e6


def test_memory_error_exits_2(monkeypatch, capsys):
    import reglab.kernels

    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 7.2 GiB")

    monkeypatch.setattr(reglab.kernels, "consistency_matrix", exhausted)
    assert main(["register", "--method", "sm", "--n", "50"]) == 2
    assert capsys.readouterr().err == "error: out of memory (Unable to allocate 7.2 GiB)\n"


@pytest.mark.parametrize("command", ["generate", "register", "benchmark", "ablate", "train"])
def test_negative_seed_exits_2_naming_the_flag(command, tmp_path, capsys):
    """numpy's SeedSequence refuses negative seeds; argparse refuses them first."""
    argv = [command, "--seed", "-1"]
    if command != "register":
        argv += ["--out", str(tmp_path / "out")]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --seed: must be >= 0, got -1" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_delta_whose_square_underflows_exits_2(capsys):
    """1e-320 squared is 0: the consistency matrix would divide 0 by 0."""
    assert main(["register", "--n", "100", "--delta", "1e-320", "--method", "oracle"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: delta must be positive") and "nonzero square" in err


# -- non-finite float flags ------------------------------------------------------------


NON_FINITE_FLAGS = {
    "register_delta_nan": (["register", "--n", "50", "--delta", "nan"], "delta"),
    "register_sm_delta_inf": (
        ["register", "--method", "sm", "--n", "50", "--delta", "inf"], "delta"),
    "benchmark_delta_nan": (
        ["benchmark", "--method", "oracle", "--n", "20", "--trials", "1", "--delta", "nan"],
        "delta"),
    "train_learning_rate_nan": (TRAIN_ARGS + ["--learning-rate", "nan"], "learning_rate"),
    "generate_extent_nan": (["generate", "--n", "20", "--extent", "nan"], "extent"),
    "generate_extent_inf": (["generate", "--n", "20", "--extent", "inf"], "extent"),
    # finite, but the scene's span overflows: rng.uniform raised OverflowError
    "generate_extent_overflows": (["generate", "--n", "50", "--extent", "1e308"], "extent"),
    "generate_noise_sigma_nan": (["generate", "--n", "20", "--noise-sigma", "nan"], "noise_sigma"),
    "generate_noise_sigma_inf": (["generate", "--n", "20", "--noise-sigma", "inf"], "noise_sigma"),
    "register_noise_sigma_nan": (["register", "--n", "20", "--noise-sigma", "nan"], "noise_sigma"),
    # finite, but its normal draws overflow: the target held +-inf
    "generate_noise_sigma_overflows": (["generate", "--n", "50", "--noise-sigma", "1e308"],
                                       "noise_sigma"),
}


@pytest.mark.parametrize("case", sorted(NON_FINITE_FLAGS))
def test_non_finite_float_flag_exits_2(case, tmp_path, capsys):
    argv, field = NON_FINITE_FLAGS[case]
    if argv[0] != "register":
        argv = argv + ["--out", str(tmp_path / "out")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and field in err


@pytest.mark.parametrize("scale", [1e154, 1e160])
def test_ransac_on_coordinates_whose_covariances_overflow_ends(scale, tmp_path):
    """Triples at 1e154 give infinite covariances, which could keep the SVD from
    returning; at 1e160 NaN ones, which made it raise. The child runs under a
    timeout, so a hang fails here instead of stalling the suite."""
    import os
    import subprocess
    import sys

    src = make_rng(5).uniform(-1.0, 1.0, size=(60, 3)) * scale  # target = source
    path = tmp_path / "pairs.csv"
    save_correspondences(path, CorrespondenceSet(src, src))
    package_dir = os.path.dirname(os.path.dirname(os.path.abspath(reglab.evaluate.__file__)))
    out = subprocess.run(
        [sys.executable, "-m", "reglab.cli", "register", "--input", str(path), "--method", "ransac"],
        capture_output=True, text=True, check=False, timeout=60,
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": package_dir, "PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert out.returncode in (0, 2, 3, 4), out.stderr
    assert "Traceback" not in out.stderr
    assert "overflow encountered" not in out.stderr


def ransac_on_coordinates_at_1e154(draw, tmp_path, capsys) -> dict:
    """reglab register's JSON for ransac on 60 pairs at 1e154 with target = source,
    after checking that it exits 3."""
    src = make_rng(draw).uniform(-1.0, 1.0, size=(60, 3)) * 1e154
    path = tmp_path / "pairs.csv"
    save_correspondences(path, CorrespondenceSet(src, src))
    assert main(["register", "--input", str(path), "--method", "ransac"]) == 3
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is False and "inlier_count" not in doc and "transform" not in doc
    return doc


def test_ransac_without_an_inlier_exits_3(tmp_path, capsys):
    """Target = source at 1e154: ransac's final fit has no inlier. This exited 0
    with "ok": true and "inlier_count": 0."""
    doc = ransac_on_coordinates_at_1e154(0, tmp_path, capsys)
    assert doc["reason"] == (
        "ransac: the best fit has fewer than 3 inliers at delta 0.1 (inliers: 0)")


@pytest.mark.parametrize("draw", [1, 5, 6])
def test_ransac_with_one_inlier_exits_3(draw, tmp_path, capsys):
    """On these draws the final fit kept 1 inlier, a pair whose residual rounds to
    exactly 0 under a translation of about 7e137, and this exited 0 with
    "ok": true and "inlier_count": 1."""
    doc = ransac_on_coordinates_at_1e154(draw, tmp_path, capsys)
    assert doc["reason"] == (
        "ransac: the best fit has fewer than 3 inliers at delta 0.1 (inliers: 1)")


@pytest.mark.parametrize("delta", ["1e-160", "1e-155"])
@pytest.mark.parametrize("method", ["oracle", "sm", "gpinet"])
def test_tiny_delta_exits_3_without_an_overflow_warning(method, delta):
    """At these deltas the consistency quotient gap^2 / delta^2 overflows and
    clamps to 0, so no pair is consistent with another and the method fails
    (exit 3). stderr carried numpy's "overflow encountered in divide"."""
    import os
    import subprocess
    import sys

    package_dir = os.path.dirname(os.path.dirname(os.path.abspath(reglab.evaluate.__file__)))
    out = subprocess.run(
        [sys.executable, "-m", "reglab.cli", "register", "--n", "50", "--delta", delta,
         "--method", method],
        capture_output=True, text=True, check=False, timeout=120,
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": package_dir, "PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert out.returncode == 3, out.stderr
    assert "overflow encountered" not in out.stderr
    assert "Warning" not in out.stderr


# -- oversized integer flags -------------------------------------------------------------

# Every size here is one numpy refuses without allocating (a dimension past
# int64, or an array past its byte range); never list a size numpy would
# try to allocate.
BEYOND_INT64 = "99999999999999999999"
ARRAY_TOO_BIG = str(2 ** 62)   # (2^62, 3) float64 or int64 entries
CHANNELS_2_70 = str(2 ** 70)   # divisible by 2^3, so only its size is wrong

OVERSIZED_FLAGS = {
    "generate_n": (["generate", "--n", BEYOND_INT64], "SceneConfig: n"),
    "generate_n_array_too_big": (["generate", "--n", ARRAY_TOO_BIG], "SceneConfig: n"),
    "register_n": (["register", "--method", "oracle", "--n", BEYOND_INT64], "SceneConfig: n"),
    "train_n": (["train", "--n", BEYOND_INT64], "SceneConfig: n"),
    "benchmark_n": (["benchmark", "--method", "oracle", "--trials", "1", "--n", BEYOND_INT64],
                    "SceneConfig: n"),
    "register_ransac_iterations": (
        ["register", "--method", "ransac", "--n", "50", "--ransac-iterations", BEYOND_INT64],
        "ransac: iterations"),
    "register_ransac_iterations_array_too_big": (
        ["register", "--method", "ransac", "--n", "50", "--ransac-iterations", ARRAY_TOO_BIG],
        "ransac: iterations"),
    "benchmark_ransac_iterations": (
        ["benchmark", "--method", "ransac", "--n", "20", "--trials", "1",
         "--ransac-iterations", BEYOND_INT64], "ransac: iterations"),
    "register_channels": (["register", "--method", "gpinet", "--n", "50",
                           "--channels", CHANNELS_2_70], "ModelConfig: channels"),
    "train_channels": (["train", "--n", "16", "--channels", CHANNELS_2_70],
                       "ModelConfig: channels"),
}


@pytest.mark.parametrize("case", sorted(OVERSIZED_FLAGS))
def test_oversized_count_flag_exits_2_naming_the_field(case, tmp_path, capsys):
    argv, field = OVERSIZED_FLAGS[case]
    if argv[0] != "register":
        argv = argv + ["--out", str(tmp_path / "out")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field} = ") and "GiB limit of one array" in err
    assert not (tmp_path / "out").exists()


def test_stdout_closed_by_its_reader_exits_141_without_a_traceback(tmp_path):
    """``reglab generate ... | head -1`` with head gone before the first write:
    the scene is still written, and the CLI exits 141 with nothing on stderr.
    The read end is closed before the child starts, so every write fails."""
    import os
    import subprocess
    import sys

    package_dir = os.path.dirname(os.path.dirname(os.path.abspath(reglab.evaluate.__file__)))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        out = subprocess.run(
            [sys.executable, "-m", "reglab.cli", "generate", "--n", "50", "--out", str(tmp_path)],
            stdout=write_end, stderr=subprocess.PIPE, text=True, check=False, timeout=120,
            env={"PATH": "/usr/bin:/bin", "PYTHONPATH": package_dir},
        )
    finally:
        os.close(write_end)
    assert (out.returncode, out.stderr) == (141, "")
    assert len(load_correspondences(tmp_path / "correspondences.csv")) == 50
