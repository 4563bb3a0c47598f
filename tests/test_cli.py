"""Command line interface: subcommands, artifacts, exit codes."""

import json

import numpy as np
import pytest

import reglab.evaluate
from reglab.autodiff import Tensor
from reglab.blocks import GPINet
from reglab.cli import main
from reglab.formats import load_correspondences, load_transform, save_correspondences
from reglab.geometry import CorrespondenceSet
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


@pytest.mark.parametrize("content", [None, b"\xff{}"], ids=["directory", "not_utf8"])
def test_report_unreadable_input_exits_2(content, tmp_path, capsys):
    bad = tmp_path / "report.json"
    write_input(bad, content)
    assert main(["report", "--input", str(bad), "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(bad) in err
