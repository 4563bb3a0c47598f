"""Command line interface.

Subcommands: generate, register, benchmark, ablate, train, report.
Exit codes: 0 success, 2 configuration error (argparse uses the same
code), 3 registration failure, 4 numeric fault.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .baselines import ransac, spectral_register
from .blocks import Ablation, GPINet, ModelConfig
from .errors import (
    ConfigurationError,
    ContractError,
    ConvergenceError,
    DegenerateInputError,
    NumericFault,
    RegistrationFailure,
    ShapeError,
    UninitializedStatsError,
)
from .evaluate import (
    METHODS,
    ExperimentConfig,
    TrainConfig,
    classification_metrics,
    derive_seed,
    run_experiment,
    train_toy,
    _MODEL_STREAM,
)
from .formats import (
    load_correspondences,
    load_ply_points,
    load_transform,
    read_text_file,
    save_correspondences,
    save_transform,
)
from .geometry import (
    CorrespondenceSet,
    registration_success,
    rotation_error,
    translation_error,
)
from .pipeline import RegistrationConfig, register
from .reports import FORMATS, emit_reports, merge_reports, report_from_json
from .synth import SceneConfig, generate

ABLATION_LADDER = ((), ("oi",), ("gfa",), ("dmg",), ("oi", "gfa", "dmg"))


def _print(doc: dict) -> None:
    print(json.dumps(doc, indent=1, sort_keys=True))


def _split(values: list[str] | None, cast, what: str) -> tuple:
    """Flatten repeatable, comma-separated flag values."""
    if not values:
        return ()
    out = []
    for chunk in values:
        for piece in chunk.split(","):
            piece = piece.strip()
            if not piece:
                continue
            try:
                out.append(cast(piece))
            except ValueError as exc:
                raise ConfigurationError(f"bad {what} value {piece!r}") from exc
    return tuple(out)


def _transform_doc(transform) -> dict:
    return {
        "rotation": [float(v) for v in transform.rotation.reshape(-1)],
        "translation": [float(v) for v in transform.translation],
    }


# -- subcommands -------------------------------------------------------------


def cmd_generate(args) -> int:
    cfg = SceneConfig(
        n=args.n,
        outlier_ratio=args.outlier_ratio,
        noise_sigma=args.noise_sigma,
        scene=args.scene,
        extent=args.extent,
        seed=args.seed,
    )
    c, gt = generate(cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    corr_path = out / "correspondences.csv"
    gt_path = out / "gt_transform.json"
    save_correspondences(corr_path, c)
    save_transform(gt_path, gt)
    _print(
        {
            "correspondences": str(corr_path),
            "gt_transform": str(gt_path),
            "n": cfg.n,
            "outliers": cfg.outlier_count,
            "scene": cfg.scene,
            "seed": cfg.seed,
        }
    )
    return 0


def _register_input(args) -> tuple[CorrespondenceSet, object | None]:
    """Resolve the correspondence set and optional ground truth."""
    if args.input is not None:
        c = load_correspondences(args.input)
        gt = load_transform(args.gt) if args.gt else None
        return c, gt
    if args.source_ply or args.target_ply:
        if not (args.source_ply and args.target_ply):
            raise ConfigurationError("PLY input needs both --source-ply and --target-ply")
        src = load_ply_points(args.source_ply)
        tgt = load_ply_points(args.target_ply)
        if src.shape[0] != tgt.shape[0]:
            raise ConfigurationError(
                f"PLY clouds pair by row index but have {src.shape[0]} vs "
                f"{tgt.shape[0]} vertices"
            )
        gt = load_transform(args.gt) if args.gt else None
        return CorrespondenceSet(src, tgt), gt
    c, gt = generate(
        SceneConfig(
            n=args.n,
            outlier_ratio=args.outlier_ratio,
            noise_sigma=args.noise_sigma,
            scene=args.scene,
            seed=args.seed,
        )
    )
    return c, gt


def cmd_register(args) -> int:
    c, gt = _register_input(args)
    reg_cfg = RegistrationConfig(
        scene=args.scene,
        delta=args.delta,
        ablation=Ablation.from_names(args.ablate or ()),
    )
    delta = reg_cfg.resolved_delta
    method = args.method

    doc: dict = {"method": method, "n": len(c), "delta": delta, "scene": args.scene}
    ok = True
    transform = None
    probs = None
    try:
        if method == "gpinet":
            if args.params:
                model = GPINet.load(args.params)
            else:
                model = GPINet(
                    ModelConfig(channels=args.channels, granularities=args.granularities),
                    seed=derive_seed(args.seed, _MODEL_STREAM),
                )
            result = register(c, reg_cfg, model=model)
        elif method == "oracle":
            if c.labels is None:
                raise ConfigurationError("--method oracle needs labeled correspondences")
            result = register(c, reg_cfg, probabilities=c.labels.astype(np.float64))
        elif method == "ransac":
            hyp = ransac(c, iterations=args.ransac_iterations, delta=delta, seed=args.seed)
            result = None
            transform, inliers = hyp.transform, hyp.inlier_count
            probs = np.zeros(len(c)); probs[hyp.consensus] = 1.0
            doc["inlier_count"] = inliers
        else:  # sm
            hyp, spectral = spectral_register(c, delta=delta)
            result = None
            transform, inliers = hyp.transform, hyp.inlier_count
            probs = np.zeros(len(c)); probs[hyp.consensus] = 1.0
            doc["inlier_count"] = inliers
            doc["spectral_iterations"] = spectral.iterations
        if result is not None:
            ok = result.ok
            doc["seed_count"] = result.seed_count
            doc["hypothesis_count"] = result.hypothesis_count
            probs = result.probabilities
            if result.ok:
                transform = result.hypothesis.transform
                doc["inlier_count"] = result.hypothesis.inlier_count
                doc["seed_index"] = result.hypothesis.seed_index
            else:
                doc["reason"] = result.reason
    except RegistrationFailure as exc:
        ok = False
        doc["reason"] = str(exc)

    doc["ok"] = ok
    if ok and transform is not None:
        doc["transform"] = _transform_doc(transform)
    if gt is not None and ok and transform is not None:
        re = rotation_error(gt, transform)
        te = translation_error(gt, transform)
        doc["re_deg"] = re
        doc["te_cm"] = te
        doc["success"] = registration_success(re, te, args.scene)
    if c.labels is not None and probs is not None:
        cm = classification_metrics(probs, c.labels)
        doc["precision"] = cm.precision
        doc["recall"] = cm.recall
        doc["f1"] = cm.f1
    _print(doc)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "result.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 3


def _experiment_config(args, methods: tuple[str, ...], ablation: Ablation, label: str) -> ExperimentConfig:
    return ExperimentConfig(
        methods=methods,
        n_values=_split(args.n, int, "--n") or (1000,),
        outlier_ratios=_split(args.outlier_ratio, float, "--outlier-ratio") or (0.6,),
        trials=args.trials,
        noise_sigma=args.noise_sigma,
        scene=args.scene,
        delta=args.delta,
        ransac_iterations=args.ransac_iterations,
        master_seed=args.seed,
        params_path=args.params,
        ablation=ablation,
        model_channels=args.channels,
        model_granularities=args.granularities,
        gpinet_label=label,
    )


def cmd_benchmark(args) -> int:
    methods = _split(args.method, str, "--method") or ("oracle", "ransac", "sm")
    cfg = _experiment_config(
        args, methods, Ablation.from_names(args.ablate or ()), "gpinet"
    )
    report = run_experiment(cfg)
    formats = _split(args.format, str, "--format") or FORMATS
    written = emit_reports(report, args.out, formats)
    _print(
        {
            "out": {name: str(path) for name, path in written.items()},
            "cells": len(report.cells),
            "trials": len(report.records),
        }
    )
    return 0


def cmd_ablate(args) -> int:
    if args.ablate:
        variants: tuple[tuple[str, ...], ...] = ((), tuple(args.ablate))
    else:
        variants = ABLATION_LADDER
    reports = []
    for off in variants:
        ablation = Ablation.from_names(off)
        label = "gpinet" if not off else "gpinet_" + ablation.tag()
        cfg = _experiment_config(args, ("gpinet",), ablation, label)
        reports.append(run_experiment(cfg))
    merged = merge_reports(reports)
    formats = _split(args.format, str, "--format") or FORMATS
    written = emit_reports(merged, args.out, formats)
    _print(
        {
            "out": {name: str(path) for name, path in written.items()},
            "variants": [("full" if not off else ",".join(off)) for off in variants],
        }
    )
    return 0


def cmd_train(args) -> int:
    cfg = TrainConfig(
        n=args.n,
        channels=args.channels,
        granularities=args.granularities,
        outlier_ratio=args.outlier_ratio,
        noise_sigma=args.noise_sigma,
        scene=args.scene,
        scene_pool=args.pool,
        iterations=args.iterations,
        learning_rate=args.learning_rate,
        seed=args.seed,
    )
    result = train_toy(cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    params_path = out / "params.json"
    loss_path = out / "loss.csv"
    result.model.save(params_path)
    lines = ["iteration,scene,loss"]
    lines += [f"{it},{scene},{loss!r}" for it, scene, loss in result.losses]
    loss_path.write_text("\n".join(lines) + "\n")
    _print(
        {
            "params": str(params_path),
            "loss_curve": str(loss_path),
            "iterations": cfg.iterations,
            "initial_pool_loss": result.initial_pool_loss,
            "final_pool_loss": result.final_pool_loss,
        }
    )
    return 0


def cmd_report(args) -> int:
    report = report_from_json(read_text_file(args.input))
    formats = _split(args.format, str, "--format") or FORMATS
    written = emit_reports(report, args.out, formats, include_timings=False)
    _print({"out": {name: str(path) for name, path in written.items()}})
    return 0


# -- parser -----------------------------------------------------------------


def _add_scene_flags(p: argparse.ArgumentParser, n_default: int = 1000) -> None:
    p.add_argument("--n", type=int, default=n_default, help="correspondence count")
    p.add_argument("--outlier-ratio", type=float, default=0.6)
    p.add_argument("--noise-sigma", type=float, default=0.01, help="meters")
    p.add_argument("--scene", choices=["indoor", "outdoor"], default="indoor")
    p.add_argument("--seed", type=int, default=0)


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--params", type=str, default=None, help="parameter JSON file")
    p.add_argument("--channels", type=int, default=32)
    p.add_argument("--granularities", type=int, default=3)
    p.add_argument(
        "--ablate",
        action="append",
        choices=["oi", "gfa", "dmg"],
        help="disable a block (repeatable)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reglab",
        description="Correspondence-based point cloud registration laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a synthetic labeled scene")
    _add_scene_flags(p)
    p.add_argument("--extent", type=float, default=None, help="half-width of the cube, meters")
    p.add_argument("--out", type=str, required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("register", help="register one correspondence set")
    _add_scene_flags(p)
    _add_model_flags(p)
    p.add_argument("--method", choices=list(METHODS), default="gpinet")
    p.add_argument("--delta", type=float, default=None, help="inlier radius, meters")
    p.add_argument("--input", type=str, default=None, help="correspondence CSV")
    p.add_argument("--gt", type=str, default=None, help="ground-truth transform JSON")
    p.add_argument("--source-ply", type=str, default=None)
    p.add_argument("--target-ply", type=str, default=None)
    p.add_argument("--ransac-iterations", type=int, default=1000)
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=cmd_register)

    for name, help_text in (
        ("benchmark", "sweep methods over synthetic scenes"),
        ("ablate", "sweep block-ablation variants of the network"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--method", action="append", help="repeatable or comma-separated")
        p.add_argument("--n", action="append", help="repeatable or comma-separated")
        p.add_argument("--outlier-ratio", action="append", help="repeatable or comma-separated")
        p.add_argument("--trials", type=int, default=10)
        p.add_argument("--noise-sigma", type=float, default=0.01)
        p.add_argument("--scene", choices=["indoor", "outdoor"], default="indoor")
        p.add_argument("--delta", type=float, default=None)
        p.add_argument("--seed", type=int, default=0, help="master seed")
        p.add_argument("--ransac-iterations", type=int, default=1000)
        _add_model_flags(p)
        p.add_argument("--out", type=str, required=True)
        p.add_argument("--format", action="append", help="csv,json,svg (repeatable)")
        p.set_defaults(func=cmd_benchmark if name == "benchmark" else cmd_ablate)

    p = sub.add_parser("train", help="toy gradient-descent training run")
    _add_scene_flags(p, n_default=256)
    p.add_argument("--channels", type=int, default=32)
    p.add_argument("--granularities", type=int, default=3)
    p.add_argument("--pool", type=int, default=4, help="scene pool size")
    p.add_argument("--iterations", type=int, default=200)
    p.add_argument("--learning-rate", type=float, default=0.2)
    p.add_argument("--out", type=str, required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("report", help="re-emit reports from a stored report.json")
    p.add_argument("--input", type=str, required=True)
    p.add_argument("--out", type=str, required=True)
    p.add_argument("--format", action="append", help="csv,json,svg (repeatable)")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (
        ConfigurationError,
        ContractError,
        ShapeError,
        DegenerateInputError,
        UninitializedStatsError,
        FileNotFoundError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RegistrationFailure as exc:
        print(f"registration failed: {exc}", file=sys.stderr)
        return 3
    except (NumericFault, ConvergenceError, FloatingPointError) as exc:
        print(f"numeric fault: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
