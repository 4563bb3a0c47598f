#!/usr/bin/env python3
"""reglab benchmark: registration latency per method, training throughput,
and a traced run that splits the time by layer.

Run from the repository root; the package is imported from ``src/``:

    python3 bench/run.py --workload register_small --seed 1 --seconds 35 --trace 0

Each workload is a closed loop with one client in one process. A scene goes
through gpinet, oracle, ransac and sm, in that order, and only the call into
reglab is timed. Every run also makes ``evaluate.train_toy`` calls with the
reference ``reglab train`` configuration. Times are in reference seconds
(see ``Reference``). With ``--trace 0`` the run measures for ``--seconds``
and reports the end-to-end metrics. With ``--trace 1`` it
runs a fixed list of work three times: untraced, traced, traced again. It
reports per-layer self times and counts from the first traced pass, and
checks that tracing changed no transform and that both traced passes give
the same counts.

The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``. The full record, with the
machine, the provenance and the tail percentiles, goes to
``bench/out/BENCH_<workload>_seed<seed>_trace<trace>.json``; a traced run
also writes its spans to ``bench/out/TRACE_<workload>_seed<seed>.json``.
"""

import time

T_START = time.perf_counter()

import argparse
import bisect
import itertools
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tracemalloc
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
LOAD_AT_START = os.getloadavg()

# Parameters from `reglab train` with every default (N=256, 32 channels,
# 3 levels, a pool of 4 scenes, 200 iterations, seed 0), run from the
# repository root on the package at the commit that added this benchmark.
MODEL_PATH = BENCH_DIR / "model" / "params.json"
MODEL_COMMAND = "PYTHONPATH=src python3 -m reglab.cli train --out bench/model"
MODEL_SHA256 = "417b87e6f5c300b2beeee2fda24dc0f5d002b44a7e747ce90a7ea83ff7b84270"

# One client on one thread, BLAS included. With two BLAS threads on a 2-CPU
# machine the timings spread far more from run to run, and any other busy
# process stalls OpenBLAS's spinning threads.
THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = THREADS

METHODS = ("gpinet", "oracle", "ransac", "sm")
RANSAC_ITERATIONS = 1000  # the CLI and harness default
SETUP_REPEATS = 5         # set-ups per run; setup_s is their median
TAIL_BEYOND = 10          # the tail is the highest percentile with this many samples above it
ROT_TOL = 1e-9
# About the median duration of the reference kernel on the 2-CPU Xeon
# (2.0 GHz) this benchmark was written on, so that reference seconds read
# close to wall seconds there.
REF_SECONDS = 1.0e-3
REF_EVERY_STEPS = 20      # during train_toy, the kernel is timed once per this many SGD steps
REF_NEIGHBOURS = 9        # kernel timings nearest to a call that give its scale
SCENE_TAG, RANSAC_TAG = 1, 2


@dataclass(frozen=True)
class Workload:
    scene: str
    n: int
    outlier_ratio: float
    pool: int                    # distinct scenes generated in set-up; the loop cycles through them
    scenes_per_train: int | None  # None: one train_toy call, then scenes until the time is up
    traced_scenes: int           # scenes in each pass of the traced run


WORKLOADS = {
    # Per-call Python overhead dominates; N x N work is cheap.
    "register_small": Workload("indoor", 250, 0.5, 400, None, 30),
    # N x N work (consistency matrices, attention, power iteration) and memory dominate.
    "register_large": Workload("outdoor", 2000, 0.8, 40, None, 4),
    # Training: forward with graph recording, backward, batch-norm statistics, SGD;
    # each trained model then registers held-out scenes of the training distribution.
    "train_toy": Workload("indoor", 256, 0.5, 60, 6, 6),
}


class Run:
    """Everything set-up produces: the package modules, the model and the scenes."""


def derive(seed: int, tag: int, index: int) -> int:
    import numpy as np

    return int(np.random.SeedSequence([seed, tag, index]).generate_state(1, np.uint64)[0])


def setup(workload: Workload, seed: int) -> Run:
    """Import reglab from src/, check and load the model, generate the scenes."""
    if not (SRC / "reglab" / "__init__.py").is_file():
        raise SystemExit(f"bench: no reglab package under {SRC}")
    sys.path.insert(0, str(SRC))
    import numpy as np

    import reglab
    from reglab import baselines, errors, evaluate, geometry, pipeline, synth
    from reglab.blocks import GPINet

    if Path(reglab.__file__).resolve().parent != SRC / "reglab":
        raise SystemExit(f"bench: reglab imported from {reglab.__file__}, not from {SRC}")
    digest = hashlib.sha256(MODEL_PATH.read_bytes()).hexdigest()
    if digest != MODEL_SHA256:
        raise SystemExit(f"bench: model sha256 {digest} != recorded {MODEL_SHA256}")

    run = Run()
    run.np, run.errors, run.evaluate, run.geometry = np, errors, evaluate, geometry
    run.pipeline, run.baselines, run.synth = pipeline, baselines, synth
    run.workload, run.seed = workload, seed
    run.model = GPINet.load(MODEL_PATH)
    run.cfg = pipeline.RegistrationConfig(scene=workload.scene)
    run.scenes = [generate_scene(run, i) for i in range(workload.pool)]
    run.reference = Reference(np)
    return run


def generate_scene(run: Run, i: int):
    w = run.workload
    return run.synth.generate(
        run.synth.SceneConfig(
            n=w.n, outlier_ratio=w.outlier_ratio, scene=w.scene,
            seed=derive(run.seed, SCENE_TAG, i),
        )
    )


class Reference:
    """A fixed mix of interpreter work and numpy calls that measures CPU speed.

    On a shared 2-CPU machine the speed of every operation, interpreted or
    numpy, swings by up to 1.8x for seconds to minutes at a time, which
    moves the medians of 35-second runs by 15-50% in wall seconds. Reported
    times are therefore in reference seconds: the measured seconds times
    REF_SECONDS over the median duration of this kernel, timed between the
    timed calls, near the call. The wall seconds are kept in the record.
    """

    def __init__(self, np):
        rng = np.random.default_rng(0)
        self.np = np
        self.log: list[tuple[float, float]] = []  # (midpoint, duration) of every timing
        self.small = rng.random((3, 3))
        self.square = rng.random((250, 250))
        self.thin = rng.random((250, 32))

    def seconds(self) -> float:
        np = self.np
        t0 = time.perf_counter()
        total = 0
        for i in range(2000):
            total += i * i
        for _ in range(30):
            np.linalg.svd(self.small)
        self.square @ self.thin
        np.exp(self.square)
        np.exp(self.square)
        t1 = time.perf_counter()
        self.log.append(((t0 + t1) / 2, t1 - t0))
        return t1 - t0

    def scale_at(self, t: float) -> float:
        """Reference seconds per wall second at time t, from the timings nearest to it."""
        i = bisect.bisect(self.log, (t,))
        near = self.log[max(0, i - REF_NEIGHBOURS // 2):i + REF_NEIGHBOURS // 2 + 1]
        return REF_SECONDS / statistics.median(d for _, d in near)

    def scale_between(self, t0: float, t1: float) -> float:
        """Reference seconds per wall second over the timings made between t0 and t1."""
        return REF_SECONDS / statistics.median(d for t, d in self.log if t0 <= t <= t1)

    def scale_now(self, repeats: int = 5) -> float:
        return REF_SECONDS / statistics.median(self.seconds() for _ in range(repeats))


def setup_seconds(workload_name: str, seed: int, repeats: int) -> list[tuple[float, float]]:
    """(wall seconds, scale) of set-ups in fresh interpreters."""
    out = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-only",
             "--workload", workload_name, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise SystemExit(f"bench: set-up child failed: {proc.stderr.strip()}")
        doc = json.loads(proc.stdout.strip().splitlines()[-1])
        out.append((doc["setup_s"], doc["scale"]))
    return out


# -- one unit of work ----------------------------------------------------------


class Tally:
    """Timings and outcomes of the calls made in one pass over the work."""

    def __init__(self):
        self.calls = {m: [] for m in METHODS}  # (wall seconds, midpoint) per call
        self.trains: list[tuple[float, float]] = []  # (wall seconds, midpoint) per train_toy call
        # (wall seconds, midpoint) of each run of REF_EVERY_STEPS steps, untraced runs only
        self.train_segments: list[tuple[float, float]] = []
        self.attempted = 0
        self.failed = 0
        self.succeeded = 0
        self.scenes = 0
        self.outputs: list[bytes] = []  # every returned transform, in call order
        self.problems: list[str] = []


def check_rotation(run: Run, rotation, where: str, tally: Tally) -> None:
    np = run.np
    ortho = float(np.abs(rotation.T @ rotation - np.eye(3)).max())
    det = float(np.linalg.det(rotation))
    if not (ortho <= ROT_TOL and abs(det - 1.0) <= ROT_TOL):
        tally.problems.append(f"{where}: rotation not orthonormal (|RtR-I|={ortho:.3e}, det={det!r})")


def call_method(run: Run, method: str, c, model, ransac_seed: int):
    """The timed call. Returns (transform or None, probabilities or None)."""
    if method == "gpinet":
        result = run.pipeline.register(c, run.cfg, model=model)
        return (result.hypothesis.transform if result.ok else None), result.probabilities
    if method == "oracle":
        labels = c.labels.astype(run.np.float64)
        result = run.pipeline.register(c, run.cfg, probabilities=labels)
        return (result.hypothesis.transform if result.ok else None), None
    delta = run.cfg.resolved_delta
    if method == "ransac":
        hyp = run.baselines.ransac(c, iterations=RANSAC_ITERATIONS, delta=delta, seed=ransac_seed)
    else:
        hyp, _ = run.baselines.spectral_register(c, delta)
    return hyp.transform, None


def run_scene(run: Run, i: int, model, tally: Tally, tracer) -> None:
    np, geometry = run.np, run.geometry
    c, gt = run.scenes[i % len(run.scenes)]
    ransac_seed = derive(run.seed, RANSAC_TAG, i)
    run.reference.seconds()
    for method in METHODS:
        where = f"scene {i} {method}"
        tally.attempted += 1
        t0 = time.perf_counter()
        try:
            with tracer.span(method):
                transform, probs = call_method(run, method, c, model, ransac_seed)
        except run.errors.RegLabError:
            transform, probs = None, None
        t1 = time.perf_counter()
        tally.calls[method].append((t1 - t0, (t0 + t1) / 2))
        run.reference.seconds()
        if probs is not None and not (np.all(np.isfinite(probs)) and probs.min() >= 0.0 and probs.max() <= 1.0):
            tally.problems.append(f"{where}: probabilities not finite or outside [0, 1]")
        if transform is None:
            tally.failed += 1
            tally.outputs.append(b"none")
            if method == "oracle":
                tally.problems.append(f"{where}: oracle returned no transform")
            continue
        check_rotation(run, transform.rotation, where, tally)
        tally.outputs.append(transform.rotation.tobytes() + transform.translation.tobytes())
        re = geometry.rotation_error(gt, transform)
        te = geometry.translation_error(gt, transform)
        ok = geometry.registration_success(re, te, run.workload.scene)
        tally.succeeded += ok
        if method == "oracle" and not ok:
            tally.problems.append(f"{where}: oracle registration failed (RE {re:.3g} deg, TE {te:.3g} cm)")
    tally.scenes += 1


def run_train(run: Run, k: int, tally: Tally, tracer):
    cfg = run.evaluate.TrainConfig()  # the reference configuration, as in acceptance criterion 9
    tally.attempted += 1
    run.reference.seconds()
    sampled = 0.0
    step = getattr(run.evaluate, "sgd_step", None)
    steps = itertools.count(1)
    segment_start = None

    def sampling_step(*args, **kwargs):
        # A training call lasts seconds: time it in segments of REF_EVERY_STEPS
        # steps, with the kernel timed between them, out of the segments' time.
        nonlocal sampled, segment_start
        out = step(*args, **kwargs)
        if next(steps) % REF_EVERY_STEPS == 0:
            t = time.perf_counter()
            if segment_start is not None:
                tally.train_segments.append((t - segment_start, (t + segment_start) / 2))
            run.reference.seconds()
            segment_start = time.perf_counter()
            sampled += segment_start - t
        return out

    sample = tracer is NoTrace and step is not None
    if sample:
        run.evaluate.sgd_step = sampling_step
    t0 = time.perf_counter()
    try:
        with tracer.span("train"):
            result = run.evaluate.train_toy(cfg)
    finally:
        if sample:
            run.evaluate.sgd_step = step
    t1 = time.perf_counter()
    run.reference.seconds()
    tally.trains.append((t1 - t0 - sampled, (t0 + t1) / 2))
    if not result.final_pool_loss < 0.5 * result.initial_pool_loss:
        tally.problems.append(
            f"train {k}: final pool loss {result.final_pool_loss:.4g} is not below half "
            f"the initial {result.initial_pool_loss:.4g}"
        )
    return result.model


def schedule(workload: Workload):
    """The workload's work as an endless sequence of ("train", k) / ("scene", i)."""
    i = 0
    for k in itertools.count():
        yield "train", k
        while workload.scenes_per_train is None or i < (k + 1) * workload.scenes_per_train:
            yield "scene", i
            i += 1


def do_work(run: Run, items, tally: Tally, tracer, deadline=None) -> None:
    """Run the items in order; with a deadline, stop at the first one due after it."""
    own_model = run.workload.scenes_per_train is not None
    model = run.model
    for kind, index in items:
        if deadline is not None and time.perf_counter() >= deadline and tally.scenes:
            break
        if kind == "train":
            trained = run_train(run, index, tally, tracer)
            model = trained if own_model else run.model
        else:
            run_scene(run, index, model, tally, tracer)


class NoTrace:
    """Stand-in tracer for untraced passes: no spans, no wrappers."""

    @staticmethod
    def span(name):
        return nullcontext()


# -- metrics -------------------------------------------------------------------


def percentile_tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples) of the highest percentile with TAIL_BEYOND samples above it."""
    ordered = sorted(values)
    n = len(ordered)
    k = n - TAIL_BEYOND if n > TAIL_BEYOND else n  # 1-based rank; too few samples: the maximum
    return ordered[k - 1], 100.0 * k / n, n


def end_to_end(tally: Tally, setups: list[tuple[float, float]], reference=None):
    """End-to-end metrics in reference seconds, or in wall seconds without a ``reference``."""
    def seconds(samples, scaled=False):
        if reference is None:
            return [wall for wall, _ in samples]
        if scaled:
            return [wall * scale for wall, scale in samples]
        return [wall * reference.scale_at(t) for wall, t in samples]

    metrics = {"setup_s": (statistics.median(seconds(setups, scaled=True)), "s")}
    tails = {}
    for method in METHODS:
        times = seconds(tally.calls[method])
        metrics[f"{method}.register_s_p50"] = (statistics.median(times), "s")
        value, pct, n = percentile_tail(times)
        metrics[f"{method}.register_s_tail"] = (value, "s")
        tails[method] = {"percentile": pct, "samples": n}
    per_scene = [sum(t) for t in zip(*(seconds(tally.calls[m]) for m in METHODS))]
    registrations = tally.scenes * len(METHODS)
    metrics["scenes_per_s"] = (len(per_scene) / sum(per_scene), "1/s")
    metrics["recall_pct"] = (100.0 * tally.succeeded / registrations, "%")
    metrics["failed_frac"] = (tally.failed / tally.attempted, "fraction")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6, "MB")
    segments = seconds(tally.train_segments)
    metrics["train.steps_per_s"] = (REF_EVERY_STEPS * len(segments) / sum(segments), "1/s")
    return metrics, tails


def install_wraps(tracer) -> set[str]:
    """Wrap the public calls of each layer; returns the span names that have a target."""
    def forward_name(args, kwargs):
        mode = kwargs.get("mode", args[3] if len(args) > 3 else "frozen")
        # A training forward is one opaque span: its blocks are not split out.
        return ("autodiff.forward_train", True) if mode == "train" else ("blocks.forward", False)

    def timings(args, kwargs, out):
        return {"timings": out.timings, "seeds": out.seed_count, "hypotheses": out.hypothesis_count}

    wraps = [
        ("reglab.synth.generate", "synth.generate", None),
        ("reglab.blocks.GPINet.predict", "blocks.predict", None),
        ("reglab.blocks.GPINet.forward", forward_name, None),
        ("reglab.blocks.ContextualEmbedding.__call__", "blocks.embedding", None),
        ("reglab.blocks.OrthogonalIntegration.__call__", "blocks.oi", None),
        ("reglab.blocks.GestaltAttention.__call__", "blocks.gfa", None),
        ("reglab.blocks.MultiGranularityMixer.__call__", "blocks.dmg", None),
        ("reglab.blocks.ClassificationHead.__call__", "blocks.head", None),
        ("reglab.autodiff.Tensor.backward", "autodiff.backward", None),
        ("reglab.nn.sgd_step", "nn.sgd_step", None),
        ("reglab.kernels.consistency_matrix", "kernels.consistency_matrix", lambda a, k, o: o.size * 8),
        ("reglab.kernels.consistency_matrix_reference", "kernels.consistency_matrix",
         lambda a, k, o: o.size * 8),
        ("reglab.kernels.consistency_row", "kernels.consistency_row", None),
        ("reglab.kernels.ransac_scan", "kernels.ransac_scan", lambda a, k, o: len(a[2])),
        ("reglab.pipeline.register", "pipeline.register", timings),
        ("reglab.pipeline.select_seeds", "pipeline.select_seeds", None),
        ("reglab.pipeline.build_consensus", "pipeline.build_consensus", lambda a, k, o: o.size),
        ("reglab.pipeline.two_stage_estimate", "pipeline.two_stage_estimate", lambda a, k, o: o is None),
        ("reglab.geometry.weighted_kabsch", "geometry.weighted_kabsch", None),
        ("reglab.geometry.residuals", "geometry.residual_pass", None),
        ("reglab.geometry.inlier_mask", "geometry.residual_pass", None),
        ("reglab.geometry.count_inliers", "geometry.residual_pass", None),
        ("reglab.geometry.select_best_transform", "geometry.select_best_transform", None),
        ("reglab.baselines.ransac", "baselines.ransac", None),
        ("reglab.baselines.power_iteration", "baselines.power_iteration", lambda a, k, o: o[2]),
        ("reglab.baselines.spectral_register", "baselines.spectral_register",
         lambda a, k, o: o[1].selected.size),
    ]
    installed = set()
    for path, name, info in wraps:
        if tracer.wrap(path, name, info):
            installed.add(name if isinstance(name, str) else "autodiff.forward_train")
    return installed


# Per-layer metric -> (unit, span names it reads). A metric that reads a span
# whose every target is gone from the package is reported as absent.
PER_LAYER = {
    "synth.generate_s": ("s", ["synth.generate"]),
    "blocks.embedding_s": ("s", ["blocks.embedding"]),
    "blocks.oi_s": ("s", ["blocks.oi"]),
    "blocks.gfa_s": ("s", ["blocks.gfa"]),
    "blocks.dmg_s": ("s", ["blocks.dmg"]),
    "blocks.head_s": ("s", ["blocks.head"]),
    "blocks.predict_peak_mb": ("MB", ["blocks.predict"]),
    "autodiff.forward_train_s": ("s", ["autodiff.forward_train"]),
    "autodiff.backward_s": ("s", ["autodiff.backward"]),
    "nn.sgd_step_s": ("s", ["nn.sgd_step"]),
    "kernels.consistency_matrix_s": ("s", ["kernels.consistency_matrix"]),
    "kernels.consistency_matrix_calls": ("count", ["kernels.consistency_matrix"]),
    "kernels.consistency_matrix_mb_computed": ("MB", ["kernels.consistency_matrix"]),
    "kernels.consistency_row_s": ("s", ["kernels.consistency_row"]),
    "kernels.consistency_row_calls": ("count", ["kernels.consistency_row"]),
    "kernels.ransac_scan_s": ("s", ["kernels.ransac_scan"]),
    "kernels.ransac_samples_per_s": ("1/s", ["kernels.ransac_scan"]),
    "pipeline.score_s": ("s", ["pipeline.register"]),
    "pipeline.hypotheses_s": ("s", ["pipeline.register"]),
    "pipeline.select_s": ("s", ["pipeline.register"]),
    "pipeline.select_seeds_s": ("s", ["pipeline.select_seeds"]),
    "pipeline.build_consensus_s": ("s", ["pipeline.build_consensus"]),
    "pipeline.two_stage_estimate_s": ("s", ["pipeline.two_stage_estimate"]),
    "pipeline.unattributed_s": ("s", ["pipeline.register"]),
    "pipeline.seeds": ("count", ["pipeline.register"]),
    "pipeline.hypotheses": ("count", ["pipeline.register"]),
    "pipeline.degenerate_seeds": ("count", ["pipeline.two_stage_estimate"]),
    "pipeline.consensus_size_mean": ("count", ["pipeline.build_consensus"]),
    "pipeline.hypotheses_per_seed": ("count", ["pipeline.register"]),
    "geometry.weighted_kabsch_calls": ("count", ["geometry.weighted_kabsch"]),
    "geometry.weighted_kabsch_s": ("s", ["geometry.weighted_kabsch"]),
    "geometry.residual_passes": ("count", ["geometry.residual_pass"]),
    "geometry.residual_pass_s": ("s", ["geometry.residual_pass"]),
    "geometry.select_best_transform_s": ("s", ["geometry.select_best_transform"]),
    "baselines.power_iteration_s": ("s", ["baselines.power_iteration"]),
    "baselines.power_iterations": ("count", ["baselines.power_iteration"]),
    "baselines.sm_selected": ("count", ["baselines.spectral_register"]),
    "baselines.ransac_refit_s": ("s", ["baselines.ransac", "kernels.ransac_scan"]),
    "trace.overhead_s": ("s", []),
    "trace.overhead_pct": ("%", []),
}


def per_layer(tracer, scenes: int) -> dict:
    """Per-layer values from one traced pass.

    Registration metrics are per scene (all four methods); blocks are per
    ``predict`` call; training metrics are per SGD step; pipeline counts are
    per ``register`` call; baseline counts are per call.
    """
    reg = tracer.summary(set(METHODS))
    train = tracer.summary({"train"})
    gen = tracer.summary({"synth.generate"})["synth.generate"]

    def ratio(num, den):
        return num / den if den else 0.0

    def per_scene(name, key="self_s"):
        return reg[name][key] / scenes

    def mean_info(name):
        return ratio(sum(reg[name]["info"]), len(reg[name]["info"]))

    predicts = reg["blocks.predict"]["calls"]
    steps = train["nn.sgd_step"]["calls"]
    regs = reg["pipeline.register"]
    seeds = sum(i["seeds"] for i in regs["info"])
    hyps = sum(i["hypotheses"] for i in regs["info"])
    values = {
        "synth.generate_s": ratio(gen["self_s"], gen["calls"]),
        "autodiff.forward_train_s": ratio(train["autodiff.forward_train"]["self_s"], steps),
        "autodiff.backward_s": ratio(train["autodiff.backward"]["self_s"], steps),
        "nn.sgd_step_s": ratio(train["nn.sgd_step"]["self_s"], steps),
        "kernels.consistency_matrix_s": per_scene("kernels.consistency_matrix"),
        "kernels.consistency_matrix_calls": per_scene("kernels.consistency_matrix", "calls"),
        "kernels.consistency_matrix_mb_computed":
            sum(reg["kernels.consistency_matrix"]["info"]) / 1e6 / scenes,
        "kernels.consistency_row_s": per_scene("kernels.consistency_row"),
        "kernels.consistency_row_calls": per_scene("kernels.consistency_row", "calls"),
        "kernels.ransac_scan_s": per_scene("kernels.ransac_scan"),
        "kernels.ransac_samples_per_s": ratio(sum(reg["kernels.ransac_scan"]["info"]),
                                              reg["kernels.ransac_scan"]["self_s"]),
        "pipeline.select_seeds_s": per_scene("pipeline.select_seeds"),
        "pipeline.build_consensus_s": per_scene("pipeline.build_consensus"),
        "pipeline.two_stage_estimate_s": per_scene("pipeline.two_stage_estimate"),
        "pipeline.unattributed_s": per_scene("pipeline.register"),
        "pipeline.seeds": ratio(seeds, regs["calls"]),
        "pipeline.hypotheses": ratio(hyps, regs["calls"]),
        "pipeline.degenerate_seeds": ratio(sum(reg["pipeline.two_stage_estimate"]["info"]),
                                           regs["calls"]),
        "pipeline.consensus_size_mean": mean_info("pipeline.build_consensus"),
        "pipeline.hypotheses_per_seed": ratio(hyps, seeds),
        "geometry.weighted_kabsch_calls": per_scene("geometry.weighted_kabsch", "calls"),
        "geometry.weighted_kabsch_s": per_scene("geometry.weighted_kabsch"),
        "geometry.residual_passes": per_scene("geometry.residual_pass", "calls"),
        "geometry.residual_pass_s": per_scene("geometry.residual_pass"),
        "geometry.select_best_transform_s": per_scene("geometry.select_best_transform"),
        "baselines.power_iteration_s": per_scene("baselines.power_iteration"),
        "baselines.power_iterations": mean_info("baselines.power_iteration"),
        "baselines.sm_selected": mean_info("baselines.spectral_register"),
        # Everything in ransac besides the scan: sampling, the refit and its inlier passes.
        "baselines.ransac_refit_s": per_scene("baselines.ransac", "total_s")
        - per_scene("kernels.ransac_scan", "total_s"),
    }
    for block in ("embedding", "oi", "gfa", "dmg", "head"):
        values[f"blocks.{block}_s"] = ratio(reg[f"blocks.{block}"]["self_s"], predicts)
    for stage in ("score", "hypotheses", "select"):
        values[f"pipeline.{stage}_s"] = sum(i["timings"][f"{stage}_s"] for i in regs["info"]) / scenes
    return values


def measured_seconds(tally: Tally, reference: Reference) -> float:
    """Total time of the timed calls of one pass, in reference seconds."""
    calls = tally.trains + [sample for method in METHODS for sample in tally.calls[method]]
    return sum(wall * reference.scale_at(t) for wall, t in calls)


def traced(run: Run) -> tuple[dict, Tally, list[str], dict]:
    """Untraced, traced and traced-again passes over one fixed work list."""
    from tracing import Tracer

    w = run.workload
    items = [("train", 0)] + [("scene", i) for i in range(w.traced_scenes)]
    scenes = w.traced_scenes
    problems: list[str] = []

    untraced = Tally()
    do_work(run, items, untraced, NoTrace)

    tracer = Tracer()
    installed = install_wraps(tracer)
    passes = []
    try:
        for _ in range(2):
            tracer.clear()
            tally = Tally()
            tracer.enabled = True
            t0 = time.perf_counter()
            regenerated = [generate_scene(run, i) for i in range(scenes)]
            do_work(run, items, tally, tracer)
            scale = run.reference.scale_between(t0, time.perf_counter())
            tracer.enabled = False
            for i, (c, _) in enumerate(regenerated):
                if not run.np.array_equal(c.target, run.scenes[i][0].target):
                    problems.append(f"traced synth.generate changed scene {i}")
            passes.append((per_layer(tracer, scenes), tally, scale, tracer.dump()))
    finally:
        tracer.restore()

    values, tally, scale, spans = passes[0]
    if tally.outputs != untraced.outputs or tally.succeeded != untraced.succeeded:
        problems.append("tracing changed a returned transform or the recall")
    again = passes[1][0]
    for key, (unit, _) in PER_LAYER.items():
        if unit == "count" and values[key] != again[key]:
            problems.append(f"count {key} differs between traced passes: {values[key]} vs {again[key]}")

    # Times in reference seconds, as for the end-to-end metrics.
    for key, (unit, _) in PER_LAYER.items():
        if unit == "s" and key in values:
            values[key] *= scale
        elif unit == "1/s":
            values[key] /= scale
    untraced_s = measured_seconds(untraced, run.reference)
    overhead = measured_seconds(tally, run.reference) - untraced_s
    values["trace.overhead_s"] = overhead
    values["trace.overhead_pct"] = 100.0 * overhead / untraced_s

    c0, _ = run.scenes[0]
    tracemalloc.start()
    base = tracemalloc.get_traced_memory()[0]
    run.model.predict(c0)
    values["blocks.predict_peak_mb"] = (tracemalloc.get_traced_memory()[1] - base) / 1e6
    tracemalloc.stop()

    metrics = {
        key: (values[key], unit)
        for key, (unit, sources) in PER_LAYER.items()
        if all(src in installed for src in sources)
    }
    return metrics, tally, problems + untraced.problems, {"spans": spans, "missing": tracer.missing}


# -- provenance and output -------------------------------------------------------


def provenance(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():  # a checkout that is not a repository records no commit
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    src_digest = hashlib.sha256()
    for path in sorted((SRC / "reglab").glob("*.py")):
        src_digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"), "threads": int(THREADS)},
        "load_average_at_start": list(LOAD_AT_START),
        "git_commit": commit,
        "src_sha256": src_digest.hexdigest(),
        "workload_seed": seed,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    workload = WORKLOADS[args.workload]

    run = setup(workload, args.seed)
    setup_s = time.perf_counter() - T_START
    setup_scale = run.reference.scale_now()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "scale": setup_scale}))
        return 0

    extra = {}
    if args.trace:
        named, tally, problems, trace_doc = traced(run)
        tails = {}
    else:
        setups = [(setup_s, setup_scale)] + setup_seconds(args.workload, args.seed, SETUP_REPEATS - 1)
        tally = Tally()
        deadline = time.perf_counter() + args.seconds
        do_work(run, schedule(workload), tally, NoTrace, deadline)
        named, tails = end_to_end(tally, setups, run.reference)
        wall, _ = end_to_end(tally, setups)
        problems = tally.problems
        extra["wall_metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in wall.items()}
        extra["samples"] = {"setup": setups, "train": tally.train_segments, **tally.calls,
                            "reference": run.reference.log}

    correct = not problems
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}_seed{args.seed}"
    if args.trace:
        (OUT_DIR / f"TRACE_{stem}.json").write_text(json.dumps(trace_doc))
        extra["absent_targets"] = trace_doc["missing"]
    record = {
        "workload": args.workload,
        "workload_config": workload.__dict__,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": correct,
        "problems": problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
        "tails": tails,
        "model": {"path": str(MODEL_PATH.relative_to(ROOT)), "sha256": MODEL_SHA256,
                  "command": MODEL_COMMAND},
        "provenance": provenance(args.seed),
        **extra,
    }
    (OUT_DIR / f"BENCH_{stem}_trace{args.trace}.json").write_text(json.dumps(record, indent=1))

    for name, (value, unit) in named.items():
        tail = tails.get(name.split(".")[0]) if name.endswith("_tail") else None
        note = f"  (p{tail['percentile']:.1f} of {tail['samples']})" if tail else ""
        print(f"{name:42s} {value:.6g} {unit}{note}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    reported = {k: {"value": v, "unit": u} for k, (v, u) in named.items() if k != "failed_frac"}
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": reported}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
