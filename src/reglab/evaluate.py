"""Experiment harness: metric sweeps over synthetic scenes, toy training.

Seeds are derived, not reused: every (n, outlier_ratio, trial) cell gets
``seed = SeedSequence((master_seed, n, round(ratio * 1e6), trial))``, so
cells are independently reproducible and all methods see identical
scenes. Method-internal randomness (RANSAC) draws from a parallel stream
tagged with a fixed constant.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .autodiff import no_grad
from .baselines import ransac, spectral_register
from .blocks import Ablation, GPINet, ModelConfig, bce_loss
from .errors import ConfigurationError, ContractError, NumericFault, RegistrationFailure
from .geometry import (
    CorrespondenceSet,
    RigidTransform,
    check_scene,
    registration_success,
    rotation_error,
    translation_error,
)
from .nn import sgd_step
from .pipeline import RegistrationConfig, register
from .synth import SceneConfig, generate

METHODS = ("gpinet", "ransac", "sm", "oracle")

_RANSAC_STREAM = 1000003   # tags the RANSAC seed stream within a trial
_MODEL_STREAM = 999331     # tags fresh-model initialization
_TRAIN_INIT_STREAM = 31337
_TRAIN_SCENE_STREAM = 77

THRESHOLD = 0.5  # a correspondence scored at or above this is a predicted inlier


def derive_seed(*parts: int) -> int:
    """Collapse integer parts into one 64-bit seed via SeedSequence."""
    ss = np.random.SeedSequence([int(p) for p in parts])
    return int(ss.generate_state(1, np.uint64)[0])


def ratio_key(ratio: float) -> int:
    return int(round(ratio * 1_000_000))


# -- classification metrics ----------------------------------------------------


@dataclass(frozen=True)
class ClassificationMetrics:
    """Inlier precision / recall / F1 at a probability threshold.

    A metric whose denominator is zero reports 0.0.
    """

    precision: float
    recall: float
    f1: float


def classification_metrics(
    probs: np.ndarray,
    labels: np.ndarray,
    threshold: float = THRESHOLD,
) -> ClassificationMetrics:
    probs = np.asarray(probs, dtype=np.float64).reshape(-1)
    labels = np.asarray(labels, dtype=bool).reshape(-1)
    if probs.shape != labels.shape:
        raise ContractError(
            f"classification_metrics: {probs.shape[0]} probabilities vs "
            f"{labels.shape[0]} labels"
        )
    predicted = probs >= threshold
    tp = int((predicted & labels).sum())
    fp = int((predicted & ~labels).sum())
    fn = int((~predicted & labels).sum())
    precision = tp / (tp + fp) if tp + fp > 0 else 0.0
    recall = tp / (tp + fn) if tp + fn > 0 else 0.0
    f1 = 2.0 * precision * recall / (precision + recall) if precision + recall > 0.0 else 0.0
    return ClassificationMetrics(precision, recall, f1)


# -- sweep configuration --------------------------------------------------------


@dataclass(frozen=True)
class ExperimentConfig:
    methods: tuple[str, ...] = ("oracle",)
    n_values: tuple[int, ...] = (1000,)
    outlier_ratios: tuple[float, ...] = (0.6,)
    trials: int = 10
    noise_sigma: float = 0.01
    scene: str = "indoor"
    delta: float | None = None
    ransac_iterations: int = 1000
    master_seed: int = 0
    params_path: str | None = None
    ablation: Ablation = field(default_factory=Ablation)
    model_channels: int = 32
    model_granularities: int = 3
    gpinet_label: str = "gpinet"

    def __post_init__(self):
        check_scene(self.scene)
        bad = sorted(set(self.methods) - set(METHODS))
        if bad:
            raise ConfigurationError(f"unknown methods {bad}, expected subset of {METHODS}")
        if not self.methods or not self.n_values or not self.outlier_ratios:
            raise ConfigurationError("methods, n_values and outlier_ratios must be non-empty")
        if self.trials < 1:
            raise ConfigurationError(f"trials must be >= 1, got {self.trials}")
        for n in self.n_values:
            if n < 4:
                raise ConfigurationError(f"n must be >= 4, got {n}")
        for r in self.outlier_ratios:
            if not (0.0 <= r <= 1.0):
                raise ConfigurationError(f"outlier_ratio must lie in [0, 1], got {r}")
        if self.ransac_iterations < 1:
            raise ConfigurationError(
                f"ransac_iterations must be >= 1, got {self.ransac_iterations}"
            )
        if self.params_path is not None and not Path(self.params_path).exists():
            raise ConfigurationError(
                f"parameter file does not exist: {self.params_path}"
            )
        _registration_config(self)  # rejects a bad delta before any scene is drawn

    def to_dict(self) -> dict:
        return {**asdict(self), "ablation": list(self.ablation.disabled()),
                "threshold": THRESHOLD}


@dataclass(frozen=True)
class TrialRecord:
    method: str
    n: int
    outlier_ratio: float
    trial: int
    scene_seed: int
    ok: bool
    success: bool
    re_deg: float | None
    te_cm: float | None
    precision: float
    recall: float
    f1: float
    inlier_count: int | None
    wall_time_s: float


@dataclass(frozen=True)
class CellAggregate:
    method: str
    n: int
    outlier_ratio: float
    trials: int
    successes: int
    rr_percent: float
    mean_re_deg: float | None   # over successful trials only
    mean_te_cm: float | None    # over successful trials only
    mean_precision: float
    mean_recall: float
    mean_f1: float


@dataclass(frozen=True)
class MetricsReport:
    config: dict
    records: tuple[TrialRecord, ...]
    cells: tuple[CellAggregate, ...]


def _registration_config(cfg: ExperimentConfig) -> RegistrationConfig:
    return RegistrationConfig(scene=cfg.scene, delta=cfg.delta, ablation=cfg.ablation)


def build_model(params_path: str | None, channels: int, granularities: int,
                seed: int) -> GPINet:
    """The network stored at ``params_path``, or a fresh one seeded from ``seed``."""
    if params_path is not None:
        return GPINet.load(params_path)
    config = ModelConfig(channels=channels, granularities=granularities)
    return GPINet(config, seed=derive_seed(seed, _MODEL_STREAM))


@dataclass(frozen=True)
class Solution:
    """One method's outcome on one correspondence set.

    ``probabilities`` is None when the method raised ``RegistrationFailure``
    (``reason`` then holds its message). ``details`` carries the
    method-specific counters: ``seed_count``, ``hypothesis_count`` and
    ``seed_index`` for the pipeline methods, ``spectral_iterations`` for sm.
    """

    ok: bool
    transform: RigidTransform | None
    probabilities: np.ndarray | None
    inlier_count: int | None
    reason: str | None = None
    details: dict = field(default_factory=dict)


def solve(
    method: str,
    c: CorrespondenceSet,
    reg_cfg: RegistrationConfig,
    model: GPINet | None = None,
    ransac_seed: int = 0,
    ransac_iterations: int = 1000,
) -> Solution:
    """Register ``c`` with one of ``METHODS``.

    oracle scores with the labels and gpinet with ``model``, both through
    the seed/consensus pipeline; ransac and sm are the classical baselines,
    whose probabilities are 1 on their consensus set and 0 elsewhere.
    """
    if method in ("oracle", "gpinet"):
        if method == "gpinet":
            result = register(c, reg_cfg, model=model)
        elif c.labels is None:
            raise ConfigurationError("oracle method needs labeled correspondences")
        else:
            result = register(c, reg_cfg, probabilities=c.labels.astype(np.float64))
        details = {"seed_count": result.seed_count, "hypothesis_count": result.hypothesis_count}
        hyp = result.hypothesis
        if hyp is None:
            return Solution(False, None, result.probabilities, None, result.reason, details)
        details["seed_index"] = hyp.seed_index
        return Solution(True, hyp.transform, result.probabilities, hyp.inlier_count,
                        details=details)

    delta = reg_cfg.resolved_delta
    details = {}
    try:
        if method == "ransac":
            hyp = ransac(c, iterations=ransac_iterations, delta=delta, seed=ransac_seed)
        elif method == "sm":
            hyp, spectral = spectral_register(c, delta=delta)
            details = {"spectral_iterations": spectral.iterations}
        else:
            raise ConfigurationError(f"unknown method {method!r}, expected one of {METHODS}")
    except RegistrationFailure as exc:
        return Solution(False, None, None, None, str(exc))
    probs = np.zeros(len(c))
    probs[hyp.consensus] = 1.0
    return Solution(True, hyp.transform, probs, hyp.inlier_count, details=details)


def grade(sol: Solution, c: CorrespondenceSet, gt: RigidTransform | None,
          scene: str) -> dict:
    """The paper's scores of one solution, each only where it is defined.

    ``re_deg``, ``te_cm`` and ``success`` (under the scene's gates) when the
    method found a transform and the ground truth ``gt`` is known;
    ``precision``, ``recall`` and ``f1`` at ``THRESHOLD`` when ``c`` is
    labeled and the method produced probabilities.
    """
    scores: dict = {}
    if sol.ok and gt is not None:
        re = rotation_error(gt, sol.transform)
        te = translation_error(gt, sol.transform)
        scores.update(re_deg=re, te_cm=te, success=registration_success(re, te, scene))
    if c.labels is not None and sol.probabilities is not None:
        scores.update(asdict(classification_metrics(sol.probabilities, c.labels)))
    return scores


# A trial's scores where grade defines none: a failed method scores as if
# every probability were 0.
_UNGRADED = {"success": False, "re_deg": None, "te_cm": None,
             "precision": 0.0, "recall": 0.0, "f1": 0.0}


def run_trial(
    method: str,
    c: CorrespondenceSet,
    gt: RigidTransform,
    cfg: ExperimentConfig,
    scene_seed: int,
    trial_tag: tuple[int, int, int],
    model: GPINet | None,
) -> TrialRecord:
    """Run one method on one scene and grade the outcome."""
    n, rkey, trial = trial_tag
    start = time.perf_counter()
    sol = solve(
        method, c, _registration_config(cfg), model,
        ransac_seed=derive_seed(cfg.master_seed, n, rkey, trial, _RANSAC_STREAM),
        ransac_iterations=cfg.ransac_iterations,
    )
    wall = time.perf_counter() - start
    return TrialRecord(
        method=cfg.gpinet_label if method == "gpinet" else method,
        n=n,
        outlier_ratio=rkey / 1_000_000,
        trial=trial,
        scene_seed=scene_seed,
        ok=sol.ok,
        inlier_count=sol.inlier_count,
        wall_time_s=wall,
        **{**_UNGRADED, **grade(sol, c, gt, cfg.scene)},
    )


def _aggregate(records: list[TrialRecord]) -> list[CellAggregate]:
    cells: dict[tuple, list[TrialRecord]] = {}
    for rec in records:
        cells.setdefault((rec.method, rec.n, rec.outlier_ratio), []).append(rec)
    out = []
    for (method, n, ratio), recs in cells.items():
        wins = [r for r in recs if r.success]
        out.append(
            CellAggregate(
                method=method,
                n=n,
                outlier_ratio=ratio,
                trials=len(recs),
                successes=len(wins),
                rr_percent=100.0 * len(wins) / len(recs),
                mean_re_deg=float(np.mean([r.re_deg for r in wins])) if wins else None,
                mean_te_cm=float(np.mean([r.te_cm for r in wins])) if wins else None,
                mean_precision=float(np.mean([r.precision for r in recs])),
                mean_recall=float(np.mean([r.recall for r in recs])),
                mean_f1=float(np.mean([r.f1 for r in recs])),
            )
        )
    return out


def run_experiment(cfg: ExperimentConfig) -> MetricsReport:
    """Sweep methods x n x outlier_ratio x trials over fresh scenes.

    Each (n, outlier_ratio, trial) scene is drawn once and handed to every
    method; records are listed method by method.
    """
    model = None
    if "gpinet" in cfg.methods:
        model = build_model(cfg.params_path, cfg.model_channels,
                            cfg.model_granularities, cfg.master_seed)
    per_method: list[list[TrialRecord]] = [[] for _ in cfg.methods]
    for n in cfg.n_values:
        for ratio in cfg.outlier_ratios:
            rkey = ratio_key(ratio)
            for trial in range(cfg.trials):
                scene_seed = derive_seed(cfg.master_seed, n, rkey, trial)
                c, gt = generate(
                    SceneConfig(
                        n=n,
                        outlier_ratio=ratio,
                        noise_sigma=cfg.noise_sigma,
                        scene=cfg.scene,
                        seed=scene_seed,
                    )
                )
                for method, recs in zip(cfg.methods, per_method):
                    recs.append(
                        run_trial(method, c, gt, cfg, scene_seed, (n, rkey, trial), model)
                    )
    records = [rec for recs in per_method for rec in recs]
    return MetricsReport(
        config=cfg.to_dict(),
        records=tuple(records),
        cells=tuple(_aggregate(records)),
    )


# -- toy training -----------------------------------------------------------------


@dataclass(frozen=True)
class TrainConfig:
    n: int = 256
    channels: int = 32
    granularities: int = 3
    outlier_ratio: float = 0.5
    noise_sigma: float = 0.01
    scene: str = "indoor"
    scene_pool: int = 4
    iterations: int = 200
    learning_rate: float = 0.2
    seed: int = 0

    def __post_init__(self):
        check_scene(self.scene)
        if self.n < 4:
            raise ConfigurationError(f"TrainConfig: n must be >= 4, got {self.n}")
        if self.scene_pool < 1:
            raise ConfigurationError(
                f"TrainConfig: scene_pool must be >= 1, got {self.scene_pool}"
            )
        if self.iterations < 0:
            raise ConfigurationError(
                f"TrainConfig: iterations must be >= 0, got {self.iterations}"
            )
        if not (np.isfinite(self.learning_rate) and self.learning_rate > 0.0):
            raise ConfigurationError(
                f"TrainConfig: learning_rate must be positive and finite, "
                f"got {self.learning_rate}"
            )


@dataclass(frozen=True)
class TrainResult:
    model: GPINet
    losses: tuple[tuple[int, int, float], ...]  # (iteration, scene index, loss)
    initial_pool_loss: float
    final_pool_loss: float


def _pool_loss(model: GPINet, pool) -> float:
    total = 0.0
    with no_grad():
        for c, _ in pool:
            probs, _ = model.forward(c, mode="frozen")
            total += float(bce_loss(probs, c.labels).value.reshape(()))
    return total / len(pool)


def train_toy(cfg: TrainConfig) -> TrainResult:
    """Plain gradient descent on mean BCE over a small scene pool.

    Scenes are visited round-robin, one gradient step per iteration.
    A non-finite loss aborts with ``NumericFault`` carrying the offending
    iteration; deterministic for a fixed seed.
    """
    model = GPINet(
        ModelConfig(channels=cfg.channels, granularities=cfg.granularities),
        seed=derive_seed(cfg.seed, _TRAIN_INIT_STREAM),
    )
    pool = [
        generate(
            SceneConfig(
                n=cfg.n,
                outlier_ratio=cfg.outlier_ratio,
                noise_sigma=cfg.noise_sigma,
                scene=cfg.scene,
                seed=derive_seed(cfg.seed, _TRAIN_SCENE_STREAM, i),
            )
        )
        for i in range(cfg.scene_pool)
    ]
    params = model.parameters()
    initial = _pool_loss(model, pool)
    losses: list[tuple[int, int, float]] = []
    for it in range(cfg.iterations):
        scene_idx = it % cfg.scene_pool
        c, _ = pool[scene_idx]
        probs, _ = model.forward(c, mode="train")
        loss = bce_loss(probs, c.labels)
        value = float(loss.value.reshape(()))
        if not np.isfinite(value):
            norms = {k: float(np.abs(t.value).max()) for k, t in params.items()}
            worst = max(norms, key=norms.get)
            raise NumericFault(
                f"train_toy: non-finite loss {value!r} at iteration {it} "
                f"(scene {scene_idx}); largest parameter {worst} "
                f"max|value| = {norms[worst]:.3e}"
            )
        loss.backward()
        sgd_step(params, cfg.learning_rate)
        losses.append((it, scene_idx, value))
    final = _pool_loss(model, pool)
    return TrainResult(
        model=model,
        losses=tuple(losses),
        initial_pool_loss=initial,
        final_pool_loss=final,
    )
