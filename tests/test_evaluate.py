"""Experiment harness: seed derivation, metrics, sweeps, toy training."""

import json
from dataclasses import fields

import numpy as np
import pytest

import reglab.evaluate as evaluate
from reglab.autodiff import Tensor
from reglab.blocks import GPINet, ModelConfig
from reglab.errors import ConfigurationError, ContractError, NumericFault
from reglab.evaluate import (
    METHODS,
    ClassificationMetrics,
    ExperimentConfig,
    TrainConfig,
    classification_metrics,
    derive_seed,
    ratio_key,
    run_experiment,
    build_model,
    run_trial,
    solve,
    train_toy,
)
from reglab.geometry import CorrespondenceSet, RigidTransform, count_inliers
from reglab.pipeline import RegistrationConfig
from reglab.synth import SceneConfig, generate


def test_methods_tuple():
    assert METHODS == ("gpinet", "ransac", "sm", "oracle")


def test_derive_seed_is_deterministic_and_sensitive():
    assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)
    assert derive_seed(1, 2, 3) != derive_seed(1, 2, 4)
    assert derive_seed(1, 2, 3) != derive_seed(3, 2, 1)
    assert 0 <= derive_seed(0) < 2**64


def test_ratio_key_rounding():
    assert ratio_key(0.6) == 600_000
    assert ratio_key(0.0) == 0
    assert ratio_key(1.0) == 1_000_000
    assert ratio_key(0.3) == 300_000  # despite 0.3 being inexact in binary
    assert ratio_key(0.123456) == 123_456


# -- classification metrics ------------------------------------------------------


def test_classification_metrics_perfect():
    labels = np.array([True, False, True, False])
    probs = np.array([0.9, 0.1, 0.8, 0.2])
    m = classification_metrics(probs, labels)
    assert m == ClassificationMetrics(1.0, 1.0, 1.0)


def test_classification_metrics_threshold_is_inclusive():
    labels = np.array([True, False])
    m = classification_metrics(np.array([0.5, 0.49]), labels, threshold=0.5)
    assert m.recall == 1.0 and m.precision == 1.0


def test_classification_metrics_zero_denominators():
    none_predicted = classification_metrics(np.zeros(4), np.array([True] * 4))
    assert none_predicted == ClassificationMetrics(0.0, 0.0, 0.0)

    no_positives = classification_metrics(np.zeros(4), np.zeros(4, dtype=bool))
    assert no_positives == ClassificationMetrics(0.0, 0.0, 0.0)

    all_wrong = classification_metrics(np.ones(4), np.zeros(4, dtype=bool))
    assert all_wrong == ClassificationMetrics(0.0, 0.0, 0.0)


@pytest.mark.parametrize("seed", range(5))
def test_classification_metrics_matches_loop_oracle(seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    probs = rng.random(60)
    labels = rng.random(60) < 0.5
    got = classification_metrics(probs, labels, threshold=0.4)

    tp = fp = fn = 0
    for p, y in zip(probs, labels):
        pred = p >= 0.4
        tp += pred and y
        fp += pred and not y
        fn += (not pred) and y
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    assert abs(got.precision - precision) < 1e-12
    assert abs(got.recall - recall) < 1e-12
    assert abs(got.f1 - f1) < 1e-12


def test_classification_metrics_shape_mismatch():
    with pytest.raises(ContractError):
        classification_metrics(np.ones(3), np.ones(4, dtype=bool))


# -- experiment configuration ------------------------------------------------------


def test_experiment_config_validation(tmp_path):
    with pytest.raises(ConfigurationError):
        ExperimentConfig(methods=("warp",))
    with pytest.raises(ConfigurationError):
        ExperimentConfig(methods=())
    with pytest.raises(ConfigurationError):
        ExperimentConfig(n_values=())
    with pytest.raises(ConfigurationError):
        ExperimentConfig(trials=0)
    with pytest.raises(ConfigurationError):
        ExperimentConfig(n_values=(3,))
    with pytest.raises(ConfigurationError):
        ExperimentConfig(outlier_ratios=(1.5,))
    with pytest.raises(ConfigurationError):
        ExperimentConfig(ransac_iterations=0)
    with pytest.raises(ConfigurationError):
        ExperimentConfig(params_path=str(tmp_path / "missing.json"))
    existing = tmp_path / "params.json"
    existing.write_text("{}")
    ExperimentConfig(params_path=str(existing))  # existence is all that's checked here


def test_experiment_config_to_dict_round_trips_values():
    cfg = ExperimentConfig(methods=("oracle", "ransac"), n_values=(100,), trials=2)
    doc = json.loads(json.dumps(cfg.to_dict()))  # as report.json holds it
    assert doc["methods"] == ["oracle", "ransac"]
    assert doc["n_values"] == [100]
    assert doc["trials"] == 2
    assert doc["ablation"] == []
    assert doc["threshold"] == evaluate.THRESHOLD == 0.5
    assert set(doc) == {f.name for f in fields(ExperimentConfig)} | {"threshold"}


# -- single trials ------------------------------------------------------------------


def scene_for(cfg: ExperimentConfig, n: int, ratio: float, trial: int):
    seed = derive_seed(cfg.master_seed, n, ratio_key(ratio), trial)
    c, gt = generate(
        SceneConfig(n=n, outlier_ratio=ratio, noise_sigma=cfg.noise_sigma, seed=seed)
    )
    return c, gt, seed


def test_run_trial_oracle_fields():
    cfg = ExperimentConfig(methods=("oracle",), n_values=(150,), outlier_ratios=(0.4,), trials=1)
    c, gt, seed = scene_for(cfg, 150, 0.4, 0)
    rec = run_trial("oracle", c, gt, cfg, seed, (150, ratio_key(0.4), 0), None)
    assert rec.method == "oracle"
    assert rec.n == 150 and rec.outlier_ratio == 0.4 and rec.trial == 0
    assert rec.scene_seed == seed
    assert rec.ok and rec.success
    assert rec.re_deg < 1.0 and rec.te_cm < 3.0
    assert rec.precision == 1.0 and rec.recall == 1.0 and rec.f1 == 1.0
    assert rec.inlier_count >= 80
    assert rec.wall_time_s >= 0.0


def test_run_trial_ransac_and_sm_fields():
    cfg = ExperimentConfig(
        methods=("ransac", "sm"), n_values=(150,), outlier_ratios=(0.4,), trials=1,
        ransac_iterations=300,
    )
    c, gt, seed = scene_for(cfg, 150, 0.4, 0)
    tag = (150, ratio_key(0.4), 0)
    for method in ("ransac", "sm"):
        rec = run_trial(method, c, gt, cfg, seed, tag, None)
        assert rec.method == method
        assert rec.ok and rec.success
        assert rec.precision > 0.9  # consensus members are mostly true inliers
        assert rec.inlier_count >= 80


def test_run_trial_gpinet_label_mapping():
    cfg = ExperimentConfig(
        methods=("gpinet",), n_values=(60,), outlier_ratios=(0.0,), trials=1,
        model_channels=8, model_granularities=1, gpinet_label="gpinet_no_oi",
    )
    c, gt, seed = scene_for(cfg, 60, 0.0, 0)
    model = GPINet(ModelConfig(channels=8, granularities=1), seed=1)
    rec = run_trial("gpinet", c, gt, cfg, seed, (60, 0, 0), model)
    assert rec.method == "gpinet_no_oi"
    assert rec.ok  # clean scene: geometry carries an untrained scorer


# a 100x shrunk tetrahedron: no pair keeps its length, so sm selects nothing
SHRUNK_SRC = np.array([[0.0, 0, 0], [10.0, 0, 0], [0, 10.0, 0], [0, 0, 10.0]])
SHRUNK_TGT = np.array([[0.0, 0, 0], [0.1, 0, 0], [0, 0.1, 0], [0, 0, 0.1]])


def test_run_trial_registration_failure_is_not_ok():
    cfg = ExperimentConfig(methods=("sm",), n_values=(4,), outlier_ratios=(0.0,), trials=1)
    c = CorrespondenceSet(SHRUNK_SRC, SHRUNK_TGT, labels=np.zeros(4, dtype=bool))
    rec = run_trial("sm", c, RigidTransform.identity(), cfg, 0, (4, 0, 0), None)
    assert not rec.ok and not rec.success
    assert rec.re_deg is None and rec.te_cm is None
    assert rec.inlier_count is None
    assert (rec.precision, rec.recall, rec.f1) == (0.0, 0.0, 0.0)


def test_solve_records_per_method():
    c, gt = generate(SceneConfig(n=120, outlier_ratio=0.4, seed=9))
    reg_cfg = RegistrationConfig()
    model = GPINet(ModelConfig(channels=8, granularities=1), seed=1)
    keys = {
        "oracle": {"seed_count", "hypothesis_count", "seed_index"},
        "gpinet": {"seed_count", "hypothesis_count", "seed_index"},
        "ransac": set(),
        "sm": {"spectral_iterations"},
    }
    for method in METHODS:
        sol = solve(method, c, reg_cfg, model, ransac_seed=4, ransac_iterations=200)
        assert sol.ok and sol.reason is None, method
        assert set(sol.details) == keys[method], method
        assert sol.probabilities.shape == (len(c),)
        assert sol.inlier_count == count_inliers(sol.transform, c, reg_cfg.resolved_delta)
    oracle = solve("oracle", c, reg_cfg)
    assert oracle.probabilities.tolist() == c.labels.astype(float).tolist()


def test_solve_turns_registration_failure_into_not_ok():
    c = CorrespondenceSet(SHRUNK_SRC, SHRUNK_TGT)
    sol = solve("sm", c, RegistrationConfig())
    assert not sol.ok and sol.transform is None and sol.inlier_count is None
    assert sol.probabilities is None and "spectral" in sol.reason


def test_solve_rejects_unlabeled_oracle_and_unknown_methods():
    c = CorrespondenceSet(SHRUNK_SRC, SHRUNK_SRC)
    with pytest.raises(ConfigurationError, match="labeled"):
        solve("oracle", c, RegistrationConfig())
    cfg = ExperimentConfig(n_values=(4,), trials=1)
    with pytest.raises(ConfigurationError, match="labeled"):
        run_trial("oracle", c, RigidTransform.identity(), cfg, 0, (4, 0, 0), None)
    with pytest.raises(ConfigurationError):
        solve("icp", c, RegistrationConfig())


def test_build_model_loads_or_seeds(tmp_path):
    a = build_model(None, 8, 1, seed=5)
    b = build_model(None, 8, 1, seed=5)
    c, _ = generate(SceneConfig(n=30, seed=2))
    assert np.array_equal(a.predict(c), b.predict(c))
    assert not np.array_equal(a.predict(c), build_model(None, 8, 1, seed=6).predict(c))
    a.save(tmp_path / "params.json")
    loaded = build_model(str(tmp_path / "params.json"), 32, 3, seed=0)
    assert np.array_equal(loaded.predict(c), a.predict(c))


# -- sweeps ---------------------------------------------------------------------------


def test_run_experiment_structure_and_aggregates():
    cfg = ExperimentConfig(
        methods=("oracle", "ransac"),
        n_values=(80, 120),
        outlier_ratios=(0.2, 0.5),
        trials=3,
        ransac_iterations=200,
    )
    report = run_experiment(cfg)
    assert len(report.records) == 2 * 2 * 2 * 3
    assert len(report.cells) == 2 * 2 * 2
    assert report.config == cfg.to_dict()

    for cell in report.cells:
        assert cell.trials == 3
        assert 0.0 <= cell.rr_percent <= 100.0
        assert cell.rr_percent == 100.0 * cell.successes / cell.trials
        if cell.successes == 0:
            assert cell.mean_re_deg is None and cell.mean_te_cm is None

    # every method sees the same scene for a given (n, ratio, trial)
    seeds = {}
    for rec in report.records:
        key = (rec.n, rec.outlier_ratio, rec.trial)
        seeds.setdefault(key, set()).add(rec.scene_seed)
    assert all(len(s) == 1 for s in seeds.values())


def test_run_experiment_draws_each_scene_once(monkeypatch):
    calls = []

    def counting_generate(scene_cfg):
        calls.append(scene_cfg.seed)
        return generate(scene_cfg)

    monkeypatch.setattr(evaluate, "generate", counting_generate)
    cfg = ExperimentConfig(
        methods=("oracle", "sm", "ransac"), n_values=(40,), outlier_ratios=(0.0, 0.3),
        trials=2, ransac_iterations=50,
    )
    report = run_experiment(cfg)
    assert len(calls) == 1 * 2 * 2  # one per (n, ratio, trial) cell, not per method
    assert len(set(calls)) == len(calls)
    # records stay method-major
    assert [r.method for r in report.records] == ["oracle"] * 4 + ["sm"] * 4 + ["ransac"] * 4


def test_run_experiment_is_reproducible_modulo_wall_time():
    cfg = ExperimentConfig(
        methods=("oracle", "sm"),
        n_values=(60,),
        outlier_ratios=(0.3,),
        trials=3,
    )
    a = run_experiment(cfg)
    b = run_experiment(cfg)
    for ra, rb in zip(a.records, b.records):
        da, db = ra.__dict__.copy(), rb.__dict__.copy()
        da.pop("wall_time_s"), db.pop("wall_time_s")
        assert da == db


def test_oracle_dominates_ransac_across_ratios():
    """One-sided sanity: perfect probabilities never lose to sampling."""
    for ratio in (0.3, 0.5, 0.7):
        cfg = ExperimentConfig(
            methods=("oracle", "ransac"),
            n_values=(1000,),
            outlier_ratios=(ratio,),
            trials=100,
            noise_sigma=0.01,
            ransac_iterations=1000,
            master_seed=7,
        )
        report = run_experiment(cfg)
        rr = {cell.method: cell.rr_percent for cell in report.cells}
        assert rr["oracle"] >= rr["ransac"], f"ratio {ratio}: {rr}"
        assert rr["oracle"] == 100.0


# -- toy training -----------------------------------------------------------------------


SMALL_TRAIN = dict(n=16, channels=8, granularities=1, scene_pool=2, learning_rate=0.05)


def test_train_config_validation():
    with pytest.raises(ConfigurationError):
        TrainConfig(n=3)
    with pytest.raises(ConfigurationError):
        TrainConfig(scene_pool=0)
    with pytest.raises(ConfigurationError):
        TrainConfig(iterations=-1)
    with pytest.raises(ConfigurationError):
        TrainConfig(learning_rate=0.0)
    TrainConfig(iterations=0)  # allowed: a no-op training run


def test_train_zero_iterations_returns_initial_parameters():
    cfg = TrainConfig(iterations=0, **SMALL_TRAIN)
    result = train_toy(cfg)
    fresh = GPINet(
        ModelConfig(channels=8, granularities=1),
        seed=derive_seed(cfg.seed, evaluate._TRAIN_INIT_STREAM),
    )
    got = result.model.parameters()
    want = fresh.parameters()
    assert set(got) == set(want)
    for name in got:
        assert got[name].value.tobytes() == want[name].value.tobytes()
    assert result.losses == ()
    assert result.initial_pool_loss == result.final_pool_loss


def test_train_round_robin_and_determinism():
    cfg = TrainConfig(iterations=5, **SMALL_TRAIN)
    a = train_toy(cfg)
    b = train_toy(cfg)
    assert a.losses == b.losses
    assert [scene for _, scene, _ in a.losses] == [0, 1, 0, 1, 0]
    assert [it for it, _, _ in a.losses] == list(range(5))
    assert all(np.isfinite(v) for _, _, v in a.losses)
    assert a.initial_pool_loss > 0.0


def test_train_descends_on_small_problem():
    result = train_toy(TrainConfig(iterations=40, **SMALL_TRAIN))
    assert result.final_pool_loss < result.initial_pool_loss


def test_train_non_finite_loss_raises_numeric_fault(monkeypatch):
    def poisoned(probs, labels):
        return Tensor(np.array([[np.nan]]), requires_grad=True)

    monkeypatch.setattr(evaluate, "bce_loss", poisoned)
    with pytest.raises(NumericFault, match="iteration 0"):
        train_toy(TrainConfig(iterations=3, **SMALL_TRAIN))
