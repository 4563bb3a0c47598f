"""Seeded registration pipeline: seed selection, consensus, two-stage fit."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_rng
from reglab import kernels
from reglab.blocks import GPINet, ModelConfig
from reglab.errors import ConfigurationError, ContractError, DegenerateInputError
from reglab.geometry import (
    CorrespondenceSet,
    count_inliers,
    inlier_mask,
    rotation_error,
    translation_error,
    weighted_kabsch,
)
from reglab.pipeline import (
    DEFAULT_NMS_RADIUS,
    RegistrationConfig,
    build_consensus,
    register,
    select_seeds,
    two_stage_estimate,
)
from reglab.synth import SceneConfig, generate


# -- configuration -----------------------------------------------------------


def test_registration_config_defaults():
    assert DEFAULT_NMS_RADIUS == {"indoor": 0.5, "outdoor": 3.0}
    indoor = RegistrationConfig()
    assert indoor.resolved_delta == 0.10
    assert indoor.resolved_nms_radius == 0.5
    assert indoor.resolved_sigma_d == 0.10
    outdoor = RegistrationConfig(scene="outdoor")
    assert outdoor.resolved_delta == 0.60
    assert outdoor.resolved_nms_radius == 3.0
    assert outdoor.resolved_sigma_d == 0.60
    custom = RegistrationConfig(delta=0.25, sigma_d=0.05, nms_radius=0.0)
    assert custom.resolved_delta == 0.25
    assert custom.resolved_sigma_d == 0.05
    assert custom.resolved_nms_radius == 0.0


def test_registration_config_seed_count():
    cfg = RegistrationConfig()
    assert cfg.resolved_seed_count(5) == 1
    assert cfg.resolved_seed_count(10) == 1
    assert cfg.resolved_seed_count(11) == 2
    assert cfg.resolved_seed_count(1000) == 100
    assert RegistrationConfig(seed_count=7).resolved_seed_count(1000) == 7


def test_registration_config_validation():
    with pytest.raises(ConfigurationError):
        RegistrationConfig(delta=0.0)
    with pytest.raises(ConfigurationError):
        RegistrationConfig(seed_count=0)
    with pytest.raises(ConfigurationError):
        RegistrationConfig(nms_radius=-0.1)
    with pytest.raises(ConfigurationError):
        RegistrationConfig(tau=0.0)
    with pytest.raises(ConfigurationError):
        RegistrationConfig(tau=1.01)
    with pytest.raises(ConfigurationError):
        RegistrationConfig(sigma_d=0.0)
    RegistrationConfig(tau=1.0)  # the closed end is allowed


# -- seed selection ------------------------------------------------------------


def test_select_seeds_zero_radius_is_exact_top_k():
    src = np.zeros((4, 3))
    src[:, 0] = np.arange(4)
    c = CorrespondenceSet(src, src)
    probs = np.array([0.5, 0.9, 0.5, 0.7])
    seeds = select_seeds(probs, c, k=3, nms_radius=0.0)
    assert seeds.indices.tolist() == [1, 3, 0]  # prob ties visit lower index first
    assert seeds.probabilities.tolist() == [0.9, 0.7, 0.5]
    everything = select_seeds(probs, c, k=10, nms_radius=0.0)
    assert everything.indices.tolist() == [1, 3, 0, 2]


def test_select_seeds_suppression_is_strict():
    src = np.array([[0.0, 0.0, 0.0], [0.5, 0.0, 0.0], [0.49, 0.0, 0.0]])
    c = CorrespondenceSet(src, src)
    probs = np.array([0.9, 0.8, 0.7])
    seeds = select_seeds(probs, c, k=3, nms_radius=0.5)
    # exactly at the radius survives; strictly inside is suppressed
    assert seeds.indices.tolist() == [0, 1]


def test_select_seeds_coincident_sources_collapse_to_one():
    src = np.zeros((6, 3))
    c = CorrespondenceSet(src, src)
    seeds = select_seeds(np.linspace(0.4, 0.9, 6), c, k=4, nms_radius=0.5)
    assert seeds.indices.tolist() == [5]  # the highest-probability row


def test_select_seeds_contract_errors():
    c = CorrespondenceSet(np.zeros((4, 3)), np.zeros((4, 3)))
    with pytest.raises(ContractError):
        select_seeds(np.ones(3), c, k=1, nms_radius=0.0)
    with pytest.raises(ContractError):
        select_seeds(np.ones(4), c, k=0, nms_radius=0.0)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), k=st.integers(1, 12), radius=st.floats(0.0, 1.0))
def test_select_seeds_invariants(seed, k, radius):
    rng = make_rng(seed)
    n = int(rng.integers(4, 25))
    src = rng.uniform(-2, 2, size=(n, 3))
    c = CorrespondenceSet(src, src)
    probs = rng.random(n)
    seeds = select_seeds(probs, c, k, radius)
    idx = seeds.indices
    assert 1 <= len(idx) <= min(k, n)
    assert len(np.unique(idx)) == len(idx)
    assert np.all((idx >= 0) & (idx < n))
    diffs = np.diff(seeds.probabilities)
    assert np.all(diffs <= 1e-15)  # visited in descending probability


def test_select_seeds_permutation_stability():
    rng = make_rng(42)
    src = rng.uniform(-2, 2, size=(20, 3))
    c = CorrespondenceSet(src, src)
    probs = rng.random(20)
    seeds = select_seeds(probs, c, k=5, nms_radius=0.3)
    perm = rng.permutation(20)
    shuffled = select_seeds(probs[perm], CorrespondenceSet(src[perm], src[perm]), 5, 0.3)
    assert np.array_equal(perm[shuffled.indices], seeds.indices)


# -- consensus -------------------------------------------------------------------


@pytest.mark.parametrize("seed_idx", [0, 7, 19])
def test_build_consensus_matches_formula(seed_idx):
    rng = make_rng(50 + seed_idx)
    src = rng.uniform(-2, 2, size=(20, 3))
    tgt = rng.uniform(-2, 2, size=(20, 3))
    c = CorrespondenceSet(src, tgt)
    sigma_d, tau = 0.4, 0.5
    members = build_consensus(seed_idx, c, sigma_d, tau)

    ds = np.linalg.norm(src - src[seed_idx], axis=1)
    dt = np.linalg.norm(tgt - tgt[seed_idx], axis=1)
    sc = np.maximum(0.0, 1.0 - (ds - dt) ** 2 / sigma_d**2)
    want = np.flatnonzero(sc >= tau)
    assert np.array_equal(members, want)
    assert seed_idx in members
    assert members.dtype == np.int64


def test_build_consensus_tau_boundary_is_inclusive():
    src = make_rng(60).uniform(-1, 1, size=(8, 3))
    c = CorrespondenceSet(src, src)  # every pair has consistency exactly 1.0
    members = build_consensus(2, c, 0.1, tau=1.0)
    assert members.tolist() == list(range(8))


def test_build_consensus_excludes_inconsistent_pairs():
    src = np.array([[0.0, 0, 0], [1.0, 0, 0], [0, 1.0, 0], [5.0, 5.0, 5.0]])
    tgt = src.copy()
    tgt[3] = [-5.0, 0.0, 0.0]  # destroys every length through pair 3
    c = CorrespondenceSet(src, tgt)
    members = build_consensus(0, c, 0.1, 0.5)
    assert members.tolist() == [0, 1, 2]


# -- two-stage estimation -----------------------------------------------------------


def test_two_stage_recovers_truth_and_counts_exactly():
    cfg = SceneConfig(n=150, outlier_ratio=0.4, noise_sigma=0.005, seed=21)
    c, gt = generate(cfg)
    probs = c.labels.astype(np.float64)
    seed = int(np.flatnonzero(c.labels)[0])
    members = build_consensus(seed, c, 0.10, 0.5)
    hyp = two_stage_estimate(seed, members, c, probs, 0.10, 0.10)
    assert hyp is not None
    assert hyp.seed_index == seed
    assert rotation_error(gt, hyp.transform) < 0.5
    assert translation_error(gt, hyp.transform) < 2.0
    assert hyp.inlier_count == count_inliers(hyp.transform, c, 0.10)
    # the refit succeeded, so members are the stage-1 strict inliers
    assert hyp.consensus.size >= int(c.labels.sum()) * 0.9


def test_two_stage_collinear_consensus_returns_none():
    line = np.stack([[float(i), 0.0, 0.0] for i in range(6)])
    c = CorrespondenceSet(line, line)
    members = np.arange(6, dtype=np.int64)
    assert two_stage_estimate(0, members, c, np.ones(6), 0.1, 0.1) is None


def test_two_stage_keeps_stage_one_when_refit_is_degenerate():
    src = np.array([[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0], [1.0, 3.0, 0.0]])
    tgt = src.copy()
    tgt[3] += np.array([0.0, 10.0, 0.0])
    c = CorrespondenceSet(src, tgt)
    probs = np.array([1.0, 1.0, 1.0, 0.001])
    sigma_d, delta = 100.0, 0.05
    members = build_consensus(0, c, sigma_d, 0.5)
    assert members.tolist() == [0, 1, 2, 3]

    sc = kernels.consistency_row(src, tgt, 0, sigma_d)[members]
    stage1 = weighted_kabsch(CorrespondenceSet(src, tgt), probs * sc)
    refit_idx = np.flatnonzero(inlier_mask(stage1, c, delta))
    assert refit_idx.tolist() == [0, 1, 2]  # three strict inliers, all collinear

    hyp = two_stage_estimate(0, members, c, probs, delta, sigma_d)
    assert hyp is not None
    np.testing.assert_array_equal(hyp.transform.rotation, stage1.rotation)
    np.testing.assert_array_equal(hyp.transform.translation, stage1.translation)
    assert hyp.consensus.tolist() == [0, 1, 2, 3]  # stage-1 membership kept
    assert hyp.inlier_count == 3


def test_two_stage_thin_inlier_set_keeps_stage_one():
    src = np.array([[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0], [1.0, 3.0, 0.0]])
    tgt = src.copy()
    tgt[3] += np.array([0.0, 10.0, 0.0])
    c = CorrespondenceSet(src, tgt)
    probs = np.array([1.0, 1.0, 1.0, 1.0])  # heavy outlier pull: no strict inliers
    hyp = two_stage_estimate(0, np.arange(4, dtype=np.int64), c, probs, 0.05, 100.0)
    assert hyp is not None
    assert hyp.consensus.tolist() == [0, 1, 2, 3]
    assert hyp.inlier_count == 0


# -- full registration ---------------------------------------------------------------


def test_register_contract_errors():
    c, _ = generate(SceneConfig(n=20, seed=1))
    model = GPINet(ModelConfig(channels=8, granularities=1), seed=0)
    with pytest.raises(ContractError):
        register(c)  # no probability source
    with pytest.raises(ContractError):
        register(c, model=model, probabilities=np.ones(20))
    with pytest.raises(ContractError):
        register(c, probabilities=np.ones(19))
    with pytest.raises(ContractError):
        register(c, probabilities=np.full(20, 1.5))
    with pytest.raises(ContractError):
        register(c, probabilities=np.full(20, np.nan))
    tiny, _ = generate(SceneConfig(n=3, seed=1))
    with pytest.raises(DegenerateInputError):
        register(tiny, probabilities=np.ones(3))


def test_register_oracle_probabilities_end_to_end():
    cfg = SceneConfig(n=200, outlier_ratio=0.5, noise_sigma=0.005, seed=33)
    c, gt = generate(cfg)
    result = register(c, probabilities=c.labels.astype(np.float64))
    assert result.ok
    hyp = result.hypothesis
    assert rotation_error(gt, hyp.transform) < 1.0
    assert translation_error(gt, hyp.transform) < 3.0
    assert hyp.inlier_count == count_inliers(hyp.transform, c, 0.10)
    assert 1 <= result.seed_count <= 20
    assert 1 <= result.hypothesis_count <= result.seed_count
    assert len(result.seed_diagnostics) == result.seed_count
    assert set(result.seed_diagnostics[0]) == {
        "seed",
        "consensus_size",
        "degenerate",
        "inlier_count",
    }
    assert set(result.timings) == {"score_s", "hypotheses_s", "select_s"}
    assert result.reason is None


def test_register_is_deterministic():
    c, _ = generate(SceneConfig(n=100, outlier_ratio=0.3, noise_sigma=0.01, seed=8))
    probs = c.labels.astype(np.float64)
    a = register(c, probabilities=probs)
    b = register(c, probabilities=probs)
    assert a.hypothesis.transform.rotation.tobytes() == b.hypothesis.transform.rotation.tobytes()
    assert a.hypothesis.transform.translation.tobytes() == b.hypothesis.transform.translation.tobytes()
    assert a.probabilities.tobytes() == b.probabilities.tobytes()
    assert a.hypothesis.consensus.tolist() == b.hypothesis.consensus.tolist()


def test_register_all_degenerate_reports_not_ok():
    pts = np.zeros((5, 3))  # five coincident correspondences
    c = CorrespondenceSet(pts, pts)
    result = register(c, probabilities=np.ones(5))
    assert not result.ok
    assert result.hypothesis is None
    assert result.hypothesis_count == 0
    assert "degenerate" in result.reason
    assert result.timings["select_s"] == 0.0
    assert all(d["degenerate"] for d in result.seed_diagnostics)


def test_register_with_model_on_clean_scene():
    c, gt = generate(SceneConfig(n=40, outlier_ratio=0.0, noise_sigma=0.002, seed=13))
    model = GPINet(ModelConfig(channels=8, granularities=1), seed=5)
    result = register(c, model=model)
    assert result.ok
    assert rotation_error(gt, result.hypothesis.transform) < 1.0
    assert result.probabilities.shape == (40,)
    assert np.all((result.probabilities >= 0) & (result.probabilities <= 1))
