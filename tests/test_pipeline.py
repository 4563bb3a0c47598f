"""Seeded registration pipeline: seed selection, consensus, two-stage fit."""

import dataclasses
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_rng, random_rotation, smallest_sigma_with_nonzero_square
from reglab import kernels
from reglab.blocks import GPINet, ModelConfig
from reglab.errors import ConfigurationError, ContractError, DegenerateInputError
from reglab.geometry import (
    CorrespondenceSet,
    count_inliers,
    inlier_mask,
    rotation_error,
    select_best_transform,
    translation_error,
    weighted_kabsch,
)
from reglab.pipeline import (
    DEFAULT_NMS_RADIUS,
    TAU,
    Hypothesis,
    RegistrationConfig,
    _seed_consensus,
    build_consensus,
    register,
    seed_count_for,
    select_seeds,
    two_stage_estimate,
)
from reglab.synth import SceneConfig, generate, rotation_from_axis_angle


# -- configuration -----------------------------------------------------------


def test_registration_config_defaults():
    """Only the scene, delta and the ablation are settings; the rest are fixed rules."""
    assert [f.name for f in dataclasses.fields(RegistrationConfig)] == [
        "scene", "delta", "ablation"]
    assert DEFAULT_NMS_RADIUS == {"indoor": 0.5, "outdoor": 3.0}
    assert TAU == 0.5
    assert RegistrationConfig().resolved_delta == 0.10
    assert RegistrationConfig(scene="outdoor").resolved_delta == 0.60
    assert RegistrationConfig(scene="outdoor", delta=0.25).resolved_delta == 0.25


def test_registration_config_seed_count():
    assert seed_count_for(1) == 1
    assert seed_count_for(5) == 1
    assert seed_count_for(10) == 1
    assert seed_count_for(11) == 2
    assert seed_count_for(1000) == 100


def test_registration_config_validation():
    for delta in (0.0, -0.1, np.nan, np.inf):
        with pytest.raises(ConfigurationError, match="delta"):
            RegistrationConfig(delta=delta)
    with pytest.raises(ContractError):
        RegistrationConfig(scene="underwater")


@pytest.mark.parametrize("name", ["delta"])
def test_registration_config_refuses_a_radius_whose_square_underflows(name):
    """delta is squared: by the inlier tests, and as sigma_d by the consistency
    rows' divisor."""
    sigma = smallest_sigma_with_nonzero_square()
    RegistrationConfig(**{name: sigma})
    with pytest.raises(ConfigurationError, match=name):
        RegistrationConfig(**{name: float(np.nextafter(sigma, 0.0))})


# -- seed selection ------------------------------------------------------------


def test_select_seeds_zero_radius_is_exact_top_k():
    src = np.zeros((4, 3))
    src[:, 0] = np.arange(4)
    c = CorrespondenceSet(src, src)
    probs = np.array([0.5, 0.9, 0.5, 0.7])
    seeds = select_seeds(probs, c, k=3, nms_radius=0.0)
    assert seeds.dtype == np.int64
    assert seeds.tolist() == [1, 3, 0]  # prob ties visit lower index first
    assert probs[seeds].tolist() == [0.9, 0.7, 0.5]
    everything = select_seeds(probs, c, k=10, nms_radius=0.0)
    assert everything.tolist() == [1, 3, 0, 2]


def test_select_seeds_suppression_is_strict():
    src = np.array([[0.0, 0.0, 0.0], [0.5, 0.0, 0.0], [0.49, 0.0, 0.0]])
    c = CorrespondenceSet(src, src)
    probs = np.array([0.9, 0.8, 0.7])
    seeds = select_seeds(probs, c, k=3, nms_radius=0.5)
    # exactly at the radius survives; strictly inside is suppressed
    assert seeds.tolist() == [0, 1]


def test_select_seeds_coincident_sources_collapse_to_one():
    src = np.zeros((6, 3))
    c = CorrespondenceSet(src, src)
    seeds = select_seeds(np.linspace(0.4, 0.9, 6), c, k=4, nms_radius=0.5)
    assert seeds.tolist() == [5]  # the highest-probability row


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
    idx = select_seeds(probs, c, k, radius)
    assert 1 <= len(idx) <= min(k, n)
    assert len(np.unique(idx)) == len(idx)
    assert np.all((idx >= 0) & (idx < n))
    diffs = np.diff(probs[idx])
    assert np.all(diffs <= 1e-15)  # visited in descending probability


def test_select_seeds_permutation_stability():
    rng = make_rng(42)
    src = rng.uniform(-2, 2, size=(20, 3))
    c = CorrespondenceSet(src, src)
    probs = rng.random(20)
    seeds = select_seeds(probs, c, k=5, nms_radius=0.3)
    perm = rng.permutation(20)
    shuffled = select_seeds(probs[perm], CorrespondenceSet(src[perm], src[perm]), 5, 0.3)
    assert np.array_equal(perm[shuffled], seeds)


# -- consensus -------------------------------------------------------------------


@pytest.mark.parametrize("seed_idx", [0, 7, 19])
def test_build_consensus_matches_formula(seed_idx):
    rng = make_rng(50 + seed_idx)
    src = rng.uniform(-2, 2, size=(20, 3))
    tgt = rng.uniform(-2, 2, size=(20, 3))
    c = CorrespondenceSet(src, tgt)
    sigma_d = 0.4
    members = build_consensus(seed_idx, c, sigma_d)

    ds = np.linalg.norm(src - src[seed_idx], axis=1)
    dt = np.linalg.norm(tgt - tgt[seed_idx], axis=1)
    sc = np.maximum(0.0, 1.0 - (ds - dt) ** 2 / sigma_d**2)
    want = np.flatnonzero(sc >= 0.5)
    assert np.array_equal(members, want)
    assert seed_idx in members
    assert members.dtype == np.int64


def test_build_consensus_tau_boundary_is_inclusive():
    """A pair at consistency exactly TAU is a member; one a ulp further out is not.

    Every distance is along an axis, so each is exact but the first pair's:
    sqrt(24.5) rounds to a gap whose square over 7^2 rounds to exactly 0.5.
    """
    gap = float(np.sqrt(24.5))
    src = np.zeros((3, 3))
    src[1, 0], src[2, 0] = gap, np.nextafter(gap, np.inf)
    c = CorrespondenceSet(src, np.zeros((3, 3)))
    row = kernels.consistency_row(c.source, c.target, 0, 7.0)
    assert row[1] == TAU and row[2] < TAU
    assert build_consensus(0, c, 7.0).tolist() == [0, 1]


def test_build_consensus_excludes_inconsistent_pairs():
    src = np.array([[0.0, 0, 0], [1.0, 0, 0], [0, 1.0, 0], [5.0, 5.0, 5.0]])
    tgt = src.copy()
    tgt[3] = [-5.0, 0.0, 0.0]  # destroys every length through pair 3
    c = CorrespondenceSet(src, tgt)
    members = build_consensus(0, c, 0.1)
    assert members.tolist() == [0, 1, 2]


@pytest.mark.parametrize("extent, sigma_d", [(2.0, 0.4), (1e100, 0.4), (1.0, "smallest")])
def test_every_seed_is_in_its_own_consensus_at_tau_one(extent, sigma_d):
    """sc(i, i) is exactly 1, since both of its distances are an exact 0: every
    seed reaches its own consensus, as it would at tau = 1, at any scale and
    any sigma."""
    if sigma_d == "smallest":
        sigma_d = smallest_sigma_with_nonzero_square()
    rng = make_rng(70)
    c = CorrespondenceSet(rng.uniform(-extent, extent, size=(300, 3)),
                          rng.uniform(-extent, extent, size=(300, 3)))
    seeds = np.arange(300)
    with np.errstate(over="ignore"):  # gap^2 / sigma^2 overflows off the diagonal
        rows, sets = _seed_consensus(seeds, c, sigma_d)
    assert np.all(rows[seeds, seeds] == 1.0)
    for seed, members in zip(seeds, sets):
        assert seed in members and members.dtype == np.int64


# -- two-stage estimation -----------------------------------------------------------


def test_two_stage_recovers_truth_and_counts_exactly():
    cfg = SceneConfig(n=150, outlier_ratio=0.4, noise_sigma=0.005, seed=21)
    c, gt = generate(cfg)
    probs = c.labels.astype(np.float64)
    seed = int(np.flatnonzero(c.labels)[0])
    members = build_consensus(seed, c, 0.10)
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
    members = build_consensus(0, c, sigma_d)
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


# -- the batched hypotheses against the per-seed loop ----------------------------------
#
# The per-seed pipeline that register ran before it batched its seeds, kept
# verbatim as the reference: each seed computed its consistency row twice,
# ran three residual passes and its own stage-2 refit. ``stages`` records
# which way each seed went, (stage, refit set), so the tests can show that
# every fallback was hit and that seeds shared refits.

PARAMS = Path(__file__).resolve().parents[1] / "bench" / "model" / "params.json"


def _reference_select_seeds(probs, c, k, nms_radius):
    probs = np.asarray(probs, dtype=np.float64).reshape(-1)
    order = np.argsort(-probs, kind="stable")
    kept: list[int] = []
    r2 = nms_radius * nms_radius
    src = c.source
    for idx in order:
        if len(kept) == k:
            break
        if nms_radius > 0.0 and kept:
            diff = src[kept] - src[idx]
            if ((diff * diff).sum(axis=1) < r2).any():
                continue
        kept.append(int(idx))
    return np.asarray(kept, dtype=np.int64)


def _reference_build_consensus(seed, c, sigma_d, tau):
    sc = kernels.consistency_row(c.source, c.target, seed, sigma_d)
    members = np.flatnonzero(sc >= tau)
    if seed not in members:
        members = np.sort(np.append(members, seed))
    return members.astype(np.int64)


def _reference_two_stage_estimate(seed, consensus, c, probs, delta, sigma_d, stages):
    probs = np.asarray(probs, dtype=np.float64).reshape(-1)
    sub = CorrespondenceSet(c.source[consensus], c.target[consensus])
    sc = kernels.consistency_row(c.source, c.target, seed, sigma_d)[consensus]
    try:
        stage1 = weighted_kabsch(sub, probs[consensus] * sc)
    except (DegenerateInputError, ContractError):
        stages.append(("degenerate", None))
        return None

    transform = stage1
    members = consensus
    mask = inlier_mask(stage1, c, delta)
    refit_idx = np.flatnonzero(mask)
    stages.append(("thin", None))
    if refit_idx.size >= 3:
        refit_set = CorrespondenceSet(c.source[refit_idx], c.target[refit_idx])
        stages[-1] = ("refit_failed", None)
        try:
            transform = weighted_kabsch(refit_set, probs[refit_idx])
            members = refit_idx.astype(np.int64)
            stages[-1] = ("refit", refit_idx.tobytes())
        except (DegenerateInputError, ContractError):
            pass  # keep the stage-1 transform
    return Hypothesis(
        transform=transform,
        seed_index=int(seed),
        consensus=members,
        inlier_count=count_inliers(transform, c, delta),
    )


def _reference_register(c, cfg, probs):
    """(result fields, per-seed stages) of the per-seed pipeline, at the paper's
    rules: max(1, ceil(N / 10)) seeds, an NMS radius of 0.5 m indoors and 3 m
    outdoors, and consensus at consistency >= 0.5 with sigma_d = delta."""
    n = len(c)
    delta = cfg.resolved_delta
    radius = {"indoor": 0.5, "outdoor": 3.0}[cfg.scene]
    seeds = _reference_select_seeds(probs, c, max(1, -(-n // 10)), radius)
    hypotheses, diagnostics, stages = [], [], []
    for seed in seeds:
        members = _reference_build_consensus(int(seed), c, delta, 0.5)
        hyp = _reference_two_stage_estimate(int(seed), members, c, probs, delta, delta, stages)
        diagnostics.append(
            {
                "seed": int(seed),
                "consensus_size": int(members.size),
                "degenerate": hyp is None,
                "inlier_count": None if hyp is None else hyp.inlier_count,
            }
        )
        if hyp is not None:
            hypotheses.append(hyp)
    best = None
    if hypotheses:
        best = hypotheses[select_best_transform([h.transform for h in hypotheses], c, delta).index]
    return (best, len(seeds), len(hypotheses), tuple(diagnostics)), stages


def _assert_matches_reference(c, cfg, probs):
    """register equals the per-seed reference exactly; returns the reference stages."""
    got = register(c, cfg, probabilities=probs)
    (best, seed_count, hypothesis_count, diagnostics), stages = _reference_register(c, cfg, probs)
    assert got.ok == (best is not None)
    assert got.seed_count == seed_count
    assert got.hypothesis_count == hypothesis_count
    assert got.seed_diagnostics == diagnostics
    if best is not None:
        hyp = got.hypothesis
        assert np.array_equal(hyp.transform.rotation, best.transform.rotation)
        assert np.array_equal(hyp.transform.translation, best.transform.translation)
        assert hyp.seed_index == best.seed_index
        assert hyp.inlier_count == best.inlier_count
        assert hyp.consensus.dtype == best.consensus.dtype
        assert np.array_equal(hyp.consensus, best.consensus)
    return stages


def _outdoor_gpinet_scenes(seeds):
    """(scene, config, bench-model probabilities) on outdoor N=2000, 80%-outlier scenes."""
    model = GPINet.load(PARAMS)
    cfg = RegistrationConfig(scene="outdoor")
    for seed in seeds:
        c, _ = generate(SceneConfig(n=2000, outlier_ratio=0.8, scene="outdoor", seed=seed))
        yield c, cfg, model.predict(c)


def test_register_matches_per_seed_loop_on_criterion_6_scenes():
    ratios = (0.0, 0.2, 0.4, 0.6, 0.8)
    cfg = RegistrationConfig(scene="indoor")
    for i in range(100):
        c, _ = generate(SceneConfig(n=1000, outlier_ratio=ratios[i % 5], noise_sigma=0.01,
                                    scene="indoor", seed=60_000 + i))
        _assert_matches_reference(c, cfg, c.labels.astype(np.float64))


def test_register_matches_per_seed_loop_on_gpinet_scored_outdoor_scenes():
    for c, cfg, probs in _outdoor_gpinet_scenes((1, 2, 3, 4)):
        stages = _assert_matches_reference(c, cfg, probs)
        labels = [label for label, _ in stages]
        refit_sets = {key for label, key in stages if label == "refit"}
        # thin refit sets keep stage 1; the other seeds share a few dozen refits
        assert "thin" in labels
        assert 1 < len(refit_sets) < labels.count("refit")


@pytest.mark.parametrize(
    "ratio, delta, scorer",
    [(0.0, 1.0, "labels"), (0.5, None, "labels"), (0.5, None, "random")],
)
def test_register_matches_per_seed_loop_on_noisy_scenes(ratio, delta, scorer):
    """Noise near delta (0.6 delta per axis) gives each seed its own inlier set
    and inlier count. At delta 1 m the noise is ten times the indoor default's,
    while the NMS radius stays 0.5 m."""
    cfg = RegistrationConfig(delta=delta)
    c, _ = generate(SceneConfig(n=1000, outlier_ratio=ratio, noise_sigma=0.6 * cfg.resolved_delta,
                                seed=62))
    probs = c.labels.astype(np.float64) if scorer == "labels" else make_rng(63).random(1000)
    stages = _assert_matches_reference(c, cfg, probs)
    assert len({key for label, key in stages if label == "refit"}) > 10


def test_register_matches_per_seed_loop_with_two_blas_threads():
    import os
    import subprocess
    import sys

    import reglab

    code = (
        "import numpy as np\n"
        "import test_pipeline as t\n"
        "from reglab.pipeline import RegistrationConfig\n"
        "from reglab.synth import SceneConfig, generate\n"
        "for c, cfg, probs in t._outdoor_gpinet_scenes((7,)):\n"
        "    t._assert_matches_reference(c, cfg, probs)\n"
        "c, _ = generate(SceneConfig(n=2000, outlier_ratio=0.8, scene='outdoor', seed=8))\n"
        "t._assert_matches_reference(c, RegistrationConfig(scene='outdoor'),\n"
        "                            c.labels.astype(np.float64))\n"
        "print('ok')\n"
    )
    package_dir = os.path.dirname(os.path.dirname(os.path.abspath(reglab.__file__)))
    tests_dir = os.path.dirname(os.path.abspath(__file__))
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": os.pathsep.join([package_dir, tests_dir]),
             "OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "2", "MKL_NUM_THREADS": "2"},
        check=False,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout == "ok\n"


def _line_and_cloud_scene():
    """Seeds on a line see only the line (a degenerate stage 1); a cloud seed fits.

    26 pairs give 3 seeds: the best cloud pair, then two line pairs 1 m apart.
    """
    rng = make_rng(71)
    line = np.stack([[float(i), 0.0, 0.0] for i in range(6)])
    cloud = rng.uniform(50.0, 55.0, size=(20, 3))
    c = CorrespondenceSet(np.vstack([line, cloud]), np.vstack([line, cloud + [0.0, 0.0, 30.0]]))
    probs = np.r_[np.full(6, 0.9), 0.95, np.full(19, 0.8)]
    return c, RegistrationConfig(), probs, {"degenerate", "refit"}


def _rotated_about(seed_point, points, rotation):
    """Targets of ``points`` rotated about ``seed_point``: each keeps its distance to
    the seed, so it is length-consistent with a seed that maps to itself, but it
    does not follow the seed's motion."""
    return seed_point + (points - seed_point) @ rotation.T


def _collinear_inliers_scene(probs):
    """Stage 1's strict inliers are three collinear pairs (refit degenerate) or too few.

    Four pairs give one seed, pair 0. Pair 3 is rotated 90 degrees about it, so
    it joins the consensus and pulls the stage-1 fit by its weight.
    """
    src = np.array([[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0], [1.0, 3.0, 0.0]])
    tgt = src.copy()
    tgt[3] = _rotated_about(src[0], src[3], rotation_from_axis_angle(np.array([0.0, 0, 1]),
                                                                     np.pi / 2))
    cfg = RegistrationConfig(delta=0.05)
    return CorrespondenceSet(src, tgt), cfg, np.asarray(probs, dtype=np.float64)


def _zero_weight_inliers_scene():
    """Stage 1 fits five pairs; its strict inliers are five zero-probability pairs.

    Ten pairs give one seed, pair 0. Pairs 1-4 are rotated about it, each by its
    own rotation, so they are its consensus but no motion fits them all.
    """
    rng = make_rng(72)
    src = rng.uniform(-1.0, 1.0, size=(10, 3))
    tgt = src.copy()
    for i in range(1, 5):
        tgt[i] = _rotated_about(src[0], src[i], random_rotation(rng))
    probs = np.r_[np.ones(5), np.zeros(5)]
    cfg = RegistrationConfig(delta=0.05)
    sc = kernels.consistency_row(src[:5], tgt[:5], 0, cfg.resolved_delta)
    stage1 = weighted_kabsch(CorrespondenceSet(src[:5], tgt[:5]), sc)
    tgt[5:] = stage1.apply(src[5:])
    return CorrespondenceSet(src, tgt), cfg, probs


@pytest.mark.parametrize(
    "case",
    ["stage1_degenerate", "refit_collinear", "refit_thin", "refit_zero_weight", "all_degenerate"],
)
def test_register_matches_per_seed_loop_on_fallbacks(case):
    if case == "stage1_degenerate":
        c, cfg, probs, want = _line_and_cloud_scene()
    elif case == "refit_collinear":
        c, cfg, probs = _collinear_inliers_scene([1.0, 1.0, 1.0, 0.001])
        want = {"refit_failed"}
    elif case == "refit_thin":
        c, cfg, probs = _collinear_inliers_scene([1.0, 1.0, 1.0, 1.0])
        want = {"thin"}
    elif case == "refit_zero_weight":
        c, cfg, probs = _zero_weight_inliers_scene()
        want = {"refit_failed"}
    else:
        c = CorrespondenceSet(np.zeros((5, 3)), np.zeros((5, 3)))
        cfg, probs, want = RegistrationConfig(), np.ones(5), {"degenerate"}
    stages = _assert_matches_reference(c, cfg, probs)
    assert {label for label, _ in stages} == want


def test_stage_one_fit_failing_the_transform_check_marks_its_seed_degenerate(monkeypatch):
    """The stacked solve checks each fit as RigidTransform would; a failure is a degenerate seed."""
    real = kernels.rigid_fits

    def skewed(h, mu_src, mu_tgt):
        r, t, ok = real(h, mu_src, mu_tgt)
        r[1::2] *= -1.0  # every other fit of each stack: orthonormal, but det(R) = -1
        return r, t, ok

    c, _ = generate(SceneConfig(n=200, outlier_ratio=0.5, seed=73))
    probs = c.labels.astype(np.float64)
    clean = register(c, probabilities=probs)
    monkeypatch.setattr(kernels, "rigid_fits", skewed)
    got = register(c, probabilities=probs)
    assert kernels.transforms_per_block(200) > got.seed_count  # the seeds form one block
    assert not any(d["degenerate"] for d in clean.seed_diagnostics)
    assert [d["degenerate"] for d in got.seed_diagnostics] == [
        k % 2 == 1 for k in range(got.seed_count)
    ]
    assert got.ok and got.hypothesis_count == (got.seed_count + 1) // 2


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 100_000),
    n=st.integers(1, 300),
    k=st.integers(1, 40),
    radius=st.one_of(st.just(0.0), st.floats(0.0, 3.0)),
)
def test_select_seeds_matches_rescanning_loop(seed, n, k, radius):
    rng = make_rng(seed)
    # a coarse grid gives coincident points and points exactly at the radius
    src = rng.integers(-4, 5, size=(n, 3)) * rng.choice([0.25, 0.1])
    probs = rng.integers(0, 8, size=n) / 7.0  # ties in probability
    c = CorrespondenceSet(src, src)
    got = select_seeds(probs, c, k, radius)
    assert np.array_equal(got, _reference_select_seeds(probs, c, k, radius))


def test_register_memory_stays_far_below_seeds_times_pairs():
    """At N=6000 (600 seeds) an unblocked (N, K, 3) residual array alone is 86 MB.

    The seeds run in blocks of kernels.transforms_per_block(N) and only the
    distinct fits are kept: the peak is about 1 MB (the per-seed loop, which
    kept every hypothesis, peaked near 16 MB here).
    """
    import tracemalloc

    c, _ = generate(SceneConfig(n=6000, outlier_ratio=0.5, scene="indoor", seed=1))
    labels = c.labels.astype(np.float64)
    tracemalloc.start()
    try:
        result = register(c, probabilities=labels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.seed_count == 600
    assert peak < 8e6
