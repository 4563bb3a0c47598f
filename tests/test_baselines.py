"""Classical baselines: RANSAC consensus and spectral matching."""

import warnings

import numpy as np
import pytest

from conftest import make_rng
from reglab import baselines, kernels
from reglab.baselines import (
    minimal_samples,
    power_iteration,
    ransac,
    spectral_matching,
    spectral_register,
)
from reglab.errors import (
    ContractError,
    ConvergenceError,
    DegenerateInputError,
    RegistrationFailure,
)
from reglab.geometry import (
    CorrespondenceSet,
    RigidTransform,
    _kabsch,
    count_inliers,
    inlier_mask,
    rotation_error,
    translation_error,
    weighted_kabsch,
)
from reglab.kernels import consistency_matrix, consistency_row
from reglab.synth import SceneConfig, generate


# -- minimal samples ------------------------------------------------------------


@pytest.mark.parametrize("seed", range(5))
def test_minimal_samples_are_distinct_and_deterministic(seed):
    rng = make_rng(seed)
    samples = minimal_samples(rng, n=10, iterations=500)
    assert samples.shape == (500, 3)
    assert samples.dtype == np.int64
    assert np.all((samples >= 0) & (samples < 10))
    for col_a, col_b in ((0, 1), (0, 2), (1, 2)):
        assert np.all(samples[:, col_a] != samples[:, col_b])
    again = minimal_samples(make_rng(seed), n=10, iterations=500)
    assert np.array_equal(samples, again)


def test_minimal_samples_smallest_population():
    samples = minimal_samples(make_rng(1), n=3, iterations=50)
    assert sorted(set(map(tuple, samples.tolist()))) == sorted(
        {(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)}
        & set(map(tuple, samples.tolist()))
    )
    for row in samples:
        assert sorted(row.tolist()) == [0, 1, 2]


# -- ransac ----------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(5))
def test_ransac_recovers_planted_transform(seed):
    cfg = SceneConfig(n=200, outlier_ratio=0.4, noise_sigma=0.005, seed=seed + 70)
    c, gt = generate(cfg)
    hyp = ransac(c, iterations=500, delta=0.10, seed=seed)
    assert hyp.seed_index is None
    assert rotation_error(gt, hyp.transform) < 1.0
    assert translation_error(gt, hyp.transform) < 3.0
    assert hyp.inlier_count >= int(c.labels.sum()) * 0.9


def test_ransac_fields_are_consistent():
    c, _ = generate(SceneConfig(n=120, outlier_ratio=0.3, noise_sigma=0.01, seed=5))
    hyp = ransac(c, iterations=300, delta=0.10, seed=3)
    want_members = np.flatnonzero(inlier_mask(hyp.transform, c, 0.10))
    assert np.array_equal(hyp.consensus, want_members)
    assert hyp.consensus.dtype == np.int64
    assert hyp.inlier_count == count_inliers(hyp.transform, c, 0.10)
    assert hyp.inlier_count == hyp.consensus.size


def test_ransac_scan_winner_matches_winning_triple_fit():
    """The scan's returned fit is the winning triple's weighted_kabsch fit."""
    c, _ = generate(SceneConfig(n=80, outlier_ratio=0.4, noise_sigma=0.01, seed=6))
    samples = minimal_samples(make_rng(9), len(c), 200)
    best_iter, best_count, rotation, translation = kernels.ransac_scan(
        c.source, c.target, samples, 0.10)

    counts = []
    for triple in samples:
        sub = CorrespondenceSet(c.source[triple], c.target[triple])
        try:
            fit = weighted_kabsch(sub, np.ones(3))
        except DegenerateInputError:
            counts.append(-1)
            continue
        counts.append(count_inliers(fit, c, 0.10))
    best = int(np.argmax(counts))  # argmax keeps the earliest tie
    assert (best_iter, best_count) == (best, counts[best])
    sub = CorrespondenceSet(c.source[samples[best]], c.target[samples[best]])
    want = weighted_kabsch(sub, np.ones(3))
    np.testing.assert_allclose(rotation, want.rotation, atol=1e-9)
    np.testing.assert_allclose(translation, want.translation, atol=1e-9)


def test_ransac_keeps_the_fit_its_scan_scored():
    """ransac starts from the scan's winner: it refits exactly the inliers that
    the scan counted, and with one strict inlier it refuses that fit with the
    scan's count (it used to return the winner itself, on one pair)."""
    rng = make_rng(5)  # 40 unrelated pairs
    c = CorrespondenceSet(rng.uniform(-1, 1, size=(40, 3)), rng.uniform(-1, 1, size=(40, 3)))
    samples = minimal_samples(make_rng(3), len(c), 300)  # the samples ransac(seed=3) draws
    _, best_count, _, _ = kernels.ransac_scan(c.source, c.target, samples, 0.05)
    assert best_count == 1
    with pytest.raises(RegistrationFailure, match=r"\(inliers: 1\)$"):
        ransac(c, iterations=300, delta=0.05, seed=3)

    c, _ = generate(SceneConfig(n=100, outlier_ratio=0.5, noise_sigma=0.01, seed=7))
    samples = minimal_samples(make_rng(11), len(c), 200)
    _, best_count, rotation, translation = kernels.ransac_scan(c.source, c.target, samples, 0.10)
    members = np.flatnonzero(inlier_mask(RigidTransform(rotation, translation), c, 0.10))
    assert members.size == best_count >= 3
    want = _kabsch(c.source[members], c.target[members], np.ones(members.size))
    hyp = ransac(c, iterations=200, delta=0.10, seed=11)
    assert hyp.transform.rotation.tobytes() == want.rotation.tobytes()
    assert hyp.transform.translation.tobytes() == want.translation.tobytes()


def test_ransac_is_deterministic_per_seed():
    c, _ = generate(SceneConfig(n=100, outlier_ratio=0.5, noise_sigma=0.01, seed=7))
    a = ransac(c, iterations=200, delta=0.10, seed=11)
    b = ransac(c, iterations=200, delta=0.10, seed=11)
    assert a.transform.rotation.tobytes() == b.transform.rotation.tobytes()
    assert np.array_equal(a.consensus, b.consensus)
    other = ransac(c, iterations=200, delta=0.10, seed=12)
    assert other.inlier_count >= 1  # different stream still succeeds


def test_ransac_validation_and_failure():
    c, _ = generate(SceneConfig(n=20, seed=8))
    with pytest.raises(ContractError):
        ransac(c, iterations=0)
    with pytest.raises(ContractError):
        ransac(c, delta=0.0)
    tiny = CorrespondenceSet(np.zeros((2, 3)), np.zeros((2, 3)))
    with pytest.raises(DegenerateInputError):
        ransac(tiny)
    coincident = CorrespondenceSet(np.zeros((5, 3)), np.zeros((5, 3)))
    with pytest.raises(RegistrationFailure):
        ransac(coincident, iterations=50)


def test_ransac_refuses_a_fit_without_inliers():
    """Target = source at 1e154. The scan's winner counts only the pairs whose
    residual rounds to exactly 0, and its refit's translation, about 1e137,
    is below the coordinates' ulp yet moves every one of them: ransac
    reported success with 0 inliers."""
    src = make_rng(0).uniform(-1.0, 1.0, size=(60, 3)) * 1e154
    c = CorrespondenceSet(src, src)
    with pytest.raises(RegistrationFailure,
                       match=r"the best fit has fewer than 3 inliers at delta 0.1 \(inliers: 0\)$"):
        ransac(c)


@pytest.mark.parametrize("draw", [1, 5, 6])
def test_ransac_refuses_a_fit_with_fewer_inliers_than_a_minimal_sample(draw):
    """The same scene on these draws kept 1 inlier, a pair whose residual rounds
    to exactly 0 under a translation of about 7e137, and ransac reported
    success. The fit is refused, and the covariance product that overflows
    on the way raises no warning (rigid_fits flags those covariances)."""
    src = make_rng(draw).uniform(-1.0, 1.0, size=(60, 3)) * 1e154
    c = CorrespondenceSet(src, src)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RegistrationFailure,
                           match=r"fewer than 3 inliers at delta 0.1 \(inliers: 1\)$"):
            ransac(c)


def ransac_recovers(c, gt, iterations, seed) -> bool:
    """Within 15 degrees and 30 m of gt; a fit without inliers fails and is no win."""
    try:
        hyp = ransac(c, iterations=iterations, delta=0.10, seed=seed)
    except RegistrationFailure:
        return False
    return (rotation_error(gt, hyp.transform) < 15.0
            and translation_error(gt, hyp.transform) < 30.0)


def test_ransac_success_rate_monotone_in_iterations():
    """More iterations help at high outlier ratios (statistical, one-sided)."""
    wins_small, wins_large = 0, 0
    trials = 40
    for t in range(trials):
        cfg = SceneConfig(n=100, outlier_ratio=0.8, noise_sigma=0.005, seed=900 + t)
        c, gt = generate(cfg)
        wins_small += int(ransac_recovers(c, gt, iterations=5, seed=t))
        wins_large += int(ransac_recovers(c, gt, iterations=500, seed=t))
    # all-inlier triple probability is 0.2^3 = 0.008: 5 draws succeed rarely,
    # 500 draws nearly always
    assert wins_large >= wins_small + 10
    assert wins_large >= int(trials * 0.9)


# -- power iteration ---------------------------------------------------------------


@pytest.mark.parametrize("seed", range(8))
def test_power_iteration_matches_dense_eigensolver(seed):
    rng = make_rng(seed + 100)
    n = int(rng.integers(3, 30))
    half = rng.random((n, n))
    m = (half + half.T) / 2.0
    np.fill_diagonal(m, 0.0)
    v, eigenvalue, iterations, residual = power_iteration(m)

    evals, evecs = np.linalg.eigh(m)
    lead = evecs[:, -1] * np.sign(evecs[:, -1].sum() or 1.0)
    got = v * np.sign(v.sum() or 1.0)
    assert abs(eigenvalue - evals[-1]) < 1e-6 * abs(evals[-1])
    assert np.abs(got - lead).max() < 1e-5
    assert residual <= 1e-9 * eigenvalue
    assert 1 <= iterations <= 1000


def test_power_iteration_residual_contract():
    rng = make_rng(200)
    m = rng.random((12, 12))
    m = (m + m.T) / 2.0
    v, eigenvalue, _, residual = power_iteration(m)
    assert np.linalg.norm(m @ v - eigenvalue * v) <= 1e-9 * eigenvalue
    assert abs(np.linalg.norm(v) - 1.0) < 1e-12


def test_power_iteration_scale_invariance(monkeypatch):
    monkeypatch.setattr(baselines, "POWER_TOL", 1e-12)
    rng = make_rng(201)
    m = rng.random((10, 10))
    m = (m + m.T) / 2.0
    v1, lam1, _, _ = power_iteration(m)
    v2, lam2, _, _ = power_iteration(7.5 * m)
    assert np.abs(v1 - v2).max() < 1e-9
    assert abs(lam2 - 7.5 * lam1) < 1e-9 * abs(lam2)


def test_power_iteration_stops_at_the_first_nan_eigenvalue():
    """A NaN entry keeps every iterate NaN: one product, then ConvergenceError."""

    class CountedProducts:
        def __init__(self, m):
            self.m, self.shape, self.products = m, m.shape, 0

        def __matmul__(self, v):
            self.products += 1
            return self.m @ v

    m = np.ones((6, 6))
    m[1, 4] = m[4, 1] = np.nan
    counted = CountedProducts(m)
    with pytest.raises(ConvergenceError, match="eigenvalue nan"):
        power_iteration(counted)
    assert counted.products == 1


def test_power_iteration_exhausted_budget_raises(monkeypatch):
    monkeypatch.setattr(baselines, "POWER_MAX_ITERATIONS", 1)
    rng = make_rng(202)
    m = rng.random((20, 20))
    m = (m + m.T) / 2.0
    with pytest.raises(ConvergenceError, match="did not converge in 1 of 1 iterations"):
        power_iteration(m)


# -- spectral matching ---------------------------------------------------------------


def sm_matrix(src, tgt, sigma):
    """spectral_matching's compatibility matrix: consistency off the diagonal, zeros on it."""
    m = consistency_matrix(src, tgt, sigma)
    np.fill_diagonal(m, 0.0)
    return m


def test_spectral_matching_zero_matrix_special_case():
    # any length pairing is wildly inconsistent: all-zero compatibility
    src = np.array([[0.0, 0, 0], [10.0, 0, 0], [0, 10.0, 0], [0, 0, 10.0]])
    tgt = np.array([[0.0, 0, 0], [0.1, 0, 0], [0, 0.1, 0], [0, 0, 0.1]])
    result = spectral_matching(CorrespondenceSet(src, tgt), sigma_d=0.1)
    assert np.array_equal(result.confidences, np.zeros(4))
    assert result.selected.size == 0
    assert result.eigenvalue == 0.0 and result.iterations == 0


def test_spectral_matching_without_positive_entries_is_the_zero_case():
    """Distances past 1e154 overflow: every pair is NaN or 0, and none is positive."""
    src = np.array([[0.0, 0, 0], [1e200, 0, 0], [0, 1e200, 0], [0, 0, 1e200]])
    c = CorrespondenceSet(src, 2.0 * src)
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.isnan(consistency_matrix(src, 2.0 * src, 0.1)).any()
        result = spectral_matching(c, sigma_d=0.1)
    assert np.array_equal(result.confidences, np.zeros(4))
    assert result.selected.size == 0
    assert result.eigenvalue == 0.0 and result.iterations == 0


def test_spectral_matching_smallest_positive_entry_is_not_the_zero_case():
    """One pair at 2^-53, the smallest positive consistency, and every other pair at 0."""
    sigma = float.fromhex("0x1.a66cf4ae57c93p+0")
    d = float(np.nextafter(sigma, 0.0))                # 1 - d^2 / sigma^2 rounds to 2^-53
    src = np.array([[0.0, 0, 0], [d, 0, 0], [50.0, 0, 0], [0, 50.0, 0]])
    tgt = np.zeros((4, 3))
    m = sm_matrix(src, tgt, sigma)
    assert m[0, 1] == m[1, 0] == 2.0**-53 and np.count_nonzero(m) == 2
    result = spectral_matching(CorrespondenceSet(src, tgt), sigma_d=sigma)
    assert result.eigenvalue == pytest.approx(2.0**-53, rel=1e-15) and result.iterations == 2
    assert result.confidences[0] == result.confidences[1] == pytest.approx(0.5**0.5, rel=1e-15)
    np.testing.assert_array_equal(result.confidences[2:], 0.0)
    np.testing.assert_array_equal(result.selected, [0])


@pytest.mark.parametrize("seed", range(5))
def test_spectral_confidences_properties(seed):
    cfg = SceneConfig(n=60, outlier_ratio=0.4, noise_sigma=0.005, seed=seed + 40)
    c, _ = generate(cfg)
    result = spectral_matching(c, sigma_d=0.10)
    assert np.all(result.confidences >= 0.0)
    assert result.confidences.shape == (60,)
    m = sm_matrix(c.source, c.target, 0.10)
    v = result.confidences
    assert result.residual <= 1e-9 * result.eigenvalue
    assert np.linalg.norm(m @ v - result.eigenvalue * v) <= 1e-6 * result.eigenvalue


def test_spectral_greedy_selection_is_mutually_consistent():
    cfg = SceneConfig(n=80, outlier_ratio=0.5, noise_sigma=0.005, seed=55)
    c, _ = generate(cfg)
    result = spectral_matching(c, sigma_d=0.10)
    sel = result.selected
    assert sel.size >= 3
    # earlier picks zero out anything below TAU = 0.5, so all survivors are
    # pairwise consistent with every earlier pick
    for pos, i in enumerate(sel):
        row = consistency_row(c.source, c.target, int(i), 0.10)
        for j in sel[pos + 1 :]:
            assert row[j] >= 0.5
    # and picks are emitted in descending confidence order
    assert np.all(np.diff(result.confidences[sel]) <= 1e-15)


def _reference_greedy_sweep(c, confidences, sigma_d, tau):
    """The greedy sweep recomputing each selected pair's consistency row."""
    scores = confidences.copy()
    selected = []
    while True:
        i = int(np.argmax(scores))
        if scores[i] <= 0.0:
            break
        selected.append(i)
        scores[i] = 0.0
        row = consistency_row(c.source, c.target, i, sigma_d)
        scores[row < tau] = 0.0
    return np.asarray(selected, dtype=np.int64)


@pytest.mark.parametrize(
    "scene, n, ratio, seed, tau",
    [
        ("indoor", 300, 0.5, 80, 0.5),
        ("indoor", 300, 0.2, 81, 0.9),
        ("indoor", 500, 0.8, 82, 1.0),
        ("outdoor", 2000, 0.8, 83, 0.5),
        ("outdoor", 2000, 0.8, 84, 0.5),
    ],
)
def test_spectral_sweep_matches_row_recomputing_reference(monkeypatch, scene, n, ratio, seed,
                                                          tau):
    """The sweep suppresses below baselines.TAU; the rows at 0.9 and 1.0 set it
    there, to check the sweep near and at the top of the consistency range."""
    monkeypatch.setattr(baselines, "TAU", tau)
    c, _ = generate(SceneConfig(n=n, outlier_ratio=ratio, scene=scene, seed=seed))
    sigma_d = 0.10 if scene == "indoor" else 0.60
    result = spectral_matching(c, sigma_d=sigma_d)
    want = _reference_greedy_sweep(c, result.confidences, sigma_d, tau)
    assert want.size >= (1 if tau == 1.0 else 3)  # at tau 1 only exact lengths survive
    assert np.array_equal(result.selected, want)


def argmax_sweep(confidences, m, tau):
    """The greedy sweep as written before: one argmax per selected pair."""
    scores = confidences.copy()
    selected = []
    while True:
        i = int(np.argmax(scores))
        if scores[i] <= 0.0:
            break
        selected.append(i)
        scores[i] = 0.0
        scores[m[i] < tau] = 0.0
    return np.asarray(selected, dtype=np.int64)


@pytest.mark.parametrize("seed", range(25))
def test_spectral_sweep_matches_argmax_loop_on_criterion_8_scenes(seed):
    c, _ = generate(SceneConfig(n=60, outlier_ratio=0.4, noise_sigma=0.01, seed=80_000 + seed))
    result = spectral_matching(c, sigma_d=0.10)
    m = sm_matrix(c.source, c.target, 0.10)
    assert np.array_equal(result.selected, argmax_sweep(result.confidences, m, 0.5))


@pytest.mark.parametrize("case", ["all_ties", "grouped_ties", "all_zero"])
def test_spectral_sweep_matches_argmax_loop_on_ties_and_zeros(monkeypatch, case):
    """Tied scores go to the lower index; all-zero scores select nothing."""
    rng = make_rng(85)
    n = 40
    m = (rng.random((n, n)) < 0.7) * rng.uniform(0.3, 1.0, size=(n, n))
    m = np.maximum(m, m.T)
    np.fill_diagonal(m, 0.0)
    v = {"all_ties": np.ones(n), "grouped_ties": rng.integers(0, 4, size=n) / 3.0,
         "all_zero": -np.ones(n)}[case]
    monkeypatch.setattr(baselines.kernels, "consistency_matrix", lambda *a, **k: m)
    monkeypatch.setattr(baselines, "power_iteration", lambda *a, **k: (v, 1.0, 1, 0.0))
    result = spectral_matching(CorrespondenceSet(np.zeros((n, 3)), np.zeros((n, 3))), 0.1)
    want = argmax_sweep(np.maximum(v, 0.0), m, 0.5)
    assert np.array_equal(result.selected, want)
    assert want.size == 0 if case == "all_zero" else 1 < want.size < n


def test_spectral_four_pair_worked_example_matches_eigh():
    src = np.array([[0.0, 0, 0], [1.0, 0, 0], [0, 1.0, 0], [0.3, 0.4, 0.5]])
    tgt = src + np.array([0.5, -0.2, 0.1])  # pure translation: fully consistent
    tgt[3] += np.array([0.0, 0.6, 0.0])  # except the last pair
    c = CorrespondenceSet(src, tgt)
    result = spectral_matching(c, sigma_d=0.4)

    m = sm_matrix(src, tgt, 0.4)
    evals, evecs = np.linalg.eigh(m)
    lead = evecs[:, -1]
    if lead.sum() < 0:
        lead = -lead
    np.testing.assert_allclose(result.confidences, np.maximum(lead, 0.0), atol=1e-6)
    assert abs(result.eigenvalue - evals[-1]) <= 1e-6 * evals[-1]
    assert set(result.selected.tolist()) >= {0, 1, 2}
    assert 3 not in result.selected.tolist()


@pytest.mark.parametrize("seed", range(3))
def test_spectral_register_end_to_end(seed):
    cfg = SceneConfig(n=150, outlier_ratio=0.4, noise_sigma=0.005, seed=seed + 60)
    c, gt = generate(cfg)
    hyp, result = spectral_register(c, delta=0.10)
    assert hyp.seed_index is None
    assert rotation_error(gt, hyp.transform) < 1.5
    assert translation_error(gt, hyp.transform) < 5.0
    assert hyp.inlier_count == count_inliers(hyp.transform, c, 0.10)
    assert np.array_equal(hyp.consensus, result.selected)


def test_spectral_register_too_few_selected_raises():
    src = np.array([[0.0, 0, 0], [10.0, 0, 0], [0, 10.0, 0], [0, 0, 10.0]])
    tgt = np.array([[0.0, 0, 0], [0.1, 0, 0], [0, 0.1, 0], [0, 0, 0.1]])
    with pytest.raises(RegistrationFailure):
        spectral_register(CorrespondenceSet(src, tgt), delta=0.1)


def test_spectral_register_degenerate_selection_raises():
    line = np.stack([[float(i), 0.0, 0.0] for i in range(8)])
    c = CorrespondenceSet(line, line)  # perfectly consistent but collinear
    with pytest.raises(RegistrationFailure):
        spectral_register(c, delta=0.1)
