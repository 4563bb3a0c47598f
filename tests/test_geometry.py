"""Exact geometric core: constructors, Kabsch fit, selection, error metrics."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (compose, make_rng, random_correspondences, random_rotation,
                      random_transform, residuals, smallest_sigma_with_nonzero_square)
from reglab.errors import ContractError, DegenerateInputError, RegistrationFailure, ShapeError
from reglab import kernels
from reglab.geometry import (
    DEFAULT_DELTA,
    _kabsch,
    _kabsch_segments,
    SUCCESS_GATES,
    CorrespondenceSet,
    RigidTransform,
    apply_transform,
    count_inliers,
    inlier_mask,
    registration_success,
    rotation_error,
    select_best_transform,
    translation_error,
    weighted_kabsch,
)
from reglab.baselines import ransac, spectral_register
from reglab.synth import SceneConfig, generate, rotation_from_axis_angle
from register_gate import TRANSFORM_TOL


def weighted_cost(transform, c, weights):
    res = residuals(transform, c)
    return float((np.asarray(weights) * res**2).sum())


# -- RigidTransform ---------------------------------------------------------


def test_transform_rejects_scaled_rotation():
    with pytest.raises(ContractError):
        RigidTransform(1.001 * np.eye(3), np.zeros(3))


def test_transform_rejects_reflection():
    with pytest.raises(ContractError):
        RigidTransform(np.diag([1.0, 1.0, -1.0]), np.zeros(3))


def test_transform_rejects_non_finite():
    r = np.eye(3)
    r[0, 0] = np.nan
    with pytest.raises(ContractError):
        RigidTransform(r, np.zeros(3))
    with pytest.raises(ContractError):
        RigidTransform(np.eye(3), np.array([0.0, np.inf, 0.0]))


def test_transform_arrays_frozen_and_copied():
    r = np.eye(3)
    t = np.zeros(3)
    tf = RigidTransform(r, t)
    r[0, 0] = 5.0  # caller's array, must not leak in
    t[0] = 9.0
    assert tf.rotation[0, 0] == 1.0 and tf.translation[0] == 0.0
    with pytest.raises(ValueError):
        tf.rotation[0, 0] = 2.0
    with pytest.raises(ValueError):
        tf.translation[0] = 2.0


def test_identity_apply_compose():
    rng = make_rng(0)
    pts = rng.uniform(-4, 4, size=(30, 3))
    ident = RigidTransform.identity()
    np.testing.assert_array_equal(ident.apply(pts), pts)

    tf = random_transform(rng)
    manual = np.stack([tf.rotation @ p + tf.translation for p in pts])
    np.testing.assert_allclose(tf.apply(pts), manual, atol=1e-14)

    other = random_transform(rng)
    np.testing.assert_allclose(
        compose(tf, other).apply(pts), tf.apply(other.apply(pts)), atol=1e-12
    )


def test_apply_transform_validates_points():
    tf = RigidTransform.identity()
    with pytest.raises(ShapeError):
        apply_transform(tf, np.zeros((3, 2)))
    with pytest.raises(ContractError):
        apply_transform(tf, np.full((3, 3), np.nan))


# -- CorrespondenceSet ------------------------------------------------------


def test_correspondence_set_validation():
    good = np.zeros((5, 3))
    with pytest.raises(ShapeError):
        CorrespondenceSet(good, np.zeros((4, 3)))
    with pytest.raises(ShapeError):
        CorrespondenceSet(good, good, labels=np.ones(4, dtype=bool))
    labels = np.ones(5, dtype=bool)
    c = CorrespondenceSet(good, good, labels=labels)
    assert len(c) == 5
    with pytest.raises(ValueError):
        c.source[0, 0] = 1.0
    with pytest.raises(ValueError):
        c.labels[0] = False
    labels[0] = False  # the caller's array is copied, as the points are
    good[0, 0] = 1.0
    assert c.labels.all() and c.source[0, 0] == 0.0


# -- residuals / inlier counting --------------------------------------------


def test_residuals_match_loop_oracle():
    rng = make_rng(3)
    c, gt = random_correspondences(rng, n=25, noise=0.05)
    tf = random_transform(rng)
    got = residuals(tf, c)
    want = np.array(
        [np.linalg.norm(tf.rotation @ s + tf.translation - t) for s, t in zip(c.source, c.target)]
    )
    np.testing.assert_allclose(got, want, atol=1e-14)
    assert residuals(gt, c).max() < 0.2  # noise-level residuals under the truth


def test_count_inliers_is_strict_at_the_boundary():
    source = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    target = source.copy()
    target[0, 0] += 0.5  # residual exactly 0.5
    target[1, 0] += 0.25
    c = CorrespondenceSet(source, target)
    ident = RigidTransform.identity()
    assert count_inliers(ident, c, 0.5) == 3  # the boundary pair is excluded
    assert count_inliers(ident, c, 0.5000001) == 4
    mask = inlier_mask(ident, c, 0.5)
    assert mask.tolist() == [False, True, True, True]


def test_count_inliers_rejects_nonpositive_delta():
    c = CorrespondenceSet(np.zeros((3, 3)), np.zeros((3, 3)))
    for bad in (0.0, -1.0):
        with pytest.raises(ContractError):
            count_inliers(RigidTransform.identity(), c, bad)


INLIER_TESTS = {  # each returns its inlier count
    "count_inliers": lambda c, delta: count_inliers(RigidTransform.identity(), c, delta),
    "inlier_mask": lambda c, delta: int(inlier_mask(RigidTransform.identity(), c, delta).sum()),
    "select_best_transform": lambda c, delta: select_best_transform(
        [RigidTransform.identity()], c, delta).inlier_count,
    "ransac": lambda c, delta: ransac(c, 10, delta).inlier_count,
    "spectral_register": lambda c, delta: spectral_register(c, delta)[0].inlier_count,
}


@pytest.mark.parametrize("name", sorted(INLIER_TESTS))
@pytest.mark.parametrize("delta", [-0.1, -0.0, np.nan, np.inf, -np.inf, "underflows"])
def test_inlier_tests_refuse_a_delta_that_is_not_a_usable_radius(name, delta):
    """One check: a delta <= 0, NaN, infinite or with a square that underflows to 0.

    Unchecked, -0.1 read as +0.1 (inlier_mask of the true motion found all 50 inliers
    of this scene), NaN counted no inliers and ransac at +inf counted all 100 pairs.
    spectral_register at +inf built and fitted the whole N x N matrix before a refusal
    that named count_inliers, and at -0.1 its refusal named consistency_rows."""
    if delta == "underflows":
        delta = float(np.nextafter(smallest_sigma_with_nonzero_square(), 0.0))
        assert delta > 0.0 and delta * delta == 0.0
    c, _ = generate(SceneConfig(n=100, outlier_ratio=0.5, seed=1))
    with pytest.raises(ContractError, match=f"^{name}: delta must be positive and finite"):
        INLIER_TESTS[name](c, delta)


@pytest.mark.parametrize("name", sorted(INLIER_TESTS))
def test_inlier_tests_accept_the_smallest_delta_with_a_nonzero_square(name):
    src = make_rng(8).uniform(-1, 1, size=(5, 3))
    c = CorrespondenceSet(src, src)  # every residual under the identity is exactly 0
    try:
        count = INLIER_TESTS[name](c, smallest_sigma_with_nonzero_square())
    except RegistrationFailure as exc:  # ransac ran, and its final fit kept 0 to 2 inliers
        assert name == "ransac" and "fewer than 3 inliers" in str(exc)
        count = 0
    if name in ("ransac", "spectral_register"):  # their fits round, so no residual need be 0
        assert 0 <= count <= 5
    else:
        assert count == 5


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    d1=st.floats(0.01, 2.0),
    d2=st.floats(0.01, 2.0),
)
def test_count_inliers_monotone_in_delta(seed, d1, d2):
    rng = make_rng(seed)
    c, _ = random_correspondences(rng, n=15, noise=0.3)
    tf = random_transform(rng)
    lo, hi = sorted((d1, d2))
    assert count_inliers(tf, c, lo) <= count_inliers(tf, c, hi)


# -- weighted_kabsch ---------------------------------------------------------


@pytest.mark.parametrize("seed", range(50))
def test_kabsch_exact_recovery(seed):
    rng = make_rng(seed + 1000)
    c, gt = random_correspondences(rng, n=20, noise=0.0)
    weights = rng.uniform(0.1, 2.0, size=20)
    est = weighted_kabsch(c, weights)
    assert rotation_error(gt, est) < 1e-8
    assert translation_error(gt, est) < 1e-10 * 100.0


@pytest.mark.parametrize("seed", range(10))
def test_kabsch_weight_scale_invariance(seed):
    rng = make_rng(seed + 2000)
    c, _ = random_correspondences(rng, n=15, noise=0.1)
    weights = rng.uniform(0.0, 1.0, size=15)
    weights[:3] = 1.0  # keep three strictly positive
    a = weighted_kabsch(c, weights)
    b = weighted_kabsch(c, weights * 7.25)
    assert np.abs(a.rotation - b.rotation).max() < 1e-12
    assert np.abs(a.translation - b.translation).max() < 1e-12


@pytest.mark.parametrize("seed", range(10))
def test_kabsch_equivariance_under_rigid_motion(seed):
    rng = make_rng(seed + 3000)
    c, _ = random_correspondences(rng, n=18, noise=0.05)
    weights = rng.uniform(0.1, 1.0, size=18)
    g = random_transform(rng)
    moved = CorrespondenceSet(c.source, g.apply(c.target))
    est = weighted_kabsch(c, weights)
    est_moved = weighted_kabsch(moved, weights)
    expected = compose(g, est)
    assert np.abs(est_moved.rotation - expected.rotation).max() < 1e-9
    assert np.abs(est_moved.translation - expected.translation).max() < 1e-9


@pytest.mark.parametrize("seed", range(5))
def test_kabsch_is_local_minimum_of_weighted_cost(seed):
    rng = make_rng(seed + 4000)
    c, _ = random_correspondences(rng, n=25, noise=0.15)
    weights = rng.uniform(0.1, 1.0, size=25)
    est = weighted_kabsch(c, weights)
    base = weighted_cost(est, c, weights)
    for _ in range(20):
        axis = rng.normal(size=3)
        wiggle = rotation_from_axis_angle(axis / np.linalg.norm(axis), 1e-3)
        perturbed = RigidTransform(
            wiggle @ est.rotation, est.translation + rng.normal(scale=1e-3, size=3)
        )
        assert weighted_cost(perturbed, c, weights) >= base - 1e-12


def test_kabsch_mirrored_target_still_returns_proper_rotation():
    rng = make_rng(99)
    src = rng.uniform(-1, 1, size=(12, 3))
    mirrored = src * np.array([-1.0, 1.0, 1.0])  # reflection, not a rotation
    c = CorrespondenceSet(src, mirrored)
    est = weighted_kabsch(c, np.ones(12))
    assert abs(np.linalg.det(est.rotation) - 1.0) < 1e-9


def test_kabsch_error_cases():
    rng = make_rng(5)
    c, _ = random_correspondences(rng, n=10, noise=0.0)
    with pytest.raises(ShapeError):
        weighted_kabsch(c, np.ones(9))
    with pytest.raises(ContractError):
        weighted_kabsch(c, -np.ones(10))
    with pytest.raises(ContractError):
        weighted_kabsch(c, np.zeros(10))
    two = np.zeros(10)
    two[:2] = 1.0
    with pytest.raises(DegenerateInputError):
        weighted_kabsch(c, two)

    line = np.stack([[float(i), 0.0, 0.0] for i in range(6)])
    collinear = CorrespondenceSet(line, line + 1.0)
    with pytest.raises(DegenerateInputError):
        weighted_kabsch(collinear, np.ones(6))

    same = CorrespondenceSet(np.zeros((5, 3)), np.zeros((5, 3)))
    with pytest.raises(DegenerateInputError):
        weighted_kabsch(same, np.ones(5))


@pytest.mark.parametrize("seed", range(5))
def test_unwrapped_kabsch_core_equals_weighted_kabsch_on_index_subsets(seed):
    """The pipeline fits index subsets with _kabsch, skipping the CorrespondenceSet copy."""
    rng = make_rng(seed + 4500)
    c, _ = random_correspondences(rng, n=60, noise=0.05)
    probs = rng.uniform(0.0, 1.0, size=60)
    idx = np.sort(rng.choice(60, size=int(rng.integers(3, 60)), replace=False))
    got = _kabsch(c.source[idx], c.target[idx], probs[idx])
    want = weighted_kabsch(CorrespondenceSet(c.source[idx], c.target[idx]), probs[idx])
    assert np.array_equal(got.rotation, want.rotation)
    assert np.array_equal(got.translation, want.translation)
    for weights, error in [(-probs[idx], ContractError), (0.0 * probs[idx], ContractError)]:
        with pytest.raises(error):
            _kabsch(c.source[idx], c.target[idx], weights)
    two = np.zeros(idx.size)
    two[:2] = 1.0
    with pytest.raises(DegenerateInputError):
        _kabsch(c.source[idx], c.target[idx], two)


def reference_kabsch(src, tgt, weights):
    """The one-problem weighted Kabsch fit as written before the segment solve,
    with the errors the fit raised then."""
    if np.any(weights < 0.0):
        raise ContractError("weighted_kabsch: negative weights")
    total = weights.sum()
    if not (total > 0.0):
        raise ContractError("weighted_kabsch: all weights are zero")
    if int((weights > 0.0).sum()) < 3:
        raise DegenerateInputError("weighted_kabsch: fewer than 3 pairs with positive weight")
    w = weights / total
    mu_s = w @ src
    mu_t = w @ tgt
    h = ((src - mu_s) * w[:, None]).T @ (tgt - mu_t)
    u, s, vt = np.linalg.svd(h)
    d = np.sign(np.linalg.det(vt.T @ u.T))
    if s[0] <= 0.0 or s[1] <= 1e-9 * s[0] or d == 0.0:  # rank-deficient, or a singular alignment
        raise DegenerateInputError("weighted_kabsch: weighted covariance is rank-deficient "
                                   "(collinear or coincident support)")
    rotation = (vt.T * np.array([1.0, 1.0, d])) @ u.T
    try:
        return RigidTransform(rotation, mu_t - rotation @ mu_s)
    except ContractError:
        raise ContractError("weighted_kabsch: fit fails the RigidTransform checks") from None


def reference_segments(src_t, tgt_t, idx, sizes, weights):
    """geometry._kabsch_segments with each segment fitted alone by reference_kabsch:
    the swap under which the register gate compares the segment solve."""
    fits, lo = [], 0
    for size in sizes:
        members, part = idx[lo:lo + size], weights[lo:lo + size]
        try:
            fits.append(reference_kabsch(src_t[:, members].T, tgt_t[:, members].T, part))
        except (ContractError, DegenerateInputError) as exc:
            fits.append(exc)
        lo += size
    return fits


def fit_outcome(fit, *problem):
    try:
        return fit(*problem)
    except (ContractError, DegenerateInputError) as exc:
        return type(exc)


def assert_same_outcome(got, want, tol=0.0):
    """The same failure class, or transforms whose entries differ by at most ``tol``."""
    if isinstance(want, type):
        assert isinstance(got, want) or got is want
    elif tol == 0.0:
        assert np.array_equal(got.rotation, want.rotation)
        assert np.array_equal(got.translation, want.translation)
    else:
        assert isinstance(got, RigidTransform), got
        assert np.abs(got.rotation - want.rotation).max() <= tol
        assert np.abs(got.translation - want.translation).max() <= tol


def fit_problems(seed):
    """Probability-weighted subsets of a noisy scene, and failing problems between them:
    one per failure outcome, an empty problem first, between and last, and NaN weights."""
    rng = make_rng(seed)
    c, _ = random_correspondences(rng, n=200, noise=0.05)
    probs = rng.uniform(0.0, 1.0, size=200)
    problems = []
    for _ in range(40):
        idx = np.sort(rng.choice(200, size=int(rng.integers(3, 200)), replace=False))
        problems.append((c.source[idx], c.target[idx], probs[idx] * rng.uniform(0, 1, idx.size)))
    line = np.stack([[float(i), 2.0 * i, 0.0] for i in range(6)])
    two = np.r_[1.0, 1.0, np.zeros(8)]
    empty = (np.zeros((0, 3)), np.zeros((0, 3)), np.zeros(0))
    failures = [
        (c.source[:10], c.target[:10], np.zeros(10)),                 # zero weight total
        (c.source[:10], c.target[:10], -probs[:10]),                  # negative weights
        (c.source[:10], c.target[:10], two),                          # < 3 positive weights
        (line, line + 1.0, np.ones(6)),                               # collinear support
        (np.zeros((5, 3)), np.zeros((5, 3)), np.ones(5)),             # coincident support
        empty,                                                        # no pairs
        (c.source[:10], c.target[:10], np.r_[np.nan, probs[1:10]]),   # a NaN weight
        (c.source[:10], c.target[:10], np.r_[np.nan, -1.0, probs[2:10]]),  # NaN and negative
    ]
    for k, bad in enumerate(failures):
        problems.insert(5 * k + 3, bad)
    return [empty, *problems, empty]


def as_segments(problems, seed=0):
    """The problems' points pooled in a shuffled order, and the segment solve's
    (src_t, tgt_t, idx, sizes, weights) that fits each problem as one segment."""
    src = np.concatenate([p[0] for p in problems])
    tgt = np.concatenate([p[1] for p in problems])
    order = make_rng(seed).permutation(len(src))
    slot = np.argsort(order)  # pooled pair i sits at column slot[i]
    return (np.ascontiguousarray(src[order].T), np.ascontiguousarray(tgt[order].T), slot,
            [len(p[0]) for p in problems], np.concatenate([p[2] for p in problems]))


@pytest.mark.parametrize("seed", range(3))
def test_stacked_fits_equal_one_problem_fits_bit_for_bit(seed):
    """Each segment of one solve equals its one-segment fit, failing problems between them."""
    problems = fit_problems(4600 + seed)
    got = _kabsch_segments(*as_segments(problems, seed))
    assert len(got) == len(problems)
    outcomes = set()
    for problem, fit in zip(problems, got):
        want = fit_outcome(_kabsch, *problem)
        assert_same_outcome(fit, want)
        if isinstance(want, type):
            with pytest.raises(want, match=f"^{re.escape(str(fit))}$"):
                _kabsch(*problem)
        outcomes.add(want if isinstance(want, type) else RigidTransform)
    assert outcomes == {RigidTransform, ContractError, DegenerateInputError}


@pytest.mark.parametrize("seed", range(3))
def test_segment_fits_match_the_one_problem_reference(seed):
    """Against the formula before the segment solve: the same outcome class, and
    transforms within the register gate's tolerance."""
    problems = fit_problems(4650 + seed)
    segments = as_segments(problems, seed)
    got = _kabsch_segments(*segments)
    for fit, want in zip(got, reference_segments(*segments), strict=True):
        if isinstance(want, Exception):
            assert type(fit) is type(want) and str(fit) == str(want)
        else:
            assert_same_outcome(fit, want, TRANSFORM_TOL)


def test_empty_and_nan_weighted_problems_fail_as_before():
    """reduceat gives an empty segment its start entry, not 0: an empty problem still
    has a zero total. A NaN weight makes the total NaN, which is not positive."""
    rng = make_rng(4660)
    c, _ = random_correspondences(rng, n=10, noise=0.05)
    with pytest.raises(ContractError, match="all weights are zero"):
        weighted_kabsch(CorrespondenceSet(np.zeros((0, 3)), np.zeros((0, 3))), np.zeros(0))
    with pytest.raises(ContractError, match="all weights are zero"):
        _kabsch(np.zeros((0, 3)), np.zeros((0, 3)), np.zeros(0))
    nan = np.r_[1.0, np.nan, np.ones(8)]
    with pytest.raises(ContractError, match="all weights are zero"):
        weighted_kabsch(c, nan)
    with pytest.raises(ContractError, match="negative weights"):
        weighted_kabsch(c, np.r_[nan[:9], -1.0])
    cols = (np.ascontiguousarray(c.source.T), np.ascontiguousarray(c.target.T))
    good = np.arange(10)
    fits = _kabsch_segments(*cols, np.r_[good, good, good], [0, 10, 0, 10, 10, 0],
                            np.r_[np.ones(10), nan, np.ones(10)])
    want = weighted_kabsch(c, np.ones(10))
    for k in (1, 4):
        assert_same_outcome(fits[k], want)
    for k in (0, 2, 3, 5):
        assert isinstance(fits[k], ContractError) and "all weights are zero" in str(fits[k])


def test_a_non_finite_covariance_is_a_contract_error():
    """An infinite weight gives NaN normalised weights; the fit is refused by name
    and does not reach the stacked SVD, so its neighbours are still solved."""
    rng = make_rng(4670)
    c, _ = random_correspondences(rng, n=10, noise=0.05)
    cols = (np.ascontiguousarray(c.source.T), np.ascontiguousarray(c.target.T))
    good = np.arange(10)
    fits = _kabsch_segments(*cols, np.r_[good, good, good], [10, 10, 10],
                            np.r_[np.ones(10), np.inf, np.ones(19)])
    assert isinstance(fits[1], ContractError) and "non-finite" in str(fits[1])
    assert_same_outcome(fits[0], weighted_kabsch(c, np.ones(10)))
    assert_same_outcome(fits[2], fits[0])


def test_stacked_fits_report_a_singular_alignment(monkeypatch):
    """sign(det(V U^T)) == 0 marks that problem degenerate, in one solve or alone."""
    problems = fit_problems(4700)[1:7]
    marked = _kabsch(*problems[4]).rotation  # V U^T itself when no flip was needed
    real_det = np.linalg.det

    def det(a):
        out = np.asarray(real_det(a), dtype=np.float64)
        hit = (np.asarray(a)[..., 0, 0] == marked[0, 0]) & (np.asarray(a)[..., 2, 2] == marked[2, 2])
        return np.where(hit, 0.0, out)[()]

    monkeypatch.setattr(np.linalg, "det", det)
    got = _kabsch_segments(*as_segments(problems))
    for k, problem in enumerate(problems):
        want = fit_outcome(_kabsch, *problem)
        assert (want is DegenerateInputError) == (k == 4)
        assert_same_outcome(got[k], want)


def test_stacked_fits_report_a_failed_transform_check(monkeypatch):
    """A fit failing RigidTransform's checks is a ContractError, in one solve or alone."""
    problems = fit_problems(4800)[1:4]
    src, _, weights = problems[1]
    # its source centroid, as the segment solve forms it
    marked = np.add.reduceat(src.T * (weights / np.add.reduceat(weights, [0])), [0], axis=1)[:, 0]
    real = kernels.rigid_fits

    def skewed(h, mu_src, mu_tgt):
        r, t, ok = real(h, mu_src, mu_tgt)
        hit = (mu_src == marked).all(axis=1)
        r[hit] = r[hit] @ np.array([[1.0, 1e-6, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        return r, t, ok  # a shear keeps det(R) = 1 but breaks orthonormality

    clean = [_kabsch(*problem) for problem in problems]
    monkeypatch.setattr(kernels, "rigid_fits", skewed)
    got = _kabsch_segments(*as_segments(problems))
    assert isinstance(got[1], ContractError)
    with pytest.raises(ContractError):
        _kabsch(*problems[1])
    for k in (0, 2):
        assert_same_outcome(got[k], clean[k])


# -- select_best_transform ----------------------------------------------------


def selection_oracle(candidates, c, delta):
    keys = []
    for i, cand in enumerate(candidates):
        res = residuals(cand, c)
        hits = res < delta
        count = int(hits.sum())
        mean = float(res[hits].mean()) if count else np.inf
        keys.append((-count, mean, i))
    return min(keys)[2]


@pytest.mark.parametrize("seed", range(15))
def test_selection_matches_brute_force(seed):
    rng = make_rng(seed + 5000)
    c, gt = random_correspondences(rng, n=30, noise=0.05)
    candidates = [random_transform(rng) for _ in range(6)] + [gt]
    rng.shuffle(candidates)
    got = select_best_transform(candidates, c, 0.2)
    assert got.index == selection_oracle(candidates, c, 0.2)
    assert got.transform is candidates[got.index]
    assert got.inlier_count == count_inliers(candidates[got.index], c, 0.2)


def test_selection_tie_breaks():
    rng = make_rng(6)
    c, gt = random_correspondences(rng, n=20, noise=0.0)
    # identical candidates: lowest index wins
    picked = select_best_transform([gt, gt, gt], c, 0.1)
    assert picked.index == 0

    # equal counts, different mean residual: lower mean wins
    src = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=float)
    c2 = CorrespondenceSet(src, src)
    shift_far = RigidTransform(np.eye(3), np.array([0.09, 0.0, 0.0]))
    shift_near = RigidTransform(np.eye(3), np.array([0.01, 0.0, 0.0]))
    got = select_best_transform([shift_far, shift_near], c2, 0.1)
    assert got.index == 1 and got.inlier_count == 4

    # all zero-inlier candidates: mean residual inf for every key, index decides
    far = RigidTransform(np.eye(3), np.array([100.0, 0.0, 0.0]))
    farther = RigidTransform(np.eye(3), np.array([200.0, 0.0, 0.0]))
    got = select_best_transform([far, farther], c2, 0.1)
    assert got.index == 0 and got.inlier_count == 0


def test_selection_counts_inliers_with_the_count_inliers_predicate():
    # 0.028^2 + 0.096^2 rounds below 0.1^2 while its square root rounds to 0.1
    c = CorrespondenceSet(np.zeros((4, 3)), np.array([[0.028, 0.096, 0.0]] + [[0.0] * 3] * 3))
    ident = RigidTransform.identity()
    assert count_inliers(ident, c, 0.1) == 4
    assert select_best_transform([ident], c, 0.1).inlier_count == 4


def reference_select(candidates, c, delta):
    """The per-candidate selection loop as written before the stacked kernel."""
    best, counts = None, []
    for i, cand in enumerate(candidates):
        d = c.source @ cand.rotation.T + cand.translation - c.target
        sq = (d * d).sum(axis=1)
        hits = sq < delta * delta
        count = int(hits.sum())
        counts.append(count)
        mean_res = float(np.sqrt(sq[hits]).mean()) if count > 0 else np.inf
        key = (-count, mean_res, i)
        if best is None or key < best:
            best = key
    return best[2], tuple(counts)


def selection_cases():
    """(candidates, c, delta): stacks of several blocks with tied counts and means."""
    rng = make_rng(5100)
    for n in (250, 2003):
        c, gt = random_correspondences(rng, n=n, noise=0.04)
        near = [RigidTransform(gt.rotation, gt.translation + rng.normal(scale=0.01, size=3))
                for _ in range(4)]
        far = RigidTransform(np.eye(3), np.array([1e3, 0.0, 0.0]))  # zero inliers
        pool = [random_transform(rng) for _ in range(20)] + near + [gt, far]
        picks = rng.integers(0, len(pool), size=3 * kernels.transforms_per_block(n) + 5)
        yield [pool[i] for i in picks], c, 0.1  # repeats: tied counts and tied means
        yield [far, far, random_transform(rng)], c, 0.1  # zero-inlier ties
    src = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=float)
    c4 = CorrespondenceSet(src, src)
    # equal counts and equal means from different candidates: the index decides
    yield [RigidTransform(np.eye(3), np.array(t)) for t in
           ([0.0, 0.05, 0.0], [0.05, 0.0, 0.0], [0.0, 0.0, 0.05], [0.0, -0.05, 0.0])], c4, 0.1
    # a later block ties the best count with a lower mean residual
    step = kernels.transforms_per_block(len(c4))
    yield ([RigidTransform(np.eye(3), np.array([0.05, 0.0, 0.0]))] * step
           + [RigidTransform(np.eye(3), np.array([0.0, 0.01, 0.0]))]), c4, 0.1
    # residuals {0.05, 0.05} against {0, 0.08}: the mean of the residuals decides, not
    # the mean of their squares
    c2 = CorrespondenceSet(np.zeros((2, 3)), np.array([[0.0, 0.0, 0.0], [0.08, 0.0, 0.0]]))
    yield [RigidTransform(np.eye(3), np.array([0.04, 0.03, 0.0])), RigidTransform.identity()], c2, 0.1


def test_stacked_selection_equals_per_candidate_loop():
    for candidates, c, delta in selection_cases():
        got = select_best_transform(candidates, c, delta)
        index, counts = reference_select(candidates, c, delta)
        assert (got.index, got.counts) == (index, counts)
        assert got.transform is candidates[index] and got.inlier_count == counts[index]


def test_selection_empty_candidates_raise():
    c = CorrespondenceSet(np.zeros((4, 3)), np.zeros((4, 3)))
    with pytest.raises(DegenerateInputError):
        select_best_transform([], c, 0.1)


# -- error metrics and success gates ------------------------------------------


@pytest.mark.parametrize("seed", range(10))
def test_rotation_error_matches_axis_angle(seed):
    rng = make_rng(seed + 6000)
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    theta = float(rng.uniform(0.0, np.pi))
    r = rotation_from_axis_angle(axis, theta)
    base = random_rotation(rng)
    assert abs(rotation_error(base, r @ base) - np.degrees(theta)) < 1e-7


def test_rotation_error_clamps_and_accepts_transforms():
    tf = random_transform(make_rng(1))
    assert rotation_error(tf, tf) == 0.0
    assert rotation_error(tf.rotation, tf.rotation) == 0.0
    flipped = rotation_from_axis_angle(np.array([0.0, 0.0, 1.0]), np.pi)
    assert abs(rotation_error(np.eye(3), flipped) - 180.0) < 1e-9


def test_rotation_error_resolves_tiny_angles():
    rng = make_rng(77)
    base = random_rotation(rng)
    theta = np.radians(1e-9)  # far below the arccos quantization floor
    wiggle = rotation_from_axis_angle(np.array([1.0, 0.0, 0.0]), theta)
    got = rotation_error(base, wiggle @ base)
    assert 0.5e-9 < got < 2e-9


@pytest.mark.parametrize("seed", range(10))
def test_rotation_error_matches_atan2_oracle(seed):
    rng = make_rng(seed + 7000)
    a, b = random_rotation(rng), random_rotation(rng)
    rel = a.T @ b
    sin = np.linalg.norm(rel - rel.T) / (2.0 * np.sqrt(2.0))
    cos = (np.trace(rel) - 1.0) / 2.0
    want = np.degrees(np.arctan2(sin, cos))
    assert abs(rotation_error(a, b) - want) < 1e-9


def test_translation_error_is_centimeters():
    a = np.zeros(3)
    b = np.array([0.03, 0.04, 0.0])
    assert abs(translation_error(a, b) - 5.0) < 1e-12
    tf1 = RigidTransform(np.eye(3), a)
    tf2 = RigidTransform(np.eye(3), b)
    assert abs(translation_error(tf1, tf2) - 5.0) < 1e-12


def test_success_gates_are_strict():
    assert SUCCESS_GATES == {"indoor": (15.0, 30.0), "outdoor": (5.0, 60.0)}
    assert DEFAULT_DELTA == {"indoor": 0.10, "outdoor": 0.60}
    assert registration_success(14.999, 29.999, "indoor")
    assert not registration_success(15.0, 1.0, "indoor")
    assert not registration_success(1.0, 30.0, "indoor")
    assert registration_success(4.999, 59.999, "outdoor")
    assert not registration_success(5.0, 1.0, "outdoor")
    assert not registration_success(1.0, 60.0, "outdoor")
    with pytest.raises(ContractError):
        registration_success(1.0, 1.0, "underwater")
