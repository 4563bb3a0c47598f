"""Hot kernels: brute-force oracles and invariants."""

import numpy as np
import pytest

from conftest import make_rng, random_transform
from reglab.kernels import consistency_matrix, consistency_row, ransac_scan


def consistency_oracle(src, tgt, sigma, zero_diagonal=False):
    """Scalar-loop re-derivation of the pairwise length-consistency score."""
    n = src.shape[0]
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if zero_diagonal and i == j:
                continue
            ds = np.linalg.norm(src[i] - src[j])
            dt = np.linalg.norm(tgt[i] - tgt[j])
            out[i, j] = max(0.0, 1.0 - (ds - dt) ** 2 / sigma**2)
    return out


def triple_fit_oracle(a, b):
    """Independent rigid fit to three paired points (None if degenerate)."""
    ca, cb = a.mean(axis=0), b.mean(axis=0)
    h = (a - ca).T @ (b - cb)
    u, s, vt = np.linalg.svd(h)
    if s[1] <= 1e-9 * s[0]:
        return None
    d = np.sign(np.linalg.det(vt.T @ u.T))
    if d == 0.0:
        return None
    r = (vt.T * np.array([1.0, 1.0, d])) @ u.T
    return r, cb - r @ ca


def scan_oracle(src, tgt, samples, delta):
    """Re-score every sample independently; first-wins on count ties."""
    best_iter, best_count = -1, -1
    for m, idx in enumerate(samples):
        fit = triple_fit_oracle(src[idx], tgt[idx])
        if fit is None:
            continue
        r, t = fit
        res = np.linalg.norm(src @ r.T + t - tgt, axis=1)
        count = int((res < delta).sum())
        if count > best_count:
            best_iter, best_count = m, count
    return best_iter, best_count


@pytest.mark.parametrize("seed", range(8))
def test_consistency_matrix_matches_loop_oracle(seed):
    rng = make_rng(seed)
    n = int(rng.integers(2, 30))
    src = rng.uniform(-3, 3, size=(n, 3))
    tgt = rng.uniform(-3, 3, size=(n, 3))
    sigma = float(rng.uniform(0.05, 1.5))
    for zd in (False, True):
        got = consistency_matrix(src, tgt, sigma, zero_diagonal=zd)
        want = consistency_oracle(src, tgt, sigma, zero_diagonal=zd)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)


def test_consistency_matrix_basic_properties():
    rng = make_rng(123)
    src = rng.uniform(-3, 3, size=(40, 3))
    tgt = rng.uniform(-3, 3, size=(40, 3))
    m = consistency_matrix(src, tgt, 0.2)
    assert m.shape == (40, 40)
    assert np.all(m >= 0.0) and np.all(m <= 1.0)
    np.testing.assert_allclose(m, m.T, atol=1e-15)
    np.testing.assert_array_equal(np.diag(m), np.ones(40))
    z = consistency_matrix(src, tgt, 0.2, zero_diagonal=True)
    np.testing.assert_array_equal(np.diag(z), np.zeros(40))
    off = ~np.eye(40, dtype=bool)
    np.testing.assert_array_equal(z[off], m[off])


def test_consistency_matrix_perfect_rigid_pair_is_all_ones():
    rng = make_rng(7)
    src = rng.uniform(-2, 2, size=(25, 3))
    tf = random_transform(rng)
    tgt = tf.apply(src)
    m = consistency_matrix(src, tgt, 0.1)
    np.testing.assert_allclose(m, np.ones((25, 25)), atol=1e-9)


@pytest.mark.parametrize("sigma", [0.0, -0.5])
def test_consistency_matrix_rejects_nonpositive_sigma(sigma):
    pts = np.zeros((4, 3))
    with pytest.raises(ValueError):
        consistency_matrix(pts, pts, sigma)


@pytest.mark.parametrize("seed", range(5))
def test_consistency_row_matches_matrix_row(seed):
    rng = make_rng(seed + 40)
    n = int(rng.integers(3, 25))
    src = rng.uniform(-3, 3, size=(n, 3))
    tgt = rng.uniform(-3, 3, size=(n, 3))
    sigma = float(rng.uniform(0.05, 1.0))
    m = consistency_matrix(src, tgt, sigma)
    for i in (0, n // 2, n - 1):
        np.testing.assert_allclose(consistency_row(src, tgt, i, sigma), m[i], atol=1e-12)


@pytest.mark.parametrize("seed", range(10))
def test_backend_parity_consistency(seed):
    rng = make_rng(seed + 80)
    n = int(rng.integers(2, 60))
    src = rng.uniform(-5, 5, size=(n, 3))
    tgt = rng.uniform(-5, 5, size=(n, 3))
    sigma = float(rng.uniform(0.05, 2.0))
    got = consistency_matrix(src, tgt, sigma)
    ref = consistency_oracle(src, tgt, sigma)
    np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12)


@pytest.mark.parametrize("seed", range(20))
def test_backend_parity_ransac_scan_exact(seed):
    rng = make_rng(seed + 200)
    n = int(rng.integers(8, 50))
    src = rng.uniform(-3, 3, size=(n, 3))
    tf = random_transform(rng)
    tgt = tf.apply(src) + rng.normal(scale=0.05, size=(n, 3))
    samples = rng.integers(0, n, size=(30, 3)).astype(np.int64)
    got = ransac_scan(src, tgt, samples, 0.15)
    assert got == scan_oracle(src, tgt, samples, 0.15)


@pytest.mark.parametrize("seed", range(10))
def test_ransac_scan_matches_rescoring_oracle(seed):
    rng = make_rng(seed + 300)
    n = int(rng.integers(10, 40))
    src = rng.uniform(-3, 3, size=(n, 3))
    tf = random_transform(rng)
    tgt = tf.apply(src)
    bad = rng.random(n) < 0.4
    tgt[bad] = rng.uniform(-3, 3, size=(int(bad.sum()), 3))
    samples = np.stack(
        [rng.choice(n, size=3, replace=False) for _ in range(40)]
    ).astype(np.int64)
    got = ransac_scan(src, tgt, samples, 0.1)
    assert got == scan_oracle(src, tgt, samples, 0.1)
    assert got[1] >= 1  # a correct triple scores at least its own members


def test_ransac_scan_tie_keeps_earliest_iteration():
    rng = make_rng(11)
    src = rng.uniform(-2, 2, size=(12, 3))
    tf = random_transform(rng)
    tgt = tf.apply(src)
    # iteration 0 is degenerate (collinear), 1 and 2 are identical perfect fits
    src[0], src[1], src[2] = [0, 0, 0], [1, 0, 0], [2, 0, 0]
    tgt[:3] = tf.apply(src[:3])
    samples = np.array([[0, 1, 2], [3, 4, 5], [3, 4, 5]], dtype=np.int64)
    best_iter, best_count = ransac_scan(src, tgt, samples, 0.1)
    assert (best_iter, best_count) == (1, 12)


def test_ransac_scan_all_degenerate_returns_minus_one():
    src = np.array([[float(i), 0.0, 0.0] for i in range(6)])
    tgt = src.copy()
    samples = np.array([[0, 1, 2], [1, 2, 3], [2, 3, 4]], dtype=np.int64)
    assert ransac_scan(src, tgt, samples, 0.1) == (-1, -1)
