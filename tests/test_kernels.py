"""Hot kernels: brute-force oracles and invariants."""

import numpy as np
import pytest

from conftest import make_rng, random_transform
from reglab.kernels import (
    _SCAN_BLOCK_ENTRIES,
    consistency_matrix,
    consistency_row,
    ransac_scan,
)


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


# -- scans that span several blocks ---------------------------------------------
#
# ransac_scan scores samples in blocks of max(1, _SCAN_BLOCK_ENTRIES // 3N);
# these inputs put the winner, a tie and the degenerate triples on either
# side of a block boundary.


def block_step(n):
    return max(1, _SCAN_BLOCK_ENTRIES // (3 * n))


def outlier_scene(seed, n=200, inliers=120, noise=0.0):
    """Rows [0, inliers) follow one rigid motion; the rest are uniform outliers."""
    rng = make_rng(seed)
    src = rng.uniform(-2, 2, size=(n, 3))
    tgt = random_transform(rng).apply(src) + rng.normal(scale=noise, size=(n, 3))
    tgt[inliers:] = rng.uniform(-4, 4, size=(n - inliers, 3))
    return rng, src, tgt


def draw_triples(rng, pool, count):
    return np.stack(
        [rng.choice(pool, size=3, replace=False) for _ in range(count)]
    ).astype(np.int64)


def case_n2000(count):
    def build():
        rng, src, tgt = outlier_scene(500 + count, n=2000, inliers=400, noise=0.03)
        samples = draw_triples(rng, 2000, count)
        assert count > 2 * block_step(2000)
        return src, tgt, samples, None
    return build


def case_best_in_later_block():
    rng, src, tgt = outlier_scene(601)
    step = block_step(200)
    samples = draw_triples(rng, np.arange(120, 200), 3 * step)
    samples[2 * step + 5] = [3, 50, 90]
    return src, tgt, samples, 2 * step + 5


def case_best_is_last_sample():
    rng, src, tgt = outlier_scene(606)
    step = block_step(200)
    samples = draw_triples(rng, np.arange(120, 200), 3 * step + 7)
    samples[-1] = [7, 70, 107]
    return src, tgt, samples, len(samples) - 1


def case_tie_across_boundary():
    rng, src, tgt = outlier_scene(602)
    step = block_step(200)
    samples = draw_triples(rng, np.arange(120, 200), 3 * step)
    samples[2 * step - 1] = [0, 40, 80]
    samples[2 * step] = [10, 60, 110]
    return src, tgt, samples, 2 * step - 1


def case_first_block_degenerate():
    rng, src, tgt = outlier_scene(603)
    step = block_step(200)
    samples = draw_triples(rng, np.arange(120, 200), step + 40)
    samples[:step] = draw_triples(rng, 200, step)
    samples[:step, 1] = samples[:step, 0]  # two coincident points per triple
    samples[:step:2, 2] = samples[:step:2, 0]  # and all three on every other
    samples[step + 10] = [5, 55, 105]
    return src, tgt, samples, step + 10


def case_all_degenerate_blocks():
    _, src, tgt = outlier_scene(604)
    samples = np.repeat(np.arange(200, dtype=np.int64)[:, None], 3, axis=1)
    samples = np.concatenate([samples, samples[:60]])
    return src, tgt, samples, -1


def case_no_samples():
    _, src, tgt = outlier_scene(605)
    return src, tgt, np.empty((0, 3), dtype=np.int64), -1


BLOCK_CASES = {
    "n2000_whole_blocks": case_n2000(1000),
    "n2000_partial_last_block": case_n2000(1005),
    "best_in_later_block": case_best_in_later_block,
    "best_is_last_sample": case_best_is_last_sample,
    "tie_across_boundary_keeps_earlier": case_tie_across_boundary,
    "first_block_degenerate": case_first_block_degenerate,
    "all_degenerate_blocks": case_all_degenerate_blocks,
    "no_samples": case_no_samples,
}


@pytest.mark.parametrize("case", sorted(BLOCK_CASES))
def test_ransac_scan_across_blocks_matches_oracle(case):
    src, tgt, samples, want_iter = BLOCK_CASES[case]()
    got = ransac_scan(src, tgt, samples, 0.1)
    assert got == scan_oracle(src, tgt, samples, 0.1)
    if want_iter is not None:
        assert got[0] == want_iter
