"""Hot kernels: brute-force oracles and invariants."""

import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import reglab.kernels
from conftest import make_rng, random_transform, smallest_sigma_with_nonzero_square
from reglab.errors import ConfigurationError
from reglab.kernels import (
    _ARRAY_BYTES_LIMIT,
    _CACHE_ENTRIES,
    _EXP_ZERO_BELOW,
    _LEAD_ROWS,
    _MIN_BLOCK_PRODUCT,
    _ROW_BLOCK,
    _MAX_STACK,
    _MIN_PRODUCT_ENTRIES,
    _ROW_TILE,
    _SCAN_BLOCK_ENTRIES,
    _SCAN_CHUNK,
    attend_rows,
    check_array_bytes,
    consistency_matrix,
    consistency_row,
    consistency_rows,
    consistency_triangle,
    inlier_band,
    inlier_coefficients,
    inlier_features,
    ransac_scan,
    rigid_fits,
    row_blocks,
    softmax_rows,
    squared_residuals,
    strict_inliers,
    transforms_per_block,
)
from reglab.autodiff import Tensor
from reglab.blocks import GPINet, ModelConfig, _attend
from reglab.geometry import (CorrespondenceSet, RigidTransform, _point_columns, _squared_residuals,
                             inlier_mask)
from reglab.synth import SceneConfig, generate

BENCH_PARAMS = Path(__file__).resolve().parents[1] / "bench" / "model" / "params.json"


def consistency_oracle(src, tgt, sigma):
    """Scalar-loop re-derivation of the pairwise length-consistency score."""
    n = src.shape[0]
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
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


def scan(src, tgt, samples, delta):
    """ransac_scan's (best_iter, best_count), once its returned fit is checked.

    The fit is the winning triple's, within 1e-12 of triple_fit_oracle, and
    None with (-1, -1).
    """
    best_iter, best_count, rotation, translation = ransac_scan(src, tgt, samples, delta)
    if best_iter < 0:
        assert rotation is None and translation is None
    else:
        r, t = triple_fit_oracle(src[samples[best_iter]], tgt[samples[best_iter]])
        np.testing.assert_allclose(rotation, r, rtol=0, atol=1e-12)
        np.testing.assert_allclose(translation, t, rtol=0, atol=1e-12)
    return best_iter, best_count


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
    got = consistency_matrix(src, tgt, sigma)
    np.testing.assert_allclose(got, consistency_oracle(src, tgt, sigma), rtol=0, atol=1e-13)


def test_consistency_matrix_basic_properties():
    rng = make_rng(123)
    src = rng.uniform(-3, 3, size=(40, 3))
    tgt = rng.uniform(-3, 3, size=(40, 3))
    m = consistency_matrix(src, tgt, 0.2)
    assert m.shape == (40, 40)
    assert np.all(m >= 0.0) and np.all(m <= 1.0)
    np.testing.assert_allclose(m, m.T, atol=1e-15)
    np.testing.assert_array_equal(np.diag(m), np.ones(40))


def test_consistency_matrix_perfect_rigid_pair_is_all_ones():
    rng = make_rng(7)
    src = rng.uniform(-2, 2, size=(25, 3))
    tf = random_transform(rng)
    tgt = tf.apply(src)
    m = consistency_matrix(src, tgt, 0.1)
    np.testing.assert_allclose(m, np.ones((25, 25)), atol=1e-9)


@pytest.mark.parametrize("sigma", [0.0, -0.5, np.nan, np.inf])
def test_consistency_matrix_rejects_nonpositive_sigma(sigma):
    """At +inf every entry read 1: spectral_matching selected all 200 of 200 pairs."""
    pts = np.zeros((4, 3))
    with pytest.raises(ValueError):
        consistency_matrix(pts, pts, sigma)


def test_consistency_kernels_refuse_a_sigma_whose_square_underflows():
    """gap / sigma^2 with sigma^2 == 0 puts 0 / 0 = NaN on the diagonal."""
    sigma = smallest_sigma_with_nonzero_square()
    pts = make_rng(30).normal(size=(5, 3))
    m = consistency_matrix(pts, pts, sigma)
    assert np.array_equal(m, np.ones((5, 5)))
    with pytest.raises(ConfigurationError, match="sigma"):
        consistency_rows(pts, pts, float(np.nextafter(sigma, 0.0)), 0, 5)


def test_consistency_rows_at_a_tiny_sigma_clamp_overflow_without_a_warning():
    """At sigma 1e-160, sigma^2 is subnormal and gap^2 / sigma^2 overflows off a
    seed's own entry; 1 - inf clamps to an exact 0, and no warning is raised."""
    rng = make_rng(31)
    src, tgt = rng.uniform(-2, 2, size=(40, 3)), rng.uniform(-2, 2, size=(40, 3))
    seeds = np.array([0, 17, 39, 17])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = consistency_rows(src, tgt, 1e-160, seeds)
    assert np.array_equal(rows, (seeds[:, None] == np.arange(40)).astype(np.float64))


def consistency_full_reference(src, tgt, sigma, rows=None):
    """The one-shot N x N formula: every pairwise difference at once.

    With ``rows``, the same formula for those rows only.
    """
    rows = slice(None) if rows is None else rows
    dxs = src[rows, 0][:, None] - src[:, 0][None, :]
    dys = src[rows, 1][:, None] - src[:, 1][None, :]
    dzs = src[rows, 2][:, None] - src[:, 2][None, :]
    ds = np.sqrt(dxs * dxs + dys * dys + dzs * dzs)
    dxt = tgt[rows, 0][:, None] - tgt[:, 0][None, :]
    dyt = tgt[rows, 1][:, None] - tgt[:, 1][None, :]
    dzt = tgt[rows, 2][:, None] - tgt[:, 2][None, :]
    dt = np.sqrt(dxt * dxt + dyt * dyt + dzt * dzt)
    gap = ds - dt
    return np.maximum(0.0, 1.0 - (gap * gap) / (sigma * sigma))


@pytest.mark.parametrize("n", [1, 239, 240, 241, 255, 256, 257, 359, 360, 517])
def test_consistency_matrix_across_row_blocks_matches_full_reference(n):
    assert len(list(row_blocks(517))) == 2 and len(list(row_blocks(360))) == 2
    rng = make_rng(n)
    src = rng.uniform(-20, 20, size=(n, 3))
    tgt = rng.uniform(-20, 20, size=(n, 3))
    want = consistency_full_reference(src, tgt, 0.4)
    np.testing.assert_array_equal(consistency_matrix(src, tgt, 0.4), want)
    for lo, hi in [(0, n), (n - 1, n), (n // 2, n), (0, min(n, 300))]:
        np.testing.assert_array_equal(consistency_rows(src, tgt, 0.4, lo, hi), want[lo:hi])
        np.testing.assert_array_equal(consistency_row(src, tgt, lo, 0.4), want[lo])
    rows = np.r_[rng.permutation(n)[:37], n - 1, 0, n - 1]  # any order, repeats allowed
    np.testing.assert_array_equal(consistency_rows(src, tgt, 0.4, rows), want[rows])


@pytest.mark.parametrize("n", [5, 31, 2047, 2049])
def test_consistency_rows_across_cache_chunks_match_full_reference(n):
    """Blocks are computed in chunks of _CACHE_ENTRIES // 2N rows; here they split unevenly."""
    rng = make_rng(900 + n)
    src = rng.uniform(-20, 20, size=(n, 3))
    tgt = rng.uniform(-20, 20, size=(n, 3))
    chunk = max(1, _CACHE_ENTRIES // (2 * n))
    uneven = (7 % n, min(n, 7 + 3 * chunk + 5))
    for lo, hi in [(0, n), (n // 3, n), (n - 1, n), (0, min(n, 240)), uneven]:
        rows = np.arange(lo, hi)
        want = consistency_full_reference(src, tgt, 0.4, rows=rows)
        np.testing.assert_array_equal(consistency_rows(src, tgt, 0.4, lo, hi), want)
    # unsorted, with repeats, and more than one chunk long even at small N
    rows = np.r_[rng.integers(0, n, size=2 * chunk + 3), n - 1, 0, n - 1]
    want = consistency_full_reference(src, tgt, 0.4, rows=rows)
    np.testing.assert_array_equal(consistency_rows(src, tgt, 0.4, rows), want)


@pytest.mark.parametrize("n", [3, 241, 481, 517, 1001])
def test_mirrored_consistency_matrix_matches_row_by_row_reference(n):
    """The matrix computes each row block from its diagonal on and mirrors the rest."""
    rng = make_rng(950 + n)
    src = rng.uniform(-20, 20, size=(n, 3))
    tgt = src + rng.normal(scale=0.3, size=(n, 3))  # most pairs consistent, some not
    want = np.vstack([consistency_full_reference(src, tgt, 0.4, rows=[i]) for i in range(n)])
    got = consistency_matrix(src, tgt, 0.4)
    np.testing.assert_array_equal(got, want)
    assert 0.0 < got.mean() < 1.0


# -- pairwise differences as BLAS products ------------------------------------
#
# The consistency kernels form p_i - p_j as the product [p_i, 1] @ [1; -p_j].
# Both of its terms are exact, so the one rounding of their sum is that of the
# subtraction; only the sign of an exact zero may differ, and squaring drops it.


def adversarial_values(rng, kind, size, mix=("zeros", "magnitudes", "offsets", "subnormal")):
    """Coordinates that stress p_i - p_j, of one kind or ("mixed") drawn from the kinds in ``mix``."""
    if kind == "zeros":             # +-0.0 and many coordinates equal
        return rng.choice([0.0, -0.0, 1.0, -1.0, 2.5], size=size)
    if kind == "magnitudes":        # 1e-150 .. 1e150, either sign
        return rng.choice([-1.0, 1.0], size=size) * 10.0 ** rng.uniform(-150, 150, size=size)
    if kind == "offsets":           # 1e6 with 1e-9 jitter: differences cancel
        return 1e6 + rng.normal(scale=1e-9, size=size)
    if kind == "subnormal":         # integer multiples of the smallest subnormal
        return np.ldexp(rng.integers(-2**20, 2**20, size=size).astype(np.float64), -1074)
    pool = np.concatenate([adversarial_values(rng, k, size).ravel() for k in mix])
    return rng.choice(pool, size=size)


ADVERSARIAL_KINDS = ("zeros", "magnitudes", "offsets", "subnormal", "mixed")
ADVERSARIAL_SIGMA = {"zeros": 1.5, "magnitudes": 1e3, "offsets": 1e-9,
                     "subnormal": 1e-150, "mixed": 1.0}


def assert_same_bits(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [31, 517])
@pytest.mark.parametrize("kind", ADVERSARIAL_KINDS)
def test_consistency_kernels_equal_the_broadcast_reference_on_adversarial_points(kind, n):
    """Rows, triangle and matrix against the literal broadcast formula, bit for bit."""
    rng = make_rng(ADVERSARIAL_KINDS.index(kind) * 1000 + n)
    src = adversarial_values(rng, kind, (n, 3))
    tgt = adversarial_values(rng, kind, (n, 3))
    tgt[::3] = src[::3]                 # pairs whose differences are equal in both clouds
    sigma = ADVERSARIAL_SIGMA[kind]
    want = consistency_full_reference(src, tgt, sigma)
    assert_same_bits(consistency_matrix(src, tgt, sigma), want)
    for lo, hi in [(0, n), (n // 2, n), (n - 1, n)]:
        assert_same_bits(consistency_rows(src, tgt, sigma, lo, hi), want[lo:hi])
    rows = np.r_[rng.permutation(n)[:23], n - 1, 0, n - 1]
    assert_same_bits(consistency_rows(src, tgt, sigma, rows), want[rows])
    for reuse in (False, True):
        for lo, hi, block in consistency_triangle(src, tgt, sigma, reuse):
            assert_same_bits(block, want[lo:hi, lo:])


def test_consistency_kernels_on_adversarial_points_take_every_value_kind():
    """The adversarial cases reach zeros, ones and values strictly between."""
    values = set()
    for kind in ADVERSARIAL_KINDS:
        rng = make_rng(ADVERSARIAL_KINDS.index(kind) * 1000 + 517)
        src, tgt = adversarial_values(rng, kind, (517, 3)), adversarial_values(rng, kind, (517, 3))
        m = consistency_matrix(src, tgt, ADVERSARIAL_SIGMA[kind])
        values |= {"zero" if x == 0.0 else "one" if x == 1.0 else "between" for x in np.unique(m)}
    assert values == {"zero", "one", "between"}


@pytest.mark.parametrize("mix, heights", [(("zeros", "magnitudes", "offsets"), (1, 7, 16, 131, 240)),
                                         (("zeros", "subnormal"), (1, 7, 16))],
                         ids=["normal", "subnormal"])
def test_blas_products_of_inner_dimension_two_are_exact_differences(mix, heights):
    """[p, 1] @ [1; -q] == np.subtract.outer(p, q) on the installed BLAS.

    Every lhs height the kernels use (a one-row gemv, short and full row
    tiles, a cache chunk, a row block) against every width up to N = 2003,
    so each column tail of the BLAS kernels is covered. A BLAS that rounds
    the two exact terms' sum otherwise must fail here. Subnormal operands
    take a slow path in the FPU, so they sweep the short heights only.
    """
    rng = make_rng(2003)
    p = adversarial_values(rng, "mixed", 240, mix)
    q = adversarial_values(rng, "mixed", 2003, mix)
    q[::7] = p[np.arange(len(q[::7])) % 240]     # equal coordinates
    want = np.subtract.outer(p, q)
    left = np.ones((240, 2))
    left[:, 0] = p
    for w in range(1, 2004):
        right = np.ones((2, w))
        np.negative(q[:w], out=right[1])
        for h in heights:
            assert np.array_equal(np.matmul(left[:h], right), want[:h, :w]), (h, w)


def test_consistency_kernels_give_the_same_bytes_with_one_and_two_blas_threads():
    import os
    import subprocess
    import sys

    code = (
        "import hashlib\n"
        "import numpy as np\n"
        "from reglab.kernels import consistency_matrix, consistency_rows, consistency_triangle\n"
        "rng = np.random.Generator(np.random.PCG64(2003))\n"
        "src = rng.uniform(-20, 20, size=(2003, 3))\n"
        "tgt = src + rng.normal(scale=0.3, size=(2003, 3))\n"
        "for part in (consistency_matrix(src, tgt, 0.4),\n"
        "             *(b for _, _, b in consistency_triangle(src, tgt, 0.4, False)),\n"
        "             consistency_rows(src, tgt, 0.4, rng.integers(0, 2003, size=300))):\n"
        "    print(hashlib.sha256(part.tobytes()).hexdigest())\n"
    )
    package_dir = os.path.dirname(os.path.dirname(os.path.abspath(reglab.kernels.__file__)))
    hashes = []
    for threads in ("1", "2"):
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env={"PATH": "/usr/bin:/bin", "PYTHONPATH": package_dir, "OPENBLAS_NUM_THREADS": threads,
                 "OMP_NUM_THREADS": threads, "MKL_NUM_THREADS": threads},
            check=False,
        )
        assert out.returncode == 0, out.stderr
        hashes.append(out.stdout.split())
    assert len(hashes[0]) == 1 + len(list(row_blocks(2003))) + 1
    assert hashes[0] == hashes[1]


def test_consistency_matrix_blocks_fit_in_the_rows_above_them():
    """consistency_matrix computes each block after the first in the rows above it.
    From N = 600 on there are three blocks or more, and each block after the first
    is at most as tall as the rows above it."""
    for n in range(1, 3000):
        for lo, hi in row_blocks(n):
            assert lo == 0 or (hi - lo) * (n - lo) <= lo * n, (n, lo, hi)


@pytest.mark.parametrize("n", [1, 2, 119, 240, 359, 360, 1000, 2003, 5000])
@pytest.mark.parametrize("row_cost", [0, 8, 32 * 300, 32 * 2000])
def test_row_blocks_cover_rows_on_tile_boundaries(n, row_cost):
    bounds = list(row_blocks(n, row_cost))
    assert bounds[0][0] == 0 and bounds[-1][1] == n
    assert all(hi == lo for (_, hi), (lo, _) in zip(bounds, bounds[1:]))
    if len(bounds) > 1:
        step = bounds[0][1]
        assert step >= _ROW_BLOCK and step % _ROW_TILE == 0
        assert all(lo % step == 0 for lo, _ in bounds)
        assert all(2 * (hi - lo) >= step for lo, hi in bounds)
        if row_cost:
            assert all((hi - lo) * row_cost >= _MIN_BLOCK_PRODUCT for lo, hi in bounds)


def test_consistency_matrix_refuses_n_over_the_limit_before_allocating(monkeypatch):
    """A fake (N, 3) view of N = 17000 rows: 8 N^2 is 2.15 GiB, over the limit."""
    n = 17000
    assert 8 * n * n > _ARRAY_BYTES_LIMIT
    pts = np.broadcast_to(np.zeros(3), (n, 3))

    def no_block(*args, **kwargs):
        raise AssertionError("a row block was computed")

    monkeypatch.setattr(reglab.kernels, "consistency_rows", no_block)
    with pytest.raises(ConfigurationError, match="17000"):
        consistency_matrix(pts, pts, 0.1)


def test_one_size_rule_at_both_sides_of_the_limit():
    """Each config refuses a size whose largest array passes 2 GiB; building a
    config allocates nothing, so both sides of the bound are safe to build."""
    check_array_bytes("x", 1, _ARRAY_BYTES_LIMIT)
    with pytest.raises(ConfigurationError, match="^x = 1 sizes an array of 2147483649 bytes"):
        check_array_bytes("x", 1, _ARRAY_BYTES_LIMIT + 1)
    most = _ARRAY_BYTES_LIMIT // 24  # (n, 3) float64 points
    SceneConfig(n=most)
    with pytest.raises(ConfigurationError, match=f"^SceneConfig: n = {most + 1} "):
        SceneConfig(n=most + 1)
    ModelConfig(channels=16384)  # 8 * 16384^2 bytes is exactly 2 GiB
    with pytest.raises(ConfigurationError, match="^ModelConfig: channels = 16392 "):
        ModelConfig(channels=16392)


@pytest.mark.parametrize("seed", range(5))
def test_consistency_row_matches_matrix_row(seed):
    rng = make_rng(seed + 40)
    n = int(rng.integers(3, 25))
    src = rng.uniform(-3, 3, size=(n, 3))
    tgt = rng.uniform(-3, 3, size=(n, 3))
    sigma = float(rng.uniform(0.05, 1.0))
    m = consistency_matrix(src, tgt, sigma)
    for i in (0, n // 2, n - 1):
        np.testing.assert_array_equal(consistency_row(src, tgt, i, sigma), m[i])


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
    got = scan(src, tgt, samples, 0.15)
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
    got = scan(src, tgt, samples, 0.1)
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
    assert scan(src, tgt, samples, 0.1) == (1, 12)


def test_ransac_scan_all_degenerate_returns_minus_one():
    src = np.array([[float(i), 0.0, 0.0] for i in range(6)])
    tgt = src.copy()
    samples = np.array([[0, 1, 2], [1, 2, 3], [2, 3, 4]], dtype=np.int64)
    assert ransac_scan(src, tgt, samples, 0.1) == (-1, -1, None, None)


def test_ransac_scan_memory_does_not_grow_with_the_sample_count():
    """The scan works through chunks of _SCAN_CHUNK samples: its tracemalloc peak
    over 10^5 samples stays within its peak over 10^4 plus the larger samples
    array's 24 bytes per iteration."""
    import tracemalloc

    c, _ = generate(SceneConfig(n=500, outlier_ratio=0.5, seed=3))
    rng = make_rng(1500)

    def peak(count):
        samples = rng.integers(0, 500, size=(count, 3))
        tracemalloc.start()
        try:
            ransac_scan(c.source, c.target, samples, 0.1)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(10**4), peak(10**5)
    assert large <= small + 24 * 10**5


def test_rigid_fits_flags_non_finite_covariances_and_keeps_the_finite_bits(monkeypatch):
    """An infinite entry can keep the SVD from returning and a NaN makes it raise,
    so neither reaches it: such a fit is not ok, and the finite fits of the same
    stack keep the bits they have in a stack of their own."""
    rng = make_rng(12)
    h = rng.normal(size=(7, 3, 3))
    mu_src, mu_tgt = rng.normal(size=(7, 3)), rng.normal(size=(7, 3))
    h[1, 0, 2] = np.inf
    h[3, 2, 1] = np.nan
    h[4] = -np.inf
    h[6, 1, 1] = np.nan
    h[6, 0, 0] = np.inf
    bad = np.array([False, True, False, True, True, False, True])
    svd = np.linalg.svd

    def finite_svd(a, *args, **kwargs):
        assert np.isfinite(a).all()
        return svd(a, *args, **kwargs)

    alone = rigid_fits(h[~bad], mu_src[~bad], mu_tgt[~bad])
    monkeypatch.setattr(np.linalg, "svd", finite_svd)
    r, t, ok = rigid_fits(h, mu_src, mu_tgt)
    assert ok.tolist() == (~bad).tolist()
    assert r[~bad].tobytes() == alone[0].tobytes() and t[~bad].tobytes() == alone[1].tobytes()
    assert alone[2].all()


# -- scans that span several blocks ---------------------------------------------
#
# These inputs put the winner, a tie and the degenerate triples on either
# side of a boundary every max(1, _SCAN_BLOCK_ENTRIES // 3N) samples, and of
# a boundary between ransac_scan's chunks of _SCAN_CHUNK samples.


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


def case_tie_across_chunk_boundary():
    rng, src, tgt = outlier_scene(607)
    samples = draw_triples(rng, np.arange(120, 200), 2 * _SCAN_CHUNK)
    samples[_SCAN_CHUNK - 1] = [0, 40, 80]
    samples[_SCAN_CHUNK] = [10, 60, 110]
    return src, tgt, samples, _SCAN_CHUNK - 1


def case_best_in_last_chunk():
    rng, src, tgt = outlier_scene(608)
    samples = draw_triples(rng, np.arange(120, 200), 2 * _SCAN_CHUNK + 5)
    samples[-3] = [2, 44, 99]
    return src, tgt, samples, len(samples) - 3


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
    "tie_across_chunk_boundary_keeps_earlier": case_tie_across_chunk_boundary,
    "best_in_last_chunk": case_best_in_last_chunk,
    "first_block_degenerate": case_first_block_degenerate,
    "all_degenerate_blocks": case_all_degenerate_blocks,
    "no_samples": case_no_samples,
}


@pytest.mark.parametrize("case", sorted(BLOCK_CASES))
def test_ransac_scan_across_blocks_matches_oracle(case):
    src, tgt, samples, want_iter = BLOCK_CASES[case]()
    got = scan(src, tgt, samples, 0.1)
    assert got == scan_oracle(src, tgt, samples, 0.1)
    if want_iter is not None:
        assert got[0] == want_iter


@pytest.mark.parametrize("n", [1, 7, 250, 2003])
@pytest.mark.parametrize("m", [1, 5, 31])
def test_strict_inliers_columns_equal_inlier_mask(n, m):
    """Each row of the (m, N) mask is inlier_mask of its transform, bit for bit, at any
    stack width."""
    rng = make_rng(700 + n + m)
    src = rng.uniform(-2, 2, size=(n, 3))
    gt = random_transform(rng)
    tgt = gt.apply(src) + rng.normal(scale=0.06, size=(n, 3))  # many residuals near delta
    tgt[n // 2:] = rng.uniform(-4, 4, size=(n - n // 2, 3))
    c = CorrespondenceSet(src, tgt)
    transforms = [gt if j % 2 else random_transform(rng) for j in range(m)]
    rotations = np.stack([t.rotation for t in transforms])
    translations = np.stack([t.translation for t in transforms])
    got = strict_inliers(*_point_columns(c), rotations, translations, 0.1)
    assert got.shape == (m, n)
    for j, t in enumerate(transforms):
        assert np.array_equal(got[j], inlier_mask(t, c, 0.1))
    assert transforms_per_block(2000) == 10 and transforms_per_block(10**6) == 1


def literal_squared_residuals(t, src, tgt):
    """((R p + t - q)^2).sum(axis=1), written out with no kernel code."""
    d = src @ t.rotation.T + t.translation - tgt
    return (d * d).sum(axis=1)


def boundary_scene(rng, n, delta):
    """Noisy inliers of a random motion, outliers, and pairs exactly at delta.

    Integer sources under a pure translation by whole numbers put the last
    pairs at residual exactly delta (squared exactly delta^2) and the ones
    before them at delta - 2^-48, just inside; every coordinate is exact.
    """
    src = rng.uniform(-2, 2, size=(n, 3))
    gt = random_transform(rng)
    tgt = gt.apply(src) + rng.normal(scale=0.06, size=(n, 3))
    tgt[n // 2:] = rng.uniform(-4, 4, size=(n - n // 2, 3))
    shift = RigidTransform(np.eye(3), np.array([1.0, -2.0, 3.0]))
    edge = max(1, n // 10)
    src[-edge:] = rng.integers(-5, 6, size=(edge, 3))
    tgt[-edge:] = src[-edge:] + shift.translation + [delta, 0.0, 0.0]
    inside = delta - 2.0**-48
    tgt[-2 * edge:-edge] = src[-2 * edge:-edge] + shift.translation + [inside, 0.0, 0.0]
    return CorrespondenceSet(src, tgt), gt, shift


@pytest.mark.parametrize("n", [1, 7, 250, 2003])
@pytest.mark.parametrize("m", [1, 5, 31])
def test_squared_residuals_equal_one_transform_residuals_bit_for_bit(n, m):
    """Each row is the one-transform residual, squared, in every bit, delta^2 included."""
    rng = make_rng(900 + n + m)
    c, gt, shift = boundary_scene(rng, n, 0.5)
    transforms = [(gt, shift)[j % 2] if j % 3 else random_transform(rng) for j in range(m)]
    got = squared_residuals(*_point_columns(c), np.stack([t.rotation for t in transforms]),
                            np.stack([t.translation for t in transforms]))
    assert got.shape == (m, n)
    for j, t in enumerate(transforms):
        want = literal_squared_residuals(t, c.source, c.target)
        assert np.array_equal(got[j], want)
        assert np.array_equal(_squared_residuals(t, c), want)
    if m > 1:
        sq = got[1]  # the shift: the last pairs sit at delta^2, the ones before just inside
        edge = max(1, n // 10)
        assert np.all(sq[-edge:] == 0.25) and not strict_inliers(
            np.ascontiguousarray(c.source[-edge:].T), np.ascontiguousarray(c.target[-edge:].T),
            shift.rotation[None], shift.translation[None], 0.5).any()
        if n >= 2 * edge:
            assert np.all(sq[-2 * edge:-edge] < 0.25)


@pytest.mark.parametrize("n", [6, 250, 1001])
def test_stacks_up_to_max_stack_keep_one_transform_bits(n):
    """Every stack width transforms_per_block can return gives one-transform bits."""
    rng = make_rng(950 + n)
    c, gt, shift = boundary_scene(rng, n, 0.5)
    transforms = [random_transform(rng) for _ in range(_MAX_STACK)]
    rotations = np.stack([t.rotation for t in transforms])
    translations = np.stack([t.translation for t in transforms])
    single = np.stack([literal_squared_residuals(t, c.source, c.target) for t in transforms])
    cols = _point_columns(c)
    for m in range(1, _MAX_STACK + 1):
        assert np.array_equal(squared_residuals(*cols, rotations[:m], translations[:m]),
                              single[:m])
    assert transforms_per_block(n) <= _MAX_STACK
    assert transforms_per_block(1) == _MAX_STACK


# N from 1 to 40 (every small-matrix edge case), around 96 and 256, where
# transforms_per_block leaves 64 (N = 341, 342), and the sizes the scans run at
BIT_DOMAIN_N = [*range(1, 41), 95, 96, 97, *range(250, 258), 341, 342, 1000, 1001, 1999,
                2000, 2003, 5001]


def test_squared_residuals_rows_keep_one_transform_bits_at_one_and_two_blas_threads():
    """For every N above and every m <= transforms_per_block(N), each row of the stack
    equals literal_squared_residuals of its transform, with 1 BLAS thread and with 2."""
    import os
    import subprocess
    import sys

    code = (
        "import numpy as np\n"
        "from reglab.geometry import CorrespondenceSet, _point_columns\n"
        "from reglab.kernels import squared_residuals, transforms_per_block\n"
        "from reglab.synth import rotation_from_axis_angle\n"
        f"for n in {BIT_DOMAIN_N}:\n"
        "    rng = np.random.Generator(np.random.PCG64(n))\n"
        "    c = CorrespondenceSet(rng.uniform(-3, 3, size=(n, 3)), rng.uniform(-3, 3, size=(n, 3)))\n"
        "    k = transforms_per_block(n)\n"
        "    axes = rng.normal(size=(k, 3))\n"
        "    r = np.stack([rotation_from_axis_angle(a / np.linalg.norm(a), rng.uniform(0, np.pi))\n"
        "                  for a in axes])\n"
        "    t = rng.uniform(-2, 2, size=(k, 3))\n"
        "    d = [c.source @ r[j].T + t[j] - c.target for j in range(k)]\n"
        "    want = np.stack([(e * e).sum(axis=1) for e in d])  # literal_squared_residuals\n"
        "    cols = _point_columns(c)\n"
        "    for m in range(1, k + 1):\n"
        "        got = squared_residuals(*cols, r[:m], t[:m])\n"
        "        bad = np.argwhere(got != want[:m])\n"
        "        print(n, m, len(bad), *bad[:1].tolist())\n"
    )
    package_dir = os.path.dirname(os.path.dirname(os.path.abspath(reglab.kernels.__file__)))
    for threads in ("1", "2"):
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env={"PATH": "/usr/bin:/bin", "PYTHONPATH": package_dir, "OPENBLAS_NUM_THREADS": threads,
                 "OMP_NUM_THREADS": threads, "MKL_NUM_THREADS": threads},
            check=False,
        )
        assert out.returncode == 0, out.stderr
        lines = [line.split() for line in out.stdout.splitlines()]
        assert len(lines) == sum(transforms_per_block(n) for n in BIT_DOMAIN_N)
        assert [line for line in lines if line[2] != "0"] == [], threads


def test_scan_blocks_stay_within_the_small_matrix_bound():
    """Each block's product, (3m x 3) times (3 x N), takes 9 m N <= 10^6 multiply-adds,
    the largest that OpenBLAS sends to its small-matrix kernels."""
    n = np.arange(1, 10**5 + 1)
    m = np.array([transforms_per_block(int(k)) for k in n])
    assert m.min() >= 1 and m.max() == _MAX_STACK
    assert (9 * m * n).max() <= 10**6


def test_triple_centroid_adds_equal_numpy_mean():
    """ransac_scan's (a0 + a1 + a2) / 3 is numpy's mean over the triple, bit for bit."""
    rng = make_rng(990)
    for m in (1, 7, 64):
        a = rng.normal(size=(m, 3, 3)) * rng.choice([1e-9, 1.0, 1e9], size=(m, 3, 3))
        assert np.array_equal((a[:, 0] + a[:, 1] + a[:, 2]) / 3.0, a.mean(axis=1))


# -- the certified inlier product --------------------------------------------------
#
# strict_inliers decides a stack of at least _MIN_PRODUCT_ENTRIES entries from
# C @ U and recounts every transform that its band leaves undecided. Each case
# below builds inputs that must be recounted; every row must still equal its
# transform scored alone, in both stacks (each above the rule).

PRODUCT_STACKS = [(2003, 64), (250, 300)]


def alone(cols, rotation, translation, delta):
    """One transform's mask, as geometry.inlier_mask computes it."""
    return squared_residuals(*cols, rotation[None], translation[None])[0] < delta * delta


def random_stack(rng, m):
    transforms = [random_transform(rng) for _ in range(m)]
    return (np.stack([t.rotation for t in transforms]),
            np.stack([t.translation for t in transforms]))


def product_delta_boundary(rng, n, m):
    """boundary_scene's pairs at exactly delta^2 and at delta - 2^-48, met by its shift."""
    c, gt, shift = boundary_scene(rng, n, 0.5)
    r, t = random_stack(rng, m)
    must = np.arange(0, m, 3)
    r[must], t[must] = shift.rotation, shift.translation
    r[1::3], t[1::3] = gt.rotation, gt.translation
    return c.source, c.target, r, t, 0.5, must


def product_non_finite_points(rng, n, m):
    c, gt, _ = boundary_scene(rng, n, 0.1)
    src, tgt = c.source.copy(), c.target.copy()
    src[n // 3] = np.nan
    tgt[n // 2, 1] = np.inf
    src[-1, 2] = -np.inf
    r, t = random_stack(rng, m)
    r[1::2], t[1::2] = gt.rotation, gt.translation
    return src, tgt, r, t, 0.1, np.arange(m)


def product_non_finite_transforms(rng, n, m):
    c, gt, _ = boundary_scene(rng, n, 0.1)
    r, t = random_stack(rng, m)
    r[1::2], t[1::2] = gt.rotation, gt.translation
    must = np.array([0, 3, 5, 8, m - 1])
    r[0, 1, 2] = np.nan
    t[3, 0] = np.inf
    r[5] = -np.inf
    t[8] = np.nan
    r[m - 1, 2, 2], t[m - 1, 1] = np.inf, -np.inf
    return c.source, c.target, r, t, 0.1, must


def product_coordinates_at_1e154(rng, n, m):
    """||d||^2 overflows, so the whole call is recounted; target = source on half the pairs."""
    src = rng.uniform(-1.0, 1.0, size=(n, 3)) * 1e154
    tgt = src.copy()
    tgt[n // 2:] = -rng.uniform(-1.0, 1.0, size=(n - n // 2, 3)) * 1e154
    r, t = random_stack(rng, m)
    r[::2], t[::2] = np.eye(3), 0.0
    return src, tgt, r, t, 0.1, np.arange(m)


def product_smallest_delta(rng, n, m):
    """delta^2 is subnormal; the shift puts integer pairs at residual exactly 0."""
    c, gt, shift = boundary_scene(rng, n, 0.5)
    src, tgt = c.source.copy(), c.target.copy()
    edge = max(1, n // 10)
    tgt[-2 * edge:] = src[-2 * edge:] + shift.translation
    r, t = random_stack(rng, m)
    must = np.arange(0, m, 4)
    r[must], t[must] = shift.rotation, shift.translation
    r[1::4], t[1::4] = gt.rotation, gt.translation
    return src, tgt, r, t, smallest_sigma_with_nonzero_square(), must


def product_non_orthonormal_rotations(rng, n, m):
    """Scaled, sheared and singular matrices; each of the first eight has ten pairs
    placed at delta from its own image."""
    src = rng.uniform(-2, 2, size=(n, 3))
    tgt = rng.uniform(-4, 4, size=(n, 3))
    r = rng.normal(size=(m, 3, 3)) * rng.choice([1e-3, 1.0, 1e3], size=(m, 1, 1))
    r[2::5] = np.outer(rng.normal(size=3), rng.normal(size=3))     # rank 1
    t = rng.uniform(-2, 2, size=(m, 3))
    must = np.arange(8)
    for j in must:
        pairs = slice(10 * j, 10 * j + 10)
        tgt[pairs] = src[pairs] @ r[j].T + t[j] + [0.1, 0.0, 0.0]
    return src, tgt, r, t, 0.1, must


PRODUCT_CASES = {
    "delta_boundary": product_delta_boundary,
    "non_finite_points": product_non_finite_points,
    "non_finite_transforms": product_non_finite_transforms,
    "coordinates_at_1e154": product_coordinates_at_1e154,
    "smallest_delta": product_smallest_delta,
    "non_orthonormal_rotations": product_non_orthonormal_rotations,
}


def recorded_recounts(monkeypatch) -> list[tuple[bytes, bytes]]:
    """Records the (rotation, translation) bytes of every transform recounted."""
    seen = []
    real = reglab.kernels._recount

    def recount(src_t, tgt_t, rotations, translations, dd):
        seen.extend((r.tobytes(), t.tobytes()) for r, t in zip(rotations, translations))
        return real(src_t, tgt_t, rotations, translations, dd)

    monkeypatch.setattr(reglab.kernels, "_recount", recount)
    return seen


@pytest.mark.parametrize("n, m", PRODUCT_STACKS)
@pytest.mark.parametrize("case", sorted(PRODUCT_CASES))
def test_undecided_transforms_are_recounted_and_equal_inlier_mask(case, n, m, monkeypatch):
    rng = make_rng(1200 + n + m)
    src, tgt, r, t, delta, must = PRODUCT_CASES[case](rng, n, m)
    assert m * n >= _MIN_PRODUCT_ENTRIES
    cols = np.ascontiguousarray(src.T), np.ascontiguousarray(tgt.T)
    seen = recorded_recounts(monkeypatch)
    with np.errstate(all="ignore"):     # squared_residuals overflows at 1e154
        got = strict_inliers(*cols, r, t, delta)
        want = [alone(cols, r[j], t[j], delta) for j in range(m)]
        assert got.shape == (m, n)
        for j in range(m):
            assert np.array_equal(got[j], want[j]), j
        assert {(r[j].tobytes(), t[j].tobytes()) for j in must} <= set(seen)
        if case in ("delta_boundary", "non_finite_transforms", "smallest_delta"):
            c = CorrespondenceSet(src, tgt)
            for j in np.flatnonzero(np.isfinite(r).all(axis=(1, 2)) & np.isfinite(t).all(axis=1)):
                assert np.array_equal(got[j], inlier_mask(RigidTransform(r[j], t[j]), c, delta))
    assert any(row.any() for row in want) and not all(row.all() for row in want)


def product_inputs(rng, n, m, scale, shift):
    """Points at ``scale``, translations at ``shift``, and half the rotations sheared."""
    src_t = rng.uniform(-1, 1, size=(3, n)) * scale
    tgt_t = rng.uniform(-1, 1, size=(3, n)) * scale
    r, t = random_stack(rng, m)
    half = len(r[::2])
    r[::2] = rng.normal(size=(half, 3, 3)) * rng.choice([1e-3, 1.0, 1e3], size=(half, 1, 1))
    return src_t, tgt_t, r, t * shift


BAND_SCALES = [(1.0, 1.0), (1e6, 1e6), (3.0, 1e7), (1e8, 1.0), (1e-150, 1e-150), (1e-170, 1.0)]


def derived_band(c, r, t, top, dd):
    """|P - Q| + u delta^2 bounded term by term as in kernels' comment, in exact
    rational arithmetic: P's rounding, that of c and u, squared_residuals',
    underflow, and the rounding of delta^2 -/+ B."""
    u = Fraction(1, 2 ** 53)
    g3, g5, g23 = (k * u / (1 - k * u) for k in (3, 5, 23))
    eta = Fraction(1, 2 ** 1075)
    top = [Fraction(x) for x in top]
    out = []
    for cj, rj, tj in zip(c, r, t):
        abs_c = [abs(Fraction(x)) for x in cj]
        a = [sum(abs(Fraction(rj[k, l])) * top[5 + l] for l in range(3)) + abs(Fraction(tj[k]))
             + top[2 + k] for k in range(3)]
        squares = sum(x * x for x in a)
        product = g23 * sum(x * y for x, y in zip(abs_c, top))
        operands = (g3 + u) * squares
        residuals = (g5 * (2 + g5) + g3 * (1 + g5) ** 2) * squares
        underflow = u * squares + eta * (32 + 3 * sum(abs_c) + 6 * sum(top))
        out.append(product + operands + residuals + underflow + u * Fraction(dd))
    return out


@pytest.mark.parametrize("scale, shift", BAND_SCALES)
def test_inlier_band_covers_each_rounding_term(scale, shift):
    """The kernel's band is no narrower than the derivation's sum, and C @ U
    stays within it of squared_residuals on these stacks."""
    rng = make_rng(1300)
    src_t, tgt_t, r, t = product_inputs(rng, 400, 24, scale, shift)
    u, top = inlier_features(src_t, tgt_t)
    c = inlier_coefficients(r, t)
    dd = 0.01
    band = inlier_band(c, r, t, top, dd)
    for got, want in zip(band, derived_band(c, r, t, top, dd)):
        assert Fraction(got) >= want
    p = c @ u
    q = squared_residuals(src_t, tgt_t, r, t)
    assert (np.abs(p - q) <= band[:, None]).all()


def test_inlier_features_and_coefficients_give_the_squared_residuals():
    rng = make_rng(1301)
    src_t, tgt_t, r, t = product_inputs(rng, 300, 16, 2.0, 2.0)
    u, top = inlier_features(src_t, tgt_t)
    assert u.shape == (23, 300) and np.array_equal(top, np.abs(u).max(axis=1))
    np.testing.assert_allclose(inlier_coefficients(r, t) @ u,
                               squared_residuals(src_t, tgt_t, r, t), rtol=1e-9, atol=1e-9)
    big = src_t.copy()
    big[1, 7] = 2.0 ** 31    # its square passes the norm limit
    assert inlier_features(big, tgt_t) is None
    assert inlier_features(src_t, tgt_t * np.nan) is None


def engaged_stacks(monkeypatch, stacks) -> list[bool]:
    """Whether strict_inliers took the product for each (n, m), on an
    ordinary scene; no transform of one may be recounted."""
    calls, seen = [], recorded_recounts(monkeypatch)
    real = reglab.kernels.inlier_coefficients

    def coefficients(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(reglab.kernels, "inlier_coefficients", coefficients)
    engaged = []
    for n, m in stacks:
        rng = make_rng(1400 + n + m)
        c = CorrespondenceSet(rng.uniform(-3, 3, size=(n, 3)), rng.uniform(-3, 3, size=(n, 3)))
        r, t = random_stack(rng, m)
        before, recounts = len(calls), len(seen)
        got = strict_inliers(*_point_columns(c), r, t, 0.5)
        engaged.append(len(calls) > before)
        assert len(seen) - recounts == (0 if engaged[-1] else m)
        assert all(np.array_equal(got[j], inlier_mask(RigidTransform(r[j], t[j]), c, 0.5))
                   for j in range(m))
    return engaged


def test_the_product_engages_from_its_entries_rule(monkeypatch):
    """At and past _MIN_PRODUCT_ENTRIES (m N) the stack is decided by C @ U with
    no recount; just below it, every transform is scored by squared_residuals."""
    below = [(2003, 16), (250, 131), (1, 64), (2000, 10)]
    assert all(m * n < _MIN_PRODUCT_ENTRIES for n, m in below)
    assert engaged_stacks(monkeypatch, PRODUCT_STACKS) == [True, True]
    assert engaged_stacks(monkeypatch, below) == [False] * len(below)


def test_certified_masks_are_the_same_at_one_and_two_blas_threads():
    """Each product stack's masks, hashed in a child interpreter with 1 BLAS thread
    and with 2, equal each transform scored alone and each other."""
    import os
    import subprocess
    import sys

    code = (
        "import hashlib\n"
        "import numpy as np\n"
        "from reglab.kernels import squared_residuals, strict_inliers\n"
        "from reglab.synth import SceneConfig, generate, rotation_from_axis_angle\n"
        f"for n, m in {PRODUCT_STACKS}:\n"
        "    rng = np.random.Generator(np.random.PCG64(n + m))\n"
        "    c, gt = generate(SceneConfig(n=n, outlier_ratio=0.5, seed=n))\n"
        "    src_t, tgt_t = np.ascontiguousarray(c.source.T), np.ascontiguousarray(c.target.T)\n"
        "    axes = rng.normal(size=(m, 3))\n"
        "    r = np.stack([rotation_from_axis_angle(a / np.linalg.norm(a), rng.uniform(0, np.pi))\n"
        "                  for a in axes])\n"
        "    t = rng.uniform(-2, 2, size=(m, 3))\n"
        "    r[::2], t[::2] = gt.rotation, gt.translation\n"
        "    got = strict_inliers(src_t, tgt_t, r, t, 0.1)\n"
        "    want = np.stack([squared_residuals(src_t, tgt_t, r[j:j + 1], t[j:j + 1])[0] < 0.01\n"
        "                     for j in range(m)])\n"
        "    same = int(np.array_equal(got, want))\n"
        "    print(n, m, hashlib.sha256(got.tobytes()).hexdigest(), same)\n"
    )
    package_dir = os.path.dirname(os.path.dirname(os.path.abspath(reglab.kernels.__file__)))
    outputs = []
    for threads in ("1", "2"):
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env={"PATH": "/usr/bin:/bin", "PYTHONPATH": package_dir, "OPENBLAS_NUM_THREADS": threads,
                 "OMP_NUM_THREADS": threads, "MKL_NUM_THREADS": threads},
            check=False,
        )
        assert out.returncode == 0, out.stderr
        outputs.append(out.stdout.split())
    assert outputs[0] == outputs[1] and len(outputs[0]) == 4 * len(PRODUCT_STACKS)
    assert outputs[0][3::4] == ["1"] * len(PRODUCT_STACKS)


# -- row softmax ------------------------------------------------------------------


def softmax_reference(x):
    """The plain formula: exp of the shifted rows over their sums."""
    e = np.exp(x - x.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


SCREEN_OFF = 1 << 62                    # a _MIN_SCREEN_PRODUCT that no block reaches


def bench_model_attention(monkeypatch, n: int, scene: str = "outdoor", outlier_ratio: float = 0.8,
                          seed: int = 2) -> list[tuple[np.ndarray, np.ndarray, float | None]]:
    """The (scores, v, scale) blocks that predict attends with under the bench model.

    These are GFA's row attention and its two cross attentions, N wide and
    one call per row block each, and its (32, 32) channel map in one call.
    The scores are unscaled; the two cross attentions pass 1/sqrt(32). The
    float32 screen is off, so every block reaches attend_rows.
    """
    blocks = []

    def record(s, v, scale=None):
        blocks.append((s.copy(), v, scale))
        return attend_rows(s, v, scale)

    model = GPINet.load(BENCH_PARAMS)
    c, _ = generate(SceneConfig(n=n, outlier_ratio=outlier_ratio, scene=scene, seed=seed))
    with monkeypatch.context() as patch:
        patch.setattr(reglab.kernels, "attend_rows", record)
        patch.setattr(reglab.kernels, "_MIN_SCREEN_PRODUCT", SCREEN_OFF)
        model.predict(c)
    assert len(blocks) == 3 * len(list(row_blocks(n, 32 * n))) + 1
    assert [s.shape for s, _, _ in blocks].count((32, 32)) == 1
    return blocks


def bench_model_scores(monkeypatch, n: int) -> list[np.ndarray]:
    """The (scaled) score blocks that predict softmaxes under the bench model."""
    return [s if c is None else s * c for s, _, c in bench_model_attention(monkeypatch, n)]


def test_exp_returns_positive_zero_below_the_floor():
    """softmax_rows writes +0.0 where exp's input is below _EXP_ZERO_BELOW.

    That is exact only while numpy's exp underflows to +0.0 there, on its
    vector loop and on single values alike; a numpy that changes this
    must fail here.
    """
    floor = _EXP_ZERO_BELOW
    sweep = np.r_[
        floor,
        np.nextafter(floor, -np.inf),
        np.linspace(floor, floor - 60.0, 6001),
        -np.geomspace(-floor, 1e308, 400),
        -np.inf,
    ]
    assert sweep.max() == floor and sweep.size > 6000
    for x in (sweep, sweep[::-1].copy(), sweep.reshape(1, -1)[:, ::7], sweep[:1], sweep[-1:]):
        got = np.exp(x)
        assert np.all(got == 0.0) and not np.any(np.signbit(got))
    for value in sweep[::97]:
        got = np.exp(value)
        assert got == 0.0 and not np.signbit(got)
    assert np.exp(np.nextafter(-745.1332, 0.0)) > 0.0  # the floor sits below the true cutoff


def check_softmax(x, equal_nan=False):
    want = softmax_reference(x)
    got = softmax_rows(x.copy())
    assert np.array_equal(got, want, equal_nan=equal_nan)
    assert not np.any(np.signbit(got[got == 0.0]))
    return got


def test_softmax_rows_on_saturated_bench_model_maps(monkeypatch):
    """The bench model's attention is nearly one-hot: most entries fall below the floor."""
    for scores in bench_model_scores(monkeypatch, 600):
        shifted = scores - scores.max(axis=1, keepdims=True)
        assert (shifted < _EXP_ZERO_BELOW).mean() > 0.9
        got = check_softmax(scores)
        assert 0.0 < (got > 0.0).mean() < 0.1


@pytest.mark.parametrize("shape", [(1, 1), (3, 5), (7, 2000), (70, 2001), (300, 3)],
                         ids=lambda shape: f"{shape[0]}x{shape[1]}")
def test_softmax_rows_on_dense_and_mixed_rows(shape):
    """Shapes with several cache chunks of rows, and rows mixing live and dead entries."""
    rng = make_rng(shape[0] * 7 + shape[1])
    dense = rng.normal(scale=4.0, size=shape)
    check_softmax(dense)
    mixed = dense * rng.choice([1.0, 1e3, 1e8], size=shape)
    check_softmax(mixed)
    assert softmax_rows(dense) is dense  # in place


def test_softmax_rows_at_the_underflow_boundary():
    """Shifted values either side of -746 and of exp's true cutoff near -745.1332."""
    edges = []
    for point in (_EXP_ZERO_BELOW, -745.1332, -744.44):
        edges += [point, np.nextafter(point, 0.0), np.nextafter(point, -np.inf),
                  point + 1e-9, point - 1e-9, point + 0.5, point - 0.5]
    row = np.array([0.0] + edges)
    x = np.stack([row, row[::-1], row + 3.0, np.r_[row[1:], 0.0] - 100.0])
    got = check_softmax(x)
    assert np.any((got > 0.0) & (got < 1e-300))  # subnormal exp values survive


def test_softmax_rows_with_infinities_constants_and_nan():
    x = np.array([
        [0.0, -np.inf, 1.0, -np.inf],
        [-np.inf, -np.inf, 2.0, -1e9],
        [5.0, 5.0, 5.0, 5.0],
        [-1e300, -1e300, -1e300, -1e300],
        [0.0, 0.0, 0.0, -np.inf],
    ])
    got = check_softmax(x)
    np.testing.assert_array_equal(got[2:4], 0.25)
    with np.errstate(invalid="ignore"):
        nan = np.array([
            [0.0, np.nan, -1000.0, 1.0],
            [np.inf, 0.0, -np.inf, 2.0],
            [-np.inf, -np.inf, -np.inf, -np.inf],
            [1.0, 2.0, 3.0, 4.0],
        ])
        got = check_softmax(nan, equal_nan=True)
    assert np.isnan(got[:3]).all() and not np.isnan(got[3]).any()


def test_attend_softmaxes_with_the_kernel_and_keeps_its_inputs(monkeypatch):
    """_attend(s, I, I) is softmax_rows(s I^T) I, which is the softmax of s exactly;
    neither the forward nor the recomputing backward writes into q, k or v."""
    scores = bench_model_scores(monkeypatch, 300)[0]
    kept = scores.copy()
    q, k, v = (Tensor(a, requires_grad=True) for a in (scores, np.eye(300), np.eye(300)))
    y = _attend(q, k, v)
    assert np.array_equal(y.value, softmax_reference(kept))
    (y * Tensor(make_rng(5).normal(size=y.shape))).sum().backward()
    assert np.array_equal(scores, kept)
    assert np.array_equal(k.value, np.eye(300)) and np.array_equal(v.value, np.eye(300))
    assert all(np.isfinite(t.grad).all() for t in (q, k, v))


# -- one-live-entry attention ---------------------------------------------------


def check_attend(s, v, scale=None):
    """attend_rows(s, v, scale) has the bytes of softmax_rows(s [* scale]) @ v;
    True if it gathered.

    The gather leaves ``s`` as it was; the dense path scales and softmaxes
    it in place.
    """
    x = s.copy()
    with np.errstate(invalid="ignore"):
        want = softmax_rows(s.copy() if scale is None else s * scale) @ v
        got = attend_rows(x, v, scale)
    gathered = x.tobytes() == s.tobytes()
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    return gathered


SCALE = 1.0 / np.sqrt(32)               # the cross attentions' scale at d = 32


def one_hot_scores(rng, m, n, scale=None):
    """(m, n) scores whose rows each hold one entry above exp's floor after the
    scale and the shift."""
    spread = 1.0 if scale is None else 1.0 / scale
    s = rng.uniform(-5000.0, -1000.0, size=(m, n)) * spread
    s[np.arange(m), rng.integers(0, n, size=m)] = rng.uniform(-3.0, 3.0, size=m) * spread
    return s


def awkward_values(rng, n, d=9):
    """(n, d) finite values with signed zeros, subnormals and magnitudes near 1e300."""
    v = rng.normal(size=(n, d))
    v[:, 0] = -0.0                      # every term is -0.0; BLAS still returns +0.0
    v[:, 1] = -np.abs(v[:, 1])
    v[::2, 1] = -0.0
    v[:, 2] = 0.0
    v[:, 3] = 5e-324 * rng.integers(-9, 9, size=n)          # subnormals, +-0.0
    v[:, 4] = -2.2e-308 * rng.uniform(0.0, 1.0, size=n)
    v[:, 5] = 1e300 * rng.uniform(-1.7, 1.7, size=n)
    return v


@pytest.mark.parametrize("n", [1, 7, 250, 257, 2003])
def test_attend_rows_gathers_one_live_entry_rows_bit_for_bit(n):
    rng = make_rng(n + 40)
    v = awkward_values(rng, n)
    for m in (1, 3, 24, 240, 241):
        assert check_attend(one_hot_scores(rng, m, n), v)


@pytest.mark.parametrize("n", [2, 7, 250, 2003])
def test_attend_rows_falls_back_on_a_tie_at_the_row_max(n):
    rng = make_rng(n + 41)
    s = one_hot_scores(rng, 240, n)
    row = s[-1]
    row[(row.argmax() + 1) % n] = row.max()
    assert not check_attend(s, awkward_values(rng, n))


@pytest.mark.parametrize("n", [7, 257, 2003])
def test_attend_rows_finishes_every_chunk_when_the_last_one_fails(n):
    """Two live entries in the last chunk of a block: every chunk before it,
    already checked, takes the dense path too."""
    rng = make_rng(n + 42)
    m = max(240, 3 * (_CACHE_ENTRIES // n))             # several chunks of rows
    s = one_hot_scores(rng, m, n)
    row = s[-1]
    row[(row.argmax() + 3) % n] = row.max() - 700.0
    assert not check_attend(s, awkward_values(rng, n))


def check_nan_and_infinite_scores(seed, scale=None):
    rng = make_rng(seed)
    n = 6
    v = awkward_values(rng, n)
    s = one_hot_scores(rng, 5, n, scale)
    s[1, 2] = -np.inf                                   # still one live entry
    assert check_attend(s, v, scale)
    for bad in ([np.nan] + [0.0] * (n - 1), [np.inf] + [0.0] * (n - 1), [-np.inf] * n,
                [np.inf, np.inf, 0.0, 0.0, 0.0, 0.0], [-np.inf] * (n - 1) + [np.inf],
                [-np.inf, np.nan, 1.0, -np.inf, -1e9, -1e9]):
        t = s.copy()
        t[3] = bad
        assert not check_attend(t, v, scale)
        t[4, (t[4].argmax() + 1) % n] = t[4].max()  # as many live entries as rows
        assert not check_attend(t, v, scale)


def test_attend_rows_on_nan_and_infinite_scores():
    check_nan_and_infinite_scores(43)


def test_attend_rows_on_nan_and_infinite_scaled_scores():
    check_nan_and_infinite_scores(46, SCALE)
    rng = make_rng(47)
    v = awkward_values(rng, 6)
    s = one_hot_scores(rng, 5, 6)
    s[2, 0] = 1e308                                     # the scaled max overflows to +inf
    with np.errstate(over="ignore"):
        assert check_attend(s, v, 1.0) and not check_attend(s, v, 4.0)


@pytest.mark.parametrize("n", [1, 7, 2003])
def test_attend_rows_takes_the_dense_path_on_infinite_values(n):
    """0 * inf is NaN, so a gathered row would miss the NaN the product holds."""
    rng = make_rng(n + 44)
    s = one_hot_scores(rng, 240, n)
    for value in (np.inf, -np.inf, np.nan):
        v = awkward_values(rng, n)
        v[n // 2, 6] = value
        assert not check_attend(s, v)


@pytest.mark.parametrize("n", [1, 7, 2003])
def test_attend_rows_gathers_scaled_one_live_entry_rows_bit_for_bit(n):
    """Width 1 included: a lone finite entry is always the one live entry."""
    rng = make_rng(n + 45)
    v = awkward_values(rng, n)
    for m in (1, _LEAD_ROWS, _LEAD_ROWS + 1, 241):
        assert check_attend(one_hot_scores(rng, m, n, SCALE), v, SCALE)


def test_attend_rows_on_width_one_rows():
    rng = make_rng(48)
    v = awkward_values(rng, 1)
    s = rng.uniform(-1e300, 1e300, size=(9, 1))
    assert check_attend(s, v) and check_attend(s, v, SCALE)
    for bad in (np.nan, np.inf, -np.inf):
        t = s.copy()
        t[4, 0] = bad
        assert not check_attend(t, v) and not check_attend(t, v, SCALE)


def test_attend_rows_goes_dense_on_maxima_that_the_scale_makes_equal():
    """a > b unscaled, but fl(a * scale) == fl(b * scale): two live entries."""
    rng = make_rng(49)
    tops = [float(a) for a in rng.uniform(1.0, 2.0, size=200)]
    a = next(a for a in tops if a * SCALE == float(np.nextafter(a, 0.0)) * SCALE)
    b = float(np.nextafter(a, 0.0))
    v = awkward_values(rng, 7)
    for first, second in ((a, b), (b, a)):
        s = one_hot_scores(rng, 12, 7, SCALE)
        s[5] = -1e6
        s[5, 1], s[5, 4] = first, second
        assert not check_attend(s, v, SCALE)


@pytest.mark.parametrize("scale", [0.5 * SCALE, SCALE, 2.0])
def test_attend_rows_decides_on_the_scaled_gap(scale):
    """A gap of -1000 is dead unscaled and live at 1/sqrt(32); -500 the other way round at 2."""
    rng = make_rng(50)
    v = awkward_values(rng, 7)
    for gap in (-1000.0, -500.0):
        s = one_hot_scores(rng, 12, 7, min(scale, 1.0))
        s[3] = -1e6
        s[3, 2], s[3, 6] = 1.5, 1.5 + gap
        dead_scaled = (1.5 + gap) * scale - 1.5 * scale < _EXP_ZERO_BELOW
        assert check_attend(s, v) == (gap < _EXP_ZERO_BELOW)
        assert check_attend(s, v, scale) == dead_scaled


@pytest.mark.parametrize("scale", [None, SCALE], ids=["unscaled", "scaled"])
def test_attend_rows_at_the_scaled_underflow_boundary(scale):
    """fl(fl(second * scale) - fl(top * scale)) == -746 is live; one step below is dead."""
    c = 1.0 if scale is None else scale
    want = {_EXP_ZERO_BELOW: None, float(np.nextafter(_EXP_ZERO_BELOW, -np.inf)): None}
    for top in np.linspace(0.0, 3.0, 301):               # search the seconds near the floor
        second = (top * c + _EXP_ZERO_BELOW) / c
        for _ in range(8):
            second = np.nextafter(second, -np.inf)
        for _ in range(17):
            gap = float(second * c - top * c)
            if gap in want and want[gap] is None:
                want[gap] = (float(top), float(second))
            second = np.nextafter(second, np.inf)
    assert all(want.values())
    rng = make_rng(51)
    v = awkward_values(rng, 5)
    for gap, (top, second) in want.items():
        s = one_hot_scores(rng, 10, 5, scale)
        s[6] = -np.inf
        s[6, 0], s[6, 3] = second, top
        assert check_attend(s, v, scale) == (gap < _EXP_ZERO_BELOW)


@pytest.mark.parametrize("n", [7, 2003])
def test_attend_rows_goes_dense_on_a_row_inside_or_after_the_leading_rows(n, monkeypatch):
    """A dense row among the first _LEAD_ROWS rows ends the check there; a later
    one ends it at the chunk that holds it."""
    rng = make_rng(n + 52)
    v = awkward_values(rng, n)
    m = 240
    calls = []

    def counted(x, scale):
        calls.append(len(x))
        return live_columns(x, scale)

    live_columns = reglab.kernels._live_columns
    monkeypatch.setattr(reglab.kernels, "_live_columns", counted)
    for row in (0, 3, _LEAD_ROWS - 1, _LEAD_ROWS, 100, m - 1):
        for scale in (None, SCALE):
            s = one_hot_scores(rng, m, n, scale)
            s[row, (s[row].argmax() + 1) % n] = s[row].max() - 1.0
            calls.clear()
            assert not check_attend(s, v, scale)
            assert calls[0] == _LEAD_ROWS
            assert (len(calls) == 1) == (row < _LEAD_ROWS)
            assert sum(calls[:-1]) <= row < sum(calls)


def test_attend_rows_on_bench_model_attention(monkeypatch):
    """Indoor N=256 (train_toy's scenes) reaches the dense path; outdoor N=600 does not."""
    indoor = bench_model_attention(monkeypatch, 256, scene="indoor", outlier_ratio=0.5, seed=5)
    outdoor = bench_model_attention(monkeypatch, 600)
    paths = {name: [check_attend(s, v, scale) for s, v, scale in blocks]
             for name, blocks in (("indoor", indoor), ("outdoor", outdoor))}
    assert all(paths["outdoor"])
    assert any(paths["indoor"]) and not all(paths["indoor"])


# -- certified float32 screen -----------------------------------------------------


PRUNE_OFF = 1 << 62                     # a _MIN_SKIPPED_KEYS that no map passes


def screened_attend(q, k, v, scale=None) -> int:
    """_attend's forward of (q, k, v) with the float32 screen off, forced on at
    every size without key pruning, and forced on with pruning at every size:
    the same bytes, and no floating-point warning from the screen that the
    float64 path did not raise. Returns how many blocks the screen certified
    without pruning."""
    certified = {}
    real = reglab.kernels.certified_columns
    out, warned = {}, {}
    for name, size, skipped in (("off", SCREEN_OFF, PRUNE_OFF), ("on", 0, PRUNE_OFF),
                                ("pruned", 0, 0)):
        def counted(*args):
            hot = real(*args)
            certified.setdefault(name, []).append(hot is not None)
            return hot

        with pytest.MonkeyPatch.context() as patch, warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            patch.setattr(reglab.kernels, "_MIN_SCREEN_PRODUCT", size)
            patch.setattr(reglab.kernels, "_MIN_SKIPPED_KEYS", skipped)
            patch.setattr(reglab.kernels, "certified_columns", counted)
            out[name] = _attend(*(Tensor(np.array(a, dtype=np.float64)) for a in (q, k, v)),
                                scale).value
        warned[name] = {(w.category, str(w.message)) for w in seen}
    for name in ("on", "pruned"):
        assert out[name].shape == out["off"].shape and out[name].tobytes() == out["off"].tobytes()
        assert warned[name] <= warned["off"], warned
    return sum(certified.get("on", []))


def score_operands(scores):
    """(q, k) with q @ k.T == scores exactly: q is the identity, k the scores' transpose."""
    return np.eye(scores.shape[0]), scores.T.copy()


def one_live_operands(rng, m, n, d=32, size=1.0):
    """(q, k) of m random rows of norm ``size`` and n keys, the first m of them the
    query rows: each of those rows scores its own key size^2 and the rest at most
    about 0.7 size^2."""
    q = rng.normal(size=(m, d))
    q *= size / np.linalg.norm(q, axis=1, keepdims=True)
    k = np.concatenate([q, rng.normal(size=(n - m, d)) * (size / np.sqrt(d) / 3)])
    return q, k


@pytest.mark.parametrize("scale", [None, SCALE, 2.0], ids=["unscaled", "scaled", "scale2"])
def test_screen_gathers_one_live_blocks_with_the_float64_bits(scale):
    rng = make_rng(60)
    q, k = one_live_operands(rng, 300, 310, size=300.0)
    blocks = len(list(row_blocks(300, 310 * 32)))
    assert screened_attend(q, k, awkward_values(rng, 310, 32), scale) == blocks


def test_screen_on_near_ties_at_the_argmax():
    """A row whose own key has a twin within float32's error: the row is dense in
    float64, and the screen certifies no block that holds such a row."""
    rng = make_rng(61)
    q, k = one_live_operands(rng, 600, 600, size=300.0)
    v = awkward_values(rng, 600, 32)
    assert [hi - lo for lo, hi in row_blocks(600, 600 * 32)] == [240, 240, 120]
    own = k[591].copy()
    for row, eps in ((5, 2.0 ** -30), (300, -(2.0 ** -30)), (590, 2.0 ** -52)):
        k[row + 1] = k[row] * (1.0 + eps)
    assert screened_attend(q, k, v) == 0
    k[591] = own
    assert screened_attend(q, k, v) == 1


def boundary_rows(scale):
    """(gap, top, second) with fl(fl(second * scale) - fl(top * scale)) == gap, for gaps
    of -746 and three ulps either side of it."""
    c = 1.0 if scale is None else scale
    gaps = [_EXP_ZERO_BELOW]
    for _ in range(3):
        gaps = [float(np.nextafter(gaps[0], np.inf)), *gaps, float(np.nextafter(gaps[-1], -np.inf))]
    found = {}
    for top in np.linspace(0.0, 3.0, 301):
        second = (top * c + _EXP_ZERO_BELOW) / c
        for _ in range(12):
            second = np.nextafter(second, -np.inf)
        for _ in range(25):
            gap = float(second * c - top * c)
            if gap in gaps and gap not in found:
                found[gap] = (float(top), float(second))
            second = np.nextafter(second, np.inf)
    assert sorted(found) == sorted(gaps)
    return [(gap, *found[gap]) for gap in gaps]


@pytest.mark.parametrize("scale", [None, SCALE], ids=["unscaled", "scaled"])
def test_screen_at_the_underflow_boundary(scale):
    """A row whose scaled gap is -746 or a few ulps from it: only the float64 path
    decides it. Far below the floor the screen certifies."""
    rng = make_rng(62)
    v = awkward_values(rng, 7)
    for gap, top, second in boundary_rows(scale):
        scores = one_hot_scores(rng, 9, 7, scale)
        scores[4] = -1e4 if scale is None else -1e4 / scale
        scores[4, 2], scores[4, 5] = top, second
        assert screened_attend(*score_operands(scores), v, scale) == 0
        scores[4, 5] = second - 10.0 / (1.0 if scale is None else scale)
        assert screened_attend(*score_operands(scores), v, scale) == 1


@pytest.mark.parametrize("scale", [None, SCALE], ids=["unscaled", "scaled"])
def test_screen_on_scores_that_cancel_below_float32s_resolution(scale):
    """q_i = A (1, -(1 + eps)) with eps = 0.6 * 2^-23 and keys B_l (1, 1): each score
    is -A eps B_l, and float32, which rounds 1 + eps to 1 + 2^-23, reads every gap
    about 1/0.6 times too wide. A scaled gap of -700 is live in float64 and reads
    about -1170 in float32: only the error bound keeps the screen off it."""
    c = 1.0 if scale is None else scale
    a, eps = 2.0 ** 20, 0.6 * 2.0 ** -23
    q = np.tile([a, -a * (1.0 + eps)], (9, 1))
    b = np.array([-1.0, -0.2, 0.1, 0.5, 0.9, -0.05, 0.3])
    b *= 700.0 / (a * eps * 0.8 * c)                   # every row: gap (b[0] - b[1]) a eps c = -700
    k = b[:, None] * np.ones((1, 2))
    scores = q @ k.T
    gap = (scores[0, 1] - scores[0, 0]) * c
    assert -710.0 < gap < -690.0 and (scores.argmax(axis=1) == 0).all()
    assert screened_attend(q, k, awkward_values(make_rng(68), 7), scale) == 0


@pytest.mark.parametrize("size, certified", [(1e15, True), (5e17, True), (1e18, False),
                                             (1e19, False), (1e20, False), (1e39, False),
                                             (1e160, False)])
def test_screen_on_norms_near_and_past_float32_range(size, certified):
    """Norms of 5e17 still certify. Past _SCREEN_NORM_LIMIT (about 1.15e18, with
    the keys' mean) the screen stays off before a float32 product or cast could
    overflow (float32's range ends at 3.4e38); at 1e160 the float64 scores
    overflow too."""
    rng = make_rng(63)
    q, k = one_live_operands(rng, 40, 50, size=size)
    assert screened_attend(q, k, awkward_values(rng, 50)) == certified
    assert screened_attend(q, k, awkward_values(rng, 50), SCALE) == certified


@pytest.mark.parametrize("size", [1e-20, 1e-40, 1e-200])
def test_screen_on_entries_below_float32s_normal_range(size):
    """Scores that underflow in float32 are dense in float64 and never certify; a
    one-live row with float32-subnormal components in q and k still does."""
    rng = make_rng(64)
    q, k = one_live_operands(rng, 40, 50, size=size)
    assert screened_attend(q, k, awkward_values(rng, 50)) == 0
    q, k = one_live_operands(rng, 40, 50, size=100.0)
    q[:, :4] = size * rng.normal(size=(40, 4))
    k[:, 4:8] = size * rng.normal(size=(50, 4))
    assert screened_attend(q, k, awkward_values(rng, 50)) == 1


@pytest.mark.parametrize("where", ["q", "k", "v"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_screen_leaves_non_finite_operands_to_the_float64_path(where, value):
    rng = make_rng(65)
    q, k = one_live_operands(rng, 300, 310, size=100.0)
    v = awkward_values(rng, 310)
    {"q": q, "k": k, "v": v}[where][7, 3] = value
    assert screened_attend(q, k, v) == 0
    assert screened_attend(q, k, v, SCALE) == 0


@pytest.mark.parametrize("scale", [0.0, -1.0, np.nan, 1e300, np.inf])
def test_screen_leaves_other_scales_to_the_float64_path(scale):
    rng = make_rng(66)
    q, k = one_live_operands(rng, 40, 50, size=100.0)
    assert screened_attend(q, k, awkward_values(rng, 50), scale) == 0


def test_screen_on_width_one_rows():
    """One key: every finite row is one-live, in float64 and in the screen."""
    rng = make_rng(67)
    q, k = rng.normal(size=(30, 4)) * 1e3, rng.normal(size=(1, 4))
    v = awkward_values(rng, 1)
    assert screened_attend(q, k, v) == 1 and screened_attend(q, k, v, SCALE) == 1


# -- certified key pruning ---------------------------------------------------------


def clustered_operands(rng, m, n, special, scale=None, offset=0.0, noise=10.0):
    """(q, k, scores) with q @ k.T == scores + offset exactly before rounding: row i
    of q is e_(i mod 32), except row ``special``, which is e_32, so every row
    reads one of 33 score rows. Every score row tops at key 0 with 1.5e4 (after
    the scale) to spare over keys 1..n-1, which sit in one cluster within
    ``noise`` of each other; the caller edits scores[32] for the special row."""
    c = 1.0 if scale is None else scale
    scores = (-1.5e4 + rng.uniform(-noise, noise, size=(33, n))) / c
    scores[:, 0] = 0.0
    q = np.zeros((m, 33))
    q[np.arange(m), np.arange(m) % 32] = 1.0
    q[special] = 0.0
    q[special, 32] = 1.0
    return q, scores.T + offset, scores


@pytest.mark.parametrize("scale", [None, SCALE], ids=["unscaled", "scaled"])
@pytest.mark.parametrize("special", [3, 500, 1050])
@pytest.mark.parametrize("far", [5, 1999])
def test_pruning_scores_a_far_key_within_the_floor(scale, special, far):
    """One row also scores a key far from the cluster within the floor of its top:
    the bound of that key's group must keep it scored, so that row's block stays
    on the float64 path; a little further below, every block is certified. The
    far key sits 500 below the cluster on the other rows, so it shares no group
    with key 0, and its group's radius, set by the far key itself, makes the
    bound nearly tight for that row (a radius 10% short prunes it). The 2000
    keys take 64 groups and 48 padding slots (key 5 has a copy), and the 1100
    rows span 5 blocks and 2 chunks."""
    c = 1.0 if scale is None else scale
    blocks = len(list(row_blocks(1100, 2000 * 9)))
    assert blocks == 5
    rng = make_rng(71)
    v = awkward_values(rng, 2000)
    for gap, certified in ((-700.0, blocks - 1), (-745.9, blocks - 1), (-800.0, blocks)):
        q, k, _ = clustered_operands(rng, 1100, 2000, special, scale)
        k[far, :32] -= 500.0 / c
        k[far, 32] = gap / c
        assert screened_attend(q, k, v, scale) == certified


@pytest.mark.parametrize("scale", [None, SCALE], ids=["unscaled", "scaled"])
def test_pruning_at_the_underflow_boundary_and_on_tight_groups(scale):
    """Runner-ups a few ulps either side of the floor, on a far key and, with no
    noise (groups of radius 0, whose bound is the score itself plus the slack),
    on every clustered key at once."""
    rng = make_rng(72)
    v = awkward_values(rng, 2000)
    for gap, top, second in boundary_rows(scale):
        for noise in (10.0, 0.0):
            q, k, scores = clustered_operands(rng, 1100, 2000, 700, scale, noise=noise)
            k[0, 32] = top
            k[1999, 32] = second
            if noise == 0.0:
                k[1:, 32] = second
            assert screened_attend(q, k, v, scale) == 4


@pytest.mark.parametrize("offset", [1e6, 1e12])
def test_pruning_with_keys_far_from_the_origin(offset):
    """A common offset on every key shifts each row's scores by one constant; the
    centred keys and the K terms of the bounds carry it."""
    rng = make_rng(73)
    v = awkward_values(rng, 2000)
    for gap, certified in ((-700.0, 4), (-800.0, 5)):
        q, k, _ = clustered_operands(rng, 1100, 2000, 600, offset=offset)
        k[1999, 32] = gap + offset
        assert screened_attend(q, k, v) == certified


def test_pruning_engages_on_the_bench_model_at_n_2000(monkeypatch):
    """Outdoor N=2000, seed 1: every block of the three N x N maps is certified and
    scores under 10% of its keys (lead rows included), so a change that quietly
    falls back to scoring every key fails here, not only in the benchmark."""
    n = 2000
    scored, certified = {}, []
    held = []  # every screen seen, kept alive so that no later screen reuses its id

    def count(screen, a, b, keys):
        held.append(screen)
        scored.setdefault(id(screen), np.zeros(len(screen.q)))[a:b] += keys

    real_all, real_some = reglab.kernels._scored_on_every_key, reglab.kernels._scored_on_keys
    real_columns = reglab.kernels.certified_columns

    def on_every_key(screen, a, b, scale):
        count(screen, a, b, screen.kt32.shape[1])
        return real_all(screen, a, b, scale)

    def on_keys(screen, x32, q32, a, b, keys, bound, scale):
        count(screen, a, b, len(keys))
        return real_some(screen, x32, q32, a, b, keys, bound, scale)

    def columns(screen, lo, hi, scale):
        held.append(screen)
        hot = real_columns(screen, lo, hi, scale)
        if screen.kt32.shape[1] == n:
            certified.append((id(screen), lo, hi, hot is not None))
        return hot

    monkeypatch.setattr(reglab.kernels, "_scored_on_every_key", on_every_key)
    monkeypatch.setattr(reglab.kernels, "_scored_on_keys", on_keys)
    monkeypatch.setattr(reglab.kernels, "certified_columns", columns)
    GPINet.load(BENCH_PARAMS).predict(
        generate(SceneConfig(n=n, outlier_ratio=0.8, scene="outdoor", seed=1))[0])
    assert len(certified) == 3 * len(list(row_blocks(n, 32 * n)))
    assert all(ok for _, _, _, ok in certified)
    shares = [scored[key][lo:hi].sum() / ((hi - lo) * n) for key, lo, hi, _ in certified]
    assert max(shares) < 0.1, shares


def predict_screened(model, c) -> bytes:
    """predict's bytes with the screen forced on at every size; asserts them equal
    to the bytes with it off."""
    out = {}
    for size in (0, SCREEN_OFF):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(reglab.kernels, "_MIN_SCREEN_PRODUCT", size)
            out[size] = model.predict(c).tobytes()
    assert out[0] == out[SCREEN_OFF]
    return out[0]


def test_screen_keeps_predict_bits_on_every_map():
    """The bench model's dense indoor maps, its channel map, a tiny-coordinate
    scene and an untrained model's dense maps, with the screen forced on."""
    bench, untrained = GPINet.load(BENCH_PARAMS), GPINet(seed=0)
    indoor, _ = generate(SceneConfig(n=256, outlier_ratio=0.5, scene="indoor", seed=5))
    outdoor, _ = generate(SceneConfig(n=600, outlier_ratio=0.8, scene="outdoor", seed=2))
    tiny = CorrespondenceSet(outdoor.source * 1e-200, outdoor.target * 1e-200)
    for model, c in ((bench, indoor), (bench, outdoor), (bench, tiny), (untrained, outdoor)):
        predict_screened(model, c)


def test_screen_certifies_most_bench_model_blocks_at_n_2000(monkeypatch):
    """At least 80% of the N x N blocks of the bench model's three N-wide maps on
    outdoor N=2000 scenes skip the float64 product (all of them when this was
    written); a looser bound or a lost engagement shows here as a slowdown."""
    n, certified = 2000, []
    real = reglab.kernels.certified_columns

    def counted(screen, lo, hi, scale):
        hot = real(screen, lo, hi, scale)
        certified.append(screen.kt32.shape[1] == n and hot is not None)
        return hot

    monkeypatch.setattr(reglab.kernels, "certified_columns", counted)
    model = GPINet.load(BENCH_PARAMS)
    for seed in (1, 2):
        model.predict(generate(SceneConfig(n=n, outlier_ratio=0.8, scene="outdoor",
                                           seed=seed))[0])
    assert sum(certified) >= 0.8 * 2 * 3 * len(list(row_blocks(n, 32 * n)))


def test_screen_engages_only_on_large_maps(monkeypatch):
    """At d = 32 the N <= 256 maps (register_small's and train_toy's scenes, and
    every training step) and the (d, d) channel map stay on the float64 path;
    outdoor N=500's row and cross attentions take the screen. Key pruning
    groups the keys of the N=1200 maps alone (more than _MIN_SKIPPED_KEYS)."""
    engaged, grouped = [], []
    real, real_groups = reglab.kernels.screen_operands, reglab.kernels._key_groups

    def recorded(q, kt, v, scale, rows):
        screen = real(q, kt, v, scale, rows)
        engaged.append((kt.shape[1], screen is not None))
        return screen

    def groups(screen, x32):
        grouped.append(len(x32))
        return real_groups(screen, x32)

    monkeypatch.setattr(reglab.kernels, "screen_operands", recorded)
    monkeypatch.setattr(reglab.kernels, "_key_groups", groups)
    model = GPINet.load(BENCH_PARAMS)
    for n, scene, ratio in ((250, "indoor", 0.5), (256, "indoor", 0.5), (500, "outdoor", 0.8),
                            (1200, "outdoor", 0.8)):
        engaged.clear()
        grouped.clear()
        model.predict(generate(SceneConfig(n=n, outlier_ratio=ratio, scene=scene, seed=3))[0])
        assert sorted(engaged) == [(32, False)] + [(n, n >= 500)] * 3
        assert grouped == [n] * (3 if n > 1024 else 0)
