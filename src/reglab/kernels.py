"""Hot numeric kernels in numpy.

The expensive inner loops of the package live here: building the
N x N pairwise length-consistency matrix (or any rows of it), fitting
and testing many rigid transforms at once, and scanning RANSAC minimal
samples.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError


# -- row softmax ---------------------------------------------------------------
#
# numpy's float64 exp returns +0.0 for every input below about -745.1332
# (tests/test_kernels.py pins this for x <= _EXP_ZERO_BELOW), but it takes
# a slow path to get there: 4 to 16 times the cost of an ordinary input
# (numpy 2.4.6 on an AVX-512 Xeon).
# The attention maps of a trained model are nearly one-hot, so after the
# row max is subtracted almost every entry lies far below that floor.
# softmax_rows skips exp there and writes the zeros itself. A zero adds
# nothing to the row sum and 0 / sum is 0, so every entry keeps the bits
# of the plain formula exp(x - max) / sum.
#
# Element-wise kernels work through chunks of about _CACHE_ENTRIES
# entries (512 KB), so their scratch and their repeated passes stay in a
# core's L2 cache. Every element sees the same float operations whichever
# chunk it lands in.

_EXP_ZERO_BELOW = -746.0
_CACHE_ENTRIES = 1 << 16
_LEAD_ROWS = 8


def _chunk_rows(width: int) -> int:
    """Rows of ``width`` entries that fill one cache-sized chunk."""
    return max(1, _CACHE_ENTRIES // max(width, 1))


def softmax_rows(s: np.ndarray) -> np.ndarray:
    """Row softmax of a C-contiguous 2-D float64 array, in place; returns ``s``.

    Bit for bit ``e = np.exp(s - max); e / e.sum`` per row, NaN and
    infinite entries included.
    """
    step = _chunk_rows(s.shape[1])
    for lo in range(0, s.shape[0], step):
        x = s[lo:lo + step]
        x -= x.max(axis=1, keepdims=True)
        live = x >= _EXP_ZERO_BELOW
        if live.all():
            np.exp(x, out=x)
        else:
            # the skipped entries are below the floor, or NaN: maximum
            # turns the former into exp's +0.0 and keeps the latter
            np.exp(x, out=x, where=live)
            np.maximum(x, 0.0, out=x)
        x /= x.sum(axis=1, keepdims=True)
    return s


def _live_columns(x: np.ndarray, scale: float | None) -> np.ndarray | None:
    """The column of each row's one live entry in softmax_rows(x [* scale]), or
    None if some row has more or none; ``x`` is left as it was.

    j = argmax of the unscaled row, and ``second`` the row's max with x[j]
    masked to -inf. For scale > 0, x -> fl(x * scale) never decreases, so
    fl(x[j] * scale) is the scaled row's max and fl(second * scale) the
    largest of its other entries; the row has one live entry exactly when
    that max is finite and fl(fl(second * scale) - max) < _EXP_ZERO_BELOW.
    A NaN row, a row with +inf and an all -inf row have a non-finite max;
    a non-positive or NaN scale never passes.
    """
    j = x.argmax(axis=1)
    flat = x.reshape(-1)        # a view of a C-contiguous x; on a copy no row passes
    at = np.arange(0, x.size, x.shape[1])
    at += j
    top = flat[at]
    flat[at] = -np.inf
    second = x.max(axis=1)
    flat[at] = top
    if scale is not None:
        top *= scale
        second *= scale
    if not np.isfinite(top).all():
        return None
    second -= top
    return j if (second < _EXP_ZERO_BELOW).all() else None


def attend_rows(s: np.ndarray, v: np.ndarray, scale: float | None = None) -> np.ndarray:
    """``softmax_rows(s [* scale]) @ v``, bit for bit.

    A row whose one live entry (at or above _EXP_ZERO_BELOW after the
    shift) is j softmaxes to exactly e_j, and BLAS sums that row's product
    from a zeroed register: v[j] plus terms 0 * v that are all +-0.0, i.e.
    ``v[j] + 0.0`` (which turns -0.0 into +0.0). When every row has one
    live entry (see _live_columns) and v is finite (0 * inf is NaN), the
    rows are gathered and ``s`` is left as it was. Otherwise ``s`` is
    scaled and softmaxed in place and the product runs as usual. The
    first _LEAD_ROWS rows are checked on their own, so a dense block
    stops there.
    """
    m = s.shape[0]
    bounds = [0, *range(min(_LEAD_ROWS, m), m, _chunk_rows(s.shape[1])), m]
    hot = np.empty(m, dtype=np.intp)
    for lo, hi in zip(bounds, bounds[1:]):
        j = _live_columns(s[lo:hi], scale)
        if j is None:
            break
        hot[lo:hi] = j
    else:
        if np.isfinite(v).all():
            return v[hot] + 0.0
    if scale is not None:
        s *= scale
    return softmax_rows(s) @ v


# -- certified float32 screen for gathered attention blocks ------------------
#
# A block that attend_rows gathers costs its float64 score product and the
# one-live check, yet its output v[j] + 0.0 needs only two facts per row:
# j is the float64 argmax, and the scaled gap to the runner-up is below
# _EXP_ZERO_BELOW. certified_columns proves both from float32 scores, at
# about half the product's cost.
#
# Centred keys. Subtracting the keys' mean m from every key shifts row i of
# the map by c_i = q_i . m, which moves neither its argmax nor its gaps,
# and shrinks the key norms that the error bound scales with (2 to 125
# times on the bench model's maps). So the float32 scores are
# t_il = fl32(q_i) . fl32(k_l - m), and t_il + c_i is compared with the
# float64 score s_il of the block product.
#
# The bound. Let u = 2^-24, gamma = d u / (1 - d u), g64 the same for
# u = 2^-53, and K = ||m|| + max_l ||k_l - m||, which bounds every ||k_l||.
# - The float32 dot product of the cast vectors, summed in any order, FMA
#   or not, is within (2u + u^2 + gamma (1 + u)^2) ||q_i|| ||k_l - m|| of
#   q_i . (k_l - m) (Higham, Accuracy and Stability of Numerical
#   Algorithms, 2002, sec. 3.1, with Cauchy-Schwarz); the float64 rounding
#   of k_l - m adds u64 ||q_i|| ||k_l - m||.
# - s_il and the float64 c_i are each within g64 ||q_i|| K of their exact
#   values, and each other float64 step below rounds a value at most
#   4 ||q_i|| K, which 2^-45 ||q_i|| K covers. 1 + 2^-20 covers the
#   rounding of the norms and of the bound itself (d < 2^20).
# - Underflow, gradual, flushed or read as zero, adds at most 2^-126 per
#   float32 operation: with ||q_i|| and K at most _SCREEN_NORM_LIMIT, less
#   than ``absolute`` = (d + 1) 2^-62 in all.
# ``key_err`` holds, per key, the factor of ||q_i|| in that bound, and
# ``key_err_max`` its largest value. So a row's float64 top is at least
# L = top + c_i - err(top), and each of its other float64 scores at most
# H = second + c_i + err(runner-up). fl(x * scale) and fl(a - b) are
# monotone, so when fl(fl(H * scale) - fl(L * scale)) < _EXP_ZERO_BELOW,
# _live_columns passes that row of the float64 block with the same j. The
# norm limit keeps every float32 cast, product and partial sum finite and
# every float64 score below 2^121; the scale limit keeps the scaled top
# finite. A block that is not certified takes the float64 path unchanged.
#
# Key pruning (branch-and-bound maximum inner-product search: Ram and Gray,
# "Maximum inner-product search using cone trees", KDD 2012; Koenigstein,
# Ram and Shavitt, CIKM 2012). A certified row needs its own float32 top
# and runner-up only among the keys that can come within the floor of its
# top; every other key needs only an upper bound. _key_groups splits the
# centred keys x_l = fl(k_l - m), once per call, by recursive median splits
# along each subset's principal direction, into groups of at most
# _GROUP_KEYS keys, each with a centroid c_g and a radius r_g at least
# ||x_l - c_g|| for each of its keys. Cauchy-Schwarz gives
# q_i . x_l <= q_i . c_g + ||q_i|| r_g, so the float64 score of each key of
# group g is at most
#     c_i + q_i . c_g + ||q_i|| r_g + (2 g64 + u64) ||q_i|| K
# (g64 ||q_i|| K each for s_il and c_i, u64 ||q_i|| K for the rounding of
# k_l - m). H_ig is the float64 product of [q_i, c_i, ||q_i||, 1] and
# [c_g, 1, group_err_g, absolute], with
#     group_err_g = (r_g + (2 g64 + u64 + 5 g') K) (1 + 2^-20),
#     g' = (d + 3) u64 / (1 - (d + 3) u64).
# Its terms sum to at most 4.02 ||q_i|| K + absolute in magnitude, so in any
# summation order its rounding is below g' (4.02 ||q_i|| K + absolute),
# which 5 g' K and ``absolute`` cover; 1 + 2^-20 covers the rounding of the
# radii, the norms and group_err itself, and ``absolute`` float64
# underflow (under 2^-400 ||q_i|| K in all). So H_ig bounds the float64
# score of every key of group g. The split direction decides only which
# keys share a group, never a bound, so two power steps on the float32
# keys find it.
#
# Once a block's lead rows are certified on every key, _prune takes every
# later row of the map, one chunk of rows at a time. Each row first scores
# in float32 the groups that hold the lead rows' top keys or their best
# bounds; its top score there, taken as L above with key_err_max, is a
# lower bound lb_i on its float64 top. The chunk then scores only the
# union of the groups whose H_ig reaches t_i = lb_i + _EXP_ZERO_BELOW
# (1 + 2^-10) / scale for one of its rows. Every other group has
# H_ig < t_i, so t_i bounds row i's float64 score at each unscored key:
# the row's H rises to t_i, and the check is the one above (the factor
# 1 + 2^-10 puts t_i 746 / 1024 further down, a margin for rounding). A
# block with a row that this does not certify is scored on every key, as
# before.
#
# Pruning pays only when the union leaves at least _MIN_SKIPPED_KEYS keys
# of each row unscored: the groups, the bounds and the narrow products
# cost about as much as scoring that many keys per row. So a map of at
# most that many keys is never grouped, and a chunk whose union leaves
# fewer is scored on every key.
#
# The screen engages when one block's product has at least
# _MIN_SCREEN_PRODUCT multiply-adds. Below that, its fixed cost (the casts,
# the norms, a second product for a block that fails) outweighs the half
# product it saves (predict at N = 250 to 300 was 3-5% slower with it).
# At d = 32 the N <= 256 maps and the (d, d) channel map for N < 4096 stay
# on the float64 path. The queries are cast to float32 as they are scored,
# so a dense block that fails in its lead rows casts only those.

_MIN_SCREEN_PRODUCT = 1 << 22   # multiply-adds of one block's score product
_SCREEN_NORM_LIMIT = 2.0 ** 60
_SCREEN_SCALE_LIMIT = 2.0 ** 800
_GROUP_KEYS = 32                # keys per group at most
_MIN_SKIPPED_KEYS = 1024        # keys per row that pruning must leave unscored


class Screen:
    """What certified_columns needs for softmax_rows(q @ kt [* scale]) @ v: the
    centred keys ``centred`` (one per column) and in float32 ``kt32``, the
    c_i (``shift``), the query norms, the error factors ``key_err`` and
    ``key_err_max``, the underflow term ``absolute`` and group_err's
    constant part ``group_slack``; ``hot`` holds _prune's result once it
    has run."""

    def __init__(self, q, centred, shift, q_norms, key_err, key_err_max, absolute, group_slack):
        self.q, self.centred, self.kt32 = q, centred, centred.astype(np.float32)
        self.shift, self.q_norms = shift, q_norms
        self.key_err, self.key_err_max = key_err, key_err_max
        self.absolute, self.group_slack = absolute, group_slack
        self.hot = None


def screen_operands(q: np.ndarray, kt: np.ndarray, v: np.ndarray, scale: float | None,
                    rows: int) -> Screen | None:
    """The Screen of softmax_rows(q @ kt [* scale]) @ v, or None where the
    screen does not engage: a block of ``rows`` rows below
    _MIN_SCREEN_PRODUCT, a norm of q or k past _SCREEN_NORM_LIMIT or not
    finite (NaN and infinities included), a value of v that is not finite,
    or a scale outside (0, _SCREEN_SCALE_LIMIT)."""
    d, n = kt.shape
    if rows * n * d < _MIN_SCREEN_PRODUCT or d >= 1 << 20:
        return None
    if scale is not None and not 0.0 < scale < _SCREEN_SCALE_LIMIT:
        return None
    with np.errstate(all="ignore"):
        q_norms = np.sqrt(np.einsum("ij,ij->i", q, q))
        mean = kt.mean(axis=1)
        centred = kt - mean[:, None]
        centred_norms = np.sqrt(np.einsum("ij,ij->j", centred, centred))
        k_bound = np.sqrt(mean @ mean) + centred_norms.max()
        if not (q_norms.max() <= _SCREEN_NORM_LIMIT and k_bound <= _SCREEN_NORM_LIMIT
                and np.isfinite(v).all()):
            return None
    u, u64 = 2.0 ** -24, 2.0 ** -53
    gamma, gamma64 = d * u / (1.0 - d * u), d * u64 / (1.0 - d * u64)
    gamma_groups = (d + 3) * u64 / (1.0 - (d + 3) * u64)
    c32 = (2 * u + u * u + gamma * (1 + u) ** 2 + u64) * (1 + 2.0 ** -20)
    slack = (2 * gamma64 + 2.0 ** -45) * (1 + 2.0 ** -20) * k_bound
    return Screen(q, centred, q @ mean, q_norms, centred_norms * c32 + slack,
                  centred_norms.max() * c32 + slack, (d + 1) * 2.0 ** -62,
                  (2 * gamma64 + u64 + 5 * gamma_groups) * k_bound)


def _key_groups(screen: Screen, x32: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(groups, members): each group's row [c_g, 1, group_err_g, absolute],
    whose product with [q_i, c_i, ||q_i||, 1] is H_ig, and its keys.
    ``x32`` holds the centred keys in float32, one per row.

    The keys are padded to m = size * 2^depth slots by repeating the first
    ones, so that every split halves equal segments. ``members`` (groups,
    size) holds each slot's key, or -1 for a padding slot; a repeated key
    only widens the group that holds its copy, which the bound allows.
    """
    n, d = x32.shape
    depth = (-(-n // _GROUP_KEYS) - 1).bit_length()
    size = -(-n >> depth)
    m = size << depth
    slots = np.arange(m)
    y = np.take(x32, slots % n, axis=0)
    top = np.abs(y).max()
    if top > 0:
        y /= top        # entries in [-1, 1], so the power steps stay finite
    for level in range(depth):
        xs = y.reshape(1 << level, -1, d)
        width = xs.shape[1]
        mean = np.full(width, 1 / width, dtype=np.float32) @ xs
        w = np.ones((1 << level, d, 1), dtype=np.float32)
        for _ in range(2):
            p = xs @ w
            p -= mean[:, None, :] @ w
            w = (p.transpose(0, 2, 1) @ xs).transpose(0, 2, 1)
        order = np.argpartition((xs @ w)[..., 0], width // 2, axis=1)
        order += np.arange(0, m, width)[:, None]
        order = order.reshape(-1)
        slots = np.take(slots, order)
        if level + 1 < depth:
            y = np.take(y, order, axis=0)
    pad = slots >= n
    slots[pad] -= n
    keys = np.take(np.ascontiguousarray(screen.centred.T), slots, axis=0).reshape(-1, size, d)
    groups = np.empty((1 << depth, d + 3))
    groups[:, :d] = np.ones(size) @ keys / size
    keys -= groups[:, None, :d]
    radii = np.sqrt(np.einsum("gsd,gsd->gs", keys, keys).max(axis=1))
    groups[:, d] = 1.0
    groups[:, d + 1] = (radii + screen.group_slack) * (1 + 2.0 ** -20)
    groups[:, d + 2] = screen.absolute
    return groups, np.where(pad, -1, slots).reshape(-1, size)


def _gap_bounds(screen: Screen, a: int, b: int, j: np.ndarray, top: np.ndarray,
                second: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(L, H) of rows [a, b) from each row's float32 top score ``top`` at key
    ``j`` and its largest other float32 score ``second``."""
    q_norms = screen.q_norms[a:b]
    low = top.astype(np.float64)
    low += screen.shift[a:b]
    low -= q_norms * screen.key_err[j] + screen.absolute
    high = second.astype(np.float64)
    high += screen.shift[a:b]
    high += q_norms * screen.key_err_max + screen.absolute
    return low, high


def _certified(low: np.ndarray, high: np.ndarray, scale: float | None) -> np.ndarray:
    """Where fl(fl(H * scale) - fl(L * scale)) < _EXP_ZERO_BELOW, row by row;
    ``low`` and ``high`` are overwritten."""
    if scale is not None:
        low *= scale
        high *= scale
    high -= low
    return high < _EXP_ZERO_BELOW


def _scored_on_every_key(screen: Screen, a: int, b: int,
                         scale: float | None) -> tuple[np.ndarray, np.ndarray]:
    """(j, certified): the top key of each of rows [a, b) from its float32
    scores against every key, and whether the row is certified."""
    s = screen.q[a:b].astype(np.float32) @ screen.kt32
    j = s.argmax(axis=1)
    flat = s.reshape(-1)
    at = np.arange(0, s.size, s.shape[1])
    at += j
    top = flat[at]
    flat[at] = -np.inf
    return j, _certified(*_gap_bounds(screen, a, b, j, top, s.max(axis=1)), scale)


def _scored_on_keys(screen: Screen, x32: np.ndarray, q32: np.ndarray, a: int, b: int,
                    keys: np.ndarray, bound: np.ndarray, scale: float | None) -> np.ndarray:
    """The certified top key of each of rows [a, b) (``q32``, in float32) from
    its float32 scores at ``keys`` alone (``x32`` holds every key, one per
    row), or -1; ``bound`` bounds each row's float64 score at every other
    key."""
    s = x32[keys] @ q32.T                              # one row per key
    j = s.argmax(axis=0)
    at = (j, np.arange(b - a))
    top = s[at]
    s[at] = -np.inf
    j = keys[j]
    low, high = _gap_bounds(screen, a, b, j, top, s.max(axis=0))
    np.maximum(high, bound, out=high)
    return np.where(_certified(low, high, scale), j, -1)


def _prune(screen: Screen, start: int, scale: float | None, lead: np.ndarray) -> np.ndarray:
    """The certified top key of each of rows [start, n), scored only on the
    keys that the group bounds cannot rule out (see the comment above), or
    -1. ``lead`` holds the certified top keys of the lead rows just before
    ``start``."""
    x32 = np.ascontiguousarray(screen.kt32.T)
    groups, members = _key_groups(screen, x32)
    queries = np.column_stack([screen.q, screen.shift, screen.q_norms, np.ones(len(screen.q))])
    hot = np.full(len(queries), -1)
    floor = _EXP_ZERO_BELOW * (1 + 2.0 ** -10) / (1.0 if scale is None else scale)
    lead_bound = groups @ queries[start - len(lead):start].T
    first = members[(lead_bound == lead_bound.max(axis=0)).any(axis=1)
                    | np.isin(members, lead).any(axis=1)]
    first = x32[first[first >= 0]]
    step = _chunk_rows(len(groups))
    for a in range(start, len(queries), step):
        b = min(a + step, len(queries))
        q32 = screen.q[a:b].astype(np.float32)
        reach = (first @ q32.T).max(axis=0).astype(np.float64)
        reach += screen.shift[a:b] + floor
        reach -= screen.q_norms[a:b] * screen.key_err_max + screen.absolute
        near = (groups @ queries[a:b].T >= reach).any(axis=1)
        keys = members[near].reshape(-1)
        keys = keys[keys >= 0]
        if len(x32) - len(keys) >= _MIN_SKIPPED_KEYS:
            hot[a:b] = _scored_on_keys(screen, x32, q32, a, b, keys, reach, scale)
    return hot


def certified_columns(screen: Screen, lo: int, hi: int, scale: float | None) -> np.ndarray | None:
    """The column of each row's one live entry in rows [lo, hi) of
    softmax_rows(q @ kt [* scale]), as _live_columns finds it on the float64
    block, or None if the float32 scores do not certify every row.

    The first _LEAD_ROWS rows are scored on every key on their own, so a
    dense block stops there. The first time they are certified, in a map
    of more than _MIN_SKIPPED_KEYS keys, _prune takes every later row of
    the map; a block that it does not certify whole scores its other rows
    on every key.
    """
    with np.errstate(all="ignore"):
        if screen.hot is not None and (screen.hot[lo:hi] >= 0).all():
            return screen.hot[lo:hi]
        mid = min(lo + _LEAD_ROWS, hi)
        lead, certified = _scored_on_every_key(screen, lo, mid, scale)
        if not certified.all():
            return None
        if screen.hot is None and mid < len(screen.q) and screen.kt32.shape[1] > _MIN_SKIPPED_KEYS:
            screen.hot = _prune(screen, mid, scale, lead)
            screen.hot[lo:mid] = lead
            if (screen.hot[lo:hi] >= 0).all():
                return screen.hot[lo:hi]
        rest, certified = _scored_on_every_key(screen, mid, hi, scale)
        return np.concatenate([lead, rest]) if certified.all() else None


# -- pairwise length-consistency matrix ------------------------------------
#
# sc(i, j) = max(0, 1 - (||ps_i - ps_j|| - ||pt_i - pt_j||)^2 / sigma^2)
#
# Values lie in [0, 1]; 1 means the pair preserves length exactly.
#
# Any block of rows is computed in chunks of rows whose two scratch arrays
# together fill one cache-sized chunk (see _CACHE_ENTRIES), whatever the
# block size. Every element goes through the same float operations in the
# same order whichever block or chunk it lands in, so a block, a single
# row and the full matrix agree bit for bit. Those operations give
# sc(i, j) and sc(j, i) the same bits, since (a - b)^2 == (b - a)^2, so
# each row block is computed only from its diagonal on, into a contiguous
# array (writing into a strided view of the matrix was about 45% slower).
# consistency_matrix copies each block in and mirrors the rest;
# consistency_triangle hands the blocks to the embedding's mix, which uses
# the triangle alone. The full matrix is the only N x N allocation in the
# package; it is refused before allocation when its 8 N^2 bytes exceed
# _ARRAY_BYTES_LIMIT (see check_array_bytes).

_ROW_BLOCK = 240                # rows per block, a multiple of _ROW_TILE
_ROW_TILE = 24
_MIN_BLOCK_PRODUCT = 1 << 21    # multiply-adds
_ARRAY_BYTES_LIMIT = 2 << 30    # 2 GiB, e.g. N <= 16384 for an N x N matrix


def check_array_bytes(what: str, value: int, nbytes: int) -> None:
    """Refuse the size ``value`` of ``what`` when the largest array it sizes
    takes ``nbytes`` > 2 GiB.

    Callers check before they allocate anything, so a size numpy could not
    even index (it raises ValueError there) is a ConfigurationError too.
    """
    if nbytes > _ARRAY_BYTES_LIMIT:
        raise ConfigurationError(
            f"{what} = {value} sizes an array of {nbytes} bytes, over the "
            f"{_ARRAY_BYTES_LIMIT >> 30} GiB limit of one array")


def row_blocks(n: int, row_cost: int = 0):
    """(lo, hi) bounds of consecutive row blocks covering n rows.

    ``row_cost`` is what one block row adds to a matrix product taken per
    block, in multiply-adds (inner dimension times output width). For the
    block product to round each element as the whole product does, BLAS
    must run it through the same kernel over the same row tiles. numpy
    sends a one-row product to gemv. OpenBLAS on AVX-512 CPUs sends
    products of at most 10^6 multiply-adds to small-matrix kernels, and
    rounds the output columns past the last multiple of 8 differently in a
    short row tile; OpenBLAS 0.3.31 on an AVX-512 Xeon tiles rows by 12,
    and _ROW_TILE is a multiple of that.

    So blocks start at multiples of _ROW_TILE rows and keep at least half
    a step of rows and _MIN_BLOCK_PRODUCT multiply-adds: the step grows
    past _ROW_BLOCK when rows are cheap, and a trailing block shorter than
    half a step joins the block before it.
    """
    step = _ROW_BLOCK
    if row_cost > 0:
        tiles = -(-2 * _MIN_BLOCK_PRODUCT // (_ROW_TILE * row_cost))
        step = max(step, _ROW_TILE * tiles)
    starts = list(range(0, n, step))
    if len(starts) > 1 and 2 * (n - starts[-1]) < step:
        starts.pop()
    return zip(starts, starts[1:] + [n])


def _difference_factors(pts: np.ndarray, rows, first: int) -> tuple[np.ndarray, np.ndarray]:
    """The factors whose product per axis is p_i - p_j, for i in ``rows`` and j >= ``first``.

    Returns ``left``, (3, rows, 2) rows [p_i, 1], and ``right``, (3, 2, width)
    rows [1; -p_j]: ``left[a] @ right[a]`` is ``np.subtract.outer`` on axis a.
    """
    left = np.ones((3, len(rows), 2))
    left[:, :, 0] = pts[rows].T
    right = np.ones((3, 2, len(pts) - first))
    np.negative(pts[first:].T, out=right[:, 1])
    return left, right


def _distance_rows(left: np.ndarray, right: np.ndarray, out: np.ndarray,
                   scratch: np.ndarray) -> np.ndarray:
    """||p_i - p_j|| for the rows of ``left`` and the columns of ``right``, written into ``out``.

    ``left`` and ``right`` are _difference_factors slices; each axis's
    differences are one BLAS product of inner dimension 2, at about a fifth
    of the cost of numpy's np.subtract.outer broadcast. Both of its terms,
    p_i * 1 and 1 * -p_j, are exact, so the sum's one rounding is the
    subtraction's, with or without FMA and at any BLAS thread count; only
    the sign of an exact zero may differ, and the square drops it
    (tests/test_kernels.py pins this on the installed BLAS).
    """
    np.matmul(left[0], right[0], out=out)
    out *= out
    for axis in (1, 2):
        np.matmul(left[axis], right[axis], out=scratch)
        scratch *= scratch
        out += scratch
    return np.sqrt(out, out=out)


def _consistency_block(src: np.ndarray, tgt: np.ndarray, sigma: float,
                       rows: np.ndarray, first: int, out: np.ndarray) -> np.ndarray:
    """sc(i, j) for i in ``rows`` and j >= ``first``, written into ``out``."""
    if not (0.0 < sigma < np.inf and sigma * sigma > 0.0):
        raise ConfigurationError(
            f"consistency_rows: sigma must be positive and finite with a nonzero square, got {sigma}")
    src_left, src_right = _difference_factors(np.asarray(src, dtype=np.float64), rows, first)
    tgt_left, tgt_right = _difference_factors(np.asarray(tgt, dtype=np.float64), rows, first)
    width = src_right.shape[2]
    step = _chunk_rows(2 * width)
    dt, scratch = np.empty((2, min(step, rows.size), width))
    for lo in range(0, rows.size, step):
        m = min(step, rows.size - lo)
        chunk = slice(lo, lo + m)
        gap = _distance_rows(src_left[:, chunk], src_right, out[chunk], scratch[:m])
        gap -= _distance_rows(tgt_left[:, chunk], tgt_right, dt[:m], scratch[:m])
        gap *= gap
        gap /= sigma * sigma
        np.subtract(1.0, gap, out=gap)
        np.maximum(0.0, gap, out=gap)
    return out


def consistency_rows(src: np.ndarray, tgt: np.ndarray, sigma: float,
                     lo, hi: int | None = None) -> np.ndarray:
    """Rows [lo, hi) of the consistency matrix, as a (hi - lo, N) block.

    With ``hi`` None, ``lo`` is an array of row indices instead, and the
    block holds those rows in that order.
    """
    rows = np.asarray(lo, dtype=np.int64) if hi is None else np.arange(lo, hi)
    return _consistency_block(src, tgt, sigma, rows, 0, np.empty((rows.size, len(src))))


def consistency_triangle(src: np.ndarray, tgt: np.ndarray, sigma: float, reuse: bool):
    """(lo, hi, block) per row block [lo, hi) of row_blocks(N): the consistency
    matrix's rows lo..hi from column lo on, as a contiguous (hi - lo, N - lo) array.

    With ``reuse`` every block is a view of one buffer, sized for the
    largest block, and the next block overwrites it.
    """
    n = len(src)
    bounds = list(row_blocks(n))
    buf = np.empty(max((hi - lo) * (n - lo) for lo, hi in bounds)) if reuse else None
    for lo, hi in bounds:
        shape = (hi - lo, n - lo)
        out = buf[:shape[0] * shape[1]].reshape(shape) if reuse else np.empty(shape)
        yield lo, hi, _consistency_block(src, tgt, sigma, np.arange(lo, hi), lo, out)


def consistency_matrix(src: np.ndarray, tgt: np.ndarray, sigma: float) -> np.ndarray:
    """Full N x N length-consistency matrix for a correspondence set.

    The row blocks run last to first, so the rows above a block are not
    written yet: each block is computed, contiguous, in their memory (the
    first block in its own rows), then copied into place and mirrored.
    A block after the first fits there. It starts at a row lo >= 240, and
    it is at most lo rows tall, or it is the last block, h x h with
    h <= 359 and 240 (240 + h) >= h^2. A block that did not fit would make
    the reshape raise, not overwrite rows.
    """
    n = len(src)
    check_array_bytes("consistency_matrix: N", n, 8 * n * n)
    m = np.empty((n, n))
    for lo, hi in reversed(list(row_blocks(n))):
        h = hi - lo
        block = m[:lo].reshape(-1)[:h * (n - lo)].reshape(h, n - lo) if lo else m[:hi]
        _consistency_block(src, tgt, sigma, np.arange(lo, hi), lo, block)
        if lo:
            m[lo:hi, lo:] = block
        m[hi:, lo:hi] = block[:, h:].T
    return m


def consistency_row(src: np.ndarray, tgt: np.ndarray, i: int, sigma: float) -> np.ndarray:
    """Single row of the consistency matrix."""
    return consistency_rows(src, tgt, sigma, i, i + 1)[0]


# -- stacked rigid fits, inlier tests and the RANSAC sample scan -------------
#
# rigid_fits is the one rotation solve: geometry's weighted fits and
# ransac_scan's triples both call it, m covariances at a time. numpy runs
# LAPACK and BLAS on a stack one matrix at a time, so each fit has the bits
# of the one-matrix calls (tests/test_geometry.py).
#
# squared_residuals scores m transforms at once, transform-major: one
# product ``[R_1; ...; R_m] @ src_t`` of (3m, 3) rotations and (3, N)
# sources into (m, 3, N); then the translations, the (3, N) targets and the
# squares added x, y, z in turn, the adds of (d * d).sum(axis=1), every pass
# over contiguous rows. Callers transpose the points once per call and take
# m from transforms_per_block: about _SCAN_BLOCK_ENTRIES entries (3 x N per
# transform), at most _MAX_STACK. So a product takes 9 m N <= 10^6
# multiply-adds, which OpenBLAS 0.3.31 on an AVX-512 Xeon runs in its
# one-thread small-matrix kernels, where each row keeps the one-transform
# bits at any BLAS thread count (tests/test_kernels.py). Past that bound
# the tiled kernels round some entries differently (N = 1999, m >= 56:
# columns 1992-1995).
#
# ransac_scan fits each row of ``samples`` (three distinct correspondence
# indices) and counts its strict inliers at ``delta``. It returns
# (best_iteration, best_count, rotation, translation): the winning sample
# and the very fit its count was scored with, so a caller starts from the
# transform that won. Ties keep the earliest iteration and degenerate
# triples never win; it returns (-1, -1, None, None) when every triple was
# degenerate (or there were no samples).

_SCAN_BLOCK_ENTRIES = 1 << 16
_MAX_STACK = 64


def transforms_per_block(n: int) -> int:
    """How many transforms squared_residuals should score at once for N pairs."""
    return max(1, min(_MAX_STACK, _SCAN_BLOCK_ENTRIES // (3 * max(n, 1))))


def rigid_fits(h: np.ndarray, mu_src: np.ndarray,
               mu_tgt: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rotations, translations, ok) fitted to (m, 3, 3) covariances and (m, 3) centroids.

    Rotations are proper; ``ok`` is False where the covariance is not
    finite, is rank-deficient (collinear or coincident support) or the
    alignment is singular. A non-finite covariance is solved as zeros: the
    SVD raises on NaN entries and may not return on infinite ones.
    """
    finite = np.isfinite(h).all(axis=(1, 2))
    if not finite.all():
        h = np.where(finite[:, None, None], h, 0.0)
    u, s, vt = np.linalg.svd(h)
    v, ut = vt.transpose(0, 2, 1), u.transpose(0, 2, 1)
    d = np.sign(np.linalg.det(v @ ut))
    v[:, :, 2] *= d[:, None]                            # reflection guard
    r = v @ ut
    t = mu_tgt - (r @ mu_src[:, :, None])[:, :, 0]
    return r, t, (s[:, 1] > 1e-9 * s[:, 0]) & (d != 0.0) & finite


def squared_residuals(src_t: np.ndarray, tgt_t: np.ndarray, rotations: np.ndarray,
                      translations: np.ndarray) -> np.ndarray:
    """(m, N) ||R_j src_i + t_j - tgt_i||^2 for (3, N) C-contiguous points,
    (m, 3, 3) rotations and (m, 3) translations."""
    m, n = rotations.shape[0], src_t.shape[1]
    res = (rotations.reshape(3 * m, 3) @ src_t).reshape(m, 3, n)
    res += translations[:, :, None]
    res -= tgt_t
    res *= res
    sq = res[:, 0] + res[:, 1]
    sq += res[:, 2]
    return sq


def strict_inliers(src_t: np.ndarray, tgt_t: np.ndarray, rotations: np.ndarray,
                   translations: np.ndarray, delta: float) -> np.ndarray:
    """(m, N) mask: ||R_j src_i + t_j - tgt_i||^2 < delta^2, as squared_residuals."""
    return squared_residuals(src_t, tgt_t, rotations, translations) < delta * delta


def ransac_scan(src: np.ndarray, tgt: np.ndarray, samples: np.ndarray,
                delta: float) -> tuple[int, int, np.ndarray | None, np.ndarray | None]:
    """Score every minimal sample; return (best_iteration, best_count, rotation, translation)."""
    src = np.ascontiguousarray(src, dtype=np.float64)
    tgt = np.ascontiguousarray(tgt, dtype=np.float64)
    src_t, tgt_t = np.ascontiguousarray(src.T), np.ascontiguousarray(tgt.T)
    samples = np.ascontiguousarray(samples, dtype=np.int64)
    step = transforms_per_block(src.shape[0])
    best = (-1, -1, None, None)
    for lo in range(0, samples.shape[0], step):
        idx = samples[lo:lo + step]
        a, b = src[idx], tgt[idx]                       # (m, 3, 3)
        ca = (a[:, 0] + a[:, 1] + a[:, 2]) / 3.0        # a.mean(axis=1), bit for bit
        cb = (b[:, 0] + b[:, 1] + b[:, 2]) / 3.0
        with np.errstate(over="ignore"):                 # rigid_fits flags what overflows
            h = (a - ca[:, None]).transpose(0, 2, 1) @ (b - cb[:, None])
        r, t, ok = rigid_fits(h, ca, cb)
        counts = strict_inliers(src_t, tgt_t, r, t, delta).sum(axis=1)
        counts[~ok] = -1
        j = int(np.argmax(counts))
        if counts[j] > best[1]:
            best = (lo + j, int(counts[j]), r[j], t[j])
    return best
