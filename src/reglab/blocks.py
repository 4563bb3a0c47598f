"""Inlier-scoring network for putative correspondences.

The forward pipeline, all built on the autodiff Tensor:

1. contextual embedding: lift each pair (p_s, p_t) to d channels and mix
   rows through the length-consistency matrix,
2. orthogonal integration: split features into the component parallel to
   a pooled global descriptor and the residual orthogonal to it,
3. gestalt attention: correspondence-level and channel-level attention
   maps exchanged through cross attention,
4. multi-granularity mixing: channel-pyramid aggregation of the two
   attention outputs,
5. classification head: per-pair inlier probability.

Every block can be ablated to an identity pass-through, which keeps the
surrounding pipeline runnable for ablation studies. All math is float64;
forwards are deterministic for a fixed parameter seed.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from . import kernels
from .autodiff import Tensor, concat_cols, no_grad, recording
from .errors import ConfigurationError, DegenerateInputError
from .geometry import CorrespondenceSet
from .nn import BatchNorm, InstanceNorm, Linear, named_parts
from .nn import assign_state, load_parameters, save_parameters

POOLED_NORM_FLOOR = 1e-12  # below this, projection onto the pooled vector is a zero map

# The blocks' fixed rules: OI's bottleneck is d / 4 wide, DMG ends in a two-group channel
# shuffle, the embedding's consistency scale is 0.10 m, and DMG's top-down pass runs levels
# T-1..1. A parameter file's config names each, and must hold exactly this value.
BOTTLENECK_RATIO = 4
SHUFFLE_GROUPS = 2
SC_SIGMA = 0.10
FIXED_CONFIG = {"bottleneck_ratio": BOTTLENECK_RATIO, "shuffle_groups": SHUFFLE_GROUPS,
                "sc_sigma": SC_SIGMA, "top_down_include_finest": False}


@dataclass(frozen=True)
class ModelConfig:
    channels: int = 32          # feature width d
    granularities: int = 3      # pyramid depth T (levels 0..T)

    def __post_init__(self):
        for name, value in asdict(self).items():
            if type(value) is not int:
                raise ConfigurationError(f"model config field {name!r} must be an int, got {value!r}")
        d, t = self.channels, self.granularities
        if t < 1:
            raise ConfigurationError(f"ModelConfig: granularities must be >= 1, got {t}")
        if d < 2 or t >= d.bit_length() or d % (2 ** t) != 0:  # 2^t > d: not divisible
            raise ConfigurationError(
                f"ModelConfig: channels {d} not divisible by 2^granularities = 2^{t}"
            )
        kernels.check_array_bytes("ModelConfig: channels", d, 8 * d * d)  # one d x d weight
        if d % BOTTLENECK_RATIO != 0:  # OI's bottleneck would be 0 wide or truncated
            raise ConfigurationError(
                f"ModelConfig: channels {d} not divisible by bottleneck_ratio {BOTTLENECK_RATIO}")

    def to_dict(self) -> dict:
        return {**asdict(self), **FIXED_CONFIG}

    @staticmethod
    def from_dict(doc: dict) -> "ModelConfig":
        """The config a JSON object holds: known fields of their type, fixed rules at their value."""
        if not isinstance(doc, dict):
            raise ConfigurationError(f"model config must be an object, got {doc!r}")
        for key, value in doc.items():
            if key in FIXED_CONFIG:
                fixed = FIXED_CONFIG[key]
                if type(value) is not type(fixed) or value != fixed:
                    raise ConfigurationError(
                        f"model config field {key!r} is fixed at {fixed!r}, got {value!r}")
            elif key not in ModelConfig.__dataclass_fields__:
                raise ConfigurationError(f"model config has unknown field {key!r}")
        return ModelConfig(**{key: value for key, value in doc.items() if key not in FIXED_CONFIG})


@dataclass(frozen=True)
class Ablation:
    """True disables the named block (identity pass-through)."""

    oi: bool = False
    gfa: bool = False
    dmg: bool = False

    BLOCKS = ("oi", "gfa", "dmg")

    @staticmethod
    def from_names(names) -> "Ablation":
        names = list(names)
        bad = sorted(set(names) - set(Ablation.BLOCKS))
        if bad:
            raise ConfigurationError(
                f"unknown ablation flags {bad}, expected subset of {Ablation.BLOCKS}"
            )
        return Ablation(**{b: b in names for b in Ablation.BLOCKS})

    def disabled(self) -> tuple[str, ...]:
        return tuple(b for b in self.BLOCKS if getattr(self, b))

    def tag(self) -> str:
        off = self.disabled()
        return "full" if not off else "no_" + "_".join(off)


def pyramid_widths(channels: int, granularities: int) -> list[int]:
    """Channel widths of pyramid levels 0..T: d, d/2, ..., d/2^T."""
    return [channels // (2 ** t) for t in range(granularities + 1)]


def fused_width(channels: int, granularities: int) -> int:
    """Width of the pre-fusion concatenation: d * (2 - 2^-T)."""
    return sum(pyramid_widths(channels, granularities))


def halving_pool_matrix(width: int) -> np.ndarray:
    """Constant (width, width/2) matrix averaging adjacent channel pairs."""
    half = width // 2
    p = np.zeros((width, half))
    for j in range(half):
        p[2 * j, j] = 0.5
        p[2 * j + 1, j] = 0.5
    return p


class ContextualEmbedding:
    """(p_s, p_t) 6-vectors -> d channels, mixed by length consistency.

    After the two linear lifts, each row is augmented with the
    consistency-weighted average of all rows: F <- F + SC F / N.
    """

    def __init__(self, cfg: ModelConfig, rng: np.random.Generator):
        d = cfg.channels
        self.lift = Linear(6, d, rng)
        self.norm = InstanceNorm()
        self.mix = Linear(d, d, rng)

    def __call__(self, c: CorrespondenceSet) -> Tensor:
        n = len(c)
        if n < 4:
            raise DegenerateInputError(f"ContextualEmbedding: needs N >= 4, got {n}")
        raw = Tensor(np.concatenate([c.source, c.target], axis=1))
        feats = self.mix(self.norm(self.lift(raw)).relu())
        return feats + _consistency_mix(c, SC_SIGMA, feats) * (1.0 / n)


class OrthogonalIntegration:
    """Decompose features against a learned pooled descriptor.

    A per-row inlier weight (linear + sigmoid) pools the features into a
    global descriptor, a two-layer bottleneck refines it, every row is
    split into its projection onto the refined descriptor plus the
    orthogonal residual, and residual and descriptor are fused back with
    a skip connection.
    """

    def __init__(self, cfg: ModelConfig, rng: np.random.Generator):
        d = cfg.channels
        self.weigh = Linear(d, 1, rng)
        self.squeeze = Linear(d, d // BOTTLENECK_RATIO, rng)
        self.expand = Linear(d // BOTTLENECK_RATIO, d, rng)
        self.fuse = Linear(2 * d, d, rng)

    @staticmethod
    def project_onto(feats: Tensor, direction: Tensor) -> Tensor:
        """Row-wise projection of (N, d) features onto a (1, d) direction."""
        norm_sq = (direction * direction).sum()
        coef = feats.matmul(direction.T) / norm_sq           # (N, 1)
        return coef.matmul(direction)                        # (N, d)

    def decompose(self, feats: Tensor) -> dict:
        """Pooled descriptor, refined direction, and the row-wise split."""
        w = self.weigh(feats).sigmoid()                      # (N, 1)
        pooled = w.T.matmul(feats) / w.sum()                 # (1, d) weighted average
        refined = self.expand(self.squeeze(pooled).relu())   # (1, d)
        norm_sq = float((refined * refined).sum().value.reshape(()))
        degenerate = norm_sq < POOLED_NORM_FLOOR ** 2
        if degenerate:
            projection = Tensor(np.zeros(feats.shape))
        else:
            projection = self.project_onto(feats, refined)
        return {
            "weights": w,
            "pooled": pooled,
            "refined": refined,
            "projection": projection,
            "degenerate": degenerate,
        }

    def __call__(self, feats: Tensor) -> tuple[Tensor, dict]:
        n = feats.shape[0]
        parts = self.decompose(feats)
        residual = feats - parts["projection"]
        rows_of_refined = Tensor(np.ones((n, 1))).matmul(parts["refined"])
        out = self.fuse(concat_cols([residual, rows_of_refined])) + feats
        return out, {"pooled_vector_near_zero": parts["degenerate"]}


def _consistency_mix(c: CorrespondenceSet, sigma: float, feats: Tensor) -> Tensor:
    """SC @ feats for the (N, N) consistency matrix SC, from one triangle of SC.

    SC is symmetric, so row block [lo, hi) is computed only from its
    diagonal on, as an (h, N - lo) block B: its rows take B @ x[lo:], and
    the rows below take B[:, h:]^T @ x[lo:hi]. In one block that is the
    whole product SC @ x, bit for bit; across blocks each row adds the same
    terms in another order, so its bits are held to a tolerance instead
    (tests/register_gate.py). The blocks have row_blocks' default size: a
    row cost would keep each block's product rounding as the whole
    product does, which no longer matters here, and its larger blocks were
    slower at N = 400 and 450. The blocks are kept only when the product
    records a backward; SC is a symmetric constant, so the gradient of
    feats is the same triangle product on g.
    """
    keep = recording(feats)
    blocks = kernels.consistency_triangle(c.source, c.target, sigma, reuse=not keep)
    if keep:
        blocks = list(blocks)

    def triangle_product(x):
        out = np.empty(x.shape)
        for lo, hi, sc in blocks:
            below = sc[:, hi - lo:].T
            if lo == 0:  # written in place: a recorded mix's peak is its kept blocks
                np.matmul(sc, x, out=out[:hi])
                np.matmul(below, x[:hi], out=out[hi:])
            else:
                out[lo:hi] += sc @ x[lo:]
                out[hi:] += below @ x[lo:hi]
        return out

    return Tensor._make(triangle_product(feats.value), (feats,), lambda g: (triangle_product(g),))


def _attend(q: Tensor, k: Tensor, v: Tensor, scale: float | None = None) -> Tensor:
    """softmax_rows(q k^T [* scale]) v, one block of query rows at a time.

    The map is never stored. When kernels.screen_operands engages, the
    forward first scores each block in float32, and a block whose rows
    kernels.certified_columns certifies as one-live is gathered as
    attend_rows would gather it, with no float64 product. Every other
    block's unscaled float64 scores and the scale go to
    kernels.attend_rows, which scales only a block that it cannot gather.
    The backward scores the block again in float64, recomputes its softmax
    P and takes the block's share of every gradient:
    dV += P^T g, dS = P * (dP - rowsum(dP * P)) with dP = g V^T, then
    dQ = dS K and dK^T += Q^T dS (FlashAttention's backward; a whole key
    row fits in the block, so no online rescaling). Softmax is per row,
    so every block sees the float operations of the whole map.
    """
    kt = np.ascontiguousarray(k.value.T)
    blocks = list(kernels.row_blocks(q.shape[0], k.shape[0] * min(q.shape[1], v.shape[1])))

    def scores(lo, hi):
        s = q.value[lo:hi] @ kt
        if scale is not None:
            s *= scale
        return s

    out = np.empty((q.shape[0], v.shape[1]))
    screen = kernels.screen_operands(q.value, kt, v.value, scale, blocks[0][1] if blocks else 0)
    for lo, hi in blocks:
        hot = screen and kernels.certified_columns(screen, lo, hi, scale)
        if hot is None:
            out[lo:hi] = kernels.attend_rows(q.value[lo:hi] @ kt, v.value, scale)
        else:
            out[lo:hi] = v.value[hot] + 0.0

    def backward(g):
        dq = np.empty(q.shape)
        for lo, hi in blocks:
            p = kernels.softmax_rows(scores(lo, hi))
            ds = g[lo:hi] @ v.value.T                         # dP, then dS in place
            ds -= (ds * p).sum(axis=1, keepdims=True)
            ds *= p
            if scale is not None:
                ds *= scale
            dq[lo:hi] = ds @ kt.T
            if lo == 0:
                dv, dkt = p.T @ g[lo:hi], q.value[lo:hi].T @ ds
            else:
                dv += p.T @ g[lo:hi]
                dkt += q.value[lo:hi].T @ ds
        # Tensor.backward adds v's share before k's, as the graph formula does: the
        # order decides the bits of a tensor passed as both (GFA's cross attention)
        return dq, dkt.T, dv

    return Tensor._make(out, (q, k, v), backward)


class GestaltAttention:
    """Row-level and channel-level self attention plus cross exchange.

    The two self-attention maps are unscaled; the cross attention between
    their outputs uses the standard 1/sqrt(d) scaling. Each attention
    output passes through its own pointwise linear layer and adds a skip
    from its query-side input.
    """

    def __init__(self, cfg: ModelConfig, rng: np.random.Generator):
        d = cfg.channels
        self.d = d
        self.to_query = Linear(d, d, rng)
        self.to_key = Linear(d, d, rng)
        self.to_value = Linear(d, d, rng)
        self.pw_rows = Linear(d, d, rng)
        self.pw_channels = Linear(d, d, rng)
        self.pw_cross_rows = Linear(d, d, rng)
        self.pw_cross_channels = Linear(d, d, rng)

    def __call__(self, feats: Tensor) -> tuple[Tensor, Tensor]:
        q = self.to_query(feats)
        k = self.to_key(feats)
        v = self.to_value(feats)

        at_rows = self.pw_rows(_attend(q, k, v)) + feats

        at_channels = self.pw_channels(_attend(q.T, k.T, v.T).T) + feats   # a (d, d) map

        scale = 1.0 / np.sqrt(self.d)
        out_rows = self.pw_cross_rows(_attend(at_rows, at_channels, at_channels, scale)) + at_rows
        out_channels = (self.pw_cross_channels(_attend(at_channels, at_rows, at_rows, scale))
                        + at_channels)
        return out_rows, out_channels


class MixUnit:
    """InstanceNorm -> BatchNorm -> ReLU -> pointwise linear."""

    def __init__(self, w_in: int, w_out: int, rng: np.random.Generator):
        self.inorm = InstanceNorm()
        self.bnorm = BatchNorm(w_in)
        self.lin = Linear(w_in, w_out, rng)

    def __call__(self, x: Tensor, mode: str) -> Tensor:
        return self.lin(self.bnorm(self.inorm(x), mode).relu())


class MultiGranularityMixer:
    """Channel-pyramid aggregation of the two attention outputs.

    Level t of a pyramid averages disjoint groups of 2^t adjacent
    channels (widths d/2^t for t = 0..T). The first pyramid is refined
    bottom-up (t = 1..T, each level reads the already-updated finer
    neighbor), the second top-down (t = T-1..1, reading the
    already-updated coarser neighbor; levels T and 0 stay as pooled).
    Matching levels are summed, concatenated (width d * (2 - 2^-T)) and
    fused back to d channels, ending in a channel shuffle.
    """

    def __init__(self, cfg: ModelConfig, rng: np.random.Generator):
        d, t_max = cfg.channels, cfg.granularities
        self.t_max = t_max
        widths = pyramid_widths(d, t_max)
        self.pools = [Tensor(halving_pool_matrix(w)) for w in widths[:-1]]
        self.bottom_up = {t: MixUnit(widths[t - 1], widths[t], rng) for t in range(1, t_max + 1)}
        self.top_down = {t: MixUnit(widths[t + 1], widths[t], rng) for t in range(t_max - 1, 0, -1)}
        self.fusion = MixUnit(fused_width(d, t_max), d, rng)

    def build_pyramid(self, feats: Tensor) -> list[Tensor]:
        levels = [feats]
        for pool in self.pools:
            levels.append(levels[-1].matmul(pool))
        return levels

    def __call__(self, fine: Tensor, coarse_src: Tensor, mode: str) -> Tensor:
        f = self.build_pyramid(fine)
        g = self.build_pyramid(coarse_src)
        for t in range(1, self.t_max + 1):
            f[t] = f[t] + self.bottom_up[t](f[t - 1], mode)
        for t, unit in self.top_down.items():  # coarsest first
            g[t] = g[t] + unit(g[t + 1], mode)
        stacked = concat_cols([f[t] + g[t] for t in range(self.t_max + 1)])
        fusedv = self.fusion(stacked, mode)
        return fusedv.channel_shuffle(SHUFFLE_GROUPS)


class ClassificationHead:
    """Linear d -> 1 plus sigmoid: per-correspondence inlier probability."""

    def __init__(self, cfg: ModelConfig, rng: np.random.Generator):
        self.lin = Linear(cfg.channels, 1, rng)

    def __call__(self, feats: Tensor) -> Tensor:
        return self.lin(feats).sigmoid()


class GPINet:
    """Full correspondence classifier; see the module docstring."""

    def __init__(self, config: ModelConfig | None = None, seed: int = 0):
        self.config = config or ModelConfig()
        rng = np.random.Generator(np.random.PCG64(seed))
        self.embedding = ContextualEmbedding(self.config, rng)
        self.oi = OrthogonalIntegration(self.config, rng)
        self.gfa = GestaltAttention(self.config, rng)
        self.dmg = MultiGranularityMixer(self.config, rng)
        self.head = ClassificationHead(self.config, rng)

    def forward(
        self,
        c: CorrespondenceSet,
        ablation: Ablation = Ablation(),
        mode: str = "frozen",
    ) -> tuple[Tensor, dict]:
        """Probabilities as an (N, 1) Tensor plus diagnostics.

        ``mode`` controls batch-norm statistics: "train" updates running
        stats, "frozen" (default) normalizes from the current set without
        touching them, "eval" requires populated running stats.
        """
        diagnostics: dict = {"ablation": ablation.tag()}
        feats = self.embedding(c)
        if ablation.oi:
            integrated = feats
        else:
            integrated, oi_diag = self.oi(feats)
            diagnostics.update(oi_diag)
        if ablation.gfa:
            at_rows, at_channels = integrated, integrated
        else:
            at_rows, at_channels = self.gfa(integrated)
        if ablation.dmg:
            # A two-input identity: keep the row-attention path.
            fusedv = at_rows
        else:
            fusedv = self.dmg(at_rows, at_channels, mode)
            diagnostics["concat_width"] = self.dmg.fusion.bnorm.width
        probs = self.head(fusedv)
        return probs, diagnostics

    def predict(self, c: CorrespondenceSet, ablation: Ablation = Ablation()) -> np.ndarray:
        """Inference-only probabilities as a flat (N,) array."""
        with no_grad():
            probs, _ = self.forward(c, ablation, mode="frozen")
        return probs.value.ravel().copy()

    # -- parameter plumbing -------------------------------------------------

    def parameters(self) -> dict[str, Tensor]:
        return {name: part for name, part in named_parts(self) if isinstance(part, Tensor)}

    def save(self, path) -> None:
        save_parameters(path, self, self.config.to_dict())

    @staticmethod
    def load(path) -> "GPINet":
        config_doc, arrays = load_parameters(path)
        try:
            config = ModelConfig.from_dict({} if config_doc is None else config_doc)
        except ConfigurationError as exc:
            raise ConfigurationError(f"{path}: {exc}") from exc
        model = GPINet(config, seed=0)
        assign_state(model, arrays, path)
        return model


def bce_loss(probs: Tensor, labels: np.ndarray) -> Tensor:
    """Mean binary cross entropy between (N, 1) probabilities and labels."""
    y = Tensor(np.asarray(labels, dtype=np.float64).reshape(-1, 1))
    p = probs.clip(1e-12, 1.0 - 1e-12)
    return -(y * p.log() + (1.0 - y) * (1.0 - p).log()).mean()
