"""Model blocks: widths, orthogonality, equivariance, wiring oracles."""

import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import graph_reference
from conftest import make_rng, random_correspondences, smallest_sigma_with_nonzero_square
from reglab.autodiff import Tensor, no_grad
from reglab.blocks import (
    Ablation,
    ClassificationHead,
    ContextualEmbedding,
    GestaltAttention,
    GPINet,
    MixUnit,
    ModelConfig,
    MultiGranularityMixer,
    OrthogonalIntegration,
    bce_loss,
    fused_width,
    halving_pool_matrix,
    _attend,
    _consistency_mix,
    pyramid_widths,
)
from reglab.errors import (
    ConfigurationError,
    DegenerateInputError,
)
from reglab.geometry import CorrespondenceSet
from reglab.kernels import row_blocks
from reglab.nn import BatchNorm, InstanceNorm, Linear, load_parameters, named_parts, sgd_step
from reglab.synth import SceneConfig, generate

EPS = 1e-5  # normalization epsilon shared by every layer
BENCH_PARAMS = Path(__file__).resolve().parents[1] / "bench" / "model" / "params.json"


def linear_np(layer: Linear, x: np.ndarray) -> np.ndarray:
    return x @ layer.weight.value + layer.bias.value


def softmax_np(x: np.ndarray) -> np.ndarray:
    z = np.exp(x - x.max(axis=1, keepdims=True))
    return z / z.sum(axis=1, keepdims=True)


def sigmoid_np(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def inorm_np(x: np.ndarray) -> np.ndarray:
    mu = x.mean(axis=0)
    var = ((x - mu) ** 2).mean(axis=0)
    return (x - mu) / np.sqrt(var + EPS)


def consistency_np(src: np.ndarray, tgt: np.ndarray, sigma: float) -> np.ndarray:
    ds = np.linalg.norm(src[:, None, :] - src[None, :, :], axis=2)
    dt = np.linalg.norm(tgt[:, None, :] - tgt[None, :, :], axis=2)
    return np.maximum(0.0, 1.0 - (ds - dt) ** 2 / sigma**2)


# -- configuration -------------------------------------------------------------


def test_model_config_validation():
    ModelConfig(channels=32, granularities=3)  # the default shape works
    with pytest.raises(ConfigurationError):
        ModelConfig(granularities=0)
    with pytest.raises(ConfigurationError):
        ModelConfig(channels=12, granularities=3)  # 12 not divisible by 8
    ModelConfig(channels=32, granularities=5)  # 2^5 divides 32
    for t in (6, 10 ** 6):  # 2^t > 32; the check does not compute 2^t
        with pytest.raises(ConfigurationError, match=f"2\\^granularities = 2\\^{t}$"):
            ModelConfig(channels=32, granularities=t)
    ModelConfig(channels=4, granularities=1)  # the narrowest: a bottleneck 1 wide
    for d in (2, 6, 34):  # 2^1 divides each, the bottleneck ratio 4 does not
        with pytest.raises(ConfigurationError, match="bottleneck_ratio 4$"):
            ModelConfig(channels=d, granularities=1)
    with pytest.raises(ConfigurationError):
        ModelConfig(channels=1, granularities=1)


def test_model_config_round_trip():
    cfg = ModelConfig(channels=16, granularities=2)
    assert ModelConfig.from_dict(cfg.to_dict()) == cfg
    assert ModelConfig.from_dict({"channels": 16, "granularities": 2}) == cfg  # fixed keys left out


@pytest.mark.parametrize("sigma", [float("nan"), float("inf"), -float("inf")])
def test_model_config_rejects_non_finite_sc_sigma(sigma):
    with pytest.raises(ConfigurationError, match="sc_sigma"):
        ModelConfig.from_dict({"sc_sigma": sigma})


@pytest.mark.parametrize("field, value", [
    ("bottleneck_ratio", 0), ("bottleneck_ratio", -4), ("bottleneck_ratio", 5),
    ("bottleneck_ratio", 4.0), ("bottleneck_ratio", True),
    ("shuffle_groups", -2), ("shuffle_groups", 3), ("shuffle_groups", 2.0),
    ("sc_sigma", 0.25), ("sc_sigma", 0.0), ("sc_sigma", 1), ("sc_sigma", -0.1),
    ("sc_sigma", smallest_sigma_with_nonzero_square()),
    ("sc_sigma", float(np.nextafter(0.1, 0.0))), ("sc_sigma", float(np.nextafter(0.1, 1.0))),
    ("top_down_include_finest", True), ("top_down_include_finest", 0),
    ("top_down_include_finest", None),
])
def test_model_config_from_dict_holds_fixed_fields_to_their_values(field, value):
    """bottleneck_ratio, shuffle_groups, sc_sigma and top_down_include_finest are
    the blocks' fixed rules: a config may name one only at its value and type."""
    with pytest.raises(ConfigurationError, match=f"{field}' is fixed at"):
        ModelConfig.from_dict({field: value})


@pytest.mark.parametrize("doc, field", [
    ({"bogus": 1}, "bogus"),
    ({"channels": "32"}, "channels"),
    ({"channels": 32.0}, "channels"),
    ({"channels": True}, "channels"),
    ({"sc_sigma": "0.1"}, "sc_sigma"),
    ({"sc_sigma": None}, "sc_sigma"),
    ({"top_down_include_finest": 1}, "top_down_include_finest"),
    ([["channels", 32]], "object"),
], ids=["unknown", "str_int", "float_int", "bool_int", "str_float", "none_float", "int_bool",
        "list"])
def test_model_config_from_dict_rejects_unknown_and_mistyped_fields(doc, field):
    with pytest.raises(ConfigurationError, match=field):
        ModelConfig.from_dict(doc)


@pytest.mark.parametrize("value", ["32", 32.0], ids=["str", "float"])
def test_model_config_checks_field_types_when_built_directly(value):
    with pytest.raises(ConfigurationError, match="channels"):
        ModelConfig(channels=value)


def test_bench_model_file_holds_the_default_config():
    """The bench model's config is ModelConfig()'s, all six keys: the file format
    kept the four fixed rules' keys at their values."""
    doc = json.loads(BENCH_PARAMS.read_text())["config"]
    assert ModelConfig.from_dict(doc) == ModelConfig()
    assert ModelConfig().to_dict() == doc
    assert {k: type(v) for k, v in doc.items()} == {
        k: type(v) for k, v in ModelConfig().to_dict().items()}  # 4 == 4.0, False == 0


def test_ablation_parsing_and_tags():
    assert Ablation.from_names([]) == Ablation()
    assert Ablation.from_names(["gfa"]).disabled() == ("gfa",)
    assert Ablation().tag() == "full"
    assert Ablation(oi=True).tag() == "no_oi"
    assert Ablation(oi=True, gfa=True, dmg=True).tag() == "no_oi_gfa_dmg"
    with pytest.raises(ConfigurationError):
        Ablation.from_names(["oi", "bogus"])


# -- widths and pooling ---------------------------------------------------------


def test_pyramid_widths_follow_halving():
    assert pyramid_widths(32, 3) == [32, 16, 8, 4]
    assert pyramid_widths(8, 1) == [8, 4]
    for d in (8, 16, 32, 64, 128):
        widths = pyramid_widths(d, 3)
        assert widths == [d // 2**t for t in range(4)]
        assert fused_width(d, 3) == sum(widths) == 15 * d // 8


def test_halving_pool_matrix_averages_adjacent_pairs():
    rng = make_rng(0)
    x = rng.normal(size=(5, 6))
    pooled = x @ halving_pool_matrix(6)
    assert pooled.shape == (5, 3)
    for j in range(3):
        np.testing.assert_allclose(pooled[:, j], (x[:, 2 * j] + x[:, 2 * j + 1]) / 2.0)


# -- nn layers ------------------------------------------------------------------


def test_linear_initialization_and_forward():
    rng = make_rng(1)
    lin = Linear(50, 80, rng)
    assert lin.bias.value.tolist() == [[0.0] * 80]
    std = lin.weight.value.std()
    assert abs(std - np.sqrt(2.0 / 50)) / np.sqrt(2.0 / 50) < 0.10
    x = rng.normal(size=(4, 50))
    np.testing.assert_allclose(lin(Tensor(x)).value, x @ lin.weight.value, atol=1e-14)


def test_instance_norm_layer_matches_oracle_and_rejects_single_row():
    rng = make_rng(2)
    x = rng.normal(size=(6, 4)) * 3.0 + 1.0
    got = InstanceNorm()(Tensor(x)).value
    np.testing.assert_allclose(got, inorm_np(x), atol=1e-12)
    with pytest.raises(DegenerateInputError):
        InstanceNorm()(Tensor(np.ones((1, 4))))


def test_batch_norm_layer_modes():
    rng = make_rng(3)
    bn = BatchNorm(4)
    x = rng.normal(size=(8, 4)) * 2.0 + 5.0

    frozen = bn(Tensor(x), "frozen").value
    np.testing.assert_allclose(frozen, inorm_np(x), atol=1e-12)  # unit scale, zero shift
    assert bn.running_mean is None  # frozen never touches the stats

    bn(Tensor(x), "train")
    np.testing.assert_allclose(bn.running_mean.ravel(), x.mean(axis=0), atol=1e-12)
    np.testing.assert_allclose(bn.running_var.ravel(), x.var(axis=0, ddof=1), atol=1e-12)

    y = rng.normal(size=(8, 4))
    old_mean = bn.running_mean.copy()
    old_var = bn.running_var.copy()
    bn(Tensor(y), "train")
    np.testing.assert_allclose(
        bn.running_mean, 0.9 * old_mean + 0.1 * y.mean(axis=0), atol=1e-12
    )
    np.testing.assert_allclose(
        bn.running_var, 0.9 * old_var + 0.1 * y.var(axis=0, ddof=1), atol=1e-12
    )

    # no mode reads the statistics: train normalizes as frozen does
    np.testing.assert_array_equal(bn(Tensor(x), "train").value, frozen)

    for mode in ("training", "eval"):
        with pytest.raises(ConfigurationError):
            bn(Tensor(x), mode)


def test_named_parts_and_sgd_step():
    rng = make_rng(4)
    lin = Linear(3, 2, rng)
    flat = dict(named_parts(lin, "layer."))
    assert set(flat) == {"layer.weight", "layer.bias"}
    assert flat["layer.weight"] is lin.weight
    # sub-layers by attribute path, dict entries as attr_key; lists, arrays,
    # numbers and constant Tensors are not parts
    holder = SimpleNamespace(
        units={1: MixUnit(4, 2, rng)}, norm=InstanceNorm(), width=4, shape=np.ones(2),
        pools=[Tensor(np.ones((2, 2)), requires_grad=True)], constant=Tensor(np.ones((1, 1))))
    parts = dict(named_parts(holder))
    unit = holder.units[1]
    assert parts == {"units_1": unit, "units_1.inorm": unit.inorm, "units_1.bnorm": unit.bnorm,
                     "units_1.bnorm.scale": unit.bnorm.scale,
                     "units_1.bnorm.shift": unit.bnorm.shift, "units_1.lin": unit.lin,
                     "units_1.lin.weight": unit.lin.weight, "units_1.lin.bias": unit.lin.bias,
                     "norm": holder.norm}
    before = lin.weight.value.copy()
    loss = (lin(Tensor(np.ones((2, 3)))) * 2.0).sum()
    loss.backward()
    sgd_step(flat, lr=0.5)
    assert lin.weight.grad is None
    assert not np.array_equal(lin.weight.value, before)


# -- contextual embedding --------------------------------------------------------


def test_embedding_requires_four_rows():
    cfg = ModelConfig(channels=8, granularities=1)
    emb = ContextualEmbedding(cfg, make_rng(5))
    tiny = CorrespondenceSet(np.zeros((3, 3)), np.zeros((3, 3)))
    with pytest.raises(DegenerateInputError):
        emb(tiny)


def test_embedding_matches_numpy_oracle():
    cfg = ModelConfig(channels=8, granularities=1)
    rng = make_rng(6)
    emb = ContextualEmbedding(cfg, rng)
    c, _ = random_correspondences(make_rng(7), n=12, noise=0.05)

    got = emb(c).value
    raw = np.concatenate([c.source, c.target], axis=1)
    mixed = linear_np(emb.mix, np.maximum(0.0, inorm_np(linear_np(emb.lift, raw))))
    sc = consistency_np(c.source, c.target, 0.10)  # the embedding's fixed scale, SC_SIGMA
    want = mixed + sc @ mixed / 12
    np.testing.assert_allclose(got, want, atol=1e-10)


def test_embedding_permutation_equivariance():
    cfg = ModelConfig(channels=16, granularities=2)
    emb = ContextualEmbedding(cfg, make_rng(8))
    c, _ = random_correspondences(make_rng(9), n=20, noise=0.1)
    perm = make_rng(10).permutation(20)
    shuffled = CorrespondenceSet(c.source[perm], c.target[perm])
    np.testing.assert_allclose(emb(shuffled).value, emb(c).value[perm], atol=1e-9)


# -- orthogonal integration -------------------------------------------------------


def test_projection_hand_example():
    feats = Tensor(np.array([[3.0, 4.0]]))
    direction = Tensor(np.array([[1.0, 0.0]]))
    proj = OrthogonalIntegration.project_onto(feats, direction)
    np.testing.assert_allclose(proj.value, [[3.0, 0.0]], atol=1e-15)
    np.testing.assert_allclose((feats - proj).value, [[0.0, 4.0]], atol=1e-15)


@pytest.mark.parametrize("seed", range(10))
def test_oi_orthogonality_and_idempotence(seed):
    rng = make_rng(seed + 200)
    d = int(rng.choice([8, 16, 32]))
    cfg = ModelConfig(channels=d, granularities=1)
    oi = OrthogonalIntegration(cfg, rng)
    feats = Tensor(rng.normal(size=(int(rng.integers(4, 30)), d)))

    parts = oi.decompose(feats)
    proj = parts["projection"].value
    resid = feats.value - proj
    for p in range(feats.shape[0]):
        bound = 1e-9 * np.linalg.norm(feats.value[p]) * np.linalg.norm(proj[p])
        assert abs(resid[p] @ proj[p]) <= max(bound, 1e-15)

    if parts["degenerate"]:
        # relu wiped the bottleneck (zero-init biases make this reachable);
        # the projection must be the zero map
        np.testing.assert_array_equal(proj, np.zeros(feats.shape))
    else:
        again = OrthogonalIntegration.project_onto(parts["projection"], parts["refined"])
        np.testing.assert_allclose(again.value, proj, atol=1e-9)


def test_oi_pooled_descriptor_matches_recompute():
    rng = make_rng(11)
    cfg = ModelConfig(channels=8, granularities=1)
    oi = OrthogonalIntegration(cfg, rng)
    f = rng.normal(size=(9, 8))
    parts = oi.decompose(Tensor(f))
    w = sigmoid_np(linear_np(oi.weigh, f))
    np.testing.assert_allclose(parts["weights"].value, w, atol=1e-12)
    np.testing.assert_allclose(parts["pooled"].value, w.T @ f / w.sum(), atol=1e-12)


def test_oi_full_output_matches_numpy_oracle():
    rng = make_rng(12)
    cfg = ModelConfig(channels=8, granularities=1)
    oi = OrthogonalIntegration(cfg, rng)
    f = rng.normal(size=(7, 8))
    out, diag = oi(Tensor(f))
    assert diag == {"pooled_vector_near_zero": False}

    w = sigmoid_np(linear_np(oi.weigh, f))
    pooled = w.T @ f / w.sum()
    refined = linear_np(oi.expand, np.maximum(0.0, linear_np(oi.squeeze, pooled)))
    proj = (f @ refined.T / (refined**2).sum()) @ refined
    rows_ref = np.ones((7, 1)) @ refined
    want = linear_np(oi.fuse, np.concatenate([f - proj, rows_ref], axis=1)) + f
    np.testing.assert_allclose(out.value, want, atol=1e-10)


def test_oi_zero_direction_falls_back_to_zero_projection():
    rng = make_rng(13)
    cfg = ModelConfig(channels=8, granularities=1)
    oi = OrthogonalIntegration(cfg, rng)
    oi.expand.weight.value[:] = 0.0
    oi.expand.bias.value[:] = 0.0
    f = rng.normal(size=(6, 8))
    out, diag = oi(Tensor(f))
    assert diag["pooled_vector_near_zero"] is True
    assert np.all(np.isfinite(out.value))
    want = linear_np(oi.fuse, np.concatenate([f, np.zeros((6, 8))], axis=1)) + f
    np.testing.assert_allclose(out.value, want, atol=1e-12)


# -- gestalt attention -------------------------------------------------------------


def test_gfa_matches_numpy_oracle():
    rng = make_rng(14)
    cfg = ModelConfig(channels=8, granularities=1)
    gfa = GestaltAttention(cfg, rng)
    f = rng.normal(size=(6, 8))
    out_rows, out_channels = gfa(Tensor(f))

    q = linear_np(gfa.to_query, f)
    k = linear_np(gfa.to_key, f)
    v = linear_np(gfa.to_value, f)
    at_rows = linear_np(gfa.pw_rows, softmax_np(q @ k.T) @ v) + f
    at_channels = linear_np(gfa.pw_channels, (softmax_np(q.T @ k) @ v.T).T) + f
    scale = 1.0 / np.sqrt(8.0)
    want_rows = (
        linear_np(gfa.pw_cross_rows, softmax_np(at_rows @ at_channels.T * scale) @ at_channels)
        + at_rows
    )
    want_channels = (
        linear_np(gfa.pw_cross_channels, softmax_np(at_channels @ at_rows.T * scale) @ at_rows)
        + at_channels
    )
    np.testing.assert_allclose(out_rows.value, want_rows, atol=1e-10)
    np.testing.assert_allclose(out_channels.value, want_channels, atol=1e-10)


@pytest.mark.parametrize("seed", range(5))
def test_gfa_permutation_equivariance(seed):
    rng = make_rng(seed + 300)
    cfg = ModelConfig(channels=16, granularities=2)
    gfa = GestaltAttention(cfg, rng)
    f = rng.normal(size=(14, 16))
    perm = rng.permutation(14)
    rows, channels = gfa(Tensor(f))
    rows_p, channels_p = gfa(Tensor(f[perm]))
    np.testing.assert_allclose(rows_p.value, rows.value[perm], atol=1e-9)
    np.testing.assert_allclose(channels_p.value, channels.value[perm], atol=1e-9)


def test_gfa_single_row_input():
    cfg = ModelConfig(channels=8, granularities=1)
    gfa = GestaltAttention(cfg, make_rng(15))
    rows, channels = gfa(Tensor(np.ones((1, 8))))
    assert rows.shape == (1, 8) and channels.shape == (1, 8)
    assert np.all(np.isfinite(rows.value)) and np.all(np.isfinite(channels.value))


# -- mix unit and multi-granularity mixer -------------------------------------------


def test_mix_unit_matches_composition_oracle():
    rng = make_rng(16)
    unit = MixUnit(6, 4, rng)
    x = rng.normal(size=(7, 6)) * 2.0 + 3.0
    got = unit(Tensor(x), "frozen").value
    want = linear_np(unit.lin, np.maximum(0.0, inorm_np(inorm_np(x))))
    np.testing.assert_allclose(got, want, atol=1e-10)
    assert unit.bnorm.running_mean is None
    unit(Tensor(x), "train")
    assert unit.bnorm.running_mean is not None


def test_mixer_concat_width_and_pyramid():
    rng = make_rng(17)
    cfg = ModelConfig(channels=32, granularities=3)
    mixer = MultiGranularityMixer(cfg, rng)
    f = rng.normal(size=(10, 32))
    out = mixer(Tensor(f), Tensor(f * 0.5), "frozen")
    assert out.shape == (10, 32)
    assert mixer.fusion.bnorm.width == fused_width(32, 3) == 60  # the concatenation's width

    levels = mixer.build_pyramid(Tensor(f))
    assert [lv.shape[1] for lv in levels] == pyramid_widths(32, 3)
    cur = f
    for lv, width in zip(levels[1:], (16, 8, 4)):
        cur = cur @ halving_pool_matrix(cur.shape[1])
        assert lv.shape[1] == width
        np.testing.assert_allclose(lv.value, cur, atol=1e-12)


def test_mixer_pyramid_preserves_constant_rows():
    rng = make_rng(18)
    cfg = ModelConfig(channels=16, granularities=2)
    mixer = MultiGranularityMixer(cfg, rng)
    f = np.full((5, 16), 2.5)
    for lv in mixer.build_pyramid(Tensor(f)):
        np.testing.assert_allclose(lv.value, 2.5, atol=1e-12)


def test_mixer_top_down_level_sets():
    mixer = MultiGranularityMixer(ModelConfig(channels=32, granularities=3), make_rng(19))
    assert list(mixer.top_down) == [2, 1]  # coarsest first; levels 3 and 0 have none
    assert list(mixer.bottom_up) == [1, 2, 3]
    one_level = MultiGranularityMixer(ModelConfig(channels=8, granularities=1), make_rng(19))
    assert one_level.top_down == {}


# -- full model ----------------------------------------------------------------------


def test_forward_shapes_probabilities_and_diagnostics():
    model = GPINet(ModelConfig(channels=16, granularities=2), seed=0)
    c, _ = random_correspondences(make_rng(20), n=15, noise=0.05)
    probs, diag = model.forward(c)
    assert probs.shape == (15, 1)
    assert np.all((probs.value > 0.0) & (probs.value < 1.0))
    assert diag["ablation"] == "full"
    assert diag["concat_width"] == fused_width(16, 2)
    assert diag["pooled_vector_near_zero"] is False


def test_fully_ablated_model_is_head_of_embedding():
    model = GPINet(ModelConfig(channels=16, granularities=2), seed=1)
    c, _ = random_correspondences(make_rng(21), n=12, noise=0.05)
    everything_off = Ablation(oi=True, gfa=True, dmg=True)
    probs, diag = model.forward(c, everything_off)
    assert diag["ablation"] == "no_oi_gfa_dmg"
    want = model.head(model.embedding(c)).value
    np.testing.assert_allclose(probs.value, want, atol=1e-12)


def test_predict_deterministic_across_instances():
    cfg = ModelConfig(channels=16, granularities=2)
    c, _ = random_correspondences(make_rng(22), n=10, noise=0.02)
    a = GPINet(cfg, seed=7).predict(c)
    b = GPINet(cfg, seed=7).predict(c)
    assert a.tobytes() == b.tobytes()
    assert a.tobytes() != GPINet(cfg, seed=8).predict(c).tobytes()


def test_save_load_round_trip(tmp_path):
    c, _ = random_correspondences(make_rng(23), n=11, noise=0.05)
    cfg = ModelConfig(channels=16, granularities=2)
    for trained in (False, True):
        model = GPINet(cfg, seed=3)
        if trained:
            model.forward(c, mode="train")  # populate the running statistics

        path = tmp_path / "params.json"
        model.save(path)
        clone = GPINet.load(path)
        assert clone.config == cfg
        assert clone.predict(c).tobytes() == model.predict(c).tobytes()
        norms = [(part, dict(named_parts(clone))[name]) for name, part in named_parts(model)
                 if isinstance(part, BatchNorm)]
        if trained:
            for bn, copy in norms:  # the statistics round-trip bit for bit
                assert copy.running_mean.tobytes() == bn.running_mean.tobytes()
                assert copy.running_var.tobytes() == bn.running_var.tobytes()
        else:
            # a never-trained model's file holds no statistics, and its clone has none
            assert set(load_parameters(path)[1]) == set(model.parameters())
            assert all(copy.running_mean is None and copy.running_var is None
                       for _, copy in norms)
        clone.save(tmp_path / "again.json")
        assert (tmp_path / "again.json").read_bytes() == path.read_bytes()

    # keys are attribute paths; the top-down unit at level 1 is the dict entry top_down_1
    units = ("bottom_up_1", "bottom_up_2", "top_down_1", "fusion")
    assert {name for name in model.parameters() if name.startswith("dmg.")} == {
        f"dmg.{unit}.{leaf}" for unit in units
        for leaf in ("bnorm.scale", "bnorm.shift", "lin.weight", "lin.bias")}
    assert {name for name, part in named_parts(model) if isinstance(part, BatchNorm)} == {
        f"dmg.{unit}.bnorm" for unit in units}
    assert set(load_parameters(path)[1]) == set(model.parameters()) | {
        f"dmg.{unit}.bnorm.{stat}" for unit in units for stat in ("running_mean", "running_var")}


@pytest.mark.parametrize("seed", range(100))
def test_forward_finite_over_many_seeds(seed):
    model = GPINet(ModelConfig(channels=8, granularities=1), seed=seed)
    c, _ = random_correspondences(make_rng(seed + 400), n=8, noise=0.1)
    probs, _ = model.forward(c)
    assert np.all(np.isfinite(probs.value))
    assert np.all((probs.value >= 0.0) & (probs.value <= 1.0))


def test_zeroed_head_outputs_half():
    model = GPINet(ModelConfig(channels=8, granularities=1), seed=5)
    model.head.lin.weight.value[:] = 0.0
    model.head.lin.bias.value[:] = 0.0
    c, _ = random_correspondences(make_rng(25), n=6, noise=0.05)
    np.testing.assert_array_equal(model.predict(c), np.full(6, 0.5))


def test_head_is_linear_plus_sigmoid():
    rng = make_rng(26)
    head = ClassificationHead(ModelConfig(channels=8, granularities=1), rng)
    f = rng.normal(size=(5, 8))
    got = head(Tensor(f)).value
    np.testing.assert_allclose(got, sigmoid_np(linear_np(head.lin, f)), atol=1e-12)


# -- loss -----------------------------------------------------------------------------


def test_bce_loss_hand_oracle():
    probs = Tensor(np.array([[0.9], [0.2]]))
    labels = np.array([1.0, 0.0])
    want = -(np.log(0.9) + np.log(0.8)) / 2.0
    assert abs(bce_loss(probs, labels).value.reshape(()) - want) < 1e-12


def test_bce_loss_finite_at_extreme_probabilities():
    probs = Tensor(np.array([[0.0], [1.0]]))
    labels = np.array([1.0, 0.0])
    val = float(bce_loss(probs, labels).value.reshape(()))
    assert np.isfinite(val) and val > 20.0  # clipped at 1e-12

    perfect = Tensor(np.array([[1.0], [0.0]]))
    assert float(bce_loss(perfect, labels).value.reshape(())) < 1e-10


def test_predict_bytes_identical_across_processes():
    """A fresh interpreter with a minimal env predicts the same bytes as this one."""
    import os
    import subprocess
    import sys

    import reglab

    code = (
        "from conftest import random_correspondences, make_rng\n"
        "from reglab.blocks import GPINet, ModelConfig\n"
        "c, _ = random_correspondences(make_rng(99), 12)\n"
        "model = GPINet(ModelConfig(channels=8, granularities=1), seed=4)\n"
        "print(model.predict(c).tobytes().hex())\n"
    )
    tests_dir = os.path.dirname(os.path.abspath(__file__))
    # The child imports the same reglab as this process, installed or not.
    package_dir = os.path.dirname(os.path.dirname(os.path.abspath(reglab.__file__)))
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={"PATH": "/usr/bin:/bin",
             "PYTHONPATH": os.pathsep.join([tests_dir, package_dir])},
        check=False,
    )
    assert out.returncode == 0, out.stderr
    c, _ = random_correspondences(make_rng(99), 12)
    model = GPINet(ModelConfig(channels=8, granularities=1), seed=4)
    assert out.stdout.strip() == model.predict(c).tobytes().hex()


# -- row-blocked attention and consistency mix ---------------------------------------


def run_child(code: str, threads: int) -> list[str]:
    """stdout lines of ``code`` run in a fresh interpreter with ``threads`` BLAS threads."""
    import os
    import subprocess
    import sys

    import reglab

    tests_dir = os.path.dirname(os.path.abspath(__file__))
    package_dir = os.path.dirname(os.path.dirname(os.path.abspath(reglab.__file__)))
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": os.pathsep.join([tests_dir, package_dir]),
             "OPENBLAS_NUM_THREADS": str(threads), "OMP_NUM_THREADS": str(threads),
             "MKL_NUM_THREADS": str(threads)},
        check=False,
    )
    assert out.returncode == 0, out.stderr
    return out.stdout.split("\n")[:-1]


def attention_and_grads(attend, n: int, scale: float | None, case: str):
    """Output and q, k, v gradients of ``attend`` on (n, 32) inputs under a random loss.

    In the "cross" case one tensor serves as k and v, as in GFA's cross
    attentions. In the "one_hot" case k is q and its rows have norm 100, so
    each row's own key scores thousands above the rest: every row has one
    live entry, and the forward gathers.
    """
    rng = make_rng(n)
    q, k, v = (Tensor(rng.normal(size=(n, 32)) * 3.0, requires_grad=True) for _ in range(3))
    if case == "cross":
        v = k
    if case == "one_hot":
        q.value *= 100.0 / np.linalg.norm(q.value, axis=1, keepdims=True)
        k = q
    out = attend(q, k, v, scale)
    (out * Tensor(rng.normal(size=out.shape))).sum().backward()
    return [out.value, q.grad, k.grad, v.grad]


def mix_and_grad(mix, n: int):
    """SC @ feats and the gradient of feats under a random loss, on an outdoor scene."""
    rng = make_rng(n)
    c, _ = generate(SceneConfig(n=n, outlier_ratio=0.8, scene="outdoor", seed=n))
    feats = Tensor(rng.normal(size=(n, 32)), requires_grad=True)
    out = mix(c, 0.1, feats)
    (out * Tensor(rng.normal(size=out.shape))).sum().backward()
    return [out.value, feats.grad]


def relative_gap(got: np.ndarray, want: np.ndarray) -> float:
    """Largest difference over the largest reference entry; one-hot maps give q and k
    all-zero gradients, where the difference itself must be 0."""
    return float(np.abs(got - want).max() / (np.abs(want).max() or 1.0))


@pytest.mark.parametrize("n", [255, 256, 257])
@pytest.mark.parametrize("scale, case", [(None, "self"), (0.17, "scaled"), (0.17, "cross"),
                                         (None, "one_hot")],
                         ids=["self", "scaled", "cross", "one_hot"])
def test_attention_node_matches_graph_formula_bit_for_bit_in_one_block(n, scale, case):
    """One row block: the node runs the graph formula's products in its order."""
    got = attention_and_grads(_attend, n, scale, case)
    want = attention_and_grads(graph_reference.attend, n, scale, case)
    for g, w in zip(got, want):
        assert g.tobytes() == w.tobytes()


@pytest.mark.parametrize("n", [600, 1001, 2003])
def test_attention_node_matches_graph_formula_across_blocks(n):
    """Several row blocks: k's and v's gradients add the blocks' partial sums in turn."""
    for scale, case in ((None, "self"), (0.17, "cross"), (None, "one_hot")):
        got = attention_and_grads(_attend, n, scale, case)
        want = attention_and_grads(graph_reference.attend, n, scale, case)
        for g, w in zip(got, want):
            assert relative_gap(g, w) <= 1e-12


@pytest.mark.parametrize("n", [255, 256, 257, 600, 1001, 2003])
def test_consistency_mix_matches_graph_formula(n):
    """Bit for bit in one row block; within 1e-12 of the largest entry across blocks."""
    got = mix_and_grad(_consistency_mix, n)
    want = mix_and_grad(graph_reference.consistency_mix, n)
    for g, w in zip(got, want):
        if len(list(row_blocks(n))) == 1:
            assert g.tobytes() == w.tobytes()
        assert relative_gap(g, w) <= 1e-12


def test_consistency_mix_keeps_sc_blocks_only_for_a_backward():
    """Under no_grad the mix holds one row block of SC at a time; with a graph it
    keeps the blocks of one triangle for the backward: over half of one N x N
    map (32 MB at N=2000), and under 0.6 of it."""
    import tracemalloc

    n = 2000
    c, _ = generate(SceneConfig(n=n, outlier_ratio=0.8, scene="outdoor", seed=3))
    feats = Tensor(make_rng(3).normal(size=(n, 32)), requires_grad=True)
    peaks = []
    for record in (False, True):
        tracemalloc.start()
        try:
            if record:
                out = _consistency_mix(c, 0.1, feats)
            else:
                with no_grad():
                    out = _consistency_mix(c, 0.1, feats)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert out.requires_grad is record
    assert peaks[0] < 8 * n * n / 2 <= peaks[1] < 0.6 * 8 * n * n


@pytest.mark.parametrize("n", [255, 256, 257, 560, 600])
def test_blocked_inference_matches_graph_path_bit_for_bit(n):
    """forward with grad, which records the backward, and predict give the same bits.

    At 560 and 600 the maps span two and three blocks.
    """
    model = GPINet(seed=5)
    c, _ = generate(SceneConfig(n=n, outlier_ratio=0.8, scene="outdoor", seed=n))
    feats = model.embedding(c)
    rows, channels = model.gfa(feats)
    probs, _ = model.forward(c)
    assert feats.requires_grad and rows.requires_grad and probs.requires_grad
    with no_grad():
        blocked_feats = model.embedding(c)
        blocked_rows, blocked_channels = model.gfa(blocked_feats)
    np.testing.assert_array_equal(blocked_feats.value, feats.value)
    np.testing.assert_array_equal(blocked_rows.value, rows.value)
    np.testing.assert_array_equal(blocked_channels.value, channels.value)
    np.testing.assert_array_equal(model.predict(c), probs.value.ravel())


def test_blocked_attention_matches_graph_path_with_one_blas_thread():
    """Row counts that are not a multiple of 8 put edge columns in every block.

    With several BLAS threads the whole product of the graph formula splits
    its rows among the threads, so only a single-threaded BLAS pins every
    row count.
    """
    code = (
        "import numpy as np\n"
        "import graph_reference\n"
        "from reglab.autodiff import Tensor\n"
        "from reglab.blocks import _attend\n"
        "rng = np.random.default_rng(0)\n"
        "for n in (517, 745, 1001, 2003):\n"
        "    q, k, v = (Tensor(rng.normal(size=(n, 32)) * 3) for _ in range(3))\n"
        "    for scale in (None, 0.17):\n"
        "        graph = graph_reference.attend(q, k, v, scale)\n"
        "        blocked = _attend(q, k, v, scale)\n"
        "        print(n, scale, np.array_equal(graph.value, blocked.value))\n"
    )
    lines = run_child(code, threads=1)
    assert len(lines) == 8 and all(line.endswith(" True") for line in lines), lines


def test_forward_with_grad_matches_predict_with_two_blas_threads():
    """Training and inference run the same row blocks, so their bits agree at any
    thread count; the graph formula's whole products split among two threads."""
    code = (
        "from reglab.blocks import GPINet\n"
        "from reglab.synth import SceneConfig, generate\n"
        "model = GPINet(seed=5)\n"
        "for n in (517, 1001, 2003):\n"
        "    c, _ = generate(SceneConfig(n=n, outlier_ratio=0.8, scene='outdoor', seed=n))\n"
        "    probs, _ = model.forward(c)\n"
        "    print(n, probs.value.ravel().tobytes() == model.predict(c).tobytes())\n"
    )
    lines = run_child(code, threads=2)
    assert lines == ["517 True", "1001 True", "2003 True"]


def test_float32_screen_keeps_predict_bytes_with_two_blas_threads():
    """sgemm may round differently with two threads; the screen's certificate holds
    for any float32 summation order, so predict keeps the bytes of the float64
    path. The child counts the blocks the screen certified, so it is not idle."""
    code = (
        "import reglab.kernels as kernels\n"
        "from pathlib import Path\n"
        "from reglab.blocks import GPINet\n"
        "from reglab.synth import SceneConfig, generate\n"
        "model = GPINet.load(Path(kernels.__file__).parents[2] / 'bench/model/params.json')\n"
        "real, size, certified = kernels.certified_columns, kernels._MIN_SCREEN_PRODUCT, []\n"
        "def counted(*args):\n"
        "    hot = real(*args)\n"
        "    certified.append(hot is not None)\n"
        "    return hot\n"
        "kernels.certified_columns = counted\n"
        "for n in (1001, 2003):\n"
        "    c, _ = generate(SceneConfig(n=n, outlier_ratio=0.8, scene='outdoor', seed=n))\n"
        "    on = model.predict(c).tobytes()\n"
        "    kernels._MIN_SCREEN_PRODUCT = 1 << 62\n"
        "    off = model.predict(c).tobytes()\n"
        "    kernels._MIN_SCREEN_PRODUCT = size\n"
        "    print(n, on == off, sum(certified) > 0)\n"
        "    certified.clear()\n"
    )
    assert run_child(code, threads=2) == ["1001 True True", "2003 True True"]


@pytest.mark.parametrize("threads", [1, 2])
def test_key_pruning_keeps_predict_bytes_on_the_bench_model(threads):
    """predict's bytes with key pruning at its size rule, forced on at every size
    and off, and with the screen off, at N = 500, 1000, 2000 and 4096 under 1
    and 2 BLAS threads; the child counts the rows that pruned scoring
    certified, so it is not idle."""
    code = (
        "import reglab.kernels as kernels\n"
        "from pathlib import Path\n"
        "from reglab.blocks import GPINet\n"
        "from reglab.synth import SceneConfig, generate\n"
        "model = GPINet.load(Path(kernels.__file__).parents[2] / 'bench/model/params.json')\n"
        "real, rows = kernels._scored_on_keys, []\n"
        "screen, skipped = kernels._MIN_SCREEN_PRODUCT, kernels._MIN_SKIPPED_KEYS\n"
        "def counted(*args):\n"
        "    hot = real(*args)\n"
        "    rows.append(int((hot >= 0).sum()))\n"
        "    return hot\n"
        "kernels._scored_on_keys = counted\n"
        "for n in (500, 1000, 2000, 4096):\n"
        "    c, _ = generate(SceneConfig(n=n, outlier_ratio=0.8, scene='outdoor', seed=1))\n"
        "    out = set()\n"
        "    for product, skip in ((screen, skipped), (screen, 0), (screen, 1 << 62),\n"
        "                          (1 << 62, skipped)):\n"
        "        kernels._MIN_SCREEN_PRODUCT, kernels._MIN_SKIPPED_KEYS = product, skip\n"
        "        out.add(model.predict(c).tobytes())\n"
        "    print(n, len(out) == 1, sum(rows) > 0)\n"
        "    rows.clear()\n"
    )
    assert run_child(code, threads=threads) == [f"{n} True True" for n in (500, 1000, 2000, 4096)]


def test_training_step_memory_stays_far_below_n_squared():
    """At N=1000 a training step stored every N x N map and peaked near 187 MB."""
    import tracemalloc

    model = GPINet(seed=0)
    c, _ = generate(SceneConfig(n=1000, outlier_ratio=0.8, scene="outdoor", seed=1))
    tracemalloc.start()
    try:
        probs, _ = model.forward(c, mode="train")
        bce_loss(probs, c.labels).backward()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(t.grad is not None for t in model.parameters().values())
    assert peak < 100e6


def test_predict_memory_stays_far_below_n_squared():
    """At N=3000 one N x N float64 map is 72 MB; predict used to peak near 800 MB."""
    import tracemalloc

    model = GPINet(seed=5)
    c, _ = generate(SceneConfig(n=3000, outlier_ratio=0.8, scene="outdoor", seed=1))
    tracemalloc.start()
    try:
        model.predict(c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 150e6
