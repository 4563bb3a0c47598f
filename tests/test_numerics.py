"""Numerical properties of the layer math the model runs: oracles and invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import make_rng
from reglab.autodiff import Tensor
from reglab.blocks import _attend
from reglab.errors import (
    ConfigurationError,
    DegenerateInputError,
    ShapeError,
    UninitializedStatsError,
)
from reglab.nn import EPS_NORM, MOMENTUM, BatchNorm, InstanceNorm

finite_matrices = arrays(
    np.float64,
    st.tuples(st.integers(1, 6), st.integers(1, 6)),
    elements=st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
)


def batch_norm(width, scale, shift, **kwargs):
    """BatchNorm layer with the given affine parameters."""
    bn = BatchNorm(width, **kwargs)
    bn.scale.value = np.asarray(scale, dtype=np.float64).reshape(1, width)
    bn.shift.value = np.asarray(shift, dtype=np.float64).reshape(1, width)
    return bn


def test_matmul_matches_numpy_and_checks_shapes():
    rng = make_rng(0)
    a = rng.normal(size=(4, 5))
    b = rng.normal(size=(5, 3))
    assert np.array_equal(Tensor(a).matmul(Tensor(b)).value, a @ b)
    with pytest.raises(ShapeError):
        Tensor(a).matmul(Tensor(a))


def test_relu_oracle():
    m = np.array([[-2.0, 0.0, 3.5]])
    assert np.array_equal(Tensor(m).relu().value, [[0.0, 0.0, 3.5]])


def test_sigmoid_matches_formula_and_saturates_safely():
    rng = make_rng(1)
    m = rng.normal(size=(3, 4))
    expected = 1.0 / (1.0 + np.exp(-m))
    assert np.allclose(Tensor(m).sigmoid().value, expected, rtol=0, atol=1e-15)
    extreme = Tensor(np.array([[-1000.0, 1000.0]])).sigmoid().value
    assert np.all(np.isfinite(extreme))
    assert extreme[0, 0] == 0.0 and extreme[0, 1] == 1.0


def row_softmax(m: np.ndarray) -> np.ndarray:
    """The model's row softmax: the attention node with identity keys and values,
    softmax_rows(m I^T) I, which is softmax_rows(m) exactly for finite m."""
    eye = Tensor(np.eye(m.shape[1]))
    return _attend(Tensor(m), eye, eye).value


def test_softmax_rows_oracle_small():
    m = np.array([[0.0, np.log(3.0)]])
    out = row_softmax(m)
    assert np.allclose(out, [[0.25, 0.75]], atol=1e-15)


@settings(max_examples=60, deadline=None)
@given(finite_matrices)
def test_softmax_rows_rows_sum_to_one(m):
    out = row_softmax(m)
    assert np.all(out >= 0.0)
    assert np.all(np.abs(out.sum(axis=1) - 1.0) <= 1e-9)


def test_softmax_rows_extreme_magnitudes():
    m = np.array([[1e3, -1e3, 0.0], [-1e3, -1e3, -1e3]])
    out = row_softmax(m)
    assert np.all(np.isfinite(out))
    assert np.all(np.abs(out.sum(axis=1) - 1.0) <= 1e-9)


def test_instance_norm_standardizes_columns():
    rng = make_rng(2)
    m = rng.normal(3.0, 2.5, size=(64, 5))
    out = InstanceNorm()(Tensor(m)).value
    assert np.all(np.abs(out.mean(axis=0)) < 1e-9)
    assert np.all(np.abs(out.var(axis=0) - 1.0) < 1e-3)


def test_instance_norm_rejects_single_row():
    with pytest.raises(DegenerateInputError):
        InstanceNorm()(Tensor(np.ones((1, 4))))


def test_batch_norm_train_matches_direct_formula():
    rng = make_rng(3)
    m = rng.normal(size=(16, 4))
    scale = rng.normal(size=4)
    shift = rng.normal(size=4)
    bn = batch_norm(4, scale, shift)
    out = bn(Tensor(m), "train").value
    mu = m.mean(axis=0)
    var = m.var(axis=0)
    expected = (m - mu) / np.sqrt(var + EPS_NORM) * scale + shift
    assert np.allclose(out, expected, atol=1e-12)
    # First train step adopts the batch statistics (variance unbiased).
    assert np.allclose(bn.running_mean.ravel(), mu, atol=1e-15)
    assert np.allclose(bn.running_var.ravel(), m.var(axis=0, ddof=1), atol=1e-15)


def test_batch_norm_running_stats_ema():
    rng = make_rng(4)
    m = rng.normal(size=(8, 3))
    bn = BatchNorm(3)
    bn(Tensor(m), "train")
    mean1, var1 = bn.running_mean.copy(), bn.running_var.copy()
    m2 = rng.normal(2.0, 0.5, size=(8, 3))
    bn(Tensor(m2), "train")
    assert MOMENTUM == 0.1
    want_mean = 0.9 * mean1 + 0.1 * m2.mean(axis=0, keepdims=True)
    want_var = 0.9 * var1 + 0.1 * m2.var(axis=0, ddof=1, keepdims=True)
    assert np.allclose(bn.running_mean, want_mean, atol=1e-15)
    assert np.allclose(bn.running_var, want_var, atol=1e-15)


def test_batch_norm_eval_uses_running_stats():
    rng = make_rng(5)
    m = rng.normal(size=(6, 2))
    scale = np.array([2.0, 0.5])
    shift = np.array([1.0, -1.0])
    running_mean = np.array([[0.5, -0.5]])
    running_var = np.array([[4.0, 0.25]])
    bn = batch_norm(2, scale, shift)
    bn.running_mean, bn.running_var = running_mean, running_var
    out = bn(Tensor(m), "eval").value
    expected = (m - running_mean) / np.sqrt(running_var + EPS_NORM) * scale + shift
    assert np.allclose(out, expected, atol=1e-12)


def test_batch_norm_eval_unpopulated_raises():
    bn = BatchNorm(2)
    bn(Tensor(np.ones((4, 2))), "frozen")  # frozen inference populates nothing
    with pytest.raises(UninitializedStatsError):
        bn(Tensor(np.ones((4, 2))), "eval")


def test_batch_norm_rejects_unknown_mode_and_bad_shapes():
    with pytest.raises(ConfigurationError):
        BatchNorm(2)(Tensor(np.ones((4, 2))), "predict")
    with pytest.raises(ShapeError):
        BatchNorm(3)(Tensor(np.ones((4, 2))), "train")
    with pytest.raises(DegenerateInputError):
        BatchNorm(2)(Tensor(np.ones((1, 2))), "train")


def test_channel_shuffle_preserves_row_multisets():
    rng = make_rng(6)
    m = rng.normal(size=(5, 8))
    out = Tensor(m).channel_shuffle(groups=2).value
    for i in range(m.shape[0]):
        assert sorted(out[i].tolist()) == sorted(m[i].tolist())
    with pytest.raises(ShapeError):
        Tensor(m).channel_shuffle(groups=3)


def test_operations_are_deterministic():
    rng = make_rng(7)
    m = rng.normal(size=(9, 6))
    assert row_softmax(m).tobytes() == row_softmax(m).tobytes()
    assert InstanceNorm()(Tensor(m)).value.tobytes() == InstanceNorm()(Tensor(m)).value.tobytes()
    assert Tensor(m).channel_shuffle().value.tobytes() == Tensor(m).channel_shuffle().value.tobytes()
