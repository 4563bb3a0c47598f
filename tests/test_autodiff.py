"""Reverse-mode engine: finite-difference oracles for every primitive.

Every exported operation is checked against central finite differences
over at least 10 random shape/seed combinations (rel err < 1e-4, with an
absolute floor of 1e-8 below which both sides count as zero). Inputs are
kept away from non-differentiable points (relu/clip kinks, log(0)).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_grad_matches, coord_sample, make_rng
from reglab.autodiff import Tensor, concat_cols, no_grad, shuffle_permutation
from reglab.blocks import _attend
from reglab.errors import ContractError, ShapeError

SHAPES = [(1, 1), (1, 5), (5, 1), (2, 3), (3, 2), (4, 4), (2, 6), (6, 2), (3, 5), (5, 4)]


def scalarize(t: Tensor, rng: np.random.Generator) -> tuple[Tensor, np.ndarray]:
    """Fixed random weighting that turns any output into a scalar loss."""
    w = rng.normal(size=t.shape)
    return (t * Tensor(w)).sum(), w


def run_check(build, arrays: dict[str, np.ndarray], seed: int, per_input: int = 6):
    """FD-check d(build(arrays))/d(each array) at sampled coordinates.

    ``build`` maps {name: Tensor} to a scalar Tensor and must read values
    from the passed tensors only, so the same closure serves both the
    analytic backward pass and the numeric re-evaluations.
    """
    rng = make_rng(seed + 99991)
    tensors = {k: Tensor(v, requires_grad=True) for k, v in arrays.items()}
    loss = build(tensors)
    assert loss.value.size == 1
    loss.backward()

    def value_of() -> float:
        with no_grad():
            fresh = {k: Tensor(v) for k, v in arrays.items()}
            return float(build(fresh).value.reshape(()))

    for name, arr in arrays.items():
        grad = tensors[name].grad
        assert grad is not None, f"no gradient reached input {name!r}"
        coords = coord_sample(rng, arr.shape, per_input)
        assert_grad_matches(value_of, arr, grad, coords, label=name)


def shifted(rng, shape, low=0.2, high=1.7):
    """Positive values away from zero: safe for log/sqrt/relu/div."""
    return rng.uniform(low, high, size=shape) * rng.choice([1.0])


@pytest.mark.parametrize("seed,shape", list(enumerate(SHAPES)))
def test_add_sub_neg_with_broadcast(seed, shape):
    rng = make_rng(seed)
    a = rng.normal(size=shape)
    b = rng.normal(size=(1, shape[1]))   # row broadcast
    c = rng.normal(size=(shape[0], 1))   # column broadcast
    run_check(
        lambda t: ((t["a"] + t["b"]) - (t["c"] - t["a"]) + (-t["a"]) + 2.5).sum(),
        {"a": a, "b": b, "c": c},
        seed,
    )


@pytest.mark.parametrize("seed,shape", list(enumerate(SHAPES)))
def test_mul_div_with_broadcast(seed, shape):
    rng = make_rng(seed + 10)
    a = rng.normal(size=shape)
    b = shifted(rng, (1, shape[1]))
    c = shifted(rng, shape)
    run_check(
        lambda t: ((t["a"] * t["b"]) / t["c"] + (1.0 / t["c"]) + t["a"] * 3.0).sum(),
        {"a": a, "b": b, "c": c},
        seed,
    )


@pytest.mark.parametrize("seed", range(10))
def test_matmul_and_transpose(seed):
    rng = make_rng(seed + 20)
    n, k, m = rng.integers(1, 6, size=3)
    a = rng.normal(size=(int(n), int(k)))
    b = rng.normal(size=(int(k), int(m)))
    rng2 = make_rng(seed + 500)

    def build(t):
        out = t["a"].matmul(t["b"])
        back = out.T.matmul(t["a"])  # exercise transpose inside the graph
        s1, _ = scalarize(out, make_rng(seed + 1000))
        s2, _ = scalarize(back, make_rng(seed + 2000))
        return s1 + s2

    del rng2
    run_check(build, {"a": a, "b": b}, seed)


def test_matmul_shape_error():
    with pytest.raises(ShapeError):
        Tensor(np.ones((2, 3))).matmul(Tensor(np.ones((2, 3))))


@pytest.mark.parametrize("seed,shape", list(enumerate(SHAPES)))
def test_relu_away_from_kink(seed, shape):
    rng = make_rng(seed + 30)
    a = rng.normal(size=shape)
    a[np.abs(a) < 1e-2] = 0.5  # keep clear of the kink for FD
    run_check(lambda t: t["a"].relu().sum(), {"a": a}, seed)


def test_relu_zero_point_subgradient():
    t = Tensor(np.zeros((2, 2)), requires_grad=True)
    out = t.relu().sum()
    out.backward()
    assert np.array_equal(t.grad, np.zeros((2, 2)))  # relu'(0) taken as 0


@pytest.mark.parametrize("seed,shape", list(enumerate(SHAPES)))
def test_sigmoid(seed, shape):
    rng = make_rng(seed + 40)
    run_check(lambda t: t["a"].sigmoid().sum(), {"a": rng.normal(size=shape) * 2.0}, seed)


@pytest.mark.parametrize("seed,shape", list(enumerate(SHAPES)))
def test_log_sqrt_positive_domain(seed, shape):
    rng = make_rng(seed + 50)
    a = shifted(rng, shape)
    run_check(lambda t: (t["a"].log() + t["a"].sqrt()).sum(), {"a": a}, seed)


@pytest.mark.parametrize("seed,shape", list(enumerate(SHAPES)))
def test_clip_interior_and_blocked_gradient(seed, shape):
    rng = make_rng(seed + 60)
    a = rng.uniform(0.3, 0.7, size=shape)  # strictly inside (0.1, 0.9)
    run_check(lambda t: t["a"].clip(0.1, 0.9).sum(), {"a": a}, seed)


def test_clip_saturated_gradient_is_zero():
    t = Tensor(np.array([[5.0, -5.0]]), requires_grad=True)
    t.clip(-1.0, 1.0).sum().backward()
    assert np.array_equal(t.grad, np.zeros((1, 2)))


@pytest.mark.parametrize("seed,shape", list(enumerate(SHAPES)))
def test_softmax_rows(seed, shape):
    """The row softmax's gradient, through the attention node that holds it.

    _attend(q, k, v) = softmax_rows(q k^T [* scale]) v with a score map of
    ``shape``; odd seeds scale the scores and pass one tensor as k and v,
    as the cross attentions do.
    """
    rng = make_rng(seed + 70)
    m, keys = shape
    arrays = {"q": rng.normal(size=(m, 3)) * 1.5, "k": rng.normal(size=(keys, 3))}
    if seed % 2 == 0:
        arrays["v"] = rng.normal(size=(keys, 2))

    def build(t):
        if seed % 2 == 0:
            out = _attend(t["q"], t["k"], t["v"])
        else:
            out = _attend(t["q"], t["k"], t["k"], 0.7)
        s, _ = scalarize(out, make_rng(seed + 3000))
        return s

    run_check(build, arrays, seed)


@pytest.mark.parametrize("seed,shape", list(enumerate(SHAPES)))
@pytest.mark.parametrize("axis", [None, 0, 1])
def test_sum_and_mean_axes(seed, shape, axis):
    rng = make_rng(seed + 80)
    a = rng.normal(size=shape)

    def build(t):
        s, _ = scalarize(t["a"].sum(axis=axis), make_rng(seed + 4000))
        m, _ = scalarize(t["a"].mean(axis=axis), make_rng(seed + 5000))
        return s + m

    run_check(build, {"a": a}, seed)


def test_mean_values():
    t = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
    assert t.mean().value.reshape(()) == 2.5
    assert t.mean(axis=0).value.tolist() == [[2.0, 3.0]]
    assert t.mean(axis=1).value.tolist() == [[1.5], [3.5]]


@pytest.mark.parametrize("seed", range(10))
def test_channel_shuffle_gradient(seed):
    rng = make_rng(seed + 90)
    groups = int(rng.choice([1, 2, 3]))
    cols = groups * int(rng.integers(1, 5))
    a = rng.normal(size=(int(rng.integers(1, 5)), cols))

    def build(t):
        s, _ = scalarize(t["a"].channel_shuffle(groups), make_rng(seed + 6000))
        return s

    run_check(build, {"a": a}, seed)


def test_shuffle_permutation_documented_example():
    assert shuffle_permutation(6, 2).tolist() == [0, 3, 1, 4, 2, 5]


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 8), st.integers(1, 8))
def test_shuffle_permutation_is_permutation(groups, per_group):
    cols = groups * per_group
    perm = shuffle_permutation(cols, groups)
    assert sorted(perm.tolist()) == list(range(cols))


@pytest.mark.parametrize("seed", range(10))
def test_concat_cols_gradient(seed):
    rng = make_rng(seed + 100)
    rows = int(rng.integers(1, 5))
    a = rng.normal(size=(rows, int(rng.integers(1, 4))))
    b = rng.normal(size=(rows, int(rng.integers(1, 4))))
    c = rng.normal(size=(rows, int(rng.integers(1, 4))))

    def build(t):
        s, _ = scalarize(concat_cols([t["a"], t["b"], t["c"]]), make_rng(seed + 7000))
        return s

    run_check(build, {"a": a, "b": b, "c": c}, seed)


def test_concat_cols_validation():
    with pytest.raises(ContractError):
        concat_cols([])
    with pytest.raises(ShapeError):
        concat_cols([Tensor(np.ones((2, 2))), Tensor(np.ones((3, 2)))])


@pytest.mark.parametrize("seed", range(5))
def test_shared_subexpression_accumulates(seed):
    rng = make_rng(seed + 110)
    a = shifted(rng, (3, 3))
    run_check(
        lambda t: (t["a"] * t["a"]).sum() + t["a"].sum() * 2.0 + (t["a"] / t["a"].sum()).sum(),
        {"a": a},
        seed,
    )


def test_a_gradient_shared_by_two_tensors_stays_theirs():
    """a + b hands both leaves the same gradient array; a later contribution to one
    of them must not reach the other."""
    for flip in (False, True):
        a, b = (Tensor(np.ones((2, 3)), requires_grad=True) for _ in range(2))
        terms = [((a + b) * 2.0).sum(), (a * 3.0).sum()]
        (terms[1] + terms[0] if flip else terms[0] + terms[1]).backward()
        assert np.array_equal(a.grad, np.full((2, 3), 5.0))
        assert np.array_equal(b.grad, np.full((2, 3), 2.0))


def test_backward_adds_each_nodes_gradients_last_parent_first():
    """A node's backward only returns one gradient per parent; Tensor.backward adds
    them, last parent first, and only into parents that track gradients. With b
    passed twice and already holding g0, b.grad is (g0 + third) + second: GFA's
    cross attention passes one tensor as k and v and keeps its bits by this order."""
    g0, second, third = np.array([[1.0]]), np.array([[2.0 ** -53]]), np.array([[-1.0]])
    assert not np.array_equal((g0 + third) + second, (g0 + second) + third)
    a = Tensor(np.zeros((1, 1)))
    b = Tensor(np.zeros((1, 1)), requires_grad=True)
    b.grad = g0
    out = Tensor._make(np.zeros((1, 1)), (a, b, b), lambda g: (g, g * second, g * third))
    out.backward()
    assert np.array_equal(b.grad, (g0 + third) + second)
    assert a.grad is None


def test_backward_requires_scalar_root():
    t = Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ContractError):
        (t * 2.0).backward()


def test_no_grad_suppresses_graph():
    t = Tensor(np.ones((2, 2)), requires_grad=True)
    with no_grad():
        out = (t * 3.0).sum()
    assert not out.requires_grad
    assert out._parents == ()
    out2 = (t * 3.0).sum()
    assert out2.requires_grad  # recording resumes after the context


def test_constants_do_not_build_graph():
    a = Tensor(np.ones((2, 2)))  # requires_grad defaults to False
    out = (a * 2.0 + 1.0).sum()
    assert not out.requires_grad and out._parents == ()


def test_scalar_coercion_and_python_numbers():
    t = Tensor(2.0, requires_grad=True)
    assert t.shape == (1, 1)
    loss = (3.0 * t + 1.0) / 2.0
    loss.backward()
    assert abs(t.grad.reshape(()) - 1.5) < 1e-15


def test_grad_accumulation():
    t = Tensor(np.ones((2, 2)), requires_grad=True)
    t.sum().backward()
    t.sum().backward()
    assert np.array_equal(t.grad, 2.0 * np.ones((2, 2)))


def test_non_2d_rejected():
    with pytest.raises(ShapeError):
        Tensor(np.ones((2, 2, 2)))
