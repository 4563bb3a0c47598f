"""The embedding's triangle consistency mix under the register-level gate."""

from dataclasses import replace

import pytest

import graph_reference
from reglab import blocks
from reglab.geometry import RigidTransform
from reglab.kernels import row_blocks
from register_gate import CORPUS, TRANSFORM_TOL, Case, check_gate, register_case, register_gate

MIX_PROBABILITY_TOL = 1e-12
MIX_SWAP = [(blocks, "_consistency_mix", graph_reference.consistency_mix)]


@pytest.mark.parametrize("case", CORPUS, ids=lambda case: case.id)
def test_triangle_mix_passes_the_register_gate(case, monkeypatch):
    """Against the full-row product Tensor(SC) @ F; bit for bit where the mix is one block."""
    got, want, _, _ = register_gate(case, monkeypatch, MIX_SWAP, MIX_PROBABILITY_TOL)
    if len(list(row_blocks(case.n))) == 1:
        assert got.probabilities.tobytes() == want.probabilities.tobytes()
        assert got.hypothesis.transform.rotation.tobytes() == \
            want.hypothesis.transform.rotation.tobytes()


@pytest.fixture(scope="module")
def small_result():
    return register_case(Case("indoor", 250, 0.5, 1, "bench"))


def test_gate_passes_a_result_against_itself(small_result):
    assert small_result.ok
    assert check_gate(small_result, small_result, 0.0) == (0.0, 0.0)


@pytest.mark.parametrize("part", ["rotation", "translation"])
def test_gate_fails_on_a_transform_perturbation(small_result, part):
    hyp = small_result.hypothesis
    rotation, translation = hyp.transform.rotation.copy(), hyp.transform.translation.copy()
    if part == "rotation":
        rotation[1, 2] += 10 * TRANSFORM_TOL
    else:
        translation[2] += 10 * TRANSFORM_TOL
    moved = replace(small_result, hypothesis=replace(hyp, transform=RigidTransform(rotation,
                                                                                  translation)))
    with pytest.raises(AssertionError, match="transforms differ"):
        check_gate(small_result, moved, 0.0)


def test_gate_fails_on_a_different_selected_seed(small_result):
    hyp = small_result.hypothesis
    other = next(d["seed"] for d in small_result.seed_diagnostics if d["seed"] != hyp.seed_index)
    moved = replace(small_result, hypothesis=replace(hyp, seed_index=other))
    with pytest.raises(AssertionError, match="selected seed"):
        check_gate(small_result, moved, 0.0)


def test_gate_fails_on_a_probability_past_its_bound(small_result):
    probs = small_result.probabilities.copy()
    probs[7] += 2e-12
    with pytest.raises(AssertionError, match="probabilities differ"):
        check_gate(small_result, replace(small_result, probabilities=probs), 1e-12)
