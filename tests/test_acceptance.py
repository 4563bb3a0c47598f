"""Acceptance gate: one test per shipped guarantee.

Each test measures, prints one ``ACCEPTANCE <k> <name>: PASS|FAIL`` line
(visible with ``pytest -s`` and in any failure report), then asserts.
Tolerances and runtime budgets are pinned in the assertions themselves.
"""

import time
import xml.etree.ElementTree as ET

import numpy as np

from conftest import (
    central_difference,
    coord_sample,
    make_rng,
    random_correspondences,
    random_transform,
    rel_err,
    residuals,
)
from reglab.autodiff import Tensor
from reglab.baselines import ransac, spectral_matching
from reglab.blocks import (
    ClassificationHead,
    ContextualEmbedding,
    GestaltAttention,
    GPINet,
    ModelConfig,
    MultiGranularityMixer,
    OrthogonalIntegration,
    bce_loss,
    fused_width,
    pyramid_widths,
)
from reglab.evaluate import (
    ExperimentConfig,
    TrainConfig,
    _TRAIN_INIT_STREAM,
    classification_metrics,
    derive_seed,
    run_experiment,
    train_toy,
)
from reglab.geometry import (
    CorrespondenceSet,
    registration_success,
    rotation_error,
    select_best_transform,
    translation_error,
    weighted_kabsch,
)
from reglab.kernels import consistency_matrix
from reglab.nn import named_parts
from reglab.pipeline import RegistrationConfig, register
from reglab.reports import emit_reports
from reglab.synth import SceneConfig, generate


def verdict(number: int, name: str, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


# -- 1: orthogonal split --------------------------------------------------------------


def test_criterion_1_orthogonality_suite():
    t0 = time.perf_counter()
    worst = 0.0
    degenerate = 0
    for i in range(100):
        rng = make_rng(1000 + i)
        n = int(rng.integers(4, 65))
        d = int(rng.choice([8, 16, 32, 64]))
        block = OrthogonalIntegration(ModelConfig(channels=d, granularities=1), rng)
        feats = Tensor(rng.normal(0.0, 1.0, size=(n, d)))
        parts = block.decompose(feats)
        proj = parts["projection"].value
        if parts["degenerate"]:
            degenerate += 1
            assert np.all(proj == 0.0)
            continue
        res = feats.value - proj
        inner = np.abs(np.sum(res * proj, axis=1))
        scale = np.linalg.norm(feats.value, axis=1) * np.linalg.norm(proj, axis=1)
        worst = max(worst, float((inner / np.maximum(scale, 1e-30)).max()))
    elapsed = time.perf_counter() - t0
    verdict(
        1,
        "residual-projection orthogonality",
        worst < 1e-9 and elapsed < 10.0,
        f"worst relative inner product {worst:.3e} over 100 configs "
        f"({degenerate} degenerate poolings), {elapsed:.2f}s < 10s",
    )


# -- 2: gradient suite ----------------------------------------------------------------


CFG2 = ModelConfig(channels=16, granularities=2)


def trainable(layer) -> dict[str, Tensor]:
    """The layer's parameters, by attribute path."""
    return {name: part for name, part in named_parts(layer) if isinstance(part, Tensor)}


def run_grad_suite(label: str, make_loss, tensors: dict, seed: int, coords_per: int = 2) -> float:
    loss = make_loss()
    loss.backward()
    rng = make_rng(seed)
    worst = 0.0

    def f() -> float:
        return float(make_loss().value.reshape(()))

    for name, t in sorted(tensors.items()):
        assert t.grad is not None, f"{label}.{name}: no gradient reached this tensor"
        grad = t.grad.copy()
        for ij in coord_sample(rng, t.shape, coords_per):
            numeric = central_difference(f, t.value, ij)
            err = rel_err(float(grad[ij]), numeric)
            worst = max(worst, err)
            assert err < 1e-4, f"{label}.{name}[{ij}]: rel err {err:.3e}"
    return worst


def test_criterion_2_gradient_suite():
    t0 = time.perf_counter()
    worst: dict[str, float] = {}
    n, d = 16, 16

    c, _ = random_correspondences(make_rng(21), n)
    emb = ContextualEmbedding(CFG2, make_rng(22))
    w_emb = make_rng(23).normal(size=(n, d))
    worst["embedding"] = run_grad_suite(
        "embedding",
        lambda: (emb(c) * Tensor(w_emb)).sum(),
        trainable(emb),
        seed=24,
    )

    oi = OrthogonalIntegration(CFG2, make_rng(31))
    x_oi = Tensor(make_rng(32).normal(size=(n, d)), requires_grad=True)
    assert not oi.decompose(x_oi)["degenerate"]
    w_oi = make_rng(33).normal(size=(n, d))
    tensors = dict(trainable(oi), input=x_oi)
    worst["orthogonal_integration"] = run_grad_suite(
        "orthogonal_integration",
        lambda: (oi(x_oi)[0] * Tensor(w_oi)).sum(),
        tensors,
        seed=34,
    )

    gfa = GestaltAttention(CFG2, make_rng(41))
    x_gfa = Tensor(make_rng(42).normal(size=(n, d)), requires_grad=True)
    w_rows = make_rng(43).normal(size=(n, d))
    w_chan = make_rng(44).normal(size=(n, d))

    def gfa_loss():
        rows, channels = gfa(x_gfa)
        return (rows * Tensor(w_rows)).sum() + (channels * Tensor(w_chan)).sum()

    tensors = dict(trainable(gfa), input=x_gfa)
    worst["gestalt_attention"] = run_grad_suite("gestalt_attention", gfa_loss, tensors, seed=45)

    dmg = MultiGranularityMixer(CFG2, make_rng(51))
    fine = Tensor(make_rng(52).normal(size=(n, d)), requires_grad=True)
    coarse = Tensor(make_rng(53).normal(size=(n, d)), requires_grad=True)
    w_dmg = make_rng(54).normal(size=(n, d))
    tensors = dict(trainable(dmg), fine=fine, coarse=coarse)
    worst["multi_granularity"] = run_grad_suite(
        "multi_granularity",
        lambda: (dmg(fine, coarse, "frozen") * Tensor(w_dmg)).sum(),
        tensors,
        seed=55,
    )

    head = ClassificationHead(CFG2, make_rng(61))
    x_head = Tensor(make_rng(62).normal(size=(n, d)), requires_grad=True)
    w_head = make_rng(63).normal(size=(n, 1))
    tensors = dict(trainable(head), input=x_head)
    worst["classification_head"] = run_grad_suite(
        "classification_head",
        lambda: (head(x_head) * Tensor(w_head)).sum(),
        tensors,
        seed=64,
    )

    model = GPINet(CFG2, seed=5)
    c_full, _ = random_correspondences(make_rng(71), n, noise=0.02)
    labels = make_rng(72).random(n) < 0.5

    def full_loss():
        probs, diag = model.forward(c_full, mode="frozen")
        assert diag["pooled_vector_near_zero"] is False
        return bce_loss(probs, labels)

    worst["full_forward"] = run_grad_suite("full_forward", full_loss, model.parameters(), seed=73)

    elapsed = time.perf_counter() - t0
    overall = max(worst.values())
    verdict(
        2,
        "analytic gradients vs finite differences",
        overall < 1e-4 and elapsed < 60.0,
        f"worst rel err {overall:.3e} across {len(worst)} suites "
        f"(N=16, d=16, T=2), {elapsed:.2f}s < 60s",
    )


# -- 3: width contract ----------------------------------------------------------------


def test_criterion_3_pyramid_width_contract():
    checked = []
    for d in (8, 16, 32, 64, 128):
        widths = pyramid_widths(d, 3)
        assert widths == [d // (2 ** t) for t in range(4)]
        assert 15 * d % 8 == 0
        expected = 15 * d // 8
        assert fused_width(d, 3) == expected == sum(widths)

        dmg = MultiGranularityMixer(ModelConfig(channels=d, granularities=3), make_rng(d))
        rng = make_rng(300 + d)
        out = dmg(
            Tensor(rng.normal(size=(8, d))), Tensor(rng.normal(size=(8, d))), "frozen"
        )
        assert dmg.fusion.bnorm.width == expected  # the forward's concatenation width
        assert out.shape == (8, d)
        checked.append(f"d={d}:{expected}")
    verdict(3, "pre-fusion width 15d/8 at T=3", True, ", ".join(checked))


# -- 4: exact recovery ----------------------------------------------------------------


def test_criterion_4_exact_recovery():
    t0 = time.perf_counter()
    worst_re = worst_te = 0.0
    for i in range(1000):
        rng = make_rng(40_000 + i)
        src = rng.normal(0.0, 1.0, size=(20, 3))
        gt = random_transform(rng)
        tgt = gt.apply(src)
        weights = rng.uniform(0.1, 1.0, size=20)
        est = weighted_kabsch(CorrespondenceSet(src, tgt), weights)
        worst_re = max(worst_re, rotation_error(gt, est))
        worst_te = max(worst_te, float(np.linalg.norm(gt.translation - est.translation)))
    elapsed = time.perf_counter() - t0
    verdict(
        4,
        "noise-free recovery",
        worst_re < 1e-8 and worst_te < 1e-10 and elapsed < 5.0,
        f"1000 transforms, worst RE {worst_re:.3e} deg < 1e-8, "
        f"worst TE {worst_te:.3e} m < 1e-10, {elapsed:.2f}s < 5s",
    )


# -- 5: hypothesis selection ----------------------------------------------------------


def brute_force_best(cands, c, delta):
    best = None
    for i, t in enumerate(cands):
        res = residuals(t, c)
        mask = res < delta
        count = int(mask.sum())
        mean = float(res[mask].mean()) if count else float("inf")
        key = (-count, mean, i)
        if best is None or key < best:
            best = key
    return best[2], -best[0]


def test_criterion_5_selection_matches_brute_force():
    ties_seen = 0
    for i in range(100):
        rng = make_rng(5000 + i)
        c, gt = random_correspondences(rng, 40, noise=0.05)
        cands = [random_transform(rng) for _ in range(int(rng.integers(2, 7)))]
        cands.append(gt)
        # exact duplicates force the lowest-index tie-break to matter
        cands.append(cands[int(rng.integers(0, len(cands)))])
        if i % 3 == 0:
            cands.insert(0, cands[-2])
        order = rng.permutation(len(cands))
        cands = [cands[j] for j in order]

        stats = [tuple(np.round(residuals(t, c), 12)) for t in cands]
        ties_seen += len(stats) != len(set(stats))

        want_index, want_count = brute_force_best(cands, c, delta=0.2)
        got = select_best_transform(cands, c, delta=0.2)
        assert got.index == want_index, f"set {i}: {got.index} vs {want_index}"
        assert got.inlier_count == want_count
        assert got.transform is cands[want_index]
    verdict(
        5,
        "selection equals brute force",
        True,
        f"100 candidate sets, {ties_seen} with exact duplicates, tie-breaks included",
    )


# -- 6: oracle pipeline robustness ----------------------------------------------------


def test_criterion_6_oracle_pipeline_recall():
    t0 = time.perf_counter()
    ratios = (0.0, 0.2, 0.4, 0.6, 0.8)
    cfg = RegistrationConfig(scene="indoor")
    successes = 0
    for i in range(100):
        c, gt = generate(
            SceneConfig(
                n=1000,
                outlier_ratio=ratios[i % len(ratios)],
                noise_sigma=0.01,
                scene="indoor",
                seed=60_000 + i,
            )
        )
        result = register(c, cfg, probabilities=c.labels.astype(np.float64))
        if result.ok:
            est = result.hypothesis.transform
            re = rotation_error(gt, est)
            te = translation_error(gt, est)
            successes += registration_success(re, te, "indoor")
    elapsed = time.perf_counter() - t0
    verdict(
        6,
        "oracle-probability pipeline recall",
        successes == 100 and elapsed < 120.0,
        f"{successes}/100 scenes at N=1000, sigma=1cm, ratios up to 0.8, "
        f"{elapsed:.1f}s < 120s",
    )


# -- 7: RANSAC Monte Carlo ------------------------------------------------------------


def test_criterion_7_ransac_monte_carlo():
    t0 = time.perf_counter()
    successes = 0
    for i in range(100):
        c, gt = generate(
            SceneConfig(n=500, outlier_ratio=0.6, noise_sigma=0.01, seed=70_000 + i)
        )
        hyp = ransac(c, iterations=10_000, delta=0.10, seed=90_000 + i)
        re = rotation_error(gt, hyp.transform)
        te = translation_error(gt, hyp.transform)
        successes += registration_success(re, te, "indoor")
    elapsed = time.perf_counter() - t0
    verdict(
        7,
        "RANSAC at 60 percent outliers",
        successes >= 99 and elapsed < 300.0,
        f"{successes}/100 trials, 10k iterations, delta=10cm, {elapsed:.1f}s < 300s",
    )


# -- 8: spectral matching -------------------------------------------------------------


def test_criterion_8_spectral_eigenpair():
    worst = 0.0
    for seed in range(25):
        c, _ = generate(
            SceneConfig(n=60, outlier_ratio=0.4, noise_sigma=0.01, seed=80_000 + seed)
        )
        result = spectral_matching(c, sigma_d=0.10)
        assert result.eigenvalue > 0.0
        worst = max(worst, result.residual / result.eigenvalue)
    assert worst < 1e-6

    src = np.array([[0.0, 0, 0], [1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0]])
    tgt = src + np.array([0.3, -0.2, 0.1])
    tgt[3] += np.array([0.5, 0.5, 0.0])
    c4 = CorrespondenceSet(src, tgt)
    m = consistency_matrix(src, tgt, 0.4)
    np.fill_diagonal(m, 0.0)
    evals, evecs = np.linalg.eigh(m)
    v = evecs[:, -1]
    v = v if v.sum() >= 0 else -v
    got = spectral_matching(c4, sigma_d=0.4)
    assert np.allclose(got.confidences, np.maximum(v, 0.0), atol=1e-6)
    assert abs(got.eigenvalue - evals[-1]) < 1e-6 * evals[-1]
    assert {0, 1, 2} <= set(got.selected.tolist())
    verdict(
        8,
        "spectral eigenpair quality",
        True,
        f"worst residual/eigenvalue {worst:.3e} < 1e-6 over 25 instances; "
        "4-correspondence example matches the dense eigensolver",
    )


# -- 9: toy training ------------------------------------------------------------------


def test_criterion_9_toy_training():
    t0 = time.perf_counter()
    cfg = TrainConfig()  # the reference configuration documented in the README
    result = train_toy(cfg)
    ratio = result.final_pool_loss / result.initial_pool_loss
    loss_ok = ratio <= 0.5 and len(result.losses) <= 200

    untrained = GPINet(
        ModelConfig(channels=cfg.channels, granularities=cfg.granularities),
        seed=derive_seed(cfg.seed, _TRAIN_INIT_STREAM),
    )
    wins = 0
    for j in range(20):
        c, _ = generate(
            SceneConfig(n=256, outlier_ratio=0.5, noise_sigma=0.01, seed=derive_seed(424242, j))
        )
        f1_trained = classification_metrics(result.model.predict(c), c.labels).f1
        f1_untrained = classification_metrics(untrained.predict(c), c.labels).f1
        wins += f1_trained > f1_untrained
    elapsed = time.perf_counter() - t0
    # 15/20 wins rejects "no better than untrained" at p ~ 0.021 (one-sided sign test)
    verdict(
        9,
        "toy training descends and transfers",
        loss_ok and wins >= 15,
        f"pool loss ratio {ratio:.3f} <= 0.5 within {len(result.losses)} iterations; "
        f"trained F1 wins {wins}/20 held-out scenes (need >= 15), {elapsed:.1f}s",
    )


# -- 10: recall-vs-N sweep ------------------------------------------------------------


def test_criterion_10_recall_sweep_artifacts(tmp_path):
    t0 = time.perf_counter()
    cfg = ExperimentConfig(
        methods=("oracle", "ransac", "sm"),
        n_values=(250, 500, 1000, 2500, 5000),
        outlier_ratios=(0.6,),
        trials=2,
        ransac_iterations=1000,
        master_seed=10,
    )
    report = run_experiment(cfg)
    written = emit_reports(report, tmp_path, ("csv", "svg"))

    rows = written["report.csv"].read_text().splitlines()
    assert len(rows) == 1 + 3 * 5

    root = ET.parse(written["rr_vs_n.svg"]).getroot()
    assert root.tag.endswith("svg")
    polylines = root.findall(".//{http://www.w3.org/2000/svg}polyline")
    assert len(polylines) == 3

    table = {
        (c.method, c.n): c.rr_percent for c in report.cells
    }
    lines = []
    for method in ("oracle", "ransac", "sm"):
        by_n = [f"N={n}: {table[(method, n)]:.0f}%" for n in cfg.n_values]
        lines.append(f"{method}: " + ", ".join(by_n))
    elapsed = time.perf_counter() - t0
    # Monotone-ish recall is reported for inspection, deliberately not asserted.
    verdict(
        10,
        "recall-vs-N sweep emits CSV+SVG",
        True,
        "; ".join(lines) + f"; {elapsed:.1f}s",
    )


# -- 11: byte-identical reruns --------------------------------------------------------


def test_criterion_11_reproducible_reports(tmp_path):
    cfg = ExperimentConfig(
        methods=("oracle", "ransac", "sm"),
        n_values=(120,),
        outlier_ratios=(0.3, 0.6),
        trials=3,
        ransac_iterations=300,
        master_seed=5,
    )
    a = emit_reports(run_experiment(cfg), tmp_path / "a", ("csv", "json"))
    b = emit_reports(run_experiment(cfg), tmp_path / "b", ("csv", "json"))
    same_csv = a["report.csv"].read_bytes() == b["report.csv"].read_bytes()
    same_json = a["report.json"].read_bytes() == b["report.json"].read_bytes()
    verdict(
        11,
        "rerun reproducibility",
        same_csv and same_json,
        "report.csv and report.json byte-identical across reruns of master seed 5",
    )
