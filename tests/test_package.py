"""Package surface: the public names the package exports."""

import ast
from pathlib import Path

import reglab


def test_all_names_resolve():
    missing = [name for name in reglab.__all__ if not hasattr(reglab, name)]
    assert missing == []


def test_top_level_surface_is_the_documented_api():
    assert sorted(reglab.__all__) == sorted([
        "CorrespondenceSet", "RigidTransform", "RegistrationConfig", "register", "GPINet",
        "ModelConfig", "SceneConfig", "generate", "METHODS", "solve", "ExperimentConfig",
        "run_experiment", "RegLabError",
    ])
    assert reglab.__version__ == "0.1.0"


def test_the_package_writes_nothing_to_stdout(capfd):
    """The last stdout line of bench/run.py is its result, so library calls
    must leave stdout alone, at the file-descriptor level too."""
    from reglab.evaluate import TrainConfig, train_toy

    params = Path(__file__).resolve().parents[1] / "bench" / "model" / "params.json"
    model = reglab.GPINet.load(params)
    c, _ = reglab.generate(reglab.SceneConfig(n=250, outlier_ratio=0.5, seed=7))
    model.predict(c)
    for method in reglab.METHODS:
        assert reglab.solve(method, c, reglab.RegistrationConfig(), model,
                            ransac_iterations=100).ok
    train_toy(TrainConfig(iterations=5))
    out, _ = capfd.readouterr()
    assert out == ""


def test_only_autodiff_adds_gradients():
    """Autodiff nodes return their gradients and Tensor.backward alone adds them, so
    no other module reaches the gradient slot through Tensor._accumulate."""
    package = Path(reglab.__file__).parent
    users = [p.name for p in sorted(package.glob("*.py"))
             if p.name != "autodiff.py" and "_accumulate" in p.read_text()]
    assert users == []


GRADERS = {"classification_metrics", "rotation_error", "translation_error",
           "registration_success"}


def test_only_evaluate_grade_scores_a_solution():
    """`reglab register` and the harness grade a solution through evaluate.grade,
    so no other code computes registration errors or precision, recall and F1."""
    callers = set()
    for path in sorted(Path(reglab.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                func = getattr(node, "func", None)
                if getattr(func, "id", getattr(func, "attr", None)) in GRADERS:
                    callers.add((path.name, getattr(top, "name", None)))
    assert callers == {("evaluate.py", "grade")}


def test_one_weighted_fit_and_one_triple_fit_solve_rotations():
    """Every weighted fit (the pipeline's stages, weighted_kabsch, sm's final fit and
    ransac's refit) goes through geometry._kabsch_segments, and the RANSAC triples
    through kernels.ransac_scan: no other code calls kernels.rigid_fits."""
    callers, names = set(), set()
    for path in sorted(Path(reglab.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            names.add(getattr(top, "name", None))
            for node in ast.walk(top):
                func = getattr(node, "func", None)
                if getattr(func, "id", getattr(func, "attr", None)) == "rigid_fits":
                    callers.add((path.name, getattr(top, "name", None)))
    assert callers == {("geometry.py", "_kabsch_segments"), ("kernels.py", "ransac_scan")}
    assert "_kabsch_stack" not in names


def test_only_kernels_and_selection_size_residual_stacks():
    """The BLAS bound on a stack of transforms, kernels.transforms_per_block, is
    applied by strict_inliers' recount and by geometry.select_best_transform;
    pipeline sizes its seed work by entries, ransac_scan its chunks by samples,
    and both reach residuals only through kernels.strict_inliers, which splits
    any stack itself."""
    callers = {}
    for path in sorted(Path(reglab.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                func = getattr(node, "func", None)
                name = getattr(func, "id", getattr(func, "attr", None))
                if name in ("transforms_per_block", "squared_residuals"):
                    callers.setdefault(name, set()).add((path.name, getattr(top, "name", None)))
    assert callers["transforms_per_block"] == {
        ("geometry.py", "select_best_transform"), ("kernels.py", "_recount")}
    assert not any(module == "pipeline.py" for sites in callers.values() for module, _ in sites)
