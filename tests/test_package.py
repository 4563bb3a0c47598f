"""Package surface: the public names the package exports."""

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
