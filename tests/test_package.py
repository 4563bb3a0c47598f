"""Package surface: the public names the package exports."""

import reglab


def test_all_names_resolve():
    missing = [name for name in reglab.__all__ if not hasattr(reglab, name)]
    assert missing == []
