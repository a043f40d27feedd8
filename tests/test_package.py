"""The package namespace: every exported name exists."""

import umbralqm


def test_every_export_resolves_and_the_list_is_sorted():
    missing = [name for name in umbralqm.__all__ if not hasattr(umbralqm, name)]
    assert missing == []
    assert umbralqm.__all__ == sorted(umbralqm.__all__)
