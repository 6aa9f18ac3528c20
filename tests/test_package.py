"""The package's public surface."""

import maximin_al


def test_every_export_resolves():
    missing = [name for name in maximin_al.__all__ if not hasattr(maximin_al, name)]
    assert missing == []
