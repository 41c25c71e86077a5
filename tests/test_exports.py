"""The package's export surface."""

import gevreyflow


def test_every_exported_name_resolves():
    missing = [name for name in gevreyflow.__all__ if not hasattr(gevreyflow, name)]
    assert missing == []
    assert len(set(gevreyflow.__all__)) == len(gevreyflow.__all__)
