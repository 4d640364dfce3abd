"""The package's public names."""

from collections import Counter

import ppp


def test_every_export_resolves_once():
    """A deleted function cannot leave a dead or doubled entry in ``ppp.__all__``."""
    assert [name for name in ppp.__all__ if not hasattr(ppp, name)] == []
    assert [name for name, n in Counter(ppp.__all__).items() if n > 1] == []
