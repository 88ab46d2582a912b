"""The package's export list names only what the package holds, once each."""
from __future__ import annotations

import collections

import navscribe


def test_every_export_resolves_on_the_package():
    missing = [name for name in navscribe.__all__ if not hasattr(navscribe, name)]
    assert missing == []


def test_no_export_is_listed_twice():
    counts = collections.Counter(navscribe.__all__)
    assert [name for name, n in counts.items() if n > 1] == []
