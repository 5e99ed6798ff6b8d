"""Tier-1 suite isolation.

The persistent translation cache deliberately survives across runs, so
a warm checkout would change what the unit tests observe (e.g. which
pipeline spans fire).  The suite therefore runs with the cache off;
tests that exercise it opt in through their own tmp-dir fixtures,
which override this per-test default.
"""

import pytest


@pytest.fixture(autouse=True)
def _no_ambient_xlat_cache(monkeypatch):
    monkeypatch.setenv("REPRO_XLAT_CACHE", "off")
