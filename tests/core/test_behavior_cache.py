"""Behaviour-cache keying and persistence.

Two concerns:

* **Key identity** — the memo used to key on ``(program, model.name)``,
  so an ablated/variant model that legitimately reuses a standard name
  silently inherited the standard model's cached behaviours.  The key
  is now a content fingerprint of the model; the regression tests here
  fail under the old scheme.
* **Disk layer** — behaviours persist across processes (and across
  ``run_parallel`` workers) in ``REPRO_BEHAVIOR_CACHE``; entries must
  survive in-memory clears, tolerate corruption, and honour the off
  switch.  What the disk level guarantees by itself (layout,
  traversal-safe namespaces, clear + orphan sweep, damaged entries,
  concurrent writers) is the store contract in ``tests/test_store.py``,
  which runs through this cache too; here it is checked from
  ``behaviors()`` down, memo and counters included.
"""

import pytest

from repro.core import ARM, ARM_ORIGINAL, SC, X86
from repro.core import behavior_cache
from repro.core import litmus_library as L
from repro.core import mappings as M
from repro.core.enumerate import (
    behavior_cache_stats,
    behaviors,
    clear_behavior_cache,
)
from repro.core.litmus_library import R, W, outcome, shows, x86
from repro.core.events import Arch
from repro.core.models import armcats
from repro.core.models.terms import ATOMICITY, SC_PER_LOC, MemoryModel, \
    irreflexive
from repro.store import DiskStore
from tests.import_closure import import_closure


def make_imposter() -> MemoryModel:
    """The original Arm-Cats terms (the paper's SBAL bug) dressed up
    under the corrected model's name."""
    return MemoryModel(ARM.name, ARM.arch, ARM_ORIGINAL.axioms)


def rebuilt_arm() -> MemoryModel:
    """The corrected Arm-Cats model built afresh from Figure 5's terms."""
    return MemoryModel("arm-cats", Arch.ARM,
                       (SC_PER_LOC, ATOMICITY, irreflexive(armcats.OB)))


@pytest.fixture
def disk_cache(tmp_path, monkeypatch):
    """Point the persistent layer at a private directory."""
    monkeypatch.setenv(behavior_cache.ENV_VAR, str(tmp_path))
    clear_behavior_cache()
    yield tmp_path
    clear_behavior_cache()


@pytest.fixture
def no_disk(monkeypatch):
    monkeypatch.setenv(behavior_cache.ENV_VAR, "off")
    clear_behavior_cache()
    yield
    clear_behavior_cache()


class TestModelKeyCollision:
    """Regression: cache key must be the model's content, not its name."""

    def test_variant_model_with_reused_name_not_conflated(self, no_disk):
        # The original Arm-Cats model (the paper's SBAL bug) dressed up
        # under the corrected model's name.  Keying on (program, name)
        # would hand it the corrected model's cached behaviours.
        prog = M.armcats_intended.apply(L.SBAL.program)
        weak = outcome(X=1, Y=1, T0_a=0, T1_b=0)

        imposter = make_imposter()
        assert imposter.name == "arm-cats"

        corrected = behaviors(prog, ARM)          # populates the cache
        impostor_behs = behaviors(prog, imposter)  # must NOT hit it
        assert impostor_behs != corrected
        assert not shows(corrected, weak)
        assert shows(impostor_behs, weak)

    def test_order_independent(self, no_disk):
        # Same collision with the imposter populating the cache first.
        prog = M.armcats_intended.apply(L.SBAL.program)
        imposter = make_imposter()
        first = behaviors(prog, imposter)
        assert behaviors(prog, ARM) != first

    def test_identical_config_still_shares_entries(self, no_disk):
        # Two models with the same name, arch and terms are the same
        # model and must share one entry (the point of fingerprinting
        # content).
        prog = M.armcats_intended.apply(L.MP.program)
        behaviors(prog, rebuilt_arm())
        before = behavior_cache_stats()
        behaviors(prog, rebuilt_arm())
        after = behavior_cache_stats()
        assert after.hits == before.hits + 1

    def test_fingerprints_differ_between_variants(self):
        assert ARM.fingerprint() != ARM_ORIGINAL.fingerprint()
        imposter = make_imposter()
        assert imposter.fingerprint() != ARM.fingerprint()
        assert rebuilt_arm().fingerprint() == ARM.fingerprint()


class TestCodeSalt:
    def test_code_salt_covers_the_import_closure(self):
        """Every ``repro.core`` module the enumerator or the models
        import, directly or transitively, is salted — a new evaluator
        or model module cannot fall out of the salt and serve stale
        behaviours.  Outside ``repro.core`` the closure is only the
        error types, the obs layer and the store, none of which can
        change a behaviour."""
        salted = set(behavior_cache.SALTED_MODULES)
        closure = import_closure(
            {"repro.core.enumerate", "repro.core.models"})
        unsalted = sorted(name for name in closure - salted
                          if name.startswith("repro.core."))
        assert {name for name in closure
                if not name.startswith("repro.core.")} <= {
            "repro.errors", "repro.store"} | {
            name for name in closure if name.startswith("repro.obs.")}
        assert unsalted == []
        assert {"repro.core.models.terms", "repro.core.dpor",
                "repro.core.behavior_cache"} <= closure
        assert salted <= closure


class TestProgramFingerprint:
    def test_name_excluded(self):
        a = x86("first", (W("X", 1),), (R("a", "X"),))
        b = x86("second", (W("X", 1),), (R("a", "X"),))
        assert behavior_cache.program_fingerprint(a) == \
            behavior_cache.program_fingerprint(b)

    def test_content_included(self):
        a = x86("p", (W("X", 1),))
        b = x86("p", (W("X", 2),))
        assert behavior_cache.program_fingerprint(a) != \
            behavior_cache.program_fingerprint(b)


class TestDiskLayer:
    def test_entry_written_and_reloaded(self, disk_cache):
        prog = x86("p", (W("X", 1),), (R("a", "X"),))
        first = behaviors(prog, X86)
        assert DiskStore(disk_cache).entries()
        # A fresh in-process memo (a new worker) loads from disk.
        clear_behavior_cache()
        again = behaviors(prog, X86)
        assert again == first
        stats = behavior_cache_stats()
        assert stats.disk_hits == 1
        assert stats.disk_misses == 0

    def test_memory_misses_split_into_disk_hits_and_misses(self,
                                                           disk_cache):
        prog = x86("p", (W("X", 1),), (R("a", "X"),))
        behaviors(prog, X86)
        clear_behavior_cache()
        behaviors(prog, X86)   # disk hit
        behaviors(prog, SC)    # disk miss -> enumerate + store
        stats = behavior_cache_stats()
        assert stats.misses == 2
        assert stats.disk_hits == 1
        assert stats.disk_misses == 1

    def test_corrupt_entry_is_a_miss(self, disk_cache):
        prog = x86("p", (W("X", 1),), (R("a", "X"),))
        expected = behaviors(prog, X86)
        for _, _, path in DiskStore(disk_cache).entries():
            path.write_text("{not json")
        clear_behavior_cache()
        assert behaviors(prog, X86) == expected
        assert behavior_cache_stats().disk_misses == 1

    def test_distinct_models_get_distinct_entries(self, disk_cache):
        prog = M.armcats_intended.apply(L.SBAL.program)
        imposter = make_imposter()
        corrected = behaviors(prog, ARM)
        clear_behavior_cache()
        # Imposter with the same name must not load ARM's disk entry.
        assert behaviors(prog, imposter) != corrected

    def test_off_switch_disables_persistence(self, no_disk):
        prog = x86("p", (W("X", 1),), (R("a", "X"),))
        behaviors(prog, X86)
        stats = behavior_cache_stats()
        assert stats.disk_hits == 0
        assert stats.disk_misses == 0
        assert not behavior_cache.enabled()

    def test_clear_disk_cache(self, disk_cache):
        prog = x86("p", (W("X", 1),), (R("a", "X"),))
        behaviors(prog, X86)
        assert behavior_cache.clear_disk_cache() >= 1
        assert not DiskStore(disk_cache).entries()

    def test_clear_with_disk_flag(self, disk_cache):
        prog = x86("p", (W("X", 1),), (R("a", "X"),))
        behaviors(prog, X86)
        clear_behavior_cache(disk=True)
        assert not DiskStore(disk_cache).entries()

    def test_cache_dir_override(self, disk_cache):
        assert behavior_cache.cache_dir() == disk_cache


class TestNamespaces:
    def test_namespace_becomes_a_subdirectory(self, disk_cache,
                                              monkeypatch):
        monkeypatch.setenv(behavior_cache.NAMESPACE_ENV, "shard-3")
        assert behavior_cache.cache_dir() == disk_cache / "shard-3"

    def test_unset_or_blank_namespace_is_the_root(self, disk_cache,
                                                  monkeypatch):
        monkeypatch.delenv(behavior_cache.NAMESPACE_ENV,
                           raising=False)
        assert behavior_cache.cache_dir() == disk_cache
        monkeypatch.setenv(behavior_cache.NAMESPACE_ENV, "   ")
        assert behavior_cache.cache_dir() == disk_cache

    def test_namespaces_do_not_share_entries(self, disk_cache,
                                             monkeypatch):
        prog = x86("p", (W("X", 1),), (R("a", "X"),))
        monkeypatch.setenv(behavior_cache.NAMESPACE_ENV, "left")
        first = behaviors(prog, X86)
        assert DiskStore(disk_cache / "left").entries()

        # The other namespace starts cold: the same program misses on
        # disk and re-enumerates into its own directory.
        clear_behavior_cache()
        monkeypatch.setenv(behavior_cache.NAMESPACE_ENV, "right")
        assert behavior_cache.load(prog, X86) is None
        again = behaviors(prog, X86)
        assert again == first
        assert DiskStore(disk_cache / "right").entries()

    def test_clear_touches_only_the_active_namespace(self, disk_cache,
                                                     monkeypatch):
        prog = x86("p", (W("X", 1),), (R("a", "X"),))
        monkeypatch.setenv(behavior_cache.NAMESPACE_ENV, "keep")
        behaviors(prog, X86)
        clear_behavior_cache()
        monkeypatch.setenv(behavior_cache.NAMESPACE_ENV, "drop")
        behaviors(prog, X86)
        assert behavior_cache.clear_disk_cache() == 1
        assert DiskStore(disk_cache / "keep").entries()
        assert not DiskStore(disk_cache / "drop").entries()

    def test_concurrent_writers_in_one_namespace_are_safe(
            self, disk_cache, monkeypatch):
        import threading

        monkeypatch.setenv(behavior_cache.NAMESPACE_ENV, "shared")
        prog = x86("p", (W("X", 1),), (R("a", "X"),))
        expected = behaviors(prog, X86)
        errors = []

        def writer():
            try:
                for _ in range(20):
                    behavior_cache.store(prog, X86, expected)
                    loaded = behavior_cache.load(prog, X86)
                    if loaded is not None and loaded != expected:
                        errors.append(loaded)
            except Exception as exc:  # pragma: no cover - fail loud
                errors.append(exc)

        threads = [threading.Thread(target=writer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert behavior_cache.load(prog, X86) == expected
