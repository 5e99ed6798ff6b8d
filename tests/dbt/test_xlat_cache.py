"""Tests for the persistent translation cache.

The contract under test: a cache hit must be indistinguishable from a
fresh translation (bit-identical RunResult), invalidation must be
keyed on content (guest bytes, config, code/schema revision), and a
damaged disk entry degrades to a translate-and-rewrite, never an
error.  What the disk level guarantees by itself (namespaces, clear +
orphan sweep, damaged entries, concurrent writers) is the store
contract in ``tests/test_store.py``, which runs through this cache
too.
"""

import dataclasses
import json

import pytest

from repro.api import deterministic_row, kernel_grid, run_kernel, \
    run_parallel
from repro.dbt import xlat_cache
from repro.dbt.config import QEMU, RISOTTO, TCG_VER
from repro.dbt.xlat_cache import (
    XlatCache,
    block_key,
    config_fingerprint,
    trace_key,
)
from repro.errors import TranslationError
from repro.store import DiskStore
from repro.tcg.backend_arm import ArmBackend, CompiledBlock, HelperRequest
from repro.tcg.optimizer import OptStats
from repro.workloads.kernels import KernelSpec
from tests.import_closure import import_closure

TINY = KernelSpec("tiny", loads=2, stores=1, alu=2, fp=1,
                  iterations=40, threads=2, working_set=64)


@pytest.fixture()
def cache_env(tmp_path, monkeypatch):
    """An isolated enabled cache rooted in the test's tmp dir."""
    monkeypatch.setenv("REPRO_XLAT_CACHE", str(tmp_path / "xlat"))
    xlat_cache.reset_stats()
    yield tmp_path / "xlat"
    xlat_cache.reset_memory()


def _entry() -> tuple[CompiledBlock, OptStats]:
    compiled = CompiledBlock(
        guest_pc=0x400000,
        asm="block_400000:\n    dmbld\n    ret\n",
        helper_requests=[HelperRequest(
            trap_label="__helper_write_int_1", helper="write_int",
            arg_regs=("x13",), ret_reg=None)],
        guest_insns=3,
        op_count=7,
        fence_origins=["RMOV->ld;Frm"],
    )
    return compiled, OptStats(folded=2, dead_removed=1)


class TestKeying:
    def test_key_covers_guest_bytes(self):
        fp = config_fingerprint(RISOTTO)
        same = block_key(fp, 0x400000, b"\x90" * 64)
        assert same == block_key(fp, 0x400000, b"\x90" * 64)
        assert same != block_key(fp, 0x400000, b"\x90" * 63 + b"\x91")
        assert same != block_key(fp, 0x400008, b"\x90" * 64)

    def test_config_drift_invalidates(self):
        # Different fence schemes / CAS policies translate differently.
        fps = {config_fingerprint(c) for c in (QEMU, TCG_VER, RISOTTO)}
        assert len(fps) == 3

    def test_name_and_linker_do_not_invalidate(self):
        # Neither changes a single translated block, so identically
        # configured variants share entries.
        twin = RISOTTO.with_overrides(name="other",
                                      use_host_linker=False)
        assert config_fingerprint(twin) == config_fingerprint(RISOTTO)

    def test_schema_drift_invalidates(self, monkeypatch):
        before = config_fingerprint(RISOTTO)
        monkeypatch.setattr(xlat_cache, "SCHEMA", "repro-xlat/999")
        assert config_fingerprint(RISOTTO) != before

    def test_code_salt_covers_the_import_closure(self):
        """Every ``repro`` module the salted modules import, directly
        or transitively, is salted too — an edit to any of them (a
        fence origin format, a pair set, an elimination side condition)
        must change the key.  Only the error types and the obs layer
        cannot change a translated block."""
        salted = set(xlat_cache.SALTED_MODULES)
        closure = import_closure(salted)
        unsalted = sorted(
            name for name in closure - salted
            if name != "repro.errors" and not name.startswith("repro.obs.")
        )
        assert unsalted == []
        assert {"repro.core.most", "repro.core.transforms",
                "repro.tcg.backend_arm"} <= closure


class TestDiskLayer:
    def test_round_trip(self, tmp_path):
        cache = XlatCache(tmp_path)
        compiled, opt = _entry()
        cache.put("ab" * 32, compiled, opt)
        cache.clear_memory()  # force the disk path
        hit = cache.get("ab" * 32)
        assert hit is not None and hit.source == "disk"
        assert hit.compiled == compiled
        assert hit.opt_stats == opt

    def test_corrupt_entry_reads_as_miss(self, tmp_path):
        cache = XlatCache(tmp_path)
        compiled, opt = _entry()
        cache.put("ab" * 32, compiled, opt)
        path = DiskStore(tmp_path).path("ab" * 32)
        path.write_text("{ not json")
        cache.clear_memory()
        before = xlat_cache.cache_stats().corrupt_entries
        assert cache.get("ab" * 32) is None
        assert xlat_cache.cache_stats().corrupt_entries == before + 1
        # The following store rewrites the damaged entry in place.
        cache.put("ab" * 32, compiled, opt)
        cache.clear_memory()
        assert cache.get("ab" * 32) is not None

    def test_short_opt_stats_list_is_corrupt_not_zero_filled(
            self, tmp_path):
        # The positional list is read back as ``OptStats(*values)``: a
        # truncated one must not pass through the field defaults.
        cache = XlatCache(tmp_path)
        compiled, opt = _entry()
        cache.put("ab" * 32, compiled, opt)
        path = DiskStore(tmp_path).path("ab" * 32)
        payload = json.loads(path.read_text())
        assert payload["opt_stats"] == list(dataclasses.astuple(opt))
        payload["opt_stats"].pop()
        path.write_text(json.dumps(payload))
        cache.clear_memory()
        before = xlat_cache.cache_stats().corrupt_entries
        assert cache.get("ab" * 32) is None
        assert xlat_cache.cache_stats().corrupt_entries == before + 1

    def test_stale_schema_entry_reads_as_miss(self, tmp_path,
                                              monkeypatch):
        cache = XlatCache(tmp_path)
        compiled, opt = _entry()
        cache.put("ab" * 32, compiled, opt)
        cache.clear_memory()
        monkeypatch.setattr(xlat_cache, "SCHEMA", "repro-xlat/999")
        assert cache.get("ab" * 32) is None


#: Entries that parse as JSON and carry every field, yet cannot be
#: installed: asm that does not assemble, one fence origin missing
#: for the DMBs the asm has, a label defined twice.
WELL_FORMED_DAMAGE = {
    "bad-asm": lambda payload: payload.update(
        asm=payload["asm"].replace("ret", "frobnicate x0")),
    "origin-short": lambda payload: payload["fence_origins"].pop(),
    "duplicate-label": lambda payload: payload.update(
        asm=payload["asm"] + "block_400000:\n"),
}
KEYS = {
    "block": block_key("fp", 0x400000, b"\x90" * 64),
    "trace": trace_key("fp", [(0x400000, b"\x90" * 64),
                              (0x400010, b"\x91" * 64)]),
}


def _damage(path, how) -> None:
    payload = json.loads(path.read_text())
    how(payload)
    path.write_text(json.dumps(payload))


class TestWellFormedDamage:
    """A cache is an accelerator, never a correctness dependency: an
    entry that decodes but does not link is a counted miss, not a
    ``TranslationError`` out of the warm run's install."""

    @pytest.mark.parametrize("kind", sorted(KEYS))
    @pytest.mark.parametrize("damage", sorted(WELL_FORMED_DAMAGE))
    def test_is_a_counted_miss_and_is_rewritten(self, tmp_path, kind,
                                                damage):
        cache = XlatCache(tmp_path)
        compiled, opt = _entry()
        key = KEYS[kind]
        cache.put(key, compiled, opt)
        path = DiskStore(tmp_path).path(key)
        whole = path.read_text()
        _damage(path, WELL_FORMED_DAMAGE[damage])
        cache.clear_memory()
        before = xlat_cache.cache_stats().corrupt_entries
        assert cache.get(key) is None
        assert xlat_cache.cache_stats().corrupt_entries == before + 1
        cache.put(key, compiled, opt)
        assert path.read_text() == whole
        cache.clear_memory()
        hit = cache.get(key)
        assert hit is not None and hit.source == "disk"
        # Decoding linked it: the engine installs with no parsing.
        assert hit.compiled.linked.dmb_offsets == (0,)

    def test_warm_run_over_a_damaged_store_is_bit_identical(
            self, cache_env):
        def run():
            return run_kernel(TINY, variant="risotto",
                              tier2_threshold=1).result

        cold = run()
        entries = DiskStore(cache_env).entries()
        # Block entries and trace entries both.
        assert len(entries) > cold.stats.xlat_misses > 0
        for _, _, path in entries:
            _damage(path, lambda payload:
                    payload["fence_origins"].append("bogus"))
        xlat_cache.reset_memory()
        xlat_cache.reset_stats()
        warm = run()
        assert xlat_cache.cache_stats().corrupt_entries == len(entries)
        assert warm.stats.xlat_hits == 0
        assert (warm.elapsed_cycles, warm.total_cycles,
                warm.fence_cycles_by_origin, warm.opt_stats) == \
            (cold.elapsed_cycles, cold.total_cycles,
             cold.fence_cycles_by_origin, cold.opt_stats)
        # ...and the warm run's puts repaired every entry.
        xlat_cache.reset_memory()
        xlat_cache.reset_stats()
        assert run().stats.xlat_misses == 0
        assert xlat_cache.cache_stats().corrupt_entries == 0

    def test_fresh_mismatch_is_still_a_translation_error(
            self, cache_env, monkeypatch):
        plain = ArmBackend.compile_block

        def one_origin_too_many(self, block):
            compiled = plain(self, block)
            compiled.fence_origins.append("bogus")
            return compiled

        monkeypatch.setattr(ArmBackend, "compile_block",
                            one_origin_too_many)
        for _ in range(2):  # the entry it stored must not mask it
            xlat_cache.reset_memory()
            with pytest.raises(TranslationError,
                               match="recorded fence origins"):
                run_kernel(TINY, variant="risotto")


class TestEviction:
    def test_disk_budget_is_enforced(self, tmp_path):
        compiled, opt = _entry()
        entry_size = len(
            xlat_cache._entry_to_json(compiled, opt).encode())
        cache = XlatCache(tmp_path, max_disk_bytes=entry_size * 3)
        keys = [f"{i:02x}" * 32 for i in range(8)]
        for key in keys:
            cache.put(key, compiled, opt)
        count, total = cache.disk_usage()
        assert total <= entry_size * 3
        assert count == 3

    def test_just_written_entry_survives_tiny_budget(self, tmp_path):
        compiled, opt = _entry()
        cache = XlatCache(tmp_path, max_disk_bytes=1)
        cache.put("ab" * 32, compiled, opt)
        cache.clear_memory()
        assert cache.get("ab" * 32) is not None

    def test_memory_lru_is_bounded(self, tmp_path):
        compiled, opt = _entry()
        cache = XlatCache(tmp_path, max_mem_entries=2)
        keys = [f"{i:02x}" * 32 for i in range(4)]
        for key in keys:
            cache.put(key, compiled, opt)
        assert len(cache._mem) == 2
        # Oldest keys fell out of memory but still hit on disk.
        hit = cache.get(keys[0])
        assert hit is not None and hit.source == "disk"


class TestEngineIntegration:
    def _run(self, variant="risotto"):
        return run_kernel(TINY, variant=variant)

    def test_warm_run_is_bit_identical(self, cache_env):
        cold = self._run()
        assert cold.result.stats.xlat_misses > 0
        assert cold.result.stats.xlat_hits == 0
        xlat_cache.reset_memory()  # prove the *disk* layer alone
        warm = self._run()
        assert warm.result.stats.xlat_misses == 0
        assert warm.result.stats.xlat_hits == \
            cold.result.stats.xlat_misses
        assert warm.result.stats.xlat_disk_hits == \
            warm.result.stats.xlat_hits
        assert warm.checksum == cold.checksum
        assert warm.result.elapsed_cycles == cold.result.elapsed_cycles
        assert warm.result.total_cycles == cold.result.total_cycles
        assert warm.result.fence_cycles == cold.result.fence_cycles
        assert warm.result.opt_stats == cold.result.opt_stats
        assert warm.result.fence_cycles_by_origin == \
            cold.result.fence_cycles_by_origin
        assert warm.result.block_profile == cold.result.block_profile

    def test_variants_do_not_share_entries(self, cache_env):
        qemu = self._run("qemu")
        risotto = self._run("risotto")
        # Different fence policies translate differently — the second
        # variant must not have been served the first one's blocks.
        assert risotto.result.stats.xlat_hits == 0
        assert qemu.result.stats.xlat_hits == 0

    def test_disabled_cache_still_counts_misses(self, monkeypatch):
        monkeypatch.setenv("REPRO_XLAT_CACHE", "off")
        assert xlat_cache.get_cache() is None
        outcome = self._run()
        assert outcome.result.stats.xlat_misses == \
            outcome.result.stats.blocks_translated
        assert outcome.result.stats.xlat_hits == 0

    def test_guest_byte_drift_invalidates(self, cache_env):
        cold = self._run()
        xlat_cache.reset_memory()
        # A different kernel emits different guest code at the same
        # addresses: nothing from the first run may be served.
        other = dataclasses.replace(TINY, name="other", alu=5)
        fresh = run_kernel(other, variant="risotto")
        assert fresh.result.stats.xlat_hits == 0
        assert fresh.checksum != cold.checksum or \
            fresh.result.elapsed_cycles != cold.result.elapsed_cycles


class TestCrossWorkerSharing:
    def test_pool_workers_share_the_disk_cache(self, cache_env):
        grid = kernel_grid((TINY,), ("qemu", "risotto"))
        cold = run_parallel(grid, workers=2)
        assert sum(r.xlat_misses for r in cold) > 0
        xlat_cache.reset_memory()
        warm = run_parallel(grid, workers=2)
        assert sum(r.xlat_misses for r in warm) == 0
        assert sum(r.xlat_hits for r in warm) == \
            sum(r.xlat_misses for r in cold)
        for left, right in zip(cold, warm):
            assert deterministic_row(left) == deterministic_row(right)
