"""Tests for the persistent translation cache.

The contract under test: a cache hit must be indistinguishable from a
fresh translation (bit-identical RunResult), invalidation must be
keyed on content (guest bytes, config, code/schema revision), a
damaged disk entry degrades to a translate-and-rewrite, never an
error, and a hit installs the stored linked form without assembling.
What the disk level guarantees by itself (namespaces, clear +
orphan sweep, damaged entries, concurrent writers) is the store
contract in ``tests/test_store.py``, which runs through this cache
too.
"""

import copy
import dataclasses
import hashlib
import struct

import pytest

from repro import api
from repro.api import deterministic_row, execute_spec, kernel_grid, \
    kernel_job, run_kernel, run_parallel
from repro.dbt import DBTEngine, guest_reg, xlat_cache
from repro.dbt.config import QEMU, RISOTTO, SCHEME_VARIANTS, TCG_VER, \
    VARIANTS
from repro.dbt.xlat_cache import (
    XlatCache,
    block_key,
    config_fingerprint,
    trace_key,
)
from repro.errors import DecodeError, TranslationError
from repro.isa.arm import assembler
from repro.isa.arm.insns import CODER
from repro.isa.common import Imm, Insn, Mem, Reg
from repro.isa.x86 import assemble as assemble_x86
from repro.machine import cpu
from repro.machine.memory import Memory
from repro.store import DiskStore, code_salt
from repro.tcg.backend_arm import ArmBackend, CompiledBlock, HelperRequest
from repro.tcg.optimizer import OptStats
from repro.workloads import SPEC_BY_NAME
from repro.workloads.kernels import KernelSpec
from tests.import_closure import import_closure
from tests.store_entries import rewrite_entry

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
    compiled = CompiledBlock.from_records(
        guest_pc=0x400000,
        records=assembler.parse(
            "block_400000:\n    dmbld\n"
            "    bl __helper_write_int_1\n    ret\n"),
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
        rewrite_entry(tmp_path, "ab" * 32, b"{ not json")
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
        assert _header(tmp_path, "ab" * 32)[-len(_OPT):] == \
            dataclasses.astuple(opt)
        _drop_last_opt_counter(tmp_path, "ab" * 32)
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


#: The optimizer counters at the end of an entry's header.
_OPT = dataclasses.fields(OptStats)


def _header(directory, key) -> tuple:
    """The stored entry's header fields, counters last."""
    entry = DiskStore(directory).read(key)
    return xlat_cache._HEADER.unpack_from(
        entry, 32 + len(xlat_cache._schema_tag()))


def _reseal(payload: bytes) -> bytes:
    return hashlib.sha256(payload).digest() + payload


def _drop_last_opt_counter(directory, key) -> None:
    """Store the entry with one optimizer counter fewer, its count
    lowered to match, under a fresh digest."""
    entry = DiskStore(directory).read(key)
    tag = xlat_cache._schema_tag()
    at = 32 + len(tag)
    fields = xlat_cache._HEADER.unpack_from(entry, at)
    count = len(fields) - len(_OPT) - 1
    short = struct.pack(
        xlat_cache._HEADER.format.replace(f"B{len(_OPT)}I",
                                          f"B{len(_OPT) - 1}I"),
        *fields[:count], len(_OPT) - 1, *fields[count + 1:-1])
    rewrite_entry(directory, key, _reseal(
        tag + short + entry[at + xlat_cache._HEADER.size:]))


def _damage(directory, key, how, reseal: bool = True) -> None:
    """Store the entry's artifact as edited by ``how`` (block ->
    block); under a fresh digest unless ``reseal`` is off, so what
    refuses it is the layout check."""
    whole = DiskStore(directory).read(key)
    compiled, opt = xlat_cache._entry_from_bytes(whole)
    damaged = xlat_cache._entry_to_bytes(how(compiled), opt)
    if not reseal:
        damaged = whole[:32] + damaged[32:]
    rewrite_entry(directory, key, damaged)


def _linked(compiled, **changes):
    return dataclasses.replace(
        compiled, linked=dataclasses.replace(compiled.linked, **changes))


def _flip_code_byte(compiled):
    code = bytearray(compiled.linked.code)
    code[len(code) // 2] ^= 0x01
    return _linked(compiled, code=bytes(code))


def _reloc_past_end(compiled):
    (_, label), *rest = compiled.linked.relocs
    return _linked(compiled, relocs=(
        (len(compiled.linked.code) - 4, label), *rest))


def _label_past_end(compiled):
    return _linked(compiled, labels={
        **compiled.linked.labels,
        "block_400000": len(compiled.linked.code) + 1})


def _origins(compiled, origins):
    return dataclasses.replace(compiled, fence_origins=origins)


#: Entries that decode and carry every field, yet must not be
#: installed, each as (edit, reseal): a code byte flipped under the
#: old digest, a relocation or a label past the end of the code, one
#: fence origin missing for the DMBs the code has.
WELL_FORMED_DAMAGE = {
    "code-flip": (_flip_code_byte, False),
    "reloc-past-end": (_reloc_past_end, True),
    "label-past-end": (_label_past_end, True),
    "origin-short": (lambda compiled: _origins(
        compiled, compiled.fence_origins[:-1]), True),
}
KEYS = {
    "block": block_key("fp", 0x400000, b"\x90" * 64),
    "trace": trace_key("fp", [(0x400000, b"\x90" * 64),
                              (0x400010, b"\x91" * 64)]),
}


class TestWellFormedDamage:
    """A cache is an accelerator, never a correctness dependency: an
    entry that fails its digest or layout check is a counted miss, not
    a wrong block or an error out of the warm run's install."""

    @pytest.mark.parametrize("kind", sorted(KEYS))
    @pytest.mark.parametrize("damage", sorted(WELL_FORMED_DAMAGE))
    def test_is_a_counted_miss_and_is_rewritten(self, tmp_path, kind,
                                                damage):
        cache = XlatCache(tmp_path)
        compiled, opt = _entry()
        key = KEYS[kind]
        cache.put(key, compiled, opt)
        whole = DiskStore(tmp_path).read(key)
        _damage(tmp_path, key, *WELL_FORMED_DAMAGE[damage])
        cache.clear_memory()
        before = xlat_cache.cache_stats().corrupt_entries
        assert cache.get(key) is None
        assert xlat_cache.cache_stats().corrupt_entries == before + 1
        cache.put(key, compiled, opt)
        assert DiskStore(tmp_path).read(key) == whole
        cache.clear_memory()
        hit = cache.get(key)
        assert hit is not None and hit.source == "disk"
        assert hit.compiled == compiled
        assert hit.compiled.linked.dmb_offsets == (0,)

    def test_any_flipped_byte_is_a_counted_miss(self, tmp_path):
        cache = XlatCache(tmp_path, max_mem_entries=0)
        compiled, opt = _entry()
        key = KEYS["block"]
        cache.put(key, compiled, opt)
        whole = DiskStore(tmp_path).read(key)
        before = xlat_cache.cache_stats().corrupt_entries
        for index in range(len(whole)):
            flipped = bytearray(whole)
            flipped[index] ^= 0x01
            rewrite_entry(tmp_path, key, bytes(flipped))
            assert cache.get(key) is None, index
        assert xlat_cache.cache_stats().corrupt_entries == \
            before + len(whole)
        rewrite_entry(tmp_path, key, whole)
        assert cache.get(key).compiled == compiled

    @pytest.mark.parametrize("eighth", range(8))
    def test_truncated_row_is_a_counted_miss_and_is_rewritten(
            self, tmp_path, eighth):
        """What a half-written row would hold: the entry cut at one of
        eight evenly spaced lengths, from nothing to seven eighths."""
        cache = XlatCache(tmp_path)
        compiled, opt = _entry()
        key = KEYS["block"]
        cache.put(key, compiled, opt)
        whole = DiskStore(tmp_path).read(key)
        rewrite_entry(tmp_path, key, whole[:len(whole) * eighth // 8])
        cache.clear_memory()
        before = xlat_cache.cache_stats().corrupt_entries
        assert cache.get(key) is None
        assert xlat_cache.cache_stats().corrupt_entries == before + 1
        cache.put(key, compiled, opt)
        assert DiskStore(tmp_path).read(key) == whole
        cache.clear_memory()
        assert cache.get(key).compiled == compiled

    def test_warm_run_over_a_damaged_store_is_bit_identical(
            self, cache_env):
        def run():
            return run_kernel(TINY, variant="risotto",
                              tier2_threshold=1).result

        cold = run()
        entries = DiskStore(cache_env).entries()
        # Block entries and trace entries both.
        assert len(entries) > cold.stats.xlat_misses > 0
        for _, _, key in entries:
            _damage(cache_env, key, lambda compiled: _origins(
                compiled, [*compiled.fence_origins, "bogus"]))
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
        # The backend links a block once, where it checks the DMBs
        # against the origins it recorded; record one too many.
        plain = CompiledBlock.from_records.__func__

        def one_origin_too_many(cls, **block):
            block["fence_origins"] = [*block["fence_origins"], "bogus"]
            return plain(cls, **block)

        monkeypatch.setattr(CompiledBlock, "from_records",
                            classmethod(one_origin_too_many))
        for _ in range(2):  # the entry it stored must not mask it
            xlat_cache.reset_memory()
            with pytest.raises(TranslationError,
                               match="recorded fence origins"):
                run_kernel(TINY, variant="risotto")


def _undecodable(compiled):
    return _linked(compiled, code=b"\xee" * len(compiled.linked.code))


def _misaligned(compiled):
    """Lengths that still tile the code, one byte off at the first
    instruction boundary."""
    first, second, *rest = compiled.linked.lengths
    return _linked(compiled,
                   lengths=bytes((first - 1, second + 1, *rest)))


def _unbound_label(compiled):
    (offset, _), *rest = compiled.linked.relocs
    return _linked(compiled, relocs=((offset, "nowhere"), *rest))


def _unknown_helper(compiled):
    return dataclasses.replace(compiled, helper_requests=[
        dataclasses.replace(request, helper="helper_nope")
        for request in compiled.helper_requests])


#: Entries sealed under their own digest and laid out within their
#: code, that still cannot be installed: every code byte an unknown
#: opcode, instruction lengths that split the code in the wrong place
#: or stop one instruction short of its end, a relocation naming a
#: label nothing binds, requests naming a helper the runtime lacks.
UNINSTALLABLE = {
    "undecodable": _undecodable,
    "misaligned-lengths": _misaligned,
    "lengths-short": lambda compiled: _linked(
        compiled, lengths=compiled.linked.lengths[:-1]),
    "unbound-label": _unbound_label,
    "unknown-helper": _unknown_helper,
}


class TestUninstallableEntries:
    """What only the install can find out about a sealed entry (its
    placed bytes are not the instructions its lengths describe, or it
    names a label or a helper nothing provides) makes it a counted
    miss like any other damage: the block is compiled afresh, stored
    over it and installed."""

    @pytest.mark.parametrize("damage", sorted(UNINSTALLABLE))
    def test_a_warm_run_over_them_is_bit_identical(self, cache_env,
                                                   damage):
        def run():
            return run_kernel(TINY, variant="risotto",
                              tier2_threshold=1).result

        def observed(result):
            return (result.elapsed_cycles, result.total_cycles,
                    result.fence_cycles_by_origin, result.opt_stats,
                    result.block_profile)

        cold = run()
        entries = DiskStore(cache_env).entries()
        # Block entries and trace entries both.
        assert len(entries) > cold.stats.xlat_misses > 0
        for _, _, key in entries:
            _damage(cache_env, key, UNINSTALLABLE[damage])
        xlat_cache.reset_memory()
        xlat_cache.reset_stats()
        warm = run()
        stats = xlat_cache.cache_stats()
        assert stats.corrupt_entries == len(entries)
        assert stats.hits == stats.disk_hits == 0
        assert stats.misses == stats.lookups
        assert warm.stats.xlat_hits == 0
        assert observed(warm) == observed(cold)
        # The fresh compiles replaced them on both levels.
        for tier in ("memory", "disk"):
            if tier == "disk":
                xlat_cache.reset_memory()
            xlat_cache.reset_stats()
            again = run()
            assert again.stats.xlat_misses == 0
            assert observed(again) == observed(cold)
            stats = xlat_cache.cache_stats()
            assert stats.corrupt_entries == 0
            assert getattr(stats, f"{tier}_hits") == stats.hits > 0

    @pytest.mark.parametrize("tier", ["disk", "memory"])
    def test_a_refused_hit_is_a_miss_and_leaves_memory(self, tmp_path,
                                                       tier):
        cache = XlatCache(tmp_path)
        compiled, opt = _entry()
        key = KEYS["block"]
        cache.put(key, compiled, opt)
        _damage(tmp_path, key, _undecodable)
        cache.clear_memory()
        hit = cache.get(key)
        if tier == "memory":
            hit = cache.get(key)
        assert hit.source == tier and key in cache._mem
        before = xlat_cache.cache_stats()
        cache.refuse(key, hit)
        moved = xlat_cache.cache_stats().since(before)
        assert key not in cache._mem
        assert (moved.hits, getattr(moved, f"{tier}_hits"), moved.misses,
                moved.corrupt_entries, moved.lookups) == (-1, -1, 1, 1, 0)


class TestEviction:
    def test_disk_budget_is_enforced(self, tmp_path):
        compiled, opt = _entry()
        entry_size = len(xlat_cache._entry_to_bytes(compiled, opt))
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


class TestStoreIsAFunctionOfItsKeys:
    def test_two_workers_and_one_fill_identical_stores(self, tmp_path,
                                                        monkeypatch):
        """The same sweep with two pool workers and with one leaves
        the same keys, each with byte-identical text (CI checks the
        same property on a fig12 slice)."""
        grid = kernel_grid((TINY,), ("qemu", "tcg-ver", "risotto"))
        stores = []
        for workers in (2, 1):
            directory = tmp_path / f"workers-{workers}"
            monkeypatch.setenv("REPRO_XLAT_CACHE", str(directory))
            run_parallel(grid, workers=workers)
            stores.append(DiskStore(directory))
        keys = [sorted(key for _, _, key in store.entries())
                for store in stores]
        assert keys[0] and keys[0] == keys[1]
        for key in keys[0]:
            assert stores[0].read(key) == stores[1].read(key), key


class TestHitsNeverAssemble:
    """A hit installs the stored linked form: with the assembler
    broken, a warm run over a filled store gives the cold run's row."""

    @staticmethod
    def _row():
        return execute_spec(kernel_job(TINY, variant="risotto",
                                       tier2_threshold=1))

    @pytest.mark.parametrize("tier", ["disk", "memory"])
    def test_warm_run_with_a_broken_assembler(self, cache_env,
                                              monkeypatch, tier):
        cold = self._row()
        assert cold.xlat_misses > 0
        if tier == "disk":
            xlat_cache.reset_memory()

        def refuse(source):
            raise AssertionError("a cache hit parsed asm")

        monkeypatch.setattr(assembler, "_link", refuse)
        xlat_cache.reset_stats()
        warm = self._row()
        assert warm.xlat_misses == 0
        assert deterministic_row(warm) == deterministic_row(cold)
        stats = xlat_cache.cache_stats()
        # The only misses are chains not worth a trace, which store
        # nothing; trace entries were served too, not just blocks.
        assert stats.stores == 0
        assert getattr(stats, f"{tier}_hits") == stats.hits \
            > warm.xlat_hits


class TestColdRunsNeitherParseNorDecode:
    """A fresh compile hands the linker records and the machine their
    decoded form: no asm text is parsed, and the machine decodes no
    byte the backend has just encoded."""

    @staticmethod
    def _row():
        return execute_spec(kernel_job(TINY, variant="risotto",
                                       tier2_threshold=1))

    @pytest.mark.parametrize("store", ["off", "empty"])
    def test_cold_run_with_a_broken_parser(self, tmp_path, monkeypatch,
                                           store):
        def fresh(name):
            monkeypatch.setenv("REPRO_XLAT_CACHE", "off" if store == "off"
                               else str(tmp_path / name))

        fresh("real")
        real = self._row()
        assert real.xlat_misses > 0

        def refuse(line):
            raise AssertionError("a cold run parsed asm text")

        monkeypatch.setattr(assembler, "parse_line", refuse)
        fresh("broken")
        try:
            assert deterministic_row(self._row()) == \
                deterministic_row(real)
        finally:
            xlat_cache.reset_memory()

    @pytest.mark.parametrize("tier", ["disk", "memory"])
    def test_machine_decodes_only_what_it_was_not_handed(
            self, tmp_path, monkeypatch, tier):
        decodes = []

        class Counting:
            def decode(self, data, offset=0):
                decodes.append(offset)
                return CODER.decode(data, offset)

        monkeypatch.setattr(cpu, "CODER", Counting())
        cold = self._row()  # cache off
        assert cold.xlat_misses > 0 and decodes == []
        monkeypatch.setenv("REPRO_XLAT_CACHE", str(tmp_path / "xlat"))
        try:
            self._row()  # fills the store: still fresh compiles
            assert decodes == []
            if tier == "disk":
                xlat_cache.reset_memory()
            warm = self._row()
        finally:
            xlat_cache.reset_memory()
        # Hits from either tier seed the machine with their records.
        disk_hits = warm.xlat_hits if tier == "disk" else 0
        assert warm.xlat_hits > 0 and warm.xlat_misses == 0
        assert warm.xlat_disk_hits == disk_hits
        assert decodes == []
        assert deterministic_row(warm) == deterministic_row(cold)


class TestEntriesAreAFunctionOfTheBlock:
    def test_two_compiles_of_one_block_are_equal(self, monkeypatch):
        """Helper trap labels are numbered within the block, so a
        block compiles to one linked form and one entry text in any
        process."""
        blocks = []
        plain = ArmBackend.compile_block

        def keep(self, block):
            blocks.append(copy.deepcopy(block))
            return plain(self, block)

        monkeypatch.setattr(ArmBackend, "compile_block", keep)
        run_kernel(dataclasses.replace(SPEC_BY_NAME["blackscholes"],
                                       iterations=3, threads=1),
                   variant="risotto")
        monkeypatch.undo()
        calling = 0
        for block in blocks:
            first, second = (ArmBackend().compile_block(
                copy.deepcopy(block)) for _ in range(2))
            assert first == second
            assert xlat_cache._entry_to_bytes(first, OptStats()) == \
                xlat_cache._entry_to_bytes(second, OptStats())
            calling += any(request.helper != "dispatch"
                           for request in first.helper_requests)
        assert calling >= 3

    def test_memory_level_keeps_the_linked_form_alone(self, tmp_path):
        compiled, opt = _entry()
        cache = XlatCache(tmp_path)
        cache.put("ab" * 32, compiled, opt)
        ((stored, _),) = cache._mem.values()
        assert stored == compiled and stored.insns == []
        assert compiled.insns, "the caller's block keeps its records"
        hit = cache.get("ab" * 32)
        assert hit.source == "memory" and hit.compiled.asm == ""


class TestAdjacentImages:
    """The frontend decodes on into an image mapped right where the
    one holding the pc ends, so the key window reads on too."""

    @staticmethod
    def _images(n: int, split: bool = True) -> list[tuple[int, bytes]]:
        first = assemble_x86("mov rax, 1\n", base=0x400000)
        second = assemble_x86(f"mov rbx, {n}\nhlt\n",
                              base=0x400000 + len(first.code))
        if not split:
            return [(first.base, first.code + second.code)]
        return [(first.base, first.code), (second.base, second.code)]

    def test_a_hit_never_serves_the_old_next_image(self, tmp_path):
        cache = XlatCache(tmp_path)

        def run(n):
            engine = DBTEngine(RISOTTO, n_cores=1, xlat_cache=cache,
                               tier2=None)
            for base, code in self._images(n):
                engine.load_image(base, code)
            result = engine.run(0x400000)
            return (guest_reg(engine.machine.core(0), "rbx"),
                    result.stats.xlat_hits)

        assert run(2) == (2, 0)
        assert run(7) == (7, 0)
        assert run(7) == (7, 1)

    @pytest.mark.parametrize("kind", ["block", "trace"])
    def test_key_covers_the_next_image_and_the_seam(self, tmp_path,
                                                   kind):
        cache = XlatCache(tmp_path)
        keys = set()
        for n, split in ((2, True), (7, True), (2, False)):
            memory = Memory()
            for base, code in self._images(n, split):
                memory.add_image(base, code)
            keys.add(cache.key_for(memory, 0x400000, "fp", 2048)
                     if kind == "block" else
                     cache.trace_key_for(memory, [0x400000], "fp", 2048))
        assert None not in keys and len(keys) == 3


class TestDecodeMemo:
    """A hit's records come from one bulk decode through a memo of
    the memory level: emptied with it, and bounded."""

    @staticmethod
    def _movs(first: int, count: int) -> bytes:
        return b"".join(CODER.encode(Insn("mov", (Reg("x0"), Imm(i))))
                        for i in range(first, first + count))

    def test_reset_empties_the_memo(self, cache_env):
        job = kernel_job(TINY, variant="risotto")
        execute_spec(job)
        xlat_cache.reset_memory()
        assert execute_spec(job).xlat_disk_hits > 0
        cache = xlat_cache.get_cache()
        assert cache._decoded
        api.reset_xlat_memory()
        assert cache._decoded == {} and cache._mem == {}

    def test_filling_past_the_bound_stays_within_it(self, tmp_path):
        cache = XlatCache(tmp_path)
        bound = xlat_cache.DECODE_MEMO_ENTRIES
        chunk = 1000
        for first in range(0, bound + 2 * chunk, chunk):
            code = self._movs(first, chunk)
            records = cache.records(code, 0x1000)
            assert len(records) == chunk
            assert records[0x1000] == (Insn("mov", (Reg("x0"),
                                                    Imm(first))), 13)
            assert len(cache._decoded) <= bound
        assert cache._decoded, "the memo starts over, it is not off"

    def test_a_repeated_encoding_is_decoded_once(self, monkeypatch):
        decoded = []
        plain = type(CODER).decode

        def counting(self, data, offset=0):
            decoded.append(offset)
            return plain(self, data, offset)

        monkeypatch.setattr(type(CODER), "decode", counting)
        memo = {}
        code = self._movs(7, 1) * 3 + self._movs(8, 1)
        records = CODER.decode_block(code, 0x40, memo)
        assert sorted(records) == [0x40, 0x4D, 0x5A, 0x67]
        assert decoded == [0, 39]
        assert records[0x40][0] is records[0x5A][0]
        CODER.decode_block(code, 0x80, memo)
        assert decoded == [0, 39]

    def test_unknown_opcode_raises_what_decode_raises(self):
        unknown = min(set(range(256)) - set(CODER.opcodes.values())
                      - {0xF0})
        code = self._movs(1, 2) + bytes((unknown, 0))
        with pytest.raises(DecodeError) as plain:
            CODER.decode(code, 26)
        for memo in ({}, {code[:13]: Insn("mov", (Reg("x0"), Imm(1)))}):
            with pytest.raises(DecodeError) as bulk:
                CODER.decode_block(code, 0x1000, memo)
            assert str(bulk.value) == str(plain.value)

    def test_truncated_code_is_a_decode_error(self):
        mem = CODER.encode(Insn("ldr", (Reg("x0"),
                                        Mem(base="x1", offset=8))))
        code = self._movs(1, 2) + mem
        assert len(CODER.decode_block(code, 0, {})) == 3
        ends = {0, 13, 26, len(code)}
        for cut in range(len(code)):
            if cut in ends:
                continue
            with pytest.raises(DecodeError, match="truncated"):
                CODER.decode_block(code[:cut], 0, {})


class TestDecodeByLengths:
    """Given the linker's instruction lengths, the bulk decode advances
    by them instead of walking operand tags, and holds the code to
    them."""

    @staticmethod
    def _code() -> tuple[bytes, bytes]:
        insns = [Insn("mov", (Reg("x0"), Imm(7))), Insn("dmbff"),
                 Insn("ldr", (Reg("x0"), Mem(base="x1", offset=8))),
                 Insn("mov", (Reg("x0"), Imm(7)))]
        encoded = [CODER.encode(insn) for insn in insns]
        return b"".join(encoded), bytes(map(len, encoded))

    def test_lengths_give_the_walk_s_records(self):
        code, lengths = self._code()
        walked = CODER.decode_block(code, 0x40, {})
        assert CODER.decode_block(code, 0x40, {}, lengths) == walked
        assert [size for _, size in walked.values()] == list(lengths)

    def test_a_memo_hit_decodes_nothing(self, monkeypatch):
        code, lengths = self._code()
        memo = {}
        CODER.decode_block(code, 0, memo, lengths)

        def refuse(self, data, offset=0):
            raise AssertionError("a memo hit decoded")

        monkeypatch.setattr(type(CODER), "decode", refuse)
        assert len(CODER.decode_block(code, 0x80, memo, lengths)) == 4

    @pytest.mark.parametrize("edit", ["short", "long"])
    def test_lengths_must_tile_the_code(self, edit):
        """One length too few, or the last one a byte long: its bytes,
        cut off by the end of the code, are the first instruction's, a
        memo hit, so only the final tally sees it."""
        code, lengths = self._code()
        lengths = lengths[:-1] if edit == "short" \
            else lengths[:-1] + bytes((lengths[-1] + 1,))
        with pytest.raises(DecodeError, match="do not cover"):
            CODER.decode_block(code, 0, {}, lengths)

    def test_a_miss_must_decode_to_its_length(self):
        """Nor is a record kept under bytes that are not exactly its
        encoding, which a later hit would take on trust."""
        code, lengths = self._code()
        shifted = bytes((lengths[0] + 1, lengths[1] - 1, *lengths[2:]))
        memo = {}
        for _ in range(2):
            with pytest.raises(DecodeError, match="bytes, not"):
                CODER.decode_block(code, 0, memo, shifted)
            assert memo == {}


class TestPerProcessMemos:
    """The fingerprint and the directory are resolved once per
    process, yet every change to what they depend on is seen."""

    @pytest.mark.parametrize("name", [*VARIANTS, *SCHEME_VARIANTS])
    def test_fingerprint_is_the_digest_of_the_config(self, name):
        config = {**VARIANTS, **SCHEME_VARIANTS}[name]
        digest = hashlib.sha256(
            f"{xlat_cache.SCHEMA}|{(config.frontend, config.optimizer)!r}"
            f"|{code_salt(xlat_cache.SALTED_MODULES)}".encode()
        ).hexdigest()
        assert config_fingerprint(config) == digest
        assert config_fingerprint(config) == digest  # memoized

    def test_a_new_root_gets_its_own_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_XLAT_CACHE", str(tmp_path / "one"))
        one = xlat_cache.get_cache()
        assert xlat_cache.get_cache() is one
        monkeypatch.setenv("REPRO_XLAT_CACHE", str(tmp_path / "two"))
        two = xlat_cache.get_cache()
        assert two._disk.directory == tmp_path / "two"
        monkeypatch.setenv("REPRO_XLAT_CACHE", "off")
        assert xlat_cache.get_cache() is None
        monkeypatch.setenv("REPRO_XLAT_CACHE", str(tmp_path / "one"))
        assert xlat_cache.get_cache() is one

    def test_a_new_namespace_gets_its_own_cache(self, tmp_path,
                                                monkeypatch):
        monkeypatch.setenv("REPRO_XLAT_CACHE", str(tmp_path))
        root = xlat_cache.get_cache()
        monkeypatch.setenv("REPRO_XLAT_CACHE_NS", "alice")
        alice = xlat_cache.get_cache()
        assert alice._disk.directory == tmp_path / "alice"
        assert xlat_cache.get_cache("bob")._disk.directory == \
            tmp_path / "bob"
        monkeypatch.delenv("REPRO_XLAT_CACHE_NS")
        assert xlat_cache.get_cache() is root
        assert xlat_cache.get_cache("alice") is alice

    def test_a_new_working_directory_gets_its_own_cache(
            self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_XLAT_CACHE")
        caches = []
        for name in ("here", "there"):
            (tmp_path / name).mkdir()
            monkeypatch.chdir(tmp_path / name)
            caches.append(xlat_cache.get_cache())
            assert caches[-1]._disk.directory == \
                tmp_path / name / ".repro-cache" / "xlat"
        assert caches[0] is not caches[1]
