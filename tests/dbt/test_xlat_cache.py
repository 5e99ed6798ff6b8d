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

import base64
import copy
import dataclasses
import json

import pytest

from repro.api import deterministic_row, execute_spec, kernel_grid, \
    kernel_job, run_kernel, run_parallel
from repro.dbt import DBTEngine, guest_reg, xlat_cache
from repro.dbt.config import QEMU, RISOTTO, TCG_VER
from repro.dbt.xlat_cache import (
    XlatCache,
    block_key,
    config_fingerprint,
    trace_key,
)
from repro.errors import TranslationError
from repro.isa.arm import assembler
from repro.isa.arm.insns import CODER
from repro.isa.x86 import assemble as assemble_x86
from repro.machine import cpu
from repro.machine.memory import Memory
from repro.store import DiskStore
from repro.tcg.backend_arm import ArmBackend, CompiledBlock, HelperRequest
from repro.tcg.optimizer import OptStats
from repro.workloads import SPEC_BY_NAME
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
        assert _payload(path)["opt_stats"] == \
            list(dataclasses.astuple(opt))
        _damage(path, lambda payload: payload["opt_stats"].pop())
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


def _payload(path) -> dict:
    return json.loads(path.read_text())["payload"]


def _damage(path, how, reseal: bool = True) -> None:
    """Edit a stored entry's payload; resealed under a fresh digest
    unless ``reseal`` is off, so what refuses it is the layout check."""
    payload = _payload(path)
    how(payload)
    text = json.dumps(payload, separators=(",", ":"))
    if reseal:
        path.write_text(xlat_cache._seal(text))
    else:
        whole = path.read_text()
        head = whole[:whole.index('"payload":') + len('"payload":')]
        path.write_text(head + text + "}")


def _flip_code_byte(payload) -> None:
    code = bytearray(base64.b64decode(payload["code"]))
    code[len(code) // 2] ^= 0x01
    payload["code"] = base64.b64encode(bytes(code)).decode()


def _code_size(payload) -> int:
    return len(base64.b64decode(payload["code"]))


#: Entries that parse as JSON and carry every field, yet must not be
#: installed, each as (edit, reseal): a code byte flipped under the
#: old digest, a relocation or a label past the end of the code, one
#: fence origin missing for the DMBs the code has.
WELL_FORMED_DAMAGE = {
    "code-flip": (_flip_code_byte, False),
    "reloc-past-end": (lambda payload: payload["relocs"][0].__setitem__(
        0, _code_size(payload) - 4), True),
    "label-past-end": (lambda payload: payload["labels"].__setitem__(
        "block_400000", _code_size(payload) + 1), True),
    "origin-short": (lambda payload: payload["fence_origins"].pop(),
                     True),
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
        path = DiskStore(tmp_path).path(key)
        whole = path.read_text()
        _damage(path, *WELL_FORMED_DAMAGE[damage])
        cache.clear_memory()
        before = xlat_cache.cache_stats().corrupt_entries
        assert cache.get(key) is None
        assert xlat_cache.cache_stats().corrupt_entries == before + 1
        cache.put(key, compiled, opt)
        assert path.read_text() == whole
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
        path = DiskStore(tmp_path).path(key)
        whole = path.read_bytes()
        before = xlat_cache.cache_stats().corrupt_entries
        for index in range(len(whole)):
            damaged = bytearray(whole)
            damaged[index] ^= 0x01
            path.write_bytes(bytes(damaged))
            assert cache.get(key) is None, index
        assert xlat_cache.cache_stats().corrupt_entries == \
            before + len(whole)
        path.write_bytes(whole)
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

    def test_machine_decodes_only_what_it_was_not_handed(
            self, tmp_path, monkeypatch):
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
            xlat_cache.reset_memory()
            warm = self._row()
        finally:
            xlat_cache.reset_memory()
        # Disk hits carry bytes only, so those are decoded.
        assert warm.xlat_disk_hits > 0 and warm.xlat_misses == 0
        assert decodes
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
            assert xlat_cache._entry_to_json(first, OptStats()) == \
                xlat_cache._entry_to_json(second, OptStats())
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
