"""Tiered JIT: superblock promotion, helper inlining, and the
profile-attribution fixes that keep tier-2 honest.

Covers the second compilation tier end to end — promotion firing at
the hotness threshold, the stitched trace executing bit-identically to
the tier-1 blocks it replaces, the RMW/FP helper-call reduction — plus
regression tests for the three hot-path bugs fixed alongside it:

* ``block_profile_snapshot`` destroying open intervals mid-run,
* ``merge_fences_pass`` counting dropped empty fences as merges
  (unit-tested in tests/tcg/test_ir_and_optimizer.py),
* ``_finish_thread`` closing the profile before the exit drain.
"""

import dataclasses

import pytest

from repro.dbt import DBTEngine, VARIANTS
from repro.dbt.config import Tier2Config, tier2_from_env
from repro.errors import MachineError, ReproError
from repro.isa.x86 import assemble
from repro.tcg.ir import Const, Op, TCGBlock, Temp
from repro.tcg.optimizer import inline_helpers_pass
from repro.tcg.superblock import stitch_trace

COUNTER = 0xA000

#: A hot single-block loop: RMW + ALU body, then report the counter.
LOOP_SOURCE = f"""
main:
    mov rcx, 200
    mov rbx, {COUNTER}
    mov rax, 1
wloop:
    lock xadd [rbx], rax
    add rax, 1
    dec rcx
    jne wloop
    mov rdi, [rbx]
    mov rax, 1
    syscall
    mov rdi, 0
    mov rax, 60
    syscall
"""


def make_engine(variant="qemu", tier2=None, n_cores=1, seed=7):
    return DBTEngine(VARIANTS[variant], n_cores=n_cores, seed=seed,
                     tier2=tier2)


def load(engine, source=LOOP_SOURCE):
    assembly = assemble(source, base=0x400000)
    engine.load_image(assembly.base, assembly.code)
    return assembly.label("main")


def run_loop(variant="qemu", tier2=None):
    engine = make_engine(variant, tier2)
    result = engine.run(load(engine))
    return result, engine


# ----------------------------------------------------------------------
# Tentpole: promotion, trace execution, helper inlining
# ----------------------------------------------------------------------
class TestTier2Promotion:
    def test_promotion_fires_at_threshold(self):
        result, _ = run_loop(tier2=Tier2Config(threshold=8))
        assert result.stats.tier2_traces >= 1
        assert result.stats.tier2_trace_blocks >= 1
        assert result.stats.tier2_trace_dispatches >= 1
        assert result.stats.tier2_cycles > 0

    def test_off_by_default(self):
        result, engine = run_loop()
        assert engine.tier2 is None
        assert result.stats.tier2_traces == 0
        assert result.stats.tier2_trace_dispatches == 0

    def test_guest_visible_results_identical(self):
        off, _ = run_loop(tier2=None)
        on, _ = run_loop(tier2=Tier2Config(threshold=8))
        assert on.output == off.output
        assert on.exit_code == off.exit_code

    def test_cycles_reduced(self):
        off, _ = run_loop(tier2=None)
        on, _ = run_loop(tier2=Tier2Config(threshold=8))
        assert on.elapsed_cycles < off.elapsed_cycles

    def test_rmw_helper_calls_drop(self):
        # qemu translates lock xadd through helper_xadd; the trace
        # inlines it to ldaddal, so the helper count collapses to the
        # cold iterations before promotion.
        off, _ = run_loop(tier2=None)
        on, _ = run_loop(tier2=Tier2Config(threshold=8))
        assert off.stats.helper_calls >= 200
        assert on.stats.helper_calls < off.stats.helper_calls // 2

    def test_helpers_inlined_counted(self):
        on, engine = run_loop(tier2=Tier2Config(threshold=8))
        assert engine.opt_stats.helpers_inlined >= 1

    def test_fp_trace_bit_identical(self):
        # FP helper inlining must preserve the softfloat results
        # bit-for-bit (both sides are Python float64).
        source = """
main:
    mov rcx, 120
    mov r9, 4608308318706860032
    mov r10, 4602678819172646912
fploop:
    fadd r9, r10
    fmul r9, r10
    dec rcx
    jne fploop
    mov rdi, r9
    mov rax, 1
    syscall
    mov rdi, 0
    mov rax, 60
    syscall
"""
        def fp_run(tier2):
            engine = make_engine("qemu", tier2)
            return engine.run(load(engine, source))

        off = fp_run(None)
        on = fp_run(Tier2Config(threshold=8))
        assert on.output == off.output
        assert on.exit_code == off.exit_code
        assert on.elapsed_cycles < off.elapsed_cycles

    def test_trace_dispatch_counts_preserved(self):
        # Trace entries are still block dispatches of the head pc —
        # the profile keeps covering every dispatcher round-trip.
        on, _ = run_loop(tier2=Tier2Config(threshold=8))
        profile = on.block_profile
        assert sum(d for d, _ in profile.values()) \
            == on.stats.block_dispatches


class TestTier2EnvKnob:
    def test_unset_means_off(self, monkeypatch):
        monkeypatch.delenv("REPRO_TIER2_THRESHOLD", raising=False)
        assert tier2_from_env() is None

    @pytest.mark.parametrize("raw", ["0", "off", "none", "disabled",
                                     "", "-3"])
    def test_disabling_spellings(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_TIER2_THRESHOLD", raw)
        assert tier2_from_env() is None

    def test_integer_threshold(self, monkeypatch):
        monkeypatch.setenv("REPRO_TIER2_THRESHOLD", "64")
        assert tier2_from_env() == Tier2Config(threshold=64)

    def test_garbage_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_TIER2_THRESHOLD", "warp9")
        with pytest.raises(ReproError):
            tier2_from_env()

    def test_engine_picks_up_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_TIER2_THRESHOLD", "16")
        engine = DBTEngine(VARIANTS["qemu"], n_cores=1)
        assert engine.tier2 == Tier2Config(threshold=16)

    def test_explicit_none_overrides_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_TIER2_THRESHOLD", "16")
        engine = DBTEngine(VARIANTS["qemu"], n_cores=1, tier2=None)
        assert engine.tier2 is None

    def test_threshold_is_the_only_tier2_knob(self):
        # The trace cache key carries no tier-2 setting, so a knob
        # that changes the emitted trace would let one engine be
        # served another's trace: trace shape stays constant.
        assert [f.name for f in dataclasses.fields(Tier2Config)] == \
            ["threshold"]


# ----------------------------------------------------------------------
# Superblock stitcher unit behavior
# ----------------------------------------------------------------------
def _block(pc, *ops):
    return TCGBlock(guest_pc=pc, ops=list(ops))


class TestStitcher:
    def test_fallthrough_seam_dropped(self):
        a = _block(0x1000,
                   Op("movi", (Temp("t0"), Const(1))),
                   Op("goto_tb", (Const(0x2000),)))
        b = _block(0x2000,
                   Op("movi", (Temp("t0"), Const(2))),
                   Op("exit_tb", (Const(0),)))
        stitched = stitch_trace([a, b])
        assert stitched.fallthroughs == 1
        assert stitched.internal_branches == 0
        assert stitched.side_exits == 1
        names = [op.name for op in stitched.block.ops]
        assert "goto_tb" not in names

    def test_back_edge_becomes_internal_branch(self):
        loop = _block(0x1000,
                      Op("movi", (Temp("t0"), Const(1))),
                      Op("goto_tb", (Const(0x1000),)))
        stitched = stitch_trace([loop])
        assert stitched.internal_branches == 1
        names = [op.name for op in stitched.block.ops]
        assert names[0] == "set_label"
        assert names[-1] == "br"

    def test_segment_temps_renamed_apart(self):
        a = _block(0x1000,
                   Op("movi", (Temp("t0"), Const(1))),
                   Op("goto_tb", (Const(0x2000),)))
        b = _block(0x2000,
                   Op("movi", (Temp("t0"), Const(2))),
                   Op("exit_tb", (Const(0),)))
        stitched = stitch_trace([a, b])
        temps = {arg.name for op in stitched.block.ops
                 for arg in op.args if isinstance(arg, Temp)}
        assert temps == {"s0_t0", "s1_t0"}

    def test_unrelated_goto_tb_stays_side_exit(self):
        a = _block(0x1000,
                   Op("goto_tb", (Const(0x9000),)))
        stitched = stitch_trace([a])
        assert stitched.side_exits == 1
        assert stitched.internal_branches == 0
        assert stitched.block.ops[0].name == "goto_tb"

    def test_guest_insns_summed(self):
        a = _block(0x1000, Op("goto_tb", (Const(0x2000),)))
        a.guest_insns = 3
        b = _block(0x2000, Op("exit_tb", (Const(0),)))
        b.guest_insns = 4
        assert stitch_trace([a, b]).block.guest_insns == 7


class TestInlineHelpersPass:
    def test_rmw_and_fp_helpers_rewritten(self):
        block = _block(
            0x1000,
            Op("call", ("helper_xadd", Temp("t0"), Temp("t1"),
                        Temp("t2"))),
            Op("call", ("helper_fadd", Temp("t3"), Temp("t4"),
                        Temp("t5"))),
        )
        assert inline_helpers_pass(block) == 2
        assert [op.name for op in block.ops] == ["atomic_add", "fadd"]
        assert block.ops[0].args == (Temp("t0"), Temp("t1"), Temp("t2"))

    def test_fdiv_and_fsqrt_left_alone(self):
        # Their helpers fault on /0 and negative sqrt where the native
        # ops produce inf/NaN — inlining would diverge.
        block = _block(
            0x1000,
            Op("call", ("helper_fdiv", Temp("t0"), Temp("t1"),
                        Temp("t2"))),
            Op("call", ("helper_fsqrt", Temp("t3"), Temp("t4"))),
        )
        assert inline_helpers_pass(block) == 0
        assert all(op.name == "call" for op in block.ops)


# ----------------------------------------------------------------------
# S1: non-destructive mid-run profile snapshots
# ----------------------------------------------------------------------
class TestSnapshotNonDestructive:
    def _reference_profile(self):
        result, _ = run_loop()
        return result.block_profile

    def test_midrun_snapshots_do_not_lose_cycles(self):
        reference = self._reference_profile()

        engine = make_engine()
        entry = load(engine)
        engine.runtime.start_main_thread(entry)
        # Interrupt the run mid-flight, snapshot twice back to back,
        # then let it finish: attribution must match the uninterrupted
        # reference exactly.
        with pytest.raises(MachineError):
            engine.machine.run(max_steps=300)
        first = engine.runtime.block_profile_snapshot()
        second = engine.runtime.block_profile_snapshot()
        assert first == second
        engine.machine.run()
        final = engine.runtime.block_profile_snapshot()
        assert final == reference

    def test_snapshot_totals_grow_monotonically(self):
        engine = make_engine()
        engine.runtime.start_main_thread(load(engine))
        with pytest.raises(MachineError):
            engine.machine.run(max_steps=300)
        early = engine.runtime.block_profile_snapshot()
        engine.machine.run()
        late = engine.runtime.block_profile_snapshot()
        for pc, (dispatches, cycles) in early.items():
            assert late[pc][0] >= dispatches
            assert late[pc][1] >= cycles


# ----------------------------------------------------------------------
# S3: per-pc cycle attribution is conservative
# ----------------------------------------------------------------------
class TestProfileConservation:
    def test_attributed_cycles_sum_to_core_total(self):
        # Single-threaded run on one core: every cycle the core spends
        # — dispatch entries, helpers, syscalls, the exit drain —
        # belongs to exactly one open block interval.
        engine = make_engine(n_cores=1)
        result = engine.run(load(engine))
        profile = result.block_profile
        attributed = sum(cycles for _, cycles in profile.values())
        assert attributed == engine.machine.core(0).cycles

    def test_conservation_holds_with_tier2(self):
        engine = make_engine(n_cores=1, tier2=Tier2Config(threshold=8))
        result = engine.run(load(engine))
        attributed = sum(
            cycles for _, cycles in result.block_profile.values())
        assert attributed == engine.machine.core(0).cycles
        # Trace-attributed cycles are a subset of the profile total.
        assert 0 < result.stats.tier2_cycles <= attributed


# ----------------------------------------------------------------------
# S4: fig12 differential + fuzz smoke
# ----------------------------------------------------------------------
class TestFig12Differential:
    @pytest.fixture(scope="class")
    def spec_names(self):
        from repro.workloads.suites import ALL_SPECS
        return [s.name for s in ALL_SPECS]

    def test_every_fig12_benchmark_bit_identical(self, spec_names):
        from repro.api import run_kernel
        from repro.workloads.suites import SPEC_BY_NAME

        assert len(spec_names) == 16
        for name in spec_names:
            spec = dataclasses.replace(SPEC_BY_NAME[name],
                                       iterations=60)
            off = run_kernel(spec, variant="qemu", tier2_threshold=0)
            on = run_kernel(spec, variant="qemu", tier2_threshold=8)
            assert on.checksum == off.checksum, name
            assert on.result.output == off.result.output, name
            assert on.result.exit_code == off.result.exit_code, name


class TestFuzzSmoke:
    def test_dbt_differential_under_tier2(self, monkeypatch):
        # Force tier-2 on for every engine the oracle builds: all
        # three legs (block / kernel / mapping) must stay divergence-
        # free with traces compiled at threshold 1.
        monkeypatch.setenv("REPRO_TIER2_THRESHOLD", "1")
        from repro.fuzz.runner import FuzzConfig, run_fuzz

        report = run_fuzz(FuzzConfig(
            seed=20260807, cases=200,
            oracles=("dbt-differential",), shrink=False))
        assert report.total_cases == 200
        assert report.divergences == 0, report.findings
