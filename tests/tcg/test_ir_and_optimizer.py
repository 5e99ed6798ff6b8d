"""TCG IR structure and optimizer pass tests."""

import ast
import dataclasses
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

from repro.core.events import Fence
from repro.errors import TranslationError
from repro.tcg.ir import (
    Cond,
    Const,
    MO_ALL,
    MO_LD_LD,
    MO_LD_ST,
    MO_ST_LD,
    MO_ST_ST,
    Op,
    TCGBlock,
    Temp,
    fence_to_mask,
    mask_to_fence,
)
import repro.tcg.optimizer as optimizer_pkg
from repro.dbt import DBTEngine
from repro.tcg.optimizer import (
    OptimizerConfig,
    OptStats,
    constant_propagation,
    dead_code_elimination,
    memory_access_elimination,
    merge_fences_pass,
    optimize,
)
from repro.tcg.optimizer.forward import forward_walk


def t(name):
    return Temp(name)


def g(name):
    return Temp(name, is_global=True)


class TestMasks:
    def test_fence_mask_roundtrip(self):
        for fence in (Fence.FRR, Fence.FRW, Fence.FRM, Fence.FWW,
                      Fence.FWR, Fence.FMW, Fence.FMM):
            assert mask_to_fence(fence_to_mask(fence)) is fence

    def test_fsc_maps_to_all(self):
        assert fence_to_mask(Fence.FSC) == MO_ALL

    def test_frm_is_ld_ld_plus_ld_st(self):
        assert fence_to_mask(Fence.FRM) == MO_LD_LD | MO_LD_ST

    def test_zero_mask_rejected(self):
        with pytest.raises(TranslationError):
            mask_to_fence(0)

    def test_non_tcg_fence_rejected(self):
        with pytest.raises(TranslationError):
            fence_to_mask(Fence.DMBFF)


class TestOpIO:
    def test_alu_outputs_inputs(self):
        op = Op("add", (t("t0"), t("t1"), Const(3)))
        assert op.outputs() == (t("t0"),)
        assert op.inputs() == (t("t1"),)

    def test_store_has_no_outputs(self):
        op = Op("st", (t("t0"), t("t1"), Const(0)))
        assert op.outputs() == ()
        assert set(op.inputs()) == {t("t0"), t("t1")}

    def test_call_ret_is_output(self):
        op = Op("call", ("helper_fadd", t("t9"), t("t1"), t("t2")))
        assert op.outputs() == (t("t9"),)
        assert set(op.inputs()) == {t("t1"), t("t2")}

    def test_side_effects(self):
        assert Op("st", (t("a"), t("b"), Const(0))).has_side_effects()
        assert Op("mb", (Const(1),)).has_side_effects()
        assert not Op("add", (t("a"), t("b"), t("c"))).has_side_effects()


def make_block(*ops):
    block = TCGBlock(guest_pc=0x1000)
    block.ops = list(ops)
    return block


class TestConstProp:
    def test_folds_constant_alu(self):
        block = make_block(
            Op("movi", (t("t0"), Const(4))),
            Op("movi", (t("t1"), Const(5))),
            Op("add", (t("t2"), t("t0"), t("t1"))),
        )
        constant_propagation(block)
        assert block.ops[2] == Op("movi", (t("t2"), Const(9)))

    def test_false_dependency_elimination(self):
        # x * 0 -> 0 even when x is unknown (Section 6.1).
        block = make_block(
            Op("movi", (t("t1"), Const(0))),
            Op("mul", (t("t2"), t("t0"), t("t1"))),
        )
        constant_propagation(block)
        assert block.ops[1] == Op("movi", (t("t2"), Const(0)))

    def test_add_zero_identity(self):
        block = make_block(
            Op("movi", (t("t1"), Const(0))),
            Op("add", (t("t2"), t("t0"), t("t1"))),
        )
        constant_propagation(block)
        assert block.ops[1] == Op("mov", (t("t2"), t("t0")))

    def test_setcond_folds(self):
        block = make_block(
            Op("movi", (t("t0"), Const(7))),
            Op("setcond", (t("t1"), t("t0"), Const(7), Cond.EQ)),
        )
        constant_propagation(block)
        assert block.ops[1] == Op("movi", (t("t1"), Const(1)))

    def test_label_clears_knowledge(self):
        from repro.tcg.ir import LabelRef

        block = make_block(
            Op("movi", (t("t0"), Const(4))),
            Op("set_label", (LabelRef(0),)),
            Op("add", (t("t1"), t("t0"), Const(1))),
        )
        constant_propagation(block)
        # After the label t0 is no longer known constant.
        assert block.ops[2].name == "add"

    def test_impure_call_clears_globals(self):
        block = make_block(
            Op("movi", (g("g_rax"), Const(4))),
            Op("call", ("helper_syscall", None)),
            Op("add", (t("t1"), g("g_rax"), Const(1))),
        )
        constant_propagation(block)
        assert block.ops[2].name == "add"  # not folded

    def test_pure_helper_keeps_globals(self):
        block = make_block(
            Op("movi", (g("g_rbx"), Const(4))),
            Op("call", ("helper_fadd", t("t0"), t("t1"), t("t2"))),
            Op("add", (t("t3"), g("g_rbx"), Const(1))),
        )
        constant_propagation(block)
        assert block.ops[2] == Op("movi", (t("t3"), Const(5)))

    def test_division_by_zero_not_folded(self):
        block = make_block(
            Op("movi", (t("t0"), Const(1))),
            Op("movi", (t("t1"), Const(0))),
            Op("divu", (t("t2"), t("t0"), t("t1"))),
        )
        constant_propagation(block)
        assert block.ops[2].name == "divu"


class TestMemOpt:
    def _addr_setup(self):
        return [
            Op("mov", (t("a0"), g("g_rbx"))),
            Op("add", (t("a1"), g("g_rbx"), Const(0))),
        ]

    def test_raw_forwarding(self):
        block = make_block(
            Op("st", (t("v"), t("a0"), Const(8))),
            Op("ld", (t("x"), t("a0"), Const(8))),
        )
        removed = memory_access_elimination(block)
        assert removed == 1
        assert block.ops[1] == Op("mov", (t("x"), t("v")))

    def test_raw_forwarding_across_value_numbered_addresses(self):
        # Two different temps holding the same symbolic address.
        block = make_block(
            Op("mov", (t("a0"), g("g_rbx"))),
            Op("st", (t("v"), t("a0"), Const(8))),
            Op("mov", (t("a1"), g("g_rbx"))),
            Op("ld", (t("x"), t("a1"), Const(8))),
        )
        assert memory_access_elimination(block) == 1

    @pytest.mark.parametrize("mask", [
        MO_LD_LD | MO_ST_LD,   # Fmr — the FMR bug's fence class
        MO_ALL,                # Fmm/Fsc indistinguishable: refuse
    ], ids=["fmr", "full"])
    def test_no_forwarding_across_read_ordering_fences(self, mask):
        block = make_block(
            Op("st", (t("v"), t("a0"), Const(0))),
            Op("mb", (Const(mask),)),
            Op("ld", (t("x"), t("a0"), Const(0))),
        )
        assert memory_access_elimination(block) == 0
        assert block.ops[2].name == "ld"

    def test_forwarding_across_fww(self):
        block = make_block(
            Op("st", (t("v"), t("a0"), Const(0))),
            Op("mb", (Const(MO_ST_ST),)),
            Op("ld", (t("x"), t("a0"), Const(0))),
        )
        assert memory_access_elimination(block) == 1

    def test_rar_reuse(self):
        block = make_block(
            Op("ld", (t("x"), t("a0"), Const(0))),
            Op("ld", (t("y"), t("a0"), Const(0))),
        )
        assert memory_access_elimination(block) == 1
        assert block.ops[1] == Op("mov", (t("y"), t("x")))

    def test_rar_blocked_by_intervening_store_to_unknown(self):
        block = make_block(
            Op("ld", (t("x"), t("a0"), Const(0))),
            Op("st", (t("v"), t("a9"), Const(0))),  # may alias
            Op("ld", (t("y"), t("a0"), Const(0))),
        )
        assert memory_access_elimination(block) == 0

    def test_same_base_different_offset_no_alias(self):
        block = make_block(
            Op("ld", (t("x"), t("a0"), Const(0))),
            Op("st", (t("v"), t("a0"), Const(8))),  # disjoint word
            Op("ld", (t("y"), t("a0"), Const(0))),
        )
        assert memory_access_elimination(block) == 1

    def test_waw_removal(self):
        block = make_block(
            Op("st", (t("v1"), t("a0"), Const(0))),
            Op("st", (t("v2"), t("a0"), Const(0))),
        )
        assert memory_access_elimination(block) == 1
        assert len([op for op in block.ops if op.name == "st"]) == 1
        assert block.ops[-1].args[0] == t("v2")

    def test_waw_not_removed_across_fww(self):
        """The conservative stance from the checker's F-WAW finding."""
        block = make_block(
            Op("st", (t("v1"), t("a0"), Const(0))),
            Op("mb", (Const(MO_ST_ST),)),
            Op("st", (t("v2"), t("a0"), Const(0))),
        )
        assert memory_access_elimination(block) == 0

    def test_waw_kept_when_a_different_base_load_may_read_it(self):
        block = make_block(
            Op("st", (t("v1"), t("a0"), Const(0))),
            Op("ld", (t("x"), t("a9"), Const(0))),  # may alias
            Op("st", (t("v2"), t("a0"), Const(0))),
        )
        assert memory_access_elimination(block) == 0
        assert len([op for op in block.ops if op.name == "st"]) == 2

    def test_waw_kept_when_an_overlapping_offset_load_reads_it(self):
        block = make_block(
            Op("st", (t("v1"), t("a0"), Const(8))),
            Op("ld", (t("x"), t("a0"), Const(4))),  # same word
            Op("st", (t("v2"), t("a0"), Const(8))),
        )
        assert memory_access_elimination(block) == 0
        assert len([op for op in block.ops if op.name == "st"]) == 2

    def test_atomics_invalidate(self):
        block = make_block(
            Op("st", (t("v"), t("a0"), Const(0))),
            Op("cas", (t("old"), t("a1"), t("e"), t("n"))),
            Op("ld", (t("x"), t("a0"), Const(0))),
        )
        assert memory_access_elimination(block) == 0


class TestFenceMerge:
    def test_adjacent_fences_merge(self):
        block = make_block(
            Op("mb", (Const(MO_LD_LD | MO_LD_ST),)),  # Frm
            Op("mb", (Const(MO_ST_ST),)),             # Fww
        )
        assert merge_fences_pass(block) == (1, 0)
        assert block.ops == [
            Op("mb", (Const(MO_LD_LD | MO_LD_ST | MO_ST_ST),))]

    def test_merge_across_pure_ops(self):
        block = make_block(
            Op("mb", (Const(MO_LD_LD),)),
            Op("add", (t("t0"), t("t1"), Const(1))),
            Op("mb", (Const(MO_ST_ST),)),
        )
        assert merge_fences_pass(block) == (1, 0)
        assert block.ops[0].args[0].value == MO_LD_LD | MO_ST_ST

    def test_no_merge_across_memory_access(self):
        block = make_block(
            Op("mb", (Const(MO_LD_LD),)),
            Op("ld", (t("t0"), t("t1"), Const(0))),
            Op("mb", (Const(MO_ST_ST),)),
        )
        assert merge_fences_pass(block) == (0, 0)

    def test_no_merge_across_block_label(self):
        """Fences never merge across control flow (block granularity,
        Section 8's ArMOR discussion)."""
        from repro.tcg.ir import LabelRef

        block = make_block(
            Op("mb", (Const(MO_LD_LD),)),
            Op("set_label", (LabelRef(0),)),
            Op("mb", (Const(MO_ST_ST),)),
        )
        assert merge_fences_pass(block) == (0, 0)

    def test_empty_mask_dropped(self):
        block = make_block(Op("mb", (Const(0),)))
        assert merge_fences_pass(block) == (0, 1)
        assert block.ops == []

    def test_pure_subsumption_keeps_mapping_rule_origin(self):
        """Merging a subset-mask fence must not retag the survivor.

        The union leaves the surviving mask unchanged, so the fence the
        mapping rule emitted was never strengthened — billing it to
        ``fence_merge:strengthen`` would misattribute its cycles in the
        by-origin footers (Figure 12).
        """
        block = make_block(
            Op("mb", (Const(MO_LD_LD | MO_LD_ST),),
               origin="RMOV->ld;Frm"),
            Op("mb", (Const(MO_LD_LD),), origin="RMOV->ld;Frr"),
        )
        assert merge_fences_pass(block) == (1, 0)
        assert len(block.ops) == 1
        assert block.ops[0].args[0].value == MO_LD_LD | MO_LD_ST
        assert block.ops[0].origin == "RMOV->ld;Frm"

    def test_genuine_strengthen_retags_to_optimizer(self):
        block = make_block(
            Op("mb", (Const(MO_LD_LD),), origin="RMOV->ld;Frr"),
            Op("mb", (Const(MO_ST_ST),), origin="WMOV->Fww;st"),
        )
        assert merge_fences_pass(block) == (1, 0)
        assert block.ops[0].args[0].value == MO_LD_LD | MO_ST_ST
        assert block.ops[0].origin == "fence_merge:strengthen"


class TestDeadCode:
    def test_unused_pure_op_removed(self):
        block = make_block(
            Op("movi", (t("t0"), Const(4))),
            Op("exit_tb", (Const(0x2000),)),
        )
        assert dead_code_elimination(block) == 1

    def test_used_op_kept(self):
        block = make_block(
            Op("movi", (t("t0"), Const(4))),
            Op("st", (t("t0"), t("t1"), Const(0))),
            Op("exit_tb", (Const(0x2000),)),
        )
        assert dead_code_elimination(block) == 0

    def test_global_write_kept(self):
        block = make_block(
            Op("movi", (g("g_rax"), Const(4))),
            Op("exit_tb", (Const(0x2000),)),
        )
        assert dead_code_elimination(block) == 0

    def test_overwritten_flag_write_removed(self):
        block = make_block(
            Op("movi", (g("g_zf"), Const(0))),
            Op("movi", (g("g_zf"), Const(1))),
            Op("exit_tb", (Const(0x2000),)),
        )
        assert dead_code_elimination(block) == 1

    def test_flag_read_before_overwrite_kept(self):
        block = make_block(
            Op("movi", (g("g_zf"), Const(0))),
            Op("mov", (t("t0"), g("g_zf"))),
            Op("st", (t("t0"), t("t1"), Const(0))),
            Op("movi", (g("g_zf"), Const(1))),
            Op("exit_tb", (Const(0x2000),)),
        )
        assert dead_code_elimination(block) == 0

    def test_globals_live_across_calls(self):
        block = make_block(
            Op("movi", (g("g_rax"), Const(60))),
            Op("call", ("helper_syscall", None)),
            Op("movi", (g("g_rax"), Const(0))),
            Op("exit_tb", (Const(0x2000),)),
        )
        assert dead_code_elimination(block) == 0

    def test_trace_shape_still_eliminates(self):
        """A tier-2 trace opens with ``set_label`` and loops via
        ``br``; the prefix-only DCE formulation saw control at index 0
        and removed nothing, leaving dead flag materialization in hot
        loop bodies (and making single-block loop traces slower than
        their chained tier-1 form).  Per-segment liveness must still
        kill the overwritten flag write inside the loop body."""
        from repro.tcg.ir import LabelRef

        block = make_block(
            Op("set_label", (LabelRef(1),)),
            Op("movi", (g("g_zf"), Const(0))),
            Op("movi", (g("g_zf"), Const(1))),
            Op("brcond", (g("g_zf"), Const(0), Cond.NE, LabelRef(0))),
            Op("goto_tb", (Const(0x2000),)),
            Op("set_label", (LabelRef(0),)),
            Op("br", (LabelRef(1),)),
        )
        assert dead_code_elimination(block) == 1
        assert [op.name for op in block.ops] == [
            "set_label", "movi", "brcond", "goto_tb", "set_label",
            "br"]

    def test_temp_read_in_other_segment_stays_live(self):
        """A temp defined in one segment and consumed after a label is
        conservatively live at the segment boundary — back-branches
        mean any label can be re-entered."""
        from repro.tcg.ir import LabelRef

        block = make_block(
            Op("movi", (t("t0"), Const(4))),
            Op("set_label", (LabelRef(0),)),
            Op("st", (t("t0"), t("t1"), Const(0))),
            Op("exit_tb", (Const(0x2000),)),
        )
        assert dead_code_elimination(block) == 0


class TestPipeline:
    def test_full_pipeline_counts(self):
        block = make_block(
            Op("movi", (t("t0"), Const(2))),
            Op("movi", (t("t1"), Const(3))),
            Op("add", (t("t2"), t("t0"), t("t1"))),
            Op("mb", (Const(MO_LD_LD | MO_LD_ST),)),
            Op("mb", (Const(MO_ST_ST),)),
            Op("st", (t("t2"), g("g_rbx"), Const(0))),
            Op("exit_tb", (Const(0x2000),)),
        )
        stats = optimize(block)
        assert stats.folded >= 1
        assert stats.fences_merged == 1
        assert stats.dead_removed >= 1

    def test_passes_can_be_disabled(self):
        block = make_block(
            Op("mb", (Const(MO_LD_LD),)),
            Op("mb", (Const(MO_ST_ST),)),
        )
        stats = optimize(block, OptimizerConfig(
            constprop=False, memopt=False, fence_merge=False,
            deadcode=False))
        assert stats.fences_merged == 0
        assert len(block.ops) == 2


class TestDefaultPipeline:
    """The default pipeline is fold → fence merge → DCE: memory-access
    elimination runs only where a config asks for it, and no variant
    does.  A variant that wants the rule set arrives with a committed
    workload where it fires."""

    def test_default_keeps_every_access(self):
        def block():
            return make_block(
                Op("st", (t("v"), g("g_rbx"), Const(0))),
                Op("ld", (t("x"), g("g_rbx"), Const(0))),
                Op("st", (t("x"), g("g_rcx"), Const(0))),
                Op("exit_tb", (Const(0x2000),)),
            )

        default = block()
        assert optimize(default).mem_eliminated == 0
        assert [op.name for op in default.ops].count("ld") == 1
        assert optimize(block(), OptimizerConfig(memopt=True)) \
            .mem_eliminated == 1

    def test_no_registered_variant_runs_memopt(self):
        import repro.dbt.config as dbt_config

        presets = [value for value in vars(dbt_config).values()
                   if isinstance(value, dbt_config.DBTConfig)]
        resolved = [dbt_config.resolve_variant(name)
                    for name in (*dbt_config.VARIANTS,
                                 *dbt_config.SCHEME_VARIANTS)]
        derived = [dbt_config.scheme_variant(scheme)
                   for scheme in dbt_config.SCHEMES.values()]
        assert len(presets) >= 4 and len(derived) > 1
        configs = presets + resolved + derived
        assert dbt_config.resolve_variant(dbt_config.NATIVE) is None
        assert not [config.name for config in configs
                    if config.optimizer.memopt]


class TestForwardingStaleness:
    """Regression: forwarding must not read a register overwritten
    between the store and the load (found by differential fuzzing)."""

    def test_raw_forward_refused_when_source_overwritten(self):
        block = make_block(
            Op("st", (g("g_r9"), t("a0"), Const(8))),
            Op("shl", (g("g_r9"), g("g_r9"), Const(8))),
            Op("ld", (t("x"), t("a0"), Const(8))),
        )
        assert memory_access_elimination(block) == 0
        assert block.ops[2].name == "ld"

    def test_rar_reuse_refused_when_dest_overwritten(self):
        block = make_block(
            Op("ld", (g("g_rax"), t("a0"), Const(0))),
            Op("add", (g("g_rax"), g("g_rax"), Const(1))),
            Op("ld", (t("y"), t("a0"), Const(0))),
        )
        assert memory_access_elimination(block) == 0

    def test_forward_still_fires_when_value_unchanged(self):
        block = make_block(
            Op("st", (g("g_r9"), t("a0"), Const(8))),
            Op("add", (g("g_rax"), g("g_rax"), Const(1))),
            Op("ld", (t("x"), t("a0"), Const(8))),
        )
        assert memory_access_elimination(block) == 1

    def test_load_into_a_global_drops_facts_about_its_old_value(self):
        """A forwarded load redefines ``g_rbx`` as ``g_rcx + 1``.  Once
        ``g_rcx`` is written, that number is dropped, and ``g_rbx``
        must not fall back to its value at the first store."""
        block = make_block(
            Op("st", (t("v"), g("g_rbx"), Const(0))),
            Op("add", (t("t1"), g("g_rcx"), Const(1))),
            Op("st", (t("t1"), g("g_rbx"), Const(8))),
            Op("ld", (g("g_rbx"), g("g_rbx"), Const(8))),
            Op("movi", (g("g_rcx"), Const(5))),
            Op("ld", (t("y"), g("g_rbx"), Const(0))),
        )
        assert memory_access_elimination(block) == 1
        assert block.ops[-1].name == "ld"


# ----------------------------------------------------------------------
# Tooling guard: one forward walk, not two passes beside it
# ----------------------------------------------------------------------
OPTIMIZER_SRC = Path(optimizer_pkg.__file__).parent
SRC = OPTIMIZER_SRC.parents[1]


def _optimizer_modules():
    return [optimizer_pkg] + [
        importlib.import_module(f"{optimizer_pkg.__name__}.{info.name}")
        for info in pkgutil.iter_modules(optimizer_pkg.__path__)]


class TestOneForwardWalk:
    def test_the_two_passes_are_gone(self):
        assert sorted(path.name for path in OPTIMIZER_SRC.glob("*.py")) \
            == ["__init__.py", "deadcode.py", "fence_merge.py",
                "forward.py", "inline_helpers.py"]

    def test_no_module_level_state_written_at_call_time(self):
        """No ``global`` statement, and optimizing blocks leaves every
        module-level value of the package as it was."""
        for path in OPTIMIZER_SRC.glob("*.py"):
            tree = ast.parse(path.read_text())
            assert not any(isinstance(node, ast.Global)
                           for node in ast.walk(tree)), path.name

        def state():
            return {(module.__name__, attr): repr(value)
                    for module in _optimizer_modules()
                    for attr, value in vars(module).items()
                    if not attr.startswith("__")}

        before = state()
        for _ in range(2):
            for block in self._blocks():
                optimize(block)
        assert state() == before

    @staticmethod
    def _blocks():
        from repro.tcg.ir import LabelRef

        yield make_block(
            Op("movi", (g("g_rbx"), Const(64))),
            Op("st", (t("v"), g("g_rbx"), Const(8))),
            Op("ld", (t("x"), g("g_rbx"), Const(8))),
            Op("add", (g("g_rbx"), g("g_rbx"), t("x"))),
            Op("ld", (t("y"), t("a9"), Const(0))),
            Op("st", (t("y"), g("g_rbx"), Const(0))),
            Op("st", (t("x"), g("g_rbx"), Const(0))),
            Op("set_label", (LabelRef(0),)),
            Op("cas", (g("g_rax"), t("a0"), t("e"), t("n"))),
            Op("exit_tb", (Const(0x2000),)),
        )

    def test_optimizer_config_and_stats_fields_unchanged(self):
        """``repr(OptimizerConfig())`` is part of every xlat key."""
        assert repr(OptimizerConfig()) == (
            "OptimizerConfig(constprop=True, memopt=False, "
            "fence_merge=True, deadcode=True)")
        assert [f.name for f in dataclasses.fields(OptStats)] == [
            "folded", "mem_eliminated", "fences_merged", "dead_removed",
            "empty_fences_dropped", "helpers_inlined"]

    def test_no_new_knob(self):
        """No environment name or CLI flag reaches the walk, and no
        entry point grew a parameter for it."""
        for path in OPTIMIZER_SRC.glob("*.py"):
            text = path.read_text()
            assert "REPRO_" not in text and "environ" not in text, path
        flags = set()
        for path in SRC.rglob("*.py"):
            flags |= set(re.findall(r"[\"'](--[a-z0-9-]+)[\"']",
                                    path.read_text()))
        assert not {flag for flag in flags if re.search(
            r"constprop|memopt|fold|forward|walk|optimi", flag)}, flags
        assert list(inspect.signature(optimize).parameters) == \
            ["block", "config"]
        assert list(inspect.signature(forward_walk).parameters) == \
            ["block", "fold", "eliminate"]
        for public in (constant_propagation, memory_access_elimination):
            assert list(inspect.signature(public).parameters) == ["block"]
        assert list(inspect.signature(DBTEngine).parameters) == [
            "config", "machine", "n_cores", "costs", "seed",
            "buffer_mode", "xlat_cache", "tier2"]
