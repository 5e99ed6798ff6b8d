"""Figure 10 transformations: correctness and the documented failures."""

import pytest

from repro.core import ARM, TCG, Arch, Fence, Program
from repro.core import litmus_library as L
from repro.core.litmus_library import R, W, outcome, shows, tcg
from repro.core.program import FenceOp, If, Load, Store
from repro.core.transforms import (
    ELIM_SAFE_RAR,
    ELIM_SAFE_RAW,
    ELIM_SAFE_WAW,
    FIGURE_10_RULES,
    eliminate_rar,
    eliminate_raw,
    eliminate_waw,
    merge_adjacent_fences,
    merge_fences,
    remove_false_dependency,
    reorder_adjacent,
    strengthen_fence,
    substitute_reg,
)
from repro.core.events import TCG_FENCE_PAIRS
from repro.core.verifier import check_translation
from repro.errors import MappingError
from repro.tcg.ir import GUEST_REG_TEMPS, MO_ALL, Const, TCGBlock, \
    fence_to_mask
from repro.tcg.optimizer import memory_access_elimination


def correct(src, tgt, model=TCG):
    return check_translation(src, tgt, model, model, mapping_name="t").ok


#: A two-thread observer context that notices most reorderings.
def with_observer(*t0_ops):
    return tcg("ctx", tuple(t0_ops),
               (R("p", "Y"), FenceOp(Fence.FRR), R("q", "X")))


class TestEliminations:
    def test_rar_correct(self):
        src = with_observer(W("X", 1), R("a", "X"), R("b", "X"))
        tgt = eliminate_rar(src, 0, 1)
        assert correct(src, tgt)

    def test_rar_renames_later_uses(self):
        prog = tcg("p", (R("a", "X"), R("b", "X"),
                         If("b", 1, then_ops=(W("Y", 5),))))
        out = eliminate_rar(prog, 0, 0)
        branch = out.threads[0][1]
        assert isinstance(branch, If) and branch.reg == "a"

    def test_raw_correct_without_fence(self):
        src = with_observer(W("X", 2), R("a", "X"), Store("Y", "a"))
        tgt = eliminate_raw(src, 0, 0)
        assert correct(src, tgt)
        # The store now carries the constant.
        assert Store("Y", 2) in tgt.threads[0]

    def test_waw_correct(self):
        src = with_observer(W("X", 1), W("X", 2), W("Y", 1))
        tgt = eliminate_waw(src, 0, 0)
        assert correct(src, tgt)
        assert W("X", 1) not in tgt.threads[0]

    def test_f_rar_correct_across_frm(self):
        src = with_observer(
            W("X", 1), R("a", "X"), FenceOp(Fence.FRM), R("b", "X"))
        tgt = eliminate_rar(src, 0, 1)
        assert correct(src, tgt)

    def test_f_waw_correct_across_frm(self):
        src = with_observer(
            W("X", 1), FenceOp(Fence.FRM), W("X", 2), W("Y", 1))
        tgt = eliminate_waw(src, 0, 0)
        assert correct(src, tgt)

    def test_f_waw_across_fww_found_unsound(self):
        """Reproduction finding: Figure 10 claims F-WAW is safe for
        o ∈ {rm, ww}, but eliminating the first write across an Fww
        also erases its [W];po;[Fww];po;[W] edge to later writes, which
        an external Frr-fenced reader observes.  Our checker flags it;
        recorded as a deviation in EXPERIMENTS.md."""
        src = with_observer(
            W("X", 1), FenceOp(Fence.FWW), W("X", 2), W("Y", 1))
        tgt = eliminate_waw(src, 0, 0)
        assert not correct(src, tgt)

    def test_f_raw_incorrect_across_fmr(self):
        """The FMR bug (Section 3.2), at its minimal site."""
        transformed = eliminate_raw(L.FMR_SOURCE, 0, 2)
        assert not correct(L.FMR_SOURCE, transformed)

    def test_f_raw_correct_across_fww(self):
        src = with_observer(
            W("X", 2), FenceOp(Fence.FWW), R("a", "X"), Store("Y", "a"))
        tgt = eliminate_raw(src, 0, 0)
        assert correct(src, tgt)

    def test_safe_fence_sets(self):
        assert ELIM_SAFE_RAR == {Fence.FRM, Fence.FWW}
        assert ELIM_SAFE_RAW == {Fence.FSC, Fence.FWW}
        # Conservative: Figure 10 also claims Fww, see the deviation
        # test above.
        assert ELIM_SAFE_WAW == {Fence.FRM}

    def test_rule_table_complete(self):
        assert [r.name for r in FIGURE_10_RULES] == [
            "RAR", "RAW", "WAW", "F-RAR", "F-RAW", "F-WAW"]

    def test_bad_site_raises(self):
        prog = tcg("p", (W("X", 1), W("Y", 1)))
        with pytest.raises(MappingError):
            eliminate_rar(prog, 0, 0)
        with pytest.raises(MappingError):
            eliminate_raw(prog, 0, 1)  # no same-loc read follows
        with pytest.raises(MappingError):
            eliminate_waw(prog, 0, 0)  # different locations


class TestFenceMerging:
    def test_frm_fww_merge_covers_both(self):
        merged = merge_fences(Fence.FRM, Fence.FWW)
        union = TCG_FENCE_PAIRS[Fence.FRM] | TCG_FENCE_PAIRS[Fence.FWW]
        assert union <= TCG_FENCE_PAIRS.get(
            merged, TCG_FENCE_PAIRS[Fence.FMM])

    def test_fsc_absorbs(self):
        assert merge_fences(Fence.FSC, Fence.FRR) is Fence.FSC
        assert merge_fences(Fence.FWW, Fence.FSC) is Fence.FSC

    def test_same_fence_merges_to_itself(self):
        assert merge_fences(Fence.FRR, Fence.FRR) is Fence.FRR
        assert merge_fences(Fence.FWW, Fence.FWW) is Fence.FWW

    def test_merge_site_correct(self):
        # The Section 6.1 example: a = X; Frm; Fww; Y = 1.
        src = tcg(
            "merge-src",
            (R("a", "X"), FenceOp(Fence.FRM), FenceOp(Fence.FWW),
             W("Y", 1)),
            (R("p", "Y"), FenceOp(Fence.FRR), R("q", "X")),
        )
        tgt = merge_adjacent_fences(src, 0, 1)
        assert correct(src, tgt)
        fences = [op for op in tgt.threads[0] if isinstance(op, FenceOp)]
        assert len(fences) == 1

    def test_strengthen_correct(self):
        src = with_observer(R("a", "X"), FenceOp(Fence.FRR), R("b", "Y"))
        tgt = strengthen_fence(src, 0, 1, Fence.FSC)
        assert correct(src, tgt)

    def test_weakening_rejected(self):
        src = with_observer(R("a", "X"), FenceOp(Fence.FMM), R("b", "Y"))
        with pytest.raises(MappingError):
            strengthen_fence(src, 0, 1, Fence.FRR)

    @pytest.mark.parametrize("to", [Fence.DMBLD, Fence.MFENCE,
                                    Fence.FREL, Fence.FRR],
                             ids=lambda f: f.value)
    def test_strengthening_without_pair_sets_rejected(self, to):
        """Facq has no pair set, so no strength comparison can hold:
        any target but Fsc must be refused, not accepted vacuously."""
        src = with_observer(R("a", "X"), FenceOp(Fence.FACQ), R("b", "Y"))
        with pytest.raises(MappingError, match="pair set"):
            strengthen_fence(src, 0, 1, to)

    def test_strengthening_to_fsc_still_allowed(self):
        src = with_observer(R("a", "X"), FenceOp(Fence.FACQ), R("b", "Y"))
        tgt = strengthen_fence(src, 0, 1, Fence.FSC)
        assert FenceOp(Fence.FSC) in tgt.threads[0]


# ----------------------------------------------------------------------
# The system optimizer eliminates exactly what the checker licenses
# ----------------------------------------------------------------------
ELIM_SAFE = {"RAR": ELIM_SAFE_RAR, "RAW": ELIM_SAFE_RAW,
             "WAW": ELIM_SAFE_WAW}

#: The minimal IR block of each elimination: (first, second) access.
SHAPES = {"RAR": ("ld", "ld"), "RAW": ("st", "ld"), "WAW": ("st", "st")}


def _memopt_eliminates(elimination: str, kind: Fence) -> bool:
    """Run memopt on ``first; mb <kind>; second`` at one address."""
    block = TCGBlock(guest_pc=0)
    base = GUEST_REG_TEMPS["rbx"]
    first, second = SHAPES[elimination]
    for access in (first, "mb", second):
        if access == "ld":
            block.emit("ld", block.new_temp(), base, Const(0))
        elif access == "st":
            block.emit("st", GUEST_REG_TEMPS["rax"], base, Const(0))
        else:
            block.mb(fence_to_mask(kind))
    return memory_access_elimination(block) == 1


def _licensed(elimination: str, kind: Fence) -> bool:
    """The kind's mask is a subset of a checker-licensed mask other
    than MO_ALL (which Fsc shares with the unlicensed Fmm)."""
    mask = fence_to_mask(kind)
    return any(mask & ~fence_to_mask(safe) == 0
               for safe in ELIM_SAFE[elimination]
               if fence_to_mask(safe) != MO_ALL)


#: Kinds memopt eliminates across that ELIM_SAFE_* does not list.
UNLISTED = [(elimination, kind)
            for elimination in ELIM_SAFE for kind in TCG_FENCE_PAIRS
            if _memopt_eliminates(elimination, kind)
            and kind not in ELIM_SAFE[elimination]]


def _contexts(elimination: str, kind: Fence):
    """(source, thread-0 index of the first access) observer contexts
    for a litmus-level elimination across ``kind``."""
    f = FenceOp(kind)
    if elimination == "RAR":
        return [
            (with_observer(W("X", 1), R("a", "X"), f, R("b", "X")), 1),
            (with_observer(R("a", "X"), f, R("b", "X"), W("Y", 1)), 0),
            (with_observer(W("Y", 1), R("a", "X"), f, R("b", "X")), 1),
            (tcg("ctx", (R("a", "X"), f, R("b", "X"), Store("Y", "b")),
                 (R("p", "Y"), FenceOp(Fence.FRR), R("q", "X")),
                 (W("X", 1),)), 0),
        ]
    assert elimination == "WAW"
    return [
        (with_observer(W("X", 1), f, W("X", 2), W("Y", 1)), 0),
        (with_observer(W("Y", 1), W("X", 1), f, W("X", 2)), 1),
        (with_observer(R("a", "Y"), W("X", 1), f, W("X", 2)), 1),
        (tcg("ctx", (W("X", 1), f, W("X", 2)),
             (R("p", "X"), FenceOp(Fence.FRR), R("q", "X"))), 0),
    ]


class TestOptimizerAgreesWithChecker:
    @pytest.mark.parametrize("kind", list(TCG_FENCE_PAIRS),
                             ids=lambda f: f.value)
    @pytest.mark.parametrize("elimination", sorted(ELIM_SAFE))
    def test_memopt_eliminates_iff_licensed(self, elimination, kind):
        assert _memopt_eliminates(elimination, kind) == \
            _licensed(elimination, kind)

    def test_unlisted_kinds_are_the_weaker_read_fences(self):
        assert UNLISTED == [("RAR", Fence.FRR), ("RAR", Fence.FRW),
                            ("WAW", Fence.FRR), ("WAW", Fence.FRW)]

    @pytest.mark.parametrize("elimination,kind", UNLISTED,
                             ids=lambda v: getattr(v, "value", v))
    def test_unlisted_kinds_are_sound(self, elimination, kind):
        """A kind weaker than a listed one is accepted by memopt's
        subset test, so the checker must agree in every context."""
        eliminate = {"RAR": eliminate_rar, "WAW": eliminate_waw}
        for src, idx in _contexts(elimination, kind):
            tgt = eliminate[elimination](src, 0, idx)
            assert correct(src, tgt), (elimination, kind, src.threads)

    def test_fsc_raw_refused_because_mo_all_is_also_fmm(self):
        """Figure 10 licenses F-RAW across Fsc, but an ``mb`` carries
        only its mask and Fsc's mask is Fmm's, which the checker does
        not license: the optimizer must refuse the shared MO_ALL."""
        assert Fence.FSC in ELIM_SAFE_RAW
        assert Fence.FMM not in ELIM_SAFE_RAW
        assert fence_to_mask(Fence.FSC) == fence_to_mask(Fence.FMM) \
            == MO_ALL
        assert not _memopt_eliminates("RAW", Fence.FSC)
        assert not _memopt_eliminates("RAW", Fence.FMM)


class TestReordering:
    def test_independent_accesses_reorder_correctly_in_tcg(self):
        src = with_observer(W("X", 1), W("Y", 1))
        tgt = reorder_adjacent(src, 0, 0)
        assert correct(src, tgt)

    def test_reordering_across_same_location_rejected(self):
        src = tcg("p", (W("X", 1), R("a", "X")))
        with pytest.raises(MappingError):
            reorder_adjacent(src, 0, 0)

    def test_data_dependent_pair_rejected(self):
        src = tcg("p", (R("a", "X"), Store("Y", "a")))
        with pytest.raises(MappingError):
            reorder_adjacent(src, 0, 0)

    def test_load_store_reorder_correct_in_tcg(self):
        src = with_observer(R("a", "Z"), W("X", 1))
        tgt = reorder_adjacent(src, 0, 0)
        assert correct(src, tgt)


class TestFalseDependencyElimination:
    def _prog(self, arch):
        # T1 reads Y then stores X = (a*0)+5 — constant value, false
        # syntactic dependency on a.  T2 observes with a load fence.
        fence = Fence.FRR if arch is Arch.TCG else Fence.DMBLD
        return Program(
            "fdep", arch,
            ((W("Y", 1),),
             (R("a", "Y"), Store("X", 5, dep="a")),
             (R("p", "X"), FenceOp(fence), R("q", "Y"))),
        )

    def test_correct_in_tcg_model(self):
        src = self._prog(Arch.TCG)
        tgt = remove_false_dependency(src, 1, 1)
        assert correct(src, tgt, TCG)

    def test_incorrect_in_arm_model(self):
        """The same rewrite removes a dob edge at the Arm level —
        which is why Risotto performs it on the IR, not on Arm code."""
        src = self._prog(Arch.ARM)
        tgt = remove_false_dependency(src, 1, 1)
        assert not correct(src, tgt, ARM)

    def test_requires_false_dependency(self):
        src = tcg("p", (W("X", 1),))
        with pytest.raises(MappingError):
            remove_false_dependency(src, 0, 0)


class TestSubstituteReg:
    def test_constant_folds_branch(self):
        ops = (If("a", 1, then_ops=(W("X", 1),), else_ops=(W("X", 2),)),)
        # Requires 'a' defined; bypass program validation by calling the
        # substitution helper directly.
        assert substitute_reg(ops, "a", 1) == (W("X", 1),)
        assert substitute_reg(ops, "a", 0) == (W("X", 2),)

    def test_register_rename(self):
        ops = (Store("X", "a"), If("a", 1, then_ops=(Store("Y", "a"),)))
        out = substitute_reg(ops, "a", "b")
        assert out[0] == Store("X", "b")
        assert out[1].reg == "b"
        assert out[1].then_ops[0] == Store("Y", "b")
