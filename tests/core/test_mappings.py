"""Mapping-scheme unit tests: the translation tables of Figures 2/3/7."""

import pytest

from repro.core import Arch, Fence, Mode, RmwFlavor
from repro.core import mappings as M
from repro.core.litmus_library import CAS, MFENCE, R, W, x86
from repro.core.program import FenceOp, If, Load, Rmw, Store
from repro.errors import MappingError


class TestRisottoX86ToTcg:
    """Figure 7a."""

    def test_load_gets_trailing_frm(self):
        ops = M.risotto_x86_to_tcg.map_op(R("a", "X"))
        assert ops == (Load("a", "X"), FenceOp(Fence.FRM))

    def test_store_gets_leading_fww(self):
        ops = M.risotto_x86_to_tcg.map_op(W("X", 1))
        assert ops == (FenceOp(Fence.FWW), Store("X", 1))

    def test_rmw_becomes_tcg_rmw(self):
        (op,) = M.risotto_x86_to_tcg.map_op(CAS("X", 0, 1))
        assert isinstance(op, Rmw) and op.flavor is RmwFlavor.TCG

    def test_mfence_becomes_fsc(self):
        assert M.risotto_x86_to_tcg.map_op(MFENCE()) == \
            (FenceOp(Fence.FSC),)


class TestQemuX86ToTcg:
    """Figure 2 (with the Section 3.1 Frr demotion)."""

    def test_load_gets_leading_frr(self):
        ops = M.qemu_x86_to_tcg.map_op(R("a", "X"))
        assert ops == (FenceOp(Fence.FRR), Load("a", "X"))

    def test_store_gets_leading_fmw(self):
        ops = M.qemu_x86_to_tcg.map_op(W("X", 1))
        assert ops == (FenceOp(Fence.FMW), Store("X", 1))


class TestFenceLowering:
    """Figure 7b's fence rows."""

    @pytest.mark.parametrize("kind", [Fence.FRR, Fence.FRW, Fence.FRM])
    def test_read_fences_to_dmbld(self, kind):
        assert M.lower_tcg_fence(kind) == (FenceOp(Fence.DMBLD),)

    def test_fww_to_dmbst(self):
        assert M.lower_tcg_fence(Fence.FWW) == (FenceOp(Fence.DMBST),)

    @pytest.mark.parametrize(
        "kind", [Fence.FWR, Fence.FMM, Fence.FSC, Fence.FMR, Fence.FMW])
    def test_store_load_fences_to_dmbff(self, kind):
        assert M.lower_tcg_fence(kind) == (FenceOp(Fence.DMBFF),)

    @pytest.mark.parametrize("kind", [Fence.FACQ, Fence.FREL])
    def test_acq_rel_free_on_arm(self, kind):
        assert M.lower_tcg_fence(kind) == ()

    def test_non_tcg_fence_rejected(self):
        with pytest.raises(MappingError):
            M.lower_tcg_fence(Fence.DMBFF)


class TestRmwLowering:
    def test_rmw1al(self):
        (op,) = M.risotto_tcg_to_arm_rmw1.map_op(
            Rmw("X", 0, 1, RmwFlavor.TCG))
        assert op.flavor is RmwFlavor.AMO and op.acq and op.rel

    def test_rmw2_with_dmbff(self):
        ops = M.risotto_tcg_to_arm_rmw2.map_op(
            Rmw("X", 0, 1, RmwFlavor.TCG))
        assert ops[0] == FenceOp(Fence.DMBFF)
        assert ops[-1] == FenceOp(Fence.DMBFF)
        assert ops[1].flavor is RmwFlavor.LXSX
        assert not ops[1].acq and not ops[1].rel

    def test_qemu_helper_gcc9_is_bare_lxsx_al(self):
        ops = M.qemu_tcg_to_arm_gcc9.map_op(Rmw("X", 0, 1, RmwFlavor.TCG))
        assert len(ops) == 1
        assert ops[0].flavor is RmwFlavor.LXSX and ops[0].acq and ops[0].rel

    def test_qemu_helper_gcc10_is_bare_casal(self):
        ops = M.qemu_tcg_to_arm_gcc10.map_op(
            Rmw("X", 0, 1, RmwFlavor.TCG))
        assert len(ops) == 1
        assert ops[0].flavor is RmwFlavor.AMO


class TestArmCatsIntended:
    """Figure 3."""

    def test_load_is_acquire_pc(self):
        (op,) = M.armcats_intended.map_op(R("a", "X"))
        assert op.mode is Mode.ACQ_PC

    def test_store_is_release(self):
        (op,) = M.armcats_intended.map_op(W("X", 1))
        assert op.mode is Mode.REL

    def test_rmw_is_casal(self):
        (op,) = M.armcats_intended.map_op(CAS("X", 0, 1))
        assert op.flavor is RmwFlavor.AMO and op.acq and op.rel


class TestApplyAndCompose:
    def test_apply_recurses_into_if(self):
        prog = x86("p", (R("a", "X"),
                         If("a", 1, then_ops=(W("Y", 1),))))
        mapped = M.risotto_x86_to_tcg.apply(prog)
        branch = mapped.threads[0][2]
        assert isinstance(branch, If)
        assert branch.then_ops == (FenceOp(Fence.FWW), Store("Y", 1))

    def test_apply_retags_arch(self):
        prog = x86("p", (W("X", 1),))
        assert M.risotto_x86_to_tcg.apply(prog).arch is Arch.TCG

    def test_apply_wrong_arch_rejected(self):
        prog = x86("p", (W("X", 1),))
        arm_prog = M.risotto_x86_to_arm_rmw1.apply(prog)
        with pytest.raises(MappingError):
            M.risotto_x86_to_tcg.apply(arm_prog)

    def test_composition_matches_figure_7c(self):
        # RMOV -> ld; Frm -> LDR; DMBLD
        ops = M.risotto_x86_to_arm_rmw1.map_op(R("a", "X"))
        assert ops == (Load("a", "X"), FenceOp(Fence.DMBLD))
        # WMOV -> Fww; st -> DMBST; STR
        ops = M.risotto_x86_to_arm_rmw1.map_op(W("X", 1))
        assert ops == (FenceOp(Fence.DMBST), Store("X", 1))
        # MFENCE -> Fsc -> DMBFF
        ops = M.risotto_x86_to_arm_rmw1.map_op(MFENCE())
        assert ops == (FenceOp(Fence.DMBFF),)

    def test_incompatible_composition_rejected(self):
        with pytest.raises(MappingError):
            M.risotto_x86_to_tcg.then(M.risotto_x86_to_tcg)

    def test_registry_names_unique(self):
        # 13 paper-named mappings plus the derived most-* family.
        assert len(M.ALL_MAPPINGS) == 13 + len(M.SCHEME_MAPPINGS) == 29
        assert set(M.SCHEME_MAPPINGS) <= set(M.ALL_MAPPINGS)
        assert all(name == mapping.name
                   for name, mapping in M.ALL_MAPPINGS.items())
