"""Fence provenance: every executed DMB's cycles are attributed to
the mapping rule (or optimizer transform) that emitted the fence, all
the way from the x86 frontend through the Arm backend to the machine's
cycle accounting."""

import pytest

from repro.machine.cpu import UNTAGGED_ORIGIN
from repro.tcg.ir import MO_LD_LD, MO_ST_ST, Const, Op, TCGBlock
from repro.tcg.optimizer import OptimizerConfig, optimize
from repro.api import SPEC_BY_NAME, run_kernel

SPEC = SPEC_BY_NAME["histogram"]


@pytest.fixture(scope="module")
def qemu_result():
    return run_kernel(SPEC, variant="qemu", seed=7).result


@pytest.fixture(scope="module")
def risotto_result():
    return run_kernel(SPEC, variant="risotto", seed=7).result


class TestEndToEnd:
    def test_origins_partition_fence_cycles(self, qemu_result,
                                            risotto_result):
        """Figure 12's by-origin footer must reconcile exactly."""
        for result in (qemu_result, risotto_result):
            by_origin = result.fence_cycles_by_origin
            assert by_origin, "fence-heavy kernel must attribute fences"
            assert sum(by_origin.values()) == result.fence_cycles

    def test_qemu_origins_are_figure2_rules(self, qemu_result):
        origins = set(qemu_result.fence_cycles_by_origin)
        assert "RMOV->Frr;ld" in origins
        assert "WMOV->Fmw;st" in origins
        assert UNTAGGED_ORIGIN not in origins

    def test_risotto_origins_are_figure7_rules(self, risotto_result):
        origins = set(risotto_result.fence_cycles_by_origin)
        assert "RMOV->ld;Frm" in origins
        assert "WMOV->Fww;st" in origins
        assert UNTAGGED_ORIGIN not in origins

    def test_variants_never_share_mapping_origins(self, qemu_result,
                                                  risotto_result):
        shared = set(qemu_result.fence_cycles_by_origin) & \
            set(risotto_result.fence_cycles_by_origin)
        # fence_merge may fire for both; the mapping rules must not.
        assert shared <= {"fence_merge:strengthen"}

    def test_block_profile_covers_dispatches(self, qemu_result):
        profile = qemu_result.block_profile
        assert profile, "hot-block profile must be populated"
        dispatches = sum(d for d, _ in profile.values())
        assert dispatches == qemu_result.stats.block_dispatches
        # attributed cycles accumulate across cores, so the bound is
        # the machine-wide total, not the elapsed (max-core) count.
        hottest_cycles = max(c for _, c in profile.values())
        assert 0 < hottest_cycles <= qemu_result.total_cycles


class TestOptimizerPreservesOrigins:
    def _origins(self, block):
        return [op.origin for op in block.ops if op.name == "mb"]

    def test_constprop_rebuild_keeps_origin(self):
        """Regression: constprop's generic rebuild branch used to drop
        ``Op.origin``, collapsing every fence bucket to 'untagged'."""
        block = TCGBlock(guest_pc=0x1000)
        t0 = block.new_temp()
        block.movi(t0, 5)
        block.mb(MO_LD_LD, origin="RMOV->Frr;ld")
        optimize(block, OptimizerConfig(
            constprop=True, memopt=False, fence_merge=False,
            deadcode=False))
        assert self._origins(block) == ["RMOV->Frr;ld"]

    def test_fence_merge_tags_strengthened_fence(self):
        block = TCGBlock(guest_pc=0x1000)
        block.mb(MO_LD_LD, origin="RMOV->Frr;ld")
        block.mb(MO_ST_ST, origin="WMOV->Fww;st")
        stats = optimize(block, OptimizerConfig(
            constprop=False, memopt=False, fence_merge=True,
            deadcode=False))
        assert stats.fences_merged == 1
        assert self._origins(block) == ["fence_merge:strengthen"]

    def test_full_pipeline_keeps_origin(self):
        block = TCGBlock(guest_pc=0x2000)
        t0 = block.new_temp()
        block.movi(t0, 1)
        block.mb(MO_ST_ST, origin="WMOV->Fww;st")
        optimize(block, OptimizerConfig())
        assert self._origins(block) == ["WMOV->Fww;st"]

    def test_origin_is_not_part_of_op_identity(self):
        a = Op("mb", (Const(1),), origin="RMOV->Frr;ld")
        b = Op("mb", (Const(1),), origin="WMOV->Fww;st")
        assert a == b  # provenance is metadata, not semantics
