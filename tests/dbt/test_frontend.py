"""x86 frontend tests: fence schemes, CAS policies, block shapes."""

import pytest

from repro.core.most import NOFENCES_SCHEME, QEMU_SCHEME, RISOTTO_SCHEME
from repro.isa.x86.assembler import assemble
from repro.machine.memory import Memory
from repro.tcg.frontend_x86 import CasPolicy, FrontendConfig, X86Frontend
from repro.tcg.ir import MO_ALL, MO_LD_LD, MO_LD_ST, MO_ST_ST


def translate(source, scheme=RISOTTO_SCHEME,
              cas=CasPolicy.NATIVE, limit=64):
    assembly = assemble(source, base=0x1000)
    memory = Memory()
    memory.add_image(assembly.base, assembly.code)
    frontend = X86Frontend(FrontendConfig(
        cas_policy=cas, block_insn_limit=limit, scheme=scheme))
    return frontend.translate_block(memory, 0x1000)


def ops_named(block, name):
    return [op for op in block.ops if op.name == name]


def fence_masks(block):
    return [op.args[0].value for op in ops_named(block, "mb")]


class TestFencePolicies:
    SOURCE = "mov rax, [rbx]\n mov [rbx + 8], rax\n hlt"

    def test_risotto_trailing_frm_leading_fww(self):
        block = translate(self.SOURCE, RISOTTO_SCHEME)
        masks = fence_masks(block)
        assert masks == [MO_LD_LD | MO_LD_ST, MO_ST_ST]
        # Frm comes after the ld, Fww before the st.
        names = [op.name for op in block.ops
                 if op.name in ("ld", "st", "mb")]
        assert names == ["ld", "mb", "mb", "st"]

    def test_qemu_leading_frr_fmw(self):
        block = translate(self.SOURCE, QEMU_SCHEME)
        masks = fence_masks(block)
        assert masks == [MO_LD_LD, MO_LD_ST | MO_ST_ST]
        names = [op.name for op in block.ops
                 if op.name in ("ld", "st", "mb")]
        assert names == ["mb", "ld", "mb", "st"]

    def test_nofences_emits_nothing(self):
        block = translate(self.SOURCE, NOFENCES_SCHEME)
        assert fence_masks(block) == []

    def test_mfence_full_barrier(self):
        block = translate("mfence\n hlt", RISOTTO_SCHEME)
        assert fence_masks(block) == [MO_ALL]

    def test_mfence_dropped_by_nofences(self):
        block = translate("mfence\n hlt", NOFENCES_SCHEME)
        assert fence_masks(block) == []


class TestCasPolicies:
    SOURCE = "lock cmpxchg [rbx], rcx\n hlt"

    def test_native_cas_op(self):
        block = translate(self.SOURCE, cas=CasPolicy.NATIVE)
        assert len(ops_named(block, "cas")) == 1
        assert not any(op.name == "call" and op.args[0] ==
                       "helper_cmpxchg" for op in block.ops)

    def test_helper_cas_call(self):
        block = translate(self.SOURCE, cas=CasPolicy.HELPER)
        assert not ops_named(block, "cas")
        calls = [op for op in block.ops if op.name == "call"
                 and op.args[0] == "helper_cmpxchg"]
        assert len(calls) == 1

    def test_xadd_policies(self):
        source = "lock xadd [rbx], rcx\n hlt"
        native = translate(source, cas=CasPolicy.NATIVE)
        helper = translate(source, cas=CasPolicy.HELPER)
        assert ops_named(native, "atomic_add")
        assert not ops_named(helper, "atomic_add")

    def test_xchg_policies(self):
        source = "xchg [rbx], rcx\n hlt"
        native = translate(source, cas=CasPolicy.NATIVE)
        assert ops_named(native, "atomic_xchg")

    def test_cmpxchg_sets_zf_and_rax(self):
        block = translate(self.SOURCE, cas=CasPolicy.NATIVE)
        setconds = ops_named(block, "setcond")
        assert any(op.args[0].name == "g_zf" for op in setconds)


class TestBlockStructure:
    def test_block_ends_at_branch(self):
        block = translate("mov rax, 1\n jmp 0x2000\n mov rbx, 2\n hlt")
        assert block.guest_insns == 2  # the mov after jmp is unreached

    def test_conditional_jump_two_exits(self):
        block = translate("cmp rax, 0\n je 0x2000\n hlt")
        gotos = ops_named(block, "goto_tb")
        assert len(gotos) == 2  # fallthrough + taken

    def test_block_limit_forces_goto(self):
        source = "\n".join(["mov rax, 1"] * 10) + "\n hlt"
        block = translate(source, limit=4)
        assert block.guest_insns == 4
        assert ops_named(block, "goto_tb")

    def test_ret_exits_via_computed_target(self):
        block = translate("ret")
        exits = ops_named(block, "exit_tb")
        assert len(exits) == 1

    def test_call_pushes_return_address(self):
        block = translate("call 0x2000")
        assert ops_named(block, "st")  # return address push

    def test_fp_goes_through_helpers(self):
        block = translate("fadd rax, rbx\n hlt")
        calls = [op for op in block.ops if op.name == "call"]
        assert any(c.args[0] == "helper_fadd" for c in calls)

    def test_syscall_and_halt_are_helper_calls(self):
        block = translate("syscall")
        assert any(op.name == "call" and op.args[0] == "helper_syscall"
                   for op in block.ops)
        block = translate("hlt")
        assert any(op.name == "call" and op.args[0] == "helper_halt"
                   for op in block.ops)
