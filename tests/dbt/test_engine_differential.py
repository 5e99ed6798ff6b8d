"""Differential testing: the DBT against the x86 reference interpreter.

For any guest program, translating to Arm and running on the simulated
host must produce exactly the final registers, flags and memory that
the reference x86 interpreter produces — under every variant.  This is
the end-to-end semantic-preservation property of the whole pipeline
(decode → IR → optimize → Arm codegen → execution).
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dbt import DBTEngine, guest_reg, resolve_variant
from repro.dbt.runtime import STACK_BASE, STACK_SIZE, guest_flag
from repro.isa.x86 import CpuState, X86Interpreter, assemble
from repro.isa.x86.insns import GPR

SCRATCH = 0x9000
CODE_BASE = 0x400000
#: The stack pointer the DBT gives the main guest thread.
DBT_RSP = STACK_BASE + STACK_SIZE - 0x100 - 8


class RefMemory:
    def __init__(self, code, base):
        self.words = {}
        self.code = code
        self.base = base

    def load_word(self, addr):
        return self.words.get(addr, 0)

    def store_word(self, addr, value):
        self.words[addr] = value & ((1 << 64) - 1)

    def read_bytes(self, addr, count):
        off = addr - self.base
        return self.code[off:off + count]


def reference_run(assembly):
    memory = RefMemory(assembly.code, assembly.base)
    state = CpuState()
    state.rip = assembly.base
    state.regs["rsp"] = DBT_RSP
    X86Interpreter(memory).run(state)
    return state, memory


def dbt_run(assembly, variant):
    engine = DBTEngine(resolve_variant(variant), n_cores=1)
    engine.load_image(assembly.base, assembly.code)
    result = engine.run(assembly.base)
    core = engine.machine.core(0)
    return core, engine.machine.memory, result


def check_equivalence(source, variants=("qemu", "risotto"),
                      compare_flags=True):
    assembly = assemble(source + "\n hlt", base=CODE_BASE)
    ref_state, ref_memory = reference_run(assembly)
    for variant in variants:
        core, memory, _ = dbt_run(assembly, variant)
        for reg in GPR:
            assert guest_reg(core, reg) == ref_state.regs[reg], \
                f"{variant}: {reg}"
        if compare_flags:
            for flag in ("zf", "sf", "cf", "of"):
                assert bool(guest_flag(core, flag)) == \
                    ref_state.flags[flag], f"{variant}: {flag}"
        for addr, value in ref_memory.words.items():
            assert memory.load_word(addr) == value, \
                f"{variant}: [{addr:#x}]"


#: A store, a load that reaches the same word through another base
#: register, and a second store to the first address: the load reads
#: the first store, so WAW must keep it.
WAW_ALIASING_LOAD = """
    mov rbx, rsp
    sub rbx, 64
    mov rdx, 7
    mov [rbx + 8], rdx
    mov rcx, rbx
    add rcx, 16
    mov rax, [rcx - 8]
    mov rdx, 9
    mov [rbx + 8], rdx
"""


class TestHandWritten:
    def test_arithmetic(self):
        check_equivalence("""
            mov rax, 1000
            mov rbx, 37
            sub rax, rbx
            imul rax, 3
            shl rax, 2
            xor rax, 0xFF
        """)

    def test_memory_and_addressing(self):
        check_equivalence(f"""
            mov rbx, {SCRATCH}
            mov rcx, 5
            mov rax, 77
            mov [rbx + rcx*8 + 16], rax
            mov rdx, [rbx + 56]
            add rdx, [rbx + 56]
            mov [rbx], rdx
        """)

    def test_loop_with_flags(self):
        check_equivalence("""
            mov rax, 0
            mov rcx, 37
        again:
            add rax, rcx
            dec rcx
            jne again
        """)

    def test_signed_unsigned_branches(self):
        check_equivalence("""
            mov rax, -3
            cmp rax, 5
            jl somewhere
            mov rbx, 111
            jmp out
        somewhere:
            mov rbx, 222
            cmp rax, 5
            ja above
            mov rdx, 1
            jmp out
        above:
            mov rdx, 2
        out:
        """)

    def test_call_ret_stack(self):
        check_equivalence("""
            mov rdi, 6
            call fact
            jmp done
        fact:
            mov rax, 1
        floop:
            imul rax, rdi
            dec rdi
            jne floop
            ret
        done:
        """)

    def test_push_pop(self):
        check_equivalence("""
            mov rax, 11
            push rax
            mov rax, 22
            push rax
            pop rbx
            pop rcx
        """)

    def test_atomics(self):
        check_equivalence(f"""
            mov rbx, {SCRATCH}
            mov rax, 0
            mov rcx, 7
            lock cmpxchg [rbx], rcx
            mov rdx, 5
            lock xadd [rbx], rdx
            mov rsi, 100
            xchg [rbx], rsi
        """)

    def test_fp_helpers_match_reference(self):
        import struct

        def bits(x):
            return struct.unpack("<Q", struct.pack("<d", x))[0]

        check_equivalence(f"""
            mov rax, {bits(1.5)}
            mov rbx, {bits(2.5)}
            fadd rax, rbx
            fmul rax, rbx
            fsqrt rcx, rbx
            mov rdx, {bits(3.0)}
            fdiv rax, rdx
        """)

    def test_mfence_is_transparent_single_threaded(self):
        check_equivalence(f"""
            mov rbx, {SCRATCH}
            mov rax, 1
            mov [rbx], rax
            mfence
            mov rcx, [rbx]
        """)

    @pytest.mark.parametrize("variant", [
        "no-fences", "most-pso-lead", "most-rmo-bare", "most-no-fences"])
    def test_waw_keeps_a_store_an_aliasing_load_reads(self, variant):
        """Regression: WAW dropped the first store because the load
        between the stores names a different base register.  Variants
        with a fence between the accesses hid it: a fence blocks WAW."""
        check_equivalence(WAW_ALIASING_LOAD, variants=(variant,))

    def test_div(self):
        check_equivalence("""
            mov rax, 12345
            mov rcx, 97
            div rcx
        """)

    def test_movzx_neg_not(self):
        check_equivalence("""
            mov rax, -1
            movzx rbx, rax
            neg rax
            not rbx
        """)


_OPS = ("add", "sub", "and", "or", "xor", "imul")
_REGS = ("rax", "rbx", "rcx", "rdx", "rsi", "r8", "r9", "r10")


def _random_program(seed: int) -> str:
    rng = random.Random(seed)
    lines = [f"    mov rdi, {SCRATCH}"]
    for reg in _REGS:
        lines.append(f"    mov {reg}, {rng.randint(-2**31, 2**31)}")
    for _ in range(rng.randint(5, 25)):
        choice = rng.random()
        dst = rng.choice(_REGS)
        if choice < 0.45:
            op = rng.choice(_OPS)
            src = rng.choice(_REGS) if rng.random() < 0.7 \
                else rng.randint(-1000, 1000)
            lines.append(f"    {op} {dst}, {src}")
        elif choice < 0.6:
            off = rng.randrange(0, 64, 8)
            lines.append(f"    mov [rdi + {off}], {dst}")
        elif choice < 0.75:
            off = rng.randrange(0, 64, 8)
            lines.append(f"    mov {dst}, [rdi + {off}]")
        elif choice < 0.85:
            lines.append(f"    shl {dst}, {rng.randint(0, 8)}")
            lines.append(f"    shr {dst}, {rng.randint(0, 8)}")
        elif choice < 0.95:
            src = rng.choice(_REGS)
            lines.append(f"    cmp {dst}, {src}")
        else:
            lines.append("    mfence")
    return "\n".join(lines)


class TestRandomized:
    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_random_straightline_programs(self, seed):
        """Property: translated execution == reference execution."""
        check_equivalence(_random_program(seed),
                          variants=("qemu", "no-fences", "risotto"))

    @given(st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_optimizer_never_changes_results(self, seed):
        """Same program with the optimizer fully disabled, against the
        default pipeline and against every rule set on (memory-access
        elimination runs only there)."""
        from repro.dbt.config import RISOTTO
        from repro.tcg.optimizer import OptimizerConfig

        source = _random_program(seed)
        assembly = assemble(source + "\n hlt", base=CODE_BASE)

        def final_regs(optimizer: OptimizerConfig) -> dict:
            engine = DBTEngine(RISOTTO.with_overrides(optimizer=optimizer),
                               n_cores=1)
            engine.load_image(assembly.base, assembly.code)
            engine.run(assembly.base)
            return {reg: guest_reg(engine.machine.core(0), reg)
                    for reg in GPR}

        raw = final_regs(OptimizerConfig(
            constprop=False, memopt=False, fence_merge=False,
            deadcode=False))
        assert final_regs(OptimizerConfig()) == raw
        assert final_regs(OptimizerConfig(memopt=True)) == raw
