"""The pre-bound instruction table: every binder × operand shape, the
error paths, and the invariants the table rests on.

Single-instruction semantics go through ``ArmCore.execute`` (bind and
call, no fetch) against references written here from the Arm manual's
definitions, not from the binders; the fetch-side contracts (lazy
binding, traps first, no caching of a miss, release at the end of
``Machine.run``, one scheduler draw per step) go through images.
"""

import gc
import struct
import weakref
from random import Random

import pytest

from repro.errors import DecodeError, MachineError
from repro.isa.arm import assemble
from repro.isa.arm.insns import CODER, CONDITIONS
from repro.isa.common import Imm, Insn, Mem, Reg
from repro.machine import (
    ArmCore,
    BufferMode,
    CostModel,
    Machine,
    Memory,
    cond_index,
)
from repro.machine import cpu as cpu_module

U64 = (1 << 64) - 1
COSTS = CostModel()
BIG = U64 - 4          # "negative" as a signed value
MID = 0x8000_0000_0000_0000
BASE = 0x10000


def signed(value: int) -> int:
    return value - (1 << 64) if value >> 63 else value


def fresh_core(buffer_mode=BufferMode.NONE, **machine_kwargs):
    machine = Machine(n_cores=2, buffer_mode=buffer_mode,
                      track_coherence=False, **machine_kwargs)
    return machine.core(0), machine


def run_insn(insn: Insn, regs=None, core=None):
    """Execute one instruction on a core whose registers hold
    distinct junk except where ``regs`` says otherwise; returns the
    core and the registers that changed."""
    if core is None:
        core, _ = fresh_core()
    for i in range(31):
        core.regs[f"x{i}"] = 0x1111 * (i + 1)
    core.regs.update(regs or {})
    before = dict(core.regs)
    core.execute(insn)
    changed = {name: value for name, value in core.regs.items()
               if before[name] != value}
    assert core.regs["xzr"] == 0 and core.get("xzr") == 0
    return core, changed


# ----------------------------------------------------------------------
# ALU group
# ----------------------------------------------------------------------
ALU_REFERENCE = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "and": lambda a, b: a & b,
    "orr": lambda a, b: a | b,
    "eor": lambda a, b: a ^ b,
    "lsl": lambda a, b: a << (b % 64),
    "lsr": lambda a, b: a >> (b % 64),
    "asr": lambda a, b: signed(a) >> (b % 64),
    "mul": lambda a, b: a * b,
    "udiv": lambda a, b: a // b if b else 0,
}
#: (left operand, right operand, their values)
ALU_SHAPES = {
    "reg,reg": (Reg("x1"), Reg("x2"), BIG, 3),
    "reg,imm": (Reg("x1"), Imm(7), MID + 9, 7),
    "reg,negative-imm": (Reg("x1"), Imm(-2), 5, U64 - 1),
    "imm,reg": (Imm(12), Reg("x2"), 12, 5),
    "imm,imm": (Imm(-1), Imm(65), U64, 65),
    "same-reg": (Reg("x1"), Reg("x1"), BIG, BIG),
    "xzr,reg": (Reg("xzr"), Reg("x2"), 0, 9),
    "reg,xzr": (Reg("x1"), Reg("xzr"), BIG, 0),
}


class TestAluGroup:
    @pytest.mark.parametrize("shape", sorted(ALU_SHAPES))
    @pytest.mark.parametrize("mnemonic", sorted(ALU_REFERENCE))
    def test_result_and_cost(self, mnemonic, shape):
        left, right, a, b = ALU_SHAPES[shape]
        regs = {op.name: value for op, value in ((left, a), (right, b))
                if isinstance(op, Reg) and op.name != "xzr"}
        core, changed = run_insn(
            Insn(mnemonic, (Reg("x0"), left, right)), regs)
        want = ALU_REFERENCE[mnemonic](a, b) & U64
        assert core.regs["x0"] == want
        assert set(changed) <= {"x0"}
        assert core.cycles == COSTS.alu and core.pc == 0

    @pytest.mark.parametrize("mnemonic", sorted(ALU_REFERENCE))
    def test_xzr_destination_discards(self, mnemonic):
        core, changed = run_insn(
            Insn(mnemonic, (Reg("xzr"), Reg("x1"), Imm(3))), {"x1": 40})
        assert changed == {} and core.cycles == COSTS.alu

    def test_asr_keeps_the_sign(self):
        core, _ = run_insn(Insn("asr", (Reg("x0"), Reg("x1"), Imm(4))),
                           {"x1": U64 - 0xFF})
        assert core.regs["x0"] == (U64 - 0xFF >> 4) | (0xF << 60)

    def test_udiv_by_zero_is_zero(self):
        core, _ = run_insn(Insn("udiv", (Reg("x0"), Reg("x1"),
                                         Reg("x2"))), {"x1": 9, "x2": 0})
        assert core.regs["x0"] == 0

    @pytest.mark.parametrize("mnemonic,want", [
        ("mvn", U64 ^ 0xF0), ("neg", U64 - 0xF0 + 1)])
    @pytest.mark.parametrize("source", [Reg("x1"), Imm(0xF0)],
                             ids=["reg", "imm"])
    def test_unary(self, mnemonic, want, source):
        core, changed = run_insn(
            Insn(mnemonic, (Reg("x0"), source)), {"x1": 0xF0})
        assert changed == {"x0": want} and core.cycles == COSTS.alu

    @pytest.mark.parametrize("mnemonic", ["mov", "movz"])
    @pytest.mark.parametrize("source,want", [
        (Reg("x1"), BIG), (Imm(77), 77), (Imm(-1), U64),
        (Reg("xzr"), 0)], ids=["reg", "imm", "negative-imm", "xzr"])
    def test_mov(self, mnemonic, source, want):
        core, changed = run_insn(
            Insn(mnemonic, (Reg("x0"), source)), {"x1": BIG})
        assert changed == {"x0": want} and core.cycles == COSTS.mov

    def test_mov_to_xzr_discards(self):
        _, changed = run_insn(Insn("mov", (Reg("xzr"), Imm(7))))
        assert changed == {}

    def test_fp_group(self):
        def bits(x):
            return struct.unpack("<Q", struct.pack("<d", x))[0]

        def run(mnemonic, *values):
            regs = {f"x{i + 1}": bits(v) for i, v in enumerate(values)}
            ops = (Reg("x0"),) + tuple(Reg(name) for name in regs)
            core, _ = run_insn(Insn(mnemonic, ops), regs)
            assert core.cycles == COSTS.fp_native
            return struct.unpack(
                "<d", struct.pack("<Q", core.regs["x0"]))[0]

        assert run("fadd", 1.5, 2.25) == 3.75
        assert run("fmul", -3.0, 0.5) == -1.5
        assert run("fdiv", 1.0, 4.0) == 0.25
        assert run("fdiv", 1.0, 0.0) == float("inf")
        assert run("fsqrt", 6.25) == 2.5
        assert run("fsqrt", -1.0) != run("fsqrt", -1.0)  # NaN


# ----------------------------------------------------------------------
# Flags and every condition, through cset, csel and b.<cond>
# ----------------------------------------------------------------------
CONDITION_REFERENCE = {
    "eq": lambda a, b: a == b,
    "ne": lambda a, b: a != b,
    "lt": lambda a, b: signed(a) < signed(b),
    "ge": lambda a, b: signed(a) >= signed(b),
    "le": lambda a, b: signed(a) <= signed(b),
    "gt": lambda a, b: signed(a) > signed(b),
    "lo": lambda a, b: a < b,
    "hs": lambda a, b: a >= b,
    "ls": lambda a, b: a <= b,
    "hi": lambda a, b: a > b,
    "mi": lambda a, b: signed((a - b) & U64) < 0,
    "pl": lambda a, b: signed((a - b) & U64) >= 0,
}
COMPARE_PAIRS = [(3, 3), (2, 5), (5, 2), (BIG, 2), (2, BIG),
                 (MID, 1), (1, MID), (MID - 1, U64), (0, 0), (U64, U64)]


def compared(a: int, b: int, shape: str = "reg,reg"):
    left, right = {
        "reg,reg": (Reg("x1"), Reg("x2")),
        "reg,imm": (Reg("x1"), Imm(signed(b))),
        "imm,imm": (Imm(signed(a)), Imm(signed(b))),
    }[shape]
    core, changed = run_insn(Insn("cmp", (left, right)),
                             {"x1": a, "x2": b})
    assert changed == {} and core.cycles == COSTS.alu
    core.cycles = 0
    return core


class TestConditions:
    def test_every_condition_is_covered(self):
        assert set(CONDITION_REFERENCE) == set(CONDITIONS)

    @pytest.mark.parametrize("shape", ["reg,reg", "reg,imm", "imm,imm"])
    @pytest.mark.parametrize("a,b", COMPARE_PAIRS)
    def test_cmp_sets_nzcv(self, a, b, shape):
        flags = compared(a, b, shape).flags
        result = (a - b) & U64
        assert flags == {
            "n": result >> 63 == 1, "z": result == 0, "c": a >= b,
            "v": not -(1 << 63) <= signed(a) - signed(b) < (1 << 63)}
        assert all(type(value) is bool for value in flags.values())

    @pytest.mark.parametrize("a,b", COMPARE_PAIRS)
    @pytest.mark.parametrize("name", CONDITIONS)
    def test_cset_csel_and_branch_agree_with_the_reference(
            self, name, a, b):
        want = CONDITION_REFERENCE[name](a, b)
        index = Imm(cond_index(name))

        core = compared(a, b)
        assert core.condition(name) is want
        core.execute(Insn("cset", (Reg("x0"), index)))
        assert core.regs["x0"] == int(want)
        core.regs["x9"] = cond_index(name)
        core.execute(Insn("cset", (Reg("x3"), Reg("x9"))))
        assert core.regs["x3"] == int(want)
        core.execute(Insn("csel", (Reg("x4"), Reg("x5"), Imm(-1),
                                   index)))
        assert core.regs["x4"] == (core.regs["x5"] if want else U64)
        assert core.cycles == 3 * COSTS.alu

        core = compared(a, b)
        core.pc = 0x40
        core.execute(Insn(f"b.{name}", (Imm(0x9000),)))
        assert core.pc == (0x9000 if want else 0x40)
        assert core.cycles == (COSTS.branch_taken if want
                               else COSTS.branch)

    def test_condition_index_out_of_range_faults_when_executed(self):
        core, _ = fresh_core()
        with pytest.raises(IndexError):
            core.execute(Insn("cset", (Reg("x0"), Imm(len(CONDITIONS)))))


class TestBranches:
    def test_b_and_bl(self):
        core, _ = fresh_core()
        core.pc = 0x44
        core.execute(Insn("b", (Imm(0x100),)))
        assert (core.pc, core.cycles) == (0x100, COSTS.branch_taken)
        core.execute(Insn("bl", (Imm(0x200),)))
        assert (core.pc, core.regs["x30"]) == (0x200, 0x100)
        assert core.cycles == COSTS.branch_taken + COSTS.call

    def test_register_targets(self):
        core, _ = fresh_core()
        core.pc, core.regs["x5"] = 0x44, 0x300
        core.execute(Insn("blr", (Reg("x5"),)))
        assert (core.pc, core.regs["x30"]) == (0x300, 0x44)
        core.execute(Insn("br", (Reg("x5"),)))
        assert core.pc == 0x300
        core.pc = 0
        core.execute(Insn("ret"))
        assert core.pc == 0x44
        assert core.cycles == COSTS.call + 2 * COSTS.branch_taken

    def test_blr_through_the_link_register_returns_to_itself(self):
        core, _ = fresh_core()
        core.pc, core.regs["x30"] = 0x44, 0x300
        core.execute(Insn("blr", (Reg("x30"),)))
        assert core.pc == 0x44

    @pytest.mark.parametrize("mnemonic,value,taken", [
        ("cbz", 0, True), ("cbz", 4, False),
        ("cbnz", 0, False), ("cbnz", 4, True), ("cbz", None, True)])
    def test_compare_and_branch(self, mnemonic, value, taken):
        probe = Reg("xzr") if value is None else Reg("x3")
        core, _ = fresh_core()
        core.pc, core.regs["x3"] = 0x44, value or 0
        core.execute(Insn(mnemonic, (probe, Imm(0x500))))
        assert core.pc == (0x500 if taken else 0x44)
        assert core.cycles == (COSTS.branch_taken if taken
                               else COSTS.branch)


# ----------------------------------------------------------------------
# Memory operands and the ordered / exclusive / atomic accesses
# ----------------------------------------------------------------------
MEM_SHAPES = {
    "base": (Mem(base="x1"), 0x2000),
    "base+offset": (Mem(base="x1", offset=24), 0x2018),
    "base-offset": (Mem(base="x1", offset=-8), 0x1FF8),
    "base+index*scale": (Mem(base="x1", offset=8, index="x2", scale=8),
                         0x2000 + 8 + 5 * 8),
    "index*scale": (Mem(offset=0x100, index="x2", scale=4), 0x114),
    "absolute": (Mem(offset=0x3000), 0x3000),
    "xzr-base": (Mem(base="xzr", offset=0x40), 0x40),
    "wraps": (Mem(base="x3", offset=16), 8),
}
MEM_REGS = {"x1": 0x2000, "x2": 5, "x3": U64 - 7}


class TestMemoryOperands:
    @pytest.mark.parametrize("shape", sorted(MEM_SHAPES))
    def test_load_and_store_address(self, shape):
        mem, address = MEM_SHAPES[shape]
        core, machine = fresh_core()
        machine.memory.store_word(address, 0xABCD)
        core, changed = run_insn(Insn("ldr", (Reg("x0"), mem)),
                                 MEM_REGS, core)
        assert changed == {"x0": 0xABCD} and core.cycles == COSTS.load
        core.execute(Insn("str", (Reg("x2"), mem)))
        assert machine.memory.load_word(address) == 5
        assert core.cycles == COSTS.load + COSTS.store

    def test_store_of_xzr_and_load_into_xzr(self):
        core, machine = fresh_core()
        machine.memory.store_word(0x2000, 9)
        core, changed = run_insn(
            Insn("ldr", (Reg("xzr"), Mem(base="x1"))), MEM_REGS, core)
        assert changed == {}
        core.execute(Insn("str", (Reg("xzr"), Mem(base="x1"))))
        assert machine.memory.load_word(0x2000) == 0

    @pytest.mark.parametrize("mnemonic,cost", [
        ("ldr", COSTS.load),
        ("ldar", COSTS.load + COSTS.acquire_extra),
        ("ldapr", COSTS.load + COSTS.acquire_extra),
        ("ldxr", COSTS.exclusive_op),
        ("ldaxr", COSTS.exclusive_op + COSTS.acquire_extra)])
    def test_load_costs(self, mnemonic, cost):
        core, machine = fresh_core()
        machine.memory.store_word(0x2000, 3)
        core, changed = run_insn(
            Insn(mnemonic, (Reg("x0"), Mem(base="x1"))), MEM_REGS, core)
        assert changed == {"x0": 3} and core.cycles == cost
        reserved = machine.memory.take_exclusive(core.core_id, 0x2000)
        assert reserved is mnemonic.endswith("xr")

    def test_store_costs_and_release_barrier(self):
        core, machine = fresh_core(BufferMode.WEAK)
        core.regs.update(MEM_REGS)
        core.execute(Insn("str", (Reg("x2"), Mem(base="x1"))))
        assert core.cycles == COSTS.store
        core.execute(Insn("stlr", (Reg("x2"), Mem(base="x1",
                                                  offset=64))))
        assert core.cycles == 2 * COSTS.store + COSTS.release_extra
        # The release store sits behind a barrier: the plain store
        # must drain first.
        assert core.buffer.pending() == 2
        assert len(core.buffer.entries) == 3
        assert machine.memory.snapshot() == {}

    @pytest.mark.parametrize("mnemonic,cost", [
        ("stxr", COSTS.exclusive_op),
        ("stlxr", COSTS.exclusive_op + COSTS.release_extra)])
    def test_store_exclusive(self, mnemonic, cost):
        store = Insn(mnemonic, (Reg("x4"), Reg("x2"), Mem(base="x1")))
        core, machine = fresh_core()
        core.regs.update(MEM_REGS)

        core.execute(store)                        # no reservation
        assert core.regs["x4"] == 1 and core.cycles == cost
        assert machine.memory.snapshot() == {}

        core.execute(Insn("ldxr", (Reg("x0"), Mem(base="x1"))))
        core.execute(store)
        assert core.regs["x4"] == 0
        assert machine.memory.load_word(0x2000) == 5

        core.execute(Insn("ldxr", (Reg("x0"), Mem(base="x1"))))
        machine.memory.store_word(0x2000, 77)      # foreign store
        core.execute(store)
        assert core.regs["x4"] == 1
        assert machine.memory.load_word(0x2000) == 77

    def test_status_into_xzr_still_stores(self):
        core, machine = fresh_core()
        core.regs.update(MEM_REGS)
        core.execute(Insn("ldxr", (Reg("x0"), Mem(base="x1"))))
        core.execute(Insn("stxr", (Reg("xzr"), Reg("x2"),
                                   Mem(base="x1"))))
        assert machine.memory.load_word(0x2000) == 5
        assert core.regs["xzr"] == 0

    def test_spurious_failure_takes_one_draw_from_the_core_stream(self):
        rate = 0.5
        store = Insn("stxr", (Reg("x4"), Reg("x2"), Mem(base="x1")))
        core, machine = fresh_core(spurious_failure_rate=rate, seed=3)
        core.regs.update(MEM_REGS)
        mirror = Random()
        mirror.setstate(core.rng.getstate())

        core.execute(store)        # no reservation: nothing drawn
        assert core.rng.getstate() == mirror.getstate()

        outcomes = []
        for _ in range(32):
            core.execute(Insn("ldxr", (Reg("x0"), Mem(base="x1"))))
            core.execute(store)
            outcomes.append(core.regs["x4"])
            assert outcomes[-1] == int(mirror.random() < rate)
            assert core.rng.getstate() == mirror.getstate()
        assert set(outcomes) == {0, 1}

    @pytest.mark.parametrize("mnemonic", ["cas", "casa", "casl",
                                          "casal"])
    def test_compare_and_swap(self, mnemonic):
        core, machine = fresh_core()
        machine.memory.store_word(0x2000, 11)
        swap = Insn(mnemonic, (Reg("x5"), Reg("x2"), Mem(base="x1")))
        core, changed = run_insn(swap, {**MEM_REGS, "x5": 10}, core)
        assert changed == {"x5": 11}                    # mismatch
        assert machine.memory.load_word(0x2000) == 11
        core.execute(swap)                              # now matches
        assert machine.memory.load_word(0x2000) == 5
        assert core.regs["x5"] == 11
        assert core.cycles == 2 * COSTS.cas_op

    def test_cas_expecting_xzr(self):
        core, machine = fresh_core()
        swap = Insn("casal", (Reg("xzr"), Reg("x2"), Mem(base="x1")))
        core, changed = run_insn(swap, MEM_REGS, core)
        assert changed == {}
        assert machine.memory.load_word(0x2000) == 5
        machine.memory.store_word(0x2000, 6)
        core.execute(swap)                  # 6 != 0: left alone
        assert machine.memory.load_word(0x2000) == 6
        assert core.regs["xzr"] == 0

    def test_fetch_add_and_swap(self):
        core, machine = fresh_core()
        machine.memory.store_word(0x2000, U64)
        core, changed = run_insn(
            Insn("ldaddal", (Reg("x2"), Reg("x6"), Mem(base="x1"))),
            MEM_REGS, core)
        assert changed == {"x6": U64}
        assert machine.memory.load_word(0x2000) == 4    # wrapped
        core.execute(Insn("swpal", (Reg("x2"), Reg("x7"),
                                    Mem(base="x1"))))
        assert core.regs["x7"] == 4
        assert machine.memory.load_word(0x2000) == 5
        assert core.cycles == 2 * COSTS.atomic_add_op

    def test_atomics_drain_the_buffer_and_take_the_line(self):
        machine = Machine(n_cores=2, buffer_mode=BufferMode.WEAK)
        core, other = machine.cores
        core.regs.update(MEM_REGS)
        other.regs.update(MEM_REGS)
        core.execute(Insn("str", (Reg("x2"), Mem(base="x1",
                                                 offset=128))))
        assert machine.memory.snapshot() == {}
        core.execute(Insn("swpal", (Reg("x2"), Reg("x7"),
                                    Mem(base="x1"))))
        assert machine.memory.snapshot() == {0x2080: 5, 0x2000: 5}
        assert core.buffer.pending() == 0
        other.execute(Insn("ldaddal", (Reg("x2"), Reg("x7"),
                                       Mem(base="x1"))))
        assert other.cycles == COSTS.atomic_add_op \
            + machine.coherence.transfer_cost


class TestFencesAndSystem:
    def test_fence_costs_and_buffer_effects(self):
        core, machine = fresh_core(BufferMode.WEAK)
        core.regs.update(MEM_REGS)
        core.execute(Insn("str", (Reg("x2"), Mem(base="x1"))))
        core.execute(Insn("dmbld"))
        assert core.buffer.pending() == 1
        core.execute(Insn("dmbst"))
        assert len(core.buffer.entries) == 2       # store + barrier
        core.execute(Insn("dmbff"))
        assert core.buffer.entries == []
        assert machine.memory.load_word(0x2000) == 5
        fences = COSTS.dmb_ld + COSTS.dmb_st + COSTS.dmb_ff
        assert core.fence_cycles == fences
        assert core.cycles == COSTS.store + fences
        assert core.fence_cycles_by_origin == {"untagged": fences}

    def test_fence_origin_is_keyed_on_the_fetch_pc(self):
        """Two cores run the same image (one table entry per DMB);
        each fence is charged to the tag registered for the pc it was
        fetched from."""
        machine = Machine(n_cores=2, track_coherence=False)
        asm = assemble("dmbld\n nop\n dmbst\n dmbff\n hlt", base=BASE)
        machine.memory.add_image(asm.base, asm.code)
        machine.fence_origins[asm.addresses[0]] = "first"
        machine.fence_origins[asm.addresses[2]] = "second"
        for core in machine.cores:
            core.start(asm.base)
        machine.run()
        for core in machine.cores:
            assert core.fence_cycles_by_origin == {
                "first": COSTS.dmb_ld, "second": COSTS.dmb_st,
                "untagged": COSTS.dmb_ff}

    def test_svc_passes_the_immediate_and_charges(self):
        core, _ = fresh_core()
        seen = []
        core.svc_handler = lambda c, number: seen.append(number)
        core.execute(Insn("svc", (Imm(42),)))
        assert seen == [42] and core.cycles == COSTS.syscall
        core.svc_handler = None
        with pytest.raises(MachineError, match="no handler"):
            core.execute(Insn("svc", (Imm(0),)))

    def test_nop_and_hlt(self):
        core, machine = fresh_core(BufferMode.WEAK)
        core.regs.update(MEM_REGS)
        core.start(0)
        core.execute(Insn("nop"))
        assert core.cycles == COSTS.alu
        core.execute(Insn("str", (Reg("x2"), Mem(base="x1"))))
        core.execute(Insn("hlt"))
        assert core.halted and core.cycles == COSTS.alu + COSTS.store
        assert machine.memory.load_word(0x2000) == 5

    def test_every_opcode_has_a_binder(self):
        assert set(cpu_module._BINDERS) == set(CODER.opcodes)


# ----------------------------------------------------------------------
# Error paths: nothing faults before it executes
# ----------------------------------------------------------------------
def load(machine, source: str, base: int = BASE, tail: bytes = b""):
    asm = assemble(source, base=base)
    machine.memory.add_image(asm.base, asm.code + tail)
    return asm


class TestErrorPaths:
    def test_unimplemented_mnemonic_via_execute(self):
        core, _ = fresh_core()
        with pytest.raises(MachineError, match="unimplemented"):
            core.execute(Insn("hvc"))
        assert core.insn_count == 0

    def test_unimplemented_opcode_faults_only_when_reached(
            self, monkeypatch):
        """An opcode the decoder knows and the core does not: jumped
        over it is harmless, fetched it faults at that very step."""
        monkeypatch.delitem(cpu_module._BINDERS, "nop")
        source = "mov x0, #1\n b over\n nop\nover:\n mov x0, #2\n hlt"
        machine = Machine(n_cores=1, track_coherence=False)
        asm = load(machine, source)
        machine.core(0).start(asm.base)
        assert machine.run() == 4

        machine = Machine(n_cores=1, track_coherence=False)
        asm = load(machine, source.replace(" b over\n", ""))
        core = machine.core(0)
        core.start(asm.base)
        with pytest.raises(MachineError, match="unimplemented"):
            machine.run()
        assert core.insn_count == 1 and core.regs["x0"] == 1

    def test_malformed_operands_fault_when_executed(self):
        core, _ = fresh_core()
        for insn in (Insn("add", (Reg("x0"), Reg("x1"))),
                     Insn("mov", (Imm(1), Reg("x1"))),
                     Insn("ldr", (Reg("x0"), Reg("x1"))),
                     Insn("cmp", (Reg("x0"), Mem(base="x1")))):
            with pytest.raises(MachineError):
                core.execute(insn)

    def test_data_after_hlt_is_never_decoded(self):
        """Images carry data after code.  0xEE is no opcode, so any
        look-ahead past the ``hlt`` would raise ``DecodeError``."""
        data = bytes([0xEE] * 16)
        machine = Machine(n_cores=1, track_coherence=False)
        asm = load(machine, "mov x0, #1\n hlt", tail=data)
        core = machine.core(0)
        core.start(asm.base)
        while not core.halted:
            core.step()
        table = machine.memory.code_table(machine.costs)
        assert sorted(table) == asm.addresses
        assert machine.memory.load_word(asm.base + len(asm.code)) \
            == int.from_bytes(data[:8], "little")

        core.start(asm.base + len(asm.code))
        with pytest.raises(DecodeError):
            core.step()
        assert sorted(table) == asm.addresses

    def test_truncated_instruction_faults_when_reached(self):
        machine = Machine(n_cores=1, track_coherence=False)
        asm = assemble("mov x0, #1\n mov x1, #2", base=BASE)
        machine.memory.add_image(asm.base, asm.code[:-3])
        core = machine.core(0)
        core.start(asm.base)
        core.step()
        with pytest.raises(DecodeError, match="truncated"):
            core.step()
        assert core.insn_count == 1

    def test_unmapped_fetch_faults_and_is_not_remembered(self):
        """The DBT maps images while cores run: a pc that faulted once
        must execute once something is mapped there."""
        machine = Machine(n_cores=1, track_coherence=False)
        core = machine.core(0)
        core.start(0x5000)
        with pytest.raises(MachineError, match="unmapped"):
            machine.run()
        assert core.pc == 0x5000 and core.insn_count == 0
        load(machine, "mov x0, #6\n hlt", base=0x5000)
        assert machine.run() == 2
        assert core.regs["x0"] == 6

    def test_block_installed_by_a_trap_mid_run_executes(self):
        machine = Machine(n_cores=1, track_coherence=False)
        asm = load(machine, "mov x0, #1\n bl 0x9000\n hlt")
        core = machine.core(0)

        def install(c):
            load(machine, "add x0, x0, #41\n ret", base=0x7000)
            c.pc = 0x7000

        core.traps[0x9000] = install
        core.start(asm.base)
        assert machine.run() == 6       # 5 instructions + the trap
        assert core.regs["x0"] == 42 and core.insn_count == 5

    def test_traps_come_before_the_table_and_count_no_instruction(self):
        machine = Machine(n_cores=1, track_coherence=False)
        asm = load(machine, "mov x0, #1\n mov x0, #2\n hlt")
        core = machine.core(0)
        core.start(asm.base)
        machine.run()                   # every pc is bound now ...
        assert core.regs["x0"] == 2

        def skip(c):
            c.pc = asm.addresses[2]
        core.traps[asm.addresses[1]] = skip     # ... and one is a trap
        core.insn_count = 0
        core.start(asm.base)
        assert machine.run() == 3
        assert core.regs["x0"] == 1 and core.insn_count == 2

    def test_max_steps_overrun(self):
        machine = Machine(n_cores=1, track_coherence=False)
        asm = load(machine, "spin:\n b spin")
        core = machine.core(0)
        core.start(asm.base)
        with pytest.raises(MachineError, match="quiesce"):
            machine.run(max_steps=10)
        assert core.insn_count == 10


# ----------------------------------------------------------------------
# What the table rests on, and its lifetime
# ----------------------------------------------------------------------
class TestTableInvariants:
    def test_store_to_code_shadows_loads_and_not_fetch(self):
        """No self-modifying code: a store to the address of the next
        instruction changes what a load there returns and nothing
        about what executes."""
        machine = Machine(n_cores=1, buffer_mode=BufferMode.NONE,
                          track_coherence=False)
        asm = assemble("mov x3, #0\n str x3, [x1]\n mov x0, #7\n"
                       " ldr x2, [x1]\n hlt", base=BASE)
        machine.memory.add_image(asm.base, asm.code)
        target = asm.addresses[2]
        original = machine.memory.load_word(target)
        assert original != 0
        core = machine.core(0)
        core.regs["x1"] = target
        core.start(asm.base)
        machine.run()
        assert core.regs["x0"] == 7             # the image's mov ran
        assert core.regs["x2"] == 0             # the load saw the store
        size = asm.addresses[3] - target
        assert machine.memory.read_bytes(target, size) \
            == asm.code[target - asm.base:][:size]
        # A second run fetches the same bytes again.
        core.start(asm.base)
        machine.run()
        assert core.regs["x0"] == 7

    def test_images_cannot_be_replaced(self):
        memory = Memory()
        memory.add_image(0x1000, b"\x01" * 16)
        for base, size in ((0x1000, 16), (0x0FF8, 9), (0x100F, 1),
                           (0x0F00, 0x400)):
            with pytest.raises(MachineError, match="overlaps"):
                memory.add_image(base, b"\x02" * size)
        memory.add_image(0x0FF8, b"\x03" * 8)   # abutting is fine
        memory.add_image(0x1010, b"\x04" * 8)
        assert memory.read_bytes(0x1000, 4) == b"\x01" * 4

    def test_lookup_over_many_unordered_images(self):
        """The DBT adds one image per block; lookups bisect."""
        order = list(range(200))
        Random(5).shuffle(order)
        memory = Memory()
        for i in order:
            memory.add_image(0x1000 + i * 0x20,
                             i.to_bytes(8, "little") * 3)   # 24 of 32
        for i in range(200):
            base = 0x1000 + i * 0x20
            assert memory.read_bytes(base + 8, 4) \
                == i.to_bytes(8, "little")[:4]
            assert memory.load_word(base + 16) == i
            assert memory.in_image(base + 23)
            assert not memory.in_image(base + 24)
            assert memory.load_word(base + 17) == 0  # straddles the end
            with pytest.raises(MachineError, match="unmapped"):
                memory.read_bytes(base + 24, 1)
        assert not memory.in_image(0xFFF)
        with pytest.raises(MachineError, match="overlaps"):
            memory.add_image(0x1000 + 77 * 0x20 + 23, b"\x00" * 2)

    def test_empty_image_maps_nothing(self):
        memory = Memory()
        memory.add_image(0x1000, b"")
        assert not memory.in_image(0x1000)
        memory.add_image(0x0FFC, b"\x01" * 8)
        assert memory.in_image(0x1000)

    def test_cores_share_one_table_and_runs_reuse_it(self):
        machine = Machine(n_cores=2, track_coherence=False)
        asm = load(machine, "mov x0, #1\n add x0, x0, #1\n hlt")
        table = machine.memory.code_table(machine.costs)
        first, second = machine.cores
        first.start(asm.base)
        while not first.halted:
            first.step()
        assert sorted(table) == asm.addresses
        bound = dict(table)
        second.start(asm.base)
        while not second.halted:
            second.step()
        assert table == bound               # second core bound nothing
        assert second.regs["x0"] == 2

        first.start(asm.base)
        assert machine.run() == 3
        assert table == bound               # a run binds nothing anew

    def test_a_machine_that_raised_is_freed_by_refcount(self):
        """Nothing a run binds points back at the machine, so its table
        goes with it once it is dropped, also after a failed run, and
        without waiting for a collection."""
        machine = Machine(n_cores=1, track_coherence=False)
        asm = load(machine, "spin:\n b spin")
        machine.core(0).start(asm.base)
        gc.disable()
        try:
            try:
                machine.run(max_steps=5)
            except MachineError:
                pass
            assert machine.memory.code_table(machine.costs)
            gone = weakref.ref(machine.memory)
            del machine
            assert gone() is None
        finally:
            gc.enable()

    def test_handlers_hold_no_core_or_machine(self):
        machine = Machine(n_cores=1)
        asm = load(machine, "mov x1, #4096\n ldr x0, [x1]\n"
                   " add x0, x0, x1\n casal x0, x1, [x1]\n dmbff\n hlt")
        core = machine.core(0)
        core.start(asm.base)
        while not core.halted:
            core.step()

        def reachable(obj, seen):
            if id(obj) in seen:
                return
            seen[id(obj)] = obj
            for cell in getattr(obj, "__closure__", None) or ():
                reachable(cell.cell_contents, seen)
        seen = {}
        for handler, _ in machine.memory.code_table(machine.costs) \
                .values():
            reachable(handler, seen)
        held = [obj for obj in seen.values()
                if isinstance(obj, (Machine, Memory, type(core)))]
        assert held == [] and len(seen) > 6

    def test_costs_are_bound_per_cost_model(self):
        """A handler has its cycle costs bound in, so one memory keeps
        a table per cost model."""
        memory = Memory()
        asm = assemble("add x0, x0, #1\n hlt", base=BASE)
        memory.add_image(asm.base, asm.code)
        cheap = Machine(n_cores=1, memory=memory)
        dear = Machine(n_cores=1, memory=memory,
                       costs=COSTS.scaled(alu=9))
        for machine in (cheap, dear):
            machine.core(0).start(asm.base)
            machine.core(0).step()
        assert (cheap.core(0).cycles, dear.core(0).cycles) == (1, 9)


# ----------------------------------------------------------------------
# The scheduler's two RNG streams
# ----------------------------------------------------------------------
@pytest.fixture
def picks(monkeypatch):
    """The id of every core the scheduler steps, in order (patched on
    the class: a slotted core takes no per-instance method)."""
    seen = []
    plain = ArmCore.step
    monkeypatch.setattr(ArmCore, "step", lambda core: (
        seen.append(core.core_id), plain(core))[1])
    return seen


class TestSchedulerStreams:
    def test_one_machine_draw_per_step_even_with_one_core(self):
        machine = Machine(n_cores=1, seed=9, track_coherence=False)
        asm = load(machine, "mov x0, #0\nl:\n add x0, x0, #1\n"
                   " cmp x0, #40\n b.ne l\n hlt")
        machine.core(0).start(asm.base)
        steps = machine.run()
        mirror = Random(9)
        for _ in range(steps):
            mirror.choice([None])
        assert machine.rng.getstate() == mirror.getstate()

    def test_core_stream_untouched_while_nothing_is_buffered(self):
        machine = Machine(n_cores=2, seed=4, track_coherence=False)
        for i, core in enumerate(machine.cores):
            asm = load(machine, "mov x1, #4096\n ldr x0, [x1]\n dmbst\n"
                       " dmbff\n hlt", base=BASE * (i + 1))
            core.start(asm.base)
        machine.run()
        for i, core in enumerate(machine.cores):
            assert core.rng.getstate() == Random(4000 + i).getstate()

    def test_core_stream_drawn_once_per_step_while_a_store_pends(self):
        machine = Machine(n_cores=1, seed=4, track_coherence=False)
        asm = load(machine, "mov x1, #4096\n str x1, [x1]\n nop\n nop\n"
                   " nop\n nop\n hlt")
        core = machine.core(0)
        core.start(asm.base)
        mirror, draws = Random(4000), 0
        while not core.halted:
            core.step()
            if core.buffer.pending():
                # The contract: one draw, and one more to pick the
                # entry when the first says drain.
                draws += 1
                if mirror.random() < core.drain_probability:
                    mirror.choice([0])
            if core.buffer.entries:
                core.maybe_background_drain()
        assert core.rng.getstate() == mirror.getstate() and draws >= 1

    def test_window_keeps_core_order_and_respects_jitter(self, picks):
        """With ``jitter=0`` only the slowest cores are eligible, in
        core order; the pick among them is ``rng.choice``."""
        machine = Machine(n_cores=3, seed=1, jitter=0,
                          track_coherence=False)
        for i, core in enumerate(machine.cores):
            asm = load(machine, "nop\n nop\n nop\n hlt",
                       base=BASE * (i + 1))
            core.start(asm.base)
        machine.core(1).cycles = 2          # starts behind the others
        machine.run()
        mirror, clocks, want = Random(1), [0, 2, 0], []
        left = [4, 4, 4]
        while any(left):
            low = min(c for c, n in zip(clocks, left) if n)
            window = [i for i in range(3)
                      if left[i] and clocks[i] <= low]
            pick = mirror.choice(window)
            want.append(pick)
            left[pick] -= 1
            clocks[pick] += COSTS.alu if left[pick] else 0
        assert picks == want

    @pytest.mark.parametrize("n_cores", range(1, 9))
    def test_pick_mirrors_random_choice(self, picks, n_cores):
        """The loop writes ``rng.choice(window)`` out by hand: for every
        window size, over many seeds, it picks what ``choice`` picks
        and leaves the stream where ``choice`` leaves it.  A Python
        whose ``choice`` draws differently fails here."""
        for seed in range(200):
            # A jitter no clock reaches: the window is every core that
            # has not halted, shrinking from ``n_cores`` to one.
            machine = Machine(n_cores=n_cores, seed=seed, jitter=1 << 30,
                              track_coherence=False)
            for i, core in enumerate(machine.cores):
                core.start(load(machine, "nop\n nop\n hlt",
                                base=BASE * (i + 1)).base)
            picks.clear()
            machine.run()
            mirror, window, want = Random(seed), list(range(n_cores)), []
            left = [3] * n_cores
            while window:
                pick = mirror.choice(window)
                want.append(pick)
                left[pick] -= 1
                if not left[pick]:
                    window.remove(pick)
            assert picks == want
            assert machine.rng.getstate() == mirror.getstate()

    def test_cores_and_buffers_are_slotted(self):
        machine = Machine(n_cores=2)
        for core in machine.cores:
            assert not hasattr(core, "__dict__")
            assert not hasattr(core.buffer, "__dict__")
