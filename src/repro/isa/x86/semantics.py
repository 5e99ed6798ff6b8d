"""Reference interpreter for the guest x86 subset.

Single-threaded, sequentially consistent — this is the *oracle* the DBT
is differential-tested against: for any guest program, running it here
must produce the same final registers/memory as translating it to Arm
and running the translated code on the simulated host.

The interpreter is also what "executes" guest helper semantics inside
QEMU-style RMW helper calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ...errors import GuestFault
from ..common import Imm, Insn, Mem, Reg, to_signed, to_unsigned
from ..floatbits import bits_to_double, double_to_bits
from .insns import CODER, CONDITIONAL_JUMPS, GPR

U64 = (1 << 64) - 1


@dataclass
class CpuState:
    """Architectural guest state: GPRs, flags, instruction pointer."""

    regs: dict[str, int] = field(
        default_factory=lambda: {r: 0 for r in GPR})
    flags: dict[str, bool] = field(
        default_factory=lambda: {"zf": False, "sf": False,
                                 "cf": False, "of": False})
    rip: int = 0
    halted: bool = False

    def copy(self) -> "CpuState":
        return CpuState(regs=dict(self.regs), flags=dict(self.flags),
                        rip=self.rip, halted=self.halted)


def evaluate_condition(suffix: str, flags: dict[str, bool]) -> bool:
    """Evaluate a Jcc/SETcc condition from the flag state."""
    zf, sf, cf, of = (flags["zf"], flags["sf"], flags["cf"], flags["of"])
    table = {
        "e": zf,
        "ne": not zf,
        "l": sf != of,
        "ge": sf == of,
        "le": zf or (sf != of),
        "g": (not zf) and (sf == of),
        "b": cf,
        "ae": not cf,
        "be": cf or zf,
        "a": (not cf) and (not zf),
        "s": sf,
        "ns": not sf,
    }
    try:
        return table[suffix]
    except KeyError:
        raise GuestFault(f"unknown condition {suffix!r}") from None


class Syscall(Exception):
    """Raised when the guest executes SYSCALL; the runtime handles it."""

    def __init__(self, state: CpuState):
        self.state = state
        super().__init__("guest syscall")


class X86Interpreter:
    """Executes decoded guest instructions against a memory object.

    ``memory`` must provide ``load_word(addr) -> int`` and
    ``store_word(addr, value)``; word size is 8 bytes.
    """

    def __init__(self, memory, syscall_handler=None):
        self.memory = memory
        self.syscall_handler = syscall_handler

    # ------------------------------------------------------------------
    # Operand access
    # ------------------------------------------------------------------
    def effective_address(self, state: CpuState, mem: Mem) -> int:
        addr = mem.offset
        if mem.base:
            addr += state.regs[mem.base]
        if mem.index:
            addr += state.regs[mem.index] * mem.scale
        return addr & U64

    def read(self, state: CpuState, op) -> int:
        if isinstance(op, Reg):
            return state.regs[op.name]
        if isinstance(op, Imm):
            return to_unsigned(op.value)
        if isinstance(op, Mem):
            return self.memory.load_word(
                self.effective_address(state, op))
        raise GuestFault(f"cannot read operand {op!r}")

    def write(self, state: CpuState, op, value: int) -> None:
        value &= U64
        if isinstance(op, Reg):
            state.regs[op.name] = value
        elif isinstance(op, Mem):
            self.memory.store_word(
                self.effective_address(state, op), value)
        else:
            raise GuestFault(f"cannot write operand {op!r}")

    # ------------------------------------------------------------------
    # Flags
    # ------------------------------------------------------------------
    def _set_logic_flags(self, state: CpuState, result: int) -> None:
        state.flags["zf"] = (result & U64) == 0
        state.flags["sf"] = bool(result & (1 << 63))
        state.flags["cf"] = False
        state.flags["of"] = False

    def _set_add_flags(self, state: CpuState, a: int, b: int,
                       result: int) -> None:
        state.flags["zf"] = (result & U64) == 0
        state.flags["sf"] = bool(result & (1 << 63))
        state.flags["cf"] = (a + b) > U64
        sa, sb, sr = (to_signed(a), to_signed(b),
                      to_signed(result & U64))
        state.flags["of"] = (sa >= 0) == (sb >= 0) and (sr >= 0) != (sa >= 0)

    def _set_sub_flags(self, state: CpuState, a: int, b: int,
                       result: int) -> None:
        state.flags["zf"] = (result & U64) == 0
        state.flags["sf"] = bool(result & (1 << 63))
        state.flags["cf"] = a < b
        sa, sb, sr = (to_signed(a), to_signed(b),
                      to_signed(result & U64))
        state.flags["of"] = (sa >= 0) != (sb >= 0) and (sr >= 0) != (sa >= 0)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self, state: CpuState) -> None:
        """Fetch (from memory), decode and execute one instruction."""
        code = self.memory.read_bytes(state.rip, 32)
        insn, size = CODER.decode(code)
        state.rip += size
        self.execute(state, insn)

    def execute(self, state: CpuState, insn: Insn) -> None:
        """Execute one decoded instruction (rip already advanced)."""
        m = insn.mnemonic
        ops = insn.operands
        regs = state.regs

        if m == "nop":
            return
        if m == "hlt":
            state.halted = True
            return
        if m == "mfence" or m == "lfence" or m == "sfence":
            return  # ordering is invisible single-threaded
        if m == "mov":
            self.write(state, ops[0], self.read(state, ops[1]))
            return
        if m == "movzx":
            self.write(state, ops[0],
                       self.read(state, ops[1]) & 0xFFFFFFFF)
            return
        if m == "lea":
            if not isinstance(ops[1], Mem):
                raise GuestFault("lea needs a memory operand")
            self.write(state, ops[0],
                       self.effective_address(state, ops[1]))
            return
        if m in ("add", "sub", "and", "or", "xor", "shl", "shr", "sar",
                 "imul"):
            a = self.read(state, ops[0])
            b = self.read(state, ops[1])
            if m == "add":
                result = (a + b) & U64
                self._set_add_flags(state, a, b, result)
            elif m == "sub":
                result = (a - b) & U64
                self._set_sub_flags(state, a, b, result)
            elif m == "and":
                result = a & b
                self._set_logic_flags(state, result)
            elif m == "or":
                result = a | b
                self._set_logic_flags(state, result)
            elif m == "xor":
                result = a ^ b
                self._set_logic_flags(state, result)
            elif m == "shl":
                result = (a << (b & 63)) & U64
                self._set_logic_flags(state, result)
            elif m == "shr":
                result = a >> (b & 63)
                self._set_logic_flags(state, result)
            elif m == "sar":
                result = to_unsigned(to_signed(a) >> (b & 63))
                self._set_logic_flags(state, result)
            else:  # imul
                result = to_unsigned(to_signed(a) * to_signed(b))
                self._set_logic_flags(state, result)
            self.write(state, ops[0], result)
            return
        if m == "div":
            divisor = self.read(state, ops[0])
            if divisor == 0:
                raise GuestFault("division by zero")
            dividend = regs["rax"]
            regs["rax"] = dividend // divisor
            regs["rdx"] = dividend % divisor
            return
        if m in ("inc", "dec"):
            a = self.read(state, ops[0])
            delta = 1 if m == "inc" else -1
            result = (a + delta) & U64
            state.flags["zf"] = result == 0
            state.flags["sf"] = bool(result & (1 << 63))
            self.write(state, ops[0], result)
            return
        if m == "neg":
            a = self.read(state, ops[0])
            result = (-a) & U64
            self._set_sub_flags(state, 0, a, result)
            self.write(state, ops[0], result)
            return
        if m == "not":
            self.write(state, ops[0], ~self.read(state, ops[0]) & U64)
            return
        if m == "cmp":
            a = self.read(state, ops[0])
            b = self.read(state, ops[1])
            self._set_sub_flags(state, a, b, (a - b) & U64)
            return
        if m == "test":
            self._set_logic_flags(
                state,
                self.read(state, ops[0]) & self.read(state, ops[1]))
            return
        if m == "jmp":
            state.rip = self.read(state, ops[0])
            return
        if m in CONDITIONAL_JUMPS:
            if evaluate_condition(CONDITIONAL_JUMPS[m], state.flags):
                state.rip = self.read(state, ops[0])
            return
        if m == "call":
            regs["rsp"] = (regs["rsp"] - 8) & U64
            self.memory.store_word(regs["rsp"], state.rip)
            state.rip = self.read(state, ops[0])
            return
        if m == "ret":
            state.rip = self.memory.load_word(regs["rsp"])
            regs["rsp"] = (regs["rsp"] + 8) & U64
            return
        if m == "push":
            regs["rsp"] = (regs["rsp"] - 8) & U64
            self.memory.store_word(regs["rsp"], self.read(state, ops[0]))
            return
        if m == "pop":
            self.write(state, ops[0],
                       self.memory.load_word(regs["rsp"]))
            regs["rsp"] = (regs["rsp"] + 8) & U64
            return
        if m == "cmpxchg":
            addr = self.effective_address(state, ops[0])
            current = self.memory.load_word(addr)
            if current == regs["rax"]:
                self.memory.store_word(addr, self.read(state, ops[1]))
                state.flags["zf"] = True
            else:
                regs["rax"] = current
                state.flags["zf"] = False
            return
        if m == "xadd":
            addr = self.effective_address(state, ops[0])
            current = self.memory.load_word(addr)
            addend = self.read(state, ops[1])
            total = (current + addend) & U64
            self.memory.store_word(addr, total)
            self.write(state, ops[1], current)
            self._set_add_flags(state, current, addend, total)
            return
        if m == "xchg":
            addr = self.effective_address(state, ops[0])
            current = self.memory.load_word(addr)
            self.memory.store_word(addr, self.read(state, ops[1]))
            self.write(state, ops[1], current)
            return
        if m in ("fadd", "fmul", "fdiv"):
            a = bits_to_double(self.read(state, ops[0]))
            b = bits_to_double(self.read(state, ops[1]))
            if m == "fadd":
                value = a + b
            elif m == "fmul":
                value = a * b
            else:
                if b == 0.0:
                    raise GuestFault("float division by zero")
                value = a / b
            self.write(state, ops[0], double_to_bits(value))
            return
        if m == "fsqrt":
            a = bits_to_double(self.read(state, ops[1]))
            if a < 0:
                raise GuestFault("sqrt of negative value")
            self.write(state, ops[0], double_to_bits(math.sqrt(a)))
            return
        if m == "syscall":
            if self.syscall_handler is None:
                raise Syscall(state)
            self.syscall_handler(state)
            return
        raise GuestFault(f"unimplemented instruction {insn}")

    # ------------------------------------------------------------------
    def run(self, state: CpuState, max_steps: int = 1_000_000) -> int:
        """Run until HLT; returns the executed instruction count."""
        steps = 0
        while not state.halted:
            if steps >= max_steps:
                raise GuestFault(
                    f"guest did not halt within {max_steps} steps")
            self.step(state)
            steps += 1
        return steps
