"""x86 → TCG IR translation (the guest frontend).

Decodes guest instructions from memory at the emulated IP and emits
TCG ops one basic block at a time.  Memory fences come from the
config's :class:`~repro.core.most.FenceScheme` — the concrete
per-access placement a (source MOST table, target fence menu,
placement discipline) triple derives — rather than hardwired branches.
The paper's three schemes (proven bit-identical to the old hand-typed
emission by the golden tests):

* ``QEMU_SCHEME`` — Figure 2: ``Frr`` before loads, ``Fmw`` before
  stores (TSO table, all-leading placement).
* ``RISOTTO_SCHEME`` (the default) — Figure 7a: ``Frm`` *after* loads,
  ``Fww`` *before* stores (TSO table, trailing loads).
* ``NOFENCES_SCHEME`` — the incorrect performance oracle (drops the
  explicit x86 fences too).

``CasPolicy`` selects how LOCK'd RMWs translate: ``HELPER`` is QEMU's
call-out to a C helper (whose ordering comes from the GCC builtin);
``NATIVE`` is Risotto's direct lowering through the new ``cas`` /
``atomic_add`` / ``atomic_xchg`` IR ops (Section 6.3).

Flags are materialized eagerly into flag globals; QEMU's lazy-flag
machinery is a sequential optimization orthogonal to the paper.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..core.most import RISOTTO_SCHEME, FenceScheme
from ..errors import TranslationError
from ..isa.common import Imm, Insn, Mem, Reg
from ..isa.x86.insns import BLOCK_TERMINATORS, CODER, CONDITIONAL_JUMPS
from .ir import (
    Cond,
    Const,
    GUEST_FLAG_TEMPS,
    GUEST_REG_TEMPS,
    Op,
    TCGBlock,
    Temp,
    Value,
    fence_to_mask,
)


class CasPolicy(enum.Enum):
    HELPER = "helper"
    NATIVE = "native"


@dataclass(frozen=True)
class FrontendConfig:
    cas_policy: CasPolicy = CasPolicy.NATIVE
    block_insn_limit: int = 64
    #: The derived mapping scheme the frontend emits fences from.
    scheme: FenceScheme = RISOTTO_SCHEME


class X86Frontend:
    """Translates guest basic blocks into TCG IR."""

    def __init__(self, config: FrontendConfig | None = None):
        self.config = config or FrontendConfig()

    # ------------------------------------------------------------------
    def translate_block(self, memory, pc: int) -> TCGBlock:
        """Decode from guest memory at ``pc`` until a terminator."""
        block = TCGBlock(guest_pc=pc)
        cursor = pc
        for _ in range(self.config.block_insn_limit):
            code = memory.read_bytes(cursor, 32)
            insn, size = CODER.decode(code)
            cursor += size
            block.guest_insns += 1
            self._translate_insn(block, insn, cursor)
            if insn.mnemonic in BLOCK_TERMINATORS:
                return block
        # Block limit reached: continue at the next guest pc.
        block.emit("goto_tb", Const(cursor))
        return block

    # ------------------------------------------------------------------
    # Operand plumbing
    # ------------------------------------------------------------------
    def _addr(self, block: TCGBlock, mem: Mem) -> Temp:
        addr = block.new_temp()
        if mem.base:
            if mem.index:
                scaled = block.new_temp()
                block.emit("shl", scaled, GUEST_REG_TEMPS[mem.index],
                           Const(mem.scale.bit_length() - 1))
                block.emit("add", addr, GUEST_REG_TEMPS[mem.base],
                           scaled)
            else:
                block.emit("mov", addr, GUEST_REG_TEMPS[mem.base])
        elif mem.index:
            block.emit("shl", addr, GUEST_REG_TEMPS[mem.index],
                       Const(mem.scale.bit_length() - 1))
        else:
            block.movi(addr, 0)
        if mem.offset:
            block.emit("add", addr, addr, Const(mem.offset))
        return addr

    def _read(self, block: TCGBlock, operand) -> Value:
        """Value of an operand; memory reads get scheme fences."""
        if isinstance(operand, Reg):
            return GUEST_REG_TEMPS[operand.name]
        if isinstance(operand, Imm):
            return Const(operand.value)
        if isinstance(operand, Mem):
            addr = self._addr(block, operand)
            dst = block.new_temp()
            self._emit_load(block, dst, addr)
            return dst
        raise TranslationError(f"cannot read operand {operand!r}")

    def _write(self, block: TCGBlock, operand, value: Value) -> None:
        if isinstance(operand, Reg):
            block.emit("mov", GUEST_REG_TEMPS[operand.name], value)
            return
        if isinstance(operand, Mem):
            addr = self._addr(block, operand)
            self._emit_store(block, value, addr)
            return
        raise TranslationError(f"cannot write operand {operand!r}")

    # ------------------------------------------------------------------
    # Scheme fences (the heart of the paper's mapping schemes)
    # ------------------------------------------------------------------
    def _emit_scheme_fence(self, block: TCGBlock, slot: str) -> None:
        """Emit the derived scheme's fence for ``slot``, if any.

        Mask and origin both come from the scheme, so a slot's
        provenance string can never drift from the registered rule.
        """
        rule = self.config.scheme.rule(slot)
        if rule is None:
            return
        kind, origin = rule
        block.mb(fence_to_mask(kind), origin=origin)

    def _emit_load(self, block: TCGBlock, dst: Temp, addr: Temp) -> None:
        self._emit_scheme_fence(block, "ld_pre")
        block.emit("ld", dst, addr, Const(0))
        self._emit_scheme_fence(block, "ld_post")

    def _emit_store(self, block: TCGBlock, src: Value,
                    addr: Temp) -> None:
        self._emit_scheme_fence(block, "st_pre")
        block.emit("st", src, addr, Const(0))
        self._emit_scheme_fence(block, "st_post")

    # ------------------------------------------------------------------
    # Flags
    # ------------------------------------------------------------------
    def _set_logic_flags(self, block: TCGBlock, result: Value) -> None:
        flags = GUEST_FLAG_TEMPS
        block.emit("setcond", flags["zf"], result, Const(0), Cond.EQ)
        block.emit("shr", flags["sf"], result, Const(63))
        block.movi(flags["cf"], 0)
        block.movi(flags["of"], 0)

    def _set_add_flags(self, block: TCGBlock, a: Value, b: Value,
                       result: Value) -> None:
        flags = GUEST_FLAG_TEMPS
        block.emit("setcond", flags["zf"], result, Const(0), Cond.EQ)
        block.emit("shr", flags["sf"], result, Const(63))
        block.emit("setcond", flags["cf"], result, a, Cond.LTU)
        # of = ((a ^ ~b) & (a ^ r)) >> 63
        nb = block.new_temp()
        block.emit("not", nb, b)
        t1 = block.new_temp()
        block.emit("xor", t1, a, nb)
        t2 = block.new_temp()
        block.emit("xor", t2, a, result)
        t3 = block.new_temp()
        block.emit("and", t3, t1, t2)
        block.emit("shr", flags["of"], t3, Const(63))

    def _set_sub_flags(self, block: TCGBlock, a: Value, b: Value,
                       result: Value) -> None:
        flags = GUEST_FLAG_TEMPS
        block.emit("setcond", flags["zf"], result, Const(0), Cond.EQ)
        block.emit("shr", flags["sf"], result, Const(63))
        block.emit("setcond", flags["cf"], a, b, Cond.LTU)
        # of = ((a ^ b) & (a ^ r)) >> 63
        t1 = block.new_temp()
        block.emit("xor", t1, a, b)
        t2 = block.new_temp()
        block.emit("xor", t2, a, result)
        t3 = block.new_temp()
        block.emit("and", t3, t1, t2)
        block.emit("shr", flags["of"], t3, Const(63))

    def _cond_temp(self, block: TCGBlock, suffix: str) -> Temp:
        """A 0/1 temp for an x86 condition over the flag globals."""
        flags = GUEST_FLAG_TEMPS
        out = block.new_temp()
        if suffix == "e":
            block.emit("mov", out, flags["zf"])
        elif suffix == "ne":
            block.emit("xor", out, flags["zf"], Const(1))
        elif suffix == "l":
            block.emit("xor", out, flags["sf"], flags["of"])
        elif suffix == "ge":
            t = block.new_temp()
            block.emit("xor", t, flags["sf"], flags["of"])
            block.emit("xor", out, t, Const(1))
        elif suffix == "le":
            t = block.new_temp()
            block.emit("xor", t, flags["sf"], flags["of"])
            block.emit("or", out, t, flags["zf"])
        elif suffix == "g":
            t = block.new_temp()
            block.emit("xor", t, flags["sf"], flags["of"])
            t2 = block.new_temp()
            block.emit("or", t2, t, flags["zf"])
            block.emit("xor", out, t2, Const(1))
        elif suffix == "b":
            block.emit("mov", out, flags["cf"])
        elif suffix == "ae":
            block.emit("xor", out, flags["cf"], Const(1))
        elif suffix == "be":
            block.emit("or", out, flags["cf"], flags["zf"])
        elif suffix == "a":
            t = block.new_temp()
            block.emit("or", t, flags["cf"], flags["zf"])
            block.emit("xor", out, t, Const(1))
        elif suffix == "s":
            block.emit("mov", out, flags["sf"])
        elif suffix == "ns":
            block.emit("xor", out, flags["sf"], Const(1))
        else:
            raise TranslationError(f"unknown condition {suffix!r}")
        return out

    # ------------------------------------------------------------------
    # Instruction translation
    # ------------------------------------------------------------------
    def _translate_insn(self, block: TCGBlock, insn: Insn,
                        next_pc: int) -> None:
        m = insn.mnemonic
        ops = insn.operands

        if m == "nop":
            return
        if m == "hlt":
            block.call("helper_halt", None)
            block.emit("exit_tb", Const(next_pc))
            return
        if m == "syscall":
            block.call("helper_syscall", None)
            block.emit("exit_tb", Const(next_pc))
            return
        if m == "mfence":
            self._emit_scheme_fence(block, "mfence")
            return
        if m == "lfence":
            self._emit_scheme_fence(block, "lfence")
            return
        if m == "sfence":
            self._emit_scheme_fence(block, "sfence")
            return
        if m in ("mov", "movzx"):
            value = self._read(block, ops[1])
            if m == "movzx":
                masked = block.new_temp()
                block.emit("and", masked, value, Const(0xFFFFFFFF))
                value = masked
            self._write(block, ops[0], value)
            return
        if m == "lea":
            if not isinstance(ops[1], Mem):
                raise TranslationError("lea needs a memory source")
            self._write(block, ops[0], self._addr(block, ops[1]))
            return
        if m in ("add", "sub", "and", "or", "xor", "shl", "shr", "sar",
                 "imul"):
            a = self._read(block, ops[0])
            b = self._read(block, ops[1])
            result = block.new_temp()
            ir_name = {"or": "or", "imul": "mul"}.get(m, m)
            block.emit(ir_name, result, a, b)
            if m == "add":
                self._set_add_flags(block, a, b, result)
            elif m == "sub":
                self._set_sub_flags(block, a, b, result)
            else:
                self._set_logic_flags(block, result)
            self._write(block, ops[0], result)
            return
        if m == "div":
            divisor = self._read(block, ops[0])
            rax, rdx = GUEST_REG_TEMPS["rax"], GUEST_REG_TEMPS["rdx"]
            quotient = block.new_temp()
            remainder = block.new_temp()
            block.emit("divu", quotient, rax, divisor)
            block.emit("remu", remainder, rax, divisor)
            block.emit("mov", rax, quotient)
            block.emit("mov", rdx, remainder)
            return
        if m in ("inc", "dec"):
            a = self._read(block, ops[0])
            result = block.new_temp()
            block.emit("add" if m == "inc" else "sub",
                       result, a, Const(1))
            flags = GUEST_FLAG_TEMPS
            block.emit("setcond", flags["zf"], result, Const(0),
                       Cond.EQ)
            block.emit("shr", flags["sf"], result, Const(63))
            self._write(block, ops[0], result)
            return
        if m == "neg":
            a = self._read(block, ops[0])
            result = block.new_temp()
            block.emit("neg", result, a)
            self._set_sub_flags(block, Const(0), a, result)
            self._write(block, ops[0], result)
            return
        if m == "not":
            a = self._read(block, ops[0])
            result = block.new_temp()
            block.emit("not", result, a)
            self._write(block, ops[0], result)
            return
        if m == "cmp":
            a = self._read(block, ops[0])
            b = self._read(block, ops[1])
            result = block.new_temp()
            block.emit("sub", result, a, b)
            self._set_sub_flags(block, a, b, result)
            return
        if m == "test":
            a = self._read(block, ops[0])
            b = self._read(block, ops[1])
            result = block.new_temp()
            block.emit("and", result, a, b)
            self._set_logic_flags(block, result)
            return
        if m == "jmp":
            self._emit_jump(block, ops[0])
            return
        if m in CONDITIONAL_JUMPS:
            cond = self._cond_temp(block, CONDITIONAL_JUMPS[m])
            taken = block.new_label()
            block.emit("brcond", cond, Const(0), Cond.NE, taken)
            block.emit("goto_tb", Const(next_pc))
            block.emit("set_label", taken)
            self._emit_jump(block, ops[0], mnemonic="goto_tb")
            return
        if m == "call":
            rsp = GUEST_REG_TEMPS["rsp"]
            block.emit("sub", rsp, rsp, Const(8))
            self._emit_store(block, Const(next_pc), rsp)
            self._emit_jump(block, ops[0])
            return
        if m == "ret":
            rsp = GUEST_REG_TEMPS["rsp"]
            target = block.new_temp()
            self._emit_load(block, target, rsp)
            block.emit("add", rsp, rsp, Const(8))
            block.emit("exit_tb", target)
            return
        if m == "push":
            value = self._read(block, ops[0])
            rsp = GUEST_REG_TEMPS["rsp"]
            block.emit("sub", rsp, rsp, Const(8))
            self._emit_store(block, value, rsp)
            return
        if m == "pop":
            rsp = GUEST_REG_TEMPS["rsp"]
            value = block.new_temp()
            self._emit_load(block, value, rsp)
            block.emit("add", rsp, rsp, Const(8))
            self._write(block, ops[0], value)
            return
        if m == "cmpxchg":
            self._translate_cmpxchg(block, insn)
            return
        if m == "xadd":
            self._translate_xadd(block, insn)
            return
        if m == "xchg":
            self._translate_xchg(block, insn)
            return
        if m in ("fadd", "fmul", "fdiv"):
            a = self._read(block, ops[0])
            b = self._read(block, ops[1])
            result = block.new_temp()
            block.call(f"helper_{m}", result, a, b)
            self._write(block, ops[0], result)
            return
        if m == "fsqrt":
            a = self._read(block, ops[1])
            result = block.new_temp()
            block.call("helper_fsqrt", result, a)
            self._write(block, ops[0], result)
            return
        raise TranslationError(f"frontend cannot translate {insn}")

    # ------------------------------------------------------------------
    def _emit_jump(self, block: TCGBlock, target,
                   mnemonic: str = "goto_tb") -> None:
        if isinstance(target, Imm):
            block.emit(mnemonic, Const(target.value))
        elif isinstance(target, Reg):
            block.emit("exit_tb", GUEST_REG_TEMPS[target.name])
        elif isinstance(target, Mem):
            addr = self._addr(block, target)
            dst = block.new_temp()
            self._emit_load(block, dst, addr)
            block.emit("exit_tb", dst)
        else:
            raise TranslationError(f"bad jump target {target!r}")

    # ------------------------------------------------------------------
    # RMW family (Section 6.3)
    # ------------------------------------------------------------------
    def _translate_cmpxchg(self, block: TCGBlock, insn: Insn) -> None:
        mem, src = insn.operands
        if not isinstance(mem, Mem):
            raise TranslationError("cmpxchg needs a memory destination")
        addr = self._addr(block, mem)
        rax = GUEST_REG_TEMPS["rax"]
        expected = block.new_temp()
        block.emit("mov", expected, rax)
        new = self._read(block, src)
        old = block.new_temp()
        if self.config.cas_policy is CasPolicy.NATIVE:
            block.emit("cas", old, addr, expected, new)
        else:
            block.call("helper_cmpxchg", old, addr, expected, new)
        flags = GUEST_FLAG_TEMPS
        block.emit("setcond", flags["zf"], old, expected, Cond.EQ)
        block.emit("mov", rax, old)

    def _translate_xadd(self, block: TCGBlock, insn: Insn) -> None:
        mem, src = insn.operands
        if not isinstance(mem, Mem):
            raise TranslationError("xadd needs a memory destination")
        addr = self._addr(block, mem)
        addend = self._read(block, src)
        old = block.new_temp()
        if self.config.cas_policy is CasPolicy.NATIVE:
            block.emit("atomic_add", old, addr, addend)
        else:
            block.call("helper_xadd", old, addr, addend)
        total = block.new_temp()
        block.emit("add", total, old, addend)
        self._set_add_flags(block, old, addend, total)
        self._write(block, src, old)

    def _translate_xchg(self, block: TCGBlock, insn: Insn) -> None:
        mem, src = insn.operands
        if not isinstance(mem, Mem):
            raise TranslationError("xchg needs a memory destination")
        addr = self._addr(block, mem)
        new = self._read(block, src)
        old = block.new_temp()
        if self.config.cas_policy is CasPolicy.NATIVE:
            block.emit("atomic_xchg", old, addr, new)
        else:
            block.call("helper_xchg", old, addr, new)
        self._write(block, src, old)
