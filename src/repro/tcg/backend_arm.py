"""TCG IR → Arm code generation (the host backend).

Lowers one optimized :class:`~repro.tcg.ir.TCGBlock` to Arm records
(an ``Insn`` per instruction, with ``Label`` operands for branch and
trap targets, and a name per ``set_label``) and links them once; no
text is printed or parsed, and :attr:`CompiledBlock.asm` renders the
records only when read.  The memory-ordering work happens in ``mb``
lowering: the mask is mapped to the weakest sufficient DMB exactly as
in Figure 7b (via the same pair-set logic the verified op-level
mapping uses), and the ``cas``/``atomic_*`` ops lower to
``casal``/``ldaddal``/``swpal`` (Section 6.3) instead of helper calls.

Register convention (documented for the machine/runtime):

====================  =======================================
x0–x5                 TCG temp pool (linear-scan allocated)
x6, x7                scratch / jump target
x8–x23                guest rax…r15
x24–x27               guest flags zf, sf, cf, of
x28, x29              constant-argument staging for helpers
x30                   link register (helper/dispatcher returns)
====================  =======================================

Helper and dispatcher entry points are *trap addresses*: Python-level
callables the runtime installs on the simulated core, each specialized
to the argument registers the backend chose at compile time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from ..core.events import weakest_dmb
from ..errors import TranslationError
from ..isa.arm.assembler import LinkedCode, link_records, render
from ..isa.arm.insns import CONDITIONS, REGS
from ..isa.common import Imm, Insn, Label, Mem, Reg
from ..isa.x86.insns import GPR as X86_GPR
from .ir import MO_ALL, Cond, Const, Op, TCGBlock, Temp, mask_to_pairs

#: Fixed global register map.
GUEST_REG_MAP: dict[str, str] = {
    f"g_{name}": f"x{8 + i}" for i, name in enumerate(X86_GPR)
}
GUEST_FLAG_MAP: dict[str, str] = {
    "g_zf": "x24", "g_sf": "x25", "g_cf": "x26", "g_of": "x27",
}
GLOBAL_MAP = {**GUEST_REG_MAP, **GUEST_FLAG_MAP}

TEMP_POOL: tuple[str, ...] = ("x0", "x1", "x2", "x3", "x4", "x5")
SCRATCH0 = "x6"
SCRATCH1 = "x7"
# x7 is free during helper calls (only exit_tb uses it).
CONST_ARG_REGS: tuple[str, ...] = ("x28", "x29", "x7")

_GLOBAL_REGS = {temp: REGS[reg] for temp, reg in GLOBAL_MAP.items()}
_S0, _S1 = REGS[SCRATCH0], REGS[SCRATCH1]
_CONST_ARGS = tuple(REGS[reg] for reg in CONST_ARG_REGS)

_ARM_UNARY = {"mov": "mov", "neg": "neg", "not": "mvn"}
_ARM_ALU = {"add": "add", "sub": "sub", "and": "and", "mul": "mul",
            "or": "orr", "xor": "eor", "shl": "lsl", "shr": "lsr",
            "sar": "asr", "divu": "udiv", "remu": None}

_COND_NAME: dict[Cond, str] = {
    Cond.EQ: "eq", Cond.NE: "ne",
    Cond.LT: "lt", Cond.GE: "ge", Cond.LE: "le", Cond.GT: "gt",
    Cond.LTU: "lo", Cond.GEU: "hs", Cond.LEU: "ls", Cond.GTU: "hi",
}


#: The DMB mnemonic for each of the 16 ``mb`` masks (``None`` for the
#: empty one), by the same weakest-barrier rule the verified op-level
#: lowering applies.
_BARRIERS: tuple[str | None, ...] = (None,) + tuple(
    weakest_dmb(mask_to_pairs(mask)).value.lower()
    for mask in range(1, MO_ALL + 1))


def lower_barrier(mask: int) -> str | None:
    """The weakest DMB covering a TCG_MO mask (Figure 7b)."""
    return _BARRIERS[mask]


@dataclass(slots=True)
class HelperRequest:
    """A helper/dispatcher entry the runtime must install."""

    trap_label: str              # label the trap address binds to
    helper: str                  # helper name, or "dispatch"
    arg_regs: tuple[str, ...]    # registers holding the arguments
    ret_reg: str | None          # register receiving the return value


@dataclass(slots=True)
class CompiledBlock:
    """Backend output: the block encoded once plus the traps it
    references."""

    guest_pc: int
    #: The relocatable encoding the engine installs; what the
    #: translation cache stores, so a hit installs with no parsing.
    linked: LinkedCode
    helper_requests: list[HelperRequest]
    guest_insns: int
    op_count: int
    #: Provenance tag of each emitted DMB, in emission order (None for
    #: untagged fences).  The engine zips this with the linked form's
    #: DMB offsets to build the host fence-origin map.
    fence_origins: list[str | None] = field(default_factory=list)
    #: The records at their offsets in ``linked.code``, labels
    #: unresolved: only on the object the backend returns (neither
    #: cache level keeps them), and no part of the block's identity.
    insns: list[tuple[int, Insn]] = field(
        default_factory=list, compare=False, repr=False)

    @classmethod
    def from_records(cls, guest_pc: int, records: Iterable[Insn | str],
                     helper_requests: list[HelperRequest],
                     guest_insns: int, op_count: int,
                     fence_origins: Sequence[str | None] = (),
                     ) -> CompiledBlock:
        """Encode ``records`` once into the block's linked form.

        Origins are recorded in DMB emission order and the linker
        preserves instruction order, so pairing by position is exact;
        a count mismatch would mis-attribute fence cycles silently.
        """
        fence_origins = list(fence_origins)
        linked, insns = link_records(records)
        if len(linked.dmb_offsets) != len(fence_origins):
            raise TranslationError(
                f"block @{guest_pc:#x}: "
                f"{len(linked.dmb_offsets)} assembled DMBs but "
                f"{len(fence_origins)} recorded fence origins")
        return cls(guest_pc, linked, helper_requests, guest_insns,
                   op_count, fence_origins, insns)

    @property
    def asm(self) -> str:
        """The records as Arm text, rendered on each read (debug text;
        empty for a block served by the cache)."""
        return render(self.insns, self.linked.labels) \
            if self.insns else ""


class _TempAllocator:
    """Linear-scan allocation of block-local temps onto TEMP_POOL."""

    def __init__(self, ops: list[Op]):
        # Temps are interned, so these tables hash them by identity.
        last_use: dict[Temp, int] = {}
        for index, op in enumerate(ops):
            for temp in op.inputs():
                if not temp.is_global:
                    last_use[temp] = index
            for temp in op.outputs():
                if not temp.is_global:
                    last_use.setdefault(temp, index)
        #: op index -> the temps that die there, in first-use order.
        self.deaths: dict[int, list[Temp]] = {}
        for temp, last in last_use.items():
            self.deaths.setdefault(last, []).append(temp)
        self.free = [REGS[reg] for reg in TEMP_POOL]
        self.assigned: dict[Temp, Reg] = {}

    def reg_for(self, temp: Temp, index: int, defining: bool) -> Reg:
        if temp.is_global:
            return _GLOBAL_REGS[temp.name]
        reg = self.assigned.get(temp)
        if reg is None:
            if not defining:
                raise TranslationError(
                    f"temp {temp} used before definition")
            if not self.free:
                raise TranslationError(
                    "TCG temp pressure exceeds the host temp pool")
            reg = self.free.pop(0)
            self.assigned[temp] = reg
        return reg

    def release_dead(self, index: int) -> None:
        for temp in self.deaths.get(index, ()):
            reg = self.assigned.pop(temp, None)
            if reg is not None:
                self.free.append(reg)


class ArmBackend:
    """Compiles TCG blocks to Arm code."""

    def compile_block(self, block: TCGBlock) -> CompiledBlock:
        records: list[Insn | str] = []
        requests: list[HelperRequest] = []
        fence_origins: list[str | None] = []
        alloc = _TempAllocator(block.ops)

        def emit(mnemonic: str, *operands) -> None:
            records.append(Insn(mnemonic, operands))

        def operand(value, index: int, defining: bool = False):
            if isinstance(value, Temp):
                return alloc.reg_for(value, index, defining)
            if isinstance(value, Const):
                return Imm(value.value)
            raise TranslationError(f"bad backend value {value!r}")

        def reg_operand(value, index: int, scratch: Reg) -> Reg:
            """Like operand() but forces a register (materializing
            constants into ``scratch``)."""
            if isinstance(value, Const):
                emit("movz", scratch, Imm(value.value))
                return scratch
            return operand(value, index)

        for index, op in enumerate(block.ops):
            self._lower_op(op, index, records, emit, operand,
                           reg_operand, requests, fence_origins)
            alloc.release_dead(index)

        return CompiledBlock.from_records(
            guest_pc=block.guest_pc,
            records=records,
            helper_requests=requests,
            guest_insns=block.guest_insns,
            op_count=len(block.ops),
            fence_origins=fence_origins,
        )

    # ------------------------------------------------------------------
    def _lower_op(self, op: Op, index: int, records: list[Insn | str],
                  emit, operand, reg_operand,
                  requests: list[HelperRequest],
                  fence_origins: list[str | None]) -> None:
        name = op.name

        if name == "movi":
            dst = operand(op.args[0], index, defining=True)
            emit("movz", dst, Imm(op.args[1].value))
            return
        if name in _ARM_UNARY:
            src = operand(op.args[1], index)
            dst = operand(op.args[0], index, defining=True)
            emit(_ARM_UNARY[name], dst, src)
            return
        if name in _ARM_ALU:
            a = operand(op.args[1], index)
            b = operand(op.args[2], index)
            dst = operand(op.args[0], index, defining=True)
            if name == "remu":
                # r = a - (a/b)*b
                emit("udiv", _S0, a, b)
                emit("mul", _S0, _S0, b)
                emit("sub", dst, a, _S0)
            else:
                emit(_ARM_ALU[name], dst, a, b)
            return
        if name in ("fadd", "fmul"):
            # Pseudo scalar-double FP on general registers; constants
            # (from cross-seam constprop) must be materialized.
            a = reg_operand(op.args[1], index, _S0)
            b = reg_operand(op.args[2], index, _S1)
            dst = operand(op.args[0], index, defining=True)
            emit(name, dst, a, b)
            return
        if name == "setcond":
            a = operand(op.args[1], index)
            b = operand(op.args[2], index)
            dst = operand(op.args[0], index, defining=True)
            cond = _COND_NAME[op.args[3]]
            emit("cmp", a, b)
            emit("cset", dst, Imm(CONDITIONS.index(cond)))
            return
        if name == "brcond":
            a = operand(op.args[0], index)
            b = operand(op.args[1], index)
            cond = _COND_NAME[op.args[2]]
            emit("cmp", a, b)
            emit(f"b.{cond}", Label(f"L{op.args[3].index}"))
            return
        if name == "br":
            emit("b", Label(f"L{op.args[0].index}"))
            return
        if name == "set_label":
            records.append(f"L{op.args[0].index}")
            return
        if name == "ld":
            base = reg_operand(op.args[1], index, _S0)
            dst = operand(op.args[0], index, defining=True)
            emit("ldr", dst, Mem(base.name, op.args[2].value))
            return
        if name == "st":
            src = reg_operand(op.args[0], index, _S1)
            base = reg_operand(op.args[1], index, _S0)
            emit("str", src, Mem(base.name, op.args[2].value))
            return
        if name == "mb":
            dmb = lower_barrier(op.args[0].value)
            if dmb:
                emit(dmb)
                fence_origins.append(op.origin)
            return
        if name == "cas":
            # casal clobbers the expected register: stage in scratch.
            base = reg_operand(op.args[1], index, _S0)
            new = reg_operand(op.args[3], index, _CONST_ARGS[0])
            expect = operand(op.args[2], index)
            dst = operand(op.args[0], index, defining=True)
            emit("mov", _S1, expect)
            emit("casal", _S1, new, Mem(base.name))
            emit("mov", dst, _S1)
            return
        if name in ("atomic_add", "atomic_xchg"):
            mnemonic = "ldaddal" if name == "atomic_add" else "swpal"
            base = reg_operand(op.args[1], index, _S0)
            value = reg_operand(op.args[2], index, _CONST_ARGS[0])
            dst = operand(op.args[0], index, defining=True)
            emit(mnemonic, value, dst, Mem(base.name))
            return
        if name in ("exit_tb", "goto_tb"):
            target = op.args[0]
            if isinstance(target, Const):
                emit("movz", _S1, Imm(target.value))
            else:
                emit("mov", _S1, operand(target, index))
            trap = f"__dispatch_{name}"
            requests.append(HelperRequest(
                trap_label=trap, helper="dispatch",
                arg_regs=(SCRATCH1,), ret_reg=None))
            emit("movz", _S0, Label(trap))
            emit("br", _S0)
            return
        if name == "call":
            helper, ret = op.args[0], op.args[1]
            arg_regs = []
            const_slots = iter(_CONST_ARGS)
            for arg in op.args[2:]:
                if isinstance(arg, Const):
                    try:
                        slot = next(const_slots)
                    except StopIteration:
                        raise TranslationError(
                            "too many constant helper args") from None
                    emit("movz", slot, Imm(arg.value))
                    arg_regs.append(slot.name)
                else:
                    arg_regs.append(operand(arg, index).name)
            ret_reg = operand(ret, index, defining=True).name \
                if ret is not None else None
            # Numbered within the block, so one block always compiles
            # to the same linked form.
            trap = f"__helper_{helper}_{len(requests)}"
            requests.append(HelperRequest(
                trap_label=trap, helper=helper,
                arg_regs=tuple(arg_regs), ret_reg=ret_reg))
            emit("movz", _S0, Label(trap))
            emit("blr", _S0)
            return
        raise TranslationError(f"backend cannot lower {op}")
