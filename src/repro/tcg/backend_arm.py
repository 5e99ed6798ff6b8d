"""TCG IR → Arm code generation (the host backend).

Lowers one optimized :class:`~repro.tcg.ir.TCGBlock` to Arm assembly
text.  The memory-ordering work happens in ``mb`` lowering: the mask is
mapped to the weakest sufficient DMB exactly as in Figure 7b (via the
same pair-set logic the verified op-level mapping uses), and the
``cas``/``atomic_*`` ops lower to ``casal``/``ldaddal``/``swpal``
(Section 6.3) instead of helper calls.

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
from typing import Callable, Sequence

from ..core.events import weakest_dmb
from ..errors import TranslationError
from ..isa.arm.assembler import LinkedCode, link
from ..isa.arm.insns import CONDITIONS
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


@dataclass
class HelperRequest:
    """A helper/dispatcher entry the runtime must install."""

    trap_label: str              # label the trap address binds to
    helper: str                  # helper name, or "dispatch"
    arg_regs: tuple[str, ...]    # registers holding the arguments
    ret_reg: str | None          # register receiving the return value


@dataclass
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
    #: The asm text ``linked`` was encoded from: debug text, no part
    #: of the block's identity, and not stored by the cache (a block
    #: served from disk has none).
    asm: str = field(default="", compare=False, repr=False)

    @classmethod
    def from_asm(cls, guest_pc: int, asm: str,
                 helper_requests: list[HelperRequest], guest_insns: int,
                 op_count: int,
                 fence_origins: Sequence[str | None] = (),
                 ) -> CompiledBlock:
        """Encode ``asm`` once into the block's linked form.

        Origins are recorded in DMB emission order and the assembler
        preserves instruction order, so pairing by position is exact;
        a count mismatch would mis-attribute fence cycles silently.
        """
        fence_origins = list(fence_origins)
        linked = link(asm)
        if len(linked.dmb_offsets) != len(fence_origins):
            raise TranslationError(
                f"block @{guest_pc:#x}: "
                f"{len(linked.dmb_offsets)} assembled DMBs but "
                f"{len(fence_origins)} recorded fence origins")
        return cls(guest_pc, linked, helper_requests, guest_insns,
                   op_count, fence_origins, asm)


class _TempAllocator:
    """Linear-scan allocation of block-local temps onto TEMP_POOL."""

    def __init__(self, ops: list[Op]):
        self.last_use: dict[Temp, int] = {}
        for index, op in enumerate(ops):
            for temp in op.inputs():
                if not temp.is_global:
                    self.last_use[temp] = index
            for temp in op.outputs():
                if not temp.is_global:
                    self.last_use.setdefault(temp, index)
        self.free = list(TEMP_POOL)
        self.assigned: dict[Temp, str] = {}

    def reg_for(self, temp: Temp, index: int,
                defining: bool) -> str:
        if temp.is_global:
            return GLOBAL_MAP[temp.name]
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
        for temp, last in list(self.last_use.items()):
            if last == index and temp in self.assigned:
                self.free.append(self.assigned.pop(temp))
                del self.last_use[temp]


class ArmBackend:
    """Compiles TCG blocks to Arm assembly."""

    def compile_block(self, block: TCGBlock) -> CompiledBlock:
        lines: list[str] = []
        requests: list[HelperRequest] = []
        fence_origins: list[str | None] = []
        alloc = _TempAllocator(block.ops)
        trap_counter = 0

        def operand(value, index: int, defining: bool = False,
                    const_slot: list | None = None) -> str:
            if isinstance(value, Temp):
                return alloc.reg_for(value, index, defining)
            if isinstance(value, Const):
                return f"#{value.value}"
            raise TranslationError(f"bad backend value {value!r}")

        def reg_operand(value, index: int, scratch: str) -> str:
            """Like operand() but forces a register (materializing
            constants into ``scratch``)."""
            if isinstance(value, Const):
                lines.append(f"    movz {scratch}, #{value.value}")
                return scratch
            return operand(value, index)

        for index, op in enumerate(block.ops):
            self._lower_op(op, index, lines, alloc, operand,
                           reg_operand, requests, fence_origins)
            alloc.release_dead(index)

        return CompiledBlock.from_asm(
            guest_pc=block.guest_pc,
            asm="\n".join(lines) + "\n",
            helper_requests=requests,
            guest_insns=block.guest_insns,
            op_count=len(block.ops),
            fence_origins=fence_origins,
        )

    # ------------------------------------------------------------------
    def _lower_op(self, op: Op, index: int, lines: list[str],
                  alloc: _TempAllocator, operand, reg_operand,
                  requests: list[HelperRequest],
                  fence_origins: list[str | None] | None = None,
                  ) -> None:
        name = op.name

        if name == "movi":
            dst = operand(op.args[0], index, defining=True)
            lines.append(f"    movz {dst}, #{op.args[1].value}")
            return
        if name == "mov":
            src = operand(op.args[1], index)
            dst = operand(op.args[0], index, defining=True)
            lines.append(f"    mov {dst}, {src}")
            return
        if name in ("add", "sub", "and", "mul"):
            a = operand(op.args[1], index)
            b = operand(op.args[2], index)
            dst = operand(op.args[0], index, defining=True)
            lines.append(f"    {name} {dst}, {a}, {b}")
            return
        if name in ("or", "xor", "shl", "shr", "sar", "divu", "remu"):
            arm_name = {"or": "orr", "xor": "eor", "shl": "lsl",
                        "shr": "lsr", "sar": "asr",
                        "divu": "udiv"}.get(name)
            a = operand(op.args[1], index)
            b = operand(op.args[2], index)
            dst = operand(op.args[0], index, defining=True)
            if name == "remu":
                # r = a - (a/b)*b
                lines.append(f"    udiv {SCRATCH0}, {a}, {b}")
                lines.append(f"    mul {SCRATCH0}, {SCRATCH0}, {b}")
                lines.append(f"    sub {dst}, {a}, {SCRATCH0}")
            else:
                lines.append(f"    {arm_name} {dst}, {a}, {b}")
            return
        if name in ("fadd", "fmul"):
            # Pseudo scalar-double FP on general registers; constants
            # (from cross-seam constprop) must be materialized.
            a = reg_operand(op.args[1], index, SCRATCH0)
            b = reg_operand(op.args[2], index, SCRATCH1)
            dst = operand(op.args[0], index, defining=True)
            lines.append(f"    {name} {dst}, {a}, {b}")
            return
        if name == "neg":
            a = operand(op.args[1], index)
            dst = operand(op.args[0], index, defining=True)
            lines.append(f"    neg {dst}, {a}")
            return
        if name == "not":
            a = operand(op.args[1], index)
            dst = operand(op.args[0], index, defining=True)
            lines.append(f"    mvn {dst}, {a}")
            return
        if name == "setcond":
            a = operand(op.args[1], index)
            b = operand(op.args[2], index)
            dst = operand(op.args[0], index, defining=True)
            cond = _COND_NAME[op.args[3]]
            lines.append(f"    cmp {a}, {b}")
            lines.append(f"    cset {dst}, #{CONDITIONS.index(cond)}")
            return
        if name == "brcond":
            a = operand(op.args[0], index)
            b = operand(op.args[1], index)
            cond = _COND_NAME[op.args[2]]
            label = f"L{op.args[3].index}"
            lines.append(f"    cmp {a}, {b}")
            lines.append(f"    b.{cond} {label}")
            return
        if name == "br":
            lines.append(f"    b L{op.args[0].index}")
            return
        if name == "set_label":
            lines.append(f"L{op.args[0].index}:")
            return
        if name == "ld":
            base = reg_operand(op.args[1], index, SCRATCH0)
            dst = operand(op.args[0], index, defining=True)
            offset = op.args[2].value
            lines.append(f"    ldr {dst}, [{base}, #{offset}]")
            return
        if name == "st":
            src = reg_operand(op.args[0], index, SCRATCH1)
            base = reg_operand(op.args[1], index, SCRATCH0)
            offset = op.args[2].value
            lines.append(f"    str {src}, [{base}, #{offset}]")
            return
        if name == "mb":
            dmb = lower_barrier(op.args[0].value)
            if dmb:
                lines.append(f"    {dmb}")
                if fence_origins is not None:
                    fence_origins.append(op.origin)
            return
        if name == "cas":
            # casal clobbers the expected register: stage in scratch.
            base = reg_operand(op.args[1], index, SCRATCH0)
            new = reg_operand(op.args[3], index, CONST_ARG_REGS[0])
            expect = operand(op.args[2], index)
            dst = operand(op.args[0], index, defining=True)
            lines.append(f"    mov {SCRATCH1}, {expect}")
            lines.append(f"    casal {SCRATCH1}, {new}, [{base}]")
            lines.append(f"    mov {dst}, {SCRATCH1}")
            return
        if name in ("atomic_add", "atomic_xchg"):
            mnemonic = "ldaddal" if name == "atomic_add" else "swpal"
            base = reg_operand(op.args[1], index, SCRATCH0)
            value = reg_operand(op.args[2], index, CONST_ARG_REGS[0])
            dst = operand(op.args[0], index, defining=True)
            lines.append(f"    {mnemonic} {value}, {dst}, [{base}]")
            return
        if name in ("exit_tb", "goto_tb"):
            target = op.args[0]
            if isinstance(target, Const):
                lines.append(f"    movz {SCRATCH1}, #{target.value}")
            else:
                reg = operand(target, index)
                lines.append(f"    mov {SCRATCH1}, {reg}")
            trap = f"__dispatch_{name}"
            requests.append(HelperRequest(
                trap_label=trap, helper="dispatch",
                arg_regs=(SCRATCH1,), ret_reg=None))
            lines.append(f"    movz {SCRATCH0}, {trap}")
            lines.append(f"    br {SCRATCH0}")
            return
        if name == "call":
            helper, ret = op.args[0], op.args[1]
            arg_regs = []
            const_slots = iter(CONST_ARG_REGS)
            for arg in op.args[2:]:
                if isinstance(arg, Const):
                    try:
                        slot = next(const_slots)
                    except StopIteration:
                        raise TranslationError(
                            "too many constant helper args") from None
                    lines.append(f"    movz {slot}, #{arg.value}")
                    arg_regs.append(slot)
                else:
                    arg_regs.append(operand(arg, index))
            ret_reg = operand(ret, index, defining=True) \
                if ret is not None else None
            trap = f"__helper_{helper}_{id(op)}"
            requests.append(HelperRequest(
                trap_label=trap, helper=helper,
                arg_regs=tuple(arg_regs), ret_reg=ret_reg))
            lines.append(f"    movz {SCRATCH0}, {trap}")
            lines.append(f"    blr {SCRATCH0}")
            return
        raise TranslationError(f"backend cannot lower {op}")
