"""The TCG intermediate representation.

Mirrors QEMU's Tiny Code Generator at the level the paper reasons
about: an assembly-like op list per translation block, with temps,
globals bound to guest registers, memory ops, the ``mb`` barrier op
carrying a ``TCG_MO_*`` bitmask, helper calls, and — Risotto's addition
(Section 6.3) — a first-class ``cas`` op so compare-and-swap can be
lowered to a host instruction instead of a helper call.

The ``TCG_MO_*`` bitmask encodes which access-pair classes a barrier
orders, exactly like QEMU's ``tcg_mo`` flags; the correspondence with
the paper's named fences (Frm, Fww, ...) is given by
:func:`fence_to_mask` / :func:`mask_to_fence`, derived from
:data:`repro.core.events.TCG_FENCE_PAIRS`.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field

from ..core.events import ACCESS_PAIRS, TCG_FENCE_PAIRS, Fence
from ..errors import TranslationError

# ----------------------------------------------------------------------
# Memory-order bitmask (QEMU's TCG_MO_* values)
# ----------------------------------------------------------------------
MO_LD_LD = 0x01  # earlier loads  before later loads
MO_LD_ST = 0x02  # earlier loads  before later stores
MO_ST_LD = 0x04  # earlier stores before later loads
MO_ST_ST = 0x08  # earlier stores before later stores
MO_ALL = MO_LD_LD | MO_LD_ST | MO_ST_LD | MO_ST_ST

#: The bit of each ordered access pair.
_PAIR_BITS: dict[tuple[str, str], int] = dict(
    zip(ACCESS_PAIRS, (MO_LD_LD, MO_LD_ST, MO_ST_LD, MO_ST_ST)))

#: Paper fence name -> mask (Figure 1 / Figure 6), from the pair table.
_FENCE_MASKS: dict[Fence, int] = {
    kind: sum(_PAIR_BITS[pair] for pair in pairs)
    for kind, pairs in TCG_FENCE_PAIRS.items()
}


def mask_to_pairs(mask: int) -> frozenset[tuple[str, str]]:
    """The access pairs a ``TCG_MO_*`` mask orders."""
    return frozenset(pair for pair, bit in _PAIR_BITS.items()
                     if mask & bit)


def fence_to_mask(kind: Fence) -> int:
    try:
        return _FENCE_MASKS[kind]
    except KeyError:
        raise TranslationError(f"{kind} has no TCG_MO mask") from None


def mask_to_fence(mask: int) -> Fence:
    """The weakest named fence covering ``mask``."""
    if mask == 0:
        raise TranslationError("empty barrier mask has no fence name")
    # Fmm covers everything; ties go to the first kind in table order.
    return min((fence for fence, fence_mask in _FENCE_MASKS.items()
                if fence is not Fence.FSC and not mask & ~fence_mask),
               key=lambda fence: bin(_FENCE_MASKS[fence]).count("1"))


# ----------------------------------------------------------------------
# Values
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Temp:
    """A TCG value: a block-local temp or a global bound to guest state.

    Globals (``is_global``) survive across blocks (guest registers and
    flags); locals are scratch within one translation block.
    """

    name: str
    is_global: bool = False

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Const:
    value: int

    def __str__(self) -> str:
        return f"${self.value}"


Value = Temp | Const


class Cond(enum.Enum):
    """Comparison conditions for setcond/brcond."""

    EQ = "eq"
    NE = "ne"
    LT = "lt"    # signed
    GE = "ge"
    LE = "le"
    GT = "gt"
    LTU = "ltu"  # unsigned
    GEU = "geu"
    LEU = "leu"
    GTU = "gtu"


@dataclass(frozen=True)
class LabelRef:
    index: int

    def __str__(self) -> str:
        return f"L{self.index}"


# ----------------------------------------------------------------------
# Ops
# ----------------------------------------------------------------------
#: op name -> (outputs, inputs) positional classification, used by the
#: generic liveness and constant-propagation machinery.
OP_SIGNATURES: dict[str, tuple[int, int]] = {
    # name: (number of leading output args, remaining are inputs)
    "mov": (1, 1),
    "movi": (1, 1),
    "add": (1, 2), "sub": (1, 2), "and": (1, 2), "or": (1, 2),
    "xor": (1, 2), "shl": (1, 2), "shr": (1, 2), "sar": (1, 2),
    "mul": (1, 2), "divu": (1, 2), "remu": (1, 2),
    "neg": (1, 1), "not": (1, 1),
    # Scalar-double FP on general registers (tier-2 helper inlining;
    # the machine executes these with the same float64 arithmetic as
    # the softfloat helpers, so results are bit-identical).
    "fadd": (1, 2), "fmul": (1, 2),
    "setcond": (1, 3),   # dst, a, b, cond
    "ld": (1, 2),        # dst, base, offset(Const)
    "st": (0, 3),        # src, base, offset(Const)
    "mb": (0, 1),        # mask(Const)
    "br": (0, 1),        # label
    "brcond": (0, 4),    # a, b, cond, label
    "set_label": (0, 1),
    "exit_tb": (0, 1),   # next guest pc (Value)
    "goto_tb": (0, 1),
    "call": (0, 0),      # special-cased: name, ret, args
    "cas": (1, 3),       # old_out, base, expect, new
    "atomic_add": (1, 2),   # old_out, base, addend
    "atomic_xchg": (1, 2),  # old_out, base, new
}

#: Ops that touch guest memory (barriers interact with exactly these).
MEMORY_OPS: frozenset[str] = frozenset(
    {"ld", "st", "cas", "atomic_add", "atomic_xchg"})

#: Ops after which control may leave the block.
TERMINATOR_OPS: frozenset[str] = frozenset(
    {"exit_tb", "goto_tb", "br", "brcond"})


@dataclass(frozen=True)
class Op:
    """One TCG op.  ``args`` layout follows OP_SIGNATURES; ``call`` ops
    carry (helper_name, ret_temp_or_None, *arg_values).

    ``origin`` is the provenance tag of barrier (``mb``) ops: the
    mapping rule (``RMOV->ld;Frm``) or optimizer decision
    (``fence_merge:strengthen``) that produced the fence.  It is
    metadata, excluded from equality/hash so optimizer tests comparing
    op sequences stay origin-agnostic, and it survives to the backend
    where fence cycles are attributed per origin.
    """

    name: str
    args: tuple = ()
    origin: str | None = field(default=None, compare=False)

    def __str__(self) -> str:
        if self.name == "call":
            helper, ret, *rest = self.args
            ret_part = f"{ret} = " if ret is not None else ""
            arg_part = ", ".join(str(a) for a in rest)
            return f"{ret_part}call {helper}({arg_part})"
        return f"{self.name} " + ", ".join(str(a) for a in self.args)

    # ------------------------------------------------------------------
    def outputs(self) -> tuple[Temp, ...]:
        if self.name == "call":
            ret = self.args[1]
            return (ret,) if isinstance(ret, Temp) else ()
        n_out, _ = OP_SIGNATURES[self.name]
        return tuple(a for a in self.args[:n_out]
                     if isinstance(a, Temp))

    def inputs(self) -> tuple[Temp, ...]:
        if self.name == "call":
            return tuple(a for a in self.args[2:]
                         if isinstance(a, Temp))
        n_out, _ = OP_SIGNATURES[self.name]
        return tuple(a for a in self.args[n_out:]
                     if isinstance(a, Temp))

    def is_memory(self) -> bool:
        return self.name in MEMORY_OPS

    def has_side_effects(self) -> bool:
        return self.name in MEMORY_OPS or self.name in TERMINATOR_OPS \
            or self.name in ("mb", "call", "set_label")


# ----------------------------------------------------------------------
# Blocks
# ----------------------------------------------------------------------
@dataclass
class TCGBlock:
    """One translation block of IR ops plus temp/label allocation."""

    guest_pc: int
    ops: list[Op] = field(default_factory=list)
    _temp_counter: itertools.count = field(
        default_factory=itertools.count)
    _label_counter: itertools.count = field(
        default_factory=itertools.count)
    #: Guest instruction count (for stats/cost accounting).
    guest_insns: int = 0

    def new_temp(self) -> Temp:
        return Temp(f"t{next(self._temp_counter)}")

    def new_label(self) -> LabelRef:
        return LabelRef(next(self._label_counter))

    def emit(self, name: str, *args) -> Op:
        op = Op(name, tuple(args))
        self.ops.append(op)
        return op

    # Convenience emitters -------------------------------------------
    def movi(self, dst: Temp, value: int) -> None:
        self.emit("movi", dst, Const(value))

    def mb(self, mask: int, origin: str | None = None) -> None:
        if mask:
            self.ops.append(Op("mb", (Const(mask),), origin=origin))

    def call(self, helper: str, ret: Temp | None, *args: Value) -> None:
        self.ops.append(Op("call", (helper, ret) + tuple(args)))

    def pretty(self) -> str:
        lines = [f"TB @0x{self.guest_pc:x} ({self.guest_insns} guest insns)"]
        lines += [f"  {op}" for op in self.ops]
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Guest-state globals
# ----------------------------------------------------------------------
#: TCG globals for the 16 guest GPRs.
GUEST_REG_TEMPS: dict[str, Temp] = {
    name: Temp(f"g_{name}", is_global=True)
    for name in ("rax", "rbx", "rcx", "rdx", "rsi", "rdi", "rbp", "rsp",
                 "r8", "r9", "r10", "r11", "r12", "r13", "r14", "r15")
}

#: TCG globals for the guest flags (materialized eagerly; QEMU's lazy
#: flag evaluation is a performance refinement out of scope here).
GUEST_FLAG_TEMPS: dict[str, Temp] = {
    name: Temp(f"g_{name}", is_global=True)
    for name in ("zf", "sf", "cf", "of")
}

ALL_GLOBALS: tuple[Temp, ...] = tuple(GUEST_REG_TEMPS.values()) + tuple(
    GUEST_FLAG_TEMPS.values())
