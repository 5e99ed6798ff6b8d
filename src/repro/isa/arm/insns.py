"""The host Arm (A64-flavoured) instruction set.

Covers the mapping targets of Figures 1/7: plain ``LDR``/``STR``,
acquire/release/acquirePC accesses (``LDAR``/``STLR``/``LDAPR``),
exclusives (``LDXR``/``STXR`` and their A/L variants), the ARMv8.1
single-instruction atomics (``CAS*``, ``LDADDAL``, ``SWPAL``), the three
``DMB`` flavours, and enough ALU/branch/call material to host the TCG
backend's output.

Scalar FP (``fadd``/``fmul``/``fdiv``/``fsqrt``) operates on general
registers holding IEEE-754 double bit patterns, mirroring the x86-side
substitution documented in DESIGN.md.
"""

from __future__ import annotations

from ..common import InsnCoder, Reg

#: General-purpose registers.  x31 is written ``xzr`` (zero register);
#: ``sp`` is a separate register in this simplified model.
GPR: tuple[str, ...] = tuple(f"x{i}" for i in range(31)) + ("sp", "xzr")

REGISTER_IDS: dict[str, int] = {name: i for i, name in enumerate(GPR)}

#: One interned :class:`Reg` per register name.
REGS: dict[str, Reg] = {name: Reg(name) for name in GPR}

#: Link register alias used by BL/RET.
LINK_REGISTER = "x30"

#: Condition suffixes for B.cond, evaluated over NZCV.
CONDITIONS: tuple[str, ...] = (
    "eq", "ne", "lt", "ge", "le", "gt", "lo", "hs", "ls", "hi",
    "mi", "pl",
)

OPCODES: dict[str, int] = {
    # moves / ALU
    "mov": 0x01,
    "movz": 0x02,
    "add": 0x10,
    "sub": 0x11,
    "and": 0x12,
    "orr": 0x13,
    "eor": 0x14,
    "lsl": 0x15,
    "lsr": 0x16,
    "asr": 0x17,
    "mul": 0x18,
    "udiv": 0x19,
    "mvn": 0x1A,
    "neg": 0x1B,
    # compare / conditional select
    "cmp": 0x20,
    "cset": 0x21,
    "csel": 0x22,
    # branches
    "b": 0x30,
    "b.eq": 0x31,
    "b.ne": 0x32,
    "b.lt": 0x33,
    "b.ge": 0x34,
    "b.le": 0x35,
    "b.gt": 0x36,
    "b.lo": 0x37,
    "b.hs": 0x38,
    "b.ls": 0x39,
    "b.hi": 0x3A,
    "b.mi": 0x3B,
    "b.pl": 0x3C,
    "cbz": 0x3D,
    "cbnz": 0x3E,
    "bl": 0x3F,
    "blr": 0x40,
    "br": 0x41,
    "ret": 0x42,
    # plain and ordered memory accesses
    "ldr": 0x50,
    "str": 0x51,
    "ldar": 0x52,
    "ldapr": 0x53,
    "stlr": 0x54,
    # exclusives
    "ldxr": 0x58,
    "stxr": 0x59,
    "ldaxr": 0x5A,
    "stlxr": 0x5B,
    # ARMv8.1 atomics
    "cas": 0x60,
    "casa": 0x61,
    "casl": 0x62,
    "casal": 0x63,
    "ldaddal": 0x64,
    "swpal": 0x65,
    # fences
    "dmbff": 0x70,
    "dmbld": 0x71,
    "dmbst": 0x72,
    # pseudo scalar-double FP on general registers
    "fadd": 0x80,
    "fmul": 0x81,
    "fdiv": 0x82,
    "fsqrt": 0x83,
    # system
    "svc": 0x90,
    "nop": 0x91,
    "hlt": 0x92,
}

#: Mnemonics that end a translation block.
BLOCK_TERMINATORS: frozenset[str] = frozenset({
    "b", "br", "bl", "blr", "ret", "cbz", "cbnz", "svc", "hlt",
} | {m for m in OPCODES if m.startswith("b.")})

#: Conditional branch mnemonic -> condition suffix.
CONDITIONAL_BRANCHES: dict[str, str] = {
    f"b.{c}": c for c in CONDITIONS
}

#: Memory-ordering class of each memory-access mnemonic, consumed by
#: the weak-memory engine: "plain", "acq" (A), "acqpc" (Q), "rel" (L).
ACCESS_ORDERING: dict[str, str] = {
    "ldr": "plain",
    "str": "plain",
    "ldar": "acq",
    "ldapr": "acqpc",
    "stlr": "rel",
    "ldxr": "plain",
    "stxr": "plain",
    "ldaxr": "acq",
    "stlxr": "rel",
    "cas": "plain",
    "casa": "acq",
    "casl": "rel",
    "casal": "acq+rel",
    "ldaddal": "acq+rel",
    "swpal": "acq+rel",
}

CODER = InsnCoder("arm", OPCODES, REGISTER_IDS, allow_lock=False)
