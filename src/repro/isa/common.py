"""Operand model and the byte-encoding machinery shared by both ISAs.

Instructions are a mnemonic plus a tuple of operands; operands are
registers, 64-bit immediates, or a base+index*scale+offset memory
reference.  The wire format (our own, deliberately simple) is:

    [0xF0 lock-prefix]? opcode:1 nops:1 (operand)*

    operand := 0x01 reg:1
             | 0x02 imm:8 (signed little-endian)
             | 0x03 base:1 index:1 scale:1 offset:4 (signed)

Register ids and opcode numbers are per-ISA tables.  The encoding is
variable-length like real x86, which keeps the DBT's "decode at IP,
advance by instruction size" loop faithful.
"""

from __future__ import annotations

import re
import struct
from dataclasses import dataclass

from ..errors import AssemblerError, DecodeError

_LOCK_PREFIX = 0xF0
_TAG_REG = 0x01
_TAG_IMM = 0x02
_TAG_MEM = 0x03
_NO_REG = 0xFF

_U64_MASK = (1 << 64) - 1


def to_signed(value: int, bits: int = 64) -> int:
    """Two's-complement interpretation of a ``bits``-wide value."""
    sign = 1 << (bits - 1)
    return (value & (sign - 1)) - (value & sign)


def to_unsigned(value: int, bits: int = 64) -> int:
    return value & ((1 << bits) - 1)


@dataclass(frozen=True)
class Reg:
    """A register operand."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Imm:
    """A 64-bit immediate operand."""

    value: int

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class Mem:
    """A memory operand: ``[base + index*scale + offset]``."""

    base: str | None = None
    offset: int = 0
    index: str | None = None
    scale: int = 1

    def __str__(self) -> str:
        parts = []
        if self.base:
            parts.append(self.base)
        if self.index:
            parts.append(f"{self.index}*{self.scale}")
        if self.offset or not parts:
            parts.append(str(self.offset))
        return "[" + " + ".join(parts) + "]"


@dataclass(frozen=True)
class Label:
    """A not-yet-resolved branch target (assembly-time only)."""

    name: str

    def __str__(self) -> str:
        return self.name


Operand = Reg | Imm | Mem | Label

#: Encoded width of each operand kind, tag byte included.
_OPERAND_BYTES = {Reg: 2, Imm: 9, Mem: 8}


@dataclass(frozen=True)
class Insn:
    """One instruction: mnemonic + operands (+ x86 LOCK prefix)."""

    mnemonic: str
    operands: tuple[Operand, ...] = ()
    lock: bool = False

    def __str__(self) -> str:
        prefix = "lock " if self.lock else ""
        if not self.operands:
            return prefix + self.mnemonic
        return (prefix + self.mnemonic + " "
                + ", ".join(str(op) for op in self.operands))


class InsnCoder:
    """Table-driven encoder/decoder for one ISA.

    ``opcodes`` maps mnemonics to opcode bytes; ``registers`` maps
    register names to ids.  Both directions are validated eagerly so a
    mis-declared table fails at import time, not mid-translation.
    """

    def __init__(self, name: str, opcodes: dict[str, int],
                 registers: dict[str, int], allow_lock: bool = False):
        self.name = name
        self.opcodes = dict(opcodes)
        self.registers = dict(registers)
        self.allow_lock = allow_lock
        self._mnemonic_of = {v: k for k, v in opcodes.items()}
        self._reg_of = {v: k for k, v in registers.items()}
        if len(self._mnemonic_of) != len(opcodes):
            raise AssemblerError(f"{name}: duplicate opcode bytes")
        if len(self._reg_of) != len(registers):
            raise AssemblerError(f"{name}: duplicate register ids")
        if _NO_REG in self._reg_of:
            raise AssemblerError(f"{name}: register id 0xFF is reserved")

    # ------------------------------------------------------------------
    # Encode
    # ------------------------------------------------------------------
    def encode(self, insn: Insn) -> bytes:
        opcode = self.opcodes.get(insn.mnemonic)
        if opcode is None:
            raise AssemblerError(
                f"{self.name}: unknown mnemonic {insn.mnemonic!r}")
        if insn.lock and not self.allow_lock:
            raise AssemblerError(
                f"{self.name}: LOCK prefix not supported")
        out = bytearray()
        if insn.lock:
            out.append(_LOCK_PREFIX)
        out.append(opcode)
        out.append(len(insn.operands))
        for op in insn.operands:
            out.extend(self._encode_operand(insn, op))
        return bytes(out)

    def _encode_operand(self, insn: Insn, op: Operand) -> bytes:
        if isinstance(op, Reg):
            rid = self.registers.get(op.name)
            if rid is None:
                raise AssemblerError(
                    f"{self.name}: unknown register {op.name!r} "
                    f"in {insn}")
            return bytes((_TAG_REG, rid))
        if isinstance(op, Imm):
            return bytes((_TAG_IMM,)) + struct.pack(
                "<q", to_signed(to_unsigned(op.value)))
        if isinstance(op, Mem):
            base = self.registers.get(op.base, _NO_REG) \
                if op.base else _NO_REG
            if op.base and base == _NO_REG:
                raise AssemblerError(
                    f"{self.name}: unknown base register {op.base!r}")
            index = self.registers.get(op.index, _NO_REG) \
                if op.index else _NO_REG
            if op.index and index == _NO_REG:
                raise AssemblerError(
                    f"{self.name}: unknown index register {op.index!r}")
            if op.scale not in (1, 2, 4, 8):
                raise AssemblerError(
                    f"{self.name}: bad scale {op.scale} in {insn}")
            return bytes((_TAG_MEM, base, index, op.scale)) + \
                struct.pack("<i", op.offset)
        if isinstance(op, Label):
            raise AssemblerError(
                f"{self.name}: unresolved label {op.name!r} in {insn}")
        raise AssemblerError(f"{self.name}: bad operand {op!r}")

    def encoded_size(self, insn: Insn) -> int:
        return len(self.encode(insn))

    def imm_offset(self, insn: Insn, index: int) -> int:
        """Where, inside ``encode(insn)``, the 8 immediate bytes of
        operand ``index`` sit: operand widths are fixed, so rewriting
        them retargets the instruction and moves nothing."""
        return (4 if insn.lock else 3) + sum(
            _OPERAND_BYTES[type(op)] for op in insn.operands[:index])

    # ------------------------------------------------------------------
    # Decode
    # ------------------------------------------------------------------
    def decode(self, data: bytes, offset: int = 0) -> tuple[Insn, int]:
        """Decode one instruction; returns (insn, size_in_bytes)."""
        start = offset
        if offset >= len(data):
            raise DecodeError(f"{self.name}: decode past end of code")
        lock = False
        if data[offset] == _LOCK_PREFIX:
            if not self.allow_lock:
                raise DecodeError(f"{self.name}: stray LOCK prefix")
            lock = True
            offset += 1
        mnemonic = self._mnemonic_of.get(data[offset])
        if mnemonic is None:
            raise DecodeError(
                f"{self.name}: unknown opcode 0x{data[offset]:02x} "
                f"at offset {start}")
        offset += 1
        count = data[offset]
        offset += 1
        operands: list[Operand] = []
        for _ in range(count):
            op, offset = self._decode_operand(data, offset)
            operands.append(op)
        return Insn(mnemonic, tuple(operands), lock=lock), offset - start

    def _decode_operand(self, data: bytes,
                        offset: int) -> tuple[Operand, int]:
        tag = data[offset]
        offset += 1
        if tag == _TAG_REG:
            name = self._reg_of.get(data[offset])
            if name is None:
                raise DecodeError(
                    f"{self.name}: unknown register id {data[offset]}")
            return Reg(name), offset + 1
        if tag == _TAG_IMM:
            (value,) = struct.unpack_from("<q", data, offset)
            return Imm(value), offset + 8
        if tag == _TAG_MEM:
            base_id, index_id, scale = data[offset:offset + 3]
            (disp,) = struct.unpack_from("<i", data, offset + 3)
            base = self._reg_of.get(base_id) if base_id != _NO_REG \
                else None
            index = self._reg_of.get(index_id) if index_id != _NO_REG \
                else None
            return Mem(base=base, offset=disp, index=index,
                       scale=scale), offset + 7
        raise DecodeError(f"{self.name}: bad operand tag 0x{tag:02x}")

    # ------------------------------------------------------------------
    def disassemble(self, data: bytes) -> list[Insn]:
        """Decode an entire byte buffer (for tests and dumps)."""
        out = []
        offset = 0
        while offset < len(data):
            insn, size = self.decode(data, offset)
            out.append(insn)
            offset += size
        return out


# ----------------------------------------------------------------------
# Assembly text, shared by both assemblers
# ----------------------------------------------------------------------
LABEL_RE = re.compile(r"^([.\w]+):$")
INT_RE = re.compile(r"^[+-]?(0x[0-9a-fA-F]+|\d+)$")
IDENT_RE = re.compile(r"^[.\w]+$")
#: A comma outside brackets: no ``]`` ahead before the next ``[``.
_OPERAND_COMMA = re.compile(r",(?![^\[]*\])")


def split_operands(text: str) -> list[str]:
    """The operands of one line, split on commas outside brackets."""
    return [tok for tok in map(str.strip, _OPERAND_COMMA.split(text))
            if tok]


@dataclass
class Assembly:
    """The result of assembling one source unit."""

    code: bytes
    base: int
    labels: dict[str, int]
    insns: list[Insn]
    #: Byte address of each instruction, parallel to ``insns``.
    addresses: list[int]

    def label(self, name: str) -> int:
        try:
            return self.labels[name]
        except KeyError:
            raise AssemblerError(f"unknown label {name!r}") from None
