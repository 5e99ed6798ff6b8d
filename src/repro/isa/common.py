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
from typing import Sequence

from ..errors import AssemblerError, DecodeError

_LOCK_PREFIX = 0xF0
_TAG_REG = 0x01
_TAG_IMM = 0x02
_TAG_MEM = 0x03
_NO_REG = 0xFF

_U64_MASK = (1 << 64) - 1
#: A tagged immediate and a tagged memory operand, as encoded.
_IMM = struct.Struct("<Bq")
_MEM = struct.Struct("<BBBBi")


def to_signed(value: int, bits: int = 64) -> int:
    """Two's-complement interpretation of a ``bits``-wide value."""
    sign = 1 << (bits - 1)
    return (value & (sign - 1)) - (value & sign)


def to_unsigned(value: int, bits: int = 64) -> int:
    return value & ((1 << bits) - 1)


class Record:
    """Base of the immutable ``__slots__`` records: the operands and
    instructions here and the TCG values and ops (:mod:`repro.tcg.ir`).

    A subclass lists its fields, in constructor order, as
    ``__slots__`` and sets them once, through :func:`slot_setters`;
    assignment afterwards raises.  Records compare and hash by the
    fields in ``_compared`` (default: all of them), as the frozen
    dataclasses they replace did, except interned ones, which keep
    identity for both.  ``repr`` is the dataclass-style
    ``Name(field=value, ...)``, and ``pickle``/``copy`` rebuild a
    record through its constructor, so an interned one comes back as
    the same object.
    """

    __slots__ = ()
    _compared: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "_compared" not in cls.__dict__:
            cls._compared = cls.__slots__

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._compared])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __reduce__(self):
        return type(self), tuple([getattr(self, name)
                                  for name in self.__slots__])

    def __repr__(self) -> str:
        return f"{type(self).__name__}(" + ", ".join(
            f"{name}={getattr(self, name)!r}"
            for name in self.__slots__) + ")"


def slot_setters(cls: type) -> tuple:
    """The raw setters of ``cls``'s fields, in ``__slots__`` order: a
    constructor calls these, which bypass :meth:`Record.__setattr__`."""
    return tuple(getattr(cls, name).__set__ for name in cls.__slots__)


class Reg(Record):
    """A register operand, interned: one object per name, so registers
    compare and hash by identity."""

    __slots__ = ("name",)
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __new__(cls, name: str):
        reg = _REGS.get(name)
        if reg is None:
            reg = object.__new__(cls)
            _set_reg_name(reg, name)
            reg = _REGS.setdefault(name, reg)  # one winner per name
        return reg

    def __str__(self) -> str:
        return self.name


#: name -> the one :class:`Reg` of that name.
_REGS: dict[str, Reg] = {}
(_set_reg_name,) = slot_setters(Reg)


class Imm(Record):
    """A 64-bit immediate operand."""

    __slots__ = ("value",)

    def __init__(self, value: int):
        _set_imm_value(self, value)

    def __str__(self) -> str:
        return str(self.value)


(_set_imm_value,) = slot_setters(Imm)


class Mem(Record):
    """A memory operand: ``[base + index*scale + offset]``."""

    __slots__ = ("base", "offset", "index", "scale")

    def __init__(self, base: str | None = None, offset: int = 0,
                 index: str | None = None, scale: int = 1):
        _set_mem_base(self, base)
        _set_mem_offset(self, offset)
        _set_mem_index(self, index)
        _set_mem_scale(self, scale)

    def __str__(self) -> str:
        parts = []
        if self.base:
            parts.append(self.base)
        if self.index:
            parts.append(f"{self.index}*{self.scale}")
        if self.offset or not parts:
            parts.append(str(self.offset))
        return "[" + " + ".join(parts) + "]"


_set_mem_base, _set_mem_offset, _set_mem_index, _set_mem_scale = \
    slot_setters(Mem)


class Label(Record):
    """A not-yet-resolved branch target (assembly-time only)."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        _set_label_name(self, name)

    def __str__(self) -> str:
        return self.name


(_set_label_name,) = slot_setters(Label)

Operand = Reg | Imm | Mem | Label

#: Encoded width of each operand kind, tag byte included.
_OPERAND_BYTES = {Reg: 2, Imm: 9, Mem: 8}


class Insn(Record):
    """One instruction: mnemonic + operands (+ x86 LOCK prefix)."""

    __slots__ = ("mnemonic", "operands", "lock")

    def __init__(self, mnemonic: str, operands: tuple[Operand, ...] = (),
                 lock: bool = False):
        _set_insn_mnemonic(self, mnemonic)
        _set_insn_operands(self, operands)
        _set_insn_lock(self, lock)

    def __str__(self) -> str:
        prefix = "lock " if self.lock else ""
        if not self.operands:
            return prefix + self.mnemonic
        return (prefix + self.mnemonic + " "
                + ", ".join(str(op) for op in self.operands))


_set_insn_mnemonic, _set_insn_operands, _set_insn_lock = \
    slot_setters(Insn)


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
        #: Each register operand's encoding (registers are interned),
        #: and the operand each id decodes to.
        self._reg_bytes = {Reg(name): bytes((_TAG_REG, rid))
                           for name, rid in registers.items()}
        self._reg_operand = {rid: Reg(name)
                             for name, rid in registers.items()}
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
        head = bytes((_LOCK_PREFIX, opcode, len(insn.operands))) \
            if insn.lock else bytes((opcode, len(insn.operands)))
        return head + b"".join([self._encode_operand(insn, op)
                                for op in insn.operands])

    def _encode_operand(self, insn: Insn, op: Operand) -> bytes:
        kind = type(op)
        if kind is Reg:
            encoded = self._reg_bytes.get(op)
            if encoded is None:
                raise AssemblerError(
                    f"{self.name}: unknown register {op.name!r} "
                    f"in {insn}")
            return encoded
        if kind is Imm:
            return _IMM.pack(_TAG_IMM, to_signed(op.value & _U64_MASK))
        if kind is Mem:
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
            return _MEM.pack(_TAG_MEM, base, index, op.scale, op.offset)
        if kind is Label:
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
        """Decode one instruction; returns (insn, size_in_bytes).

        Bytes that are not an instruction, and an instruction cut off
        by the end of ``data``, raise :class:`DecodeError`."""
        if offset >= len(data):
            raise DecodeError(f"{self.name}: decode past end of code")
        try:
            return self._decode(data, offset)
        except (IndexError, struct.error):
            raise DecodeError(
                f"{self.name}: truncated instruction at offset "
                f"{offset}") from None

    def _decode(self, data: bytes, offset: int) -> tuple[Insn, int]:
        start = offset
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
        count = data[offset + 1]
        offset += 2
        operands: list[Operand] = []
        for _ in range(count):
            tag = data[offset]
            if tag == _TAG_REG:
                reg = self._reg_operand.get(data[offset + 1])
                if reg is None:
                    raise DecodeError(
                        f"{self.name}: unknown register id "
                        f"{data[offset + 1]}")
                operands.append(reg)
                offset += 2
            elif tag == _TAG_IMM:
                operands.append(Imm(_IMM.unpack_from(data, offset)[1]))
                offset += 9
            elif tag == _TAG_MEM:
                _, base_id, index_id, scale, disp = \
                    _MEM.unpack_from(data, offset)
                operands.append(Mem(
                    base=self._reg_of.get(base_id), offset=disp,
                    index=self._reg_of.get(index_id), scale=scale))
                offset += 8
            else:
                raise DecodeError(
                    f"{self.name}: bad operand tag 0x{tag:02x}")
        return Insn(mnemonic, tuple(operands), lock), offset - start

    def decode_block(self, code: bytes, base: int,
                     memo: dict[bytes, tuple[Insn, int]],
                     lengths: Sequence[int]
                     ) -> dict[int, tuple[Insn, int]]:
        """``pc -> (insn, size)`` for every instruction of ``code``
        loaded at ``base``, as :meth:`decode` reads each one.

        ``lengths`` are the instructions' sizes in order, as the linker
        recorded them.  Each instruction's exact bytes are sliced out
        and looked up in ``memo`` (bytes -> the ``(insn, size)`` record
        they decode to, which this fills, so every pc spelled alike
        shares one record), and only a miss decodes.  A memo key
        decoded to exactly its own length, so a hit is an exact
        encoding; a miss whose decoded size is not its length, lengths
        that do not cover ``code`` exactly, bytes that do not decode
        and an instruction cut off by the end of ``code`` all raise
        :class:`DecodeError`.
        """
        out = {}
        offset = 0
        lookup = memo.get
        for size in lengths:
            end = offset + size
            key = code[offset:end]
            record = lookup(key)
            if record is None:
                record = self.decode(code, offset)
                if record[1] != size:
                    raise DecodeError(
                        f"{self.name}: the instruction at offset "
                        f"{offset} is {record[1]} bytes, not {size}")
                memo[key] = record
            out[base + offset] = record
            offset = end
        if offset != len(code):
            raise DecodeError(
                f"{self.name}: {len(lengths)} instruction lengths do not "
                f"cover {len(code)} bytes of code")
        return out

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
