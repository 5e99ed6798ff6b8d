"""The host Arm subset's linker, and a text assembler over it.

A unit is a list of records: an :class:`Insn` per instruction, whose
:class:`Label` operands are branch or trap targets, and a name per
label.  :func:`link_records` encodes one once into a
:class:`LinkedCode`; labels encode as absolute 64-bit immediates, so
:meth:`LinkedCode.place` binds it to any base and external labels by
patching them.  The DBT backend emits records, so a fresh block is
never printed and parsed back: :func:`as_decoded` gives the machine
its instructions as placed, and :func:`render` prints them only when
something reads the text.  Text is for hand-written code:
:func:`parse` reads it into records, :func:`link` is parse then link,
and :func:`assemble` is link then place.  Syntax (A64-flavoured)::

    // comment
    loop:
        mov x0, #42
        ldr x1, [x2, #8]
        add x1, x1, x0
        str x1, [x2, #8]
        cbnz x3, loop
        dmbff
        ret
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

from ...errors import AssemblerError
from ..common import (IDENT_RE, INT_RE, LABEL_RE, Assembly, Imm, Insn,
                      Label, Mem, Reg, split_operands, to_signed)
from .insns import CODER, REGISTER_IDS, REGS

_IMM64 = struct.Struct("<Q")
_U64_MASK = (1 << 64) - 1
_I64_MIN, _I64_END = -(1 << 63), 1 << 63
_ZERO = Imm(0)


# Operands are immutable and repeat over and over: memoize.
@lru_cache(maxsize=1024)
def parse_operand(text: str) -> Reg | Imm | Mem | Label:
    text = text.strip()
    if not text:
        raise AssemblerError("empty operand")
    if text.startswith("["):
        if not text.endswith("]"):
            raise AssemblerError(f"unterminated memory operand {text!r}")
        return _parse_mem(text[1:-1])
    if text.startswith("#"):
        body = text[1:]
        if not INT_RE.match(body):
            raise AssemblerError(f"bad immediate {text!r}")
        return Imm(int(body, 0))
    lowered = text.lower()
    if lowered in REGISTER_IDS:
        return REGS[lowered]
    if INT_RE.match(text):
        return Imm(int(text, 0))
    if IDENT_RE.match(text):
        return Label(text)
    raise AssemblerError(f"cannot parse operand {text!r}")


def _parse_mem(inner: str) -> Mem:
    parts = [p.strip() for p in inner.split(",")]
    if not parts or parts[0].lower() not in REGISTER_IDS:
        raise AssemblerError(f"bad base register in [{inner}]")
    base = parts[0].lower()
    offset = 0
    index = None
    if len(parts) == 2:
        second = parts[1]
        if second.startswith("#"):
            offset = int(second[1:], 0)
        elif second.lower() in REGISTER_IDS:
            index = second.lower()
        else:
            raise AssemblerError(f"bad memory term {second!r}")
    elif len(parts) > 2:
        raise AssemblerError(f"too many memory terms in [{inner}]")
    return Mem(base=base, offset=offset, index=index, scale=1)


def parse_line(line: str) -> Insn | str | None:
    code = line.split("//", 1)[0].strip()
    if not code:
        return None
    match = LABEL_RE.match(code)
    if match:
        return match.group(1)
    parts = code.split(None, 1)
    mnemonic = parts[0].lower()
    operands: tuple = ()
    if len(parts) > 1:
        operands = tuple(
            parse_operand(tok) for tok in split_operands(parts[1])
        )
    return Insn(mnemonic, operands)


@dataclass(frozen=True)
class LinkedCode:
    """One source unit encoded once, not yet bound to an address.

    Immediates are a fixed 8 bytes, so length and layout depend on
    neither the base nor what labels resolve to: binding is a copy
    plus one 64-bit store per relocation.  Immutable, so one instance
    serves every engine that installs the block.
    """

    #: The encoding with every label immediate zeroed.
    code: bytes
    #: (offset of an imm64 inside ``code``, the label it holds).
    relocs: tuple[tuple[int, str], ...]
    #: Labels the unit defines -> their offset from the base.
    labels: dict[str, int]
    #: Offsets of the ``dmb*`` instructions, in program order.
    dmb_offsets: tuple[int, ...]

    def bind(self, base: int,
             external_labels: dict[str, int] | None = None
             ) -> dict[str, int]:
        """Every label's address with the unit loaded at ``base``."""
        labels = dict(external_labels or {})
        for name, offset in self.labels.items():
            if name in labels:
                raise AssemblerError(f"duplicate label {name!r}")
            labels[name] = base + offset
        return labels

    def place(self, base: int,
              external_labels: dict[str, int] | None = None) -> bytes:
        """The unit's bytes when loaded at ``base``."""
        labels = self.bind(base, external_labels)
        code = bytearray(self.code)
        for offset, name in self.relocs:
            if name not in labels:
                raise AssemblerError(f"undefined label {name!r}")
            _IMM64.pack_into(code, offset, labels[name] & _U64_MASK)
        return bytes(code)


def link_records(records: Iterable[Insn | str]
                 ) -> tuple[LinkedCode, list[tuple[int, Insn]]]:
    """Encode a record list once: the linked form, plus every
    instruction at its offset in the code.

    A record is an :class:`Insn`, whose :class:`Label` operands become
    relocations, or a label name, defined at the current offset.
    """
    code = bytearray()
    relocs: list[tuple[int, str]] = []
    labels: dict[str, int] = {}
    dmb_offsets, placed = [], []
    for item in records:
        offset = len(code)
        if type(item) is str:
            if item in labels:
                raise AssemblerError(f"duplicate label {item!r}")
            labels[item] = offset
            continue
        placeholder = item
        if Label in map(type, item.operands):
            # Encode a zero where each label's address will go.
            placeholder = Insn(
                item.mnemonic,
                tuple(_ZERO if type(op) is Label else op
                      for op in item.operands))
            relocs.extend(
                (offset + CODER.imm_offset(placeholder, index), op.name)
                for index, op in enumerate(item.operands)
                if type(op) is Label)
        if item.mnemonic.startswith("dmb"):
            dmb_offsets.append(offset)
        placed.append((offset, item))
        code += CODER.encode(placeholder)
    linked = LinkedCode(bytes(code), tuple(relocs), labels,
                        tuple(dmb_offsets))
    return linked, placed


def parse(source: str) -> list[Insn | str]:
    """Arm text as the records :func:`link_records` takes."""
    records = []
    for lineno, line in enumerate(source.splitlines(), start=1):
        try:
            item = parse_line(line)
        except AssemblerError as exc:
            raise AssemblerError(f"line {lineno}: {exc}") from exc
        if item is not None:
            records.append(item)
    return records


def _link(source: str) -> tuple[LinkedCode, list[tuple[int, Insn]]]:
    return link_records(parse(source))


def link(source: str) -> LinkedCode:
    """Parse and encode Arm text once, for any number of placements."""
    return _link(source)[0]


def as_decoded(placed: list[tuple[int, Insn]], base: int, end: int,
               labels: dict[str, int]) -> dict[int, tuple[Insn, int]]:
    """``pc -> (insn, size)`` for ``placed`` (as :func:`link_records`
    returns it, ``end`` bytes long) at ``base``: each instruction as
    :meth:`~repro.isa.common.InsnCoder.decode` reads it back, a label
    operand its address in ``labels`` and every immediate signed."""
    out = {}
    for offset, insn in reversed(placed):
        for op in insn.operands:
            kind = type(op)
            if kind is Label or (kind is Imm and not
                                 _I64_MIN <= op.value < _I64_END):
                insn = Insn(insn.mnemonic, tuple(
                    Imm(to_signed(labels[op.name] if type(op) is Label
                                  else op.value))
                    if type(op) in (Label, Imm) else op
                    for op in insn.operands), insn.lock)
                break
        out[base + offset] = (insn, end - offset)
        end = offset
    return out


def render(placed: list[tuple[int, Insn]],
           labels: dict[str, int]) -> str:
    """The text :func:`link` reads back to the unit that
    :func:`link_records` returned as ``placed`` and ``labels``."""
    lines = [(offset, 0, f"{name}:") for name, offset in labels.items()]
    lines += [(offset, 1, f"    {insn.mnemonic} " + ", ".join(
        _spell(insn.mnemonic, op) for op in insn.operands))
        for offset, insn in placed]
    lines.sort(key=lambda line: line[:2])  # labels keep their order
    return "\n".join(text.rstrip() for *_, text in lines) + "\n"


def _spell(mnemonic: str, op: Reg | Imm | Mem | Label) -> str:
    if type(op) is Imm:
        return f"#{op.value}"
    if type(op) is not Mem:
        return op.name
    if op.index:
        return f"[{op.base}, {op.index}]"
    # Plain loads and stores spell a zero offset; atomics take a bare
    # base.
    if op.offset or mnemonic in ("ldr", "str"):
        return f"[{op.base}, #{op.offset}]"
    return f"[{op.base}]"


def assemble(source: str, base: int = 0x10000000,
             external_labels: dict[str, int] | None = None) -> Assembly:
    """Assemble Arm text into bytes loaded at ``base``."""
    linked, placed = _link(source)
    code = linked.place(base, external_labels)
    labels = linked.bind(base, external_labels)
    decoded = sorted(as_decoded(placed, base, len(code), labels).items())
    return Assembly(
        code=code, base=base, labels=labels,
        insns=[insn for _, (insn, _) in decoded],
        addresses=[pc for pc, _ in decoded],
    )
