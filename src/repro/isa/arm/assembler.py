"""A link-then-place text assembler for the host Arm subset.

Syntax (A64-flavoured)::

    // comment
    loop:
        mov x0, #42
        ldr x1, [x2, #8]
        add x1, x1, x0
        str x1, [x2, #8]
        cbnz x3, loop
        dmbff
        ret

Branch targets assemble to absolute 64-bit immediates (same layout
trick as the x86 assembler), so the encoding is relocatable:
:func:`link` parses and encodes a unit once, :meth:`LinkedCode.place`
binds it to a base and to external labels by patching those
immediates, and :func:`assemble` is the two run back to back.
"""

from __future__ import annotations

import re
import struct
from functools import lru_cache
from dataclasses import dataclass

from ...errors import AssemblerError
from ..common import Imm, Insn, Label, Mem, Reg
from .insns import CODER, REGISTER_IDS

_LABEL_RE = re.compile(r"^([.\w]+):$")
_INT_RE = re.compile(r"^[+-]?(0x[0-9a-fA-F]+|\d+)$")
_IDENT_RE = re.compile(r"^[.\w]+$")
_IMM64 = struct.Struct("<Q")
_U64_MASK = (1 << 64) - 1


@dataclass
class Assembly:
    """The result of assembling one Arm source unit."""

    code: bytes
    base: int
    labels: dict[str, int]
    insns: list[Insn]
    addresses: list[int]

    def label(self, name: str) -> int:
        try:
            return self.labels[name]
        except KeyError:
            raise AssemblerError(f"unknown label {name!r}") from None


# Translated blocks spell the same few dozen registers and small
# immediates over and over, and operands are immutable: memoize.
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
        if not _INT_RE.match(body):
            raise AssemblerError(f"bad immediate {text!r}")
        return Imm(int(body, 0))
    lowered = text.lower()
    if lowered in REGISTER_IDS:
        return Reg(lowered)
    if _INT_RE.match(text):
        return Imm(int(text, 0))
    if _IDENT_RE.match(text):
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
    match = _LABEL_RE.match(code)
    if match:
        return match.group(1)
    parts = code.split(None, 1)
    mnemonic = parts[0].lower()
    operands: tuple = ()
    if len(parts) > 1:
        operands = tuple(
            parse_operand(tok) for tok in _split_operands(parts[1])
        )
    return Insn(mnemonic, operands)


def _split_operands(text: str) -> list[str]:
    if "[" not in text and "]" not in text:
        return [tok for tok in map(str.strip, text.split(",")) if tok]
    out, depth, current = [], 0, []
    for ch in text:
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        if ch == "," and depth == 0:
            out.append("".join(current))
            current = []
        else:
            current.append(ch)
    if current:
        out.append("".join(current))
    return [tok for tok in (t.strip() for t in out) if tok]


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


def _link(source: str) -> tuple[LinkedCode, list[Insn], list[int]]:
    """The linked form plus the parsed instructions and their offsets
    (what :func:`assemble` reports and :func:`link` need not retain)."""
    code = bytearray()
    relocs: list[tuple[int, str]] = []
    labels: dict[str, int] = {}
    dmb_offsets, insns, offsets = [], [], []
    for lineno, line in enumerate(source.splitlines(), start=1):
        try:
            item = parse_line(line)
        except AssemblerError as exc:
            raise AssemblerError(f"line {lineno}: {exc}") from exc
        if item is None:
            continue
        if isinstance(item, str):
            if item in labels:
                raise AssemblerError(f"duplicate label {item!r}")
            labels[item] = len(code)
            continue
        placeholder = item
        if any(isinstance(op, Label) for op in item.operands):
            # Encode a zero where each label's address will go.
            placeholder = Insn(
                item.mnemonic,
                tuple(Imm(0) if isinstance(op, Label) else op
                      for op in item.operands))
            relocs.extend(
                (len(code) + CODER.imm_offset(placeholder, index),
                 op.name)
                for index, op in enumerate(item.operands)
                if isinstance(op, Label))
        if item.mnemonic.startswith("dmb"):
            dmb_offsets.append(len(code))
        insns.append(item)
        offsets.append(len(code))
        code.extend(CODER.encode(placeholder))
    linked = LinkedCode(bytes(code), tuple(relocs), labels,
                        tuple(dmb_offsets))
    return linked, insns, offsets


def link(source: str) -> LinkedCode:
    """Parse and encode Arm text once, for any number of placements."""
    return _link(source)[0]


def assemble(source: str, base: int = 0x10000000,
             external_labels: dict[str, int] | None = None) -> Assembly:
    """Assemble Arm text into bytes loaded at ``base``."""
    linked, insns, offsets = _link(source)
    code = linked.place(base, external_labels)
    labels = linked.bind(base, external_labels)
    resolved = [
        Insn(insn.mnemonic,
             tuple(Imm(labels[op.name]) if isinstance(op, Label) else op
                   for op in insn.operands))
        for insn in insns
    ]
    return Assembly(
        code=code, base=base, labels=labels, insns=resolved,
        addresses=[base + offset for offset in offsets],
    )
