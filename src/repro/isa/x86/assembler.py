"""A two-pass text assembler for the guest x86 subset.

Syntax (Intel-flavoured)::

    ; comment
    start:
        mov rax, 5
        mov rcx, [rbx + 8]
        mov [rbx + rcx*8 + 16], rax
        lock cmpxchg [rdi], rsi
        jne start
        ret

Branch targets assemble to absolute 64-bit immediates, so pass one
only needs operand *kinds* to lay out addresses.
"""

from __future__ import annotations

from ...errors import AssemblerError
from ..common import (IDENT_RE, INT_RE, LABEL_RE, Assembly, Imm, Insn,
                      Label, Mem, Reg, split_operands)
from .insns import CODER, REGISTER_IDS


def parse_operand(text: str) -> Reg | Imm | Mem | Label:
    """Parse one operand: register, immediate, memory ref, or label."""
    text = text.strip()
    if not text:
        raise AssemblerError("empty operand")
    if text.startswith("["):
        if not text.endswith("]"):
            raise AssemblerError(f"unterminated memory operand {text!r}")
        return _parse_mem(text[1:-1])
    lowered = text.lower()
    if lowered in REGISTER_IDS:
        return Reg(lowered)
    if INT_RE.match(text):
        return Imm(int(text, 0))
    if IDENT_RE.match(text):
        return Label(text)
    raise AssemblerError(f"cannot parse operand {text!r}")


def _parse_mem(inner: str) -> Mem:
    base: str | None = None
    index: str | None = None
    scale = 1
    offset = 0
    # Normalize "a - 4" into "+ -4" then split on '+'.
    normalized = inner.replace("-", "+-")
    for raw in normalized.split("+"):
        term = "".join(raw.split())  # drop all internal whitespace
        if not term:
            continue
        lowered = term.lower()
        if "*" in term:
            reg_part, scale_part = (p.strip() for p in term.split("*", 1))
            if reg_part.lower() not in REGISTER_IDS:
                raise AssemblerError(f"bad index register {reg_part!r}")
            if index is not None:
                raise AssemblerError(f"two index registers in [{inner}]")
            index = reg_part.lower()
            scale = int(scale_part, 0)
        elif lowered in REGISTER_IDS:
            if base is None:
                base = lowered
            elif index is None:
                index = lowered
            else:
                raise AssemblerError(f"too many registers in [{inner}]")
        elif INT_RE.match(term):
            offset += int(term, 0)
        else:
            raise AssemblerError(f"cannot parse memory term {term!r}")
    return Mem(base=base, offset=offset, index=index, scale=scale)


def parse_line(line: str) -> Insn | str | None:
    """Parse a source line into an Insn, a label name, or None."""
    code = line.split(";", 1)[0].strip()
    if not code:
        return None
    match = LABEL_RE.match(code)
    if match:
        return match.group(1)
    lock = False
    if code.lower().startswith("lock "):
        lock = True
        code = code[5:].strip()
    parts = code.split(None, 1)
    mnemonic = parts[0].lower()
    operands: tuple = ()
    if len(parts) > 1:
        operands = tuple(
            parse_operand(tok) for tok in split_operands(parts[1])
        )
    return Insn(mnemonic, operands, lock=lock)


def _resolve(insn: Insn, labels: dict[str, int]) -> Insn:
    try:
        return Insn(insn.mnemonic, tuple(
            Imm(labels[op.name]) if isinstance(op, Label) else op
            for op in insn.operands), lock=insn.lock)
    except KeyError as exc:
        raise AssemblerError(f"undefined label {exc.args[0]!r}") from None


def assemble(source: str, base: int = 0x400000,
             external_labels: dict[str, int] | None = None) -> Assembly:
    """Assemble text into bytes loaded at ``base``.

    ``external_labels`` lets callers pre-bind symbols (e.g. PLT entry
    addresses injected by the guest-binary builder).
    """
    items: list[Insn | str] = []
    for lineno, line in enumerate(source.splitlines(), start=1):
        try:
            item = parse_line(line)
        except AssemblerError as exc:
            raise AssemblerError(f"line {lineno}: {exc}") from exc
        if item is not None:
            items.append(item)

    # Pass 1 lays out addresses: a label operand encodes as wide as an
    # immediate, so sizes are final already.  Pass 2 resolves labels.
    labels: dict[str, int] = dict(external_labels or {})
    placed: list[tuple[int, Insn]] = []
    cursor = base
    for item in items:
        if isinstance(item, str):
            if item in labels:
                raise AssemblerError(f"duplicate label {item!r}")
            labels[item] = cursor
            continue
        placed.append((cursor, item))
        cursor += CODER.encoded_size(Insn(item.mnemonic, tuple(
            Imm(0) if isinstance(op, Label) else op
            for op in item.operands), lock=item.lock))
    insns = [_resolve(insn, labels) for _, insn in placed]
    return Assembly(
        code=b"".join(map(CODER.encode, insns)), base=base,
        labels=labels, insns=insns,
        addresses=[address for address, _ in placed],
    )
