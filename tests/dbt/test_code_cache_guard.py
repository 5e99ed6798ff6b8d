"""The code cache's invariant, as a property over relocations.

``DBTEngine._install`` sizes one allocation from a block's linked
form and patches a copy of it into place.  That is only sound if the
encoding's length and layout depend on neither the base nor the trap
addresses, and if patching the recorded imm64 sites gives exactly the
bytes a from-scratch assembly at that base would.  ``_two_pass`` below
is that from-scratch assembly — the layout pass and the encode pass the
assembler ran before link/place — kept here as the oracle, so the
property does not compare the implementation with itself.
"""

import dataclasses
import inspect
import re
from pathlib import Path
from random import Random

import pytest

import repro.dbt.engine as engine_mod
from repro import api
from repro.errors import AssemblerError
from repro.fuzz.generate import gen_x86_block
from repro.dbt.xlat_cache import XlatCache
from repro.isa.arm import assembler
from repro.isa.arm.assembler import LinkedCode, as_decoded, assemble, \
    link, parse_line
from repro.isa.arm.insns import CODER
from repro.isa.common import Imm, Insn, Label
from repro.isa.x86 import assemble as assemble_x86
from repro.store import DiskStore
from repro.workloads import ALL_SPECS
from tests import knobs

REPO = Path(__file__).parents[2]
SRC = REPO / "src" / "repro"
CODE_BASE = 0x400000
VARIANTS = ("qemu", "tcg-ver", "risotto", "no-fences")
#: Low, and past the sign bit of an imm64.
EXTRA_BASES = (0, 0xFFFF_FFFF_0000_0100)


def _two_pass(source, base, external_labels):
    """(code, dmb addresses) by layout pass + encode pass."""
    items = [item for item in map(parse_line, source.splitlines())
             if item is not None]
    labels = dict(external_labels)
    cursor = base
    placed = []
    for item in items:
        if isinstance(item, str):
            assert item not in labels
            labels[item] = cursor
            continue
        placed.append((cursor, item))
        cursor += CODER.encoded_size(Insn(item.mnemonic, tuple(
            Imm(0) if isinstance(op, Label) else op
            for op in item.operands)))
    code = b"".join(
        CODER.encode(Insn(item.mnemonic, tuple(
            Imm(labels[op.name]) if isinstance(op, Label) else op
            for op in item.operands)))
        for _, item in placed)
    return code, [addr for addr, item in placed
                  if item.mnemonic.startswith("dmb")]


@pytest.fixture(scope="module")
def installed():
    """Every distinct block the engine installed, as asm -> (host pc,
    traps, placed bytes, the compiled block, the records the machine
    was seeded with): the fig12 programs under four variants at tier 1
    and with tier 2 promoting at the first dispatch, then 150 fuzz
    blocks."""
    seen = {}
    placing = []
    plain_install = engine_mod.DBTEngine._install
    plain_place = LinkedCode.place

    def spy_place(self, base, external_labels=None):
        placing.append((base, dict(external_labels)))
        return plain_place(self, base, external_labels)

    def spy_install(self, compiled):
        host_pc = plain_install(self, compiled)
        (base, traps), = placing
        placing.clear()
        assert base == host_pc
        memory = self.machine.memory
        end = host_pc + len(compiled.linked.code)
        image = memory.read_bytes(host_pc, end - host_pc)
        # Nothing here has run yet, so every record is still seeded.
        seeded = {pc: record for pc, record in memory.seeded.items()
                  if host_pc <= pc < end}
        seen.setdefault(compiled.asm,
                        (host_pc, traps, image, compiled, seeded))
        return host_pc

    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_XLAT_CACHE", "off")
        patch.setattr(LinkedCode, "place", spy_place)
        patch.setattr(engine_mod.DBTEngine, "_install", spy_install)
        for spec in ALL_SPECS:
            small = dataclasses.replace(spec, iterations=3, threads=1)
            for variant in VARIANTS:
                for threshold in (0, 1):
                    api.run_kernel(small, variant=variant,
                                   tier2_threshold=threshold)
        fig12_blocks = len(seen)
        for i in range(150):
            guest = assemble_x86(
                gen_x86_block(Random(f"guard{i}")) + "\n    hlt",
                base=CODE_BASE)
            engine = api.make_engine(
                variant=VARIANTS[i % len(VARIANTS)],
                tier2_threshold=i % 2)
            engine.load_image(CODE_BASE, guest.code)
            engine.run(CODE_BASE)
    assert fig12_blocks > 100 and len(seen) > fig12_blocks + 150
    return seen


def test_place_equals_from_scratch_assembly_at_every_base(installed):
    relocations = 0
    for asm, (host_pc, traps, image, *_) in installed.items():
        linked = link(asm)
        assert linked.relocs, "every block ends in a dispatch trap"
        relocations += len(linked.relocs)
        for base in (host_pc, *EXTRA_BASES):
            code, dmb_addrs = _two_pass(asm, base, traps)
            assert linked.place(base, traps) == code
            assert assemble(asm, base, traps).code == code
            assert [base + off for off in linked.dmb_offsets] == \
                dmb_addrs
        # What the engine mapped is the placement at its own base.
        assert image == linked.place(host_pc, traps)
    assert relocations > 2 * len(installed)


def test_relocations_are_disjoint_imm64_sites_inside_the_code(installed):
    for asm, (host_pc, traps, *_) in installed.items():
        linked = link(asm)
        end = 0
        for offset, _ in sorted(linked.relocs):
            assert end <= offset and offset + 8 <= len(linked.code)
            assert linked.code[offset:offset + 8] == bytes(8)
            end = offset + 8
        # Nothing but those sites moves with the base or the traps.
        moved = {name: addr ^ 0x5555_0000 for name, addr in traps.items()}
        there = linked.place(host_pc + 0x1000, moved)
        here = linked.place(host_pc, traps)
        assert len(there) == len(here) == len(linked.code)
        sites = {i for offset, _ in linked.relocs
                 for i in range(offset, offset + 8)}
        assert all(a == b for i, (a, b) in enumerate(zip(here, there))
                   if i not in sites)


def _decode_all(code: bytes, base: int) -> dict:
    """pc -> (insn, size) for every instruction of ``code`` at ``base``."""
    out, offset = {}, 0
    while offset < len(code):
        insn, size = CODER.decode(code, offset)
        out[base + offset] = (insn, size)
        offset += size
    return out


def test_seeded_records_are_the_decode_at_every_base(installed):
    """A fresh install hands the machine exactly what decoding the
    placed bytes gives, so binding either is the same: labels resolved
    (past the sign bit too) and every immediate signed.  A hit's
    records, from the bulk decode through one memo shared by every
    block and base, are that decode too."""
    wide = 0
    memo = {}
    decoded = 0
    for asm, (host_pc, traps, image, compiled, seeded) in \
            installed.items():
        assert seeded == _decode_all(image, host_pc)
        linked = compiled.linked
        for base in (host_pc, *EXTRA_BASES):
            placed = linked.place(base, traps)
            oracle = _decode_all(placed, base)
            if base != host_pc:
                records = as_decoded(compiled.insns, base,
                                     len(linked.code),
                                     linked.bind(base, traps))
                assert records == oracle
            assert CODER.decode_block(placed, base, memo) == oracle
            decoded += len(oracle)
        wide += sum(isinstance(op, Imm) and op.value >= 1 << 63
                    for _, insn in compiled.insns
                    for op in insn.operands)
    assert wide, "no emitted immediate needed signing"
    assert len(memo) < decoded // 2, "the memo never hit"


def test_stored_lengths_decode_to_the_same_records(installed):
    """The linker's instruction lengths are the decode's: advancing by
    them through one memo shared by every block and base, as a hit
    does, gives the decode of the placed bytes."""
    memo = {}
    for asm, (host_pc, traps, image, compiled, _) in installed.items():
        linked = compiled.linked
        assert [offset for offset, _ in compiled.insns] == \
            [sum(linked.lengths[:n]) for n in range(len(linked.lengths))]
        for base in (host_pc, *EXTRA_BASES):
            placed = linked.place(base, traps)
            assert CODER.decode_block(placed, base, memo,
                                      linked.lengths) == \
                _decode_all(placed, base)


def test_text_stays_the_oracle(installed):
    """The rendered records link, as text, to the linked form the
    records did."""
    for asm, (*_, compiled, _) in installed.items():
        assert link(asm) == compiled.linked


def test_unbound_and_clashing_labels_are_still_errors():
    linked = link("top:\n    b top\n    bl __helper_x\n    ret\n")
    assert linked.place(0x100, {"__helper_x": 0x900})
    with pytest.raises(AssemblerError, match="undefined label"):
        linked.place(0x100, {})
    with pytest.raises(AssemblerError, match="undefined label"):
        assemble("    b nowhere\n")
    with pytest.raises(AssemblerError, match="duplicate label"):
        linked.place(0x100, {"__helper_x": 0x900, "top": 0x200})
    with pytest.raises(AssemblerError, match="duplicate label"):
        assemble("top:\n    ret\n", external_labels={"top": 0x200})
    with pytest.raises(AssemblerError, match="duplicate label"):
        link("top:\n    nop\ntop:\n    ret\n")


def test_an_instruction_longer_than_its_length_byte_is_refused():
    """Each instruction's length is stored in one byte; hand-written
    text can spell a longer one, which the linker refuses by name."""
    many = ", ".join(["#1"] * 30)
    with pytest.raises(AssemblerError, match="one-byte length"):
        link(f"    mov x0, {many}\n")


def test_stable_assembler_still_installs():
    guest = assemble_x86(
        "main:\n  mov rdi, 0\n  mov rax, 60\n  syscall\n",
        base=CODE_BASE)
    engine = api.make_engine(variant="risotto")
    engine.load_image(guest.base, guest.code)
    result = engine.run(guest.base)
    assert result.exit_code == 0
    assert result.stats.blocks_translated > 0


# ----------------------------------------------------------------------
# Tooling guard: one assembler, one install pass, one budget rule
# ----------------------------------------------------------------------
class TestOnePath:
    def test_engine_assembles_nothing(self):
        """Install places a linked block; a probe pass or a second
        assembly could only come back as a call to the assembler."""
        text = (SRC / "dbt" / "engine.py").read_text()
        assert re.findall(r"\bassemble(?:_arm)?\(", text) == []
        assert len(re.findall(r"\.place\(", text)) == 1
        assert len(re.findall(r"alloc_code\(", text)) == 1

    def test_assembler_lays_out_and_encodes_once(self):
        text = (SRC / "isa" / "arm" / "assembler.py").read_text()
        assert len(re.findall(r"CODER\.encode\(", text)) == 1
        assert re.findall(r"CODER\.encoded_size\(", text) == []
        assert len(re.findall(r"\.splitlines\(\)", text)) == 1
        # assemble() is link + place, not a third loop over the source.
        body = inspect.getsource(assembler.assemble)
        assert "_link(source)" in body and ".place(" in body
        assert "CODER" not in body and "parse_line" not in body

    def test_put_path_has_one_budget_rule_and_no_new_parameter(self):
        text = (SRC / "dbt" / "xlat_cache.py").read_text()
        put = inspect.getsource(XlatCache.put)
        assert len(re.findall(r"walk_due\(", text)) == 1
        assert "walk_due()" in put and put.count("evict_to_budget") == 1
        assert list(inspect.signature(DiskStore).parameters) == \
            ["directory", "max_bytes"]
        assert list(inspect.signature(XlatCache).parameters) == \
            ["directory", "max_mem_entries", "max_disk_bytes"]

    def test_no_new_environment_name(self):
        """The machine guard pins the names under ``src/``; the docs
        may name those and no other."""
        known = knobs.REPRO_ENV
        found = set()
        for path in [*sorted(SRC.rglob("*.py")), REPO / "README.md",
                     REPO / "DESIGN.md", REPO / "EXPERIMENTS.md"]:
            found |= set(re.findall(r"REPRO_[A-Z][A-Z0-9_]*[A-Z0-9]",
                                    path.read_text()))
        assert found <= known, found - known
