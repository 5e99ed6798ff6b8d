"""Golden equivalence: table-derived schemes vs the hardwired emission.

The frontend used to branch on a fence-policy enum with hand-typed
masks and origin literals; it now emits from a derived
:class:`~repro.core.most.FenceScheme`.  ``_LegacyFrontend`` below
replicates the removed branches verbatim (keyed on the scheme name the
enum value became), and every test proves the
scheme-driven frontend is *bit-identical* to it — same op sequences,
same fence masks, same provenance strings, same compiled Arm assembly
— across the fig12 workload set and the fence-relevant instruction
surface.

A second family of tests pins provenance hygiene: every origin a
translated block carries must be a registered rule of the active
scheme (no hand-typed literal can drift from the registry again).
"""

import pytest

from repro.core.most import SCHEMES, known_origins
from repro.isa.x86.assembler import assemble
from repro.machine.memory import Memory
from repro.tcg.backend_arm import ArmBackend
from repro.tcg.frontend_x86 import CasPolicy, FrontendConfig, X86Frontend
from repro.tcg.ir import MO_ALL, MO_LD_LD, MO_LD_ST, MO_ST_ST, Const
from repro.workloads import ALL_SPECS, gen_x86_program

BASE = 0x1000

POLICIES = (SCHEMES["qemu"], SCHEMES["risotto"], SCHEMES["no-fences"])

#: Fence-relevant x86 surface: plain loads/stores (direct and via
#: addressing modes), the explicit fences, stack traffic (push/pop/
#: call/ret emit through the same load/store helpers), and RMWs.
SNIPPETS = {
    "load-store": "mov rax, [rbx]\n mov [rbx + 8], rax\n hlt",
    "load-indexed": "mov rcx, [rbx + rdx*4]\n hlt",
    "store-imm": "mov [rbx], 7\n hlt",
    "fences": "mfence\n lfence\n sfence\n hlt",
    "stack": "push rax\n push rbx\n pop rcx\n pop rdx\n hlt",
    "call-ret": "call fn\n hlt\nfn:\n ret",
    "cas": "lock cmpxchg [rbx], rcx\n hlt",
    "xadd": "lock xadd [rbx], rcx\n hlt",
    "xchg": "xchg [rbx], rcx\n hlt",
    "mixed": ("mov rax, [rsi]\n add rax, 1\n mov [rdi], rax\n"
              " mfence\n mov rbx, [rsi + 8]\n hlt"),
}


class _LegacyFrontend(X86Frontend):
    """The pre-refactor emission, replicated literally for the diff."""

    _EXPLICIT = {
        "mfence": (MO_ALL, "MFENCE->Fsc"),
        "lfence": (MO_LD_LD | MO_LD_ST, "LFENCE->Frm"),
        "sfence": (MO_ST_ST, "SFENCE->Fww"),
    }

    def _emit_load(self, block, dst, addr):
        policy = self.config.scheme.name
        if policy == "qemu":
            block.mb(MO_LD_LD, origin="RMOV->Frr;ld")
            block.emit("ld", dst, addr, Const(0))
        elif policy == "risotto":
            block.emit("ld", dst, addr, Const(0))
            block.mb(MO_LD_LD | MO_LD_ST, origin="RMOV->ld;Frm")
        else:
            block.emit("ld", dst, addr, Const(0))

    def _emit_store(self, block, src, addr):
        policy = self.config.scheme.name
        if policy == "qemu":
            block.mb(MO_LD_ST | MO_ST_ST, origin="WMOV->Fmw;st")
        elif policy == "risotto":
            block.mb(MO_ST_ST, origin="WMOV->Fww;st")
        block.emit("st", src, addr, Const(0))

    def _emit_scheme_fence(self, block, slot):
        # Only the explicit x86 fences reach this hook: the load and
        # store paths are fully overridden above.
        assert slot in self._EXPLICIT, slot
        if self.config.scheme.name != "no-fences":
            mask, origin = self._EXPLICIT[slot]
            block.mb(mask, origin=origin)


def _translate(frontend_cls, source, policy, pc=BASE):
    assembly = assemble(source, base=BASE)
    memory = Memory()
    memory.add_image(assembly.base, assembly.code)
    frontend = frontend_cls(FrontendConfig(
        cas_policy=CasPolicy.NATIVE, scheme=policy))
    return frontend.translate_block(memory, pc)


def _block_facts(block):
    """Everything observable about a block, origins included (the Op
    dataclass excludes ``origin`` from equality, so spell it out)."""
    return [(op.name, op.args, op.origin) for op in block.ops]


def _assert_blocks_identical(source, policy, pc=BASE):
    derived = _translate(X86Frontend, source, policy, pc)
    legacy = _translate(_LegacyFrontend, source, policy, pc)
    assert _block_facts(derived) == _block_facts(legacy)
    compiled_new = ArmBackend().compile_block(derived)
    compiled_old = ArmBackend().compile_block(legacy)
    assert compiled_new.asm == compiled_old.asm
    assert compiled_new.fence_origins == compiled_old.fence_origins


class TestSnippetGoldenEquivalence:
    @pytest.mark.parametrize("policy", POLICIES,
                             ids=lambda p: p.name)
    @pytest.mark.parametrize("snippet", sorted(SNIPPETS))
    def test_bit_identical(self, snippet, policy):
        _assert_blocks_identical(SNIPPETS[snippet], policy)


class TestFig12GoldenEquivalence:
    @pytest.mark.parametrize("policy", POLICIES,
                             ids=lambda p: p.name)
    @pytest.mark.parametrize("spec", ALL_SPECS,
                             ids=lambda s: s.name)
    def test_every_labelled_block(self, spec, policy):
        """Translate the block at every label of the kernel program
        (main, worker, loop heads) under both frontends."""
        source = gen_x86_program(spec)
        assembly = assemble(source, base=BASE)
        for label, pc in sorted(assembly.labels.items()):
            _assert_blocks_identical(source, policy, pc=pc)


class TestOriginRegistry:
    """Satellite 1: emitted provenance is always a registered rule."""

    @pytest.mark.parametrize("policy", POLICIES,
                             ids=lambda p: p.name)
    @pytest.mark.parametrize("snippet", sorted(SNIPPETS))
    def test_snippet_origins_are_registered(self, snippet, policy):
        registered = known_origins()
        block = _translate(X86Frontend, SNIPPETS[snippet], policy)
        for op in block.ops:
            if op.origin is not None:
                assert op.origin in registered, op.origin

    def test_scheme_origins_come_from_the_scheme(self):
        """The block's origins are exactly what the active scheme's
        rules can produce — for every registered scheme, not just the
        legacy three."""
        source = SNIPPETS["mixed"]
        for scheme in SCHEMES.values():
            assembly = assemble(source, base=BASE)
            memory = Memory()
            memory.add_image(assembly.base, assembly.code)
            frontend = X86Frontend(FrontendConfig(
                cas_policy=CasPolicy.NATIVE, scheme=scheme))
            block = frontend.translate_block(memory, BASE)
            emitted = {op.origin for op in block.ops
                       if op.origin is not None}
            assert emitted <= scheme.origins(), scheme.name
