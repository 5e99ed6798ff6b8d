"""Cross-package integration tests.

The deepest one runs a *real translated* MP litmus stress through the
whole system — guest x86 binary → DBT → Arm code → store-buffer
machine — and checks that the no-fences variant exhibits the weak
outcome while Risotto's verified mapping never does.  This connects the
axiomatic verdicts of repro.core to actual executed code.
"""

import pytest

from repro.dbt import DBTEngine, VARIANTS
from repro.isa.x86 import assemble
from repro.tcg.backend_arm import lower_barrier
from repro.tcg.ir import fence_to_mask, mask_to_fence
from repro.core.events import Fence
from repro.core.mappings import lower_tcg_fence
from repro.core.program import FenceOp

X_BASE = 0x10_0000
Y_BASE = 0x12_0000
RES_BASE = 0x14_0000
BAR_BASE = 0x16_0000
ITERS = 64
STRIDE = 64


def _mp_guest(iterations: int) -> str:
    """Looping MP with a per-iteration sense barrier and phase sweep,
    mirroring repro.machine.litmus at the guest-x86 level."""
    return f"""
main:
    mov rax, 1000
    mov rdi, reader
    mov rsi, 0
    syscall
    mov r15, rax
    mov rdi, 1
    call writer
    mov rdi, r15
    mov rax, 1001
    syscall
    mov rdi, 0
    mov rax, 60
    syscall

writer:
    mov r9, 0                  ; iteration
w_loop:
    mov r10, r9
    imul r10, {STRIDE}
    ; barrier
    mov rbx, {BAR_BASE}
    add rbx, r10
    mov rcx, 1
    lock xadd [rbx], rcx
w_wait:
    mov rcx, [rbx]
    cmp rcx, 2
    jb w_wait
    ; phase sweep
    mov rcx, r9
    and rcx, 7
w_phase:
    cmp rcx, 0
    je w_go
    dec rcx
    jmp w_phase
w_go:
    ; precompute both addresses so the stores sit back to back in the
    ; translated code (widens the reordering window)
    mov rbx, {X_BASE}
    add rbx, r10
    mov rbp, {Y_BASE}
    add rbp, r10
    mov rcx, 1
    mov [rbx], rcx             ; X = 1
    mov [rbp], rcx             ; Y = 1
    inc r9
    cmp r9, {iterations}
    jne w_loop
    ret

reader:
    mov r9, 0
r_loop:
    mov r10, r9
    imul r10, {STRIDE}
    mov rbx, {BAR_BASE}
    add rbx, r10
    mov rcx, 1
    lock xadd [rbx], rcx
r_wait:
    mov rcx, [rbx]
    cmp rcx, 2
    jb r_wait
    mov rcx, r9
    imul rcx, 5
    and rcx, 31
r_phase:
    cmp rcx, 0
    je r_go
    dec rcx
    jmp r_phase
r_go:
    mov rbp, {Y_BASE}
    add rbp, r10
    mov rbx, {X_BASE}
    add rbx, r10
    mov r11, [rbp]             ; a = Y
    mov r12, [rbx]             ; b = X
    mov rbx, {RES_BASE}
    add rbx, r10
    shl r11, 1
    or r11, r12
    mov [rbx], r11             ; record (a<<1)|b
    inc r9
    cmp r9, {iterations}
    jne r_loop
    ret
"""


def _run_mp(variant: str, seeds: range) -> set[int]:
    outcomes: set[int] = set()
    assembly = assemble(_mp_guest(ITERS), base=0x400000)
    for seed in seeds:
        engine = DBTEngine(VARIANTS[variant], n_cores=2, seed=seed)
        engine.load_image(assembly.base, assembly.code)
        engine.run(assembly.label("main"))
        for i in range(ITERS):
            outcomes.add(engine.machine.memory.load_word(
                RES_BASE + i * STRIDE))
    return outcomes


#: (a<<1)|b encodings: a=1,b=0 -> 2 is the weak MP outcome.
WEAK = 2


class TestTranslatedLitmus:
    def test_nofences_translation_exhibits_weak_mp(self):
        # Statistical: ~2-4 weak observations per 1000 iterations; 30
        # seeds x 64 iterations makes a miss vanishingly unlikely.
        outcomes = _run_mp("no-fences", range(30))
        assert WEAK in outcomes, (
            "the incorrect translation should reorder the writer's "
            f"stores at least once; saw {outcomes}")

    @pytest.mark.parametrize("variant", ["qemu", "tcg-ver", "risotto"])
    def test_fenced_translations_never_weak(self, variant):
        outcomes = _run_mp(variant, range(8))
        assert WEAK not in outcomes
        assert outcomes <= {0, 1, 3}


class TestMappingConsistency:
    """The system-level fence lowering must match the verified
    op-level mapping tables (Figure 7b)."""

    @pytest.mark.parametrize("fence,expected", [
        (Fence.FRR, "dmbld"),
        (Fence.FRW, "dmbld"),
        (Fence.FRM, "dmbld"),
        (Fence.FWW, "dmbst"),
        (Fence.FWR, "dmbff"),
        (Fence.FMM, "dmbff"),
        (Fence.FSC, "dmbff"),
        (Fence.FMW, "dmbff"),
    ])
    def test_backend_matches_verified_lowering(self, fence, expected):
        # backend (mask-based) lowering
        assert lower_barrier(fence_to_mask(fence)) == expected
        # op-level verified lowering
        (op,) = lower_tcg_fence(fence)
        assert isinstance(op, FenceOp)
        assert op.kind.value.lower() == expected

    #: Figure 7b per ``mb`` mask, written out: any store->load bit (0x4)
    #: needs dmb ff, load-only masks take dmb ld, the store->store mask
    #: dmb st, and every other mix dmb ff.
    MASK_LOWERING = (None, "dmbld", "dmbld", "dmbld",
                     "dmbff", "dmbff", "dmbff", "dmbff",
                     "dmbst", "dmbff", "dmbff", "dmbff",
                     "dmbff", "dmbff", "dmbff", "dmbff")

    @pytest.mark.parametrize("mask", range(16))
    def test_every_mask_matches_verified_lowering(self, mask):
        assert lower_barrier(mask) == self.MASK_LOWERING[mask]
        if mask:
            # The op-level lowering of the weakest fence covering it.
            (op,) = lower_tcg_fence(mask_to_fence(mask))
            assert op.kind.value.lower() == self.MASK_LOWERING[mask]

    def test_frontend_policies_match_mapping_module(self):
        """The frontend's per-access fences are the Figure 7a/2 rows,
        and the mapping module's for the same scheme."""
        from repro.core import mappings as M
        from repro.core.litmus_library import R, W
        from repro.core.most import QEMU_SCHEME, RISOTTO_SCHEME
        from repro.isa.x86.assembler import assemble as asm
        from repro.machine.memory import Memory
        from repro.tcg.frontend_x86 import FrontendConfig, X86Frontend
        from repro.tcg.ir import MO_LD_LD, MO_LD_ST, MO_ST_ST

        def masks(scheme, source):
            assembly = asm(source, base=0x1000)
            memory = Memory()
            memory.add_image(0x1000, assembly.code)
            frontend = X86Frontend(FrontendConfig(scheme=scheme))
            block = frontend.translate_block(memory, 0x1000)
            return [op.args[0].value for op in block.ops
                    if op.name == "mb"]

        def mapped(mapping, op):
            return [fence_to_mask(o.kind) for o in mapping.map_op(op)
                    if isinstance(o, FenceOp)]

        load, store = "mov rax, [rbx]\n hlt", "mov [rbx], rax\n hlt"
        # Figure 7a: ld; Frm / Fww; st
        assert masks(RISOTTO_SCHEME, load) == [MO_LD_LD | MO_LD_ST] \
            == mapped(M.risotto_x86_to_tcg, R("a", "X"))
        assert masks(RISOTTO_SCHEME, store) == [MO_ST_ST] \
            == mapped(M.risotto_x86_to_tcg, W("X", 1))
        # Figure 2: Frr; ld / Fmw; st
        assert masks(QEMU_SCHEME, load) == [MO_LD_LD] \
            == mapped(M.qemu_x86_to_tcg, R("a", "X"))
        assert masks(QEMU_SCHEME, store) == [MO_LD_ST | MO_ST_ST] \
            == mapped(M.qemu_x86_to_tcg, W("X", 1))


class TestGelfThroughEngine:
    def test_serialized_binary_runs(self):
        """GELF bytes -> parse -> load -> translate -> run."""
        from repro.loader import GuestBinary, build_binary

        binary = build_binary("""
main:
    mov rdi, 123
    mov rax, 1
    syscall
    mov rdi, 0
    mov rax, 60
    syscall
""")
        reparsed = GuestBinary.from_bytes(binary.to_bytes())
        engine = DBTEngine(VARIANTS["risotto"], n_cores=1)
        reparsed.load_into(engine.machine.memory)
        result = engine.run(reparsed.entry)
        assert result.output == [123]
