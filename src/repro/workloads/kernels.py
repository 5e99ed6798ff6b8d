"""Multithreaded benchmark kernels, generated for both ISAs.

Each PARSEC/Phoenix benchmark is reproduced as a synthetic kernel with
that benchmark's *instruction mix* (loads/stores/ALU/FP per iteration —
the knob that determines fence sensitivity and hence its Figure 12
profile).  One :class:`KernelSpec` drives two code generators:

* :func:`gen_x86_program` — the guest binary the DBT translates,
* :func:`gen_arm_program` — the native build for the "native" bars.

Both versions compute the identical integer⊕FP checksum (same values,
same operation order — FP goes through float64 in every path), so the
test suite can assert translated and native runs agree exactly.

Thread harness: the main function spawns ``threads-1`` workers via the
spawn syscall, runs slice 0 itself, joins, folds the per-slice results,
reports the checksum through write_int and exits.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..isa.floatbits import double_to_bits

#: Guest-visible data layout (shared by both ISAs).
ARRAY_BASE = 0x0100_0000
ARRAY_SLICE = 0x4_0000          # per-thread working-set spacing
RESULT_BASE = 0x0200_0000
TID_BASE = 0x0210_0000


@dataclass(frozen=True)
class KernelSpec:
    """One benchmark's shape."""

    name: str
    loads: int
    stores: int
    alu: int
    fp: int
    iterations: int = 2000
    threads: int = 4
    #: words in each thread's working set (power of two).
    working_set: int = 256
    suite: str = "parsec"

    @property
    def mask(self) -> int:
        return (self.working_set - 1) * 8


_ALU_X86 = ("add r8, {v}", "xor r8, {v}", "sub r8, {v}",
            "or r8, {v}", "shl r8, 1", "shr r8, 1")
_ALU_ARM = ("add x10, x10, {v}", "eor x10, x10, {v}",
            "sub x10, x10, {v}", "orr x10, x10, {v}",
            "lsl x10, x10, #1", "lsr x10, x10, #1")

_FP_X86 = ("fmul r12, r13", "fadd r12, r14")
_FP_ARM = ("fmul x14, x14, x15", "fadd x14, x14, x16")


def _loop_body_x86(spec: KernelSpec) -> list[str]:
    lines = []
    for i in range(spec.loads):
        lines.append(f"    mov r1{0 if i % 2 == 0 else 1}, "
                     f"[rsi + rdx + {8 * i}]")
    # Only registers the loop actually loads may feed the ALU mix:
    # with a single load, r11/x12 would diverge between the ISAs (x12
    # is clobbered by the Arm spawn harness, r11 stays 0).
    if spec.loads >= 2:
        value_regs = ["r10", "r11"]
    elif spec.loads == 1:
        value_regs = ["r10", "r10"]
    else:
        value_regs = ["rcx", "rcx"]
    for i in range(spec.alu):
        template = _ALU_X86[i % len(_ALU_X86)]
        lines.append("    " + template.format(v=value_regs[i % 2]))
    for i in range(spec.fp):
        lines.append("    " + _FP_X86[i % len(_FP_X86)])
    for i in range(spec.stores):
        lines.append(f"    mov [rsi + rdx + {8 * i}], r8")
    lines += [
        "    add rdx, 8",
        f"    and rdx, {spec.mask}",
    ]
    return lines


def _loop_body_arm(spec: KernelSpec) -> list[str]:
    lines = []
    for i in range(spec.loads):
        reg = "x11" if i % 2 == 0 else "x12"
        lines.append(f"    ldr {reg}, [x9, #{8 * i}]")
    if spec.loads >= 2:
        value_regs = ["x11", "x12"]
    elif spec.loads == 1:
        value_regs = ["x11", "x11"]
    else:
        value_regs = ["x2", "x2"]
    for i in range(spec.alu):
        template = _ALU_ARM[i % len(_ALU_ARM)]
        lines.append("    " + template.format(v=value_regs[i % 2]))
    for i in range(spec.fp):
        lines.append("    " + _FP_ARM[i % len(_FP_ARM)])
    for i in range(spec.stores):
        lines.append(f"    str x10, [x9, #{8 * i}]")
    lines += [
        "    add x3, x3, #8",
        f"    mov x4, #{spec.mask}",
        "    and x3, x3, x4",
        "    mov x9, x8",
        "    add x9, x9, x3",
    ]
    return lines


# ----------------------------------------------------------------------
# x86 guest program
# ----------------------------------------------------------------------
def gen_x86_program(spec: KernelSpec) -> str:
    """Guest program: main + worker, using the custom syscall ABI
    (rax = number, rdi/rsi = args; see repro.dbt.runtime)."""
    spawn_lines = []
    for tid in range(1, spec.threads):
        spawn_lines += [
            "    mov rax, 1000            ; spawn",
            "    mov rdi, worker",
            f"    mov rsi, {tid}",
            "    syscall",
            f"    mov rbx, {TID_BASE + 8 * tid}",
            "    mov [rbx], rax            ; remember tid",
        ]
    join_lines = []
    for tid in range(1, spec.threads):
        join_lines += [
            f"    mov rbx, {TID_BASE + 8 * tid}",
            "    mov rdi, [rbx]",
            "    mov rax, 1001            ; join",
            "    syscall",
        ]
    fold_lines = ["    mov r8, 0"]
    for tid in range(spec.threads):
        fold_lines += [
            f"    mov rbx, {RESULT_BASE + 8 * tid}",
            "    mov rcx, [rbx]",
            "    add r8, rcx",
        ]
    body = "\n".join(_loop_body_x86(spec))
    return f"""
; {spec.name} — synthetic {spec.suite} kernel
; mix: {spec.loads} ld / {spec.stores} st / {spec.alu} alu / {spec.fp} fp
main:
{chr(10).join(spawn_lines)}
    mov rdi, 0
    call worker
{chr(10).join(join_lines)}
{chr(10).join(fold_lines)}
    mov rdi, r8
    mov rax, 1                 ; write_int(checksum)
    syscall
    mov rdi, 0
    mov rax, 60                ; exit
    syscall

worker:
    ; rdi = slice id
    mov r9, rdi
    mov rsi, {ARRAY_BASE}
    mov rbx, r9
    shl rbx, {ARRAY_SLICE.bit_length() - 1}
    add rsi, rbx               ; slice base
    mov rdx, 0                 ; offset cursor
    mov r8, r9                 ; integer accumulator (seeded by slice)
    add r8, 99991
    mov r12, {double_to_bits(1.0001)}   ; fp accumulator
    mov r13, {double_to_bits(1.000001)}
    mov r14, {double_to_bits(0.000001)}
    mov rcx, {spec.iterations}
wloop:
{body}
    dec rcx
    jne wloop
    xor r8, r12                ; fold fp bits into the checksum
    mov rbx, {RESULT_BASE}
    mov rcx, r9
    shl rcx, 3
    add rbx, rcx
    mov [rbx], r8
    ret
"""


# ----------------------------------------------------------------------
# Arm native program
# ----------------------------------------------------------------------
def gen_arm_program(spec: KernelSpec) -> str:
    """Native build.  Syscall ABI registers mirror the guest map:
    number in x8, args in x13 (rdi) / x12 (rsi)."""
    spawn_lines = []
    for tid in range(1, spec.threads):
        spawn_lines += [
            "    mov x8, #1000",
            "    mov x13, worker",
            f"    mov x12, #{tid}",
            "    svc #0",
            f"    mov x5, #{TID_BASE + 8 * tid}",
            "    str x8, [x5]",
        ]
    join_lines = []
    for tid in range(1, spec.threads):
        join_lines += [
            f"    mov x5, #{TID_BASE + 8 * tid}",
            "    ldr x13, [x5]",
            "    mov x8, #1001",
            "    svc #0",
        ]
    fold_lines = ["    mov x10, #0"]
    for tid in range(spec.threads):
        fold_lines += [
            f"    mov x5, #{RESULT_BASE + 8 * tid}",
            "    ldr x6, [x5]",
            "    add x10, x10, x6",
        ]
    body = "\n".join(_loop_body_arm(spec))
    return f"""
// {spec.name} — native build
main:
    mov x20, x30               // preserve the exit continuation
{chr(10).join(spawn_lines)}
    mov x13, #0
    bl worker
{chr(10).join(join_lines)}
{chr(10).join(fold_lines)}
    mov x13, x10
    mov x8, #1                 // write_int(checksum)
    svc #0
    mov x13, #0
    mov x8, #60                // exit
    svc #0
    mov x30, x20
    ret

worker:
    // x13 = slice id
    mov x7, x13
    mov x8, #{ARRAY_BASE}
    lsl x5, x7, #{ARRAY_SLICE.bit_length() - 1}
    add x8, x8, x5             // slice base
    mov x3, #0                 // offset cursor
    mov x9, x8
    mov x10, x7                // integer accumulator
    mov x5, #99991
    add x10, x10, x5
    mov x14, #{double_to_bits(1.0001)}  // fp accumulator
    mov x15, #{double_to_bits(1.000001)}
    mov x16, #{double_to_bits(0.000001)}
    mov x2, #{spec.iterations}
wloop:
{body}
    sub x2, x2, #1
    cbnz x2, wloop
    eor x10, x10, x14
    mov x5, #{RESULT_BASE}
    lsl x6, x7, #3
    add x5, x5, x6
    str x10, [x5]
    ret
"""
