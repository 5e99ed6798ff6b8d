"""The CAS microbenchmark of Section 7.4 / Figure 15.

``threads`` workers each execute a fixed number of CAS attempts against
``variables`` shared counters (thread *t* targets variable
``t mod variables``).  ``threads == variables`` means no contention —
the regime where Risotto's direct ``casal`` beats QEMU's helper call by
skipping the extra jumps; under contention the cache-line transfer
dominates and the two converge (the paper's observation).
"""

from __future__ import annotations

from dataclasses import dataclass

from .kernels import TID_BASE

#: Each CAS variable sits on its own cache line.
CAS_VAR_BASE = 0x0500_0000
CAS_VAR_STRIDE = 64


@dataclass(frozen=True)
class CasConfig:
    """One (#threads - #vars) configuration from Figure 15."""

    threads: int
    variables: int
    attempts: int = 600

    @property
    def label(self) -> str:
        return f"{self.threads}-{self.variables}"

    @property
    def total_ops(self) -> int:
        return self.threads * self.attempts


#: Figure 15's x-axis.
FIGURE15_CONFIGS: tuple[CasConfig, ...] = tuple(
    CasConfig(threads, variables)
    for threads, variables in (
        (1, 1), (4, 1), (4, 2), (4, 4),
        (8, 1), (8, 4), (8, 8),
        (16, 1), (16, 8), (16, 16),
    )
)


def x86_cas_program(config: CasConfig) -> str:
    spawn = []
    for tid in range(1, config.threads):
        spawn += [
            "    mov rax, 1000",
            "    mov rdi, worker",
            f"    mov rsi, {tid}",
            "    syscall",
            f"    mov rbx, {TID_BASE + 8 * tid}",
            "    mov [rbx], rax",
        ]
    join = []
    for tid in range(1, config.threads):
        join += [
            f"    mov rbx, {TID_BASE + 8 * tid}",
            "    mov rdi, [rbx]",
            "    mov rax, 1001",
            "    syscall",
        ]
    return f"""
main:
{chr(10).join(spawn)}
    mov rdi, 0
    call worker
{chr(10).join(join)}
    mov rdi, 0
    mov rax, 1
    syscall
    mov rdi, 0
    mov rax, 60
    syscall

worker:
    ; rdi = thread id; target var = tid % variables
    mov rax, rdi
    mov rcx, {config.variables}
    div rcx                     ; rdx = tid % variables
    mov rbx, rdx
    shl rbx, {CAS_VAR_STRIDE.bit_length() - 1}
    add rbx, {CAS_VAR_BASE}     ; variable address
    mov rcx, {config.attempts}
casloop:
    mov rax, [rbx]
    mov rsi, rax
    inc rsi
    lock cmpxchg [rbx], rsi     ; attempt increment
    dec rcx
    jne casloop
    ret
"""


def arm_cas_program(config: CasConfig) -> str:
    spawn = []
    for tid in range(1, config.threads):
        spawn += [
            "    mov x8, #1000",
            "    mov x13, worker",
            f"    mov x12, #{tid}",
            "    svc #0",
            f"    mov x5, #{TID_BASE + 8 * tid}",
            "    str x8, [x5]",
        ]
    join = []
    for tid in range(1, config.threads):
        join += [
            f"    mov x5, #{TID_BASE + 8 * tid}",
            "    ldr x13, [x5]",
            "    mov x8, #1001",
            "    svc #0",
        ]
    return f"""
main:
{chr(10).join(spawn)}
    mov x13, #0
    bl worker
{chr(10).join(join)}
    mov x13, #0
    mov x8, #1
    svc #0
    mov x13, #0
    mov x8, #60
    svc #0

worker:
    // x13 = thread id
    mov x0, x13
    mov x1, #{config.variables}
    udiv x2, x0, x1
    mul x2, x2, x1
    sub x2, x0, x2              // tid % variables
    lsl x2, x2, #{CAS_VAR_STRIDE.bit_length() - 1}
    mov x3, #{CAS_VAR_BASE}
    add x3, x3, x2
    mov x4, #{config.attempts}
casloop:
    ldr x5, [x3]
    add x6, x5, #1
    casal x5, x6, [x3]
    sub x4, x4, #1
    cbnz x4, casloop
    ret
"""


def throughput_from_cycles(config: CasConfig, elapsed_cycles: int,
                           cycles_per_second: float = 2.0e9) -> float:
    """CAS attempts per second at the paper's 2.0 GHz clock."""
    return config.total_ops * cycles_per_second / max(1, elapsed_cycles)
