"""Workload execution harness: the one machine-run executor.

Runs a workload under any DBT variant (``qemu``, ``no-fences``,
``tcg-ver``, ``risotto``, ``most-*``) or natively, on a freshly
constructed machine, and returns the
:class:`~repro.dbt.engine.RunResult` plus the workload's reported
checksum — the raw material every figure harness consumes.

:func:`run_workload` is the only code that runs a machine job: it
builds the engine, lets the job's kind (:data:`MACHINE_KINDS`) load
the program, and runs it.  The sweep harness and the job API both
hand it a :class:`~repro.workloads.jobspec.JobSpec`, and both get the
same run and the same typed errors.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from ..dbt import DBTEngine, NATIVE, NativeRunner, RunResult, \
    resolve_variant
from ..dbt.config import Tier2Config
from ..dbt.runtime import _ARM_REG_OF_GUEST, guest_reg
from ..dbt.xlat_cache import get_cache
from ..errors import JobError, ReproError
from ..isa.arm.assembler import assemble as assemble_arm
from ..loader.gelf import build_binary
from ..loader.hostlibs import ARG_REGISTERS
from ..loader.linker import HostLinker
from ..machine.timing import CostModel
from ..machine.weakmem import BufferMode
from .casbench import arm_cas_program, x86_cas_program
from .kernels import gen_arm_program, gen_x86_program
from .libs import build_libcrypto, build_libm, build_libsqlite, \
    standard_libraries


@dataclass
class WorkloadResult:
    variant: str
    result: RunResult
    checksum: int | None
    #: wall-clock seconds of engine construction + execution (the
    #: observability layer's per-run timing).
    wall_seconds: float = 0.0

    @property
    def cycles(self) -> int:
        return self.result.elapsed_cycles


def _make_engine(variant: str, n_cores: int, seed: int,
                 costs: CostModel | None,
                 buffer_mode: BufferMode = BufferMode.WEAK,
                 tier2_threshold: int = 0, namespace: str = ""):
    """The engine for ``variant``; a positive ``tier2_threshold``
    promotes hot blocks to superblock traces at that dispatch count,
    ``0`` keeps tier-2 off (native runs ignore it).  A DBT engine
    translates through the cache of ``namespace`` under the
    ``REPRO_XLAT_CACHE`` root, the ambient ``REPRO_XLAT_CACHE_NS`` when
    it is "" — the one place an engine's cache is chosen."""
    config = resolve_variant(variant)
    if config is None:
        engine = NativeRunner(n_cores=n_cores, seed=seed, costs=costs,
                              buffer_mode=buffer_mode)
    else:
        engine = DBTEngine(config, n_cores=n_cores, seed=seed,
                           costs=costs, buffer_mode=buffer_mode,
                           xlat_cache=get_cache(namespace),
                           tier2=Tier2Config(threshold=tier2_threshold)
                           if tier2_threshold > 0 else None)
    # Parity guard for grid sweeps: every variant of a benchmark,
    # native included, must run under the memory setup the spec asked
    # for — a silently defaulted buffer mode is the bug this catches.
    assert engine.machine.buffer_mode is buffer_mode, (
        f"{variant}: machine built with {engine.machine.buffer_mode}, "
        f"spec asked for {buffer_mode}")
    return engine


def _load_x86(engine, source: str, guest_libs=None):
    """Build the guest binary and map it into the machine."""
    binary = build_binary(source, guest_libs=guest_libs)
    binary.load_into(engine.machine.memory)
    return binary


def _load_arm(engine, source: str, base: int) -> int:
    """Assemble the Arm-native build at ``base``; its entry pc."""
    assembly = assemble_arm(source, base=base)
    engine.load_image(assembly.base, assembly.code)
    return assembly.labels["main"]


# ----------------------------------------------------------------------
# Library-calling workloads (Figures 13 and 14)
# ----------------------------------------------------------------------
def _library_guest_program(function: str, arg_exprs: tuple[int, ...],
                           calls: int) -> str:
    """Guest main: call `function@plt` ``calls`` times, accumulate the
    results, report the final value."""
    set_args = "\n".join(
        f"    mov {reg}, {value}"
        for reg, value in zip(ARG_REGISTERS, arg_exprs)
    )
    return f"""
main:
    mov r15, {calls}
    mov r14, 0
bench_loop:
{set_args}
    call {function}
    xor r14, rax
    dec r15
    jne bench_loop
    mov rdi, r14
    mov rax, 1
    syscall
    mov rdi, 0
    mov rax, 60
    syscall
"""


def _library_native_program(args: tuple[int, ...], calls: int,
                            trap: int) -> str:
    """Arm caller loop invoking the host function directly through
    ``trap`` — no marshaling, the Figure 13/14 reference.  Arguments
    go in the registers the guest map assigns to rdi/rsi/rdx/rcx, so
    one trap convention serves both worlds."""
    set_args = "\n".join(
        f"    mov {_ARM_REG_OF_GUEST[reg]}, #{value}"
        for reg, value in zip(ARG_REGISTERS, args)
    )
    return f"""
main:
    mov x21, #{calls}
    mov x22, #0
nloop:
{set_args}
    movz x6, #{trap}
    blr x6
    eor x22, x22, x8
    sub x21, x21, #1
    cbnz x21, nloop
    mov x13, x22
    mov x8, #1
    svc #0
    mov x13, #0
    mov x8, #60
    svc #0
"""


def _native_call_trap(runtime, function):
    n_args = len(function.signature.params)

    def trap(core):
        args = tuple(
            guest_reg(core, ARG_REGISTERS[i]) for i in range(n_args))
        value = function.invoke(runtime.machine.memory, args)
        core.cycles += function.cost(args) + core.costs.native_call
        core.set("x8", value)  # result in the rax slot
        core.pc = core.get("x30")

    return trap


def _host_link(library, binary, runtime, function: str) -> None:
    """Point ``function@plt`` at the host library (the dynamic host
    linker of ``risotto`` and the ``most-*`` variants)."""
    report = HostLinker(library, library.idl_source()).link(binary,
                                                            runtime)
    if function not in report.linked:
        raise ReproError(f"{function} did not link: {report}")


#: Name -> zero-argument library factory, rebuilt inside each worker.
LIBRARY_BUILDERS = {
    "libm": build_libm,
    "libcrypto": build_libcrypto,
    "libsqlite": build_libsqlite,
    "standard": standard_libraries,
}

#: Guest buffer the digest workloads hash (Figure 13's input data).
DATA_BUF = 0x0220_0000


def _fill_digest_buffer(memory) -> None:
    for i in range(8192 // 8):
        memory.store_word(DATA_BUF + 8 * i, (i * 2654435761) & 0xFFFF)


#: Name -> memory-setup callable, applied before the run in the worker.
MEMORY_SETUPS = {
    "digest-buffer": _fill_digest_buffer,
}


def _registered(registry: dict, name, what: str):
    try:
        return registry[name]
    except KeyError:
        raise JobError(f"unknown {what} {name!r}; expected one of "
                       f"{sorted(registry)}") from None


# ----------------------------------------------------------------------
# The machine kinds: what each loads, on how many cores
# ----------------------------------------------------------------------
class KernelRun:
    """A PARSEC/Phoenix kernel (Figure 12), one core per thread."""

    @staticmethod
    def cores(desc) -> int:
        return desc.kernel.threads

    @staticmethod
    def load(desc, engine, library) -> int:
        if desc.variant == NATIVE:
            return _load_arm(engine, gen_arm_program(desc.kernel),
                             0x1000_0000)
        return _load_x86(engine, gen_x86_program(desc.kernel)).entry


class LibraryRun:
    """``calls`` calls of one shared-library function (Figures 13, 14).

    DBT variants import the function through the PLT and translate
    its guest body, unless the variant links the host library;
    ``native`` calls the host function directly through a trap.
    """

    @staticmethod
    def cores(desc) -> int:
        return 1

    @staticmethod
    def load(desc, engine, library) -> int:
        if library is None:
            library = _registered(LIBRARY_BUILDERS, desc.library,
                                  "library")()
        function = library[desc.function]
        if desc.setup is not None:
            _registered(MEMORY_SETUPS, desc.setup, "memory setup")(
                engine.machine.memory)
        if desc.variant == NATIVE:
            trap = engine.runtime.alloc_trap(
                _native_call_trap(engine.runtime, function))
            return _load_arm(engine, _library_native_program(
                desc.args, desc.calls, trap), 0x0F00_0000)
        binary = _load_x86(
            engine,
            _library_guest_program(desc.function, desc.args, desc.calls),
            guest_libs={desc.function: function.guest_asm})
        if engine.config.use_host_linker:
            _host_link(library, binary, engine.runtime, desc.function)
        return binary.entry


class CasRun:
    """One Figure 15 CAS configuration, one core per thread."""

    @staticmethod
    def cores(desc) -> int:
        return desc.cas.threads

    @staticmethod
    def load(desc, engine, library) -> int:
        if desc.variant == NATIVE:
            return _load_arm(engine, arm_cas_program(desc.cas),
                             0x0F00_0000)
        return _load_x86(engine, x86_cas_program(desc.cas)).entry


#: The machine kinds, kind -> its core count and program loader: the
#: one statement of which kinds exist.  ``JobSpec.validate`` accepts
#: exactly these keys and :func:`run_workload` dispatches on them.
MACHINE_KINDS = {
    "kernel": KernelRun,
    "library": LibraryRun,
    "cas": CasRun,
}


def run_workload(desc, *, library=None) -> WorkloadResult:
    """Execute one validated machine-kind ``JobSpec``.

    The payload checks are ``JobSpec.validate``'s, which every caller
    runs first.  Callables never travel in a description: libraries and
    memory setups are registry names, rebuilt in the executing process;
    a name no registry knows is a :class:`~repro.errors.JobError`
    (``bad-request``) on every path.  ``library`` overrides the
    registry lookup with an already-built
    :class:`~repro.loader.hostlibs.HostLibrary`.
    """
    started = time.perf_counter()
    kind = MACHINE_KINDS[desc.kind]
    engine = _make_engine(desc.variant, kind.cores(desc), desc.seed,
                          desc.costs, desc.buffer_mode,
                          desc.tier2_threshold, desc.namespace)
    entry = kind.load(desc, engine, library)
    result = engine.run(entry, max_steps=desc.max_steps)
    return WorkloadResult(
        variant=desc.variant, result=result,
        checksum=result.output[0] if result.output else None,
        wall_seconds=time.perf_counter() - started)
