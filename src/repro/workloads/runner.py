"""Workload execution harness: one entry point per benchmark family.

Runs a workload under any DBT variant (``qemu``, ``no-fences``,
``tcg-ver``, ``risotto``) or natively, on a freshly constructed
machine, and returns the :class:`~repro.dbt.engine.RunResult` plus the
workload's reported checksum/count — the raw material every figure
harness consumes.

:func:`run_workload` is the one dispatcher over the three machine
kinds (:data:`MACHINE_KINDS`): the sweep harness and the job API both
hand it a :class:`~repro.workloads.jobspec.JobSpec`, and both get the
same run and the same typed errors.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from ..dbt import DBTEngine, NATIVE, NativeRunner, RunResult, \
    VARIANT_NAMES, VARIANTS, resolve_variant
from ..dbt.config import Tier2Config
from ..errors import JobError, ReproError
from ..isa.arm.assembler import assemble as assemble_arm
from ..loader.gelf import GuestBinary, build_binary
from ..loader.hostlibs import ARG_REGISTERS, HostLibrary
from ..loader.linker import HostLinker
from ..machine.timing import CostModel
from ..machine.weakmem import BufferMode
from .kernels import KernelSpec, gen_arm_program, gen_x86_program
from .libs import build_libcrypto, build_libm, build_libsqlite, \
    standard_libraries

# Compatibility alias for the registry now owned by repro.dbt.config.
ALL_VARIANTS: tuple[str, ...] = VARIANT_NAMES


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


def _resolve_tier2(tier2_threshold: int | None):
    """Map the harness knob onto the engine's ``tier2`` argument.

    ``None`` defers to the ``REPRO_TIER2_THRESHOLD`` environment (the
    engine's own default), ``0`` forces tier-2 off, and a positive
    count becomes a :class:`~repro.dbt.config.Tier2Config` promoting
    at that dispatch count.
    """
    if tier2_threshold is None:
        return {}
    if tier2_threshold <= 0:
        return {"tier2": None}
    return {"tier2": Tier2Config(threshold=tier2_threshold)}


def _make_engine(variant: str, n_cores: int, seed: int,
                 costs: CostModel | None,
                 buffer_mode: BufferMode = BufferMode.WEAK,
                 tier2_threshold: int | None = None):
    config = resolve_variant(variant)
    if config is None:
        engine = NativeRunner(n_cores=n_cores, seed=seed, costs=costs,
                              buffer_mode=buffer_mode)
    else:
        engine = DBTEngine(config, n_cores=n_cores, seed=seed,
                           costs=costs, buffer_mode=buffer_mode,
                           **_resolve_tier2(tier2_threshold))
    # Parity guard for grid sweeps: every variant of a benchmark,
    # native included, must run under the memory setup the spec asked
    # for — a silently defaulted buffer mode is the bug this catches.
    assert engine.machine.buffer_mode is buffer_mode, (
        f"{variant}: machine built with {engine.machine.buffer_mode}, "
        f"spec asked for {buffer_mode}")
    return engine


# ----------------------------------------------------------------------
# Kernel workloads (Figure 12)
# ----------------------------------------------------------------------
def run_kernel(spec: KernelSpec, variant: str,
               seed: int = 7, costs: CostModel | None = None,
               max_steps: int = 80_000_000,
               buffer_mode: BufferMode = BufferMode.WEAK,
               tier2_threshold: int | None = None,
               ) -> WorkloadResult:
    """Run one PARSEC/Phoenix kernel under a variant (or natively)."""
    started = time.perf_counter()
    n_cores = spec.threads
    engine = _make_engine(variant, n_cores, seed, costs, buffer_mode,
                          tier2_threshold)
    if variant == NATIVE:
        assembly = assemble_arm(gen_arm_program(spec), base=0x0100_0000
                                + 0x0F00_0000)
        engine.load_image(assembly.base, assembly.code)
        entry = assembly.labels["main"]
    else:
        binary = build_binary(gen_x86_program(spec))
        binary.load_into(engine.machine.memory)
        entry = binary.entry
    result = engine.run(entry, max_steps=max_steps)
    checksum = result.output[0] if result.output else None
    return WorkloadResult(variant=variant, result=result,
                          checksum=checksum,
                          wall_seconds=time.perf_counter() - started)


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


def run_library_workload(function_name: str, args: tuple[int, ...],
                         calls: int, variant: str,
                         library: HostLibrary,
                         setup_memory=None,
                         seed: int = 7,
                         costs: CostModel | None = None,
                         max_steps: int = 80_000_000,
                         buffer_mode: BufferMode = BufferMode.WEAK,
                         tier2_threshold: int | None = None,
                         ) -> WorkloadResult:
    """Benchmark a shared-library function under a variant.

    * DBT variants build a guest binary importing the function; the
      ``risotto`` variant additionally links the PLT entry to the host
      library (tcg-ver/qemu translate the guest library body).
    * ``native`` runs an Arm caller loop invoking the host function
      directly — no marshaling, the Figure 13/14 reference.
    """
    started = time.perf_counter()
    function = library[function_name]
    engine = _make_engine(variant, 1, seed, costs, buffer_mode,
                          tier2_threshold)
    memory = engine.machine.memory
    if setup_memory is not None:
        setup_memory(memory)

    if variant == NATIVE:
        trap = engine.runtime.alloc_trap(
            _native_call_trap(engine.runtime, function))
        set_args = "\n".join(
            f"    mov {_native_arg_reg(i)}, #{value}"
            for i, value in enumerate(args)
        )
        source = f"""
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
        assembly = assemble_arm(source, base=0x0F00_0000)
        engine.load_image(assembly.base, assembly.code)
        entry = assembly.labels["main"]
    else:
        binary = build_binary(
            _library_guest_program(function_name, args, calls),
            guest_libs={function_name: function.guest_asm},
        )
        binary.load_into(memory)
        if VARIANTS[variant].use_host_linker:
            linker = HostLinker(library, library.idl_source())
            report = linker.link(binary, engine.runtime)
            if function_name not in report.linked:
                raise ReproError(
                    f"{function_name} did not link: {report}")
        entry = binary.entry
    result = engine.run(entry, max_steps=max_steps)
    checksum = result.output[0] if result.output else None
    return WorkloadResult(variant=variant, result=result,
                          checksum=checksum,
                          wall_seconds=time.perf_counter() - started)


def _native_arg_reg(index: int) -> str:
    """Native calls use the same registers the guest map assigns to
    rdi/rsi/rdx/rcx, so one trap convention serves both worlds."""
    from ..dbt.runtime import _ARM_REG_OF_GUEST

    return _ARM_REG_OF_GUEST[ARG_REGISTERS[index]]


def _native_call_trap(runtime, function):
    from ..dbt.runtime import guest_reg

    n_args = len(function.signature.params)

    def trap(core):
        args = tuple(
            guest_reg(core, ARG_REGISTERS[i]) for i in range(n_args))
        value = function.invoke(runtime.machine.memory, args)
        core.cycles += function.cost(args) + core.costs.native_call
        core.set("x8", value)  # result in the rax slot
        core.pc = core.get("x30")

    return trap


# ----------------------------------------------------------------------
# The machine-kind executor (sweeps and jobs)
# ----------------------------------------------------------------------
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


def _run_kernel_job(desc, library) -> WorkloadResult:
    return run_kernel(desc.kernel, desc.variant, seed=desc.seed,
                      costs=desc.costs, max_steps=desc.max_steps,
                      buffer_mode=desc.buffer_mode,
                      tier2_threshold=desc.tier2_threshold)


def _run_library_job(desc, library) -> WorkloadResult:
    if library is None:
        library = _registered(LIBRARY_BUILDERS, desc.library, "library")()
    setup = None if desc.setup is None else _registered(
        MEMORY_SETUPS, desc.setup, "memory setup")
    return run_library_workload(
        desc.function, desc.args, desc.calls, desc.variant, library,
        setup_memory=setup, seed=desc.seed, costs=desc.costs,
        max_steps=desc.max_steps, buffer_mode=desc.buffer_mode,
        tier2_threshold=desc.tier2_threshold)


def _run_cas_job(desc, library) -> WorkloadResult:
    # casbench builds on this module's WorkloadResult.
    from .casbench import run_cas_benchmark

    return run_cas_benchmark(desc.cas, desc.variant, seed=desc.seed,
                             costs=desc.costs,
                             buffer_mode=desc.buffer_mode)


#: The machine kinds, kind -> executor: the one statement of which
#: kinds exist.  ``JobSpec.validate`` accepts exactly these keys and
#: :func:`run_workload` dispatches on them.
MACHINE_KINDS = {
    "kernel": _run_kernel_job,
    "library": _run_library_job,
    "cas": _run_cas_job,
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
    return MACHINE_KINDS[desc.kind](desc, library)
