"""The stable public surface of the reproduction.

Everything a harness, notebook, or external tool should need lives
here under one import::

    from repro import api

    sweep = api.run_parallel(api.kernel_grid(api.ALL_SPECS,
                                             api.VARIANT_NAMES))
    result = api.run_kernel(api.SPEC_BY_NAME["freqmine"],
                            variant="risotto", seed=11)
    engine = api.make_engine(variant="qemu", n_cores=2)

Three rules hold across the surface:

* **consistent names** — the same concept is always spelled the same
  way: ``variant`` (a :data:`VARIANT_NAMES` entry), ``n_cores``,
  ``seed``, ``buffer_mode``, ``costs``, ``max_steps``;
* **keyword-only configuration** — run functions take the workload
  positionally and everything else keyword-only, so call sites stay
  readable and argument order can never silently swap;
* **re-exports are the implementation** — classes and grid builders
  come straight from their home modules (one definition, one identity:
  ``api.JobSpec is repro.workloads.JobSpec``); only the run functions
  are thin signature-normalizing wrappers.

The facade is additive: the underlying modules remain importable and
stable, but new code (benchmarks/, the fuzzer oracles, the
``python -m repro`` CLI) goes through :mod:`repro.api` only.
"""

from __future__ import annotations

from .core.corpus_large import FIVE_THREAD_CORPUS, verify_registry
from .core.dpor import reduced_behaviors
from .core.enumerate import enumeration_stats, reset_enumeration_stats
from .core.mappings import SCHEME_EXPECTED, SCHEME_MAPPINGS, \
    scheme_mapping
from .core.models import MODEL_BY_NAME
from .core.most import (
    FenceScheme,
    MOST,
    SCHEMES,
    SOURCE_TABLES,
    TARGET_MENUS,
    derive_scheme,
    known_origins,
)
from .dbt import DBTConfig, DBTEngine, NATIVE, NativeRunner, \
    RunResult, VARIANT_NAMES, VARIANTS, resolve_variant
from .dbt.config import DEFAULT_TIER2_THRESHOLD, Tier2Config
from .dbt.xlat_cache import (
    cache_dir as xlat_cache_dir,
    cache_stats as xlat_cache_stats,
    clear_disk_cache as clear_xlat_cache,
    enabled as xlat_cache_enabled,
    get_cache as get_xlat_cache,
    namespace_usage as xlat_cache_namespaces,
    reset_memory as reset_xlat_memory,
)
from .errors import ErrorInfo, JobError, ReproError, classify_error
from .serve.jobs import JobResult, execute_job as _execute_job
from .machine.timing import CostModel
from .obs.flame import collapsed_stacks, write_collapsed
from .obs.history import (
    config_fingerprint,
    figures_in_history,
    history_dir,
    load_history,
    record_bench,
    render_trend,
)
from .obs.sentinel import check_payload, load_floors
from .machine.weakmem import BufferMode
from .workloads import (
    ALL_SPECS,
    JOB_SCHEMA,
    gen_arm_program,
    gen_x86_program,
    PARSEC_SPECS,
    PHOENIX_SPECS,
    SPEC_BY_NAME,
    JobSpec,
    KernelSpec,
    LitmusSpec,
    RunRow,
    SweepResult,
    WorkloadResult,
    ablation_grid,
    cas_grid,
    cas_job,
    default_workers,
    execute_spec,
    kernel_grid,
    kernel_job,
    library_grid,
    library_job,
    run_parallel,
    scheme_grid,
    verify_grid,
)
from .workloads import parallel as _parallel
from .workloads import runner as _runner
from .workloads.casbench import CasConfig, FIGURE15_CONFIGS, \
    throughput_from_cycles
from .workloads.libs import (
    build_libcrypto,
    build_libm,
    build_libsqlite,
    standard_libraries,
)
from .workloads.parallel import DATA_BUF, deterministic_row

__all__ = [
    # run functions (keyword-only signatures)
    "run_kernel", "run_library_workload", "run_cas_benchmark",
    "make_engine",
    # sweep harness
    "LitmusSpec", "RunRow", "SweepResult", "run_parallel",
    "execute_spec", "default_workers", "deterministic_row",
    # workload building blocks
    "KernelSpec", "CasConfig", "WorkloadResult", "RunResult",
    "ALL_SPECS", "PARSEC_SPECS", "PHOENIX_SPECS", "SPEC_BY_NAME",
    "FIGURE15_CONFIGS", "DATA_BUF",
    "kernel_grid", "library_grid", "cas_grid", "ablation_grid",
    "scheme_grid", "verify_grid",
    # sharded verification / enumeration reduction
    "MODEL_BY_NAME", "FIVE_THREAD_CORPUS", "verify_registry",
    "reduced_behaviors", "enumeration_stats",
    "reset_enumeration_stats",
    # mapping-scheme family (MOST tables + derived schemes)
    "MOST", "FenceScheme", "SOURCE_TABLES", "TARGET_MENUS",
    "SCHEMES", "SCHEME_MAPPINGS", "SCHEME_EXPECTED",
    "derive_scheme", "scheme_mapping", "known_origins",
    "build_libm", "build_libcrypto", "build_libsqlite",
    "standard_libraries", "throughput_from_cycles",
    "gen_x86_program", "gen_arm_program",
    # variants and engine construction
    "VARIANTS", "VARIANT_NAMES", "NATIVE", "resolve_variant",
    "DBTConfig", "DBTEngine", "NativeRunner",
    "BufferMode", "CostModel", "ReproError",
    # tiered JIT (superblock) knobs
    "Tier2Config", "DEFAULT_TIER2_THRESHOLD",
    # typed job surface (the canonical run description)
    "JobSpec", "JobResult", "JOB_SCHEMA", "submit",
    "kernel_job", "library_job", "cas_job",
    # error taxonomy (service boundaries + sweep failures)
    "ErrorInfo", "JobError", "classify_error",
    # cache controls
    "xlat_cache_stats", "xlat_cache_dir", "xlat_cache_enabled",
    "clear_xlat_cache", "reset_xlat_memory", "get_xlat_cache",
    "xlat_cache_namespaces",
    # performance observatory (bench history + regression sentinel)
    "record_bench", "load_history", "history_dir",
    "figures_in_history", "config_fingerprint", "render_trend",
    "check_payload", "load_floors",
    "collapsed_stacks", "write_collapsed",
]


def make_engine(*, variant: str, n_cores: int = 1, seed: int = 42,
                costs: CostModel | None = None,
                buffer_mode: BufferMode = BufferMode.WEAK,
                tier2_threshold: int = 0):
    """Build the engine for ``variant`` on a fresh machine.

    Returns a :class:`~repro.dbt.engine.DBTEngine` for the DBT
    variants and a :class:`~repro.dbt.engine.NativeRunner` for
    ``"native"``; raises :class:`~repro.errors.ReproError` naming the
    valid variants on anything else.  ``tier2_threshold`` selects the
    superblock tier: ``0`` keeps it off, a positive count promotes at
    that hotness.  A DBT engine translates through the environment's
    cache (``REPRO_XLAT_CACHE``, namespace ``REPRO_XLAT_CACHE_NS``).
    """
    return _runner._make_engine(variant, n_cores, seed, costs,
                                buffer_mode, tier2_threshold)


def submit(job: JobSpec, *, library=None) -> JobResult:
    """Execute one typed job and return its typed result.

    The single dispatcher every run goes through: the ``run_*``
    wrappers below build a :class:`JobSpec` and call this, and the
    serve front-end executes the same jobs in its pool workers — so a
    served run and a local call are the same code path and their
    results are bit-identical.

    Raises the usual :class:`~repro.errors.ReproError` family on
    failure (service boundaries catch and classify instead — see
    :func:`repro.serve.jobs.run_job`).  ``library`` optionally
    overrides the job's registry library name with an already-built
    object (how :func:`run_library_workload` passes user libraries
    through).
    """
    return _execute_job(job, library=library)


def run_kernel(spec: KernelSpec, *, variant: str, seed: int = 7,
               costs: CostModel | None = None,
               max_steps: int = 80_000_000,
               buffer_mode: BufferMode = BufferMode.WEAK,
               tier2_threshold: int = 0,
               ) -> WorkloadResult:
    """Run one PARSEC/Phoenix kernel under a variant (or natively)."""
    job = kernel_job(spec, variant=variant, seed=seed, costs=costs,
                     max_steps=max_steps, buffer_mode=buffer_mode,
                     tier2_threshold=tier2_threshold)
    return submit(job).outcome


def run_library_workload(function: str, args: tuple[int, ...],
                         calls: int, *, variant: str, library,
                         setup_memory=None, seed: int = 7,
                         costs: CostModel | None = None,
                         max_steps: int = 80_000_000,
                         buffer_mode: BufferMode = BufferMode.WEAK,
                         tier2_threshold: int = 0,
                         ) -> WorkloadResult:
    """Benchmark a shared-library function under a variant.

    ``library`` is a :class:`~repro.loader.hostlibs.HostLibrary`
    object; ``setup_memory`` an optional callable applied to guest
    memory before the run.  Callables never travel in a job, so the
    setup must be a registered
    :data:`~repro.workloads.parallel.MEMORY_SETUPS` entry; any other
    callable is a :class:`~repro.errors.JobError` (``bad-request``),
    as an unknown setup name is.
    """
    setup_name = next(
        (name for name, fn in _parallel.MEMORY_SETUPS.items()
         if fn is setup_memory), None)
    if setup_memory is not None and setup_name is None:
        raise JobError(f"unknown memory setup {setup_memory!r}; "
                       f"expected one of "
                       f"{sorted(_parallel.MEMORY_SETUPS)}")
    job = library_job(
        function, args, calls, variant=variant,
        library=getattr(library, "name", None),
        setup=setup_name, seed=seed, costs=costs,
        max_steps=max_steps, buffer_mode=buffer_mode,
        tier2_threshold=tier2_threshold)
    return submit(job, library=library).outcome


def run_cas_benchmark(config: CasConfig, *, variant: str,
                      seed: int = 7,
                      costs: CostModel | None = None,
                      buffer_mode: BufferMode = BufferMode.WEAK,
                      ) -> WorkloadResult:
    """Run one Figure 15 CAS configuration under a variant."""
    job = cas_job(config, variant=variant, seed=seed, costs=costs,
                  buffer_mode=buffer_mode)
    return submit(job).outcome
