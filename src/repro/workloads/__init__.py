"""Benchmark workloads: PARSEC/Phoenix kernels, library-bound
applications (OpenSSL, SQLite, libm), the CAS microbenchmark, the one
machine-run description (:class:`JobSpec`), and the parallel
evaluation harness that fans the figure sweeps over a process pool."""

from .jobspec import JOB_SCHEMA, JobSpec, cas_job, kernel_job, library_job
from .kernels import ARRAY_BASE, KernelSpec, gen_arm_program, gen_x86_program
from .libs import (
    SQLITE_DB_BASE,
    build_libcrypto,
    build_libm,
    build_libsqlite,
    standard_libraries,
)
from .parallel import (
    LitmusSpec,
    RunFailure,
    RunRow,
    SweepResult,
    default_workers,
    execute_spec,
    run_parallel,
)
from .runner import NATIVE, WorkloadResult
from .suites import (
    ALL_SPECS,
    PARSEC_SPECS,
    PHOENIX_SPECS,
    SPEC_BY_NAME,
    ablation_grid,
    cas_grid,
    kernel_grid,
    library_grid,
    scheme_grid,
    verify_grid,
)

__all__ = [
    "ARRAY_BASE", "KernelSpec", "gen_arm_program", "gen_x86_program",
    "SQLITE_DB_BASE", "build_libcrypto", "build_libm", "build_libsqlite",
    "standard_libraries",
    "JOB_SCHEMA", "JobSpec", "kernel_job", "library_job", "cas_job",
    "LitmusSpec", "RunFailure", "RunRow", "SweepResult", "default_workers",
    "execute_spec", "run_parallel",
    "NATIVE", "WorkloadResult",
    "ALL_SPECS", "PARSEC_SPECS", "PHOENIX_SPECS", "SPEC_BY_NAME",
    "ablation_grid", "cas_grid", "kernel_grid", "library_grid",
    "scheme_grid", "verify_grid",
]
