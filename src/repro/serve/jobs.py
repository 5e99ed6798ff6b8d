"""Typed job schema for translation-as-a-service.

A :class:`JobSpec` is the canonical description of one run — what
``api.run_kernel`` / ``run_library_workload`` / ``run_cas_benchmark``
used to take as argument lists — and a :class:`JobResult` the typed
response.  Both carry JSON codecs under the :data:`JOB_SCHEMA` tag, so
the same objects travel through a local ``api.submit(job)`` call and
over the serve socket protocol, and a served run is bit-identical to a
direct one (the job *is* the run description; there is nothing else to
diverge on).

Tenancy: ``namespace`` scopes both persistent caches
(``REPRO_XLAT_CACHE_NS`` + ``REPRO_BEHAVIOR_CACHE_NS``) for the
duration of the run via :func:`scoped_namespace`, so concurrent
clients never read each other's cache entries.  An empty namespace
inherits the executing process's environment unchanged — the local
``api.run_*`` wrappers therefore behave exactly as before.

Failures never cross a boundary as tracebacks: :func:`run_job` maps
any exception through :func:`repro.errors.classify_error` into the
result's typed :class:`~repro.errors.ErrorInfo`.
"""

from __future__ import annotations

import dataclasses
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from ..core import behavior_cache
from ..dbt import xlat_cache
from ..errors import ErrorInfo, JobError, classify_error
from ..machine.timing import CostModel
from ..machine.weakmem import BufferMode
from ..store import sanitize_namespace
from ..workloads.casbench import CasConfig
from ..workloads.kernels import KernelSpec
from ..workloads.runner import WorkloadResult, run_workload

#: Wire-format version; both sides check it and reject mismatches.
JOB_SCHEMA = "repro-serve/1"

#: The job kinds the dispatcher knows how to execute.
JOB_KINDS = ("kernel", "library", "cas")


@dataclass(frozen=True)
class JobSpec:
    """One run request, complete and self-contained.

    Exactly one payload group applies, selected by ``kind``:
    ``kernel`` (an inline :class:`KernelSpec` — generated specs from
    the fuzzer work like registry ones), ``library`` (registry name +
    call description) or ``cas`` (an inline :class:`CasConfig`).
    """

    kind: str
    benchmark: str
    variant: str
    seed: int = 7
    max_steps: int = 80_000_000
    buffer_mode: BufferMode = BufferMode.WEAK
    tier2_threshold: int | None = None
    costs: CostModel | None = None
    #: cache tenancy scope; "" inherits the executor's environment.
    namespace: str = ""
    #: client-chosen correlation id, echoed verbatim on the result.
    job_id: str = ""
    # kind == "kernel"
    kernel: KernelSpec | None = None
    # kind == "library"
    library: str | None = None     # LIBRARY_BUILDERS key
    function: str | None = None
    args: tuple[int, ...] = ()
    calls: int = 0
    setup: str | None = None       # MEMORY_SETUPS key
    # kind == "cas"
    cas: CasConfig | None = None

    def validate(self) -> None:
        """Raise :class:`JobError` on any malformed field."""
        if self.kind not in JOB_KINDS:
            raise JobError(f"unknown job kind {self.kind!r}; expected "
                           f"one of {JOB_KINDS}")
        if not self.benchmark:
            raise JobError("job benchmark must be non-empty")
        if not self.variant:
            raise JobError("job variant must be non-empty")
        if self.namespace != sanitize_namespace(self.namespace):
            raise JobError(
                f"namespace {self.namespace!r} contains characters "
                f"outside [A-Za-z0-9._-]")
        if self.kind == "kernel" and self.kernel is None:
            raise JobError(f"kernel payload missing for "
                           f"{self.benchmark!r}")
        if self.kind == "library" and (not self.function
                                       or self.calls <= 0):
            raise JobError(f"library payload incomplete for "
                           f"{self.benchmark!r} (function + calls "
                           f"required)")
        if self.kind == "cas" and self.cas is None:
            raise JobError(f"cas payload missing for "
                           f"{self.benchmark!r}")

    # ------------------------------------------------------------------
    # Codec
    # ------------------------------------------------------------------
    def to_json(self) -> dict:
        payload: dict = {
            "schema": JOB_SCHEMA,
            "kind": self.kind,
            "benchmark": self.benchmark,
            "variant": self.variant,
            "seed": self.seed,
            "max_steps": self.max_steps,
            "buffer_mode": self.buffer_mode.value,
            "tier2_threshold": self.tier2_threshold,
            "namespace": self.namespace,
            "job_id": self.job_id,
        }
        if self.costs is not None:
            payload["costs"] = dataclasses.asdict(self.costs)
        if self.kernel is not None:
            payload["kernel"] = dataclasses.asdict(self.kernel)
        if self.kind == "library":
            payload["library"] = self.library
            payload["function"] = self.function
            payload["args"] = list(self.args)
            payload["calls"] = self.calls
            payload["setup"] = self.setup
        if self.cas is not None:
            payload["cas"] = dataclasses.asdict(self.cas)
        return payload

    @classmethod
    def from_json(cls, payload: dict) -> "JobSpec":
        if not isinstance(payload, dict):
            raise JobError(f"job payload must be an object, got "
                           f"{type(payload).__name__}")
        schema = payload.get("schema")
        if schema != JOB_SCHEMA:
            raise JobError(f"job schema {schema!r} unsupported "
                           f"(expected {JOB_SCHEMA!r})")
        try:
            buffer_mode = BufferMode(
                payload.get("buffer_mode", BufferMode.WEAK.value))
        except ValueError:
            raise JobError(f"unknown buffer_mode "
                           f"{payload.get('buffer_mode')!r}") from None
        try:
            costs = payload.get("costs")
            kernel = payload.get("kernel")
            cas = payload.get("cas")
            tier2 = payload.get("tier2_threshold")
            job = cls(
                kind=str(payload["kind"]),
                benchmark=str(payload["benchmark"]),
                variant=str(payload["variant"]),
                seed=int(payload.get("seed", 7)),
                max_steps=int(payload.get("max_steps", 80_000_000)),
                buffer_mode=buffer_mode,
                tier2_threshold=None if tier2 is None else int(tier2),
                costs=None if costs is None else CostModel(**costs),
                namespace=str(payload.get("namespace", "")),
                job_id=str(payload.get("job_id", "")),
                kernel=None if kernel is None else KernelSpec(**kernel),
                library=payload.get("library"),
                function=payload.get("function"),
                args=tuple(int(a) for a in payload.get("args", ())),
                calls=int(payload.get("calls", 0)),
                setup=payload.get("setup"),
                cas=None if cas is None else CasConfig(**cas),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise JobError(f"malformed job payload: {exc}") from None
        job.validate()
        return job


@dataclass
class JobResult:
    """The typed response to one :class:`JobSpec`.

    ``ok`` selects which half is meaningful: measured quantities on
    success, the classified ``error`` on failure.  ``queue_seconds``
    and ``batch_size`` are stamped by the server's dispatcher; local
    submission leaves them at their inline defaults.
    """

    job_id: str
    kind: str
    benchmark: str
    variant: str
    seed: int
    namespace: str = ""
    ok: bool = True
    error: ErrorInfo | None = None
    # Measured quantities (success only).
    cycles: int = 0
    fence_cycles: int = 0
    total_cycles: int = 0
    checksum: int | None = None
    exit_code: int = 0
    wall_seconds: float = 0.0
    blocks_translated: int = 0
    xlat_hits: int = 0
    xlat_misses: int = 0
    xlat_disk_hits: int = 0
    #: which cache level served the run's translations:
    #: "cold" (pipeline ran), "disk", "memory", or "none" (no lookups).
    cache_tier: str = "none"
    # Serve-side observability (stamped by the dispatcher).
    queue_seconds: float = 0.0
    batch_size: int = 1
    #: The full in-process outcome — never serialized; this is what
    #: lets ``api.run_*`` keep returning :class:`WorkloadResult`.
    outcome: WorkloadResult | None = field(
        default=None, repr=False, compare=False)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_workload(cls, job: JobSpec, outcome: WorkloadResult,
                      wall: float) -> "JobResult":
        stats = outcome.result.stats
        return cls(
            job_id=job.job_id,
            kind=job.kind,
            benchmark=job.benchmark,
            variant=job.variant,
            seed=job.seed,
            namespace=job.namespace,
            ok=True,
            cycles=outcome.result.elapsed_cycles,
            fence_cycles=outcome.result.fence_cycles,
            total_cycles=outcome.result.total_cycles,
            checksum=outcome.checksum,
            exit_code=outcome.result.exit_code,
            wall_seconds=outcome.wall_seconds or wall,
            blocks_translated=stats.blocks_translated,
            xlat_hits=stats.xlat_hits,
            xlat_misses=stats.xlat_misses,
            xlat_disk_hits=stats.xlat_disk_hits,
            cache_tier=cache_tier(stats.xlat_hits, stats.xlat_misses,
                                  stats.xlat_disk_hits),
            outcome=outcome,
        )

    @classmethod
    def from_error(cls, job: JobSpec, error: ErrorInfo,
                   wall: float = 0.0) -> "JobResult":
        return cls(
            job_id=job.job_id,
            kind=job.kind,
            benchmark=job.benchmark,
            variant=job.variant,
            seed=job.seed,
            namespace=job.namespace,
            ok=False,
            error=error,
            wall_seconds=wall,
        )

    # ------------------------------------------------------------------
    # Codec
    # ------------------------------------------------------------------
    def to_json(self) -> dict:
        payload: dict = {
            "schema": JOB_SCHEMA,
            "job_id": self.job_id,
            "kind": self.kind,
            "benchmark": self.benchmark,
            "variant": self.variant,
            "seed": self.seed,
            "namespace": self.namespace,
            "ok": self.ok,
            "cycles": self.cycles,
            "fence_cycles": self.fence_cycles,
            "total_cycles": self.total_cycles,
            "checksum": self.checksum,
            "exit_code": self.exit_code,
            "wall_seconds": self.wall_seconds,
            "blocks_translated": self.blocks_translated,
            "xlat_hits": self.xlat_hits,
            "xlat_misses": self.xlat_misses,
            "xlat_disk_hits": self.xlat_disk_hits,
            "cache_tier": self.cache_tier,
            "queue_seconds": self.queue_seconds,
            "batch_size": self.batch_size,
        }
        if self.error is not None:
            payload["error"] = self.error.to_json()
        return payload

    @classmethod
    def from_json(cls, payload: dict) -> "JobResult":
        schema = payload.get("schema")
        if schema != JOB_SCHEMA:
            raise JobError(f"result schema {schema!r} unsupported "
                           f"(expected {JOB_SCHEMA!r})")
        error = payload.get("error")
        checksum = payload.get("checksum")
        try:
            return cls(
                job_id=str(payload.get("job_id", "")),
                kind=str(payload["kind"]),
                benchmark=str(payload["benchmark"]),
                variant=str(payload["variant"]),
                seed=int(payload.get("seed", 0)),
                namespace=str(payload.get("namespace", "")),
                ok=bool(payload.get("ok", False)),
                error=None if error is None
                else ErrorInfo.from_json(error),
                cycles=int(payload.get("cycles", 0)),
                fence_cycles=int(payload.get("fence_cycles", 0)),
                total_cycles=int(payload.get("total_cycles", 0)),
                checksum=None if checksum is None else int(checksum),
                exit_code=int(payload.get("exit_code", 0)),
                wall_seconds=float(payload.get("wall_seconds", 0.0)),
                blocks_translated=int(
                    payload.get("blocks_translated", 0)),
                xlat_hits=int(payload.get("xlat_hits", 0)),
                xlat_misses=int(payload.get("xlat_misses", 0)),
                xlat_disk_hits=int(payload.get("xlat_disk_hits", 0)),
                cache_tier=str(payload.get("cache_tier", "none")),
                queue_seconds=float(payload.get("queue_seconds", 0.0)),
                batch_size=int(payload.get("batch_size", 1)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise JobError(
                f"malformed result payload: {exc}") from None


def cache_tier(hits: int, misses: int, disk_hits: int) -> str:
    """Which translation-cache level effectively served the run.

    Any full-pipeline translation makes the request "cold" (the
    engine counts a miss for every block it translates, whether or
    not the cache is on); otherwise the persistent disk layer or the
    in-memory LRU served everything; "none" means the run translated
    nothing at all (e.g. a native run).
    """
    if misses > 0:
        return "cold"
    if disk_hits > 0:
        return "disk"
    if hits > 0:
        return "memory"
    return "none"


def batch_key(job: JobSpec) -> tuple:
    """Jobs sharing a key may run in one dispatched batch: the worker
    pins the cache namespace once per batch, so only same-namespace
    jobs are compatible."""
    return (job.namespace,)


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
@contextmanager
def scoped_namespace(namespace: str):
    """Scope both persistent caches to ``namespace`` for the block.

    An empty namespace leaves the environment untouched (the caller's
    ambient namespaces keep applying — local ``api.run_*`` calls must
    behave exactly as before the serve layer existed).
    """
    if not namespace:
        yield
        return
    env_vars = (xlat_cache.NAMESPACE_ENV, behavior_cache.NAMESPACE_ENV)
    saved = {var: os.environ.get(var) for var in env_vars}
    try:
        for var in env_vars:
            os.environ[var] = namespace
        yield
    finally:
        for var, value in saved.items():
            if value is None:
                os.environ.pop(var, None)
            else:
                os.environ[var] = value


def execute_job(job: JobSpec, *, library=None) -> JobResult:
    """Run one job in-process and return its result; raises on
    failure (the local :func:`repro.api.submit` contract — callers
    keep the exception types they always had).

    ``library`` optionally overrides the registry lookup with an
    already-built :class:`~repro.loader.hostlibs.HostLibrary`, so the
    facade wrapper can pass user-constructed libraries through
    unchanged.
    """
    job.validate()
    started = time.perf_counter()
    with scoped_namespace(job.namespace):
        outcome = run_workload(job, library=library)
    return JobResult.from_workload(
        job, outcome, time.perf_counter() - started)


def run_job(job: JobSpec, *, library=None) -> JobResult:
    """The catching variant for service boundaries: any exception
    comes back as a typed error result, never a traceback."""
    started = time.perf_counter()
    try:
        return execute_job(job, library=library)
    except Exception as exc:  # noqa: BLE001 - the boundary by design
        return JobResult.from_error(
            job, classify_error(exc), time.perf_counter() - started)


# ----------------------------------------------------------------------
# Job builders (the facade wrappers' construction path)
# ----------------------------------------------------------------------
def kernel_job(spec: KernelSpec, *, variant: str, seed: int = 7,
               costs: CostModel | None = None,
               max_steps: int = 80_000_000,
               buffer_mode: BufferMode = BufferMode.WEAK,
               tier2_threshold: int | None = None,
               namespace: str = "", job_id: str = "") -> JobSpec:
    """A kernel run as a job (inline spec: generated kernels work)."""
    return JobSpec(kind="kernel", benchmark=spec.name, variant=variant,
                   seed=seed, costs=costs, max_steps=max_steps,
                   buffer_mode=buffer_mode,
                   tier2_threshold=tier2_threshold,
                   namespace=namespace, job_id=job_id, kernel=spec)


def library_job(function: str, args: tuple[int, ...], calls: int, *,
                variant: str, library: str | None = None,
                setup: str | None = None, seed: int = 7,
                costs: CostModel | None = None,
                max_steps: int = 80_000_000,
                buffer_mode: BufferMode = BufferMode.WEAK,
                tier2_threshold: int | None = None,
                namespace: str = "", job_id: str = "") -> JobSpec:
    """A library-call benchmark as a job.  ``library`` is a
    :data:`LIBRARY_BUILDERS` registry name; leave it ``None`` only
    when the executor will receive the library object directly."""
    return JobSpec(kind="library", benchmark=function, variant=variant,
                   seed=seed, costs=costs, max_steps=max_steps,
                   buffer_mode=buffer_mode,
                   tier2_threshold=tier2_threshold,
                   namespace=namespace, job_id=job_id, library=library,
                   function=function, args=tuple(args), calls=calls,
                   setup=setup)


def cas_job(config: CasConfig, *, variant: str, seed: int = 7,
            costs: CostModel | None = None,
            buffer_mode: BufferMode = BufferMode.WEAK,
            namespace: str = "", job_id: str = "") -> JobSpec:
    """A Figure 15 CAS configuration as a job."""
    return JobSpec(kind="cas", benchmark=config.label, variant=variant,
                   seed=seed, costs=costs, buffer_mode=buffer_mode,
                   namespace=namespace, job_id=job_id, cas=config)
