"""Typed results for translation-as-a-service.

A job is a :class:`~repro.workloads.jobspec.JobSpec` — the one
machine-run description, which sweeps run too — and a
:class:`JobResult` the typed response.  The result carries a JSON
codec under the same :data:`JOB_SCHEMA` tag, so the same objects travel
through a local ``api.submit(job)`` call and over the serve socket
protocol, and a served run is bit-identical to a direct one.

A result's measured fields are copied by name from the run's
:class:`~repro.workloads.parallel.RunRow`, the row a sweep gets for the
same job (:func:`~repro.workloads.parallel.run_job_row`), so a sweep
cell and a job cannot report different numbers for one run.

Failures never cross a boundary as tracebacks: :func:`run_job` maps
any exception through :func:`repro.errors.classify_error` into the
result's typed :class:`~repro.errors.ErrorInfo`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields

from ..errors import ErrorInfo, JobError, classify_error
# The job description and its builders live with the executor; the
# serve layer and its callers name them through this module too.
from ..workloads.jobspec import (  # noqa: F401 - re-exports
    JOB_SCHEMA,
    JobSpec,
    cas_job,
    kernel_job,
    library_job,
    scoped_namespace,
)
from ..workloads.parallel import RunRow, run_job_row
from ..workloads.runner import WorkloadResult


@dataclass
class JobResult:
    """The typed response to one :class:`JobSpec`.

    ``ok`` selects which half is meaningful: measured quantities on
    success, the classified ``error`` on failure.  ``queue_seconds``
    is stamped by the server's dispatcher; local submission leaves it
    at 0.
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
    #: Always 1: the dispatcher sends one job per pool task and stamps
    #: nothing here.  Kept (with its wire key) only because the
    #: ``serve_mix`` benchmark reads it for ``serve.batch_size_mean``;
    #: the benchmark change that drops that metric deletes this field.
    batch_size: int = 1
    #: The full in-process outcome — never serialized; this is what
    #: lets ``api.run_*`` keep returning :class:`WorkloadResult`.
    outcome: WorkloadResult | None = field(
        default=None, repr=False, compare=False)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_row(cls, job: JobSpec, row: RunRow,
                 outcome: WorkloadResult) -> "JobResult":
        """The result of a run whose row is ``row``: every measured
        field is the row's field of the same name."""
        return cls(
            job_id=job.job_id,
            kind=job.kind,
            seed=job.seed,
            namespace=job.namespace,
            cache_tier=cache_tier(row.xlat_hits, row.xlat_misses,
                                  row.xlat_disk_hits),
            outcome=outcome,
            **{name: getattr(row, name) for name in _FROM_ROW},
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


#: What a result copies from its run's row: every field the two
#: declare, by name (identity, cycles, checksum, wall time, xlat_*).
_FROM_ROW = tuple(sorted({f.name for f in fields(JobResult)}
                         & {f.name for f in fields(RunRow)}))


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


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
def execute_job(job: JobSpec, *, library=None) -> JobResult:
    """Run one job in-process and return its result; raises on
    failure (the local :func:`repro.api.submit` contract — callers
    keep the exception types they always had).

    ``library`` optionally overrides the registry lookup with an
    already-built :class:`~repro.loader.hostlibs.HostLibrary`, so the
    facade wrapper can pass user-constructed libraries through
    unchanged.
    """
    return JobResult.from_row(job, *run_job_row(job, library=library))


def run_job(job: JobSpec, *, library=None) -> JobResult:
    """The catching variant for service boundaries: any exception
    comes back as a typed error result, never a traceback."""
    started = time.perf_counter()
    try:
        return execute_job(job, library=library)
    except Exception as exc:  # noqa: BLE001 - the boundary by design
        return JobResult.from_error(
            job, classify_error(exc), time.perf_counter() - started)
