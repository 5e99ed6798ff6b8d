"""The machine-run description: :class:`JobSpec`, its codec and builders.

A :class:`JobSpec` describes one ``kernel`` / ``library`` / ``cas``
run completely, and it is the only such description: the figure
sweeps build their cells with :func:`kernel_job` / :func:`library_job`
/ :func:`cas_job` and run them through
:func:`~repro.workloads.parallel.run_parallel`, and ``api.submit`` and
the serve workers run the very same objects.  It carries a JSON codec
under the :data:`JOB_SCHEMA` tag, so a job travels unchanged over the
serve socket protocol and a served run is bit-identical to a direct
one (the job *is* the run description; there is nothing else to
diverge on).

Tenancy: ``namespace`` scopes the translation cache
(``REPRO_XLAT_CACHE_NS``) for the duration of the run via
:func:`scoped_namespace`, whichever path runs the job.  An empty
namespace inherits the executing process's environment unchanged, so
the local ``api.run_*`` wrappers and plain sweeps behave exactly as
before.
"""

from __future__ import annotations

import dataclasses
import os
from contextlib import contextmanager
from dataclasses import dataclass

from ..dbt import xlat_cache
from ..errors import JobError
from ..machine.timing import CostModel
from ..machine.weakmem import BufferMode
from ..store import sanitize_namespace
from .casbench import CasConfig
from .kernels import KernelSpec
from .runner import MACHINE_KINDS

#: Wire-format version; both sides check it and reject mismatches.
JOB_SCHEMA = "repro-serve/1"


@dataclass(frozen=True)
class JobSpec:
    """One machine run, complete, self-contained and picklable.

    The fields are the whole configuration: no environment variable
    changes what a job computes, so a served job and a direct one give
    the same numbers whatever either process's environment holds.

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
    #: Store-buffer mode for the machine — applied to *every* variant,
    #: native included, so the bars of one benchmark are comparable.
    buffer_mode: BufferMode = BufferMode.WEAK
    #: Tier-2 hotness knob for DBT variants: ``0`` keeps tier-2 off, a
    #: positive count promotes hot blocks to superblock traces at that
    #: dispatch count.  Ignored by native runs.  The wire carries off
    #: as ``null``, as clients that predate the integer form send it.
    tier2_threshold: int = 0
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
        """Raise :class:`JobError` on any malformed field — the only
        payload check, run before every execution."""
        if self.kind not in MACHINE_KINDS:
            raise JobError(f"unknown job kind {self.kind!r}; expected "
                           f"one of {tuple(MACHINE_KINDS)}")
        if not self.benchmark:
            raise JobError("job benchmark must be non-empty")
        if not self.variant:
            raise JobError("job variant must be non-empty")
        if not isinstance(self.tier2_threshold, int) \
                or self.tier2_threshold < 0:
            raise JobError(f"tier2_threshold must be an int >= 0 (0 is "
                           f"off), got {self.tier2_threshold!r}")
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
            "tier2_threshold": self.tier2_threshold or None,
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
            job = cls(
                kind=str(payload["kind"]),
                benchmark=str(payload["benchmark"]),
                variant=str(payload["variant"]),
                seed=int(payload.get("seed", 7)),
                max_steps=int(payload.get("max_steps", 80_000_000)),
                buffer_mode=buffer_mode,
                tier2_threshold=int(payload.get("tier2_threshold")
                                    or 0),
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


@contextmanager
def scoped_namespace(namespace: str):
    """Scope the translation cache to ``namespace`` for the block.

    An empty namespace leaves the environment untouched (the caller's
    ambient namespace keeps applying — local ``api.run_*`` calls must
    behave exactly as before the serve layer existed).
    """
    if not namespace:
        yield
        return
    saved = os.environ.get(xlat_cache.NAMESPACE_ENV)
    try:
        os.environ[xlat_cache.NAMESPACE_ENV] = namespace
        yield
    finally:
        if saved is None:
            os.environ.pop(xlat_cache.NAMESPACE_ENV, None)
        else:
            os.environ[xlat_cache.NAMESPACE_ENV] = saved


# ----------------------------------------------------------------------
# Builders: the one constructor per kind, under grids and the facade
# ----------------------------------------------------------------------
def kernel_job(spec: KernelSpec, *, variant: str, seed: int = 7,
               costs: CostModel | None = None,
               max_steps: int = 80_000_000,
               buffer_mode: BufferMode = BufferMode.WEAK,
               tier2_threshold: int = 0,
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
                tier2_threshold: int = 0,
                namespace: str = "", job_id: str = "") -> JobSpec:
    """A library-call benchmark as a job, named after its function.
    ``library`` is a :data:`LIBRARY_BUILDERS` registry name; leave it
    ``None`` only when the executor will receive the library object
    directly."""
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
