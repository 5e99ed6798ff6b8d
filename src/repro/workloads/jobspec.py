"""The machine-run description: :class:`JobSpec`, its builders, and
the one ``repro-serve/1`` codec.

A :class:`JobSpec` describes one ``kernel`` / ``library`` / ``cas``
run completely, and it is the only such description: the figure
sweeps build their cells with :func:`kernel_job` / :func:`library_job`
/ :func:`cas_job` and run them through
:func:`~repro.workloads.parallel.run_parallel`, and ``api.submit`` and
the serve workers run the very same objects.  Every record on the
serve socket (job, result, error, and the records in them) goes
through the one codec here, :func:`to_wire` / :func:`from_wire` under
the :data:`JOB_SCHEMA` tag: its fields by name, decoded against their
annotations and never coerced, so a served job runs what the client
sent and a served run is bit-identical to a direct one.

Tenancy: ``namespace`` names the translation-cache namespace the
job's engine is built with, whichever path runs the job; it is an
argument, and nothing writes the environment.  An empty namespace
uses the executing process's ambient ``REPRO_XLAT_CACHE_NS``, so the
local ``api.run_*`` wrappers and plain sweeps behave exactly as
before.
"""

from __future__ import annotations

import enum
import typing
from dataclasses import MISSING, dataclass, fields, is_dataclass
from functools import partial
from types import UnionType

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
    #: as ``null``, as clients that predate the integer form send it
    #: (absent or ``null`` decodes to off).
    tier2_threshold: int = 0
    costs: CostModel | None = None
    #: cache tenancy scope; "" uses the executor's ambient namespace.
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

    # Codec: the one below, JobSpec's wire form declared after it.
    def to_json(self) -> dict:
        return to_wire(self)

    @classmethod
    def from_json(cls, payload) -> "JobSpec":
        job = from_wire(cls, payload)
        job.validate()
        return job


# ----------------------------------------------------------------------
# The repro-serve/1 codec: a record on the wire is its fields by name
# ----------------------------------------------------------------------
#: Per record class, built once: (schema tag or None, one (name, encode,
#: decode, value when absent, omitted when None, only for this kind)
#: entry per field on the wire).
_FORMS: dict[type, tuple] = {}


def wire_form(cls, *, schema=None, absent=None, null=None, omit_none=(),
              payloads=None) -> tuple:
    """Build ``cls``'s wire table from its fields and annotations and
    from how its wire form departs from them, which is data: ``absent``
    maps a key to its value when missing (else the field's default; a
    field without one is required), ``null`` a key to the value sent as
    null (and read from it), ``omit_none`` names keys left out when
    ``None``, and ``payloads`` maps a ``kind`` to the keys only a record
    of that kind sends.  A ``compare=False`` field never travels; a
    class not declared here (``ErrorInfo``, ``KernelSpec``) gets the
    plain form on first use."""
    absent, null = absent or {}, null or {}
    owner = {key: kind for kind, keys in (payloads or {}).items()
             for key in keys}
    hints = typing.get_type_hints(cls)
    entries = []
    for f in fields(cls):
        if f.compare:
            encode, decode = _codec(hints[f.name], null.get(f.name, MISSING))
            entries.append((f.name, encode, decode,
                            absent.get(f.name, f.default),
                            f.name in omit_none, owner.get(f.name)))
    _FORMS[cls] = form = (schema, tuple(entries))
    return form


def to_wire(record) -> dict:
    """A record as its JSON object: an enum as its (string) value, a
    tuple as a list, a nested record as an object."""
    schema, entries = _FORMS.get(type(record)) or wire_form(type(record))
    payload = {} if schema is None else {"schema": schema}
    for name, encode, _, _, omit_none, kind in entries:
        value = getattr(record, name)
        if not (omit_none and value is None
                or kind is not None and kind != record.kind):
            payload[name] = value if encode is None else encode(value)
    return payload


def from_wire(cls, payload):
    """The record of ``cls`` a JSON object describes, each value checked
    against its field's annotation (a ``bool`` is not an ``int``, an
    integer is a ``float``, ``X | None`` takes null) and unknown keys
    ignored; anything else is a :class:`JobError`."""
    schema, entries = _FORMS.get(cls) or wire_form(cls)
    if not isinstance(payload, dict):
        raise JobError(f"{cls.__name__} payload must be an object, got "
                       f"{type(payload).__name__}")
    if schema is not None and payload.get("schema") != schema:
        raise JobError(f"{cls.__name__} schema {payload.get('schema')!r}"
                       f" unsupported (expected {schema!r})")
    values = {}
    for name, _, decode, absent, _, _ in entries:
        value = payload.get(name, MISSING)
        if value is MISSING and absent is MISSING:
            raise JobError(f"malformed {cls.__name__} payload: lacks "
                           f"{name!r}")
        try:
            values[name] = absent if value is MISSING else decode(value)
        except (JobError, ValueError, OverflowError) as exc:
            raise JobError(f"{name}: {exc}") from None
    return cls(**values)


def _codec(hint, null=MISSING) -> tuple:
    """(encode, or ``None`` for as-is; decode) for one annotation, with
    ``null`` the value that travels as null."""
    if null is not MISSING:
        encode, decode = _codec(hint)
        return ((lambda v: None if v == null else encode(v) if encode
                 else v), lambda v: null if v is None else decode(v))
    if typing.get_origin(hint) is UnionType:  # X | None
        (inner,) = set(typing.get_args(hint)) - {type(None)}
        return _codec(inner, None)
    if typing.get_origin(hint) is tuple:  # tuple[X, ...]
        _, item = _codec(typing.get_args(hint)[0])
        return list, _typed(list, then=lambda v: tuple(map(item, v)))
    if is_dataclass(hint):
        return to_wire, partial(from_wire, hint)
    if issubclass(hint, enum.Enum):  # its value; unknown: ValueError
        return (lambda v: v.value), _typed(str, then=hint)
    if hint is float:
        return None, _typed(float, int, then=float)
    return None, _typed(hint)


def _typed(*kinds, then=None):
    """A decoder taking exactly the JSON types ``kinds``, then ``then``."""
    def decode(value):
        if type(value) not in kinds:
            raise JobError(f"expected {kinds[0].__name__}, got "
                           f"{type(value).__name__}")
        return value if then is None else then(value)
    return decode


wire_form(JobSpec, schema=JOB_SCHEMA, null={"tier2_threshold": 0},
          omit_none=("costs",),
          payloads={"kernel": ("kernel",), "cas": ("cas",),
                    "library": ("library", "function", "args", "calls",
                                "setup")})


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
