"""Parallel evaluation harness for the figure sweeps.

The paper's evaluation is a large (benchmark × variant) grid and every
run constructs its own fresh :class:`~repro.machine.scheduler.Machine`,
so the sweep is embarrassingly parallel.  This module fans it out over
a ``ProcessPoolExecutor``:

* the cells — a machine run is a
  :class:`~repro.workloads.jobspec.JobSpec` (kernel spec / library
  call / CAS config, plus variant, seed, costs and step budget), a
  model-checking cell a :class:`LitmusSpec`.  Callables never cross
  the process boundary: libraries and memory setups travel as registry
  names and are rebuilt inside the worker.
* :func:`execute_spec` — the worker entry point: builds the engine
  in-process, runs it, and returns a flat, picklable :class:`RunRow`
  that carries the figures' quantities *and* the observability
  counters (wall time, translated blocks, optimizer work, fence share,
  behaviour-cache hits/misses).  One function maps a machine outcome
  to its row, and a job result is copied from that row
  (:func:`run_job_row`).
* :func:`run_parallel` — the fan-out.  Results come back in submission
  order whatever the completion order, and every run is seeded by its
  spec, so the result table is bit-identical to a serial sweep and
  independent of the worker count.

The worker count comes from the ``workers`` argument, else the
``REPRO_WORKERS`` environment variable, else ``os.cpu_count()``.
``workers <= 1`` runs the specs serially in-process — the degenerate
pool, used as the reference in determinism tests.
"""

from __future__ import annotations

import hashlib
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields, replace

from ..analysis.stats import RunCounters
from ..core.enumerate import EnumerationStats, behavior_cache_stats, \
    enumeration_stats
from ..errors import ReproError, classify_error
from ..obs.trace import get_tracer
from .jobspec import JobSpec
# The registries live with the executor; re-exported here for
# ``repro.api`` (DATA_BUF, the MEMORY_SETUPS lookup) and the tests.
from .runner import DATA_BUF, LIBRARY_BUILDERS, MEMORY_SETUPS, \
    WorkloadResult, run_workload


@dataclass(frozen=True)
class LitmusSpec:
    """One model-checking cell, serializable for the pool.

    ``kind`` selects what ``benchmark`` names: an ``ablation`` label
    (an ``ABLATION_REGISTRY`` key), a ``verify`` litmus test, or a
    ``scheme`` (a derived scheme name).
    """

    kind: str
    benchmark: str
    variant: str
    seed: int = 7
    #: ``verify``: model name per :data:`repro.core.models.MODEL_BY_NAME`.
    model: str | None = None
    #: ``verify``: enumeration reduction, "dpor" | "staged" | "naive".
    reduction: str = "dpor"
    #: candidate-materialization limit (None = enumerator default).
    enum_limit: int | None = None
    #: ``scheme``: RMW lowering of the scheme's end-to-end mapping, per
    #: :data:`repro.core.mappings.SCHEME_RMW_LOWERINGS`.
    rmw_lowering: str = "rmw1al"


@dataclass
class RunRow(RunCounters):
    """The picklable result of one run: figure data + observability
    (the inherited :class:`~repro.analysis.stats.RunCounters` block)."""

    benchmark: str
    variant: str
    cycles: int = 0
    checksum: int | None = None
    exit_code: int = 0
    #: wall-clock seconds of the run itself (engine build + execute).
    wall_seconds: float = 0.0
    #: hottest translated blocks: (guest_pc, dispatches, cycles)
    #: triples, by attributed cycles, descending.  ``None`` when the
    #: run tracked no profile at all (native runs), as opposed to
    #: ``()`` — "tracked, but nothing dispatched".
    hot_blocks: tuple | None = ()
    #: trace_event dicts recorded in the worker while this spec ran
    #: (empty unless tracing is enabled).  ``run_parallel`` rebases
    #: them onto the parent tracer's timeline so a sweep leaves one
    #: merged Chrome trace with a lane per worker pid.
    trace_events: tuple = ()
    #: the worker tracer's ``perf_counter_ns`` epoch, needed to rebase
    #: ``trace_events`` onto another tracer's timeline.
    trace_epoch_ns: int = 0
    #: kind-specific extras (e.g. broken litmus tests of an ablation).
    payload: tuple = ()


#: Hot-block entries kept per run row (the profile's heavy tail is
#: noise; the figures only ever show a handful of blocks).
HOT_BLOCK_LIMIT = 8


def _hot_blocks(result) -> tuple | None:
    profile = getattr(result, "block_profile", None)
    if profile is None:
        # The run tracked no profile (native) — keep the distinction
        # from "tracked but empty" all the way into the exports.
        return None
    ranked = sorted(profile.items(),
                    key=lambda item: (-item[1][1], item[0]))
    return tuple(
        (pc, dispatches, cycles)
        for pc, (dispatches, cycles) in ranked[:HOT_BLOCK_LIMIT]
    )


_COUNTER_NAMES = frozenset(f.name for f in fields(RunCounters))


def _prefixed(prefix: str, stats) -> dict:
    """Every field of a producer's stats as a ``<prefix>_<name>``
    RunRow kwarg — one the counter block does not declare is a
    ``TypeError`` in ``RunRow(...)``, not a silently dropped number."""
    return {f"{prefix}_{f.name}": getattr(stats, f.name)
            for f in fields(stats)}


def _row_from_workload(spec: JobSpec, outcome: WorkloadResult,
                       wall: float) -> RunRow:
    """A machine outcome -> its row, the only such mapping.  Producer
    stats go by name: the ``RunStats`` fields that are run counters
    (``plt_calls``, ``syscalls`` and ``output`` are not) under their
    own names, ``OptStats`` as ``opt_<name>``."""
    result = outcome.result
    counters = {f.name: getattr(result.stats, f.name)
                for f in fields(result.stats)
                if f.name in _COUNTER_NAMES}
    return RunRow(
        benchmark=spec.benchmark,
        variant=spec.variant,
        cycles=result.elapsed_cycles,
        fence_cycles=result.fence_cycles,
        total_cycles=result.total_cycles,
        checksum=outcome.checksum,
        exit_code=result.exit_code,
        wall_seconds=outcome.wall_seconds or wall,
        fence_origin_cycles=dict(result.fence_cycles_by_origin),
        hot_blocks=_hot_blocks(result),
        **counters,
        **_prefixed("opt", result.opt_stats),
    )


def deterministic_row(row: RunRow) -> RunRow:
    """A copy of ``row`` with the warmth- and host-dependent fields
    zeroed (wall time, translation-cache hit/miss split).

    Everything else in a row is fully determined by its spec, so two
    normalized rows from the same spec compare equal whatever the
    worker layout, cache temperature or host speed — the form the
    determinism tests and the CI warm-vs-cold leg compare.
    """
    return replace(row, wall_seconds=0.0, xlat_hits=0,
                   xlat_misses=0, xlat_disk_hits=0,
                   trace_events=(), trace_epoch_ns=0)


def _enum_fields(run: EnumerationStats) -> dict:
    """EnumerationStats -> the ``enum_*`` RunRow kwargs."""
    return dict(
        enum_candidates_naive=run.candidates_naive,
        enum_executions=run.executions_enumerated,
        enum_rf_pruned=run.rf_options_pruned,
        enum_rf_rejected=(run.rf_rejected_rmw
                          + run.rf_rejected_coherence
                          + run.rf_rejected_precheck),
        enum_consistent=run.consistent,
        enum_symmetry_collapsed=run.symmetry_collapsed,
        enum_co_classes=run.co_classes,
    )


def _litmus_row(spec: LitmusSpec, started: float, work) -> RunRow:
    """The row of one model-checking cell: ``work()`` returns its
    ``payload``.  Behaviour-cache and enumeration counters are
    process-wide, so the cell's share is a before/after delta (a cache
    hit legitimately reports zero enumeration work)."""
    cache_before = behavior_cache_stats()
    enum_before = enumeration_stats()
    payload = work()
    return RunRow(
        benchmark=spec.benchmark,
        variant=spec.variant,
        wall_seconds=time.perf_counter() - started,
        payload=payload,
        **_prefixed("cache", behavior_cache_stats().since(cache_before)),
        **_enum_fields(enumeration_stats().since(enum_before)),
    )


def _run_ablation(spec: LitmusSpec, started: float) -> RunRow:
    from ..core.ablations import run_named_ablation

    return _litmus_row(spec, started, lambda: tuple(
        run_named_ablation(spec.benchmark).broken_tests))


def _behavior_digest(behs: frozenset) -> str:
    """A short, canonical digest of a behaviour set.

    Every shard computes this independently, so equal digests across
    worker layouts (or reductions) certify bit-identical behaviour
    sets without shipping the sets themselves through the pool.
    """
    canonical = sorted(sorted(b) for b in behs)
    return hashlib.sha256(repr(canonical).encode()).hexdigest()[:16]


def _run_verify(spec: LitmusSpec, started: float) -> RunRow:
    """One sharded-verification cell: enumerate the behaviours of one
    litmus test under one model with the requested reduction."""
    from ..core.corpus_large import verify_registry
    from ..core.enumerate import enumerate_behaviors
    from ..core.models import MODEL_BY_NAME

    registry = verify_registry()
    try:
        test = registry[spec.benchmark]
    except KeyError:
        raise ReproError(
            f"unknown litmus test {spec.benchmark!r}; expected one of "
            f"{sorted(registry)}") from None
    model_name = spec.model or "x86-tso"
    try:
        model = MODEL_BY_NAME[model_name]
    except KeyError:
        raise ReproError(
            f"unknown model {model_name!r}; expected one of "
            f"{sorted(MODEL_BY_NAME)}") from None

    def work() -> tuple:
        behs = enumerate_behaviors(test.program, model,
                                   limit=spec.enum_limit,
                                   reduction=spec.reduction)
        return (_behavior_digest(behs), len(behs))

    return _litmus_row(spec, started, work)


def _run_scheme(spec: LitmusSpec, started: float) -> RunRow:
    """One scheme-matrix cell: Theorem-1 check of a derived mapping
    scheme (× RMW lowering) over the full x86 litmus corpus.

    ``payload`` is ``(ok, expected_ok, tests_checked, *broken)`` —
    the CLI gate compares the first two and names the rest.
    """
    from ..core.litmus_library import X86_CORPUS
    from ..core.models import ARM, X86
    from ..core.mappings import SCHEME_EXPECTED, SCHEME_MAPPINGS
    from ..core.verifier import check_corpus

    mapping_name = f"most-{spec.benchmark}-{spec.rmw_lowering}"
    try:
        mapping = SCHEME_MAPPINGS[mapping_name]
    except KeyError:
        raise ReproError(
            f"unknown scheme mapping {mapping_name!r}; expected one "
            f"of {sorted(SCHEME_MAPPINGS)}") from None

    def work() -> tuple:
        report = check_corpus(X86_CORPUS, mapping, X86, ARM,
                              limit=spec.enum_limit)
        broken = tuple(v.test_name for v in report.verdicts if not v.ok)
        return (report.ok, SCHEME_EXPECTED[mapping_name],
                len(report.verdicts)) + broken

    return _litmus_row(spec, started, work)


#: The model-checking kinds: kind -> ``function(spec, started)``.
_LITMUS_KINDS = {
    "ablation": _run_ablation,
    "verify": _run_verify,
    "scheme": _run_scheme,
}


def run_job_row(job: JobSpec, *, library=None
                ) -> tuple[RunRow, WorkloadResult]:
    """Validate one machine job, run it, and return its row with the
    full outcome — the path under both :func:`execute_spec` and
    ``api.submit``.  ``library`` overrides the registry lookup (see
    :func:`~.runner.run_workload`)."""
    job.validate()
    started = time.perf_counter()
    outcome = run_workload(job, library=library)
    wall = time.perf_counter() - started
    return _row_from_workload(job, outcome, wall), outcome


def execute_spec(spec: JobSpec | LitmusSpec) -> RunRow:
    """Worker entry point: run one cell in-process, return its row."""
    if isinstance(spec, LitmusSpec):
        return _LITMUS_KINDS[spec.kind](spec, time.perf_counter())
    row, _ = run_job_row(spec)
    return row


@dataclass(frozen=True)
class RunFailure:
    """One run that died in a worker, with enough identity to rerun it.

    Crossing the pool boundary as a plain record (rather than the
    exception itself) keeps the failure picklable whatever the worker
    raised, and lets the sweep keep its other rows.  ``code`` is the
    :data:`repro.errors.ERROR_CODES` taxonomy code, so sweep failures
    and serve error responses classify identically.
    """

    kind: str
    benchmark: str
    variant: str
    seed: int
    error: str
    code: str = "internal"

    def __str__(self) -> str:
        return (f"{self.kind}:{self.benchmark}/{self.variant}"
                f" (seed {self.seed}): [{self.code}] {self.error}")


def _pool_entry(spec: JobSpec | LitmusSpec):
    """What actually runs in the worker: a row, or a failure record.

    With tracing enabled the run is wrapped in one ``run.spec`` span
    and every event it recorded travels back on the row, so the parent
    can merge per-worker streams into a single sweep-wide trace.
    """
    tracer = get_tracer()
    start = None
    if tracer.enabled:
        # Forked workers inherit the parent tracer object verbatim —
        # restamp the pid so this worker's events land in its own lane.
        tracer.pid = os.getpid()
        start = len(tracer.events)
        span = tracer.span("run.spec", cat="sweep", kind=spec.kind,
                           benchmark=spec.benchmark,
                           variant=spec.variant, seed=spec.seed)
    try:
        if start is None:
            return execute_spec(spec)
        with span:
            row = execute_spec(spec)
    except Exception as exc:  # noqa: BLE001 - the boundary by design
        info = classify_error(exc)
        return RunFailure(
            kind=spec.kind,
            benchmark=spec.benchmark,
            variant=spec.variant,
            seed=spec.seed,
            error=info.message,
            code=info.code,
        )
    row.trace_events = tuple(dict(e) for e in tracer.events[start:])
    row.trace_epoch_ns = tracer.epoch_ns
    return row


def default_workers() -> int:
    """The pool size: ``REPRO_WORKERS`` if set, else the CPU count."""
    env = os.environ.get("REPRO_WORKERS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ReproError(
                f"REPRO_WORKERS={env!r} is not an integer") from None
    return os.cpu_count() or 1


@dataclass
class SweepResult:
    """All rows of one sweep plus harness-level observability."""

    rows: list[RunRow] = field(default_factory=list)
    wall_seconds: float = 0.0
    workers: int = 1
    #: Specs that died in a worker; the surviving rows keep submission
    #: order, so partial sweeps stay deterministic and comparable.
    failures: list[RunFailure] = field(default_factory=list)

    def __iter__(self):
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def raise_failures(self) -> None:
        """Raise a :class:`ReproError` naming every failed spec."""
        if self.failures:
            detail = "; ".join(str(f) for f in self.failures)
            raise ReproError(
                f"{len(self.failures)} of "
                f"{len(self.rows) + len(self.failures)} sweep runs "
                f"failed: {detail}")


def run_parallel(specs, workers: int | None = None,
                 strict: bool = False) -> SweepResult:
    """Execute every spec, fanning out over a process pool.

    Rows come back in the order of ``specs`` regardless of completion
    order, and each run is fully determined by its spec (fresh machine,
    spec-owned seed), so the result table is identical for any worker
    count — the determinism contract the figure harnesses rely on.

    A run that raises in its worker does not lose the sweep: it is
    recorded in :attr:`SweepResult.failures` with the identity needed
    to rerun it (kind, benchmark, variant, seed).  ``strict=True``
    converts any failure into a :class:`ReproError` after the whole
    sweep has drained, so one bad cell still cannot cancel the rest.
    """
    specs = list(specs)
    workers = default_workers() if workers is None else max(1, workers)
    workers = min(workers, len(specs)) or 1
    started = time.perf_counter()
    tracer = get_tracer()
    with tracer.span("sweep.run_parallel", cat="sweep",
                     specs=len(specs), workers=workers):
        if workers == 1:
            outcomes = [_pool_entry(spec) for spec in specs]
        else:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                outcomes = list(pool.map(_pool_entry, specs))
    rows = [o for o in outcomes if isinstance(o, RunRow)]
    failures = [o for o in outcomes if isinstance(o, RunFailure)]
    if tracer.enabled and workers > 1:
        # Serial sweeps record straight into this tracer; pooled
        # sweeps ship each worker's events back on the rows.  Rebase
        # them here (perf_counter_ns is one shared monotonic clock)
        # so the merged trace shows one aligned lane per worker pid.
        worker_pids = set()
        for row in rows:
            if row.trace_events:
                tracer.merge_events(row.trace_events,
                                    epoch_ns=row.trace_epoch_ns)
                worker_pids.update(e.get("pid")
                                   for e in row.trace_events)
        for pid in sorted(p for p in worker_pids
                          if p and p != tracer.pid):
            tracer.process_metadata(pid, f"repro-worker-{pid}")
    if tracer.enabled:
        tracer.counter("sweep.outcomes", rows=len(rows),
                       failures=len(failures))
    result = SweepResult(rows=rows,
                         wall_seconds=time.perf_counter() - started,
                         workers=workers,
                         failures=failures)
    if strict:
        result.raise_failures()
    return result
