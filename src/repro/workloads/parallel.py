"""Parallel evaluation harness: the one process pool.

The paper's evaluation is a large (benchmark × variant) grid and every
run constructs its own fresh :class:`~repro.machine.scheduler.Machine`,
so the sweep is embarrassingly parallel; the server runs the same
cells as jobs, on the same pool:

* the cells — a machine run is a
  :class:`~repro.workloads.jobspec.JobSpec` (kernel spec / library
  call / CAS config, plus variant, seed, costs and step budget), a
  model-checking cell a :class:`LitmusSpec`.  Callables never cross
  the process boundary: libraries and memory setups travel as registry
  names and are rebuilt inside the worker.
* :func:`execute_spec` — runs one cell in-process (raising on
  failure) and returns a flat, picklable :class:`RunRow` that carries
  the figures' quantities *and* the observability counters (wall
  time, translated blocks, optimizer work, fence share, behaviour-cache
  hits/misses).  One function maps a machine outcome to its row, and a
  job result is copied from that row (:func:`run_job_row`).
* :func:`run_cell` — the worker entry: a failed cell is a row carrying
  an :class:`~repro.errors.ErrorInfo`, and the trace events ride on it.
* :class:`JobDispatcher` — the pool, a single-worker
  ``ProcessPoolExecutor`` per slot: a dead worker costs one cell.
* :func:`run_parallel` — a sweep: every spec submitted to one
  dispatcher, rows gathered in submission order.  Every run is seeded
  by its spec, so the result table is bit-identical to a serial sweep
  and independent of the worker count.

The worker count comes from the ``workers`` argument, else the
``REPRO_WORKERS`` environment variable, else ``os.cpu_count()``.
``workers <= 1`` runs the sweep on the dispatcher's inline mode — the
serial, in-process reference of the determinism tests.
"""

from __future__ import annotations

import hashlib
import os
import queue
import threading
import time
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, fields, replace

from ..analysis.stats import RunCounters
from ..core.enumerate import EnumerationStats, behavior_cache_stats, \
    clear_behavior_cache, enumeration_stats
from ..errors import ErrorInfo, JobError, ReproError, classify_error
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
    #: trace_event dicts recorded while this spec ran (empty unless
    #: tracing is enabled).  The dispatcher rebases a worker's onto the
    #: parent tracer's timeline, so a sweep or a server leaves one
    #: merged Chrome trace with a lane per worker pid.
    trace_events: tuple = ()
    #: the worker tracer's ``perf_counter_ns`` epoch, needed to rebase
    #: ``trace_events`` onto another tracer's timeline.
    trace_epoch_ns: int = 0
    #: kind-specific extras (e.g. broken litmus tests of an ablation).
    payload: tuple = ()
    #: why the cell did not complete (``None`` when it did).  Out of
    #: ``repr``, so a completed row prints as its counters alone.
    error: ErrorInfo | None = field(default=None, repr=False)


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

    Everything else in a row that :func:`run_cell` produced is fully
    determined by its spec, so two normalized rows from the same spec
    compare equal whatever the worker layout, cache temperature or
    host speed — the form the determinism tests, the CI warm-vs-cold
    leg and every ``results/*.txt`` stats footer use.
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
    process-wide, so the cell's share is a before/after delta (a memo
    hit legitimately reports zero enumeration work; :func:`run_cell`
    empties the memo first, so there its counters are the spec's)."""
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
    """Run one cell in-process, return its row; raises on failure."""
    if isinstance(spec, LitmusSpec):
        return _LITMUS_KINDS[spec.kind](spec, time.perf_counter())
    row, _ = run_job_row(spec)
    return row


def failed_row(spec: JobSpec | LitmusSpec, error: ErrorInfo,
               wall: float = 0.0) -> RunRow:
    """The row of a cell that did not run to completion."""
    return RunRow(benchmark=spec.benchmark, variant=spec.variant,
                  wall_seconds=wall, error=error)


def run_cell(spec: JobSpec | LitmusSpec, in_worker: bool = False
             ) -> RunRow:
    """The one worker entry: run one cell, return its row — a cell
    that raises is a row carrying its classified error.

    A model-checking cell runs against an empty behaviour memo, so its
    counters depend on its spec alone, not on which cells the process
    (or the parent a worker forked from) ran before.  A direct
    :func:`execute_spec` keeps the memo, and with it the hits a caller
    running many cells in one process is owed.

    With tracing enabled the run is one ``run.spec`` span and the
    events it recorded travel on the row.  A pool worker
    (``in_worker``) also drops them, so a long-lived worker's tracer
    does not grow; inline, they stay in the caller's tracer.
    """
    tracer = get_tracer()
    if in_worker and tracer.enabled:
        # Forked workers inherit the parent tracer object verbatim —
        # restamp the pid so this worker's events land in its own lane.
        tracer.pid = os.getpid()
    start = len(tracer.events)
    if isinstance(spec, LitmusSpec):
        clear_behavior_cache()
    started = time.perf_counter()
    try:
        with tracer.span("run.spec", cat="sweep", kind=spec.kind,
                         benchmark=spec.benchmark,
                         variant=spec.variant, seed=spec.seed):
            row = execute_spec(spec)
    except Exception as exc:  # noqa: BLE001 - the boundary by design
        row = failed_row(spec, classify_error(exc),
                         time.perf_counter() - started)
    if tracer.enabled:
        row.trace_events = tuple(dict(e) for e in tracer.events[start:])
        row.trace_epoch_ns = tracer.epoch_ns
        if in_worker:
            del tracer.events[start:]
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


class _Pending(Future):
    """One queued cell, resolving to its :class:`RunRow`;
    ``queue_seconds`` is its wait for a worker."""

    def __init__(self, spec: JobSpec | LitmusSpec):
        super().__init__()
        self.spec = spec
        self.enqueued_at = time.perf_counter()
        self.queue_seconds = 0.0


class JobDispatcher:
    """The process pool: one thread hands queued cells, in arrival
    order, to free worker slots, so the queue is the only place a cell
    waits.  ``submit`` returns a future of the cell's :class:`RunRow`.

    Each slot is its own single-worker ``ProcessPoolExecutor``: a dead
    worker breaks only its slot, the cell it held comes back as a
    retryable ``unavailable`` row, and the slot is rebuilt before its
    next cell.  ``workers=0`` runs every cell inline in the dispatcher
    thread — the serial, in-process reference.
    """

    _SHUTDOWN = object()

    def __init__(self, *, workers: int | None = None):
        self.workers = default_workers() if workers is None \
            else max(0, workers)
        self.jobs_dispatched = 0
        self._queue: queue.Queue = queue.Queue()
        #: one pool per worker, built on first use and after a death.
        self._slots: list = [None] * self.workers
        self._idle: queue.SimpleQueue = queue.SimpleQueue()
        for slot in range(max(1, self.workers)):
            self._idle.put(slot)
        #: makes the closed check and the enqueue one step with close.
        self._lock = threading.Lock()
        self._closed = False
        self._trace_pids: set = set()
        self._thread = threading.Thread(
            target=self._dispatch_loop, name="repro-dispatch",
            daemon=True)
        self._thread.start()

    # ------------------------------------------------------------------
    def submit(self, spec: JobSpec | LitmusSpec) -> Future:
        with self._lock:
            if self._closed:
                raise JobError("dispatcher is shut down")
            pending = _Pending(spec)
            self._queue.put(pending)
        return pending

    def close(self) -> None:
        """Run every cell submitted so far, then stop the workers."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._queue.put(self._SHUTDOWN)
        self._thread.join()
        for _ in range(max(1, self.workers)):
            self._idle.get()  # every slot has delivered its last cell
        for pool in self._slots:
            if pool is not None:
                pool.shutdown()

    # ------------------------------------------------------------------
    def _dispatch_loop(self) -> None:
        while (pending := self._queue.get()) is not self._SHUTDOWN:
            if not pending.set_running_or_notify_cancel():
                continue
            slot = self._idle.get()
            pending.queue_seconds = time.perf_counter() \
                - pending.enqueued_at
            self.jobs_dispatched += 1
            if self.workers:
                self._dispatch(slot, pending)
            else:
                self._idle.put(slot)
                self._deliver(pending, run_cell(pending.spec))

    def _pool(self, slot: int):
        if self._slots[slot] is None:
            self._slots[slot] = ProcessPoolExecutor(max_workers=1)
        return self._slots[slot]

    def _dispatch(self, slot: int, pending: _Pending) -> None:
        try:
            try:
                task = self._pool(slot).submit(run_cell, pending.spec,
                                               True)
            except BrokenProcessPool:
                # The slot's worker died, holding its last cell or idle:
                # this cell never reached it, so it goes to a fresh one.
                self._slots[slot] = None
                task = self._pool(slot).submit(run_cell, pending.spec,
                                               True)
        except Exception as exc:  # noqa: BLE001 - pool creation died
            self._idle.put(slot)
            self._deliver(pending, failed_row(pending.spec,
                                              classify_error(exc)))
            return
        task.add_done_callback(
            lambda task, s=slot, p=pending: self._on_done(task, s, p))

    def _on_done(self, task: Future, slot: int, pending: _Pending
                 ) -> None:
        try:
            row = task.result()
        except BrokenProcessPool as exc:
            # The worker died holding this cell.  Only this slot is
            # lost; ``_dispatch`` rebuilds it.  Not here: a broken pool
            # runs this callback under its own shutdown lock (Python
            # 3.12), so touching or freeing the pool would deadlock.
            row = failed_row(pending.spec, ErrorInfo(
                "unavailable", classify_error(exc).message, True))
        except Exception as exc:  # noqa: BLE001 - boundary
            row = failed_row(pending.spec, classify_error(exc))
        self._idle.put(slot)
        self._deliver(pending, row)

    def _deliver(self, pending: _Pending, row: RunRow) -> None:
        tracer = get_tracer()
        if self.workers and tracer.enabled and row.trace_events:
            # perf_counter_ns is one shared monotonic clock: rebased,
            # each worker's spans line up in one lane per pid.
            tracer.merge_events(row.trace_events,
                                epoch_ns=row.trace_epoch_ns)
            with self._lock:
                pids = {e.get("pid") for e in row.trace_events} \
                    - self._trace_pids - {None, tracer.pid}
                self._trace_pids |= pids
            for pid in sorted(pids):
                tracer.process_metadata(pid, f"repro-worker-{pid}")
        pending.set_result(row)


@dataclass
class SweepResult:
    """All rows of one sweep plus harness-level observability."""

    rows: list[RunRow] = field(default_factory=list)
    wall_seconds: float = 0.0
    workers: int = 1
    #: ``(spec, error)`` of every cell that failed, enough to rerun
    #: it; the surviving rows keep submission order, so partial sweeps
    #: stay deterministic and comparable.
    failures: list[tuple] = field(default_factory=list)

    def __iter__(self):
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def failure_lines(self) -> list[str]:
        """One ``kind:benchmark/variant (seed N): [code] message``
        line per failed cell."""
        return [f"{spec.kind}:{spec.benchmark}/{spec.variant}"
                f" (seed {spec.seed}): [{error.code}] {error.message}"
                for spec, error in self.failures]

    def raise_failures(self) -> None:
        """Raise a :class:`ReproError` naming every failed spec."""
        if self.failures:
            detail = "; ".join(self.failure_lines())
            raise ReproError(
                f"{len(self.failures)} of "
                f"{len(self.rows) + len(self.failures)} sweep runs "
                f"failed: {detail}")


def run_parallel(specs, workers: int | None = None,
                 strict: bool = False) -> SweepResult:
    """Execute every spec as a job on one :class:`JobDispatcher`
    (``workers <= 1``: its inline mode).

    Rows come back in the order of ``specs`` regardless of completion
    order, and each run is fully determined by its spec (fresh machine,
    spec-owned seed), so the result table is identical for any worker
    count — the determinism contract the figure harnesses rely on.

    A cell that fails, by raising or by killing its worker, is recorded
    in :attr:`SweepResult.failures` with its spec.  ``strict=True``
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
        dispatcher = JobDispatcher(workers=0 if workers == 1 else workers)
        futures = []
        try:
            futures = [dispatcher.submit(spec) for spec in specs]
            outcomes = [future.result() for future in futures]
        finally:
            for future in futures:
                future.cancel()  # an interrupted sweep runs no more
            dispatcher.close()
    rows = [row for row in outcomes if row.error is None]
    failures = [(spec, row.error) for spec, row in zip(specs, outcomes)
                if row.error is not None]
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
