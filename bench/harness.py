"""Measurement plumbing shared by the five benchmark workloads.

Three things live here, all owned by ``bench/`` so that nothing under
``src/`` has to change for the benchmark to exist:

* :class:`Recorder` — in-memory spans with per-layer *self* time (a
  span's duration minus the part its child spans cover) and counts
  taken at the same boundaries;
* :func:`instrument` — the traced pass's only mechanism: it rebinds
  each layer's public entry point (a class or module attribute) to a
  wrapper that opens a span, and restores every binding on exit, so
  untraced passes run the program exactly as shipped;
* :class:`Workload` — the set-up / timed-pass / check protocol and the
  loop that fills ``--seconds`` with passes.
"""

from __future__ import annotations

import json
import math
import os
import resource
import time
from statistics import median
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path

#: The checkout the benchmark runs in (``bench/`` is one level down).
ROOT = Path(__file__).resolve().parent.parent
#: Everything a run writes (temp caches, traces, reports) goes here.
OUT_DIR = ROOT / ".bench_out"

#: Every layer a span may be charged to; ``harness`` is the root span
#: of a pass, so its self time is what no layer accounts for.
LAYERS = ("loader", "engine", "frontend", "optimizer", "backend",
          "install", "xlat_cache.key", "xlat_cache.get",
          "xlat_cache.put", "superblock", "machine", "enumerate",
          "verifier", "harness")


def geomean(values) -> float:
    xs = list(values)
    return math.exp(sum(math.log(x) for x in xs) / len(xs))


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
class _Span:
    __slots__ = ("rec", "layer", "start", "child_ns")

    def __init__(self, rec: "Recorder", layer: str):
        self.rec = rec
        self.layer = layer

    def __enter__(self):
        self.child_ns = 0
        self.rec._stack.append(self)
        self.start = time.perf_counter_ns()
        return self

    def __exit__(self, *exc):
        dur = time.perf_counter_ns() - self.start
        rec = self.rec
        stack = rec._stack
        stack.pop()
        rec.self_ns[self.layer] += dur - self.child_ns
        parent = stack[-1] if stack else None
        if parent is not None:
            parent.child_ns += dur
        rec.events.append((self.layer, self.start, dur,
                           parent.layer if parent else ""))
        return False


class Recorder:
    """Spans of one traced pass, kept in memory until the run ends."""

    def __init__(self):
        self.epoch_ns = time.perf_counter_ns()
        #: (layer, start_ns, dur_ns, parent layer) per closed span.
        self.events: list[tuple[str, int, int, str]] = []
        self.self_ns: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[_Span] = []

    def span(self, layer: str) -> _Span:
        return _Span(self, layer)

    def self_seconds(self) -> dict[str, float]:
        return {layer: self.self_ns.get(layer, 0) / 1e9
                for layer in LAYERS}

    def chrome_events(self) -> list[dict]:
        """The spans as Chrome ``trace_event`` complete events — the
        shape :func:`repro.obs.trace.validate_chrome_trace` accepts."""
        pid = os.getpid()
        return [{
            "name": layer, "ph": "X", "cat": "bench",
            "ts": (start - self.epoch_ns) / 1000.0,
            "dur": dur / 1000.0, "pid": pid, "tid": 0,
            "args": {"parent": parent},
        } for layer, start, dur, parent in self.events]


def root_span(rec: Recorder | None):
    """The ``harness`` span a pass opens around exactly what it times
    (nothing when the pass is not traced)."""
    return rec.span("harness") if rec is not None else nullcontext()


def write_chrome_trace(path: Path, events: list[dict]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({
        "traceEvents": events, "displayTimeUnit": "ms",
        "otherData": {"producer": "bench"}}))


def _spanned(rec: Recorder, layer: str, fn, after=None):
    """``fn`` inside a ``layer`` span; ``after(counts, result)`` takes
    the counts at the same boundary."""
    def wrapper(*args, **kwargs):
        with rec.span(layer):
            result = fn(*args, **kwargs)
        if after is not None:
            after(rec.counts, result)
        return result
    return wrapper


def _spanned_generator(rec: Recorder, layer: str, fn):
    """As :func:`_spanned` for a generator function: the span covers
    the iteration, which is where a generator does its work."""
    def wrapper(*args, **kwargs):
        with rec.span(layer):
            yield from fn(*args, **kwargs)
    return wrapper


def _count_frontend(counts, block) -> None:
    counts["frontend.blocks"] += 1
    counts["frontend.guest_insns"] += block.guest_insns
    counts["frontend.tcg_ops"] += len(block.ops)


def _count_backend(counts, compiled) -> None:
    counts["backend.host_insns_emitted"] += sum(
        1 for line in compiled.asm.splitlines()
        if line.strip() and not line.rstrip().endswith(":"))


@contextmanager
def instrument(rec: Recorder):
    """Rebind every layer's public entry point to a span wrapper for
    the duration of the block (the traced pass only)."""
    from repro.core import dpor, enumerate as enum, verifier
    from repro.dbt import engine as engine_mod
    from repro.dbt.xlat_cache import XlatCache
    from repro.machine.scheduler import Machine
    from repro.tcg.backend_arm import ArmBackend
    from repro.tcg.frontend_x86 import X86Frontend
    from repro.workloads import runner

    saved: list[tuple[object, str, object]] = []

    def rebind(owner, name: str, wrapped) -> None:
        saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapped)

    def span(owner, name: str, layer: str, after=None) -> None:
        rebind(owner, name,
               _spanned(rec, layer, getattr(owner, name), after))

    # The optimizer mutates the block in place and returns its stats,
    # so the op count after it has to be read off the argument.
    plain_optimize = engine_mod.optimize

    def optimize(block, config=None):
        with rec.span("optimizer"):
            stats = plain_optimize(block, config)
        counts = rec.counts
        counts["optimizer.tcg_ops_out"] += len(block.ops)
        counts["optimizer.folded"] += stats.folded
        counts["optimizer.mem_eliminated"] += stats.mem_eliminated
        counts["optimizer.fences_merged"] += stats.fences_merged
        return stats

    # Translators are instance attributes the engine sets on its
    # runtime, so they are rebound right after each engine is built.
    # A translator span's self time is what is left once key/get/put
    # and the compile pipeline are subtracted: the install.
    plain_init = engine_mod.DBTEngine.__init__

    def engine_init(self, *args, **kwargs):
        with rec.span("engine"):
            plain_init(self, *args, **kwargs)
        runtime = self.runtime
        runtime.translator = _spanned(rec, "install",
                                      runtime.translator)
        if runtime.trace_translator is not None:
            runtime.trace_translator = _spanned(
                rec, "superblock", runtime.trace_translator)
        plain_alloc = runtime.alloc_code

        def alloc_code(size: int) -> int:
            rec.counts["install.host_code_bytes"] += size
            return plain_alloc(size)
        runtime.alloc_code = alloc_code

    span(runner, "build_binary", "loader")
    span(runner, "assemble_arm", "loader")
    rebind(engine_mod.DBTEngine, "__init__", engine_init)
    span(engine_mod.NativeRunner, "__init__", "engine")
    span(X86Frontend, "translate_block", "frontend", _count_frontend)
    rebind(engine_mod, "optimize", optimize)
    span(ArmBackend, "compile_block", "backend", _count_backend)
    span(XlatCache, "key_for", "xlat_cache.key")
    span(XlatCache, "trace_key_for", "xlat_cache.key")
    span(XlatCache, "get", "xlat_cache.get")
    span(XlatCache, "put", "xlat_cache.put")
    span(Machine, "run", "machine")
    span(dpor, "reduced_behaviors", "enumerate")
    rebind(enum, "enumerate_consistent", _spanned_generator(
        rec, "enumerate", enum.enumerate_consistent))
    span(verifier, "behaviors", "enumerate")
    span(verifier, "check_corpus", "verifier")
    try:
        yield rec
    finally:
        for owner, name, original in reversed(saved):
            setattr(owner, name, original)


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------
@dataclass
class Checks:
    """Correctness outcomes of a run: one entry per operation checked
    against its reference, failed ones kept by name."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    def merge(self, other: "Checks") -> None:
        self.attempted += other.attempted
        self.failures.extend(other.failures)

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def failed_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


# ----------------------------------------------------------------------
# The pass loop
# ----------------------------------------------------------------------
@dataclass
class PassResult:
    """One timed pass over a workload's inputs."""

    #: ``perf_counter`` readings around the part whose wall counts.
    start: float
    end: float
    #: the same around each operation, in execution order.
    ops: list[tuple[float, float]]
    #: units of the workload's work done (see ``ops_per_s``).
    work: float
    checks: Checks
    #: count-type layer metrics, deterministic per seed.
    counts: dict[str, float] = field(default_factory=dict)
    #: simulated-clock totals, deterministic per seed.
    sim: dict[str, float] = field(default_factory=dict)
    #: set on traced passes only.
    recorder: Recorder | None = None

    @property
    def wall_s(self) -> float:
        return self.end - self.start


class Workload:
    """A workload sets up once, then runs timed passes.

    ``setup`` builds inputs, fills caches and runs a small warm-up so
    that imports and lazy initialisation are paid before timing; it
    may be called several times (``setup_repeats``) and its median is
    the workload's part of ``setup_s``.
    """

    name = ""
    setup_repeats = 3
    #: ``wall_s`` is the sum of the operations' times (the program's
    #: share of a pass); where operations overlap it is the pass's.
    wall_is_sum_of_ops = True

    def __init__(self, seed: int, smoke: bool, tmp: Path):
        self.seed = seed
        self.smoke = smoke
        self.tmp = tmp
        #: seconds spent assembling guest inputs during set-up.
        self.loader_s = 0.0

    def setup(self) -> None:
        raise NotImplementedError

    def one_pass(self, rec: Recorder | None) -> PassResult:
        raise NotImplementedError

    def teardown(self) -> None:
        pass

    def peak_rss_mb(self) -> float:
        """Of the process that ran the program under test."""
        return resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def chrome_events(self) -> list[dict]:
        """Trace events beyond the median traced pass's spans."""
        return []

    # ------------------------------------------------------------------
    def timed_pass(self, traced: bool) -> PassResult:
        """One pass; a traced one runs under :func:`instrument`."""
        if not traced:
            return self.one_pass(None)
        rec = Recorder()
        with instrument(rec):
            result = self.one_pass(rec)
        result.recorder = rec
        return result

    def measure(self, seconds: float, trace: bool) -> "Measurement":
        """Fill ``seconds`` with passes.  With ``trace`` every second
        pass is traced, so both kinds see the same machine state."""
        deadline = time.perf_counter() + seconds
        plain: list[PassResult] = []
        traced: list[PassResult] = []
        longest = 0.0
        while True:
            want_traced = trace and len(plain) > len(traced)
            result = self.timed_pass(want_traced)
            (traced if want_traced else plain).append(result)
            longest = max(longest, result.wall_s)
            done = bool(plain) and (bool(traced) or not trace)
            if done and time.perf_counter() + longest > deadline:
                break
        return Measurement(plain, traced)


@dataclass
class Measurement:
    plain: list[PassResult]
    traced: list[PassResult]
    #: untraced counterparts of the traced passes, where those are
    #: not ``plain`` itself.
    untraced: list[PassResult] = field(default_factory=list)

    @property
    def passes(self) -> list[PassResult]:
        return self.plain + self.traced

    def checks(self) -> Checks:
        total = Checks()
        for result in self.passes:
            total.merge(result.checks)
        return total

    def op_times(self, speed) -> list[float]:
        """Reference seconds of each operation: its median over the
        untraced passes, which all run the same operations in the
        same order.  A burst of host noise slows different operations
        in different passes, so this is steadier than any one pass.
        """
        return [median(column) for column in zip(*(
            [speed.reference_seconds(start, end)
             for start, end in result.ops]
            for result in self.plain))]

    def median_traced(self) -> PassResult:
        """The traced pass whose wall is the (lower) median, so the
        layer times reported are those of one real pass and sum to
        its wall exactly."""
        ranked = sorted(self.traced, key=lambda r: r.wall_s)
        return ranked[(len(ranked) - 1) // 2]
