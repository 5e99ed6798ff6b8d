"""The multicore host machine: cores + shared memory + global clock.

Execution is event-driven on the cycle clock: at every step, the
runnable core with the smallest cycle count executes one instruction,
so cores progress "in parallel" against a single global timeline — the
machine's elapsed time is the max core clock, and cross-core effects
(coherence transfers, store-buffer drains) land at plausible points in
the interleaving.  The interleaving is deterministic for a given seed.

A step costs its instruction and one pick: the loop draws from
``rng.getrandbits`` exactly what ``rng.choice(window)`` would, without
the calls around each draw (see :meth:`Machine._run_loop`).  A DBT
run unbinds its runtime from the cores when it ends, so a finished
machine is freed by refcount once its owner drops it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from random import Random

from ..errors import MachineError
from ..obs.trace import get_tracer
from .cpu import ArmCore
from .memory import CoherenceTracker, Memory
from .timing import DEFAULT_COSTS, CostModel
from .weakmem import BufferMode

#: Steps between scheduler counter samples when tracing is enabled.
_TRACE_SAMPLE_STEPS = 4096


@dataclass
class Machine:
    """A simulated Arm host with ``n_cores`` cores."""

    n_cores: int = 4
    costs: CostModel = DEFAULT_COSTS
    buffer_mode: BufferMode = BufferMode.WEAK
    seed: int = 42
    track_coherence: bool = True
    spurious_failure_rate: float = 0.0
    #: Scheduling jitter window (cycles): any runnable core within this
    #: window of the global minimum may be picked next.  Models the
    #: micro-timing noise real cores have; litmus stress needs it to
    #: expose racy windows.
    jitter: int = 24

    memory: Memory = field(default_factory=Memory)
    cores: list[ArmCore] = field(default_factory=list)

    def __post_init__(self):
        self.rng = Random(self.seed)
        self.coherence = CoherenceTracker() if self.track_coherence \
            else None
        #: host pc -> fence provenance tag, shared by every core (the
        #: DBT engine registers entries as it installs blocks).
        self.fence_origins: dict[int, str] = {}
        for i in range(self.n_cores):
            self.cores.append(ArmCore(
                core_id=i,
                memory=self.memory,
                costs=self.costs,
                coherence=self.coherence,
                buffer_mode=self.buffer_mode,
                rng=Random(self.seed * 1000 + i),
                spurious_failure_rate=self.spurious_failure_rate,
                fence_origins=self.fence_origins,
            ))

    # ------------------------------------------------------------------
    def core(self, core_id: int) -> ArmCore:
        return self.cores[core_id]

    def run(self, max_steps: int = 50_000_000) -> int:
        """Run until every core halts; returns total steps executed."""
        tracer = get_tracer()
        with tracer.span("machine.run", cat="machine",
                         n_cores=self.n_cores):
            steps = self._run_loop(max_steps, tracer)
        for core in self.cores:
            core.drain_buffer()
        return steps

    def _run_loop(self, max_steps: int, tracer) -> int:
        """One step per turn: the cores within ``jitter`` cycles of the
        slowest runnable one form the window (in core order), and
        ``rng`` picks among them — one draw per step, also when the
        window holds a single core, so the stream does not depend on
        how many cores happen to be runnable.

        The pick is ``rng.choice(window)`` written out: CPython's
        ``choice`` draws ``getrandbits(n.bit_length())`` until the
        value is below ``n``, and so does this loop, bit for bit, but
        without the two calls around every draw."""
        steps = 0
        trace_dispatch = tracer.enabled
        cores, jitter = self.cores, self.jitter
        getrandbits = self.rng.getrandbits
        bits = [n.bit_length() for n in range(len(cores) + 1)]
        while True:
            window = []
            low = high = 0
            for core in cores:
                if not core.halted:
                    cycles = core.cycles
                    if not window:
                        low = high = cycles
                    elif cycles < low:
                        low = cycles
                    elif cycles > high:
                        high = cycles
                    window.append(core)
            if not window:
                break
            if steps >= max_steps:
                raise MachineError(
                    f"machine did not quiesce within {max_steps} steps")
            if high - low > jitter:
                limit = low + jitter
                window = [c for c in window if c.cycles <= limit]
            n = len(window)
            k = bits[n]
            r = getrandbits(k)
            while r >= n:
                r = getrandbits(k)
            core = window[r]
            core.step()
            if core.buffer.entries:
                core.maybe_background_drain()
            steps += 1
            if trace_dispatch and steps % _TRACE_SAMPLE_STEPS == 0:
                tracer.counter(
                    "machine.progress", steps=steps,
                    elapsed_cycles=self.elapsed_cycles(),
                    fence_cycles=self.total_fence_cycles())
        return steps

    # ------------------------------------------------------------------
    def elapsed_cycles(self) -> int:
        """Wall-clock of the parallel execution: the max core clock."""
        return max((c.cycles for c in self.cores), default=0)

    def total_cycles(self) -> int:
        """CPU-time view: the sum over cores."""
        return sum(c.cycles for c in self.cores)

    def total_fence_cycles(self) -> int:
        return sum(c.fence_cycles for c in self.cores)

    def total_fence_cycles_by_origin(self) -> dict[str, int]:
        """Fence cycles split by provenance tag, summed over cores.

        Values total exactly :meth:`total_fence_cycles` — each
        executed DMB is charged to one origin bucket.
        """
        merged: dict[str, int] = {}
        for core in self.cores:
            for origin, cycles in core.fence_cycles_by_origin.items():
                merged[origin] = merged.get(origin, 0) + cycles
        return merged

    def total_insns(self) -> int:
        return sum(c.insn_count for c in self.cores)
