"""The DBT execution engine (Figure 4's execution loop).

``DBTEngine`` wires the pipeline together: guest x86 bytes are decoded
by the frontend into TCG IR (with the configured fence scheme),
optimized, lowered to Arm by the backend, encoded once into a
relocatable form, placed in the code cache, and executed by the
simulated host machine.  Translation happens lazily at dispatch time
and blocks are cached — QEMU's translate-execute loop.  Only placement
(``_install``) runs per engine; the rest is shared through the
translation cache.

``NativeRunner`` executes Arm-native builds of a workload directly on
the same machine and syscall layer: the "native" bars of Figures 12-14.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import TranslationError
from ..isa.arm.assembler import as_decoded
from ..machine.scheduler import Machine
from ..machine.timing import CostModel, DEFAULT_COSTS
from ..machine.weakmem import BufferMode
from ..obs.trace import get_tracer
from ..tcg.backend_arm import ArmBackend, CompiledBlock
from ..tcg.frontend_x86 import X86Frontend
from ..tcg.optimizer import OptStats, inline_helpers_pass, optimize
from ..tcg.superblock import stitch_trace
from .config import DBTConfig, RISOTTO, Tier2Config
from .runtime import Runtime, RunStats, guest_reg
from .xlat_cache import DECODE_WINDOW, XlatCache, config_fingerprint


@dataclass
class RunResult:
    """Everything a benchmark needs from one run."""

    elapsed_cycles: int
    total_cycles: int
    fence_cycles: int
    host_insns: int
    stats: RunStats
    opt_stats: OptStats
    exit_code: int
    output: list[int] = field(default_factory=list)
    #: Fence cycles split by provenance tag (mapping rule or optimizer
    #: decision); values sum exactly to ``fence_cycles``.
    fence_cycles_by_origin: dict[str, int] = field(default_factory=dict)
    #: Hot-block profile: guest pc -> (dispatches, attributed cycles).
    #: ``None`` means the run did not track a profile at all (native
    #: runs execute no translated blocks), which is distinct from an
    #: empty dict ("tracked, but nothing dispatched") — bench exports
    #: surface the difference as an explicit null.
    block_profile: dict[int, tuple[int, int]] | None = None

    @property
    def fence_share(self) -> float:
        """Fraction of cpu time spent in DMB fences."""
        if self.total_cycles == 0:
            return 0.0
        return self.fence_cycles / self.total_cycles


class _Engine:
    """The machine, runtime and run loop both engines share."""

    def __init__(self, machine: Machine | None, n_cores: int,
                 costs: CostModel | None, seed: int,
                 buffer_mode: BufferMode):
        # buffer_mode must reach the Machine for every engine alike:
        # the native bars are the reference the DBT variants are
        # divided by, so running them under a different memory setup
        # skews every relative-runtime figure.
        self.machine = machine or Machine(
            n_cores=n_cores, costs=costs or DEFAULT_COSTS, seed=seed,
            buffer_mode=buffer_mode)
        self.runtime = Runtime(self.machine)
        self.opt_stats = OptStats()

    def load_image(self, base: int, code: bytes) -> None:
        """Map guest code/data into the shared address space."""
        self.machine.memory.add_image(base, code)

    def run(self, entry_pc: int,
            max_steps: int = 50_000_000) -> RunResult:
        """Run from ``entry_pc`` until every core halts.  An engine
        runs once: when this returns or raises, the runtime is
        unbound from the cores."""
        try:
            main = self.runtime.start_main_thread(entry_pc)
            self.machine.run(max_steps=max_steps)
            return RunResult(
                elapsed_cycles=self.machine.elapsed_cycles(),
                total_cycles=self.machine.total_cycles(),
                fence_cycles=self.machine.total_fence_cycles(),
                host_insns=self.machine.total_insns(),
                stats=self.runtime.stats,
                opt_stats=self.opt_stats,
                exit_code=self.runtime.threads[main.tid].exit_code,
                output=self.runtime.stats.output,
                fence_cycles_by_origin=(
                    self.machine.total_fence_cycles_by_origin()),
                # Native code runs no translated blocks, so there is no
                # profile to track — an explicit None (not an empty dict)
                # tells consumers "not tracked" rather than "no hot blocks".
                block_profile=None if self.runtime.native_mode
                else self.runtime.block_profile_snapshot(),
            )
        finally:
            # Traps, the svc handler, the translators and the PLT
            # thunks close over the runtime or the engine, and both
            # reach the cores: unbinding them breaks every reference
            # cycle, so a finished run is freed by refcount.
            for core in self.machine.cores:
                core.traps = {}
                core.svc_handler = None
            self.runtime.translator = self.runtime.trace_translator = None
            self.runtime.plt_thunks = {}


class DBTEngine(_Engine):
    """Translate-and-execute a guest x86 program on the Arm machine.

    ``tier2=None`` (the default) keeps tier-2 off; a
    :class:`~repro.dbt.config.Tier2Config` turns superblock promotion
    on at its threshold, and ``xlat_cache`` is the translation cache
    to use (``None``, the default, translates every block afresh;
    ``runner._make_engine`` hands in the job's).  Nothing but the
    arguments configures a run.
    """

    def __init__(self, config: DBTConfig = RISOTTO,
                 machine: Machine | None = None,
                 n_cores: int = 4,
                 costs: CostModel | None = None,
                 seed: int = 42,
                 buffer_mode: BufferMode = BufferMode.WEAK,
                 xlat_cache: XlatCache | None = None,
                 tier2: Tier2Config | None = None):
        super().__init__(machine, n_cores, costs, seed, buffer_mode)
        self.config = config
        self.runtime.translator = self._translate
        self.tier2 = tier2
        if tier2 is not None:
            self.runtime.tier2 = tier2
            self.runtime.trace_translator = self._translate_trace
        self.frontend = X86Frontend(config.frontend)
        self.backend = ArmBackend()
        self.xlat_cache = xlat_cache
        # The key prefix is config-dependent but block-independent, so
        # hash it once per engine rather than once per block.
        self._config_fp = config_fingerprint(config) \
            if self.xlat_cache is not None else ""
        self._key_window = \
            config.frontend.block_insn_limit * DECODE_WINDOW
        self._helper_traps: dict[tuple, int] = {}
        self._dispatch_traps = {
            True: self.runtime.make_dispatch_trap(direct=True),
            False: self.runtime.make_dispatch_trap(direct=False),
        }

    # ------------------------------------------------------------------
    def _trap_for(self, helper: str, arg_regs: tuple[str, ...],
                  ret_reg: str | None, direct: bool) -> int:
        if helper == "dispatch":
            return self._dispatch_traps[direct]
        key = (helper, arg_regs, ret_reg)
        addr = self._helper_traps.get(key)
        if addr is None:
            addr = self.runtime.make_helper_trap(helper, arg_regs,
                                                 ret_reg)
            self._helper_traps[key] = addr
        return addr

    def _cached(self, key_of, compile, hit_event: str, pc: int,
                tracer):
        """The cacheable part of translation, blocks and traces alike:
        ``(CompiledBlock, OptStats, source)``.

        A hit returns the artifact with the exact ``OptStats`` the
        optimizer produced for it, and ``source`` names the tier that
        served it.  A miss (also when ``key_of(cache)`` is ``None``:
        an unmapped pc, for the frontend to report) runs ``compile()``
        and stores a non-``None`` artifact; ``source`` is ``None``.
        """
        cache = self.xlat_cache
        key = None if cache is None else key_of(cache)
        if key is not None:
            hit = cache.get(key)
            if hit is not None:
                if tracer.enabled:
                    tracer.instant(hit_event, cat="dbt", pc=pc,
                                   source=hit.source)
                return hit.compiled, hit.opt_stats, hit.source
        compiled, stats = compile()
        if key is not None and compiled is not None:
            cache.put(key, compiled, stats)
        return compiled, stats, None

    def _translate(self, guest_pc: int) -> int:
        """Translate one guest block; returns its host address.

        With the translation cache enabled, a content-fingerprint hit
        skips frontend, optimizer and backend entirely — only
        ``_install`` runs, binding this engine's trap addresses into
        the stored relocatable artifact.  The simulated guest pays the
        same dispatch cost either way, so results are bit-identical.
        The RunStats xlat counters track tier-1 blocks only, so their
        hits + misses == ``blocks_translated``.
        """
        tracer = get_tracer()
        stats = self.runtime.stats
        with tracer.span("dbt.translate", cat="dbt", pc=guest_pc):
            compiled, opt, source = self._cached(
                lambda cache: cache.key_for(
                    self.machine.memory, guest_pc, self._config_fp,
                    self._key_window),
                lambda: self._compile_block(guest_pc, tracer),
                "dbt.xlat_hit", guest_pc, tracer)
            if source is None:
                stats.xlat_misses += 1
            else:
                stats.xlat_hits += 1
                if source == "disk":
                    stats.xlat_disk_hits += 1
            self.opt_stats.merge(opt)
            with tracer.span("dbt.install", cat="dbt", pc=guest_pc):
                host_pc = self._install(compiled)
        stats.blocks_translated += 1
        stats.guest_insns_translated += compiled.guest_insns
        return host_pc

    def _compile_block(self, guest_pc: int, tracer):
        with tracer.span("dbt.frontend", cat="dbt", pc=guest_pc):
            block = self.frontend.translate_block(
                self.machine.memory, guest_pc)
        with tracer.span("dbt.optimize", cat="dbt", pc=guest_pc):
            stats = optimize(block, self.config.optimizer)
        with tracer.span("dbt.backend", cat="dbt", pc=guest_pc):
            compiled = self.backend.compile_block(block)
        return compiled, stats

    def _translate_trace(self, chain: list[int]) -> int | None:
        """Tier-2 entry: compile a superblock over ``chain``.

        Returns the trace's host pc, or ``None`` when the chain is not
        worth a trace (nothing inlined, no seam removed) or cannot be
        compiled (e.g. cross-seam optimization extends a temp's live
        range past the host temp pool) — the runtime then blacklists
        the head and keeps running tier-1 blocks.  The trace is cached
        under the trace schema tag, keyed by the ordered chain
        windows, so it never collides with the head's tier-1 entry;
        its cache traffic shows in the process-wide cache stats.
        """
        tracer = get_tracer()
        with tracer.span("dbt.translate_trace", cat="dbt",
                         pc=chain[0], blocks=len(chain)):
            try:
                compiled, stats, _ = self._cached(
                    lambda cache: cache.trace_key_for(
                        self.machine.memory, chain, self._config_fp,
                        self._key_window),
                    lambda: self._compile_trace(chain),
                    "dbt.xlat_trace_hit", chain[0], tracer)
            except TranslationError:
                return None
            if compiled is None:
                return None
            self.opt_stats.merge(stats)
            with tracer.span("dbt.install", cat="dbt", pc=chain[0]):
                return self._install(compiled)

    def _compile_trace(self, chain: list[int]):
        """(CompiledBlock, OptStats) for a superblock, or (None, None)
        when it would be byte-identical to the tier-1 block."""
        blocks = [
            self.frontend.translate_block(self.machine.memory, pc)
            for pc in chain
        ]
        stitched = stitch_trace(blocks)
        trace = stitched.block
        inlined = inline_helpers_pass(trace)
        if len(chain) == 1 and stitched.internal_branches == 0 \
                and inlined == 0:
            return None, None
        stats = optimize(trace, self.config.optimizer)
        stats.helpers_inlined = inlined
        return self.backend.compile_block(trace), stats

    def _install(self, compiled: CompiledBlock) -> int:
        """Bind one artifact into this engine's code cache.

        The block was encoded once, by the backend (or read back in
        that form by the cache); the host address and this engine's
        trap addresses are patched into a copy of those bytes, whose
        length depends on neither, so the one allocation is exact.  The
        machine gets the block's records with its bytes, so its first
        execution decodes nothing: a fresh block's own, resolved, or a
        hit's, decoded from the placed bytes through the cache's memo.
        """
        linked = compiled.linked
        traps: dict[str, int] = {}
        for request in compiled.helper_requests:
            traps[request.trap_label] = self._trap_for(
                request.helper, request.arg_regs, request.ret_reg,
                request.trap_label.endswith("goto_tb"))
        host_pc = self.runtime.alloc_code(len(linked.code))
        code = linked.place(host_pc, traps)
        fence_origins = self.machine.fence_origins
        for offset, origin in zip(linked.dmb_offsets,
                                  compiled.fence_origins):
            if origin is not None:
                fence_origins[host_pc + offset] = origin
        insns = as_decoded(compiled.insns, host_pc, len(code),
                           linked.bind(host_pc, traps)) \
            if compiled.insns else self.xlat_cache.records(code, host_pc)
        self.machine.memory.add_image(host_pc, code, insns)
        return host_pc


class NativeRunner(_Engine):
    """Run an Arm-native workload build on the same machine/syscalls.

    Native code uses the same syscall register convention as the
    translated guest (number in x8, args in x13/x12) so the one runtime
    serves both; threads spawned by native code start directly at their
    Arm entry point.
    """

    def __init__(self, machine: Machine | None = None,
                 n_cores: int = 4,
                 costs: CostModel | None = None,
                 seed: int = 42,
                 buffer_mode: BufferMode = BufferMode.WEAK):
        super().__init__(machine, n_cores, costs, seed, buffer_mode)
        self.runtime.native_mode = True
        self.runtime.native_exit = self.runtime.alloc_trap(
            self._thread_exit)

    def _thread_exit(self, core) -> None:
        self.runtime._finish_thread(core, guest_reg(core, "rax"))
