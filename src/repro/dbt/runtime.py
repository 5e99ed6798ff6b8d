"""DBT runtime: guest state, helpers, syscalls, threads, dispatch.

The guest's architectural state lives permanently in host registers
(the backend's fixed map); the runtime provides everything around the
translated code:

* **helpers** — the QEMU-style C-helper equivalents (RMW emulation via
  GCC-builtin-like atomics, softfloat FP) as costed Python callables
  installed at trap addresses,
* **the dispatcher** — block-cache lookup / translate-on-miss, with
  chain-aware entry costs,
* **user-mode syscalls** — exit / write / spawn / join (spawn+join
  substitute for clone(2)+futex; DESIGN.md),
* **guest threads** — mapped 1:1 onto simulated cores.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..errors import GuestFault, TranslationError
from ..isa.x86.insns import GPR as X86_GPR
from ..isa.arm.insns import CODER as ARM_CODER
from ..isa.common import Imm, Insn
from ..isa.floatbits import bits_to_double, double_to_bits
from ..machine.cpu import ArmCore
from ..machine.scheduler import Machine
from ..tcg.backend_arm import GUEST_FLAG_MAP, GUEST_REG_MAP

U64 = (1 << 64) - 1

#: Sentinel a helper returns to re-enter its trap on the next step
#: (used by blocking syscalls like join).
RETRY = object()

#: Address-space layout.
CODE_CACHE_BASE = 0x4000_0000
TRAP_BASE = 0xE000_0000
STACK_BASE = 0x7000_0000
STACK_SIZE = 0x10_0000
#: Magic guest pc meaning "this guest thread's entry function returned".
THREAD_EXIT_PC = 0xDEAD_0000
#: Longest chain of blocks a tier-2 trace stitches together.
TRACE_MAX_BLOCKS = 8

#: Guest syscall numbers (custom user-mode ABI, see DESIGN.md).
SYS_EXIT = 60
SYS_WRITE_INT = 1
SYS_SPAWN = 1000
SYS_JOIN = 1001

_SVC_SIZE = len(ARM_CODER.encode(Insn("svc", (Imm(0),))))

_ARM_REG_OF_GUEST = {
    name: GUEST_REG_MAP[f"g_{name}"] for name in X86_GPR
}


def guest_reg(core: ArmCore, name: str) -> int:
    """Read a guest x86 register out of its host register."""
    return core.get(_ARM_REG_OF_GUEST[name])


def set_guest_reg(core: ArmCore, name: str, value: int) -> None:
    core.set(_ARM_REG_OF_GUEST[name], value)


def guest_flag(core: ArmCore, name: str) -> int:
    return core.get(GUEST_FLAG_MAP[f"g_{name}"])


@dataclass
class GuestThread:
    tid: int
    core_id: int
    finished: bool = False
    exit_code: int = 0


@dataclass
class RunStats:
    """Aggregated execution statistics for a DBT run."""

    blocks_translated: int = 0
    block_dispatches: int = 0
    chained_dispatches: int = 0
    helper_calls: int = 0
    guest_insns_translated: int = 0
    plt_calls: int = 0
    syscalls: int = 0
    #: Translation-cache accounting.  ``blocks_translated`` counts
    #: *installs* (identical warm or cold); ``xlat_misses`` counts
    #: actual frontend+optimizer+backend pipeline runs, so a fully warm
    #: run reports 0 misses.  hits + misses == blocks_translated.
    xlat_hits: int = 0
    xlat_misses: int = 0
    xlat_disk_hits: int = 0
    #: Tier-2 (superblock) accounting.  ``tier2_traces`` counts
    #: installed traces, ``tier2_trace_blocks`` the tier-1 blocks they
    #: cover, ``tier2_trace_dispatches`` dispatcher entries that landed
    #: on a trace, and ``tier2_cycles`` the cycles attributed to code
    #: executing inside traces (a subset of the profile totals).
    tier2_traces: int = 0
    tier2_trace_blocks: int = 0
    tier2_trace_dispatches: int = 0
    tier2_cycles: int = 0
    output: list[int] = field(default_factory=list)


class Runtime:
    """Shared services for translated guest code on a machine."""

    def __init__(self, machine: Machine):
        self.machine = machine
        self.stats = RunStats()
        self.threads: dict[int, GuestThread] = {}
        self._next_tid = 1
        self._next_trap = TRAP_BASE
        self._next_code = CODE_CACHE_BASE
        #: guest pc -> host pc of the translated block
        self.block_map: dict[int, int] = {}
        #: Hot-block profile: guest pc -> [dispatches, attributed
        #: cycles].  Cycles accrue on the *next* dispatch of the same
        #: core (or thread exit): the delta of the core clock since
        #: block entry, so host-lib time between dispatches stays
        #: unattributed rather than inflating the calling block.
        self.block_profile: dict[int, list[int]] = {}
        #: core id -> (guest pc, core cycles at entry, in-trace flag)
        #: of the block/trace that core is currently executing.  The
        #: entry cycles are captured *before* the dispatch-entry cost
        #: (tb_entry/tb_chain) is charged, so that cost is attributed
        #: to the entered block and per-pc cycles sum to the core
        #: total (the conservation the tier promoter relies on).
        self._profile_open: dict[int, tuple[int, int, bool]] = {}
        #: guest pcs whose direct (goto_tb) dispatch is already chained
        self._chained: set[int] = set()
        #: Tier-2 state: promoted trace heads -> host pc of the trace.
        self.trace_map: dict[int, int] = {}
        #: goto_tb edge profile: pred guest pc -> {succ pc: count}.
        self._succ_counts: dict[int, dict[int, int]] = {}
        #: heads whose promotion failed (don't retry every dispatch).
        self._tier2_rejected: set[int] = set()
        #: set by the engine when tier-2 is enabled: a Tier2Config.
        self.tier2 = None
        #: set by the engine: translate_trace(chain) -> host pc | None.
        self.trace_translator = None
        #: guest pc -> PLT thunk callable(core) (host linker entries)
        self.plt_thunks: dict[int, callable] = {}
        #: set by the engine: translate(guest_pc) -> host pc
        self.translator = None
        #: native mode: code is already host code; no translation.
        self.native_mode = False
        #: trap address a native thread returns to when its entry
        #: function completes (installed by NativeRunner).
        self.native_exit: int | None = None

        for core in machine.cores:
            core.svc_handler = self._svc

    # ------------------------------------------------------------------
    # Address allocation
    # ------------------------------------------------------------------
    def alloc_trap(self, fn) -> int:
        """Install ``fn`` at a fresh trap address on every core."""
        addr = self._next_trap
        self._next_trap += 0x10
        for core in self.machine.cores:
            core.traps[addr] = fn
        return addr

    def alloc_code(self, size: int) -> int:
        addr = self._next_code
        self._next_code += (size + 0xFF) & ~0xFF
        return addr

    # ------------------------------------------------------------------
    # Helper implementations (Section 2.3 / 6.3)
    # ------------------------------------------------------------------
    def make_helper_trap(self, helper: str, arg_regs: tuple[str, ...],
                         ret_reg: str | None) -> int:
        impl = getattr(self, f"_helper_{helper.removeprefix('helper_')}",
                       None)
        if impl is None and helper != "dispatch":
            raise TranslationError(f"unknown helper {helper!r}")

        def trap(core: ArmCore) -> None:
            core.cycles += core.costs.helper_call
            self.stats.helper_calls += 1
            args = [core.get(r) for r in arg_regs]
            result = impl(core, *args)
            if result is RETRY:
                return  # pc still points at the trap: re-enter next step
            if ret_reg is not None:
                core.set(ret_reg, 0 if result is None else result)
            core.pc = core.get("x30")

        return self.alloc_trap(trap)

    # --- RMW helpers: QEMU's GCC-builtin-backed emulation ------------
    def _atomic_entry(self, core: ArmCore, addr: int) -> None:
        """Common cost/ordering work of an atomic helper: the builtin
        compiles to casal/ldaxr+stlxr, which drains the buffer."""
        core.own_line(addr)
        core.cycles += core.costs.cas_op

    def _helper_cmpxchg(self, core: ArmCore, addr: int, expected: int,
                        new: int) -> int:
        self._atomic_entry(core, addr)
        old = self.machine.memory.load_word(addr)
        if old == expected:
            self.machine.memory.store_word(addr, new)
        return old

    def _helper_xadd(self, core: ArmCore, addr: int,
                     addend: int) -> int:
        self._atomic_entry(core, addr)
        old = self.machine.memory.load_word(addr)
        self.machine.memory.store_word(addr, (old + addend) & U64)
        return old

    def _helper_xchg(self, core: ArmCore, addr: int, new: int) -> int:
        self._atomic_entry(core, addr)
        old = self.machine.memory.load_word(addr)
        self.machine.memory.store_word(addr, new)
        return old

    # --- softfloat helpers (QEMU's FP emulation, Section 7.3) --------
    def _softfloat(self, core: ArmCore) -> None:
        core.cycles += core.costs.fp_emulated

    def _helper_fadd(self, core: ArmCore, a: int, b: int) -> int:
        self._softfloat(core)
        return double_to_bits(bits_to_double(a) + bits_to_double(b))

    def _helper_fmul(self, core: ArmCore, a: int, b: int) -> int:
        self._softfloat(core)
        return double_to_bits(bits_to_double(a) * bits_to_double(b))

    def _helper_fdiv(self, core: ArmCore, a: int, b: int) -> int:
        self._softfloat(core)
        db = bits_to_double(b)
        if db == 0.0:
            raise GuestFault("guest float division by zero")
        return double_to_bits(bits_to_double(a) / db)

    def _helper_fsqrt(self, core: ArmCore, a: int) -> int:
        self._softfloat(core)
        da = bits_to_double(a)
        if da < 0:
            raise GuestFault("guest sqrt of negative value")
        return double_to_bits(math.sqrt(da))

    def _helper_halt(self, core: ArmCore) -> None:
        self._finish_thread(core, guest_reg(core, "rdi"))

    def _helper_syscall(self, core: ArmCore):
        return self._do_syscall(core)

    # ------------------------------------------------------------------
    # Syscalls
    # ------------------------------------------------------------------
    def _svc(self, core: ArmCore, imm: int) -> None:
        # Native (non-translated) code path: pc has advanced past the
        # SVC; a blocking syscall rewinds it to retry.
        if self._do_syscall(core) is RETRY:
            core.pc -= _SVC_SIZE

    def _do_syscall(self, core: ArmCore):
        number = guest_reg(core, "rax")
        self.stats.syscalls += 1
        core.cycles += core.costs.syscall
        if number == SYS_EXIT:
            self._finish_thread(core, guest_reg(core, "rdi"))
        elif number == SYS_WRITE_INT:
            self.stats.output.append(guest_reg(core, "rdi"))
            set_guest_reg(core, "rax", 0)
        elif number == SYS_SPAWN:
            tid = self._spawn(guest_reg(core, "rdi"),
                              guest_reg(core, "rsi"))
            set_guest_reg(core, "rax", tid)
        elif number == SYS_JOIN:
            target = self.threads.get(guest_reg(core, "rdi"))
            if target is None:
                set_guest_reg(core, "rax", U64)  # -1: no such thread
            elif target.finished:
                set_guest_reg(core, "rax", 0)
            else:
                core.cycles += 40  # polling backoff
                return RETRY
        else:
            raise GuestFault(f"unknown guest syscall {number}")
        return None

    def _finish_thread(self, core: ArmCore, exit_code: int) -> None:
        thread = self._thread_of(core)
        if thread:
            thread.finished = True
            thread.exit_code = exit_code
        # Drain before closing the profile interval: the store-buffer
        # drain at thread exit belongs to the final block, not to the
        # unattributed gap after it.
        core.drain_buffer()
        self._profile_close(core)
        core.halted = True

    def _thread_of(self, core: ArmCore) -> GuestThread | None:
        """The live thread on ``core``.  ``_free_core`` recycles the
        cores of finished threads, so earlier threads with the same
        ``core_id`` must be skipped — finishing one of those again
        would leave the live thread unjoinable."""
        for thread in self.threads.values():
            if thread.core_id == core.core_id and not thread.finished:
                return thread
        return None

    # ------------------------------------------------------------------
    # Threads
    # ------------------------------------------------------------------
    def start_main_thread(self, entry_pc: int) -> GuestThread:
        return self._start_thread(entry_pc, arg=None)

    def _spawn(self, fn_pc: int, arg: int) -> int:
        thread = self._start_thread(fn_pc, arg=arg)
        return thread.tid

    def _start_thread(self, entry_pc: int, arg: int | None) -> GuestThread:
        core = self._free_core()
        tid = self._next_tid
        self._next_tid += 1
        thread = GuestThread(tid=tid, core_id=core.core_id)
        self.threads[tid] = thread

        stack_top = STACK_BASE + core.core_id * STACK_SIZE \
            + STACK_SIZE - 0x100
        if arg is not None:
            set_guest_reg(core, "rdi", arg)
        if self.native_mode:
            core.set("sp", stack_top)
            core.set("x30", self.native_exit)
            core.pc = entry_pc
        else:
            # Returning from the entry function lands on THREAD_EXIT_PC.
            self.machine.memory.store_word(stack_top - 8,
                                           THREAD_EXIT_PC)
            set_guest_reg(core, "rsp", stack_top - 8)
            self.dispatch_to(core, entry_pc)
        core.halted = False
        return thread

    def _free_core(self) -> ArmCore:
        used = {t.core_id for t in self.threads.values()
                if not t.finished}
        for core in self.machine.cores:
            if core.core_id not in used:
                return core
        raise GuestFault(
            f"no free core for guest thread "
            f"({len(self.machine.cores)} cores)")

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def make_dispatch_trap(self, direct: bool) -> int:
        def trap(core: ArmCore) -> None:
            target = core.get("x7")
            self._dispatch(core, target, direct=direct)

        return self.alloc_trap(trap)

    def dispatch_to(self, core: ArmCore, guest_pc: int) -> None:
        self._dispatch(core, guest_pc, direct=False)

    def _dispatch(self, core: ArmCore, guest_pc: int,
                  direct: bool) -> None:
        if guest_pc == THREAD_EXIT_PC:
            self._finish_thread(core, guest_reg(core, "rax"))
            return
        thunk = self.plt_thunks.get(guest_pc)
        if thunk is not None:
            self._profile_close(core)
            thunk(core)
            return
        if direct and self.tier2 is not None:
            # Record the goto_tb edge for superblock formation before
            # the predecessor's interval closes.
            open_entry = self._profile_open.get(core.core_id)
            if open_entry is not None:
                succs = self._succ_counts.setdefault(open_entry[0], {})
                succs[guest_pc] = succs.get(guest_pc, 0) + 1
        self._profile_close(core)
        self.stats.block_dispatches += 1
        entry_cycles = core.cycles
        host_pc = self.block_map.get(guest_pc)
        if host_pc is None:
            if self.translator is None:
                raise TranslationError("runtime has no translator bound")
            host_pc = self.translator(guest_pc)
            self.block_map[guest_pc] = host_pc
            core.cycles += core.costs.tb_entry
        elif direct and guest_pc in self._chained:
            core.cycles += core.costs.tb_chain
            self.stats.chained_dispatches += 1
        else:
            core.cycles += core.costs.tb_entry
            if direct:
                self._chained.add(guest_pc)
        entry = self.block_profile.get(guest_pc)
        if entry is None:
            entry = self.block_profile[guest_pc] = [0, 0]
        entry[0] += 1
        in_trace = False
        trace_pc = self.trace_map.get(guest_pc)
        if trace_pc is None and self.tier2 is not None \
                and self.trace_translator is not None \
                and entry[0] >= self.tier2.threshold \
                and guest_pc not in self._tier2_rejected:
            trace_pc = self._promote(guest_pc)
        if trace_pc is not None:
            host_pc = trace_pc
            in_trace = True
            self.stats.tier2_trace_dispatches += 1
        self._profile_open[core.core_id] = \
            (guest_pc, entry_cycles, in_trace)
        core.pc = host_pc

    # ------------------------------------------------------------------
    # Tier-2 promotion
    # ------------------------------------------------------------------
    def _promote(self, guest_pc: int) -> int | None:
        """Compile the hot chain headed at ``guest_pc`` into a trace;
        returns its host pc, or ``None`` (head blacklisted) when the
        chain is not worth a trace or fails to compile."""
        chain = self._form_chain(guest_pc)
        host_pc = self.trace_translator(chain)
        if host_pc is None:
            self._tier2_rejected.add(guest_pc)
            return None
        self.trace_map[guest_pc] = host_pc
        self.stats.tier2_traces += 1
        self.stats.tier2_trace_blocks += len(chain)
        return host_pc

    def _form_chain(self, head: int) -> list[int]:
        """Follow the dominant recorded goto_tb successor across
        consecutive hot blocks.  Stops at cold/unseen successors, at
        non-dominant splits, on revisiting a chain member (the
        stitcher turns such edges into in-trace back-branches), and at
        PLT entries."""
        chain = [head]
        seen = {head}
        threshold = self.tier2.threshold
        while len(chain) < TRACE_MAX_BLOCKS:
            succs = self._succ_counts.get(chain[-1])
            if not succs:
                break
            nxt, count = max(succs.items(), key=lambda kv: kv[1])
            total = sum(succs.values())
            profile = self.block_profile.get(nxt)
            if nxt in seen or nxt in self.plt_thunks \
                    or nxt == THREAD_EXIT_PC \
                    or count * 2 < total \
                    or profile is None or profile[0] < threshold:
                break
            chain.append(nxt)
            seen.add(nxt)
        return chain

    # ------------------------------------------------------------------
    # Hot-block profile
    # ------------------------------------------------------------------
    def _profile_close(self, core: ArmCore) -> None:
        open_entry = self._profile_open.pop(core.core_id, None)
        if open_entry is not None:
            guest_pc, entry_cycles, in_trace = open_entry
            delta = core.cycles - entry_cycles
            self.block_profile[guest_pc][1] += delta
            if in_trace:
                self.stats.tier2_cycles += delta

    def block_profile_snapshot(self) -> dict[int, tuple[int, int]]:
        """The hot-block profile as ``{guest_pc: (dispatches,
        cycles)}``, including each core's still-open interval.

        Non-destructive: an open interval is accounted up to the
        core's current cycle count and re-opened in place, so a
        mid-run snapshot (the tier promoter reads profiles mid-run)
        never drops the cycles between the snapshot and the next
        dispatch."""
        for core in self.machine.cores:
            open_entry = self._profile_open.get(core.core_id)
            if open_entry is not None:
                guest_pc, entry_cycles, in_trace = open_entry
                delta = core.cycles - entry_cycles
                self.block_profile[guest_pc][1] += delta
                if in_trace:
                    self.stats.tier2_cycles += delta
                self._profile_open[core.core_id] = \
                    (guest_pc, core.cycles, in_trace)
        return {
            pc: (entry[0], entry[1])
            for pc, entry in self.block_profile.items()
        }
