"""The simulated Arm core: a pre-bound instruction table over weak memory.

Each core owns a store buffer (see :mod:`repro.machine.weakmem`), an
exclusive monitor for LDXR/STXR pairs (with seeded *spurious failures*,
which the paper calls out as an LX/SX hazard x86 RMWs don't have), a
cycle counter driven by the :class:`~repro.machine.timing.CostModel`,
and a trap table through which the DBT runtime installs Python-level
entry points (QEMU-style helpers, native host library functions).

Decoding and operand resolution are per-*instruction* work, so they
are paid once per pc, not once per step: the first time a pc executes,
:meth:`ArmCore.step` takes the instruction the memory was seeded with
there (every translated block's records, whether freshly compiled or
served by the translation cache), or else (native code, hand-written
asm) fetches and decodes it, and a per-mnemonic *binder* (the second
half of this module) resolves register names, masked immediates, the
address shape and the cycle costs into a handler ``handler(core)``.
``(handler, size)`` goes into the table the machine's
:class:`~repro.machine.memory.Memory` keeps for all its cores, and
every later step at that pc is one dict lookup and one call.
Handlers take the core as their argument and capture none, so the
table holds no reference back into the machine.

Every step reads a core's attributes many times over, so
:class:`ArmCore` and its :class:`~repro.machine.weakmem.StoreBuffer`
are slotted dataclasses: what ``__post_init__`` derives is declared
as a ``field(init=False)``, not added to an instance dict, and the
constructor takes what it took before.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from random import Random
from typing import Callable

from ..errors import MachineError
from ..isa.arm.insns import (
    CODER,
    CONDITIONAL_BRANCHES,
    CONDITIONS,
    GPR,
    LINK_REGISTER,
)
from ..isa.common import Imm, Insn, Mem, Reg
from ..isa.floatbits import bits_to_double, double_to_bits
from .memory import CoherenceTracker, Memory
from .timing import CostModel
from .weakmem import BufferMode, StoreBuffer

U64 = (1 << 64) - 1
_SIGN = 1 << 63

#: Origin bucket for fence cycles with no provenance entry (native
#: workload code, hand-assembled harness snippets).
UNTAGGED_ORIGIN = "untagged"


def cond_index(name: str) -> int:
    """Encoding of a condition name for CSET/CSEL immediates."""
    return CONDITIONS.index(name)


#: Condition name -> test over the NZCV flag dict.
_CONDITION_TESTS: dict[str, Callable[[dict], bool]] = {
    "eq": lambda f: f["z"],
    "ne": lambda f: not f["z"],
    "lt": lambda f: f["n"] != f["v"],
    "ge": lambda f: f["n"] == f["v"],
    "le": lambda f: f["z"] or f["n"] != f["v"],
    "gt": lambda f: (not f["z"]) and f["n"] == f["v"],
    "lo": lambda f: not f["c"],
    "hs": lambda f: f["c"],
    "ls": lambda f: (not f["c"]) or f["z"],
    "hi": lambda f: f["c"] and not f["z"],
    "mi": lambda f: f["n"],
    "pl": lambda f: not f["n"],
}
#: The same tests by CSET/CSEL immediate (see :func:`cond_index`).
_TEST_BY_INDEX = tuple(_CONDITION_TESTS[name] for name in CONDITIONS)


@dataclass(slots=True)
class ArmCore:
    """One simulated core (slotted; see the module docstring)."""

    core_id: int
    memory: Memory
    costs: CostModel
    coherence: CoherenceTracker | None = None
    buffer_mode: BufferMode = BufferMode.WEAK
    rng: Random = field(default_factory=lambda: Random(0))
    #: Probability an STXR fails spuriously even with a valid monitor.
    spurious_failure_rate: float = 0.0

    regs: dict[str, int] = field(default_factory=dict)
    flags: dict[str, bool] = field(default_factory=dict)
    pc: int = 0
    cycles: int = 0
    halted: bool = True
    insn_count: int = 0
    #: Cycles attributable to DMB fences (for the fence-share metric).
    fence_cycles: int = 0
    #: host pc -> provenance tag of the DMB installed there.  Shared
    #: machine-wide (the engine registers entries at install time).
    fence_origins: dict[int, str] = field(default_factory=dict)
    #: Fence cycles split by provenance tag; sums to ``fence_cycles``.
    fence_cycles_by_origin: dict[str, int] = field(
        default_factory=dict)

    #: Python-level entry points: pc -> callable(core).
    traps: dict[int, Callable[["ArmCore"], None]] = field(
        default_factory=dict)
    svc_handler: Callable[["ArmCore", int], None] | None = None

    #: Set by ``__post_init__``, not by the caller.
    buffer: StoreBuffer = field(init=False)
    #: pc of the instruction currently executing (the fetch pc, before
    #: advancing) — fence accounting keys the origin map on it.
    _insn_pc: int = field(init=False)
    #: pc -> (handler, size): the memory's table for this core's cost
    #: model, shared with every other core on the machine.
    _code: dict[int, tuple] = field(init=False)
    #: The memory's seeded records: a miss binds the one at its pc,
    #: and decodes the bytes only when there is none.
    _seeded: dict[int, tuple] = field(init=False)

    def __post_init__(self):
        #: ``xzr`` is an entry like any other register so handlers can
        #: read it unconditionally; nothing ever stores a non-zero
        #: there (:meth:`set`, :func:`_discarding`).
        self.regs = dict.fromkeys(GPR, 0)
        self.flags = {"n": False, "z": False, "c": False, "v": False}
        self.buffer = StoreBuffer(mode=self.buffer_mode)
        self._insn_pc = 0
        self._code = self.memory.code_table(self.costs)
        self._seeded = self.memory.seeded

    # ------------------------------------------------------------------
    # Register access (xzr handling)
    # ------------------------------------------------------------------
    def get(self, name: str) -> int:
        if name == "xzr":
            return 0
        return self.regs[name]

    def set(self, name: str, value: int) -> None:
        if name == "xzr":
            return
        self.regs[name] = value & U64

    # ------------------------------------------------------------------
    # Memory with buffer + coherence
    # ------------------------------------------------------------------
    def _mem_load(self, addr: int) -> int:
        buffer = self.buffer
        if buffer.entries:
            forwarded = buffer.forward(addr)
            if forwarded is not None:
                return forwarded
        if self.coherence:
            self.cycles += self.coherence.on_read(self.core_id, addr)
        return self.memory.load_word(addr)

    def _mem_store(self, addr: int, value: int) -> None:
        if self.coherence:
            self.cycles += self.coherence.on_write(self.core_id, addr)
        if self.buffer.mode is BufferMode.NONE:
            self.memory.store_word(addr, value)
        else:
            self.buffer.push(addr, value)

    def own_line(self, addr: int) -> None:
        """What every atomic does first: drain the buffer and take the
        cache line exclusively."""
        self.buffer.drain_all(self.memory)
        if self.coherence:
            self.cycles += self.coherence.on_write(self.core_id, addr)

    def drain_buffer(self) -> None:
        self.buffer.drain_all(self.memory)

    #: Per-step probability of draining one buffered store.  Low enough
    #: that a pair of back-to-back stores coexists in the buffer for a
    #: handful of cycles — the window litmus stressing needs.
    drain_probability: float = 0.08

    def maybe_background_drain(self) -> None:
        """Called by the scheduler between instructions: lazily drain.

        ``rng`` is drawn only while stores are pending, so the
        scheduler may skip the call when the buffer is empty."""
        pending = self.buffer.pending()
        if pending > 8 or \
                (pending and self.rng.random() < self.drain_probability):
            self.buffer.drain_one(self.memory, self.rng)

    # ------------------------------------------------------------------
    # Fence accounting
    # ------------------------------------------------------------------
    def _account_fence(self, cost: int) -> None:
        """Charge a DMB's cycles, attributed to its provenance tag.

        Every executed fence lands in exactly one origin bucket, so
        ``sum(fence_cycles_by_origin.values()) == fence_cycles``
        holds by construction — the reconciliation invariant the
        Figure 12 breakdown relies on.
        """
        self.cycles += cost
        self.fence_cycles += cost
        origin = self.fence_origins.get(self._insn_pc,
                                        UNTAGGED_ORIGIN)
        self.fence_cycles_by_origin[origin] = \
            self.fence_cycles_by_origin.get(origin, 0) + cost

    # ------------------------------------------------------------------
    # Flags
    # ------------------------------------------------------------------
    def _set_nzcv_sub(self, a: int, b: int) -> None:
        result = (a - b) & U64
        flags = self.flags
        flags["n"] = result >= _SIGN
        flags["z"] = result == 0
        flags["c"] = a >= b  # no borrow
        # Signed overflow: the operands' signs differ and the result's
        # sign is not the minuend's.
        flags["v"] = (a >= _SIGN) != (b >= _SIGN) \
            and (result >= _SIGN) != (a >= _SIGN)

    def condition(self, name: str) -> bool:
        return _CONDITION_TESTS[name](self.flags)

    # ------------------------------------------------------------------
    # Fetch / execute
    # ------------------------------------------------------------------
    def start(self, pc: int) -> None:
        self.pc = pc
        self.halted = False

    def step(self) -> None:
        """Execute one instruction (or a trap at the current pc).

        Traps come first and are not instructions.  A pc is bound on
        its first execution and never ahead of it: images carry data
        after code, and the DBT maps new images while cores run, so
        neither a byte that is never reached nor a fetch that faulted
        may leave anything in the table.
        """
        pc = self.pc
        trap = self.traps.get(pc)
        if trap is not None:
            trap(self)
            return
        bound = self._code.get(pc)
        if bound is None:
            insn, size = self._seeded.pop(pc, None) or \
                CODER.decode(self.memory.read_bytes(pc, 32))
            bound = self._code[pc] = (bind(insn, self.costs), size)
        self._insn_pc = pc
        self.pc = pc + bound[1]
        bound[0](self)
        self.insn_count += 1

    def execute(self, insn: Insn) -> None:
        """Run one instruction that did not come from memory; ``pc``
        is the caller's business."""
        bind(insn, self.costs)(self)


# ----------------------------------------------------------------------
# Binders: instruction -> handler(core)
# ----------------------------------------------------------------------
# A binder takes the operand tuple and the cost model and returns the
# handler.  Register operands become dict keys into ``core.regs``,
# immediates become masked constants, and a shape that only matters on
# a hot mnemonic (``mov``, the ALU group) gets a closure of its own;
# everything else goes through the small getters below.

Handler = Callable[[ArmCore], None]


def _reg(op) -> str:
    if not isinstance(op, Reg):
        raise MachineError(f"bad register operand {op!r}")
    return op.name


def _value(op) -> Callable[[dict], int]:
    """Getter for a register-or-immediate operand: ``get(regs)``."""
    if isinstance(op, Reg):
        name = op.name
        return lambda regs: regs[name]
    if isinstance(op, Imm):
        value = op.value & U64
        return lambda regs: value
    raise MachineError(f"bad value operand {op!r}")


def _address(op) -> Callable[[dict], int]:
    """Getter for a memory operand's effective address."""
    if not isinstance(op, Mem):
        raise MachineError(f"bad memory operand {op!r}")
    base, index, scale, offset = op.base, op.index, op.scale, op.offset
    if base and index:
        return lambda regs: \
            (offset + regs[base] + regs[index] * scale) & U64
    if base:
        return lambda regs: (offset + regs[base]) & U64
    if index:
        return lambda regs: (offset + regs[index] * scale) & U64
    absolute = offset & U64
    return lambda regs: absolute


def _discarding(dest: str, handler: Handler) -> Handler:
    """``xzr`` as a destination: let the handler write, then put the
    zero back, so no handler needs a second shape for it."""
    if dest != "xzr":
        return handler

    def discard(core):
        handler(core)
        core.regs["xzr"] = 0
    return discard


def _bind_mov(ops, costs):
    dest, source = ops
    d, cost = _reg(dest), costs.mov
    if isinstance(source, Reg):
        s = source.name

        def handler(core):
            regs = core.regs
            regs[d] = regs[s]
            core.cycles += cost
    else:
        if not isinstance(source, Imm):
            raise MachineError(f"bad value operand {source!r}")
        value = source.value & U64

        def handler(core):
            core.regs[d] = value
            core.cycles += cost
    return _discarding(d, handler)


def _unary(fn, cost_of):
    def binder(ops, costs):
        dest, source = ops
        d, get, cost = _reg(dest), _value(source), cost_of(costs)

        def handler(core):
            regs = core.regs
            regs[d] = fn(get(regs)) & U64
            core.cycles += cost
        return _discarding(d, handler)
    return binder


def _binary(fn, cost_of):
    """``dest = fn(left, right)``: the ALU group and scalar FP."""
    def binder(ops, costs):
        dest, left, right = ops
        d, cost = _reg(dest), cost_of(costs)
        if isinstance(left, Reg) and isinstance(right, Reg):
            a, b = left.name, right.name

            def handler(core):
                regs = core.regs
                regs[d] = fn(regs[a], regs[b]) & U64
                core.cycles += cost
        elif isinstance(left, Reg) and isinstance(right, Imm):
            a, imm = left.name, right.value & U64

            def handler(core):
                regs = core.regs
                regs[d] = fn(regs[a], imm) & U64
                core.cycles += cost
        else:
            get_a, get_b = _value(left), _value(right)

            def handler(core):
                regs = core.regs
                regs[d] = fn(get_a(regs), get_b(regs)) & U64
                core.cycles += cost
        return _discarding(d, handler)
    return binder


def _asr(a: int, b: int) -> int:
    return (a - (1 << 64) if a & _SIGN else a) >> (b & 63)


def _fp(fn):
    return lambda a, b: double_to_bits(
        fn(bits_to_double(a), bits_to_double(b)))


def _fsqrt(bits: int) -> int:
    a = bits_to_double(bits)
    return double_to_bits(math.sqrt(a) if a >= 0 else math.nan)


def _bind_cmp(ops, costs):
    left, right = ops
    get_a, get_b, cost = _value(left), _value(right), costs.alu

    def handler(core):
        regs = core.regs
        core._set_nzcv_sub(get_a(regs), get_b(regs))
        core.cycles += cost
    return handler


def _bind_cset(ops, costs):
    dest, cond = ops
    d, index, cost = _reg(dest), _value(cond), costs.alu

    def handler(core):
        regs = core.regs
        regs[d] = 1 if _TEST_BY_INDEX[index(regs)](core.flags) else 0
        core.cycles += cost
    return _discarding(d, handler)


def _bind_csel(ops, costs):
    dest, if_true, if_false, cond = ops
    d, index, cost = _reg(dest), _value(cond), costs.alu
    get_true, get_false = _value(if_true), _value(if_false)

    def handler(core):
        regs = core.regs
        chosen = get_true if _TEST_BY_INDEX[index(regs)](core.flags) \
            else get_false
        regs[d] = chosen(regs)
        core.cycles += cost
    return _discarding(d, handler)


# ---------------------------------------------------------- branches
def _bind_b(ops, costs):
    (target,) = ops
    target, cost = _value(target), costs.branch_taken

    def handler(core):
        core.pc = target(core.regs)
        core.cycles += cost
    return handler


def _conditional_branch(condition: str):
    test = _CONDITION_TESTS[condition]

    def binder(ops, costs):
        (target,) = ops
        target = _value(target)
        taken, fallthrough = costs.branch_taken, costs.branch

        def handler(core):
            if test(core.flags):
                core.pc = target(core.regs)
                core.cycles += taken
            else:
                core.cycles += fallthrough
        return handler
    return binder


def _compare_branch(on_zero: bool):
    def binder(ops, costs):
        probe, target = ops
        r, target = _reg(probe), _value(target)
        taken, fallthrough = costs.branch_taken, costs.branch

        def handler(core):
            regs = core.regs
            if (regs[r] == 0) == on_zero:
                core.pc = target(regs)
                core.cycles += taken
            else:
                core.cycles += fallthrough
        return handler
    return binder


def _bind_bl(ops, costs):
    (target,) = ops
    target, cost = _value(target), costs.call

    def handler(core):
        regs = core.regs
        regs[LINK_REGISTER] = core.pc
        core.pc = target(regs)
        core.cycles += cost
    return handler


def _bind_blr(ops, costs):
    (target,) = ops
    r, cost = _reg(target), costs.call

    def handler(core):
        regs = core.regs
        regs[LINK_REGISTER] = core.pc
        core.pc = regs[r]
        core.cycles += cost
    return handler


def _bind_br(ops, costs):
    (target,) = ops
    r, cost = _reg(target), costs.branch_taken

    def handler(core):
        core.pc = core.regs[r]
        core.cycles += cost
    return handler


def _bind_ret(ops, costs):
    () = ops
    cost = costs.branch_taken

    def handler(core):
        core.pc = core.regs[LINK_REGISTER]
        core.cycles += cost
    return handler


# ------------------------------------------------------------ memory
def _load(cost_of, exclusive: bool = False):
    def binder(ops, costs):
        dest, mem = ops
        d, address, cost = _reg(dest), _address(mem), cost_of(costs)

        def handler(core):
            regs = core.regs
            addr = address(regs)
            regs[d] = core._mem_load(addr)
            if exclusive:
                core.memory.register_exclusive(core.core_id, addr)
            core.cycles += cost
        return _discarding(d, handler)
    return binder


def _store(cost_of, release: bool = False):
    def binder(ops, costs):
        source, mem = ops
        s, address, cost = _reg(source), _address(mem), cost_of(costs)

        def handler(core):
            regs = core.regs
            if release:
                core.buffer.barrier()
            core._mem_store(address(regs), regs[s])
            core.cycles += cost
        return handler
    return binder


def _store_exclusive(cost_of):
    def binder(ops, costs):
        status, source, mem = ops
        st, s = _reg(status), _reg(source)
        address, cost = _address(mem), cost_of(costs)

        def handler(core):
            regs = core.regs
            addr = address(regs)
            ok = core.memory.take_exclusive(core.core_id, addr)
            if ok and core.spurious_failure_rate and \
                    core.rng.random() < core.spurious_failure_rate:
                ok = False
            if ok:
                core.own_line(addr)
                core.memory.store_word(addr, regs[s])
                regs[st] = 0
            else:
                regs[st] = 1
            core.cycles += cost
        return _discarding(st, handler)
    return binder


def _atomic(stored, result_in: int, cost_of):
    """The single-instruction atomics, ``op first, second, [mem]``:
    ``stored(old, first, second)`` is the word to write back (``None``
    to leave memory alone) and operand ``result_in`` receives the old
    value."""
    def binder(ops, costs):
        first, second, address = \
            _reg(ops[0]), _reg(ops[1]), _address(ops[2])
        dest, cost = (first, second)[result_in], cost_of(costs)

        def handler(core):
            regs = core.regs
            addr = address(regs)
            core.own_line(addr)
            memory = core.memory
            old = memory.load_word(addr)
            word = stored(old, regs[first], regs[second])
            if word is not None:
                memory.store_word(addr, word)
            regs[dest] = old
            core.cycles += cost
        return _discarding(dest, handler)
    return binder


_bind_cas = _atomic(
    lambda old, expected, new: new if old == expected else None,
    0, lambda c: c.cas_op)


# ------------------------------------------------------------ fences
def _fence(cost_of, drain: bool = False, barrier: bool = False):
    def binder(ops, costs):
        () = ops
        cost = cost_of(costs)

        def handler(core):
            if drain:
                core.buffer.drain_all(core.memory)
            if barrier:
                core.buffer.barrier()
            core._account_fence(cost)
        return handler
    return binder


# ------------------------------------------------------------ system
def _bind_svc(ops, costs):
    (number,) = ops
    number, cost = _value(number), costs.syscall

    def handler(core):
        if core.svc_handler is None:
            raise MachineError("SVC with no handler installed")
        core.svc_handler(core, number(core.regs))
        core.cycles += cost
    return handler


def _bind_nop(ops, costs):
    cost = costs.alu

    def handler(core):
        core.cycles += cost
    return handler


def _halt(core) -> None:
    core.drain_buffer()
    core.halted = True


_alu = operator.attrgetter("alu")
_fp_native = operator.attrgetter("fp_native")

_BINDERS: dict[str, Callable] = {
    "mov": _bind_mov,
    "movz": _bind_mov,
    "add": _binary(operator.add, _alu),
    "sub": _binary(operator.sub, _alu),
    "and": _binary(operator.and_, _alu),
    "orr": _binary(operator.or_, _alu),
    "eor": _binary(operator.xor, _alu),
    "lsl": _binary(lambda a, b: a << (b & 63), _alu),
    "lsr": _binary(lambda a, b: a >> (b & 63), _alu),
    "asr": _binary(_asr, _alu),
    "mul": _binary(operator.mul, _alu),
    "udiv": _binary(lambda a, b: a // b if b else 0, _alu),
    "mvn": _unary(operator.invert, _alu),
    "neg": _unary(operator.neg, _alu),
    "cmp": _bind_cmp,
    "cset": _bind_cset,
    "csel": _bind_csel,
    "b": _bind_b,
    **{mnemonic: _conditional_branch(condition)
       for mnemonic, condition in CONDITIONAL_BRANCHES.items()},
    "cbz": _compare_branch(on_zero=True),
    "cbnz": _compare_branch(on_zero=False),
    "bl": _bind_bl,
    "blr": _bind_blr,
    "br": _bind_br,
    "ret": _bind_ret,
    "ldr": _load(lambda c: c.load),
    "ldar": _load(lambda c: c.load + c.acquire_extra),
    "ldapr": _load(lambda c: c.load + c.acquire_extra),
    "str": _store(lambda c: c.store),
    "stlr": _store(lambda c: c.store + c.release_extra, release=True),
    "ldxr": _load(lambda c: c.exclusive_op, exclusive=True),
    "ldaxr": _load(lambda c: c.exclusive_op + c.acquire_extra,
                   exclusive=True),
    "stxr": _store_exclusive(lambda c: c.exclusive_op),
    "stlxr": _store_exclusive(
        lambda c: c.exclusive_op + c.release_extra),
    "cas": _bind_cas,
    "casa": _bind_cas,
    "casl": _bind_cas,
    "casal": _bind_cas,
    "ldaddal": _atomic(lambda old, addend, _: (old + addend) & U64,
                       1, lambda c: c.atomic_add_op),
    "swpal": _atomic(lambda old, new, _: new,
                     1, lambda c: c.atomic_add_op),
    "dmbff": _fence(lambda c: c.dmb_ff, drain=True),
    "dmbld": _fence(lambda c: c.dmb_ld),
    "dmbst": _fence(lambda c: c.dmb_st, barrier=True),
    "fadd": _binary(_fp(operator.add), _fp_native),
    "fmul": _binary(_fp(operator.mul), _fp_native),
    "fdiv": _binary(_fp(lambda a, b: a / b if b else math.inf),
                    _fp_native),
    "fsqrt": _unary(_fsqrt, _fp_native),
    "svc": _bind_svc,
    "nop": _bind_nop,
    "hlt": lambda ops, costs: _halt,
}


def bind(insn: Insn, costs: CostModel) -> Handler:
    """Resolve one decoded instruction into its handler."""
    binder = _BINDERS.get(insn.mnemonic)
    if binder is None:
        raise MachineError(f"unimplemented Arm instruction {insn}")
    try:
        return binder(insn.operands, costs)
    except (ValueError, IndexError):
        raise MachineError(f"malformed operands in {insn}") from None
