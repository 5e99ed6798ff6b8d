"""Constant folding and memory-access elimination in one forward walk.

The walk keeps one :class:`_Fact` per temp, its known constant and its
value number, and applies two rule sets:

* **fold** — constant propagation, folding and algebraic identities,
  among them ``x * 0 -> 0`` and ``x & 0 -> 0``: the *false-dependency
  elimination* of Section 6.1, legal because the TCG IR model orders
  nothing through dependencies.
* **eliminate** — Figure 10 over value-numbered addresses (two temps
  computing ``rbx + 8`` name one address): *RAW* turns a load after a
  store to the same address into a ``mov`` of the stored value, *RAR*
  a repeated load into a ``mov`` of the first, and *WAW* drops a store
  overwritten before any load may read it.  Only pure ops and fences
  whose mask the checker licenses (:data:`repro.core.transforms.
  ELIM_SAFE_RAR` & co.) may lie between; a call, an atomic or a store
  to a may-alias address invalidates what it may touch.

Fold rewrites each op first and eliminate sees the rewritten op, so
each rule set sees the op stream it would see as a pass of its own.
The two facts have their own lifetimes: a constant is forgotten at
labels (join points) and, for guest globals, at helper calls that may
write guest state; a value number, with every memory fact, at labels,
branches and every call.  A write to a guest global drops the value
numbers and addresses that mention its old value, found through a
reverse index.
"""

from __future__ import annotations

from collections import defaultdict
from functools import reduce
from operator import or_

from ...core.transforms import ELIM_SAFE_RAR, ELIM_SAFE_RAW, \
    ELIM_SAFE_WAW
from ..ir import MO_ALL, OP_SIGNATURES, Cond, Const, Op, TCGBlock, Temp, \
    fence_to_mask

U64 = (1 << 64) - 1


def _signed(v: int) -> int:
    return v - (1 << 64) if v & (1 << 63) else v


#: ALU op -> its value on two unsigned 64-bit operands (None: undefined).
_ALU = {
    "add": lambda a, b: (a + b) & U64,
    "sub": lambda a, b: (a - b) & U64,
    "and": lambda a, b: a & b,
    "or": lambda a, b: a | b,
    "xor": lambda a, b: a ^ b,
    "shl": lambda a, b: (a << (b & 63)) & U64,
    "shr": lambda a, b: a >> (b & 63),
    "sar": lambda a, b: (_signed(a) >> (b & 63)) & U64,
    "mul": lambda a, b: (a * b) & U64,
    "divu": lambda a, b: a // b if b else None,
    "remu": lambda a, b: a % b if b else None,
}


def _eval_cond(cond: Cond, a: int, b: int) -> bool:
    sa, sb = _signed(a), _signed(b)
    return {
        Cond.EQ: a == b, Cond.NE: a != b,
        Cond.LT: sa < sb, Cond.GE: sa >= sb,
        Cond.LE: sa <= sb, Cond.GT: sa > sb,
        Cond.LTU: a < b, Cond.GEU: a >= b,
        Cond.LEU: a <= b, Cond.GTU: a > b,
    }[cond]


def _identity_fold(name: str, dst, a, b) -> Op | None:
    """Algebraic identities, including false-dependency elimination."""
    a_const = a.value & U64 if isinstance(a, Const) else None
    b_const = b.value & U64 if isinstance(b, Const) else None
    if name == "mul" and (a_const == 0 or b_const == 0):
        return Op("movi", (dst, Const(0)))           # x*0 -> 0
    if name == "and" and (a_const == 0 or b_const == 0):
        return Op("movi", (dst, Const(0)))           # x&0 -> 0
    if name == "mul" and b_const == 1:
        return Op("mov", (dst, a))
    if name in ("add", "or", "xor", "shl", "shr", "sar") \
            and b_const == 0:
        return Op("mov", (dst, a))
    if name == "sub" and b_const == 0:
        return Op("mov", (dst, a))
    if name in ("add", "or", "xor") and a_const == 0:
        return Op("mov", (dst, b))
    return None


#: Helpers known not to write guest globals (pure value helpers).
_PURE_HELPERS = frozenset({
    "helper_fadd", "helper_fmul", "helper_fdiv", "helper_fsqrt",
})


def _licensed_masks(kinds) -> tuple[int, ...]:
    """The masks of the checker-licensed fences ``kinds``, less the one
    exclusion: MO_ALL.

    Figure 10 licenses RAW elimination across *Fsc*, but an ``mb`` op
    only carries a TCG_MO mask, which cannot distinguish Fsc (safe,
    thanks to its direct SC ordering) from Fmm (unsafe — like Fmr, the
    eliminated read is a codomain of its ordering rules).  Eliminations
    across MO_ALL masks are therefore refused: safety is not monotone in
    fence strength, so "stronger fence" is not "safer fence" here.
    """
    return tuple(sorted({fence_to_mask(kind) for kind in kinds}
                        - {MO_ALL}))


_SAFE_RAR_MASKS = _licensed_masks(ELIM_SAFE_RAR)
_SAFE_RAW_MASKS = _licensed_masks(ELIM_SAFE_RAW)
_SAFE_WAW_MASKS = _licensed_masks(ELIM_SAFE_WAW)

#: A symbolic address: (value number of the base, offset).
Address = tuple[int, int]


def _may_alias(a: Address, b: Address) -> bool:
    """Word accesses may alias unless they share a base value with
    offsets a word or more apart."""
    return a[0] != b[0] or abs(a[1] - b[1]) < 8


class _Fact:
    """What the walk knows about one temp."""

    __slots__ = ("const", "value")

    def __init__(self):
        self.const: int | None = None  # fold
        self.value: int | None = None  # eliminate


class _Walk:
    """The facts and the rewritten ops of one walk over one block."""

    def __init__(self):
        self.facts: defaultdict[Temp, _Fact] = defaultdict(_Fact)
        #: key -> value number: ``("const", v)``, ``("global", name)``
        #: (its value since its last write), ``("other", arg)`` or
        #: ``(op, *input numbers)``.  Opaque numbers have no key.
        self.numbers: dict[tuple, int] = {}
        #: value number -> the guest globals it mentions
        self.mentions: list[frozenset[str]] = []
        #: guest global -> the temps and addresses given a value
        #: number that mentions it (the reverse index)
        self.users: defaultdict[str, set] = defaultdict(set)
        #: the masks of the ``mb`` ops so far, in order
        self.fences: list[int] = []
        #: address -> (stored arg, its value number, len(fences) then)
        self.stored: dict[Address, tuple] = {}
        #: address -> (loaded temp, its value number, len(fences) then)
        self.loaded: dict[Address, tuple] = {}
        #: address -> index in ``out`` of a store no load since may
        #: have read
        self.store_site: dict[Address, int] = {}
        self.memory = (self.stored, self.loaded, self.store_site)
        #: the rewritten ops; ``None`` marks a store WAW dropped
        self.out: list[Op | None] = []
        self.folded = 0
        self.eliminated = 0

    # -- fold -------------------------------------------------------
    def resolve(self, value):
        if isinstance(value, Temp):
            fact = self.facts.get(value)
            if fact is not None and fact.const is not None:
                return Const(fact.const)
        return value

    def folded_to(self, dst: Temp, value: int) -> Op:
        self.facts[dst].const = value
        self.folded += 1
        return Op("movi", (dst, Const(value)))

    def fold(self, op: Op) -> Op:
        name = op.name
        if name == "set_label":
            for fact in self.facts.values():  # join point
                fact.const = None
            return op
        if name == "call":
            helper, ret, *args = op.args
            args = [self.resolve(a) for a in args]
            if helper not in _PURE_HELPERS:
                # May write guest state (syscall): forget globals.
                for temp, fact in self.facts.items():
                    if temp.is_global:
                        fact.const = None
            if ret is not None:
                self.facts[ret].const = None
            return Op("call", (helper, ret, *args))

        n_out = OP_SIGNATURES[name][0]
        args = op.args
        facts = self.facts
        for arg in args[n_out:]:
            if isinstance(arg, Temp):
                fact = facts.get(arg)
                if fact is not None and fact.const is not None:
                    # Some input is a known constant: substitute all.
                    args = args[:n_out] + tuple(
                        map(self.resolve, args[n_out:]))
                    break
        if name == "movi":
            self.facts[args[0]].const = args[1].value & U64
            return op
        if name == "mov":
            dst, src = args
            if isinstance(src, Const):
                self.facts[dst].const = src.value & U64
                self.folded += 1
                return Op("movi", (dst, src))
        elif name in _ALU:
            dst, a, b = args
            if isinstance(a, Const) and isinstance(b, Const):
                value = _ALU[name](a.value & U64, b.value & U64)
                if value is not None:
                    return self.folded_to(dst, value)
            identity = _identity_fold(name, dst, a, b)
            if identity is not None:
                self.facts[dst].const = identity.args[1].value & U64 \
                    if identity.name == "movi" else None
                self.folded += 1
                return identity
        elif name in ("neg", "not"):
            dst, a = args
            if isinstance(a, Const):
                return self.folded_to(
                    dst, (-a.value if name == "neg" else ~a.value) & U64)
        elif name == "setcond":
            dst, a, b, cond = args
            if isinstance(a, Const) and isinstance(b, Const):
                return self.folded_to(dst, int(_eval_cond(
                    cond, a.value & U64, b.value & U64)))
        # Not folded: the output's value is unknown.  Provenance (mb
        # origins) must survive the rebuild.
        if n_out:
            self.facts[args[0]].const = None
        return op if args is op.args else Op(name, args, origin=op.origin)

    # -- eliminate --------------------------------------------------
    def number(self, key: tuple, parts: tuple[int, ...] = (),
               mentions: frozenset[str] = frozenset()) -> int:
        """The value number of ``key``, built from value numbers
        ``parts`` (it mentions what they do, plus ``mentions``)."""
        number = self.numbers.get(key)
        if number is None:
            number = self.numbers[key] = len(self.mentions)
            self.mentions.append(mentions.union(
                *map(self.mentions.__getitem__, parts)))
        return number

    def opaque(self) -> int:
        """A value number equal to no other."""
        self.mentions.append(frozenset())
        return len(self.mentions) - 1

    def set_value(self, temp: Temp, number: int) -> None:
        self.facts[temp].value = number
        for name in self.mentions[number]:
            self.users[name].add(temp)

    def value_of(self, arg) -> int:
        """``arg``'s value number.  A temp without one is given one and
        keeps it until redefined: a global its value since its last
        write, a local an opaque number."""
        if not isinstance(arg, Temp):
            return self.number(("const", arg.value)
                               if isinstance(arg, Const)
                               else ("other", arg))
        value = self.facts[arg].value
        if value is None:
            value = self.number(("global", arg.name),
                                mentions=frozenset((arg.name,))) \
                if arg.is_global else self.opaque()
            self.set_value(arg, value)
        return value

    def address(self, base, offset: Const) -> Address:
        addr = (self.value_of(base), offset.value)
        for name in self.mentions[addr[0]]:
            self.users[name].add(addr)
        return addr

    def safe_since(self, fences_then: int, licensed) -> bool:
        """The fences since ``fences_then`` order no more than some
        mask in ``licensed`` does."""
        mask = reduce(or_, self.fences[fences_then:], 0)
        return any(mask | safe == safe for safe in licensed)

    def define(self, temp: Temp, number: int) -> None:
        """``temp`` is written with ``number``.  A global's old value is
        gone, so first drop the value numbers and memory facts that
        mention it."""
        if temp.is_global:
            for user in self.users.pop(temp.name, ()):
                if isinstance(user, Temp):
                    fact = self.facts[user]
                    if fact.value is not None \
                            and temp.name in self.mentions[fact.value]:
                        fact.value = None
                else:
                    for table in self.memory:
                        table.pop(user, None)
        self.set_value(temp, number)

    def forget_memory(self) -> None:
        for table in self.memory:
            table.clear()

    def eliminate(self, op: Op) -> None:
        name = op.name
        out = self.out
        if name == "mov":
            dst, src = op.args
            self.define(dst, self.value_of(src))
        elif name == "movi":
            dst, const = op.args
            self.define(dst, self.number(("const", const.value)))
        elif name in ("set_label", "brcond", "br", "call"):
            # Join point, branch, or a helper that may read/write
            # memory and guest globals.
            for fact in self.facts.values():
                fact.value = None
            self.users.clear()
            self.forget_memory()
        elif name in ("cas", "atomic_add", "atomic_xchg"):
            self.forget_memory()
            self.define(op.args[0], self.opaque())
        elif name == "mb":
            self.fences.append(op.args[0].value)
        elif name == "ld":
            dst, base, offset = op.args
            addr = self.address(base, offset)
            # Forward or reuse only while the source temp still holds
            # the value it held at the store or load.
            if addr in self.stored:
                src, value, fences_then = self.stored[addr]
                if self.safe_since(fences_then, _SAFE_RAW_MASKS) \
                        and self.value_of(src) == value:
                    out.append(Op("mov", (dst, src)))
                    self.loaded[addr] = (dst, value, len(self.fences))
                    self.define(dst, value)
                    self.eliminated += 1
                    return
            if addr in self.loaded:
                prev, value, fences_then = self.loaded[addr]
                if self.safe_since(fences_then, _SAFE_RAR_MASKS) \
                        and self.value_of(prev) == value:
                    out.append(Op("mov", (dst, prev)))
                    self.define(dst, value)
                    self.eliminated += 1
                    return
            # This load reads memory, so it observes every earlier
            # store it may alias: WAW must not drop any of them.
            for key in [k for k in self.store_site if _may_alias(k, addr)]:
                del self.store_site[key]
            value = self.opaque()
            self.loaded[addr] = (dst, value, len(self.fences))
            self.define(dst, value)
        elif name == "st":
            src, base, offset = op.args
            addr = self.address(base, offset)
            site = self.store_site.get(addr)
            if site is not None and self.safe_since(self.stored[addr][2],
                                                    _SAFE_WAW_MASKS):
                out[site] = None
                self.eliminated += 1
            # The store invalidates what it may overwrite.
            for table in self.memory:
                for key in [k for k in table
                            if k != addr and _may_alias(k, addr)]:
                    del table[key]
            self.stored[addr] = (src, self.value_of(src), len(self.fences))
            self.store_site[addr] = len(out)
            self.loaded.pop(addr, None)
        elif OP_SIGNATURES[name][0]:
            parts = tuple(map(self.value_of, op.args[1:]))
            self.define(op.args[0], self.number((name, *parts), parts))
        out.append(op)


def forward_walk(block: TCGBlock, *, fold: bool,
                 eliminate: bool) -> tuple[int, int]:
    """Run the enabled rule sets over ``block`` in one walk; returns
    ``(ops folded, memory accesses eliminated)``."""
    walk = _Walk()
    for op in block.ops:
        if fold:
            op = walk.fold(op)
        if eliminate:
            walk.eliminate(op)
        else:
            walk.out.append(op)
    block.ops = [op for op in walk.out if op is not None]
    return walk.folded, walk.eliminated
