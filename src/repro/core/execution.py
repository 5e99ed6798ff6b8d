"""Execution graphs: events plus po/rf/co and derived relations.

This realizes Section 5.1 of the paper: an execution
``X = <E, po, rf, co>`` with the derived relations ``fr``, the external
variants ``rfe``/``coe``/``fre``, the ``rmw`` pairing relation, and the
behaviour function ``Behav`` (final values of all memory locations).

Dependency relations (``data``, ``ctrl``; the litmus AST computes no
addresses) are carried along because the Arm model orders some
dependent accesses (``dob``); the x86 and TCG models ignore them — which
is exactly why TCG may legally erase false dependencies (Section 6.1).
What depends on the combo's skeleton alone lives in the skeleton memo
(:meth:`Execution.invariant`), shared by every combo of one skeleton.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet

from .events import Event, Fence, Mode, RmwFlavor
from .relations import Rel

Behavior = FrozenSet[tuple[str, int]]


class _cached:
    """``functools.cached_property`` without the lock that Python 3.11
    takes on every first access."""

    def __init__(self, fn):
        self.fn, self.name, self.__doc__ = fn, fn.__name__, fn.__doc__

    def __get__(self, ex, owner=None):
        if ex is None:
            return self
        value = ex.__dict__[self.name] = self.fn(ex)
        return value


class _per_combo(_cached):
    """A property fixed by the combo's skeleton, cached in ``ex.memo``."""

    def __get__(self, ex, owner=None):
        return self if ex is None else ex.invariant(self.name, self.fn, ex)


@dataclass
class Execution:
    """An immutable candidate execution.

    The relations are over event ids; ``events`` maps ids to
    :class:`~repro.core.events.Event` objects.  Derived relations are
    cached: executions are never mutated after construction.
    """

    events: dict[int, Event]
    po: Rel
    rf: Rel
    co: Rel
    data: Rel = field(default_factory=Rel)
    ctrl: Rel = field(default_factory=Rel)
    #: Final register values, as ("T<tid>:<reg>", value) pairs.  These
    #: stand in for the paper's "augment the program with additional
    #: shared variables to observe thread-local values" device, without
    #: polluting the event graph.
    regs: Behavior = frozenset()
    #: Values fixed by the combo's skeleton, shared by every candidate
    #: of every combo with it (see :meth:`invariant`).
    memo: dict = field(default_factory=dict, compare=False, repr=False)

    def invariant(self, key, compute, *args):
        """``compute(*args)``, memoized under ``key`` in the skeleton
        memo: for values of the skeleton only, never values."""
        memo = self.memo
        if key not in memo:
            memo[key] = compute(*args)
        return memo[key]

    # ------------------------------------------------------------------
    # Event classes
    # ------------------------------------------------------------------
    @_per_combo
    def reads(self) -> frozenset[int]:
        return frozenset(e for e, ev in self.events.items() if ev.is_read())

    @_per_combo
    def writes(self) -> frozenset[int]:
        return frozenset(e for e, ev in self.events.items() if ev.is_write())

    @_per_combo
    def memory_events(self) -> frozenset[int]:
        return self.reads | self.writes

    def fences(self, *kinds: Fence) -> frozenset[int]:
        """Event ids of fences of any of the given kinds."""
        return self.invariant(("fences", kinds), lambda: frozenset(
            e for e, ev in self.events.items()
            if ev.is_fence() and ev.fence in kinds))

    def with_mode(self, kind: str, mode: Mode) -> frozenset[int]:
        """Memory events of ``kind`` ("R"/"W") carrying annotation ``mode``."""
        return self.invariant(("mode", kind, mode), lambda: frozenset(
            e for e, ev in self.events.items()
            if ev.kind == kind and ev.mode == mode))

    # ------------------------------------------------------------------
    # RMW relations
    # ------------------------------------------------------------------
    @_per_combo
    def rmw(self) -> Rel:
        """Pairs of rmw-related (read, write) events of successful RMWs."""
        return Rel((eid, ev.rmw_partner) for eid, ev in self.events.items()
                   if ev.is_read() and ev.rmw_partner is not None)

    def rmw_of_flavor(self, *flavors: RmwFlavor) -> Rel:
        return self.invariant(("rmw", flavors), lambda: Rel(
            (r, w) for r, w in self.rmw
            if self.events[r].rmw_flavor in flavors))

    @property
    def amo(self) -> Rel:
        """Arm single-instruction RMW pairs (``RMW1``)."""
        return self.rmw_of_flavor(RmwFlavor.AMO)

    @property
    def lxsx(self) -> Rel:
        """Arm load/store-exclusive RMW pairs (``RMW2``)."""
        return self.rmw_of_flavor(RmwFlavor.LXSX)

    # ------------------------------------------------------------------
    # Derived communication relations
    # ------------------------------------------------------------------
    @_cached
    def fr(self) -> Rel:
        """from-read: ``rf^-1 ; co`` — a read's row is its source's co
        row."""
        co, out = self.co.rows, {}
        for src, readers in self.rf.rows.items():
            while src in co and readers:
                low = readers & -readers
                rd = low.bit_length() - 1
                out[rd] = out.get(rd, 0) | co[src]
                readers ^= low
        return Rel.of_rows(out)

    @_per_combo
    def _same_thread(self) -> dict[int, int]:
        """eid -> mask of the events of its thread (the init writes
        share one)."""
        by_tid: dict[int, int] = {}
        for eid, ev in self.events.items():
            by_tid[ev.tid] = by_tid.get(ev.tid, 0) | 1 << eid
        return {eid: by_tid[ev.tid] for eid, ev in self.events.items()}

    def _external(self, rel: Rel) -> Rel:
        """Strip same-thread pairs (po-related or init-involving pairs on
        the same thread never occur; externality is cross-thread)."""
        same = self._same_thread
        return Rel.of_rows({a: other for a, mask in rel.rows.items()
                            if (other := mask & ~same[a])})

    @_cached
    def rfe(self) -> Rel:
        return self._external(self.rf)

    @_cached
    def coe(self) -> Rel:
        return self._external(self.co)

    @_cached
    def fre(self) -> Rel:
        return self._external(self.fr)

    @_per_combo
    def po_loc(self) -> Rel:
        """po restricted to same-location memory accesses."""
        return Rel(
            (a, b) for a, b in self.po
            if self.events[a].is_memory() and self.events[b].is_memory()
            and self.events[a].loc == self.events[b].loc
        )

    # ------------------------------------------------------------------
    # Behaviour
    # ------------------------------------------------------------------
    @_cached
    def behavior(self) -> Behavior:
        """Final value of every location: writes with no co-successor."""
        out: dict[str, int] = {}
        for eid, ev in self.events.items():
            if ev.is_write() and eid not in self.co.rows:
                assert ev.loc is not None and ev.val is not None
                out[ev.loc] = ev.val
        return frozenset(out.items())

    @_cached
    def full_behavior(self) -> Behavior:
        """Memory behaviour plus observed final register values.

        This is the quantity compared by the Theorem-1 verifier: two
        executions "agree" when both the final memory contents and every
        observed register match.
        """
        return self.behavior | self.regs

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------
    def describe(self) -> str:
        """Multi-line human-readable dump, for verifier witnesses."""
        lines = []
        by_tid: dict[int, list[Event]] = {}
        for ev in self.events.values():
            by_tid.setdefault(ev.tid, []).append(ev)
        for tid in sorted(by_tid):
            evs = sorted(by_tid[tid], key=lambda e: e.idx)
            lines.append(
                f"  T{tid}: " + "; ".join(repr(e) for e in evs)
            )
        lines.append(f"  rf: {sorted(self.rf.pairs)}")
        lines.append(f"  co: {sorted(self.co.pairs)}")
        lines.append(f"  behavior: {dict(sorted(self.behavior))}")
        return "\n".join(lines)
