"""Operational weak-memory engine: per-core store buffers.

Each core owns a store buffer; plain stores enter the buffer and drain
to shared memory later, possibly *out of order* across different
locations (Arm mode) or strictly FIFO (TSO mode — useful as a
contrast in tests).  Loads forward from the core's own buffer.

Ordering instruments:

* ``DMBFF`` (and every atomic/release in this model) drains the buffer,
* ``DMBST`` inserts a barrier marker: entries after it cannot drain
  before entries before it,
* same-location entries always drain in order (coherence).

This engine exhibits the store-side weak behaviours the paper's
motivation rests on (MP reordering, SB store buffering) and never
produces an outcome the axiomatic Arm model forbids — a property the
test suite checks by stress-running litmus programs.  Load-side
reordering (e.g. the read/read-acquire reordering behind the MPQ bug)
is *not* modelled operationally; that behaviour is covered by the
axiomatic engine in :mod:`repro.core`, as recorded in DESIGN.md.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from random import Random

from .memory import Memory


class BufferMode(enum.Enum):
    """How the buffer may drain."""

    #: Strict FIFO — models x86-TSO's single store buffer.
    TSO = "tso"
    #: Out of order across locations — models Arm store reordering.
    WEAK = "weak"
    #: No buffering at all — SC; stores hit memory immediately.
    NONE = "none"


_BARRIER = object()


@dataclass(slots=True)
class StoreBuffer:
    """One core's store buffer (slotted, like the core that owns it)."""

    mode: BufferMode = BufferMode.WEAK
    entries: list = field(default_factory=list)
    #: Stores among ``entries`` (the rest are barrier markers).  A
    #: barrier is never first or alone, so the buffer holds a store
    #: exactly when ``entries`` is non-empty.
    _stores: int = field(init=False)

    def __post_init__(self):
        self._stores = sum(1 for e in self.entries if e is not _BARRIER)

    # ------------------------------------------------------------------
    def push(self, addr: int, value: int) -> None:
        self.entries.append((addr, value))
        self._stores += 1

    def barrier(self) -> None:
        """Insert a store-store barrier (DMBST semantics)."""
        if self.entries and self.entries[-1] is not _BARRIER:
            self.entries.append(_BARRIER)

    def forward(self, addr: int) -> int | None:
        """Latest buffered value for ``addr``, if any (store→load
        forwarding)."""
        for entry in reversed(self.entries):
            if entry is not _BARRIER and entry[0] == addr:
                return entry[1]
        return None

    def pending(self) -> int:
        return self._stores

    # ------------------------------------------------------------------
    def _eligible_indices(self) -> list[int]:
        """Indices that may drain next without violating ordering."""
        if not self.entries:
            return []
        if self.mode is BufferMode.TSO:
            return [0] if self.entries[0] is not _BARRIER else []
        eligible = []
        seen_addrs: set[int] = set()
        for i, entry in enumerate(self.entries):
            if entry is _BARRIER:
                break
            addr = entry[0]
            if addr not in seen_addrs:
                eligible.append(i)
                seen_addrs.add(addr)
        return eligible

    def drain_one(self, memory: Memory, rng: Random) -> bool:
        """Drain one eligible entry (random choice in WEAK mode)."""
        self._pop_leading_barriers()
        eligible = self._eligible_indices()
        if not eligible:
            return False
        index = eligible[0] if self.mode is BufferMode.TSO \
            else rng.choice(eligible)
        addr, value = self.entries.pop(index)
        self._stores -= 1
        memory.store_word(addr, value)
        self._pop_leading_barriers()
        return True

    def drain_all(self, memory: Memory) -> int:
        """Flush everything, in buffer order (used by DMBFF/atomics)."""
        count = 0
        for entry in self.entries:
            if entry is _BARRIER:
                continue
            memory.store_word(entry[0], entry[1])
            count += 1
        self.entries.clear()
        self._stores = 0
        return count

    def _pop_leading_barriers(self) -> None:
        while self.entries and self.entries[0] is _BARRIER:
            self.entries.pop(0)
