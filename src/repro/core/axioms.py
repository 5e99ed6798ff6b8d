"""Consistency axioms shared by all three memory models.

Section 5.2 ("Common features"): both x86 and Arm — and the proposed
TCG IR model — enforce per-location coherence (sc-per-loc) and RMW
atomicity.  These predicates operate on candidate executions.
"""

from __future__ import annotations

from .execution import Execution
from .relations import union


def sc_per_loc(ex: Execution) -> bool:
    """Coherence: ``(po|loc ∪ rf ∪ co ∪ fr)+`` is irreflexive."""
    return union((ex.co, ex.po_loc, ex.rf, ex.fr)).is_acyclic()


def atomicity(ex: Execution) -> bool:
    """No write intervenes inside a successful RMW:
    ``rmw ∩ (fre ; coe) = ∅``."""
    return not ex.rmw or not ex.rmw & (ex.fre @ ex.coe)


def rf_well_formed(ex: Execution) -> bool:
    """Sanity: every read has exactly one rf source with matching
    location and value.  The enumerator guarantees this; models assert
    it cheaply so hand-built executions are caught."""
    seen: dict[int, int] = {}
    for src, dst in ex.rf:
        if dst in seen:
            return False
        seen[dst] = src
        wsrc, rdst = ex.events[src], ex.events[dst]
        if not wsrc.is_write() or not rdst.is_read():
            return False
        if wsrc.loc != rdst.loc or wsrc.val != rdst.val:
            return False
    return set(seen) == set(ex.reads)


def co_well_formed(ex: Execution) -> bool:
    """Sanity: co relates only same-location writes (co ⊆ ⋃ₗ Wₗ × Wₗ),
    never points into an init write, and totally orders each
    location's writes."""
    by_loc: dict[str, list[int]] = {}
    for eid in ex.writes:
        by_loc.setdefault(ex.events[eid].loc, []).append(eid)
    for a, b in ex.co:
        first, second = ex.events.get(a), ex.events.get(b)
        if first is None or second is None or not first.is_write() \
                or not second.is_write() or first.loc != second.loc \
                or second.is_init:
            return False
    return all(ex.co.restrict(writes, writes).is_total_on(writes)
               for writes in by_loc.values())
