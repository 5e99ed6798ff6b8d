"""Well-formedness of candidate executions (the axioms every model
shares, sc-per-loc and atomicity, are terms in :mod:`.models.terms`)."""

from __future__ import annotations

from .execution import Execution


def rf_well_formed(ex: Execution) -> bool:
    """Sanity: every read has exactly one rf source with matching
    location and value (the enumerator guarantees it; tests check)."""
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
