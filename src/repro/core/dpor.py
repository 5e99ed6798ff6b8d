"""The reductions of the rf/co candidate search.

:func:`repro.core.enumerate.enumerate_consistent` is one walk — trace
combos → rf assignments → coherence orders → the model's axioms — and
this module holds the three pieces that keep that walk small:

* :class:`RfSearch` — a DFS over rf assignments in most-constrained-
  first order with (a) incremental forced-coherence closures per
  location, holding every co edge sc-per-loc implies for the rf so far
  (CoWR, CoRW, CoRR and the RMW pin — so no candidate it lets through
  fails sc-per-loc), (b) RMW source-disjointness cuts and (c) the model's
  monotone rf-stage precheck on every *partial* assignment, so an
  inconsistent prefix kills its whole subtree, judged by difference
  along the branch (:meth:`RfSearch._judge`).  The search is exact —
  it removes only candidates no consistent execution can extend — so
  both configurations of the walk sit on it.

* thread symmetry — one canonical trace combo per orbit of identical-
  thread permutations (:func:`is_canonical`, weighted by
  :func:`orbit_size`), the behaviours of the others recovered by
  register renaming.

* :func:`reduced_behaviors` — the walk in *representative* mode, as
  used by :func:`~repro.core.enumerate.behaviors`: canonical combos
  only, and one coherence *witness* per behaviour-distinguishing class
  of co instead of every linear extension.  Executions sharing (combo,
  rf, per-location final write value) have the same ``full_behavior``,
  so the walk stops at the first consistent witness of a class — exact
  for behaviour *sets*, which is all Theorem-1 checking consumes.

Soundness notes (each prune, in one line):

* forced coherence — each edge is an sc-per-loc consequence of the rf
  assigned so far, so a stronger forced order only drops rf branches
  and linear extensions with no coherent member; the survivors come in
  the same relative order, and a write forced co-before another was
  never a co-last candidate.
* prefix precheck — ``rf_stage_consistent`` is monotone in rf and co
  whenever ``supports_staged`` holds, which the evaluator derives from
  the axiom terms (see :mod:`repro.core.models.terms`); extending an
  assignment only grows rf and the forced co edges, so a violated
  axiom stays violated.
* judging by difference — an extension adds exactly its rf edge, its
  new co bits and the fr (= rf⁻¹;co) edges those make, so a plan's
  relation turns cyclic iff one new edge (a, b) has b reaching a.
* symmetry — identical thread bodies yield identical trace lists, and
  relabeling identical threads is an isomorphism of candidate
  executions for tid-agnostic models; behaviours follow by renaming
  the ``T<tid>:<reg>`` register keys (memory keys are invariant).
* coherence classes — the final value of a location under a total co
  is its co-last write, which must be maximal in the forced partial
  order; grouping maximal writes by value partitions the co extensions
  into behaviour-equivalent classes.

Nothing here imports :mod:`repro.core.enumerate` at load time: that
module builds its walk on these pieces, and only
:func:`reduced_behaviors` calls back up into it.
"""

from __future__ import annotations

import itertools
import math
from typing import TYPE_CHECKING

from .execution import Execution
from .program import Program
from .relations import Rel, _bits, union

if TYPE_CHECKING:
    from .enumerate import EnumerationStats


def _link(rows: dict, base: dict, a: int, mask: int) -> dict | None:
    """Closed ``rows`` plus ``a -> b`` for every bit b of ``mask``, kept
    closed (copied first while still ``base``); None when an edge closes
    a cycle.  Every row reaching ``a``, and ``a``'s own, gains each new
    b and b's row."""
    gain = mask & ~rows.get(a, 0)
    if not gain:
        return rows
    for b in _bits(gain):
        gain |= rows.get(b, 0)
    if gain >> a & 1:
        return None
    if rows is base:
        rows = dict(base)
    bit_a = 1 << a
    for x, row in rows.items():
        if row & bit_a:
            rows[x] = row | gain
    rows[a] = rows.get(a, 0) | gain
    return rows


def _skeleton_state(graph, model) -> tuple:
    """What :class:`RfSearch` needs of a combo that neither values nor
    rf move, shared by its skeleton's combos: forced co base closures,
    read peers, readers per location, thread masks, per plan its (rf,
    co, fr) modes — whole (1), cross-thread (2), none (0) — and rows
    seeded with its static part and the base co (None if those cycle),
    and the checks a prefix execution must still pass.

    The base co is rf-independent: the init write first, and same-thread
    same-location writes in program order (CoWW; both consequences of
    sc-per-loc ∪ co well-formedness); the rest is
    :meth:`RfSearch._extend`'s."""
    events, reads = graph.events, graph.reads
    base = {}
    for loc, writes in graph.writes_by_loc.items():
        init = graph.init_writes[loc]
        edges = {(init, w.eid) for w in writes if w.eid != init}
        for w1, w2 in itertools.combinations(writes, 2):
            if w1.tid == w2.tid and not w1.is_init:
                edges.add((w1.eid, w2.eid) if w1.idx < w2.idx
                          else (w2.eid, w1.eid))
        base[loc] = Rel(edges).plus()
    peers = {rd.eid: [(e.eid, e.idx < rd.idx, e.is_read())
                      for e in events.values()
                      if e.tid == rd.tid and e.loc == rd.loc
                      and e.eid != rd.eid]
             for rd in reads}
    readers = {loc: [rd.eid for rd in reads if rd.loc == loc]
               for loc in graph.locations}
    ex = graph.execution(co=union(base.values()))
    plans, checks = model.prefix_judge(ex)
    modes, reach = [], []
    for static, leaves in plans:
        modes.append(tuple(
            1 if name in leaves else 2 if f"{name}e" in leaves else 0
            for name in ("rf", "co", "fr")))
        closed = union([static(ex) if static else Rel.empty(),
                        *(getattr(ex, name) for name in leaves)]).plus()
        reach.append(closed.rows if closed.is_irreflexive() else None)
    return base, peers, readers, ex._same_thread, tuple(modes), \
        tuple(reach), checks


class RfSearch:
    """DFS over rf assignments for one combo graph.

    Iterating yields ``(rf_choice, forced)`` pairs for every assignment
    no monotone argument could reject: ``rf_choice`` is aligned with
    ``graph.reads`` (whatever order the DFS explored), ``forced`` maps
    each location to the transitive closure of its forced coherence
    edges under that assignment.
    """

    def __init__(self, graph, rf_options: list[list[int]], model,
                 stats: EnumerationStats):
        self.graph = graph
        self.options = rf_options
        self.stats = stats
        self.reads = graph.reads
        # Most-constrained-first: reads with few sources sit near the
        # root, so each rejection cuts the biggest possible subtree.
        # The eid tiebreak keeps the walk (and every counter)
        # deterministic.
        self.order = sorted(
            range(len(self.reads)),
            key=lambda i: (len(rf_options[i]), self.reads[i].eid))
        memo = graph.memo   # one search's, so one model's
        if "rf" not in memo:
            memo["rf"] = _skeleton_state(graph, model)
        base, self.peers, self.readers, self.same, self.modes, \
            self.reach, self.checks = memo["rf"]
        #: Per location, the closure of the forced co edges so far; a
        #: branch swaps in an extended copy and restores it on backtrack.
        self.closed = dict(base)
        self.choice: dict[int, int] = {}       # read eid -> source eid
        self.rmw_used: set[int] = set()

    def __iter__(self):
        yield from self._rec(0)

    # ------------------------------------------------------------------
    def _rec(self, depth: int):
        if depth == len(self.order):
            yield (tuple(self.choice[rd.eid] for rd in self.reads),
                   dict(self.closed))
            return
        i = self.order[depth]
        rd = self.reads[i]
        loc = rd.loc
        is_rmw = rd.rmw_partner is not None
        stats = self.stats
        last_depth = depth + 1 == len(self.order)
        for src in self.options[i]:
            if is_rmw and src in self.rmw_used:
                stats.rf_rejected_rmw += 1
                continue
            prev_closed = self.closed[loc]
            closure = self._extend(prev_closed, rd, src)
            if closure is None:
                stats.rf_rejected_coherence += 1
                continue
            self.closed[loc] = closure
            self.choice[rd.eid] = src
            if is_rmw:
                self.rmw_used.add(src)
            reach = self._judge(rd, src, prev_closed)
            if reach is not None:
                prev_reach, self.reach = self.reach, reach
                yield from self._rec(depth + 1)
                self.reach = prev_reach
            else:
                stats.rf_rejected_precheck += 1
                if not last_depth:
                    stats.rf_prefix_rejected += 1
            if is_rmw:
                self.rmw_used.discard(src)
            del self.choice[rd.eid]
            self.closed[loc] = prev_closed

    # ------------------------------------------------------------------
    def _extend(self, closed: Rel, rd, src) -> Rel | None:
        """``closed`` plus the coherence edges forced by ``rd`` observing
        ``src``, kept closed; None when they close a cycle.

        One rule covers all four sc-per-loc shapes.  The *anchor* of a
        memory event is the write itself, or a read's rf source once
        assigned.  For every other same-location event E of rd's thread
        with a known anchor V != src: ``co(V, src)`` when E is po-before
        rd, ``co(src, V)`` when po-after — else fr, rf and po_loc close
        a cycle.  E a write gives CoWR and CoRW (which pins a successful
        RMW's source immediately co-before its write), E a read CoRR;
        the DFS is not in po order, so a read assigned later covers the
        pair from the other side."""
        rows = closed.rows
        choice = self.choice
        for eid, before, is_read in self.peers[rd.eid]:
            v = choice.get(eid) if is_read else eid
            if v is None or v == src:
                continue
            a, b = (v, src) if before else (src, v)
            rows = _link(rows, closed.rows, a, 1 << b)
            if rows is None:
                return None
        return closed if rows is closed.rows else Rel.of_rows(rows)

    def _judge(self, rd, src, prev: Rel):
        """The plans' rows plus the rf, new co and new fr edges of
        ``rd`` taking ``src``; None when an edge (a, b) has a reachable
        from b, or a remaining check fails on the prefix."""
        rows = self.closed[rd.loc].rows
        old = prev.rows
        co = {x: new for x, row in rows.items()
              if (new := row & ~old.get(x, 0))} if rows is not old else {}
        fr = [(rd.eid, rows.get(src, 0))]
        for r in self.readers[rd.loc]:
            s = self.choice.get(r)
            if r != rd.eid and s in co:
                fr.append((r, co[s]))
        groups = ([(src, 1 << rd.eid)], co.items(), fr)
        same, out = self.same, []
        for modes, base in zip(self.modes, self.reach):
            if base is None:
                return None
            reach = base
            for mode, edges in zip(modes, groups):
                for a, mask in edges if mode else ():
                    reach = _link(reach, base, a,
                                  mask & ~same[a] if mode == 2 else mask)
                    if reach is None:
                        return None
            out.append(reach)
        if self.checks:
            graph = self.graph
            ex = Execution(
                events=graph.events, po=graph.po,
                rf=Rel((s, r) for r, s in self.choice.items()),
                co=union(self.closed.values()), data=graph.data,
                ctrl=graph.ctrl, regs=graph.regs, memo=graph.memo)
            if not all(check(ex) for check in self.checks):
                return None
        return out


# ----------------------------------------------------------------------
# Thread symmetry
# ----------------------------------------------------------------------
def thread_symmetry_classes(program: Program) -> tuple[tuple[int, ...],
                                                       ...]:
    """Groups of thread ids with byte-identical op sequences (size > 1
    only — singleton classes admit no reduction)."""
    groups: dict = {}
    for tid, ops in enumerate(program.threads):
        groups.setdefault(ops, []).append(tid)
    return tuple(tuple(tids) for tids in groups.values()
                 if len(tids) > 1)


def is_canonical(combo_idx: tuple[int, ...], classes) -> bool:
    """A combo is the orbit representative when trace indices are
    non-decreasing within every identity class."""
    for tids in classes:
        for a, b in zip(tids, tids[1:]):
            if combo_idx[a] > combo_idx[b]:
                return False
    return True


def orbit_size(combo_idx: tuple[int, ...], classes) -> int:
    """Distinct combos reachable by permuting identical threads: the
    multinomial k!/Π(mult!) per class, multiplied over classes."""
    size = 1
    for tids in classes:
        counts: dict[int, int] = {}
        for t in tids:
            counts[combo_idx[t]] = counts.get(combo_idx[t], 0) + 1
        class_size = math.factorial(len(tids))
        for mult in counts.values():
            class_size //= math.factorial(mult)
        size *= class_size
    return size


def _tid_renamings(classes) -> list[dict[int, int]]:
    """Every tid permutation generated by the identity classes (the
    identity mapping included)."""
    per_class = [
        [dict(zip(tids, perm))
         for perm in itertools.permutations(tids)]
        for tids in classes
    ]
    renamings = []
    for parts in itertools.product(*per_class):
        mapping: dict[int, int] = {}
        for part in parts:
            mapping.update(part)
        renamings.append(mapping)
    return renamings or [{}]


def _renamed_key(key: str, mapping: dict[int, int]) -> str:
    """A ``T<tid>:<reg>`` register key under a tid permutation; memory
    keys pass through untouched."""
    tid_part, sep, reg = key.partition(":")
    if sep and tid_part.startswith("T") and tid_part[1:].isdigit():
        tid = int(tid_part[1:])
        if tid in mapping:
            return f"T{mapping[tid]}:{reg}"
    return key


# ----------------------------------------------------------------------
# Representative-mode behaviour enumeration
# ----------------------------------------------------------------------
def reduced_behaviors(program: Program, model,
                      limit: int | None = None,
                      stats: EnumerationStats | None = None) -> frozenset:
    """The behaviour set of ``program`` under ``model`` via the full
    reduction stack: DPOR rf search + thread symmetry + coherence
    classes.  Bit-identical to the naive/staged behaviour sets (the
    differential tests pin this); exponentially fewer candidates
    materialized.

    This is :func:`~repro.core.enumerate.enumerate_consistent` in
    representative mode — which owns the candidate ``limit``, the
    ``supports_staged`` fallback and the accounting into ``stats`` —
    with each witness's behaviour spread over its symmetry orbit.
    """
    from . import enumerate as enumerate_mod

    witnessed = {ex.full_behavior
                 for ex in enumerate_mod.enumerate_consistent(
                     program, model, limit=limit, stats=stats,
                     representatives=True)}
    # One key table per renaming, over every key the witnesses carry.
    keys = {key for beh in witnessed for key, _ in beh}
    tables = [{key: _renamed_key(key, mapping) for key in keys}
              for mapping in _tid_renamings(
                  thread_symmetry_classes(program))]
    return frozenset(frozenset((table[key], val) for key, val in beh)
                     for beh in witnessed for table in tables)
