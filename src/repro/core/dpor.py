"""The reductions of the rf/co candidate search.

:func:`repro.core.enumerate.enumerate_consistent` is one walk — trace
combos → rf assignments → coherence orders → the model's axioms — and
this module holds the three pieces that keep that walk small:

* :class:`RfSearch` — a DFS over rf assignments in most-constrained-
  first order with (a) incremental forced-coherence closures per
  location, (b) RMW source-disjointness cuts and (c) the model's
  monotone rf-stage precheck on every *partial* assignment, so an
  inconsistent prefix kills its whole subtree.  The search is exact —
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

* prefix precheck — ``rf_stage_consistent`` is monotone in rf and co
  whenever ``supports_staged`` holds, which the evaluator derives from
  the axiom terms (see :mod:`repro.core.models.terms`); extending an
  assignment only grows rf and the forced co edges, so a violated
  axiom stays violated.
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
from .relations import Rel, union

if TYPE_CHECKING:
    from .enumerate import EnumerationStats


def _forced_co_base(graph) -> dict[str, set]:
    """rf-independent forced coherence edges, per location: the init
    write first, and same-thread same-location writes in program order
    (both are consequences of sc-per-loc ∪ co well-formedness)."""
    base: dict[str, set] = {}
    for loc, writes in graph.writes_by_loc.items():
        init = graph.init_writes[loc]
        edges = {(init, w.eid) for w in writes if w.eid != init}
        for w1, w2 in itertools.combinations(writes, 2):
            if w1.tid == w2.tid and not w1.is_init:
                if w1.idx < w2.idx:
                    edges.add((w1.eid, w2.eid))
                else:
                    edges.add((w2.eid, w1.eid))
        base[loc] = edges
    return base


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
        self.model = model
        self.stats = stats
        self.reads = graph.reads
        # Most-constrained-first: reads with few sources sit near the
        # root, so each rejection cuts the biggest possible subtree.
        # The eid tiebreak keeps the walk (and every counter)
        # deterministic.
        self.order = sorted(
            range(len(self.reads)),
            key=lambda i: (len(rf_options[i]), self.reads[i].eid))
        #: Per location, the closure of the forced co edges so far; a
        #: branch swaps in an extended copy and restores it on backtrack.
        self.closed = {loc: Rel(pairs).plus()
                       for loc, pairs in _forced_co_base(graph).items()}
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
            if self._precheck():
                yield from self._rec(depth + 1)
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
        ``src``, kept closed; None when they close a cycle.  For every
        same-location write V of rd's own thread: ``co(V, src)`` when V
        is po-before rd (else fr(rd,V) cycles with po_loc), ``co(src,
        V)`` when V is po-after rd (else rf;po_loc;co cycles; this pins
        a successful RMW's source immediately co-before its write).
        Adding ``a -> b``: every row reaching ``a``, and ``a``'s own,
        gains ``b`` and ``b``'s row."""
        rows = closed.rows
        for v in self.graph.writes_by_loc[rd.loc]:
            if v.eid == src or v.tid != rd.tid:
                continue
            a, b = (v.eid, src) if v.idx < rd.idx else (src, v.eid)
            if rows.get(a, 0) >> b & 1:
                continue
            reach_b = rows.get(b, 0)
            if reach_b >> a & 1:
                return None
            if rows is closed.rows:
                rows = dict(rows)
            gain, bit_a = reach_b | 1 << b, 1 << a
            for x, row in rows.items():
                if row & bit_a:
                    rows[x] = row | gain
            rows[a] = rows.get(a, 0) | gain
        return closed if rows is closed.rows else Rel.of_rows(rows)

    def _precheck(self) -> bool:
        """The model's monotone precheck on the current partial
        assignment: rf over assigned reads, co the union of per-location
        forced closures."""
        graph = self.graph
        ex = Execution(
            events=graph.events, po=graph.po,
            rf=Rel((src, eid) for eid, src in self.choice.items()),
            co=union(self.closed.values()), data=graph.data,
            ctrl=graph.ctrl, regs=graph.regs, memo=graph.memo,
        )
        return self.model.rf_stage_consistent(ex)


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
