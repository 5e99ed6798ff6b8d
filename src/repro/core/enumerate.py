"""Candidate-execution enumeration for litmus programs.

Given a :class:`~repro.core.program.Program`, this module produces every
candidate execution graph, in the style of the herd7 simulator:

1. **Value oracle** — each thread is executed symbolically; every load
   (and RMW read) branches over the values any write in the program
   could give to that location.  This fixes branch outcomes and RMW
   success/failure, yielding a set of per-thread *traces*.
2. **reads-from** — every read is matched with every same-location,
   same-value write (including the implicit initialization writes).
3. **coherence** — every per-location total order of writes, with the
   initialization write pinned first.

Two walks share that pipeline:

* :func:`enumerate_executions` — the naive one: the full rf × co cross
  product, no model consulted.  Kept as the differential-testing oracle.
* :func:`enumerate_consistent` — the rf/co search behind
  :func:`consistent_executions`/:func:`behaviors`.  It prunes rf
  candidates with model-independent coherence facts, then walks the
  rf assignment space as a DPOR-style DFS (:class:`repro.core.dpor.
  RfSearch`): RMW source-disjointness cuts, incremental forced-
  coherence closures and the model's monotone rf-stage precheck on
  every *partial* assignment (so an inconsistent prefix kills its
  whole subtree, not one leaf).  The closures hold every co edge
  sc-per-loc implies for the rf (CoWR, CoRW and CoRR), so no
  materialized candidate fails sc-per-loc — it is still checked.
  Every prune is justified by sc-per-loc/atomicity alone (the axioms
  all the paper's models share, and which ``supports_staged``
  requires), and the prefix precheck by rf/co-monotonicity of the
  axioms.
  The search runs in two configurations that differ only in which
  trace combos it visits and how a surviving rf leaf expands into
  coherence orders:

  - *staged* (the default) visits every combo and materializes every
    linear extension of the forced coherence order, yielding every
    consistent execution — ``tests/core/
    test_differential_enumeration.py`` checks it bit-identical to the
    naive product over the whole corpus;
  - *representative* (``representatives=True``, i.e.
    :func:`repro.core.dpor.reduced_behaviors`) visits one canonical
    combo per orbit of identical-thread permutations and yields one
    coherence witness per behaviour-distinguishing class of co.  It
    computes behaviour *sets* (bit-identical to the full enumeration),
    not execution lists.

Consistency filtering against a memory model and behaviour collection
are thin wrappers at the bottom; behaviours are memoized in-process,
keyed by the program and the model's content fingerprint rather than
its name.  Dependencies (data/ctrl) are tracked during the symbolic
execution because the Arm model consumes them.

Address dependencies are not modelled: the litmus AST has no computed
addresses, which mirrors the paper's mapping-verification corpus.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

from ..errors import ModelError
from ..obs.metrics import Counters
from ..obs.trace import get_tracer
from . import dpor
from .events import INIT_TID, Event, Mode, RmwFlavor
from .execution import Execution
from .program import FenceOp, If, Load, Op, Program, Rmw, Store
from .relations import Rel, linear_extensions, \
    linear_extensions_with_last, total_order_extensions, union

#: Safety valve: enumeration aborts (with a clear error) past this many
#: candidate executions, so a malformed "litmus" program cannot hang the
#: test suite.
DEFAULT_CANDIDATE_LIMIT = 2_000_000


@dataclass
class _Spec:
    """An event-to-be, local to one thread trace (pre eid assignment)."""

    kind: str
    loc: str | None = None
    val: int | None = None
    fence: object = None
    mode: Mode = Mode.PLAIN
    rmw_flavor: RmwFlavor | None = None
    partner: int | None = None  # trace-local index of the rmw partner
    tag: str = ""


@dataclass
class _Trace:
    """One symbolic path through a thread."""

    specs: list[_Spec] = field(default_factory=list)
    data: set[tuple[int, int]] = field(default_factory=set)
    ctrl: set[tuple[int, int]] = field(default_factory=set)
    regs: dict[str, int] = field(default_factory=dict)
    #: Numbers the trace's value-free shape within its thread.
    skeleton: int = 0


# ----------------------------------------------------------------------
# Value domains
# ----------------------------------------------------------------------
def location_domains(program: Program) -> dict[str, frozenset[int]]:
    """All values each location might hold at any point.

    Constant stores and RMW news contribute directly; a store of a
    register makes the location's domain the global domain (computed to
    a fixpoint), which is conservative but always sound.
    """
    domains: dict[str, set[int]] = {
        loc: {program.init_value(loc)} for loc in program.locations()
    }
    reg_stores: set[str] = set()

    def visit(ops: tuple[Op, ...]) -> None:
        for op in ops:
            if isinstance(op, Store):
                if isinstance(op.value, int):
                    domains[op.loc].add(op.value)
                else:
                    reg_stores.add(op.loc)
            elif isinstance(op, Rmw):
                domains[op.loc].add(op.new)
            elif isinstance(op, If):
                visit(tuple(op.then_ops))
                visit(tuple(op.else_ops))

    for ops in program.threads:
        visit(ops)

    if reg_stores:
        # Fixpoint: register values come from loads, so a reg-valued
        # store can deposit any currently-known value anywhere.
        for _ in range(len(domains) + 1):
            universe = set().union(*domains.values())
            changed = False
            for loc in reg_stores:
                if not universe <= domains[loc]:
                    domains[loc] |= universe
                    changed = True
            if not changed:
                break
    return {loc: frozenset(vals) for loc, vals in domains.items()}


# ----------------------------------------------------------------------
# Per-thread symbolic execution
# ----------------------------------------------------------------------
def _mode_for_rmw_read(op: Rmw) -> Mode:
    if op.flavor is RmwFlavor.TCG:
        return Mode.SC
    if op.flavor in (RmwFlavor.AMO, RmwFlavor.LXSX) and op.acq:
        return Mode.ACQ
    return Mode.PLAIN


def _mode_for_rmw_write(op: Rmw) -> Mode:
    if op.flavor is RmwFlavor.TCG:
        return Mode.SC
    if op.flavor in (RmwFlavor.AMO, RmwFlavor.LXSX) and op.rel:
        return Mode.REL
    return Mode.PLAIN


def thread_traces(ops: tuple[Op, ...],
                  domains: dict[str, frozenset[int]]) -> list[_Trace]:
    """All oracle-driven symbolic paths through one thread."""
    results: list[_Trace] = []

    def run(pending: list[Op], trace: _Trace,
            regs: dict[str, tuple[int, int | None]],
            ctrl_srcs: frozenset[int]) -> None:
        if not pending:
            results.append(_Trace(
                specs=list(trace.specs),
                data=set(trace.data),
                ctrl=set(trace.ctrl),
                regs={r: v for r, (v, _) in regs.items()},
            ))
            return
        op, rest = pending[0], pending[1:]
        idx = len(trace.specs)

        def emit(spec: _Spec) -> int:
            trace.specs.append(spec)
            for src in ctrl_srcs:
                trace.ctrl.add((src, len(trace.specs) - 1))
            return len(trace.specs) - 1

        def retract(count: int, data_before: set, ctrl_before: set) -> None:
            del trace.specs[idx:]
            trace.data.intersection_update(data_before)
            trace.ctrl.intersection_update(ctrl_before)

        data_before = set(trace.data)
        ctrl_before = set(trace.ctrl)

        if isinstance(op, FenceOp):
            emit(_Spec(kind="F", fence=op.kind, tag=str(op)))
            run(rest, trace, regs, ctrl_srcs)
            retract(idx, data_before, ctrl_before)

        elif isinstance(op, Store):
            if isinstance(op.value, int):
                val, src = op.value, None
            else:
                val, src = regs[op.value]
            eidx = emit(_Spec(kind="W", loc=op.loc, val=val,
                              mode=op.mode, tag=str(op)))
            if src is not None:
                trace.data.add((src, eidx))
            if op.dep is not None:
                __, dep_src = regs[op.dep]
                if dep_src is not None:
                    trace.data.add((dep_src, eidx))
            run(rest, trace, regs, ctrl_srcs)
            retract(idx, data_before, ctrl_before)

        elif isinstance(op, Load):
            for val in sorted(domains[op.loc]):
                emit(_Spec(kind="R", loc=op.loc, val=val,
                           mode=op.mode, tag=str(op)))
                new_regs = dict(regs)
                new_regs[op.reg] = (val, idx)
                run(rest, trace, new_regs, ctrl_srcs)
                retract(idx, data_before, ctrl_before)

        elif isinstance(op, Rmw):
            for val in sorted(domains[op.loc]):
                rmode = _mode_for_rmw_read(op)
                if val == op.expect:
                    emit(_Spec(kind="R", loc=op.loc, val=val, mode=rmode,
                               rmw_flavor=op.flavor, partner=idx + 1,
                               tag=str(op)))
                    emit(_Spec(kind="W", loc=op.loc, val=op.new,
                               mode=_mode_for_rmw_write(op),
                               rmw_flavor=op.flavor, partner=idx,
                               tag=str(op)))
                else:
                    emit(_Spec(kind="R", loc=op.loc, val=val, mode=rmode,
                               rmw_flavor=op.flavor, tag=str(op)))
                new_regs = dict(regs)
                if op.out:
                    new_regs[op.out] = (val, idx)
                run(rest, trace, new_regs, ctrl_srcs)
                retract(idx, data_before, ctrl_before)

        elif isinstance(op, If):
            val, src = regs[op.reg]
            branch = list(op.then_ops) if val == op.value \
                else list(op.else_ops)
            new_ctrl = ctrl_srcs | ({src} if src is not None else set())
            run(branch + list(rest), trace, regs, new_ctrl)
            retract(idx, data_before, ctrl_before)

        else:  # pragma: no cover - defensive
            raise ModelError(f"unknown op {op!r}")

    run(list(ops), _Trace(), {}, frozenset())
    return results


# ----------------------------------------------------------------------
# Combo materialization shared by both enumeration paths
# ----------------------------------------------------------------------
@dataclass
class _ComboGraph:
    """Everything fixed by one trace combination, before rf/co choice."""

    events: dict[int, Event]
    po: Rel
    data: Rel
    ctrl: Rel
    regs: frozenset
    reads: list[Event]
    writes_by_loc: dict[str, list[Event]]
    init_writes: dict[str, int]
    locations: list[str]
    #: Shared by every candidate :class:`Execution` of every combo with
    #: this one's skeleton (see :func:`_trace_sets`).
    memo: dict = field(default_factory=dict)

    def execution(self, rf: Rel = Rel.empty(),
                  co: Rel = Rel.empty()) -> Execution:
        """A candidate of the combo; with no rf or co, what its static
        terms are judged on."""
        return Execution(events=self.events, po=self.po, rf=rf, co=co,
                         data=self.data, ctrl=self.ctrl, regs=self.regs,
                         memo=self.memo)


def _trace_sets(program: Program):
    """Per-thread symbolic trace lists plus the sorted location list.

    Identical thread bodies produce identical trace lists (the symbolic
    execution is deterministic), which is what the symmetry reduction
    in :mod:`repro.core.dpor` relies on to treat trace *indices* of
    identical threads as interchangeable.  A thread's traces that differ
    only in values share a ``skeleton`` number (and combos, a memo).
    """
    domains = location_domains(program)
    per_thread = [thread_traces(ops, domains) for ops in program.threads]
    for traces in per_thread:
        shapes: dict = {}
        for trace in traces:
            trace.skeleton = shapes.setdefault((
                tuple((s.kind, s.loc, s.fence, s.mode, s.rmw_flavor,
                       s.partner) for s in trace.specs),
                frozenset(trace.data), frozenset(trace.ctrl)), len(shapes))
    locations = sorted(program.locations())
    return per_thread, locations


def _materialize_combo(program: Program, locations: list[str],
                       combo: tuple) -> _ComboGraph:
    """Build the :class:`_ComboGraph` for one trace combination."""
    events: dict[int, Event] = {}
    next_eid = 0
    init_writes: dict[str, int] = {}
    for loc in locations:
        events[next_eid] = Event(
            eid=next_eid, tid=INIT_TID, idx=next_eid, kind="W",
            loc=loc, val=program.init_value(loc), is_init=True,
            tag=f"init {loc}",
        )
        init_writes[loc] = next_eid
        next_eid += 1

    po_rows: dict[int, int] = {}
    data_pairs: list[tuple[int, int]] = []
    ctrl_pairs: list[tuple[int, int]] = []
    reg_obs: set[tuple[str, int]] = set()

    for tid, trace in enumerate(combo):
        base = next_eid
        for i, spec in enumerate(trace.specs):
            partner = base + spec.partner \
                if spec.partner is not None else None
            events[next_eid] = Event(
                eid=next_eid, tid=tid, idx=i, kind=spec.kind,
                loc=spec.loc, val=spec.val, fence=spec.fence,
                mode=spec.mode, rmw_flavor=spec.rmw_flavor,
                rmw_partner=partner, tag=spec.tag,
            )
            next_eid += 1
        n = len(trace.specs)
        for i in range(n - 1):
            # Every later event of the thread.
            po_rows[base + i] = ((1 << n) - (2 << i)) << base
        data_pairs.extend((base + a, base + b) for a, b in trace.data)
        ctrl_pairs.extend((base + a, base + b) for a, b in trace.ctrl)
        for reg, val in trace.regs.items():
            reg_obs.add((f"T{tid}:{reg}", val))

    reads = [e for e in events.values() if e.is_read()]
    writes_by_loc: dict[str, list[Event]] = {}
    for ev in events.values():
        if ev.is_write():
            writes_by_loc.setdefault(ev.loc, []).append(ev)

    return _ComboGraph(
        events=events,
        po=Rel.of_rows(po_rows),
        data=Rel(data_pairs),
        ctrl=Rel(ctrl_pairs),
        regs=frozenset(reg_obs),
        reads=reads,
        writes_by_loc=writes_by_loc,
        init_writes=init_writes,
        locations=locations,
    )


def _combo_graphs(program: Program):
    """Yield one :class:`_ComboGraph` per trace combination."""
    per_thread, locations = _trace_sets(program)
    for combo in itertools.product(*per_thread):
        yield _materialize_combo(program, locations, combo)


def _naive_size(graph: _ComboGraph) -> int:
    """Arithmetic size of the naive rf × co cross product for one
    combo: Π (value-matching sources per read) × Π (n-1)! co orders."""
    naive = 1
    for rd in graph.reads:
        naive *= sum(
            1 for w in graph.writes_by_loc.get(rd.loc, ())
            if w.val == rd.val and w.eid != rd.eid
        )
    for writes in graph.writes_by_loc.values():
        naive *= math.factorial(len(writes) - 1)
    return naive


# ----------------------------------------------------------------------
# Naive whole-program enumeration (the differential oracle)
# ----------------------------------------------------------------------
def enumerate_executions(program: Program,
                         limit: int = DEFAULT_CANDIDATE_LIMIT,
                         stats: "EnumerationStats | None" = None):
    """Yield every candidate :class:`Execution` of ``program``.

    When ``stats`` is given, combos, the arithmetic candidate count and
    every materialized execution are accounted — the naive path counts
    ``executions_enumerated == candidates_naive`` by construction, so a
    mixed-model sweep reports a 0% pruned fraction for it instead of a
    bogus denominator.
    """
    produced = 0
    for graph in _combo_graphs(program):
        if stats is not None:
            stats.combos += 1
            stats.candidates_naive += _naive_size(graph)
        rf_options: list[list[int]] = []
        feasible = True
        for rd in graph.reads:
            srcs = [
                w.eid for w in graph.writes_by_loc.get(rd.loc, ())
                if w.val == rd.val and w.eid != rd.eid
            ]
            if not srcs:
                feasible = False
                break
            rf_options.append(srcs)
        if not feasible:
            continue

        co_options = [
            list(total_order_extensions(
                [w.eid for w in graph.writes_by_loc[loc]],
                first=graph.init_writes[loc],
            ))
            for loc in graph.locations if loc in graph.writes_by_loc
        ]

        for rf_choice in itertools.product(*rf_options):
            rf = Rel(
                (src, rd.eid) for src, rd in zip(rf_choice, graph.reads)
            )
            for co_parts in itertools.product(*co_options):
                produced += 1
                if stats is not None:
                    stats.executions_enumerated += 1
                if produced > limit:
                    raise ModelError(
                        f"{program.name}: candidate executions exceed "
                        f"limit {limit}"
                    )
                yield Execution(
                    events=graph.events, po=graph.po, rf=rf,
                    co=union(co_parts), data=graph.data,
                    ctrl=graph.ctrl, regs=graph.regs,
                )


# ----------------------------------------------------------------------
# The rf/co search (staged and representative configurations)
# ----------------------------------------------------------------------
@dataclass
class EnumerationStats(Counters):
    """Counters from one (or many merged) enumeration runs."""

    #: Trace combinations examined.
    combos: int = 0
    #: What the naive rf × co cross product would have materialized,
    #: computed arithmetically — the denominator of the saving.
    candidates_naive: int = 0
    #: Per-read rf sources removed by the coherence-over-po prunes.
    rf_options_pruned: int = 0
    #: Complete rf assignments surviving the DFS (one per leaf).
    rf_choices: int = 0
    #: DFS branches cut because two successful RMWs shared a source.
    rf_rejected_rmw: int = 0
    #: rf extensions whose forced coherence edges were cyclic.
    rf_rejected_coherence: int = 0
    #: rf prefixes rejected by the model's monotone precheck (at any
    #: depth of the DFS — each cut kills the whole subtree below it).
    rf_rejected_precheck: int = 0
    #: The subset of precheck rejections that happened *above* the
    #: leaves, i.e. genuine subtree cuts the per-leaf staged path of
    #: PR 2 could not make.
    rf_prefix_rejected: int = 0
    #: Trace combinations skipped as symmetric images of a canonical
    #: combo (identical-thread permutations; representative mode only).
    symmetry_collapsed: int = 0
    #: Behaviour-distinguishing coherence classes examined instead of
    #: full linear-extension products (representative mode only).
    co_classes: int = 0
    #: Full executions actually materialized (the staged numerator).
    executions_enumerated: int = 0
    #: Executions found consistent and yielded.
    consistent: int = 0

    @property
    def pruned_fraction(self) -> float:
        """Share of the naive cross product never materialized."""
        if not self.candidates_naive:
            return 0.0
        return 1.0 - self.executions_enumerated / self.candidates_naive


_ENUM_STATS = EnumerationStats()


def enumeration_stats() -> EnumerationStats:
    """Process-wide enumeration counters since the last reset."""
    return _ENUM_STATS.snapshot()


def reset_enumeration_stats() -> None:
    _ENUM_STATS.reset()


def _pruned_sources(rd: Event, writes: list[Event],
                    stats: EnumerationStats) -> list[int]:
    """Value-matching rf sources minus choices no consistent execution
    can make.  Each prune follows from sc-per-loc alone:

    * a po-*later* same-thread write W cannot feed rd — rf(W,rd) with
      po_loc(rd,W) is an sc-per-loc cycle;
    * a same-thread source masked by an intervening same-location write
      V cannot feed rd — co(W,V) is forced by po (else co ∪ po_loc
      cycles), and then fr(rd,V) with po_loc(V,rd) cycles;
    * the initialization write cannot feed rd once rd's own thread
      wrote the location po-before rd — the same masking argument with
      W = init (init is co-first by construction).
    """
    own_before = [
        w for w in writes if w.tid == rd.tid and w.idx < rd.idx
    ]
    srcs: list[int] = []
    for w in writes:
        if w.val != rd.val or w.eid == rd.eid:
            continue
        if w.tid == rd.tid and w.idx > rd.idx:
            stats.rf_options_pruned += 1
            continue
        if w.is_init and own_before:
            stats.rf_options_pruned += 1
            continue
        if w.tid == rd.tid and any(v.idx > w.idx for v in own_before):
            stats.rf_options_pruned += 1
            continue
        srcs.append(w.eid)
    return srcs


def _feasible_rf_options(graph: _ComboGraph,
                         stats: EnumerationStats) -> list[list[int]] | None:
    """Pruned rf source lists per read, or None when some read has no
    source left (the combo is infeasible)."""
    rf_options: list[list[int]] = []
    for rd in graph.reads:
        srcs = _pruned_sources(
            rd, graph.writes_by_loc.get(rd.loc, []), stats)
        if not srcs:
            return None
        rf_options.append(srcs)
    return rf_options


def _coherence_groups(graph: _ComboGraph, write_ids: dict, forced: dict,
                      representatives: bool, stats: EnumerationStats):
    """The coherence orders of one rf leaf, as groups of candidates
    (each candidate a tuple of per-location total orders extending
    ``forced``).

    Staged mode has one group, the full linear-extension product, and
    the walk keeps every consistent member.  Representative mode has
    one group per cross-location *value class* — per location, the
    forced-order-maximal writes grouped by the value they would leave
    behind — and the walk keeps the group's first consistent witness:
    all its members share (combo, rf, final values), hence the
    behaviour.
    """
    locations = graph.locations
    if not representatives:
        yield itertools.product(*(
            linear_extensions(write_ids[loc], forced[loc])
            for loc in locations))
        return
    class_lists = []
    for loc in locations:
        closed = forced[loc].rows
        maximal = [w for w in write_ids[loc] if not closed.get(w)]
        by_val: dict[int, list[int]] = {}
        for w in maximal:
            by_val.setdefault(graph.events[w].val, []).append(w)
        class_lists.append([wids for _, wids in sorted(by_val.items())])
    for class_choice in itertools.product(*class_lists):
        stats.co_classes += 1
        yield itertools.chain.from_iterable(
            itertools.product(*(
                linear_extensions_with_last(
                    write_ids[loc], forced[loc], last)
                for loc, last in zip(locations, lasts)))
            for lasts in itertools.product(*class_choice))


def _search(program: Program, model, limit: int,
            stats: EnumerationStats, representatives: bool):
    """The rf/co search for staged-capable models (see the module
    docstring for its two configurations)."""
    per_thread, locations = _trace_sets(program)
    # Symmetric combos have symmetric behaviours, not equal executions,
    # so only the representative mode may skip them.
    classes = dpor.thread_symmetry_classes(program) \
        if representatives else ()
    produced = 0
    tracer = get_tracer()
    memos: dict[tuple, dict] = {}    # skeleton -> memo, this search only
    for combo_idx in itertools.product(
            *(range(len(traces)) for traces in per_thread)):
        if not dpor.is_canonical(combo_idx, classes):
            stats.symmetry_collapsed += 1
            continue
        combo = tuple(per_thread[t][i] for t, i in enumerate(combo_idx))
        graph = _materialize_combo(program, locations, combo)
        graph.memo = memos.setdefault(
            tuple(trace.skeleton for trace in combo), graph.memo)
        stats.combos += 1
        if tracer.enabled:
            tracer.instant("enum.combo", cat="enum",
                           combo=stats.combos,
                           reads=len(graph.reads))

        naive = _naive_size(graph)
        # The whole orbit contributes to the naive denominator — every
        # symmetric image has the same cross-product size.
        stats.candidates_naive += \
            naive * dpor.orbit_size(combo_idx, classes)
        if naive == 0:
            continue

        rf_options = _feasible_rf_options(graph, stats)
        if rf_options is None:
            continue

        write_ids = {
            loc: [w.eid for w in writes]
            for loc, writes in graph.writes_by_loc.items()
        }

        for rf_choice, forced in dpor.RfSearch(graph, rf_options, model,
                                               stats):
            stats.rf_choices += 1
            rf = Rel(
                (src, rd.eid) for src, rd in zip(rf_choice, graph.reads)
            )
            for group in _coherence_groups(graph, write_ids, forced,
                                           representatives, stats):
                for co_parts in group:
                    produced += 1
                    stats.executions_enumerated += 1
                    if produced > limit:
                        raise ModelError(
                            f"{program.name}: candidate executions "
                            f"exceed limit {limit}"
                        )
                    ex = graph.execution(rf, union(co_parts))
                    # rf_stage_consistent is only a monotone *precheck*
                    # — even when the forced order is already total,
                    # the full axioms must judge the candidate (a
                    # model's precheck may be strictly weaker than
                    # is_consistent).
                    if model.is_consistent(ex):
                        stats.consistent += 1
                        yield ex
                        if representatives:
                            break


def _enumerate(program: Program, model, limit: int | None,
               stats: EnumerationStats | None, reduction: str):
    """Yield ``model``-consistent executions of ``program`` — the one
    accounting path under every reduction.

    ``dpor`` and ``staged`` run :func:`_search` and need
    ``model.supports_staged`` (axioms monotone in rf and co, sc-per-loc
    and atomicity among them); without it they fall back to ``naive``,
    the filter over :func:`enumerate_executions`.  All three account
    identically: counters accumulate into the module-wide
    :func:`enumeration_stats` and, when given, ``stats``.
    """
    limit = DEFAULT_CANDIDATE_LIMIT if limit is None else limit
    if not getattr(model, "supports_staged", False):
        reduction = "naive"
    run = EnumerationStats()
    tracer = get_tracer()
    try:
        with tracer.span(f"enum.{reduction}", cat="enum",
                         program=program.name):
            if reduction == "naive":
                for ex in enumerate_executions(program, limit=limit,
                                               stats=run):
                    if model.is_consistent(ex):
                        run.consistent += 1
                        yield ex
            else:
                yield from _search(program, model, limit, run,
                                   representatives=reduction == "dpor")
    finally:
        if tracer.enabled:
            tracer.counter(
                "enum.stats", combos=run.combos,
                rf_choices=run.rf_choices,
                executions=run.executions_enumerated,
                consistent=run.consistent)
        _ENUM_STATS.merge(run)
        if stats is not None:
            stats.merge(run)


def enumerate_consistent(program: Program, model,
                         limit: int | None = None,
                         stats: EnumerationStats | None = None,
                         representatives: bool = False):
    """Yield every ``model``-consistent execution via the rf/co search
    — or, with ``representatives``, one witness per behaviour class of
    each canonical trace combo (enough for behaviour sets; see
    :func:`repro.core.dpor.reduced_behaviors`).

    ``limit`` (default :data:`DEFAULT_CANDIDATE_LIMIT`) bounds the
    candidates materialized; models without ``supports_staged`` get
    the accounted naive filter instead.
    """
    return _enumerate(program, model, limit, stats,
                      "dpor" if representatives else "staged")


# ----------------------------------------------------------------------
# Consistency and behaviour
# ----------------------------------------------------------------------
_BEHAVIOR_CACHE: dict[tuple[Program, str], frozenset] = {}


@dataclass
class BehaviorCacheStats(Counters):
    """Hit/miss counters for the behaviour memo (observability layer)."""

    hits: int = 0
    misses: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        if not self.lookups:
            return 0.0
        return self.hits / self.lookups


_CACHE_STATS = BehaviorCacheStats()


def behavior_cache_stats() -> BehaviorCacheStats:
    """A snapshot of the cache counters since the last reset."""
    return _CACHE_STATS.snapshot()


def consistent_executions(program: Program, model,
                          limit: int | None = None,
                          staged: bool | None = None) -> list[Execution]:
    """All candidate executions consistent in ``model``.

    ``limit`` overrides :data:`DEFAULT_CANDIDATE_LIMIT` (the safety
    valve on materialized candidates); ``staged`` forces the fast or
    the naive path, defaulting to whatever the model supports.
    """
    if staged is None or staged:
        return list(enumerate_consistent(program, model, limit=limit))
    return list(_enumerate(program, model, limit, None, "naive"))


#: The enumeration strategies behind :func:`behaviors`: ``dpor``
#: (default — the search in representative mode), ``staged`` (the same
#: search materializing every consistent execution) or ``naive`` (the
#: full cross product, the differential oracle).
REDUCTIONS = ("dpor", "staged", "naive")


def resolve_reduction(reduction: str | None) -> str:
    """Validate a reduction name; ``None`` means ``dpor``."""
    reduction = reduction or "dpor"
    if reduction not in REDUCTIONS:
        raise ModelError(
            f"unknown enumeration reduction {reduction!r}; expected "
            f"one of {REDUCTIONS}")
    return reduction


def enumerate_behaviors(program: Program, model,
                        limit: int | None = None,
                        reduction: str | None = None) -> frozenset:
    """Behaviour set via the chosen reduction, uncached — the one
    dispatch over :data:`REDUCTIONS`.  Its counters land in
    :func:`enumeration_stats`."""
    reduction = resolve_reduction(reduction)
    if reduction == "dpor":
        return dpor.reduced_behaviors(program, model, limit=limit)
    if reduction == "staged":
        executions = enumerate_consistent(program, model, limit=limit)
    else:
        executions = _enumerate(program, model, limit, None, "naive")
    return frozenset(ex.full_behavior for ex in executions)


def behaviors(program: Program, model, limit: int | None = None,
              reduction: str | None = None) -> frozenset:
    """The set of ``full_behavior`` values of consistent executions.

    Results are memoized in-process: programs are immutable and the
    key is the program plus the model's content
    :meth:`~repro.core.models.terms.MemoryModel.fingerprint`, so two
    model instances only share entries when their class and axioms
    agree — ``model.name`` alone is not trusted, as ablation-built
    variants legitimately reuse standard names.  A memoized result is
    returned without re-enumerating, so ``limit`` only takes effect on
    misses.

    ``reduction`` picks the enumeration strategy on a miss (see
    :data:`REDUCTIONS`; default ``dpor``).  All strategies compute the
    identical set — the differential tests pin that — so entries are
    shared across modes.
    """
    reduction = resolve_reduction(reduction)
    key = (program, model.fingerprint())
    cached = _BEHAVIOR_CACHE.get(key)
    if cached is None:
        _CACHE_STATS.misses += 1
        cached = enumerate_behaviors(program, model, limit, reduction)
        _BEHAVIOR_CACHE[key] = cached
    else:
        _CACHE_STATS.hits += 1
    return cached


def clear_behavior_cache() -> None:
    """Drop memoized behaviours and reset their counters (used by
    tests that tweak models, and between benchmark passes)."""
    _BEHAVIOR_CACHE.clear()
    _CACHE_STATS.reset()
