"""Unit tests for the source-DPOR reduction layer.

:mod:`repro.core.dpor` claims three reductions — prefix cuts in the
rf DFS, thread-symmetry collapse of trace combos, and coherence value
classes with a single linear-extension witness — and each is exercised
here on a program *constructed* to trigger it, with the naive
rf × co cross product as the oracle.  The forced coherence closure is
checked complete: no candidate it lets through fails sc-per-loc.  The
module also pins the two
enumerator soundness fixes: the staged unique-extension shortcut must
run the full consistency check (not just the precheck), and the
``supports_staged=False`` fallback must account statistics like the
fast path does.
"""

import dataclasses
from random import Random

import pytest

from repro.core import ARM, ARM_ORIGINAL, SC, TCG, X86, dpor
from repro.core.corpus_large import (
    CAS5,
    FIVE_THREAD_CORPUS,
    IRIW5,
    W4_2RR,
    W5_RR,
    verify_registry,
)
from repro.core.dpor import (
    RfSearch,
    is_canonical,
    orbit_size,
    _renamed_key,
    _tid_renamings,
    reduced_behaviors,
    thread_symmetry_classes,
)
from repro.core.enumerate import (
    DEFAULT_CANDIDATE_LIMIT,
    EnumerationStats,
    enumerate_consistent,
    enumerate_executions,
    enumeration_stats,
    reset_enumeration_stats,
)
from repro.errors import ModelError
from repro.core.events import Arch
from repro.core.litmus_library import ALL_TESTS, R, W, x86
from repro.core.execution import Execution
from repro.core.models.terms import SC_PER_LOC, MemoryModel, Term, \
    acyclic, co, empty, evaluate, fre, po, rf, rfe
from repro.core.relations import Rel, union
from repro.core.verifier import check_annotations
from repro.fuzz.generate import gen_litmus


def naive_behaviors(program, model,
                    limit=DEFAULT_CANDIDATE_LIMIT) -> frozenset:
    return frozenset(
        ex.full_behavior for ex in enumerate_executions(program, limit)
        if model.is_consistent(ex)
    )


def reduced(program, model, stats=None, limit=None) -> frozenset:
    return reduced_behaviors(program, model, limit=limit, stats=stats)


# ----------------------------------------------------------------------
# Forced-coherence cycles
# ----------------------------------------------------------------------

#: Crafted so a coherence rejection spans threads: with c=1, a=2, b=1
#: the assignment a←(T2's write) forces co(W X 2, W X 1) inside T1,
#: while b←(T1's write) forces the reverse edge inside T2 — an
#: immediate forced-co cycle.  The Y reader (two identical Y writers
#: give it two options) sits first in the most-constrained-first
#: order, so after it backtracks the same (b, src) pair comes up again
#: and is rejected again: the one program on which the retired sleep
#: sets ever skipped anything (one closure), kept as a differential
#: input.
SLEEP_CYCLE = x86(
    "sleep-cycle",
    (R("c", "Y"),),
    (R("a", "X"), W("X", 1)),
    (R("b", "X"), W("X", 2)),
    (W("X", 1),),
    (W("X", 2),),
    (W("Y", 1),),
    (W("Y", 1),),
)


class TestCoherenceCycle:
    @pytest.mark.parametrize("model", [X86, SC], ids=lambda m: m.name)
    def test_cycle_rejections_never_lose_behaviours(self, model):
        stats = EnumerationStats()
        behs = reduced(SLEEP_CYCLE, model, stats=stats)
        assert stats.rf_rejected_coherence >= 1
        assert behs == naive_behaviors(SLEEP_CYCLE, model)


# ----------------------------------------------------------------------
# Partial-rf prefix prechecks
# ----------------------------------------------------------------------

#: MP's reader with one more read: with a=1, b=0 the x86 ghb cycle
#: W X -ppo-> W Y -rfe-> R Y -ppo-> R X -fr-> W X spans two locations,
#: so no forced coherence edge sees it, and it is complete while the Z
#: read is still unassigned — the precheck must cut the subtree above
#: the leaves.
PREFIX_CUT = x86(
    "prefix-cut",
    (W("X", 1), W("Y", 1)),
    (R("a", "Y"), R("b", "X"), R("c", "Z")),
)


class TestPrefixPrecheck:
    def test_inconsistent_prefix_cuts_above_leaves(self):
        stats = EnumerationStats()
        behs = reduced(PREFIX_CUT, X86, stats=stats)
        assert stats.rf_prefix_rejected >= 1
        assert stats.rf_rejected_precheck >= stats.rf_prefix_rejected
        assert behs == naive_behaviors(PREFIX_CUT, X86)

    def test_search_yields_only_precheck_passing_leaves(self):
        # Every leaf the DFS yields already passed the full-rf
        # precheck; none of them should be a coherence-forced cycle.
        from repro.core.enumerate import (
            _feasible_rf_options,
            _materialize_combo,
            _trace_sets,
        )
        import itertools
        program = PREFIX_CUT
        per_thread, locations = _trace_sets(program)
        for combo in itertools.product(*per_thread):
            graph = _materialize_combo(program, locations, combo)
            options = _feasible_rf_options(graph, EnumerationStats())
            if options is None:
                continue
            for _rf_choice, closed in RfSearch(
                    graph, options, X86, EnumerationStats()):
                for rel in closed.values():
                    assert rel.is_irreflexive()


# ----------------------------------------------------------------------
# The forced coherence closure is complete
# ----------------------------------------------------------------------
class CoherenceSpy(MemoryModel):
    """A built-in model that checks sc-per-loc on every candidate the
    search materializes (the precheck on partial rf is not one)."""

    def __init__(self, model):
        super().__init__(model.name, model.arch, model.axioms)
        assert self.supports_staged   # else only the naive filter runs
        self.judged = 0
        self.incoherent = []

    def is_consistent(self, ex) -> bool:
        self.judged += 1
        if not evaluate(SC_PER_LOC, ex):
            self.incoherent.append(ex)
        return super().is_consistent(ex)

    def rf_stage_consistent(self, ex) -> bool:
        return MemoryModel.is_consistent(self, ex)


MODEL_FOR_ARCH = {Arch.X86: X86, Arch.TCG: TCG, Arch.ARM: ARM}


class TestForcedCoherence:
    """The rf DFS forces every co edge sc-per-loc implies for its rf
    (CoWR, CoRW, CoRR and the RMW pin), so no materialized candidate
    can fail sc-per-loc: it is still checked, and never fails."""

    @pytest.mark.parametrize("model", [X86, ARM, TCG, SC],
                             ids=lambda m: m.name)
    def test_registry_in_representative_mode(self, model):
        spy = CoherenceSpy(model)
        for test in verify_registry().values():
            reduced(test.program, spy)
        assert spy.judged > 0
        assert spy.incoherent == []

    @pytest.mark.parametrize("model", [X86, ARM, TCG, SC],
                             ids=lambda m: m.name)
    def test_classic_corpus_staged(self, model):
        spy = CoherenceSpy(model)
        for test in ALL_TESTS.values():
            list(enumerate_consistent(test.program, spy))
        assert spy.judged > 0
        assert spy.incoherent == []

    def test_fuzzed_programs_in_every_configuration(self):
        rng = Random(31)
        checked = 0
        for case in range(200):
            arch = rng.choice(tuple(MODEL_FOR_ARCH))
            program = gen_litmus(rng, arch, name=f"corr-{case}")
            model = MODEL_FOR_ARCH[arch]
            spy = CoherenceSpy(model)
            try:   # the oracle's budget keeps this test a few seconds
                naive = naive_behaviors(program, model, limit=1_000)
            except ModelError:
                continue
            staged = frozenset(ex.full_behavior for ex in
                               enumerate_consistent(program, spy))
            assert reduced(program, spy) == staged == naive, program
            assert spy.incoherent == [], program
            checked += 1
        assert checked >= 150


# ----------------------------------------------------------------------
# Judging prefixes by difference
# ----------------------------------------------------------------------
class DifferentialSearch(RfSearch):
    """The rf search, judging every prefix twice: by difference, and
    by the model's full ``rf_stage_consistent`` on a prefix execution
    (sharing the skeleton memo, which :class:`TestSkeletonMemo`
    holds to a fresh recomputation)."""

    judged: list = []
    mismatches: list = []

    def __init__(self, graph, options, model, stats):
        super().__init__(graph, options, model, stats)
        self.model = model

    def _judge(self, rd, src, prev):
        reach = super()._judge(rd, src, prev)
        graph = self.graph
        ex = Execution(
            events=graph.events, po=graph.po,
            rf=Rel((s, r) for r, s in self.choice.items()),
            co=union(self.closed.values()), data=graph.data,
            ctrl=graph.ctrl, regs=graph.regs, memo=graph.memo)
        full = self.model.rf_stage_consistent(ex)
        self.judged.append(full)
        if (reach is not None) != full:
            self.mismatches.append((self.model.name, dict(self.choice)))
        return reach


@pytest.fixture
def differential(monkeypatch):
    monkeypatch.setattr(dpor, "RfSearch", DifferentialSearch)
    monkeypatch.setattr(DifferentialSearch, "judged", [])
    monkeypatch.setattr(DifferentialSearch, "mismatches", [])
    return DifferentialSearch


BUILTIN_MODELS = [X86, ARM, ARM_ORIGINAL, TCG, SC]
LARGE = {test.name for test in FIVE_THREAD_CORPUS}
#: x86-TSO plus an unguarded axiom no plan covers (a communication
#: operand that is not a bare leaf), judged on a prefix execution.
LEFTOVER = MemoryModel("x86-leftover", X86.arch,
                       (*X86.axioms, acyclic(po | rfe @ po)))


class TestJudgeByDifference:
    """The incremental judge must say exactly what the full precheck
    says on every prefix the DFS reaches, in both configurations —
    else a counter, or a behaviour, moves."""

    @pytest.mark.parametrize("model", [*BUILTIN_MODELS, LEFTOVER],
                             ids=lambda m: m.name)
    def test_registry_every_prefix(self, differential, model):
        for test in verify_registry().values():
            reduced(test.program, model)
            if test.name not in LARGE:
                list(enumerate_consistent(test.program, model))
        assert differential.mismatches == []
        assert differential.judged

    def test_fuzzed_programs_every_prefix(self, differential):
        rng = Random(17)
        checked = 0
        for case in range(200):
            arch = rng.choice(tuple(MODEL_FOR_ARCH))
            program = gen_litmus(rng, arch, name=f"judge-{case}")
            try:   # the same budget as the coherence test above
                naive_behaviors(program, SC, limit=1_000)
            except ModelError:
                continue
            for model in BUILTIN_MODELS:
                reduced(program, model)
            list(enumerate_consistent(program, MODEL_FOR_ARCH[arch]))
            checked += 1
        assert checked >= 150
        assert differential.mismatches == []
        assert set(differential.judged) == {True, False}

    @pytest.mark.parametrize("model", BUILTIN_MODELS, ids=lambda m: m.name)
    @pytest.mark.parametrize("name", ["MP", "SB"])
    def test_fast_path_builds_no_prefix_execution(self, monkeypatch,
                                                  model, name):
        built = []

        class Counted(Execution):
            def __init__(self, *args, **kwargs):
                built.append(kwargs)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(dpor, "Execution", Counted)
        stats = EnumerationStats()
        program = ALL_TESTS[name].program
        list(enumerate_consistent(program, model, stats=stats))
        reduced(program, model, stats=stats)
        assert stats.rf_choices > 0
        assert built == []

    def test_a_hook_override_is_still_called(self):
        calls = []

        class Hooked(WeakPrecheckX86):
            def rf_stage_consistent(self, ex):
                calls.append(len(ex.rf))
                return True

        program = ALL_TESTS["MP"].program
        assert reduced(program, Hooked()) == naive_behaviors(program, X86)
        assert calls


class TestSkeletonMemo:
    """Combos of one skeleton share one memo, so nothing in it may
    depend on a value: every entry must equal what a fresh memo of each
    combo of the skeleton computes."""

    @staticmethod
    def _recompute(key, graph, search_args):
        ex = graph.execution()
        if key == "rf":
            RfSearch(graph, *search_args)
            return graph.memo["rf"]
        if isinstance(key, Term):
            return evaluate(key, ex)
        if isinstance(key, str):
            return getattr(ex, key)
        kind, *args = key
        return {"fences": lambda: ex.fences(*args[0]),
                "mode": lambda: ex.with_mode(*args),
                "rmw": lambda: ex.rmw_of_flavor(*args[0])}[kind]()

    @pytest.mark.parametrize("model", BUILTIN_MODELS, ids=lambda m: m.name)
    def test_shared_entries_equal_a_fresh_recomputation(self, monkeypatch,
                                                        model):
        searched = []

        class Recorded(RfSearch):
            def __init__(self, graph, *args):
                super().__init__(graph, *args)
                searched.append((graph, args))

        monkeypatch.setattr(dpor, "RfSearch", Recorded)
        shared = checked = 0
        for test in verify_registry().values():
            searched.clear()
            reduced(test.program, model)
            memos = [graph.memo for graph, _ in searched]
            shared += len(memos) - len({id(memo) for memo in memos})
            for graph, args in searched:
                fresh = dataclasses.replace(graph, memo={})
                for key, value in graph.memo.items():
                    assert self._recompute(key, fresh, args) == value, \
                        (test.name, key)
                    checked += 1
        assert shared > 0 and checked > 0


# ----------------------------------------------------------------------
# RMW cuts
# ----------------------------------------------------------------------
class TestRmwCuts:
    def test_cas5_rmw_sources_are_cut_in_search(self):
        stats = EnumerationStats()
        behs = reduced(CAS5.program, X86, stats=stats)
        assert stats.rf_rejected_rmw >= 1
        assert behs == naive_behaviors(CAS5.program, X86)
        # Exactly one CAS can win from 0; the annotation agrees.
        assert not check_annotations(CAS5, X86)


# ----------------------------------------------------------------------
# Thread symmetry
# ----------------------------------------------------------------------
class TestThreadSymmetry:
    def test_identical_threads_form_one_class(self):
        classes = thread_symmetry_classes(W5_RR.program)
        assert classes == ((0, 1, 2, 3, 4),)

    def test_distinct_threads_form_no_class(self):
        assert thread_symmetry_classes(ALL_TESTS["MP"].program) == ()

    def test_canonical_combos_are_nondecreasing_per_class(self):
        classes = ((0, 1, 2),)
        assert is_canonical((0, 0, 1), classes)
        assert not is_canonical((1, 0, 0), classes)

    def test_orbit_size_is_multinomial(self):
        classes = ((0, 1, 2),)
        # (0, 0, 1): three arrangements of {0, 0, 1}.
        assert orbit_size((0, 0, 1), classes) == 3
        assert orbit_size((0, 0, 0), classes) == 1
        assert orbit_size((0, 1, 2), classes) == 6

    def test_renamings_cover_the_permutation_group(self):
        renamings = _tid_renamings(((1, 2),))
        moved = {
            frozenset((k, v) for k, v in m.items() if k != v)
            for m in renamings
        }
        assert moved == {frozenset(), frozenset({(1, 2), (2, 1)})}
        assert _tid_renamings(()) == [{}]

    def test_rename_behavior_rewrites_register_keys_only(self):
        assert _renamed_key("T0:a", {0: 1}) == "T1:a"
        assert _renamed_key("T2:a", {0: 1}) == "T2:a"
        assert _renamed_key("X", {0: 1}) == "X"

    def test_iriw5_collapses_symmetric_combos(self):
        stats = EnumerationStats()
        behs = reduced(IRIW5.program, X86, stats=stats)
        assert stats.symmetry_collapsed > 0
        assert behs == naive_behaviors(IRIW5.program, X86)

    def test_orbit_scaling_preserves_naive_candidate_count(self):
        # candidates_naive must count the *full* space, not just the
        # canonical representatives, or pruned fractions would lie.
        sym = EnumerationStats()
        reduced(IRIW5.program, X86, stats=sym)
        plain = EnumerationStats()
        list(enumerate_executions(IRIW5.program, stats=plain))
        assert sym.candidates_naive == plain.candidates_naive


# ----------------------------------------------------------------------
# Coherence value classes and the candidate limit
# ----------------------------------------------------------------------
class TestCoherenceClasses:
    def test_w5_rr_completes_under_a_limit_staged_cannot(self):
        stats = EnumerationStats()
        behs = reduced(W5_RR.program, X86, stats=stats, limit=1000)
        assert behs  # completed
        assert stats.executions_enumerated <= 1000
        assert stats.co_classes >= 1
        with pytest.raises(ModelError, match="exceed limit"):
            list(enumerate_consistent(W5_RR.program, X86, limit=1000))

    def test_materialization_is_at_least_10x_below_naive(self):
        stats = EnumerationStats()
        reduced(W4_2RR.program, X86, stats=stats)
        assert stats.candidates_naive \
            >= 10 * max(1, stats.executions_enumerated)


# ----------------------------------------------------------------------
# Bugfix regressions: the enumerator soundness fixes
# ----------------------------------------------------------------------
class WeakPrecheckX86(MemoryModel):
    """x86-TSO with a strictly weaker staged precheck: accepts everything.

    A model like this is *allowed* — ``rf_stage_consistent`` is a
    monotone precheck, never exact — so the staged unique-extension
    shortcut must still run the full ``is_consistent`` on the single
    materialized extension.  Before the fix it counted the candidate
    consistent on the precheck alone, admitting TSO-forbidden
    behaviours whenever only one coherence order existed.
    """

    def __init__(self):
        super().__init__("x86-weak-precheck", X86.arch, X86.axioms)

    def rf_stage_consistent(self, ex) -> bool:
        return True


#: An x86 judge the staged fast path cannot take: x86-TSO plus an axiom
#: that always holds (fre ⊆ rf⁻¹;co) but names co on the right of "-",
#: so the evaluator derives ``supports_staged == False``.
UNSTAGED_X86 = MemoryModel("x86-unstaged", X86.arch,
                           (*X86.axioms, empty(fre - rf.inv() @ co)))


class TestSoundnessFixes:
    @pytest.mark.parametrize("name", ["SB+mfences", "CoWR", "MP"])
    def test_weak_precheck_still_gets_full_final_check(self, name):
        program = ALL_TESTS[name].program
        weak = WeakPrecheckX86()
        staged = frozenset(
            ex.full_behavior
            for ex in enumerate_consistent(program, weak)
        )
        assert staged == naive_behaviors(program, weak)
        assert staged == naive_behaviors(program, X86)

    def test_weak_precheck_reduced_path_agrees_too(self):
        program = ALL_TESTS["SB+mfences"].program
        weak = WeakPrecheckX86()
        assert reduced(program, weak) == naive_behaviors(program, X86)

    def test_unstaged_fallback_accounts_stats(self):
        program = ALL_TESTS["MP"].program
        run = EnumerationStats()
        reset_enumeration_stats()
        behs = frozenset(
            ex.full_behavior
            for ex in enumerate_consistent(program, UNSTAGED_X86,
                                           stats=run)
        )
        assert behs == naive_behaviors(program, X86)
        for field in ("combos", "candidates_naive",
                      "executions_enumerated", "consistent"):
            assert getattr(run, field) > 0, field
        merged = enumeration_stats()
        assert merged.executions_enumerated \
            >= run.executions_enumerated

    def test_unstaged_fallback_in_reduced_behaviors(self):
        program = ALL_TESTS["MP"].program
        run = EnumerationStats()
        behs = reduced(program, UNSTAGED_X86, stats=run)
        assert behs == naive_behaviors(program, X86)
        assert run.executions_enumerated > 0
        assert run.consistent > 0


# ----------------------------------------------------------------------
# The 5-thread corpus itself
# ----------------------------------------------------------------------
class TestFiveThreadCorpus:
    def test_names_are_unique_and_programs_have_five_threads(self):
        names = [t.name for t in FIVE_THREAD_CORPUS]
        assert len(names) == len(set(names))
        for test in FIVE_THREAD_CORPUS:
            assert len(test.program.threads) >= 5, test.name

    @pytest.mark.parametrize(
        "test", FIVE_THREAD_CORPUS, ids=lambda t: t.name)
    def test_annotations_hold_under_x86(self, test):
        assert check_annotations(test, X86) == []

    def test_stats_merge_into_module_counters(self):
        reset_enumeration_stats()
        before = dataclasses.replace(enumeration_stats())
        reduced(IRIW5.program, X86)
        after = enumeration_stats()
        assert after.combos > before.combos
        assert after.candidates_naive > before.candidates_naive
