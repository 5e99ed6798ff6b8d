"""Unit tests for the staged-enumeration machinery itself.

The differential suite (test_differential_enumeration.py) checks the
end-to-end contract; these tests pin down the individual stages — the
linear-extension enumerator, the rf prunes, the RMW product cut, the
forced-coherence closure, the model precheck hook and the limit
plumbing — so a regression points at the guilty stage directly.
"""

import pytest

from repro.core import ARM, SC, X86
from repro.core.enumerate import (
    EnumerationStats,
    behaviors,
    clear_behavior_cache,
    consistent_executions,
    enumerate_consistent,
    enumerate_executions,
    enumeration_stats,
    reset_enumeration_stats,
)
from repro.core.litmus_library import ALL_TESTS, CAS, R, W, x86
from repro.core.models.terms import MemoryModel, acyclic, co, empty, \
    fre, po, rf, union
from repro.core.relations import Rel, linear_extensions
from repro.errors import ModelError


class TestLinearExtensions:
    def test_empty_partial_yields_all_permutations(self):
        exts = list(linear_extensions([1, 2, 3], []))
        assert len(exts) == 6

    def test_total_partial_yields_single_extension(self):
        total = [(1, 2), (2, 3), (1, 3)]
        exts = list(linear_extensions([1, 2, 3], total))
        assert len(exts) == 1
        assert exts[0] == Rel(total)

    def test_partial_constraint_filters(self):
        # 1 before 3 leaves the three permutations with that property.
        exts = list(linear_extensions([1, 2, 3], [(1, 3)]))
        assert len(exts) == 3
        for ext in exts:
            assert (1, 3) in ext

    def test_each_extension_is_a_strict_total_order(self):
        for ext in linear_extensions([4, 5, 6, 7], [(4, 7)]):
            assert len(ext.pairs) == 6  # C(4,2)
            assert ext.is_irreflexive()

    def test_cyclic_partial_yields_nothing(self):
        assert list(linear_extensions([1, 2], [(1, 2), (2, 1)])) == []

    def test_foreign_pairs_ignored(self):
        exts = list(linear_extensions([1, 2], [(9, 1), (2, 9)]))
        assert len(exts) == 2


class TestRfPrunes:
    def test_po_later_own_write_pruned(self):
        # T0: R a=X; W X=1 — the read cannot see its own later write.
        prog = x86("p", (R("a", "X"), W("X", 1)))
        stats = EnumerationStats()
        execs = list(enumerate_consistent(prog, SC, stats=stats))
        assert stats.rf_options_pruned >= 1
        assert all(dict(ex.regs)["T0:a"] == 0 for ex in execs)

    def test_masked_init_pruned(self):
        # T0: W X=1; R a=X — init can no longer reach the read.
        prog = x86("p", (W("X", 1), R("a", "X")))
        stats = EnumerationStats()
        execs = list(enumerate_consistent(prog, SC, stats=stats))
        assert stats.rf_options_pruned >= 1
        assert all(dict(ex.regs)["T0:a"] == 1 for ex in execs)

    def test_masked_same_thread_source_pruned(self):
        # W X=1; W X=1; R a=X — the first write is masked by the second.
        prog = x86("p", (W("X", 1), W("X", 1), R("a", "X")))
        stats = EnumerationStats()
        list(enumerate_consistent(prog, SC, stats=stats))
        assert stats.rf_options_pruned >= 1

    def test_cross_thread_sources_survive(self):
        prog = x86("p", (W("X", 1),), (R("a", "X"),))
        stats = EnumerationStats()
        execs = list(enumerate_consistent(prog, X86, stats=stats))
        values = {dict(ex.regs)["T1:a"] for ex in execs}
        assert values == {0, 1}


class TestRmwProductCut:
    def test_shared_source_branch_cut(self):
        # Both CAS(X,0,*) succeed only by reading init — disjointness
        # cuts that branch during the rf product.
        prog = x86("atom", (CAS("X", 0, 1),), (CAS("X", 0, 2),))
        stats = EnumerationStats()
        execs = list(enumerate_consistent(prog, X86, stats=stats))
        assert stats.rf_rejected_rmw >= 1
        for ex in execs:
            assert dict(ex.behavior)["X"] in (1, 2)

    def test_staged_and_naive_agree_on_rmw_race(self):
        prog = x86("atom", (CAS("X", 0, 1),), (CAS("X", 0, 2),))
        staged = {ex.full_behavior
                  for ex in enumerate_consistent(prog, X86)}
        naive = {ex.full_behavior for ex in enumerate_executions(prog)
                 if X86.is_consistent(ex)}
        assert staged == naive


class TestPrecheckHook:
    def test_unsupported_model_falls_back_to_naive_filter(self):
        # SC plus an axiom that always holds but names co on the right
        # of "-": the evaluator cannot vouch for monotonicity.
        opaque = MemoryModel("opaque", SC.arch, (
            *SC.axioms, empty(fre - rf.inv() @ co)))
        assert not opaque.supports_staged
        prog = ALL_TESTS["MP"].program
        staged = {ex.full_behavior
                  for ex in enumerate_consistent(prog, opaque)}
        oracle = {ex.full_behavior
                  for ex in consistent_executions(prog, SC,
                                                  staged=False)}
        assert staged == oracle

    def test_model_without_shared_axioms_falls_back(self):
        # Monotone, but without sc-per-loc and atomicity the search's
        # prunes and forced coherence edges drop allowed behaviours.
        bare = MemoryModel("bare", SC.arch, (acyclic(union(po, rf)),))
        assert not bare.supports_staged
        prog = ALL_TESTS["CoWR"].program
        staged = {ex.full_behavior
                  for ex in enumerate_consistent(prog, bare)}
        naive = {ex.full_behavior for ex in enumerate_executions(prog)
                 if bare.is_consistent(ex)}
        assert len(naive) == 6
        assert staged == naive

    def test_precheck_consulted_on_partial_co(self):
        calls = []

        class Spy(MemoryModel):
            def rf_stage_consistent(self, ex):
                calls.append(len(ex.co.pairs))
                return super().rf_stage_consistent(ex)

        prog = ALL_TESTS["MP"].program
        spy = Spy("spy", SC.arch, SC.axioms)
        assert spy.supports_staged
        staged = {ex.full_behavior
                  for ex in enumerate_consistent(prog, spy)}
        assert calls, "rf-stage precheck never invoked"
        assert staged == {ex.full_behavior
                         for ex in consistent_executions(prog, SC,
                                                         staged=False)}

    def test_all_builtin_models_expose_the_hook(self):
        # supports_staged is derived from the terms, so an edit that
        # puts rf or co on the right of "-", or drops sc-per-loc or
        # atomicity, in any built-in model fails here instead of
        # silently pruning.
        from repro.core import ARM_ORIGINAL, TCG
        prog = x86("p", (W("X", 1),))
        ex = next(enumerate_executions(prog))
        for model in (X86, ARM, ARM_ORIGINAL, TCG, SC):
            assert model.supports_staged, model.name
            assert model.rf_stage_consistent(ex) == \
                model.is_consistent(ex)


class TestLimitPlumbing:
    def test_enumerate_consistent_respects_limit(self):
        prog = ALL_TESTS["IRIW"].program
        with pytest.raises(ModelError):
            list(enumerate_consistent(prog, X86, limit=1))

    def test_consistent_executions_passes_limit(self):
        prog = ALL_TESTS["IRIW"].program
        with pytest.raises(ModelError):
            consistent_executions(prog, X86, limit=1)
        with pytest.raises(ModelError):
            consistent_executions(prog, X86, limit=1, staged=False)

    def test_behaviors_passes_limit_on_miss(self):
        # A fresh memo: a memoized entry would satisfy the lookup
        # without enumerating, and limit only binds on misses.
        clear_behavior_cache()
        prog = ALL_TESTS["IRIW"].program
        with pytest.raises(ModelError):
            behaviors(prog, X86, limit=1)
        clear_behavior_cache()

    def test_verifier_forwards_limit(self):
        from repro.core.verifier import check_translation
        prog = ALL_TESTS["IRIW"].program
        clear_behavior_cache()
        with pytest.raises(ModelError):
            check_translation(prog, prog, X86, X86, limit=1)
        clear_behavior_cache()

    def test_generous_limit_unchanged(self):
        prog = ALL_TESTS["MP"].program
        execs = consistent_executions(prog, X86, limit=10_000)
        assert {ex.full_behavior for ex in execs} == {
            ex.full_behavior
            for ex in consistent_executions(prog, X86)
        }


class TestEnumerationStats:
    def test_module_counters_accumulate(self):
        reset_enumeration_stats()
        list(enumerate_consistent(ALL_TESTS["MP"].program, X86))
        first = enumeration_stats()
        assert first.combos > 0
        assert first.executions_enumerated > 0
        list(enumerate_consistent(ALL_TESTS["MP"].program, X86))
        second = enumeration_stats()
        assert second.combos == 2 * first.combos
        reset_enumeration_stats()
        assert enumeration_stats().combos == 0

    def test_snapshot_is_detached(self):
        reset_enumeration_stats()
        list(enumerate_consistent(ALL_TESTS["MP"].program, X86))
        snap = enumeration_stats()
        list(enumerate_consistent(ALL_TESTS["MP"].program, X86))
        assert enumeration_stats().combos == 2 * snap.combos

    def test_pruned_fraction_bounds(self):
        stats = EnumerationStats()
        assert stats.pruned_fraction == 0.0
        stats.candidates_naive = 10
        stats.executions_enumerated = 4
        assert stats.pruned_fraction == pytest.approx(0.6)

    def test_merge_adds_fieldwise(self):
        a = EnumerationStats(combos=1, candidates_naive=5,
                             executions_enumerated=2)
        b = EnumerationStats(combos=2, candidates_naive=3,
                             rf_rejected_precheck=1)
        a.merge(b)
        assert a.combos == 3
        assert a.candidates_naive == 8
        assert a.rf_rejected_precheck == 1
