"""Tests for candidate-execution enumeration."""

import pytest

from repro.core import ARM, ARM_ORIGINAL, SC, TCG, X86, Arch, Fence, \
    Mode, RmwFlavor
from repro.core import litmus_library as L
from repro.core import mappings as M
from repro.core.enumerate import (
    DEFAULT_CANDIDATE_LIMIT,
    behavior_cache_stats,
    behaviors,
    clear_behavior_cache,
    consistent_executions,
    enumerate_executions,
    location_domains,
    thread_traces,
)
from repro.core.axioms import co_well_formed, rf_well_formed
from repro.core.litmus_library import CAS, MFENCE, R, W, outcome, shows, x86
from repro.core.models import armcats
from repro.core.models.terms import ATOMICITY, SC_PER_LOC, MemoryModel, \
    irreflexive
from repro.core.program import If, Load, Program, Rmw, Store
from repro.errors import ModelError
from tests.import_closure import import_closure


class TestLocationDomains:
    def test_constants_and_init(self):
        prog = x86("p", (W("X", 1), W("X", 2)), (R("a", "X"),))
        domains = location_domains(prog)
        assert domains["X"] == {0, 1, 2}

    def test_rmw_new_value_included(self):
        prog = x86("p", (CAS("X", 0, 7),))
        assert location_domains(prog)["X"] == {0, 7}

    def test_init_override(self):
        prog = Program("p", Arch.X86, ((R("a", "X"),),), init=(("X", 5),))
        assert location_domains(prog)["X"] == {5}

    def test_register_store_widens(self):
        prog = x86("p", (W("Y", 3),), (R("a", "Y"), Store("X", "a")))
        domains = location_domains(prog)
        assert 3 in domains["X"] and 0 in domains["X"]

    def test_register_store_chain_reaches_fixpoint(self):
        # Value 3 must flow Y -> X -> Z through two reg-valued stores,
        # which a single widening pass would miss: T2 reads X before
        # X's domain has absorbed Y's constant.
        prog = x86(
            "chain",
            (W("Y", 3),),
            (R("a", "Y"), Store("X", "a")),
            (R("b", "X"), Store("Z", "b")),
        )
        domains = location_domains(prog)
        assert domains["Y"] == {0, 3}
        # Both reg-valued stores absorb the whole value universe.
        assert domains["X"] == {0, 3}
        assert domains["Z"] == {0, 3}
        # The widened program still enumerates within the default
        # candidate budget.
        execs = list(enumerate_executions(prog))
        assert 0 < len(execs) <= DEFAULT_CANDIDATE_LIMIT


class TestThreadTraces:
    def test_straight_line_single_trace(self):
        traces = thread_traces((W("X", 1), W("Y", 1)), {"X": frozenset({0, 1}), "Y": frozenset({0, 1})})
        assert len(traces) == 1
        assert [s.kind for s in traces[0].specs] == ["W", "W"]

    def test_load_branches_over_domain(self):
        traces = thread_traces((R("a", "X"),), {"X": frozenset({0, 1, 2})})
        assert len(traces) == 3
        assert sorted(t.regs["a"] for t in traces) == [0, 1, 2]

    def test_rmw_success_and_failure(self):
        traces = thread_traces(
            (CAS("X", 0, 1),), {"X": frozenset({0, 5})}
        )
        kinds = sorted(
            tuple(s.kind for s in t.specs) for t in traces
        )
        assert kinds == [("R",), ("R", "W")]
        success = next(t for t in traces if len(t.specs) == 2)
        assert success.specs[0].partner == 1
        assert success.specs[1].val == 1

    def test_if_follows_register_value(self):
        ops = (R("a", "X"), If("a", 1, then_ops=(W("Y", 9),)))
        traces = thread_traces(ops, {"X": frozenset({0, 1}), "Y": frozenset({0, 9})})
        with_w = [t for t in traces if any(s.kind == "W" for s in t.specs)]
        assert len(with_w) == 1
        assert with_w[0].regs["a"] == 1

    def test_ctrl_dependency_recorded(self):
        ops = (R("a", "X"), If("a", 1, then_ops=(W("Y", 9),)))
        traces = thread_traces(ops, {"X": frozenset({0, 1}), "Y": frozenset({0, 9})})
        taken = next(t for t in traces if len(t.specs) == 2)
        assert (0, 1) in taken.ctrl

    def test_data_dependency_recorded(self):
        ops = (R("a", "X"), Store("Y", "a"))
        traces = thread_traces(ops, {"X": frozenset({0, 1}), "Y": frozenset({0, 1})})
        for t in traces:
            assert (0, 1) in t.data

    def test_ctrl_extends_past_join(self):
        ops = (R("a", "X"), If("a", 1, then_ops=()), W("Z", 1))
        traces = thread_traces(
            ops, {"X": frozenset({0, 1}), "Z": frozenset({0, 1})}
        )
        for t in traces:
            # The write after the join is still ctrl-dependent.
            assert (0, len(t.specs) - 1) in t.ctrl


class TestEnumeration:
    def test_single_thread_counts(self):
        prog = x86("p", (W("X", 1), R("a", "X")))
        execs = list(enumerate_executions(prog))
        # Read X can see init(0) or the write(1); both have exactly one
        # rf source and one co order.
        assert len(execs) == 2

    def test_rf_and_co_always_well_formed(self):
        prog = x86(
            "p",
            (W("X", 1), W("Y", 1)),
            (R("a", "Y"), R("b", "X")),
        )
        execs = list(enumerate_executions(prog))
        assert execs
        for ex in execs:
            assert rf_well_formed(ex)
            assert co_well_formed(ex)

    def test_limit_enforced(self):
        prog = x86("p", (W("X", 1), R("a", "X")))
        with pytest.raises(ModelError):
            list(enumerate_executions(prog, limit=1))

    def test_register_observations_attached(self):
        prog = x86("p", (W("X", 3),), (R("a", "X"),))
        for ex in enumerate_executions(prog):
            keys = {k for k, _ in ex.regs}
            assert keys == {"T1:a"}

    def test_init_events_present(self):
        prog = x86("p", (W("X", 1),))
        ex = next(enumerate_executions(prog))
        inits = [e for e in ex.events.values() if e.is_init]
        assert len(inits) == 1
        assert inits[0].loc == "X" and inits[0].val == 0


class TestConsistency:
    def test_sc_subset_of_x86(self):
        prog = x86(
            "sb",
            (W("X", 1), R("a", "Y")),
            (W("Y", 1), R("b", "X")),
        )
        sc_behs = behaviors(prog, SC)
        x86_behs = behaviors(prog, X86)
        assert sc_behs <= x86_behs

    def test_sb_weak_outcome_only_beyond_sc(self):
        prog = x86(
            "sb",
            (W("X", 1), R("a", "Y")),
            (W("Y", 1), R("b", "X")),
        )
        weak = outcome(T0_a=0, T1_b=0)
        assert not shows(behaviors(prog, SC), weak)
        assert shows(behaviors(prog, X86), weak)

    def test_coherence_filters_stale_second_read(self):
        prog = x86("corr", (W("X", 1),), (R("a", "X"), R("b", "X")))
        behs = behaviors(prog, SC)
        assert not shows(behs, outcome(T1_a=1, T1_b=0))

    def test_consistent_executions_returns_executions(self):
        prog = x86("p", (W("X", 1),))
        execs = consistent_executions(prog, X86)
        assert len(execs) == 1
        assert execs[0].behavior == frozenset({("X", 1)})

    def test_atomicity_rules_out_intervening_write(self):
        # Two CAS(X,0,->) both succeeding is impossible.
        prog = x86("atom", (CAS("X", 0, 1),), (CAS("X", 0, 2),))
        behs = behaviors(prog, X86)
        # Both expect 0, so exactly one succeeds in every behaviour.
        for b in behs:
            d = dict(b)
            assert d["X"] in (1, 2)


class TestBehaviorCache:
    def test_cache_stable(self):
        prog = x86("p", (W("X", 1),), (R("a", "X"),))
        assert behaviors(prog, X86) is behaviors(prog, X86)

    def test_stats_count_hits_and_misses(self):
        clear_behavior_cache()
        prog = x86("p", (W("X", 1),), (R("a", "X"),))
        behaviors(prog, X86)
        behaviors(prog, X86)
        behaviors(prog, SC)
        stats = behavior_cache_stats()
        assert stats.misses == 2
        assert stats.hits == 1
        assert stats.lookups == 3
        assert stats.hit_rate == pytest.approx(1 / 3)

    def test_clear_resets_stats(self):
        prog = x86("p", (W("X", 1),))
        behaviors(prog, X86)
        clear_behavior_cache()
        stats = behavior_cache_stats()
        assert stats.lookups == 0
        assert stats.hit_rate == 0.0

    def test_stats_snapshot_and_merge(self):
        clear_behavior_cache()
        prog = x86("p", (W("X", 1),))
        behaviors(prog, X86)
        snap = behavior_cache_stats()
        behaviors(prog, X86)
        # The snapshot is detached from the live counters.
        assert snap.hits == 0
        merged = behavior_cache_stats()
        merged.merge(snap)
        assert merged.misses == 2
        assert merged.hits == 1

    def test_the_memo_has_no_disk_dependency(self):
        """Behaviour sets are memoized in-process only: nothing the
        enumerator or the verifier imports may reach the disk store."""
        closure = import_closure({"repro.core.enumerate",
                                  "repro.core.verifier"})
        assert "repro.core.dpor" in closure
        assert "repro.store" not in closure


def make_imposter() -> MemoryModel:
    """The original Arm-Cats terms (the paper's SBAL bug) dressed up
    under the corrected model's name."""
    return MemoryModel(ARM.name, ARM.arch, ARM_ORIGINAL.axioms)


def rebuilt_arm() -> MemoryModel:
    """The corrected Arm-Cats model built afresh from Figure 5's terms."""
    return MemoryModel("arm-cats", Arch.ARM,
                       (SC_PER_LOC, ATOMICITY, irreflexive(armcats.OB)))


@pytest.fixture
def fresh_memo():
    clear_behavior_cache()
    yield
    clear_behavior_cache()


class TestModelKeyCollision:
    """Regression: the memo key must be the model's content, not its
    name (keyed on ``(program, model.name)``, an ablated or variant
    model reusing a standard name inherited the standard model's
    behaviours)."""

    def test_variant_model_with_reused_name_not_conflated(self,
                                                          fresh_memo):
        # The original Arm-Cats model (the paper's SBAL bug) dressed up
        # under the corrected model's name.  Keying on (program, name)
        # would hand it the corrected model's memoized behaviours.
        prog = M.armcats_intended.apply(L.SBAL.program)
        weak = outcome(X=1, Y=1, T0_a=0, T1_b=0)

        imposter = make_imposter()
        assert imposter.name == "arm-cats"

        corrected = behaviors(prog, ARM)          # populates the memo
        impostor_behs = behaviors(prog, imposter)  # must NOT hit it
        assert impostor_behs != corrected
        assert not shows(corrected, weak)
        assert shows(impostor_behs, weak)

    def test_order_independent(self, fresh_memo):
        # Same collision with the imposter populating the memo first.
        prog = M.armcats_intended.apply(L.SBAL.program)
        imposter = make_imposter()
        first = behaviors(prog, imposter)
        assert behaviors(prog, ARM) != first

    def test_identical_config_still_shares_entries(self, fresh_memo):
        # Two models with the same name, arch and terms are the same
        # model and must share one entry (the point of fingerprinting
        # content).
        prog = M.armcats_intended.apply(L.MP.program)
        behaviors(prog, rebuilt_arm())
        before = behavior_cache_stats()
        behaviors(prog, rebuilt_arm())
        after = behavior_cache_stats()
        assert after.hits == before.hits + 1

    def test_fingerprints_differ_between_variants(self):
        assert ARM.fingerprint() != ARM_ORIGINAL.fingerprint()
        imposter = make_imposter()
        assert imposter.fingerprint() != ARM.fingerprint()
        assert rebuilt_arm().fingerprint() == ARM.fingerprint()
