"""The models as terms: the evaluator, the derived properties, the
figures' structure, and tooling guards against the per-model classes
growing back.

The evaluator derives three things from a model's axioms — the
static/communication split, ``supports_staged`` and the fingerprint —
and the behaviour goldens (``test_behavior_golden.py``,
``test_search_core.py``) pin that the four models judge exactly as the
hand-written classes did.  These tests pin the derivations themselves.
"""

import ast
import inspect
import pathlib
import re

import pytest

import repro
from repro.core import ARM, ARM_ORIGINAL, MODEL_BY_NAME, SC, TCG, X86
from repro.core.enumerate import EnumerationStats, enumerate_consistent, \
    enumerate_executions
from repro.core.events import TCG_FENCE_PAIRS, Arch, Fence
from repro.core.litmus_library import ALL_TESTS
from repro.core.models import armcats, tcg, x86tso
from repro.core.models.terms import ATOMICITY, COMMUNICATION, \
    SC_PER_LOC, MemoryModel, R, Term, W, acyclic, co, empty, evaluate, \
    fences, fr, fre, irreflexive, monotone, operands, po, rf, union
from repro.core.relations import Rel
from tests import knobs

SRC = pathlib.Path(repro.__file__).parent
MODELS_DIR = SRC / "core" / "models"
EVALUATOR = MODELS_DIR / "terms.py"


def _executions(name: str):
    return list(enumerate_executions(ALL_TESTS[name].program))


# ----------------------------------------------------------------------
# The evaluator
# ----------------------------------------------------------------------
class TestEvaluator:
    def test_operators_match_the_relation_algebra(self):
        ex = _executions("MP")[0]
        assert evaluate(po @ W, ex) == ex.po.restrict(codomain=ex.writes)
        assert evaluate(R * W, ex) == Rel.cross(ex.reads, ex.writes)
        assert evaluate(po - po, ex) == Rel()
        assert evaluate((rf | co).inv(), ex) == (ex.rf | ex.co).inv()
        assert evaluate(po.plus(), ex) == ex.po.plus()
        assert evaluate(R | W, ex) == ex.reads | ex.writes

    def test_an_empty_identity_empties_the_chain(self):
        ex = _executions("MP")[0]
        assert not ex.fences(Fence.DMBFF)
        assert not evaluate(po @ fences(Fence.DMBFF) @ po, ex)

    def test_closures_inside_acyclic_are_checked_unclosed(self):
        # irreflexive(r+) and acyclic(A ∪ r+) are checked as acyclic(r),
        # on candidates of a test where some do and some do not cycle.
        ghb = union(po, rf, co, fr)
        verdicts = set()
        for ex in _executions("SB"):
            closed = (ex.po | ex.rf | ex.co | ex.fr).plus()
            verdict = closed.is_irreflexive()
            verdicts.add(verdict)
            assert evaluate(irreflexive(ghb.plus()), ex) == verdict
            assert evaluate(acyclic(ghb), ex) == verdict
            assert evaluate(acyclic(union(po, ghb.plus())), ex) == verdict
        assert verdicts == {True, False}

    def test_sorts_are_checked(self):
        with pytest.raises(TypeError):
            po | R
        with pytest.raises(TypeError):
            po * R
        with pytest.raises(TypeError):
            MemoryModel("bad", Arch.X86, (po,))

    def test_static_part_is_memoized_per_skeleton(self):
        # The split: GHB's rf/co-free operands are one term, memoized
        # in the skeleton memo that every candidate of every combo of
        # one skeleton shares — one entry, shared with the rf search's
        # plan for the axiom.
        memos = {id(ex.memo): ex for ex in
                 enumerate_consistent(ALL_TESTS["MP"].program, X86)}
        assert memos
        for ex in memos.values():
            static = [value for key, value in ex.memo.items()
                      if isinstance(key, Term) and key.op == "|"]
            assert static == [evaluate(union(x86tso.IMPLIED, x86tso.PPO),
                                       ex)]


# ----------------------------------------------------------------------
# What the evaluator derives
# ----------------------------------------------------------------------
class TestDerived:
    @pytest.mark.parametrize("model", MODEL_BY_NAME.values(),
                             ids=lambda m: m.name)
    def test_split_leaves_only_communication_per_candidate(self, model):
        # Every acyclicity axiom splits into an rf/co-free part and a
        # few base communication relations, nothing more per candidate.
        for axiom in model.axioms:
            if axiom.op == "empty":
                continue
            parts = operands(axiom.args[0], unclose=True)
            dynamic = [p.text for p in parts if p.comm]
            assert dynamic and set(dynamic) <= COMMUNICATION, axiom
            assert any(not p.comm for p in parts), axiom

    @pytest.mark.parametrize("model", MODEL_BY_NAME.values(),
                             ids=lambda m: m.name)
    def test_plans_cover_every_axiom_but_atomicity(self, model):
        # sc-per-loc and the main axiom are judged by difference;
        # atomicity is left to a prefix execution, and only on a combo
        # with a successful RMW.
        main = model.axioms[2].args[0]
        leaves = {p.text for p in operands(main, unclose=True) if p.comm}
        assert [names for _, names in model.plans] == [
            {"rf", "co", "fr"}, leaves]
        plain = next(enumerate_executions(ALL_TESTS["MP"].program))
        assert model.prefix_judge(plain) == (model.plans, ())
        cas = next(enumerate_executions(ALL_TESTS["MP+rmw"].program))
        assert cas.rmw
        assert model.prefix_judge(cas) == (model.plans,
                                           (model._checks[1],))

    def test_a_hook_override_takes_no_plans(self):
        class Hooked(MemoryModel):
            def rf_stage_consistent(self, ex):
                return True

        hooked = Hooked("hooked", X86.arch, X86.axioms)
        ex = next(enumerate_executions(ALL_TESTS["MP"].program))
        assert hooked.prefix_judge(ex) == ((), (hooked.rf_stage_consistent,))

    def test_non_monotone_model_takes_the_naive_fallback(self):
        # fre ⊆ rf⁻¹;co always holds, so the extra axiom changes no
        # verdict — but co sits on the right of "-", so the evaluator
        # cannot vouch for the prefix precheck.
        model = MemoryModel("x86-co-subtracted", Arch.X86,
                            (*X86.axioms, empty(fre - rf.inv() @ co)))
        assert not model.supports_staged
        assert not monotone(model.axioms[-1])
        program = ALL_TESTS["SB+mfences"].program
        run = EnumerationStats()
        staged = frozenset(ex.full_behavior for ex in
                           enumerate_consistent(program, model, stats=run))
        assert run.rf_choices == 0
        assert run.executions_enumerated == run.candidates_naive > 0
        naive = frozenset(ex.full_behavior
                          for ex in enumerate_executions(program)
                          if X86.is_consistent(ex))
        assert staged == naive

    def test_fingerprint_is_content(self):
        assert MemoryModel(X86.name, X86.arch, X86.axioms).fingerprint() \
            == X86.fingerprint()
        assert MemoryModel(X86.name, Arch.TCG, X86.axioms).fingerprint() \
            != X86.fingerprint()
        assert MemoryModel(X86.name, X86.arch, X86.axioms[:2]) \
            .fingerprint() != X86.fingerprint()

        class Variant(MemoryModel):
            pass

        assert Variant(X86.name, X86.arch, X86.axioms).fingerprint() \
            != X86.fingerprint()


# ----------------------------------------------------------------------
# The figures
# ----------------------------------------------------------------------
def _differences(a, b):
    """The outermost subterm pairs where two terms disagree."""
    if a.text == b.text:
        return []
    if a.op == b.op != "leaf" and len(a.args) == len(b.args):
        return [d for x, y in zip(a.args, b.args)
                for d in _differences(x, y)]
    return [(a, b)]


class TestFigures:
    def test_arm_variants_differ_in_exactly_the_amo_clause(self):
        assert len(ARM.axioms) == len(ARM_ORIGINAL.axioms)
        diffs = [d for a, b in zip(ARM.axioms, ARM_ORIGINAL.axioms)
                 for d in _differences(a, b)]
        assert [(a.text, b.text) for a, b in diffs] == [
            (armcats.AMO_CORRECTED.text, armcats.AMO_ORIGINAL.text)]

    def test_tcg_ord_has_one_rule_per_directional_fence(self):
        directional = [kind for kind in TCG_FENCE_PAIRS
                       if kind is not Fence.FSC]
        rules = tcg.ORD.args
        assert len(rules) == len(directional) + 4
        for kind, rule in zip(directional, rules):
            assert f"[F.{kind.value}]" in rule.text
        assert sum("F.Fsc" in rule.text for rule in rules) == 2
        assert sum("rmw" in rule.text for rule in rules) == 2

    def test_every_model_has_the_shared_axioms(self):
        # The enumerator's rf prunes are justified by sc-per-loc and
        # atomicity alone, so every model must state both.
        for model in MODEL_BY_NAME.values():
            assert model.axioms[:2] == (SC_PER_LOC, ATOMICITY), model.name

    def test_x86_ppo_keeps_every_pair_but_store_load(self):
        products, restrict = x86tso.PPO.args
        assert restrict.text == po.text
        assert {t.text for t in operands(products)} == {
            (W * W).text, (R * W).text, (R * R).text}
        assert x86tso.PPO.text in X86.axioms[2].text


# ----------------------------------------------------------------------
# Tooling guards
# ----------------------------------------------------------------------
def _classes(path: pathlib.Path):
    return [node for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.ClassDef)]


class TestGuards:
    def test_no_model_class_under_models(self):
        for path in MODELS_DIR.glob("*.py"):
            for cls in _classes(path):
                bases = {getattr(b, "id", getattr(b, "attr", None))
                         for b in cls.bases}
                assert "MemoryModel" not in bases, \
                    f"{path.name}: {cls.name} subclasses MemoryModel"

    def test_no_hand_written_split_or_precheck_outside_the_evaluator(self):
        banned = {"rf_stage_consistent", "static", "communication"}
        for path in SRC.rglob("*.py"):
            if path == EVALUATOR:
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, (ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                    assert node.name not in banned, \
                        f"{path.relative_to(SRC)}: def {node.name}"

    def test_model_registry_unchanged(self):
        assert [(name, m.arch) for name, m in MODEL_BY_NAME.items()] == [
            ("x86-tso", Arch.X86), ("arm-cats", Arch.ARM),
            ("arm-cats-original", Arch.ARM), ("tcg-ir", Arch.TCG),
            ("sc", Arch.X86)]
        assert list(MODEL_BY_NAME.values()) == [X86, ARM, ARM_ORIGINAL,
                                                TCG, SC]

    def test_no_new_knob(self):
        """No environment variable, CLI flag or model constructor
        argument beyond these (extend :mod:`tests.knobs` when one is
        added on purpose)."""
        env, flags = set(), set()
        for path in SRC.rglob("*.py"):
            text = path.read_text()
            env |= set(re.findall(r"REPRO_[A-Z0-9_]+", text))
            flags |= set(re.findall(r'add_argument\(\s*"(--[a-z0-9-]+)"',
                                    text))
        assert env == knobs.REPRO_ENV
        assert flags == knobs.CLI_FLAGS
        assert list(inspect.signature(MemoryModel).parameters) == [
            "name", "arch", "axioms"]
