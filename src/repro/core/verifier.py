"""Model-checking verifier for Theorem 1 (Transformation Correctness).

The paper proves, in 14k lines of Agda, that its mapping schemes and IR
transformations satisfy:

    for each consistent target execution Xt ∈ [[Pt]]Mt there exists a
    consistent source execution Xs ∈ [[Ps]]Ms with Behav(Xt) = Behav(Xs).

Because behaviours of a program form a finite set here, the quantifier
collapses to *behaviour-set inclusion*:

    behaviors(Pt, Mt)  ⊆  behaviors(Ps, Ms)

This module checks that inclusion exhaustively over litmus programs —
the executable substitute for the mechanized proofs.  It reproduces
every verdict the paper reports: QEMU's RMW bugs (MPQ, SBQ), the FMR
transformation bug, the SBAL Arm-model bug, the correctness of Risotto's
mappings, and the *minimality* of each inserted fence (dropping any one
fence class breaks some corpus test).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

from ..errors import ModelError
from ..obs.trace import get_tracer
from .enumerate import behaviors
from .events import Fence, RmwFlavor
from .litmus_library import LitmusTest, shows
from .mappings import OpMapping
from .models import MemoryModel
from .program import FenceOp, If, Op, Program, Rmw


@dataclass(frozen=True)
class MappingVerdict:
    """Result of checking one program under one mapping."""

    test_name: str
    mapping_name: str
    ok: bool
    #: Behaviours of the target that no source execution exhibits.
    new_behaviors: frozenset = frozenset()
    #: Forbidden outcomes (per the litmus annotation) that the target
    #: admits — the human-readable witnesses of a translation bug.
    violated_outcomes: tuple = ()

    def __str__(self) -> str:
        status = "OK" if self.ok else "BROKEN"
        out = f"{self.test_name:<18} {self.mapping_name:<28} {status}"
        if not self.ok and self.violated_outcomes:
            shown = "; ".join(
                "{" + ", ".join(f"{k}={v}" for k, v in sorted(o)) + "}"
                for o in self.violated_outcomes
            )
            out += f"  admits forbidden {shown}"
        return out


@dataclass
class CorpusReport:
    """Aggregated verdicts for a mapping over a corpus."""

    mapping_name: str
    verdicts: list[MappingVerdict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(v.ok for v in self.verdicts)

    @property
    def failures(self) -> list[MappingVerdict]:
        return [v for v in self.verdicts if not v.ok]

    def __str__(self) -> str:
        head = f"mapping {self.mapping_name}: " + (
            "all tests pass" if self.ok
            else f"{len(self.failures)}/{len(self.verdicts)} tests broken"
        )
        return "\n".join([head] + [f"  {v}" for v in self.verdicts])


# ----------------------------------------------------------------------
# Core checks
# ----------------------------------------------------------------------
def check_translation(source: Program, target: Program,
                      src_model: MemoryModel, tgt_model: MemoryModel,
                      test: LitmusTest | None = None,
                      mapping_name: str = "?",
                      limit: int | None = None,
                      *,
                      allow_extra_target_keys: bool = False
                      ) -> MappingVerdict:
    """Theorem 1 via behaviour-set inclusion.

    Register observations are projected to the registers common to both
    programs, so transformations that constant-fold a register away
    (e.g. FMR's RAW elimination) remain comparable.  ``limit`` adjusts
    the candidate-enumeration safety valve for *both* programs — mapped
    targets blow up faster than their sources.

    Projection is only sound in the source direction: keys the *target*
    alone observes would be silently erased, so a mapping that renames
    an observed register (or invents a fresh observable) could corrupt
    it undetected.  Target-only keys therefore raise unless the caller
    opts out with ``allow_extra_target_keys=True`` (which still warns) —
    the opt-out is for deliberate comparisons of a target that observes
    strictly more, never for mapped lowerings, which must preserve the
    source's observables key-for-key.
    """
    tracer = get_tracer()
    with tracer.span("verify.source_behaviors", cat="verify",
                     test=source.name, mapping=mapping_name):
        src_behs = behaviors(source, src_model, limit=limit)
    with tracer.span("verify.target_behaviors", cat="verify",
                     test=source.name, mapping=mapping_name):
        tgt_behs = behaviors(target, tgt_model, limit=limit)

    src_keys = _behavior_keys(src_behs)
    tgt_keys = _behavior_keys(tgt_behs)
    common = src_keys & tgt_keys
    if src_keys and tgt_keys and not common:
        # With no shared observable, every target behaviour projects to
        # the empty set and inclusion holds vacuously — a comparison of
        # unrelated programs, never a proof of translation correctness.
        raise ModelError(
            f"{source.name} vs {target.name} ({mapping_name}): source "
            f"and target share no behaviour keys; inclusion would pass "
            f"vacuously"
        )
    extra_tgt = tgt_keys - common
    if extra_tgt:
        # Target-only observables would be projected away before the
        # inclusion check — a renamed or invented observed register
        # could carry any value and still "pass".
        detail = (
            f"{source.name} vs {target.name} ({mapping_name}): target "
            f"observes keys the source never does "
            f"({', '.join(sorted(extra_tgt))}); projecting them away "
            f"would hide corrupted observables"
        )
        if not allow_extra_target_keys:
            raise ModelError(detail)
        warnings.warn(detail, stacklevel=2)

    src_proj = frozenset(_project(b, common) for b in src_behs)
    new = frozenset(
        b for b in tgt_behs if _project(b, common) not in src_proj
    )

    violated: list = []
    if test is not None:
        for out in test.forbidden:
            if shows(tgt_behs, out) and not shows(src_behs, out):
                violated.append(out)

    return MappingVerdict(
        test_name=source.name,
        mapping_name=mapping_name,
        ok=not new,
        new_behaviors=new,
        violated_outcomes=tuple(violated),
    )


def _behavior_keys(behs: frozenset) -> frozenset:
    keys: set = set()
    for beh in behs:
        keys |= {k for k, _ in beh}
    return frozenset(keys)


def _project(beh: frozenset, keys: frozenset) -> frozenset:
    return frozenset((k, v) for k, v in beh if k in keys)


def check_mapping(test: LitmusTest, mapping: OpMapping,
                  src_model: MemoryModel,
                  tgt_model: MemoryModel,
                  limit: int | None = None, *,
                  allow_extra_target_keys: bool = False) -> MappingVerdict:
    """Map the test's program and check Theorem 1 for it."""
    target = mapping.apply(test.program)
    verdict = check_translation(
        test.program, target, src_model, tgt_model,
        test=test, mapping_name=mapping.name, limit=limit,
        allow_extra_target_keys=allow_extra_target_keys,
    )
    return verdict


def check_corpus(corpus: tuple[LitmusTest, ...], mapping: OpMapping,
                 src_model: MemoryModel,
                 tgt_model: MemoryModel,
                 limit: int | None = None, *,
                 allow_extra_target_keys: bool = False) -> CorpusReport:
    report = CorpusReport(mapping_name=mapping.name)
    for test in corpus:
        report.verdicts.append(
            check_mapping(test, mapping, src_model, tgt_model,
                          limit=limit,
                          allow_extra_target_keys=allow_extra_target_keys)
        )
    return report


# ----------------------------------------------------------------------
# Sanity: the litmus annotations themselves hold in the source model
# ----------------------------------------------------------------------
def check_annotations(test: LitmusTest, model: MemoryModel,
                      limit: int | None = None) -> list[str]:
    """Return problems with the test's forbidden/allowed annotations."""
    problems = []
    behs = behaviors(test.program, model, limit=limit)
    for out in test.forbidden:
        if shows(behs, out):
            problems.append(
                f"{test.name}: outcome {dict(sorted(out))} marked "
                f"forbidden but {model.name} allows it"
            )
    for out in test.allowed:
        if not shows(behs, out):
            problems.append(
                f"{test.name}: outcome {dict(sorted(out))} marked "
                f"allowed but {model.name} forbids it"
            )
    return problems


# ----------------------------------------------------------------------
# Minimality ablation (Section 5.4 / Figures 8-9)
# ----------------------------------------------------------------------
def drop_fences(mapping: OpMapping, kinds: frozenset[Fence],
                suffix: str) -> OpMapping:
    """A weakened mapping that omits the given fence kinds.

    The strip recurses into ``If`` arms: a lowering may place fences
    inside a mapped conditional (MPQ-style RMW guards do), and leaving
    those behind would overstate fence necessity on branchy programs —
    the ablation would report "broken without the fence" while the
    fence was in fact still there.
    """

    def strip(ops: tuple[Op, ...]) -> tuple[Op, ...]:
        out = []
        for mapped in ops:
            if isinstance(mapped, FenceOp) and mapped.kind in kinds:
                continue
            if isinstance(mapped, If):
                mapped = If(
                    mapped.reg, mapped.value,
                    then_ops=strip(mapped.then_ops),
                    else_ops=strip(mapped.else_ops),
                )
            out.append(mapped)
        return tuple(out)

    def weakened(op: Op) -> tuple[Op, ...]:
        return strip(tuple(mapping.map_op(op)))

    return OpMapping(
        name=f"{mapping.name}-minus-{suffix}",
        src_arch=mapping.src_arch,
        tgt_arch=mapping.tgt_arch,
        map_op=weakened,
    )


def drop_rmw_fence(mapping: OpMapping, leading: bool,
                   suffix: str) -> OpMapping:
    """Weaken only the DMBFF emitted around RMW lowerings.

    Matching on the fence *kind* matters: a lowering may legitimately
    start or end with some other fence, and ablating such a mapping
    must not silently strip it instead of the DMBFF this weakening is
    about.
    """

    def weakened(op: Op) -> tuple[Op, ...]:
        mapped = list(mapping.map_op(op))
        if not isinstance(op, Rmw):
            return tuple(mapped)
        if leading and mapped and isinstance(mapped[0], FenceOp) \
                and mapped[0].kind is Fence.DMBFF:
            mapped = mapped[1:]
        if not leading and mapped and isinstance(mapped[-1], FenceOp) \
                and mapped[-1].kind is Fence.DMBFF:
            mapped = mapped[:-1]
        return tuple(mapped)

    return OpMapping(
        name=f"{mapping.name}-minus-{suffix}",
        src_arch=mapping.src_arch,
        tgt_arch=mapping.tgt_arch,
        map_op=weakened,
    )


@dataclass(frozen=True)
class AblationResult:
    """Whether removing a fence class broke at least one corpus test."""

    ablation: str
    broken_tests: tuple[str, ...]

    @property
    def fence_was_necessary(self) -> bool:
        return bool(self.broken_tests)


def ablate(corpus: tuple[LitmusTest, ...], weakened: OpMapping,
           src_model: MemoryModel, tgt_model: MemoryModel,
           label: str, limit: int | None = None) -> AblationResult:
    """Run a weakened mapping over the corpus; collect broken tests."""
    broken = []
    for test in corpus:
        verdict = check_mapping(test, weakened, src_model, tgt_model,
                                limit=limit)
        if not verdict.ok:
            broken.append(test.name)
    return AblationResult(ablation=label, broken_tests=tuple(broken))
