"""IR transformations on litmus programs and their correctness checks.

Section 5.4 / Figure 10 of the paper: TCG performs constant propagation
and folding that, on shared-memory accesses, amounts to the elimination
rules below; it also merges/strengthens fences and reorders independent
plain accesses.  Each rule here is an executable program transformation
whose correctness (Theorem 1 with ``Ms = Mt``) the verifier can check —
including the *incorrect* cases the paper reports, such as RAW
elimination across an ``Fmr`` fence (the FMR example).

Eliminations (Figure 10), written on po-immediate pairs:

* RAR:   ``R(X,v) · R(X,v')   ->  R(X,v)``
* RAW:   ``W(X,v) · R(X,v)    ->  W(X,v)``
* WAW:   ``W(X,v) · W(X,v')   ->  W(X,v')``
* F-RAR: ``R(X,v) · Fo · R(X,v')  -> R(X,v) · Fo``  (o ∈ {rm, ww})
* F-RAW: ``W(X,v) · Fτ · R(X,v)   -> W(X,v) · Fτ``  (τ ∈ {sc, ww})
* F-WAW: ``W(X,v) · Fo · W(X,v')  -> Fo · W(X,v')`` (o ∈ {rm, ww})

plus fence merging/strengthening and adjacent-access reordering.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import MappingError
from .events import TCG_FENCE_PAIRS, Fence
from .program import FenceOp, If, Load, Op, Program, Rmw, Store

#: Fences across which read-after-read elimination stays correct (the
#: ``F_o`` side condition of Figure 10 — confirmed by our checker).
ELIM_SAFE_RAR: frozenset[Fence] = frozenset({Fence.FRM, Fence.FWW})
#: Fences across which read-after-write elimination stays correct
#: (the ``F_τ`` side condition).  Notably *not* Fmr/Fwr — that is the
#: FMR bug.
ELIM_SAFE_RAW: frozenset[Fence] = frozenset({Fence.FSC, Fence.FWW})
#: Fences across which write-after-write elimination stays correct.
#: Figure 10 claims o ∈ {rm, ww}, but our exhaustive checker finds a
#: counterexample for Fww: eliminating the first write also removes its
#: ``[W];po;[Fww];po;[W]`` ordering edge to *later, other-location*
#: writes, which an external reader with an Frr fence can observe (see
#: tests/core/test_transforms.py).  We therefore keep the conservative
#: set; the deviation is recorded in EXPERIMENTS.md.
ELIM_SAFE_WAW: frozenset[Fence] = frozenset({Fence.FRM})


# ----------------------------------------------------------------------
# Register substitution (constant folding support)
# ----------------------------------------------------------------------
def substitute_reg(ops: tuple[Op, ...], reg: str,
                   replacement: int | str) -> tuple[Op, ...]:
    """Replace uses of ``reg`` by a constant or another register."""
    out: list[Op] = []
    for op in ops:
        if isinstance(op, Store) and op.value == reg:
            out.append(Store(op.loc, replacement, mode=op.mode))
        elif isinstance(op, If) and op.reg == reg:
            if isinstance(replacement, int):
                # Condition folds: keep the statically-taken arm.
                arm = op.then_ops if replacement == op.value \
                    else op.else_ops
                out.extend(substitute_reg(tuple(arm), reg, replacement))
            else:
                out.append(If(
                    reg=replacement, value=op.value,
                    then_ops=substitute_reg(
                        tuple(op.then_ops), reg, replacement),
                    else_ops=substitute_reg(
                        tuple(op.else_ops), reg, replacement),
                ))
        elif isinstance(op, If):
            out.append(If(
                reg=op.reg, value=op.value,
                then_ops=substitute_reg(tuple(op.then_ops), reg,
                                        replacement),
                else_ops=substitute_reg(tuple(op.else_ops), reg,
                                        replacement),
            ))
        else:
            out.append(op)
    return tuple(out)


def _rewrite_thread(program: Program, tid: int,
                    new_ops: tuple[Op, ...], suffix: str) -> Program:
    threads = tuple(
        new_ops if i == tid else ops
        for i, ops in enumerate(program.threads)
    )
    return program.with_threads(threads, suffix=suffix)


def _ops(program: Program, tid: int) -> tuple[Op, ...]:
    return tuple(program.threads[tid])


# ----------------------------------------------------------------------
# Eliminations
# ----------------------------------------------------------------------
def eliminate_rar(program: Program, tid: int, idx: int) -> Program:
    """RAR / F-RAR: drop the second of two same-location reads.

    ``idx`` points at the first read; an intermediate fence is allowed
    (F-RAR form).  The second read's register is renamed to the first's,
    mirroring constant propagation of the loaded value.
    """
    ops = _ops(program, tid)
    first = ops[idx]
    if not isinstance(first, Load):
        raise MappingError(f"op {idx} is not a load: {first}")
    j = idx + 1
    if j < len(ops) and isinstance(ops[j], FenceOp):
        j += 1
    if j >= len(ops) or not isinstance(ops[j], Load) \
            or ops[j].loc != first.loc:
        raise MappingError(f"no same-location read follows op {idx}")
    second = ops[j]
    rest = substitute_reg(ops[j + 1:], second.reg, first.reg)
    return _rewrite_thread(
        program, tid, ops[:j] + rest, suffix="·rar")


def eliminate_raw(program: Program, tid: int, idx: int) -> Program:
    """RAW / F-RAW: drop a read that follows a same-location write,
    folding the written constant into the read's register uses.

    This is exactly the transformation that is *incorrect* across
    ``Fmr``/``Fwr`` fences (the FMR example) — the checker will say so.
    """
    ops = _ops(program, tid)
    first = ops[idx]
    if not isinstance(first, Store) or not isinstance(first.value, int):
        raise MappingError(f"op {idx} is not a constant store: {first}")
    j = idx + 1
    if j < len(ops) and isinstance(ops[j], FenceOp):
        j += 1
    if j >= len(ops) or not isinstance(ops[j], Load) \
            or ops[j].loc != first.loc:
        raise MappingError(f"no same-location read follows op {idx}")
    read = ops[j]
    rest = substitute_reg(ops[j + 1:], read.reg, first.value)
    return _rewrite_thread(
        program, tid, ops[:j] + rest, suffix="·raw")


def eliminate_waw(program: Program, tid: int, idx: int) -> Program:
    """WAW / F-WAW: drop the first of two same-location writes."""
    ops = _ops(program, tid)
    first = ops[idx]
    if not isinstance(first, Store):
        raise MappingError(f"op {idx} is not a store: {first}")
    j = idx + 1
    if j < len(ops) and isinstance(ops[j], FenceOp):
        j += 1
    if j >= len(ops) or not isinstance(ops[j], Store) \
            or ops[j].loc != first.loc:
        raise MappingError(f"no same-location write follows op {idx}")
    return _rewrite_thread(
        program, tid, ops[:idx] + ops[idx + 1:], suffix="·waw")


# ----------------------------------------------------------------------
# Fence merging / strengthening
# ----------------------------------------------------------------------
def merge_fences(first: Fence, second: Fence) -> Fence:
    """The weakest single fence at least as strong as both.

    Merging to a same-or-stronger fence is always correct (Section 5.4);
    ``Fsc`` absorbs everything because of its additional SC semantics.
    Otherwise the result is the directional fence ordering the fewest
    pairs that still covers the union — unique, because a covering set
    of the union's own size is the union.
    """
    if Fence.FSC in (first, second):
        return Fence.FSC
    pairs_a = TCG_FENCE_PAIRS.get(first)
    pairs_b = TCG_FENCE_PAIRS.get(second)
    if pairs_a is None or pairs_b is None:
        raise MappingError(
            f"cannot merge non-directional fences {first}/{second}"
        )
    union = pairs_a | pairs_b
    return min((kind for kind, pairs in TCG_FENCE_PAIRS.items()
                if kind is not Fence.FSC and union <= pairs),
               key=lambda kind: len(TCG_FENCE_PAIRS[kind]))


def merge_adjacent_fences(program: Program, tid: int, idx: int) -> Program:
    """Replace ``F1 · F2`` (no intermediate access) by their merge,
    placed where the earliest fence was (Section 6.1)."""
    ops = _ops(program, tid)
    if idx + 1 >= len(ops) or not isinstance(ops[idx], FenceOp) \
            or not isinstance(ops[idx + 1], FenceOp):
        raise MappingError(f"ops {idx},{idx + 1} are not adjacent fences")
    merged = merge_fences(ops[idx].kind, ops[idx + 1].kind)
    new_ops = ops[:idx] + (FenceOp(merged),) + ops[idx + 2:]
    return _rewrite_thread(program, tid, new_ops, suffix="·merge")


def strengthen_fence(program: Program, tid: int, idx: int,
                     to: Fence) -> Program:
    """Replace a fence by a stronger one (always correct)."""
    ops = _ops(program, tid)
    fence = ops[idx]
    if not isinstance(fence, FenceOp):
        raise MappingError(f"op {idx} is not a fence")
    if to is not Fence.FSC:
        old = TCG_FENCE_PAIRS.get(fence.kind)
        new = TCG_FENCE_PAIRS.get(to)
        if old is None or new is None:
            raise MappingError(
                f"cannot strengthen {fence.kind} to {to}: both must be "
                f"TCG fences with a pair set")
        if not old <= new:
            raise MappingError(f"{to} is not stronger than {fence.kind}")
    new_ops = ops[:idx] + (FenceOp(to),) + ops[idx + 1:]
    return _rewrite_thread(program, tid, new_ops, suffix="·strengthen")


# ----------------------------------------------------------------------
# Reordering and dependency removal
# ----------------------------------------------------------------------
def reorder_adjacent(program: Program, tid: int, idx: int) -> Program:
    """Swap two adjacent, independent, different-location plain accesses.

    Correct in the TCG model (no ppo between plain accesses); the
    checker demonstrates it is *not* correct at the Arm level when a
    dependency exists.
    """
    ops = _ops(program, tid)
    if idx + 1 >= len(ops):
        raise MappingError(f"no op after {idx}")
    a, b = ops[idx], ops[idx + 1]
    for op in (a, b):
        if isinstance(op, Rmw) or not isinstance(op, (Load, Store)):
            raise MappingError(f"cannot reorder {op}")
    if a.loc == b.loc:
        raise MappingError("same-location accesses cannot be reordered")
    if isinstance(a, Load) and isinstance(b, Store) \
            and b.value == a.reg:
        raise MappingError("data-dependent pair cannot be reordered")
    new_ops = ops[:idx] + (b, a) + ops[idx + 2:]
    return _rewrite_thread(program, tid, new_ops, suffix="·reorder")


def remove_false_dependency(program: Program, tid: int,
                            idx: int) -> Program:
    """Drop a store's syntactic-but-false register dependency.

    Models TCG's false-dependency elimination (``X = a*0  ->  X = 0``,
    Section 6.1): the stored value is already a constant, only the
    syntactic dependency disappears.  Trivially correct in the TCG model
    because it has no dependency ordering; the same rewrite at the Arm
    level removes a real ordering edge (dob), which the checker exposes.
    """
    ops = _ops(program, tid)
    store = ops[idx]
    if not isinstance(store, Store) or store.dep is None:
        raise MappingError(f"op {idx} carries no false dependency")
    new_ops = ops[:idx] + \
        (Store(store.loc, store.value, mode=store.mode),) + ops[idx + 1:]
    return _rewrite_thread(program, tid, new_ops, suffix="·nodep")


# ----------------------------------------------------------------------
# Batch description of Figure 10 for the report generator
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class EliminationRule:
    name: str
    pattern: str
    result: str
    fence_condition: str


FIGURE_10_RULES: tuple[EliminationRule, ...] = (
    EliminationRule("RAR", "R(X,v) · R(X,v')", "R(X,v)", "—"),
    EliminationRule("RAW", "W(X,v) · R(X,v)", "W(X,v)", "—"),
    EliminationRule("WAW", "W(X,v) · W(X,v')", "W(X,v')", "—"),
    EliminationRule("F-RAR", "R(X,v) · Fo · R(X,v')", "R(X,v) · Fo",
                    "o ∈ {rm, ww}"),
    EliminationRule("F-RAW", "W(X,v) · Fτ · R(X,v)", "W(X,v) · Fτ",
                    "τ ∈ {sc, ww}"),
    EliminationRule("F-WAW", "W(X,v) · Fo · W(X,v')", "Fo · W(X,v')",
                    "o ∈ {rm, ww}"),
)
