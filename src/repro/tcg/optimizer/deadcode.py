"""Dead code elimination: drop pure ops whose results are never used.

Backward liveness per straight-line *segment* — the maximal runs of
non-control ops between labels/branches.  Control can only enter a
segment at its head (labels are control ops), so the straight-line
argument is sound within a segment even when the block has backward
branches, which tier-2 traces do (their loop edges are in-trace ``br``
ops).  Each segment's live-out is seeded conservatively: every guest
global (state flows to the next block) plus every value read *outside*
the segment (a temp may reach any other segment through an arbitrary
branch path).  In-segment liveness — including kill-cascades through
chains of dead ops — stays precise.  Ops with side effects (memory,
barriers, calls) are always kept.

Flag materialization no conditional consumes before the next overwrite
is the main beneficiary — a faithful stand-in for QEMU's lazy flag
evaluation.  A single-segment block (every tier-1 block: straight-line
prefix plus a control tail) gets bit-identical results to the classic
prefix-only formulation.
"""

from __future__ import annotations

from ..ir import ALL_GLOBALS, TCGBlock, Temp

_CONTROL = frozenset({"set_label", "brcond", "br", "exit_tb",
                      "goto_tb"})


def _segments(ops):
    """Yield ``(start, stop)`` index ranges of the maximal control-free
    runs of ``ops``."""
    start = None
    for index, op in enumerate(ops):
        if op.name in _CONTROL:
            if start is not None:
                yield start, index
                start = None
        elif start is None:
            start = index
    if start is not None:
        yield start, len(ops)


def dead_code_elimination(block: TCGBlock) -> int:
    ops = block.ops
    keep = [True] * len(ops)
    reads = [op.inputs() for op in ops]

    for start, stop in _segments(ops):
        # Live-out: every guest global plus everything read outside
        # this segment (reachable again through any label).  A global
        # overwritten later in the same segment without an intervening
        # read is dead — which is exactly how stale flag
        # materialization gets removed.
        live: set[Temp] = set(ALL_GLOBALS)
        for index, ins in enumerate(reads):
            if index < start or index >= stop:
                live.update(ins)
        for index in range(stop - 1, start - 1, -1):
            op = ops[index]
            outputs = op.outputs()
            if op.has_side_effects():
                live.difference_update(outputs)
                live.update(reads[index])
                if op.name == "call":
                    # Helpers may read guest state implicitly (syscall).
                    live.update(ALL_GLOBALS)
                continue
            if live.isdisjoint(outputs):
                keep[index] = False
                continue
            live.difference_update(outputs)
            live.update(reads[index])

    removed = keep.count(False)
    block.ops = [op for op, flag in zip(ops, keep) if flag]
    return removed
