"""TCG IR optimizer: the passes Section 5.4 / 6.1 prove correct.

* one forward walk (:mod:`.forward`) with two rule sets:

  - constant propagation and folding (including false-dependency
    elimination: ``x*0 -> 0`` is legal because the TCG model has no
    dependency ordering),
  - memory-access elimination (Figure 10's RAR/RAW/WAW rules, guarded
    by the fence side conditions *as validated by the model checker* —
    in particular no RAW forwarding across ``Fmr``-class fences, the
    FMR bug),

* fence merging (``Frm · Fww -> Fmm``-style, placed at the earliest
  fence, Section 6.1),
* dead code elimination.

The default pipeline is fold → fence merge → DCE.  Memory-access
elimination runs only under ``memopt=True`` (and as
:func:`memory_access_elimination`): on the committed workloads it
removes no access in any figure and 24 in 606 ``xlat_cold`` blocks,
for about 40% of the optimizer's time.

Passes run at basic-block scope, mirroring QEMU: no information crosses
translation-block boundaries (the ArMOR discussion in Section 8).
"""

from __future__ import annotations

from dataclasses import dataclass

from ...obs.metrics import Counters
from ...obs.trace import get_tracer
from ..ir import TCGBlock
from .deadcode import dead_code_elimination
from .fence_merge import merge_fences_pass
from .forward import forward_walk
from .inline_helpers import inline_helpers_pass


@dataclass(frozen=True)
class OptimizerConfig:
    constprop: bool = True
    memopt: bool = False
    fence_merge: bool = True
    deadcode: bool = True


@dataclass
class OptStats(Counters):
    """What each pass removed/changed (surfaced in bench reports)."""

    folded: int = 0
    mem_eliminated: int = 0
    fences_merged: int = 0
    dead_removed: int = 0
    #: mask-0 ``mb`` ops dropped by fence merging — barriers that never
    #: existed, reported separately so they cannot inflate
    #: ``fences_merged`` (and the ablation deltas built on it).
    empty_fences_dropped: int = 0
    #: helper calls rewritten to first-class IR ops by the tier-2
    #: inlining pass (RMW + FP; see optimizer.inline_helpers).
    helpers_inlined: int = 0


def optimize(block: TCGBlock,
             config: OptimizerConfig | None = None) -> OptStats:
    """Run the enabled passes in QEMU's order; mutates the block."""
    config = config or OptimizerConfig()
    stats = OptStats()
    tracer = get_tracer()
    if config.constprop or config.memopt:
        with tracer.span("opt.forward", cat="opt", pc=block.guest_pc):
            stats.folded, stats.mem_eliminated = forward_walk(
                block, fold=config.constprop, eliminate=config.memopt)
    if config.fence_merge:
        with tracer.span("opt.fence_merge", cat="opt",
                         pc=block.guest_pc):
            stats.fences_merged, stats.empty_fences_dropped = \
                merge_fences_pass(block)
    if config.deadcode:
        with tracer.span("opt.deadcode", cat="opt",
                         pc=block.guest_pc):
            stats.dead_removed = dead_code_elimination(block)
    return stats


def constant_propagation(block: TCGBlock) -> int:
    """Fold and propagate alone; returns the number of ops folded."""
    return forward_walk(block, fold=True, eliminate=False)[0]


def memory_access_elimination(block: TCGBlock) -> int:
    """RAR/RAW/WAW alone; returns the number of accesses removed."""
    return forward_walk(block, fold=False, eliminate=True)[1]


__all__ = [
    "OptimizerConfig",
    "OptStats",
    "optimize",
    "constant_propagation",
    "dead_code_elimination",
    "memory_access_elimination",
    "merge_fences_pass",
    "inline_helpers_pass",
]
