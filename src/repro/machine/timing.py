"""Cycle cost model for the simulated Arm host.

The absolute numbers are synthetic but their *ratios* encode the
phenomena the paper's evaluation rests on:

* ``DMBFF`` is much more expensive than ``DMBLD``/``DMBST`` (the whole
  point of Risotto's lightweight-fence mappings, Section 6.1; cf. Liu
  et al., "No Barrier in the Road" [51]),
* translated code pays block-entry overhead and software-emulated FP
  (Section 7.3's floating-point discussion),
* helper calls add jump/marshal cost on top of the atomic itself, which
  is why Risotto's direct ``casal`` wins only without contention
  (Figure 15),
* cross-core cache-line transfers dominate contended atomics.

Everything is a dataclass field so benchmarks can ablate individual
costs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class CostModel:
    """Per-operation cycle costs."""

    # Plain instruction classes
    alu: int = 1
    mov: int = 1
    load: int = 4
    store: int = 2
    branch: int = 1
    branch_taken: int = 2
    call: int = 3

    # Fences (ratios matter: FF >> LD > ST); calibrated so the
    # Figure 12 sweep lands near the paper's fence-share (48% avg) and
    # tcg-ver gain (6.7% avg, 19.7% max) numbers.
    dmb_ff: int = 28
    dmb_ld: int = 16
    dmb_st: int = 14

    # Ordered accesses pay a small premium over plain ones
    acquire_extra: int = 3
    release_extra: int = 4

    # Atomics
    exclusive_op: int = 10        # each of LDXR/STXR
    cas_op: int = 18              # casal and friends, uncontended
    atomic_add_op: int = 18

    # Floating point
    fp_native: int = 4
    fp_emulated: int = 90         # QEMU's softfloat path

    # DBT runtime
    tb_entry: int = 10            # block-cache lookup / indirect jump
    tb_chain: int = 1             # chained direct jump between blocks
    translate_per_insn: int = 0   # compile time excluded from run time
    helper_call: int = 26         # BLR out to C helper and back
    syscall: int = 160

    # Dynamic host linker
    # Marshaling is a real cost: save/translate/restore registers at
    # the guest->host boundary.  Calibrated so short libm calls stay
    # well below native speed (Figure 14) while long digest calls
    # amortize it to ~nothing (Figure 13).
    marshal_per_arg: int = 45
    native_call: int = 6

    def scaled(self, **overrides: int) -> "CostModel":
        """A copy with some fields replaced (for ablation benches)."""
        return replace(self, **overrides)


#: Default host cost model.
DEFAULT_COSTS = CostModel()
