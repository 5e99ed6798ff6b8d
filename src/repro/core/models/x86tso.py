"""The x86-TSO axiomatic model as presented in Section 5.2.

Axioms:

* (sc-per-loc) and (atomicity) — shared, see :mod:`repro.core.axioms`.
* (GHB): ``(implied ∪ ppo ∪ rfe ∪ fr ∪ co)+`` is irreflexive, where

  - ``ppo ≜ ((W×W) ∪ (R×W) ∪ (R×R)) ∩ po`` — every access pair except
    store→load is preserved,
  - ``implied ≜ po;[At ∪ F] ∪ [At ∪ F];po`` with
    ``At ≜ dom(rmw) ∪ codom(rmw)`` — a LOCK'd RMW and MFENCE order
    everything around them.
"""

from __future__ import annotations

from ..events import Arch, Fence
from ..execution import Execution
from ..relations import Rel, union
from .base import MemoryModel


class X86Model(MemoryModel):
    name = "x86-tso"
    arch = Arch.X86

    def static(self, ex: Execution) -> Rel:
        """``implied ∪ ppo``."""
        reads, writes = ex.reads, ex.writes
        po = ex.po
        ppo = (
            Rel.cross(writes, writes)
            | Rel.cross(reads, writes)
            | Rel.cross(reads, reads)
        ) & po
        at = ex.rmw.domain() | ex.rmw.codomain()
        barrier = Rel.identity(at | ex.fences(Fence.MFENCE))
        implied = (po @ barrier) | (barrier @ po)
        return implied | ppo

    def communication(self, ex: Execution) -> tuple[Rel, ...]:
        return (ex.rfe, ex.fr, ex.co)

    def ghb(self, ex: Execution) -> Rel:
        """The global-happens-before relation (un-closed)."""
        return union((self.static(ex), *self.communication(ex)))

    def rf_stage_consistent(self, ex: Execution) -> bool:
        """Sound on partial co: every GHB term (implied, ppo, rfe, fr,
        co) is a union/composition that only *grows* when co grows, as
        do sc-per-loc's ``po_loc ∪ rf ∪ co ∪ fr`` and atomicity's
        ``fre;coe``.  A GHB cycle visible under the forced co therefore
        survives in every coherence extension — the rf choice is dead
        before the co product is expanded (this is where SB/IRIW-style
        weak rf combinations die under TSO)."""
        return self.is_consistent(ex)
