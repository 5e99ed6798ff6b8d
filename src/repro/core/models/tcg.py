"""The paper's proposed TCG IR concurrency model (Figure 6).

This is the paper's central formal contribution: an axiomatic model for
QEMU's intermediate representation, strong enough to support the
x86→TCG→Arm mapping proofs and weak enough to keep TCG's sequential
optimizations (reordering, false-dependency elimination) sound.

Axioms:

* (sc-per-loc) and (atomicity) — shared.
* (GOrd): ``ghb = (ord ∪ rfe ∪ coe ∪ fre)+`` is irreflexive, where
  ``ord`` collects the per-fence ordering rules plus the SC semantics
  of TCG RMW events (``Rsc``/``Wsc``) and the ``Fsc`` fence.

Notably *absent*: any preserved program order between plain accesses,
and any dependency ordering — which is exactly what licenses TCG's
reordering and false-dependency-elimination passes (Section 5.4).
"""

from __future__ import annotations

from ..events import TCG_FENCE_PAIRS, Arch, Fence
from ..execution import Execution
from ..relations import Rel, union
from .base import MemoryModel


def _access_class(side: set[str]) -> str:
    """The class of one side of a fence's pairs: r, w, or m (both)."""
    return "m" if len(side) > 1 else next(iter(side))


#: The nine directional TCG fences and their (predecessor, successor)
#: access classes — Figure 6's ``ord``, read off the pair table (every
#: directional fence orders a product of classes).  ``Fsc`` has its
#: own SC rule below.
_FENCE_RULES: tuple[tuple[Fence, str, str], ...] = tuple(
    (kind,
     _access_class({first for first, _ in pairs}),
     _access_class({second for _, second in pairs}))
    for kind, pairs in TCG_FENCE_PAIRS.items() if kind is not Fence.FSC
)


class TCGModel(MemoryModel):
    name = "tcg-ir"
    arch = Arch.TCG

    def _class_ident(self, ex: Execution, cls: str) -> Rel:
        if cls == "r":
            return Rel.identity(ex.reads)
        if cls == "w":
            return Rel.identity(ex.writes)
        return Rel.identity(ex.memory_events)

    def ord(self, ex: Execution) -> Rel:
        po = ex.po
        clauses = []
        for fence, pre, post in _FENCE_RULES:
            fid = ex.fences(fence)
            if not fid:
                continue
            clauses.append(
                self._class_ident(ex, pre) @ po @ Rel.identity(fid)
                @ po @ self._class_ident(ex, post)
            )
        # RMW events follow SC semantics (Figure 6's last two lines).
        before = Rel.identity(ex.sc_writes | ex.rmw.domain())
        after = Rel.identity(ex.sc_reads | ex.rmw.codomain())
        clauses.append(po @ before)
        clauses.append(after @ po)
        fsc = Rel.identity(ex.fences(Fence.FSC))
        clauses.append(po @ fsc)
        clauses.append(fsc @ po)
        return union(clauses)

    static = ord

    def communication(self, ex: Execution) -> tuple[Rel, ...]:
        return (ex.rfe, ex.coe, ex.fre)

    def ghb(self, ex: Execution) -> Rel:
        return union((self.ord(ex), *self.communication(ex)))

    def rf_stage_consistent(self, ex: Execution) -> bool:
        """Sound on partial co: ``ord`` is built from po, fences and
        event modes only — co never appears — and the remaining GOrd
        terms ``rfe``/``coe``/``fre`` are monotone in co, so a GOrd (or
        sc-per-loc/atomicity) violation under the forced co cannot be
        repaired by any coherence extension."""
        return self.is_consistent(ex)
