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
from .terms import ATOMICITY, RSC, SC_PER_LOC, WSC, M, MemoryModel, R, \
    W, codom, coe, dom, fences, fre, irreflexive, po, rfe, rmw, union


def _side(accesses: set[str]):
    """The events on one side of a fence's pairs: R, W, or M (both)."""
    return M if len(accesses) > 1 else R if accesses == {"r"} else W


FSC = fences(Fence.FSC)
#: Figure 6's ``ord``: one rule per directional fence, read off the pair
#: table (every directional fence orders a product of classes), then
#: the SC semantics of RMW events and ``Fsc`` (its last two lines).
ORD = union(
    *(_side({a for a, _ in pairs}) @ po @ fences(kind) @ po
      @ _side({b for _, b in pairs})
      for kind, pairs in TCG_FENCE_PAIRS.items() if kind is not Fence.FSC),
    po @ (WSC | dom(rmw)),
    (RSC | codom(rmw)) @ po,
    po @ FSC,
    FSC @ po,
)
GHB = union(ORD, rfe, coe, fre).plus()

TCG = MemoryModel("tcg-ir", Arch.TCG,
                  (SC_PER_LOC, ATOMICITY, irreflexive(GHB)))
