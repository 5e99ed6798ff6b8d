"""Axiomatic memory models: x86-TSO, Arm (Arm-Cats), and TCG IR.

Each model is data — a :class:`~.terms.MemoryModel` ``(name, arch,
axioms)`` over relational terms — judged by the one evaluator in
:mod:`.terms`:

* :data:`X86` — the x86-TSO model (GHB axiom, Section 5.2),
* :data:`ARM` — the *corrected* Arm-Cats model (Figure 5 with the green
  amo terms, i.e. ``casal`` is a full barrier),
* :data:`ARM_ORIGINAL` — the pre-fix Arm-Cats model whose weaker amo
  ordering admits the SBAL bug of Section 3.3,
* :data:`TCG` — the paper's proposed TCG IR model (Figure 6),
* :data:`SC` — sequential consistency (Lamport), a strongest-model
  reference in tests: one total order over memory events, fences inert.
"""

from ..events import Arch
from .armcats import ARM, ARM_ORIGINAL
from .tcg import TCG
from .terms import ATOMICITY, SC_PER_LOC, M, MemoryModel, acyclic, co, \
    fr, po, rf, union
from .x86tso import X86

#: Judged at any level; the arch tag is informational.
SC = MemoryModel("sc", Arch.X86, (SC_PER_LOC, ATOMICITY,
                                  acyclic(union(M @ po @ M, rf, co, fr))))

#: Name -> singleton, for CLI/run-spec surfaces that address models by
#: their stable cache identifier.
MODEL_BY_NAME: dict[str, MemoryModel] = {
    m.name: m for m in (X86, ARM, ARM_ORIGINAL, TCG, SC)
}

__all__ = ["MemoryModel", "X86", "ARM", "ARM_ORIGINAL", "TCG", "SC",
           "MODEL_BY_NAME"]
