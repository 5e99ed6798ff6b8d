"""Memory-model interface and the SC reference model."""

from __future__ import annotations

import hashlib
import inspect

from ..axioms import atomicity, sc_per_loc
from ..events import Arch
from ..execution import Execution
from ..relations import Rel, union

#: Cached per-class source digests for :meth:`MemoryModel.fingerprint`.
_CLASS_DIGESTS: dict[type, str] = {}


class MemoryModel:
    """A consistency predicate over candidate executions:
    ``common_axioms ∧ acyclic(static ∪ communication)``, with
    :meth:`static` computed once per trace combo (memoized under the
    model instance)."""

    #: Stable identifier used as a cache key.
    name: str
    #: The program level this model judges.
    arch: Arch
    #: Whether the staged enumerator may use this model's
    #: :meth:`rf_stage_consistent` as an early filter.  True requires
    #: every axiom to be *monotone* in both rf and co (and hence in
    #: fr = rf⁻¹;co): adding rf or co edges can only add edges to the
    #: checked relations, so a cycle found under a partial assignment
    #: persists under every extension.  The DPOR search leans on the rf
    #: half too — it runs the precheck on *partial* rf assignments to
    #: cut whole subtrees.  Set to False in a subclass whose axioms
    #: inspect rf or co non-monotonically (e.g. count co-maximal
    #: writes, or require a read to have *no* external source).
    supports_staged: bool = True

    def static(self, ex: Execution) -> Rel:
        raise NotImplementedError  # the rf/co-free part of the axiom

    def communication(self, ex: Execution) -> tuple[Rel, ...]:
        raise NotImplementedError  # the rf/co terms beside it

    def is_consistent(self, ex: Execution) -> bool:
        """True when ``ex`` satisfies every axiom of the model."""
        if not self.common_axioms(ex):
            return False
        static = ex.invariant(self, lambda: self.static(ex))
        return union((static, *self.communication(ex))).is_acyclic()

    def rf_stage_consistent(self, ex: Execution) -> bool:
        """Precheck for the staged/DPOR enumerators, before co (and
        possibly before the full rf) is enumerated.

        ``ex.rf`` may cover only a *prefix* of the reads, and ``ex.co``
        holds only the *forced* coherence edges implied by the choices
        so far (init-first, same-thread write order, observed-write
        obligations) — a sound subset of every compatible completion.
        With monotone axioms, rejecting here rejects every extension,
        so an inconsistent prefix never reaches the co product.

        This is a monotone *precheck*, never exact: a passing partial
        (or even complete-rf) execution still needs the full
        :meth:`is_consistent` verdict once a total co is materialized.
        """
        return self.is_consistent(ex)

    def common_axioms(self, ex: Execution) -> bool:
        """sc-per-loc + atomicity, shared by all models in the paper."""
        return sc_per_loc(ex) and atomicity(ex)

    def fingerprint(self) -> str:
        """Content identity for behaviour caching.

        Two models share a fingerprint only when they are instances of
        the same class source with the same configuration — unlike
        ``name``, which an ablated or variant model may reuse.  The
        digest covers the class identity, its source text (so editing a
        model invalidates cached behaviours, on disk included), and the
        instance attributes (e.g. ``ArmModel.corrected``).
        """
        cls = type(self)
        digest = _CLASS_DIGESTS.get(cls)
        if digest is None:
            try:
                source = inspect.getsource(cls)
            except (OSError, TypeError):
                source = ""
            digest = hashlib.sha256(
                f"{cls.__module__}.{cls.__qualname__}\n{source}"
                .encode()).hexdigest()
            _CLASS_DIGESTS[cls] = digest
        config = "|".join(
            f"{key}={vars(self)[key]!r}" for key in sorted(vars(self)))
        return hashlib.sha256(
            f"{digest}|{self.name}|{config}".encode()).hexdigest()

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name}>"


class SCModel(MemoryModel):
    """Sequential consistency (Lamport): a single total order.

    Used as a reference point in tests: every SC-consistent execution
    must be consistent under x86-TSO, Arm and TCG (they are all weaker),
    and interleaving interpreters must only produce SC behaviours.

    Axiom: ``(po ∪ rf ∪ co ∪ fr)`` restricted to memory events is
    acyclic (fences are inert under SC).
    """

    name = "sc"
    arch = Arch.X86  # judged at any level; arch tag is informational

    def static(self, ex: Execution) -> Rel:
        mem = ex.memory_events
        return ex.po.restrict(mem, mem)

    def communication(self, ex: Execution) -> tuple[Rel, ...]:
        return (ex.rf, ex.co, ex.fr)
