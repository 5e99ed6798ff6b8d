"""The x86-TSO axiomatic model as presented in Section 5.2.

Axioms:

* (sc-per-loc) and (atomicity) — shared, see :mod:`.terms`.
* (GHB): ``(implied ∪ ppo ∪ rfe ∪ fr ∪ co)+`` is irreflexive, where

  - ``ppo ≜ ((W×W) ∪ (R×W) ∪ (R×R)) ∩ po`` — every access pair except
    store→load is preserved,
  - ``implied ≜ po;[At ∪ F] ∪ [At ∪ F];po`` with
    ``At ≜ dom(rmw) ∪ codom(rmw)`` — a LOCK'd RMW and MFENCE order
    everything around them.
"""

from __future__ import annotations

from ..events import Arch, Fence
from .terms import ATOMICITY, SC_PER_LOC, MemoryModel, R, W, co, codom, \
    dom, fences, fr, irreflexive, po, rfe, rmw, union

PPO = union(W * W, R * W, R * R) & po
BARRIER = dom(rmw) | codom(rmw) | fences(Fence.MFENCE)
IMPLIED = union(po @ BARRIER, BARRIER @ po)
#: The global-happens-before relation.
GHB = union(IMPLIED, PPO, rfe, fr, co).plus()

X86 = MemoryModel("x86-tso", Arch.X86,
                  (SC_PER_LOC, ATOMICITY, irreflexive(GHB)))
