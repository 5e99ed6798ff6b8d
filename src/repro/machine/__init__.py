"""The simulated weak-memory Arm host machine.

Substitutes for the paper's ThunderX2 testbed: multicore execution with
per-core store buffers (operational weak memory), a cache-line
coherence cost tracker (contention), and a cycle cost model in which
full fences dominate — the performance landscape Figures 12-15 are
shaped by.
"""

from .cpu import ArmCore, cond_index
from .memory import CoherenceTracker, Memory
from .scheduler import Machine
from .timing import DEFAULT_COSTS, CostModel
from .weakmem import BufferMode, StoreBuffer

__all__ = [
    "ArmCore", "cond_index",
    "CoherenceTracker", "Memory",
    "Machine",
    "DEFAULT_COSTS", "CostModel",
    "BufferMode", "StoreBuffer",
]
