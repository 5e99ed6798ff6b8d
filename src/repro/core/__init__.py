"""The paper's formal contribution, executable.

This package implements the axiomatic concurrency machinery of
Sections 5.1–5.4: events, relational algebra, candidate-execution
enumeration, the x86-TSO / Arm-Cats / TCG IR memory models, the mapping
schemes of Figures 2/3/7, the elimination and fence-merging
transformations of Figure 10, and a model-checking verifier for
Theorem 1 that stands in for the paper's Agda proofs.
"""

from .events import Arch, Event, Fence, Mode, RmwFlavor
from .execution import Execution
from .program import FenceOp, If, Load, Program, Rmw, Store
from .relations import Rel
from .enumerate import behaviors, consistent_executions, \
    enumerate_consistent, enumerate_executions
from .dpor import reduced_behaviors
from .models import ARM, ARM_ORIGINAL, MODEL_BY_NAME, SC, TCG, X86
from . import corpus_large, litmus_library, mappings, most, \
    transforms, verifier
from .mappings import scheme_mapping
from .most import MOST, FenceScheme, SCHEMES, derive_scheme, \
    known_origins

__all__ = [
    "Arch", "Event", "Fence", "Mode", "RmwFlavor",
    "Execution", "Rel",
    "FenceOp", "If", "Load", "Program", "Rmw", "Store",
    "behaviors", "consistent_executions", "enumerate_consistent",
    "enumerate_executions", "reduced_behaviors",
    "ARM", "ARM_ORIGINAL", "MODEL_BY_NAME", "SC", "TCG", "X86",
    "corpus_large", "litmus_library", "mappings", "most",
    "transforms", "verifier",
    "MOST", "FenceScheme", "SCHEMES", "derive_scheme",
    "known_origins", "scheme_mapping",
]
