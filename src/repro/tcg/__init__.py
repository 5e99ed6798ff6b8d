"""QEMU's Tiny Code Generator, reimplemented: IR, frontend, optimizer,
backend, plus Risotto's native CAS path."""

from .backend_arm import ArmBackend, CompiledBlock, lower_barrier
from .frontend_x86 import CasPolicy, FrontendConfig, X86Frontend
from .ir import (
    MO_ALL,
    MO_LD_LD,
    MO_LD_ST,
    MO_ST_LD,
    MO_ST_ST,
    Cond,
    Const,
    Op,
    TCGBlock,
    Temp,
    fence_to_mask,
    mask_to_fence,
)
from .optimizer import OptimizerConfig, OptStats, optimize

__all__ = [
    "ArmBackend", "CompiledBlock", "lower_barrier",
    "CasPolicy", "FrontendConfig", "X86Frontend",
    "MO_ALL", "MO_LD_LD", "MO_LD_ST", "MO_ST_LD", "MO_ST_ST",
    "Cond", "Const", "Op", "TCGBlock", "Temp",
    "fence_to_mask", "mask_to_fence",
    "OptimizerConfig", "OptStats", "optimize",
]
