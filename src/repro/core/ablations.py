"""Named minimality ablations (Section 5.4 / Figures 8-9).

Each entry weakens one fence class out of Risotto's verified mappings;
running it over the litmus corpus shows which tests break — the
executable version of "every placed fence is necessary".

The registry is keyed by name so the parallel evaluation harness can
ship an ablation across a process boundary as a plain string and
rebuild the (unpicklable) mapping closure inside the worker.
"""

from __future__ import annotations

from typing import Callable

from . import litmus_library as L
from . import mappings as M
from .events import Fence
from .mappings import OpMapping
from .models import ARM, TCG, X86
from .models import MemoryModel
from .program import FenceOp
from .verifier import AblationResult, ablate, drop_fences, drop_rmw_fence
from ..errors import ModelError


def _drop_frm() -> OpMapping:
    return drop_fences(M.risotto_x86_to_tcg, frozenset({Fence.FRM}),
                       "frm")


def _drop_fww() -> OpMapping:
    return drop_fences(M.risotto_x86_to_tcg, frozenset({Fence.FWW}),
                       "fww")


def _drop_rmw2_leading() -> OpMapping:
    return M.risotto_x86_to_tcg.then(
        drop_rmw_fence(M.risotto_tcg_to_arm_rmw2, leading=True,
                       suffix="lead"))


def _drop_rmw2_trailing() -> OpMapping:
    return M.risotto_x86_to_tcg.then(
        drop_rmw_fence(M.risotto_tcg_to_arm_rmw2, leading=False,
                       suffix="trail"))


def _miscompiled_frm() -> OpMapping:
    """A deliberately wrong backend: read fences lowered to DMBST."""
    base = M.risotto_x86_to_arm_rmw1

    def weakened(op):
        out = []
        for mapped in base.map_op(op):
            if isinstance(mapped, FenceOp) and \
                    mapped.kind is Fence.DMBLD:
                out.append(FenceOp(Fence.DMBST))
            else:
                out.append(mapped)
        return tuple(out)

    return OpMapping("risotto-frm-as-dmbst", base.src_arch,
                     base.tgt_arch, weakened)


#: label -> (mapping builder, target model the mapping lands in).
ABLATION_REGISTRY: dict[str, tuple[Callable[[], OpMapping],
                                   MemoryModel]] = {
    "drop trailing Frm after loads": (_drop_frm, TCG),
    "drop leading Fww before stores": (_drop_fww, TCG),
    "drop leading DMBFF around RMW2": (_drop_rmw2_leading, ARM),
    "drop trailing DMBFF around RMW2": (_drop_rmw2_trailing, ARM),
    "lower Frm to DMBST instead of DMBLD": (_miscompiled_frm, ARM),
}


def run_named_ablation(label: str) -> AblationResult:
    """Build and run one registered ablation over the x86 corpus."""
    try:
        make_mapping, tgt_model = ABLATION_REGISTRY[label]
    except KeyError:
        raise ModelError(
            f"unknown ablation {label!r}; expected one of "
            f"{sorted(ABLATION_REGISTRY)}") from None
    return ablate(L.X86_CORPUS, make_mapping(), X86, tgt_model, label)
