"""Mapping schemes between x86, TCG IR, and Arm litmus programs.

These are the op-level counterparts of the translation rules the DBT
implements, used by the verifier to check Theorem 1.  This module owns
every :class:`OpMapping`:

* :func:`scheme_x86_to_tcg` — the x86 → TCG mapping a derived
  :class:`~repro.core.most.FenceScheme` induces.  It is the only x86 →
  TCG definition: :data:`qemu_x86_to_tcg` (Figure 2: leading
  ``Frr``/``Fmw``), :data:`risotto_x86_to_tcg` (Figure 7a: trailing
  ``Frm`` after loads, leading ``Fww`` before stores) and
  :data:`nofences_x86_to_tcg` (the incorrect performance oracle) are
  it, applied to the ``qemu``, ``risotto`` and ``no-fences`` schemes.
* :func:`tcg_to_arm` — TCG → Arm with one RMW lowering: QEMU's helper
  call, whose ordering comes from a GCC ``__atomic`` builtin
  (``ldaxr/stlxr`` with GCC 9, ``casal`` with GCC 10 — Section 3.1), or
  Risotto's ``RMW1_AL`` / ``DMBFF; RMW2; DMBFF`` (Figure 7b).  Fences
  lower to the weakest sufficient DMB (:func:`lower_tcg_fence`).
* :func:`scheme_mapping` — the end-to-end ``most-<scheme>-<rmw>``
  mapping of every registered scheme, with its expected verdict.
* :data:`armcats_intended` — the direct x86→Arm mapping the Arm-Cats
  paper implies (Figure 3: ``ldapr``/``stlr``/``casal``), which
  Section 3.3 shows is broken under the original Arm model.

:data:`ALL_MAPPINGS` is the one registry of them all.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

from ..errors import MappingError
from .events import TCG_FENCE_PAIRS, Arch, Fence, Mode, RmwFlavor, \
    weakest_dmb
from .most import NOFENCES_SCHEME, QEMU_SCHEME, RISOTTO_SCHEME, SCHEMES, \
    FenceScheme
from .program import FenceOp, If, Load, Op, Program, Rmw, Store

OpMapper = Callable[[Op], tuple[Op, ...]]


@dataclass(frozen=True)
class OpMapping:
    """A per-op rewriting from one program level to another."""

    name: str
    src_arch: Arch
    tgt_arch: Arch
    map_op: OpMapper

    def apply(self, program: Program) -> Program:
        """Translate a whole program, recursing into conditionals."""
        if program.arch is not self.src_arch:
            raise MappingError(
                f"{self.name}: expected {self.src_arch.value} program, "
                f"got {program.arch.value}"
            )
        threads = tuple(
            self._map_ops(ops) for ops in program.threads
        )
        return program.with_threads(
            threads, arch=self.tgt_arch, suffix=f"→{self.name}"
        )

    def _map_ops(self, ops: tuple[Op, ...]) -> tuple[Op, ...]:
        out: list[Op] = []
        for op in ops:
            if isinstance(op, If):
                out.append(If(
                    reg=op.reg,
                    value=op.value,
                    then_ops=self._map_ops(tuple(op.then_ops)),
                    else_ops=self._map_ops(tuple(op.else_ops)),
                ))
            else:
                out.extend(self.map_op(op))
        return tuple(out)

    def then(self, other: "OpMapping") -> "OpMapping":
        """Compose two mappings (this one first)."""
        if self.tgt_arch is not other.src_arch:
            raise MappingError(
                f"cannot compose {self.name} ({self.tgt_arch.value}) with "
                f"{other.name} ({other.src_arch.value})"
            )

        def composed(op: Op) -> tuple[Op, ...]:
            result: list[Op] = []
            for mid in self.map_op(op):
                result.extend(other.map_op(mid))
            return tuple(result)

        return OpMapping(
            name=f"{self.name}+{other.name}",
            src_arch=self.src_arch,
            tgt_arch=other.tgt_arch,
            map_op=composed,
        )


# ----------------------------------------------------------------------
# TCG fence lowering to Arm (shared by QEMU's and Risotto's backends)
# ----------------------------------------------------------------------
def lower_tcg_fence(kind: Fence) -> tuple[Op, ...]:
    """Lower one TCG fence to the weakest sufficient Arm fence.

    ``Frr``/``Frw``/``Frm`` become ``DMBLD``; ``Fww`` becomes ``DMBST``;
    everything ordering a write-before-read pair needs ``DMBFF``.
    ``Facq``/``Frel`` are free on Arm (Figure 7b).
    """
    if kind in (Fence.FACQ, Fence.FREL):
        return ()
    pairs = TCG_FENCE_PAIRS.get(kind)
    if pairs is None:
        raise MappingError(f"not a TCG fence: {kind}")
    return (FenceOp(weakest_dmb(pairs)),)


# ----------------------------------------------------------------------
# x86 → TCG IR: the one definition, induced by a derived scheme
# ----------------------------------------------------------------------
def scheme_x86_to_tcg(scheme: FenceScheme) -> OpMapping:
    """The op-level x86 -> TCG mapping a scheme induces — the exact
    counterpart of what the frontend emits around loads and stores."""

    def map_op(op: Op) -> tuple[Op, ...]:
        if isinstance(op, Load):
            out: list[Op] = []
            if scheme.ld_pre is not None:
                out.append(FenceOp(scheme.ld_pre))
            out.append(op)
            if scheme.ld_post is not None:
                out.append(FenceOp(scheme.ld_post))
            return tuple(out)
        if isinstance(op, Store):
            out = []
            if scheme.st_pre is not None:
                out.append(FenceOp(scheme.st_pre))
            out.append(op)
            if scheme.st_post is not None:
                out.append(FenceOp(scheme.st_post))
            return tuple(out)
        if isinstance(op, Rmw):
            # The TCG-level event is an SC RMW under every scheme; how
            # it orders on Arm is the RMW lowering's business.
            return (Rmw(op.loc, op.expect, op.new, RmwFlavor.TCG,
                        out=op.out),)
        if isinstance(op, FenceOp):
            if op.kind is Fence.MFENCE:
                if scheme.mfence is None:
                    return ()
                return (FenceOp(scheme.mfence),)
            raise MappingError(f"unexpected x86 fence {op.kind}")
        raise MappingError(f"cannot map x86 op {op!r}")

    return OpMapping(
        name=f"most-{scheme.name}-x86-to-tcg",
        src_arch=Arch.X86, tgt_arch=Arch.TCG, map_op=map_op)


#: The paper's three x86 -> TCG schemes under their historical names.
qemu_x86_to_tcg = replace(scheme_x86_to_tcg(QEMU_SCHEME),
                          name="qemu-x86-to-tcg")
risotto_x86_to_tcg = replace(scheme_x86_to_tcg(RISOTTO_SCHEME),
                             name="risotto-x86-to-tcg")
nofences_x86_to_tcg = replace(scheme_x86_to_tcg(NOFENCES_SCHEME),
                              name="nofences-x86-to-tcg")


# ----------------------------------------------------------------------
# TCG IR → Arm
# ----------------------------------------------------------------------
def _tcg_to_arm_op(op: Op, rmw_lowering: str) -> tuple[Op, ...]:
    if isinstance(op, Load):
        return (op,)
    if isinstance(op, Store):
        return (op,)
    if isinstance(op, FenceOp):
        return lower_tcg_fence(op.kind)
    if isinstance(op, Rmw):
        if op.flavor is not RmwFlavor.TCG:
            raise MappingError(f"TCG program holds non-TCG RMW {op!r}")
        if rmw_lowering == "rmw1al":
            return (Rmw(op.loc, op.expect, op.new, RmwFlavor.AMO,
                        acq=True, rel=True, out=op.out),)
        if rmw_lowering == "rmw2ff":
            return (
                FenceOp(Fence.DMBFF),
                Rmw(op.loc, op.expect, op.new, RmwFlavor.LXSX, out=op.out),
                FenceOp(Fence.DMBFF),
            )
        if rmw_lowering == "helper-gcc9":
            # QEMU helper via GCC 9 __atomic builtin: ldaxr/stlxr pair,
            # no surrounding full fences.
            return (Rmw(op.loc, op.expect, op.new, RmwFlavor.LXSX,
                        acq=True, rel=True, out=op.out),)
        if rmw_lowering == "helper-gcc10":
            # QEMU helper via GCC 10 __atomic builtin: casal.
            return (Rmw(op.loc, op.expect, op.new, RmwFlavor.AMO,
                        acq=True, rel=True, out=op.out),)
        raise MappingError(f"unknown RMW lowering {rmw_lowering!r}")
    raise MappingError(f"cannot map TCG op {op!r}")


def tcg_to_arm(rmw_lowering: str, name: str) -> OpMapping:
    return OpMapping(
        name, Arch.TCG, Arch.ARM,
        lambda op: _tcg_to_arm_op(op, rmw_lowering),
    )


#: QEMU's backend, by GCC version used to build the helper (§3.1).
qemu_tcg_to_arm_gcc9 = tcg_to_arm("helper-gcc9", "qemu-tcg-to-arm-gcc9")
qemu_tcg_to_arm_gcc10 = tcg_to_arm("helper-gcc10", "qemu-tcg-to-arm-gcc10")

#: Risotto's backend, with its two verified RMW lowerings (Figure 7b).
risotto_tcg_to_arm_rmw1 = tcg_to_arm("rmw1al", "risotto-tcg-to-arm-rmw1al")
risotto_tcg_to_arm_rmw2 = tcg_to_arm("rmw2ff", "risotto-tcg-to-arm-rmw2ff")


# ----------------------------------------------------------------------
# End-to-end compositions and the Arm-Cats direct mapping
# ----------------------------------------------------------------------
qemu_x86_to_arm_gcc9 = qemu_x86_to_tcg.then(qemu_tcg_to_arm_gcc9)
qemu_x86_to_arm_gcc10 = qemu_x86_to_tcg.then(qemu_tcg_to_arm_gcc10)
risotto_x86_to_arm_rmw1 = risotto_x86_to_tcg.then(risotto_tcg_to_arm_rmw1)
risotto_x86_to_arm_rmw2 = risotto_x86_to_tcg.then(risotto_tcg_to_arm_rmw2)
nofences_x86_to_arm = nofences_x86_to_tcg.then(risotto_tcg_to_arm_rmw1)


def _armcats_intended_op(op: Op) -> tuple[Op, ...]:
    if isinstance(op, Load):
        return (Load(op.reg, op.loc, mode=Mode.ACQ_PC),)   # LDRQ (ldapr)
    if isinstance(op, Store):
        return (Store(op.loc, op.value, mode=Mode.REL),)   # STRL (stlr)
    if isinstance(op, Rmw):
        return (Rmw(op.loc, op.expect, op.new, RmwFlavor.AMO,
                    acq=True, rel=True, out=op.out),)
    if isinstance(op, FenceOp):
        if op.kind is Fence.MFENCE:
            return (FenceOp(Fence.DMBFF),)
        raise MappingError(f"unexpected x86 fence {op.kind}")
    raise MappingError(f"cannot map x86 op {op!r}")


armcats_intended = OpMapping(
    "armcats-intended", Arch.X86, Arch.ARM, _armcats_intended_op)


# ----------------------------------------------------------------------
# The derived scheme family as verifiable mappings
# ----------------------------------------------------------------------
#: RMW lowerings a scheme composes with (Figure 7b's verified pair).
SCHEME_RMW_LOWERINGS = ("rmw1al", "rmw2ff")


def scheme_mapping(scheme: FenceScheme,
                   rmw_lowering: str = "rmw1al") -> OpMapping:
    """The end-to-end x86 -> Arm mapping of one (scheme, RMW lowering)
    pair, named ``most-<scheme>-<rmw>`` for registries and CLIs."""
    composed = scheme_x86_to_tcg(scheme).then(
        tcg_to_arm(rmw_lowering, f"tcg-to-arm-{rmw_lowering}"))
    return OpMapping(
        name=f"most-{scheme.name}-{rmw_lowering}",
        src_arch=Arch.X86, tgt_arch=Arch.ARM,
        map_op=composed.map_op)


def expected_verdict(scheme: FenceScheme, rmw_lowering: str) -> bool:
    """Whether Theorem 1 should hold over the corpus for this pair.

    A sound source table is necessary but not sufficient: the RMW1
    (``casal``) lowering relies on loads carrying a *trailing* fence to
    order the read of a failed CAS (Section 3.2 — the MPQ bug QEMU
    exhibits even with the GCC-10 helper).  Schemes that fence loads
    with a leading fence only are therefore expected to fail with
    ``rmw1al`` exactly as QEMU does, and to pass with ``rmw2ff``
    (whose surrounding DMBFFs restore the order).
    """
    if not scheme.expect_sound:
        return False
    if rmw_lowering == "rmw1al" and scheme.ld_post is None:
        return False
    return True


#: Every registered (scheme × RMW lowering) mapping, by name.
SCHEME_MAPPINGS: dict[str, OpMapping] = {
    f"most-{scheme.name}-{rmw}": scheme_mapping(scheme, rmw)
    for scheme in SCHEMES.values() for rmw in SCHEME_RMW_LOWERINGS
}
#: Mapping name -> whether the Theorem-1 corpus check should pass.
SCHEME_EXPECTED: dict[str, bool] = {
    f"most-{scheme.name}-{rmw}": expected_verdict(scheme, rmw)
    for scheme in SCHEMES.values() for rmw in SCHEME_RMW_LOWERINGS
}

#: Every mapping, by name: the paper's hand-named mappings, then the
#: derived scheme family — what the verifier CLI and the fuzzer resolve.
ALL_MAPPINGS: dict[str, OpMapping] = {
    m.name: m for m in (
        qemu_x86_to_tcg,
        risotto_x86_to_tcg,
        nofences_x86_to_tcg,
        qemu_tcg_to_arm_gcc9,
        qemu_tcg_to_arm_gcc10,
        risotto_tcg_to_arm_rmw1,
        risotto_tcg_to_arm_rmw2,
        qemu_x86_to_arm_gcc9,
        qemu_x86_to_arm_gcc10,
        risotto_x86_to_arm_rmw1,
        risotto_x86_to_arm_rmw2,
        nofences_x86_to_arm,
        armcats_intended,
    )
}
ALL_MAPPINGS.update(SCHEME_MAPPINGS)
