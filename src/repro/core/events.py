"""Events of axiomatic executions.

An execution of a concurrent program is a graph whose nodes are *events*
(Section 5.1 of the paper): reads (R), writes (W) and fences (F),
possibly carrying ordering annotations (acquire ``A``, acquirePC ``Q``,
release ``L``, and the SC annotation carried by TCG RMW events).

The same event vocabulary serves the three languages involved in the
translation pipeline — x86, TCG IR, and Arm — so mapped programs can be
compared event-for-event by the verifier.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class Arch(enum.Enum):
    """The language a litmus program (and its events) belongs to."""

    X86 = "x86"
    TCG = "tcg"
    ARM = "arm"


class Mode(enum.Enum):
    """Ordering annotation on a memory access event.

    * ``PLAIN`` — ordinary access.
    * ``ACQ`` — Arm acquire (``A``), e.g. the load of ``ldaxr``/``casal``.
    * ``ACQ_PC`` — Arm acquirePC (``Q``), e.g. ``ldapr``.
    * ``REL`` — Arm release (``L``), e.g. ``stlr``/the store of ``casal``.
    * ``SC`` — the SC-annotated events of TCG IR RMW accesses
      (``Rsc``/``Wsc`` in Figure 6).
    """

    PLAIN = "plain"
    ACQ = "acq"
    ACQ_PC = "acqpc"
    REL = "rel"
    SC = "sc"


class Fence(enum.Enum):
    """Fence instruction kinds across the three languages (Figure 1)."""

    # x86
    MFENCE = "MFENCE"
    # TCG IR (Frr orders read-read, Fwm orders write-any, etc.)
    FRR = "Frr"
    FRW = "Frw"
    FRM = "Frm"
    FWW = "Fww"
    FWR = "Fwr"
    FWM = "Fwm"
    FMR = "Fmr"
    FMW = "Fmw"
    FMM = "Fmm"
    FACQ = "Facq"
    FREL = "Frel"
    FSC = "Fsc"
    # Arm
    DMBFF = "DMBFF"
    DMBLD = "DMBLD"
    DMBST = "DMBST"


def _orders(before: str, after: str) -> frozenset[tuple[str, str]]:
    """Every ordered access pair (earlier, later) with the earlier
    access in ``before`` and the later in ``after`` ("r" reads, "w"
    writes)."""
    return frozenset((a, b) for a in before for b in after)


#: Every ordered access pair, row-major over (r, w) × (r, w) — the order
#: QEMU's ``TCG_MO_*`` bits follow (LD_LD, LD_ST, ST_LD, ST_ST).
ACCESS_PAIRS: tuple[tuple[str, str], ...] = tuple(
    (a, b) for a in "rw" for b in "rw")

#: What each TCG fence orders (Figure 6's ``ord``): the one declaration
#: of fence strength.  The IR's ``mb`` masks, the Arm lowering, the
#: scheme menus' costs, fence merging and the optimizer's elimination
#: side conditions are all derived from it.  Key order is load-bearing:
#: the fuzzer draws fence kinds with ``rng.choice`` over it.
TCG_FENCE_PAIRS: dict[Fence, frozenset[tuple[str, str]]] = {
    Fence.FRR: _orders("r", "r"),
    Fence.FRW: _orders("r", "w"),
    Fence.FRM: _orders("r", "rw"),
    Fence.FWR: _orders("w", "r"),
    Fence.FWW: _orders("w", "w"),
    Fence.FWM: _orders("w", "rw"),
    Fence.FMR: _orders("rw", "r"),
    Fence.FMW: _orders("rw", "w"),
    Fence.FMM: _orders("rw", "rw"),
    Fence.FSC: _orders("rw", "rw"),
}

#: What each Arm barrier orders, in the order :func:`weakest_dmb` tries
#: them: ``dmb ld`` keeps earlier reads before everything, ``dmb st``
#: keeps writes ordered, ``dmb ff`` orders all pairs.
DMB_PAIRS: dict[Fence, frozenset[tuple[str, str]]] = {
    Fence.DMBLD: _orders("r", "rw"),
    Fence.DMBST: _orders("w", "w"),
    Fence.DMBFF: _orders("rw", "rw"),
}


def weakest_dmb(pairs) -> Fence:
    """The weakest Arm barrier ordering every pair in ``pairs`` — the
    Figure 7b fence rows, shared by the op-level mapping and the
    backend's ``mb`` lowering."""
    return next(dmb for dmb, ordered in DMB_PAIRS.items()
                if pairs <= ordered)


class RmwFlavor(enum.Enum):
    """How an RMW pair was produced, which decides its model treatment.

    * ``X86`` — a ``LOCK``-prefixed x86 RMW; acts as a full fence.
    * ``TCG`` — a TCG IR RMW; generates ``Rsc``/``Wsc`` events.
    * ``AMO`` — an Arm single-instruction RMW (``RMW1``, e.g. ``casal``).
    * ``LXSX`` — an Arm exclusive-pair RMW (``RMW2``).
    """

    X86 = "x86"
    TCG = "tcg"
    AMO = "amo"
    LXSX = "lxsx"


@dataclass
class Event:
    """One node of an execution graph.

    ``eid`` is unique within an execution.  ``tid``/``idx`` give the
    issuing thread and the event's program-order position in it; the
    initialization writes use ``tid == INIT_TID``.
    """

    eid: int
    tid: int
    idx: int
    kind: str  # "R", "W" or "F"
    loc: str | None = None
    val: int | None = None
    fence: Fence | None = None
    mode: Mode = Mode.PLAIN
    rmw_flavor: RmwFlavor | None = None
    #: eid of the paired event of a *successful* RMW (R points to W and
    #: vice versa); None for plain accesses and failed RMWs.
    rmw_partner: int | None = None
    is_init: bool = False
    #: Free-form origin tag (source statement) for diagnostics.
    tag: str = field(default="", compare=False)

    # ------------------------------------------------------------------
    def is_read(self) -> bool:
        return self.kind == "R"

    def is_write(self) -> bool:
        return self.kind == "W"

    def is_fence(self) -> bool:
        return self.kind == "F"

    def is_memory(self) -> bool:
        return self.kind in ("R", "W")

    def __hash__(self) -> int:
        return hash(self.eid)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.is_fence():
            core = self.fence.value if self.fence else "F?"
        else:
            ann = {
                Mode.PLAIN: "",
                Mode.ACQ: "^A",
                Mode.ACQ_PC: "^Q",
                Mode.REL: "^L",
                Mode.SC: "^sc",
            }[self.mode]
            core = f"{self.kind}{ann}({self.loc},{self.val})"
        rmw = f"[{self.rmw_flavor.value}]" if self.rmw_flavor else ""
        return f"e{self.eid}:T{self.tid}:{core}{rmw}"


#: Thread id used for initialization writes.
INIT_TID = -1
