"""ArMOR-style MOSTs: declarative ordering tables and derived schemes.

The x86 → TCG fence mappings (Figure 2's QEMU scheme, Figure 7a's
verified Risotto scheme, the no-fences oracle) are derived here, not
written out.  ArMOR (Lustig et al.) shows the requirement is *data*: a
Memory Ordering Specification Table (MOST) with one cell per ordered
access pair — (first access, second access) over {ld, st} — whose
strength says whether the source architecture preserves that order.
Given such a table, a fence *menu* for the target (which fences exist
and which pairs each one orders), and a placement discipline (fences
lead or trail each access class), the concrete per-access fence
placement is derived, not written.

Three layers live here:

* :class:`Strength`/:class:`MOST` — the table type plus the source
  requirement tables (SC, TSO, PSO, RMO) transcribed from ArMOR;
* :class:`MenuFence`/:class:`TargetMenu` — target fence vocabularies:
  the TCG fence kinds the Arm backend lowers to ``dmb`` variants;
* :func:`derive_scheme`/:class:`FenceScheme` — the derivation pass and
  its result: per-slot fence kinds *and* the provenance strings the
  obs layer attributes fence cycles to.  The scheme is the single
  source of truth for origin tags — the frontend emits what the
  scheme says, and :func:`known_origins` is what reports validate
  against.

What each fence orders comes from :data:`repro.core.events.TCG_FENCE_PAIRS`.
The schemes are pure data: :mod:`repro.core.mappings` turns each one
into the op-level mappings the Theorem-1 checker and the fuzzer consume
(``qemu-x86-to-tcg`` and friends, and ``most-<scheme>-<rmw>``), and the
DBT variants name the scheme their frontend emits from.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..errors import MappingError
from .events import ACCESS_PAIRS, TCG_FENCE_PAIRS, Fence, weakest_dmb

#: Access classes a MOST row/column ranges over.
ACCESSES = ("ld", "st")

#: Access class -> event-class letter used by fence pair coverage.
_CLASS = {"ld": "r", "st": "w"}


class Strength(enum.IntEnum):
    """One MOST cell: how strongly a source preserves an access pair.

    The lattice is ``NONE < MCA < STRONG`` (ArMOR's ``-``/``M``/``S``).
    ``MCA`` (multi-copy atomic) and ``STRONG`` both *require*
    enforcement on a non-MCA target like Arm; the distinction is kept
    so tables round-trip ArMOR's notation and so strengthening
    (:meth:`MOST.union`) is cell-wise max, not boolean or.
    """

    NONE = 0
    MCA = 1
    STRONG = 2

    @classmethod
    def parse(cls, symbol: str) -> "Strength":
        try:
            return _STRENGTH_BY_SYMBOL[symbol]
        except KeyError:
            raise MappingError(
                f"unknown MOST strength {symbol!r}; expected one of "
                f"{sorted(_STRENGTH_BY_SYMBOL)}") from None

    @property
    def symbol(self) -> str:
        return _STRENGTH_SYMBOLS[self]


_STRENGTH_SYMBOLS = {
    Strength.NONE: "-",
    Strength.MCA: "M",
    Strength.STRONG: "S",
}
_STRENGTH_BY_SYMBOL = {v: k for k, v in _STRENGTH_SYMBOLS.items()}


@dataclass(frozen=True)
class MOST:
    """A 2×2 ordering table: cell (first, second) over {ld, st}.

    ``ld_st`` is the strength with which the source orders a load
    program-order-before a store, and so on.  Immutable and hashable so
    schemes derived from it can sit in frozen configs.
    """

    name: str
    ld_ld: Strength
    ld_st: Strength
    st_ld: Strength
    st_st: Strength

    @classmethod
    def parse(cls, name: str, rows: dict[str, str]) -> "MOST":
        """Build from ArMOR-style rows: ``{"ld": "SS", "st": "-M"}``
        where each row string is the successor order (ld, st)."""
        cells = {}
        for first in ACCESSES:
            row = rows.get(first, "")
            if len(row) != len(ACCESSES):
                raise MappingError(
                    f"MOST {name!r}: row {first!r} must have "
                    f"{len(ACCESSES)} cells, got {row!r}")
            for second, symbol in zip(ACCESSES, row):
                cells[f"{first}_{second}"] = Strength.parse(symbol)
        return cls(name=name, **cells)

    def cell(self, first: str, second: str) -> Strength:
        if first not in ACCESSES or second not in ACCESSES:
            raise MappingError(
                f"MOST cell ({first!r}, {second!r}): accesses must be "
                f"in {ACCESSES}")
        return getattr(self, f"{first}_{second}")

    def required_pairs(self) -> tuple[tuple[str, str], ...]:
        """Access pairs the source preserves and a weaker target must
        enforce, in row-major order (deterministic derivation)."""
        return tuple(
            (first, second)
            for first in ACCESSES for second in ACCESSES
            if self.cell(first, second) > Strength.NONE
        )

    def covers(self, other: "MOST") -> bool:
        """True when this table is cell-wise at least as strong."""
        return all(
            self.cell(f, s) >= other.cell(f, s)
            for f in ACCESSES for s in ACCESSES
        )

    def union(self, other: "MOST") -> "MOST":
        """Cell-wise max — the weakest table satisfying both."""
        return MOST(
            name=f"{self.name}|{other.name}",
            **{
                f"{f}_{s}": max(self.cell(f, s), other.cell(f, s))
                for f in ACCESSES for s in ACCESSES
            },
        )

    def render(self) -> str:
        """The ArMOR-style grid, for reports and docs."""
        head = "      " + "  ".join(f"{s:>2s}" for s in ACCESSES)
        rows = [
            f"{first:>4s}: " + "  ".join(
                f"{self.cell(first, second).symbol:>2s}"
                for second in ACCESSES)
            for first in ACCESSES
        ]
        return "\n".join([head] + rows)


#: Source requirement tables, per ArMOR's <model>2ppo MOSTs: what each
#: source model guarantees about program order that a fully-relaxed
#: target must re-enforce.  x86-TSO preserves everything but st->ld
#: (store buffering); its st->st order is multi-copy atomic.
SC_MOST = MOST.parse("sc", {"ld": "SS", "st": "SS"})
TSO_MOST = MOST.parse("tso", {"ld": "SS", "st": "-M"})
PSO_MOST = MOST.parse("pso", {"ld": "SS", "st": "--"})
RMO_MOST = MOST.parse("rmo", {"ld": "--", "st": "--"})

SOURCE_TABLES: dict[str, MOST] = {
    t.name: t for t in (SC_MOST, TSO_MOST, PSO_MOST, RMO_MOST)
}


# ----------------------------------------------------------------------
# Target fence menus
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MenuFence:
    """One fence the target offers: the pairs it orders, a relative
    cost, and ``kind``, the TCG fence the frontend emits for it."""

    name: str
    pairs: frozenset
    cost: int
    kind: Fence


@dataclass(frozen=True)
class TargetMenu:
    """A target's fence vocabulary, selectable by pair coverage."""

    name: str
    fences: tuple[MenuFence, ...]

    def select(self, pairs) -> MenuFence:
        """The cheapest menu fence covering every pair; ties go to the
        one ordering the fewest extra pairs, then to the name — the
        selection is total and deterministic."""
        needed = frozenset(pairs)
        candidates = [f for f in self.fences if needed <= f.pairs]
        if not candidates:
            raise MappingError(
                f"menu {self.name!r} has no fence covering "
                f"{sorted(needed)}")
        return min(candidates,
                   key=lambda f: (f.cost, len(f.pairs), f.name))


def _tcg_menu_fence(kind: Fence) -> MenuFence:
    pairs = TCG_FENCE_PAIRS[kind]
    # Kinds the Arm lowering turns into dmb ld / dmb st are cheaper
    # than anything needing the full barrier.
    cost = 2 if weakest_dmb(pairs) is Fence.DMBFF else 1
    return MenuFence(name=kind.value, pairs=pairs, cost=cost, kind=kind)


#: The frontend-emittable TCG fence kinds (each lowers to one dmb
#: variant).  FMM is deliberately absent: it aliases FSC's coverage and
#: the pipeline spells the full barrier Fsc everywhere.
ARM_DMB_MENU = TargetMenu(
    name="arm-dmb",
    fences=tuple(_tcg_menu_fence(kind) for kind in TCG_FENCE_PAIRS
                 if kind is not Fence.FMM),
)

TARGET_MENUS: dict[str, TargetMenu] = {ARM_DMB_MENU.name: ARM_DMB_MENU}


# ----------------------------------------------------------------------
# Derivation: (table, menu, placement) -> concrete fence scheme
# ----------------------------------------------------------------------
#: Emission slots of a scheme, with the provenance-string format each
#: one stamps on its fence.  These formats *are* the origin vocabulary
#: the obs layer's by-origin cycle accounting buckets on — the frontend
#: renders them from the scheme instead of hand-typing literals.
ORIGIN_FORMATS: dict[str, str] = {
    "ld_pre": "RMOV->{kind};ld",
    "ld_post": "RMOV->ld;{kind}",
    "st_pre": "WMOV->{kind};st",
    "st_post": "WMOV->st;{kind}",
    "mfence": "MFENCE->{kind}",
    "lfence": "LFENCE->{kind}",
    "sfence": "SFENCE->{kind}",
}

SCHEME_SLOTS = tuple(ORIGIN_FORMATS)

#: Pair sets of the explicit x86 fence instructions (their meaning is
#: architectural, not table-derived): mfence orders everything, lfence
#: keeps loads before later accesses, sfence keeps stores ordered.
_EXPLICIT_FENCE_PAIRS = {
    "mfence": frozenset(ACCESS_PAIRS),
    "lfence": TCG_FENCE_PAIRS[Fence.FRM],
    "sfence": TCG_FENCE_PAIRS[Fence.FWW],
}


@dataclass(frozen=True)
class FenceScheme:
    """A derived mapping scheme: what to emit around loads and stores.

    One scheme is the full answer for a (source table, target menu,
    placement) triple: the fence kind in each of the four access slots
    (``None`` = no fence), the lowering of the explicit x86 fences, and
    the provenance string for every slot.  ``expect_sound`` records
    whether Theorem 1 should hold for x86-TSO sources — schemes derived
    from weaker tables (PSO/RMO) are registered as negative controls
    and are *expected* to fail the checker.
    """

    name: str
    source: str
    target: str
    placement_ld: str
    placement_st: str
    ld_pre: Fence | None = None
    ld_post: Fence | None = None
    st_pre: Fence | None = None
    st_post: Fence | None = None
    mfence: Fence | None = None
    lfence: Fence | None = None
    sfence: Fence | None = None
    expect_sound: bool = True

    def rule(self, slot: str) -> tuple[Fence, str] | None:
        """(fence kind, origin string) for one emission slot, or
        ``None`` when the scheme places nothing there."""
        if slot not in ORIGIN_FORMATS:
            raise MappingError(
                f"unknown scheme slot {slot!r}; expected one of "
                f"{SCHEME_SLOTS}")
        kind = getattr(self, slot)
        if kind is None:
            return None
        return kind, ORIGIN_FORMATS[slot].format(kind=kind.value)

    def rules(self) -> tuple[tuple[str, Fence, str], ...]:
        """Every populated slot as (slot, kind, origin) triples."""
        out = []
        for slot in SCHEME_SLOTS:
            rule = self.rule(slot)
            if rule is not None:
                out.append((slot, rule[0], rule[1]))
        return tuple(out)

    def origins(self) -> frozenset:
        """The provenance strings this scheme can stamp on fences."""
        return frozenset(origin for _, _, origin in self.rules())

    def describe(self) -> str:
        parts = [f"{slot}={kind.value}" for slot, kind, _ in self.rules()]
        return (f"{self.name}: source={self.source} "
                f"target={self.target} "
                f"placement=ld:{self.placement_ld},st:{self.placement_st} "
                + (" ".join(parts) if parts else "(no fences)"))


def derive_slots(table: MOST, placement: dict[str, str]) -> dict:
    """Assign every required pair of ``table`` to an emission slot.

    ``placement`` fixes the discipline per access class: ``"pre"``
    fences lead the access, ``"post"`` fences trail it.  A pair
    (a, b) is enforced by a fence *between* the two accesses, so it can
    live in a's post slot or b's pre slot; the derivation prefers the
    post slot (it keeps the fence adjacent to the access that created
    the obligation) and falls back to b's pre slot.  A pair neither
    slot can take — a leads and b trails — has no home between the
    accesses, and the placement is rejected rather than silently
    under-fenced.
    """
    for access in ACCESSES:
        if placement.get(access) not in ("pre", "post"):
            raise MappingError(
                f"placement for {access!r} must be 'pre' or 'post', "
                f"got {placement.get(access)!r}")
    slots: dict[tuple[str, str], set] = {
        (access, position): set()
        for access in ACCESSES for position in ("pre", "post")
    }
    for first, second in table.required_pairs():
        pair = (_CLASS[first], _CLASS[second])
        if placement[first] == "post":
            slots[(first, "post")].add(pair)
        elif placement[second] == "pre":
            slots[(second, "pre")].add(pair)
        else:
            raise MappingError(
                f"table {table.name!r}: pair {first}->{second} is not "
                f"coverable with placement ld:{placement['ld']},"
                f"st:{placement['st']} — {first} fences lead and "
                f"{second} fences trail, leaving no slot between the "
                f"accesses")
    return slots


def derive_scheme(table: MOST, menu: TargetMenu,
                  placement: dict[str, str], *, name: str | None = None,
                  explicit_fences: bool = True,
                  expect_sound: bool = True) -> FenceScheme:
    """Derive the concrete fence scheme for one (table, menu,
    placement) triple.

    Each populated slot gets the menu's cheapest fence covering the
    pairs assigned to it.  ``explicit_fences=False`` drops the x86
    ``mfence``/``lfence``/``sfence`` lowerings too (the no-fences
    performance oracle); otherwise they are selected from the menu by
    their architectural pair sets.
    """
    slots = derive_slots(table, placement)
    kinds: dict[str, Fence | None] = {}
    for (access, position), pairs in sorted(slots.items()):
        slot = f"{access}_{position}"
        if not pairs:
            kinds[slot] = None
            continue
        kinds[slot] = menu.select(pairs).kind
    for which, pairs in _EXPLICIT_FENCE_PAIRS.items():
        if not explicit_fences:
            kinds[which] = None
            continue
        kinds[which] = menu.select(pairs).kind
    return FenceScheme(
        name=name or f"{table.name}-{placement['ld']}-{placement['st']}",
        source=table.name,
        target=menu.name,
        placement_ld=placement["ld"],
        placement_st=placement["st"],
        expect_sound=expect_sound,
        **kinds,
    )


# ----------------------------------------------------------------------
# The registered scheme family
# ----------------------------------------------------------------------
def _derived(name: str, source: str, ld: str, st: str, *,
             expect_sound: bool) -> FenceScheme:
    return derive_scheme(
        SOURCE_TABLES[source], ARM_DMB_MENU, {"ld": ld, "st": st},
        name=name, expect_sound=expect_sound)


#: Figure 2: leading Frr before loads, leading Fmw before stores.
QEMU_SCHEME = _derived("qemu", "tso", "pre", "pre", expect_sound=True)
#: Figure 7a: trailing Frm after loads, leading Fww before stores —
#: the verified minimal scheme.
RISOTTO_SCHEME = _derived("risotto", "tso", "post", "pre",
                          expect_sound=True)
#: All-trailing TSO variant: Frm after loads, Fww after stores.
TSO_TRAIL_SCHEME = _derived("tso-trail", "tso", "post", "post",
                            expect_sound=True)
#: SC source tables over-fence x86 programs but stay sound.
SC_LEAD_SCHEME = _derived("sc-lead", "sc", "pre", "pre",
                          expect_sound=True)
SC_TRAIL_SCHEME = _derived("sc-trail", "sc", "post", "post",
                           expect_sound=True)
#: Negative controls: PSO drops the st->st requirement, RMO drops
#: everything — both must fail Theorem 1 for x86-TSO sources.
PSO_LEAD_SCHEME = _derived("pso-lead", "pso", "pre", "pre",
                           expect_sound=False)
RMO_BARE_SCHEME = _derived("rmo-bare", "rmo", "pre", "pre",
                           expect_sound=False)
#: The incorrect performance oracle: nothing, not even the explicit
#: x86 fences (the paper's no-fences variant).
NOFENCES_SCHEME = derive_scheme(
    RMO_MOST, ARM_DMB_MENU, {"ld": "pre", "st": "pre"},
    name="no-fences", explicit_fences=False, expect_sound=False)

SCHEMES: dict[str, FenceScheme] = {
    s.name: s for s in (
        QEMU_SCHEME,
        RISOTTO_SCHEME,
        TSO_TRAIL_SCHEME,
        SC_LEAD_SCHEME,
        SC_TRAIL_SCHEME,
        PSO_LEAD_SCHEME,
        RMO_BARE_SCHEME,
        NOFENCES_SCHEME,
    )
}


# ----------------------------------------------------------------------
# Provenance registry (the obs layer validates against this)
# ----------------------------------------------------------------------
#: Origin tags stamped by optimizer passes rather than the frontend.
OPTIMIZER_ORIGINS = frozenset({"fence_merge:strengthen"})


def known_origins(schemes=None) -> frozenset:
    """Every fence-provenance string a pipeline stage may emit: the
    registered schemes' slot origins plus the optimizer's tags."""
    if schemes is None:
        schemes = SCHEMES.values()
    names = set(OPTIMIZER_ORIGINS)
    for scheme in schemes:
        names |= scheme.origins()
    return frozenset(names)
