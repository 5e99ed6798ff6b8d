"""Unit tests for the MOST-table mapping-scheme family.

Three layers under test:

* the table type — strength lattice, parsing, pair extraction,
  cover/union algebra;
* menu selection and the derivation pass — cheapest covering fence,
  pre/post slot assignment, uncoverable placements rejected;
* the derived schemes — golden equivalence of the QEMU/RISOTTO
  schemes with the paper's literal Figure 2/7a placements (kinds,
  origins, and the induced op mapping over every x86 corpus op), plus
  the expected Theorem-1 verdict for every registered (scheme × RMW
  lowering) pair.
"""

import pytest

from repro.core import mappings as M
from repro.core.corpus_large import verify_registry
from repro.core.events import Arch, Fence, RmwFlavor
from repro.core.litmus_library import R, X86_CORPUS
from repro.core.mappings import (
    SCHEME_EXPECTED,
    SCHEME_MAPPINGS,
    SCHEME_RMW_LOWERINGS,
    expected_verdict,
    scheme_mapping,
    scheme_x86_to_tcg,
)
from repro.core.models import ARM, X86
from repro.core.most import (
    ARM_DMB_MENU,
    MOST,
    NOFENCES_SCHEME,
    OPTIMIZER_ORIGINS,
    ORIGIN_FORMATS,
    POWER_SYNC_MENU,
    QEMU_SCHEME,
    RISOTTO_SCHEME,
    RMO_MOST,
    SC_MOST,
    SCHEMES,
    SOURCE_TABLES,
    Strength,
    TSO_MOST,
    derive_scheme,
    derive_slots,
    known_origins,
)
from repro.core.program import FenceOp, If, Load, Rmw, Store
from repro.core.verifier import check_corpus
from repro.errors import MappingError


# ----------------------------------------------------------------------
# Strength lattice and table algebra
# ----------------------------------------------------------------------
class TestStrength:
    def test_lattice_order(self):
        assert Strength.NONE < Strength.MCA < Strength.STRONG

    def test_symbol_round_trip(self):
        for strength in Strength:
            assert Strength.parse(strength.symbol) is strength

    def test_unknown_symbol_raises(self):
        with pytest.raises(MappingError, match="unknown MOST strength"):
            Strength.parse("X")


class TestMOST:
    def test_parse_tso(self):
        assert TSO_MOST.cell("ld", "ld") is Strength.STRONG
        assert TSO_MOST.cell("ld", "st") is Strength.STRONG
        assert TSO_MOST.cell("st", "ld") is Strength.NONE
        assert TSO_MOST.cell("st", "st") is Strength.MCA

    def test_parse_rejects_short_rows(self):
        with pytest.raises(MappingError, match="row 'st'"):
            MOST.parse("bad", {"ld": "SS", "st": "S"})

    def test_cell_rejects_unknown_access(self):
        with pytest.raises(MappingError, match="accesses must be"):
            TSO_MOST.cell("ld", "rmw")

    def test_required_pairs_row_major(self):
        assert TSO_MOST.required_pairs() == (
            ("ld", "ld"), ("ld", "st"), ("st", "st"))
        assert RMO_MOST.required_pairs() == ()
        assert SC_MOST.required_pairs() == (
            ("ld", "ld"), ("ld", "st"), ("st", "ld"), ("st", "st"))

    def test_covers_is_the_table_order(self):
        assert SC_MOST.covers(TSO_MOST)
        assert TSO_MOST.covers(RMO_MOST)
        assert not TSO_MOST.covers(SC_MOST)
        assert TSO_MOST.covers(TSO_MOST)

    def test_union_is_cellwise_max(self):
        merged = TSO_MOST.union(SOURCE_TABLES["pso"])
        assert merged.cell("st", "st") is Strength.MCA
        assert merged.cell("ld", "ld") is Strength.STRONG
        # Union with SC is SC-shaped.
        assert SC_MOST.union(TSO_MOST).covers(SC_MOST)

    def test_render_is_armor_shaped(self):
        grid = TSO_MOST.render()
        assert "ld:" in grid and "st:" in grid
        assert "-" in grid and "M" in grid and "S" in grid


# ----------------------------------------------------------------------
# Menu selection
# ----------------------------------------------------------------------
class TestMenuSelection:
    def test_single_pair_picks_cheap_narrow_fence(self):
        assert ARM_DMB_MENU.select({("r", "r")}).kind is Fence.FRR
        assert ARM_DMB_MENU.select({("w", "w")}).kind is Fence.FWW

    def test_load_row_picks_frm(self):
        chosen = ARM_DMB_MENU.select({("r", "r"), ("r", "w")})
        assert chosen.kind is Fence.FRM

    def test_all_pairs_pick_full_barrier(self):
        pairs = {(a, b) for a in "rw" for b in "rw"}
        assert ARM_DMB_MENU.select(pairs).kind is Fence.FSC

    def test_uncoverable_pairs_raise(self):
        with pytest.raises(MappingError, match="no fence covering"):
            POWER_SYNC_MENU.select({("r", "x")})

    def test_power_menu_prefers_lwsync(self):
        chosen = POWER_SYNC_MENU.select(
            {("r", "r"), ("r", "w"), ("w", "w")})
        assert chosen.name == "lwsync"
        assert chosen.kind is None  # no TCG spelling: data-only menu

    def test_power_menu_needs_sync_for_store_load(self):
        assert POWER_SYNC_MENU.select({("w", "r")}).name == "sync"


# ----------------------------------------------------------------------
# Derivation
# ----------------------------------------------------------------------
class TestDerivation:
    def test_invalid_placement_rejected(self):
        with pytest.raises(MappingError, match="must be 'pre' or"):
            derive_slots(TSO_MOST, {"ld": "pre", "st": "sideways"})
        with pytest.raises(MappingError, match="must be 'pre' or"):
            derive_slots(TSO_MOST, {"ld": "pre"})

    def test_post_slot_preferred_over_pre(self):
        slots = derive_slots(TSO_MOST, {"ld": "post", "st": "post"})
        # ld->ld and ld->st land in the load's own post slot...
        assert slots[("ld", "post")] == {("r", "r"), ("r", "w")}
        # ...and st->st in the store's post slot; pre slots stay empty.
        assert slots[("st", "post")] == {("w", "w")}
        assert slots[("ld", "pre")] == set()
        assert slots[("st", "pre")] == set()

    def test_fallback_to_successor_pre_slot(self):
        slots = derive_slots(TSO_MOST, {"ld": "pre", "st": "pre"})
        # ld->ld goes to the *second* load's pre slot, ld->st to the
        # store's pre slot alongside st->st.
        assert slots[("ld", "pre")] == {("r", "r")}
        assert slots[("st", "pre")] == {("r", "w"), ("w", "w")}

    def test_uncoverable_pair_rejected(self):
        # ld fences lead, st fences trail: the ld->st obligation has no
        # slot between the two accesses.
        with pytest.raises(MappingError, match="not coverable"):
            derive_slots(TSO_MOST, {"ld": "pre", "st": "post"})
        with pytest.raises(MappingError, match="not coverable"):
            derive_slots(SC_MOST, {"ld": "post", "st": "pre"})

    def test_sc_trailing_derivation(self):
        scheme = derive_scheme(SC_MOST, ARM_DMB_MENU,
                               {"ld": "post", "st": "post"})
        assert scheme.ld_post is Fence.FRM
        assert scheme.st_post is Fence.FWM
        assert scheme.ld_pre is None and scheme.st_pre is None

    def test_explicit_fences_always_selected(self):
        scheme = derive_scheme(RMO_MOST, ARM_DMB_MENU,
                               {"ld": "pre", "st": "pre"})
        assert scheme.mfence is Fence.FSC
        assert scheme.lfence is Fence.FRM
        assert scheme.sfence is Fence.FWW

    def test_explicit_fences_droppable(self):
        assert NOFENCES_SCHEME.mfence is None
        assert NOFENCES_SCHEME.rules() == ()

    def test_data_only_menu_cannot_feed_the_frontend(self):
        with pytest.raises(MappingError, match="no TCG kind"):
            derive_scheme(TSO_MOST, POWER_SYNC_MENU,
                          {"ld": "post", "st": "pre"})


# ----------------------------------------------------------------------
# The registered schemes: golden placements and provenance
# ----------------------------------------------------------------------
class TestRegisteredSchemes:
    def test_qemu_scheme_matches_figure_2(self):
        assert QEMU_SCHEME.ld_pre is Fence.FRR
        assert QEMU_SCHEME.ld_post is None
        assert QEMU_SCHEME.st_pre is Fence.FMW
        assert QEMU_SCHEME.st_post is None

    def test_risotto_scheme_matches_figure_7a(self):
        assert RISOTTO_SCHEME.ld_pre is None
        assert RISOTTO_SCHEME.ld_post is Fence.FRM
        assert RISOTTO_SCHEME.st_pre is Fence.FWW
        assert RISOTTO_SCHEME.st_post is None

    def test_golden_origin_strings(self):
        # The exact literals the frontend used to hand-type.
        assert QEMU_SCHEME.rule("ld_pre") == \
            (Fence.FRR, "RMOV->Frr;ld")
        assert QEMU_SCHEME.rule("st_pre") == \
            (Fence.FMW, "WMOV->Fmw;st")
        assert RISOTTO_SCHEME.rule("ld_post") == \
            (Fence.FRM, "RMOV->ld;Frm")
        assert RISOTTO_SCHEME.rule("st_pre") == \
            (Fence.FWW, "WMOV->Fww;st")
        assert RISOTTO_SCHEME.rule("mfence") == \
            (Fence.FSC, "MFENCE->Fsc")
        assert RISOTTO_SCHEME.rule("lfence") == \
            (Fence.FRM, "LFENCE->Frm")
        assert RISOTTO_SCHEME.rule("sfence") == \
            (Fence.FWW, "SFENCE->Fww")

    def test_rule_rejects_unknown_slot(self):
        with pytest.raises(MappingError, match="unknown scheme slot"):
            RISOTTO_SCHEME.rule("ld_mid")

    def test_known_origins_cover_optimizer_tags(self):
        origins = known_origins()
        assert OPTIMIZER_ORIGINS <= origins
        assert "RMOV->ld;Frm" in origins
        assert "MFENCE->Fsc" in origins

    def test_origin_formats_are_the_slot_registry(self):
        for scheme in SCHEMES.values():
            for slot, kind, origin in scheme.rules():
                assert origin == \
                    ORIGIN_FORMATS[slot].format(kind=kind.value)


# ----------------------------------------------------------------------
# Schemes as op mappings: golden equivalence with the paper's literal
# rows, and the Theorem-1 expectation matrix
# ----------------------------------------------------------------------
#: The x86 -> TCG rows of Figure 2 (QEMU, with the Section 3.1 Frr
#: demotion), Figure 7a (Risotto) and the no-fences oracle, written out
#: by hand: per x86 op class, what it becomes ("op" is the access).
FIGURE_ROWS = {
    "qemu": {
        Load: (FenceOp(Fence.FRR), "op"),
        Store: (FenceOp(Fence.FMW), "op"),
        FenceOp: (FenceOp(Fence.FSC),),
    },
    "risotto": {
        Load: ("op", FenceOp(Fence.FRM)),
        Store: (FenceOp(Fence.FWW), "op"),
        FenceOp: (FenceOp(Fence.FSC),),
    },
    "no-fences": {
        Load: ("op",),
        Store: ("op",),
        FenceOp: (),
    },
}

#: Every x86 program the sharded verifier addresses (27 of them).
X86_PROGRAMS = [test.program for test in verify_registry().values()
                if test.program.arch is Arch.X86]


def _x86_ops(ops):
    for op in ops:
        if isinstance(op, If):
            yield from _x86_ops(op.then_ops)
            yield from _x86_ops(op.else_ops)
        else:
            yield op


def _figure_row(rows, op):
    if isinstance(op, Rmw):
        # Every scheme keeps the RMW as one SC TCG RMW.
        return (Rmw(op.loc, op.expect, op.new, RmwFlavor.TCG,
                    out=op.out),)
    assert not isinstance(op, FenceOp) or op.kind is Fence.MFENCE
    return tuple(op if part == "op" else part
                 for part in rows[type(op)])


class TestSchemeMappings:
    @pytest.mark.parametrize("scheme_name,legacy", [
        ("qemu", FIGURE_ROWS["qemu"]),
        ("risotto", FIGURE_ROWS["risotto"]),
        ("no-fences", FIGURE_ROWS["no-fences"]),
    ])
    def test_x86_to_tcg_golden(self, scheme_name, legacy):
        """The derived mapping, under both of its names, is the
        figure's row for every op of every x86 corpus program."""
        assert len(X86_PROGRAMS) == 27
        named = {"qemu": M.qemu_x86_to_tcg,
                 "risotto": M.risotto_x86_to_tcg,
                 "no-fences": M.nofences_x86_to_tcg}[scheme_name]
        derived = scheme_x86_to_tcg(SCHEMES[scheme_name])
        checked = 0
        for program in X86_PROGRAMS:
            for thread in program.threads:
                for op in _x86_ops(thread):
                    expected = _figure_row(legacy, op)
                    assert derived.map_op(op) == expected, op
                    assert named.map_op(op) == expected, op
                    checked += 1
        assert checked > 100

    def test_mapping_names_and_registration(self):
        for scheme in SCHEMES.values():
            for rmw in SCHEME_RMW_LOWERINGS:
                name = f"most-{scheme.name}-{rmw}"
                assert name in SCHEME_MAPPINGS
                assert M.ALL_MAPPINGS[name] is SCHEME_MAPPINGS[name]
                assert SCHEME_MAPPINGS[name].src_arch is Arch.X86
                assert SCHEME_MAPPINGS[name].tgt_arch is Arch.ARM

    def test_expected_verdict_model(self):
        # Sound tables with trailing load fences pass under both
        # lowerings; leading-only load fences lose the failed-CAS
        # ordering rmw1al needs (the paper's MPQ bug).
        assert expected_verdict(RISOTTO_SCHEME, "rmw1al")
        assert expected_verdict(QEMU_SCHEME, "rmw2ff")
        assert not expected_verdict(QEMU_SCHEME, "rmw1al")
        assert not expected_verdict(SCHEMES["pso-lead"], "rmw2ff")

    def test_scheme_mapping_composes(self):
        mapping = scheme_mapping(RISOTTO_SCHEME, "rmw2ff")
        lowered = mapping.map_op(R("a", "X"))
        kinds = [op.kind for op in lowered
                 if hasattr(op, "kind")]
        assert Fence.DMBLD in kinds  # Frm lowers to dmb ld

    @pytest.mark.parametrize("name", sorted(SCHEME_MAPPINGS))
    def test_corpus_verdict_matches_expectation(self, name):
        report = check_corpus(X86_CORPUS, SCHEME_MAPPINGS[name],
                              X86, ARM)
        assert report.ok == SCHEME_EXPECTED[name], (
            f"{name}: corpus verdict {report.ok} != expected "
            f"{SCHEME_EXPECTED[name]}; broken="
            f"{[v.test_name for v in report.verdicts if not v.ok]}")

    def test_qemu_rmw1_breaks_exactly_like_gcc10(self):
        # The derived qemu scheme with the casal lowering reproduces
        # the documented MPQ failure of qemu-gcc10, nothing else.
        report = check_corpus(X86_CORPUS,
                              SCHEME_MAPPINGS["most-qemu-rmw1al"],
                              X86, ARM)
        broken = [v.test_name for v in report.verdicts if not v.ok]
        assert broken == ["MPQ"]
