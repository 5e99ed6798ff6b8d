"""Direct tests of Execution's derived relations on hand-built graphs."""

import pytest

from repro.core.axioms import co_well_formed, rf_well_formed
from repro.core.events import Event, Fence, INIT_TID, Mode, RmwFlavor
from repro.core.execution import Execution
from repro.core.models.terms import ATOMICITY, SC_PER_LOC, A, L, Q, \
    evaluate
from repro.core.relations import Rel


def make_events(*specs):
    events = {}
    for eid, spec in enumerate(specs):
        events[eid] = Event(eid=eid, **spec)
    return events


@pytest.fixture
def mp_execution():
    """init X, init Y; T0: W X 1, W Y 1; T1: R Y 1, R X 0 (weak)."""
    events = make_events(
        dict(tid=INIT_TID, idx=0, kind="W", loc="X", val=0,
             is_init=True),
        dict(tid=INIT_TID, idx=1, kind="W", loc="Y", val=0,
             is_init=True),
        dict(tid=0, idx=0, kind="W", loc="X", val=1),
        dict(tid=0, idx=1, kind="W", loc="Y", val=1),
        dict(tid=1, idx=0, kind="R", loc="Y", val=1),
        dict(tid=1, idx=1, kind="R", loc="X", val=0),
    )
    return Execution(
        events=events,
        po=Rel([(2, 3), (4, 5)]),
        rf=Rel([(3, 4), (0, 5)]),
        co=Rel([(0, 2), (1, 3)]),
    )

class TestDerivedRelations:
    def test_event_classes(self, mp_execution):
        ex = mp_execution
        assert ex.reads == {4, 5}
        assert ex.writes == {0, 1, 2, 3}
        assert ex.memory_events == {0, 1, 2, 3, 4, 5}

    def test_fr(self, mp_execution):
        # R X 0 reads init; W X 1 is co-after init -> fr(5, 2).
        assert (5, 2) in mp_execution.fr

    def test_externality(self, mp_execution):
        ex = mp_execution
        assert (3, 4) in ex.rfe
        assert (5, 2) in ex.fre
        assert ex.rfe == ex.rf

    def test_po_loc_empty_for_different_locations(self, mp_execution):
        assert not mp_execution.po_loc

    def test_behavior_is_co_maximal(self, mp_execution):
        assert mp_execution.behavior == frozenset(
            {("X", 1), ("Y", 1)})

    def test_full_behavior_includes_registers(self):
        ex = Execution(events={}, po=Rel(), rf=Rel(), co=Rel(),
                       regs=frozenset({("T0:a", 7)}))
        assert ("T0:a", 7) in ex.full_behavior

    def test_describe_smoke(self, mp_execution):
        text = mp_execution.describe()
        assert "rf:" in text and "behavior" in text

    def test_well_formedness(self, mp_execution):
        assert rf_well_formed(mp_execution)
        assert co_well_formed(mp_execution)
        assert evaluate(SC_PER_LOC, mp_execution)
        assert evaluate(ATOMICITY, mp_execution)

    def test_rf_wrong_value_rejected(self, mp_execution):
        broken = Execution(
            events=mp_execution.events,
            po=mp_execution.po,
            rf=Rel([(2, 5), (3, 4)]),  # R X 0 reading W X 1
            co=mp_execution.co,
        )
        assert not rf_well_formed(broken)

    def test_co_into_init_rejected(self, mp_execution):
        broken = Execution(
            events=mp_execution.events,
            po=mp_execution.po,
            rf=mp_execution.rf,
            co=Rel([(2, 0), (1, 3)]),
        )
        assert not co_well_formed(broken)

    @pytest.mark.parametrize("edge", [
        (2, 3),  # W X -> W Y: across locations
        (0, 3),  # init X -> W Y: across locations
        (2, 4),  # W -> R
        (4, 5),  # R -> R
    ])
    def test_co_outside_same_location_writes_rejected(self, mp_execution,
                                                       edge):
        broken = Execution(
            events=mp_execution.events,
            po=mp_execution.po,
            rf=mp_execution.rf,
            co=mp_execution.co | Rel([edge]),
        )
        assert not co_well_formed(broken)


class TestRmwClassification:
    def _rmw_events(self, flavor, acq=False, rel=False):
        return make_events(
            dict(tid=INIT_TID, idx=0, kind="W", loc="X", val=0,
                 is_init=True),
            dict(tid=0, idx=0, kind="R", loc="X", val=0,
                 mode=Mode.ACQ if acq else Mode.PLAIN,
                 rmw_flavor=flavor, rmw_partner=2),
            dict(tid=0, idx=1, kind="W", loc="X", val=1,
                 mode=Mode.REL if rel else Mode.PLAIN,
                 rmw_flavor=flavor, rmw_partner=1),
        )

    def test_amo_vs_lxsx(self):
        for flavor, which in ((RmwFlavor.AMO, "amo"),
                              (RmwFlavor.LXSX, "lxsx")):
            ex = Execution(
                events=self._rmw_events(flavor, acq=True, rel=True),
                po=Rel([(1, 2)]),
                rf=Rel([(0, 1)]),
                co=Rel([(0, 2)]),
            )
            assert (1, 2) in ex.rmw
            assert ((1, 2) in getattr(ex, which).pairs)
            other = "lxsx" if which == "amo" else "amo"
            assert not getattr(ex, other)

    def test_mode_sets(self):
        ex = Execution(
            events=self._rmw_events(RmwFlavor.AMO, acq=True, rel=True),
            po=Rel([(1, 2)]),
            rf=Rel([(0, 1)]),
            co=Rel([(0, 2)]),
        )
        assert evaluate(A, ex) == {1}
        assert evaluate(L, ex) == {2}
        assert not evaluate(Q, ex)

    def test_atomicity_violation_detected(self):
        # An external write between the rmw read and write.
        events = self._rmw_events(RmwFlavor.AMO)
        events[3] = Event(eid=3, tid=1, idx=0, kind="W", loc="X",
                          val=9)
        ex = Execution(
            events=events,
            po=Rel([(1, 2)]),
            rf=Rel([(0, 1)]),
            co=Rel([(0, 3), (3, 2), (0, 2)]),
        )
        assert not evaluate(ATOMICITY, ex)
