"""The one rf/co search under both enumerators: counter golden and
tooling guard.

The differential suites pin behaviour *sets*; a changed walk order or
a dropped prune would leave those intact and only move the counters.
So every :class:`EnumerationStats` field is pinned here for a handful
of programs under both configurations of the search (values recorded
when the staged and DPOR walks were still two functions).  The guard
keeps the second walk, the sleep sets and the ``REPRO_ENUM_REDUCTION``
knob from growing back.
"""

import dataclasses
import re
from pathlib import Path

import pytest

from repro.core.corpus_large import CAS5, IRIW5, W5_RR
from repro.core.dpor import reduced_behaviors
from repro.core.enumerate import EnumerationStats, enumerate_consistent
from repro.core.litmus_library import ALL_TESTS
from repro.core.models import MODEL_BY_NAME

from .test_dpor import PREFIX_CUT

REPO = Path(__file__).resolve().parents[2]
SRC = REPO / "src" / "repro"

FIELDS = ("combos", "candidates_naive", "rf_options_pruned",
          "rf_choices", "rf_rejected_rmw", "rf_rejected_coherence",
          "rf_rejected_precheck", "rf_prefix_rejected",
          "symmetry_collapsed", "co_classes", "executions_enumerated",
          "consistent")

PROGRAMS = {
    **{name: ALL_TESTS[name].program
       for name in ("MP", "SB+mfences", "CAS-chain", "IRIW", "CoWR")},
    "IRIW5": IRIW5.program,
    "CAS5": CAS5.program,
    "PREFIX_CUT": PREFIX_CUT,
    "W5_RR": W5_RR.program,
}

#: W5_RR only completes in representative mode, and must under this.
LIMITS = {"W5_RR": 1000}

GOLDEN = {
    ("MP", "staged", "x86-tso"): (4, 4, 0, 3, 0, 0, 1, 0, 0, 0, 3, 3),
    ("MP", "staged", "arm-cats"): (4, 4, 0, 4, 0, 0, 0, 0, 0, 0, 4, 4),
    ("MP", "dpor", "x86-tso"): (4, 4, 0, 3, 0, 0, 1, 0, 0, 3, 3, 3),
    ("MP", "dpor", "arm-cats"): (4, 4, 0, 4, 0, 0, 0, 0, 0, 4, 4, 4),
    ("SB+mfences", "staged", "x86-tso"):
        (4, 4, 0, 3, 0, 0, 1, 0, 0, 0, 3, 3),
    ("SB+mfences", "staged", "arm-cats"):
        (4, 4, 0, 4, 0, 0, 0, 0, 0, 0, 4, 4),
    ("SB+mfences", "dpor", "x86-tso"):
        (4, 4, 0, 3, 0, 0, 1, 0, 0, 3, 3, 3),
    ("SB+mfences", "dpor", "arm-cats"):
        (4, 4, 0, 4, 0, 0, 0, 0, 0, 4, 4, 4),
    ("CAS-chain", "staged", "x86-tso"):
        (9, 3, 0, 2, 0, 0, 0, 0, 0, 0, 2, 2),
    ("CAS-chain", "staged", "arm-cats"):
        (9, 3, 0, 2, 0, 0, 0, 0, 0, 0, 2, 2),
    ("CAS-chain", "dpor", "x86-tso"):
        (9, 3, 0, 2, 0, 0, 0, 0, 0, 2, 2, 2),
    ("CAS-chain", "dpor", "arm-cats"):
        (9, 3, 0, 2, 0, 0, 0, 0, 0, 2, 2, 2),
    ("IRIW", "staged", "x86-tso"):
        (16, 16, 0, 15, 0, 0, 1, 0, 0, 0, 15, 15),
    ("IRIW", "staged", "arm-cats"):
        (16, 16, 0, 16, 0, 0, 0, 0, 0, 0, 16, 16),
    ("IRIW", "dpor", "x86-tso"):
        (16, 16, 0, 15, 0, 0, 1, 0, 0, 15, 15, 15),
    ("IRIW", "dpor", "arm-cats"):
        (16, 16, 0, 16, 0, 0, 0, 0, 0, 16, 16, 16),
    ("CoWR", "staged", "x86-tso"): (3, 6, 1, 2, 0, 0, 0, 0, 0, 0, 3, 3),
    ("CoWR", "staged", "arm-cats"): (3, 6, 1, 2, 0, 0, 0, 0, 0, 0, 3, 3),
    ("CoWR", "dpor", "x86-tso"): (3, 6, 1, 2, 0, 0, 0, 0, 0, 3, 3, 3),
    ("CoWR", "dpor", "arm-cats"): (3, 6, 1, 2, 0, 0, 0, 0, 0, 3, 3, 3),
    ("IRIW5", "staged", "x86-tso"):
        (64, 64, 0, 57, 0, 0, 7, 0, 0, 0, 57, 57),
    ("IRIW5", "staged", "arm-cats"):
        (64, 64, 0, 64, 0, 0, 0, 0, 0, 0, 64, 64),
    ("IRIW5", "dpor", "x86-tso"):
        (40, 64, 0, 36, 0, 0, 4, 0, 24, 36, 36, 36),
    ("IRIW5", "dpor", "arm-cats"):
        (40, 64, 0, 40, 0, 0, 0, 0, 24, 40, 40, 40),
    ("CAS5", "staged", "x86-tso"):
        (32, 1305, 0, 5, 26, 0, 0, 0, 0, 0, 5, 5),
    ("CAS5", "staged", "arm-cats"):
        (32, 1305, 0, 5, 26, 0, 0, 0, 0, 0, 5, 5),
    ("CAS5", "dpor", "x86-tso"):
        (6, 1305, 0, 1, 4, 0, 0, 0, 26, 1, 1, 1),
    ("CAS5", "dpor", "arm-cats"):
        (6, 1305, 0, 1, 4, 0, 0, 0, 26, 1, 1, 1),
    ("PREFIX_CUT", "staged", "x86-tso"):
        (16, 16, 0, 9, 0, 0, 7, 4, 0, 0, 9, 9),
    ("PREFIX_CUT", "staged", "arm-cats"):
        (16, 16, 0, 9, 0, 0, 7, 4, 0, 0, 9, 9),
    ("PREFIX_CUT", "dpor", "x86-tso"):
        (16, 16, 0, 9, 0, 0, 7, 4, 0, 9, 9, 9),
    ("PREFIX_CUT", "dpor", "arm-cats"):
        (16, 16, 0, 9, 0, 0, 7, 4, 0, 9, 9, 9),
    ("W5_RR", "dpor", "x86-tso"):
        (4, 518400, 0, 36, 0, 0, 0, 0, 0, 36, 36, 36),
    ("W5_RR", "dpor", "arm-cats"):
        (4, 518400, 0, 36, 0, 0, 0, 0, 0, 36, 36, 36),
}


class TestCounterGolden:
    def test_golden_pins_every_field(self):
        assert FIELDS == tuple(
            f.name for f in dataclasses.fields(EnumerationStats))
        assert {name for name, _, _ in GOLDEN} == set(PROGRAMS)

    @pytest.mark.parametrize("cell", GOLDEN, ids="-".join)
    def test_counters_match(self, cell):
        name, reduction, model_name = cell
        program, model = PROGRAMS[name], MODEL_BY_NAME[model_name]
        stats = EnumerationStats()
        if reduction == "dpor":
            reduced_behaviors(program, model, limit=LIMITS.get(name),
                              stats=stats)
        else:
            list(enumerate_consistent(program, model, stats=stats))
        assert dataclasses.astuple(stats) == GOLDEN[cell]


class TestOneSearch:
    """Source-level guard: one walk, one accounting path, no sleep
    sets, no environment knob."""

    RETIRED = re.compile(
        r"REPRO_ENUM_REDUCTION|sleep_skips|SLEEP_FOOTPRINT_CAP")

    def _sources(self):
        sources = sorted(SRC.rglob("*.py"))
        assert SRC / "core" / "enumerate.py" in sources \
            and len(sources) > 50
        return sources

    def test_retired_names_stay_retired(self):
        docs = [REPO / "README.md", REPO / "DESIGN.md"]
        offenders = [str(path.relative_to(REPO))
                     for path in self._sources() + docs
                     if self.RETIRED.search(path.read_text())]
        assert offenders == []

    def test_module_wide_stats_have_one_owner(self):
        users = [str(path.relative_to(SRC)) for path in self._sources()
                 if "_ENUM_STATS" in path.read_text()]
        assert users == ["core/enumerate.py"]

    def test_candidate_limit_is_raised_by_oracle_and_core_only(self):
        raises = sum(
            len(re.findall(r"candidate executions[\s\"f]*exceed",
                           path.read_text()))
            for path in sorted((SRC / "core").rglob("*.py")))
        assert 1 <= raises <= 2

    def test_sweep_harness_does_not_inline_the_naive_loop(self):
        text = (SRC / "workloads" / "parallel.py").read_text()
        assert "enumerate_executions" not in text
