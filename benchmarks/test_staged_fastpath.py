"""Staged-enumeration fast path: wall time and pruning over the corpus.

Runs the verifier's enumeration workload — every litmus program under
every paper model — through both paths: the naive rf × co cross
product filtered by the model, and the staged enumerator.  Emits the
verifier stats footer (the candidate counts; the wall times are only
asserted) and asserts the staged path's headline properties: identical
behaviours, strictly fewer materialized executions, no slower overall.
"""

import time

import pytest

from repro.analysis.report import run_stats_footer
from repro.core import ARM, ARM_ORIGINAL, TCG, X86
from repro.core.enumerate import (
    EnumerationStats,
    consistent_executions,
    enumerate_consistent,
)
from repro.core.litmus_library import ALL_TESTS
from repro.api import RunRow

MODELS = (X86, TCG, ARM, ARM_ORIGINAL)


def _sweep_staged():
    stats = EnumerationStats()
    behs = {}
    started = time.perf_counter()
    for name, test in sorted(ALL_TESTS.items()):
        for model in MODELS:
            behs[(name, model.name)] = frozenset(
                ex.full_behavior
                for ex in enumerate_consistent(test.program, model,
                                               stats=stats)
            )
    return time.perf_counter() - started, stats, behs


def _sweep_naive():
    behs = {}
    started = time.perf_counter()
    for name, test in sorted(ALL_TESTS.items()):
        for model in MODELS:
            behs[(name, model.name)] = frozenset(
                ex.full_behavior
                for ex in consistent_executions(test.program, model,
                                                staged=False)
            )
    return time.perf_counter() - started, behs


def test_staged_fastpath_speedup(benchmark, emit_report):
    naive_wall, naive_behs = _sweep_naive()
    staged_wall, stats, staged_behs = benchmark.pedantic(
        _sweep_staged, rounds=1, iterations=1)

    assert staged_behs == naive_behs
    assert stats.executions_enumerated < stats.candidates_naive

    row = RunRow(
        benchmark="litmus-corpus", variant="staged",
        enum_candidates_naive=stats.candidates_naive,
        enum_executions=stats.executions_enumerated,
        enum_rf_pruned=stats.rf_options_pruned,
        enum_rf_rejected=(stats.rf_rejected_rmw
                          + stats.rf_rejected_coherence
                          + stats.rf_rejected_precheck),
    )
    lines = [
        "Staged enumeration fast path — full corpus "
        f"({len(ALL_TESTS)} tests x {len(MODELS)} models)",
        f"naive sweep:  {stats.candidates_naive} candidates",
        f"staged sweep: {stats.executions_enumerated} materialized "
        f"({100 * stats.pruned_fraction:.1f}% pruned)",
        "",
        run_stats_footer([row], title="verifier stats"),
    ]
    emit_report("staged_fastpath", "\n".join(lines))

    # Pathology guard only: at ~0.1 s scale OS jitter swamps tight
    # bounds, so the hard assertion is on materialized work (above)
    # and this just catches an order-of-magnitude regression.
    assert staged_wall <= naive_wall * 3


@pytest.mark.parametrize("name", ("MPQ", "IRIW", "CAS-chain"))
def test_reduction_visible_per_test(name):
    stats = EnumerationStats()
    for model in MODELS:
        list(enumerate_consistent(ALL_TESTS[name].program, model,
                                  stats=stats))
    assert stats.executions_enumerated < stats.candidates_naive
