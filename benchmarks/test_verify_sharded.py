"""Sharded DPOR verification over the 5-thread corpus.

The point of the reduction layer: litmus programs with five threads
blow the naive rf × co cross product (and even the staged
materialization) past any practical candidate limit, while the
source-DPOR path — canonical trace combos, forced coherence, coherence
value classes — finishes the whole corpus in well under a second.  This
harness pins that separation as executable numbers:

* the naive path *cannot finish* W5+RR inside the candidate limit;
* the staged path cannot finish W4+2RR inside a limit the DPOR path
  fits under comfortably;
* the sharded verifier (2 workers) completes the corpus, its pruned
  fraction stays above the recorded floor in
  ``results/verify_floor.json``, and the DPOR path materializes at
  least 10x fewer candidates than the naive count;
* shard layout never changes the behaviour digests.
"""

import pathlib

import pytest

from repro.analysis import aggregate_sweep, run_stats_footer
from repro.api import deterministic_row, load_floors, run_parallel, \
    verify_grid
from repro.core import X86
from repro.core.corpus_large import FIVE_THREAD_CORPUS, W4_2RR, W5_RR
from repro.core.dpor import reduced_behaviors
from repro.core.enumerate import (
    EnumerationStats,
    enumerate_consistent,
    enumerate_executions,
)
from repro.errors import ModelError

#: The CLI's default safety valve, shared by the CI job.
LIMIT = 100_000
#: A limit the DPOR path fits under on W4+2RR (441 materialized)
#: but the staged path (129,600) does not.
STAGED_LIMIT = 25_000

FLOOR_FILE = pathlib.Path(__file__).resolve().parent.parent \
    / "results" / "verify_floor.json"


def test_naive_cannot_finish_w5_rr():
    # 518,400 candidates: the cross product dies on the limit long
    # before the corpus sweep could ever complete naively.
    with pytest.raises(ModelError, match="exceed limit"):
        list(enumerate_executions(W5_RR.program, limit=LIMIT))


def test_staged_cannot_finish_where_dpor_fits():
    with pytest.raises(ModelError, match="exceed limit"):
        list(enumerate_consistent(W4_2RR.program, X86,
                                  limit=STAGED_LIMIT))
    stats = EnumerationStats()
    behs = reduced_behaviors(W4_2RR.program, X86, limit=STAGED_LIMIT,
                             stats=stats)
    assert behs
    assert stats.executions_enumerated < STAGED_LIMIT


def test_sharded_dpor_verifies_corpus(benchmark, emit_report,
                                      emit_bench):
    names = tuple(test.name for test in FIVE_THREAD_CORPUS)
    grid = verify_grid(tests=names, models=("x86-tso",),
                       enum_limit=LIMIT)
    sweep = benchmark.pedantic(
        lambda: run_parallel(grid, workers=2, strict=True),
        rounds=1, iterations=1)
    assert [row.benchmark for row in sweep] == list(names)

    stats = aggregate_sweep(sweep)
    pruned = stats.enum_pruned_fraction
    # The committed floor reads through the sentinel's floor loader,
    # the same path `python -m repro perf check --floors` uses.
    floor = load_floors(FLOOR_FILE)["enum_pruned_fraction"]
    assert pruned >= floor, (
        f"pruned fraction regressed: {pruned:.4f} < recorded floor "
        f"{floor}"
    )
    # The headline reduction: ≥10x fewer materialized candidates than
    # the naive cross product, corpus-wide.
    assert stats.enum_candidates_naive >= 10 * stats.enum_executions

    # Shard layout must not change what was verified.
    serial = run_parallel(grid, workers=1, strict=True)
    for left, right in zip(serial, sweep):
        assert left.payload == right.payload
        assert deterministic_row(left) == deterministic_row(right)

    lines = [
        "Sharded DPOR verification — 5-thread corpus "
        f"({len(names)} tests, x86-tso, 2 workers)",
        f"{'test':<12} {'naive':>9} {'materialized':>13} "
        f"{'behaviours':>11}",
    ]
    for row in sweep:
        lines.append(
            f"{row.benchmark:<12} {row.enum_candidates_naive:>9} "
            f"{row.enum_executions:>13} {row.payload[1]:>11}"
        )
    lines += [
        f"aggregate: {stats.enum_candidates_naive} naive candidates, "
        f"{stats.enum_executions} materialized "
        f"({100 * pruned:.2f}% pruned, floor {100 * floor:.0f}%)",
        "",
        run_stats_footer(sweep, title="sharded verify stats"),
    ]
    emit_report("verify_sharded", "\n".join(lines))
    emit_bench(
        "verify_sharded", sweep=sweep,
        extra={
            "models": ["x86-tso"],
            "reduction": "dpor",
            "tests": list(names),
            "enum_limit": LIMIT,
            "pruned_fraction": pruned,
            "min_pruned_fraction": floor,
            "behavior_digests": {
                row.benchmark: row.payload[0] for row in sweep
            },
        })
