"""The counter path: one declaration, one fold, one export, one executor.

``RunCounters`` is the only place a run counter is declared; ``RunRow``
and ``SweepStats`` inherit it, ``aggregate_sweep`` folds it with
``add`` and the ``stats`` block of every ``bench_*.json`` is written by
iterating its fields.  The first class pins that a declared counter
cannot be lost on the way out (``cache_disk_hits``/``cache_disk_misses``
were summed and printed but never exported while the export named its
keys by hand); the second keeps the hand-written copies, and the twin
kind if-chains under sweeps and jobs, from growing back.
"""

import inspect
import re
from dataclasses import fields
from pathlib import Path

from repro.analysis.export import _sweep_stats, bench_payload
from repro.analysis.stats import RunCounters, SweepStats, aggregate_sweep
from repro.serve.jobs import JobSpec
from repro.workloads import RunRow, RunSpec, SweepResult
from repro.workloads.runner import run_workload

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
COUNTERS = fields(RunCounters)


def _row(variant: str, scale: int) -> RunRow:
    """A row with every counter non-zero and distinct per field."""
    values = {
        f.name: {f"origin-{i}": scale * (i + 1)}
        if f.default_factory is dict else scale * (i + 1)
        for i, f in enumerate(COUNTERS)
    }
    return RunRow(benchmark="alpha", variant=variant, wall_seconds=0.5,
                  **values)


class TestEveryCounterIsExported:
    def test_each_field_reaches_the_stats_block(self):
        sweep = SweepResult(rows=[_row("qemu", 1), _row("risotto", 10)])
        stats = bench_payload("unit", sweep=sweep)["stats"]
        for i, f in enumerate(COUNTERS):
            exported = stats[f.metadata.get("export", f.name)]
            expected = 11 * (i + 1)
            if f.default_factory is dict:
                assert exported == {f"origin-{i}": expected}, f.name
            else:
                assert exported == expected, f.name

    def test_the_two_counters_the_hand_written_export_forgot(self):
        stats = bench_payload(
            "unit", sweep=[_row("qemu", 1)])["stats"]
        assert stats["cache_disk_hits"] and stats["cache_disk_misses"]

    def test_fold_leaves_the_rows_alone(self):
        rows = [_row("qemu", 1), _row("risotto", 10)]
        aggregate_sweep(rows)
        assert rows == [_row("qemu", 1), _row("risotto", 10)]


class TestNoSecondDeclaration:
    def test_subclasses_redeclare_no_counter(self):
        names = {f.name for f in COUNTERS}
        for cls in (RunRow, SweepStats):
            assert RunCounters in cls.__mro__
            assert not names & set(cls.__dict__["__annotations__"])

    def test_fold_and_export_name_no_counter(self):
        for fn in (aggregate_sweep, _sweep_stats):
            words = set(re.findall(r"\w+", inspect.getsource(fn)))
            assert not words & {f.name for f in COUNTERS}, fn.__name__

    def test_one_dispatcher_over_the_machine_kinds(self):
        calls = re.compile(
            r"\brun_(kernel|library_workload|cas_benchmark)\(")
        for module in ("serve/jobs.py", "workloads/parallel.py"):
            assert not calls.findall((SRC / module).read_text()), module
        assert list(inspect.signature(run_workload).parameters) == \
            ["desc", "library"]

    def test_both_descriptions_carry_what_the_executor_reads(self):
        read = set(re.findall(r"\bdesc\.(\w+)",
                              inspect.getsource(run_workload)))
        assert {"kind", "kernel", "library", "setup", "cas"} <= read
        for cls in (RunSpec, JobSpec):
            assert read <= {f.name for f in fields(cls)}, cls.__name__
