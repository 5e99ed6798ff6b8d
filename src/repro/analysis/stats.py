"""Result aggregation for the evaluation harness.

Collects per-benchmark runs into the exact quantities the paper
reports: run time relative to QEMU (Figure 12), speedup over QEMU
(Figures 13-14), CAS throughput (Figure 15), fence-cost share and
average/maximum gains (Section 7.2's prose numbers).
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING

from ..errors import ReproError

if TYPE_CHECKING:  # a runtime import would be circular
    from ..workloads.parallel import RunRow


@dataclass
class BenchTable:
    """All measurements of one experiment: the sweep's own
    :class:`~repro.workloads.parallel.RunRow` objects, keyed by
    (bench, variant)."""

    name: str
    baseline: str = "qemu"
    rows: dict[tuple[str, str], RunRow] = field(default_factory=dict)

    def add(self, row: RunRow) -> None:
        self.rows[(row.benchmark, row.variant)] = row

    @classmethod
    def from_rows(cls, name: str, rows, baseline: str = "qemu",
                  ) -> "BenchTable":
        """A table of the given rows (a sweep's, or any iterable)."""
        return cls(name=name, baseline=baseline, rows={
            (row.benchmark, row.variant): row for row in rows})

    # ------------------------------------------------------------------
    def benchmarks(self) -> list[str]:
        seen: dict[str, None] = {}
        for bench, _ in self.rows:
            seen.setdefault(bench)
        return list(seen)

    def variants(self) -> list[str]:
        seen: dict[str, None] = {}
        for _, variant in self.rows:
            seen.setdefault(variant)
        return list(seen)

    def cycles(self, benchmark: str, variant: str) -> int:
        row = self.rows.get((benchmark, variant))
        if row is None:
            raise ReproError(
                f"table {self.name!r} has no row for benchmark "
                f"{benchmark!r} variant {variant!r}")
        return row.cycles

    def _cells(self, variant: str,
               need_baseline: bool = False) -> list[str]:
        """Benchmarks with a cell for ``variant`` (and, if asked, the
        baseline too).  Sparse tables — e.g. a sweep with failed runs —
        aggregate over what is present instead of raising ``KeyError``;
        a variant with no rows at all is a harness bug and errors."""
        if variant not in self.variants():
            raise ReproError(
                f"table {self.name!r} has no rows for variant "
                f"{variant!r} (variants present: {self.variants()})")
        cells = [
            b for b in self.benchmarks()
            if (b, variant) in self.rows
            and (not need_baseline or (b, self.baseline) in self.rows)
        ]
        if not cells:
            raise ReproError(
                f"table {self.name!r}: no benchmark has both "
                f"{variant!r} and baseline {self.baseline!r} rows")
        return cells

    # ------------------------------------------------------------------
    def relative_runtime(self, benchmark: str, variant: str) -> float:
        """Run time relative to the baseline (Figure 12's y axis)."""
        return self.cycles(benchmark, variant) / \
            self.cycles(benchmark, self.baseline)

    def speedup(self, benchmark: str, variant: str) -> float:
        """Baseline time / variant time (Figures 13-14's y axis)."""
        return self.cycles(benchmark, self.baseline) / \
            self.cycles(benchmark, variant)

    def gain(self, benchmark: str, variant: str) -> float:
        """Fractional improvement over the baseline."""
        return 1.0 - self.relative_runtime(benchmark, variant)

    # ------------------------------------------------------------------
    def average_gain(self, variant: str) -> float:
        return statistics.mean(
            self.gain(b, variant)
            for b in self._cells(variant, need_baseline=True))

    def max_gain(self, variant: str) -> float:
        return max(self.gain(b, variant)
                   for b in self._cells(variant, need_baseline=True))

    def average_relative(self, variant: str) -> float:
        return statistics.mean(
            self.relative_runtime(b, variant)
            for b in self._cells(variant, need_baseline=True))

    def average_fence_share(self, variant: str) -> float:
        return statistics.mean(
            self.rows[(b, variant)].fence_share
            for b in self._cells(variant))

    def max_fence_share(self, variant: str) -> tuple[str, float]:
        best = max(self._cells(variant),
                   key=lambda b: self.rows[(b, variant)].fence_share)
        return best, self.rows[(best, variant)].fence_share

    def fence_cycles_by_origin(self, variant: str) -> dict[str, int]:
        """Fence cycles summed over benchmarks, split by provenance.

        Values total exactly the variant's summed ``fence_cycles`` —
        each executed DMB is charged to one origin bucket.
        """
        merged: dict[str, int] = {}
        for b in self._cells(variant):
            for origin, cycles in \
                    self.rows[(b, variant)].fence_origin_cycles.items():
                merged[origin] = merged.get(origin, 0) + cycles
        return merged

    def fence_cycles_total(self, variant: str) -> int:
        return sum(self.rows[(b, variant)].fence_cycles
                   for b in self._cells(variant))

    def checksums_consistent(self, benchmark: str) -> bool:
        values = {
            row.checksum for (bench, _), row in self.rows.items()
            if bench == benchmark and row.checksum is not None
        }
        return len(values) <= 1


@dataclass(kw_only=True)
class RunCounters:
    """Every additive quantity of a run, declared once.

    :class:`~repro.workloads.parallel.RunRow` (one run) and
    :class:`SweepStats` (the sum over a sweep) both inherit this block,
    :meth:`add` folds it and :mod:`repro.analysis.export` writes it by
    iterating :func:`dataclasses.fields` — so a new counter is one field
    here plus the field on the producer it is copied from.  Keyword-only,
    so subclasses keep their own required leading fields.
    """

    #: translated-block / dispatch counters from RunStats.
    blocks_translated: int = 0
    guest_insns_translated: int = 0
    block_dispatches: int = 0
    chained_dispatches: int = 0
    helper_calls: int = 0
    #: optimizer work from OptStats.
    opt_folded: int = 0
    opt_mem_eliminated: int = 0
    opt_fences_merged: int = 0
    opt_dead_removed: int = 0
    opt_empty_fences_dropped: int = 0
    opt_helpers_inlined: int = 0
    #: tier-2 (superblock) counters from RunStats; all zero when
    #: tier-2 is off or the variant is native.
    tier2_traces: int = 0
    tier2_trace_blocks: int = 0
    tier2_trace_dispatches: int = 0
    tier2_cycles: int = 0
    fence_cycles: int = 0
    total_cycles: int = 0
    #: fence cycles split by provenance tag (mapping rule / optimizer
    #: decision); values sum exactly to ``fence_cycles`` when every
    #: fence is tagged.  Exported under the key the payload always had.
    fence_origin_cycles: dict = field(
        default_factory=dict,
        metadata={"export": "fence_cycles_by_origin"})
    #: behaviour-memo counters accumulated during the run (litmus
    #: ablations; zero for machine workloads).
    cache_hits: int = 0
    cache_misses: int = 0
    #: translation-cache counters (machine workloads; zero for litmus
    #: ablations).  ``xlat_misses`` counts actual frontend+optimizer+
    #: backend pipeline runs — a fully warm run reports 0 — while
    #: ``blocks_translated`` above counts installs, identical warm or
    #: cold.  These depend on cache warmth, not on the spec: compare
    #: rows via :func:`~repro.workloads.parallel.deterministic_row`.
    xlat_hits: int = 0
    xlat_misses: int = 0
    xlat_disk_hits: int = 0
    #: staged-enumeration counters (litmus ablations; zero elsewhere):
    #: the naive rf × co product size, what was actually materialized,
    #: and the rf-stage cuts that account for the difference.
    enum_candidates_naive: int = 0
    enum_executions: int = 0
    enum_rf_pruned: int = 0
    enum_rf_rejected: int = 0
    #: reduction counters (litmus ablations/verify rows): consistent
    #: executions found, symmetric trace combos collapsed, and
    #: coherence classes explored by the DPOR search.
    enum_consistent: int = 0
    enum_symmetry_collapsed: int = 0
    enum_co_classes: int = 0

    def add(self, other: "RunCounters") -> None:
        """Field-wise ``self += other`` over this block only (the
        subclasses' own fields — identity, wall time — do not sum)."""
        for f in fields(RunCounters):
            mine, theirs = getattr(self, f.name), getattr(other, f.name)
            if isinstance(mine, dict):
                for key, value in theirs.items():
                    mine[key] = mine.get(key, 0) + value
            else:
                setattr(self, f.name, mine + theirs)

    @property
    def fence_share(self) -> float:
        if not self.total_cycles:
            return 0.0
        return self.fence_cycles / self.total_cycles


@dataclass
class SweepStats(RunCounters):
    """Observability aggregate over one sweep's result rows: the
    :class:`RunCounters` block summed, plus what only a sweep has."""

    runs: int = 0
    workers: int = 1
    wall_seconds: float = 0.0
    run_seconds: float = 0.0          # sum of per-run wall times
    #: Cells that failed, in a worker or inline (SweepResult.failures).
    failed_runs: int = 0

    @property
    def fence_cycles_by_origin(self) -> dict:
        """The summed ``fence_origin_cycles``, under the sweep-level
        name the footers and exports use."""
        return self.fence_origin_cycles

    @property
    def chain_rate(self) -> float:
        if not self.block_dispatches:
            return 0.0
        return self.chained_dispatches / self.block_dispatches

    @property
    def cache_hit_rate(self) -> float:
        lookups = self.cache_hits + self.cache_misses
        if not lookups:
            return 0.0
        return self.cache_hits / lookups

    @property
    def enum_pruned_fraction(self) -> float:
        """Share of the naive rf × co product never materialized by the
        staged enumerator."""
        if not self.enum_candidates_naive:
            return 0.0
        return 1.0 - self.enum_executions / self.enum_candidates_naive


def aggregate_sweep(sweep) -> SweepStats:
    """Fold a :class:`~repro.workloads.parallel.SweepResult` (or any
    iterable of rows) into one :class:`SweepStats`."""
    stats = SweepStats(
        workers=getattr(sweep, "workers", 1),
        wall_seconds=getattr(sweep, "wall_seconds", 0.0),
        failed_runs=len(getattr(sweep, "failures", ())),
    )
    for row in sweep:
        stats.runs += 1
        stats.run_seconds += row.wall_seconds
        stats.add(row)
    return stats
