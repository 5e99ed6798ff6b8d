"""Analysis-layer tests: table math and report rendering."""

import pytest

from repro.analysis import (
    BenchTable,
    aggregate_sweep,
    figure12_report,
    figure15_report,
    mapping_table_report,
    run_stats_footer,
    speedup_report,
)
from repro.errors import ErrorInfo, ReproError
from repro.workloads import JobSpec, RunRow, SweepResult


@pytest.fixture
def table():
    t = BenchTable(name="t")
    for bench, variant, cycles, fences in (
            ("alpha", "qemu", 1000, 400),
            ("alpha", "tcg-ver", 900, 300),
            ("alpha", "no-fences", 500, 0),
            ("alpha", "native", 100, 0),
            ("beta", "qemu", 2000, 200),
            ("beta", "tcg-ver", 1900, 150),
            ("beta", "no-fences", 1500, 0),
            ("beta", "native", 300, 0),
    ):
        t.add(RunRow(benchmark=bench, variant=variant,
                     cycles=cycles, fence_cycles=fences,
                     total_cycles=cycles, checksum=7))
    return t


class TestBenchTable:
    def test_relative_and_speedup(self, table):
        assert table.relative_runtime("alpha", "tcg-ver") == 0.9
        assert table.speedup("alpha", "native") == 10.0

    def test_gains(self, table):
        assert table.gain("alpha", "tcg-ver") == pytest.approx(0.1)
        assert table.average_gain("tcg-ver") == pytest.approx(
            (0.1 + 0.05) / 2)
        assert table.max_gain("tcg-ver") == pytest.approx(0.1)

    def test_fence_share(self, table):
        assert table.rows[("alpha", "qemu")].fence_share == 0.4
        bench, share = table.max_fence_share("qemu")
        assert bench == "alpha" and share == 0.4
        assert table.average_fence_share("qemu") == pytest.approx(0.25)

    def test_benchmarks_and_variants_preserve_order(self, table):
        assert table.benchmarks() == ["alpha", "beta"]
        assert table.variants()[0] == "qemu"

    def test_checksum_consistency(self, table):
        assert table.checksums_consistent("alpha")
        table.add(RunRow(benchmark="alpha", variant="broken",
                         cycles=1, checksum=9))
        assert not table.checksums_consistent("alpha")

    def test_zero_total_cycles_fence_share(self):
        row = RunRow(benchmark="x", variant="v", cycles=10)
        assert row.fence_share == 0.0


class TestSparseTable:
    """Regressions for sparse tables (a variant that did not run on
    every benchmark must not silently poison the statistics)."""

    @pytest.fixture
    def sparse(self, table):
        # gamma ran only under qemu: no tcg-ver cell.
        table.add(RunRow(benchmark="gamma", variant="qemu",
                         cycles=4000, fence_cycles=400,
                         total_cycles=4000, checksum=7))
        return table

    def test_cycles_missing_cell_raises(self, sparse):
        with pytest.raises(ReproError, match="no row for benchmark"):
            sparse.cycles("gamma", "tcg-ver")

    def test_averages_skip_missing_cells(self, sparse):
        # identical to the dense table: gamma contributes no tcg-ver
        # cell, so it must be skipped rather than crash or zero-fill.
        assert sparse.average_gain("tcg-ver") == pytest.approx(
            (0.1 + 0.05) / 2)
        assert sparse.max_gain("tcg-ver") == pytest.approx(0.1)
        assert sparse.average_relative("tcg-ver") == pytest.approx(
            (0.9 + 0.95) / 2)

    def test_fence_share_sees_all_cells_of_variant(self, sparse):
        # gamma has a qemu cell, so fence-share stats include it.
        assert sparse.average_fence_share("qemu") == pytest.approx(
            (0.4 + 0.1 + 0.1) / 3)

    def test_absent_variant_raises_with_inventory(self, table):
        with pytest.raises(ReproError,
                           match=r"no rows for variant 'missing'"):
            table.average_gain("missing")
        with pytest.raises(ReproError, match="variants present"):
            table.average_fence_share("missing")

    def test_no_overlapping_cells_raises(self):
        t = BenchTable(name="t")
        t.add(RunRow(benchmark="a", variant="qemu", cycles=100))
        t.add(RunRow(benchmark="b", variant="risotto", cycles=90))
        with pytest.raises(ReproError):
            t.average_gain("risotto")


class TestReports:
    def test_figure12_report_contents(self, table):
        text = figure12_report(table)
        assert "alpha" in text and "beta" in text
        assert "paper: 6.7%" in text
        assert "freqmine" in text  # the paper reference line

    def test_speedup_report(self, table):
        text = speedup_report(table, "title",
                              variants=("tcg-ver", "native"))
        assert "title" in text
        assert "10.00x" in text

    def test_figure15_report(self):
        series = {
            "qemu": [("1-1", 10e6), ("4-1", 5e6)],
            "risotto": [("1-1", 15e6), ("4-1", 5.2e6)],
        }
        text = figure15_report(series)
        assert "1-1" in text and "paper: 48%" in text

    def test_mapping_tables_mention_all_figures(self):
        text = mapping_table_report()
        for needle in ("Figure 2", "Figure 3", "Figure 7",
                       "DMBST; STR", "RMW1_AL"):
            assert needle in text


class TestSweepAggregation:
    @pytest.fixture
    def sweep(self):
        rows = [
            RunRow(benchmark="alpha", variant="qemu", cycles=1000,
                   fence_cycles=400, total_cycles=1000, checksum=7,
                   wall_seconds=0.5, blocks_translated=10,
                   guest_insns_translated=100, block_dispatches=40,
                   chained_dispatches=30, helper_calls=5,
                   opt_folded=3, opt_mem_eliminated=2,
                   opt_fences_merged=1, opt_dead_removed=4),
            RunRow(benchmark="alpha", variant="risotto", cycles=800,
                   fence_cycles=100, total_cycles=1000, checksum=7,
                   wall_seconds=0.25, blocks_translated=12,
                   guest_insns_translated=120, block_dispatches=50,
                   chained_dispatches=45, helper_calls=2,
                   cache_hits=6, cache_misses=2),
        ]
        return SweepResult(rows=rows, wall_seconds=0.6, workers=3)

    def test_aggregate_sweep(self, sweep):
        stats = aggregate_sweep(sweep)
        assert stats.runs == 2
        assert stats.workers == 3
        assert stats.wall_seconds == 0.6
        assert stats.run_seconds == pytest.approx(0.75)
        assert stats.blocks_translated == 22
        assert stats.guest_insns_translated == 220
        assert stats.block_dispatches == 90
        assert stats.chained_dispatches == 75
        assert stats.helper_calls == 7
        assert stats.opt_folded == 3
        assert stats.fence_cycles == 500
        assert stats.total_cycles == 2000
        assert stats.fence_share == pytest.approx(0.25)
        assert stats.chain_rate == pytest.approx(75 / 90)
        assert stats.cache_hit_rate == pytest.approx(0.75)

    def test_aggregate_bare_iterable(self, sweep):
        # Plain lists of rows work too: workers/wall default.
        stats = aggregate_sweep(list(sweep))
        assert stats.runs == 2
        assert stats.workers == 1
        assert stats.wall_seconds == 0.0

    def test_empty_stats_rates_are_zero(self):
        stats = aggregate_sweep([])
        assert stats.fence_share == 0.0
        assert stats.chain_rate == 0.0
        assert stats.cache_hit_rate == 0.0

    def test_from_rows_builds_table(self, sweep):
        table = BenchTable.from_rows("fig", sweep)
        assert table.benchmarks() == ["alpha"]
        assert table.relative_runtime("alpha", "risotto") == \
            pytest.approx(0.8)
        assert table.checksums_consistent("alpha")

    def test_footer_renders_all_sections(self, sweep):
        text = run_stats_footer(sweep, "unit-test stats")
        assert "--- unit-test stats" in text
        assert "runs: 2" in text
        # Host state stays in the bench export: the footer of a
        # committed results/*.txt is a function of the specs.
        assert "workers:" not in text
        assert "wall:" not in text
        assert "translated: 22 blocks / 220 guest insns" in text
        assert "optimizer: 3 folded" in text
        assert "fence cycles:" in text
        assert "behavior cache: 6 hits / 2 misses" in text

    def test_footer_elides_empty_sections(self):
        rows = [RunRow(benchmark="a", variant="ablation",
                       wall_seconds=0.1)]
        text = run_stats_footer(rows)
        assert "harness stats" in text
        assert "translated:" not in text
        assert "fence cycles:" not in text
        assert "behavior cache:" not in text
        assert "fence cycles by origin:" not in text
        assert "FAILED" not in text


class TestObservabilityFooters:
    """Golden-output tests for the fence-by-origin and failure
    sections added to the harness footer and the Figure 12 report."""

    @pytest.fixture
    def origin_sweep(self):
        rows = [
            RunRow(benchmark="alpha", variant="qemu", cycles=1000,
                   fence_cycles=400, total_cycles=1000, checksum=7,
                   wall_seconds=0.5,
                   fence_origin_cycles={"RMOV->Frr;ld": 300,
                                        "WMOV->Fmw;st": 100}),
            RunRow(benchmark="alpha", variant="risotto", cycles=800,
                   fence_cycles=100, total_cycles=800, checksum=7,
                   wall_seconds=0.25,
                   fence_origin_cycles={"RMOV->ld;Frm": 60,
                                        "fence_merge:strengthen": 40}),
        ]
        failures = [(JobSpec(kind="kernel", benchmark="beta",
                             variant="qemu", seed=3),
                     ErrorInfo("repro", "ReproError: boom"))]
        return SweepResult(rows=rows, wall_seconds=0.6, workers=2,
                           failures=failures)

    def test_footer_by_origin_golden(self, origin_sweep):
        text = run_stats_footer(origin_sweep, "origin stats")
        assert "fence cycles by origin:" in text
        # largest bucket first, aligned columns, share of fence cycles
        assert "  RMOV->Frr;ld                      300 (60.0%)" \
            in text
        assert "  WMOV->Fmw;st                      100 (20.0%)" \
            in text
        assert "  RMOV->ld;Frm                       60 (12.0%)" \
            in text
        assert "  fence_merge:strengthen             40 (8.0%)" in text

    def test_footer_failure_lines(self, origin_sweep):
        text = run_stats_footer(origin_sweep)
        assert "FAILED runs: 1" in text
        assert "  kernel:beta/qemu (seed 3): [repro] " \
            "ReproError: boom" in text

    def test_footer_unaccounted_bucket(self):
        rows = [RunRow(benchmark="a", variant="qemu", cycles=100,
                       fence_cycles=50, total_cycles=100,
                       wall_seconds=0.1,
                       fence_origin_cycles={"RMOV->Frr;ld": 30})]
        text = run_stats_footer(rows)
        assert "[unaccounted]" in text
        assert "20" in text

    def test_figure12_by_origin_footer(self, origin_sweep):
        table = BenchTable.from_rows("fig12", origin_sweep)
        text = figure12_report(table)
        assert "fence cycles by origin (qemu):" in text
        assert "fence cycles by origin (risotto):" in text
        qemu_section = text.split("fence cycles by origin (qemu):")[1] \
            .split("fence cycles by origin (risotto):")[0]
        assert "RMOV->Frr;ld" in qemu_section
        assert "RMOV->ld;Frm" not in qemu_section

    def test_aggregate_merges_origins_across_rows(self, origin_sweep):
        stats = aggregate_sweep(origin_sweep)
        assert stats.fence_cycles_by_origin == {
            "RMOV->Frr;ld": 300, "WMOV->Fmw;st": 100,
            "RMOV->ld;Frm": 60, "fence_merge:strengthen": 40}
        assert sum(stats.fence_cycles_by_origin.values()) == \
            stats.fence_cycles
        assert stats.failed_runs == 1
