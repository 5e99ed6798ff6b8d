"""bench_*.json export roundtrip and obsreport rendering tests."""

import json

import pytest

from repro.analysis import BenchTable
from repro.analysis.export import (
    BENCH_SCHEMA,
    bench_payload,
    load_bench_json,
    write_bench_json,
)
from repro.analysis.obsreport import (
    main,
    render_bench,
    render_file,
    render_trace,
)
from repro.errors import ReproError
from repro.obs.trace import Tracer
from repro.workloads import RunFailure, RunRow, SweepResult


@pytest.fixture
def sweep():
    rows = [
        RunRow(benchmark="alpha", variant="qemu", cycles=1000,
               fence_cycles=400, total_cycles=1000, checksum=7,
               wall_seconds=0.5, blocks_translated=10,
               block_dispatches=40, chained_dispatches=30,
               fence_origin_cycles={"RMOV->Frr;ld": 250,
                                    "WMOV->Fmw;st": 150},
               hot_blocks=((0x400290, 12, 900), (0x400300, 3, 100))),
        RunRow(benchmark="alpha", variant="risotto", cycles=800,
               fence_cycles=100, total_cycles=800, checksum=7,
               wall_seconds=0.25,
               fence_origin_cycles={"RMOV->ld;Frm": 60,
                                    "fence_merge:strengthen": 40}),
        # Native runs execute no translated blocks: their profile is
        # *untracked* (None), not merely empty — exports must keep the
        # distinction visible.
        RunRow(benchmark="alpha", variant="native", cycles=600,
               fence_cycles=0, total_cycles=600, checksum=7,
               wall_seconds=0.2, hot_blocks=None),
    ]
    failures = [RunFailure(kind="kernel", benchmark="beta",
                           variant="qemu", seed=7,
                           error="ReproError: boom",
                           code="repro")]
    return SweepResult(rows=rows, wall_seconds=0.6, workers=2,
                       failures=failures)


@pytest.fixture
def table(sweep):
    return BenchTable.from_rows("fig12", sweep)


class TestExport:
    def test_payload_shape(self, table, sweep):
        payload = bench_payload("fig12", table=table, sweep=sweep)
        assert payload["schema"] == BENCH_SCHEMA
        assert payload["figure"] == "fig12"
        assert payload["baseline"] == table.baseline
        qemu_row = next(r for r in payload["rows"]
                        if r["variant"] == "qemu")
        assert qemu_row["fence_cycles_by_origin"] == {
            "RMOV->Frr;ld": 250, "WMOV->Fmw;st": 150}
        stats = payload["stats"]
        assert stats["runs"] == 3
        assert stats["failed_runs"] == 1
        assert stats["fence_cycles_by_origin"]["RMOV->ld;Frm"] == 60
        assert payload["failures"] == [
            "kernel:beta/qemu (seed 7): [repro] ReproError: boom"]
        assert payload["hot_blocks"]["alpha/qemu"] == [
            [0x400290, 12, 900], [0x400300, 3, 100]]
        # Untracked (native) profiles export an explicit null; tracked-
        # but-empty profiles (risotto's default) are omitted entirely.
        assert payload["hot_blocks"]["alpha/native"] is None
        assert "alpha/risotto" not in payload["hot_blocks"]

    def test_origin_buckets_partition_fence_cycles(self, table):
        for row in table.rows.values():
            assert sum(row.fence_origin_cycles.values()) == \
                row.fence_cycles

    def test_roundtrip(self, tmp_path, table, sweep):
        path = write_bench_json(tmp_path / "results" / "bench.json",
                                "fig12", table=table, sweep=sweep)
        payload = load_bench_json(path)
        assert payload == bench_payload("fig12", table=table,
                                        sweep=sweep)

    def test_load_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "bench.json"
        path.write_text(json.dumps({"schema": "repro-bench/99"}))
        with pytest.raises(ReproError, match="unsupported bench"):
            load_bench_json(path)

    def test_load_rejects_unreadable(self, tmp_path):
        with pytest.raises(ReproError, match="cannot read"):
            load_bench_json(tmp_path / "missing.json")
        garbled = tmp_path / "garbled.json"
        garbled.write_text("{not json")
        with pytest.raises(ReproError, match="cannot read"):
            load_bench_json(garbled)


class TestRenderBench:
    def test_renders_all_sections(self, table, sweep):
        text = render_bench(
            bench_payload("fig12", table=table, sweep=sweep),
            source="bench_fig12.json")
        assert "=== bench export: fig12 (bench_fig12.json) ===" in text
        assert "alpha" in text and "risotto" in text
        assert "runs: 3   failed: 1   workers: 2" in text
        assert "fence cycles by origin:" in text
        assert "RMOV->Frr;ld" in text
        assert "FAILED: kernel:beta/qemu (seed 7): " \
            "[repro] ReproError: boom" in text
        assert "hot blocks" in text and "0x0000400290" in text

    def test_untracked_profile_renders(self, table, sweep):
        # Regression test: native rows export hot_blocks as an
        # explicit null, and the renderer used to crash iterating it.
        payload = bench_payload("fig12", table=table, sweep=sweep)
        assert payload["hot_blocks"]["alpha/native"] is None
        text = render_bench(payload)
        assert "alpha/native: (profile not tracked)" in text

    def test_minimal_payload(self):
        text = render_bench({"figure": "x"})
        assert text == "=== bench export: x (inline) ==="

    def test_config_section_roundtrips(self, table, sweep):
        payload = bench_payload("fig12", table=table, sweep=sweep,
                                config={"iterations": 40, "seed": 7})
        assert payload["config"] == {"iterations": 40, "seed": 7}


class TestRenderTrace:
    def _trace_payload(self):
        tracer = Tracer()
        with tracer.span("dbt.translate", pc=1):
            with tracer.span("dbt.frontend"):
                pass
        tracer.counter("machine.progress", steps=10)
        tracer.instant("mark")
        return {"traceEvents": tracer.to_chrome()["traceEvents"]}

    def test_span_summary(self):
        text = render_trace(self._trace_payload(), source="t.json")
        assert "=== chrome trace (t.json) ===" in text
        assert "(2 spans, 1 counter samples, 1 instants)" in text
        assert "dbt.translate" in text and "dbt.frontend" in text

    def test_invalid_events_rejected(self):
        with pytest.raises(ReproError):
            render_trace({"traceEvents": [{"name": "x"}]})


class TestCli:
    def test_dispatch_on_content(self, tmp_path, table, sweep):
        bench = write_bench_json(tmp_path / "bench_fig12.json",
                                 "fig12", table=table, sweep=sweep)
        tracer = Tracer()
        with tracer.span("dbt.translate"):
            pass
        trace = tracer.write_chrome(tmp_path / "trace.json")
        assert "bench export" in render_file(bench)
        assert "chrome trace" in render_file(trace)

    def test_dispatch_rejects_unknown(self, tmp_path):
        unknown = tmp_path / "other.json"
        unknown.write_text(json.dumps({"hello": 1}))
        with pytest.raises(ReproError, match="neither"):
            render_file(unknown)

    def test_main_prints_and_exits_clean(self, tmp_path, capsys,
                                         table, sweep):
        bench = write_bench_json(tmp_path / "bench.json", "fig12",
                                 table=table, sweep=sweep)
        assert main([str(bench)]) == 0
        out = capsys.readouterr().out
        assert "bench export: fig12" in out

    def test_main_reports_errors(self, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        assert main([str(missing)]) == 1
        err = capsys.readouterr().err
        assert "obsreport:" in err
