"""Unit tests for the loadgen primitives plus one small end-to-end
replay.

``percentile`` is the pure function the serve stack's latency
reporting leans on; it gets exhaustive table tests here.  The end-to-end case replays a tiny mix
against an in-process server and validates the bench export.
"""

import json
import time

import pytest

from repro.analysis.export import load_bench_json
from repro.errors import ReproError
from repro.serve.client import ServeClient
from repro.serve.jobs import JobResult
from repro.serve.loadgen import (
    LoadgenConfig,
    LoadgenReport,
    bench_extra,
    gen_jobs,
    latency_summary,
    percentile,
    run_loadgen,
    synthesized_rows,
    write_report,
)
from repro.serve.server import ReproServer, ServeConfig


class TestPercentile:
    def test_single_value(self):
        assert percentile([42.0], 0) == 42.0
        assert percentile([42.0], 50) == 42.0
        assert percentile([42.0], 100) == 42.0

    def test_extremes_are_min_and_max(self):
        xs = [5.0, 1.0, 3.0, 2.0, 4.0]
        assert percentile(xs, 0) == 1.0
        assert percentile(xs, 100) == 5.0

    def test_linear_interpolation(self):
        xs = [10.0, 20.0, 30.0, 40.0]
        assert percentile(xs, 50) == 25.0
        assert percentile(xs, 25) == pytest.approx(17.5)
        assert percentile(xs, 75) == pytest.approx(32.5)

    def test_exact_rank_no_interpolation(self):
        xs = [10.0, 20.0, 30.0, 40.0, 50.0]
        assert percentile(xs, 50) == 30.0
        assert percentile(xs, 25) == 20.0

    def test_input_order_irrelevant(self):
        assert percentile([3.0, 1.0, 2.0], 50) == \
            percentile([1.0, 2.0, 3.0], 50)

    def test_out_of_range_q(self):
        with pytest.raises(ReproError, match="percentile q"):
            percentile([1.0], -1)
        with pytest.raises(ReproError, match="percentile q"):
            percentile([1.0], 101)

    def test_empty_sample(self):
        with pytest.raises(ReproError, match="empty"):
            percentile([], 50)

    def test_p99_near_max(self):
        xs = [float(i) for i in range(100)]
        assert percentile(xs, 99) == pytest.approx(98.01)


class TestLatencySummary:
    def test_empty(self):
        assert latency_summary([]) == {"count": 0}

    def test_keys_and_ordering(self):
        summary = latency_summary([0.010, 0.020, 0.030])
        assert summary["count"] == 3
        assert summary["min"] <= summary["p50"] <= summary["p95"] \
            <= summary["p99"] <= summary["max"]
        assert summary["mean"] == pytest.approx(0.020)


class TestGenJobs:
    def test_deterministic(self):
        config = LoadgenConfig(jobs=16, seed=11)
        assert gen_jobs(config) == gen_jobs(config)

    def test_seed_changes_the_mix(self):
        a = gen_jobs(LoadgenConfig(jobs=16, seed=11))
        b = gen_jobs(LoadgenConfig(jobs=16, seed=12))
        assert a != b

    def test_jobs_are_valid_and_scoped(self):
        config = LoadgenConfig(jobs=24, seed=11, namespace="lg")
        jobs = gen_jobs(config)
        assert len(jobs) == 24
        kinds = set()
        for i, job in enumerate(jobs):
            job.validate()  # every generated job is well-formed
            kinds.add(job.kind)
            assert job.namespace == "lg"
            assert job.variant in config.variants
            assert job.job_id == f"lg-11-{i:04d}"
        assert kinds == {"kernel", "library", "cas"}

    def test_wire_safe(self):
        for job in gen_jobs(LoadgenConfig(jobs=8, seed=3)):
            payload = json.loads(json.dumps(job.to_json()))
            assert type(job).from_json(payload) == job


def _result(benchmark, variant, checksum=1, ok=True, **kw):
    return JobResult(job_id="", kind="kernel", benchmark=benchmark,
                     variant=variant, seed=7, ok=ok,
                     checksum=checksum, **kw)


class TestSynthesizedRows:
    def test_one_row_per_cell_first_result_wins(self):
        report = LoadgenReport(
            config=LoadgenConfig(),
            results=[_result("k", "qemu", cycles=100),
                     _result("k", "qemu", cycles=100),
                     _result("k", "risotto", cycles=80),
                     _result("j", "qemu", cycles=50)],
            latencies=[0.01] * 4, wall_seconds=1.0)
        rows = synthesized_rows(report)
        assert [(r.benchmark, r.variant) for r in rows] == \
            [("j", "qemu"), ("k", "qemu"), ("k", "risotto")]
        assert rows[1].cycles == 100

    def test_failures_excluded(self):
        report = LoadgenReport(
            config=LoadgenConfig(),
            results=[_result("k", "qemu", ok=False)],
            latencies=[0.01], wall_seconds=1.0)
        assert synthesized_rows(report) == []

    def test_extra_block_shape(self):
        report = LoadgenReport(
            config=LoadgenConfig(qps=10.0, clients=2),
            results=[_result("k", "qemu", xlat_misses=3,
                             cache_tier="cold"),
                     _result("k", "qemu", ok=False)],
            latencies=[0.01, 0.02], wall_seconds=0.5)
        extra = bench_extra(report)
        assert extra["jobs"] == 2
        assert extra["errors"] == 1
        assert extra["achieved_qps"] == pytest.approx(4.0)
        assert extra["cache_tiers"]["cold"] == 1
        assert extra["xlat"]["misses"] == 3
        assert extra["latency"]["count"] == 2
        assert not [key for key in extra if "batch" in key]


class TestEndToEnd:
    def test_replay_and_export(self, tmp_path):
        srv = ReproServer(ServeConfig(port=0, workers=0))
        host, port = srv.start_background()
        try:
            config = LoadgenConfig(
                host=host, port=port, qps=200.0, jobs=6, seed=11,
                clients=2, namespace="", variants=("qemu",))
            report = run_loadgen(config)
        finally:
            srv.close()
        assert len(report.results) == 6
        assert report.errors == 0
        assert len(report.latencies) == 6
        assert all(lat > 0 for lat in report.latencies)
        # Results come back in job order regardless of the client
        # round-robin.
        assert [r.job_id for r in report.results] == \
            [f"lg-11-{i:04d}" for i in range(6)]

        path = write_report(report, tmp_path / "bench_serve.json")
        payload = load_bench_json(path)
        assert payload["figure"] == "serve"
        latency = payload["extra"]["latency"]
        assert set(latency) >= {"count", "p50", "p95", "p99"}
        assert latency["count"] == 6
        assert payload["extra"]["errors"] == 0
        assert payload["config"]["seed"] == 11
        assert payload["rows"]  # per-cell deterministic quantities

    def test_latency_runs_from_the_due_time(self, monkeypatch):
        # Every job is due at once; each send takes 30 ms, so the last
        # of 4 goes out ~90 ms after the first.  Timed from its own
        # late send, that wait would vanish (coordinated omission).
        send = ServeClient._send

        def slow_send(self, request):
            time.sleep(0.03)
            send(self, request)

        monkeypatch.setattr(ServeClient, "_send", slow_send)
        srv = ReproServer(ServeConfig(port=0, workers=0))
        host, port = srv.start_background()
        try:
            report = run_loadgen(LoadgenConfig(
                host=host, port=port, qps=1e6, jobs=4, seed=11,
                clients=1, namespace="", variants=("qemu",),
                mix=(0.0, 0.0, 1.0)))
        finally:
            srv.close()
        assert report.errors == 0
        assert report.latencies[-1] - report.latencies[0] >= 0.06, \
            report.latencies
