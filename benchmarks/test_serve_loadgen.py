"""Translation-as-a-service under load: the serve stack end to end.

Spawns a real server (process-pool workers, one job per task), replays
the deterministic loadgen mix against it twice — once against a fresh
cache, once warm — and asserts the serving contract:

* every served result is bit-identical to the direct ``api.submit``
  of the same job (the job *is* the run description);
* the warm replay translates zero blocks (the tenant's persistent
  namespace serves every install);
* the export carries the latency percentiles and a recorded history
  baseline, with the deterministic per-cell quantities gated by the
  perf sentinel like any other figure.
"""

import pytest

from repro import api
from repro.dbt import xlat_cache
from repro.serve import ReproServer, ServeConfig
from repro.serve.loadgen import (
    LoadgenConfig,
    bench_config,
    bench_extra,
    gen_jobs,
    latency_summary,
    render_report,
    run_loadgen,
    synthesized_rows,
)
JOBS = 18
QPS = 30.0


@pytest.fixture()
def fresh_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_XLAT_CACHE", str(tmp_path / "xlat"))
    xlat_cache.reset_stats()
    yield
    xlat_cache.reset_memory()


def test_serve_loadgen(fresh_cache, emit_report, emit_bench):
    from repro.analysis.stats import BenchTable

    server = ReproServer(ServeConfig(port=0, workers=2))
    host, port = server.start_background()
    try:
        config = LoadgenConfig(host=host, port=port, qps=QPS,
                               jobs=JOBS, seed=11, clients=2,
                               namespace="loadgen")
        cold = run_loadgen(config)
        warm = run_loadgen(config)
    finally:
        server.close()

    assert cold.errors == 0
    assert warm.errors == 0
    assert len(cold.results) == len(warm.results) == JOBS

    # Served == direct: every cold result matches an in-process
    # api.submit of the identical job description.
    for job, served in zip(gen_jobs(config), cold.results):
        local = api.submit(job)
        assert served.checksum == local.checksum, job.job_id
        assert served.cycles == local.cycles, job.job_id
        assert served.total_cycles == local.total_cycles, job.job_id

    # Warm replay: the tenant namespace serves every translation —
    # zero blocks go through the pipeline on the second run.
    assert cold.xlat_totals()["misses"] > 0
    assert warm.xlat_totals()["misses"] == 0
    for first, second in zip(cold.results, warm.results):
        assert first.checksum == second.checksum
        assert first.cycles == second.cycles

    # Latency sanity: percentiles exist and are ordered.
    lat = latency_summary(cold.latencies)
    assert 0 < lat["p50"] <= lat["p95"] <= lat["p99"]

    rows = synthesized_rows(cold)
    assert rows
    table = BenchTable.from_rows("serve", rows)
    sweep = api.SweepResult(rows=rows, wall_seconds=cold.wall_seconds,
                            workers=config.clients)
    extra = dict(bench_extra(cold),
                 warm=dict(bench_extra(warm),
                           latency=latency_summary(warm.latencies)))
    emit_bench("serve", table=table, sweep=sweep, extra=extra,
               config=bench_config(config))

    text = "\n".join([
        "Translation-as-a-service loadgen — cold vs warm replay",
        "",
        "cold:", render_report(cold),
        "",
        "warm:", render_report(warm),
    ])
    emit_report("serve", text)
