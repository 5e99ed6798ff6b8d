"""Translation cache warm-vs-cold: the tentpole's headline claim.

Runs a Figure 12 slice twice against a fresh persistent cache: once
cold (every block goes through frontend + optimizer + backend) and
once warm from the disk layer alone (the in-memory LRU is dropped
between runs, as it is between worker processes).  Asserts the
contract: the warm sweep translates zero blocks, every install is a
cache hit, and the rows are bit-identical to the cold sweep.
"""

import time

import pytest

from repro.analysis.report import run_stats_footer
from repro.api import (
    SPEC_BY_NAME,
    deterministic_row,
    kernel_grid,
    run_parallel,
)
from repro.dbt import xlat_cache

BENCHMARKS = ("histogram", "linearregression", "freqmine")
VARIANTS = ("qemu", "tcg-ver", "risotto")


@pytest.fixture()
def fresh_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_XLAT_CACHE", str(tmp_path / "xlat"))
    xlat_cache.reset_stats()
    yield
    xlat_cache.reset_memory()


def _grid():
    specs = tuple(SPEC_BY_NAME[name] for name in BENCHMARKS)
    return kernel_grid(specs, VARIANTS, iterations=60)


def test_warm_sweep_translates_nothing(benchmark, fresh_cache,
                                       emit_report, emit_bench):
    grid = _grid()

    started = time.perf_counter()
    cold = run_parallel(grid, workers=2, strict=True)
    cold_wall = time.perf_counter() - started

    cold_misses = sum(r.xlat_misses for r in cold)
    assert cold_misses > 0
    assert sum(r.xlat_hits for r in cold) == 0

    # Drop the in-memory LRU so the warm sweep proves the *disk*
    # layer — the level new worker processes and new runs start from.
    xlat_cache.reset_memory()

    def _warm():
        started = time.perf_counter()
        sweep = run_parallel(grid, workers=2, strict=True)
        return sweep, time.perf_counter() - started

    warm, warm_wall = benchmark.pedantic(_warm, rounds=1, iterations=1)

    # Headline: zero translations on the warm sweep, every install
    # served from the cache.
    assert sum(r.xlat_misses for r in warm) == 0
    assert sum(r.xlat_hits for r in warm) == \
        sum(r.blocks_translated for r in warm)

    # Bit-identical results: a cache hit must be indistinguishable
    # from a fresh translation in everything but wall time.
    for cold_row, warm_row in zip(cold, warm):
        assert deterministic_row(cold_row) == deterministic_row(warm_row)

    cache = xlat_cache.get_cache()
    entries, entry_bytes = cache.disk_usage()
    lines = [
        "Translation cache warm vs cold — "
        f"{len(BENCHMARKS)} kernels x {len(VARIANTS)} variants",
        f"cold sweep: {cold_misses} blocks translated",
        f"warm sweep: {sum(r.xlat_misses for r in warm)} blocks "
        f"translated, {sum(r.xlat_hits for r in warm)} served from "
        f"cache",
        f"disk store: {entries} entries, {entry_bytes} bytes",
        "",
        run_stats_footer(warm, title="warm sweep harness stats"),
    ]
    emit_report("xlat_cache", "\n".join(lines))
    emit_bench("xlat_cache", sweep=warm, extra={
        "cold_wall_seconds": cold_wall,
        "warm_wall_seconds": warm_wall,
        "cold_blocks_translated": cold_misses,
        "disk_entries": entries,
        "disk_bytes": entry_bytes,
    })


def test_cache_off_every_block_translates(monkeypatch):
    monkeypatch.setenv("REPRO_XLAT_CACHE", "off")
    grid = kernel_grid((SPEC_BY_NAME["histogram"],), ("risotto",),
                       iterations=60)
    sweep = run_parallel(grid, workers=1, strict=True)
    for row in sweep:
        assert row.xlat_hits == 0
        assert row.xlat_misses == row.blocks_translated
