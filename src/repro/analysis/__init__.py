"""Result aggregation and paper-style reporting."""

from .export import (
    BENCH_SCHEMA,
    bench_payload,
    load_bench_json,
    write_bench_json,
)
from .report import (
    figure12_report,
    figure15_report,
    mapping_table_report,
    run_stats_footer,
    speedup_report,
)
from .stats import BenchTable, SweepStats, aggregate_sweep

__all__ = [
    "BENCH_SCHEMA", "bench_payload", "load_bench_json",
    "write_bench_json",
    "BenchTable", "SweepStats", "aggregate_sweep",
    "figure12_report", "figure15_report", "mapping_table_report",
    "run_stats_footer", "speedup_report",
]
