"""Machine-readable export of benchmark results.

Every figure harness writes one ``results/bench_<figure>.json`` next
to its text report so downstream tooling (plotting, CI artefact diffs,
:mod:`repro.analysis.obsreport`) never has to scrape the text tables.
The payload is schema-versioned: consumers check ``schema`` and reject
what they do not understand instead of misreading it.
"""

from __future__ import annotations

import json
from dataclasses import fields
from pathlib import Path

from ..errors import ReproError
from .stats import BenchTable, RunCounters, aggregate_sweep

#: Version tag of the export payload.  Bump on breaking layout change.
BENCH_SCHEMA = "repro-bench/1"


def _table_rows(table: BenchTable) -> list[dict]:
    rows = []
    for (benchmark, variant), row in sorted(table.rows.items()):
        rows.append({
            "benchmark": benchmark,
            "variant": variant,
            "cycles": row.cycles,
            "fence_cycles": row.fence_cycles,
            "total_cycles": row.total_cycles,
            "fence_share": row.fence_share,
            "checksum": row.checksum,
            "fence_cycles_by_origin": dict(
                sorted(row.fence_origin_cycles.items())),
        })
    return rows


def _sweep_stats(sweep) -> dict:
    """The sweep's ``stats`` block: the sweep-level scalars, then every
    :class:`RunCounters` field in declaration order — a counter declared
    there is exported without being named here."""
    stats = aggregate_sweep(sweep)
    out = {
        "runs": stats.runs,
        "failed_runs": stats.failed_runs,
        "workers": stats.workers,
        "wall_seconds": stats.wall_seconds,
        "run_seconds": stats.run_seconds,
    }
    for f in fields(RunCounters):
        value = getattr(stats, f.name)
        if isinstance(value, dict):
            value = dict(sorted(value.items()))
        out[f.metadata.get("export", f.name)] = value
    out["enum_pruned_fraction"] = stats.enum_pruned_fraction
    return out


def bench_payload(figure: str, table: BenchTable | None = None,
                  sweep=None, series: dict | None = None,
                  extra: dict | None = None,
                  config: dict | None = None) -> dict:
    """Assemble the export dict for one figure.

    ``table`` contributes per-cell rows, ``sweep`` the harness-level
    aggregate, failures and hot blocks, ``series``/``extra`` free-form
    figure data (e.g. Figure 15's throughput curves or prose numbers).
    ``config`` declares the knobs that make runs comparable (iteration
    counts, enumeration limits, …): it feeds the history store's
    :func:`~repro.obs.history.config_fingerprint`, never the measured
    quantities.
    """
    payload: dict = {"schema": BENCH_SCHEMA, "figure": figure}
    if config:
        payload["config"] = dict(config)
    if table is not None:
        payload["baseline"] = table.baseline
        payload["rows"] = _table_rows(table)
    if sweep is not None:
        payload["stats"] = _sweep_stats(sweep)
        if getattr(sweep, "failures", ()):
            payload["failures"] = sweep.failure_lines()
        hot: dict = {}
        for row in sweep:
            blocks = getattr(row, "hot_blocks", ())
            if blocks:
                hot[f"{row.benchmark}/{row.variant}"] = [
                    list(entry) for entry in blocks
                ]
            elif blocks is None:
                # Untracked profile (native rows): export an explicit
                # null so consumers can tell "not tracked" apart from
                # "tracked, no hot blocks" (which is simply omitted).
                hot[f"{row.benchmark}/{row.variant}"] = None
        if hot:
            payload["hot_blocks"] = hot
    if series is not None:
        payload["series"] = series
    if extra:
        payload["extra"] = extra
    return payload


def write_bench_json(path, figure: str, table: BenchTable | None = None,
                     sweep=None, series: dict | None = None,
                     extra: dict | None = None,
                     config: dict | None = None,
                     record: bool = False) -> Path:
    """Write the figure's export payload; returns the path written.

    ``record=True`` additionally appends the payload to the bench
    history store (``history/`` next to the file, or
    ``REPRO_BENCH_HISTORY_DIR``) — the harness ``emit_bench`` fixture
    passes it so every benchmark run leaves a durable perf record;
    ``REPRO_BENCH_HISTORY=0`` switches recording off globally.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = bench_payload(figure, table=table, sweep=sweep,
                            series=series, extra=extra, config=config)
    path.write_text(json.dumps(payload, indent=2, sort_keys=False)
                    + "\n")
    if record:
        from ..obs import history as _history
        if _history.history_enabled():
            _history.record_bench(
                payload,
                history=_history.history_dir(path.parent / "history"))
    return path


def load_bench_json(path) -> dict:
    """Load and schema-check one ``bench_*.json`` payload."""
    path = Path(path)
    try:
        payload = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise ReproError(f"cannot read bench json {path}: {exc}") \
            from None
    schema = payload.get("schema") if isinstance(payload, dict) else None
    if schema != BENCH_SCHEMA:
        raise ReproError(
            f"{path}: unsupported bench schema {schema!r} "
            f"(expected {BENCH_SCHEMA!r})")
    return payload
