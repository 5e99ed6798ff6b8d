"""Append-only, schema-versioned bench-history store.

Every figure harness already writes a machine-readable
``results/bench_<figure>.json`` (:mod:`repro.analysis.export`), but
only the *latest* one — a PR that silently regresses Figure 12 or the
DPOR verify path leaves no durable evidence.  This module keeps the
exports recorded on purpose in ``results/history/<figure>.jsonl``:

* **append-only** — one JSON record per line, never rewritten, so the
  store is a time series that survives re-runs and is trivially
  diffable in CI artefacts;
* **schema-versioned** — every record carries
  :data:`HISTORY_SCHEMA`; readers skip records they do not understand
  instead of misreading them;
* **keyed** — records are identified by figure, per-cell
  ``benchmark/variant`` keys, a :func:`config_fingerprint` of the
  run's configuration, and the git revision that produced them.  The
  regression sentinel (:mod:`repro.obs.sentinel`) only ever compares
  runs with equal fingerprints, so an iteration-count change can never
  masquerade as a perf delta.

The store has one writer, ``python -m repro perf record``
(:func:`record_bench`): running a harness or writing an export never
appends to it, so a committed store changes only when a record is
made on purpose.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import time
from pathlib import Path

from ..errors import ReproError

#: Version tag of one history record.  Bump on breaking layout change.
HISTORY_SCHEMA = "repro-bench-history/1"

#: Default store location relative to the repo/check-out root.
DEFAULT_HISTORY_DIR = Path("results") / "history"

#: Per-cell metrics lifted out of a bench payload's ``rows``.
ROW_METRICS = ("cycles", "fence_cycles", "total_cycles", "checksum")

#: Sweep-level metrics lifted out of a payload's ``stats``.
STAT_METRICS = (
    "fence_cycles",
    "total_cycles",
    "blocks_translated",
    "guest_insns_translated",
    "helper_calls",
    "block_dispatches",
    "enum_candidates_naive",
    "enum_executions",
    "enum_consistent",
    "enum_pruned_fraction",
)


def history_dir(default: Path | str | None = None) -> Path:
    """The store directory: ``default``, else
    :data:`DEFAULT_HISTORY_DIR`."""
    return DEFAULT_HISTORY_DIR if default is None else Path(default)


def config_fingerprint(payload: dict) -> str:
    """A short digest of everything that makes runs comparable.

    Covers the figure name, the payload's explicit ``config`` dict
    (iteration counts, variant subsets, enumeration knobs — whatever
    the harness declared), and the set of per-cell keys.  Measured
    quantities never contribute, so two runs of the same configuration
    always share a fingerprint whatever their numbers.
    """
    basis = {
        "figure": payload.get("figure"),
        "config": payload.get("config") or {},
        "cells": sorted(
            f"{row['benchmark']}/{row['variant']}"
            for row in payload.get("rows", [])
        ),
    }
    canonical = json.dumps(basis, sort_keys=True, default=str)
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


_GIT_REV: str | None = None


def git_rev() -> str:
    """The current short git revision (cached; ``unknown`` outside a
    checkout)."""
    global _GIT_REV
    if _GIT_REV is None:
        try:
            out = subprocess.run(
                ["git", "rev-parse", "--short", "HEAD"],
                capture_output=True, text=True, timeout=10)
            _GIT_REV = out.stdout.strip() if out.returncode == 0 \
                else "unknown"
        except (OSError, subprocess.SubprocessError):
            _GIT_REV = "unknown"
    return _GIT_REV or "unknown"


def history_record(payload: dict, *, rev: str | None = None,
                   note: str = "",
                   recorded_at: str | None = None) -> dict:
    """Normalize one bench payload into a history record."""
    figure = payload.get("figure")
    if not figure:
        raise ReproError("bench payload has no figure name")
    rows: dict[str, dict] = {}
    for row in payload.get("rows", []):
        key = f"{row['benchmark']}/{row['variant']}"
        rows[key] = {m: row[m] for m in ROW_METRICS if m in row}
    stats_in = payload.get("stats") or {}
    stats = {m: stats_in[m] for m in STAT_METRICS if m in stats_in}
    return {
        "schema": HISTORY_SCHEMA,
        "figure": figure,
        "fingerprint": config_fingerprint(payload),
        "rev": git_rev() if rev is None else rev,
        "recorded_at": recorded_at or time.strftime(
            "%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "note": note,
        "config": payload.get("config") or {},
        "rows": rows,
        "stats": stats,
    }


def history_path(figure: str, history: Path | str | None = None) -> Path:
    """Where one figure's records live."""
    return history_dir(history) / f"{figure}.jsonl"


def record_bench(payload: dict, *, history: Path | str | None = None,
                 rev: str | None = None, note: str = "") -> Path:
    """Append one bench payload to the store; returns the file path."""
    record = history_record(payload, rev=rev, note=note)
    path = history_path(record["figure"], history)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")
    return path


def load_history(figure: str,
                 history: Path | str | None = None) -> list[dict]:
    """All readable records of one figure, oldest first.

    Records with an unknown schema tag are skipped (forward
    compatibility); a line that is not JSON at all raises — an
    append-only store should never contain one.
    """
    path = history_path(figure, history)
    if not path.exists():
        return []
    records = []
    for lineno, line in enumerate(path.read_text().splitlines(), 1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except ValueError as exc:
            raise ReproError(
                f"{path}:{lineno}: corrupt history record: {exc}") \
                from None
        if not isinstance(record, dict) \
                or record.get("schema") != HISTORY_SCHEMA:
            continue
        records.append(record)
    return records


def figures_in_history(history: Path | str | None = None) -> list[str]:
    """Figure names with at least one record in the store."""
    root = history_dir(history)
    if not root.is_dir():
        return []
    return sorted(p.stem for p in root.glob("*.jsonl"))


# ----------------------------------------------------------------------
# Trend rendering (``python -m repro perf report``)
# ----------------------------------------------------------------------
def _pct(new: float, old: float) -> str:
    if not old:
        return "n/a"
    return f"{(new - old) / old * 100.0:+.1f}%"


def _trend_lines(records: list[dict], section: str,
                 metric: str) -> list[tuple[str, str, list]]:
    """(key, metric, values-oldest-first) triples for one metric."""
    keys: dict[str, list] = {}
    for record in records:
        cells = record.get(section) or {}
        if section == "stats":
            cells = {"sweep": cells}
        for key, metrics in cells.items():
            if metric in metrics:
                keys.setdefault(key, []).append(metrics[metric])
    return [(key, metric, values)
            for key, values in sorted(keys.items()) if values]


def render_trend(figure: str, records: list[dict],
                 fmt: str = "text") -> str:
    """A per-cell trend table over one figure's history.

    ``fmt`` is ``"text"`` (aligned columns) or ``"md"`` (a GitHub
    markdown table).  Records are grouped by config fingerprint so
    incomparable runs never share a row.
    """
    if fmt not in ("text", "md"):
        raise ReproError(f"unknown trend format {fmt!r} "
                         "(expected 'text' or 'md')")
    lines: list[str] = []
    by_fp: dict[str, list[dict]] = {}
    for record in records:
        by_fp.setdefault(record.get("fingerprint", "?"), []) \
            .append(record)
    if fmt == "md":
        lines.append(f"### {figure}")
    else:
        lines.append(f"=== perf trend: {figure} ===")
    if not records:
        lines.append("(no history records)")
        return "\n".join(lines)
    for fingerprint, group in sorted(by_fp.items()):
        revs = " -> ".join(r.get("rev", "?") for r in group)
        header = (f"fingerprint {fingerprint} "
                  f"({len(group)} records: {revs})")
        rows: list[tuple[str, str, list]] = []
        for metric in ("cycles", "fence_cycles"):
            rows.extend(_trend_lines(group, "rows", metric))
        for metric in ("enum_pruned_fraction", "enum_executions",
                       "total_cycles"):
            rows.extend(_trend_lines(group, "stats", metric))
        if fmt == "md":
            lines.append(f"\n**{header}**\n")
            lines.append("| cell | metric | values (oldest..newest) "
                         "| Δ |")
            lines.append("|---|---|---|---|")
            for key, metric, values in rows:
                series = " → ".join(_fmt_value(v) for v in values)
                lines.append(
                    f"| {key} | {metric} | {series} "
                    f"| {_pct(values[-1], values[0])} |")
        else:
            lines.append(header)
            lines.append(f"  {'cell':28s}{'metric':>22s}"
                         f"{'oldest':>14s}{'newest':>14s}{'Δ':>9s}")
            for key, metric, values in rows:
                lines.append(
                    f"  {key:28s}{metric:>22s}"
                    f"{_fmt_value(values[0]):>14s}"
                    f"{_fmt_value(values[-1]):>14s}"
                    f"{_pct(values[-1], values[0]):>9s}")
    return "\n".join(lines)


def _fmt_value(value) -> str:
    if isinstance(value, float):
        return f"{value:.4f}"
    return str(value)
