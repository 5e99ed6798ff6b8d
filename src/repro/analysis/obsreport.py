"""Render observability artefacts as text reports.

``python -m repro.analysis.obsreport FILE...`` pretty-prints, in the
same text-table style as :mod:`repro.analysis.report`:

* ``bench_*.json`` exports (:mod:`repro.analysis.export`) — per-cell
  rows, the harness aggregate, the fence-by-origin breakdown and hot
  blocks;
* Chrome ``trace_event`` files written by :mod:`repro.obs.trace` —
  validated, then summarized as per-span totals.

Files are dispatched on content, not name, so ``obsreport`` can be
pointed at a whole ``results/`` directory's JSON artefacts.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from ..errors import ReproError
from ..obs.trace import validate_chrome_events
from .export import BENCH_SCHEMA, load_bench_json
from .report import _fence_origin_lines, _fmt_pct


# ----------------------------------------------------------------------
# bench_*.json rendering
# ----------------------------------------------------------------------
def render_bench(payload: dict, source: str = "") -> str:
    """One text report for a bench export payload."""
    lines = [f"=== bench export: {payload.get('figure', '?')} "
             f"({source or 'inline'}) ==="]
    rows = payload.get("rows", [])
    if rows:
        lines.append(
            f"{'benchmark':20s}{'variant':>12s}{'cycles':>14s}"
            f"{'fence%':>9s}")
        for row in rows:
            lines.append(
                f"{row['benchmark']:20s}{row['variant']:>12s}"
                f"{row['cycles']:>14d}"
                f"{_fmt_pct(row.get('fence_share', 0.0)):>9s}")
    stats = payload.get("stats")
    if stats:
        lines.append(
            f"runs: {stats.get('runs', 0)}"
            f"   failed: {stats.get('failed_runs', 0)}"
            f"   workers: {stats.get('workers', 1)}"
            f"   wall: {stats.get('wall_seconds', 0.0):.2f}s")
        by_origin = stats.get("fence_cycles_by_origin") or {}
        if by_origin:
            lines.append(_fence_origin_lines(
                by_origin, stats.get("fence_cycles", 0)))
    for failure in payload.get("failures", []):
        lines.append(f"FAILED: {failure}")
    hot = payload.get("hot_blocks") or {}
    if hot:
        lines.append(render_hot_blocks(hot))
    return "\n".join(lines)


def render_hot_blocks(hot: dict) -> str:
    """Per-run hot-block tables: dispatches and cycle share.

    A run whose profile was never tracked (native runs export an
    explicit ``None``) renders as such — callers no longer need to
    strip those entries before rendering; tracked-but-empty profiles
    are simply omitted.
    """
    lines = ["hot blocks (guest pc, dispatches, cycles, share of "
             "listed):"]
    for run, blocks in sorted(hot.items()):
        if blocks is None:
            lines.append(f"  {run}: (profile not tracked)")
            continue
        if not blocks:
            continue
        total = sum(cycles for _, _, cycles in blocks) or 1
        lines.append(f"  {run}:")
        for pc, dispatches, cycles in blocks:
            lines.append(
                f"    {int(pc):#012x}  {dispatches:>8d}  "
                f"{cycles:>12d}  "
                f"{_fmt_pct(cycles / total).strip():>7s}")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Chrome trace rendering
# ----------------------------------------------------------------------
def render_trace(payload: dict, source: str = "") -> str:
    """Validate a Chrome trace payload and summarize its spans."""
    events = payload.get("traceEvents", [])
    validate_chrome_events(events)
    spans: dict[str, list[float]] = {}
    counters = 0
    instants = 0
    for event in events:
        if event["ph"] == "X":
            bucket = spans.setdefault(event["name"], [0, 0.0])
            bucket[0] += 1
            bucket[1] += event.get("dur", 0)
        elif event["ph"] == "C":
            counters += 1
        elif event["ph"] == "i":
            instants += 1
    lines = [
        f"=== chrome trace ({source or 'inline'}) ===",
        f"events: {len(events)} "
        f"({sum(c for c, _ in spans.values())} spans, "
        f"{counters} counter samples, {instants} instants)",
    ]
    if spans:
        lines.append(f"{'span':32s}{'count':>8s}{'total us':>14s}")
        ranked = sorted(spans.items(),
                        key=lambda item: (-item[1][1], item[0]))
        for name, (count, total_us) in ranked:
            lines.append(f"{name:32s}{count:>8d}{total_us:>14.0f}")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def render_file(path) -> str:
    """Dispatch one JSON artefact to the right renderer."""
    path = Path(path)
    try:
        payload = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise ReproError(f"cannot read {path}: {exc}") from None
    if isinstance(payload, dict) and "traceEvents" in payload:
        return render_trace(payload, source=path.name)
    if isinstance(payload, dict) and \
            payload.get("schema") == BENCH_SCHEMA:
        return render_bench(load_bench_json(path), source=path.name)
    raise ReproError(
        f"{path}: neither a bench export ({BENCH_SCHEMA!r}) nor a "
        f"Chrome trace (no traceEvents key)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.obsreport",
        description="Render bench_*.json exports and Chrome traces "
                    "as text reports.")
    parser.add_argument("files", nargs="+",
                        help="bench_*.json and/or trace JSON files")
    args = parser.parse_args(argv)
    status = 0
    for entry in args.files:
        try:
            print(render_file(entry))
        except ReproError as exc:
            print(f"obsreport: {exc}", file=sys.stderr)
            status = 1
    return status


if __name__ == "__main__":
    raise SystemExit(main())
