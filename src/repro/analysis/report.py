"""Paper-style text rendering of benchmark tables and figures.

Every figure harness prints the same rows/series the paper plots, as
plain text tables, so `pytest benchmarks/ --benchmark-only` output can
be compared side by side with the paper's Figures 12-15.
"""

from __future__ import annotations

from .stats import BenchTable, SweepStats, aggregate_sweep


def _fmt_pct(x: float) -> str:
    return f"{100 * x:6.1f}%"


def _fence_origin_lines(by_origin: dict, total: int,
                        indent: str = "  ") -> str:
    """Render a fence-by-origin breakdown, largest bucket first.

    The buckets partition ``total`` exactly (each executed DMB is
    charged to one origin), so the percentages are of the fence
    cycles, not of total run time.
    """
    ranked = sorted(by_origin.items(),
                    key=lambda item: (-item[1], item[0]))
    lines = ["fence cycles by origin:"]
    for origin, cycles in ranked:
        share = cycles / total if total else 0.0
        lines.append(
            f"{indent}{origin:<24s} {cycles:>12d} "
            f"({_fmt_pct(share).strip()})")
    accounted = sum(by_origin.values())
    if accounted != total:
        lines.append(
            f"{indent}[unaccounted]            "
            f"{total - accounted:>12d}")
    return "\n".join(lines)


def run_stats_footer(sweep, title: str = "harness stats") -> str:
    """The observability footer every figure harness prints.

    ``sweep`` is a :class:`~repro.workloads.parallel.SweepResult` (or
    any iterable of result rows): translation and optimizer counters,
    fence-cycle share, and the behaviour-cache and enumeration lines
    when litmus enumeration was involved.  Each row is folded as its
    :func:`~repro.workloads.parallel.deterministic_row`, so the footer
    is a function of the specs: worker count, wall time and cache
    warmth live in the ``bench_*.json`` export instead.
    """
    # workloads.parallel imports this package: a module-level import
    # would be circular.
    from ..workloads.parallel import deterministic_row

    stats: SweepStats = aggregate_sweep(
        [deterministic_row(row) for row in sweep])
    failures = sweep.failure_lines() \
        if getattr(sweep, "failures", ()) else []
    lines = [
        f"--- {title} " + "-" * max(1, 64 - len(title)),
        f"runs: {stats.runs}",
    ]
    if failures:
        lines.append(f"FAILED runs: {len(failures)}")
        lines.extend(f"  {failure}" for failure in failures)
    if stats.blocks_translated or stats.block_dispatches:
        lines.append(
            f"translated: {stats.blocks_translated} blocks / "
            f"{stats.guest_insns_translated} guest insns   "
            f"dispatches: {stats.block_dispatches} "
            f"({_fmt_pct(stats.chain_rate).strip()} chained)   "
            f"helper calls: {stats.helper_calls}")
        lines.append(
            f"optimizer: {stats.opt_folded} folded, "
            f"{stats.opt_mem_eliminated} mem-eliminated, "
            f"{stats.opt_fences_merged} fences merged, "
            f"{stats.opt_dead_removed} dead ops removed")
        if stats.opt_empty_fences_dropped or stats.opt_helpers_inlined:
            lines.append(
                f"           {stats.opt_empty_fences_dropped} empty "
                f"fences dropped, {stats.opt_helpers_inlined} helpers "
                f"inlined")
    if stats.tier2_traces or stats.tier2_trace_dispatches:
        lines.append(
            f"tier-2: {stats.tier2_traces} traces / "
            f"{stats.tier2_trace_blocks} blocks   "
            f"trace dispatches: {stats.tier2_trace_dispatches}   "
            f"cycles in traces: {stats.tier2_cycles}")
    if stats.total_cycles:
        lines.append(
            f"fence cycles: {_fmt_pct(stats.fence_share).strip()} "
            f"of {stats.total_cycles} total cycles")
    if stats.fence_cycles_by_origin:
        lines.append(_fence_origin_lines(
            stats.fence_cycles_by_origin, stats.fence_cycles))
    if stats.cache_hits or stats.cache_misses:
        lines.append(
            f"behavior cache: {stats.cache_hits} hits / "
            f"{stats.cache_misses} misses "
            f"({_fmt_pct(stats.cache_hit_rate).strip()} hit rate)")
    if stats.enum_candidates_naive:
        lines.append(
            f"staged enumeration: {stats.enum_executions} of "
            f"{stats.enum_candidates_naive} naive candidates "
            f"materialized "
            f"({_fmt_pct(stats.enum_pruned_fraction).strip()} pruned; "
            f"{stats.enum_rf_pruned} rf options pruned, "
            f"{stats.enum_rf_rejected} rf choices rejected)")
        if stats.enum_symmetry_collapsed or stats.enum_co_classes:
            lines.append(
                f"reduction: {stats.enum_symmetry_collapsed} symmetric "
                f"combos collapsed, {stats.enum_co_classes} coherence "
                f"classes, "
                f"{stats.enum_consistent} consistent witnesses")
    return "\n".join(lines)


def figure12_report(table: BenchTable) -> str:
    """Run time of each benchmark relative to QEMU (lower is better)."""
    variants = [v for v in ("no-fences", "tcg-ver", "risotto", "native")
                if v in table.variants()]
    lines = [
        "Figure 12 — run time relative to QEMU (lower is better)",
        f"{'benchmark':18s}" + "".join(f"{v:>11s}" for v in variants)
        + f"{'qemu-fence%':>13s}",
    ]
    for bench in table.benchmarks():
        cells = "".join(
            f"{table.relative_runtime(bench, v):11.3f}"
            for v in variants)
        fence = table.rows[(bench, "qemu")].fence_share
        lines.append(f"{bench:18s}{cells}{_fmt_pct(fence):>13s}")
    lines.append("-" * 78)
    if "tcg-ver" in variants:
        lines.append(
            f"tcg-ver gain: avg {_fmt_pct(table.average_gain('tcg-ver'))} "
            f"(paper: 6.7%), max {_fmt_pct(table.max_gain('tcg-ver'))} "
            f"(paper: 19.7%)")
    if "no-fences" in variants:
        worst, share = table.max_fence_share("qemu")
        lines.append(
            f"fence cost share (qemu): avg "
            f"{_fmt_pct(table.average_fence_share('qemu'))} "
            f"(paper: 48%), max {_fmt_pct(share)} on {worst} "
            f"(paper: 75% on freqmine)")
    for variant in ("qemu", "risotto"):
        if variant not in table.variants():
            continue
        by_origin = table.fence_cycles_by_origin(variant)
        if not by_origin:
            continue
        total = table.fence_cycles_total(variant)
        lines.append(_fence_origin_lines(
            by_origin, total).replace(
                "fence cycles by origin:",
                f"fence cycles by origin ({variant}):", 1))
    return "\n".join(lines)


def speedup_report(table: BenchTable, title: str,
                   variants: tuple[str, ...] = ("risotto", "native"),
                   ) -> str:
    """Speedup over QEMU (Figures 13 and 14, higher is better)."""
    lines = [
        title,
        f"{'benchmark':22s}" + "".join(f"{v:>11s}" for v in variants),
    ]
    for bench in table.benchmarks():
        cells = "".join(
            f"{table.speedup(bench, v):10.2f}x" for v in variants)
        lines.append(f"{bench:22s}{cells}")
    return "\n".join(lines)


def figure15_report(series: dict[str, list[tuple[str, float]]]) -> str:
    """CAS throughput per (threads-vars) configuration."""
    variants = list(series)
    configs = [label for label, _ in series[variants[0]]]
    lines = [
        "Figure 15 — CAS throughput (ops/s, higher is better)",
        f"{'config':>8s}" + "".join(f"{v:>12s}" for v in variants),
    ]
    table = {
        variant: dict(points) for variant, points in series.items()
    }
    for config in configs:
        cells = "".join(
            f"{table[v][config] / 1e6:11.1f}M" for v in variants)
        lines.append(f"{config:>8s}{cells}")
    if "qemu" in table and "risotto" in table:
        gains = [
            table["risotto"][c] / table["qemu"][c] - 1 for c in configs
        ]
        uncontended = [
            table["risotto"][c] / table["qemu"][c] - 1
            for c in configs
            if c.split("-")[0] == c.split("-")[1]
        ]
        lines.append(
            f"risotto vs qemu: avg {_fmt_pct(sum(gains) / len(gains))} "
            f"(paper: 14.5%), best uncontended "
            f"{_fmt_pct(max(uncontended))} (paper: 48%)")
    return "\n".join(lines)


def mapping_table_report() -> str:
    """Figures 2, 3 and 7 as text (the mapping-scheme tables)."""
    lines = [
        "Figure 2 — QEMU mappings (x86 -> TCG IR -> Arm)",
        "  RMOV   -> Frr; ld   -> DMBLD; LDR",
        "  WMOV   -> Fmw; st   -> DMBFF; STR",
        "  RMW    -> call      -> BLR; RMW; RET",
        "  MFENCE -> Fsc       -> DMBFF",
        "",
        "Figure 3 — intended Arm-Cats direct mapping",
        "  RMOV -> LDRQ   WMOV -> STRL   RMW -> RMW1_AL   "
        "MFENCE -> DMBFF",
        "",
        "Figure 7 — Risotto's verified mappings",
        "  RMOV   -> ld; Frm   -> LDR; DMBLD",
        "  WMOV   -> Fww; st   -> DMBST; STR",
        "  RMW    -> RMW       -> DMBFF; RMW2; DMBFF  or  RMW1_AL",
        "  MFENCE -> Fsc       -> DMBFF",
    ]
    return "\n".join(lines)
