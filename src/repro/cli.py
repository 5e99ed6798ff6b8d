"""The unified ``python -m repro`` command line.

One entry point over the subsystems that already have their own
runners (which keep working unchanged):

* ``run`` — execute a figure sweep through the parallel harness and
  print the paper-style report + stats footer (optionally exporting
  ``bench_*.json``);
* ``serve`` — the translation-as-a-service server (delegates to
  ``python -m repro.serve.server``): typed jobs over a line-delimited
  JSON socket, run on the process pool;
* ``loadgen`` — the QPS load harness against a running server
  (delegates to ``python -m repro.serve.loadgen``);
* ``fuzz`` — the differential fuzzer (delegates to
  ``python -m repro.fuzz``);
* ``obsreport`` — render bench/trace artefacts as text (delegates to
  ``python -m repro.analysis.obsreport``);
* ``perf`` — the performance observatory: record bench exports into
  the append-only history store, check fresh exports against recorded
  baselines with the noise-aware regression sentinel, and render
  trend tables / flamegraph collapsed stacks;
* ``cache`` — inspect or clear the persistent translation cache.

Everything the CLI runs goes through :mod:`repro.api` — it is the
facade's first consumer.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from . import api
from .errors import ReproError

#: Figure sweeps the ``run`` subcommand can regenerate directly (the
#: library figures 13/14 carry their case tables in benchmarks/ and
#: run through pytest).
RUN_FIGURES = ("fig12", "fig15")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Risotto reproduction: sweeps, fuzzing, "
                    "observability and cache maintenance.",
    )
    sub = parser.add_subparsers(dest="command", metavar="command")

    run = sub.add_parser(
        "run", help="run a figure sweep through the parallel harness")
    run.add_argument("figure", choices=RUN_FIGURES,
                     help="which figure's sweep to run")
    run.add_argument("--benchmarks", metavar="A,B,...",
                     help="comma-separated benchmark subset "
                          "(fig12: kernel names)")
    run.add_argument("--variants", metavar="V,W,...",
                     help="comma-separated variant subset "
                          f"(default: all of {api.VARIANT_NAMES})")
    run.add_argument("--iterations", type=int, default=None,
                     help="kernel iteration count override (fig12)")
    run.add_argument("--seed", type=int, default=7,
                     help="run seed (default 7)")
    run.add_argument("--tier2-threshold", type=int, default=0,
                     metavar="N",
                     help="promote blocks dispatched N times to "
                          "tier-2 superblock traces (fig12; default "
                          "0: off)")
    run.add_argument("--workers", type=int, default=None,
                     help="process-pool size (default: REPRO_WORKERS "
                          "or the cpu count)")
    run.add_argument("--bench-json", metavar="PATH",
                     help="write the machine-readable export here")

    verify = sub.add_parser(
        "verify",
        help="sharded Theorem-1 behaviour enumeration over a litmus "
             "corpus")
    verify.add_argument("--corpus", choices=("classic", "large", "all"),
                        default="all",
                        help="classic = the paper corpus, large = the "
                             "5-thread fixtures, all = both (default)")
    verify.add_argument("--tests", metavar="T1,T2,...",
                        help="explicit litmus-test subset (overrides "
                             "--corpus)")
    verify.add_argument("--models", metavar="M1,M2,...",
                        default="x86-tso",
                        help="comma-separated model names "
                             "(default: x86-tso)")
    verify.add_argument("--reduction",
                        choices=("dpor", "staged", "naive"),
                        default="dpor",
                        help="enumeration strategy (default: dpor)")
    verify.add_argument("--workers", type=int, default=None,
                        help="process-pool size (default: "
                             "REPRO_WORKERS or the cpu count)")
    verify.add_argument("--enum-limit", type=int, default=None,
                        metavar="N",
                        help="materialized-candidate cap per cell "
                             "(default: enumerator default)")
    verify.add_argument("--stats-txt", metavar="PATH",
                        help="write the verifier stats report here")
    verify.add_argument("--bench-json", metavar="PATH",
                        help="write the machine-readable export here")
    verify.add_argument("--schemes", nargs="?", const="all",
                        metavar="S1,S2,...",
                        help="sweep the derived mapping-scheme family "
                             "(Theorem-1 corpus check per scheme × "
                             "RMW lowering) instead of the litmus "
                             "grid; optional comma-separated scheme "
                             "subset (default: all)")

    serve = sub.add_parser(
        "serve",
        help="translation-as-a-service server (line-delimited JSON "
             "jobs, run on the process pool)",
        add_help=False)
    serve.add_argument("args", nargs=argparse.REMAINDER)

    loadgen = sub.add_parser(
        "loadgen",
        help="replay a deterministic job mix against a serve server "
             "at a fixed QPS",
        add_help=False)
    loadgen.add_argument("args", nargs=argparse.REMAINDER)

    fuzz = sub.add_parser(
        "fuzz", help="differential fuzzer (python -m repro.fuzz)",
        add_help=False)
    fuzz.add_argument("args", nargs=argparse.REMAINDER)

    obsreport = sub.add_parser(
        "obsreport",
        help="render bench/trace artefacts "
             "(python -m repro.analysis.obsreport)",
        add_help=False)
    obsreport.add_argument("args", nargs=argparse.REMAINDER)

    perf = sub.add_parser(
        "perf",
        help="bench history, regression sentinel and trend reports")
    perf_sub = perf.add_subparsers(dest="perf_command",
                                   metavar="action")
    record = perf_sub.add_parser(
        "record", help="append bench_*.json exports to the history "
                       "store")
    record.add_argument("files", nargs="+", metavar="BENCH_JSON")
    record.add_argument("--history", metavar="DIR",
                        help="history store location (default: "
                             "results/history)")
    record.add_argument("--rev", metavar="REV",
                        help="record under this revision (default: "
                             "git rev-parse --short HEAD)")
    record.add_argument("--note", default="",
                        help="free-form note stored with the record")
    check = perf_sub.add_parser(
        "check", help="compare bench_*.json exports against the "
                      "recorded baselines (exit 1 on regression)")
    check.add_argument("files", nargs="+", metavar="BENCH_JSON")
    check.add_argument("--history", metavar="DIR",
                       help="history store location")
    check.add_argument("--floors", metavar="FILE",
                       help="absolute metric floors: "
                            "{\"floors\": {metric: min}}")
    check.add_argument("--require-baseline", action="store_true",
                       help="fail when a payload has no matching "
                            "history baseline instead of skipping")
    report = perf_sub.add_parser(
        "report", help="render per-bench trend tables and flamegraph "
                       "collapsed stacks")
    report.add_argument("figures", nargs="*", metavar="FIGURE",
                        help="figures to report (default: every "
                             "figure in the store)")
    report.add_argument("--history", metavar="DIR",
                        help="history store location")
    report.add_argument("--format", choices=("text", "md"),
                        default="text",
                        help="trend table format (default text)")
    report.add_argument("--flame", metavar="OUT",
                        help="write a collapsed-stack (flamegraph) "
                             "export of --bench hot-block profiles")
    report.add_argument("--bench", metavar="BENCH_JSON", nargs="+",
                        default=(),
                        help="bench exports whose hot blocks feed "
                             "--flame")

    cache = sub.add_parser(
        "cache", help="persistent cache maintenance")
    cache_sub = cache.add_subparsers(dest="cache_command",
                                     metavar="action")
    stats = cache_sub.add_parser(
        "stats", help="show cache locations, sizes and counters")
    stats.add_argument("--json", action="store_true",
                       help="machine-readable output")
    cache_sub.add_parser(
        "clear", help="remove persisted cache entries")
    return parser


# ----------------------------------------------------------------------
# run
# ----------------------------------------------------------------------
def _csv(value: str | None) -> tuple[str, ...] | None:
    if value is None:
        return None
    items = tuple(v.strip() for v in value.split(",") if v.strip())
    if not items:
        raise ReproError(f"empty list argument {value!r}")
    return items


def _run_specs(args):
    variants = _csv(args.variants) or api.VARIANT_NAMES
    for variant in variants:
        api.resolve_variant(variant)  # fail early, naming valid names
    if args.figure == "fig12":
        specs = api.ALL_SPECS
        if args.benchmarks:
            wanted = _csv(args.benchmarks)
            unknown = set(wanted) - set(api.SPEC_BY_NAME)
            if unknown:
                raise ReproError(
                    f"unknown benchmarks {sorted(unknown)}; expected "
                    f"a subset of {sorted(api.SPEC_BY_NAME)}")
            specs = tuple(api.SPEC_BY_NAME[name] for name in wanted)
        return api.kernel_grid(specs, variants,
                               iterations=args.iterations,
                               seed=args.seed,
                               tier2_threshold=args.tier2_threshold)
    if args.figure == "fig15":
        return api.cas_grid(api.FIGURE15_CONFIGS, variants,
                            seed=args.seed)
    raise ReproError(f"unknown figure {args.figure!r}")  # unreachable


def _announce_outputs(args, figure: str, **export) -> None:
    """The sweep commands' common tail: the ``--bench-json`` export of
    ``figure`` (``export`` is ``write_bench_json``'s keywords) when one
    was asked for, then the environment-requested trace, each announced
    by its path."""
    from .analysis.export import write_bench_json
    from .obs.trace import flush_env_trace

    paths = [write_bench_json(args.bench_json, figure, **export)] \
        if args.bench_json else []
    paths.append(flush_env_trace())
    for path in paths:
        if path:
            print(f"wrote {path}")


def _cmd_run(args) -> int:
    from .analysis import BenchTable, run_stats_footer

    specs = _run_specs(args)
    sweep = api.run_parallel(specs, workers=args.workers, strict=True)
    table = BenchTable.from_rows(args.figure, sweep)
    if args.figure == "fig12":
        from .analysis import figure12_report
        if table.baseline in table.variants():
            print(figure12_report(table))
        else:
            print(_cycles_report(table))
    else:
        from .analysis.report import figure15_report
        series = _fig15_series(sweep)
        print(figure15_report(series))
    print(run_stats_footer(sweep, f"{args.figure} harness stats"))
    _announce_outputs(
        args, args.figure, table=table, sweep=sweep,
        config={
            "benchmarks": sorted({s.benchmark for s in specs}),
            "variants": sorted({s.variant for s in specs}),
            "iterations": args.iterations,
            "seed": args.seed,
            # Off stays null, as the recorded history fingerprints it.
            "tier2_threshold": args.tier2_threshold or None,
        })
    return 0


def _cycles_report(table) -> str:
    """Absolute-cycles table for sweeps that omit the figure's
    baseline variant (relative run times would be undefined)."""
    variants = table.variants()
    lines = [
        f"{table.name} — cycles "
        f"(sweep omits the {table.baseline!r} baseline)",
        f"{'benchmark':18s}" + "".join(f"{v:>14s}" for v in variants),
    ]
    for bench in table.benchmarks():
        cells = "".join(f"{table.cycles(bench, v):14d}"
                        for v in variants)
        lines.append(f"{bench:18s}{cells}")
    return "\n".join(lines)


def _fig15_series(sweep) -> dict:
    """Figure 15's throughput curves from the sweep's rows, as the
    ``variant -> [(config label, ops/s), ...]`` shape
    :func:`~repro.analysis.report.figure15_report` renders."""
    config_by_label = {c.label: c for c in api.FIGURE15_CONFIGS}
    series: dict[str, list[tuple[str, float]]] = {}
    for row in sweep:
        config = config_by_label[row.benchmark]
        series.setdefault(row.variant, []).append(
            (row.benchmark,
             api.throughput_from_cycles(config, row.cycles)))
    return series


# ----------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------
def _verify_tests(args) -> tuple[str, ...]:
    registry = api.verify_registry()
    if args.tests:
        wanted = _csv(args.tests)
        unknown = set(wanted) - set(registry)
        if unknown:
            raise ReproError(
                f"unknown litmus tests {sorted(unknown)}; expected a "
                f"subset of {sorted(registry)}")
        return wanted
    large = {t.name for t in api.FIVE_THREAD_CORPUS}
    if args.corpus == "large":
        return tuple(name for name in registry if name in large)
    if args.corpus == "classic":
        return tuple(name for name in registry if name not in large)
    return tuple(registry)


def _verify_report(sweep, args, stats) -> str:
    """The ``--stats-txt`` report: a function of the grid alone, so
    any worker count writes the same bytes (wall times are in the
    ``--bench-json`` export)."""
    lines = [
        f"sharded verification — reduction={args.reduction}",
        f"{'test':12s} {'model/reduction':24s} {'behs':>5s} "
        f"{'digest':16s} {'naive':>10s} {'materialized':>12s}",
    ]
    for row in sweep:
        digest, count = (row.payload + ("?", 0))[:2] if row.payload \
            else ("?", 0)
        lines.append(
            f"{row.benchmark:12s} {row.variant:24s} {count:5d} "
            f"{digest:16s} {row.enum_candidates_naive:10d} "
            f"{row.enum_executions:12d}")
    lines.append("")
    from .analysis import run_stats_footer
    lines.append(run_stats_footer(sweep, "verify harness stats"))
    lines.append(
        f"pruned fraction: {stats.enum_pruned_fraction:.4f} "
        f"({stats.enum_executions} of {stats.enum_candidates_naive} "
        f"naive candidates materialized)")
    return "\n".join(lines)


def _cmd_schemes(args) -> int:
    """``verify --schemes``: Theorem-1 gate over the derived family.

    Every (scheme × RMW lowering) cell checks the full x86 corpus and
    must land on its *expected* verdict: sound schemes must pass, and
    the negative controls must stay broken — an unexpectedly green
    control means the checker lost its teeth, and fails the gate too.
    """
    from .analysis import run_stats_footer

    names = None if args.schemes == "all" else _csv(args.schemes)
    specs = api.scheme_grid(names, enum_limit=args.enum_limit)
    sweep = api.run_parallel(specs, workers=args.workers, strict=True)

    lines = [
        "scheme-matrix: Theorem-1 corpus checks for the derived "
        "mapping family",
        "",
        f"{'scheme':12s} {'mapping':24s} {'tests':>5s} "
        f"{'verdict':8s} {'expected':8s} {'gate':6s} broken",
    ]
    failures = 0
    rows_extra = {}
    for spec, row in zip(specs, sweep):
        ok, expected, checked = row.payload[:3]
        broken = row.payload[3:]
        gate_ok = ok == expected
        failures += 0 if gate_ok else 1
        verdict = "sound" if ok else "broken"
        wanted = "sound" if expected else "broken"
        mapping = f"most-{spec.benchmark}-{spec.rmw_lowering}"
        lines.append(
            f"{spec.benchmark:12s} {mapping:24s} {checked:5d} "
            f"{verdict:8s} {wanted:8s} "
            f"{'ok' if gate_ok else 'FAIL':6s} "
            f"{', '.join(broken) if broken else '-'}")
        rows_extra[mapping] = {
            "scheme": spec.benchmark,
            "rmw_lowering": spec.rmw_lowering,
            "variant": spec.variant,
            "ok": bool(ok),
            "expected_ok": bool(expected),
            "tests_checked": int(checked),
            "broken_tests": list(broken),
        }
    lines.append("")
    lines.append(run_stats_footer(sweep, "scheme-matrix stats"))
    print("\n".join(lines))

    _announce_outputs(
        args, "schemes", sweep=sweep,
        config={
            "schemes": [spec.benchmark for spec in specs],
            "rmw_lowerings": [spec.rmw_lowering for spec in specs],
            "enum_limit": args.enum_limit,
        },
        extra={
            "gate_failures": failures,
            "verdicts": rows_extra,
        })
    if failures:
        print(f"FAIL: {failures} scheme cell(s) off their expected "
              f"Theorem-1 verdict", file=sys.stderr)
        return 1
    return 0


def _cmd_verify(args) -> int:
    from .analysis.stats import aggregate_sweep

    if args.schemes is not None:
        return _cmd_schemes(args)
    models = _csv(args.models) or ("x86-tso",)
    unknown = set(models) - set(api.MODEL_BY_NAME)
    if unknown:
        raise ReproError(
            f"unknown models {sorted(unknown)}; expected a subset of "
            f"{sorted(api.MODEL_BY_NAME)}")
    specs = api.verify_grid(
        _verify_tests(args), models, reduction=args.reduction,
        enum_limit=args.enum_limit)
    sweep = api.run_parallel(specs, workers=args.workers, strict=True)
    stats = aggregate_sweep(sweep)
    report = _verify_report(sweep, args, stats)
    print(report)
    if args.stats_txt:
        from pathlib import Path
        path = Path(args.stats_txt)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(report + "\n")
        print(f"wrote {path}")
    _announce_outputs(
        args, "verify", sweep=sweep,
        config={
            "reduction": args.reduction,
            "models": list(models),
            "tests": [spec.benchmark for spec in specs],
            "enum_limit": args.enum_limit,
        },
        extra={
            "reduction": args.reduction,
            "models": list(models),
            "tests": [spec.benchmark for spec in specs],
            "pruned_fraction": stats.enum_pruned_fraction,
            "behavior_digests": {
                f"{row.benchmark}|{row.variant}": list(row.payload)
                for row in sweep
            },
        })
    return 0


# ----------------------------------------------------------------------
# perf (history + sentinel + reports)
# ----------------------------------------------------------------------
def _cmd_perf(args) -> int:
    from .analysis.export import load_bench_json
    from .obs import history, sentinel
    from .obs.flame import write_collapsed

    if args.perf_command not in ("record", "check", "report"):
        print("usage: python -m repro perf {record,check,report}",
              file=sys.stderr)
        return 2
    hdir = args.history or None
    if args.perf_command == "record":
        for entry in args.files:
            payload = load_bench_json(entry)
            path = history.record_bench(payload, history=hdir,
                                        rev=args.rev, note=args.note)
            print(f"recorded {payload['figure']} "
                  f"(fingerprint "
                  f"{history.config_fingerprint(payload)}) -> {path}")
        return 0
    if args.perf_command == "check":
        floors = sentinel.load_floors(args.floors) if args.floors \
            else None
        status = 0
        for entry in args.files:
            payload = load_bench_json(entry)
            records = history.load_history(payload["figure"],
                                           history=hdir)
            report = sentinel.check_payload(payload, records,
                                            floors=floors)
            print(report.render(args.require_baseline))
            if not report.ok(args.require_baseline):
                status = 1
        return status
    if args.perf_command == "report":
        figures = tuple(args.figures) \
            or tuple(history.figures_in_history(hdir))
        if not figures and not args.flame:
            print("perf report: no history records found",
                  file=sys.stderr)
            return 1
        for figure in figures:
            records = history.load_history(figure, history=hdir)
            print(history.render_trend(figure, records,
                                       fmt=args.format))
        if args.flame:
            if not args.bench:
                print("perf report: --flame needs --bench "
                      "BENCH_JSON...", file=sys.stderr)
                return 2
            payloads = [load_bench_json(entry)
                        for entry in args.bench]
            path = write_collapsed(args.flame, payloads)
            print(f"wrote {path}")
        return 0
    raise AssertionError(args.perf_command)  # unreachable


# ----------------------------------------------------------------------
# cache
# ----------------------------------------------------------------------
def _cache_stats_payload() -> dict:
    from .dbt import xlat_cache

    # Every counter of XlatCacheStats, by field: one added there shows
    # up here unnamed.  ``disk_entries``/``disk_bytes`` are the active
    # namespace's row of ``namespaces``, so no tenant listed there is
    # counted a second time at the root.
    spaces = api.xlat_cache_namespaces()
    active = spaces.get(xlat_cache.namespace(),
                        {"entries": 0, "bytes": 0})
    return {
        "xlat": {
            "enabled": api.xlat_cache_enabled(),
            "dir": str(api.xlat_cache_dir()),
            **dataclasses.asdict(api.xlat_cache_stats()),
            "disk_entries": active["entries"],
            "disk_bytes": active["bytes"],
            "namespaces": spaces,
        },
    }


def _cmd_cache(args) -> int:
    if args.cache_command == "stats":
        payload = _cache_stats_payload()
        if args.json:
            print(json.dumps(payload, indent=2))
            return 0
        info = payload["xlat"]
        state = "enabled" if info["enabled"] else "disabled"
        print(f"xlat cache ({state}): {info['dir']}")
        print(f"  disk: {info['disk_entries']} entries, "
              f"{info['disk_bytes']} bytes")
        print(f"  this process: {info['hits']} hits / "
              f"{info['misses']} misses")
        for ns, usage in info["namespaces"].items():
            label = ns or "(root)"
            print(f"  namespace {label}: {usage['entries']} "
                  f"entries, {usage['bytes']} bytes")
        return 0
    if args.cache_command == "clear":
        removed = api.clear_xlat_cache()
        api.reset_xlat_memory()
        print(f"translation cache: removed {removed} entries "
              f"from {api.xlat_cache_dir()}")
        return 0
    print("usage: python -m repro cache {stats,clear}",
          file=sys.stderr)
    return 2


# ----------------------------------------------------------------------
def _delegate(command: str):
    """The runner a delegated subcommand forwards its argv to."""
    if command == "fuzz":
        from .fuzz.__main__ import main as fuzz_main
        return fuzz_main
    if command == "obsreport":
        from .analysis.obsreport import main as obsreport_main
        return obsreport_main
    if command == "serve":
        from .serve.server import main as serve_main
        return serve_main
    if command == "loadgen":
        from .serve.loadgen import main as loadgen_main
        return loadgen_main
    return None


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # Delegated subcommands forward their argv untouched; argparse's
    # REMAINDER cannot (it rejects a leading option, bpo-17050).
    if argv:
        runner = _delegate(argv[0])
        if runner is not None:
            return runner(list(argv[1:]))
    parser = build_parser()
    # parse_known_args, not parse_args: REMAINDER drops a *leading*
    # option into the unknown bucket (bpo-17050 again), so a strict
    # parse of e.g. ["fuzz", "--help"] dies with "unrecognized
    # arguments" at the top level instead of reaching the delegate.
    args, unknown = parser.parse_known_args(argv)
    runner = _delegate(args.command or "")
    if runner is not None:
        return runner(list(unknown) + list(args.args))
    if unknown:
        parser.error("unrecognized arguments: " + " ".join(unknown))
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "verify":
        return _cmd_verify(args)
    if args.command == "perf":
        return _cmd_perf(args)
    if args.command == "cache":
        return _cmd_cache(args)
    parser.print_help()
    return 0 if args.command is None else 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
