"""QPS load harness for the serve front-end.

Replays a deterministic, seed-generated mix of kernel / library / CAS
jobs against a running server at a configurable request rate, over
several pipelined client connections, and reports:

* end-to-end latency percentiles (p50/p95/p99, linear interpolation —
  :func:`percentile` is the unit-tested primitive),
* achieved throughput vs the requested QPS,
* cache-tier and error breakdowns and queue-wait stats straight off
  the typed results.

The machine-readable export reuses the bench pipeline end to end: the
deterministic per-cell quantities (cycles, checksums — identical for
every run of the same seed) are synthesized into
:class:`~repro.workloads.parallel.RunRow` cells and flow through
``bench_payload`` into ``results/bench_serve.json`` with an optional
history record, so the perf sentinel gates the served results exactly
like a local sweep; the host-noisy latency numbers ride in ``extra``,
which the sentinel ignores.
"""

from __future__ import annotations

import argparse
import random
import threading
import time
from collections import Counter
from dataclasses import dataclass, field

from ..errors import ReproError
from ..isa.floatbits import double_to_bits
from ..workloads.casbench import CasConfig
from ..workloads.kernels import KernelSpec
from ..workloads.parallel import RunRow, SweepResult
from .client import ServeClient
from .jobs import JobResult, JobSpec, cas_job, kernel_job, library_job
from .server import ReproServer, ServeConfig

#: The loadgen's kernel shapes: Figure 12 mixes scaled down to serve
#: request size (a few ms each), deterministic like their parents.
_KERNEL_SHAPES: tuple[KernelSpec, ...] = (
    KernelSpec(name="serve-hist", loads=2, stores=1, alu=4, fp=0,
               iterations=60, threads=2, working_set=64),
    KernelSpec(name="serve-linreg", loads=2, stores=0, alu=2, fp=2,
               iterations=60, threads=2, working_set=64),
    KernelSpec(name="serve-stream", loads=1, stores=1, alu=1, fp=0,
               iterations=80, threads=2, working_set=64),
)


#: (function, args, calls) library calls against libm.
_LIBRARY_CALLS: tuple[tuple[str, tuple[int, ...], int], ...] = (
    ("sqrt", (double_to_bits(0.5),), 20),
    ("sin", (double_to_bits(0.5),), 12),
    ("log", (double_to_bits(1.5),), 12),
)

#: CAS configurations: one uncontended, one contended.
_CAS_CONFIGS: tuple[CasConfig, ...] = (
    CasConfig(threads=2, variables=2, attempts=60),
    CasConfig(threads=2, variables=1, attempts=60),
)


@dataclass(frozen=True)
class LoadgenConfig:
    """One load run: rate, volume, tenancy and workload mix."""

    host: str = "127.0.0.1"
    port: int = 7421
    qps: float = 25.0
    jobs: int = 24
    seed: int = 11
    clients: int = 2
    namespace: str = "loadgen"
    variants: tuple[str, ...] = ("qemu", "risotto")
    #: relative weights of (kernel, library, cas) in the mix.
    mix: tuple[float, float, float] = (0.4, 0.4, 0.2)


@dataclass
class LoadgenReport:
    """Everything one load run measured."""

    config: LoadgenConfig
    jobs: list[JobSpec] = field(default_factory=list)
    results: list[JobResult] = field(default_factory=list)
    latencies: list[float] = field(default_factory=list)
    wall_seconds: float = 0.0

    @property
    def errors(self) -> int:
        return sum(1 for r in self.results if not r.ok)

    @property
    def achieved_qps(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return len(self.results) / self.wall_seconds

    def cache_tiers(self) -> dict[str, int]:
        return dict(Counter(r.cache_tier for r in self.results))

    def xlat_totals(self) -> dict[str, int]:
        return {
            "hits": sum(r.xlat_hits for r in self.results),
            "misses": sum(r.xlat_misses for r in self.results),
            "disk_hits": sum(r.xlat_disk_hits for r in self.results),
        }


# ----------------------------------------------------------------------
# Percentile math (unit-tested)
# ----------------------------------------------------------------------
def percentile(values, q: float) -> float:
    """The q-th percentile (0..100) by linear interpolation between
    closest ranks — numpy's default method, dependency-free."""
    if not 0 <= q <= 100:
        raise ReproError(f"percentile q must be in [0, 100], got {q}")
    xs = sorted(values)
    if not xs:
        raise ReproError("percentile of an empty sample")
    if len(xs) == 1:
        return float(xs[0])
    pos = (len(xs) - 1) * (q / 100.0)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    frac = pos - lo
    return float(xs[lo] * (1.0 - frac) + xs[hi] * frac)


def latency_summary(latencies) -> dict:
    """The percentile/mean/extremes block of the report."""
    xs = list(latencies)
    if not xs:
        return {"count": 0}
    return {
        "count": len(xs),
        "p50": percentile(xs, 50),
        "p95": percentile(xs, 95),
        "p99": percentile(xs, 99),
        "mean": sum(xs) / len(xs),
        "min": min(xs),
        "max": max(xs),
    }


# ----------------------------------------------------------------------
# Deterministic job generation
# ----------------------------------------------------------------------
def gen_jobs(config: LoadgenConfig) -> list[JobSpec]:
    """The run's job list — a pure function of (seed, jobs, variants,
    mix, namespace), so two runs of one config replay identical work
    and their per-cell results are bit-comparable."""
    rng = random.Random(config.seed)
    kinds = ("kernel", "library", "cas")
    jobs: list[JobSpec] = []
    for i in range(config.jobs):
        kind = rng.choices(kinds, weights=config.mix)[0]
        variant = rng.choice(config.variants)
        job_id = f"lg-{config.seed}-{i:04d}"
        if kind == "kernel":
            spec = rng.choice(_KERNEL_SHAPES)
            jobs.append(kernel_job(
                spec, variant=variant, seed=7,
                namespace=config.namespace, job_id=job_id))
        elif kind == "library":
            function, args, calls = rng.choice(_LIBRARY_CALLS)
            jobs.append(library_job(
                function, args, calls, variant=variant,
                library="libm", seed=7,
                namespace=config.namespace, job_id=job_id))
        else:
            cas = rng.choice(_CAS_CONFIGS)
            jobs.append(cas_job(
                cas, variant=variant, seed=7,
                namespace=config.namespace, job_id=job_id))
    return jobs


# ----------------------------------------------------------------------
# The replay loop
# ----------------------------------------------------------------------
def _client_worker(config: LoadgenConfig,
                   assigned: list[tuple[int, JobSpec]],
                   epoch: float, out: dict) -> None:
    """One connection's replay: a writer thread paces the sends on
    the global schedule (job *i* goes out at ``epoch + i/qps``) while
    this thread reads the pipelined responses in order, so a slow job
    delays no later send."""
    client = ServeClient(config.host, config.port)
    send_times: dict[int, float] = {}

    def _writer() -> None:
        for index, job in assigned:
            target = epoch + index / config.qps
            delay = target - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            send_times[index] = time.perf_counter()
            client._send({"op": "submit", "job": job.to_json()})

    writer = threading.Thread(target=_writer, daemon=True)
    writer.start()
    try:
        for index, _job in assigned:
            result = client._result_of(client._recv())
            out[index] = (result,
                          time.perf_counter() - send_times[index])
    finally:
        writer.join(timeout=60)
        client.close()


def run_loadgen(config: LoadgenConfig) -> LoadgenReport:
    """Replay the generated mix against the configured server."""
    jobs = gen_jobs(config)
    clients = max(1, min(config.clients, len(jobs)))
    assignments: list[list[tuple[int, JobSpec]]] = \
        [[] for _ in range(clients)]
    for index, job in enumerate(jobs):
        assignments[index % clients].append((index, job))
    out: dict[int, tuple[JobResult, float]] = {}
    epoch = time.perf_counter() + 0.05
    started = time.perf_counter()
    threads = [
        threading.Thread(target=_client_worker,
                         args=(config, assigned, epoch, out),
                         daemon=True)
        for assigned in assignments if assigned
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - started
    if len(out) != len(jobs):
        missing = sorted(set(range(len(jobs))) - set(out))
        raise ReproError(
            f"loadgen lost {len(missing)} of {len(jobs)} responses "
            f"(indexes {missing[:5]}...)")
    ordered = [out[i] for i in range(len(jobs))]
    return LoadgenReport(
        config=config,
        jobs=jobs,
        results=[r for r, _ in ordered],
        latencies=[lat for _, lat in ordered],
        wall_seconds=wall)


# ----------------------------------------------------------------------
# Reporting / export
# ----------------------------------------------------------------------
def synthesized_rows(report: LoadgenReport) -> list[RunRow]:
    """One deterministic RunRow per (benchmark, variant) cell.

    Only spec-determined quantities go in (cycles, fences, checksum —
    the first successful result of each cell; repeats are identical
    by determinism), so the bench history's row metrics gate the
    *served results*, not the host's mood.
    """
    cells: dict[tuple[str, str], JobResult] = {}
    for result in report.results:
        if result.ok:
            cells.setdefault((result.benchmark, result.variant),
                             result)
    rows = []
    for (benchmark, variant), result in sorted(cells.items()):
        rows.append(RunRow(
            benchmark=benchmark,
            variant=variant,
            cycles=result.cycles,
            fence_cycles=result.fence_cycles,
            total_cycles=result.total_cycles,
            checksum=result.checksum,
            exit_code=result.exit_code,
            blocks_translated=result.blocks_translated,
        ))
    return rows


def bench_extra(report: LoadgenReport) -> dict:
    """The free-form (non-gated) block of the export."""
    results = report.results
    queue_waits = [r.queue_seconds for r in results]
    return {
        "requested_qps": report.config.qps,
        "achieved_qps": report.achieved_qps,
        "jobs": len(results),
        "clients": report.config.clients,
        "namespace": report.config.namespace,
        "errors": report.errors,
        "error_codes": dict(Counter(
            r.error.code for r in results
            if not r.ok and r.error is not None)),
        "latency": latency_summary(report.latencies),
        "cache_tiers": report.cache_tiers(),
        "xlat": report.xlat_totals(),
        "queue_seconds": latency_summary(queue_waits),
    }


def bench_config(config: LoadgenConfig) -> dict:
    """The comparability knobs (feeds the history fingerprint)."""
    return {
        "jobs": config.jobs,
        "seed": config.seed,
        "qps": config.qps,
        "clients": config.clients,
        "variants": list(config.variants),
        "namespace": config.namespace,
        "mix": list(config.mix),
    }


def write_report(report: LoadgenReport, path: str,
                 record: bool = False) -> str:
    """``results/bench_serve.json`` through the standard exporter."""
    from ..analysis.export import write_bench_json
    from ..analysis.stats import BenchTable

    rows = synthesized_rows(report)
    table = BenchTable.from_rows("serve", rows)
    sweep = SweepResult(rows=rows, wall_seconds=report.wall_seconds,
                        workers=report.config.clients)
    return str(write_bench_json(
        path, "serve", table=table, sweep=sweep,
        extra=bench_extra(report), config=bench_config(report.config),
        record=record))


def render_report(report: LoadgenReport) -> str:
    lat = latency_summary(report.latencies)
    tiers = report.cache_tiers()
    xlat = report.xlat_totals()
    lines = [
        f"serve loadgen — {len(report.results)} jobs @ "
        f"{report.config.qps:g} qps over {report.config.clients} "
        f"client(s), namespace {report.config.namespace!r}",
        f"  latency  p50 {lat.get('p50', 0) * 1000:8.2f} ms   "
        f"p95 {lat.get('p95', 0) * 1000:8.2f} ms   "
        f"p99 {lat.get('p99', 0) * 1000:8.2f} ms",
        f"  mean {lat.get('mean', 0) * 1000:8.2f} ms   "
        f"min {lat.get('min', 0) * 1000:8.2f} ms   "
        f"max {lat.get('max', 0) * 1000:8.2f} ms",
        f"  throughput {report.achieved_qps:8.2f} qps achieved "
        f"({report.config.qps:g} requested), "
        f"wall {report.wall_seconds:.2f} s",
        f"  errors {report.errors}   cache tiers " + ", ".join(
            f"{tier}={tiers.get(tier, 0)}"
            for tier in ("cold", "disk", "memory", "none")),
        f"  xlat hits={xlat['hits']} misses={xlat['misses']} "
        f"disk_hits={xlat['disk_hits']}",
    ]
    return "\n".join(lines)


# ----------------------------------------------------------------------
# CLI (`python -m repro loadgen`)
# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro loadgen",
        description="Replay a deterministic job mix against a "
                    "repro-serve server at a fixed QPS.")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=7421)
    parser.add_argument("--qps", type=float, default=25.0,
                        help="request rate (default 25)")
    parser.add_argument("--jobs", type=int, default=24,
                        help="total jobs to send (default 24)")
    parser.add_argument("--seed", type=int, default=11,
                        help="mix seed (default 11)")
    parser.add_argument("--clients", type=int, default=2,
                        help="concurrent connections (default 2)")
    parser.add_argument("--namespace", default="loadgen",
                        help="cache namespace the jobs run under")
    parser.add_argument("--variants", default="qemu,risotto",
                        help="comma-separated variant mix")
    parser.add_argument("--bench-json", default=None, metavar="PATH",
                        help="write the machine-readable export here "
                             "(e.g. results/bench_serve.json)")
    parser.add_argument("--record", action="store_true",
                        help="append the export to the bench history")
    parser.add_argument("--spawn", action="store_true",
                        help="spawn an in-process server on an "
                             "ephemeral port instead of connecting")
    parser.add_argument("--workers", type=int, default=None,
                        help="worker count for --spawn (0 = inline)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    variants = tuple(v.strip() for v in args.variants.split(",")
                     if v.strip())
    if not variants:
        raise ReproError(f"empty variant list {args.variants!r}")
    server = None
    host, port = args.host, args.port
    if args.spawn:
        server = ReproServer(ServeConfig(host="127.0.0.1", port=0,
                                         workers=args.workers))
        host, port = server.start_background()
    try:
        config = LoadgenConfig(
            host=host, port=port, qps=args.qps, jobs=args.jobs,
            seed=args.seed, clients=args.clients,
            namespace=args.namespace, variants=variants)
        report = run_loadgen(config)
        print(render_report(report))
        if args.bench_json:
            path = write_report(report, args.bench_json,
                                record=args.record)
            print(f"wrote {path}")
    finally:
        if server is not None:
            server.close()
    return 1 if report.errors else 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
