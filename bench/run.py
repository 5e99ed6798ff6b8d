"""The repository benchmark: five workloads, two clocks, a per-layer
time budget.  bench/README.md says why these workloads and metrics.

One workload, as the benchmark driver runs it::

    python3 bench/run.py --workload exec_hot --seed 11 --seconds 20 --trace 0

prints progress on stderr and, as the last line of stdout, one JSON
object ``{"correct", "attempted", "failed", "metrics"}`` holding every
end-to-end metric (``--trace 0``) or every per-layer metric
(``--trace 1``) of BENCHMARK.json.  Without ``--workload`` every
workload runs both ways, each in a fresh interpreter, and all metrics
are printed by name with their units.  The exit code is non-zero when
any output fails its check.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

from hostspeed import HostSpeed, pin_to_one_cpu

#: Set-up time runs from here: the program's imports come later.
_STARTED = time.perf_counter()
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]
DEFAULT_SEED = 11

#: End-to-end metrics that only some workloads produce read exactly
#: this where they do not apply: the benchmark contract wants every
#: metric from every workload and none of them zero.
NOT_APPLICABLE = 1.0


def scrub_environment() -> None:
    """Every knob the program reads is set here, never inherited;
    workloads that use the translation cache point it at a private
    directory themselves."""
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    os.environ.update({
        "REPRO_XLAT_CACHE": "off",
        "REPRO_BEHAVIOR_CACHE": "off",
        "REPRO_WORKERS": "1",
        "REPRO_TIER2_THRESHOLD": "0",
        "REPRO_TRACE": "0",
    })


def build_workload(name: str, seed: int, smoke: bool, tmp: Path,
                   cpus: set[int]):
    from serve_mix import ServeMix
    from workloads import ExecHot, VerifyLitmus, Xlat

    if name == "exec_hot":
        return ExecHot(seed, smoke, tmp)
    if name in ("xlat_cold", "xlat_warm"):
        return Xlat(seed, smoke, tmp, warm=name == "xlat_warm")
    if name == "verify_litmus":
        return VerifyLitmus(seed, smoke, tmp)
    return ServeMix(seed, smoke, tmp, server_cpus=cpus)


# ----------------------------------------------------------------------
# Metrics of one run
# ----------------------------------------------------------------------
def end_to_end_metrics(workload, measurement, setup_s: float,
                       speed: HostSpeed) -> dict:
    """Every time here is in reference seconds (hostspeed.py)."""
    from repro.serve.loadgen import percentile

    passes = measurement.plain
    latencies = measurement.op_times(speed)
    wall = sum(latencies) if workload.wall_is_sum_of_ops else median(
        speed.reference_seconds(p.start, p.end) for p in passes)
    sim = passes[0].sim
    values = {
        "setup_s": setup_s,
        "wall_s": wall,
        "ops_per_s": median(p.work for p in passes) / wall,
        "latency_p50_ms": percentile(latencies, 50) * 1000.0,
        "latency_p95_ms": percentile(latencies, 95) * 1000.0,
        "peak_rss_mb": workload.peak_rss_mb(),
    }
    for name in ("sim_cycles", "fence_share",
                 "risotto_vs_qemu_cycles", "risotto_vs_native_cycles"):
        values[name] = sim.get(name, NOT_APPLICABLE)
    return values


def per_layer_metrics(workload, measurement, checks,
                      speed: HostSpeed) -> dict:
    from harness import LAYERS

    traced = measurement.median_traced()
    rec = traced.recorder
    # One factor for the whole pass, so the layers still sum to it.
    factor = speed.speed(traced.start, traced.end)
    self_s = {layer: seconds * factor
              for layer, seconds in rec.self_seconds().items()}
    values = {name: 0.0 for name in
              (m["name"] for m in SPEC["per_layer"])}
    values.update(traced.counts)
    values.update(rec.counts)
    for layer in LAYERS:
        if layer.startswith("xlat_cache."):
            values[f"{layer}_s"] = self_s[layer]
        elif layer != "harness":
            values[f"{layer}.busy_s"] = self_s[layer]
    values["loader.build_s"] = workload.loader_s
    values["machine.steps_per_s"] = \
        values["machine.host_insns"] / self_s["machine"] \
        if self_s["machine"] else 0.0
    values["harness.pass_wall_s"] = traced.wall_s * factor
    values["harness.other_s"] = self_s["harness"]
    values["harness.unattributed_share"] = \
        self_s["harness"] / values["harness.pass_wall_s"]
    values["host.speed"] = factor

    def reference_wall(passes) -> float:
        return median(speed.reference_seconds(p.start, p.end)
                      for p in passes)
    values["trace.overhead_share"] = reference_wall(
        measurement.traced) / reference_wall(
        measurement.untraced or measurement.plain) - 1.0
    values["failed_share"] = checks.failed_share
    return values


def run_workload(args) -> int:
    """One workload in this interpreter; the driver's entry point."""
    # Before the program's imports, so that set-up is covered too.
    cpus = pin_to_one_cpu()
    speed = HostSpeed()
    try:
        return measure_workload(args, cpus, speed)
    finally:
        speed.stop()


def measure_workload(args, cpus: set[int], speed: HostSpeed) -> int:
    from harness import OUT_DIR, write_chrome_trace

    tmp = OUT_DIR / f"tmp-{args.workload}-{os.getpid()}"
    scrub_environment()
    # Imports the program; nothing is written before that succeeds.
    workload = build_workload(args.workload, args.seed, args.smoke,
                              tmp, cpus)
    imports_s = speed.reference_seconds(_STARTED, time.perf_counter())
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    try:
        setups = []
        for _ in range(workload.setup_repeats):
            t0 = time.perf_counter()
            workload.setup()
            setups.append(speed.reference_seconds(
                t0, time.perf_counter()))
        setup_s = imports_s + median(setups)
        log(f"{args.workload}: set-up {setup_s:.2f}s "
            f"(imports {imports_s:.2f}s, {len(setups)} set-ups)")
        measurement = workload.measure(args.seconds, bool(args.trace))
        checks = measurement.checks()
        if args.trace:
            values = per_layer_metrics(workload, measurement, checks,
                                       speed)
            events = measurement.median_traced() \
                .recorder.chrome_events() + workload.chrome_events()
            trace_path = OUT_DIR / args.workload / "trace.json"
            write_chrome_trace(trace_path, events)
            log(f"{args.workload}: {len(events)} spans -> "
                f"{trace_path}")
            declared = SPEC["per_layer"]
        else:
            values = end_to_end_metrics(workload, measurement,
                                        setup_s, speed)
            declared = SPEC["end_to_end"]
    finally:
        workload.teardown()
        shutil.rmtree(tmp, ignore_errors=True)
    log(f"{args.workload}: {len(measurement.passes)} passes at "
        f"{speed.speed(_STARTED, time.perf_counter()):.2f}x reference "
        f"speed, {checks.attempted} checks, {checks.failed} failed")
    return emit(checks, values, declared)


def emit(checks, values: dict, declared: list[dict]) -> int:
    """Print the result object; the exit code says whether every
    output passed its check."""
    for failure in checks.failures[:10]:
        log(f"  FAILED {failure}")
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {m["name"]: {"value": values[m["name"]],
                                "unit": m["unit"]}
                    for m in declared},
    }))
    return 0 if checks.failed == 0 else 1


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


# ----------------------------------------------------------------------
# Every workload, both ways
# ----------------------------------------------------------------------
def provenance(seed: int) -> dict:
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
            capture_output=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        rev = "unknown"  # the driver's checkout is not a repository
    return {"nproc": os.cpu_count(), "seed": seed, "git_rev": rev,
            "python": platform.python_version()}


def run_one(workload: str, seed: int, seconds: int, trace: int,
            smoke: bool) -> dict:
    """One workload in a fresh interpreter; its result object."""
    command = [sys.executable, str(BENCH_DIR / "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    if smoke:
        command.append("--smoke")
    done = subprocess.run(command, cwd=ROOT, text=True,
                          stdout=subprocess.PIPE)
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{workload} (trace {trace}) printed no "
                           f"result, exit code {done.returncode}")
    result = json.loads(lines[-1])
    result["exit_code"] = done.returncode
    return result


def run_all(seed: int, seconds: int, smoke: bool) -> dict:
    """``{"provenance", "workloads": {name: {"end_to_end",
    "per_layer"}}}`` over every workload."""
    report = {"provenance": provenance(seed), "workloads": {}}
    for name in WORKLOAD_NAMES:
        report["workloads"][name] = {
            "end_to_end": run_one(name, seed, seconds, 0, smoke),
            "per_layer": run_one(name, seed, seconds, 1, smoke),
        }
    return report


def print_report(report: dict) -> None:
    print(" ".join(f"{k}={v}" for k, v in
                   report["provenance"].items()))
    for name, runs in report["workloads"].items():
        for kind, result in runs.items():
            print(f"\n{name} {kind}: correct={result['correct']} "
                  f"attempted={result['attempted']} "
                  f"failed={result['failed']}")
            for metric, cell in result["metrics"].items():
                print(f"  {metric:32s} {cell['value']:>18.6f} "
                      f"{cell['unit']}")


def report_ok(report: dict) -> bool:
    return all(result["correct"] and result["exit_code"] == 0
               for runs in report["workloads"].values()
               for result in runs.values())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int,
                        default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced sizes, for the tests in bench/")
    args = parser.parse_args(argv)
    if args.workload is None:
        report = run_all(args.seed, args.seconds, args.smoke)
        print_report(report)
        out = ROOT / ".bench_out" / "report.json"
        out.parent.mkdir(exist_ok=True)
        out.write_text(json.dumps(report, indent=1))
        return 0 if report_ok(report) else 1
    # The program under test is ../src; it is an error for it to be
    # missing (a directory holding only the benchmark's own files).
    sys.path.insert(0, str(ROOT / "src"))
    return run_workload(args)


if __name__ == "__main__":
    raise SystemExit(main())
