"""Tests of the benchmark itself: ``python -m pytest bench/``.

They run every workload at a reduced size (``--smoke``), so they take
about a minute and are not part of the tier-1 suite.
"""

from __future__ import annotations

import json
import re

import pytest

import harness
import run
from harness import Checks
from workloads import check_exec_hot, check_verify

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")
SPEC = run.SPEC


@pytest.fixture(scope="module")
def report():
    return run.run_all(seed=run.DEFAULT_SEED, seconds=1, smoke=True)


# ----------------------------------------------------------------------
# BENCHMARK.json against the benchmark contract
# ----------------------------------------------------------------------
def test_benchmark_json_meets_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds",
                         "workloads", "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["bench"]
    assert 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    names = [entry["name"] for key in ("workloads", "end_to_end",
                                       "per_layer")
             for entry in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    # the driver's own run count must fit its time limit
    runs = 4 + 22 * len(SPEC["workloads"])
    assert runs * (SPEC["run_seconds"] + 8) <= 3420


# ----------------------------------------------------------------------
# The correctness gate
# ----------------------------------------------------------------------
def _hot_rows(wrong: bool) -> list[dict]:
    rows = [{"kernel": "k", "cell": cell, "checksum": 42,
             "exit_code": 0}
            for cell in ("qemu", "risotto", "risotto-t2", "native")]
    if wrong:
        rows[1]["checksum"] = 43
    return rows


def _verify_cells(flipped: bool) -> list[dict]:
    return [
        {"kind": "dpor", "name": "MP@sc", "error": "", "digest": "a"},
        {"kind": "staged", "name": "MP@sc", "error": "", "digest": "a"},
        {"kind": "scheme", "name": "qemu@x", "error": "", "tests": 21,
         "ok": flipped, "expected": False},
    ]


def test_checker_passes_good_outputs(capsys):
    checks = check_exec_hot(_hot_rows(wrong=False))
    checks.merge(check_verify(_verify_cells(flipped=False)))
    assert (checks.attempted, checks.failed) == (7, 0)
    assert run.emit(checks, {}, []) == 0
    assert json.loads(capsys.readouterr().out)["correct"] is True


def test_checker_fails_a_wrong_checksum_and_a_flipped_verdict(capsys):
    checks = check_exec_hot(_hot_rows(wrong=True))
    assert checks.failed == 1 and "k/risotto" in checks.failures[0]
    checks.merge(check_verify(_verify_cells(flipped=True)))
    assert checks.failed == 2 and checks.failed_share > 0
    assert run.emit(checks, {}, []) != 0
    result = json.loads(capsys.readouterr().out)
    assert result["correct"] is False and result["failed"] == 2


def test_checker_fails_disagreeing_enumerators_and_limit_hits():
    cells = _verify_cells(flipped=False)
    cells[0]["digest"] = "b"
    cells.append({"kind": "dpor", "name": "IRIW@sc", "digest": None,
                  "error": "ModelError: candidate executions exceed "
                           "limit 10"})
    assert check_verify(cells).failed == 2


def test_no_operation_attempted_is_not_a_pass():
    assert Checks().failed_share == 1.0


# ----------------------------------------------------------------------
# Every workload at a reduced size
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_smoke_output_schema(report, workload):
    for kind in ("end_to_end", "per_layer"):
        result = report["workloads"][workload][kind]
        assert set(result) == {"correct", "attempted", "failed",
                               "metrics", "exit_code"}
        assert result["correct"] is True and result["exit_code"] == 0
        assert result["attempted"] >= 1 and result["failed"] == 0
        declared = {m["name"]: m["unit"] for m in SPEC[kind]}
        assert set(result["metrics"]) == set(declared)
        for name, cell in result["metrics"].items():
            assert set(cell) == {"value", "unit"}
            assert cell["unit"] == declared[name]
            assert isinstance(cell["value"], (int, float))
    for name, cell in report["workloads"][workload][
            "end_to_end"]["metrics"].items():
        assert cell["value"] > 0, name


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_layers_sum_to_the_pass_wall(report, workload):
    metrics = {name: cell["value"] for name, cell in report[
        "workloads"][workload]["per_layer"]["metrics"].items()}
    layers = [f"{layer}_s" if layer.startswith("xlat_cache.")
              else f"{layer}.busy_s"
              for layer in harness.LAYERS if layer != "harness"]
    whole = metrics["harness.pass_wall_s"]
    parts = sum(metrics[name] for name in layers) \
        + metrics["harness.other_s"]
    assert parts == pytest.approx(whole, rel=1e-3)
    assert metrics["harness.unattributed_share"] <= 0.10
    assert metrics["failed_share"] == 0


def test_layers_separate_the_workloads(report):
    def layer(workload, name):
        return report["workloads"][workload]["per_layer"][
            "metrics"][name]["value"]

    assert layer("verify_litmus", "machine.busy_s") == 0
    assert layer("verify_litmus", "enumerate.busy_s") > 0
    assert layer("exec_hot", "enumerate.busy_s") == 0
    assert layer("xlat_cold", "xlat_cache.hit_ratio") == 0
    assert layer("xlat_cold", "frontend.blocks") > 0
    assert layer("xlat_warm", "xlat_cache.hit_ratio") == 1
    for name in ("frontend.blocks", "optimizer.tcg_ops_out",
                 "backend.host_insns_emitted", "xlat_cache.misses"):
        assert layer("xlat_warm", name) == 0
    assert layer("serve_mix", "serve.errors") == 0
    assert layer("serve_mix", "xlat_cache.misses") == 0


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_trace_is_a_valid_chrome_trace(report, workload):
    from repro.obs.trace import validate_chrome_trace

    path = harness.OUT_DIR / workload / "trace.json"
    assert validate_chrome_trace(path) > 0


def test_served_latency_is_reconstructed_exactly(report):
    events = json.loads(
        (harness.OUT_DIR / "serve_mix" / "trace.json").read_text())
    requests = [e for e in events["traceEvents"]
                if e["name"] == "serve.request"]
    assert requests
    for event in requests:
        args = event["args"]
        assert args["queue_ms"] + args["exec_ms"] \
            + args["overhead_ms"] == pytest.approx(event["dur"] / 1000)
