"""Tests for the parallel evaluation harness.

The core contract: a sweep's result rows are bit-identical for any
worker count and come back in submission order, because every run
builds a fresh machine seeded by its own spec.
"""

import dataclasses
import multiprocessing
import os
import pickle
import re
import sys

import pytest

from repro.analysis.stats import aggregate_sweep
from repro.errors import ReproError
from repro.obs.trace import Tracer, install_tracer
from repro.serve.jobs import kernel_job, library_job, run_job
from repro.workloads import (
    JobSpec,
    parallel,
    SweepResult,
    ablation_grid,
    cas_grid,
    default_workers,
    execute_spec,
    kernel_grid,
    library_grid,
    run_parallel,
    verify_grid,
)
from repro.workloads.casbench import CasConfig
from repro.workloads.kernels import KernelSpec
from repro.workloads.parallel import (
    LIBRARY_BUILDERS,
    MEMORY_SETUPS,
    deterministic_row,
)

#: A tiny kernel so each worker run stays under a second.
TINY = KernelSpec("tiny", loads=2, stores=1, alu=2, fp=1,
                  iterations=40, threads=2, working_set=64)


class TestRunSpec:
    def test_pickle_roundtrip(self):
        grid = kernel_grid((TINY,), ("qemu", "risotto"))
        for spec in grid:
            clone = pickle.loads(pickle.dumps(spec))
            assert clone == spec

    def test_kernel_grid_order_is_benchmark_major(self):
        other = dataclasses.replace(TINY, name="other")
        grid = kernel_grid((TINY, other), ("qemu", "risotto"))
        assert [(s.benchmark, s.variant) for s in grid] == [
            ("tiny", "qemu"), ("tiny", "risotto"),
            ("other", "qemu"), ("other", "risotto"),
        ]

    def test_library_grid_carries_case_fields(self):
        cases = {"exp-small": ("exp", (7,), 3, None)}
        (spec,) = library_grid(cases, "libm", ("risotto",))
        assert spec.kind == "library"
        assert spec.library == "libm"
        assert spec.function == "exp"
        assert spec.args == (7,)
        assert spec.calls == 3


class TestExecuteSpec:
    def test_unknown_kind_raises(self):
        with pytest.raises(ReproError, match="unknown job kind"):
            execute_spec(JobSpec(kind="nonsense", benchmark="x",
                                 variant="risotto"))

    def test_unknown_library_raises(self):
        spec = library_job("exp", (1,), 1, variant="risotto",
                           library="libzzz")
        with pytest.raises(ReproError, match="unknown library"):
            execute_spec(spec)

    def test_unknown_memory_setup_is_a_typed_request_error(self):
        spec = library_job("exp", (1,), 1, variant="risotto",
                           library="libm", setup="digest-bufer")
        sweep = run_parallel((spec,), workers=1)
        ((failed, failure),) = sweep.failures
        assert failed == spec
        assert failure.code == "bad-request"
        assert "digest-bufer" in failure.message
        assert str(sorted(MEMORY_SETUPS)) in failure.message
        # The serve path runs the same executor: same job, same code.
        served = run_job(library_job(
            "exp", (1,), 1, variant=spec.variant, library="libm",
            setup="digest-bufer"))
        assert not served.ok
        assert served.error.code == failure.code

    def test_missing_kernel_raises(self):
        with pytest.raises(ReproError, match="kernel payload missing"):
            execute_spec(JobSpec(kind="kernel", benchmark="x",
                                 variant="risotto"))

    def test_kernel_row_carries_observability(self):
        (spec,) = kernel_grid((TINY,), ("risotto",))
        row = execute_spec(spec)
        assert row.benchmark == "tiny"
        assert row.variant == "risotto"
        assert row.cycles > 0
        assert row.wall_seconds > 0
        assert row.blocks_translated > 0
        assert row.block_dispatches >= row.blocks_translated
        assert 0.0 <= row.fence_share < 1.0

    def test_namespace_scopes_a_sweep_cell_like_a_job(self, tmp_path,
                                                      monkeypatch):
        from repro.store import DiskStore

        monkeypatch.setenv("REPRO_XLAT_CACHE", str(tmp_path))
        job = kernel_job(TINY, variant="risotto", namespace="tenant")
        (row,) = run_parallel((job,), workers=1, strict=True)
        assert DiskStore(tmp_path / "tenant").entries()
        assert not DiskStore(tmp_path).entries()
        assert run_job(job).cycles == row.cycles

    def test_library_registries_cover_figure_needs(self):
        assert {"libm", "libcrypto", "libsqlite", "standard"} <= \
            set(LIBRARY_BUILDERS)


class TestDeterminism:
    @pytest.fixture(scope="class")
    def grid(self):
        return kernel_grid((TINY,),
                           ("qemu", "tcg-ver", "risotto", "native"))

    @pytest.fixture(scope="class")
    def serial(self, grid):
        return run_parallel(grid, workers=1)

    def test_serial_pool_is_degenerate(self, serial, grid):
        assert serial.workers == 1
        assert len(serial) == len(grid)

    def test_worker_count_does_not_change_rows(self, serial, grid):
        fanned = run_parallel(grid, workers=3)
        assert fanned.workers == 3
        for left, right in zip(serial, fanned):
            # wall time and translation-cache warmth are the two
            # legitimately layout-dependent quantities.
            assert deterministic_row(left) == deterministic_row(right)

    def test_rows_follow_submission_order(self, serial, grid):
        assert [(r.benchmark, r.variant) for r in serial] == \
            [(s.benchmark, s.variant) for s in grid]

    def test_repeated_sweeps_are_identical(self, serial, grid):
        again = run_parallel(grid, workers=1)
        for left, right in zip(serial, again):
            assert deterministic_row(left) == deterministic_row(right)


class TestWorkers:
    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "5")
        assert default_workers() == 5

    def test_env_floor_is_one(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "0")
        assert default_workers() == 1

    def test_env_garbage_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "many")
        with pytest.raises(ReproError, match="REPRO_WORKERS"):
            default_workers()

    def test_unset_uses_cpu_count(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert default_workers() >= 1

    def test_pool_clamped_to_spec_count(self):
        grid = kernel_grid((TINY,), ("risotto",))
        sweep = run_parallel(grid, workers=8)
        assert sweep.workers == 1  # one spec -> degenerate pool

    def test_empty_sweep(self):
        sweep = run_parallel((), workers=4)
        assert len(sweep) == 0
        assert isinstance(sweep, SweepResult)


class TestOtherKinds:
    def test_cas_rows(self):
        config = CasConfig(threads=2, variables=2, attempts=30)
        sweep = run_parallel(cas_grid((config,), ("qemu", "risotto")),
                             workers=2)
        rows = list(sweep)
        assert [r.variant for r in rows] == ["qemu", "risotto"]
        assert all(r.cycles > 0 for r in rows)
        assert all(r.benchmark == "2-2" for r in rows)

    def test_ablation_rows_carry_cache_stats(self):
        label = "drop trailing Frm after loads"
        sweep = run_parallel(ablation_grid((label,)), workers=1)
        (row,) = list(sweep)
        assert row.benchmark == label
        assert row.payload, "ablation should break litmus tests"
        assert row.cache_misses > 0

    def test_unknown_ablation_label(self):
        from repro.errors import ReproError
        sweep_specs = ablation_grid(("no such ablation",))
        sweep = run_parallel(sweep_specs, workers=1)
        assert not sweep.rows
        ((spec, failure),) = sweep.failures
        assert spec.kind == "ablation"
        assert spec.benchmark == "no such ablation"
        assert "no such ablation" in failure.message
        with pytest.raises(ReproError):
            run_parallel(sweep_specs, workers=1, strict=True)


class TestVerifyKind:
    """Sharded verification cells: determinism and digest agreement."""

    NAMES = ("MP", "SB+mfences", "CoWR", "LB-IR")

    def test_sharded_matches_serial(self):
        grid = verify_grid(tests=self.NAMES, models=("x86-tso",))
        serial = run_parallel(grid, workers=1, strict=True)
        fanned = run_parallel(grid, workers=2, strict=True)
        for left, right in zip(serial, fanned):
            assert deterministic_row(left) == deterministic_row(right)
        assert [r.benchmark for r in serial] == list(self.NAMES)
        # Every cell shares one (kind, variant): the pooled sweep still
        # counts each run once.
        assert aggregate_sweep(fanned).runs == len(grid)

    def test_digests_agree_across_reductions(self):
        per_mode = {}
        for reduction in ("dpor", "staged", "naive"):
            grid = verify_grid(tests=self.NAMES[:2],
                               models=("x86-tso",),
                               reduction=reduction)
            sweep = run_parallel(grid, workers=1, strict=True)
            per_mode[reduction] = [
                (row.benchmark, row.payload) for row in sweep
            ]
        assert per_mode["dpor"] == per_mode["staged"]
        assert per_mode["dpor"] == per_mode["naive"]

    def test_rows_carry_enumeration_accounting(self):
        (spec,) = verify_grid(tests=("MP",), models=("x86-tso",))
        row = execute_spec(spec)
        assert row.variant == "x86-tso/dpor"
        assert row.enum_candidates_naive > 0
        assert row.enum_consistent > 0
        digest, count = row.payload
        assert len(digest) == 16 and count > 0

    def test_unknown_litmus_test_raises(self):
        (spec,) = verify_grid(tests=("no-such-litmus",),
                              models=("x86-tso",))
        with pytest.raises(ReproError, match="no-such-litmus"):
            execute_spec(spec)

    def test_unknown_model_raises(self):
        (spec,) = verify_grid(tests=("MP",), models=("pdp11",))
        with pytest.raises(ReproError, match="pdp11"):
            execute_spec(spec)

    def test_failures_are_collected_not_raised(self):
        grid = verify_grid(tests=("MP", "no-such-litmus"),
                           models=("x86-tso",))
        sweep = run_parallel(grid, workers=2)
        assert len(sweep.rows) == 1
        ((spec, failure),) = sweep.failures
        assert spec.kind == "verify"
        assert spec.benchmark == "no-such-litmus"


class TestDeadWorker:
    def test_a_dead_worker_costs_one_cell(self, monkeypatch):
        grid = kernel_grid(
            (TINY, dataclasses.replace(TINY, name="doomed"),
             dataclasses.replace(TINY, name="other")),
            ("qemu", "risotto"))
        serial = run_parallel(grid, workers=1, strict=True)
        doomed = grid[2]
        real = parallel.execute_spec

        def execute(spec):
            if spec == doomed:
                os._exit(3)  # the workers fork after the patch
            return real(spec)

        monkeypatch.setattr(parallel, "execute_spec", execute)
        before = set(multiprocessing.active_children())
        sweep = run_parallel(grid, workers=2)
        assert not set(multiprocessing.active_children()) - before

        ((spec, error),) = sweep.failures
        assert spec == doomed
        assert error.code == "unavailable" and error.retryable
        survivors = [row for row, cell in zip(serial, grid)
                     if cell != doomed]
        assert [deterministic_row(row) for row in sweep] == \
            [deterministic_row(row) for row in survivors]
        named = re.escape("kernel:doomed/qemu (seed 7): [unavailable] "
                          "BrokenProcessPool: ")
        with pytest.raises(ReproError, match=named):
            sweep.raise_failures()
        with pytest.raises(ReproError, match=named):
            run_parallel(grid, workers=2, strict=True)

    def test_slots_and_lanes_survive_a_busy_pool(self):
        # More workers than cores and a short switch interval: a lost
        # slot hangs the sweep, and an unlocked lane check names a
        # worker twice.
        grid = verify_grid(tests=("MP", "SB", "LB", "R") * 3,
                           models=("x86-tso",))
        tracer = Tracer()
        previous = install_tracer(tracer)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            sweep = run_parallel(grid, workers=3, strict=True)
        finally:
            sys.setswitchinterval(interval)
            install_tracer(previous)
        assert [row.benchmark for row in sweep] == \
            [spec.benchmark for spec in grid]
        lanes = [e["pid"] for e in tracer.events if e["ph"] == "M"]
        spans = {e["pid"] for e in tracer.events
                 if e["ph"] == "X" and e["name"] == "run.spec"}
        assert sorted(lanes) == sorted(spans)
        assert len(spans) == 3
