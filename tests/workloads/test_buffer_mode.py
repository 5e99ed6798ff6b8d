"""Regression: the store-buffer mode must reach every engine.

``NativeRunner`` used to ignore its caller's buffer mode and build the
machine with the default — so "native" bars in a TSO or SC sweep
silently ran under WEAK buffering while every DBT variant honoured the
spec.  These tests pin the whole path: engine constructors, the
``_make_engine`` parity guard, the workload entry points and the
``JobSpec`` plumbing of the parallel harness.
"""

import dataclasses

import pytest

from repro.api import run_kernel
from repro.dbt import DBTEngine, NativeRunner, VARIANT_NAMES, VARIANTS
from repro.machine.weakmem import BufferMode
from repro.workloads import execute_spec, kernel_job, runner
from repro.workloads.kernels import KernelSpec
from repro.workloads.runner import _make_engine

MODES = (BufferMode.TSO, BufferMode.WEAK, BufferMode.NONE)

#: Small enough for a per-mode end-to-end run.
TINY = KernelSpec("tiny", loads=2, stores=1, alu=2, fp=1,
                  iterations=20, threads=2, working_set=64)


class TestEngineConstructors:
    @pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
    def test_native_runner_honours_buffer_mode(self, mode):
        # The headline regression: NativeRunner built its Machine
        # without forwarding buffer_mode, so this failed for TSO/NONE.
        runner = NativeRunner(n_cores=2, buffer_mode=mode)
        assert runner.machine.buffer_mode is mode
        for core in runner.machine.cores:
            assert core.buffer.mode is mode

    @pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
    def test_dbt_engine_honours_buffer_mode(self, mode):
        engine = DBTEngine(VARIANTS["risotto"], n_cores=2,
                           buffer_mode=mode)
        assert engine.machine.buffer_mode is mode


class TestMakeEngineParity:
    @pytest.mark.parametrize("variant", VARIANT_NAMES)
    @pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
    def test_every_variant_gets_the_requested_mode(self, variant, mode):
        engine = _make_engine(variant, n_cores=2, seed=7, costs=None,
                              buffer_mode=mode)
        assert engine.machine.buffer_mode is mode


class TestWorkloadEntryPoints:
    def test_run_kernel_native_runs_under_tso(self):
        # End to end: the kernel actually executes on a TSO machine.
        outcome = run_kernel(TINY, variant="native",
                             buffer_mode=BufferMode.TSO)
        assert outcome.result.exit_code == 0

    def test_native_and_dbt_modes_agree_per_spec(self):
        # Same checksum whatever the buffer mode — the kernels are
        # data-race-free — so a silently defaulted mode is invisible in
        # results and only these structural checks catch it.
        native = run_kernel(TINY, variant="native",
                            buffer_mode=BufferMode.NONE)
        weak = run_kernel(TINY, variant="native",
                          buffer_mode=BufferMode.WEAK)
        assert native.checksum == weak.checksum


class TestRunSpecPlumbing:
    def test_default_mode_is_weak(self):
        spec = kernel_job(TINY, variant="risotto")
        assert spec.buffer_mode is BufferMode.WEAK

    def test_execute_spec_forwards_mode(self, monkeypatch):
        captured = {}

        def spy_make_engine(variant, n_cores, seed, costs, buffer_mode,
                            *rest):
            captured.update(variant=variant, buffer_mode=buffer_mode)
            return _make_engine(variant, n_cores, seed, costs,
                                buffer_mode, *rest)

        monkeypatch.setattr(runner, "_make_engine", spy_make_engine)
        spec = kernel_job(TINY, variant="native",
                          buffer_mode=BufferMode.TSO)
        row = execute_spec(spec)
        assert captured["buffer_mode"] is BufferMode.TSO
        assert row.exit_code == 0

    def test_spec_is_still_picklable_with_mode(self):
        import pickle
        spec = kernel_job(TINY, variant="risotto",
                          buffer_mode=BufferMode.TSO)
        clone = pickle.loads(pickle.dumps(spec))
        assert clone.buffer_mode is BufferMode.TSO
        assert clone == spec
