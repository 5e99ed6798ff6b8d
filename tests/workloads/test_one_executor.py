"""Regression: every machine kind honours every field of its job.

Each kind once built, loaded and ran its own engine, and the copies
drifted: a CAS job ignored ``max_steps`` and ``tier2_threshold`` and
skipped the buffer-mode parity guard, a library job failed on every
``most-*`` variant, and an unregistered ``setup_memory`` callable ran
beside the job path instead of being refused like an unknown setup
name.  One case per drift, all through the one executor.
"""

import dataclasses

import pytest

from repro import api
from repro.errors import JobError, MachineError, classify_error
from repro.isa.floatbits import double_to_bits
from repro.machine.weakmem import BufferMode
from repro.serve.jobs import run_job
from repro.workloads import runner
from repro.workloads.casbench import CasConfig

CAS = CasConfig(2, 1, attempts=40)
HALF = double_to_bits(0.5)


def cas_honours_max_steps(monkeypatch):
    job = dataclasses.replace(api.cas_job(CAS, variant="risotto"),
                              max_steps=1000)
    with pytest.raises(MachineError, match="did not quiesce"):
        api.submit(job)


def cas_honours_tier2_threshold(monkeypatch):
    monkeypatch.setenv("REPRO_TIER2_THRESHOLD", "1")
    job = dataclasses.replace(api.cas_job(CAS, variant="qemu"),
                              tier2_threshold=0)
    assert api.submit(job).outcome.result.stats.tier2_traces == 0


def cas_passes_the_parity_guard(monkeypatch):
    modes = []
    make = runner._make_engine

    def spy(*args):
        engine = make(*args)
        modes.append(engine.machine.buffer_mode)
        return engine

    monkeypatch.setattr(runner, "_make_engine", spy)
    job = api.cas_job(CAS, variant="risotto", buffer_mode=BufferMode.TSO)
    assert api.submit(job).exit_code == 0
    assert modes == [BufferMode.TSO]


def library_runs_on_most_variants(monkeypatch):
    def run(variant):
        return run_job(api.library_job("cos", (HALF,), 10,
                                       variant=variant, library="libm"))

    most, risotto = run("most-no-fences"), run("risotto")
    assert most.ok, most.error
    assert most.checksum == risotto.checksum is not None


def unregistered_setup_is_bad_request(monkeypatch):
    with pytest.raises(JobError) as info:
        api.run_library_workload("cos", (HALF,), 10, variant="qemu",
                                 library=api.build_libm(),
                                 setup_memory=lambda memory: None)
    assert classify_error(info.value).code == "bad-request"


@pytest.mark.parametrize("case", [
    cas_honours_max_steps,
    cas_honours_tier2_threshold,
    cas_passes_the_parity_guard,
    library_runs_on_most_variants,
    unregistered_setup_is_bad_request,
], ids=lambda case: case.__name__)
def test_every_kind_honours_its_job(case, monkeypatch):
    case(monkeypatch)
