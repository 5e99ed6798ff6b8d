"""A finished run is freed by refcount, not by a collection.

The runtime's traps, svc handler, translators and PLT thunks close
over the runtime or the engine, and both reach the machine's cores;
``_Engine.run`` unbinds them when it returns.  With the cyclic
collector off, a whole job, or a bare engine run, must leave nothing
for ``gc.collect()`` to find.
"""

import gc

import pytest

from repro import api
from repro.isa.x86 import assemble
from repro.workloads.casbench import CasConfig
from repro.workloads.jobspec import cas_job, kernel_job, library_job
from repro.workloads.kernels import KernelSpec

TINY = KernelSpec("tiny", loads=2, stores=1, alu=2, fp=1,
                  iterations=20, threads=2, working_set=64)
BASE = 0x10000


def _garbage_after(work) -> int:
    """Cycles ``work()`` leaves behind, once a first call has filled
    whatever module-level state it fills lazily."""
    work()
    gc.collect()
    gc.disable()
    try:
        work()
        return gc.collect()
    finally:
        gc.enable()


@pytest.mark.parametrize("variant", ["qemu", "risotto", "native"])
@pytest.mark.parametrize("job", [
    lambda v: kernel_job(TINY, variant=v,
                         tier2_threshold=2 if v == "risotto" else 0),
    lambda v: library_job("sqrt", (7,), 4, variant=v, library="libm"),
    lambda v: cas_job(CasConfig(threads=2, variables=1, attempts=10),
                      variant=v),
], ids=["kernel", "library", "cas"])
def test_a_job_leaves_no_cycle(job, variant):
    spec = job(variant)
    assert _garbage_after(lambda: api.submit(spec)) == 0


@pytest.mark.parametrize("variant", ["qemu", "risotto"])
def test_an_engine_run_leaves_no_cycle(variant):
    code = assemble("mov rax, 5\n add rax, 3\n hlt", base=BASE).code

    def run():
        engine = api.make_engine(variant=variant, n_cores=1, seed=11)
        engine.load_image(BASE, code)
        assert engine.run(BASE).exit_code == 0

    assert _garbage_after(run) == 0
