"""Runtime services: threads, syscalls, dispatch, block cache, CAS."""

import dataclasses

import pytest

from repro.api import run_kernel
from repro.dbt import DBTEngine, VARIANTS
from repro.dbt.config import RISOTTO
from repro.errors import GuestFault
from repro.isa.x86 import assemble
from repro.workloads.suites import SPEC_BY_NAME


def run(source, variant="risotto", n_cores=4, **kw):
    engine = DBTEngine(VARIANTS[variant], n_cores=n_cores)
    assembly = assemble(source, base=0x400000)
    engine.load_image(assembly.base, assembly.code)
    result = engine.run(assembly.label("main"), **kw)
    return result, engine


EXIT = "mov rdi, {code}\n mov rax, 60\n syscall"


class TestSyscalls:
    def test_exit_code(self):
        result, _ = run("main:\n" + EXIT.format(code=42))
        assert result.exit_code == 42

    def test_write_int(self):
        result, _ = run("""
main:
    mov rdi, 7
    mov rax, 1
    syscall
    mov rdi, 9
    mov rax, 1
    syscall
""" + EXIT.format(code=0))
        assert result.output == [7, 9]

    def test_unknown_syscall_faults(self):
        with pytest.raises(GuestFault):
            run("main:\n mov rax, 9999\n syscall\n hlt")


class TestThreads:
    COUNTER = 0xA000

    def test_spawn_join_and_shared_counter(self):
        source = f"""
main:
    mov rax, 1000
    mov rdi, adder
    mov rsi, 100
    syscall
    mov r15, rax
    mov rax, 1000
    mov rdi, adder
    mov rsi, 200
    syscall
    mov r14, rax
    mov rdi, r15
    mov rax, 1001
    syscall
    mov rdi, r14
    mov rax, 1001
    syscall
    mov rbx, {self.COUNTER}
    mov rdi, [rbx]
    mov rax, 1
    syscall
""" + EXIT.format(code=0) + """
adder:
    mov rbx, {counter}
    mov rcx, 50
aloop:
    lock xadd [rbx], rdi
    mov rdi, 1
    dec rcx
    jne aloop
    ret
""".format(counter=self.COUNTER)
        result, _ = run(source)
        # thread A: 100 + 49*1; thread B: 200 + 49*1
        assert result.output == [100 + 49 + 200 + 49]

    def test_join_unknown_tid_returns_error(self):
        source = """
main:
    mov rdi, 999
    mov rax, 1001
    syscall
    mov rdi, rax
    mov rax, 1
    syscall
""" + EXIT.format(code=0)
        result, _ = run(source)
        assert result.output == [(1 << 64) - 1]

    def test_thread_exhaustion_faults(self):
        source = """
main:
    mov rcx, 8
spawn_all:
    mov rax, 1000
    mov rdi, sleeper
    mov rsi, 0
    syscall
    dec rcx
    jne spawn_all
""" + EXIT.format(code=0) + """
sleeper:
    mov rcx, 100000
sloop:
    dec rcx
    jne sloop
    ret
"""
        with pytest.raises(GuestFault):
            run(source, n_cores=2)

    def test_worker_return_value_flows_through_exit(self):
        source = """
main:
    mov rax, 1000
    mov rdi, worker
    mov rsi, 5
    syscall
    mov rdi, rax
    mov rax, 1001
    syscall
""" + EXIT.format(code=0) + """
worker:
    mov rax, rdi
    add rax, 10
    ret
"""
        result, engine = run(source)
        finished = [t for t in engine.runtime.threads.values()
                    if t.tid == 2]
        assert finished and finished[0].exit_code == 15


class TestRecycledCore:
    """A worker that finishes before the next spawn frees its core, and
    ``_free_core`` hands that core to the next worker.  ``_thread_of``
    used to return the first thread ever scheduled there, so the second
    worker marked the dead thread finished again, never itself, and the
    main thread's ``SYS_JOIN`` polled until ``max_steps``.  Short
    kernels (workers that outrun the spawn loop) are where it shows."""

    @pytest.mark.parametrize("iterations", (1, 4, 8, 16))
    @pytest.mark.parametrize("kernel",
                             ("freqmine", "canneal", "blackscholes"))
    def test_short_kernels_join_under_every_engine(self, kernel,
                                                   iterations):
        spec = dataclasses.replace(SPEC_BY_NAME[kernel],
                                   iterations=iterations)
        outcomes = [run_kernel(spec, variant=variant,
                               max_steps=3_000_000)
                    for variant in ("native", "qemu", "risotto")]
        assert all(o.result.exit_code == 0 for o in outcomes)
        assert len({o.checksum for o in outcomes}) == 1
        assert outcomes[0].checksum is not None


class TestBlockCache:
    def test_blocks_translated_once(self):
        source = """
main:
    mov rcx, 50
loop:
    dec rcx
    jne loop
""" + EXIT.format(code=0)
        result, engine = run(source)
        # main entry + loop body + exit tail: a handful, not 50.
        assert result.stats.blocks_translated <= 5
        assert result.stats.block_dispatches > 40

    def test_chaining_reduces_dispatch_cost(self):
        source = """
main:
    mov rcx, 50
loop:
    dec rcx
    jne loop
""" + EXIT.format(code=0)
        __, engine = run(source)
        stats = engine.runtime.stats
        assert stats.chained_dispatches > 30

    def test_cross_thread_code_sharing(self):
        """Both threads run the same guest function; the block cache is
        shared so it is translated once."""
        source = """
main:
    mov rax, 1000
    mov rdi, fn
    mov rsi, 1
    syscall
    mov r15, rax
    mov rdi, 0
    call fn
    mov rdi, r15
    mov rax, 1001
    syscall
""" + EXIT.format(code=0) + """
fn:
    mov rax, 1
    ret
"""
        __, engine = run(source)
        fn_blocks = [
            pc for pc in engine.runtime.block_map
            if pc not in (0x400000,)
        ]
        translated = engine.runtime.stats.blocks_translated
        assert translated == len(engine.runtime.block_map)


class TestCasVariants:
    SOURCE = """
main:
    mov rbx, 0xA100
    mov rax, 0
    mov rcx, 7
    lock cmpxchg [rbx], rcx
""" + EXIT.format(code=0)

    @pytest.mark.parametrize("variant", list(VARIANTS))
    def test_cas_correct_under_all_variants(self, variant):
        result, engine = run(self.SOURCE, variant=variant)
        assert engine.machine.memory.load_word(0xA100) == 7

    def test_helper_variant_calls_helper(self):
        __, engine = run(self.SOURCE, variant="qemu")
        assert engine.runtime.stats.helper_calls >= 1

    def test_native_variant_avoids_rmw_helper(self):
        __, engine = run(self.SOURCE, variant="risotto")
        # only the syscall/halt helpers fire, no cmpxchg helper: count
        # helper traps registered for cmpxchg.
        cmpxchg_traps = [
            key for key in engine._helper_traps
            if key[0] == "helper_cmpxchg"
        ]
        assert not cmpxchg_traps
