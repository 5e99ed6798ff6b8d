"""The four in-process workloads (``serve_mix`` lives in serve_mix.py).

Each one drives the public surface (``repro.api``) and checks every
output against a reference the program under test did not produce:
the Arm-native build for kernels, the x86 reference interpreter for
translated blocks, the expected-verdict table and a second enumerator
for verification cells.  bench/README.md records why these inputs.
"""

from __future__ import annotations

import os
import time
from dataclasses import replace
from pathlib import Path
from random import Random

from repro import api
from repro.core.enumerate import clear_behavior_cache as clear_memo
from repro.dbt import guest_reg
from repro.dbt.runtime import STACK_BASE, STACK_SIZE, guest_flag
from repro.errors import ReproError
from repro.fuzz.generate import gen_x86_block
from repro.isa.x86 import CpuState, GPR, X86Interpreter, assemble

from harness import (Checks, PassResult, Recorder, Workload, geomean,
                     root_span)

FLAGS = ("zf", "sf", "cf", "of")


# ----------------------------------------------------------------------
# exec_hot
# ----------------------------------------------------------------------
#: fence-bound, fp/helper-bound and load-bound (the last gains nothing
#: from tier-2): the three ways a kernel's cycles can be spent.
HOT_KERNELS = ("freqmine", "blackscholes", "canneal")
#: (cell label, variant, tier2_threshold)
HOT_CELLS = (("qemu", "qemu", 0), ("risotto", "risotto", 0),
             ("risotto-t2", "risotto", 128), ("native", "native", 0))
#: Kernels do not quiesce at tiny sizes (README, hazards), so neither
#: the timed cells nor the warm-up go below these.
HOT_ITERATIONS = 200
HOT_WARMUP_ITERATIONS = 48


def check_exec_hot(rows: list[dict]) -> Checks:
    """``rows``: one dict per cell with kernel, cell, checksum and
    exit_code.  Every cell must exit 0 and every DBT cell must report
    the checksum of the Arm-native build of the same kernel."""
    checks = Checks()
    native = {row["kernel"]: row["checksum"] for row in rows
              if row["cell"] == "native"}
    for row in rows:
        want = native.get(row["kernel"])
        checks.check(
            row["exit_code"] == 0 and row["checksum"] is not None
            and row["checksum"] == want,
            f"{row['kernel']}/{row['cell']}: checksum "
            f"{row['checksum']} exit {row['exit_code']}, native "
            f"checksum {want}")
    return checks


class ExecHot(Workload):
    name = "exec_hot"

    def setup(self) -> None:
        iterations = HOT_WARMUP_ITERATIONS if self.smoke \
            else HOT_ITERATIONS
        kernels = HOT_KERNELS[1:2] if self.smoke else HOT_KERNELS
        self.specs = [replace(api.SPEC_BY_NAME[name],
                              iterations=iterations)
                      for name in kernels]
        warm = replace(self.specs[0],
                       iterations=HOT_WARMUP_ITERATIONS)
        for _, variant, tier2 in HOT_CELLS:
            api.run_kernel(warm, variant=variant, seed=self.seed,
                           tier2_threshold=tier2)

    def one_pass(self, rec: Recorder | None) -> PassResult:
        rows, ops = [], []
        with root_span(rec):
            started = time.perf_counter()
            for spec in self.specs:
                for cell, variant, tier2 in HOT_CELLS:
                    t0 = time.perf_counter()
                    outcome = api.run_kernel(
                        spec, variant=variant, seed=self.seed,
                        tier2_threshold=tier2)
                    ops.append((t0, time.perf_counter()))
                    rows.append({
                        "kernel": spec.name, "cell": cell,
                        "checksum": outcome.checksum,
                        "exit_code": outcome.result.exit_code,
                        "result": outcome.result})
            ended = time.perf_counter()
        results = [row["result"] for row in rows]
        counts = machine_counts(results)
        counts.update(sim_counts(*(
            [row["result"] for row in rows if row["cell"] == cell]
            for cell in ("risotto", "qemu"))))
        return PassResult(
            start=started, end=ended, ops=ops,
            work=sum(r.host_insns for r in results),
            checks=check_exec_hot(rows), counts=counts,
            sim=self._sim(rows))

    @staticmethod
    def _sim(rows: list[dict]) -> dict[str, float]:
        cycles = {(row["kernel"], row["cell"]):
                  row["result"].elapsed_cycles for row in rows}
        kernels = sorted({row["kernel"] for row in rows})
        risotto = [row["result"] for row in rows
                   if row["cell"].startswith("risotto")]
        return {
            "sim_cycles": sum(c for (_, cell), c in cycles.items()
                              if cell != "native"),
            "fence_share": sum(r.fence_cycles for r in risotto)
            / sum(r.total_cycles for r in risotto),
            "risotto_vs_qemu_cycles": geomean(
                cycles[k, "risotto"] / cycles[k, "qemu"]
                for k in kernels),
            "risotto_vs_native_cycles": geomean(
                cycles[k, "risotto"] / cycles[k, "native"]
                for k in kernels),
        }


def sim_counts(risotto, qemu) -> dict[str, float]:
    """The paper's clock over paired risotto/qemu results."""
    return {
        "sim.fence_share": sum(r.fence_cycles for r in risotto)
        / sum(r.total_cycles for r in risotto),
        "sim.risotto_vs_qemu_cycles": geomean(
            r.elapsed_cycles / q.elapsed_cycles
            for r, q in zip(risotto, qemu)),
    }


def machine_counts(results) -> dict[str, float]:
    """The count-type layer metrics a list of RunResults carries."""
    return {
        "superblock.traces": sum(r.stats.tier2_traces
                                 for r in results),
        "superblock.helpers_inlined": sum(
            r.opt_stats.helpers_inlined for r in results),
        "runtime.dispatches": sum(r.stats.block_dispatches
                                  for r in results),
        "runtime.chained_dispatches": sum(
            r.stats.chained_dispatches for r in results),
        "runtime.helper_calls": sum(r.stats.helper_calls
                                    for r in results),
        "machine.host_insns": sum(r.host_insns for r in results),
        "machine.sim_cycles": sum(r.total_cycles for r in results),
        "machine.fence_cycles": sum(r.fence_cycles for r in results),
    }


# ----------------------------------------------------------------------
# xlat_cold / xlat_warm
# ----------------------------------------------------------------------
XLAT_PROGRAMS = 150
#: How many of them hold a forward branch: two blocks, not one.  The
#: generator's own share moves between 30% and 43% with the seed, and
#: a cold pass's cost goes with the square of the blocks it has
#: stored, so the share and the places are fixed: every seed stores
#: the same number of blocks by the same point of the pass.
XLAT_BRANCHY = 52
XLAT_VARIANTS = ("qemu", "tcg-ver", "risotto")
CODE_BASE = 0x400000
GUEST_RSP = STACK_BASE + STACK_SIZE - 0x100 - 8


class _RefMemory:
    """Flat word memory over the program image for the reference
    interpreter (it never sees the machine under test)."""

    def __init__(self, code: bytes):
        self.words: dict[int, int] = {}
        self.code = code

    def load_word(self, addr: int) -> int:
        return self.words.get(addr, 0)

    def store_word(self, addr: int, value: int) -> None:
        self.words[addr] = value & ((1 << 64) - 1)

    def read_bytes(self, addr: int, count: int) -> bytes:
        off = addr - CODE_BASE
        return self.code[off:off + count]


def draw_blocks(rng: Random, count: int, branchy: int) -> list[str]:
    """``count`` generated blocks, ``branchy`` of them with a branch,
    those spaced evenly."""
    wanted = {True: branchy, False: count - branchy}
    drawn = {True: [], False: []}
    while any(len(drawn[kind]) < wanted[kind] for kind in wanted):
        source = gen_x86_block(rng)
        kind = "skip:" in source
        if len(drawn[kind]) < wanted[kind]:
            drawn[kind].append(source)
    return [drawn[(i + 1) * branchy // count > i * branchy // count]
            .pop() for i in range(count)]


def reference_state(code: bytes) -> dict:
    """Final registers, flags and memory per the x86 interpreter."""
    memory = _RefMemory(code)
    state = CpuState()
    state.rip = CODE_BASE
    state.regs["rsp"] = GUEST_RSP
    X86Interpreter(memory).run(state)
    return {"regs": dict(state.regs),
            "flags": {f: bool(state.flags[f]) for f in FLAGS},
            "mem": dict(memory.words)}


def engine_state(engine, addrs) -> dict:
    core = engine.machine.core(0)
    return {"regs": {reg: guest_reg(core, reg) for reg in GPR},
            "flags": {f: bool(guest_flag(core, f)) for f in FLAGS},
            "mem": {addr: engine.machine.memory.load_word(addr)
                    for addr in addrs}}


class Xlat(Workload):
    """Seeded random guest blocks, each run once per variant, so the
    translator and its cache are the work and the simulator is not."""


    def __init__(self, seed: int, smoke: bool, tmp: Path,
                 warm: bool):
        super().__init__(seed, smoke, tmp)
        self.warm = warm
        self.name = "xlat_warm" if warm else "xlat_cold"
        # Filling the warm store is one whole cold pass: too long to
        # repeat inside a run.
        self.setup_repeats = 1 if warm else 3
        self._stores = 0

    def _fresh_store(self) -> None:
        """Point the persistent cache at a new, empty directory."""
        self._stores += 1
        os.environ["REPRO_XLAT_CACHE"] = \
            str(self.tmp / f"xlat-{self._stores}")
        api.reset_xlat_memory()

    def setup(self) -> None:
        count, branchy = (12, 4) if self.smoke \
            else (XLAT_PROGRAMS, XLAT_BRANCHY)
        sources = draw_blocks(Random(self.seed), count, branchy)
        t0 = time.perf_counter()
        self.images = [assemble(source + "\n    hlt",
                                base=CODE_BASE).code
                       for source in sources]
        self.loader_s = time.perf_counter() - t0
        self.references = [reference_state(code)
                           for code in self.images]
        self._fresh_store()
        if self.warm:
            # The store the timed passes read, and the rows they must
            # reproduce bit for bit.
            self.cold_rows = self._run_all()[0]
        else:
            self._run_all(programs=2)

    def _run_all(self, programs: int | None = None):
        rows, states, ops = [], [], []
        for code, ref in zip(self.images[:programs],
                             self.references):
            for variant in XLAT_VARIANTS:
                t0 = time.perf_counter()
                engine = api.make_engine(variant=variant, n_cores=1,
                                         seed=self.seed)
                engine.load_image(CODE_BASE, code)
                result = engine.run(CODE_BASE)
                ops.append((t0, time.perf_counter()))
                rows.append(result)
                states.append(engine_state(engine, ref["mem"]))
        return rows, states, ops

    def one_pass(self, rec: Recorder | None) -> PassResult:
        if self.warm:
            api.reset_xlat_memory()
        else:
            self._fresh_store()
        before = api.xlat_cache_stats()
        with root_span(rec):
            started = time.perf_counter()
            rows, states, ops = self._run_all()
            ended = time.perf_counter()
        after = api.xlat_cache_stats()

        checks = Checks()
        refs = [ref for ref in self.references for _ in XLAT_VARIANTS]
        for i, (state, ref) in enumerate(zip(states, refs)):
            checks.check(
                state == ref,
                f"program {i // len(XLAT_VARIANTS)} under "
                f"{XLAT_VARIANTS[i % len(XLAT_VARIANTS)]}: final "
                f"state differs from the reference interpreter")
        lookups = after.lookups - before.lookups
        hits = after.hits - before.hits
        misses = after.misses - before.misses
        if self.warm:
            checks.check(misses == 0 and hits == lookups,
                         f"warm pass missed the store {misses} times")
            checks.check(
                [_row_key(r) for r in rows]
                == [_row_key(r) for r in self.cold_rows],
                "warm rows differ from the cold rows")

        usage = api.xlat_cache_namespaces().get("", {})
        counts = machine_counts(rows)
        counts.update({
            "xlat_cache.hits": hits,
            "xlat_cache.misses": misses,
            "xlat_cache.disk_hits": after.disk_hits - before.disk_hits,
            "xlat_cache.hit_ratio": hits / lookups if lookups else 0.0,
            "xlat_cache.disk_bytes": usage.get("bytes", 0),
        })
        qemu, risotto = (rows[XLAT_VARIANTS.index(v)::len(XLAT_VARIANTS)]
                         for v in ("qemu", "risotto"))
        counts.update(sim_counts(risotto, qemu))
        return PassResult(
            start=started, end=ended, ops=ops,
            work=sum(r.stats.guest_insns_translated for r in rows),
            checks=checks, counts=counts)


def _row_key(result) -> tuple:
    return (result.elapsed_cycles, result.total_cycles,
            result.fence_cycles, result.host_insns, result.exit_code)


# ----------------------------------------------------------------------
# verify_litmus
# ----------------------------------------------------------------------
VERIFY_MODELS = ("x86-tso", "arm-cats", "tcg-ir", "sc")


def check_verify(cells: list[dict]) -> Checks:
    """``cells``: one dict per cell with kind (dpor/staged/scheme),
    name, error, and digest (enumeration cells) or ok/expected (scheme
    cells).  No cell may fail or hit its enumeration limit, the two
    enumerators must agree wherever both ran, and every Theorem-1
    verdict must be the expected one (negative controls stay broken).
    """
    checks = Checks()
    staged = {cell["name"]: cell["digest"] for cell in cells
              if cell["kind"] == "staged" and not cell["error"]}
    for cell in cells:
        label = f"{cell['kind']} {cell['name']}"
        if cell["error"]:
            checks.check(False, f"{label}: {cell['error']}")
        elif cell["kind"] == "scheme":
            checks.check(
                cell["ok"] == cell["expected"],
                f"{label}: verdict {cell['ok']}, expected "
                f"{cell['expected']}")
        elif cell["kind"] == "dpor" and cell["name"] in staged:
            checks.check(
                cell["digest"] == staged[cell["name"]],
                f"{label}: dpor digest {cell['digest']} != staged "
                f"{staged[cell['name']]}")
        else:
            checks.check(True, label)
    return checks


class VerifyLitmus(Workload):
    name = "verify_litmus"

    def setup(self) -> None:
        registry = list(api.verify_registry())
        large = {test.name for test in api.FIVE_THREAD_CORPUS}
        classic = [name for name in registry if name not in large]
        schemes = None
        if self.smoke:
            registry, classic = classic[:6], classic[:6]
            schemes = tuple(api.SCHEMES)[:2]
        grids = [
            ("dpor", api.verify_grid(registry, VERIFY_MODELS,
                                     reduction="dpor",
                                     seed=self.seed)),
            ("staged", api.verify_grid(classic, VERIFY_MODELS,
                                       reduction="staged",
                                       seed=self.seed)),
            ("scheme", api.scheme_grid(schemes, seed=self.seed)),
        ]
        rng = Random(self.seed)
        self.cells = []
        for kind, grid in grids:
            grid = list(grid)
            rng.shuffle(grid)
            self.cells += [(kind, spec) for spec in grid]
        for kind, spec in self.cells[:3] + self.cells[-1:]:
            api.execute_spec(spec)

    def one_pass(self, rec: Recorder | None) -> PassResult:
        clear_memo()
        cells, rows, ops = [], [], []
        with root_span(rec):
            started = time.perf_counter()
            for kind, spec in self.cells:
                cell = {"kind": kind, "error": "",
                        "name": f"{spec.benchmark}@{spec.variant}"
                        if kind == "scheme"
                        else f"{spec.benchmark}@{spec.model}"}
                t0 = time.perf_counter()
                try:
                    row = api.execute_spec(spec)
                except ReproError as exc:
                    cell["error"] = f"{type(exc).__name__}: {exc}"
                else:
                    rows.append(row)
                    if kind == "scheme":
                        cell["ok"], cell["expected"] = row.payload[:2]
                        cell["tests"] = row.payload[2]
                    else:
                        cell["digest"], cell["behaviors"] = row.payload
                ops.append((t0, time.perf_counter()))
                cells.append(cell)
            ended = time.perf_counter()

        naive = sum(r.enum_candidates_naive for r in rows)
        materialized = sum(r.enum_executions for r in rows)
        schemes = [c for c in cells
                   if c["kind"] == "scheme" and not c["error"]]
        return PassResult(
            start=started, end=ended, ops=ops, work=len(cells),
            checks=check_verify(cells),
            counts={
                "enumerate.cells": len(cells),
                "enumerate.naive_candidates": naive,
                "enumerate.materialized": materialized,
                "enumerate.pruned_fraction":
                    1.0 - materialized / naive if naive else 0.0,
                "enumerate.behaviors": sum(
                    c.get("behaviors", 0) for c in cells),
                "enumerate.limit_hits": sum(
                    1 for c in cells if "exceed limit" in c["error"]),
                "verifier.mappings_checked": sum(
                    c["tests"] for c in schemes),
                "verifier.verdict_mismatches": sum(
                    1 for c in schemes if c["ok"] != c["expected"]),
                "behavior_cache.memo_hits": sum(
                    r.cache_hits for r in rows),
                "behavior_cache.memo_misses": sum(
                    r.cache_misses for r in rows),
            })
