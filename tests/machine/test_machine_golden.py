"""Bit-identity golden for ``repro.machine`` and its tooling guard.

Every number the paper reproduction reports is a count of simulated
cycles, so a faster simulator must be the *same* simulator: the same
instruction retired by the same core at the same step, the same draws
from both RNG streams (``Machine.rng`` picks the core, ``core.rng``
drains store buffers and fails STXRs), the same memory at the end.
The values below were recorded on the commit before the fetch/decode/
if-chain path was replaced by the pre-bound instruction table, and the
file passes unchanged on both sides of that change.

Regenerate (only when the *simulated* machine is meant to change)::

    PYTHONPATH=src python tests/machine/test_machine_golden.py

The guard at the bottom keeps the replaced path from growing back:
one decode site, no mnemonic chain beside the table, no knob, no new
constructor parameter, no module-level cache that outlives a run.
"""

import dataclasses
import hashlib
import inspect
import pprint
import re
from pathlib import Path

import pytest

from repro import api
from repro.core import litmus_library as L
from repro.core import mappings as M
from repro.machine import ArmCore, Machine
from repro.machine.litmus import run_stress
from repro.machine.weakmem import BufferMode
from tests import knobs

REPO = Path(__file__).resolve().parents[2]
MACHINE_SRC = REPO / "src" / "repro" / "machine"

SEED = 11
ITERATIONS = 48
KERNELS = ("freqmine", "blackscholes", "canneal")
#: (cell label, variant, tier2_threshold)
CELLS = (("qemu", "qemu", 0), ("risotto", "risotto", 0),
         ("risotto-t2", "risotto", 8), ("native", "native", 0))
CAS_CELL = (api.CasConfig(threads=4, variables=1, attempts=60),
            "risotto")
LITMUS = {"MP": L.MP, "SB": L.SB}
LITMUS_SEEDS = range(20)


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def fingerprint(machine: Machine, steps: int) -> dict:
    """Everything a run leaves behind that the figures are built from,
    plus both RNG streams' final state (one draw more or fewer anywhere
    in the run moves it)."""
    cores = machine.cores
    return {
        "steps": steps,
        "cycles": [c.cycles for c in cores],
        "insns": [c.insn_count for c in cores],
        "fence_by_origin": [dict(sorted(c.fence_cycles_by_origin.items()))
                            for c in cores],
        "memory": _digest(sorted(machine.memory.snapshot().items())),
        "regs": _digest([sorted(c.regs.items()) for c in cores]),
        "rng": _digest([machine.rng.getstate()]
                       + [c.rng.getstate() for c in cores]),
    }


class _Recorder:
    """``Machine.run`` rebound to remember each machine and the step
    count it returned (the bench harness rebinds it the same way, so
    that it can be rebound is part of the contract)."""

    def __init__(self, monkeypatch):
        self.runs: list[tuple[Machine, int]] = []
        plain = Machine.run

        def run(machine, *args, **kwargs):
            steps = plain(machine, *args, **kwargs)
            self.runs.append((machine, steps))
            return steps

        monkeypatch.setattr(Machine, "run", run)

    def take(self) -> list[dict]:
        runs, self.runs = self.runs, []
        return [fingerprint(machine, steps) for machine, steps in runs]


@pytest.fixture
def recorder(monkeypatch):
    return _Recorder(monkeypatch)


def observe_kernel(recorder, kernel: str, cell: str) -> dict:
    _, variant, tier2 = next(c for c in CELLS if c[0] == cell)
    spec = dataclasses.replace(api.SPEC_BY_NAME[kernel],
                               iterations=ITERATIONS)
    outcome = api.run_kernel(spec, variant=variant, seed=SEED,
                             tier2_threshold=tier2)
    (seen,) = recorder.take()
    seen.update(checksum=outcome.checksum,
                exit_code=outcome.result.exit_code,
                host_insns=outcome.result.host_insns,
                elapsed_cycles=outcome.result.elapsed_cycles)
    return seen


def observe_cas(recorder) -> dict:
    config, variant = CAS_CELL
    outcome = api.run_cas_benchmark(config, variant=variant, seed=SEED)
    (seen,) = recorder.take()
    seen.update(checksum=outcome.checksum,
                exit_code=outcome.result.exit_code)
    return seen


def observe_litmus(recorder, name: str, mode: BufferMode) -> dict:
    program = M.nofences_x86_to_arm.apply(LITMUS[name].program)
    observed = run_stress(program, iterations=64, seeds=LITMUS_SEEDS,
                          buffer_mode=mode)
    runs = recorder.take()
    assert len(runs) == len(LITMUS_SEEDS)
    return {
        "outcomes": sorted(sorted(outcome) for outcome in observed),
        "steps": sum(run["steps"] for run in runs),
        "cycles": sum(sum(run["cycles"]) for run in runs),
        "runs": _digest(runs),
    }


class TestGolden:
    @pytest.mark.parametrize("cell", [c[0] for c in CELLS])
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_kernel_cell(self, recorder, kernel, cell):
        assert observe_kernel(recorder, kernel, cell) \
            == GOLDEN_KERNELS[kernel, cell]

    def test_native_checksum_is_the_reference(self):
        for kernel in KERNELS:
            want = GOLDEN_KERNELS[kernel, "native"]["checksum"]
            assert want is not None
            for cell, _, _ in CELLS:
                row = GOLDEN_KERNELS[kernel, cell]
                assert (row["checksum"], row["exit_code"]) == (want, 0)

    def test_contended_cas_cell(self, recorder):
        assert observe_cas(recorder) == GOLDEN_CAS

    @pytest.mark.parametrize("mode", [BufferMode.WEAK, BufferMode.TSO],
                             ids=lambda m: m.value)
    @pytest.mark.parametrize("name", sorted(LITMUS))
    def test_litmus_stress(self, recorder, name, mode):
        assert observe_litmus(recorder, name, mode) \
            == GOLDEN_LITMUS[name, mode.value]

    def test_litmus_golden_shows_the_weak_behaviours(self):
        """The pinned sets are not vacuous: MP reorders under WEAK and
        not under TSO, SB buffers under both."""
        def shows(name, mode, **regs):
            want = {(k.replace("_", ":"), v) for k, v in regs.items()}
            return any(want <= {tuple(pair) for pair in outcome}
                       for outcome in
                       GOLDEN_LITMUS[name, mode]["outcomes"])
        assert shows("MP", "weak", T1_a=1, T1_b=0)
        assert not shows("MP", "tso", T1_a=1, T1_b=0)
        assert shows("SB", "weak", T0_a=0, T1_b=0)
        assert shows("SB", "tso", T0_a=0, T1_b=0)


# ----------------------------------------------------------------------
# Tooling guard: the replaced path must not grow back
# ----------------------------------------------------------------------
class TestOneFetchPath:
    MACHINE_PARAMS = [
        "n_cores", "costs", "buffer_mode", "seed", "track_coherence",
        "spurious_failure_rate", "jitter", "memory", "cores"]
    CORE_PARAMS = [
        "core_id", "memory", "costs", "coherence", "buffer_mode", "rng",
        "spurious_failure_rate", "regs", "flags", "pc", "cycles",
        "halted", "insn_count", "fence_cycles", "fence_origins",
        "fence_cycles_by_origin", "traps", "svc_handler",
        "drain_probability"]

    def _sources(self):
        sources = sorted(MACHINE_SRC.glob("*.py"))
        assert MACHINE_SRC / "cpu.py" in sources and len(sources) >= 6
        return sources

    def test_one_decode_site(self):
        sites = [(path.name, len(re.findall(r"CODER\.decode\(",
                                            path.read_text())))
                 for path in self._sources()]
        assert [s for s in sites if s[1]] == [("cpu.py", 1)]

    def test_no_mnemonic_chain_beside_the_table(self):
        """The table replaced the chain; they must never coexist."""
        has_table = "code_table" in \
            (MACHINE_SRC / "memory.py").read_text()
        chain = re.findall(r"\bif m ==|\bm in \(|elif m ==",
                           (MACHINE_SRC / "cpu.py").read_text())
        assert not (has_table and chain), chain

    def test_no_new_knob(self):
        found = set()
        for path in sorted((REPO / "src" / "repro").rglob("*.py")):
            found |= set(re.findall(r"REPRO_[A-Z][A-Z0-9_]*[A-Z0-9]",
                                    path.read_text()))
        assert found <= knobs.REPRO_ENV, found - knobs.REPRO_ENV

    def test_no_new_constructor_parameter(self):
        assert list(inspect.signature(Machine).parameters) \
            == self.MACHINE_PARAMS
        assert list(inspect.signature(ArmCore).parameters) \
            == self.CORE_PARAMS

    def test_no_module_level_cache_outlives_a_machine(self, recorder):
        """Run a kernel twice; no module-level container under
        ``repro.machine`` may have grown in between, and the finished
        machine is freed by refcount alone once nothing holds it: no
        reference cycle keeps it, its cores or its table alive."""
        import gc
        import sys
        import weakref

        def sizes():
            out = {}
            for name, module in sorted(sys.modules.items()):
                if not name.startswith("repro.machine"):
                    continue
                for attr, value in vars(module).items():
                    if isinstance(value, (dict, list, set)):
                        out[name, attr] = len(value)
            return out

        observe_kernel(recorder, "canneal", "risotto")
        before = sizes()
        spec = dataclasses.replace(api.SPEC_BY_NAME["freqmine"],
                                   iterations=ITERATIONS)
        api.run_kernel(spec, variant="qemu", seed=SEED,
                       tier2_threshold=0)
        assert sizes() == before
        ((machine, _),) = recorder.runs
        gone = weakref.ref(machine)
        gc.disable()
        try:
            del machine
            recorder.runs.clear()
            assert gone() is None
        finally:
            gc.enable()


# ----------------------------------------------------------------------
# Recorded values (see the module docstring to regenerate)
# ----------------------------------------------------------------------
GOLDEN_KERNELS = {('blackscholes', 'native'): {'checksum': 18428736665416690986,
                              'cycles': [5258, 2228, 2628, 2628],
                              'elapsed_cycles': 5258,
                              'exit_code': 0,
                              'fence_by_origin': [{}, {}, {}, {}],
                              'host_insns': 3968,
                              'insns': [1031, 979, 979, 979],
                              'memory': 'edf7babca9ba56d9',
                              'regs': 'a937663d74075d73',
                              'rng': '3d5a53209c94669d',
                              'steps': 3971},
 ('blackscholes', 'qemu'): {'checksum': 18428736665416690986,
                            'cycles': [42681, 40736, 40318, 40736],
                            'elapsed_cycles': 42681,
                            'exit_code': 0,
                            'fence_by_origin': [{'RMOV->Frr;ld': 1664,
                                                 'WMOV->Fmw;st': 1484},
                                                {'RMOV->Frr;ld': 1552,
                                                 'WMOV->Fmw;st': 1372},
                                                {'RMOV->Frr;ld': 1552,
                                                 'WMOV->Fmw;st': 1372},
                                                {'RMOV->Frr;ld': 1552,
                                                 'WMOV->Fmw;st': 1372}],
                            'host_insns': 12371,
                            'insns': [3185, 3062, 3062, 3062],
                            'memory': '5e99af0af3af173e',
                            'regs': '9ff9baa5cf7febd9',
                            'rng': 'b54b907c4c121b9b',
                            'steps': 13735},
 ('blackscholes', 'risotto'): {'checksum': 18428736665416690986,
                               'cycles': [41939, 39650, 40032, 40050],
                               'elapsed_cycles': 41939,
                               'exit_code': 0,
                               'fence_by_origin': [{'RMOV->ld;Frm': 1664,
                                                    'WMOV->Fww;st': 742},
                                                   {'RMOV->ld;Frm': 1552,
                                                    'WMOV->Fww;st': 686},
                                                   {'RMOV->ld;Frm': 1552,
                                                    'WMOV->Fww;st': 686},
                                                   {'RMOV->ld;Frm': 1552,
                                                    'WMOV->Fww;st': 686}],
                               'host_insns': 12371,
                               'insns': [3185, 3062, 3062, 3062],
                               'memory': '5e99af0af3af173e',
                               'regs': '9ff9baa5cf7febd9',
                               'rng': 'a6e23cde2c1107fd',
                               'steps': 13735},
 ('blackscholes', 'risotto-t2'): {'checksum': 18428736665416690986,
                                  'cycles': [9627, 8364, 7964, 8364],
                                  'elapsed_cycles': 9627,
                                  'exit_code': 0,
                                  'fence_by_origin': [{'RMOV->ld;Frm': 1664,
                                                       'WMOV->Fww;st': 742},
                                                      {'RMOV->ld;Frm': 1552,
                                                       'WMOV->Fww;st': 686},
                                                      {'RMOV->ld;Frm': 1552,
                                                       'WMOV->Fww;st': 686},
                                                      {'RMOV->ld;Frm': 1552,
                                                       'WMOV->Fww;st': 686}],
                                  'host_insns': 10026,
                                  'insns': [2589, 2479, 2479, 2479],
                                  'memory': '5e99af0af3af173e',
                                  'regs': '2e278fb083a76178',
                                  'rng': '9ca7595cc5235e64',
                                  'steps': 10127},
 ('canneal', 'native'): {'checksum': 16546789782352474564,
                         'cycles': [4826, 2196, 2196, 1796],
                         'elapsed_cycles': 4826,
                         'exit_code': 0,
                         'fence_by_origin': [{}, {}, {}, {}],
                         'host_insns': 3776,
                         'insns': [983, 931, 931, 931],
                         'memory': '303b4396717dcc07',
                         'regs': '0c2b8c6eefd96599',
                         'rng': '11c261130a85c6a5',
                         'steps': 3779},
 ('canneal', 'qemu'): {'checksum': 16546789782352474564,
                       'cycles': [12572, 10218, 10627, 10618],
                       'elapsed_cycles': 12572,
                       'exit_code': 0,
                       'fence_by_origin': [{'RMOV->Frr;ld': 3968,
                                            'WMOV->Fmw;st': 2828},
                                           {'RMOV->Frr;ld': 3856,
                                            'WMOV->Fmw;st': 2716},
                                           {'RMOV->Frr;ld': 3856,
                                            'WMOV->Fmw;st': 2716},
                                           {'RMOV->Frr;ld': 3856,
                                            'WMOV->Fmw;st': 2716}],
                       'host_insns': 12127,
                       'insns': [3124, 3001, 3001, 3001],
                       'memory': '003fa5ff0cdd5899',
                       'regs': '438ba8d1f4ac6e23',
                       'rng': 'e1ce26d3a3cb15f8',
                       'steps': 12339},
 ('canneal', 'risotto'): {'checksum': 16546789782352474564,
                          'cycles': [11062, 9164, 9173, 8764],
                          'elapsed_cycles': 11062,
                          'exit_code': 0,
                          'fence_by_origin': [{'RMOV->ld;Frm': 3200,
                                               'WMOV->Fww;st': 742,
                                               'fence_merge:strengthen': 1344},
                                              {'RMOV->ld;Frm': 3088,
                                               'WMOV->Fww;st': 686,
                                               'fence_merge:strengthen': 1344},
                                              {'RMOV->ld;Frm': 3088,
                                               'WMOV->Fww;st': 686,
                                               'fence_merge:strengthen': 1344},
                                              {'RMOV->ld;Frm': 3088,
                                               'WMOV->Fww;st': 686,
                                               'fence_merge:strengthen': 1344}],
                          'host_insns': 11935,
                          'insns': [3076, 2953, 2953, 2953],
                          'memory': '003fa5ff0cdd5899',
                          'regs': '438ba8d1f4ac6e23',
                          'rng': '5ec9e5fb1e95deb8',
                          'steps': 12147},
 ('canneal', 'risotto-t2'): {'checksum': 16546789782352474564,
                             'cycles': [10924, 8641, 9032, 9035],
                             'elapsed_cycles': 10924,
                             'exit_code': 0,
                             'fence_by_origin': [{'RMOV->ld;Frm': 3200,
                                                  'WMOV->Fww;st': 742,
                                                  'fence_merge:strengthen': 1344},
                                                 {'RMOV->ld;Frm': 3088,
                                                  'WMOV->Fww;st': 686,
                                                  'fence_merge:strengthen': 1344},
                                                 {'RMOV->ld;Frm': 3088,
                                                  'WMOV->Fww;st': 686,
                                                  'fence_merge:strengthen': 1344},
                                                 {'RMOV->ld;Frm': 3088,
                                                  'WMOV->Fww;st': 686,
                                                  'fence_merge:strengthen': 1344}],
                             'host_insns': 11581,
                             'insns': [2984, 2865, 2865, 2867],
                             'memory': '003fa5ff0cdd5899',
                             'regs': '542be88935101140',
                             'rng': 'eb200b007c8773a3',
                             'steps': 11616},
 ('freqmine', 'native'): {'checksum': 18428731476639525794,
                          'cycles': [5114, 2484, 2084, 2484],
                          'elapsed_cycles': 5114,
                          'exit_code': 0,
                          'fence_by_origin': [{}, {}, {}, {}],
                          'host_insns': 3968,
                          'insns': [1031, 979, 979, 979],
                          'memory': 'df4b2a2b8fe9dce0',
                          'regs': '1d7089beca4038c0',
                          'rng': '6025e0bab51c2914',
                          'steps': 3971},
 ('freqmine', 'qemu'): {'checksum': 18428731476639525794,
                        'cycles': [16649, 14704, 14695, 14295],
                        'elapsed_cycles': 16649,
                        'exit_code': 0,
                        'fence_by_origin': [{'RMOV->Frr;ld': 4736,
                                             'WMOV->Fmw;st': 5516},
                                            {'RMOV->Frr;ld': 4624,
                                             'WMOV->Fmw;st': 5404},
                                            {'RMOV->Frr;ld': 4624,
                                             'WMOV->Fmw;st': 5404},
                                            {'RMOV->Frr;ld': 4624,
                                             'WMOV->Fmw;st': 5404}],
                        'host_insns': 14227,
                        'insns': [3649, 3526, 3526, 3526],
                        'memory': '4963cd544e1c1169',
                        'regs': '8af16c4503875fb0',
                        'rng': 'ee8ad0499b6d2a07',
                        'steps': 14439},
 ('freqmine', 'risotto'): {'checksum': 18428731476639525794,
                           'cycles': [13795, 11497, 11906, 11897],
                           'elapsed_cycles': 13795,
                           'exit_code': 0,
                           'fence_by_origin': [{'RMOV->ld;Frm': 3968,
                                                'WMOV->Fww;st': 2086,
                                                'fence_merge:strengthen': 1344},
                                               {'RMOV->ld;Frm': 3856,
                                                'WMOV->Fww;st': 2030,
                                                'fence_merge:strengthen': 1344},
                                               {'RMOV->ld;Frm': 3856,
                                                'WMOV->Fww;st': 2030,
                                                'fence_merge:strengthen': 1344},
                                               {'RMOV->ld;Frm': 3856,
                                                'WMOV->Fww;st': 2030,
                                                'fence_merge:strengthen': 1344}],
                           'host_insns': 14035,
                           'insns': [3601, 3478, 3478, 3478],
                           'memory': '4963cd544e1c1169',
                           'regs': '8af16c4503875fb0',
                           'rng': '6cca88bb5e790ffd',
                           'steps': 14247},
 ('freqmine', 'risotto-t2'): {'checksum': 18428731476639525794,
                              'cycles': [13657, 11774, 11768, 11365],
                              'elapsed_cycles': 13657,
                              'exit_code': 0,
                              'fence_by_origin': [{'RMOV->ld;Frm': 3968,
                                                   'WMOV->Fww;st': 2086,
                                                   'fence_merge:strengthen': 1344},
                                                  {'RMOV->ld;Frm': 3856,
                                                   'WMOV->Fww;st': 2030,
                                                   'fence_merge:strengthen': 1344},
                                                  {'RMOV->ld;Frm': 3856,
                                                   'WMOV->Fww;st': 2030,
                                                   'fence_merge:strengthen': 1344},
                                                  {'RMOV->ld;Frm': 3856,
                                                   'WMOV->Fww;st': 2030,
                                                   'fence_merge:strengthen': 1344}],
                              'host_insns': 13681,
                              'insns': [3509, 3390, 3392, 3390],
                              'memory': '4963cd544e1c1169',
                              'regs': '3f681fdecabb7f14',
                              'rng': '15caf1008ffe9ba6',
                              'steps': 13716}}

GOLDEN_CAS = {'checksum': 0,
 'cycles': [31267, 28934, 29456, 30047],
 'exit_code': 0,
 'fence_by_origin': [{'RMOV->ld;Frm': 1024, 'WMOV->Fww;st': 56},
                     {'RMOV->ld;Frm': 976}, {'RMOV->ld;Frm': 976},
                     {'RMOV->ld;Frm': 976}],
 'insns': [1547, 1459, 1459, 1459],
 'memory': 'c2fdd2d008cde998',
 'regs': '57737de321d30c15',
 'rng': '4d558b7a00152365',
 'steps': 6184}

GOLDEN_LITMUS = {('MP', 'tso'): {'cycles': 246184,
                 'outcomes': [[('T1:a', 0), ('T1:b', 0), ('X', 1),
                               ('Y', 1)],
                              [('T1:a', 0), ('T1:b', 1), ('X', 1),
                               ('Y', 1)],
                              [('T1:a', 1), ('T1:b', 1), ('X', 1),
                               ('Y', 1)]],
                 'runs': 'da7ea385329e73d7',
                 'steps': 143652},
 ('MP', 'weak'): {'cycles': 246184,
                  'outcomes': [[('T1:a', 0), ('T1:b', 0), ('X', 1),
                                ('Y', 1)],
                               [('T1:a', 0), ('T1:b', 1), ('X', 1),
                                ('Y', 1)],
                               [('T1:a', 1), ('T1:b', 0), ('X', 1),
                                ('Y', 1)],
                               [('T1:a', 1), ('T1:b', 1), ('X', 1),
                                ('Y', 1)]],
                  'runs': 'ac14ac6d8572b8b3',
                  'steps': 143652},
 ('SB', 'tso'): {'cycles': 243376,
                 'outcomes': [[('T0:a', 0), ('T1:b', 0), ('X', 1),
                               ('Y', 1)],
                              [('T0:a', 0), ('T1:b', 1), ('X', 1),
                               ('Y', 1)],
                              [('T0:a', 1), ('T1:b', 0), ('X', 1),
                               ('Y', 1)],
                              [('T0:a', 1), ('T1:b', 1), ('X', 1),
                               ('Y', 1)]],
                 'runs': 'beb3e157128635b6',
                 'steps': 142248},
 ('SB', 'weak'): {'cycles': 243376,
                  'outcomes': [[('T0:a', 0), ('T1:b', 0), ('X', 1),
                                ('Y', 1)],
                               [('T0:a', 0), ('T1:b', 1), ('X', 1),
                                ('Y', 1)],
                               [('T0:a', 1), ('T1:b', 0), ('X', 1),
                                ('Y', 1)],
                               [('T0:a', 1), ('T1:b', 1), ('X', 1),
                                ('Y', 1)]],
                  'runs': 'edd26bc614bf8c3e',
                  'steps': 142248}}


if __name__ == "__main__":
    patch = pytest.MonkeyPatch()
    patch.setenv("REPRO_XLAT_CACHE", "off")
    rec = _Recorder(patch)
    kernels = {(k, c[0]): observe_kernel(rec, k, c[0])
               for k in KERNELS for c in CELLS}
    cas = observe_cas(rec)
    litmus = {(n, m.value): observe_litmus(rec, n, m)
              for n in sorted(LITMUS)
              for m in (BufferMode.WEAK, BufferMode.TSO)}
    patch.undo()
    for label, table in (("GOLDEN_KERNELS", kernels),
                         ("GOLDEN_CAS", cas),
                         ("GOLDEN_LITMUS", litmus)):
        print(f"{label} = {pprint.pformat(table, width=72, compact=True)}\n")
