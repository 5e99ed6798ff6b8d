"""Op-stream golden for the optimizer: every output block, hashed.

Each block the optimizer sees on three surfaces is run again through
the five configurations below, and the golden holds a digest of each
output op stream (op names, arguments and fence origins) plus the
summed :class:`~repro.tcg.optimizer.OptStats` per configuration.  A
restructured optimizer must be the *same* optimizer: the digests may
move only where a commit means to change an op stream.  ``all-on``
turns every rule set on, memory-access elimination included;
``default`` is the pipeline every variant runs.

Surfaces, each under the qemu, tcg-ver, risotto and no-fences
variants:

* ``snippets`` — the fence-relevant instruction snippets of
  ``tests/dbt/test_scheme_golden.py``, one block each;
* ``fig12`` — the 16 Figure-12 kernels (scaled down), every block and
  trace a run translates, at tier-1 and at tier-2 threshold 1;
* ``xlat_cold`` — the 150 generated blocks of the ``xlat_cold``
  benchmark (seed 11), every block a run translates.

Regenerate (only when an op stream is meant to change)::

    PYTHONPATH=src python -m tests.tcg.test_optimizer_golden
"""

import dataclasses
import hashlib
import json
from pathlib import Path
from random import Random

import pytest

from repro import api
from repro.dbt import VARIANTS
from repro.dbt import engine as engine_mod
from repro.fuzz.generate import gen_x86_block
from repro.isa.x86.assembler import assemble
from repro.machine.memory import Memory
from repro.tcg.frontend_x86 import X86Frontend
from repro.tcg.ir import TCGBlock
from repro.tcg.optimizer import OptimizerConfig, OptStats, optimize
from repro.workloads import ALL_SPECS

from tests.dbt.test_scheme_golden import SNIPPETS

GOLDEN_PATH = Path(__file__).with_name("optimizer_golden.json")

SURFACES = ("snippets", "fig12", "xlat_cold")
GOLDEN_VARIANTS = ("qemu", "tcg-ver", "risotto", "no-fences")
#: Each rule set alone, everything, nothing, and the default pipeline.
CONFIGS = {
    "constprop": OptimizerConfig(memopt=False, fence_merge=False,
                                 deadcode=False),
    "memopt": OptimizerConfig(constprop=False, memopt=True,
                              fence_merge=False, deadcode=False),
    "all-on": OptimizerConfig(memopt=True),
    "all-off": OptimizerConfig(constprop=False, memopt=False,
                               fence_merge=False, deadcode=False),
    "default": OptimizerConfig(),
}

SEED = 11
SNIPPET_BASE = 0x1000
FIG12_ITERATIONS = 8
#: ``bench/workloads.py``'s xlat_cold draw: 150 blocks, 52 branchy.
XLAT_PROGRAMS, XLAT_BRANCHY = 150, 52
XLAT_BASE = 0x400000


def draw_blocks(rng: Random, count: int, branchy: int) -> list[str]:
    """The xlat_cold benchmark's block draw, reproduced here so the
    tests do not import the benchmark harness."""
    wanted = {True: branchy, False: count - branchy}
    drawn = {True: [], False: []}
    while any(len(drawn[kind]) < wanted[kind] for kind in wanted):
        source = gen_x86_block(rng)
        kind = "skip:" in source
        if len(drawn[kind]) < wanted[kind]:
            drawn[kind].append(source)
    return [drawn[(i + 1) * branchy // count > i * branchy // count]
            .pop() for i in range(count)]


class _Capture:
    """``engine.optimize`` rebound to remember each block it is given
    (the bench harness rebinds it the same way)."""

    def __init__(self, monkeypatch):
        self.blocks: list[list] = []
        plain = engine_mod.optimize

        def capture(block, config=None):
            self.blocks.append(list(block.ops))
            return plain(block, config)

        monkeypatch.setattr(engine_mod, "optimize", capture)

    def take(self) -> list[list]:
        blocks, self.blocks = self.blocks, []
        return blocks


def _snippet_runs(capture, variant):
    frontend = X86Frontend(VARIANTS[variant].frontend)
    for name in sorted(SNIPPETS):
        assembly = assemble(SNIPPETS[name], base=SNIPPET_BASE)
        memory = Memory()
        memory.add_image(assembly.base, assembly.code)
        block = frontend.translate_block(memory, SNIPPET_BASE)
        yield name, [list(block.ops)]


def _fig12_runs(capture, variant):
    for spec in ALL_SPECS:
        sized = dataclasses.replace(spec, iterations=FIG12_ITERATIONS)
        for tier, threshold in (("t1", 0), ("t2", 1)):
            api.run_kernel(sized, variant=variant, seed=SEED,
                           tier2_threshold=threshold)
            yield f"{spec.name}/{tier}", capture.take()


def _xlat_cold_runs(capture, variant):
    sources = draw_blocks(Random(SEED), XLAT_PROGRAMS, XLAT_BRANCHY)
    for index, source in enumerate(sources):
        code = assemble(source + "\n    hlt", base=XLAT_BASE).code
        engine = api.make_engine(variant=variant, n_cores=1, seed=SEED)
        engine.load_image(XLAT_BASE, code)
        engine.run(XLAT_BASE)
        yield f"{index:03d}", capture.take()


RUNS = {"snippets": _snippet_runs, "fig12": _fig12_runs,
        "xlat_cold": _xlat_cold_runs}


def _digest(ops) -> str:
    facts = [(op.name, op.args, op.origin) for op in ops]
    return hashlib.sha256(repr(facts).encode()).hexdigest()[:12]


def observe(capture, surface: str, variant: str) -> dict:
    """``blocks``: per run, one ``"<constprop> <memopt> <all-on>
    <all-off> <default>"`` digest line per block; ``stats``: per
    config, the summed ``OptStats``.  Keys are prefixed
    ``<surface>/<variant>``."""
    prefix = f"{surface}/{variant}"
    blocks: dict[str, list[str]] = {}
    totals = {name: OptStats() for name in CONFIGS}
    for label, inputs in RUNS[surface](capture, variant):
        lines = []
        for ops in inputs:
            digests = []
            for name, config in CONFIGS.items():
                block = TCGBlock(guest_pc=0)
                block.ops = list(ops)
                totals[name].merge(optimize(block, config))
                digests.append(_digest(block.ops))
            lines.append(" ".join(digests))
        blocks[f"{prefix}/{label}"] = lines
    stats = {name: dataclasses.asdict(total)
             for name, total in totals.items()}
    return {"blocks": blocks, "stats": {prefix: stats}}


def _load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


@pytest.fixture
def capture(monkeypatch):
    return _Capture(monkeypatch)


class TestOptimizerGolden:
    @pytest.mark.parametrize("variant", GOLDEN_VARIANTS)
    @pytest.mark.parametrize("surface", SURFACES)
    def test_op_streams(self, capture, surface, variant):
        golden = _load_golden()
        seen = observe(capture, surface, variant)
        run = f"{surface}/{variant}"
        want = {label: lines for label, lines in golden["blocks"].items()
                if label.startswith(run + "/")}
        changed = sorted(label for label in want.keys()
                         | seen["blocks"].keys()
                         if want.get(label) != seen["blocks"].get(label))
        assert not changed
        assert seen["stats"] == {run: golden["stats"][run]}

    def test_golden_is_not_vacuous(self):
        """Every rule set fires somewhere, and every surface holds the
        blocks it should."""
        golden = _load_golden()
        stats = golden["stats"]["xlat_cold/no-fences"]
        assert stats["constprop"]["folded"] > 0
        assert stats["memopt"]["mem_eliminated"] > 0
        assert stats["all-off"] == dataclasses.asdict(OptStats())
        assert golden["stats"]["xlat_cold/risotto"]["all-on"][
            "fences_merged"] > 0
        counts = {surface: 0 for surface in SURFACES}
        for label, lines in golden["blocks"].items():
            counts[label.split("/")[0]] += len(lines)
        assert counts["snippets"] == len(SNIPPETS) * len(GOLDEN_VARIANTS)
        assert counts["fig12"] > len(ALL_SPECS) * len(GOLDEN_VARIANTS) * 2
        assert counts["xlat_cold"] > XLAT_PROGRAMS * len(GOLDEN_VARIANTS)


def _write_golden() -> None:
    patch = pytest.MonkeyPatch()
    patch.setenv("REPRO_XLAT_CACHE", "off")
    capture = _Capture(patch)
    golden = {"stats": {}, "blocks": {}}
    for surface in SURFACES:
        for variant in GOLDEN_VARIANTS:
            seen = observe(capture, surface, variant)
            for section in golden:
                golden[section].update(seen[section])
    patch.undo()
    # One run per line keeps the diff of a deliberate change readable.
    sections = []
    for section, table in golden.items():
        rows = ",\n".join(
            f"    {json.dumps(key)}: {json.dumps(value, sort_keys=True)}"
            for key, value in sorted(table.items()))
        sections.append(f"  {json.dumps(section)}: {{\n{rows}\n  }}")
    GOLDEN_PATH.write_text("{\n" + ",\n".join(sections) + "\n}\n")


if __name__ == "__main__":
    _write_golden()
