"""The counter path: one declaration, one fold, one export, one executor.

``RunCounters`` is the only place a run counter is declared; ``RunRow``
and ``SweepStats`` inherit it, ``aggregate_sweep`` folds it with
``add`` and the ``stats`` block of every ``bench_*.json`` is written by
iterating its fields.  The first class pins that a declared counter
cannot be lost on the way out (two once were summed and printed but
never exported while the export named its keys by hand); the second
keeps the hand-written copies, the twin kind if-chains under sweeps
and jobs, and the second run description (``RunSpec``, retired for
``JobSpec`` + ``LitmusSpec``) from growing back.
"""

import inspect
import re
from dataclasses import fields
from pathlib import Path

from repro.analysis.export import _sweep_stats, bench_payload
from repro.analysis.stats import RunCounters, SweepStats, aggregate_sweep
from repro.cli import build_parser
from repro.serve import loadgen, server
from repro.serve.jobs import JobResult
from repro.workloads import JobSpec, LitmusSpec, RunRow, SweepResult
from repro.workloads.runner import MACHINE_KINDS, _make_engine, \
    run_workload

from tests import knobs
from tests.import_closure import import_closure

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src" / "repro"
COUNTERS = fields(RunCounters)

#: The knobs a run can be given, pinned (in :mod:`tests.knobs`): a
#: second description or a per-kind side channel would have to add to
#: one of these.  The parsers below do not nest the fuzzer's.
CLI_FLAGS = (knobs.CLI_FLAGS - knobs.FUZZ_ONLY_FLAGS) | {"-h", "--help"}
JOB_FIELDS = (
    "kind", "benchmark", "variant", "seed", "max_steps", "buffer_mode",
    "tier2_threshold", "costs", "namespace", "job_id", "kernel",
    "library", "function", "args", "calls", "setup", "cas",
)
LITMUS_FIELDS = (
    "kind", "benchmark", "variant", "seed", "model", "reduction",
    "enum_limit", "rmw_lowering",
)


def _sources():
    return sorted(SRC.rglob("*.py"))


def _cli_flags() -> set[str]:
    """Every option of ``python -m repro`` and of its serve/loadgen
    front-ends, subcommands included."""
    flags = set()
    parsers = [build_parser(), loadgen.build_parser(),
               server.build_parser()]
    while parsers:
        for action in parsers.pop()._actions:
            flags.update(action.option_strings)
            parsers.extend((action.choices or {}).values()
                           if isinstance(action.choices, dict) else ())
    return flags


def _row(variant: str, scale: int) -> RunRow:
    """A row with every counter non-zero and distinct per field."""
    values = {
        f.name: {f"origin-{i}": scale * (i + 1)}
        if f.default_factory is dict else scale * (i + 1)
        for i, f in enumerate(COUNTERS)
    }
    return RunRow(benchmark="alpha", variant=variant, wall_seconds=0.5,
                  **values)


class TestEveryCounterIsExported:
    def test_each_field_reaches_the_stats_block(self):
        sweep = SweepResult(rows=[_row("qemu", 1), _row("risotto", 10)])
        stats = bench_payload("unit", sweep=sweep)["stats"]
        for i, f in enumerate(COUNTERS):
            exported = stats[f.metadata.get("export", f.name)]
            expected = 11 * (i + 1)
            if f.default_factory is dict:
                assert exported == {f"origin-{i}": expected}, f.name
            else:
                assert exported == expected, f.name

    def test_fold_leaves_the_rows_alone(self):
        rows = [_row("qemu", 1), _row("risotto", 10)]
        aggregate_sweep(rows)
        assert rows == [_row("qemu", 1), _row("risotto", 10)]


class TestNoSecondDeclaration:
    def test_subclasses_redeclare_no_counter(self):
        names = {f.name for f in COUNTERS}
        for cls in (RunRow, SweepStats):
            assert RunCounters in cls.__mro__
            assert not names & set(cls.__dict__["__annotations__"])

    def test_fold_and_export_name_no_counter(self):
        for fn in (aggregate_sweep, _sweep_stats):
            words = set(re.findall(r"\w+", inspect.getsource(fn)))
            assert not words & {f.name for f in COUNTERS}, fn.__name__

    def test_one_dispatcher_over_the_machine_kinds(self):
        calls = re.compile(
            r"\brun_(kernel|library_workload|cas_benchmark)\(")
        for module in ("serve/jobs.py", "workloads/parallel.py"):
            assert not calls.findall((SRC / module).read_text()), module
        assert list(inspect.signature(run_workload).parameters) == \
            ["desc", "library"]

    def test_both_descriptions_carry_what_the_executor_reads(self):
        read = set(re.findall(r"\bdesc\.(\w+)", "".join(
            inspect.getsource(fn)
            for fn in (run_workload, *MACHINE_KINDS.values()))))
        assert {"kind", "kernel", "library", "setup", "cas"} <= read
        assert read <= {f.name for f in fields(JobSpec)}

    def test_one_run_description(self):
        for path in [*_sources(), ROOT / "README.md", ROOT / "DESIGN.md"]:
            assert "RunSpec" not in path.read_text(), path
        assert tuple(f.name for f in fields(JobSpec)) == JOB_FIELDS
        assert tuple(f.name for f in fields(LitmusSpec)) == LITMUS_FIELDS

    def test_the_sweep_does_not_import_the_serve_layer(self):
        workloads = {f"repro.workloads.{path.stem}"
                     for path in (SRC / "workloads").glob("*.py")
                     if path.stem != "__init__"}
        assert not {name for name in import_closure(workloads)
                    if name.startswith("repro.serve")}

    def test_validate_is_the_only_payload_check(self):
        for fn in (run_workload, *MACHINE_KINDS.values()):
            source = inspect.getsource(fn)
            assert "missing" not in source and "raise" not in source, \
                fn.__name__
        assert set(MACHINE_KINDS) == {"kernel", "library", "cas"}

    def test_one_outcome_to_row_mapping(self):
        assert not hasattr(JobResult, "from_workload")
        for path in _sources():
            assert not re.search(r"\bfrom_workload\b",
                                 path.read_text()), path

    def test_no_new_knob(self):
        names = set()
        for path in _sources():
            names.update(re.findall(r"\bREPRO_[A-Z0-9_]*[A-Z0-9]\b",
                                    path.read_text()))
        assert names == knobs.REPRO_ENV
        assert _cli_flags() == CLI_FLAGS


class TestOneEngineBuild:
    def test_no_engine_is_built_outside_make_engine(self):
        # Each kind once built its own engine, and one of the copies
        # dropped the job's step budget and tier-2 knob.
        build = inspect.getsource(_make_engine)
        for path in sorted((SRC / "workloads").glob("*.py")):
            source = path.read_text().replace(build, "")
            assert not re.search(r"\b(DBTEngine|NativeRunner)\(",
                                 source), path
