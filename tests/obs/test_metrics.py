"""One accounting path: the run rows, job results and fuzz reports are
the only record of what they count.  ``repro.obs.metrics`` holds the
``Counters`` base of the producer ``*Stats`` blocks and nothing else,
so no labelled registry grows back beside them, and no row, sweep,
job result, bench export or serve ``stats`` answer carries a second,
re-counted ``metrics`` copy."""

import ast
import dataclasses
import inspect

from repro.analysis.export import bench_payload
from repro.obs import metrics
from repro.serve import ReproServer, ServeConfig
from repro.serve.jobs import JobResult
from repro.workloads import RunRow, SweepResult, run_parallel, verify_grid

STATS_KEYS = {"schema", "uptime_seconds", "workers", "jobs_dispatched"}


def _public_definitions(module) -> set[str]:
    """Top-level names the module itself binds (imports excluded)."""
    names = set()
    for node in ast.parse(inspect.getsource(module)).body:
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets
                         if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) \
                and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return {name for name in names if not name.startswith("_")}


def test_no_registry_beside_the_rows():
    assert _public_definitions(metrics) == {"Counters"}
    for record in (RunRow, SweepResult, JobResult):
        names = {f.name for f in dataclasses.fields(record)}
        assert "metrics" not in names, record.__name__
    sweep = run_parallel(verify_grid(tests=("MP",), models=("x86-tso",)),
                         workers=1, strict=True)
    assert "metrics" not in bench_payload("verify", sweep=sweep)
    server = ReproServer(ServeConfig(port=0, workers=0))
    server.start_background()
    try:
        assert set(server.stats_payload()) == STATS_KEYS
    finally:
        server.close()
