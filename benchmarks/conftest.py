"""Shared helpers for the figure-regeneration harness.

Each benchmark regenerates one table/figure from the paper's
evaluation, prints it, and writes it under results/ so the run leaves
a reviewable artefact.  Shape assertions (who wins, by roughly what
factor, where crossovers fall) make the harness self-checking.
"""

import pathlib

import pytest

from repro.analysis.export import write_bench_json
from repro.obs.trace import flush_env_trace

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "results"


@pytest.fixture(scope="session", autouse=True)
def _private_xlat_cache(tmp_path_factory):
    """Every harness translates into a fresh, session-private cache:
    a figure's "from disk" counts must come from this run, never from
    the user's ``./.repro-cache``.  Tests that need their own cache
    directory still set one per test."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_XLAT_CACHE",
                     str(tmp_path_factory.mktemp("xlat")))
        yield


@pytest.fixture(scope="session", autouse=True)
def _flush_trace():
    """REPRO_TRACE=1 runs flush their trace to results/trace.json
    (or REPRO_TRACE_FILE) when the harness session ends; a no-op with
    tracing disabled."""
    yield
    flush_env_trace(str(RESULTS_DIR / "trace.json"))


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture
def emit_report(results_dir, capsys):
    """Print a report and persist it under results/<name>.txt — a
    committed golden, so the text must be a function of the tree and
    the seed: no host time, worker count or cache warmth."""

    def emit(name: str, text: str) -> None:
        (results_dir / f"{name}.txt").write_text(text + "\n")
        with capsys.disabled():
            print("\n" + text)

    return emit


@pytest.fixture
def emit_bench(results_dir):
    """Write a figure's machine-readable export to
    results/bench_<figure>.json (see repro.analysis.export).  Host
    time lives there; the history store is written only by
    ``python -m repro perf record``."""

    def emit(figure: str, table=None, sweep=None, series=None,
             extra=None, config=None) -> pathlib.Path:
        return write_bench_json(
            results_dir / f"bench_{figure}.json", figure,
            table=table, sweep=sweep, series=series, extra=extra,
            config=config)

    return emit
