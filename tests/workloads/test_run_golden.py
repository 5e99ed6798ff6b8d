"""Row and result golden for the run descriptions: every cell, hashed.

A sweep cell runs through ``execute_spec`` and a job through
``api.submit``; whatever type describes the run, the normalized row
(:func:`~repro.workloads.parallel.deterministic_row`) and the job's
wire forms must not move.  The golden holds a digest of:

* ``rows`` — ``repr(deterministic_row(execute_spec(cell)))`` for every
  cell of small kernel, library and CAS grids, every registered
  ablation, the classic corpus under x86-TSO (dpor and staged), and
  the whole scheme matrix;
* ``jobs`` — for each job of the seed-11 loadgen mix, ``job.to_json()``
  and ``api.submit(job).to_json()`` without its two host-timed fields.

A last test runs each of those jobs both ways and requires the row and
the result to agree on every field they share, so the two outcome
mappings cannot drift apart again.

Regenerate (only when a row is meant to change)::

    PYTHONPATH=src python -m tests.workloads.test_run_golden
"""

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from repro import api
from repro.core.ablations import ABLATION_REGISTRY
from repro.core.enumerate import clear_behavior_cache
from repro.serve.loadgen import LoadgenConfig, gen_jobs

GOLDEN_PATH = Path(__file__).with_name("run_golden.json")

KERNELS = (api.SPEC_BY_NAME["histogram"], api.SPEC_BY_NAME["freqmine"])
MACHINE_VARIANTS = ("qemu", "risotto", "native")
#: (function, args, calls, setup) per case, as ``library_grid`` takes.
LIBM_CASES = {
    "sqrt": ("sqrt", (0x3FE0000000000000,), 6, None),
    "exp": ("exp", (0x3FE0000000000000,), 6, None),
    "log": ("log", (0x3FF8000000000000,), 6, None),
}
DIGEST_CASES = {"md5-256": ("md5", (api.DATA_BUF, 256), 2,
                            "digest-buffer")}
CAS_CONFIGS = (api.CasConfig(threads=2, variables=2, attempts=30),
               api.CasConfig(threads=2, variables=1, attempts=30))
#: Host-timed fields of a job result (the rest is spec-determined).
TIMED = ("wall_seconds", "queue_seconds")


def _classic() -> tuple[str, ...]:
    large = {test.name for test in api.FIVE_THREAD_CORPUS}
    return tuple(name for name in api.verify_registry()
                 if name not in large)


def grids() -> dict:
    """Grid name -> cells, in the order they are recorded."""
    return {
        "kernel-t1": api.kernel_grid(KERNELS, MACHINE_VARIANTS,
                                     iterations=12, tier2_threshold=0),
        "kernel-t2": api.kernel_grid(KERNELS, MACHINE_VARIANTS,
                                     iterations=12, tier2_threshold=1),
        "library": api.library_grid(LIBM_CASES, "libm", MACHINE_VARIANTS)
        + api.library_grid(DIGEST_CASES, "libcrypto", MACHINE_VARIANTS),
        "cas": api.cas_grid(CAS_CONFIGS, MACHINE_VARIANTS),
        "ablation": api.ablation_grid(ABLATION_REGISTRY),
        "verify-dpor": api.verify_grid(_classic(), ("x86-tso",),
                                       reduction="dpor"),
        "verify-staged": api.verify_grid(_classic(), ("x86-tso",),
                                         reduction="staged"),
        "scheme": api.scheme_grid(),
    }


def golden_jobs():
    return gen_jobs(LoadgenConfig(jobs=16, seed=11))


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _json_digest(payload: dict) -> str:
    return _digest(json.dumps(payload, sort_keys=True))


def row_digests(name: str, cells) -> dict[str, str]:
    """One digest per cell; the behaviour memo starts empty for each,
    so the cache and enumeration counters are the cell's own."""
    digests = {}
    for index, cell in enumerate(cells):
        clear_behavior_cache()
        row = api.deterministic_row(api.execute_spec(cell))
        label = f"{name}/{index:03d}/{cell.benchmark}@{cell.variant}"
        digests[label] = _digest(repr(row))
    return digests


def job_digests() -> dict[str, dict[str, str]]:
    digests = {}
    for job in golden_jobs():
        result = api.submit(job).to_json()
        for key in TIMED:
            del result[key]
        digests[job.job_id] = {"spec": _json_digest(job.to_json()),
                               "result": _json_digest(result)}
    return digests


def _load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


class TestRunGolden:
    @pytest.mark.parametrize("name", list(grids()))
    def test_rows(self, name):
        want = {label: digest
                for label, digest in _load_golden()["rows"].items()
                if label.startswith(name + "/")}
        assert want, name
        assert row_digests(name, grids()[name]) == want

    def test_jobs(self):
        assert job_digests() == _load_golden()["jobs"]

    def test_sweep_row_and_job_result_agree(self):
        shared = ({f.name for f in dataclasses.fields(api.RunRow)}
                  & {f.name for f in dataclasses.fields(api.JobResult)})
        shared -= set(TIMED)
        assert {"cycles", "checksum", "blocks_translated",
                "xlat_misses"} <= shared
        for job in golden_jobs():
            row = api.execute_spec(job)
            result = api.submit(job)
            differ = {name: (getattr(row, name), getattr(result, name))
                      for name in shared
                      if getattr(row, name) != getattr(result, name)}
            assert not differ, (job.job_id, differ)


def _write_golden() -> None:
    patch = pytest.MonkeyPatch()
    patch.setenv("REPRO_XLAT_CACHE", "off")
    rows = {}
    for name, cells in grids().items():
        rows.update(row_digests(name, cells))
    golden = {"rows": rows, "jobs": job_digests()}
    patch.undo()
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True)
                           + "\n")


if __name__ == "__main__":
    _write_golden()
