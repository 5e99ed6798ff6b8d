"""Tests for the typed job schema (:mod:`repro.serve.jobs`).

The contract under test: a JobSpec/JobResult survives its JSON codec
unchanged, malformed payloads and responses fail as typed
:class:`JobError`s (never tracebacks), the error taxonomy classifies
exceptions subclass-first, a job's cache namespace is an argument that
no run writes into the environment, and local execution through a job
is bit-identical to the direct ``api`` call it replaces.
"""

import ast
import dataclasses
import io
import json
import math
import os
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro import api
from repro.dbt import xlat_cache
from repro.errors import (
    DecodeError,
    ErrorInfo,
    JobError,
    ReproError,
    classify_error,
    error_code,
)
from repro.machine.timing import CostModel
from repro.machine.weakmem import BufferMode
from repro.serve.jobs import (
    JOB_SCHEMA,
    JobResult,
    JobSpec,
    cache_tier,
    cas_job,
    execute_job,
    kernel_job,
    library_job,
    run_job,
)
from repro.serve.client import ServeClient
from repro.store import DiskStore, sanitize_namespace
from repro.workloads import parallel
from repro.workloads.casbench import CasConfig
from repro.workloads.jobspec import from_wire, to_wire
from repro.workloads.kernels import KernelSpec

TINY = KernelSpec("tiny", loads=2, stores=1, alu=2, fp=1,
                  iterations=40, threads=2, working_set=64)


class TestJobSpecCodec:
    def test_kernel_roundtrip(self):
        job = kernel_job(TINY, variant="risotto", seed=3,
                         costs=CostModel(), max_steps=1000,
                         buffer_mode=BufferMode.TSO,
                         tier2_threshold=16, namespace="t1",
                         job_id="j-1")
        assert JobSpec.from_json(job.to_json()) == job

    def test_library_roundtrip(self):
        job = library_job("sqrt", (7,), 4, variant="qemu",
                          library="libm", setup="digest-buffer",
                          namespace="t2")
        twin = JobSpec.from_json(job.to_json())
        assert twin == job
        assert twin.args == (7,)  # tuple restored, not list

    def test_cas_roundtrip(self):
        job = cas_job(CasConfig(threads=2, variables=1, attempts=9),
                      variant="tcg-ver")
        assert JobSpec.from_json(job.to_json()) == job

    def test_null_tier2_threshold_decodes_to_off(self):
        # Clients that predate the integer form send null for off.
        payload = kernel_job(TINY, variant="qemu",
                             tier2_threshold=16).to_json()
        payload["tier2_threshold"] = None
        assert JobSpec.from_json(payload).tier2_threshold == 0

    def test_schema_tag_checked(self):
        payload = kernel_job(TINY, variant="qemu").to_json()
        payload["schema"] = "repro-serve/99"
        with pytest.raises(JobError, match="unsupported"):
            JobSpec.from_json(payload)

    def test_unknown_buffer_mode_is_typed(self):
        payload = kernel_job(TINY, variant="qemu").to_json()
        payload["buffer_mode"] = "psychic"
        with pytest.raises(JobError, match="buffer_mode"):
            JobSpec.from_json(payload)

    def test_malformed_payload_is_typed(self):
        with pytest.raises(JobError, match="malformed"):
            JobSpec.from_json({"schema": JOB_SCHEMA, "kind": "kernel",
                               "variant": "qemu"})  # no benchmark
        with pytest.raises(JobError, match="object"):
            JobSpec.from_json("not a dict")


def _wire_trip(record):
    """``record`` through its codec and real JSON text."""
    return type(record).from_json(json.loads(json.dumps(record.to_json())))


NAMES = st.text("abcdefghijklmnopqrstuvwxyz0123456789._-", min_size=1,
                max_size=8)
COUNTS = st.integers(min_value=0, max_value=2 ** 40)
#: Names a job may carry as its namespace: ``validate`` rejects the
#: ones ``sanitize_namespace`` would change (``.`` and ``..`` among
#: them), so only those it leaves alone are valid.
NAMESPACES = NAMES.filter(lambda name: sanitize_namespace(name) == name)
#: What every kind of job takes besides its payload.
COMMON = {
    "variant": NAMES,
    "seed": COUNTS,
    "costs": st.none() | st.builds(CostModel, **{
        f.name: COUNTS for f in dataclasses.fields(CostModel)}),
    "buffer_mode": st.sampled_from(BufferMode),
    "namespace": st.just("") | NAMESPACES,
    "job_id": st.text(max_size=8),
}
#: Any valid job of every kind, with every optional field drawn.
JOBS = st.one_of(
    st.builds(kernel_job, st.builds(KernelSpec, NAMES, *[COUNTS] * 7,
                                    NAMES),
              tier2_threshold=COUNTS, **COMMON),
    st.builds(library_job, NAMES, st.lists(COUNTS, max_size=3).map(tuple),
              st.integers(min_value=1, max_value=64),
              library=st.none() | NAMES, setup=st.none() | NAMES,
              tier2_threshold=COUNTS, **COMMON),
    st.builds(cas_job, st.builds(CasConfig, COUNTS, COUNTS, COUNTS),
              **COMMON))


class TestRoundTripProperty:
    """Any valid record survives its codec and JSON text unchanged."""

    @settings(max_examples=150, deadline=None)
    @given(JOBS)
    def test_any_valid_job(self, job):
        job.validate()
        assert _wire_trip(job) == job

    @settings(max_examples=100, deadline=None)
    @given(st.builds(
        JobResult, job_id=st.text(max_size=8), kind=NAMES,
        benchmark=NAMES, variant=NAMES, seed=COUNTS,
        namespace=st.just("") | NAMES, cycles=COUNTS,
        fence_cycles=COUNTS, total_cycles=COUNTS,
        checksum=st.none() | st.integers(), exit_code=st.integers(),
        wall_seconds=st.floats(0, 1e6), blocks_translated=COUNTS,
        xlat_hits=COUNTS, xlat_misses=COUNTS, xlat_disk_hits=COUNTS,
        cache_tier=st.sampled_from(["cold", "disk", "memory", "none"]),
        queue_seconds=st.floats(0, 1e6)))
    def test_any_success_result(self, result):
        assert _wire_trip(result) == result

    @settings(max_examples=100, deadline=None)
    @given(JOBS, st.builds(ErrorInfo, NAMES, st.text(max_size=20),
                           st.booleans()), st.floats(0, 1e6))
    def test_any_failure_result(self, job, error, wall):
        result = JobResult.from_error(job, error, wall)
        assert _wire_trip(result) == result


#: A valid job of each kind, every nested record present.
KERNEL_JOB = kernel_job(TINY, variant="qemu", costs=CostModel())
CAS_JOB = cas_job(CasConfig(2, 2, 4), variant="qemu", costs=CostModel())
LIBRARY_JOB = library_job("sqrt", (7,), 4, variant="qemu", library="libm")
#: (job, path of keys into its payload, a value of the wrong type): each
#: once decoded as something other than what was sent.
MISTYPED = [
    (KERNEL_JOB, ("seed",), 1.5), (KERNEL_JOB, ("seed",), True),
    (KERNEL_JOB, ("tier2_threshold",), 2.9),
    (KERNEL_JOB, ("variant",), 7), (KERNEL_JOB, ("buffer_mode",), 3),
    (KERNEL_JOB, ("kernel", "iterations"), "40"),
    (CAS_JOB, ("cas", "attempts"), "6"),
    (KERNEL_JOB, ("costs", "dmb_ff"), True),
    (LIBRARY_JOB, ("args",), [1.9]),
]


class TestNoCoercion:
    @pytest.mark.parametrize("job, path, value", MISTYPED,
                             ids=[f"{'.'.join(path)}={value!r}"
                                  for _, path, value in MISTYPED])
    def test_mistyped_value_is_rejected(self, job, path, value):
        payload = json.loads(json.dumps(job.to_json()))
        *parents, key = path
        target = payload
        for name in parents:
            target = target[name]
        target[key] = value
        with pytest.raises(JobError, match=key):
            JobSpec.from_json(payload)


class TestValidation:
    def test_unknown_kind(self):
        with pytest.raises(JobError, match="unknown job kind"):
            JobSpec(kind="yoga", benchmark="b",
                    variant="qemu").validate()

    def test_missing_payload_per_kind(self):
        with pytest.raises(JobError, match="kernel payload"):
            JobSpec(kind="kernel", benchmark="b",
                    variant="qemu").validate()
        with pytest.raises(JobError, match="library payload"):
            JobSpec(kind="library", benchmark="b", variant="qemu",
                    function="sqrt", calls=0).validate()
        with pytest.raises(JobError, match="cas payload"):
            JobSpec(kind="cas", benchmark="b",
                    variant="qemu").validate()

    @pytest.mark.parametrize("threshold", [-1, None])
    def test_tier2_threshold_is_a_count(self, threshold):
        with pytest.raises(JobError, match="tier2_threshold"):
            kernel_job(TINY, variant="qemu",
                       tier2_threshold=threshold).validate()

    def test_namespace_must_be_sanitized(self):
        with pytest.raises(JobError, match="namespace"):
            JobSpec(kind="kernel", benchmark="b", variant="qemu",
                    kernel=TINY, namespace="../evil").validate()
        # The sanitized spelling of the same intent is fine.
        JobSpec(kind="kernel", benchmark="b", variant="qemu",
                kernel=TINY,
                namespace=sanitize_namespace("te nant/1")).validate()

    def test_sanitize_namespace(self):
        assert sanitize_namespace("alice") == "alice"
        assert sanitize_namespace(" a/b:c ") == "abc"
        assert sanitize_namespace("..") == ""
        assert sanitize_namespace("...") == ""
        assert sanitize_namespace("a.b-c_d") == "a.b-c_d"


#: The smallest result payload the decoder accepts.
MINIMAL_RESULT = {"schema": JOB_SCHEMA, "kind": "kernel",
                  "benchmark": "b", "variant": "qemu"}


class TestJobResultCodec:
    def test_success_roundtrip(self):
        result = JobResult(job_id="j", kind="kernel", benchmark="b",
                           variant="qemu", seed=7, namespace="n",
                           cycles=10, fence_cycles=2, total_cycles=10,
                           checksum=123, wall_seconds=0.5,
                           blocks_translated=4, xlat_hits=3,
                           xlat_misses=1, xlat_disk_hits=2,
                           cache_tier="cold", queue_seconds=0.01,
                           batch_size=3)
        assert JobResult.from_json(result.to_json()) == result

    def test_error_roundtrip(self):
        job = kernel_job(TINY, variant="qemu", job_id="j-err")
        result = JobResult.from_error(
            job, ErrorInfo("timeout", "TimeoutError: slow", True))
        twin = JobResult.from_json(result.to_json())
        assert not twin.ok
        assert twin.error == ErrorInfo("timeout",
                                       "TimeoutError: slow", True)
        assert twin.job_id == "j-err"

    def test_outcome_never_serialized(self):
        result = JobResult(job_id="", kind="cas", benchmark="2-2",
                           variant="qemu", seed=7, outcome=object())
        assert "outcome" not in result.to_json()

    def test_schema_tag_checked(self):
        with pytest.raises(JobError, match="unsupported"):
            JobResult.from_json({"schema": "repro-serve/0"})

    @pytest.mark.parametrize("payload", [
        [1, 2],
        "x",
        {**MINIMAL_RESULT, "ok": "false"},
        {**MINIMAL_RESULT, "ok": False, "error": "oops"},
        {**MINIMAL_RESULT, "cycles": True},
        {**MINIMAL_RESULT, "seed": 1.5},
        {**MINIMAL_RESULT, "checksum": "7"},
        {**MINIMAL_RESULT, "wall_seconds": 10 ** 400},
    ], ids=["list", "string", "ok-string", "error-string",
            "bool-cycles", "float-seed", "string-checksum",
            "float-overflow"])
    def test_malformed_result_is_typed(self, payload):
        with pytest.raises(JobError):
            JobResult.from_json(payload)

    def test_absent_keys_decode_as_defaults(self):
        result = JobResult.from_json(MINIMAL_RESULT)
        assert not result.ok  # a result that does not say so failed
        assert (result.job_id, result.seed, result.error) == ("", 0, None)
        assert result.cache_tier == "none" and result.batch_size == 1
        for required in ("kind", "benchmark", "variant"):
            payload = dict(MINIMAL_RESULT)
            del payload[required]
            with pytest.raises(JobError, match=required):
                JobResult.from_json(payload)

    def test_integral_float_fields_decode_as_floats(self):
        result = JobResult.from_json({**MINIMAL_RESULT,
                                      "wall_seconds": 2})
        assert type(result.wall_seconds) is float


#: Any JSON value, with the edge numbers drawn often (NaN and the
#: infinities included: Python's ``json`` reads them).
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=6)
    | st.sampled_from([math.inf, -math.inf, math.nan, -1, 2 ** 64]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6)

#: (codec, a valid payload of it): every job kind, a success and a
#: failure.
VALID_PAYLOADS = [
    (JobSpec, kernel_job(TINY, variant="risotto", costs=CostModel(),
                         tier2_threshold=4, namespace="t").to_json()),
    (JobSpec, library_job("sqrt", (7,), 4, variant="qemu",
                          library="libm",
                          setup="digest-buffer").to_json()),
    (JobSpec, cas_job(CasConfig(threads=2, variables=2, attempts=4),
                      variant="qemu").to_json()),
    (JobResult, JobResult(job_id="j", kind="kernel", benchmark="b",
                          variant="qemu", seed=7, cycles=10,
                          checksum=3, wall_seconds=0.5).to_json()),
    (JobResult, JobResult.from_error(
        kernel_job(TINY, variant="qemu"),
        ErrorInfo("timeout", "TimeoutError: slow", True)).to_json()),
]


class TestProtocolFuzz:
    """Whatever arrives, a decoder returns or raises :class:`JobError`:
    never a traceback of another type."""

    @settings(max_examples=50, deadline=None)
    @given(st.data())
    def test_one_field_replaced_or_removed(self, data):
        for codec, valid in VALID_PAYLOADS:
            for key in valid:
                removed = {k: v for k, v in valid.items() if k != key}
                replaced = {**valid, key: data.draw(JSON_VALUES)}
                for payload in (removed, replaced):
                    try:
                        codec.from_json(payload)
                    except JobError:
                        pass

    @settings(max_examples=100, deadline=None)
    @given(JSON_VALUES.filter(lambda value: not isinstance(value, dict)))
    def test_non_objects(self, value):
        for codec in (JobSpec, JobResult):
            with pytest.raises(JobError):
                codec.from_json(value)


class TestClientTypedErrors:
    """A response line that is JSON but not what the protocol sends is
    a :class:`JobError` on the client, like any protocol breakage."""

    @pytest.mark.parametrize("line", [
        "[1, 2]", "null", '"x"',
        json.dumps({"schema": JOB_SCHEMA, "ok": False, "error": "oops"}),
        json.dumps({"schema": JOB_SCHEMA, "ok": False, "error": [1]}),
    ], ids=["list", "null", "string", "error-string", "error-list"])
    def test_malformed_response_is_typed(self, line):
        client = object.__new__(ServeClient)  # no socket: fake streams
        client._rfile = io.BytesIO(line.encode() + b"\n")
        client._wfile = io.BytesIO()
        with pytest.raises(JobError):
            client.submit(kernel_job(TINY, variant="qemu"))


class TestCacheTier:
    def test_precedence(self):
        assert cache_tier(0, 1, 0) == "cold"
        assert cache_tier(5, 1, 5) == "cold"  # any miss wins
        assert cache_tier(5, 0, 2) == "disk"
        assert cache_tier(5, 0, 0) == "memory"
        assert cache_tier(0, 0, 0) == "none"


class TestErrorTaxonomy:
    def test_subclass_ordering(self):
        # DecodeError is a ReproError; the taxonomy must see the
        # subclass first, not collapse everything to "repro".
        assert error_code(DecodeError("bad byte")) == "decode"
        assert error_code(ReproError("plain")) == "repro"
        assert error_code(JobError("nope")) == "bad-request"

    def test_stdlib_and_fallback_codes(self):
        assert error_code(TimeoutError("slow")) == "timeout"
        assert error_code(OSError("disk")) == "io"
        assert error_code(ValueError("what")) == "internal"

    def test_retryable_flags(self):
        assert classify_error(TimeoutError("slow")).retryable
        assert classify_error(OSError("disk")).retryable
        assert classify_error(ValueError("bug")).retryable
        assert not classify_error(JobError("bad job")).retryable
        assert not classify_error(ReproError("model says no")).retryable

    def test_message_names_the_type(self):
        info = classify_error(ReproError("boom"))
        assert info == ErrorInfo("repro", "ReproError: boom", False)
        assert from_wire(ErrorInfo, to_wire(info)) == info


#: The ``os.environ`` methods that change it.
ENVIRON_WRITERS = {"pop", "popitem", "update", "setdefault", "clear",
                   "__setitem__", "__delitem__"}


class TestTenancyIsAnArgument:
    """A job's namespace reaches its engine as an argument: the run
    writes nothing to ``os.environ`` (a process-wide write that every
    thread of a server shares)."""

    @pytest.fixture()
    def cache_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv(xlat_cache.ENV_VAR, str(tmp_path))
        monkeypatch.delenv(xlat_cache.NAMESPACE_ENV, raising=False)
        yield tmp_path
        xlat_cache.reset_memory()

    def test_empty_namespace_uses_the_ambient_one(self, cache_root,
                                                  monkeypatch):
        # "" must not clear an ambient namespace: local api.run_*
        # calls behave exactly as before the serve layer existed.
        monkeypatch.setenv(xlat_cache.NAMESPACE_ENV, "ambient")
        result = api.submit(kernel_job(TINY, variant="risotto", seed=5))
        assert result.ok and result.xlat_misses > 0
        assert DiskStore(cache_root / "ambient").entries()
        assert not DiskStore(cache_root).entries()

    def test_namespaced_submit_leaves_the_environment(self, cache_root,
                                                      monkeypatch):
        before = dict(os.environ)
        during = []
        run_workload = parallel.run_workload

        def spy(job, **kwargs):
            during.append(dict(os.environ))
            return run_workload(job, **kwargs)

        monkeypatch.setattr(parallel, "run_workload", spy)
        result = api.submit(kernel_job(TINY, variant="risotto", seed=5,
                                       namespace="tenant"))
        assert during == [before]
        assert result.ok and result.xlat_misses > 0
        assert DiskStore(cache_root / "tenant").entries()
        assert not DiskStore(cache_root).entries()

    def test_nothing_in_the_package_writes_the_environment(self):
        def is_environ(node) -> bool:
            return ast.unparse(node) in ("os.environ", "environ")

        root = Path(repro.__file__).parent
        writes = []
        for path in sorted(root.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Subscript) and isinstance(
                        node.ctx, (ast.Store, ast.Del)):
                    written = is_environ(node.value)
                elif isinstance(node, ast.Call):
                    func = node.func
                    written = ast.unparse(func) in ("os.putenv",
                                                    "os.unsetenv") \
                        or isinstance(func, ast.Attribute) \
                        and is_environ(func.value) \
                        and func.attr in ENVIRON_WRITERS
                else:
                    continue
                if written:
                    writes.append(f"{path.name}:{node.lineno}")
        assert writes == []


class TestLocalExecution:
    def test_execute_job_matches_direct_call(self):
        direct = api.run_kernel(TINY, variant="risotto", seed=5)
        result = execute_job(kernel_job(TINY, variant="risotto",
                                        seed=5))
        assert result.ok
        assert result.checksum == direct.checksum
        assert result.cycles == direct.result.elapsed_cycles
        assert result.outcome.checksum == direct.checksum

    def test_api_submit_is_execute_job(self):
        job = cas_job(CasConfig(threads=2, variables=2, attempts=20),
                      variant="qemu")
        via_api = api.submit(job)
        direct = api.run_cas_benchmark(
            CasConfig(threads=2, variables=2, attempts=20),
            variant="qemu")
        assert via_api.cycles == direct.result.elapsed_cycles
        assert via_api.outcome.checksum == direct.checksum

    def test_run_job_classifies_unknown_library(self):
        job = library_job("sqrt", (7,), 2, variant="qemu",
                          library="libdoesnotexist")
        result = run_job(job)
        assert not result.ok
        assert result.error.code == "bad-request"
        assert "libdoesnotexist" in result.error.message

    def test_run_job_classifies_unknown_setup(self):
        job = library_job("sqrt", (7,), 2, variant="qemu",
                          library="libm", setup="mystery")
        result = run_job(job)
        assert not result.ok
        assert result.error.code == "bad-request"

    def test_run_job_never_raises_on_invalid_spec(self):
        result = run_job(JobSpec(kind="kernel", benchmark="x",
                                 variant="qemu"))
        assert not result.ok
        assert result.error.code == "bad-request"

