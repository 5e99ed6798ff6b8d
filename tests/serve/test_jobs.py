"""Tests for the typed job schema (:mod:`repro.serve.jobs`).

The contract under test: a JobSpec/JobResult survives its JSON codec
unchanged, malformed payloads fail as typed :class:`JobError`s (never
tracebacks), the error taxonomy classifies exceptions subclass-first,
and local execution through a job is bit-identical to the direct
``api`` call it replaces.
"""

import os

import pytest

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
    scoped_namespace,
)
from repro.store import sanitize_namespace
from repro.workloads.casbench import CasConfig
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
        assert ErrorInfo.from_json(info.to_json()) == info


class TestScopedNamespace:
    def test_sets_and_restores_the_env(self, monkeypatch):
        monkeypatch.delenv(xlat_cache.NAMESPACE_ENV, raising=False)
        with scoped_namespace("tenant"):
            assert os.environ[xlat_cache.NAMESPACE_ENV] == "tenant"
        assert xlat_cache.NAMESPACE_ENV not in os.environ
        monkeypatch.setenv(xlat_cache.NAMESPACE_ENV, "ambient")
        with scoped_namespace("tenant"):
            assert os.environ[xlat_cache.NAMESPACE_ENV] == "tenant"
        assert os.environ[xlat_cache.NAMESPACE_ENV] == "ambient"

    def test_empty_namespace_inherits_environment(self, monkeypatch):
        # "" must NOT clear ambient namespaces: local api.run_* calls
        # behave exactly as before the serve layer existed.
        monkeypatch.setenv(xlat_cache.NAMESPACE_ENV, "ambient")
        with scoped_namespace(""):
            assert os.environ[xlat_cache.NAMESPACE_ENV] == "ambient"


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

