"""Multi-tenant cache namespacing tests.

The acceptance contract: two clients submitting under distinct
namespaces simultaneously get results bit-identical to direct
``api.run_kernel`` calls, and neither tenant ever reads the other's
cache entries (a tenant's warm run hits only its own namespace; a
fresh tenant running the same bytes starts cold).  Eviction stays
safe under simultaneous writers, and ``namespace_usage`` enumerates
every tenant for ``python -m repro cache stats``.
"""

import dataclasses
import threading

import pytest

from repro import api
from repro.dbt import xlat_cache
from repro.dbt.xlat_cache import XlatCache
from repro.isa.arm.assembler import parse
from repro.store import DiskStore
from repro.serve import (
    ReproServer,
    ServeClient,
    ServeConfig,
    kernel_job,
)
from repro.tcg.backend_arm import CompiledBlock
from repro.tcg.optimizer import OptStats
from repro.workloads.kernels import KernelSpec

TINY = KernelSpec("tiny", loads=2, stores=1, alu=2, fp=1,
                  iterations=40, threads=2, working_set=64)


@pytest.fixture()
def cache_env(tmp_path, monkeypatch):
    """The translation cache enabled, rooted in the test tmp dir."""
    monkeypatch.setenv("REPRO_XLAT_CACHE", str(tmp_path / "xlat"))
    monkeypatch.delenv("REPRO_XLAT_CACHE_NS", raising=False)
    yield tmp_path
    xlat_cache.reset_memory()


@pytest.fixture()
def server(cache_env):
    srv = ReproServer(ServeConfig(port=0, workers=0))
    srv.start_background()
    yield srv
    srv.close()


class TestTenantIsolation:
    def test_concurrent_tenants_bit_identical_to_direct(self, server):
        # The reference result comes from a plain api call (root
        # namespace) before any tenant has populated anything.
        direct = api.run_kernel(TINY, variant="risotto", seed=5)
        host, port = server.address
        outcomes = {}

        def tenant(name: str) -> None:
            with ServeClient(host, port) as client:
                outcomes[name] = client.submit_many(
                    [kernel_job(TINY, variant="risotto", seed=5,
                                namespace=name, job_id=f"{name}-{i}")
                     for i in range(2)])

        threads = [threading.Thread(target=tenant, args=(name,))
                   for name in ("alice", "bob")]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        for name in ("alice", "bob"):
            for result in outcomes[name]:
                assert result.ok
                assert result.namespace == name
                assert result.checksum == direct.checksum
                assert result.cycles == direct.result.elapsed_cycles

        # Both tenants produced disk entries under their own prefix.
        usage = xlat_cache.namespace_usage()
        assert usage["alice"]["entries"] > 0
        assert usage["bob"]["entries"] > 0

    def test_zero_cross_namespace_reads(self, server):
        host, port = server.address
        job = kernel_job(TINY, variant="risotto", seed=5,
                         namespace="alice")
        with ServeClient(host, port) as client:
            cold = client.submit(job)
            assert cold.cache_tier == "cold"
            assert cold.xlat_misses > 0

            # Warm run in the same namespace: every translation is
            # served from alice's entries.
            warm = client.submit(job)
            assert warm.xlat_misses == 0
            assert warm.cache_tier in ("memory", "disk")
            assert warm.checksum == cold.checksum

            # A fresh tenant running the same bytes starts cold: if
            # any cross-namespace read existed, this would hit.
            fresh = client.submit(kernel_job(
                TINY, variant="risotto", seed=5, namespace="carol"))
            assert fresh.xlat_misses > 0
            assert fresh.cache_tier == "cold"
            assert fresh.checksum == cold.checksum


class TestNamespaceUsage:
    def test_enumerates_root_and_tenants(self, cache_env, server):
        host, port = server.address
        with ServeClient(host, port) as client:
            client.submit(kernel_job(TINY, variant="qemu", seed=5,
                                     namespace="alice"))
            client.submit(kernel_job(TINY, variant="qemu", seed=5))
        usage = xlat_cache.namespace_usage()
        assert set(usage) == {"", "alice"}
        assert usage[""]["entries"] > 0       # root namespace
        assert usage["alice"]["entries"] > 0
        assert usage["alice"]["bytes"] > 0

    def test_missing_store_is_empty(self, cache_env):
        assert xlat_cache.namespace_usage() == {}

    def test_shardlike_namespace_not_miscounted(self, cache_env,
                                                server):
        # A tenant spelled like an entry file ("ab.json") is still a
        # directory: the root neither counts it nor clears or evicts
        # its entry.
        host, port = server.address
        job = kernel_job(TINY, variant="qemu", seed=5,
                         namespace="ab.json", job_id="cold")
        with ServeClient(host, port) as client:
            assert client.submit(job).ok
        usage = xlat_cache.namespace_usage()
        assert usage[""]["entries"] == 0
        assert usage["ab.json"]["entries"] > 0
        assert xlat_cache.clear_disk_cache() == 0
        assert DiskStore(xlat_cache.base_dir(),
                         max_bytes=1).evict_to_budget() == []
        assert xlat_cache.namespace_usage()["ab.json"] == \
            usage["ab.json"]
        xlat_cache.reset_memory()
        with ServeClient(host, port) as client:
            warm = client.submit(dataclasses.replace(job, job_id="warm"))
        assert warm.ok and warm.xlat_misses == 0
        assert warm.cache_tier == "disk"

    def test_api_reexports(self, cache_env):
        from repro.store import namespace_usage
        DiskStore(xlat_cache.base_dir() / "alice").write("0a" * 32, b"{}")
        assert api.xlat_cache_namespaces() \
            == namespace_usage(xlat_cache.base_dir()) \
            == {"": {"entries": 0, "bytes": 0},
                "alice": {"entries": 1, "bytes": 2}}


class TestNamespaceSanitization:
    def test_cache_dir_scopes_by_namespace(self, cache_env,
                                           monkeypatch):
        root = xlat_cache.cache_dir()
        monkeypatch.setenv("REPRO_XLAT_CACHE_NS", "alice")
        assert xlat_cache.cache_dir() == root / "alice"


def _entry(pc: int) -> tuple[CompiledBlock, OptStats]:
    return CompiledBlock.from_records(
        guest_pc=pc,
        records=parse(f"block_{pc:x}:\n" + "    nop\n" * 40
                      + "    ret\n"),
        helper_requests=[],
        guest_insns=3,
        op_count=7,
        fence_origins=[],
    ), OptStats()


class TestConcurrentEviction:
    def test_simultaneous_writers_respect_the_budget(self, tmp_path):
        # Many threads hammer one namespace's store with a budget far
        # smaller than the combined write volume; eviction races with
        # concurrent puts and unlinks must neither raise nor leave the
        # store over budget once the dust settles.
        budget = 4096
        cache = XlatCache(tmp_path / "xlat" / "tenant",
                          max_disk_bytes=budget)
        errors: list[Exception] = []

        def writer(base: int) -> None:
            try:
                for i in range(25):
                    key = f"{base:02x}{i:02x}" + "ab" * 30
                    compiled, opt = _entry(0x400000 + base + i)
                    cache.put(key, compiled, opt)
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(base,))
                   for base in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert errors == []
        entries, size = cache.disk_usage()
        assert size <= budget
        assert entries > 0
        # Survivors are intact entries, not torn writes.
        disk = DiskStore(tmp_path / "xlat" / "tenant")
        survivors = disk.entries()
        assert len(survivors) == entries
        for _, _, key in survivors:
            assert key.endswith("ab" * 30)
            body = disk.read(key)
            assert body[32:].startswith(xlat_cache._schema_tag())
            xlat_cache._entry_from_bytes(body)
