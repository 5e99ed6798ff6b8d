"""End-to-end tests for the serve front-end.

The acceptance contract: a served job returns results bit-identical
to the direct ``api`` call for every job kind, pipelined requests
form batches, failures arrive as typed error results (never dropped
connections), and the control ops (ping/stats/shutdown) work.

The servers here run with ``workers=0`` (inline execution in the
dispatcher thread): the batch/observability path is identical to the
pool path minus process fan-out, and tier-1 stays fast.  The pool
path itself is exercised by the serve benchmark and the CI smoke job.
"""

import json
import time

import pytest

from repro import api
from repro.errors import JobError
from repro.serve import (
    ReproServer,
    ServeClient,
    ServeConfig,
    cas_job,
    kernel_job,
    library_job,
)
from repro.serve.server import _run_batch
from repro.workloads.casbench import CasConfig
from repro.workloads.kernels import KernelSpec

TINY = KernelSpec("tiny", loads=2, stores=1, alu=2, fp=1,
                  iterations=40, threads=2, working_set=64)
CAS = CasConfig(threads=2, variables=2, attempts=20)


@pytest.fixture()
def server():
    srv = ReproServer(ServeConfig(port=0, workers=0,
                                  batch_window=0.02))
    srv.start_background()
    yield srv
    srv.close()


@pytest.fixture()
def client(server):
    host, port = server.address
    c = ServeClient(host, port)
    yield c
    c.close()


class TestRoundTrip:
    def test_kernel_bit_identical_to_direct_call(self, client):
        direct = api.run_kernel(TINY, variant="risotto", seed=5)
        served = client.submit(kernel_job(TINY, variant="risotto",
                                          seed=5, job_id="k1"))
        assert served.ok
        assert served.job_id == "k1"
        assert served.checksum == direct.checksum
        assert served.cycles == direct.result.elapsed_cycles
        assert served.fence_cycles == direct.result.fence_cycles
        assert served.total_cycles == direct.result.total_cycles
        assert served.exit_code == direct.result.exit_code

    def test_library_bit_identical_to_direct_call(self, client):
        args = (0x3FE0000000000000,)  # 0.5 as float64 bits
        direct = api.run_library_workload(
            "sqrt", args, 4, variant="qemu",
            library=api.build_libm())
        served = client.submit(library_job("sqrt", args, 4,
                                           variant="qemu",
                                           library="libm"))
        assert served.ok
        assert served.checksum == direct.checksum
        assert served.cycles == direct.result.elapsed_cycles

    def test_cas_bit_identical_to_direct_call(self, client):
        direct = api.run_cas_benchmark(CAS, variant="qemu")
        served = client.submit(cas_job(CAS, variant="qemu"))
        assert served.ok
        assert served.checksum == direct.checksum
        assert served.cycles == direct.result.elapsed_cycles

    def test_ping(self, client):
        assert client.ping() is True

    def test_stats(self, client):
        client.submit(cas_job(CAS, variant="qemu"))
        stats = client.stats()
        assert stats["schema"] == "repro-serve/1"
        assert stats["workers"] == 0
        assert stats["jobs_dispatched"] >= 1
        assert stats["batches_dispatched"] >= 1


class TestBatching:
    def test_pipelined_jobs_share_a_batch(self, server):
        host, port = server.address
        with ServeClient(host, port) as client:
            jobs = [cas_job(CAS, variant="qemu", job_id=f"b{i}")
                    for i in range(3)]
            results = client.submit_many(jobs)
        assert [r.job_id for r in results] == ["b0", "b1", "b2"]
        assert all(r.ok for r in results)
        # All three went out before any response was read, and the
        # window is far wider than the socket hop: one batch.
        assert results[0].batch_size == 3
        assert all(r.batch_size == 3 for r in results)
        assert all(r.queue_seconds >= 0 for r in results)

    def test_namespaces_split_batches(self, server):
        host, port = server.address
        with ServeClient(host, port) as client:
            jobs = [cas_job(CAS, variant="qemu", namespace="a"),
                    cas_job(CAS, variant="qemu", namespace="b"),
                    cas_job(CAS, variant="qemu", namespace="a")]
            results = client.submit_many(jobs)
        assert all(r.ok for r in results)
        # Mixed namespaces cannot share a dispatch: the "a" pair forms
        # one batch, the lone "b" its own.
        assert results[0].batch_size == 2
        assert results[2].batch_size == 2
        assert results[1].batch_size == 1
        # Namespace scoping is per-batch only: with no cache dirs
        # configured the results stay identical across tenants.
        assert results[0].checksum == results[1].checksum

    def test_results_echo_namespace(self, server):
        host, port = server.address
        with ServeClient(host, port) as client:
            result = client.submit(cas_job(CAS, variant="qemu",
                                           namespace="tenant-9"))
        assert result.namespace == "tenant-9"


class TestErrors:
    def test_malformed_job_is_request_level_error(self, client):
        client._send({"op": "submit",
                      "job": {"schema": "repro-serve/1",
                              "kind": "kernel", "benchmark": "x",
                              "variant": "qemu"}})
        response = client._recv()
        assert response["ok"] is False
        assert response["error"]["code"] == "bad-request"
        # The connection survives the rejection.
        assert client.ping()

    def test_submit_raises_typed_error_for_bad_job(self, client):
        with pytest.raises(JobError, match="bad-request"):
            client._send({"op": "submit", "job": {"schema": "nope"}})
            client._result_of(client._recv())

    def test_runtime_failure_is_a_typed_result(self, client):
        result = client.submit(library_job("sqrt", (7,), 2,
                                           variant="qemu",
                                           library="libzzz"))
        assert not result.ok
        assert result.error.code == "bad-request"
        assert "libzzz" in result.error.message

    def test_unknown_op(self, client):
        client._send({"op": "dance"})
        response = client._recv()
        assert response["ok"] is False
        assert response["error"]["code"] == "bad-request"
        assert "dance" in response["error"]["message"]

    def test_unparseable_line(self, client):
        client._wfile.write(b"{not json}\n")
        client._wfile.flush()
        response = client._recv()
        assert response["ok"] is False
        assert response["error"]["code"] == "bad-request"


class TestWorkerEntryPoint:
    def test_run_batch_is_pure_wire(self):
        payloads = [cas_job(CAS, variant="qemu",
                            job_id="w1").to_json(),
                    {"kind": "kernel", "benchmark": "?",
                     "variant": "?"}]  # no schema: rejected
        results = _run_batch(payloads)
        assert json.loads(json.dumps(results)) == results
        assert results[0]["ok"] is True
        assert results[0]["job_id"] == "w1"
        assert results[1]["ok"] is False
        assert results[1]["error"]["code"] == "bad-request"


class TestShutdown:
    def test_shutdown_op_stops_the_server(self):
        srv = ReproServer(ServeConfig(port=0, workers=0))
        host, port = srv.start_background()
        with ServeClient(host, port) as client:
            result = client.submit(cas_job(CAS, variant="qemu"))
            assert result.ok
            client.shutdown()
        deadline = time.time() + 10
        while srv._serve_thread.is_alive() and time.time() < deadline:
            time.sleep(0.02)
        assert not srv._serve_thread.is_alive()
        with pytest.raises(OSError):
            ServeClient(host, port, timeout=2.0)
