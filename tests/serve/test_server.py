"""End-to-end tests for the serve front-end.

The acceptance contract: a served job returns results bit-identical
to the direct ``api`` call for every job kind, pipelined responses
come back in request order, a lone job is dispatched at once,
failures arrive as typed error results (never dropped connections),
and the control ops (ping/stats/shutdown) work.

The servers here run with ``workers=0`` (inline execution in the
dispatcher thread): the dispatch/observability path is identical to
the pool path minus process fan-out, and tier-1 stays fast.  The pool
path itself is exercised by the serve benchmark and the CI smoke job.
"""

import dataclasses
import json
import time
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro import api
from repro.errors import JobError
from repro.serve import (
    JobDispatcher,
    ReproServer,
    ServeClient,
    ServeConfig,
    cas_job,
    kernel_job,
    library_job,
)
from repro.serve.server import _run_one
from repro.workloads.casbench import CasConfig
from repro.workloads.kernels import KernelSpec

TINY = KernelSpec("tiny", loads=2, stores=1, alu=2, fp=1,
                  iterations=40, threads=2, working_set=64)
CAS = CasConfig(threads=2, variables=2, attempts=20)


@pytest.fixture()
def server():
    srv = ReproServer(ServeConfig(port=0, workers=0))
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
        assert stats["jobs_dispatched"] == 1


class TestDispatch:
    def test_config_is_address_and_pool_size(self):
        names = {f.name for f in dataclasses.fields(ServeConfig)}
        assert names == {"host", "port", "workers"}

    def test_lone_job_is_dispatched_at_once(self, client):
        # Nothing holds a job back waiting for company: each job of a
        # sequential stream leaves the queue as soon as the dispatcher
        # thread wakes.  (The best of three keeps a descheduled thread
        # on a busy host from failing the check.)
        waits = [client.submit(cas_job(CAS, variant="qemu"))
                 .queue_seconds for _ in range(3)]
        assert min(waits) < 0.005, waits

    def test_one_job_per_worker_and_the_rest_wait_in_queue(self):
        # With one worker, a second job stays in the dispatcher's
        # queue until the first comes back, and that wait is its
        # queue_seconds.
        class HeldPool:
            def __init__(self):
                self.tasks = []

            def submit(self, fn, payload):
                self.tasks.append((Future(), fn, payload))
                return self.tasks[-1][0]

            def shutdown(self, wait=True):
                pass

        def wait_for(count):
            deadline = time.time() + 10
            while len(pool.tasks) < count and time.time() < deadline:
                time.sleep(0.005)

        pool = HeldPool()
        dispatcher = JobDispatcher(workers=1)
        dispatcher._pool = pool
        try:
            futures = [dispatcher.submit(
                cas_job(CAS, variant="qemu", job_id=f"q{i}"))
                for i in range(2)]
            wait_for(1)
            time.sleep(0.05)
            assert len(pool.tasks) == 1
            future, fn, payload = pool.tasks[0]
            future.set_result(fn(payload))
            wait_for(2)
            future, fn, payload = pool.tasks[1]
            future.set_result(fn(payload))
            results = [f.result(10) for f in futures]
        finally:
            dispatcher.close()
        assert [r.job_id for r in results] == ["q0", "q1"]
        assert all(r.ok for r in results)
        assert results[1].queue_seconds >= 0.05

    def test_pipelined_responses_in_request_order(self, server):
        host, port = server.address
        with ServeClient(host, port) as client:
            jobs = [cas_job(CAS, variant="qemu", job_id=f"b{i}")
                    for i in range(3)]
            results = client.submit_many(jobs)
        assert [r.job_id for r in results] == ["b0", "b1", "b2"]
        assert all(r.ok for r in results)
        assert all(r.queue_seconds >= 0 for r in results)
        assert all(r.batch_size == 1 for r in results)

    def test_results_equal_across_tenants(self, server):
        host, port = server.address
        with ServeClient(host, port) as client:
            jobs = [cas_job(CAS, variant="qemu", namespace="a"),
                    cas_job(CAS, variant="qemu", namespace="b"),
                    cas_job(CAS, variant="qemu", namespace="a")]
            results = client.submit_many(jobs)
        assert all(r.ok for r in results)
        # Each job scopes its own namespace; with no cache dirs
        # configured the results stay identical across tenants.
        assert results[0].checksum == results[1].checksum \
            == results[2].checksum
        assert results[0].cycles == results[1].cycles

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
    def test_run_one_is_pure_wire(self):
        payloads = [cas_job(CAS, variant="qemu",
                            job_id="w1").to_json(),
                    {"kind": "kernel", "benchmark": "?",
                     "variant": "?"}]  # no schema: rejected
        results = [_run_one(payload) for payload in payloads]
        assert json.loads(json.dumps(results)) == results
        assert results[0]["ok"] is True
        assert results[0]["job_id"] == "w1"
        assert results[1]["ok"] is False
        assert results[1]["error"]["code"] == "bad-request"

    def test_broken_pool_is_a_retryable_unavailable(self):
        class DeadPool:
            def submit(self, fn, payload):
                future = Future()
                future.set_exception(BrokenProcessPool("worker died"))
                return future

            def shutdown(self, wait=True):
                pass

        dispatcher = JobDispatcher(workers=1)
        dispatcher._pool = DeadPool()
        try:
            result = dispatcher.submit(
                cas_job(CAS, variant="qemu", job_id="d1")).result(10)
        finally:
            dispatcher.close()
        assert not result.ok
        assert result.job_id == "d1"
        assert result.error.code == "unavailable"
        assert result.error.retryable
        # The dead pool is dropped, so the next job gets a fresh one.
        assert dispatcher._pool is None


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
