"""The translation-as-a-service server (``python -m repro serve``).

Protocol: one JSON object per line over a TCP connection.  Requests::

    {"op": "submit", "job": {... JobSpec.to_json ...}}
    {"op": "ping"} | {"op": "stats"} | {"op": "shutdown"}

Responses mirror the request order on the connection (pipelining is
how one client keeps several jobs in flight)::

    {"schema": "repro-serve/1", "op": "submit", "ok": true,
     "result": {... JobResult.to_json ...}}
    {"schema": "repro-serve/1", "op": "submit", "ok": false,
     "error": {"code": ..., "message": ..., "retryable": ...}}

Architecture: every connection handler enqueues submitted jobs into
one :class:`JobDispatcher`.  A single dispatcher thread takes each job
off the queue as soon as a ``ProcessPoolExecutor`` worker is free and
sends it to the pool as its own task; the worker runs it
(``run_job_row``) on an engine built with the job's cache namespace.  The dispatcher's queue
is the only place a job waits, so its ``queue_seconds`` is the whole
wait for a worker.  Worker processes are long-lived, so
their in-memory translation LRUs stay warm across requests — the
serving win the paper's cache layer was built for.

Per-request observability travels on each :class:`JobResult` (queue
wait, cache hit tier, execution seconds, typed error code), which
``loadgen`` aggregates into its bench export.  The ``stats`` op
answers with the dispatcher's scalars only.
"""

from __future__ import annotations

import argparse
import json
import queue
import socketserver
import threading
import time
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass

from ..errors import ErrorInfo, JobError, classify_error
from ..workloads.parallel import default_workers
from .jobs import JOB_SCHEMA, JobResult, JobSpec, run_job


@dataclass(frozen=True)
class ServeConfig:
    """Server knobs (the CLI flags, as one value)."""

    host: str = "127.0.0.1"
    port: int = 7421
    #: pool size; ``None`` = :func:`default_workers`, ``0`` = inline
    #: execution in the dispatcher thread (tests, tiny deployments).
    workers: int | None = None


def _run_one(payload: dict) -> dict:
    """Worker entry point: run one wire job, return its wire result.
    Top-level so the pool can pickle it; every outcome is a result
    dict — errors are classified, never raised."""
    try:
        job = JobSpec.from_json(payload)
    except Exception as exc:  # noqa: BLE001 - boundary
        stub = JobSpec(
            kind=str(payload.get("kind") or "kernel"),
            benchmark=str(payload.get("benchmark") or "?"),
            variant=str(payload.get("variant") or "?"),
            job_id=str(payload.get("job_id") or ""))
        return JobResult.from_error(stub, classify_error(exc)).to_json()
    return run_job(job).to_json()


@dataclass
class _Pending:
    job: JobSpec
    future: Future
    enqueued_at: float


class JobDispatcher:
    """Async dispatch over the process pool, one job per task.

    ``submit`` returns a future resolving to a :class:`JobResult`
    (never raising for job failures — those come back typed).  One
    dispatcher thread hands jobs to the pool in arrival order, one per
    free worker; the pool owns execution.
    """

    _SHUTDOWN = object()

    def __init__(self, *, workers: int | None = None):
        self.workers = default_workers() if workers is None \
            else max(0, workers)
        self.jobs_dispatched = 0
        self._queue: queue.Queue = queue.Queue()
        self._pool: ProcessPoolExecutor | None = None
        self._pool_lock = threading.Lock()
        self._closed = False
        #: one job per worker at a time: the rest wait in ``_queue``,
        #: where ``queue_seconds`` sees them, not in the pool's own
        #: call queue.
        self._free = threading.Semaphore(max(1, self.workers))
        self._thread = threading.Thread(
            target=self._dispatch_loop, name="repro-serve-dispatch",
            daemon=True)
        self._thread.start()

    # ------------------------------------------------------------------
    def submit(self, job: JobSpec) -> Future:
        if self._closed:
            raise JobError("dispatcher is shut down")
        pending = _Pending(job=job, future=Future(),
                           enqueued_at=time.perf_counter())
        self._queue.put(pending)
        return pending.future

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._queue.put(self._SHUTDOWN)
        self._thread.join(timeout=30)
        self._drop_pool()

    # ------------------------------------------------------------------
    def _get_pool(self) -> ProcessPoolExecutor:
        with self._pool_lock:
            if self._pool is None:
                self._pool = ProcessPoolExecutor(
                    max_workers=self.workers)
            return self._pool

    def _drop_pool(self) -> None:
        with self._pool_lock:
            if self._pool is not None:
                self._pool.shutdown(wait=False)
                self._pool = None

    def _dispatch_loop(self) -> None:
        while True:
            item = self._queue.get()
            if item is self._SHUTDOWN:
                return
            self._free.acquire()
            self._dispatch(item)

    def _dispatch(self, pending: _Pending) -> None:
        wait = time.perf_counter() - pending.enqueued_at
        self.jobs_dispatched += 1
        payload = pending.job.to_json()
        if self.workers == 0:
            self._free.release()
            self._deliver(pending, _run_one(payload), wait)
            return
        try:
            pool_future = self._get_pool().submit(_run_one, payload)
        except Exception as exc:  # noqa: BLE001 - pool creation died
            self._free.release()
            self._fail(pending, wait, exc)
            return
        pool_future.add_done_callback(
            lambda f, p=pending, w=wait: self._on_done(f, p, w))

    def _on_done(self, pool_future: Future, pending: _Pending,
                 wait: float) -> None:
        self._free.release()
        try:
            payload = pool_future.result()
        except BrokenProcessPool as exc:
            self._drop_pool()
            self._fail(pending, wait, exc, code="unavailable")
            return
        except Exception as exc:  # noqa: BLE001 - boundary
            self._fail(pending, wait, exc)
            return
        self._deliver(pending, payload, wait)

    def _fail(self, pending: _Pending, wait: float, exc: Exception,
              code: str | None = None) -> None:
        info = classify_error(exc)
        if code is not None:
            info = ErrorInfo(code=code, message=info.message,
                             retryable=True)
        result = JobResult.from_error(pending.job, info)
        result.queue_seconds = wait
        pending.future.set_result(result)

    def _deliver(self, pending: _Pending, payload: dict,
                 wait: float) -> None:
        try:
            result = JobResult.from_json(payload)
        except Exception as exc:  # noqa: BLE001
            result = JobResult.from_error(pending.job,
                                          classify_error(exc))
        result.queue_seconds = wait
        pending.future.set_result(result)


# ----------------------------------------------------------------------
# The socket front-end
# ----------------------------------------------------------------------
class _ThreadingServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True


class _Handler(socketserver.StreamRequestHandler):
    """One connection: a reader loop (this thread) and a writer
    thread draining responses in request order — the queue of futures
    preserves ordering while letting many jobs be in flight."""

    def handle(self) -> None:  # noqa: C901 - protocol switch
        server: ReproServer = self.server.repro_server  # type: ignore
        out: queue.Queue = queue.Queue()
        writer = threading.Thread(target=self._write_loop,
                                  args=(out,), daemon=True)
        writer.start()
        try:
            for raw in self.rfile:
                line = raw.decode("utf-8", errors="replace").strip()
                if not line:
                    continue
                out.put(self._respond(server, line))
                if self._shutdown_requested:
                    break
        finally:
            out.put(None)
            writer.join(timeout=60)
            if self._shutdown_requested:
                server.request_shutdown()

    _shutdown_requested = False

    def _respond(self, server: "ReproServer", line: str):
        """Parse one request line; returns either a response dict or
        a (op, future) pair the writer resolves in order."""
        try:
            request = json.loads(line)
        except ValueError as exc:
            return _error_response(
                "?", ErrorInfo("bad-request",
                               f"unparseable request: {exc}", False))
        op = request.get("op") if isinstance(request, dict) else None
        if op == "ping":
            return {"schema": JOB_SCHEMA, "op": "ping", "ok": True}
        if op == "stats":
            return {"schema": JOB_SCHEMA, "op": "stats", "ok": True,
                    "stats": server.stats_payload()}
        if op == "shutdown":
            self._shutdown_requested = True
            return {"schema": JOB_SCHEMA, "op": "shutdown",
                    "ok": True}
        if op == "submit":
            try:
                job = JobSpec.from_json(request.get("job"))
                return ("submit", server.dispatcher.submit(job))
            except Exception as exc:  # noqa: BLE001 - boundary
                return _error_response("submit", classify_error(exc))
        return _error_response(
            str(op), ErrorInfo("bad-request",
                               f"unknown op {op!r}", False))

    def _write_loop(self, out: queue.Queue) -> None:
        while True:
            item = out.get()
            if item is None:
                return
            if isinstance(item, tuple):
                op, future = item
                result: JobResult = future.result()
                item = {"schema": JOB_SCHEMA, "op": op,
                        "ok": result.ok,
                        "result": result.to_json()}
                if not result.ok and result.error is not None:
                    item["error"] = result.error.to_json()
            try:
                self.wfile.write(
                    (json.dumps(item, separators=(",", ":"))
                     + "\n").encode("utf-8"))
                self.wfile.flush()
            except OSError:
                return  # client went away; drain and exit


def _error_response(op: str, info: ErrorInfo) -> dict:
    return {"schema": JOB_SCHEMA, "op": op, "ok": False,
            "error": info.to_json()}


class ReproServer:
    """The assembled service: TCP front-end + job dispatcher."""

    def __init__(self, config: ServeConfig | None = None):
        self.config = config or ServeConfig()
        self.started_at = time.time()
        self.dispatcher = JobDispatcher(workers=self.config.workers)
        self._tcp = _ThreadingServer(
            (self.config.host, self.config.port), _Handler)
        self._tcp.repro_server = self  # type: ignore[attr-defined]
        self._serve_thread: threading.Thread | None = None

    # ------------------------------------------------------------------
    @property
    def address(self) -> tuple[str, int]:
        host, port = self._tcp.server_address[:2]
        return str(host), int(port)

    def stats_payload(self) -> dict:
        return {
            "schema": JOB_SCHEMA,
            "uptime_seconds": time.time() - self.started_at,
            "workers": self.dispatcher.workers,
            "jobs_dispatched": self.dispatcher.jobs_dispatched,
        }

    # ------------------------------------------------------------------
    def serve_forever(self) -> None:
        self._tcp.serve_forever(poll_interval=0.1)

    def start_background(self) -> tuple[str, int]:
        """Serve from a daemon thread; returns the bound address
        (tests and the loadgen's ``--spawn`` mode)."""
        self._serve_thread = threading.Thread(
            target=self.serve_forever, name="repro-serve-accept",
            daemon=True)
        self._serve_thread.start()
        return self.address

    def request_shutdown(self) -> None:
        """Async-safe shutdown trigger (used by the shutdown op)."""
        threading.Thread(target=self.close, daemon=True).start()

    def close(self) -> None:
        self._tcp.shutdown()
        self._tcp.server_close()
        self.dispatcher.close()
        if self._serve_thread is not None:
            self._serve_thread.join(timeout=10)


# ----------------------------------------------------------------------
# CLI (`python -m repro serve`)
# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro serve",
        description="Translation-as-a-service: line-delimited JSON "
                    "jobs over TCP, run on the process pool.")
    parser.add_argument("--host", default="127.0.0.1",
                        help="bind address (default 127.0.0.1)")
    parser.add_argument("--port", type=int, default=7421,
                        help="bind port (default 7421; 0 = ephemeral)")
    parser.add_argument("--workers", type=int, default=None,
                        help="pool size (default: REPRO_WORKERS or "
                             "cpu count; 0 = inline execution)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    server = ReproServer(ServeConfig(
        host=args.host, port=args.port, workers=args.workers))
    host, port = server.address
    print(f"repro-serve {JOB_SCHEMA} listening on {host}:{port} "
          f"(workers={server.dispatcher.workers})", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive
        pass
    finally:
        server.close()
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
