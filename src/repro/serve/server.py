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

A line longer than :data:`MAX_LINE_BYTES` is a ``bad-request`` that
closes the connection.  JSON exists only at the socket
(``_Handler._respond`` decodes, ``_write_loop`` encodes): handlers
enqueue the decoded :class:`JobSpec` into one :class:`JobDispatcher`,
whose thread hands each job object to a free ``ProcessPoolExecutor``
worker as its own task; the worker runs it (:func:`run_job`) and
returns the :class:`JobResult` object.  The dispatcher's queue is the
only place a job waits, so its ``queue_seconds`` is the whole wait for
a worker.  Worker processes are long-lived, so their in-memory
translation LRUs stay warm across requests — the serving win the
paper's cache layer was built for.

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
from dataclasses import dataclass, replace
from functools import partial

from ..errors import ErrorInfo, JobError, classify_error
from ..workloads.parallel import default_workers
from .jobs import JOB_SCHEMA, JobResult, JobSpec, run_job, to_wire

#: The longest request line read, newline excluded (1 MiB).
MAX_LINE_BYTES = 1 << 20


@dataclass(frozen=True)
class ServeConfig:
    """Server knobs (the CLI flags, as one value)."""

    host: str = "127.0.0.1"
    port: int = 7421
    #: pool size; ``None`` = :func:`default_workers`, ``0`` = inline
    #: execution in the dispatcher thread (tests, tiny deployments).
    workers: int | None = None


def _run_in_worker(job: JobSpec) -> JobResult:
    """The pool's (picklable) task: the result without its outcome."""
    return replace(run_job(job), outcome=None)


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
        if self.workers == 0:
            self._free.release()
            self._deliver(pending, _run_in_worker(pending.job), wait)
            return
        try:
            pool_future = self._get_pool().submit(_run_in_worker, pending.job)
        except Exception as exc:  # noqa: BLE001 - pool creation died
            self._free.release()
            self._deliver(pending, _failed(pending.job, exc), wait)
            return
        pool_future.add_done_callback(
            lambda f, p=pending, w=wait: self._on_done(f, p, w))

    def _on_done(self, pool_future: Future, pending: _Pending,
                 wait: float) -> None:
        self._free.release()
        try:
            result = pool_future.result()
        except BrokenProcessPool as exc:
            self._drop_pool()
            result = _failed(pending.job, exc, code="unavailable")
        except Exception as exc:  # noqa: BLE001 - boundary
            result = _failed(pending.job, exc)
        self._deliver(pending, result, wait)

    @staticmethod
    def _deliver(pending: _Pending, result: JobResult,
                 wait: float) -> None:
        result.queue_seconds = wait
        pending.future.set_result(result)


def _failed(job: JobSpec, exc: Exception,
            code: str | None = None) -> JobResult:
    """A failed result; ``code`` overrides the classified one as a
    retryable error."""
    info = classify_error(exc)
    if code is not None:
        info = ErrorInfo(code=code, message=info.message, retryable=True)
    return JobResult.from_error(job, info)


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
            for raw in iter(partial(self.rfile.readline,
                                    MAX_LINE_BYTES + 1), b""):
                if len(raw) > MAX_LINE_BYTES and raw[-1:] != b"\n":
                    out.put(_error_response("?", ErrorInfo(
                        "bad-request", f"request line longer than "
                        f"{MAX_LINE_BYTES} bytes", False)))
                    break
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
        return _error_response(op, ErrorInfo(
            "bad-request", f"unknown op {op!r}", False))

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
                    item["error"] = to_wire(result.error)
            try:
                self.wfile.write(
                    (json.dumps(item, separators=(",", ":"))
                     + "\n").encode("utf-8"))
                self.wfile.flush()
            except OSError:
                return  # client went away; drain and exit


def _error_response(op, info: ErrorInfo) -> dict:
    return {"schema": JOB_SCHEMA, "op": op, "ok": False,
            "error": to_wire(info)}


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
