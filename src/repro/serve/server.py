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
(``_Handler._respond`` decodes, ``_write_loop`` encodes).  This module
is only that front-end: handlers submit the decoded :class:`JobSpec`
to the one process pool, a
:class:`~repro.workloads.parallel.JobDispatcher` (the pool sweeps run
on), whose worker returns the run's row; the writer builds the
:class:`JobResult` from it in the server (:func:`served_result`).  The
dispatcher's queue is the only place a job waits, so its
``queue_seconds`` is the whole wait for a worker.  A worker that dies
costs the job it held, which comes back as a retryable
``unavailable`` error, and its slot is rebuilt for the next job.
Worker processes are otherwise long-lived, so their in-memory
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
from concurrent.futures import Future
from dataclasses import dataclass
from functools import partial

from ..errors import ErrorInfo, classify_error
from ..workloads.parallel import JobDispatcher
from .jobs import JOB_SCHEMA, JobResult, JobSpec, to_wire

#: The longest request line read, newline excluded (1 MiB).
MAX_LINE_BYTES = 1 << 20


@dataclass(frozen=True)
class ServeConfig:
    """Server knobs (the CLI flags, as one value)."""

    host: str = "127.0.0.1"
    port: int = 7421
    #: pool size; ``None`` = ``default_workers()``, ``0`` = inline
    #: execution in the dispatcher thread (tests, tiny deployments).
    workers: int | None = None


def served_result(job: JobSpec, future: Future) -> JobResult:
    """A served job's result, built in the server from the row its
    worker returned, stamped with the job's wait in the queue."""
    result = JobResult.from_row(job, future.result())
    result.queue_seconds = future.queue_seconds
    return result


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
        an (op, job, future) triple the writer resolves in order."""
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
                return ("submit", job, server.dispatcher.submit(job))
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
                op, job, future = item
                result = served_result(job, future)
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
