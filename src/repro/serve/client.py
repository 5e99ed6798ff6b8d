"""Client for the serve protocol (line-delimited JSON over TCP).

:class:`ServeClient` speaks the same :class:`~repro.serve.jobs`
codecs as the server, so a submitted :class:`JobSpec` round-trips to
a :class:`JobResult` with no re-interpretation anywhere.
``submit_many`` pipelines: it writes every request before reading any
response, so several of this client's jobs are in flight at once and
the answers come back in request order.

Job *failures* are data, not exceptions: a result with ``ok=False``
carries its typed :class:`~repro.errors.ErrorInfo`.  Only protocol
breakage (unparseable response, schema mismatch, dead socket) raises.
"""

from __future__ import annotations

import json
import socket

from ..errors import ErrorInfo, JobError
from .jobs import JOB_SCHEMA, JobResult, JobSpec


class ServeClient:
    """One connection to a repro-serve server."""

    def __init__(self, host: str = "127.0.0.1", port: int = 7421,
                 timeout: float = 120.0):
        self._sock = socket.create_connection((host, port),
                                              timeout=timeout)
        self._rfile = self._sock.makefile("rb")
        self._wfile = self._sock.makefile("wb")

    # ------------------------------------------------------------------
    # Wire primitives
    # ------------------------------------------------------------------
    def _send(self, request: dict) -> None:
        self._wfile.write(
            (json.dumps(request, separators=(",", ":")) + "\n")
            .encode("utf-8"))
        self._wfile.flush()

    def _recv(self) -> dict:
        line = self._rfile.readline()
        if not line:
            raise JobError("server closed the connection")
        try:
            response = json.loads(line.decode("utf-8"))
        except ValueError as exc:
            raise JobError(f"unparseable response: {exc}") from None
        if response.get("schema") != JOB_SCHEMA:
            raise JobError(f"response schema "
                           f"{response.get('schema')!r} unsupported "
                           f"(expected {JOB_SCHEMA!r})")
        return response

    def _result_of(self, response: dict) -> JobResult:
        payload = response.get("result")
        if payload is not None:
            return JobResult.from_json(payload)
        # Request-level rejection (bad op / unparseable job): surface
        # it as the typed error the protocol promised.
        error = response.get("error")
        if error is not None:
            raise JobError(
                f"[{error.get('code')}] {error.get('message')}")
        raise JobError(f"malformed response: {response!r}")

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def submit(self, job: JobSpec) -> JobResult:
        """Submit one job and wait for its result."""
        self._send({"op": "submit", "job": job.to_json()})
        return self._result_of(self._recv())

    def submit_many(self, jobs) -> list[JobResult]:
        """Pipeline a job list: all requests go out before any result
        is read; results come back in submission order."""
        jobs = list(jobs)
        for job in jobs:
            self._send({"op": "submit", "job": job.to_json()})
        return [self._result_of(self._recv()) for _ in jobs]

    def ping(self) -> bool:
        self._send({"op": "ping"})
        return bool(self._recv().get("ok"))

    def stats(self) -> dict:
        self._send({"op": "stats"})
        response = self._recv()
        if not response.get("ok"):
            error = ErrorInfo.from_json(response.get("error", {
                "code": "internal", "message": "stats failed"}))
            raise JobError(f"[{error.code}] {error.message}")
        return response.get("stats", {})

    def shutdown(self) -> None:
        """Ask the server to exit (it finishes in-flight work)."""
        self._send({"op": "shutdown"})
        self._recv()

    # ------------------------------------------------------------------
    def close(self) -> None:
        for stream in (self._wfile, self._rfile):
            try:
                stream.close()
            except OSError:  # pragma: no cover
                pass
        try:
            self._sock.close()
        except OSError:  # pragma: no cover
            pass

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
