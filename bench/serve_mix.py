"""The ``serve_mix`` workload and its load generator.

``python -m repro serve --workers 1`` runs as a subprocess, warmed by
one replay of the job mix.  The generator is one thread over two
pipelined connections:

* **open loop** — job *i* is due at ``epoch + i / rate`` whatever the
  server is doing, and its latency runs from that instant, so a stall
  is charged to every request it delays; how late each send actually
  left is reported as the generator's lag;
* **closed loop** — one request in flight per connection, the next
  sent when the previous returns: saturation throughput.

Every job is accounted for (ok, error or lost) and every served result
is compared with ``api.submit`` of the same job in this process.
``repro.serve.loadgen`` times from the actual send and raises on a
lost response, so it supplies the job mix but not the measurement.
"""

from __future__ import annotations

import json
import os
import resource
import selectors
import socket
import subprocess
import sys
import time
from collections import deque
from dataclasses import dataclass, replace
from random import Random
from statistics import median

from repro import api
from repro.serve.client import ServeClient
from repro.serve.loadgen import LoadgenConfig, gen_jobs, percentile

from harness import (Checks, Measurement, PassResult, ROOT, Recorder,
                     Workload, geomean, root_span)
from workloads import machine_counts

#: Jobs per second in the open loop: a little under half of what one
#: worker sustains on the reference box, so queueing is visible but
#: the backlog does not grow.
OPEN_RATE = 14.0
#: The closed loop sends every distinct job this many times, and this
#: much of ``--seconds`` is kept for it.
CLOSED_ROUNDS = 8
CLOSED_SECONDS = 4.5
CONNECTIONS = 2
#: The latency limit on the open loop's p95.
SLO_MS = 250.0
#: How long after the last send a missing response counts as lost.
LOST_AFTER_S = 30.0


@dataclass
class Served:
    """What happened to one job."""

    index: int
    due: float
    sent: float = 0.0
    done: float = 0.0
    raw: bytes = b""
    result: api.JobResult | None = None

    @property
    def latency(self) -> float:
        return self.done - self.due

    @property
    def lost(self) -> bool:
        return self.result is None


class _Connection:
    def __init__(self, port: int):
        self.sock = socket.create_connection(("127.0.0.1", port))
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buffer = b""
        #: jobs awaiting a response; the server answers in order.
        self.pending: deque[Served] = deque()

    def send(self, served: Served, line: bytes) -> None:
        self.sock.sendall(line)
        served.sent = time.perf_counter()
        self.pending.append(served)

    def receive(self) -> int:
        """Read what has arrived; returns responses completed, or -1
        when the server closed the connection."""
        data = self.sock.recv(1 << 16)
        if not data:
            return -1
        now = time.perf_counter()
        *lines, self.buffer = (self.buffer + data).split(b"\n")
        for line in lines:
            served = self.pending.popleft()
            served.done = now
            served.raw = line
        return len(lines)


def encode(job: api.JobSpec) -> bytes:
    return (json.dumps({"op": "submit", "job": job.to_json()},
                       separators=(",", ":")) + "\n").encode()


def decode(line: bytes) -> api.JobResult | None:
    """The typed result of a response line; ``None`` when the server
    rejected the request or the line is not a response."""
    try:
        payload = json.loads(line).get("result")
        return None if payload is None \
            else api.JobResult.from_json(payload)
    except (ValueError, AttributeError, api.JobError):
        return None


def replay(port: int, jobs: list, rate: float | None) -> list[Served]:
    """Send ``jobs`` over :data:`CONNECTIONS` connections from this
    one thread.  With a ``rate`` the schedule is fixed up front (open
    loop); without, each connection keeps one request in flight
    (closed loop) and a job is due the moment its connection is free.
    """
    lines = [encode(job) for job in jobs]
    conns = [_Connection(port) for _ in range(CONNECTIONS)]
    selector = selectors.DefaultSelector()
    for conn in conns:
        selector.register(conn.sock, selectors.EVENT_READ, conn)
    epoch = time.perf_counter() + 0.05
    served = [Served(i, epoch + i / rate if rate else 0.0)
              for i in range(len(jobs))]
    next_job = completed = 0
    alive = len(conns)
    try:
        while completed < len(jobs) and alive:
            now = time.perf_counter()
            timeout = LOST_AFTER_S
            if next_job < len(jobs):
                job = served[next_job]
                if rate:
                    conn = conns[next_job % len(conns)]
                    ready = now >= job.due
                    timeout = max(0.0, job.due - now)
                else:
                    conn = min(conns, key=lambda c: len(c.pending))
                    ready = not conn.pending
                    job.due = now
                if ready:
                    conn.send(job, lines[next_job])
                    next_job += 1
                    continue
            events = selector.select(timeout)
            if not events and next_job >= len(jobs):
                break  # nothing for LOST_AFTER_S: the rest are lost
            for key, _ in events:
                got = key.data.receive()
                if got < 0:
                    selector.unregister(key.fileobj)
                    alive -= 1
                else:
                    completed += got
    finally:
        selector.close()
        for conn in conns:
            conn.sock.close()
    for job in served:
        if job.raw:
            job.result = decode(job.raw)
    return served


def check_served(served: list[Served], jobs: list,
                 references: dict) -> Checks:
    """Every job must come back ok with the cycles and checksum that
    ``api.submit`` of the same job gives in this process."""
    checks = Checks()
    for item, job in zip(served, jobs):
        want = references[cell_of(job)]
        got = item.result
        if got is None:
            checks.check(False, f"{job.job_id}: lost")
        elif not got.ok:
            checks.check(False, f"{job.job_id}: {got.error}")
        else:
            checks.check(
                (got.cycles, got.checksum, got.exit_code) == want,
                f"{job.job_id}: served {got.cycles}/{got.checksum}"
                f"/{got.exit_code}, direct {want}")
    return checks


def cell_of(job) -> tuple:
    return (job.kind, job.benchmark, job.variant)


class ServeMix(Workload):
    name = "serve_mix"
    wall_is_sum_of_ops = False

    def __init__(self, seed, smoke, tmp, server_cpus: set[int]):
        super().__init__(seed, smoke, tmp)
        #: the benchmark pins itself to one CPU; the server gets all.
        self.server_cpus = server_cpus
        self.server: subprocess.Popen | None = None
        self.port = 0

    # ------------------------------------------------------------------
    def setup(self) -> None:
        self.teardown()
        os.environ["REPRO_XLAT_CACHE"] = str(self.tmp / "xlat-direct")
        # The loadgen's own cells (3 kernels, 3 library calls, 2 CAS
        # configurations, each under qemu and risotto): enough draws
        # to see them all.
        self.distinct = {}
        for job in gen_jobs(LoadgenConfig(jobs=400, seed=self.seed,
                                          namespace="bench")):
            self.distinct.setdefault(cell_of(job), job)
        self.references = {}
        for cell, job in self.distinct.items():
            result = api.submit(job)
            self.references[cell] = (result.cycles, result.checksum,
                                     result.exit_code)
        self._start_server()
        with ServeClient("127.0.0.1", self.port) as client:
            for job in self.distinct.values():
                client.submit(job)

    def _start_server(self) -> None:
        # This process's REPRO_* knobs are already the benchmark's
        # own; the server only needs a store of its own.
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
                   REPRO_XLAT_CACHE=str(self.tmp / "xlat-server"))
        self.server = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--workers", "1"],
            env=env, cwd=self.tmp, stdout=subprocess.PIPE, text=True,
            preexec_fn=lambda: os.sched_setaffinity(
                0, self.server_cpus))
        banner = self.server.stdout.readline()
        if "listening on" not in banner:
            raise RuntimeError(f"server did not start: {banner!r}")
        address = banner.split("listening on ")[1].split()[0]
        self.port = int(address.rsplit(":", 1)[1])

    def teardown(self) -> None:
        server, self.server = self.server, None
        if server is None:
            return
        try:
            with ServeClient("127.0.0.1", self.port) as client:
                client.shutdown()
            server.wait(timeout=30)
        except (OSError, api.JobError, subprocess.TimeoutExpired):
            server.kill()
            server.wait()
        finally:
            server.stdout.close()

    def peak_rss_mb(self) -> float:
        """Of the server and its worker, known once they have exited."""
        self.teardown()
        return resource.getrusage(
            resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    # ------------------------------------------------------------------
    def mix(self, rounds: int, rng: Random) -> list:
        """``rounds`` rounds, each every distinct job once in an order
        drawn from the seed: the same work whatever the seed and no
        long runs of the slow jobs, so latency and throughput do not
        move with the draw."""
        jobs = []
        for _ in range(rounds):
            cells = sorted(self.distinct)
            rng.shuffle(cells)
            jobs += [self.distinct[cell] for cell in cells]
        return [replace(job, job_id=f"bench-{i:04d}")
                for i, job in enumerate(jobs)]

    def measure(self, seconds: float, trace: bool) -> Measurement:
        open_rounds, closed_rounds = 2, 1
        if not self.smoke:
            closed_rounds = CLOSED_ROUNDS
            open_rounds = max(1, int(
                (seconds - CLOSED_SECONDS) * OPEN_RATE
                / len(self.distinct)))
        rng = Random(self.seed)
        open_jobs = self.mix(open_rounds, rng)
        closed_jobs = self.mix(closed_rounds, rng)
        opened = replay(self.port, open_jobs, OPEN_RATE)
        started = time.perf_counter()
        closed = replay(self.port, closed_jobs, None)
        ended = time.perf_counter()

        checks = check_served(opened, open_jobs, self.references)
        checks.merge(check_served(closed, closed_jobs,
                                  self.references))
        self.opened = opened
        plain = PassResult(
            start=started, end=ended,
            ops=[(s.due, s.done) for s in opened if not s.lost],
            work=sum(1 for s in closed if not s.lost),
            checks=checks,
            counts=self._serve_counts(opened, closed))
        if not trace:
            return Measurement([plain], [])
        untraced = self.one_pass(None)
        traced = self.timed_pass(True)
        traced.counts.update(plain.counts)
        traced.counts["serve.direct_exec_ms_p50"] = median(
            end - start for start, end in traced.ops) * 1000.0
        traced.counts["serve.codec_us_per_job"] = \
            self._codec_us(opened)
        return Measurement([plain], [traced], untraced=[untraced])

    def one_pass(self, rec: Recorder | None) -> PassResult:
        """The distinct jobs of the mix through in-process
        ``api.submit``: what the server's worker does per job, where
        spans can see it (memory-tier hits, as in the warmed server).
        """
        ops, results = [], []
        with root_span(rec):
            started = time.perf_counter()
            for job in self.distinct.values():
                t0 = time.perf_counter()
                results.append(api.submit(job).outcome.result)
                ops.append((t0, time.perf_counter()))
            ended = time.perf_counter()
        return PassResult(start=started, end=ended, ops=ops,
                          work=len(results), checks=Checks(),
                          counts=machine_counts(results))

    def _codec_us(self, served: list[Served]) -> float:
        """JobSpec and JobResult to and from JSON, per job."""
        lines = [s.raw for s in served if not s.lost]
        jobs = list(self.distinct.values())
        started = time.perf_counter()
        for i, line in enumerate(lines):
            job = jobs[i % len(jobs)]
            api.JobSpec.from_json(json.loads(encode(job))["job"])
            result = decode(line)
            json.dumps(result.to_json())
        return (time.perf_counter() - started) / len(lines) * 1e6

    def _serve_counts(self, opened: list[Served],
                      closed: list[Served]) -> dict[str, float]:
        answered = [s for s in opened if not s.lost]
        results = [s.result for s in answered]
        everything = opened + closed
        lost_or_failed = sum(1 for s in everything
                             if s.lost or not s.result.ok)
        queue = [r.queue_seconds for r in results]
        execs = [r.wall_seconds for r in results]
        overhead = [s.latency - r.queue_seconds - r.wall_seconds
                    for s, r in zip(answered, results)]
        misses = sum(1 for s in opened
                     if s.lost or not s.result.ok
                     or s.latency * 1000.0 > SLO_MS)
        ok = [s.result for s in everything
              if not s.lost and s.result.ok]
        hits = sum(r.xlat_hits for r in ok)
        missed = sum(r.xlat_misses for r in ok)
        by_cell = {cell_of(r): r for r in ok}
        pairs = [(r, by_cell[kind, benchmark, "qemu"])
                 for (kind, benchmark, variant), r
                 in sorted(by_cell.items())
                 if variant == "risotto"
                 and (kind, benchmark, "qemu") in by_cell]
        counts = {
            "serve.queue_ms_p50": median(queue) * 1000.0,
            "serve.exec_ms_p50": median(execs) * 1000.0,
            "serve.overhead_ms_p50": median(overhead) * 1000.0,
            "serve.overhead_share": sum(overhead)
            / sum(s.latency for s in answered),
            "serve.batch_size_mean": sum(r.batch_size
                                         for r in results)
            / len(results),
            "serve.memory_tier_share": sum(
                1 for r in results if r.cache_tier == "memory")
            / len(results),
            "serve.slo_miss_share": misses / len(opened),
            "serve.errors": lost_or_failed,
            "client.lag_ms_p95": percentile(
                [s.sent - s.due for s in opened if s.sent], 95)
            * 1000.0,
            "client.sent": sum(1 for s in everything if s.sent),
            "xlat_cache.hits": hits,
            "xlat_cache.misses": missed,
            "xlat_cache.disk_hits": sum(r.xlat_disk_hits for r in ok),
            "xlat_cache.hit_ratio": hits / (hits + missed)
            if hits + missed else 0.0,
        }
        if pairs:
            # JobResult carries elapsed cycles as ``cycles``.
            counts["sim.fence_share"] = sum(
                r.fence_cycles for r, _ in pairs) / sum(
                r.total_cycles for r, _ in pairs)
            counts["sim.risotto_vs_qemu_cycles"] = geomean(
                r.cycles / q.cycles for r, q in pairs)
        return counts

    def chrome_events(self) -> list[dict]:
        """One complete event per open-loop request, a lane per
        connection, from due time to response."""
        epoch = self.opened[0].due if self.opened else 0.0
        return [{
            "name": "serve.request", "ph": "X", "cat": "bench",
            "ts": (s.due - epoch) * 1e6, "dur": s.latency * 1e6,
            "pid": os.getpid(), "tid": 1 + s.index % CONNECTIONS,
            "args": {"job_id": s.result.job_id,
                     "queue_ms": s.result.queue_seconds * 1000.0,
                     "exec_ms": s.result.wall_seconds * 1000.0,
                     "overhead_ms": (s.latency
                                     - s.result.queue_seconds
                                     - s.result.wall_seconds) * 1000.0,
                     "lag_ms": (s.sent - s.due) * 1000.0},
        } for s in self.opened if not s.lost]
