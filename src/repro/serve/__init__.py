"""Translation-as-a-service: typed jobs, a server, a client and a QPS
load harness over the :mod:`repro.api` run surface.

* :mod:`repro.serve.jobs` — the ``repro-serve/1`` JobResult over the
  workloads' JobSpec, and the in-process executor (`api.submit` is
  built on it);
* :mod:`repro.serve.server` — ``python -m repro serve``: a
  line-delimited JSON socket protocol in front of the one process pool
  (:class:`~repro.workloads.parallel.JobDispatcher`, which sweeps run
  on too);
* :mod:`repro.serve.client` — the matching client;
* :mod:`repro.serve.loadgen` — ``python -m repro loadgen``: replay a
  deterministic job mix at a fixed QPS, report latency percentiles.
"""

from .client import ServeClient
from .jobs import (
    JOB_SCHEMA,
    JobResult,
    JobSpec,
    cas_job,
    execute_job,
    kernel_job,
    library_job,
    run_job,
)
from ..workloads.parallel import JobDispatcher
from .server import ReproServer, ServeConfig

__all__ = [
    "JOB_SCHEMA", "JobSpec", "JobResult",
    "kernel_job", "library_job", "cas_job",
    "execute_job", "run_job",
    "ServeClient", "ReproServer", "ServeConfig", "JobDispatcher",
]
