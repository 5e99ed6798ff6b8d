"""Translation-as-a-service: typed jobs, a batching server, a client
and a QPS load harness over the :mod:`repro.api` run surface.

* :mod:`repro.serve.jobs` — the ``repro-serve/1`` JobResult over the
  workloads' JobSpec, and the in-process executor (`api.submit` is
  built on it);
* :mod:`repro.serve.server` — ``python -m repro serve``: batched
  async dispatch over the process pool behind a line-delimited JSON
  socket protocol;
* :mod:`repro.serve.client` — the matching client;
* :mod:`repro.serve.loadgen` — ``python -m repro loadgen``: replay a
  deterministic job mix at a fixed QPS, report latency percentiles.
"""

from .client import ServeClient
from .jobs import (
    JOB_SCHEMA,
    JobResult,
    JobSpec,
    batch_key,
    cas_job,
    execute_job,
    kernel_job,
    library_job,
    run_job,
)
from .server import JobDispatcher, ReproServer, ServeConfig, \
    form_batches

__all__ = [
    "JOB_SCHEMA", "JobSpec", "JobResult", "batch_key",
    "kernel_job", "library_job", "cas_job",
    "execute_job", "run_job",
    "ServeClient", "ReproServer", "ServeConfig", "JobDispatcher",
    "form_batches",
]
