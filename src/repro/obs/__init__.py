"""Observability layer: structured tracing, counters, bench history.

Small, dependency-free subsystems every other layer can import
without cost:

* :mod:`repro.obs.trace` — span/instant event tracing with a no-op
  default tracer.  When enabled (programmatically or via
  ``REPRO_TRACE=1``) the DBT pipeline, optimizer passes, scheduler
  loop and staged enumerator emit events renderable as JSONL or Chrome
  ``trace_event`` JSON (loadable in Perfetto / ``chrome://tracing``).
* :mod:`repro.obs.metrics` — :class:`~repro.obs.metrics.Counters`,
  the base of the producer ``*Stats`` blocks whose fields reach the
  run rows, the bench export, the history store and the sentinel.

The contract is zero overhead when disabled: the default tracer is a
shared :class:`~repro.obs.trace.NullTracer` whose methods record
nothing, and call sites guard any non-trivial argument construction
with ``tracer.enabled``.
"""

from .flame import collapsed_stacks, write_collapsed
from .history import (
    HISTORY_SCHEMA,
    config_fingerprint,
    figures_in_history,
    history_dir,
    load_history,
    record_bench,
    render_trend,
)
from .sentinel import Finding, SentinelReport, check_payload, \
    load_floors
from .trace import (
    NullTracer,
    Tracer,
    get_tracer,
    install_tracer,
    trace_disable,
    trace_enable,
    validate_chrome_trace,
)

__all__ = [
    "NullTracer", "Tracer", "get_tracer", "install_tracer",
    "trace_disable", "trace_enable", "validate_chrome_trace",
    # bench history + regression sentinel
    "HISTORY_SCHEMA", "config_fingerprint", "figures_in_history",
    "history_dir", "load_history", "record_bench",
    "render_trend",
    "Finding", "SentinelReport", "check_payload", "load_floors",
    # flamegraph export
    "collapsed_stacks", "write_collapsed",
]
