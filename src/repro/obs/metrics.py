"""Metrics registry: counters, gauges, histograms with labeled series.

The registry replaces hand-threaded counter plumbing with a single
protocol:

* code increments named metrics, optionally with labels::

      reg = get_registry()
      reg.counter("fence_cycles").labels(origin="RMOV->ld;Frm").inc(28)

* a worker process folds everything it recorded into a plain-dict
  :meth:`MetricsRegistry.snapshot` (picklable / JSON-able),
* the parent merges snapshots with :meth:`MetricsRegistry.merge` —
  counters and histograms add, gauges keep the latest value.

Label sets are serialized into a stable ``k=v,k2=v2`` key so snapshots
survive JSON round-trips; :func:`parse_labels` recovers the dict.

Hot paths (the dispatch trap, the enumerator's inner loop, the cache
lookup) do not pay for label formatting: their producers are plain
dataclasses of ints incremented as attributes, and :class:`Counters`
below is the one place that folds, copies, subtracts and zeroes them.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace

from ..errors import ReproError

#: Snapshot schema version (bumped on layout changes).
SNAPSHOT_SCHEMA = "repro-metrics/1"

#: Default histogram bucket upper bounds (last bucket is +inf).
DEFAULT_BUCKETS: tuple[float, ...] = (
    1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000,
)


class Counters:
    """Base of the producer ``*Stats`` dataclasses (``OptStats``,
    ``XlatCacheStats``, ``EnumerationStats``, ``BehaviorCacheStats``):
    every field is an ``int`` with a default, bumped in place where the
    event happens.  The fold / copy / delta / zero idioms are written
    here once, over :func:`dataclasses.fields`, so a new counter is one
    field on its producer and nothing else."""

    def merge(self, other) -> None:
        """Field-wise ``self += other``."""
        for f in fields(self):
            setattr(self, f.name,
                    getattr(self, f.name) + getattr(other, f.name))

    def snapshot(self):
        """A copy detached from the live counters."""
        return replace(self)

    def since(self, before):
        """Field-wise ``self - before``: the share of a process-wide
        total accumulated after the ``before`` snapshot was taken."""
        return type(self)(**{
            f.name: getattr(self, f.name) - getattr(before, f.name)
            for f in fields(self)
        })

    def reset(self) -> None:
        """Zero every counter in place (module-wide instances keep
        their identity, so no ``global`` rebinding)."""
        for f in fields(self):
            setattr(self, f.name, f.default)


def label_key(labels: dict) -> str:
    """Stable serialization of a label dict (sorted ``k=v`` pairs)."""
    for k, v in labels.items():
        text = f"{k}={v}"
        if "," in text or "=" in str(k) or "=" in str(v):
            raise ReproError(
                f"label {k}={v!r} may not contain ',' or '='")
    return ",".join(f"{k}={labels[k]}" for k in sorted(labels))


def parse_labels(key: str) -> dict[str, str]:
    """Inverse of :func:`label_key` (values come back as strings)."""
    if not key:
        return {}
    return dict(pair.split("=", 1) for pair in key.split(","))


class _CounterSeries:
    __slots__ = ("_store", "_key")

    def __init__(self, store: dict, key: str):
        self._store = store
        self._key = key

    @property
    def value(self):
        return self._store.get(self._key, 0)

    def inc(self, amount=1) -> None:
        if amount < 0:
            raise ReproError("counters only go up")
        self._store[self._key] = self._store.get(self._key, 0) + amount


class _GaugeSeries(_CounterSeries):
    def set(self, value) -> None:
        self._store[self._key] = value

    def inc(self, amount=1) -> None:
        self._store[self._key] = self._store.get(self._key, 0) + amount


class _HistogramSeries:
    __slots__ = ("_store", "_key", "_buckets")

    def __init__(self, store: dict, key: str,
                 buckets: tuple[float, ...]):
        self._store = store
        self._key = key
        self._buckets = buckets
        if key not in store:
            store[key] = {
                "count": 0, "sum": 0.0,
                "buckets": [0] * (len(buckets) + 1),
            }

    @property
    def value(self) -> dict:
        return self._store[self._key]

    def observe(self, value) -> None:
        cell = self._store[self._key]
        cell["count"] += 1
        cell["sum"] += value
        for i, bound in enumerate(self._buckets):
            if value <= bound:
                cell["buckets"][i] += 1
                return
        cell["buckets"][-1] += 1


@dataclass
class _Metric:
    name: str
    kind: str                      # "counter" | "gauge" | "histogram"
    help: str = ""
    buckets: tuple[float, ...] = DEFAULT_BUCKETS
    series: dict = field(default_factory=dict)

    def labels(self, **labels):
        key = label_key(labels)
        if self.kind == "counter":
            return _CounterSeries(self.series, key)
        if self.kind == "gauge":
            return _GaugeSeries(self.series, key)
        return _HistogramSeries(self.series, key, self.buckets)

    # Label-less convenience -----------------------------------------
    def inc(self, amount=1) -> None:
        self.labels().inc(amount)

    def set(self, value) -> None:
        self.labels().set(value)

    def observe(self, value) -> None:
        self.labels().observe(value)

    @property
    def value(self):
        return self.labels().value


class MetricsRegistry:
    """Named metrics + the snapshot/merge protocol."""

    def __init__(self):
        self._metrics: dict[str, _Metric] = {}

    # ------------------------------------------------------------------
    def _get_or_create(self, name: str, kind: str, help: str,
                       **extra) -> _Metric:
        metric = self._metrics.get(name)
        if metric is None:
            metric = _Metric(name=name, kind=kind, help=help, **extra)
            self._metrics[name] = metric
        elif metric.kind != kind:
            raise ReproError(
                f"metric {name!r} already registered as {metric.kind}")
        return metric

    def counter(self, name: str, help: str = "") -> _Metric:
        return self._get_or_create(name, "counter", help)

    def gauge(self, name: str, help: str = "") -> _Metric:
        return self._get_or_create(name, "gauge", help)

    def histogram(self, name: str, help: str = "",
                  buckets: tuple[float, ...] = DEFAULT_BUCKETS,
                  ) -> _Metric:
        return self._get_or_create(name, "histogram", help,
                                   buckets=tuple(buckets))

    def get(self, name: str) -> _Metric | None:
        return self._metrics.get(name)

    def names(self) -> list[str]:
        return sorted(self._metrics)

    def clear(self) -> None:
        self._metrics.clear()

    # ------------------------------------------------------------------
    # Snapshot / merge (the process-boundary protocol)
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """A plain-dict copy of every series (picklable, JSON-able)."""
        metrics = {}
        for name, metric in sorted(self._metrics.items()):
            series = {}
            for key, value in metric.series.items():
                series[key] = dict(
                    value, buckets=list(value["buckets"]),
                ) if metric.kind == "histogram" else value
            metrics[name] = {
                "kind": metric.kind,
                "help": metric.help,
                "series": series,
                **({"buckets": list(metric.buckets)}
                   if metric.kind == "histogram" else {}),
            }
        return {"schema": SNAPSHOT_SCHEMA, "metrics": metrics}

    def merge(self, snapshot: dict) -> None:
        """Fold a :meth:`snapshot` into this registry.

        Counters and histograms add; gauges keep the incoming value
        (last write wins — the snapshots of a sweep arrive in
        submission order).
        """
        if not snapshot:
            return
        if snapshot.get("schema") != SNAPSHOT_SCHEMA:
            raise ReproError(
                f"cannot merge metrics snapshot with schema "
                f"{snapshot.get('schema')!r} (expected "
                f"{SNAPSHOT_SCHEMA})")
        for name, payload in snapshot["metrics"].items():
            kind = payload["kind"]
            if kind == "histogram":
                metric = self.histogram(
                    name, payload.get("help", ""),
                    tuple(payload.get("buckets", DEFAULT_BUCKETS)))
            else:
                metric = self._get_or_create(
                    name, kind, payload.get("help", ""))
            for key, value in payload["series"].items():
                if kind == "counter":
                    metric.series[key] = \
                        metric.series.get(key, 0) + value
                elif kind == "gauge":
                    metric.series[key] = value
                else:
                    cell = metric.series.get(key)
                    if cell is None:
                        metric.series[key] = {
                            "count": value["count"],
                            "sum": value["sum"],
                            "buckets": list(value["buckets"]),
                        }
                    else:
                        if len(cell["buckets"]) != \
                                len(value["buckets"]):
                            raise ReproError(
                                f"histogram {name!r} bucket layouts "
                                f"differ across snapshots")
                        cell["count"] += value["count"]
                        cell["sum"] += value["sum"]
                        cell["buckets"] = [
                            a + b for a, b in zip(cell["buckets"],
                                                  value["buckets"])
                        ]

    # ------------------------------------------------------------------
    def counter_series(self, name: str) -> dict[str, int]:
        """All series of a counter as ``{label_key: value}`` (empty
        dict when the metric was never recorded)."""
        metric = self._metrics.get(name)
        if metric is None:
            return {}
        return dict(metric.series)

    def total(self, name: str):
        """Sum of a counter across all label sets."""
        return sum(self.counter_series(name).values())


# ----------------------------------------------------------------------
# The process-wide registry
# ----------------------------------------------------------------------
_registry = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    return _registry


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the process-wide registry; returns the previous one."""
    global _registry
    previous = _registry
    _registry = registry
    return previous
