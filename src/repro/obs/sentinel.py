"""Noise-aware perf-regression sentinel over the bench history.

The sentinel compares a fresh ``bench_*.json`` payload against the
recorded baseline in the history store (:mod:`repro.obs.history`):

* **baseline** — the median of the last ``window`` (:data:`WINDOW`)
  records with the same config fingerprint, per cell and per metric;
* **tolerance** — ``max(MAD_K · 1.4826 · MAD, REL_TOL · |median|,
  abs_tol)``: the MAD term absorbs run-to-run noise where it exists,
  the relative and absolute floors keep deterministic metrics (the
  simulator's cycle counts repeat exactly) from tripping on nothing
  while still catching a real ≥10% move at the default 5% band;
* **direction** — every metric declares which way is bad:
  ``cycles`` up is a regression, ``enum_pruned_fraction`` *down* is a
  regression, ``checksum`` must match exactly (a change is a
  determinism break, not noise).

Beyond history baselines the sentinel applies **floors** — absolute
minima for up-is-good metrics, read from a ``{"floors": {metric:
min}}`` file.  ``results/verify_floor.json`` sets one on
``enum_pruned_fraction`` for the ``verify-sharded`` CI gate.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

from ..errors import ReproError
from .history import config_fingerprint, history_record

#: Consistency constant: 1.4826 · MAD estimates a Gaussian sigma.
MAD_SIGMA = 1.4826
#: Baseline records per fingerprint.
WINDOW = 5
#: MAD multiplier of the noise band.
MAD_K = 3.0
#: Relative tolerance floor.
REL_TOL = 0.05


@dataclass(frozen=True)
class MetricSpec:
    """How one metric is judged."""

    #: "down" (increase is bad), "up" (decrease is bad), or "exact"
    #: (any change is bad — determinism breaks, not noise).
    direction: str
    #: Absolute tolerance floor in the metric's own unit.
    abs_tol: float = 0.0


#: Per-cell metrics (payload ``rows``) the sentinel judges.
ROW_METRIC_SPECS: dict[str, MetricSpec] = {
    "cycles": MetricSpec("down", abs_tol=16),
    "fence_cycles": MetricSpec("down", abs_tol=16),
    "total_cycles": MetricSpec("down", abs_tol=16),
    "checksum": MetricSpec("exact"),
}

#: Sweep-level metrics (payload ``stats``) the sentinel judges.
#: Wall-clock quantities are deliberately absent: they measure the
#: host, not the change under test.
STAT_METRIC_SPECS: dict[str, MetricSpec] = {
    "fence_cycles": MetricSpec("down", abs_tol=64),
    "total_cycles": MetricSpec("down", abs_tol=64),
    "enum_executions": MetricSpec("down", abs_tol=8),
    "enum_pruned_fraction": MetricSpec("up", abs_tol=0.005),
}

@dataclass(frozen=True)
class Finding:
    """One judged (cell, metric) pair."""

    figure: str
    scope: str          # "rows" | "stats" | "floor"
    key: str            # "benchmark/variant", or "sweep" for stats
    metric: str
    value: float | int | None
    baseline: float | int | None
    tolerance: float
    #: "ok" | "regression" | "improvement" | "no-baseline"
    kind: str
    detail: str = ""

    def __str__(self) -> str:
        head = (f"{self.kind.upper():12s} {self.figure} "
                f"{self.key} {self.metric}")
        if self.kind == "no-baseline":
            return f"{head}: {self.detail or 'no history baseline'}"
        return (f"{head}: {self.value} vs baseline {self.baseline} "
                f"(tolerance {self.tolerance:g})"
                + (f" — {self.detail}" if self.detail else ""))


@dataclass
class SentinelReport:
    """Every finding of one payload check."""

    figure: str
    fingerprint: str
    records_used: int
    findings: list[Finding] = field(default_factory=list)

    def _kind(self, kind: str) -> list[Finding]:
        return [f for f in self.findings if f.kind == kind]

    @property
    def regressions(self) -> list[Finding]:
        return self._kind("regression")

    @property
    def improvements(self) -> list[Finding]:
        return self._kind("improvement")

    @property
    def missing(self) -> list[Finding]:
        return self._kind("no-baseline")

    def ok(self, require_baseline: bool = False) -> bool:
        if self.regressions:
            return False
        if require_baseline and self.missing:
            return False
        return True

    def render(self) -> str:
        checked = len(self.findings) - len(self.missing)
        lines = [
            f"=== perf sentinel: {self.figure} "
            f"(fingerprint {self.fingerprint}, "
            f"{self.records_used} baseline records) ===",
            f"checked {checked} metrics: "
            f"{len(self.regressions)} regressions, "
            f"{len(self.improvements)} improvements, "
            f"{len(self.missing)} without baseline",
        ]
        for finding in self.findings:
            if finding.kind != "ok":
                lines.append(str(finding))
        verdict = "FAIL" if self.regressions else "OK"
        lines.append(f"verdict: {verdict}")
        return "\n".join(lines)


def load_floors(path) -> dict[str, float]:
    """Read a floors file: ``{"floors": {metric: min}}``."""
    path = Path(path)
    try:
        payload = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise ReproError(f"cannot read floors file {path}: {exc}") \
            from None
    if not isinstance(payload, dict):
        raise ReproError(f"{path}: floors file must be an object")
    if not isinstance(payload.get("floors"), dict):
        raise ReproError(
            f"{path}: no floors found (expected a 'floors' object)")
    return {str(k): float(v) for k, v in payload["floors"].items()}


def _mad(values: list[float], center: float) -> float:
    return median([abs(v - center) for v in values]) if values else 0.0


def _tolerance(spec: MetricSpec, center: float, values: list) -> float:
    noise = MAD_K * MAD_SIGMA * _mad([float(v) for v in values], center)
    return max(noise, REL_TOL * abs(center), spec.abs_tol)


def _judge(figure: str, scope: str, key: str, metric: str,
           spec: MetricSpec, value, values: list) -> Finding:
    """Judge one current value against its baseline series."""
    if spec.direction == "exact":
        baseline = values[-1]
        kind = "ok" if value == baseline else "regression"
        return Finding(figure, scope, key, metric, value, baseline,
                       0.0, kind,
                       detail="" if kind == "ok"
                       else "exact-match metric changed "
                            "(determinism break)")
    center = median([float(v) for v in values])
    tol = _tolerance(spec, center, values)
    delta = float(value) - center
    bad = delta > tol if spec.direction == "down" else delta < -tol
    good = delta < -tol if spec.direction == "down" else delta > tol
    kind = "regression" if bad else "improvement" if good else "ok"
    detail = ""
    if kind != "ok" and center:
        detail = f"{delta / center * 100.0:+.1f}% vs median"
    return Finding(figure, scope, key, metric, value, center, tol,
                   kind, detail=detail)


def check_payload(payload: dict, records: list[dict], *,
                  window: int = WINDOW,
                  floors: dict[str, float] | None = None,
                  ) -> SentinelReport:
    """Judge one bench payload against its recorded history.

    ``records`` is the figure's full history (oldest first, as
    :func:`repro.obs.history.load_history` returns it); only the last
    ``window`` records with the payload's own config fingerprint form
    the baseline.  Returns a :class:`SentinelReport`; the caller
    decides whether missing baselines are fatal.
    """
    current = history_record(payload, rev="<current>")
    figure = current["figure"]
    fingerprint = config_fingerprint(payload)
    matching = [r for r in records
                if r.get("fingerprint") == fingerprint][-window:]
    report = SentinelReport(figure=figure, fingerprint=fingerprint,
                            records_used=len(matching))

    sections = (
        ("rows", current["rows"], ROW_METRIC_SPECS),
        ("stats", {"sweep": current["stats"]}, STAT_METRIC_SPECS),
    )
    for scope, cells, specs in sections:
        for key, metrics in sorted(cells.items()):
            for metric, value in sorted(metrics.items()):
                spec = specs.get(metric)
                if spec is None:
                    continue
                values = []
                for record in matching:
                    prior = record.get(scope) or {}
                    if scope == "stats":
                        prior = {"sweep": prior}
                    if key in prior and metric in prior[key]:
                        values.append(prior[key][metric])
                if not values:
                    report.findings.append(Finding(
                        figure, scope, key, metric, value, None, 0.0,
                        "no-baseline",
                        detail="no matching history record"))
                    continue
                report.findings.append(_judge(
                    figure, scope, key, metric, spec, value, values))

    for metric, floor in sorted((floors or {}).items()):
        value = current["stats"].get(metric)
        if value is None:
            report.findings.append(Finding(
                figure, "floor", "sweep", metric, None, floor, 0.0,
                "no-baseline",
                detail="payload carries no such stats metric"))
            continue
        kind = "ok" if float(value) >= floor else "regression"
        report.findings.append(Finding(
            figure, "floor", "sweep", metric, value, floor, 0.0,
            kind, detail="" if kind == "ok"
            else f"below recorded floor {floor:g}"))
    return report
