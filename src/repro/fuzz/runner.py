"""The fuzz loop: seeded case generation, oracle checks, shrinking,
and a deterministic findings report.

Determinism contract: ``run_fuzz`` with the same :class:`FuzzConfig`
produces byte-identical findings JSONL.  Everything that feeds the
report is derived from ``Random(f"repro-fuzz:{seed}:{oracle}:{index}")``
— string seeding is immune to ``PYTHONHASHSEED`` — and every set that
reaches the report is sorted first.  No timestamps, no absolute paths,
no machine identity in the payload.

Findings format (``repro-fuzz/1``), one JSON object per line:

* line 1 — header: schema, seed, per-oracle case budget, oracle names;
* one line per finding: oracle, case index, the generated case, the
  divergence detail, and (when shrinking is on) the minimized case
  with its own detail;
* last line — summary: per-oracle status counts and totals.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from ..errors import ReproError
from ..obs.trace import get_tracer
from .cases import canonical_json
from .oracles import ORACLES, make_oracles
from .shrink import shrink_case

FINDINGS_SCHEMA = "repro-fuzz/1"

DEFAULT_ORACLES: tuple[str, ...] = tuple(ORACLES)


@dataclass(frozen=True)
class FuzzConfig:
    seed: int = 0
    #: Cases *per oracle*.
    cases: int = 50
    oracles: tuple[str, ...] = DEFAULT_ORACLES
    shrink: bool = True
    shrink_budget: int = 150
    #: Pin the DBT-differential oracle's mapping leg to one registered
    #: mapping name (e.g. a derived ``most-*`` scheme); ``None`` keeps
    #: the default Risotto pair.
    dbt_mapping: str | None = None


@dataclass
class FuzzReport:
    config: FuzzConfig
    #: oracle name -> status -> count.
    counts: dict = field(default_factory=dict)
    findings: list = field(default_factory=list)

    @property
    def total_cases(self) -> int:
        return sum(sum(c.values()) for c in self.counts.values())

    @property
    def divergences(self) -> int:
        return len(self.findings)

    def summary(self) -> dict:
        return {
            "counts": {k: dict(sorted(v.items()))
                       for k, v in sorted(self.counts.items())},
            "total_cases": self.total_cases,
            "findings": self.divergences,
        }


def run_fuzz(config: FuzzConfig) -> FuzzReport:
    """Run the configured oracles over their case budgets."""
    oracles = make_oracles(config.oracles,
                           dbt_mapping=config.dbt_mapping)
    report = FuzzReport(config=config)
    tracer = get_tracer()

    from random import Random
    for oracle in oracles:
        counts: dict[str, int] = {}
        report.counts[oracle.name] = counts
        for index in range(config.cases):
            rng = Random(
                f"repro-fuzz:{config.seed}:{oracle.name}:{index}")
            with tracer.span("fuzz.case", cat="fuzz",
                             oracle=oracle.name, index=index):
                case = oracle.generate(rng)
                outcome = oracle.check(case)
            counts[outcome.status] = counts.get(outcome.status, 0) + 1
            if outcome.status != "divergence":
                continue
            finding = {
                "oracle": oracle.name,
                "index": index,
                "seed": config.seed,
                "case": case,
                "detail": outcome.detail,
            }
            if config.shrink:
                with tracer.span("fuzz.shrink", cat="fuzz",
                                 oracle=oracle.name, index=index):
                    shrunk = shrink_case(oracle, case,
                                         budget=config.shrink_budget)
                finding["shrunk"] = shrunk.case
                finding["shrunk_detail"] = \
                    oracle.check(shrunk.case).detail
                finding["shrink"] = {
                    "checks": shrunk.checks,
                    "initial_size": shrunk.initial_size,
                    "final_size": shrunk.final_size,
                }
            report.findings.append(finding)
    return report


# ----------------------------------------------------------------------
# Findings JSONL
# ----------------------------------------------------------------------
def findings_lines(report: FuzzReport) -> list[str]:
    """The canonical JSONL lines for a report (no trailing newlines)."""
    header = {
        "schema": FINDINGS_SCHEMA,
        "seed": report.config.seed,
        "cases": report.config.cases,
        "oracles": sorted(report.config.oracles),
        "shrink": report.config.shrink,
    }
    lines = [canonical_json(header)]
    lines += [canonical_json({"finding": f}) for f in report.findings]
    lines.append(canonical_json({"summary": report.summary()}))
    return lines


def write_findings_jsonl(path, report: FuzzReport) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(findings_lines(report)) + "\n")
    return path


def validate_findings_jsonl(path) -> dict:
    """Schema-check one findings file; returns its summary dict."""
    path = Path(path)
    try:
        lines = path.read_text().splitlines()
    except OSError as exc:
        raise ReproError(f"cannot read findings {path}: {exc}") \
            from None
    if not lines:
        raise ReproError(f"{path}: empty findings file")
    try:
        rows = [json.loads(line) for line in lines]
    except ValueError as exc:
        raise ReproError(f"{path}: malformed JSONL: {exc}") from None
    header = rows[0]
    if header.get("schema") != FINDINGS_SCHEMA:
        raise ReproError(
            f"{path}: unsupported findings schema "
            f"{header.get('schema')!r} (expected {FINDINGS_SCHEMA!r})")
    if "summary" not in rows[-1]:
        raise ReproError(f"{path}: missing trailing summary line")
    for i, row in enumerate(rows[1:-1], start=2):
        if "finding" not in row:
            raise ReproError(f"{path}: line {i} is not a finding")
    summary = rows[-1]["summary"]
    if summary.get("findings") != len(rows) - 2:
        raise ReproError(
            f"{path}: summary counts {summary.get('findings')} "
            f"findings but the file holds {len(rows) - 2}")
    return summary
