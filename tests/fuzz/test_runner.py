"""Runner determinism, findings JSONL schema, and the CLI."""

import json

import pytest

from repro.errors import ReproError
from repro.fuzz import (
    FINDINGS_SCHEMA,
    FuzzConfig,
    findings_lines,
    run_fuzz,
    validate_findings_jsonl,
    write_findings_jsonl,
)
from repro.fuzz.__main__ import main


SMALL = FuzzConfig(seed=11, cases=4,
                   oracles=("staged-vs-naive", "transform-oracle"))


class TestDeterminism:
    def test_same_config_same_bytes(self):
        a = findings_lines(run_fuzz(SMALL))
        b = findings_lines(run_fuzz(SMALL))
        assert a == b

    def test_counts_populated(self):
        report = run_fuzz(SMALL)
        assert report.total_cases == 8
        assert set(report.counts) == set(SMALL.oracles)


class TestFindingsJsonl:
    def test_roundtrip_validates(self, tmp_path):
        report = run_fuzz(SMALL)
        path = write_findings_jsonl(tmp_path / "fuzz.jsonl", report)
        summary = validate_findings_jsonl(path)
        assert summary == report.summary()
        header = json.loads(path.read_text().splitlines()[0])
        assert header["schema"] == FINDINGS_SCHEMA
        assert header["seed"] == 11

    def test_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"schema": "repro-fuzz/99"}\n{"summary": {}}\n')
        with pytest.raises(ReproError, match="unsupported findings"):
            validate_findings_jsonl(path)

    def test_rejects_missing_summary(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"schema": FINDINGS_SCHEMA}) + "\n")
        with pytest.raises(ReproError, match="missing trailing"):
            validate_findings_jsonl(path)

    def test_rejects_count_mismatch(self, tmp_path):
        lines = [json.dumps({"schema": FINDINGS_SCHEMA}),
                 json.dumps({"finding": {"oracle": "x"}}),
                 json.dumps({"summary": {"findings": 0}})]
        path = tmp_path / "bad.jsonl"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ReproError, match="summary counts"):
            validate_findings_jsonl(path)


class TestCli:
    def test_smoke(self, tmp_path, capsys):
        findings = tmp_path / "out" / "fuzz.jsonl"
        bench = tmp_path / "out" / "bench_fuzz.json"
        code = main(["--seed", "11", "--cases", "3",
                     "--oracles", "staged-vs-naive,transform-oracle",
                     "--findings", str(findings),
                     "--bench-json", str(bench),
                     "--fail-on-divergence"])
        assert code == 0
        out = capsys.readouterr().out
        assert "staged-vs-naive" in out and "total:" in out
        validate_findings_jsonl(findings)
        payload = json.loads(bench.read_text())
        assert payload["figure"] == "fuzz"
        assert payload["extra"]["fuzz"]["total_cases"] == 6

    def test_unknown_oracle_exits_2(self, capsys):
        assert main(["--oracles", "bogus"]) == 2
        assert "unknown oracle" in capsys.readouterr().err
