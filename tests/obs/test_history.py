"""Bench-history store tests: append-only records, fingerprints,
schema versioning, and trend rendering."""

import json

import pytest

from repro.errors import ReproError
from repro.obs.history import (
    DEFAULT_HISTORY_DIR,
    HISTORY_SCHEMA,
    config_fingerprint,
    figures_in_history,
    history_dir,
    history_path,
    history_record,
    load_history,
    record_bench,
    render_trend,
)

BENCH_SCHEMA = "repro-bench/1"


def make_payload(cycles=1000, fence=100, checksum=42,
                 config=None, pruned=0.95):
    return {
        "schema": BENCH_SCHEMA,
        "figure": "figx",
        **({"config": config} if config else {}),
        "rows": [
            {"benchmark": "alpha", "variant": "risotto",
             "cycles": cycles, "fence_cycles": fence,
             "total_cycles": cycles + fence, "fence_share": 0.1,
             "checksum": checksum},
        ],
        "stats": {
            "runs": 1, "wall_seconds": 0.5,
            "fence_cycles": fence, "total_cycles": cycles + fence,
            "enum_pruned_fraction": pruned,
        },
    }


class TestFingerprint:
    def test_measured_values_do_not_change_it(self):
        assert config_fingerprint(make_payload(cycles=1000)) == \
            config_fingerprint(make_payload(cycles=999999,
                                            checksum=7))

    def test_config_changes_it(self):
        assert config_fingerprint(make_payload()) != \
            config_fingerprint(make_payload(
                config={"iterations": 40}))

    def test_cell_set_changes_it(self):
        other = make_payload()
        other["rows"].append(dict(other["rows"][0],
                                  variant="native"))
        assert config_fingerprint(make_payload()) != \
            config_fingerprint(other)


class TestRecord:
    def test_record_shape(self):
        record = history_record(make_payload(), rev="abc",
                                recorded_at="2026-01-01T00:00:00Z")
        assert record["schema"] == HISTORY_SCHEMA
        assert record["figure"] == "figx"
        assert record["rev"] == "abc"
        assert record["rows"]["alpha/risotto"]["cycles"] == 1000
        assert record["rows"]["alpha/risotto"]["checksum"] == 42
        # noisy wall-clock quantities never enter the store
        assert "wall_seconds" not in record["stats"]
        assert record["stats"]["enum_pruned_fraction"] == 0.95

    def test_requires_figure(self):
        with pytest.raises(ReproError, match="no figure"):
            history_record({"rows": []})

    def test_append_only(self, tmp_path):
        record_bench(make_payload(cycles=10), history=tmp_path,
                     rev="r1")
        path = record_bench(make_payload(cycles=20),
                            history=tmp_path, rev="r2")
        assert path == tmp_path / "figx.jsonl"
        records = load_history("figx", history=tmp_path)
        assert [r["rev"] for r in records] == ["r1", "r2"]
        assert [r["rows"]["alpha/risotto"]["cycles"]
                for r in records] == [10, 20]

    def test_unknown_schema_records_are_skipped(self, tmp_path):
        record_bench(make_payload(), history=tmp_path, rev="good")
        with open(tmp_path / "figx.jsonl", "a") as fh:
            fh.write(json.dumps({"schema": "repro-bench-history/99",
                                 "figure": "figx"}) + "\n")
        records = load_history("figx", history=tmp_path)
        assert [r["rev"] for r in records] == ["good"]

    def test_corrupt_line_raises(self, tmp_path):
        with open(tmp_path / "figx.jsonl", "w") as fh:
            fh.write("{not json\n")
        with pytest.raises(ReproError, match="corrupt history"):
            load_history("figx", history=tmp_path)

    def test_missing_file_is_empty_history(self, tmp_path):
        assert load_history("nothing", history=tmp_path) == []

    def test_figures_in_history(self, tmp_path):
        assert figures_in_history(tmp_path) == []
        record_bench(make_payload(), history=tmp_path)
        other = make_payload()
        other["figure"] = "figy"
        record_bench(other, history=tmp_path)
        assert figures_in_history(tmp_path) == ["figx", "figy"]


class TestLocation:
    def test_store_is_the_argument_else_results_history(self, tmp_path):
        # No environment variable moves the store: only --history.
        assert history_dir() == DEFAULT_HISTORY_DIR
        assert history_dir(tmp_path) == tmp_path
        assert history_path("figx", tmp_path) == tmp_path / "figx.jsonl"


class TestWriteBenchJsonRecording:
    def test_default_does_not_record(self, tmp_path):
        # `perf record` is the store's one writer: an export is not.
        from repro.analysis.export import write_bench_json
        write_bench_json(tmp_path / "bench_figx.json", "figx")
        assert not (tmp_path / "history").exists()

    def test_config_survives_roundtrip(self, tmp_path):
        from repro.analysis.export import load_bench_json, \
            write_bench_json
        out = write_bench_json(tmp_path / "b.json", "figx",
                               config={"iterations": 40})
        assert load_bench_json(out)["config"] == {"iterations": 40}


class TestTrend:
    def _records(self):
        return [
            history_record(make_payload(cycles=100), rev="r1",
                           recorded_at="t1"),
            history_record(make_payload(cycles=90), rev="r2",
                           recorded_at="t2"),
        ]

    def test_text_trend(self):
        text = render_trend("figx", self._records())
        assert "perf trend: figx" in text
        assert "alpha/risotto" in text
        assert "-10.0%" in text

    def test_md_trend(self):
        text = render_trend("figx", self._records(), fmt="md")
        assert text.startswith("### figx")
        assert "| alpha/risotto | cycles |" in text

    def test_empty_history(self):
        assert "(no history records)" in render_trend("figx", [])

    def test_unknown_format_rejected(self):
        with pytest.raises(ReproError, match="unknown trend format"):
            render_trend("figx", [], fmt="html")
