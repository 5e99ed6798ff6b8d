"""Regression-sentinel tests: noise-aware tolerances, per-metric
direction, floors, and the injected-regression acceptance path."""

import pytest

from repro.errors import ReproError
from repro.obs.history import history_record
from repro.obs.sentinel import (
    Finding,
    SentinelReport,
    check_payload,
    load_floors,
)

BENCH_SCHEMA = "repro-bench/1"


def make_payload(cycles=8000, fence=400, checksum=12345,
                 pruned=0.95, executions=100):
    return {
        "schema": BENCH_SCHEMA,
        "figure": "figx",
        "rows": [
            {"benchmark": "alpha", "variant": "risotto",
             "cycles": cycles, "fence_cycles": fence,
             "total_cycles": cycles + fence, "fence_share": 0.05,
             "checksum": checksum},
        ],
        "stats": {
            "runs": 1, "fence_cycles": fence,
            "total_cycles": cycles + fence,
            "enum_pruned_fraction": pruned,
            "enum_executions": executions,
        },
    }


def baseline_records(n=3, **kwargs):
    return [history_record(make_payload(**kwargs), rev=f"r{i}",
                           recorded_at=f"t{i}") for i in range(n)]


class TestVerdicts:
    def test_unmodified_rerun_is_ok(self):
        report = check_payload(make_payload(), baseline_records())
        assert report.ok()
        assert report.ok(require_baseline=True)
        assert not report.regressions
        assert "verdict: OK" in report.render()

    def test_ten_percent_cycle_regression_fails(self):
        # The acceptance criterion: +10% cycles on a recorded cell
        # must trip the sentinel (rel_tol default is 5%).
        report = check_payload(make_payload(cycles=8800),
                               baseline_records())
        assert not report.ok()
        regressed = {(f.key, f.metric) for f in report.regressions}
        assert ("alpha/risotto", "cycles") in regressed
        assert "verdict: FAIL" in report.render()

    def test_improvement_is_ok_but_reported(self):
        report = check_payload(make_payload(cycles=6400),
                               baseline_records())
        assert report.ok()
        improved = {(f.key, f.metric) for f in report.improvements}
        assert ("alpha/risotto", "cycles") in improved

    def test_up_is_good_direction(self):
        # enum_pruned_fraction: a drop is the regression.
        report = check_payload(make_payload(pruned=0.80),
                               baseline_records())
        assert not report.ok()
        assert any(f.metric == "enum_pruned_fraction"
                   for f in report.regressions)
        report = check_payload(make_payload(pruned=0.99),
                               baseline_records())
        assert report.ok()

    def test_checksum_is_exact(self):
        # Any checksum drift is a determinism break, both directions.
        for checksum in (12344, 12346):
            report = check_payload(make_payload(checksum=checksum),
                                   baseline_records())
            assert any(f.metric == "checksum" and
                       f.kind == "regression"
                       for f in report.findings)

    def test_mad_widens_the_band(self):
        # Baselines scattered +/-10% around 8000: a value inside the
        # observed noise envelope must not fail even though it exceeds
        # the 5% relative band around the median.
        noisy = [history_record(make_payload(cycles=c), rev=f"r{i}")
                 for i, c in enumerate((7200, 8000, 8800))]
        report = check_payload(make_payload(cycles=8600), noisy)
        assert report.ok(), report.render()

    def test_window_limits_baselines(self):
        # Old slow records fall outside the window; only the recent
        # fast ones judge the run.
        records = [history_record(make_payload(cycles=c),
                                  rev=f"r{i}")
                   for i, c in enumerate((12000, 12000, 8000, 8000))]
        assert not check_payload(make_payload(cycles=8800), records,
                                 window=2).ok()
        assert check_payload(make_payload(cycles=8800), records,
                             window=4).ok()

    def test_fingerprint_mismatch_means_no_baseline(self):
        other = make_payload()
        other["config"] = {"iterations": 99}
        report = check_payload(other, baseline_records())
        assert report.ok()
        assert not report.ok(require_baseline=True)
        assert report.missing

    def test_new_cell_flagged_missing(self):
        current = make_payload()
        current["rows"].append(dict(current["rows"][0],
                                    variant="native"))
        report = check_payload(current, baseline_records())
        # Fingerprint changed (cell set differs) — whole run has no
        # baseline rather than a spurious pass.
        assert report.missing
        assert report.ok()
        assert not report.ok(require_baseline=True)


class TestFloors:
    def test_floor_regression(self):
        report = check_payload(make_payload(pruned=0.85), [],
                               floors={"enum_pruned_fraction": 0.9})
        assert not report.ok()
        floor = [f for f in report.regressions if f.scope == "floor"]
        assert floor and floor[0].metric == "enum_pruned_fraction"

    def test_floor_pass(self):
        report = check_payload(make_payload(pruned=0.95), [],
                               floors={"enum_pruned_fraction": 0.9})
        assert report.ok()

    def test_load_floors_modern_shape(self, tmp_path):
        path = tmp_path / "floors.json"
        path.write_text('{"comment": "seed", '
                        '"floors": {"enum_pruned_fraction": 0.9}}')
        assert load_floors(path) == {"enum_pruned_fraction": 0.9}

    def test_load_floors_legacy_verify_floor(self, tmp_path):
        # There is one floors format: a file still in the pre-sentinel
        # verify_floor.json spelling fails loudly instead of loading
        # as "no floors" and passing vacuously.
        path = tmp_path / "verify_floor.json"
        path.write_text(
            '{"comment": "seed", "min_pruned_fraction": 0.9}')
        with pytest.raises(ReproError, match="floor"):
            load_floors(path)

    def test_load_floors_rejects_unknown_shape(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"something": 1}')
        with pytest.raises(ReproError, match="floor"):
            load_floors(path)

    def test_committed_seed_floor_loads(self):
        import pathlib
        seed = pathlib.Path(__file__).parents[2] / "results" \
            / "verify_floor.json"
        floors = load_floors(seed)
        assert floors["enum_pruned_fraction"] == pytest.approx(0.9)


class TestReportRendering:
    def test_findings_have_readable_str(self):
        finding = Finding(figure="figx", scope="rows",
                          key="alpha/risotto", metric="cycles",
                          value=8800.0, baseline=8000.0,
                          tolerance=400.0, kind="regression",
                          detail="median of 3")
        text = str(finding)
        assert "REGRESSION" in text
        assert "alpha/risotto" in text

    def test_empty_report_is_ok(self):
        report = SentinelReport(figure="figx", fingerprint="f" * 16,
                                records_used=0, findings=[])
        assert report.ok()
        assert "verdict: OK" in report.render()

    def test_render_lists_regressions(self):
        report = check_payload(make_payload(cycles=8800),
                               baseline_records())
        text = report.render()
        assert "cycles" in text
        assert "regression" in text.lower()


class TestNoEvidenceNoPass:
    """A check may not pass on empty evidence, and the printed verdict
    is the exit status."""

    def test_empty_export_fails_require_baseline(self, tmp_path):
        from repro.analysis.export import load_bench_json, \
            write_bench_json
        path = write_bench_json(tmp_path / "empty.json", "schemes")
        report = check_payload(load_bench_json(path),
                               baseline_records())
        assert report.judged == 0 and not report.findings
        assert not report.ok(require_baseline=True)
        assert report.render(require_baseline=True).endswith(
            "checked 0 metrics: 0 regressions, 0 improvements, "
            "0 without baseline\nverdict: FAIL")
        # Lenient mode asks for no baseline, so nothing fails it.
        assert report.ok()

    def test_missing_baseline_verdict_matches_status(self):
        report = check_payload(make_payload(), [])
        assert report.missing and not report.regressions
        assert not report.ok(require_baseline=True)
        assert report.render(require_baseline=True).endswith(
            "verdict: FAIL")
        assert report.ok()
        assert report.render().endswith("verdict: OK")

    def test_cli_exit_and_verdict_agree(self, tmp_path, capsys):
        from repro.analysis.export import write_bench_json
        from repro.cli import main
        empty = write_bench_json(tmp_path / "empty.json", "schemes")
        store = str(tmp_path / "history")
        assert main(["perf", "check", str(empty), "--history", store,
                     "--require-baseline"]) == 1
        out = capsys.readouterr().out
        assert "checked 0 metrics" in out
        assert "verdict: FAIL" in out and "verdict: OK" not in out
