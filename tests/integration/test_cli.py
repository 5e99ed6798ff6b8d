"""End-to-end tests for the unified ``python -m repro`` CLI."""

import json

import pytest

from repro.cli import build_parser, main
from repro.dbt import xlat_cache


@pytest.fixture()
def cache_env(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_XLAT_CACHE", str(tmp_path / "xlat"))
    xlat_cache.reset_stats()
    yield tmp_path
    xlat_cache.reset_memory()


class TestParser:
    def test_help_lists_every_subcommand(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        for command in ("run", "verify", "fuzz", "obsreport", "perf",
                        "cache", "serve", "loadgen"):
            assert command in out

    def test_no_command_prints_help(self, capsys):
        assert main([]) == 0
        assert "run" in capsys.readouterr().out


class TestRun:
    def test_fig12_slice(self, cache_env, tmp_path, capsys):
        bench = tmp_path / "bench.json"
        code = main([
            "run", "fig12", "--benchmarks", "histogram",
            "--variants", "qemu,risotto", "--iterations", "40",
            "--workers", "1", "--bench-json", str(bench),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Figure 12" in out
        # Cache warmth is host state: the footer leaves it to the
        # export, which carries the translation-cache counters.
        assert "translated:" in out
        assert "translation cache:" not in out
        payload = json.loads(bench.read_text())
        assert payload["schema"] == "repro-bench/1"
        assert payload["stats"]["xlat_misses"] > 0
        assert {r["variant"] for r in payload["rows"]} == \
            {"qemu", "risotto"}

    def test_warm_rerun_reports_zero_misses(self, cache_env, tmp_path,
                                            capsys):
        bench = tmp_path / "bench.json"
        argv = ["run", "fig12", "--benchmarks", "histogram",
                "--variants", "risotto", "--iterations", "40",
                "--workers", "1", "--bench-json", str(bench)]
        assert main(argv) == 0
        capsys.readouterr()
        xlat_cache.reset_memory()
        assert main(argv) == 0
        # Cache warmth is reported by the export, not the footer.
        stats = json.loads(bench.read_text())["stats"]
        assert stats["xlat_misses"] == 0
        assert stats["xlat_hits"] == stats["blocks_translated"] > 0

    def test_unknown_benchmark_names_choices(self, cache_env):
        from repro.errors import ReproError
        with pytest.raises(ReproError, match="histogram"):
            main(["run", "fig12", "--benchmarks", "nosuch",
                  "--workers", "1"])

    def test_unknown_variant_names_choices(self, cache_env):
        from repro.errors import ReproError
        with pytest.raises(ReproError, match="risotto"):
            main(["run", "fig12", "--variants", "wasm",
                  "--workers", "1"])


class TestCache:
    def test_stats_json_round_trips(self, cache_env, capsys):
        assert main(["cache", "stats", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"xlat"}
        assert payload["xlat"]["enabled"] is True
        assert payload["xlat"]["disk_entries"] == 0

    def test_clear_removes_xlat_entries(self, cache_env, capsys):
        main(["run", "fig12", "--benchmarks", "histogram",
              "--variants", "risotto", "--iterations", "40",
              "--workers", "1"])
        capsys.readouterr()
        assert main(["cache", "stats", "--json"]) == 0
        before = json.loads(capsys.readouterr().out)
        assert before["xlat"]["disk_entries"] > 0
        assert main(["cache", "clear"]) == 0
        capsys.readouterr()
        assert main(["cache", "stats", "--json"]) == 0
        after = json.loads(capsys.readouterr().out)
        assert after["xlat"]["disk_entries"] == 0

    def test_stats_enumerates_namespaces(self, cache_env, capsys):
        from repro import api
        from repro.workloads.kernels import KernelSpec
        tiny = KernelSpec("tiny", loads=2, stores=1, alu=2, fp=1,
                          iterations=40, threads=2, working_set=64)
        api.submit(api.kernel_job(tiny, variant="risotto",
                                  namespace="tenant-a"))
        assert main(["cache", "stats", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        # The per-namespace breakdown nests inside the cache block.
        spaces = payload["xlat"]["namespaces"]
        assert spaces["tenant-a"]["entries"] > 0
        assert spaces["tenant-a"]["bytes"] > 0
        assert spaces[""]["entries"] == 0
        # The root's own figures are its namespace row: a tenant is
        # never counted once under "namespaces" and again at the root.
        assert payload["xlat"]["disk_entries"] == spaces[""]["entries"]
        assert payload["xlat"]["disk_bytes"] == spaces[""]["bytes"]
        capsys.readouterr()
        assert main(["cache", "stats"]) == 0
        out = capsys.readouterr().out
        assert "namespace tenant-a:" in out


class TestPerf:
    @pytest.fixture()
    def store(self, tmp_path):
        """A private history store, named to every perf action by
        ``--history``."""
        return str(tmp_path / "history")

    def _fig12_bench(self, tmp_path, capsys, name="bench.json"):
        bench = tmp_path / name
        assert main([
            "run", "fig12", "--benchmarks", "histogram",
            "--variants", "risotto", "--iterations", "40",
            "--workers", "1", "--bench-json", str(bench),
        ]) == 0
        capsys.readouterr()
        return bench

    def test_record_then_unmodified_check_passes(self, cache_env,
                                                 store,
                                                 tmp_path, capsys):
        bench = self._fig12_bench(tmp_path, capsys)
        assert main(["perf", "record", str(bench), "--history", store,
                     "--rev", "seed"]) == 0
        out = capsys.readouterr().out
        assert "recorded fig12" in out
        # The acceptance contract: an unmodified re-run exits zero.
        assert main(["perf", "check", str(bench), "--history", store,
                     "--require-baseline"]) == 0
        assert "verdict: OK" in capsys.readouterr().out

    def test_injected_regression_exits_nonzero(self, cache_env,
                                               store,
                                               tmp_path, capsys):
        bench = self._fig12_bench(tmp_path, capsys)
        assert main(["perf", "record", str(bench), "--history", store]) == 0
        capsys.readouterr()
        # Inject a 10% cycle slowdown into every row, config untouched
        # so the fingerprint still matches the recorded baseline.
        payload = json.loads(bench.read_text())
        for row in payload["rows"]:
            row["cycles"] = int(row["cycles"] * 1.10)
            row["total_cycles"] = int(row["total_cycles"] * 1.10)
        slow = tmp_path / "bench_slow.json"
        slow.write_text(json.dumps(payload))
        assert main(["perf", "check", str(slow), "--history", store]) == 1
        out = capsys.readouterr().out
        assert "verdict: FAIL" in out
        assert "REGRESSION" in out

    def test_check_without_baseline(self, cache_env, store,
                                    tmp_path, capsys):
        bench = self._fig12_bench(tmp_path, capsys)
        # No record yet: lenient mode skips, strict mode fails.
        assert main(["perf", "check", str(bench), "--history", store]) == 0
        capsys.readouterr()
        assert main(["perf", "check", str(bench), "--history", store,
                     "--require-baseline"]) == 1

    def test_floors_subsume_verify_floor_gate(self, cache_env,
                                              store, tmp_path,
                                              capsys):
        bench = tmp_path / "bench_verify.json"
        assert main(["verify", "--tests", "MP,SB", "--workers", "1",
                     "--bench-json", str(bench)]) == 0
        capsys.readouterr()
        floors = tmp_path / "floors.json"
        floors.write_text(json.dumps(
            {"floors": {"enum_pruned_fraction": 0.05}}))
        assert main(["perf", "check", str(bench), "--history", store,
                     "--floors", str(floors)]) == 0
        capsys.readouterr()
        floors.write_text(json.dumps(
            {"floors": {"enum_pruned_fraction": 0.9999}}))
        assert main(["perf", "check", str(bench), "--history", store,
                     "--floors", str(floors)]) == 1
        assert "enum_pruned_fraction" in capsys.readouterr().out

    def test_report_trend_and_flame(self, cache_env, store,
                                    tmp_path, capsys):
        bench = self._fig12_bench(tmp_path, capsys)
        assert main(["perf", "record", str(bench), "--history", store,
                     "--rev", "r1"]) == 0
        assert main(["perf", "record", str(bench), "--history", store,
                     "--rev", "r2"]) == 0
        capsys.readouterr()
        flame = tmp_path / "flame.txt"
        assert main(["perf", "report", "--history", store,
                     "--format", "md",
                     "--flame", str(flame), "--bench", str(bench)]) == 0
        out = capsys.readouterr().out
        assert "### fig12" in out
        assert "histogram/risotto" in out
        stacks = flame.read_text().splitlines()
        assert stacks and all(
            line.startswith("fig12;") and line.rsplit(" ", 1)[1]
            .isdigit() for line in stacks)

    def test_report_without_history_fails(self, cache_env,
                                          store, capsys):
        assert main(["perf", "report", "--history", store]) == 1
        assert "no history records" in capsys.readouterr().err

    def test_perf_without_action_usage(self, capsys):
        assert main(["perf"]) == 2
        assert "record,check,report" in capsys.readouterr().err


class TestDelegation:
    def test_obsreport_renders_bench_json(self, cache_env, tmp_path,
                                          capsys):
        bench = tmp_path / "bench.json"
        main(["run", "fig12", "--benchmarks", "histogram",
              "--variants", "qemu,risotto", "--iterations", "40",
              "--workers", "1", "--bench-json", str(bench)])
        capsys.readouterr()
        assert main(["obsreport", str(bench)]) == 0
        assert "fig12" in capsys.readouterr().out

    def test_fuzz_smoke(self, cache_env, capsys):
        code = main(["fuzz", "--seed", "5", "--cases", "2",
                     "--oracles", "staged-vs-naive"])
        assert code == 0
        assert "cases" in capsys.readouterr().out.lower()


class TestDelegatedHelp:
    """Delegated subcommands must surface the *delegate's* help and
    options instead of dying on argparse's REMAINDER quirk
    (bpo-17050: a leading option never matches the remainder)."""

    def test_fuzz_help_shows_delegate_usage(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["fuzz", "--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert "repro.fuzz" in out
        assert "--oracles" in out

    def test_obsreport_help_shows_delegate_usage(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["obsreport", "--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert "obsreport" in out

    def test_parser_path_forwards_leading_options(self, cache_env,
                                                  capsys):
        # Exercise the parse_known_args route main() falls back to —
        # a strict parse of a leading option used to die with
        # "unrecognized arguments" at the top level.
        parser = build_parser()
        args, unknown = parser.parse_known_args(
            ["fuzz", "--seed", "5", "--cases", "2",
             "--oracles", "staged-vs-naive"])
        assert args.command == "fuzz"
        forwarded = list(unknown) + list(args.args)
        assert forwarded == ["--seed", "5", "--cases", "2",
                             "--oracles", "staged-vs-naive"]
        from repro.fuzz.__main__ import main as fuzz_main
        assert fuzz_main(forwarded) == 0
        capsys.readouterr()

    def test_unknown_args_still_rejected_elsewhere(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["cache", "--bogus-flag"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestSchemeMatrix:
    def test_schemes_sweep_passes_and_exports(self, cache_env,
                                              tmp_path, capsys):
        bench = tmp_path / "bench_schemes.json"
        code = main(["verify", "--schemes", "qemu,risotto",
                     "--workers", "1", "--bench-json", str(bench)])
        out = capsys.readouterr().out
        assert code == 0
        assert "scheme-matrix" in out
        assert "most-risotto-rmw1al" in out
        payload = json.loads(bench.read_text())
        assert payload["figure"] == "schemes"
        assert payload["extra"]["gate_failures"] == 0
        verdicts = payload["extra"]["verdicts"]
        assert verdicts["most-qemu-rmw1al"]["ok"] is False
        assert verdicts["most-qemu-rmw1al"]["expected_ok"] is False
        assert verdicts["most-risotto-rmw2ff"]["ok"] is True

    def test_negative_controls_keep_their_teeth(self, cache_env,
                                                capsys):
        # The rmo-bare control must stay broken — and the gate must
        # *pass*, because broken is exactly what the family expects.
        code = main(["verify", "--schemes", "rmo-bare",
                     "--workers", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "broken" in out

    def test_unknown_scheme_names_family(self, cache_env, capsys):
        with pytest.raises(Exception, match="unknown scheme"):
            main(["verify", "--schemes", "fastest", "--workers", "1"])
