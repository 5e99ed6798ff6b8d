"""Stability tests for the :mod:`repro.api` facade.

The facade is the one import surface benchmarks, the fuzzer and the
CLI build on, so its shape is pinned: the snapshot test fails on any
accidental rename/removal (extending is fine — update the snapshot
deliberately), and the signature tests enforce the keyword-only
convention on every run function.
"""

import inspect

import pytest

from repro import api

#: The pinned public surface.  Additions are appended deliberately;
#: removals and renames are breaking changes and must not happen
#: silently.
EXPECTED_SURFACE = {
    # run functions
    "run_kernel", "run_library_workload", "run_cas_benchmark",
    "make_engine",
    # sweep harness
    "LitmusSpec", "RunRow", "RunFailure", "SweepResult", "run_parallel",
    "execute_spec", "default_workers", "deterministic_row",
    # workload building blocks
    "KernelSpec", "CasConfig", "WorkloadResult", "RunResult",
    "ALL_SPECS", "PARSEC_SPECS", "PHOENIX_SPECS", "SPEC_BY_NAME",
    "FIGURE15_CONFIGS", "DATA_BUF",
    "kernel_grid", "library_grid", "cas_grid", "ablation_grid",
    "scheme_grid", "verify_grid",
    # sharded verification / enumeration reduction
    "MODEL_BY_NAME", "FIVE_THREAD_CORPUS", "verify_registry",
    "reduced_behaviors", "enumeration_stats",
    "reset_enumeration_stats",
    # mapping-scheme family (MOST tables + derived schemes)
    "MOST", "FenceScheme", "SOURCE_TABLES", "TARGET_MENUS",
    "SCHEMES", "SCHEME_MAPPINGS", "SCHEME_EXPECTED",
    "derive_scheme", "scheme_mapping", "known_origins",
    "build_libm", "build_libcrypto", "build_libsqlite",
    "standard_libraries", "throughput_from_cycles",
    "gen_x86_program", "gen_arm_program",
    # variants and engine construction
    "VARIANTS", "VARIANT_NAMES", "NATIVE", "resolve_variant",
    "DBTConfig", "DBTEngine", "NativeRunner",
    "BufferMode", "CostModel", "ReproError",
    # tiered JIT (superblock) knobs
    "Tier2Config", "tier2_from_env", "DEFAULT_TIER2_THRESHOLD",
    # typed job surface (the canonical run description)
    "JobSpec", "JobResult", "JOB_SCHEMA", "submit",
    "kernel_job", "library_job", "cas_job",
    # error taxonomy (service boundaries + sweep failures)
    "ErrorInfo", "JobError", "classify_error",
    # cache controls
    "xlat_cache_stats", "xlat_cache_dir", "xlat_cache_enabled",
    "clear_xlat_cache", "reset_xlat_memory", "get_xlat_cache",
    "xlat_cache_namespaces",
    # performance observatory (bench history + regression sentinel)
    "record_bench", "load_history", "history_dir",
    "figures_in_history", "config_fingerprint", "render_trend",
    "check_payload", "load_floors",
    "collapsed_stacks", "write_collapsed",
}

#: Functions that take the workload positionally and *everything else*
#: keyword-only, with the shared parameter vocabulary.
RUN_FUNCTIONS = ("run_kernel", "run_library_workload",
                 "run_cas_benchmark", "make_engine")

#: The one spelling each concept has across the facade.
CANONICAL_NAMES = {"variant", "n_cores", "seed", "costs",
                   "buffer_mode", "max_steps", "library",
                   "setup_memory", "tier2_threshold"}


class TestSurfaceSnapshot:
    def test_all_matches_snapshot(self):
        assert set(api.__all__) == EXPECTED_SURFACE

    def test_every_name_resolves(self):
        for name in api.__all__:
            assert getattr(api, name) is not None, name

    def test_reexports_share_identity(self):
        # Facade re-exports are the implementation objects, not copies.
        from repro.workloads import JobSpec, run_parallel
        assert api.JobSpec is JobSpec
        assert api.run_parallel is run_parallel


class TestRunFunctionSignatures:
    @pytest.mark.parametrize("name", RUN_FUNCTIONS)
    def test_config_params_are_keyword_only(self, name):
        signature = inspect.signature(getattr(api, name))
        for param in signature.parameters.values():
            if param.name in CANONICAL_NAMES:
                assert param.kind is inspect.Parameter.KEYWORD_ONLY, \
                    f"{name}({param.name}) must be keyword-only"

    @pytest.mark.parametrize("name", RUN_FUNCTIONS)
    def test_variant_is_required(self, name):
        signature = inspect.signature(getattr(api, name))
        variant = signature.parameters["variant"]
        assert variant.default is inspect.Parameter.empty

    def test_variant_rejects_unknown_names(self):
        with pytest.raises(api.ReproError) as excinfo:
            api.make_engine(variant="wasm")
        # The error names every valid variant.
        for name in api.VARIANT_NAMES:
            assert name in str(excinfo.value)

    def test_make_engine_builds_each_variant(self):
        for name in api.VARIANT_NAMES:
            engine = api.make_engine(variant=name, n_cores=1)
            if name == api.NATIVE:
                assert isinstance(engine, api.NativeRunner)
            else:
                assert isinstance(engine, api.DBTEngine)
                assert engine.config is api.VARIANTS[name]


class TestBenchmarkAndFuzzUseTheFacade:
    def test_no_private_workload_imports_left(self):
        # The migration contract: benchmarks/ and the fuzzer reach the
        # run surface only through repro.api.
        import pathlib
        roots = [
            pathlib.Path(__file__).parents[2] / "benchmarks",
            pathlib.Path(api.__file__).parent / "fuzz",
        ]
        offenders = []
        for root in roots:
            for path in sorted(root.glob("*.py")):
                text = path.read_text()
                if "workloads.runner" in text or \
                        "from repro.workloads import" in text or \
                        "from ..workloads.runner import" in text:
                    offenders.append(str(path))
        assert not offenders, offenders
