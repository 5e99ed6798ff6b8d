"""The knobs the package offers, pinned once for every no-new-knob guard.

Several suites guard against a second way to configure a run growing
back (``tests/analysis/test_run_counters.py``,
``tests/machine/test_machine_golden.py``,
``tests/core/test_fence_vocabulary.py``,
``tests/core/test_model_terms.py``, ``tests/dbt/test_code_cache_guard.py``).
Each keeps its own assertion; the sets they compare against live here,
so adding or retiring a knob on purpose is one edit.
"""

#: Every ``REPRO_*`` environment name the package reads.
REPRO_ENV = frozenset({
    "REPRO_TRACE", "REPRO_TRACE_FILE",
    "REPRO_WORKERS", "REPRO_XLAT_CACHE", "REPRO_XLAT_CACHE_NS",
})

#: Every option an ``add_argument`` call under ``src/repro`` declares.
CLI_FLAGS = frozenset({
    "--bench", "--bench-json", "--benchmarks",
    "--cases", "--clients", "--corpus", "--dbt-mapping", "--enum-limit",
    "--fail-on-divergence", "--findings", "--flame", "--floors",
    "--format", "--history", "--host", "--iterations", "--jobs", "--json",
    "--models", "--namespace", "--no-shrink", "--note", "--oracles",
    "--port", "--qps", "--reduction", "--require-baseline",
    "--rev", "--schemes", "--seed", "--shrink-budget", "--spawn",
    "--stats-txt", "--tests", "--tier2-threshold", "--variants",
    "--workers",
})

#: The options only the fuzzer's own parser declares: ``python -m repro
#: fuzz`` forwards its argv there instead of nesting that parser.
FUZZ_ONLY_FLAGS = frozenset({
    "--cases", "--dbt-mapping", "--fail-on-divergence", "--findings",
    "--no-shrink", "--oracles", "--shrink-budget",
})
