"""The PARSEC 3.0 and Phoenix benchmark suites as kernel specs.

The per-benchmark instruction mixes are the calibration knob for
Figure 12: fence sensitivity grows with memory-op density (freqmine is
the extreme — the paper measures 75% of its run time in fences), the
tcg-ver gain grows with store share (DMBFF → DMBST), and the native gap
grows with FP share (QEMU's softfloat emulation).

raytrace and x264 are omitted exactly as in the paper (Section 7.1:
they fail to build/run natively on Arm).
"""

from __future__ import annotations

from dataclasses import replace

from .jobspec import cas_job, kernel_job, library_job
from .kernels import KernelSpec
from .parallel import LitmusSpec

PARSEC_SPECS: tuple[KernelSpec, ...] = (
    # fp-heavy pricing kernel; moderate memory traffic
    KernelSpec("blackscholes", loads=2, stores=1, alu=4, fp=6,
               suite="parsec"),
    # vision pipeline: alu-dominated with steady loads
    KernelSpec("bodytrack", loads=3, stores=1, alu=8, fp=2,
               suite="parsec"),
    # cache-aware annealing: pointer-chasing loads
    KernelSpec("canneal", loads=5, stores=2, alu=5, fp=0,
               suite="parsec"),
    KernelSpec("facesim", loads=3, stores=2, alu=6, fp=4,
               suite="parsec"),
    KernelSpec("fluidanimate", loads=3, stores=2, alu=5, fp=5,
               suite="parsec"),
    # frequent itemset mining: the most memory/fence-bound benchmark
    KernelSpec("freqmine", loads=6, stores=4, alu=3, fp=0,
               suite="parsec"),
    KernelSpec("streamcluster", loads=4, stores=1, alu=5, fp=2,
               suite="parsec"),
    KernelSpec("swaptions", loads=2, stores=1, alu=6, fp=4,
               suite="parsec"),
    KernelSpec("vips", loads=3, stores=2, alu=7, fp=1,
               suite="parsec"),
)

PHOENIX_SPECS: tuple[KernelSpec, ...] = (
    KernelSpec("histogram", loads=3, stores=2, alu=4, fp=0,
               suite="phoenix"),
    KernelSpec("kmeans", loads=3, stores=1, alu=6, fp=2,
               suite="phoenix"),
    KernelSpec("linearregression", loads=2, stores=1, alu=5, fp=0,
               suite="phoenix"),
    KernelSpec("matrixmultiply", loads=3, stores=1, alu=4, fp=0,
               suite="phoenix"),
    KernelSpec("pca", loads=3, stores=1, alu=5, fp=2,
               suite="phoenix"),
    KernelSpec("stringmatch", loads=4, stores=0, alu=6, fp=0,
               suite="phoenix"),
    KernelSpec("wordcount", loads=4, stores=2, alu=5, fp=0,
               suite="phoenix"),
)

ALL_SPECS: tuple[KernelSpec, ...] = PARSEC_SPECS + PHOENIX_SPECS

SPEC_BY_NAME: dict[str, KernelSpec] = {s.name: s for s in ALL_SPECS}


# ----------------------------------------------------------------------
# (benchmark × variant) grids for the parallel harness
# ----------------------------------------------------------------------
def kernel_grid(specs: tuple[KernelSpec, ...] = ALL_SPECS,
                variants: tuple[str, ...] = ("qemu", "no-fences",
                                             "tcg-ver", "risotto",
                                             "native"),
                *, iterations: int | None = None, seed: int = 7,
                max_steps: int = 80_000_000,
                tier2_threshold: int | None = None):
    """The Figure 12 sweep as :func:`~.jobspec.kernel_job` cells.

    Row order is (benchmark-major, variant-minor) — the order the
    figure tables print in and the order ``run_parallel`` returns.
    """
    return tuple(
        kernel_job(spec if iterations is None
                   else replace(spec, iterations=iterations),
                   variant=variant, seed=seed, max_steps=max_steps,
                   tier2_threshold=tier2_threshold)
        for spec in specs for variant in variants
    )


def library_grid(cases: dict, library: str,
                 variants: tuple[str, ...] = ("qemu", "risotto",
                                              "native"),
                 *, seed: int = 7, max_steps: int = 80_000_000):
    """Figure 13/14-style sweeps: ``cases`` maps a benchmark label to
    ``(function, args, calls, setup-name-or-None)``; each cell is a
    :func:`~.jobspec.library_job` renamed to its label."""
    return tuple(
        replace(library_job(function, args, calls, variant=variant,
                            library=library, setup=setup, seed=seed,
                            max_steps=max_steps), benchmark=bench)
        for bench, (function, args, calls, setup) in cases.items()
        for variant in variants
    )


def cas_grid(configs, variants: tuple[str, ...] = ("qemu", "risotto",
                                                   "native"),
             *, seed: int = 7):
    """The Figure 15 sweep: every (CAS config × variant) pair."""
    return tuple(cas_job(config, variant=variant, seed=seed)
                 for config in configs for variant in variants)


def ablation_grid(labels):
    """Minimality ablations (Figures 8-9) as parallelizable specs."""
    return tuple(LitmusSpec(kind="ablation", benchmark=label,
                            variant="ablation") for label in labels)


def verify_grid(tests=None, models: tuple[str, ...] = ("x86-tso",),
                *, reduction: str = "dpor",
                enum_limit: int | None = None, seed: int = 7):
    """Sharded-verification specs: one cell per (litmus test × model).

    ``tests`` is an iterable of litmus-test names (default: the classic
    corpus plus the 5-thread fixtures, i.e. every test the registry
    knows); ``models`` are :data:`repro.core.models.MODEL_BY_NAME`
    keys.  Each cell enumerates independently, so the grid shards
    perfectly over :func:`~repro.workloads.parallel.run_parallel` —
    corpus-level verification wall time is bounded by the slowest
    single test, not the sum.
    """
    from ..core.corpus_large import verify_registry

    if tests is None:
        tests = tuple(verify_registry())
    return tuple(
        LitmusSpec(kind="verify", benchmark=test,
                   variant=f"{model}/{reduction}", seed=seed,
                   model=model, reduction=reduction,
                   enum_limit=enum_limit)
        for test in tests for model in models
    )


def scheme_grid(schemes=None, *, enum_limit: int | None = None,
                seed: int = 7):
    """Scheme-matrix specs: Theorem-1 corpus checks for the derived
    mapping family, one cell per (scheme × RMW lowering).

    Sound schemes are swept under both verified RMW lowerings;
    negative controls (``expect_sound=False``) only under ``rmw1al`` —
    they exist to prove the gate trips, once each is enough.
    """
    from ..core.mappings import SCHEME_RMW_LOWERINGS
    from ..core.most import SCHEMES
    from ..errors import ReproError

    if schemes is None:
        schemes = tuple(SCHEMES)
    grid = []
    for name in schemes:
        try:
            scheme = SCHEMES[name]
        except KeyError:
            raise ReproError(
                f"unknown scheme {name!r}; expected one of "
                f"{sorted(SCHEMES)}") from None
        rmws = SCHEME_RMW_LOWERINGS if scheme.expect_sound \
            else SCHEME_RMW_LOWERINGS[:1]
        for rmw in rmws:
            grid.append(LitmusSpec(
                kind="scheme", benchmark=name,
                variant=f"{scheme.source}->arm/{rmw}", seed=seed,
                enum_limit=enum_limit, rmw_lowering=rmw,
            ))
    return tuple(grid)
