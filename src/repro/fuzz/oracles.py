"""Differential oracles: each one knows how to generate a case, check
it, and propose smaller variants of it for the shrinker.

An oracle's ``check`` returns a :class:`CheckOutcome` with one of three
statuses:

* ``ok`` — the property held;
* ``divergence`` — the property failed; ``detail`` carries a
  JSON-serializable witness (sorted, so reports are deterministic);
* ``skip`` — the case fell outside the oracle's envelope (enumeration
  limit, unsupported construct) and proves nothing either way.

``check`` must be *pure* in the case payload: the same case dict always
yields the same outcome, which is what makes shrinking and corpus
replay meaningful.

The four oracles mirror the reproduction's four trust boundaries:

* ``staged-vs-naive`` — the staged enumeration fast path against the
  naive rf × co cross product, per model (an unsound prune shows up as
  a behaviour-set mismatch).
* ``machine-vs-axiomatic`` — the operational store-buffer machine
  against the axiomatic Arm model (observed ⊆ allowed; the machine
  exhibiting a forbidden outcome means one of the two is wrong).
* ``dbt-differential`` — the DBT pipeline against references: guest
  blocks vs the x86 interpreter, kernels vs the native build, and the
  Risotto mapping schemes vs Theorem 1's behaviour inclusion.
* ``transform-oracle`` — conservatively safe Figure-10 rewrites must
  never grow a program's TCG behaviour set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from random import Random

from ..core import ARM, ARM_ORIGINAL, TCG, X86
from ..core.enumerate import enumerate_consistent, enumerate_executions
from ..core.enumerate import behaviors
from ..core.events import TCG_FENCE_PAIRS, Arch, Fence
from ..core.mappings import ALL_MAPPINGS, risotto_x86_to_arm_rmw1, \
    risotto_x86_to_arm_rmw2
from ..core.program import FenceOp, If, Load, Program, Rmw, Store
from ..core.transforms import (
    ELIM_SAFE_RAR,
    ELIM_SAFE_RAW,
    ELIM_SAFE_WAW,
    eliminate_rar,
    eliminate_raw,
    eliminate_waw,
    merge_adjacent_fences,
    remove_false_dependency,
    reorder_adjacent,
    strengthen_fence,
)
from ..core.verifier import check_translation
from ..errors import (
    LitmusError,
    MachineError,
    MappingError,
    ModelError,
    ReproError,
)
from ..machine.litmus import run_stress
from ..machine.weakmem import BufferMode
from .cases import behaviors_to_json, program_from_json, program_to_json
from .generate import gen_kernel_spec, gen_litmus, gen_x86_block

#: Candidate-enumeration safety valve for fuzz checks: far below the
#: global default so a pathological case skips in milliseconds instead
#: of stalling the whole run.
FUZZ_ENUM_LIMIT = 60_000

MODELS = {
    "x86-tso": X86,
    "tcg-ir": TCG,
    "arm-cats": ARM,
    "arm-cats-original": ARM_ORIGINAL,
}


@dataclass(frozen=True)
class CheckOutcome:
    status: str  # "ok" | "divergence" | "skip"
    detail: dict = field(default_factory=dict)


OK = CheckOutcome("ok")


def _program_size(data: dict) -> int:
    def ops_size(ops) -> int:
        total = 0
        for op in ops:
            total += 1
            if op[0] == "IF":
                total += ops_size(op[3]) + ops_size(op[4])
        return total
    return sum(ops_size(t) for t in data["threads"]) \
        + len(data.get("init", []))


def _litmus_shrinks(data: dict):
    """Structurally smaller variants of a program payload: drop a
    thread, drop a top-level op, flatten a conditional into its taken
    arm, drop an init entry.  Invalid results (undefined registers)
    surface as ``LitmusError`` at rebuild time and are discarded by
    the shrinker."""
    threads = data["threads"]
    if len(threads) > 1:
        for t in range(len(threads)):
            yield {**data, "threads": threads[:t] + threads[t + 1:]}
    for t, ops in enumerate(threads):
        for i in range(len(ops)):
            new_ops = ops[:i] + ops[i + 1:]
            if not new_ops and len(threads) == 1:
                continue
            yield {**data,
                   "threads": threads[:t] + [new_ops] + threads[t + 1:]}
        for i, op in enumerate(ops):
            if op[0] == "IF":
                for arm in (op[3], op[4]):
                    flat = ops[:i] + arm + ops[i + 1:]
                    yield {**data, "threads":
                           threads[:t] + [flat] + threads[t + 1:]}
    init = data.get("init", [])
    for i in range(len(init)):
        yield {**data, "init": init[:i] + init[i + 1:]}


# ----------------------------------------------------------------------
class StagedVsNaiveOracle:
    """enumerate_consistent == (enumerate_executions | is_consistent)
    per model: any mismatch means an unsound (or over-eager) prune."""

    name = "staged-vs-naive"

    def generate(self, rng: Random) -> dict:
        arch = rng.choice((Arch.X86, Arch.TCG, Arch.ARM))
        program = gen_litmus(rng, arch, name="svn")
        return {"kind": "litmus", "program": program_to_json(program)}

    def check(self, case: dict) -> CheckOutcome:
        program = program_from_json(case["program"])
        try:
            executions = list(enumerate_executions(
                program, limit=FUZZ_ENUM_LIMIT))
        except ModelError as exc:
            return CheckOutcome("skip", {"reason": str(exc)})
        for model_name, model in sorted(MODELS.items()):
            naive = frozenset(
                ex.full_behavior for ex in executions
                if model.is_consistent(ex))
            try:
                staged = frozenset(
                    ex.full_behavior for ex in enumerate_consistent(
                        program, model, limit=FUZZ_ENUM_LIMIT))
            except ModelError as exc:
                return CheckOutcome("skip", {"reason": str(exc)})
            if staged != naive:
                return CheckOutcome("divergence", {
                    "model": model_name,
                    "staged_only": behaviors_to_json(staged - naive),
                    "naive_only": behaviors_to_json(naive - staged),
                })
        return OK

    def shrink_candidates(self, case: dict):
        for prog in _litmus_shrinks(case["program"]):
            yield {**case, "program": prog}

    def case_size(self, case: dict) -> int:
        return _program_size(case["program"])


# ----------------------------------------------------------------------
class MachineVsAxiomaticOracle:
    """Everything the operational machine observes must be allowed by
    the axiomatic Arm model (the converse is not expected — the machine
    only models store-side reordering)."""

    name = "machine-vs-axiomatic"

    BUFFER_MODES = ("weak", "tso", "none")

    def generate(self, rng: Random) -> dict:
        program = gen_litmus(rng, Arch.ARM, name="mva",
                             stress_safe=True)
        return {
            "kind": "stress",
            "program": program_to_json(program),
            "buffer_mode": rng.choice(self.BUFFER_MODES),
            "iterations": 16,
            "seeds": 4,
        }

    def check(self, case: dict) -> CheckOutcome:
        program = program_from_json(case["program"])
        mode = BufferMode[case["buffer_mode"].upper()]
        try:
            observed = run_stress(
                program, iterations=case["iterations"],
                seeds=range(case["seeds"]), buffer_mode=mode)
            allowed = behaviors(program, ARM, limit=FUZZ_ENUM_LIMIT)
        except (MachineError, ModelError) as exc:
            return CheckOutcome("skip", {"reason": str(exc)})
        extra = observed - allowed
        if extra:
            return CheckOutcome("divergence", {
                "buffer_mode": case["buffer_mode"],
                "observed_not_allowed": behaviors_to_json(extra),
            })
        return OK

    def shrink_candidates(self, case: dict):
        for prog in _litmus_shrinks(case["program"]):
            yield {**case, "program": prog}

    def case_size(self, case: dict) -> int:
        return _program_size(case["program"])


# ----------------------------------------------------------------------
class DBTDifferentialOracle:
    """The DBT pipeline against its references, three ways:

    * ``block`` — a guest x86 block run under every DBT variant must
      leave exactly the registers/flags/memory the reference x86
      interpreter computes;
    * ``kernel`` — a kernel's checksum and exit code must agree across
      all DBT variants *and* the Arm-native build;
    * ``mapping`` — a Risotto-mapped litmus program's Arm behaviours
      must be included in the x86-TSO behaviours of the source
      (Theorem 1).
    """

    name = "dbt-differential"

    def __init__(self, mapping: str | None = None):
        # Only the Risotto schemes are expected-correct; the QEMU
        # schemes carry the paper's documented MPQ/SBQ bugs and live in
        # the corpus as known divergences instead.  Resolve the names
        # against the registry once so a rename there fails loudly here.
        # ``mapping`` pins the mapping leg to one registered mapping —
        # e.g. a table-derived ``most-*`` scheme — instead of the
        # Risotto pair.
        if mapping is None:
            self._safe_mappings = tuple(sorted(
                m.name for m in (risotto_x86_to_arm_rmw1,
                                 risotto_x86_to_arm_rmw2)))
        else:
            if mapping not in ALL_MAPPINGS:
                raise ReproError(
                    f"unknown mapping {mapping!r}; expected one of "
                    f"{sorted(ALL_MAPPINGS)}")
            self._safe_mappings = (mapping,)

    def generate(self, rng: Random) -> dict:
        roll = rng.random()
        if roll < 0.5:
            return {"kind": "block", "source": gen_x86_block(rng)}
        if roll < 0.75:
            spec = gen_kernel_spec(rng)
            return {"kind": "kernel", "spec": {
                "name": spec.name, "loads": spec.loads,
                "stores": spec.stores, "alu": spec.alu, "fp": spec.fp,
                "iterations": spec.iterations, "threads": spec.threads,
                "working_set": spec.working_set, "suite": spec.suite,
            }}
        program = gen_litmus(rng, Arch.X86, name="map")
        return {
            "kind": "mapping",
            "program": program_to_json(program),
            "mapping": rng.choice(self._safe_mappings),
        }

    # -- block leg -----------------------------------------------------
    def _check_block(self, case: dict) -> CheckOutcome:
        from ..api import VARIANTS, make_engine
        from ..dbt import guest_reg
        from ..dbt.runtime import STACK_BASE, STACK_SIZE, guest_flag
        from ..isa.x86 import CpuState, X86Interpreter, assemble
        from ..isa.x86.insns import GPR

        code_base = 0x400000
        rsp = STACK_BASE + STACK_SIZE - 0x100 - 8
        try:
            assembly = assemble(case["source"] + "\n    hlt",
                                base=code_base)
        except ReproError as exc:
            return CheckOutcome("skip", {"reason": str(exc)})

        class _RefMemory:
            def __init__(self, code, base):
                self.words: dict[int, int] = {}
                self.code, self.base = code, base

            def load_word(self, addr):
                return self.words.get(addr, 0)

            def store_word(self, addr, value):
                self.words[addr] = value & ((1 << 64) - 1)

            def read_bytes(self, addr, count):
                off = addr - self.base
                return self.code[off:off + count]

        ref_memory = _RefMemory(assembly.code, assembly.base)
        ref_state = CpuState()
        ref_state.rip = assembly.base
        ref_state.regs["rsp"] = rsp
        try:
            X86Interpreter(ref_memory).run(ref_state)
        except ReproError as exc:
            return CheckOutcome("skip", {"reason": str(exc)})

        mismatches: list[list] = []
        for variant in sorted(VARIANTS):
            engine = make_engine(variant=variant, n_cores=1)
            engine.load_image(assembly.base, assembly.code)
            try:
                engine.run(assembly.base)
            except ReproError as exc:
                mismatches.append([variant, "error", str(exc), None])
                continue
            core = engine.machine.core(0)
            for reg in GPR:
                got, want = guest_reg(core, reg), ref_state.regs[reg]
                if got != want:
                    mismatches.append([variant, f"reg:{reg}", got, want])
            for flag in ("zf", "sf", "cf", "of"):
                got = bool(guest_flag(core, flag))
                want = ref_state.flags[flag]
                if got != want:
                    mismatches.append(
                        [variant, f"flag:{flag}", got, want])
            for addr, want in sorted(ref_memory.words.items()):
                got = engine.machine.memory.load_word(addr)
                if got != want:
                    mismatches.append(
                        [variant, f"mem:{addr:#x}", got, want])
        if mismatches:
            return CheckOutcome("divergence",
                                {"mismatches": sorted(mismatches)})
        return OK

    # -- kernel leg ----------------------------------------------------
    def _check_kernel(self, case: dict) -> CheckOutcome:
        from ..api import KernelSpec, VARIANT_NAMES, run_kernel

        spec = KernelSpec(**case["spec"])
        results: dict[str, list] = {}
        for variant in VARIANT_NAMES:
            try:
                res = run_kernel(spec, variant=variant)
            except ReproError as exc:
                return CheckOutcome("divergence", {
                    "variant_error": [variant, str(exc)]})
            results[variant] = [res.checksum, res.result.exit_code]
        distinct = {tuple(v) for v in results.values()}
        if len(distinct) > 1:
            return CheckOutcome("divergence", {
                "per_variant": {k: v for k, v in sorted(results.items())},
            })
        return OK

    # -- mapping leg ---------------------------------------------------
    def _check_mapping(self, case: dict) -> CheckOutcome:
        source = program_from_json(case["program"])
        mapping = ALL_MAPPINGS[case["mapping"]]
        try:
            target = mapping.apply(source)
            verdict = check_translation(
                source, target, X86, ARM, mapping_name=mapping.name,
                limit=FUZZ_ENUM_LIMIT)
        except (MappingError, ModelError) as exc:
            return CheckOutcome("skip", {"reason": str(exc)})
        if not verdict.ok:
            return CheckOutcome("divergence", {
                "mapping": mapping.name,
                "new_behaviors":
                    behaviors_to_json(verdict.new_behaviors),
            })
        return OK

    def check(self, case: dict) -> CheckOutcome:
        kind = case["kind"]
        if kind == "block":
            return self._check_block(case)
        if kind == "kernel":
            return self._check_kernel(case)
        if kind == "mapping":
            return self._check_mapping(case)
        raise ReproError(f"unknown dbt case kind {kind!r}")

    def shrink_candidates(self, case: dict):
        kind = case["kind"]
        if kind == "block":
            lines = case["source"].split("\n")
            for i in range(len(lines)):
                if len(lines) > 1:
                    yield {**case,
                           "source": "\n".join(lines[:i] + lines[i + 1:])}
        elif kind == "kernel":
            spec = case["spec"]
            for key in ("loads", "stores", "alu", "fp"):
                if spec[key] > 0:
                    yield {**case, "spec": {**spec, key: spec[key] - 1}}
            if spec["threads"] > 1:
                yield {**case,
                       "spec": {**spec, "threads": spec["threads"] - 1}}
            if spec["iterations"] > 30:
                yield {**case, "spec": {
                    **spec,
                    "iterations": max(30, spec["iterations"] // 2)}}
        elif kind == "mapping":
            for prog in _litmus_shrinks(case["program"]):
                yield {**case, "program": prog}

    def case_size(self, case: dict) -> int:
        kind = case["kind"]
        if kind == "block":
            return len(case["source"].split("\n"))
        if kind == "kernel":
            spec = case["spec"]
            return (spec["loads"] + spec["stores"] + spec["alu"]
                    + spec["fp"] + spec["threads"]
                    + spec["iterations"] // 30)
        return _program_size(case["program"])


# ----------------------------------------------------------------------
#: Transform registry: name -> (function, needs_to_fence).
_TRANSFORMS = {
    "eliminate_rar": eliminate_rar,
    "eliminate_raw": eliminate_raw,
    "eliminate_waw": eliminate_waw,
    "merge_adjacent_fences": merge_adjacent_fences,
    "strengthen_fence": strengthen_fence,
    "remove_false_dependency": remove_false_dependency,
    "reorder_adjacent": reorder_adjacent,
}

_ELIM_SAFE = {
    "eliminate_rar": ELIM_SAFE_RAR,
    "eliminate_raw": ELIM_SAFE_RAW,
    "eliminate_waw": ELIM_SAFE_WAW,
}


def _thread_has_order_sources(ops) -> bool:
    """True when the thread carries fences or RMWs (incl. in branch
    arms) — contexts in which Figure-10 eliminations are *not* uniformly
    safe (the FMR and F-WAW-across-Fww findings), so the oracle's
    generator steers clear of them."""
    for op in ops:
        if isinstance(op, (FenceOp, Rmw)):
            return True
        if isinstance(op, If) and (
                _thread_has_order_sources(op.then_ops)
                or _thread_has_order_sources(op.else_ops)):
            return True
    return False


def applicable_sites(program: Program) -> list[dict]:
    """Every conservatively-safe Figure-10 site in the program, as
    ``{"transform", "tid", "idx"[, "to"]}`` dicts, deterministically
    ordered."""
    sites: list[dict] = []
    for tid, ops in enumerate(program.threads):
        elim_ok = not _thread_has_order_sources(ops)
        for idx, op in enumerate(ops):
            nxt = ops[idx + 1] if idx + 1 < len(ops) else None
            after = ops[idx + 2] if idx + 2 < len(ops) else None
            if elim_ok:
                for name in ("eliminate_rar", "eliminate_raw",
                             "eliminate_waw"):
                    if _elim_applies(name, op, nxt, after):
                        sites.append({"transform": name, "tid": tid,
                                      "idx": idx})
            if isinstance(op, FenceOp):
                if isinstance(nxt, FenceOp) \
                        and _mergeable(op.kind) and _mergeable(nxt.kind):
                    sites.append({"transform": "merge_adjacent_fences",
                                  "tid": tid, "idx": idx})
                for to in _stronger_fences(op.kind):
                    sites.append({"transform": "strengthen_fence",
                                  "tid": tid, "idx": idx,
                                  "to": to.value})
            if isinstance(op, Store) and op.dep is not None:
                sites.append({"transform": "remove_false_dependency",
                              "tid": tid, "idx": idx})
            if _reorderable(op, nxt):
                sites.append({"transform": "reorder_adjacent",
                              "tid": tid, "idx": idx})
    return sites


def _elim_applies(name: str, op, nxt, after) -> bool:
    first_ok = {
        "eliminate_rar": lambda o: isinstance(o, Load),
        "eliminate_raw": lambda o: isinstance(o, Store)
        and isinstance(o.value, int),
        "eliminate_waw": lambda o: isinstance(o, Store),
    }[name]
    second_type = Load if name != "eliminate_waw" else Store
    if not first_ok(op):
        return False
    if isinstance(nxt, FenceOp):
        # The fenced form: only safe fence kinds, and the thread-level
        # no-fence guard above already excludes these — keep the check
        # anyway so the function is safe to reuse on corpus programs.
        if nxt.kind not in _ELIM_SAFE[name]:
            return False
        second = after
    else:
        second = nxt
    return isinstance(second, second_type) and second.loc == op.loc


def _mergeable(kind: Fence) -> bool:
    return kind in TCG_FENCE_PAIRS


def _stronger_fences(kind: Fence) -> list[Fence]:
    pairs = TCG_FENCE_PAIRS.get(kind)
    if pairs is None:
        return []
    return sorted(
        (f for f, p in TCG_FENCE_PAIRS.items()
         if pairs < p),
        key=lambda f: f.value)


def _reorderable(a, b) -> bool:
    for op in (a, b):
        if not isinstance(op, (Load, Store)):
            return False
    if a.loc == b.loc:
        return False
    if isinstance(a, Load) and isinstance(b, Store) \
            and b.value == a.reg:
        return False
    return True


class TransformOracle:
    """Conservatively safe Figure-10 rewrites must not grow the TCG
    behaviour set (Theorem 1 applied to IR-to-IR transformation)."""

    name = "transform-oracle"

    def generate(self, rng: Random) -> dict:
        program = gen_litmus(rng, Arch.TCG, name="xform")
        sites = applicable_sites(program)
        if not sites:
            # Guarantee at least a merge site: append two directional
            # fences to a random thread.
            tid = rng.randrange(len(program.threads))
            kinds = list(TCG_FENCE_PAIRS)
            extra = (FenceOp(rng.choice(kinds)),
                     FenceOp(rng.choice(kinds)))
            threads = tuple(
                ops + extra if t == tid else ops
                for t, ops in enumerate(program.threads))
            program = Program(name=program.name, arch=program.arch,
                              threads=threads, init=program.init)
            sites = applicable_sites(program)
        site = rng.choice(sites)
        return {"kind": "transform",
                "program": program_to_json(program), **site}

    def _apply(self, case: dict, program: Program) -> Program:
        fn = _TRANSFORMS[case["transform"]]
        if case["transform"] == "strengthen_fence":
            return fn(program, case["tid"], case["idx"],
                      to=Fence(case["to"]))
        return fn(program, case["tid"], case["idx"])

    def check(self, case: dict) -> CheckOutcome:
        source = program_from_json(case["program"])
        try:
            target = self._apply(case, source)
            verdict = check_translation(
                source, target, TCG, TCG,
                mapping_name=case["transform"], limit=FUZZ_ENUM_LIMIT)
        except (MappingError, LitmusError) as exc:
            return CheckOutcome("skip", {"reason": str(exc)})
        except ModelError as exc:
            # Disjoint behaviour keys (the transform folded away the
            # only observable) or enumeration overflow: proves nothing.
            return CheckOutcome("skip", {"reason": str(exc)})
        if not verdict.ok:
            return CheckOutcome("divergence", {
                "transform": case["transform"],
                "tid": case["tid"], "idx": case["idx"],
                "new_behaviors":
                    behaviors_to_json(verdict.new_behaviors),
            })
        return OK

    def shrink_candidates(self, case: dict):
        """Smaller variants that keep the transform site addressable:
        indices shift when earlier ops or threads drop away; candidates
        that delete the site itself are not yielded."""
        data = case["program"]
        threads = data["threads"]
        tid, idx = case["tid"], case["idx"]
        for t in range(len(threads)):
            if t == tid or len(threads) == 1:
                continue
            new_tid = tid - 1 if t < tid else tid
            yield {**case, "tid": new_tid,
                   "program": {**data,
                               "threads": threads[:t] + threads[t + 1:]}}
        for t, ops in enumerate(threads):
            for i in range(len(ops)):
                if t == tid and i in (idx, idx + 1, idx + 2):
                    # Dropping the site (or its pattern tail) changes
                    # the transform's meaning; applicability would be
                    # rechecked, but skip the noise.
                    continue
                new_idx = idx - 1 if t == tid and i < idx else idx
                new_ops = ops[:i] + ops[i + 1:]
                if not new_ops and len(threads) == 1:
                    continue
                yield {**case, "idx": new_idx, "program": {
                    **data,
                    "threads": threads[:t] + [new_ops] + threads[t + 1:],
                }}
        init = data.get("init", [])
        for i in range(len(init)):
            yield {**case, "program":
                   {**data, "init": init[:i] + init[i + 1:]}}

    def case_size(self, case: dict) -> int:
        return _program_size(case["program"])


# ----------------------------------------------------------------------
ORACLES = {
    oracle.name: oracle for oracle in (
        StagedVsNaiveOracle,
        MachineVsAxiomaticOracle,
        DBTDifferentialOracle,
        TransformOracle,
    )
}


def make_oracles(names, *, dbt_mapping: str | None = None) -> list:
    """Instantiate oracles by name, preserving registry order.

    ``dbt_mapping`` pins the DBT-differential oracle's mapping leg to
    one registered mapping (e.g. a derived ``most-*`` scheme).
    """
    unknown = sorted(set(names) - set(ORACLES))
    if unknown:
        raise ReproError(
            f"unknown oracles {unknown}; expected a subset of "
            f"{sorted(ORACLES)}")
    oracles = []
    for name, cls in ORACLES.items():
        if name not in names:
            continue
        if cls is DBTDifferentialOracle and dbt_mapping is not None:
            oracles.append(cls(mapping=dbt_mapping))
        else:
            oracles.append(cls())
    return oracles
