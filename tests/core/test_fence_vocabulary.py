"""Tooling guard: one fence vocabulary, one mapping module, no policy enum.

What each TCG fence orders is declared once, in
``repro.core.events.TCG_FENCE_PAIRS``; masks, the Arm lowering, menu
costs, fence merging and the optimizer's side conditions derive from
it.  The x86 -> TCG schemes are defined once (``scheme_x86_to_tcg``)
and every ``OpMapping`` lives in ``repro.core.mappings``.  These tests
keep the copies and the retired fence-policy enum from growing back.
"""

import ast
import dataclasses
import re
from pathlib import Path

from repro.tcg.frontend_x86 import FrontendConfig
from tests import knobs

REPO = Path(__file__).resolve().parents[2]
SRC = REPO / "src" / "repro"

#: Names the consolidation deleted; none may come back, in code or docs.
RETIRED = re.compile(
    r"\b(FencePolicy|fence_policy|scheme_for_policy|_POLICY_SCHEMES"
    r"|_nearest_policy|_TCG_FENCE_PAIRS|_DMBLD_PAIRS|_DMBST_PAIRS"
    r"|_DIRECTIONAL_BY_STRENGTH|_qemu_x86_op|_risotto_x86_op"
    r"|_nofences_x86_op|_COND_FLAG_EXPRS|TCG_FENCE_ORDERS)\b")

#: An ordered access-pair literal such as ``("r", "w")``.
PAIR_LITERAL = re.compile(r"""\(\s*["'][rwm]["']\s*,\s*["'][rwm]["']\s*\)""")
#: The single-bit ``TCG_MO_*`` mask names.
MO_BIT = re.compile(r"\bMO_(LD_LD|LD_ST|ST_LD|ST_ST)\b")

def _sources():
    sources = sorted(SRC.rglob("*.py"))
    assert SRC / "core" / "events.py" in sources and len(sources) > 50
    return sources


def _offenders(pattern, allowed=()):
    return [
        f"{path.relative_to(REPO)}:{n}: {line.strip()}"
        for path in _sources()
        if str(path.relative_to(SRC)) not in allowed
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if pattern.search(line)
    ]


def _imports(path):
    """(module, imported name) for every ``from X import Y``."""
    tree = ast.parse(path.read_text())
    return [(node.module or "", alias.name)
            for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
            for alias in node.names]


class TestOneFenceVocabulary:
    def test_retired_names_stay_retired(self):
        docs = [REPO / "README.md", REPO / "DESIGN.md"]
        offenders = _offenders(RETIRED) + [
            str(path.relative_to(REPO)) for path in docs
            if RETIRED.search(path.read_text())]
        assert offenders == []

    def test_pair_literals_live_in_events(self):
        for pattern in (PAIR_LITERAL, re.compile(r"\b_orders\(")):
            assert _offenders(pattern, allowed=("core/events.py",)) == []
        # ...and events does declare them: ten TCG kinds, three DMBs.
        events = (SRC / "core" / "events.py").read_text()
        assert len(re.findall(r"Fence\.\w+: _orders\(", events)) == 13

    def test_mask_bits_live_in_ir(self):
        assert _offenders(MO_BIT, allowed=("tcg/ir.py",
                                           "tcg/__init__.py")) == []

    def test_no_module_imports_a_private_fence_table(self):
        private = re.compile(r"^_[A-Z0-9_]*(FENCE|PAIR|MASK)")
        offenders = [
            f"{path.relative_to(REPO)}: {module}.{name}"
            for path in _sources()
            for module, name in _imports(path) if private.match(name)
        ]
        assert offenders == []

    def test_most_is_data_over_events(self):
        """``most`` holds tables, menus and schemes; it imports no
        mapping (``mappings`` imports it)."""
        imported = {module for module, _ in
                    _imports(SRC / "core" / "most.py")}
        assert imported <= {"__future__", "enum", "dataclasses",
                            "errors", "events"}, imported

    def test_all_mappings_built_in_one_module(self):
        builder = re.compile(r"ALL_MAPPINGS(\[[^\]]*\]\s*=|\.update\(|"
                             r"\s*(:[^=]*)?=[^=])")
        assert _offenders(builder, allowed=("core/mappings.py",)) == []


class TestNoPolicyEnum:
    def test_frontend_config_fields(self):
        assert [f.name for f in dataclasses.fields(FrontendConfig)] == [
            "cas_policy", "block_insn_limit", "scheme"]

    def test_no_new_environment_names(self):
        found = {
            name for path in _sources()
            for name in re.findall(r"\bREPRO_[A-Z0-9_]+",
                                   path.read_text())
        }
        assert found == knobs.REPRO_ENV
