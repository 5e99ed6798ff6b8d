"""The IR and instruction records are plain ``__slots__`` classes.

``tcg.ir.Temp``/``Const``/``Op`` and ``isa.common.Reg``/``Imm``/
``Mem``/``Label``/``Insn`` keep the frozen-dataclass contract they
replaced — equality (``Op.origin`` excluded), hash, the dataclass
``repr``, immutability, ``pickle``/``copy`` — and ``Temp`` and ``Reg``
are interned, so equal ones are the same object.
"""

import copy
import json
import pickle
import re
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.isa.common import Imm, Insn, Label, Mem, Reg
from repro.tcg.ir import Const, Op, Temp

REPO = Path(__file__).parents[1]

#: One instance of every record class, with its dataclass-style repr.
SAMPLES = [
    (Temp("t1"), "Temp(name='t1', is_global=False)"),
    (Temp("g_rax", is_global=True), "Temp(name='g_rax', is_global=True)"),
    (Const(-3), "Const(value=-3)"),
    (Op("mb", (Const(6),), origin="RMOV->ld;Frm"),
     "Op(name='mb', args=(Const(value=6),), origin='RMOV->ld;Frm')"),
    (Op("add", (Temp("t1"), Temp("t2"), Const(1))),
     "Op(name='add', args=(Temp(name='t1', is_global=False), "
     "Temp(name='t2', is_global=False), Const(value=1)), origin=None)"),
    (Reg("x3"), "Reg(name='x3')"),
    (Imm(-1), "Imm(value=-1)"),
    (Mem(base="x1", offset=8), "Mem(base='x1', offset=8, index=None, "
     "scale=1)"),
    (Label("loop"), "Label(name='loop')"),
    (Insn("ldr", (Reg("x0"), Mem(base="x1", index="x2", scale=8))),
     "Insn(mnemonic='ldr', operands=(Reg(name='x0'), Mem(base='x1', "
     "offset=0, index='x2', scale=8)), lock=False)"),
    (Insn("xchg", (Reg("rax"),), lock=True),
     "Insn(mnemonic='xchg', operands=(Reg(name='rax'),), lock=True)"),
]
IDS = [repr(sample) for sample, _ in SAMPLES]


class TestInterning:
    def test_equal_temps_and_regs_are_one_object(self):
        assert Temp("t1") is Temp("t1")
        assert Temp("g_rax", is_global=True) is \
            Temp("g_rax", is_global=True)
        assert Reg("x0") is Reg("x0")
        # The kind is part of a temp's identity, as it was of its value.
        assert Temp("g_rax") is not Temp("g_rax", is_global=True)
        assert Temp("g_rax") != Temp("g_rax", is_global=True)

    def test_other_records_compare_by_value(self):
        assert Const(4) == Const(4) and hash(Const(4)) == hash(Const(4))
        assert Const(4) != Imm(4) and Label("a") != Reg("a")
        assert Mem("x1", 8) == Mem(base="x1", offset=8, index=None)
        assert Insn("ret") == Insn("ret", (), lock=False)
        assert Insn("ret") != Insn("ret", lock=True)
        first = Op("mb", (Const(6),), origin="a")
        second = Op("mb", (Const(6),), origin="b")
        assert first == second and hash(first) == hash(second)
        assert first != Op("mb", (Const(2),), origin="a")

    def test_the_interning_is_one_winner_under_threads(self):
        got = []
        barrier = threading.Barrier(4)

        def make():
            barrier.wait()
            got.append([Temp(f"race_{i}") for i in range(200)])

        threads = [threading.Thread(target=make) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert all(all(a is b for a, b in zip(got[0], other))
                   for other in got[1:])


@pytest.mark.parametrize("record, text", SAMPLES, ids=IDS)
class TestEveryRecord:
    def test_dataclass_repr(self, record, text):
        assert repr(record) == text

    def test_no_instance_dict_and_no_assignment(self, record, text):
        assert not hasattr(record, "__dict__")
        field = type(record).__slots__[0]
        before = getattr(record, field)
        with pytest.raises(AttributeError):
            setattr(record, field, before)
        with pytest.raises(AttributeError):
            record.extra = 1
        with pytest.raises(AttributeError):
            delattr(record, field)
        assert getattr(record, field) == before

    def test_pickle_copy_and_deepcopy(self, record, text):
        interned = isinstance(record, (Temp, Reg))
        for clone in (pickle.loads(pickle.dumps(record)),
                      copy.copy(record), copy.deepcopy(record)):
            assert type(clone) is type(record)
            assert clone == record and hash(clone) == hash(record)
            assert repr(clone) == text
            if interned:
                assert clone is record
            if isinstance(record, Op):
                assert clone.origin == record.origin
                # The temps inside come back as the interned objects.
                assert all(a is b for a, b in zip(clone.args,
                                                  record.args)
                           if isinstance(a, Temp))


#: Run one cold xlat_cold-sized pass in a fresh interpreter and print
#: both intern tables.
_PASS = """
import json
from random import Random
from repro import api
from repro.isa import common
from repro.isa.x86.assembler import assemble
from repro.tcg import ir
from tests.tcg.test_optimizer_golden import (XLAT_BASE, XLAT_BRANCHY,
                                             XLAT_PROGRAMS, draw_blocks)

for source in draw_blocks(Random(11), XLAT_PROGRAMS, XLAT_BRANCHY):
    code = assemble(source + "\\n    hlt", base=XLAT_BASE).code
    for variant in ("qemu", "tcg-ver", "risotto"):
        engine = api.make_engine(variant=variant, n_cores=1, seed=11)
        engine.load_image(XLAT_BASE, code)
        engine.run(XLAT_BASE)
print(json.dumps({"temps": sorted(ir._TEMPS),
                  "globals": sorted(ir._GLOBAL_TEMPS),
                  "regs": sorted(common._REGS)}))
"""


def test_a_cold_pass_interns_only_pipeline_names(tmp_path):
    from repro.isa.arm.insns import REGS as ARM_REGS
    from repro.isa.x86.insns import CODER as X86_CODER
    from repro.tcg.ir import ALL_GLOBALS

    env = {"PYTHONPATH": f"{REPO / 'src'}:{REPO}",
           "REPRO_XLAT_CACHE": str(tmp_path / "xlat")}
    done = subprocess.run([sys.executable, "-c", _PASS], env=env,
                          cwd=tmp_path, capture_output=True, text=True,
                          timeout=600)
    assert done.returncode == 0, done.stderr
    tables = json.loads(done.stdout.splitlines()[-1])
    local = re.compile(r"(s\d+_)?t\d+")
    assert tables["temps"] and all(local.fullmatch(name)
                                   for name in tables["temps"])
    assert tables["globals"] == sorted(t.name for t in ALL_GLOBALS)
    # The Arm registers the backend uses, and the guest's x86 ones the
    # assembler and the frontend's decoder name.
    assert set(tables["regs"]) <= set(ARM_REGS) | set(X86_CODER.registers)
    assert set(ARM_REGS) <= set(tables["regs"])
