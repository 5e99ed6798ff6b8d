"""Behaviour golden for the whole ``verify_litmus`` grid.

The bench cross-checks dpor against staged, and the differential suites
check both against the naive product.  A change to what all of them
stand on (the relation representation, the per-combo memo, the models'
static terms) moves every enumerator together and passes those checks
whatever it does.  So this file pins, with values recorded on the
commit before such a change:

* ``(digest, count, enum_executions, enum_consistent)`` for every
  enumeration cell the bench runs: dpor over the whole registry and
  staged over the classic corpus, under the four bench models;
* the ``(ok, expected, tests, *broken)`` payload of every scheme cell;
* a hash of the staged :func:`enumerate_consistent` yield order (rf,
  co and regs of each execution, in order) over five classic tests and
  the four models.

When a prune is meant to move ``enum_executions``, the moved cells keep
their previous values in a table beside ``GOLDEN_CELLS``
(``BEFORE_CORR``), and a test holds every other field of every cell to
them.

Regenerate (only when behaviour is meant to change)::

    PYTHONPATH=src python tests/core/test_behavior_golden.py
"""

import hashlib
import pprint

import pytest

from repro import api
from repro.core.enumerate import enumerate_consistent
from repro.core.litmus_library import ALL_TESTS
from repro.core.models import MODEL_BY_NAME

MODELS = ("x86-tso", "arm-cats", "tcg-ir", "sc")
ORDER_TESTS = ("MP", "SB+mfences", "CAS-chain", "IRIW", "CoWR")


def _enumeration_specs():
    registry = list(api.verify_registry())
    large = {test.name for test in api.FIVE_THREAD_CORPUS}
    classic = [name for name in registry if name not in large]
    return (api.verify_grid(registry, MODELS, reduction="dpor")
            + api.verify_grid(classic, MODELS, reduction="staged"))


def observe_cell(spec) -> tuple:
    row = api.execute_spec(spec)
    return (*row.payload, row.enum_executions, row.enum_consistent)


def observe_scheme(spec) -> tuple:
    return tuple(api.execute_spec(spec).payload)


def observe_order(test: str, model: str) -> str:
    hasher = hashlib.sha256()
    for ex in enumerate_consistent(ALL_TESTS[test].program,
                                   MODEL_BY_NAME[model]):
        hasher.update(repr((list(ex.rf), list(ex.co),
                            sorted(ex.regs))).encode())
    return hasher.hexdigest()[:16]


GOLDEN_CELLS = {'2+2W|arm-cats/dpor': ('1ba766690be86aea', 4, 4, 4),
 '2+2W|arm-cats/staged': ('1ba766690be86aea', 4, 4, 4),
 '2+2W|sc/dpor': ('c822522c6d85ff5e', 3, 4, 3),
 '2+2W|sc/staged': ('c822522c6d85ff5e', 3, 4, 3),
 '2+2W|tcg-ir/dpor': ('1ba766690be86aea', 4, 4, 4),
 '2+2W|tcg-ir/staged': ('1ba766690be86aea', 4, 4, 4),
 '2+2W|x86-tso/dpor': ('c822522c6d85ff5e', 3, 4, 3),
 '2+2W|x86-tso/staged': ('c822522c6d85ff5e', 3, 4, 3),
 'CAS-chain|arm-cats/dpor': ('62bf003ca43160a1', 2, 2, 2),
 'CAS-chain|arm-cats/staged': ('62bf003ca43160a1', 2, 2, 2),
 'CAS-chain|sc/dpor': ('62bf003ca43160a1', 2, 2, 2),
 'CAS-chain|sc/staged': ('62bf003ca43160a1', 2, 2, 2),
 'CAS-chain|tcg-ir/dpor': ('62bf003ca43160a1', 2, 2, 2),
 'CAS-chain|tcg-ir/staged': ('62bf003ca43160a1', 2, 2, 2),
 'CAS-chain|x86-tso/dpor': ('62bf003ca43160a1', 2, 2, 2),
 'CAS-chain|x86-tso/staged': ('62bf003ca43160a1', 2, 2, 2),
 'CAS5|arm-cats/dpor': ('6d8f99568f477ef4', 5, 1, 1),
 'CAS5|sc/dpor': ('6d8f99568f477ef4', 5, 1, 1),
 'CAS5|tcg-ir/dpor': ('6d8f99568f477ef4', 5, 1, 1),
 'CAS5|x86-tso/dpor': ('6d8f99568f477ef4', 5, 1, 1),
 'CoRR|arm-cats/dpor': ('0d8c2f6e0f9671bb', 3, 3, 3),
 'CoRR|arm-cats/staged': ('0d8c2f6e0f9671bb', 3, 3, 3),
 'CoRR|sc/dpor': ('0d8c2f6e0f9671bb', 3, 3, 3),
 'CoRR|sc/staged': ('0d8c2f6e0f9671bb', 3, 3, 3),
 'CoRR|tcg-ir/dpor': ('0d8c2f6e0f9671bb', 3, 3, 3),
 'CoRR|tcg-ir/staged': ('0d8c2f6e0f9671bb', 3, 3, 3),
 'CoRR|x86-tso/dpor': ('0d8c2f6e0f9671bb', 3, 3, 3),
 'CoRR|x86-tso/staged': ('0d8c2f6e0f9671bb', 3, 3, 3),
 'CoWR|arm-cats/dpor': ('c840f4951288e3a2', 3, 3, 3),
 'CoWR|arm-cats/staged': ('c840f4951288e3a2', 3, 3, 3),
 'CoWR|sc/dpor': ('c840f4951288e3a2', 3, 3, 3),
 'CoWR|sc/staged': ('c840f4951288e3a2', 3, 3, 3),
 'CoWR|tcg-ir/dpor': ('c840f4951288e3a2', 3, 3, 3),
 'CoWR|tcg-ir/staged': ('c840f4951288e3a2', 3, 3, 3),
 'CoWR|x86-tso/dpor': ('c840f4951288e3a2', 3, 3, 3),
 'CoWR|x86-tso/staged': ('c840f4951288e3a2', 3, 3, 3),
 'Fig9-RMW-R|arm-cats/dpor': ('6714471447398577', 4, 4, 4),
 'Fig9-RMW-R|arm-cats/staged': ('6714471447398577', 4, 4, 4),
 'Fig9-RMW-R|sc/dpor': ('0f96676457b84115', 3, 3, 3),
 'Fig9-RMW-R|sc/staged': ('0f96676457b84115', 3, 3, 3),
 'Fig9-RMW-R|tcg-ir/dpor': ('0f96676457b84115', 3, 3, 3),
 'Fig9-RMW-R|tcg-ir/staged': ('0f96676457b84115', 3, 3, 3),
 'Fig9-RMW-R|x86-tso/dpor': ('0f96676457b84115', 3, 3, 3),
 'Fig9-RMW-R|x86-tso/staged': ('0f96676457b84115', 3, 3, 3),
 'Fig9-W-RMW|arm-cats/dpor': ('6a49f484be835342', 1, 9, 4),
 'Fig9-W-RMW|arm-cats/staged': ('6a49f484be835342', 1, 9, 4),
 'Fig9-W-RMW|sc/dpor': ('6a49f484be835342', 1, 5, 3),
 'Fig9-W-RMW|sc/staged': ('6a49f484be835342', 1, 5, 3),
 'Fig9-W-RMW|tcg-ir/dpor': ('6a49f484be835342', 1, 5, 3),
 'Fig9-W-RMW|tcg-ir/staged': ('6a49f484be835342', 1, 5, 3),
 'Fig9-W-RMW|x86-tso/dpor': ('6a49f484be835342', 1, 5, 3),
 'Fig9-W-RMW|x86-tso/staged': ('6a49f484be835342', 1, 5, 3),
 'IRIW+mfences|arm-cats/dpor': ('631e8515f4f46892', 16, 16, 16),
 'IRIW+mfences|arm-cats/staged': ('631e8515f4f46892', 16, 16, 16),
 'IRIW+mfences|sc/dpor': ('d562c7845c3179ee', 15, 15, 15),
 'IRIW+mfences|sc/staged': ('d562c7845c3179ee', 15, 15, 15),
 'IRIW+mfences|tcg-ir/dpor': ('631e8515f4f46892', 16, 16, 16),
 'IRIW+mfences|tcg-ir/staged': ('631e8515f4f46892', 16, 16, 16),
 'IRIW+mfences|x86-tso/dpor': ('d562c7845c3179ee', 15, 15, 15),
 'IRIW+mfences|x86-tso/staged': ('d562c7845c3179ee', 15, 15, 15),
 'IRIW5|arm-cats/dpor': ('06eaee6eb14c954d', 64, 40, 40),
 'IRIW5|sc/dpor': ('83ed4399fb8e11f1', 57, 36, 36),
 'IRIW5|tcg-ir/dpor': ('06eaee6eb14c954d', 64, 40, 40),
 'IRIW5|x86-tso/dpor': ('83ed4399fb8e11f1', 57, 36, 36),
 'IRIW|arm-cats/dpor': ('631e8515f4f46892', 16, 16, 16),
 'IRIW|arm-cats/staged': ('631e8515f4f46892', 16, 16, 16),
 'IRIW|sc/dpor': ('d562c7845c3179ee', 15, 15, 15),
 'IRIW|sc/staged': ('d562c7845c3179ee', 15, 15, 15),
 'IRIW|tcg-ir/dpor': ('631e8515f4f46892', 16, 16, 16),
 'IRIW|tcg-ir/staged': ('631e8515f4f46892', 16, 16, 16),
 'IRIW|x86-tso/dpor': ('d562c7845c3179ee', 15, 15, 15),
 'IRIW|x86-tso/staged': ('d562c7845c3179ee', 15, 15, 15),
 'ISA2|arm-cats/dpor': ('aacc126ded393e07', 6, 6, 6),
 'ISA2|arm-cats/staged': ('aacc126ded393e07', 6, 6, 6),
 'ISA2|sc/dpor': ('3cb439a1e444059f', 5, 5, 5),
 'ISA2|sc/staged': ('3cb439a1e444059f', 5, 5, 5),
 'ISA2|tcg-ir/dpor': ('aacc126ded393e07', 6, 6, 6),
 'ISA2|tcg-ir/staged': ('aacc126ded393e07', 6, 6, 6),
 'ISA2|x86-tso/dpor': ('3cb439a1e444059f', 5, 5, 5),
 'ISA2|x86-tso/staged': ('3cb439a1e444059f', 5, 5, 5),
 'LB-IR|arm-cats/dpor': ('6714471447398577', 4, 4, 4),
 'LB-IR|arm-cats/staged': ('6714471447398577', 4, 4, 4),
 'LB-IR|sc/dpor': ('fadc7c833e0dd1d1', 3, 3, 3),
 'LB-IR|sc/staged': ('fadc7c833e0dd1d1', 3, 3, 3),
 'LB-IR|tcg-ir/dpor': ('fadc7c833e0dd1d1', 3, 3, 3),
 'LB-IR|tcg-ir/staged': ('fadc7c833e0dd1d1', 3, 3, 3),
 'LB-IR|x86-tso/dpor': ('fadc7c833e0dd1d1', 3, 3, 3),
 'LB-IR|x86-tso/staged': ('fadc7c833e0dd1d1', 3, 3, 3),
 'LB|arm-cats/dpor': ('6714471447398577', 4, 4, 4),
 'LB|arm-cats/staged': ('6714471447398577', 4, 4, 4),
 'LB|sc/dpor': ('fadc7c833e0dd1d1', 3, 3, 3),
 'LB|sc/staged': ('fadc7c833e0dd1d1', 3, 3, 3),
 'LB|tcg-ir/dpor': ('6714471447398577', 4, 4, 4),
 'LB|tcg-ir/staged': ('6714471447398577', 4, 4, 4),
 'LB|x86-tso/dpor': ('fadc7c833e0dd1d1', 3, 3, 3),
 'LB|x86-tso/staged': ('fadc7c833e0dd1d1', 3, 3, 3),
 'MP+mfences|arm-cats/dpor': ('fa03dba1975b5caa', 4, 4, 4),
 'MP+mfences|arm-cats/staged': ('fa03dba1975b5caa', 4, 4, 4),
 'MP+mfences|sc/dpor': ('afc1a3b7534ea635', 3, 3, 3),
 'MP+mfences|sc/staged': ('afc1a3b7534ea635', 3, 3, 3),
 'MP+mfences|tcg-ir/dpor': ('fa03dba1975b5caa', 4, 4, 4),
 'MP+mfences|tcg-ir/staged': ('fa03dba1975b5caa', 4, 4, 4),
 'MP+mfences|x86-tso/dpor': ('afc1a3b7534ea635', 3, 3, 3),
 'MP+mfences|x86-tso/staged': ('afc1a3b7534ea635', 3, 3, 3),
 'MP+rmw|arm-cats/dpor': ('af258e84a5527ddf', 3, 3, 3),
 'MP+rmw|arm-cats/staged': ('af258e84a5527ddf', 3, 3, 3),
 'MP+rmw|sc/dpor': ('4903794c2c7e73eb', 2, 2, 2),
 'MP+rmw|sc/staged': ('4903794c2c7e73eb', 2, 2, 2),
 'MP+rmw|tcg-ir/dpor': ('af258e84a5527ddf', 3, 3, 3),
 'MP+rmw|tcg-ir/staged': ('af258e84a5527ddf', 3, 3, 3),
 'MP+rmw|x86-tso/dpor': ('4903794c2c7e73eb', 2, 2, 2),
 'MP+rmw|x86-tso/staged': ('4903794c2c7e73eb', 2, 2, 2),
 'MP-IR|arm-cats/dpor': ('fa03dba1975b5caa', 4, 4, 4),
 'MP-IR|arm-cats/staged': ('fa03dba1975b5caa', 4, 4, 4),
 'MP-IR|sc/dpor': ('afc1a3b7534ea635', 3, 3, 3),
 'MP-IR|sc/staged': ('afc1a3b7534ea635', 3, 3, 3),
 'MP-IR|tcg-ir/dpor': ('afc1a3b7534ea635', 3, 3, 3),
 'MP-IR|tcg-ir/staged': ('afc1a3b7534ea635', 3, 3, 3),
 'MP-IR|x86-tso/dpor': ('afc1a3b7534ea635', 3, 3, 3),
 'MP-IR|x86-tso/staged': ('afc1a3b7534ea635', 3, 3, 3),
 'MP-chain5|arm-cats/dpor': ('541d37bcf3a13de8', 10, 10, 10),
 'MP-chain5|sc/dpor': ('d716587d9fdd8956', 9, 9, 9),
 'MP-chain5|tcg-ir/dpor': ('541d37bcf3a13de8', 10, 10, 10),
 'MP-chain5|x86-tso/dpor': ('d716587d9fdd8956', 9, 9, 9),
 'MPQ|arm-cats/dpor': ('15786d47c74b75f9', 3, 3, 3),
 'MPQ|arm-cats/staged': ('15786d47c74b75f9', 3, 3, 3),
 'MPQ|sc/dpor': ('2c73146849ecaac8', 2, 2, 2),
 'MPQ|sc/staged': ('2c73146849ecaac8', 2, 2, 2),
 'MPQ|tcg-ir/dpor': ('15786d47c74b75f9', 3, 3, 3),
 'MPQ|tcg-ir/staged': ('15786d47c74b75f9', 3, 3, 3),
 'MPQ|x86-tso/dpor': ('2c73146849ecaac8', 2, 2, 2),
 'MPQ|x86-tso/staged': ('2c73146849ecaac8', 2, 2, 2),
 'MP|arm-cats/dpor': ('fa03dba1975b5caa', 4, 4, 4),
 'MP|arm-cats/staged': ('fa03dba1975b5caa', 4, 4, 4),
 'MP|sc/dpor': ('afc1a3b7534ea635', 3, 3, 3),
 'MP|sc/staged': ('afc1a3b7534ea635', 3, 3, 3),
 'MP|tcg-ir/dpor': ('fa03dba1975b5caa', 4, 4, 4),
 'MP|tcg-ir/staged': ('fa03dba1975b5caa', 4, 4, 4),
 'MP|x86-tso/dpor': ('afc1a3b7534ea635', 3, 3, 3),
 'MP|x86-tso/staged': ('afc1a3b7534ea635', 3, 3, 3),
 'R|arm-cats/dpor': ('a2d5bd2f0973fa18', 4, 4, 4),
 'R|arm-cats/staged': ('a2d5bd2f0973fa18', 4, 4, 4),
 'R|sc/dpor': ('ac5c3584092cc85e', 3, 4, 3),
 'R|sc/staged': ('ac5c3584092cc85e', 3, 4, 3),
 'R|tcg-ir/dpor': ('a2d5bd2f0973fa18', 4, 4, 4),
 'R|tcg-ir/staged': ('a2d5bd2f0973fa18', 4, 4, 4),
 'R|x86-tso/dpor': ('ac5c3584092cc85e', 3, 4, 3),
 'R|x86-tso/staged': ('ac5c3584092cc85e', 3, 4, 3),
 'S+rmw|arm-cats/dpor': ('2f40c53f305baa88', 3, 3, 3),
 'S+rmw|arm-cats/staged': ('2f40c53f305baa88', 3, 3, 3),
 'S+rmw|sc/dpor': ('aa80a9890c5125c2', 2, 3, 2),
 'S+rmw|sc/staged': ('aa80a9890c5125c2', 2, 3, 2),
 'S+rmw|tcg-ir/dpor': ('2f40c53f305baa88', 3, 3, 3),
 'S+rmw|tcg-ir/staged': ('2f40c53f305baa88', 3, 3, 3),
 'S+rmw|x86-tso/dpor': ('aa80a9890c5125c2', 2, 3, 2),
 'S+rmw|x86-tso/staged': ('aa80a9890c5125c2', 2, 3, 2),
 'SB+mfences|arm-cats/dpor': ('6714471447398577', 4, 4, 4),
 'SB+mfences|arm-cats/staged': ('6714471447398577', 4, 4, 4),
 'SB+mfences|sc/dpor': ('0f96676457b84115', 3, 3, 3),
 'SB+mfences|sc/staged': ('0f96676457b84115', 3, 3, 3),
 'SB+mfences|tcg-ir/dpor': ('6714471447398577', 4, 4, 4),
 'SB+mfences|tcg-ir/staged': ('6714471447398577', 4, 4, 4),
 'SB+mfences|x86-tso/dpor': ('0f96676457b84115', 3, 3, 3),
 'SB+mfences|x86-tso/staged': ('0f96676457b84115', 3, 3, 3),
 'SB+rmw-one-side|arm-cats/dpor': ('671307d9faa8a0fa', 4, 4, 4),
 'SB+rmw-one-side|arm-cats/staged': ('671307d9faa8a0fa', 4, 4, 4),
 'SB+rmw-one-side|sc/dpor': ('0b81d934792fefde', 3, 3, 3),
 'SB+rmw-one-side|sc/staged': ('0b81d934792fefde', 3, 3, 3),
 'SB+rmw-one-side|tcg-ir/dpor': ('671307d9faa8a0fa', 4, 4, 4),
 'SB+rmw-one-side|tcg-ir/staged': ('671307d9faa8a0fa', 4, 4, 4),
 'SB+rmw-one-side|x86-tso/dpor': ('0b81d934792fefde', 3, 3, 3),
 'SB+rmw-one-side|x86-tso/staged': ('0b81d934792fefde', 3, 3, 3),
 'SB5-ring|arm-cats/dpor': ('7354f6e96508d39c', 32, 32, 32),
 'SB5-ring|sc/dpor': ('edc8b6b4b18f347c', 31, 31, 31),
 'SB5-ring|tcg-ir/dpor': ('7354f6e96508d39c', 32, 32, 32),
 'SB5-ring|x86-tso/dpor': ('7354f6e96508d39c', 32, 32, 32),
 'SBAL|arm-cats/dpor': ('6714471447398577', 4, 4, 4),
 'SBAL|arm-cats/staged': ('6714471447398577', 4, 4, 4),
 'SBAL|sc/dpor': ('0f96676457b84115', 3, 3, 3),
 'SBAL|sc/staged': ('0f96676457b84115', 3, 3, 3),
 'SBAL|tcg-ir/dpor': ('0f96676457b84115', 3, 3, 3),
 'SBAL|tcg-ir/staged': ('0f96676457b84115', 3, 3, 3),
 'SBAL|x86-tso/dpor': ('0f96676457b84115', 3, 3, 3),
 'SBAL|x86-tso/staged': ('0f96676457b84115', 3, 3, 3),
 'SBQ|arm-cats/dpor': ('fb25f514f511baa1', 4, 4, 4),
 'SBQ|arm-cats/staged': ('fb25f514f511baa1', 4, 4, 4),
 'SBQ|sc/dpor': ('48e0c56819306517', 3, 3, 3),
 'SBQ|sc/staged': ('48e0c56819306517', 3, 3, 3),
 'SBQ|tcg-ir/dpor': ('fb25f514f511baa1', 4, 4, 4),
 'SBQ|tcg-ir/staged': ('fb25f514f511baa1', 4, 4, 4),
 'SBQ|x86-tso/dpor': ('48e0c56819306517', 3, 3, 3),
 'SBQ|x86-tso/staged': ('48e0c56819306517', 3, 3, 3),
 'SB|arm-cats/dpor': ('6714471447398577', 4, 4, 4),
 'SB|arm-cats/staged': ('6714471447398577', 4, 4, 4),
 'SB|sc/dpor': ('0f96676457b84115', 3, 3, 3),
 'SB|sc/staged': ('0f96676457b84115', 3, 3, 3),
 'SB|tcg-ir/dpor': ('6714471447398577', 4, 4, 4),
 'SB|tcg-ir/staged': ('6714471447398577', 4, 4, 4),
 'SB|x86-tso/dpor': ('6714471447398577', 4, 4, 4),
 'SB|x86-tso/staged': ('6714471447398577', 4, 4, 4),
 'S|arm-cats/dpor': ('2f40c53f305baa88', 3, 3, 3),
 'S|arm-cats/staged': ('2f40c53f305baa88', 3, 3, 3),
 'S|sc/dpor': ('aa80a9890c5125c2', 2, 3, 2),
 'S|sc/staged': ('aa80a9890c5125c2', 2, 3, 2),
 'S|tcg-ir/dpor': ('2f40c53f305baa88', 3, 3, 3),
 'S|tcg-ir/staged': ('2f40c53f305baa88', 3, 3, 3),
 'S|x86-tso/dpor': ('aa80a9890c5125c2', 2, 3, 2),
 'S|x86-tso/staged': ('aa80a9890c5125c2', 2, 3, 2),
 'W4+2RR|arm-cats/dpor': ('0604d3ae3050c18e', 9, 441, 441),
 'W4+2RR|sc/dpor': ('0604d3ae3050c18e', 9, 441, 441),
 'W4+2RR|tcg-ir/dpor': ('0604d3ae3050c18e', 9, 441, 441),
 'W4+2RR|x86-tso/dpor': ('0604d3ae3050c18e', 9, 441, 441),
 'W5+RR|arm-cats/dpor': ('ee6740abd360c88b', 4, 36, 36),
 'W5+RR|sc/dpor': ('ee6740abd360c88b', 4, 36, 36),
 'W5+RR|tcg-ir/dpor': ('ee6740abd360c88b', 4, 36, 36),
 'W5+RR|x86-tso/dpor': ('ee6740abd360c88b', 4, 36, 36),
 'WRC|arm-cats/dpor': ('9061d5b571419d02', 6, 6, 6),
 'WRC|arm-cats/staged': ('9061d5b571419d02', 6, 6, 6),
 'WRC|sc/dpor': ('99e351ea14322867', 5, 5, 5),
 'WRC|sc/staged': ('99e351ea14322867', 5, 5, 5),
 'WRC|tcg-ir/dpor': ('9061d5b571419d02', 6, 6, 6),
 'WRC|tcg-ir/staged': ('9061d5b571419d02', 6, 6, 6),
 'WRC|x86-tso/dpor': ('99e351ea14322867', 5, 5, 5),
 'WRC|x86-tso/staged': ('99e351ea14322867', 5, 5, 5)}

#: The cells that moved when the rf DFS began forcing the read-read
#: (CoRR) coherence edge, as recorded before it.
BEFORE_CORR = {
    f"W4+2RR|{model}/dpor": ('0604d3ae3050c18e', 9, 12663, 441)
    for model in MODELS}

GOLDEN_SCHEMES = {'no-fences|rmo->arm/rmw1al': (False, False, 21, 'MP', 'SB+mfences',
                               'LB', 'MPQ', 'MP+mfences', 'S', 'R',
                               '2+2W', 'IRIW+mfences', 'MP+rmw',
                               'SB+rmw-one-side', 'IRIW', 'WRC',
                               'ISA2'),
 'pso-lead|pso->arm/rmw1al': (False, False, 21, 'MP', 'MPQ', 'S', 'R',
                              'ISA2'),
 'qemu|tso->arm/rmw1al': (False, False, 21, 'MPQ'),
 'qemu|tso->arm/rmw2ff': (True, True, 21),
 'risotto|tso->arm/rmw1al': (True, True, 21),
 'risotto|tso->arm/rmw2ff': (True, True, 21),
 'rmo-bare|rmo->arm/rmw1al': (False, False, 21, 'MP', 'LB', 'MPQ', 'S',
                              'R', 'MP+rmw', 'IRIW', 'WRC', 'ISA2'),
 'sc-lead|sc->arm/rmw1al': (False, False, 21, 'MPQ'),
 'sc-lead|sc->arm/rmw2ff': (True, True, 21),
 'sc-trail|sc->arm/rmw1al': (True, True, 21),
 'sc-trail|sc->arm/rmw2ff': (True, True, 21),
 'tso-trail|tso->arm/rmw1al': (True, True, 21),
 'tso-trail|tso->arm/rmw2ff': (True, True, 21)}

GOLDEN_ORDER = {('CAS-chain', 'arm-cats'): 'c3faa32fe83cdce3',
 ('CAS-chain', 'sc'): 'c3faa32fe83cdce3',
 ('CAS-chain', 'tcg-ir'): 'c3faa32fe83cdce3',
 ('CAS-chain', 'x86-tso'): 'c3faa32fe83cdce3',
 ('CoWR', 'arm-cats'): '8370dba24b91cd53',
 ('CoWR', 'sc'): '8370dba24b91cd53',
 ('CoWR', 'tcg-ir'): '8370dba24b91cd53',
 ('CoWR', 'x86-tso'): '8370dba24b91cd53',
 ('IRIW', 'arm-cats'): 'acdfa8ae06508e07',
 ('IRIW', 'sc'): '70c4672b26241e20',
 ('IRIW', 'tcg-ir'): 'acdfa8ae06508e07',
 ('IRIW', 'x86-tso'): '70c4672b26241e20',
 ('MP', 'arm-cats'): '57d8cb10a037d9af',
 ('MP', 'sc'): '2271cc69ee044abd',
 ('MP', 'tcg-ir'): '57d8cb10a037d9af',
 ('MP', 'x86-tso'): '2271cc69ee044abd',
 ('SB+mfences', 'arm-cats'): '2cb64428cd471195',
 ('SB+mfences', 'sc'): '9f11a7e04fdd6056',
 ('SB+mfences', 'tcg-ir'): '2cb64428cd471195',
 ('SB+mfences', 'x86-tso'): '9f11a7e04fdd6056'}


def test_golden_covers_the_bench_grid():
    specs = _enumeration_specs()
    assert len(specs) == len(GOLDEN_CELLS) == 224
    assert {f"{s.benchmark}|{s.variant}" for s in specs} \
        == set(GOLDEN_CELLS)
    assert {f"{s.benchmark}|{s.variant}"
            for s in api.scheme_grid()} == set(GOLDEN_SCHEMES)
    assert len(GOLDEN_SCHEMES) == 13


def test_enumeration_cells_match():
    got = {f"{s.benchmark}|{s.variant}": observe_cell(s)
           for s in _enumeration_specs()}
    assert got == GOLDEN_CELLS


def test_forced_corr_moved_only_materialization():
    # Same digest, behaviour count and consistent count on every cell;
    # candidates materialized never rose.
    assert set(BEFORE_CORR) <= set(GOLDEN_CELLS)
    for cell, now in GOLDEN_CELLS.items():
        digest, count, executions, consistent = \
            BEFORE_CORR.get(cell, now)
        assert now[:2] == (digest, count) and now[3] == consistent, cell
        assert now[2] <= executions, cell


@pytest.mark.parametrize("cell", sorted(GOLDEN_SCHEMES))
def test_scheme_verdicts_match(cell):
    spec, = (s for s in api.scheme_grid()
             if f"{s.benchmark}|{s.variant}" == cell)
    assert observe_scheme(spec) == GOLDEN_SCHEMES[cell]


@pytest.mark.parametrize("cell", sorted(GOLDEN_ORDER), ids="|".join)
def test_staged_yield_order_matches(cell):
    assert observe_order(*cell) == GOLDEN_ORDER[cell]


if __name__ == "__main__":
    cells = {f"{s.benchmark}|{s.variant}": observe_cell(s)
             for s in _enumeration_specs()}
    schemes = {f"{s.benchmark}|{s.variant}": observe_scheme(s)
               for s in api.scheme_grid()}
    order = {(t, m): observe_order(t, m)
             for t in ORDER_TESTS for m in MODELS}
    for label, table in (("GOLDEN_CELLS", cells),
                         ("GOLDEN_SCHEMES", schemes),
                         ("GOLDEN_ORDER", order)):
        print(f"{label} = {pprint.pformat(table, width=72, compact=True)}\n")
