"""Persistent behaviour cache keyed by content fingerprints.

``behaviors(program, model)`` is pure: the behaviour set is a function
of the program text, the model definition, and the enumeration code.
This module captures that identity as a sha256 fingerprint and memoizes
the result on disk, so repeated sweeps — and the ``run_parallel``
workers, which each start with a cold in-process memo — share one
store instead of re-enumerating the same litmus programs.

Key structure (any change misses, never corrupts):

* **program** — architecture, initial values and thread bodies, via the
  canonical ``repr`` of the (frozen) op dataclasses.  The program *name*
  is excluded: two differently-named but identical programs share
  behaviours.
* **model** — :meth:`~repro.core.models.terms.MemoryModel.fingerprint`,
  covering class identity, name, arch and the axioms' canonical text.
* **code salt** — a digest of the source of every module the behaviour
  computation flows through (:data:`SALTED_MODULES`), so editing the
  enumerator, the evaluator or a model invalidates every stale entry
  instead of silently serving it.

Entries are JSON texts in a :class:`repro.store.DiskStore` with no
byte budget (behaviour sets are small and never evicted); layout,
atomic writes and namespaces are :mod:`repro.store`'s.

Configuration via ``REPRO_BEHAVIOR_CACHE`` (directory override, or
``0``/``off`` to disable the disk layer; the in-process memo in
:mod:`repro.core.enumerate` still applies) and
``REPRO_BEHAVIOR_CACHE_NS`` (the namespace: sharded verification runs
set it so concurrent sweeps with different corpora or experimental
model edits never interleave) — see :class:`repro.store.StoreEnv`.
"""

from __future__ import annotations

import hashlib
import json

from ..store import DiskStore, StoreEnv, code_salt

ENV_VAR = "REPRO_BEHAVIOR_CACHE"
NAMESPACE_ENV = "REPRO_BEHAVIOR_CACHE_NS"
_ENV = StoreEnv(ENV_VAR, NAMESPACE_ENV, "behaviors")
enabled = _ENV.enabled
namespace = _ENV.namespace
base_dir = _ENV.base_dir
cache_dir = _ENV.cache_dir
namespace_usage = _ENV.namespace_usage
clear_disk_cache = _ENV.clear

#: Every module a behaviour set can depend on: the import closure of the
#: enumerator and of the models it judges with (pinned by a guard test),
#: except ``repro.errors``, ``repro.obs`` and ``repro.store``, which
#: cannot change a behaviour.
SALTED_MODULES: tuple[str, ...] = tuple(f"repro.core.{name}" for name in (
    "enumerate", "dpor", "relations", "execution", "events", "program",
    "behavior_cache", "models", "models.terms", "models.x86tso",
    "models.armcats", "models.tcg",
))


def program_fingerprint(program) -> str:
    """Digest of a program's content (name excluded)."""
    canonical = repr((program.arch.value,
                      tuple(sorted(program.init)),
                      program.threads))
    return hashlib.sha256(canonical.encode()).hexdigest()


def model_fingerprint(model) -> str:
    """Digest of a model's identity; falls back to class+name for
    duck-typed models without a ``fingerprint`` method."""
    fp = getattr(model, "fingerprint", None)
    if callable(fp):
        return fp()
    return hashlib.sha256(
        f"{type(model).__module__}.{type(model).__qualname__}"
        f"|{model.name}".encode()).hexdigest()


def entry_key(program, model) -> str:
    """The combined cache key for one (program, model) pair."""
    return hashlib.sha256(
        f"{program_fingerprint(program)}|{model_fingerprint(model)}"
        f"|{code_salt(SALTED_MODULES)}".encode()).hexdigest()


# ----------------------------------------------------------------------
# Disk layer
# ----------------------------------------------------------------------
def load(program, model) -> frozenset | None:
    """The cached behaviour set, or None on miss/corruption/disabled."""
    if not enabled():
        return None
    try:
        text = DiskStore(cache_dir()).read(entry_key(program, model))
        if text is None:
            return None
        return frozenset(
            frozenset((str(k), int(v)) for k, v in beh)
            for beh in json.loads(text)["behaviors"]
        )
    except (ValueError, KeyError, TypeError):
        # A malformed entry is a plain miss; the store below
        # rewrites it.
        return None


def store(program, model, behaviors: frozenset) -> None:
    """Persist one behaviour set; failures are silent (the cache is an
    accelerator, never a correctness dependency)."""
    if not enabled():
        return
    DiskStore(cache_dir()).write(entry_key(program, model), json.dumps({
        "program": program.name,
        "model": model.name,
        "behaviors": sorted(
            [[k, v] for k, v in sorted(b)] for b in behaviors
        ),
    }, separators=(",", ":")))
