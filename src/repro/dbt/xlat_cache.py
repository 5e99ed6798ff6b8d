"""Persistent translation cache for the DBT pipeline.

Translation is pure: a guest block's compiled artifact is a function
of the guest code bytes, the frontend config (fence scheme, CAS
policy), the optimizer pass list and the translation code itself —
the observation "On Architecture to Architecture Mapping for
Concurrency" makes for the mapping proper.  So the Figure 12–15
sweeps, which translate the same bytes under the same configs in
every variant, worker and invocation, memoize it here: the backend's
:class:`~repro.tcg.backend_arm.CompiledBlock` in its linked form (code
bytes with relocations, label and DMB offsets; helper/dispatch
requests; fence origins) with the block's
:class:`~repro.tcg.optimizer.OptStats`, in an **in-memory LRU** shared
by every engine in the process (:data:`DEFAULT_MEM_ENTRIES`) over a
**persistent store** (:class:`repro.store.DiskStore`, one SQLite
database per namespace, an entry a row) shared across workers and
runs.

A hit skips frontend, optimizer and backend; ``_install`` still binds
the run's trap addresses through the stored requests, so cached and
fresh runs are bit-identical.  Both levels keep the linked form alone:
no hit parses or encodes anything, and neither level holds the
records a fresh compile hands the machine (a hit's first execution
decodes its bytes instead).  Helper trap labels are numbered within
their block, so an entry's text is a function of its key.

The key (any change misses, never corrupts) covers a fixed-size guest
byte window at the pc, read on across images mapped back to back as
the frontend decodes, and the pc itself; the frontend and optimizer
config (not ``DBTConfig.name``: identical variants share entries); a
digest of every module a block depends on (:data:`SALTED_MODULES`);
and :data:`SCHEMA`.  An entry is JSON sealed by a sha256 over its
payload, checked before decoding; corrupt, mismatched or uninstallable
entries (an offset outside the code, DMBs that disagree with the
origins) are counted misses that the next store rewrites.  The disk
level is held to :data:`DEFAULT_DISK_BUDGET` bytes, least recently
written first (:class:`repro.store.DiskStore`).  ``REPRO_XLAT_CACHE``
(a directory, or ``0``/``off`` for neither level) and
``REPRO_XLAT_CACHE_NS`` (the namespace; the LRU is per directory)
configure it — see :mod:`repro.store` and DESIGN.md §6e.
"""

from __future__ import annotations

import base64
import hashlib
import json
from collections import OrderedDict
from dataclasses import dataclass, fields, replace
from pathlib import Path

from ..errors import MachineError
from ..isa.arm.assembler import LinkedCode
from ..obs.metrics import Counters
from ..obs.trace import get_tracer
from ..store import (  # noqa: F401 - re-exports
    ENV_VAR,
    NAMESPACE_ENV,
    DiskStore,
    base_dir,
    cache_dir,
    clear_disk_cache,
    code_salt,
    enabled,
    namespace,
    namespace_usage,
)
from ..tcg.backend_arm import CompiledBlock, HelperRequest
from ..tcg.optimizer import OptStats

#: Entry-layout version; part of the key, so a bump orphans (and a
#: later budget sweep collects) every pre-bump entry.
#: /2: opt_stats grew empty_fences_dropped + helpers_inlined.
#: /3: the linked form (code bytes, relocations, label and DMB
#: offsets) replaces the asm text, under a payload digest.
SCHEMA = "repro-xlat/3"

#: Distinct tag for tier-2 superblock artifacts: a trace keyed over
#: the same head pc as a plain block must never collide with it, so
#: trace keys hash this tag plus the ordered (pc, window) list.
TRACE_SCHEMA = "repro-xlat-trace/2"

#: Disk budget in bytes (entries are about 0.9 KB each: an xlat_cold
#: pass stores 559,121 bytes in 606); 0 disables eviction.
DEFAULT_DISK_BUDGET = 64 * 1024 * 1024
#: In-memory LRU capacity in entries; 0 disables the memory level.
DEFAULT_MEM_ENTRIES = 4096

#: Bytes the frontend may consult per decoded instruction (it reads
#: ``read_bytes(cursor, 32)`` per step), so a window of
#: ``block_insn_limit * 32`` bytes covers every byte a block's decode
#: can depend on.  Identical windows ⇒ identical translation; a wider
#: window only risks spurious misses, never wrong hits.
DECODE_WINDOW = 32

#: Every module a translated block can depend on: the pipeline, this
#: module, and everything they import within ``repro`` (the import
#: closure, pinned by a guard test) except ``repro.errors`` and
#: ``repro.obs``, which cannot change a block.  Fence strengths,
#: schemes, origin formats and the elimination side conditions live
#: in ``repro.core``, so those modules are salted too.
SALTED_MODULES: tuple[str, ...] = tuple(f"repro.{name}" for name in (
    "core.events", "core.most", "core.program", "core.transforms",
    "isa.common", "isa.arm.insns", "isa.arm.assembler", "isa.x86.insns",
    "tcg.ir", "tcg.frontend_x86", "tcg.optimizer",
    "tcg.optimizer.forward", "tcg.optimizer.fence_merge",
    "tcg.optimizer.deadcode",
    "tcg.optimizer.inline_helpers", "tcg.superblock", "tcg.backend_arm",
    "store", "dbt.xlat_cache",
))


def config_fingerprint(config) -> str:
    """Digest of what translation consumes from a ``DBTConfig``.

    Covers the frontend config (fence scheme, CAS policy, block limit)
    and the optimizer pass list.  The variant *name* and the host
    linker flag are excluded: neither changes a single translated
    block, so identically configured variants share entries.
    """
    canonical = repr((config.frontend, config.optimizer))
    return hashlib.sha256(
        f"{SCHEMA}|{canonical}|{code_salt(SALTED_MODULES)}".encode()
    ).hexdigest()


def read_window(memory, guest_pc: int, size: int) -> bytes | None:
    """The key's view of the ``size`` guest bytes from ``guest_pc`` on,
    or ``None`` when ``guest_pc`` is unmapped.

    One fetch stops at the end of its image, but the frontend's next
    one reads on into an image mapped right after it, so the window
    does too.  Each image's part is prefixed by its length: a seam
    moves what a fetch that straddles it returns, so it is part of
    what the decode depends on.
    """
    parts = []
    addr, left = guest_pc, size
    while left > 0:
        try:
            part = memory.read_bytes(addr, left)
        except MachineError:
            break
        if not part:
            break
        parts.append(len(part).to_bytes(4, "little") + part)
        addr += len(part)
        left -= len(part)
    return b"".join(parts) if parts else None


def block_key(config_fp: str, guest_pc: int, window: bytes) -> str:
    """The full content fingerprint of one block translation."""
    hasher = hashlib.sha256()
    hasher.update(config_fp.encode())
    hasher.update(guest_pc.to_bytes(8, "little"))
    hasher.update(window)
    return hasher.hexdigest()


def trace_key(config_fp: str,
              segments: list[tuple[int, bytes]]) -> str:
    """Content fingerprint of a tier-2 superblock: the ordered chain
    of (guest pc, decode window) pairs under the trace schema tag."""
    hasher = hashlib.sha256()
    hasher.update(TRACE_SCHEMA.encode())
    hasher.update(config_fp.encode())
    for guest_pc, window in segments:
        hasher.update(guest_pc.to_bytes(8, "little"))
        hasher.update(len(window).to_bytes(4, "little"))
        hasher.update(window)
    return hasher.hexdigest()


# ----------------------------------------------------------------------
# Counters (surfaced via `python -m repro cache stats`)
# ----------------------------------------------------------------------
@dataclass
class XlatCacheStats(Counters):
    """Process-wide cache event counters."""

    lookups: int = 0
    hits: int = 0
    misses: int = 0
    memory_hits: int = 0
    disk_hits: int = 0
    stores: int = 0
    evictions: int = 0
    corrupt_entries: int = 0

    @property
    def hit_rate(self) -> float:
        if not self.lookups:
            return 0.0
        return self.hits / self.lookups


_STATS = XlatCacheStats()
#: A copy of the process-wide counters.
cache_stats = _STATS.snapshot
reset_stats = _STATS.reset


# ----------------------------------------------------------------------
# Entry (de)serialization
# ----------------------------------------------------------------------
#: A stored entry is ``_SEAL_HEAD + digest + _SEAL_MID + payload +
#: "}"``: still one JSON object, and the payload's text is sliced out
#: and hashed before anything is decoded.
_SEAL_HEAD = '{"sha256":"'
_SEAL_MID = '","payload":'
_DIGEST_END = len(_SEAL_HEAD) + 64


def _seal(payload: str) -> str:
    digest = hashlib.sha256(payload.encode()).hexdigest()
    return f"{_SEAL_HEAD}{digest}{_SEAL_MID}{payload}}}"


def _unseal(text: str) -> str:
    """The payload text of a stored entry whose digest matches."""
    if not (text.startswith(_SEAL_HEAD)
            and text.startswith(_SEAL_MID, _DIGEST_END)
            and text.endswith("}")):
        raise ValueError("not a sealed entry")
    payload = text[_DIGEST_END + len(_SEAL_MID):-1]
    if hashlib.sha256(payload.encode()).hexdigest() != \
            text[len(_SEAL_HEAD):_DIGEST_END]:
        raise ValueError("payload digest mismatch")
    return payload


#: The optimizer counters an entry stores, in order.
_OPT_FIELDS = tuple(field.name for field in fields(OptStats))


def _entry_to_json(compiled: CompiledBlock, opt: OptStats) -> str:
    linked = compiled.linked
    return _seal(json.dumps({
        "schema": SCHEMA,
        "guest_pc": compiled.guest_pc,
        "code": base64.b64encode(linked.code).decode("ascii"),
        "relocs": linked.relocs,
        "labels": linked.labels,
        "dmb_offsets": linked.dmb_offsets,
        "helper_requests": [
            [r.trap_label, r.helper, list(r.arg_regs), r.ret_reg]
            for r in compiled.helper_requests
        ],
        "guest_insns": compiled.guest_insns,
        "op_count": compiled.op_count,
        "fence_origins": compiled.fence_origins,
        "opt_stats": [getattr(opt, name) for name in _OPT_FIELDS],
    }, separators=(",", ":")))


def _check_layout(linked: LinkedCode, fence_origins: list) -> None:
    """Refuse a linked form the engine could not install as it was
    compiled.  Nothing reassembles a stored entry, so this and the
    digest are its only checks."""
    size = len(linked.code)
    if not (all(0 <= offset <= size - 8 for offset, _ in linked.relocs)
            and all(0 <= offset <= size
                    for offset in linked.labels.values())
            and all(0 <= offset < size
                    for offset in linked.dmb_offsets)):
        raise ValueError("an offset lies outside the code")
    if len(linked.dmb_offsets) != len(fence_origins):
        raise ValueError(
            f"{len(linked.dmb_offsets)} DMBs but "
            f"{len(fence_origins)} fence origins")


def _entry_from_json(text: str) -> tuple[CompiledBlock, OptStats]:
    payload = json.loads(_unseal(text))
    if payload["schema"] != SCHEMA:
        raise ValueError(f"schema {payload['schema']!r}")
    linked = LinkedCode(
        code=base64.b64decode(payload["code"], validate=True),
        relocs=tuple((int(offset), str(label))
                     for offset, label in payload["relocs"]),
        labels={str(label): int(offset)
                for label, offset in dict(payload["labels"]).items()},
        dmb_offsets=tuple(map(int, payload["dmb_offsets"])),
    )
    fence_origins = [
        origin if origin is None else str(origin)
        for origin in payload["fence_origins"]
    ]
    _check_layout(linked, fence_origins)
    compiled = CompiledBlock(
        guest_pc=int(payload["guest_pc"]),
        linked=linked,
        helper_requests=[
            HelperRequest(trap_label=str(label), helper=str(helper),
                          arg_regs=tuple(args),
                          ret_reg=ret if ret is None else str(ret))
            for label, helper, args, ret in payload["helper_requests"]
        ],
        guest_insns=int(payload["guest_insns"]),
        op_count=int(payload["op_count"]),
        fence_origins=fence_origins,
    )
    values = payload["opt_stats"]
    if len(values) != len(_OPT_FIELDS):
        # A short list would silently zero-fill through the defaults.
        raise ValueError(f"opt_stats has {len(values)} counters")
    return compiled, OptStats(*map(int, values))


@dataclass
class XlatHit:
    """A successful lookup: the artifact plus which level served it."""

    compiled: CompiledBlock
    opt_stats: OptStats
    source: str  # "memory" | "disk"


class XlatCache:
    """One two-level translation cache (memory LRU over a disk store).

    The public entry point is :func:`get_cache`, which builds
    instances from the environment and shares them process-wide so
    every engine sees one LRU; tests construct their own to size the
    two levels.
    """

    def __init__(self, directory: Path,
                 max_mem_entries: int = DEFAULT_MEM_ENTRIES,
                 max_disk_bytes: int = DEFAULT_DISK_BUDGET):
        self._disk = DiskStore(directory, max_disk_bytes)
        self.max_mem_entries = max_mem_entries
        self._mem: OrderedDict[str, tuple[CompiledBlock, OptStats]] = \
            OrderedDict()

    # ------------------------------------------------------------------
    # Keys
    # ------------------------------------------------------------------
    def key_for(self, memory, guest_pc: int, config_fp: str,
                window_bytes: int) -> str | None:
        """The content fingerprint for the block at ``guest_pc``, or
        ``None`` when the pc is unmapped (the frontend then raises the
        canonical fetch error)."""
        window = read_window(memory, guest_pc, window_bytes)
        if window is None:
            return None
        return block_key(config_fp, guest_pc, window)

    def trace_key_for(self, memory, guest_pcs: list[int],
                      config_fp: str,
                      window_bytes: int) -> str | None:
        """The content fingerprint of a superblock chain, or ``None``
        when any chain member's window is unmapped."""
        segments: list[tuple[int, bytes]] = []
        for guest_pc in guest_pcs:
            window = read_window(memory, guest_pc, window_bytes)
            if window is None:
                return None
            segments.append((guest_pc, window))
        return trace_key(config_fp, segments)

    # ------------------------------------------------------------------
    # Lookup / store
    # ------------------------------------------------------------------
    def get(self, key: str) -> XlatHit | None:
        _STATS.lookups += 1
        entry = self._mem.get(key)
        if entry is not None:
            self._mem.move_to_end(key)
            _STATS.hits += 1
            _STATS.memory_hits += 1
            return XlatHit(entry[0], entry[1], "memory")
        try:
            text = self._disk.read(key)
            entry = None if text is None else _entry_from_json(text)
        except (ValueError, KeyError, TypeError):
            # Present but unusable: corruption, a digest mismatch, a
            # stale layout, or offsets the code cannot hold.  Fall back
            # to translating; the store below rewrites it.
            _STATS.corrupt_entries += 1
            entry = None
        if entry is not None:
            self._remember(key, entry)
            _STATS.hits += 1
            _STATS.disk_hits += 1
            return XlatHit(entry[0], entry[1], "disk")
        _STATS.misses += 1
        return None

    def put(self, key: str, compiled: CompiledBlock,
            opt: OptStats) -> None:
        # The linked form alone: the records only serve the install
        # that follows this compile.
        self._remember(key, (replace(compiled, insns=[]), opt))
        _STATS.stores += 1
        if self._disk.write(key, _entry_to_json(compiled, opt)) \
                and self._disk.walk_due():
            self.evict_to_budget(keep=key)

    def _remember(self, key: str,
                  entry: tuple[CompiledBlock, OptStats]) -> None:
        if not self.max_mem_entries:
            return
        self._mem[key] = entry
        self._mem.move_to_end(key)
        while len(self._mem) > self.max_mem_entries:
            self._mem.popitem(last=False)

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def disk_usage(self) -> tuple[int, int]:
        """(entry count, total bytes) of the disk level."""
        return self._disk.usage()

    def evict_to_budget(self, keep: str | None = None) -> int:
        """Trim the disk level to its byte budget (see
        :meth:`repro.store.DiskStore.evict_to_budget`), dropping the
        evicted keys from memory too.  Returns the number evicted."""
        evicted = self._disk.evict_to_budget(keep)
        for key in evicted:
            self._mem.pop(key, None)
        if evicted:
            _STATS.evictions += len(evicted)
            tracer = get_tracer()
            if tracer.enabled:
                tracer.counter("xlat_cache.evictions",
                               evicted=len(evicted))
        return len(evicted)

    def clear_memory(self) -> int:
        removed = len(self._mem)
        self._mem.clear()
        return removed

    def clear_disk(self) -> int:
        """Remove every disk entry (and the old file-per-entry
        layout's files); returns the number removed."""
        return self._disk.clear()


# ----------------------------------------------------------------------
# Process-wide instances
# ----------------------------------------------------------------------
#: Instances keyed by resolved directory, so monkeypatched
#: environments and namespaces get their own cache while every engine
#: under one configuration shares one memory LRU.
_INSTANCES: dict[str, XlatCache] = {}


def get_cache() -> XlatCache | None:
    """The cache for the current environment, or ``None`` if disabled."""
    if not enabled():
        return None
    directory = cache_dir()
    cache = _INSTANCES.get(str(directory))
    if cache is None:
        cache = _INSTANCES[str(directory)] = XlatCache(directory)
    return cache


def reset_memory() -> int:
    """Drop every in-process memory level (disk survives); used by the
    warm/cold benchmark to attribute hits to the persistent layer."""
    return sum(cache.clear_memory() for cache in _INSTANCES.values())
