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
fresh runs are bit-identical.  Both levels keep the linked form alone,
so a hit from either takes one path: no hit parses or encodes
anything, and ``_install`` decodes the placed bytes once, advancing by
the instruction lengths the linker recorded, through the memory
level's memo of instruction encodings (:meth:`XlatCache.records`), to
seed the machine with the records a fresh compile hands it.  Helper
trap labels are numbered within their block, so an entry's bytes are
a function of its key.

The key (any change misses, never corrupts) covers a fixed-size guest
byte window at the pc, read on across images mapped back to back as
the frontend decodes, and the pc itself; the frontend and optimizer
config (not ``DBTConfig.name``: identical variants share entries); a
digest of every module a block depends on (:data:`SALTED_MODULES`);
and :data:`SCHEMA`.  An entry is binary (:func:`_entry_to_bytes`),
sealed by a raw sha256 over its payload that is checked before
anything is unpacked.  Corrupt, mismatched or uninstallable entries
are counted misses that the next store rewrites: what :meth:`get`
finds (a digest or schema mismatch, counts the bytes do not hold, an
offset outside the code, DMBs that disagree with the origins), and
what only the install finds in a sealed entry (code that does not
decode as its instruction lengths say, a relocation naming a label
nothing binds, a helper the runtime does not have), which the engine
hands back through
:meth:`XlatCache.refuse` before compiling the block afresh.  The disk
level is held to :data:`DEFAULT_DISK_BUDGET` bytes, least recently
written first (:class:`repro.store.DiskStore`).  ``REPRO_XLAT_CACHE``
(a directory, or ``0``/``off`` for neither level) sets the root; the
namespace (the LRU is per directory) is an argument of
:func:`get_cache`, else ``REPRO_XLAT_CACHE_NS`` — see DESIGN.md §6e.
"""

from __future__ import annotations

import functools
import hashlib
import struct
from collections import OrderedDict
from dataclasses import dataclass, fields, replace
from pathlib import Path

from ..isa.arm.assembler import LinkedCode
from ..isa.arm.insns import CODER
from ..isa.common import Insn
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
    resolution_key,
)
from ..tcg.backend_arm import CompiledBlock, HelperRequest
from ..tcg.optimizer import OptStats

#: Entry-layout version; part of the key, so a bump orphans (and a
#: later budget sweep collects) every pre-bump entry.
#: /2: opt_stats grew empty_fences_dropped + helpers_inlined.
#: /3: the linked form (code bytes, relocations, label and DMB
#: offsets) replaces the asm text, under a payload digest.
#: /4: the entry is binary (:func:`_entry_to_bytes`), not JSON.
#: /5: the linked form carries each instruction's length.
SCHEMA = "repro-xlat/5"

#: Distinct tag for tier-2 superblock artifacts: a trace keyed over
#: the same head pc as a plain block must never collide with it, so
#: trace keys hash this tag plus the ordered (pc, window) list.
TRACE_SCHEMA = "repro-xlat-trace/2"

#: Disk budget in bytes (entries are about 0.6 KB each: an xlat_cold
#: pass stores 366,080 bytes in 606); 0 disables eviction.
DEFAULT_DISK_BUDGET = 64 * 1024 * 1024
#: In-memory LRU capacity in entries; 0 disables the memory level.
DEFAULT_MEM_ENTRIES = 4096
#: Distinct instruction encodings the decode memo of a cache holds
#: before it starts over.  A warm ``xlat_warm`` pass installs about
#: 18,600 instructions spelled in about 1,900 distinct ways.
DECODE_MEMO_ENTRIES = 16384

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
    block, so identically configured variants share entries.  The
    config is frozen, so the digest is kept on the config object
    itself with the schema tag it was made under: an engine reads it
    back without hashing either config.
    """
    memo = getattr(config, "_xlat_fingerprint", None)
    if memo is None or memo[0] != SCHEMA:
        canonical = repr((config.frontend, config.optimizer))
        memo = SCHEMA, hashlib.sha256(
            f"{SCHEMA}|{canonical}|{code_salt(SALTED_MODULES)}".encode()
        ).hexdigest()
        object.__setattr__(config, "_xlat_fingerprint", memo)
    return memo[1]


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
    while left > 0 and memory.in_image(addr):
        part = memory.read_bytes(addr, left)
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
#: The optimizer counters an entry stores, in order.
_OPT_FIELDS = tuple(field.name for field in fields(OptStats))
#: An entry's fixed header, after its schema tag: the guest pc, the
#: guest instruction and TCG op counts, the code size, the number of
#: host instructions, relocations, labels, DMBs, fence origins, helper
#: requests and strings, the number of optimizer counters, then the
#: counters.
_HEADER = struct.Struct(f"<Q10IB{len(_OPT_FIELDS)}I")
#: The size of an entry's seal, a sha256 over the rest.
_DIGEST = 32


def _schema_tag() -> bytes:
    """The payload's first bytes: :data:`SCHEMA`, length-prefixed."""
    return _tag(SCHEMA)


@functools.cache
def _tag(schema: str) -> bytes:
    tag = schema.encode()
    return bytes((len(tag),)) + tag


@functools.lru_cache(maxsize=1024)
def _arrays(n_offsets: int, n_indices: int) -> struct.Struct:
    """An entry's u32 offsets then u16 string indices, by their counts
    (``struct``'s own cache of format strings holds only 100)."""
    return struct.Struct(f"<{n_offsets}I{n_indices}H")


def _entry_to_bytes(compiled: CompiledBlock, opt: OptStats) -> bytes:
    """One entry: ``sha256(payload) + payload``, where the payload is
    the schema tag, :data:`_HEADER`, the u32 offsets (relocations,
    labels, DMBs), the u16 string indices (relocation and label
    names, fence origins, then each helper request's trap label,
    helper, comma-joined argument registers and return register), the
    code bytes, a byte per instruction holding its length, and the
    string table, each string NUL-terminated."""
    linked = compiled.linked
    requests = compiled.helper_requests
    # Index 0 stands for None (an untagged fence, a helper with no
    # return register); the table proper starts at 1.
    names: dict[str | None, int] = {None: 0}

    def index(name: str | None) -> int:
        return names.setdefault(name, len(names))

    indices = [index(label) for _, label in linked.relocs]
    indices += map(index, linked.labels)
    indices += map(index, compiled.fence_origins)
    for request in requests:
        indices += (index(request.trap_label), index(request.helper),
                    index(",".join(request.arg_regs)),
                    index(request.ret_reg))
    offsets = [offset for offset, _ in linked.relocs]
    offsets += linked.labels.values()
    offsets += linked.dmb_offsets
    strings = list(names)[1:]
    payload = b"".join((
        _schema_tag(),
        _HEADER.pack(
            compiled.guest_pc, compiled.guest_insns, compiled.op_count,
            len(linked.code), len(linked.lengths), len(linked.relocs),
            len(linked.labels), len(linked.dmb_offsets),
            len(compiled.fence_origins), len(requests), len(strings),
            len(_OPT_FIELDS),
            *[getattr(opt, name) for name in _OPT_FIELDS]),
        _arrays(len(offsets), len(indices)).pack(*offsets, *indices),
        linked.code,
        linked.lengths,
        "".join([string + "\0" for string in strings]).encode(),
    ))
    return hashlib.sha256(payload).digest() + payload


def _check_layout(size: int, relocs: tuple, labels: tuple, dmbs: tuple,
                  n_origins: int) -> None:
    """Refuse a linked form the engine could not install as it was
    compiled, from the offsets of its relocations, labels and DMBs.
    Nothing reassembles a stored entry, so this, the digest and the
    decode of the placed bytes (:meth:`XlatCache.records`, which holds
    the code to its instruction lengths) are its only checks."""
    if (relocs and max(relocs) > size - 8) \
            or (labels and max(labels) > size) \
            or (dmbs and max(dmbs) >= size):
        raise ValueError("an offset lies outside the code")
    if len(dmbs) != n_origins:
        raise ValueError(f"{len(dmbs)} DMBs but {n_origins} fence origins")


def _entry_from_bytes(entry: bytes) -> tuple[CompiledBlock, OptStats]:
    """The artifact :func:`_entry_to_bytes` stored; ``ValueError``,
    ``IndexError`` or ``struct.error`` when the digest, the schema,
    the counts or the layout disagree with what is there."""
    if hashlib.sha256(memoryview(entry)[_DIGEST:]).digest() \
            != entry[:_DIGEST]:
        raise ValueError("payload digest mismatch")
    tag = _schema_tag()
    if not entry.startswith(tag, _DIGEST):
        raise ValueError("not a current-schema entry")
    at = _DIGEST + len(tag)
    (guest_pc, guest_insns, op_count, code_size, n_insns, n_relocs,
     n_labels, n_dmbs, n_origins, n_requests, n_strings, n_opt, *opt) = \
        _HEADER.unpack_from(entry, at)
    if n_opt != len(_OPT_FIELDS):
        # Read positionally, a short list would shift every field.
        raise ValueError(f"{n_opt} optimizer counters")
    at += _HEADER.size
    n_offsets = n_relocs + n_labels + n_dmbs
    arrays = _arrays(n_offsets,
                     n_relocs + n_labels + n_origins + 4 * n_requests)
    ints = arrays.unpack_from(entry, at)
    at += arrays.size
    code = entry[at:at + code_size]
    at += code_size
    lengths = entry[at:at + n_insns]
    names = [None, *entry[at + n_insns:].decode().split("\0")]
    if len(code) != code_size or len(lengths) != n_insns \
            or names.pop() != "" or len(names) != n_strings + 1:
        raise ValueError("the code, its lengths or the string table is "
                         "cut short")
    # Offsets and strings both start with the relocations' and the
    # labels'; the strings go on with the fence origins, then each
    # helper request's four fields.
    named = n_relocs + n_labels
    relocs, labels = ints[:n_relocs], ints[n_relocs:named]
    dmbs = ints[named:n_offsets]
    _check_layout(code_size, relocs, labels, dmbs, n_origins)
    strings = list(map(names.__getitem__, ints[n_offsets:]))
    requests_at = named + n_origins
    linked = LinkedCode(code, tuple(zip(relocs, strings)),
                        dict(zip(strings[n_relocs:named], labels)),
                        dmbs, lengths)
    requests = [
        HelperRequest(label, helper,
                      tuple(args.split(",")) if args else (), ret)
        for label, helper, args, ret in zip(*[iter(
            strings[requests_at:])] * 4)]
    return CompiledBlock(guest_pc, linked, requests, guest_insns,
                         op_count, strings[named:requests_at]), \
        OptStats(*opt)


@dataclass(slots=True)
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
        #: Instruction bytes -> the ``(Insn, size)`` record they decode
        #: to, for :meth:`records`: part of the memory level.
        self._decoded: dict[bytes, tuple[Insn, int]] = {}

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
            body = self._disk.read(key)
            entry = None if body is None else _entry_from_bytes(body)
        except (ValueError, IndexError, struct.error):
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
        # The linked form alone, as a disk hit rebuilds it: the
        # records only serve the install that follows this compile.
        self._remember(key, (replace(compiled, insns=[]), opt))
        _STATS.stores += 1
        if self._disk.write(key, _entry_to_bytes(compiled, opt)) \
                and self._disk.walk_due():
            self.evict_to_budget(keep=key)

    def refuse(self, key: str, hit: XlatHit) -> None:
        """Take back ``hit``, which the engine could not install (its
        placed code does not decode as its instruction lengths say, or
        it names a label or a helper the engine does not have): a
        counted miss after all, and
        out of the memory level, so the put of the fresh compile that
        follows replaces it on both levels."""
        self._mem.pop(key, None)
        _STATS.hits -= 1
        if hit.source == "disk":
            _STATS.disk_hits -= 1
        else:
            _STATS.memory_hits -= 1
        _STATS.misses += 1
        _STATS.corrupt_entries += 1

    def records(self, code: bytes, base: int,
                lengths: bytes | None = None
                ) -> dict[int, tuple[Insn, int]]:
        """The records a hit's placed ``code`` at ``base`` seeds the
        machine with, one per stored instruction length (walked from
        the code when none are given), decoded through this cache's
        memo (see
        :meth:`~repro.isa.common.InsnCoder.decode_block`), which is
        emptied whenever it grows past :data:`DECODE_MEMO_ENTRIES`.
        Raises :class:`~repro.errors.DecodeError` when the code is not
        the instructions its lengths describe."""
        memo = self._decoded
        records = CODER.decode_block(code, base, memo, lengths)
        if len(memo) > DECODE_MEMO_ENTRIES:
            memo.clear()
        return records

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
        """Drop the memory level and the decode memo; returns the
        number of entries dropped."""
        removed = len(self._mem)
        self._mem.clear()
        self._decoded.clear()
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
#: What :func:`get_cache` returned, by the
#: :func:`~repro.store.resolution_key` it was called under: the
#: directory is resolved once per process and environment.
_RESOLVED: dict[tuple, XlatCache | None] = {}


def get_cache(ns: str = "") -> XlatCache | None:
    """The cache of namespace ``ns`` (the ambient one when ``ns`` is
    "") under the environment's root, or ``None`` if disabled."""
    key = resolution_key(ns)
    try:
        return _RESOLVED[key]
    except KeyError:
        pass
    cache = None
    if enabled():
        directory = str(cache_dir(ns))
        cache = _INSTANCES.get(directory)
        if cache is None:
            cache = _INSTANCES[directory] = XlatCache(Path(directory))
    _RESOLVED[key] = cache
    return cache


def reset_memory() -> int:
    """Drop every in-process memory level (disk survives); used by the
    warm/cold benchmark to attribute hits to the persistent layer."""
    return sum(cache.clear_memory() for cache in _INSTANCES.values())
