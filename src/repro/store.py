"""Content-addressed, namespaced, byte-budgeted directory store.

The disk level under the persistent translation cache
(:mod:`repro.dbt.xlat_cache`).  A translated block is a pure function
of its inputs, so an entry keyed by a content fingerprint can never go
stale: the store moves text and never interprets it, while keys,
salted-module lists, codecs and counters stay with the cache that owns
their meaning (:func:`code_salt` only digests a list it is given).

Layout: ``<root>/[<namespace>/]<key[:2]>/<key>.json`` — sharded by the
first two hex digits of the fingerprint, so directory fan-out stays
bounded for large sweeps.  Entries are written atomically (temp file +
``os.replace``): concurrent pool workers are safe, last writer wins
with an equivalent entry, and a reader sees a whole entry or none.

:class:`StoreEnv` resolves one cache's location from the environment:
``<env_var>`` unset uses ``<cwd>/.repro-cache/<default_name>``, a path
overrides the root, and ``0``/``off``/``none``/``disabled`` turns the
cache off.  ``<namespace_env>`` names a *namespace* — a subdirectory
of the root.  The serve front-end scopes each tenant's entries under
its namespace; eviction and :meth:`DiskStore.clear` touch only the
active namespace, and :func:`namespace_usage` enumerates them all for
``python -m repro cache stats``.
"""

from __future__ import annotations

import hashlib
import importlib
import inspect
import os
import tempfile
import threading
from dataclasses import dataclass
from functools import cache
from pathlib import Path

OFF_VALUES = frozenset({"0", "off", "none", "disabled"})


@cache
def code_salt(modules: tuple[str, ...]) -> str:
    """sha256 over the source of ``modules``, in order: the part of a
    cache key that changes whenever code a cached value depends on is
    edited.  Computed once per process and module list."""
    hasher = hashlib.sha256()
    for name in modules:
        module = importlib.import_module(name)
        try:
            hasher.update(inspect.getsource(module).encode())
        except (OSError, TypeError):  # pragma: no cover - frozen envs
            hasher.update(module.__name__.encode())
    return hasher.hexdigest()


def sanitize_namespace(raw: str) -> str:
    """``raw`` reduced to a safe path component, or "" for the root.

    Only ``[A-Za-z0-9._-]`` survive, and a name reduced to dots alone
    is dropped entirely — ``..`` must never become a path component.
    """
    ns = "".join(c for c in raw.strip() if c.isalnum() or c in "._-")
    if not ns.strip("."):
        return ""
    return ns


@dataclass(frozen=True)
class StoreEnv:
    """One cache's environment knobs, re-read on every call so a
    scoped namespace or a monkeypatched root takes effect at once."""

    env_var: str
    namespace_env: str
    default_name: str

    def _setting(self) -> str:
        return os.environ.get(self.env_var, "").strip()

    def enabled(self) -> bool:
        return self._setting().lower() not in OFF_VALUES

    def namespace(self) -> str:
        """The active namespace (sanitized), or "" for the root."""
        return sanitize_namespace(
            os.environ.get(self.namespace_env, ""))

    def base_dir(self) -> Path:
        """The store root, *before* namespace scoping."""
        override = self._setting()
        if override and override.lower() not in OFF_VALUES:
            return Path(override)
        return Path.cwd() / ".repro-cache" / self.default_name

    def cache_dir(self) -> Path:
        base = self.base_dir()
        ns = self.namespace()
        return base / ns if ns else base

    def namespace_usage(self) -> dict[str, dict]:
        """:func:`namespace_usage` of this cache's root."""
        return namespace_usage(self.base_dir())

    def clear(self) -> int:
        """Remove every disk entry of the active namespace (none when
        the cache is off); returns the number of files removed."""
        return DiskStore(self.cache_dir()).clear() \
            if self.enabled() else 0


def _shard_entries(shard: Path) -> list[tuple[float, int, Path]]:
    """(mtime, size, path) of one shard directory's entry files."""
    found = []
    for path in shard.glob("*.json"):
        try:
            stat = path.stat()
        except OSError:  # pragma: no cover - concurrent removal
            continue
        found.append((stat.st_mtime, stat.st_size, path))
    return found


class DiskStore:
    """The entries of one namespace directory.

    ``max_bytes`` is the budget :meth:`evict_to_budget` enforces; 0
    means entries are never evicted.

    Sizing the store means walking it, so a writer does not do that
    per entry.  Each walk leaves this instance an *allowance*, a
    quarter of the headroom it found; :meth:`write` spends it (an
    overwrite in full, so the estimate errs high, never low) and
    :meth:`walk_due` asks for the next walk only once it is gone.  A
    quarter, so four writers that sized the store together cannot
    overfill it between them, give or take the entry each was writing
    when its allowance ran out; one still holding an allowance from
    before others filled the store can carry the total over by that
    much (at most a quarter of the budget) until its next walk, which
    trims exactly.  A store at its budget has no headroom to hand out
    and is walked on every write; there is no low-water mark because
    no committed workload fills its budget.

    One lock per instance covers each write's rename and charge and
    the whole walk, so threads sharing an instance neither lose a
    charge nor have a walk hand out headroom a write has since used:
    the allowance never exceeds a quarter of the true headroom.
    """

    def __init__(self, directory: Path, max_bytes: int = 0):
        self.directory = Path(directory)
        self.max_bytes = max_bytes
        #: Bytes this instance may still write before it must walk
        #: again; nothing until the first walk has sized the store.
        self._allowance = 0
        self._lock = threading.Lock()

    def path(self, key: str) -> Path:
        return self.directory / key[:2] / f"{key}.json"

    def read(self, key: str) -> str | None:
        """The entry's text, or ``None`` when there is none.  Whether
        the text still decodes is the caller's concern: a damaged
        entry is a miss there and the next :meth:`write` replaces it."""
        try:
            return self.path(key).read_text()
        except OSError:
            return None

    def write(self, key: str, text: str) -> bool:
        """Atomically (re)place one entry; ``False`` when the
        directory is not writable (a cache is an accelerator, never a
        correctness dependency)."""
        path = self.path(key)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
            try:
                with os.fdopen(fd, "w") as fh:
                    fh.write(text)
                with self._lock:
                    os.replace(tmp, path)
                    self._allowance -= len(text.encode())
            except BaseException:
                os.unlink(tmp)
                raise
        except OSError:  # pragma: no cover - read-only cache dir
            return False
        return True

    def walk_due(self) -> bool:
        """Whether this instance has written as much as its last walk
        allowed, so the budget needs :meth:`evict_to_budget` now."""
        return bool(self.max_bytes) and self._allowance <= 0

    def _shards(self) -> list[Path]:
        if not self.directory.is_dir():
            return []
        return [child for child in self.directory.iterdir()
                if child.is_dir()]

    def entries(self) -> list[tuple[float, int, Path]]:
        """(mtime, size, path) of every entry, oldest first."""
        found = [entry for shard in self._shards()
                 for entry in _shard_entries(shard)]
        found.sort(key=lambda item: (item[0], item[2].name))
        return found

    def usage(self) -> tuple[int, int]:
        """(entry count, total bytes)."""
        entries = self.entries()
        return len(entries), sum(size for _, size, _ in entries)

    def evict_to_budget(self, keep: str | None = None) -> list[str]:
        """Drop least-recently-written entries until the store fits
        ``max_bytes``; the ``keep`` key (the entry just written)
        survives even when it alone exceeds the budget.  Returns the
        evicted keys."""
        if not self.max_bytes:
            return []
        with self._lock:
            entries = self.entries()
            total = sum(size for _, size, _ in entries)
            evicted = []
            for _, size, path in entries:
                if total <= self.max_bytes:
                    break
                if path.stem == keep:
                    continue
                try:
                    path.unlink()
                except OSError:  # pragma: no cover - concurrent removal
                    continue
                total -= size
                evicted.append(path.stem)
            self._allowance = max(self.max_bytes - total, 0) // 4
        return evicted

    def clear(self) -> int:
        """Remove every entry, plus the ``*.tmp`` orphans a writer
        killed between ``mkstemp`` and ``os.replace`` leaves behind
        (nothing else ever collects those); returns the number of
        files removed."""
        removed = 0
        for shard in self._shards():
            for pattern in ("*.json", "*.tmp"):
                for path in shard.glob(pattern):
                    try:
                        path.unlink()
                        removed += 1
                    except OSError:  # pragma: no cover
                        pass
        return removed


def _looks_like_shard(directory: Path) -> bool:
    """Shards are two hex digits holding only entry files; a
    namespace that *spells* like a shard still contains shard
    subdirectories, so contents disambiguate the two."""
    name = directory.name
    if len(name) != 2 or any(c not in "0123456789abcdef" for c in name):
        return False
    try:
        return not any(child.is_dir() for child in directory.iterdir())
    except OSError:  # pragma: no cover - concurrent removal
        return True


def namespace_usage(base: Path) -> dict[str, dict]:
    """Per-namespace ``{"entries": n, "bytes": b}`` of the store
    rooted at ``base``, keyed by namespace name ("" is the root
    namespace); empty when the root does not exist."""
    if not base.is_dir():
        return {}
    usage = {"": {"entries": 0, "bytes": 0}}
    for child in sorted(base.iterdir()):
        if not child.is_dir():
            continue
        if _looks_like_shard(child):
            name, entries = "", _shard_entries(child)
        else:
            name, entries = child.name, DiskStore(child).entries()
        row = usage.setdefault(name, {"entries": 0, "bytes": 0})
        row["entries"] += len(entries)
        row["bytes"] += sum(size for _, size, _ in entries)
    return usage
