"""Content-addressed, namespaced, byte-budgeted directory store.

The disk level under the persistent translation cache
(:mod:`repro.dbt.xlat_cache`).  A translated block is a pure function
of its inputs, so an entry keyed by a content fingerprint can never go
stale: the store moves text and never interprets it, while keys,
salted-module lists, codecs and counters stay with the cache that owns
their meaning (:func:`code_salt` only digests a list it is given).

Layout: ``<root>/[<namespace>/]<key>.json`` — a regular file is an
entry and a directory is a namespace, so a namespace is listed once
and never descended into.  Entries are written atomically (temp file
+ ``os.replace``): concurrent pool workers are safe, last writer wins
with an equivalent entry, and a reader sees a whole entry or none.

The location comes from the environment, re-read on every call so a
scoped namespace or a monkeypatched root takes effect at once:
:data:`ENV_VAR` unset uses ``<cwd>/.repro-cache/xlat``, a path
overrides the root, and ``0``/``off``/``none``/``disabled`` turns the
cache off.  :data:`NAMESPACE_ENV` names a *namespace* — a subdirectory
of the root.  The serve front-end scopes each tenant's entries under
its namespace; eviction and :func:`clear_disk_cache` touch only the
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
from functools import cache
from pathlib import Path

#: The root override (a path, or an :data:`OFF_VALUES` spelling).
ENV_VAR = "REPRO_XLAT_CACHE"
#: The active namespace, a subdirectory of the root.
NAMESPACE_ENV = "REPRO_XLAT_CACHE_NS"
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


def enabled() -> bool:
    return os.environ.get(ENV_VAR, "").strip().lower() not in OFF_VALUES


def namespace() -> str:
    """The active namespace (sanitized), or "" for the root."""
    return sanitize_namespace(os.environ.get(NAMESPACE_ENV, ""))


def base_dir() -> Path:
    """The store root, *before* namespace scoping."""
    override = os.environ.get(ENV_VAR, "").strip()
    if override and enabled():
        return Path(override)
    return Path.cwd() / ".repro-cache" / "xlat"


def cache_dir() -> Path:
    return base_dir() / namespace()


def clear_disk_cache() -> int:
    """Remove every disk entry of the active namespace (none when the
    cache is off); returns the number of files removed."""
    return DiskStore(cache_dir()).clear() if enabled() else 0


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
        return self.directory / f"{key}.json"

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
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
            try:
                with os.fdopen(fd, "w") as fh:
                    fh.write(text)
                with self._lock:
                    os.replace(tmp, self.path(key))
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

    def _files(self, *suffixes: str) -> list[os.DirEntry]:
        """This namespace's regular files ending in ``suffixes``, from
        one listing; a subdirectory is another namespace, whatever its
        name, and is never counted, sized or removed."""
        try:
            with os.scandir(self.directory) as listing:
                return [item for item in listing
                        if item.name.endswith(suffixes)
                        and item.is_file(follow_symlinks=False)]
        except OSError:  # no directory yet
            return []

    def entries(self) -> list[tuple[float, int, Path]]:
        """(mtime, size, path) of every entry, oldest first."""
        found = []
        for item in self._files(".json"):
            try:
                stat = item.stat()
            except OSError:  # pragma: no cover - concurrent removal
                continue
            found.append((stat.st_mtime, stat.st_size, Path(item.path)))
        found.sort(key=lambda entry: (entry[0], entry[2].name))
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
        for item in self._files(".json", ".tmp"):
            try:
                os.unlink(item.path)
                removed += 1
            except OSError:  # pragma: no cover
                pass
        return removed


def namespace_usage(base: Path | None = None) -> dict[str, dict]:
    """Per-namespace ``{"entries": n, "bytes": b}`` of the store
    rooted at ``base`` (default :func:`base_dir`), keyed by namespace
    name ("" is the root's own entries); empty when the root does not
    exist."""
    base = base_dir() if base is None else base
    if not base.is_dir():
        return {}
    usage = {}
    for name in ["", *sorted(child.name for child in base.iterdir()
                             if child.is_dir())]:
        count, size = DiskStore(base / name).usage()
        usage[name] = {"entries": count, "bytes": size}
    return usage
