"""Content-addressed, namespaced, byte-budgeted entry store.

The disk level under the persistent translation cache
(:mod:`repro.dbt.xlat_cache`).  A translated block is a pure function
of its inputs, so an entry keyed by a content fingerprint can never go
stale: the store moves text and never interprets it, while keys,
salted-module lists, codecs and counters stay with the cache that owns
their meaning (:func:`code_salt` only digests a list it is given).

Layout: ``<root>/[<namespace>/]`` holds one SQLite database,
:data:`DB_NAME` (in WAL mode, so also its ``-wal``/``-shm`` files
while a connection is open), with one row per entry: the key, the
entry's text byte for byte, and a write sequence number.  A database
appears whole: it is set up under a temporary name and linked into
place.  Any other regular file is ignored (``<key>.json`` entries of
the old file-per-entry layout and ``*.tmp`` orphans are only ever
swept by :meth:`DiskStore.clear`), and a subdirectory is a namespace,
listed once and never descended into.  A write is one ``INSERT OR
REPLACE``: concurrent pool workers and threads are safe, last writer
wins with an equivalent entry, and a reader sees a whole entry or
none.

The root comes from the environment, re-read on every call so a
monkeypatched root takes effect at once: :data:`ENV_VAR` unset uses
``<cwd>/.repro-cache/xlat``, a path overrides the root, and
``0``/``off``/``none``/``disabled`` turns the cache off.  A
*namespace* is a subdirectory of the root: a job's own, passed to
:func:`cache_dir` as an argument, else the ambient
:data:`NAMESPACE_ENV`.  Eviction and :func:`clear_disk_cache` touch
only the ambient namespace; :func:`namespace_usage` lists them all.
"""

from __future__ import annotations

import hashlib
import importlib
import inspect
import os
import tempfile
import threading
from collections import OrderedDict
from functools import cache
from pathlib import Path

#: The root override (a path, or an :data:`OFF_VALUES` spelling).
ENV_VAR = "REPRO_XLAT_CACHE"
#: The ambient namespace, a subdirectory of the root.
NAMESPACE_ENV = "REPRO_XLAT_CACHE_NS"
OFF_VALUES = frozenset({"0", "off", "none", "disabled"})
#: The database file of one namespace directory.
DB_NAME = "entries.sqlite"
#: Stray files :meth:`DiskStore.clear` removes: the entries of the old
#: file-per-entry layout, and the temporary files of a writer (of that
#: layout, or setting up a database) killed halfway.
STRAY_SUFFIXES = (".json", ".tmp")


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


def cache_dir(ns: str = "") -> Path:
    """The directory of namespace ``ns``, or of the ambient one
    (:data:`NAMESPACE_ENV`) when ``ns`` is ""."""
    return base_dir() / (sanitize_namespace(ns) or namespace())


def clear_disk_cache() -> int:
    """Remove every disk entry of the active namespace (none when the
    cache is off); returns the number removed."""
    return DiskStore(cache_dir()).clear() if enabled() else 0


# ----------------------------------------------------------------------
# Connections: per process, not per store
# ----------------------------------------------------------------------
#: Imported by the first :class:`DiskStore`, so a run with the cache
#: off never loads it.
sqlite3 = None

#: At most this many databases are open at once; the least recently
#: used one is closed to make room.  Each open connection holds a page
#: cache and its files, and a benchmark pass opens a fresh store.
MAX_OPEN = 2

#: database path -> (connection, (st_dev, st_ino) of the file it has
#: open), least recently used first.  Every use of a connection, and
#: every change to this table, holds :data:`_LOCK`, so one connection
#: is safe to share between the threads of a process.
_OPEN: OrderedDict[str, tuple] = OrderedDict()
_LOCK = threading.RLock()
#: Connections a forked child inherited.  SQLite connections must not
#: cross a fork, so the child never uses them, and never closes them
#: either: closing runs SQLite's unlock and checkpoint code on state
#: that belongs to the parent.
_INHERITED: list = []


def _after_fork_in_child() -> None:
    global _LOCK
    _INHERITED.extend(conn for conn, _ in _OPEN.values())
    _OPEN.clear()
    _LOCK = threading.RLock()


os.register_at_fork(after_in_child=_after_fork_in_child)


def _identity(path: str) -> tuple[int, int] | None:
    try:
        stat = os.stat(path)
    except FileNotFoundError:
        return None
    return stat.st_dev, stat.st_ino


def _open(path: str):
    """A connection to the database at ``path``, set up for the store
    (``sqlite3`` must be imported)."""
    conn = sqlite3.connect(path, timeout=60, isolation_level=None,
                           check_same_thread=False)
    try:
        conn.execute("PRAGMA journal_mode=WAL")
        conn.execute("PRAGMA synchronous=NORMAL")
        conn.execute("PRAGMA cache_size=-64")
        # seq orders entries by write: REPLACE deletes the old row and
        # inserts a new one above every other.
        conn.execute("CREATE TABLE IF NOT EXISTS entries ("
                     "seq INTEGER PRIMARY KEY, "
                     "key TEXT NOT NULL UNIQUE, "
                     "body BLOB NOT NULL)")
    except BaseException:
        conn.close()
        raise
    return conn


def _create(path: str) -> None:
    """Put a set-up database at ``path`` unless another process has.

    Switching a new database to WAL takes a lock SQLite does not wait
    for, so writers that all found no database and set one up in place
    would fail with "database is locked".  Each sets one up under a
    temporary name and links it into place; only the first link lands.
    """
    directory = os.path.dirname(path)
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    os.close(fd)
    try:
        _open(tmp).close()
        try:
            os.link(tmp, path)
        except FileExistsError:
            pass
    finally:
        os.unlink(tmp)


def _connection(path: str, create: bool):
    """This process's connection to the database at ``path``, or
    ``None`` when there is none and ``create`` is off.  Call with
    :data:`_LOCK` held.

    A database removed or replaced since it was opened (say the cache
    directory was deleted under a running server) is reopened, so no
    write lands in an unlinked file."""
    identity = _identity(path)
    entry = _OPEN.get(path)
    if entry is not None:
        if entry[1] == identity:
            _OPEN.move_to_end(path)
            return entry[0]
        del _OPEN[path]
        entry[0].close()
    if identity is None:
        if not create:
            return None
        _create(path)
    conn = _open(path)
    _OPEN[path] = (conn, _identity(path))
    while len(_OPEN) > MAX_OPEN:
        _OPEN.popitem(last=False)[1][0].close()
    return conn


class DiskStore:
    """The entries of one namespace directory.

    ``max_bytes`` is the budget :meth:`evict_to_budget` enforces; 0
    means entries are never evicted.  Every database failure
    (``sqlite3.Error``, ``OSError``) is a miss, an empty store, or
    :meth:`write` returning ``False``: a cache is an accelerator,
    never a correctness dependency.

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

    One lock per instance covers each write's insert and charge and
    the whole walk, so threads sharing an instance neither lose a
    charge nor have a walk hand out headroom a write has since used:
    the allowance never exceeds a quarter of the true headroom.  A
    walk is one transaction, so a walk in another process never
    interleaves with it.
    """

    def __init__(self, directory: Path, max_bytes: int = 0):
        global sqlite3
        if sqlite3 is None:
            import sqlite3
        self.directory = Path(directory)
        self.max_bytes = max_bytes
        #: Bytes this instance may still write before it must walk
        #: again; nothing until the first walk has sized the store.
        self._allowance = 0
        self._lock = threading.Lock()
        #: The database file, as a string: no path object per call.
        self._db = os.path.join(self.directory, DB_NAME)

    def read(self, key: str) -> str | None:
        """The entry's text, or ``None`` when there is none.  Whether
        the text still decodes is the caller's concern: a damaged
        entry is a miss there and the next :meth:`write` replaces it."""
        try:
            with _LOCK:
                conn = _connection(self._db, create=False)
                row = None if conn is None else conn.execute(
                    "SELECT CAST(body AS TEXT) FROM entries WHERE key = ?",
                    (key,)).fetchone()
            return None if row is None else row[0]
        except (sqlite3.Error, OSError):
            return None

    def write(self, key: str, text: str) -> bool:
        """(Re)place one entry; ``False`` when the store cannot be
        written."""
        body = text.encode()
        try:
            with self._lock, _LOCK:
                _connection(self._db, create=True).execute(
                    "INSERT OR REPLACE INTO entries (key, body) "
                    "VALUES (?, ?)", (key, body))
                self._allowance -= len(body)
        except (sqlite3.Error, OSError):
            return False
        return True

    def walk_due(self) -> bool:
        """Whether this instance has written as much as its last walk
        allowed, so the budget needs :meth:`evict_to_budget` now."""
        return bool(self.max_bytes) and self._allowance <= 0

    def entries(self) -> list[tuple[int, int, str]]:
        """(write sequence, size in bytes, key) of every entry, least
        recently written first; raises ``sqlite3.Error`` or
        ``OSError`` when the store cannot be read."""
        with _LOCK:
            conn = _connection(self._db, create=False)
            return [] if conn is None else conn.execute(
                "SELECT seq, length(body), key FROM entries "
                "ORDER BY seq").fetchall()

    def usage(self) -> tuple[int, int]:
        """(entry count, total bytes); an unreadable store is empty."""
        try:
            entries = self.entries()
        except (sqlite3.Error, OSError):
            return 0, 0
        return len(entries), sum(size for _, size, _ in entries)

    def evict_to_budget(self, keep: str | None = None) -> list[str]:
        """Drop least-recently-written entries until the store fits
        ``max_bytes``; the ``keep`` key (the entry just written)
        survives even when it alone exceeds the budget.  Returns the
        evicted keys."""
        if not self.max_bytes:
            return []
        with self._lock, _LOCK:
            try:
                conn = _connection(self._db, create=False)
                if conn is None:
                    return []
                with conn:
                    conn.execute("BEGIN IMMEDIATE")
                    entries = self.entries()
                    total = sum(size for _, size, _ in entries)
                    evicted = []
                    for _, size, key in entries:
                        if total <= self.max_bytes:
                            break
                        if key != keep:
                            total -= size
                            evicted.append(key)
                    conn.executemany("DELETE FROM entries WHERE key = ?",
                                     [(key,) for key in evicted])
            except (sqlite3.Error, OSError):
                return []
            self._allowance = max(self.max_bytes - total, 0) // 4
        return evicted

    def clear(self) -> int:
        """Remove every entry, and every stray file
        (:data:`STRAY_SUFFIXES`) here; returns the number removed."""
        removed = 0
        try:
            with _LOCK:
                conn = _connection(self._db, create=False)
                if conn is not None:
                    removed = conn.execute("DELETE FROM entries").rowcount
                    conn.execute("VACUUM")
        except (sqlite3.Error, OSError):
            pass
        try:
            with os.scandir(self.directory) as listing:
                strays = [item.path for item in listing
                          if item.name.endswith(STRAY_SUFFIXES)
                          and item.is_file(follow_symlinks=False)]
        except OSError:  # no directory yet
            strays = []
        for path in strays:
            try:
                os.unlink(path)
                removed += 1
            except OSError:  # pragma: no cover - concurrent removal
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
