"""The disk-store contract (:mod:`repro.store`), stated once.

Every case in :class:`TestContract` runs twice: against a bare
:class:`~repro.store.DiskStore` resolved through the store's own
environment functions and through the translation cache built on it,
so the namespace / traversal / clear / old-layout-file /
damaged-entry / concurrent-writer guarantees are the same guarantees
for both.  What only the cache
means — keys, codecs, counters, the memory LRU, warm-vs-cold identity
— stays in the cache's own suite.
"""

import gc
import json
import multiprocessing
import os
import re
import subprocess
import sys
import threading
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro import store
from repro.dbt import xlat_cache
from repro.isa.arm.assembler import parse
from repro.store import DB_NAME, DiskStore
from repro.tcg.backend_arm import CompiledBlock
from repro.tcg.optimizer import OptStats
from tests.store_entries import rewrite_entry

REPO = Path(__file__).parents[1]
SRC = REPO / "src" / "repro"


# ----------------------------------------------------------------------
# Subjects: one surface over the bare store and the cache
# ----------------------------------------------------------------------
def _bare_subject():
    """A DiskStore driven directly, resolved through the store's two
    env names; entries are JSON bytes decoded by the subject, as a
    cache would."""

    def key(i):
        return f"{i:02x}" * 32

    def put(i):
        if store.enabled():
            DiskStore(store.cache_dir()).write(
                key(i), json.dumps({"value": i}).encode())

    def get(i):
        body = DiskStore(store.cache_dir()).read(key(i)) \
            if store.enabled() else None
        try:
            return None if body is None else json.loads(body)["value"]
        except ValueError:
            return None

    return SimpleNamespace(
        ENV_VAR=store.ENV_VAR, NAMESPACE_ENV=store.NAMESPACE_ENV,
        enabled=store.enabled, namespace=store.namespace,
        base_dir=store.base_dir, cache_dir=store.cache_dir,
        namespace_usage=store.namespace_usage,
        clear_disk_cache=store.clear_disk_cache, key=key, put=put,
        get=get)


def _xlat_subject():
    def key(i):
        return xlat_cache.block_key("fp", 0x400000 + 16 * i, b"\x90")

    def entry(i):
        return CompiledBlock.from_records(
            guest_pc=0x400000 + 16 * i,
            records=parse(f"block_{i}:\n" + "    nop\n" * 40
                          + "    dmbld\n    ret\n"),
            helper_requests=[], guest_insns=3, op_count=7,
            fence_origins=["RMOV->ld;Frm"]), OptStats(folded=i)

    def put(i):
        cache = xlat_cache.get_cache()
        if cache is not None:
            cache.put(key(i), *entry(i))

    def get(i):
        xlat_cache.reset_memory()  # the disk level alone answers
        cache = xlat_cache.get_cache()
        hit = cache.get(key(i)) if cache is not None else None
        if hit is not None:
            assert (hit.compiled, hit.opt_stats) == entry(i)
        return hit

    return SimpleNamespace(
        ENV_VAR=xlat_cache.ENV_VAR,
        NAMESPACE_ENV=xlat_cache.NAMESPACE_ENV,
        enabled=xlat_cache.enabled, namespace=xlat_cache.namespace,
        base_dir=xlat_cache.base_dir, cache_dir=xlat_cache.cache_dir,
        namespace_usage=xlat_cache.namespace_usage,
        clear_disk_cache=xlat_cache.clear_disk_cache,
        key=key, put=put, get=get)


SUBJECTS = {"store": _bare_subject, "xlat": _xlat_subject}


@pytest.fixture(params=sorted(SUBJECTS))
def subject(request, tmp_path, monkeypatch):
    """The subject, enabled and rooted at ``tmp_path / "root"`` in the
    root namespace; ``subject.scope(ns)`` switches namespace."""
    subj = SUBJECTS[request.param]()
    subj.root = tmp_path / "root"
    monkeypatch.setenv(subj.ENV_VAR, str(subj.root))
    monkeypatch.delenv(subj.NAMESPACE_ENV, raising=False)
    subj.scope = lambda ns: monkeypatch.setenv(subj.NAMESPACE_ENV, ns)
    subj.off = lambda: monkeypatch.setenv(subj.ENV_VAR, "off")
    yield subj
    xlat_cache.reset_memory()


def _files(directory: Path, pattern: str) -> list[Path]:
    return sorted(directory.rglob(pattern))


def _keys(directory: Path) -> list[str]:
    return [key for _, _, key in DiskStore(directory).entries()]


# ----------------------------------------------------------------------
# The contract
# ----------------------------------------------------------------------
class TestContract:
    def test_round_trip_on_the_one_layout(self, subject):
        assert subject.get(0) is None
        subject.put(0)
        # <root>/[<ns>/]<DB_NAME> holds the entries, for every subject;
        # nothing else is written (the database's own -wal/-shm aside).
        assert _files(subject.root, DB_NAME) == [subject.root / DB_NAME]
        assert all(path.name.startswith(DB_NAME)
                   for path in _files(subject.root, "*"))
        assert _keys(subject.root) == [subject.key(0)]
        assert subject.get(0) is not None
        assert subject.get(1) is None
        subject.scope("tenant")
        subject.put(1)
        assert _files(subject.root, DB_NAME) == [
            subject.root / DB_NAME, subject.root / "tenant" / DB_NAME]
        assert [path for path in _files(subject.root, "*")
                if path.is_dir()] == [subject.root / "tenant"]
        assert _keys(subject.root) == [subject.key(0)]
        assert _keys(subject.root / "tenant") == [subject.key(1)]

    def test_cache_dir_override(self, subject):
        assert subject.base_dir() == subject.root
        assert subject.cache_dir() == subject.root

    def test_off_switch_disables_the_disk_level(self, subject):
        subject.put(0)
        subject.off()
        assert not subject.enabled()
        assert subject.get(0) is None
        subject.put(1)
        assert subject.clear_disk_cache() == 0
        # Nothing was read, written or removed while off.
        assert _keys(subject.root) == [subject.key(0)]

    def test_namespace_becomes_a_subdirectory(self, subject):
        subject.scope("shard-3")
        assert subject.namespace() == "shard-3"
        assert subject.cache_dir() == subject.root / "shard-3"
        assert subject.base_dir() == subject.root

    def test_blank_namespace_is_the_root(self, subject):
        subject.scope("   ")
        assert subject.namespace() == ""
        assert subject.cache_dir() == subject.root

    def test_traversal_characters_cannot_escape(self, subject):
        # Separators are stripped; a name reduced to dots is dropped
        # entirely, so "../evil" cannot become a parent reference.
        subject.scope("../evil")
        assert subject.cache_dir() == subject.root / "..evil"
        subject.scope("..")
        assert subject.namespace() == ""
        assert subject.cache_dir() == subject.root
        subject.scope("../../etc")
        assert subject.namespace() == "....etc"  # no separators
        subject.scope("a/b\\c")
        assert subject.cache_dir() == subject.root / "abc"

    def test_namespaces_do_not_share_entries(self, subject):
        subject.scope("left")
        subject.put(0)
        assert subject.get(0) is not None
        # The other namespace starts cold and fills its own directory.
        subject.scope("right")
        assert subject.get(0) is None
        subject.put(0)
        assert subject.get(0) is not None
        for ns in ("left", "right"):
            assert len(DiskStore(subject.root / ns).entries()) == 1

    def test_clear_sweeps_entries_and_orphaned_tmp(self, subject):
        """A writer of the old file-per-entry layout killed between
        ``mkstemp`` and ``os.replace`` left a ``*.tmp`` orphan that
        nothing else removes; clear sweeps and counts it like any
        other removal."""
        subject.put(0)
        subject.put(1)
        orphan = subject.root / "deadbeef.tmp"
        orphan.write_text("{\"partial\":")
        assert subject.clear_disk_cache() == 3
        assert not orphan.exists()
        assert _files(subject.root, "*.json") == []
        assert _files(subject.root, "*.tmp") == []
        assert DiskStore(subject.root).usage() == (0, 0)
        assert subject.clear_disk_cache() == 0

    def test_old_layout_files_are_never_read_and_cleared(self, subject):
        """``<key>.json`` entries of the file-per-entry layout are
        neither read nor counted, even when one holds the very text
        the store would hold; clear removes them with the orphans."""
        subject.put(0)
        whole = DiskStore(subject.root).read(subject.key(0))
        subject.scope("tenant")
        for directory in (subject.root, subject.root / "tenant"):
            directory.mkdir(exist_ok=True)
            (directory / f"{subject.key(1)}.json").write_bytes(whole)
            (directory / "tmpab12cd.tmp").write_bytes(whole[:9])
        for ns in ("", "tenant"):
            subject.scope(ns)
            assert subject.get(1) is None
        usage = subject.namespace_usage()
        assert usage == {"": {"entries": 1, "bytes": len(whole)},
                         "tenant": {"entries": 0, "bytes": 0}}
        assert subject.clear_disk_cache() == 2  # tenant: files only
        subject.scope("")
        assert subject.clear_disk_cache() == 3  # root: entry + files
        assert [path for path in _files(subject.root, "*")
                if not path.name.startswith(DB_NAME)] == \
            [subject.root / "tenant"]

    def test_clear_touches_only_the_active_namespace(self, subject):
        subject.put(0)                       # root namespace
        subject.scope("keep")
        subject.put(0)
        subject.scope("drop")
        subject.put(0)
        assert subject.clear_disk_cache() == 1
        assert subject.get(0) is None
        subject.scope("keep")
        assert subject.get(0) is not None
        subject.scope("")
        assert subject.get(0) is not None
        # ...and clearing the root leaves every tenant alone.
        assert subject.clear_disk_cache() == 1
        assert subject.namespace_usage()["keep"]["entries"] == 1

    @pytest.mark.parametrize("damage", ["garbage", "truncated", "empty"])
    def test_damaged_entry_is_a_miss_and_is_rewritten(self, subject,
                                                      damage):
        subject.put(0)
        key = subject.key(0)
        whole = DiskStore(subject.root).read(key)
        # "truncated" is what a torn, non-atomic write would have left.
        rewrite_entry(subject.root, key,
                      {"garbage": b"{ not json",
                       "truncated": whole[:len(whole) // 2],
                       "empty": b""}[damage])
        assert subject.get(0) is None
        subject.put(0)
        assert DiskStore(subject.root).read(key) == whole
        assert subject.get(0) is not None

    def test_missing_store_has_no_namespaces(self, subject):
        assert subject.namespace_usage() == {}

    def test_namespace_usage_enumerates_root_and_tenants(self, subject):
        subject.put(0)
        subject.put(1)
        subject.scope("alice")
        subject.put(0)
        usage = subject.namespace_usage()
        assert list(usage) == ["", "alice"]
        assert usage[""]["entries"] == 2
        assert usage["alice"]["entries"] == 1
        size = DiskStore(subject.root / "alice").entries()[0][1]
        assert usage["alice"]["bytes"] == size > 0
        assert usage[""]["bytes"] == DiskStore(subject.root).usage()[1]

    def test_shard_spelled_namespace_is_a_namespace(self, subject):
        # A tenant spelled like an entry file ("ab.json") is still a
        # directory, so the root never counts, sizes, clears or
        # evicts it.
        subject.scope("ab.json")
        subject.put(0)
        usage = subject.namespace_usage()
        assert usage["ab.json"]["entries"] == 1
        assert usage[""]["entries"] == 0
        subject.scope("")
        assert subject.clear_disk_cache() == 0
        assert DiskStore(subject.root, max_bytes=1).evict_to_budget() \
            == []
        subject.scope("ab.json")
        assert subject.get(0) is not None

    def test_concurrent_writers_in_one_namespace_are_safe(self, subject):
        subject.scope("shared")
        errors = []

        def writer():
            try:
                for _ in range(20):
                    subject.put(0)
                    # get() checks content: a torn entry would either
                    # fail to decode (None) or decode to a wrong value.
                    if subject.get(0) is None:
                        errors.append("entry vanished or tore")
            except Exception as exc:  # noqa: BLE001 - fail loud
                errors.append(exc)

        threads = [threading.Thread(target=writer) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert subject.get(0) is not None
        assert _files(subject.root, "*.tmp") == []
        assert subject.namespace_usage()["shared"]["entries"] == 1


# ----------------------------------------------------------------------
# DiskStore alone: the budget
# ----------------------------------------------------------------------
class TestBudget:
    KEYS = [f"{i:02x}" * 32 for i in range(8)]

    def _fill(self, disk: DiskStore, body: bytes = b"x" * 100):
        for key in self.KEYS:
            assert disk.write(key, body)

    def test_entries_are_oldest_first(self, tmp_path):
        disk = DiskStore(tmp_path)
        self._fill(disk)
        assert [key for _, _, key in disk.entries()] == self.KEYS
        assert disk.usage() == (8, 800)
        # A rewrite is the most recent write.
        assert disk.write(self.KEYS[0], b"y" * 100)
        assert [key for _, _, key in disk.entries()] == \
            self.KEYS[1:] + self.KEYS[:1]
        assert disk.usage() == (8, 800)

    def test_evicts_least_recently_written_down_to_budget(self, tmp_path):
        disk = DiskStore(tmp_path, max_bytes=300)
        self._fill(disk)
        assert disk.evict_to_budget() == self.KEYS[:5]
        assert [key for _, _, key in disk.entries()] == self.KEYS[5:]
        assert disk.evict_to_budget() == []

    def test_keep_survives_even_alone_over_budget(self, tmp_path):
        disk = DiskStore(tmp_path, max_bytes=1)
        self._fill(disk)
        assert disk.evict_to_budget(keep=self.KEYS[0]) == self.KEYS[1:]
        assert disk.read(self.KEYS[0]) == b"x" * 100

    def test_zero_budget_never_evicts(self, tmp_path):
        disk = DiskStore(tmp_path)
        self._fill(disk)
        assert disk.evict_to_budget() == []
        assert disk.usage() == (8, 800)

    def test_a_write_during_a_walk_keeps_its_charge(self, tmp_path):
        """A walk paused after listing the store while another thread
        writes: the walk must not hand out headroom the write has
        used.  With 1000 of 4000 bytes listed and 1000 more written,
        a walk that overwrites the write's charge leaves an allowance
        of 3000 // 4 = 750, above the true 2000 // 4 = 500."""
        disk = DiskStore(tmp_path, max_bytes=4000)
        assert disk.write(self.KEYS[0], b"x" * 1000)
        listed, resume, writer_waits = (threading.Event()
                                        for _ in range(3))
        plain = disk.entries

        def paused_listing():
            found = plain()
            listed.set()
            resume.wait(timeout=60)
            return found

        disk.entries = paused_listing

        class Signalling:
            """The instance's lock, announcing each acquirer, so the
            write below is known to be waiting on the walk."""

            def __init__(self, lock):
                self.lock = lock

            def __enter__(self):
                writer_waits.set()
                return self.lock.__enter__()

            def __exit__(self, *exc):
                return self.lock.__exit__(*exc)

        walk = threading.Thread(target=disk.evict_to_budget, daemon=True)
        walk.start()
        assert listed.wait(timeout=60)
        # The walk holds the lock now, so only the writer below enters
        # the wrapper.  (A store without the lock lets the write finish
        # at once and the walk then overwrites its charge.)
        if hasattr(disk, "_lock"):
            disk._lock = Signalling(disk._lock)

        def write():
            disk.write(self.KEYS[1], b"y" * 1000)
            writer_waits.set()

        writer = threading.Thread(target=write, daemon=True)
        writer.start()
        # Either the write is blocked on the walk, or (no lock) done.
        assert writer_waits.wait(timeout=60)
        resume.set()
        walk.join(timeout=60)
        writer.join(timeout=60)
        assert not walk.is_alive() and not writer.is_alive()
        assert disk.usage() == (2, 2000)
        assert disk._allowance <= (4000 - 2000) // 4


# ----------------------------------------------------------------------
# The put path: a running estimate, walked only when it runs out
# ----------------------------------------------------------------------
def _put_block():
    """One translation-cache entry; every put below stores this same
    content under its own key, so all entries are one size."""
    compiled = CompiledBlock.from_records(
        guest_pc=0x400000,
        records=parse("block:\n" + "    nop\n" * 40 + "    ret\n"),
        helper_requests=[], guest_insns=3, op_count=7)
    opt = OptStats()
    return compiled, opt, len(xlat_cache._entry_to_bytes(compiled, opt))


def _put_key(i: int) -> str:
    return xlat_cache.block_key("fp", 0x400000 + 16 * i, b"\x90")


def _overfill(directory: str, budget: int, first: int, count: int):
    compiled, opt, _ = _put_block()
    cache = xlat_cache.XlatCache(Path(directory), max_disk_bytes=budget)
    for i in range(first, first + count):
        cache.put(_put_key(i), compiled, opt)


class TestPutPath:
    @pytest.fixture()
    def walks(self, monkeypatch):
        """One item per walk of a namespace, whoever asked for it."""
        seen = []
        plain = DiskStore.entries

        def counted(self):
            seen.append(self.directory)
            return plain(self)

        monkeypatch.setattr(DiskStore, "entries", counted)
        return seen

    @pytest.mark.parametrize("puts", [600, 1200])
    def test_walks_do_not_grow_with_the_store(self, tmp_path, walks,
                                              puts):
        compiled, opt, size = _put_block()
        cache = xlat_cache.XlatCache(tmp_path)
        for i in range(puts):
            cache.put(_put_key(i), compiled, opt)
        assert len(walks) <= 8
        assert cache.disk_usage() == (puts, puts * size)

    def test_overwrites_do_not_inflate_the_estimate_past_a_walk(
            self, tmp_path, walks):
        """Every overwrite is charged as if it were new bytes, so the
        allowance (a quarter of 40 entries' headroom) runs out every
        tenth put; the walk then finds one entry and hands the same
        allowance out again.  An estimate that only ever grew would
        end up walking on every put."""
        compiled, opt, size = _put_block()
        cache = xlat_cache.XlatCache(tmp_path,
                                     max_disk_bytes=41 * size)
        before = xlat_cache.cache_stats().evictions
        for _ in range(200):
            cache.put(_put_key(0), compiled, opt)
        assert 200 // 10 <= len(walks) <= 200 // 10 + 2
        assert xlat_cache.cache_stats().evictions == before
        assert cache.disk_usage() == (1, size)

    def test_a_store_at_its_budget_is_trimmed_on_every_put(
            self, tmp_path, walks):
        compiled, opt, size = _put_block()
        cache = xlat_cache.XlatCache(tmp_path, max_disk_bytes=5 * size)
        for i in range(30):
            cache.put(_put_key(i), compiled, opt)
            assert cache.disk_usage()[1] <= 5 * size
        cache.clear_memory()
        assert cache.get(_put_key(29)) is not None

    def test_explicit_eviction_walks_and_trims_exactly(self, tmp_path,
                                                       walks):
        compiled, opt, size = _put_block()
        roomy = xlat_cache.XlatCache(tmp_path)
        for i in range(12):
            roomy.put(_put_key(i), compiled, opt)
        tight = xlat_cache.XlatCache(tmp_path, max_disk_bytes=5 * size)
        del walks[:]
        assert tight.evict_to_budget() == 7
        assert len(walks) == 1
        assert tight.disk_usage() == (5, 5 * size)

    def test_four_processes_overfilling_stay_within_budget(
            self, tmp_path):
        _, _, size = _put_block()
        budget, each = 50 * size, 50
        fork = multiprocessing.get_context("fork")
        writers = [
            fork.Process(target=_overfill,
                         args=(str(tmp_path), budget, n * each, each))
            for n in range(4)]
        for writer in writers:
            writer.start()
        for writer in writers:
            writer.join(timeout=120)
        assert [writer.exitcode for writer in writers] == [0] * 4
        disk = DiskStore(tmp_path)
        entries = disk.entries()
        assert 0 < sum(size for _, size, _ in entries) \
            <= budget + 4 * size
        for _, _, key in entries:
            xlat_cache._entry_from_bytes(disk.read(key))
        assert _files(tmp_path, "*.tmp") == []

    @pytest.mark.parametrize("puts", [20, 400])
    def test_puts_leave_a_constant_number_of_files(self, tmp_path,
                                                   puts):
        compiled, opt, _ = _put_block()
        cache = xlat_cache.XlatCache(tmp_path)
        for i in range(puts):
            cache.put(_put_key(i), compiled, opt)
        assert cache.disk_usage()[0] == puts
        # The database and, while it is open, its -wal and -shm.
        names = sorted(path.name for path in tmp_path.iterdir())
        assert names[0] == DB_NAME and len(names) <= 3, names


# ----------------------------------------------------------------------
# Connections: one per process and database, never across a fork
# ----------------------------------------------------------------------
class _Watched:
    """A connection that counts the closes it is asked for."""

    def __init__(self, conn):
        self.conn = conn
        self.closes = 0

    def execute(self, *args):
        return self.conn.execute(*args)

    def close(self):
        self.closes += 1
        self.conn.close()


def _child_uses_its_own_connection(directory: str):
    disk = DiskStore(Path(directory))
    (watched,) = [conn for conn in store._INHERITED
                  if isinstance(conn, _Watched)]
    others = [DiskStore(Path(directory) / str(n))
              for n in range(store.MAX_OPEN + 1)]
    ok = (not store._OPEN
          and disk.read("a" * 64) == b"parent"
          and disk.write("b" * 64, b"child")
          and store._OPEN[disk._db][0] is not watched
          # Past MAX_OPEN, so the child evicts and closes its own.
          and all(other.write("c" * 64, b"other") for other in others)
          and disk._db not in store._OPEN)
    gc.collect()
    os._exit(0 if ok and watched.closes == 0 else 1)


def _write_at_once(directory: str, key: str, barrier) -> None:
    barrier.wait(timeout=60)
    os._exit(0 if DiskStore(Path(directory)).write(key, key.encode())
             else 1)


class TestConnections:
    def test_processes_creating_one_store_at_once_all_write(
            self, tmp_path):
        """Switching a new database to WAL takes a lock SQLite does
        not wait for: writers that set one up in place at once fail
        about one time in five with "database is locked"."""
        fork = multiprocessing.get_context("fork")
        for trial in range(10):
            directory = tmp_path / str(trial)
            barrier = fork.Barrier(4)
            keys = [f"{trial}{n}" * 32 for n in range(4)]
            writers = [fork.Process(target=_write_at_once,
                                    args=(str(directory), key, barrier))
                       for key in keys]
            for writer in writers:
                writer.start()
            for writer in writers:
                writer.join(timeout=60)
            assert [writer.exitcode for writer in writers] == [0] * 4
            assert sorted(key for _, _, key in
                          DiskStore(directory).entries()) == keys
            assert list(directory.glob("*.tmp")) == []

    def test_a_forked_child_opens_its_own_connection(self, tmp_path):
        """SQLite connections must not cross a fork: the child reads
        and writes through connections of its own, evicts and closes
        those, and never closes the one it inherited, which still
        serves the parent's reads after the child is gone."""
        disk = DiskStore(tmp_path)
        assert disk.write("a" * 64, b"parent")
        conn, identity = store._OPEN[disk._db]
        watched = store._OPEN[disk._db] = (_Watched(conn), identity)
        try:
            child = multiprocessing.get_context("fork").Process(
                target=_child_uses_its_own_connection,
                args=(str(tmp_path),))
            child.start()
            child.join(timeout=60)
            assert child.exitcode == 0
            assert store._OPEN[disk._db] is watched
            assert disk.read("b" * 64) == b"child"
            assert disk.read("a" * 64) == b"parent"
            assert watched[0].closes == 0
        finally:
            if store._OPEN.get(disk._db) is watched:
                store._OPEN[disk._db] = (conn, identity)

    def test_at_most_two_databases_are_open(self, tmp_path):
        disks = [DiskStore(tmp_path / str(n)) for n in range(5)]
        for disk in disks:
            assert disk.write("a" * 64, disk.directory.name.encode())
        assert len(store._OPEN) <= store.MAX_OPEN == 2
        # A closed one reopens on its next use.
        assert [disk.read("a" * 64) for disk in disks] == \
            [str(n).encode() for n in range(5)]

    def test_a_replaced_database_is_reopened(self, tmp_path):
        disk = DiskStore(tmp_path / "ns")
        assert disk.write("a" * 64, b"old")
        for path in (tmp_path / "ns").iterdir():
            path.unlink()
        assert disk.read("a" * 64) is None
        assert disk.write("b" * 64, b"new")
        assert DiskStore(tmp_path / "ns").entries()[0][2] == "b" * 64

    def test_failures_are_misses_never_exceptions(self, tmp_path):
        (tmp_path / DB_NAME).write_text("not a database")
        disk = DiskStore(tmp_path, max_bytes=10)
        assert disk.read("a" * 64) is None
        assert disk.write("a" * 64, b"x") is False
        assert disk.usage() == (0, 0)
        assert disk.evict_to_budget() == []
        assert disk.clear() == 0

    def test_the_cache_off_never_imports_sqlite(self, tmp_path):
        run = ("import sys\n"
               "from repro import api\n"
               "from repro.workloads.kernels import KernelSpec\n"
               "api.run_kernel(KernelSpec('t', loads=2, stores=1, alu=2,"
               " fp=1, iterations=20, threads=2, working_set=64),"
               " variant='risotto')\n"
               "print('sqlite3' in sys.modules)\n")
        seen = {}
        for setting in ("off", str(tmp_path / "xlat")):
            done = subprocess.run(
                [sys.executable, "-c", run], cwd=tmp_path, timeout=300,
                capture_output=True, text=True,
                env={"PYTHONPATH": str(REPO / "src"),
                     store.ENV_VAR: setting})
            assert done.returncode == 0, done.stderr
            seen[setting == "off"] = done.stdout.split()[-1]
        # Off: never loaded.  On: loaded, so the check can fail.
        assert seen == {True: "False", False: "True"}


# ----------------------------------------------------------------------
# Tooling guard: the forks must not grow back
# ----------------------------------------------------------------------
class TestOneStore:
    """``store.py`` is the only module under ``src/repro`` that opens
    a database or sanitises a namespace, each in one place, and the
    two retired knobs stay retired in code and docs."""

    FORKED = re.compile(
        r"sqlite3\.connect|isalnum\(\) or c in \"\._-\"")
    RETIRED = re.compile(r"REPRO_XLAT_CACHE_(BUDGET|MEM)")

    def _sources(self):
        sources = sorted(SRC.rglob("*.py"))
        assert SRC / "store.py" in sources and len(sources) > 50
        return sources

    def test_atomic_writer_and_sanitiser_exist_once(self):
        offenders = [
            f"{path.relative_to(REPO)}:{n}: {line.strip()}"
            for path in self._sources() if path.name != "store.py"
            for n, line in enumerate(path.read_text().splitlines(), 1)
            if self.FORKED.search(line) or "sqlite3" in line
        ]
        assert offenders == []
        assert sorted(self.FORKED.findall(
            (SRC / "store.py").read_text())) == [
                'isalnum() or c in "._-"', "sqlite3.connect"]

    def test_caches_do_no_filesystem_plumbing(self):
        text = (SRC / "dbt" / "xlat_cache.py").read_text()
        for banned in ("os.environ", "tempfile", "glob", "iterdir"):
            assert not re.search(rf"\b{re.escape(banned)}\b", text), \
                banned
        cli = (SRC / "cli.py").read_text()
        for walker in ("glob", "rglob", "iterdir", "walk", "scandir"):
            assert not re.search(rf"\b{walker}\b", cli), walker

    def test_retired_knobs_stay_retired(self):
        docs = [REPO / "README.md", REPO / "DESIGN.md"]
        offenders = [str(path.relative_to(REPO))
                     for path in self._sources() + docs
                     if self.RETIRED.search(path.read_text())]
        assert offenders == []
