"""Damage a stored entry from outside the store, the way another
program or a torn disk would: through a database connection of its
own.  Every test that corrupts the disk level goes through
:func:`rewrite_entry`; reading an entry back is ``DiskStore.read``."""

import sqlite3
from contextlib import closing
from pathlib import Path

from repro.store import DB_NAME


def rewrite_entry(directory: Path, key: str, body: bytes) -> None:
    """Replace the stored bytes of ``key``'s entry in the store at
    ``directory``, keeping its place in the write order."""
    with closing(sqlite3.connect(Path(directory) / DB_NAME)) as conn, \
            conn:
        changed = conn.execute(
            "UPDATE entries SET body = ? WHERE key = ?",
            (body, key)).rowcount
    assert changed == 1, f"no entry {key} in {directory}"
