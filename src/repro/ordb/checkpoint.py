"""Checkpoints: full-database snapshots that let the WAL truncate.

A checkpoint pickles the committed state of one
:class:`~repro.ordb.engine.Database` — catalog types, tables with
their rows *and* hash indexes (pickling preserves the shared ``Row``
identities the indexes rely on), views, nested-storage names, the OID
high-water mark and the WAL commit sequence — into a single
CRC-guarded file.  Recovery loads the newest valid snapshot, advances
the global OID counter past every restored row, and replays only the
WAL records whose sequence is newer than the snapshot's, which makes
a crash *between* writing the checkpoint and truncating the log
harmless (the stale records are skipped, never double-applied).

The file is written to a temporary name, fsynced and atomically
renamed over the previous checkpoint; the predecessor survives as
``checkpoint.prev``, so a crash mid-rotation always leaves at least
one loadable snapshot ("latest valid checkpoint" semantics).

>>> import tempfile
>>> from repro.ordb import Database
>>> with tempfile.TemporaryDirectory() as where:
...     db = Database(path=where)
...     _ = db.execute("CREATE TABLE T(a NUMBER)")
...     _ = db.execute("INSERT INTO T VALUES(1)")
...     _ = db.checkpoint()
...     db.close()
...     Database(path=where).execute("SELECT COUNT(*) FROM T").scalar()
1
"""

from __future__ import annotations

import os
import pickle
from pathlib import Path
from typing import TYPE_CHECKING

from . import storage
from .errors import CheckpointCorrupt
from .schema import CompatibilityMode
from .values import CollectionValue, ObjectValue, RefValue
from .wal import decode_records, encode_record

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .engine import Database

#: File magic; the trailing digits version the snapshot format.
MAGIC = b"RCKP0001"
CHECKPOINT_NAME = "checkpoint.bin"
PREVIOUS_NAME = "checkpoint.prev"


def _max_oid(db: "Database") -> int:
    highest = 0
    for table in db.catalog.tables.values():
        for row in table.data.rows:
            if row.oid is not None and row.oid > highest:
                highest = row.oid
    return highest


def snapshot_state(db: "Database") -> dict:
    """The picklable committed state (caller holds latch + WAL lock)."""
    catalog = db.catalog
    return {
        "format": 1,
        "mode": catalog.mode.value,
        "commit_seq": db._commit_seq,
        "commit_ts": db._commit_ts,
        "types": catalog.types,
        "tables": catalog.tables,
        "views": catalog.views,
        "storage_names": set(catalog.storage_names),
        "max_oid": _max_oid(db),
    }


def write_checkpoint(db: "Database") -> dict:
    """Snapshot *db* durably into its directory; returns a summary."""
    payload = pickle.dumps(snapshot_state(db),
                           protocol=pickle.HIGHEST_PROTOCOL)
    blob = MAGIC + encode_record(payload)
    directory = db.path
    temporary = directory / (CHECKPOINT_NAME + ".tmp")
    current = directory / CHECKPOINT_NAME
    previous = directory / PREVIOUS_NAME
    with open(temporary, "wb") as handle:
        handle.write(blob)
        handle.flush()
        os.fsync(handle.fileno())
    if current.exists():
        os.replace(current, previous)
    os.replace(temporary, current)
    _fsync_directory(directory)
    return {"path": str(current), "bytes": len(blob),
            "commit_seq": db._commit_seq,
            "tables": len(db.catalog.tables)}


def _fsync_directory(directory: Path) -> None:
    # the renames must survive a crash too, not just the file contents
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def load_latest(directory: Path) -> dict | None:
    """The newest valid snapshot state, or None when none exists.

    Tries the current checkpoint first, then the rotated predecessor;
    raises :class:`CheckpointCorrupt` only when snapshots exist but
    none validates (data loss would otherwise be silent).
    """
    candidates = [directory / CHECKPOINT_NAME,
                  directory / PREVIOUS_NAME]
    seen_any = False
    for path in candidates:
        if not path.exists():
            continue
        seen_any = True
        state = _read_snapshot(path)
        if state is not None:
            return state
    if seen_any:
        raise CheckpointCorrupt(
            f"no valid checkpoint under {directory}: every candidate"
            f" failed its magic or checksum")
    return None


def _read_snapshot(path: Path) -> dict | None:
    data = path.read_bytes()
    if data[:len(MAGIC)] != MAGIC:
        return None
    # the snapshot is one WAL-framed record right after the magic; a
    # partial write or bit flip fails the frame check
    records, _ = decode_records(b"RWAL0001" + data[len(MAGIC):])
    if len(records) != 1:
        return None
    try:
        state = pickle.loads(records[0])
    except Exception:
        return None
    if not isinstance(state, dict) or state.get("format") != 1:
        return None
    return state


def install_state(db: "Database", state: dict) -> None:
    """Restore *state* into a freshly-constructed durable engine."""
    catalog = db.catalog
    catalog.mode = CompatibilityMode(state["mode"])
    catalog.types = state["types"]
    catalog.tables = state["tables"]
    catalog.views = state["views"]
    catalog.storage_names = set(state["storage_names"])
    # OIDs are allocated from a process-global counter: every oid the
    # snapshot restored must stay unreachable for new rows
    storage.advance_oid(state["max_oid"])
    db._commit_seq = state["commit_seq"]
    # commit timestamps must survive restarts or new commits would be
    # stamped below already-visible rows ("commit_ts" absent in
    # pre-MVCC snapshots: fall back to the highest restored stamp)
    restored_ts = state.get("commit_ts")
    highest_cts = 0
    version_records = 0
    for table in catalog.tables.values():
        data = table.data
        # snapshots taken before ANALYZE existed predate the field
        if not hasattr(table, "stats"):
            table.stats = None
        # pre-MVCC snapshots predate these attributes
        if not hasattr(data, "tombstones"):
            data.tombstones = []
        if not hasattr(data, "versioned"):
            data.versioned = {}
        for row in list(data.rows) + list(data.tombstones):
            if not hasattr(row, "cts"):
                row.cts = 0
                row.pending = None
                row.deleted = False
                row.versions = None
            highest_cts = max(highest_cts, row.cts)
            version_records += len(row.versions or ())
        # the versioned map is id()-keyed and ids change across
        # pickling: rebuild it against the restored row identities
        data.rebuild_version_tracking()
    db._commit_ts = (restored_ts if restored_ts is not None
                     else highest_cts)
    db._version_records = version_records


# -- integrity verification ---------------------------------------------------------


def verify_integrity(db: "Database") -> list[str]:
    """Structural consistency of a (recovered) database.

    Checks every table's hash indexes against its rows, the OID index
    against row identities, and that every non-null REF resolves to a
    live row of its target table (the engine-level face of the
    document layer's dangling-IDREF guarantee).  Returns
    human-readable problems; empty means consistent.
    """
    problems: list[str] = []
    for table in db.catalog.tables.values():
        for issue in table.indexes.verify(table.data.rows):
            problems.append(f"{table.name}: {issue}")
        for row in table.data.rows:
            if (row.oid is not None
                    and table.data.oid_index.get(row.oid) is not row):
                problems.append(
                    f"{table.name}: oid {row.oid} not indexed to its"
                    f" own row")
            for column, value in row.values.items():
                for ref in _collect_refs(value):
                    target = db.catalog.tables.get(ref.table)
                    if target is None:
                        problems.append(
                            f"{table.name}.{column}: REF into missing"
                            f" table {ref.table}")
                    elif target.data.by_oid(ref.oid) is None:
                        problems.append(
                            f"{table.name}.{column}: dangling REF"
                            f" oid={ref.oid} -> {ref.table}")
    return problems


def _collect_refs(value: object):
    """Yield every RefValue reachable inside a stored value."""
    if isinstance(value, RefValue):
        yield value
    elif isinstance(value, ObjectValue):
        for attribute in value.attributes().values():
            yield from _collect_refs(attribute)
    elif isinstance(value, CollectionValue):
        for item in value.items:
            yield from _collect_refs(item)
