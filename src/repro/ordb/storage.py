"""Row storage for heap and object tables.

Object tables (``CREATE TABLE ... OF type``) give every row an object
identifier (OID); REF values point at those OIDs (Section 2.3).  OIDs
are engine-unique monotone integers, so a dangling REF can never be
re-bound to a new row by accident.

MVCC bookkeeping also lives here: every :class:`Row` carries a commit
timestamp (``cts``), the token of the transaction currently mutating
it (``pending``) and a chain of committed pre-images (``versions``),
so snapshot readers can reconstruct the row as of any timestamp
without blocking the writer.  Deleted rows park in
:attr:`TableData.tombstones` until no snapshot can still see them.
The MVCC fields are excluded from dataclass equality on purpose: two
rows holding the same values are "the same row" to the differential
crash-consistency checks even when their commit histories differ.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

#: Engine-wide OID source; shared across tables like Oracle's OIDs.
_OID_COUNTER = itertools.count(1)


def next_oid() -> int:
    """Allocate a fresh object identifier."""
    return next(_OID_COUNTER)


def advance_oid(past: int) -> None:
    """Never hand out an OID <= *past* again.

    Checkpoint recovery restores rows with their original OIDs, but
    the counter is process-global and starts at 1 in a fresh process;
    without this, a new row could collide with a restored OID and
    silently re-bind its REFs.
    """
    global _OID_COUNTER
    current = next(_OID_COUNTER)
    _OID_COUNTER = itertools.count(max(current, past + 1))


@dataclass
class Row:
    """One stored row: normalized column key -> value, plus OID.

    MVCC fields (``compare=False`` — see module docstring):

    * ``cts`` — commit timestamp at which the *current* contents
      became visible (0 = pre-MVCC / bootstrap data, visible to all);
    * ``pending`` — token of the uncommitted transaction that last
      wrote this row, None when the contents are committed;
    * ``deleted`` — True for tombstones (rows removed but still
      reachable by old snapshots);
    * ``versions`` — committed pre-images as ``(cts, values)`` pairs,
      oldest first; None until the first overwrite to keep untouched
      rows cheap.
    """

    values: dict[str, object]
    oid: int | None = None
    cts: int = field(default=0, compare=False)
    pending: int | None = field(default=None, compare=False)
    deleted: bool = field(default=False, compare=False)
    versions: list | None = field(default=None, compare=False,
                                  repr=False)

    def copy(self) -> "Row":
        return Row(dict(self.values), self.oid)

    def visible_values(self, ts: int,
                       token: int | None = None) -> dict | None:
        """The row's contents as of snapshot *ts*, or None when the
        row does not exist at that timestamp.

        *token* is the reading transaction's own write token: a
        session always sees its own uncommitted changes.
        """
        if self.pending is not None:
            if token is not None and self.pending == token:
                return None if self.deleted else self.values
        elif self.cts <= ts:
            return None if self.deleted else self.values
        if self.versions:
            # entries are appended in commit order; walk newest first
            for version_ts, values in reversed(self.versions):
                if version_ts <= ts:
                    return values
        return None


@dataclass
class TableData:
    """Physical contents of one table.

    ``rows`` holds only live rows (what writers and WAL replay
    see); ``tombstones`` holds deleted rows old snapshots may still
    need; ``versioned`` tracks, by identity, every live row whose
    version chain is non-empty — index probes must union it in, since
    a hash index keyed on *current* values can miss a row whose
    snapshot-visible version had a different key.  ``versioned`` is
    rebuilt after unpickling (identity keys do not survive a process
    boundary).
    """

    rows: list[Row] = field(default_factory=list)
    oid_index: dict[int, Row] = field(default_factory=dict)
    tombstones: list[Row] = field(default_factory=list)
    versioned: dict[int, Row] = field(default_factory=dict,
                                      compare=False, repr=False)

    def insert(self, row: Row) -> None:
        self.rows.append(row)
        if row.oid is not None:
            self.oid_index[row.oid] = row

    def delete(self, row: Row) -> None:
        self.rows.remove(row)
        if row.oid is not None:
            self.oid_index.pop(row.oid, None)

    def remove_exact(self, row: Row) -> None:
        """Remove *row* by identity (undo of an insert): ``Row`` is a
        dataclass, so ``rows.remove`` could match a different but
        equal row."""
        for index in range(len(self.rows) - 1, -1, -1):
            if self.rows[index] is row:
                del self.rows[index]
                break
        if row.oid is not None and self.oid_index.get(row.oid) is row:
            del self.oid_index[row.oid]

    def by_oid(self, oid: int) -> Row | None:
        return self.oid_index.get(oid)

    def tombstone_by_oid(self, oid: int) -> Row | None:
        """A deleted row by OID, for snapshot-time REF dereference."""
        for row in self.tombstones:
            if row.oid == oid:
                return row
        return None

    def track_version(self, row: Row) -> None:
        self.versioned[id(row)] = row

    def untrack_version(self, row: Row) -> None:
        self.versioned.pop(id(row), None)

    def remove_tombstone(self, row: Row) -> None:
        for index in range(len(self.tombstones) - 1, -1, -1):
            if self.tombstones[index] is row:
                del self.tombstones[index]
                break

    def snapshot_extras(self):
        """Rows an index probe can miss under a snapshot read: live
        rows with version chains plus tombstones."""
        if not self.versioned and not self.tombstones:
            return ()
        extras = list(self.versioned.values())
        extras.extend(self.tombstones)
        return extras

    def rebuild_version_tracking(self) -> None:
        """Re-key :attr:`versioned` after unpickling."""
        self.versioned = {id(row): row for row in self.rows
                          if row.versions}

    def __len__(self) -> int:
        return len(self.rows)
