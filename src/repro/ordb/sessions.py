"""Sessions: per-connection transaction state over one shared engine.

A :class:`Session` is the unit of concurrency — the stand-in for one
Oracle connection of the paper's client-server setup.  Each session
owns its transaction state (undo journal, savepoints, the ``ATOMIC$n``
nesting counter) while the :class:`~repro.ordb.engine.Database` owns
the shared structures: catalog, rows, indexes, caches and the
:class:`~repro.ordb.locks.LockManager` that isolates sessions from
each other.

Sessions follow strict two-phase locking: statements acquire
table-level S/X locks before touching data, and an explicit
transaction keeps them until COMMIT or ROLLBACK (autocommit
statements release at statement end).  One session must only ever be
driven by one thread at a time — threads wanting concurrency each
open their own via :meth:`Database.session`.

>>> from repro.ordb import Database
>>> db = Database()
>>> _ = db.execute("CREATE TABLE T(a NUMBER)")
>>> with db.session() as s1:
...     s1.begin()
...     _ = s1.execute("INSERT INTO T VALUES(1)")
...     s1.rollback()
...     s1.execute("SELECT COUNT(*) FROM T").scalar()
0
"""

from __future__ import annotations

import contextlib
from typing import TYPE_CHECKING

from .errors import NoSuchSavepoint, TransactionError
from .results import Result
from .sql import ast
from .transactions import Transaction

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .engine import Database


class Session:
    """One logical connection: private transaction, shared database."""

    def __init__(self, db: "Database", sid: int, name: str = ""):
        self.db = db
        #: integer id used by the lock manager and wait-for graph
        self.sid = sid
        self.name = name or f"session-{sid}"
        self.txn: Transaction | None = None
        self.closed = False
        self._atomic_seq = 0
        #: seconds one statement may run (lock waits included) before
        #: the engine aborts it with
        #: :class:`~repro.ordb.errors.StatementTimeout`; None = no
        #: budget.  The network server sets this per connection.
        self.statement_timeout: float | None = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self.closed else (
            "in transaction" if self.txn is not None else "idle")
        return f"<Session {self.name} ({state})>"

    # -- statement execution -----------------------------------------------------

    def execute(self, statement: str | ast.Statement) -> Result:
        """Execute one statement under this session's locks."""
        return self.db.execute(statement, session=self)

    def executescript(self, script: str) -> list[Result]:
        from .sql.lexer import split_statements

        return [self.execute(text) for text in split_statements(script)]

    # -- transaction control -----------------------------------------------------

    @property
    def in_transaction(self) -> bool:
        return self.txn is not None

    def begin(self) -> None:
        """Open an explicit transaction (autocommit until then)."""
        if self.txn is not None:
            raise TransactionError(
                "a transaction is already active;"
                " COMMIT or ROLLBACK first")
        self.txn = Transaction()
        self.db._txn_started(self)

    def commit(self) -> None:
        """Make the open transaction's work permanent and release its
        locks (no-op when none is open, like Oracle's COMMIT).

        In durable mode the transaction's redo statements go to the
        WAL *before* anything is acknowledged; if the append fails
        (an injected media fault), the in-memory work is rolled back
        too, so memory never diverges from what recovery will
        rebuild.  The ``commit`` fault site fires first — a fired
        fault leaves the transaction open for the caller to roll
        back, modelling a crash just before the commit point.

        With ``Database(group_commit=True)`` the WAL append above
        coalesces with concurrent committers into one batched
        append + fsync (leader/follower group commit); the durability
        contract is unchanged — this call still returns only after
        the batch holding this transaction's redo is on disk.
        """
        db = self.db
        committed = self.txn is not None
        if committed:
            db.faults.hit("commit", session=self.name)
            if self.txn.statements:
                try:
                    db._wal_commit(self.txn.statements)
                except BaseException:
                    self.rollback()
                    raise
            # the commit point: one fresh commit timestamp makes the
            # whole write set visible to snapshot readers at once
            # (only after the WAL accepted the redo, so nothing is
            # ever visible that recovery would not rebuild)
            db._commit_transaction(self.txn)
            with db._stats_lock:
                db.stats["commits"] += 1
        self.txn = None
        db._txn_finished(self)
        db.locks.release_all(self.sid)
        if committed:
            db._maybe_autocheckpoint()

    def rollback(self, to: str | None = None) -> None:
        """Undo the open transaction, or just back to savepoint *to*
        (which keeps the transaction — and its locks — alive)."""
        db = self.db
        if self.txn is None:
            if to is not None:
                raise NoSuchSavepoint(
                    f"savepoint '{to}' never established"
                    f" (no transaction is active)")
            db.locks.release_all(self.sid)
            return
        # journal replay mutates shared rows/indexes/catalog: it must
        # run under the engine latch like any statement body
        with db._latch:
            if to is None:
                db.stats["rollbacks"] += 1
                self.txn.rollback()
                self.txn = None
            else:
                db.stats["savepoint_rollbacks"] += 1
                self.txn.rollback_to(to)
        if self.txn is None:
            db._txn_finished(self)
            db.locks.release_all(self.sid)

    def savepoint(self, name: str) -> None:
        """Establish a named savepoint (implicitly opening a
        transaction when none is active, as DML does in Oracle)."""
        if self.txn is None:
            self.txn = Transaction()
            self.db._txn_started(self)
        self.txn.savepoint(name)

    def set_transaction(self, read_only: bool | None = None,
                        isolation: str | None = None) -> None:
        """``SET TRANSACTION``: open a transaction with a pinned
        snapshot and/or access mode.

        Like Oracle, it must be the first statement of the
        transaction (it implicitly opens one when none is active).
        ``read_only=True`` pins the snapshot and rejects DML/DDL with
        ORA-01456; ``isolation="SERIALIZABLE"`` pins the snapshot for
        reads *and* arms the first-committer-wins write check
        (ORA-08177).
        """
        db = self.db
        if self.txn is not None and (self.txn.executed
                                     or self.txn.statements
                                     or len(self.txn.journal)
                                     or self.txn.write_set):
            raise TransactionError(
                "SET TRANSACTION must be the first statement of a"
                " transaction")
        if self.txn is None:
            self.txn = Transaction()
            db._txn_started(self)
        txn = self.txn
        if read_only is not None:
            txn.read_only = read_only
        if isolation is not None:
            txn.isolation = isolation
        pin = txn.read_only or txn.isolation == "SERIALIZABLE"
        if pin and txn.snapshot_ts is None:
            with db._latch:  # a concurrent commit must not tear this
                txn.snapshot_ts = db._commit_ts
            db._pin_snapshot(self, txn.snapshot_ts)
        elif not pin and txn.snapshot_ts is not None:
            # READ WRITE / READ COMMITTED after a pinning clause:
            # back to statement-level snapshots
            txn.snapshot_ts = None
            db._unpin_snapshot(self)

    @property
    def isolation_level(self) -> str:
        """The effective isolation of the open transaction — "READ
        ONLY", "SERIALIZABLE" or "READ COMMITTED" (also the answer
        when no transaction is open: the default for the next one)."""
        if self.txn is not None:
            if self.txn.read_only:
                return "READ ONLY"
            return self.txn.isolation
        return "READ COMMITTED"

    def txn_status(self) -> dict:
        """Wire-friendly transaction state (the network server ships
        this to clients)."""
        txn = self.txn
        return {
            "active": txn is not None,
            "isolation": self.isolation_level,
            "read_only": bool(txn is not None and txn.read_only),
            "snapshot_ts": txn.snapshot_ts if txn is not None else None,
        }

    @contextlib.contextmanager
    def transaction(self):
        """``with session.transaction():`` — commit on success, roll
        back on any exception."""
        self.begin()
        try:
            yield self
        except BaseException:
            self.rollback()
            raise
        try:
            self.commit()
        except BaseException:
            # a failed commit (injected commit/WAL fault) must not
            # leave the transaction's work half-visible: durable
            # commits roll back internally, a commit-site fault
            # leaves the transaction open — undo it here
            if self.txn is not None:
                self.rollback()
            raise

    @contextlib.contextmanager
    def atomic(self):
        """An all-or-nothing scope that nests: a full transaction at
        the outermost level, a uniquely-named savepoint inside an
        already-open transaction."""
        if self.txn is None:
            with self.transaction():
                yield self
            return
        self._atomic_seq += 1
        name = f"ATOMIC${self._atomic_seq}"
        txn = self.txn
        txn.savepoint(name)
        try:
            yield self
        except BaseException:
            # the transaction object may have been swapped by an inner
            # rollback-everything; only unwind if ours is still open
            if self.txn is txn:
                with self.db._latch:
                    self.db.stats["savepoint_rollbacks"] += 1
                    txn.rollback_to(name)
                    txn.release(name)
            raise
        if self.txn is txn:
            txn.release(name)

    # -- lifecycle ---------------------------------------------------------------

    def close(self) -> None:
        """Roll back any open work, drop all locks, retire the id."""
        if self.closed:
            return
        if self.txn is not None:
            self.rollback()
        self.db.locks.release_all(self.sid)
        self.closed = True
        self.db._session_closed(self)

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
