"""The embedded object-relational database engine.

:class:`Database` is the stand-in for the Oracle 8i/9i instance the
paper stored documents in.  It executes the SQL dialect of
:mod:`repro.ordb.sql` — DDL for object/collection/REF types, object
tables with constraints, object views — and evaluates queries with
dot-notation navigation, constructors and CAST/MULTISET.

Statement and row-level counters are kept in :attr:`Database.stats`
because the CLM1/CLM2 experiments (DESIGN.md) count exactly the
operational quantities the paper argues about: number of INSERT
statements per document and number of scans/joins per query.

Concurrency is three-level (see docs/architecture.md and
docs/transactions.md):

* **snapshot reads (MVCC)** — SELECTs run against a commit-timestamp
  snapshot built from per-row version chains and acquire *no* locks;
  each committed transaction stamps its write set with a monotonic
  commit timestamp, and a GC pass prunes versions older than the
  oldest pinned snapshot;
* **logical isolation for writers** — each
  :class:`~repro.ordb.sessions.Session` takes table-level X locks
  (plus S locks for DML subquery reads) from the shared
  :class:`~repro.ordb.locks.LockManager` before a statement runs and
  holds them to transaction end (strict 2PL);
* **physical safety** — statement bodies mutate plain Python dicts
  and lists, so one engine latch serializes them; lock *waits* always
  happen before the latch is taken, never under it.
"""

from __future__ import annotations

import contextlib
import dataclasses
import itertools
import os
import threading
import time
from pathlib import Path

from repro.obs import Observability

from . import checkpoint as checkpoints
from . import identifiers
from .constraints import (
    CheckConstraint,
    ConstraintSet,
    NotNullConstraint,
    PrimaryKeyConstraint,
    ScopeForConstraint,
    UniqueConstraint,
)
from .datatypes import (
    CharType,
    ClobType,
    DataType,
    NestedTableType,
    ObjectType,
    RefType,
    Varchar2,
)
from .errors import (
    CheckViolation,
    DanglingReference,
    IncompleteType,
    LockTimeout,
    NameInUse,
    NestedCollectionNotSupported,
    NoSuchColumn,
    NoSuchTable,
    NoSuchType,
    NotSupported,
    NullNotAllowed,
    OrdbError,
    ReadOnlyViolation,
    SerializationConflict,
    StatementTimeout,
    TransactionError,
    TypeMismatch,
    UniqueViolation,
    WrongArgumentCount,
)
from .explain import PlanBuilder, QueryPlan
from .faults import FaultInjector
from .indexes import (
    ProbeSpec,
    RangeProbeSpec,
    SortedIndex,
    build_auto_indexes,
)
from .planner import AccessPlan, compute_table_stats, plan_access
from .textindex import (
    ContentIndex,
    FullTextIndex,
    FullTextProbeSpec,
    TrigramIndex,
    TrigramProbeSpec,
    select_scans_vectors,
)
from .locks import CATALOG_RESOURCE, EXCLUSIVE, SHARED, LockManager
from .sessions import Session
from .expressions import AGGREGATE_FUNCTIONS, Binding, Env, Evaluator
from .results import Result
from .select import Partial, PartialSelect, Pipeline
from .schema import Catalog, Column, CompatibilityMode, Table, View
from .sql import ast
from .sql.lexer import split_statements
from .sql.parser import parse_statement
from .storage import Row, next_oid
from .transactions import UndoJournal
from .wal import (
    GroupCommitter,
    WriteAheadLog,
    decode_transaction,
    encode_transaction,
)
from .values import (
    CollectionValue,
    ObjectValue,
    RefValue,
    coerce_value,
)
from .datatypes import TypeAttribute


class _Snapshot:
    """Per-statement snapshot context for one MVCC SELECT.

    ``ts`` is the commit timestamp the statement reads as of;
    ``token`` is the reading transaction's write token (a session
    always sees its own uncommitted changes); ``saw_pending`` flips
    when the reader skipped past another transaction's uncommitted
    row — the schedule where a 2PL reader would have blocked on an S
    lock.
    """

    __slots__ = ("ts", "token", "saw_pending")

    def __init__(self, ts: int, token: int | None):
        self.ts = ts
        self.token = token
        self.saw_pending = False


class Database:
    """One in-memory object-relational database instance."""

    #: Parsed-statement cache capacity (entries; LRU eviction).
    STATEMENT_CACHE_SIZE = 256

    def __init__(self, mode: CompatibilityMode = CompatibilityMode.ORACLE9,
                 obs: Observability | None = None,
                 enable_indexes: bool = True,
                 lock_timeout: float = 5.0,
                 path: str | os.PathLike | None = None,
                 fsync: str = "commit",
                 checkpoint_every: int | None = None,
                 group_commit: bool = False):
        self.catalog = Catalog(mode)
        self.evaluator = Evaluator(self)
        self.stats: dict[str, int] = {}
        self.faults = FaultInjector()
        #: observability hooks; disabled by default (zero-cost path)
        self.obs = obs if obs is not None else Observability()
        #: index-selection switch; False forces the seed nested-loop
        #: path everywhere (tests compare against it).  Index
        #: *maintenance* still runs so the flag can be flipped live.
        self.enable_indexes = enable_indexes
        #: table-level S/X locks isolating sessions from each other
        self.locks = LockManager(timeout=lock_timeout)
        self.locks.on_event = self._lock_event
        #: serializes statement bodies (and rollback replay): the
        #: engine mutates plain dicts/lists, so exactly one statement
        #: touches shared structures at a time.  Reentrant because
        #: transaction control may run inside an executing script.
        self._latch = threading.RLock()
        #: guards the parsed-statement LRU, which is consulted before
        #: the latch is taken (parsing must not serialize sessions)
        self._stmt_cache_lock = threading.Lock()
        #: guards the ``stats`` counts two sessions can bump at once
        #: outside every other engine lock (statement, error, commit
        #: and dereference totals)
        self._stats_lock = threading.Lock()
        self._active_journal: UndoJournal | None = None
        #: monotonic deadline of the statement currently holding the
        #: latch (statement bodies are serialized by it, so one slot
        #: suffices); row loops poll this to abort over-budget scans
        self._statement_deadline: float | None = None
        #: SQL text -> parsed AST (ASTs are frozen, safe to re-execute)
        self._statement_cache: dict[str, ast.Statement] = {}
        #: view key -> Result for the statement currently holding the
        #: latch (a view read twice by one statement — a self-join, a
        #: nested-loop inner side — is evaluated once); a fresh dict
        #: per statement, so nothing outlives the statement's snapshot
        self._view_memo: dict[str, Result] = {}
        #: monotonic commit timestamp; every committed transaction
        #: that wrote rows advances it by one and stamps its write set
        self._commit_ts = 0
        #: write tokens marking uncommitted rows (``Row.pending``)
        self._token_counter = itertools.count(1)
        #: sid -> pinned snapshot timestamp (SET TRANSACTION READ
        #: ONLY / SERIALIZABLE); the GC horizon never passes the
        #: oldest entry
        self._pinned: dict[int, int] = {}
        #: snapshot context of the SELECT currently holding the latch
        #: (single slot: statement bodies are latch-serialized)
        self._active_snapshot: _Snapshot | None = None
        #: (table, row) pairs the statement currently holding the
        #: latch has written; merged into the transaction's write set
        #: (or stamped immediately in autocommit)
        self._active_write_set: list | None = None
        #: write token of the DML statement currently holding the latch
        self._active_token: int | None = None
        #: session of the statement currently holding the latch (lets
        #: the EXPLAIN handler report that session's read mode)
        self._active_session: Session | None = None
        #: snapshot timestamp a SERIALIZABLE writer must not overwrite
        #: past (first-committer-wins check; None = no check)
        self._serial_ts: int | None = None
        #: live committed pre-images across all version chains
        self._version_records = 0
        #: True when a commit could not clean up inline because a
        #: pinned snapshot might still need the old versions
        self._gc_backlog = False
        #: write sets accumulated while recovery replays one WAL
        #: record; stamped with one commit timestamp per record
        self._replay_write_set: list = []
        self._next_sid = itertools.count(1)
        #: sids handed out by :meth:`session` and not yet closed
        self._open_sessions: set[int] = set()
        #: durable mode (``path`` given): write-ahead log + checkpoints;
        #: None for the default in-memory engine
        self.path = Path(path) if path is not None else None
        self.fsync_policy = fsync
        #: auto-checkpoint after this many WAL appends (None = manual)
        self.checkpoint_every = checkpoint_every
        self.wal: WriteAheadLog | None = None
        #: commit coalescer batching concurrent committers into one
        #: append+fsync; None unless ``group_commit`` was requested on
        #: a durable engine
        self.group_committer: GroupCommitter | None = None
        #: summary of the last durable open (replayed counts, seconds)
        self.recovery_info: dict | None = None
        self._commit_seq = 0
        self._commits_since_checkpoint = 0
        #: True while recovery replays the WAL (suppresses re-logging)
        self._wal_suppressed = False
        #: sessions with an open transaction; checkpoints refuse to
        #: snapshot while any of them has pending work
        self._txn_sessions: set[Session] = set()
        self._txn_lock = threading.Lock()
        #: the implicit connection legacy single-threaded callers use
        self._default_session = Session(self, next(self._next_sid),
                                        name="main")
        self.reset_stats()
        if self.path is not None:
            self.path.mkdir(parents=True, exist_ok=True)
            self._recover()
            if group_commit:
                self.group_committer = GroupCommitter(
                    self.wal, on_batch=self._group_batch_written)
            self.reset_stats()

    def _lock_event(self, kind: str, resource: str, mode: str,
                    seconds: float) -> None:
        """Bridge lock-manager contention events into stats/metrics
        (called under the lock manager's own lock)."""
        self.stats[{"wait": "lock_waits", "timeout": "lock_timeouts",
                    "deadlock": "deadlocks"}[kind]] += 1
        if kind == "wait" and self.obs.enabled:
            self.obs.metrics.histogram("db.lock_wait_seconds",
                                       unit="s").observe(seconds)

    @property
    def mode(self) -> CompatibilityMode:
        return self.catalog.mode

    def reset_stats(self) -> None:
        """Zero the operation counters used by the benchmarks."""
        self.stats = {
            "statements": 0,
            "errors": 0,
            "rows_touched": 0,
            "commits": 0,
            "rollbacks": 0,
            "savepoint_rollbacks": 0,
            "inserts": 0,
            "selects": 0,
            "rows_scanned": 0,
            "rows_inserted": 0,
            "full_scans": 0,
            "joins": 0,
            "derefs": 0,
            "index_lookups": 0,
            "index_unique_checks": 0,
            "range_index_lookups": 0,
            "fulltext_lookups": 0,
            "trigram_lookups": 0,
            "vector_scans": 0,
            "planner_full_scan_fallbacks": 0,
            "stmt_cache_hits": 0,
            "stmt_cache_misses": 0,
            "view_cache_hits": 0,
            "view_cache_misses": 0,
            "lock_waits": 0,
            "lock_timeouts": 0,
            "deadlocks": 0,
            "wal_appends": 0,
            "wal_bytes": 0,
            "group_commit_batches": 0,
            "group_commit_records": 0,
            "checkpoints": 0,
            "snapshot_reads": 0,
            "reader_lock_waits_avoided": 0,
            "gc_versions_pruned": 0,
            "gc_tombstones_pruned": 0,
        }

    # -- sessions ---------------------------------------------------------------------

    def session(self, name: str = "") -> Session:
        """Open a new session (one logical connection; one thread).

        The session shares this database's catalog, rows, indexes and
        caches but owns its transaction state; the lock manager keeps
        it isolated from concurrent sessions.  Close it (or use it as
        a context manager) to release its locks and id.
        """
        session = Session(self, next(self._next_sid), name)
        self._open_sessions.add(session.sid)
        return session

    def _session_closed(self, session: Session) -> None:
        self._open_sessions.discard(session.sid)

    def _txn_started(self, session: Session) -> None:
        with self._txn_lock:
            self._txn_sessions.add(session)
        if session.txn is not None and session.txn.token is None:
            session.txn.token = next(self._token_counter)

    def _txn_finished(self, session: Session) -> None:
        with self._txn_lock:
            self._txn_sessions.discard(session)
        self._unpin_snapshot(session)

    # -- MVCC: snapshots, commit timestamps, version GC -------------------------------

    def _pin_snapshot(self, session: Session, ts: int) -> None:
        """Hold the GC horizon at *ts* for a transaction-lifetime
        snapshot (SET TRANSACTION READ ONLY / SERIALIZABLE)."""
        with self._txn_lock:
            self._pinned[session.sid] = ts

    def _unpin_snapshot(self, session: Session) -> None:
        with self._txn_lock:
            pinned = self._pinned.pop(session.sid, None)
        if pinned is None:
            return
        if self._gc_backlog and not self._pinned:
            # the horizon just advanced past deferred garbage
            self.vacuum()

    def _statement_snapshot(self, session: Session) -> _Snapshot:
        """The snapshot one SELECT reads under (caller holds the
        latch).  READ COMMITTED takes a fresh statement-level
        snapshot; a pinned transaction reuses its BEGIN-time one."""
        txn = session.txn
        if txn is None:
            return _Snapshot(self._commit_ts, None)
        ts = (txn.snapshot_ts if txn.snapshot_ts is not None
              else self._commit_ts)
        return _Snapshot(ts, txn.token)

    def _push_version(self, table: Table, row: Row) -> bool:
        """First-touch capture: archive *row*'s committed image before
        an uncommitted overwrite, and mark the row pending.  Returns
        True when an image was pushed (the caller's undo must pop
        it); re-touches by the same transaction push nothing.
        """
        token = self._active_token
        if row.pending is not None and row.pending == token:
            return False
        if row.versions is None:
            row.versions = []
        row.versions.append((row.cts, dict(row.values)))
        row.pending = token
        self._version_records += 1
        if self.obs.enabled:
            self.obs.metrics.histogram(
                "db.version_chain_length",
                unit="versions").observe(len(row.versions))
        return True

    def _pop_version(self, table: Table, row: Row) -> None:
        """Undo of :meth:`_push_version` (statement/savepoint
        rollback): drop the pushed image and clear pending."""
        if row.versions:
            row.versions.pop()
            self._version_records -= 1
        row.pending = None
        if not row.versions:
            row.versions = None
            table.data.untrack_version(row)

    def _serial_write_check(self, row: Row) -> None:
        """First-committer-wins: a SERIALIZABLE transaction must not
        overwrite a version committed after its snapshot."""
        if self._serial_ts is not None and row.pending is None \
                and row.cts > self._serial_ts:
            raise SerializationConflict(
                f"row committed at ts={row.cts} is newer than this"
                f" transaction's snapshot (ts={self._serial_ts});"
                f" retry against a fresh snapshot")

    def _commit_transaction(self, txn) -> None:
        """Stamp an explicit transaction's write set with one fresh
        commit timestamp (called by :meth:`Session.commit` after the
        WAL append succeeded)."""
        if not txn.write_set:
            return
        with self._latch:
            self._stamp_commit(txn.write_set)

    def _stamp_commit(self, write_set: list) -> None:
        """Make a write set visible: one commit timestamp for all of
        its still-pending rows (caller holds the latch).  Rows whose
        pending mark was cleared by a savepoint rollback are skipped —
        their changes were undone and must not be re-exposed."""
        live = []
        seen: set[int] = set()
        for table, row in write_set:
            if row.pending is None or id(row) in seen:
                continue
            seen.add(id(row))
            live.append((table, row))
        if not live:
            return
        self._commit_ts += 1
        ts = self._commit_ts
        for _table, row in live:
            row.cts = ts
            row.pending = None
        self._gc_after_commit(live)

    def _gc_after_commit(self, live: list) -> None:
        """Inline GC at commit: with no pinned snapshot, no reader can
        ever need the just-superseded versions (statement-level
        snapshots are taken under the latch we hold), so the chains of
        the committed rows are garbage right now."""
        if self._pinned:
            self._gc_backlog = True
            return
        pruned_versions = pruned_tombstones = 0
        for table, row in live:
            if row.versions:
                pruned_versions += len(row.versions)
                self._version_records -= len(row.versions)
                row.versions = None
                table.data.untrack_version(row)
            if row.deleted:
                table.data.remove_tombstone(row)
                pruned_tombstones += 1
        self.stats["gc_versions_pruned"] += pruned_versions
        self.stats["gc_tombstones_pruned"] += pruned_tombstones

    def _snapshot_horizon(self) -> int:
        with self._txn_lock:
            if self._pinned:
                return min(self._pinned.values())
        return self._commit_ts

    def vacuum(self) -> dict:
        """Prune version chains and tombstones no snapshot can reach.

        The horizon is the oldest pinned snapshot timestamp (or the
        current commit timestamp when nothing is pinned): for each
        versioned row, images older than the newest image at or below
        the horizon are unreachable; a committed tombstone at or
        below the horizon is invisible to everyone and is dropped
        entirely.  Safe to call any time; commits run an inline
        version of this automatically.
        """
        pruned_versions = pruned_tombstones = 0
        with self._latch:
            horizon = self._snapshot_horizon()
            for table in self.catalog.tables.values():
                data = table.data
                for row in list(data.versioned.values()):
                    pruned_versions += self._prune_chain(row, horizon)
                    if not row.versions:
                        row.versions = None
                        data.untrack_version(row)
                if data.tombstones:
                    kept = []
                    for row in data.tombstones:
                        if row.pending is None and row.cts <= horizon:
                            pruned_versions += len(row.versions or ())
                            self._version_records -= len(
                                row.versions or ())
                            row.versions = None
                            pruned_tombstones += 1
                        else:
                            pruned_versions += self._prune_chain(
                                row, horizon)
                            kept.append(row)
                    data.tombstones[:] = kept
            self._gc_backlog = False
            self.stats["gc_versions_pruned"] += pruned_versions
            self.stats["gc_tombstones_pruned"] += pruned_tombstones
        return {"versions_pruned": pruned_versions,
                "tombstones_pruned": pruned_tombstones,
                "horizon": horizon}

    def _prune_chain(self, row: Row, horizon: int) -> int:
        """Drop *row*'s version images unreachable below *horizon*;
        returns how many were dropped (and maintains the global
        version-record count)."""
        chain = row.versions
        if not chain:
            return 0
        if (row.pending is None and not row.deleted
                and row.cts <= horizon):
            # current contents visible to every snapshot >= horizon:
            # the whole chain is garbage
            dropped = len(chain)
            chain.clear()
        else:
            # keep the newest image at or below the horizon (what a
            # horizon-age snapshot reads) and everything newer
            keep_from = 0
            for index in range(len(chain) - 1, -1, -1):
                if chain[index][0] <= horizon:
                    keep_from = index
                    break
            dropped = keep_from
            del chain[:keep_from]
        self._version_records -= dropped
        return dropped

    def mvcc_info(self) -> dict:
        """A point-in-time summary of the version store (for tests,
        docs and the observability surface)."""
        with self._latch:
            tombstones = sum(len(table.data.tombstones)
                             for table in self.catalog.tables.values())
            with self._txn_lock:
                pinned = dict(self._pinned)
            return {"commit_ts": self._commit_ts,
                    "version_records": self._version_records,
                    "tombstones": tombstones,
                    "pinned_snapshots": pinned}

    # -- durability -------------------------------------------------------------------

    def _recover(self) -> None:
        """Durable open: newest valid checkpoint, then WAL replay.

        Replayed statements re-execute through the normal statement
        path (journaled, indexed, constraint-checked) with WAL
        re-logging suppressed; a torn or corrupt log tail was already
        truncated by :meth:`WriteAheadLog.open`, so every record seen
        here is a fully-committed transaction.  Records at or below
        the checkpoint's commit sequence are skipped — that makes a
        crash between checkpoint and log truncation harmless.
        """
        started = time.perf_counter()
        span_scope = (self.obs.tracer.span("recovery",
                                           path=str(self.path))
                      if self.obs.enabled else contextlib.nullcontext())
        with span_scope as span:
            state = checkpoints.load_latest(self.path)
            if state is not None:
                checkpoints.install_state(self, state)
            wal = WriteAheadLog(self.path / "wal.log",
                                policy=self.fsync_policy,
                                faults=self.faults)
            payloads = wal.open()
            transactions = statements = skipped = 0
            self._wal_suppressed = True
            try:
                for payload in payloads:
                    seq, redo = decode_transaction(payload)
                    if seq <= self._commit_seq:
                        skipped += 1
                        continue
                    for statement in redo:
                        self._execute(statement)
                        statements += 1
                    if self._replay_write_set:
                        # one commit timestamp per WAL record, exactly
                        # like the pre-crash commit that produced it
                        with self._latch:
                            self._stamp_commit(self._replay_write_set)
                        self._replay_write_set = []
                    self._commit_seq = seq
                    transactions += 1
            finally:
                self._wal_suppressed = False
            self._rebuild_content_indexes()
            self.wal = wal
            elapsed = time.perf_counter() - started
            self.recovery_info = {
                "checkpoint_loaded": state is not None,
                "transactions_replayed": transactions,
                "statements_replayed": statements,
                "records_skipped": skipped,
                "torn_bytes_discarded": wal.truncated_bytes,
                "seconds": elapsed,
            }
            if span is not None:
                span.set(transactions=transactions,
                         statements=statements)
        if self.obs.enabled:
            self.obs.metrics.histogram("db.recovery_seconds",
                                       unit="s").observe(elapsed)

    def _rebuild_content_indexes(self) -> None:
        """Recompute every posting-list index from its table's rows.

        Run after checkpoint install + WAL replay: replay re-executes
        maintenance faithfully, but rebuilding from the recovered rows
        makes the posting lists *definitionally* consistent with
        storage no matter what the pre-crash sequence was."""
        for table in self.catalog.tables.values():
            for index in table.indexes:
                if isinstance(index, ContentIndex):
                    index.rebuild(table.data.rows)

    def _wal_commit(self, statements: list) -> None:
        """Append one committed transaction's redo list to the WAL.

        No-op for in-memory engines and during recovery replay.  The
        sequence number only advances once the append succeeded, so a
        failed (torn) append's sequence is reused by the next commit
        (a failed *group-commit* batch leaves a sequence gap instead —
        replay only requires sequences to be increasing).

        With :attr:`group_committer` set, concurrent committers
        coalesce into one shared append+fsync; this call still only
        returns once *this* transaction's record is durable.
        """
        if (self.wal is None or self._wal_suppressed
                or not statements):
            return
        if self.group_committer is not None:
            def encode() -> bytes:
                # runs under the WAL lock, in batch order: sequence
                # numbers stay monotonic across batch members
                seq = self._commit_seq + 1
                payload = encode_transaction(seq, statements)
                self._commit_seq = seq
                return payload

            self.group_committer.commit(encode)
            self._commits_since_checkpoint += 1
        else:
            with self.wal.lock:
                seq = self._commit_seq + 1
                written = self.wal.append(encode_transaction(seq,
                                                             statements))
                self._commit_seq = seq
                self._commits_since_checkpoint += 1
                self.stats["wal_appends"] += 1
                self.stats["wal_bytes"] += written

    def _group_batch_written(self, frame_sizes: list[int]) -> None:
        """Stats hook (runs under the WAL lock): one group-commit
        batch of ``len(frame_sizes)`` records went durable with a
        single append+fsync."""
        size = len(frame_sizes)
        self.stats["wal_appends"] += size
        self.stats["wal_bytes"] += sum(frame_sizes)
        self.stats["group_commit_batches"] += 1
        self.stats["group_commit_records"] += size
        if self.obs.enabled:
            self.obs.metrics.histogram("db.group_commit_batch_size",
                                       unit="records").observe(size)

    def checkpoint(self) -> dict:
        """Snapshot the database durably and truncate the WAL.

        Requires durable mode and a quiescent engine: any open
        transaction with pending work raises
        :class:`~repro.ordb.errors.TransactionError` (its uncommitted
        changes live in the shared structures and must not leak into
        a snapshot).  Holds the latch and the WAL lock together so no
        commit can land between the snapshot and the truncation.
        """
        if self.wal is None:
            raise NotSupported(
                "checkpoint requires a durable Database(path=...)")
        span_scope = (self.obs.tracer.span("checkpoint")
                      if self.obs.enabled else contextlib.nullcontext())
        with span_scope:
            with self._latch:
                with self.wal.lock:
                    with self._txn_lock:
                        busy = sorted(
                            s.name for s in self._txn_sessions
                            if s.txn is not None
                            and (s.txn.statements or len(s.txn.journal)))
                    if busy:
                        raise TransactionError(
                            "checkpoint requires no transaction with"
                            f" pending work; active: {', '.join(busy)}")
                    info = checkpoints.write_checkpoint(self)
                    self.wal.truncate()
                    self._commits_since_checkpoint = 0
                    self.stats["checkpoints"] += 1
        return info

    def verify(self) -> list[str]:
        """Integrity sweep (indexes consistent with their rows, every
        REF resolves); one line per problem found."""
        return checkpoints.verify_integrity(self)

    def _maybe_autocheckpoint(self) -> None:
        """Checkpoint when the configured commit interval elapsed;
        silently deferred while other transactions are in flight."""
        if (self.wal is None or self.checkpoint_every is None
                or self._commits_since_checkpoint
                < self.checkpoint_every):
            return
        try:
            self.checkpoint()
        except TransactionError:
            pass  # busy engine: try again after a later commit

    def close(self) -> None:
        """Flush and close the durable log (no-op for in-memory)."""
        if self.wal is not None:
            self.wal.close()

    # -- public API -------------------------------------------------------------------

    def execute(self, statement: str | ast.Statement,
                session: Session | None = None) -> Result:
        """Execute one statement (SQL text or a pre-parsed AST).

        Statements are individually atomic: if one raises midway (a
        constraint violation on the third row of an INSERT...SELECT,
        an injected fault), everything it already changed is undone
        before the error propagates — inside or outside an explicit
        transaction.

        *session* selects whose transaction and locks the statement
        runs under; None means the database's implicit default
        session (single-threaded legacy behaviour).

        A :class:`~repro.ordb.select.PartialSelect` request runs as
        the SELECT it wraps and returns that SELECT's
        :class:`~repro.ordb.select.Partial` — the shard router merges
        those and finalises the Result itself.
        """
        try:
            if not self.obs.enabled:
                return self._execute(statement, session)
            return self._execute_observed(statement, session)
        except Exception:
            with self._stats_lock:
                self.stats["errors"] += 1
            raise

    def _execute_observed(self, statement: str | ast.Statement,
                          session: Session | None = None) -> Result:
        """The instrumented execute path (observability enabled)."""
        obs = self.obs
        sql = statement if isinstance(statement, str) else None
        label = sql.strip() if sql is not None \
            else type(statement).__name__
        start = obs.clock()
        try:
            with obs.tracer.span("execute", sql=label[:120]) as span:
                result = self._execute(statement, session)
                span.set(rows=result.rowcount)
        finally:
            elapsed = obs.clock() - start
            obs.metrics.histogram("db.statement_seconds", unit="s") \
                .observe(elapsed)
        obs.slow_log.record(label, elapsed, result.rowcount)
        return result

    def _execute(self, statement: str | ast.Statement,
                 session: Session | None = None) -> Result:
        session = session or self._default_session
        source = statement  # what the WAL would replay (text or AST)
        if isinstance(statement, str):
            self.faults.hit("parse", sql=statement)
            statement = self._parse_cached(statement)
        # a shard leg of a scatter-gather: runs as the SELECT it wraps
        partial = isinstance(statement, PartialSelect)
        if partial:
            statement = statement.query
        with self._stats_lock:
            self.stats["statements"] += 1
        handled = self._handle_transaction_control(statement, session)
        if handled is not None:
            return handled
        self.faults.hit("statement", statement=statement)
        if session.txn is not None:
            # even a pure read counts as "a statement ran": Oracle's
            # SET TRANSACTION must precede it (see Session.set_transaction)
            session.txn.executed = True
        if (session.txn is not None and session.txn.read_only
                and not isinstance(statement, (ast.SelectStmt,
                                               ast.ExplainStmt))):
            raise ReadOnlyViolation(
                "cannot perform DML or DDL inside a READ ONLY"
                " transaction")
        deadline = None
        if session.statement_timeout is not None:
            deadline = time.monotonic() + session.statement_timeout
        snapshot_read = isinstance(statement, ast.SelectStmt)
        # ANALYZE is likewise lock-free: a read-only stats scan must
        # never stall writers (the row walk runs under the engine
        # latch; the stats swap is journaled like any DDL)
        lockfree_read = isinstance(statement, (ast.SelectStmt,
                                               ast.Analyze))
        # DML keeps its write locks, but its *inner* reads (INSERT ...
        # SELECT, UPDATE/DELETE subqueries) run against the same
        # statement snapshot a top-level SELECT would use — otherwise
        # they read current state and see concurrent commits mid-DML.
        # Not during WAL replay: replayed statements of one record are
        # stamped together afterwards, so mid-record rows are still
        # pending and a snapshot would hide them from inner reads.
        dml_read = (not self._wal_suppressed
                    and isinstance(statement, (ast.Insert, ast.Update,
                                               ast.Delete)))
        if not lockfree_read:
            # locks are acquired *before* the latch: a blocked session
            # must never stall the sessions currently executing
            self._acquire_statement_locks(session, statement, deadline)
        try:
            with self._latch:
                previous = self._statement_deadline
                self._statement_deadline = deadline
                outer_memo = self._view_memo
                self._view_memo = {}
                self._active_session = session
                snap = None
                if snapshot_read or dml_read:
                    # the SELECT reads a commit-timestamp snapshot
                    # and holds zero table locks; pending rows of
                    # concurrent writers are skipped in favour of
                    # their chained committed images
                    snap = self._statement_snapshot(session)
                    self._active_snapshot = snap
                try:
                    result = self._execute_body(statement, session,
                                                source, partial)
                    # transaction control (handled above) touches no rows
                    self.stats["rows_touched"] += result.rowcount
                    return result
                finally:
                    self._statement_deadline = previous
                    self._view_memo = outer_memo
                    self._active_session = None
                    if snap is not None:
                        self._active_snapshot = None
                    if snap is not None and snapshot_read:
                        self.stats["snapshot_reads"] += 1
                        if snap.saw_pending:
                            self.stats["reader_lock_waits_avoided"] += 1
        finally:
            if session.txn is None:  # autocommit: statement-duration
                self.locks.release_all(session.sid)

    def _execute_body(self, statement: ast.Statement,
                      session: Session,
                      source: str | ast.Statement | None = None,
                      partial: bool = False) -> Result | Partial:
        """The statement body; runs under the engine latch."""
        if isinstance(statement, ast.SelectStmt):
            self.stats["selects"] += 1
            if partial:
                return self._select_partial(Pipeline(statement), None)
            return self.execute_select(statement, None)
        handler = self._HANDLERS.get(type(statement))
        if handler is None:  # pragma: no cover - parser prevents this
            raise NotSupported(
                f"unsupported statement {type(statement).__name__}")
        if isinstance(statement, _DESTRUCTIVE_DDL) or (
                isinstance(statement, ast.CreateView)
                and statement.or_replace
                and identifiers.normalize(statement.name)
                in self.catalog.views):
            # DDL is not versioned: the catalog has no chains, so a
            # pinned snapshot cannot read around a dropped table or a
            # replaced index set.  First-pinner wins — the DDL aborts
            # with the transient serialization error (ORA-08177 style)
            # and can be retried once the readers commit.
            with self._txn_lock:
                conflicting = sorted(sid for sid in self._pinned
                                     if sid != session.sid)
            if conflicting:
                raise SerializationConflict(
                    f"cannot run"
                    f" {type(statement).__name__.upper()} while"
                    f" {len(conflicting)} other session(s) hold pinned"
                    f" snapshots (READ ONLY or SERIALIZABLE); retry"
                    f" after they commit")
        journal = UndoJournal()
        outer = self._active_journal
        self._active_journal = journal
        txn = session.txn
        write_set: list | None = None
        if not isinstance(statement, ast.ExplainStmt):
            # rows touched by this statement carry this token
            # (``Row.pending``) until their commit stamp
            write_set = []
            self._active_write_set = write_set
            self._active_token = (txn.token if txn is not None
                                  else next(self._token_counter))
            if txn is not None and txn.isolation == "SERIALIZABLE" \
                    and txn.snapshot_ts is not None:
                self._serial_ts = txn.snapshot_ts
        try:
            result = handler(self, statement)
        except BaseException:
            self._active_journal = outer
            journal.undo_to(0)
            raise
        finally:
            self._active_write_set = None
            self._active_token = None
            self._serial_ts = None
        self._active_journal = outer
        logged = (source is not None
                  and not isinstance(statement, ast.ExplainStmt))
        if session.txn is not None:
            session.txn.journal.absorb(journal)
            if write_set:
                # stamped all at once when the transaction commits
                session.txn.write_set.extend(write_set)
            if logged:
                # redo side of the transaction: flushed to the WAL in
                # one record at COMMIT (savepoints truncate the list)
                session.txn.statements.append(source)
        else:
            durable = (logged and self.wal is not None
                       and not self._wal_suppressed)
            if durable:
                # autocommit in durable mode: one WAL record per
                # statement; on append failure the in-memory change is
                # undone too, so memory never runs ahead of what
                # recovery will rebuild (and nothing gets stamped
                # visible)
                try:
                    self._wal_commit([source])
                except BaseException:
                    journal.undo_to(0)
                    raise
            if write_set:
                if self._wal_suppressed:
                    # recovery replay: stamped once per WAL record so
                    # commit timestamps match the pre-crash history
                    self._replay_write_set.extend(write_set)
                else:  # autocommit: the statement is the transaction
                    self._stamp_commit(write_set)
            if durable:
                # after stamping: a checkpoint must never snapshot
                # rows still marked pending
                self._maybe_autocheckpoint()
        return result

    # -- lock planning ----------------------------------------------------------------

    def _acquire_statement_locks(self, session: Session,
                                 statement: ast.Statement,
                                 deadline: float | None = None) -> None:
        """Take every table lock *statement* needs, in sorted resource
        order (a global order prevents lock-order deadlocks between
        single statements; transaction-spanning cycles remain and are
        caught by the wait-for graph).

        *deadline* (monotonic seconds) caps the total lock wait: a
        request that cannot be granted in time aborts with
        :class:`StatementTimeout` instead of blocking into a budget
        the statement no longer has.
        """
        for resource, lock_mode in self._statement_locks(statement):
            self.faults.hit("lock", resource=resource, mode=lock_mode,
                            session=session.name)
            if deadline is None:
                self.locks.acquire(session.sid, resource, lock_mode)
                continue
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise StatementTimeout(
                    f"statement exceeded its"
                    f" {session.statement_timeout:.3f}s budget"
                    f" waiting for {lock_mode} lock on {resource}")
            try:
                self.locks.acquire(session.sid, resource, lock_mode,
                                   timeout=min(self.locks.timeout,
                                               remaining))
            except LockTimeout:
                if time.monotonic() >= deadline:
                    raise StatementTimeout(
                        f"statement exceeded its"
                        f" {session.statement_timeout:.3f}s budget"
                        f" waiting for {lock_mode} lock on"
                        f" {resource}") from None
                raise

    def _statement_locks(
            self, statement: ast.Statement) -> list[tuple[str, str]]:
        """The (resource, mode) set a statement must hold.

        DML → X on the target plus S on tables its subqueries read
        (views expanded to their underlying tables); DDL → X on the
        catalog resource and on the named object.  EXPLAIN locks
        nothing (it never touches rows).  SELECT and ANALYZE never get
        here: they read a snapshot and take no table locks.
        """
        reads: set[str] = set()
        writes: set[str] = set()
        if isinstance(statement, ast.Insert):
            writes.add(identifiers.normalize(statement.table))
            _collect_table_refs(statement, reads)
        elif isinstance(statement, (ast.Update, ast.Delete)):
            writes.add(identifiers.normalize(statement.table))
            _collect_table_refs(statement, reads)
        elif isinstance(statement, ast.ExplainStmt):
            return []
        elif isinstance(statement, ast.CreateIndex):
            # index DDL also rewrites the table's probe paths: exclude
            # concurrent writers (readers are excluded by the pinned-
            # snapshot conflict check)
            writes.add(CATALOG_RESOURCE)
            writes.add(identifiers.normalize(statement.name))
            writes.add(identifiers.normalize(statement.table))
        else:  # DDL
            writes.add(CATALOG_RESOURCE)
            name = getattr(statement, "name", None)
            if isinstance(name, str):
                writes.add(identifiers.normalize(name))
        self._expand_view_reads(reads)
        reads -= writes
        specs = [(resource, SHARED) for resource in reads]
        specs += [(resource, EXCLUSIVE) for resource in writes]
        specs.sort()
        return specs

    def _expand_view_reads(self, names: set[str]) -> None:
        """Add the underlying tables of every view in *names* (a view
        read locks its base tables; the view name itself stays in the
        set so DDL on the view serializes against readers)."""
        frontier = list(names)
        while frontier:
            view = self.catalog.views.get(frontier.pop())
            if view is None:
                continue
            inner: set[str] = set()
            _collect_table_refs(view.query, inner)
            for key in inner:
                if key not in names:
                    names.add(key)
                    frontier.append(key)

    def _deadline_expired(self) -> None:
        """Abort the running statement: its time budget ran out
        mid-scan.  (Callers gate on ``_statement_deadline`` being set
        so idle engines pay one attribute check per row.)"""
        raise StatementTimeout(
            "statement exceeded its time budget while scanning rows")

    def _parse_cached(self, sql: str) -> ast.Statement:
        """Parse *sql*, reusing the LRU statement cache.

        AST nodes are frozen dataclasses, so a cached statement is
        safe to re-execute; the "parse" fault site keeps firing on
        every execution (the caller hits it before looking here).
        Runs before the engine latch, so the cache has its own lock —
        parsing itself happens outside both.
        """
        with self._stmt_cache_lock:
            cached = self._statement_cache.get(sql)
            if cached is not None:
                self.stats["stmt_cache_hits"] += 1
                # refresh recency: dicts preserve insertion order
                self._statement_cache.pop(sql)
                self._statement_cache[sql] = cached
                return cached
            self.stats["stmt_cache_misses"] += 1
        parsed = parse_statement(sql)
        with self._stmt_cache_lock:
            if sql not in self._statement_cache:
                if (len(self._statement_cache)
                        >= self.STATEMENT_CACHE_SIZE):
                    self._statement_cache.pop(
                        next(iter(self._statement_cache)))
                self._statement_cache[sql] = parsed
        return parsed

    def _handle_transaction_control(
            self, statement: ast.Statement,
            session: Session) -> Result | None:
        """Run BEGIN/COMMIT/ROLLBACK/SAVEPOINT; None for anything else.

        These are dispatched before fault injection on purpose:
        recovery must stay possible while faults are armed.
        """
        if isinstance(statement, ast.BeginTransaction):
            session.begin()
            return Result(message="Transaction started.")
        if isinstance(statement, ast.CommitStmt):
            session.commit()
            return Result(message="Commit complete.")
        if isinstance(statement, ast.RollbackStmt):
            session.rollback(to=statement.savepoint)
            return Result(message="Rollback complete.")
        if isinstance(statement, ast.SavepointStmt):
            session.savepoint(statement.name)
            return Result(
                message=f"Savepoint {statement.name} established.")
        if isinstance(statement, ast.SetTransaction):
            session.set_transaction(read_only=statement.read_only,
                                    isolation=statement.isolation)
            return Result(message="Transaction set.")
        return None

    # -- transactions -----------------------------------------------------------------
    # The database-level API drives the implicit default session, so
    # single-threaded code (and SQL scripts) keeps working unchanged.

    @property
    def in_transaction(self) -> bool:
        return self._default_session.in_transaction

    def begin(self) -> None:
        """Open an explicit transaction (autocommit until then)."""
        self._default_session.begin()

    def commit(self) -> None:
        """Make the open transaction's work permanent (no-op when
        none is open, like Oracle's COMMIT)."""
        self._default_session.commit()

    def rollback(self, to: str | None = None) -> None:
        """Undo the open transaction, or just back to savepoint *to*."""
        self._default_session.rollback(to)

    def savepoint(self, name: str) -> None:
        """Establish a named savepoint (implicitly opening a
        transaction when none is active, as DML does in Oracle)."""
        self._default_session.savepoint(name)

    def transaction(self):
        """``with db.transaction():`` — commit on success, roll back
        on any exception."""
        return self._default_session.transaction()

    def atomic(self):
        """An all-or-nothing scope that nests: a full transaction at
        the outermost level, a uniquely-named savepoint inside an
        already-open transaction."""
        return self._default_session.atomic()

    def _record(self, undo) -> None:
        """Log an inverse operation into the running statement."""
        if self._active_journal is not None:
            self._active_journal.record(undo)

    def executescript(self, script: str) -> list[Result]:
        """Execute a multi-statement SQL script (Section 4: the
        generated script runs 'without any modification')."""
        return [self.execute(text) for text in split_statements(script)]

    def explain(self, statement: str | ast.Statement,
                session: Session | None = None) -> QueryPlan:
        """Describe how a statement would run, without running it.

        Accepts SELECT, INSERT, UPDATE and DELETE (plain or wrapped
        in ``EXPLAIN``); anything else raises :class:`NotSupported`.
        Building the plan never touches row data, so the scan/join
        counters in :attr:`stats` stay untouched.  SELECT plans state
        the read mode *session* (default: the session executing the
        EXPLAIN, else the implicit one) would run under — ``SNAPSHOT
        READ @latest``, ``SNAPSHOT READ @<ts>`` for a pinned
        transaction snapshot.
        """
        if isinstance(statement, str):
            statement = parse_statement(statement)
        if session is None:
            session = self._active_session or self._default_session
        with self._latch:  # plans read the catalog
            return PlanBuilder(
                self, read_mode=self._read_mode(session)
            ).build(statement)

    def _read_mode(self, session: Session) -> str:
        """How a SELECT by *session* reads rows right now."""
        txn = session.txn
        if txn is not None and txn.snapshot_ts is not None:
            return f"SNAPSHOT READ @{txn.snapshot_ts}"
        return "SNAPSHOT READ @latest"

    def _explain_statement(self, statement: ast.ExplainStmt) -> Result:
        plan = self.explain(statement.statement)
        rows = [(line,) for line in plan.render().splitlines()]
        return Result(columns=["QUERY PLAN"], rows=rows,
                      rowcount=len(rows), message="EXPLAIN")

    def dereference(self, ref: RefValue) -> ObjectValue | None:
        """Follow a REF; dangling references yield NULL like Oracle.

        Under an MVCC snapshot the target is resolved as of the
        snapshot timestamp: a concurrently updated row dereferences
        to its old image, a deleted one to its tombstoned image —
        and a row deleted *before* the snapshot is dangling."""
        with self._stats_lock:  # facade fetches call in unlatched
            self.stats["derefs"] += 1
        table = self.catalog.tables.get(ref.table)
        if table is None:
            return None
        row = table.data.by_oid(ref.oid)
        snap = self._active_snapshot
        if snap is None:
            if row is None:
                return None
            return self._row_object(table, row)
        if row is None:
            row = table.data.tombstone_by_oid(ref.oid)
            if row is None:
                return None
        if row.pending is not None and row.pending != snap.token:
            snap.saw_pending = True
        values = row.visible_values(snap.ts, snap.token)
        if values is None:
            return None
        return self._row_object(table, row, values)

    def _row_object(self, table: Table, row: Row,
                    values: dict | None = None) -> ObjectValue:
        object_type = self.catalog.object_type(table.of_type)
        if values is None:
            values = row.values
        return ObjectValue(object_type.name, {
            attribute.key: values.get(attribute.key)
            for attribute in object_type.attributes
        })

    # -- DDL: types ---------------------------------------------------------------------

    def _create_type_forward(self,
                             statement: ast.CreateTypeForward) -> Result:
        key = identifiers.normalize(statement.name)
        existed = key in self.catalog.types
        self.catalog.create_forward_type(statement.name)
        if not existed:
            self._record(lambda: self.catalog.types.pop(key, None))
        return Result(message=f"Type {statement.name} declared"
                              f" (incomplete).")

    def _create_object_type(self,
                            statement: ast.CreateObjectType) -> Result:
        attributes = [
            TypeAttribute(name, self.catalog.datatype_from_ref(type_ref))
            for name, type_ref in statement.attributes
        ]
        key = identifiers.normalize(statement.name)
        prior = self.catalog.types.get(key)
        completing = isinstance(prior, ObjectType) and prior.incomplete
        self.catalog.create_object_type(statement.name, attributes,
                                        replace=statement.or_replace)
        if prior is None:
            self._record(lambda: self.catalog.types.pop(key, None))
        elif completing:
            # completion mutates the forward type in place; undo
            # restores the same instance to its incomplete state
            def undo(forward=prior):
                forward.attributes = []
                forward.incomplete = True
            self._record(undo)
        else:  # OR REPLACE swapped the entry
            self._record(
                lambda: self.catalog.types.__setitem__(key, prior))
        return Result(message=f"Type {statement.name} created.")

    def _create_varray_type(self,
                            statement: ast.CreateVarrayType) -> Result:
        element = self.catalog.datatype_from_ref(statement.element)
        self._create_collection(statement.name, element,
                                limit=statement.limit,
                                replace=statement.or_replace)
        return Result(message=f"Type {statement.name} created.")

    def _create_nested_table_type(
            self, statement: ast.CreateNestedTableType) -> Result:
        element = self.catalog.datatype_from_ref(statement.element)
        self._create_collection(statement.name, element, limit=None,
                                replace=statement.or_replace)
        return Result(message=f"Type {statement.name} created.")

    def _create_collection(self, name: str, element, limit: int | None,
                           replace: bool) -> None:
        key = identifiers.normalize(name)
        prior = self.catalog.types.get(key)
        self.catalog.create_collection_type(name, element, limit=limit,
                                            replace=replace)
        if prior is None:
            self._record(lambda: self.catalog.types.pop(key, None))
        else:
            self._record(
                lambda: self.catalog.types.__setitem__(key, prior))

    def _drop_type(self, statement: ast.DropType) -> Result:
        types_before = dict(self.catalog.types)
        tables_before = dict(self.catalog.tables)
        removed = self.catalog.drop_type(statement.name, statement.force)

        def undo():
            self.catalog.types.clear()
            self.catalog.types.update(types_before)
            self.catalog.tables.clear()
            self.catalog.tables.update(tables_before)

        self._record(undo)
        return Result(message=f"Type {statement.name} dropped"
                              f" ({len(removed)} object(s)).")

    # -- DDL: tables -----------------------------------------------------------------------

    def _create_table(self, statement: ast.CreateTable) -> Result:
        if statement.of_type is not None:
            table = self._build_object_table(statement)
        else:
            table = self._build_relational_table(statement)
        self._check_nested_storage(statement, table)
        table.indexes = build_auto_indexes(table)
        storage_before = set(self.catalog.storage_names)
        self.catalog.add_table(table)

        def undo():
            self.catalog.tables.pop(table.key, None)
            self.catalog.storage_names.clear()
            self.catalog.storage_names.update(storage_before)

        self._record(undo)
        return Result(message=f"Table {statement.name} created.")

    def _build_relational_table(self,
                                statement: ast.CreateTable) -> Table:
        columns = [
            Column(definition.name,
                   self.catalog.datatype_from_ref(
                       definition.type_ref, allow_incomplete_ref=False))
            for definition in statement.columns
        ]
        table = Table(statement.name, columns)
        for definition in statement.columns:
            self._apply_column_constraints(table, definition.name,
                                           definition.constraints)
        self._apply_table_constraints(table, statement.constraints)
        return table

    def _build_object_table(self, statement: ast.CreateTable) -> Table:
        object_type = self.catalog.object_type(statement.of_type)
        if object_type.incomplete:
            raise IncompleteType(
                f"cannot create a table of incomplete type"
                f" '{statement.of_type}'")
        columns = [
            Column(attribute.name, attribute.datatype)
            for attribute in object_type.attributes
        ]
        table = Table(statement.name, columns, of_type=object_type.key)
        for spec in statement.object_specs:
            if table.column(spec.column) is None:
                raise NoSuchColumn(
                    f"'{spec.column}' is not an attribute of"
                    f" {object_type.name}")
            self._apply_column_constraints(table, spec.column,
                                           spec.constraints)
        self._apply_table_constraints(table, statement.constraints)
        return table

    def _apply_column_constraints(
            self, table: Table, column_name: str,
            constraints: tuple[ast.ColumnConstraint, ...]) -> None:
        column = table.column(column_name)
        assert column is not None
        for constraint in constraints:
            if constraint.kind == "NOT NULL":
                table.constraints.not_null.append(
                    NotNullConstraint(column.key, column.name))
            elif constraint.kind == "PRIMARY KEY":
                if table.constraints.primary_key is not None:
                    raise NotSupported(
                        "table already has a primary key")
                table.constraints.primary_key = PrimaryKeyConstraint(
                    (column.key,))
            elif constraint.kind == "UNIQUE":
                table.constraints.unique.append(
                    UniqueConstraint((column.key,)))

    def _apply_table_constraints(
            self, table: Table,
            constraints: tuple[ast.TableConstraint, ...]) -> None:
        for constraint in constraints:
            if constraint.kind == "PRIMARY KEY":
                if table.constraints.primary_key is not None:
                    raise NotSupported("table already has a primary key")
                table.constraints.primary_key = PrimaryKeyConstraint(
                    tuple(self._column_key(table, name)
                          for name in constraint.columns),
                    constraint.name)
            elif constraint.kind == "UNIQUE":
                table.constraints.unique.append(UniqueConstraint(
                    tuple(self._column_key(table, name)
                          for name in constraint.columns),
                    constraint.name))
            elif constraint.kind == "CHECK":
                assert constraint.expression is not None
                table.constraints.checks.append(CheckConstraint(
                    constraint.expression,
                    constraint.expression_source or "",
                    constraint.name))
            elif constraint.kind == "SCOPE":
                self._apply_scope_constraint(table, constraint)

    def _apply_scope_constraint(self, table: Table,
                                constraint: ast.TableConstraint) -> None:
        column = table.column(constraint.columns[0])
        if column is None:
            raise NoSuchColumn(
                f"'{constraint.columns[0]}' is not a column of"
                f" {table.name}")
        if not isinstance(column.datatype, RefType):
            raise TypeMismatch(
                f"SCOPE FOR requires a REF column,"
                f" '{column.name}' is {column.datatype.sql_name()}")
        if identifiers.normalize(constraint.scope_table) == table.key:
            # self-scoped REF (recursive/IDREF structures): the table
            # being created is its own scope target
            scope_table = table
        else:
            scope_table = self.catalog.table(constraint.scope_table)
        if (not scope_table.is_object_table
                or scope_table.of_type != column.datatype.target_key):
            raise TypeMismatch(
                f"SCOPE table '{constraint.scope_table}' is not an"
                f" object table of {column.datatype.target_type}")
        table.constraints.scopes.append(
            ScopeForConstraint(column.key, scope_table.key))

    @staticmethod
    def _column_key(table: Table, name: str) -> str:
        column = table.column(name)
        if column is None:
            raise NoSuchColumn(
                f"'{name}' is not a column of {table.name}")
        return column.key

    def _check_nested_storage(self, statement: ast.CreateTable,
                              table: Table) -> None:
        clauses = {
            identifiers.normalize(clause.column): clause.storage_name
            for clause in statement.nested_table_clauses
        }
        for column in table.columns:
            if isinstance(column.datatype, NestedTableType):
                if column.key not in clauses:
                    raise NestedCollectionNotSupported(
                        f"must specify STORE AS table name for nested"
                        f" table column '{column.name}'")
                table.nested_storage[column.key] = clauses.pop(column.key)
        if clauses:
            extra = ", ".join(clauses)
            raise NoSuchColumn(
                f"NESTED TABLE clause names non-nested column(s):"
                f" {extra}")

    def _drop_table(self, statement: ast.DropTable) -> Result:
        key = identifiers.normalize(statement.name)
        table = self.catalog.tables.get(key)
        storage_before = set(self.catalog.storage_names)
        self.catalog.drop_table(statement.name)

        def undo():
            self.catalog.tables[key] = table
            self.catalog.storage_names.clear()
            self.catalog.storage_names.update(storage_before)

        self._record(undo)
        return Result(message=f"Table {statement.name} dropped.")

    # -- DDL: views -------------------------------------------------------------------------

    def _create_view(self, statement: ast.CreateView) -> Result:
        if statement.column_names:
            star_items = any(
                isinstance(item.expression, ast.Star)
                for item in statement.query.items)
            if (not star_items
                    and len(statement.column_names)
                    != len(statement.query.items)):
                raise NotSupported(
                    "view column list does not match select list")
        view = View(statement.name, statement.query,
                    statement.column_names)
        prior = self.catalog.views.get(view.key)
        self.catalog.add_view(view, replace=statement.or_replace)
        if prior is None:
            self._record(
                lambda: self.catalog.views.pop(view.key, None))
        else:
            self._record(
                lambda: self.catalog.views.__setitem__(view.key, prior))
        return Result(message=f"View {statement.name} created.")

    def _drop_view(self, statement: ast.DropView) -> Result:
        key = identifiers.normalize(statement.name)
        view = self.catalog.views.get(key)
        self.catalog.drop_view(statement.name)
        self._record(
            lambda: self.catalog.views.__setitem__(key, view))
        return Result(message=f"View {statement.name} dropped.")

    # -- DDL: indexes and statistics ---------------------------------------------------------

    def _create_index(self, statement: ast.CreateIndex) -> Result:
        if statement.unique:
            raise NotSupported(
                "CREATE UNIQUE INDEX is not supported; declare a"
                " UNIQUE constraint instead")
        table = self.catalog.table(statement.table)
        name_key = identifiers.normalize(statement.name)
        self.catalog._assert_name_free(name_key)
        for existing in self.catalog.tables.values():
            for other in existing.indexes:
                if identifiers.normalize(other.name) == name_key:
                    raise NameInUse(
                        f"name '{name_key}' is already used by an"
                        f" index on {existing.name}")
        resolved = tuple(self._index_column(table, path)
                         for path in statement.columns)
        columns = tuple(key for key, _ in resolved)
        if statement.using is None:
            index = SortedIndex(name_key, columns)
        else:
            if len(columns) != 1:
                raise NotSupported(
                    f"USING {statement.using} indexes cover exactly"
                    f" one column")
            datatype = resolved[0][1]
            # string columns only: the tokenizers index nothing for
            # non-text values, so a probe over a non-string column
            # would silently diverge from the full-scan evaluators
            if not isinstance(datatype, (Varchar2, CharType, ClobType)):
                raise TypeMismatch(
                    f"USING {statement.using} requires a string"
                    f" column; '{'.'.join(statement.columns[0])}' is"
                    f" {datatype.sql_name()}")
            kind = (FullTextIndex if statement.using == "FULLTEXT"
                    else TrigramIndex)
            index = kind(name_key, columns)
        for row in table.data.rows:
            index.add(row)
        table.indexes.indexes.append(index)

        def undo():
            if index in table.indexes.indexes:
                table.indexes.indexes.remove(index)

        self._record(undo)
        return Result(message=f"Index {statement.name} created.")

    def _index_column(self, table: Table,
                      path: tuple[str, ...]) -> tuple[str, DataType]:
        """Validate one CREATE INDEX column path and return its key
        and resolved datatype.

        Dot-notation paths may only navigate *embedded* object
        attributes: a REF step would make the index key depend on
        another table's rows, which journal-riding maintenance on
        this table cannot see."""
        column = table.column(path[0])
        if column is None:
            raise NoSuchColumn(
                f"'{path[0]}' is not a column of {table.name}")
        keys = [column.key]
        datatype = column.datatype
        for part in path[1:]:
            if isinstance(datatype, RefType):
                raise NotSupported(
                    f"cannot index through REF column"
                    f" '{'.'.join(path)}'; index the target table"
                    f" instead")
            if not isinstance(datatype, ObjectType):
                raise TypeMismatch(
                    f"'{'.'.join(path)}' does not navigate embedded"
                    f" object attributes")
            attribute = datatype.attribute(part)
            if attribute is None:
                raise NoSuchColumn(
                    f"'{part}' is not an attribute of"
                    f" {datatype.name}")
            keys.append(attribute.key)
            datatype = attribute.datatype
        return ".".join(keys), datatype

    def _drop_index(self, statement: ast.DropIndex) -> Result:
        name_key = identifiers.normalize(statement.name)
        for table in self.catalog.tables.values():
            for position, index in enumerate(table.indexes.indexes):
                if identifiers.normalize(index.name) != name_key:
                    continue
                if not index.user_created:
                    raise NotSupported(
                        f"index '{statement.name}' backs a constraint"
                        f" and cannot be dropped")
                owner = table

                def undo(owner=owner, position=position, index=index):
                    owner.indexes.indexes.insert(position, index)

                del table.indexes.indexes[position]
                self._record(undo)
                return Result(
                    message=f"Index {statement.name} dropped.")
        raise NoSuchType(f"index '{statement.name}' does not exist")

    def _analyze(self, statement: ast.Analyze) -> Result:
        table = self.catalog.table(statement.table)
        prior = table.stats
        table.stats = compute_table_stats(table)

        def undo():
            table.stats = prior

        self._record(undo)
        return Result(
            message=f"Table {statement.table} analyzed"
                    f" ({table.stats.row_count} rows).")

    # -- DML: insert -------------------------------------------------------------------------

    def _insert(self, statement: ast.Insert) -> Result:
        key = identifiers.normalize(statement.table)
        if key in self.catalog.views:
            raise NotSupported("INSERT into views is not supported")
        table = self.catalog.table(statement.table)
        self.stats["inserts"] += 1
        if statement.query is not None:
            result = self.execute_select(statement.query, None)
            count = 0
            for row in result.rows:
                self._insert_row(table, statement.columns, list(row))
                count += 1
            return Result(rowcount=count,
                          message=f"{count} row(s) inserted.")
        values = [self.evaluator.eval(value, Env([]))
                  for value in statement.values]
        self._insert_row(table, statement.columns, values)
        return Result(rowcount=1, message="1 row inserted.")

    def _insert_row(self, table: Table, columns: tuple[str, ...],
                    values: list[object]) -> None:
        # INSERT INTO object_table VALUES (Type_X(...)) — a single
        # object of the row type populates all columns at once.  The
        # value's type name disambiguates this from a single-column
        # positional insert.
        if (table.is_object_table and not columns and len(values) == 1
                and isinstance(values[0], ObjectValue)
                and identifiers.normalize(values[0].type_name)
                == table.of_type):
            source = values[0]
            values = [source.get(column.name) for column in table.columns]
        if columns:
            keys = [self._column_key(table, name) for name in columns]
        else:
            keys = table.column_keys()
        if len(values) != len(keys):
            raise WrongArgumentCount(
                f"INSERT supplies {len(values)} values for"
                f" {len(keys)} column(s)")
        row_values: dict[str, object] = {
            column.key: None for column in table.columns}
        for column_key, value in zip(keys, values):
            column = table.column(column_key)
            assert column is not None
            row_values[column_key] = coerce_value(
                value, column.datatype, self.catalog.resolve_type)
        self._enforce_constraints(table, row_values, existing_row=None)
        self.faults.hit("storage", op="insert", table=table.name)
        row = Row(row_values,
                  oid=next_oid() if table.is_object_table else None)
        if self._active_write_set is not None:
            # invisible to other snapshots until the commit stamp; no
            # version image — absence of a visible version IS the
            # pre-insert state
            row.pending = self._active_token
            self._active_write_set.append((table, row))
        table.data.insert(row)
        table.indexes.add_row(row)

        def undo(row=row):
            table.data.remove_exact(row)
            table.indexes.remove_row(row)
            row.pending = None  # keep commit stamping off undone rows

        self._record(undo)
        self.stats["rows_inserted"] += 1

    # -- constraint enforcement -------------------------------------------------------------

    def _enforce_constraints(self, table: Table,
                             row_values: dict[str, object],
                             existing_row: Row | None) -> None:
        constraints: ConstraintSet = table.constraints
        for column_key in constraints.not_null_columns():
            if row_values.get(column_key) is None:
                raise NullNotAllowed(
                    f"cannot insert NULL into"
                    f" {table.name}.{column_key}")
        if constraints.primary_key is not None:
            self._check_unique(table, row_values,
                               constraints.primary_key.columns,
                               existing_row, "primary key")
        for unique in constraints.unique:
            self._check_unique(table, row_values, unique.columns,
                               existing_row, "unique")
        for check in constraints.checks:
            self._enforce_check(table, row_values, check)
        for scope in constraints.scopes:
            value = row_values.get(scope.column)
            if isinstance(value, RefValue) and value.table != scope.table:
                raise DanglingReference(
                    f"REF in {table.name}.{scope.column} must point"
                    f" into {scope.table}")

    def _check_unique(self, table: Table, row_values: dict[str, object],
                      columns: tuple[str, ...],
                      existing_row: Row | None, kind: str) -> None:
        candidate = tuple(row_values.get(column) for column in columns)
        if all(value is None for value in candidate):
            return
        rows: list[Row] | None = None
        if self.enable_indexes:
            index = table.indexes.covering(columns)
            if index is not None:
                # probe in the index's column order; the bucket is a
                # superset of tuple-equal rows, re-verified below
                probe = tuple(row_values.get(column)
                              for column in index.columns)
                rows = index.lookup(probe)
                if rows is not None:
                    self.stats["index_unique_checks"] += 1
        if rows is None:
            rows = table.data.rows
        for row in rows:
            if row is existing_row:
                continue
            stored = tuple(row.values.get(column) for column in columns)
            if stored == candidate:
                raise UniqueViolation(
                    f"{kind} constraint violated on {table.name}"
                    f"({', '.join(columns)})")

    def _enforce_check(self, table: Table, row_values: dict[str, object],
                       check: CheckConstraint) -> None:
        binding = Binding(table.key, row_values, table, None)
        verdict = self.evaluator.eval_predicate(check.expression,
                                                Env([binding]))
        if verdict is False:
            raise CheckViolation(
                f"check constraint ({check.source}) violated on"
                f" {table.name}")

    # -- DML: update / delete ------------------------------------------------------------------

    def _dml_access(self, table: Table, alias_key: str,
                    where: ast.Expr | None) -> AccessPlan | None:
        """Costed access plan for UPDATE/DELETE row selection (None =
        nothing pushable; plain scan).  Shared with EXPLAIN so the
        rendered DML access path is the one that runs."""
        if where is None:
            return None
        pushed: list[ast.Expr] = []
        for conjunct in _split_conjuncts(where):
            heads: set[str] = set()
            if (_analyze_references(conjunct, heads) and heads
                    and heads <= {alias_key}):
                pushed.append(conjunct)
        if not pushed:
            return None
        return plan_access(table, alias_key, pushed,
                           allow_probes=self.enable_indexes)

    def _dml_candidates(self, table: Table,
                        plan: AccessPlan | None) -> list[Row] | None:
        """Probe candidates for a DML statement (a superset of the
        matches — the full WHERE is still evaluated on every row), or
        None when the plan is a scan."""
        if plan is None or plan.probe is None or not table.data.rows:
            return None
        return self._execute_probe(plan.probe, Env([]))

    def _update(self, statement: ast.Update) -> Result:
        table = self.catalog.table(statement.table)
        alias_key = identifiers.normalize(statement.alias
                                          or statement.table)
        plan = self._dml_access(table, alias_key, statement.where)
        candidates = self._dml_candidates(table, plan)
        count = 0
        for row in (list(table.data.rows) if candidates is None
                    else list(candidates)):
            if (self._statement_deadline is not None
                    and time.monotonic() > self._statement_deadline):
                self._deadline_expired()
            binding = Binding(alias_key, row.values, table, row.oid)
            env = Env([binding])
            if statement.where is not None:
                if self.evaluator.eval_predicate(statement.where,
                                                 env) is not True:
                    continue
            new_values = dict(row.values)
            for target, expression in statement.assignments:
                column_key = self._assignment_target(table, alias_key,
                                                     target)
                column = table.column(column_key)
                assert column is not None
                value = self.evaluator.eval(expression, env)
                new_values[column_key] = coerce_value(
                    value, column.datatype, self.catalog.resolve_type)
            self._enforce_constraints(table, new_values,
                                      existing_row=row)
            self.faults.hit("storage", op="update", table=table.name)
            old_values = dict(row.values)
            pushed = False
            if self._active_write_set is not None:
                self._serial_write_check(row)
                pushed = self._push_version(table, row)
                if pushed:
                    table.data.track_version(row)
                self._active_write_set.append((table, row))

            def undo(row=row, old=old_values, new=new_values,
                     pushed=pushed):
                row.values.clear()
                row.values.update(old)
                table.indexes.update_row(row, new, old)
                if pushed:
                    self._pop_version(table, row)

            self._record(undo)
            row.values.clear()
            row.values.update(new_values)
            table.indexes.update_row(row, old_values, new_values)
            count += 1
        return Result(rowcount=count,
                      message=f"{count} row(s) updated.")

    @staticmethod
    def _assignment_target(table: Table, alias_key: str,
                           target: ast.ColumnPath) -> str:
        parts = list(target.parts)
        if (len(parts) > 1
                and identifiers.normalize(parts[0]) == alias_key):
            parts = parts[1:]
        if len(parts) != 1:
            raise NotSupported(
                "UPDATE of nested attributes is not supported;"
                " assign a whole object value instead")
        column = table.column(parts[0])
        if column is None:
            raise NoSuchColumn(
                f"'{parts[0]}' is not a column of {table.name}")
        return column.key

    def _delete(self, statement: ast.Delete) -> Result:
        table = self.catalog.table(statement.table)
        alias_key = identifiers.normalize(statement.alias
                                          or statement.table)
        plan = self._dml_access(table, alias_key, statement.where)
        candidates = self._dml_candidates(table, plan)
        candidate_ids = (None if candidates is None
                         else {id(row) for row in candidates})
        doomed: list[tuple[int, Row]] = []
        for index, row in enumerate(table.data.rows):
            if (candidate_ids is not None
                    and id(row) not in candidate_ids):
                # the probe proved the WHERE cannot match this row
                continue
            if statement.where is not None:
                binding = Binding(alias_key, row.values, table, row.oid)
                verdict = self.evaluator.eval_predicate(
                    statement.where, Env([binding]))
                if verdict is not True:
                    continue
            doomed.append((index, row))
        # delete highest index first so positions stay valid; undo
        # entries replay in reverse, reinserting lowest index first
        for index, row in reversed(doomed):
            self.faults.hit("storage", op="delete", table=table.name)
            pushed = False
            if self._active_write_set is not None:
                self._serial_write_check(row)
                # the row leaves the live list but old snapshots must
                # still find it: park it as a tombstone until GC
                # proves no snapshot can reach it
                pushed = self._push_version(table, row)
                row.deleted = True
                table.data.untrack_version(row)
                table.data.tombstones.append(row)
                self._active_write_set.append((table, row))

            def undo(index=index, row=row, pushed=pushed):
                table.data.rows.insert(index, row)
                if row.oid is not None:
                    table.data.oid_index[row.oid] = row
                table.indexes.add_row(row)
                if row.deleted:
                    row.deleted = False
                    table.data.remove_tombstone(row)
                    if pushed:
                        self._pop_version(table, row)
                    if row.versions:
                        table.data.track_version(row)

            del table.data.rows[index]
            if row.oid is not None:
                table.data.oid_index.pop(row.oid, None)
            table.indexes.remove_row(row)
            self._record(undo)
        return Result(rowcount=len(doomed),
                      message=f"{len(doomed)} row(s) deleted.")

    # -- SELECT ------------------------------------------------------------------------------

    def execute_select(self, statement: ast.SelectStmt,
                       outer_env: Env | None,
                       limit: int | None = None) -> Result:
        pipeline = Pipeline(statement)
        return pipeline.finalise(
            self._select_partial(pipeline, outer_env, limit),
            self.evaluator)

    def _select_partial(self, pipeline: Pipeline, outer_env: Env | None,
                        limit: int | None = None) -> Partial:
        """Enumerate the qualifying rows and hand them to *pipeline*
        (repro.ordb.select owns everything after enumeration)."""
        statement = pipeline.statement
        if statement.fetch_first is not None:
            # row enumeration only short-circuits when no ordering or
            # grouping forces full materialization
            fetch = statement.fetch_first
            limit = fetch if limit is None else min(limit, fetch)
        if select_scans_vectors(statement):
            self.stats["vector_scans"] += 1
        environments = self._enumerate_rows(
            statement, outer_env, None if pipeline.grouped else limit)
        return pipeline.partial(environments, self.evaluator)

    def _enumerate_rows(self, statement: ast.SelectStmt,
                        outer_env: Env | None,
                        limit: int | None) -> list[Env]:
        environments: list[Env] = []
        short_circuit = (limit is not None and statement.order_by == ()
                         and not statement.group_by
                         and not statement.distinct)
        per_level, residual = self._plan_predicates(statement)
        plans = [
            self._level_access(item, pushed)
            for item, pushed in zip(statement.from_items, per_level)
        ]

        def expand(index: int, frames: list[Binding]) -> bool:
            if index == len(statement.from_items):
                env = Env(list(frames), outer_env)
                for conjunct in residual:
                    if self.evaluator.eval_predicate(conjunct,
                                                     env) is not True:
                        return False
                environments.append(env)
                return bool(short_circuit
                            and len(environments) >= (limit or 0))
            item = statement.from_items[index]
            partial = Env(list(frames), outer_env)
            plan = plans[index]
            # the planner reorders pushed conjuncts most-selective
            # first (REF dereferences last); all of them still run
            pushed = (plan.filters if plan is not None
                      else per_level[index])
            for binding in self._bindings_for(item, partial, plan):
                frames.append(binding)
                env = Env(frames, outer_env) if pushed else None
                passed = all(
                    self.evaluator.eval_predicate(conjunct, env) is True
                    for conjunct in pushed)
                done = passed and expand(index + 1, frames)
                frames.pop()
                if done:
                    return True
            return False

        if len(statement.from_items) > 1:
            self.stats["joins"] += len(statement.from_items) - 1
        expand(0, [])
        return environments

    def _plan_predicates(
            self, statement: ast.SelectStmt
    ) -> tuple[list[list[ast.Expr]], list[ast.Expr]]:
        """Split WHERE into AND-conjuncts and push each down to the
        earliest join level where all of its alias references are
        bound.  Only conjuncts that reference nothing but explicit
        from-item aliases (and contain no subqueries) are pushed; the
        rest run after the full row is assembled, preserving SQL
        semantics for correlation and ambiguity checking."""
        levels: list[list[ast.Expr]] = [
            [] for _ in statement.from_items]
        residual: list[ast.Expr] = []
        if statement.where is None or not statement.from_items:
            if statement.where is not None:
                residual.append(statement.where)
            return levels, residual
        alias_level: dict[str, int] = {}
        for index, item in enumerate(statement.from_items):
            name = getattr(item, "alias", None) or getattr(
                item, "name", None)
            if name:
                alias_level[identifiers.normalize(name)] = index
        for conjunct in _split_conjuncts(statement.where):
            heads: set[str] = set()
            pushable = _analyze_references(conjunct, heads)
            if pushable and heads and all(
                    head in alias_level for head in heads):
                level = max(alias_level[head] for head in heads)
                levels[level].append(conjunct)
            else:
                residual.append(conjunct)
        return levels, residual

    def _level_access(self, item: ast.FromItem,
                      pushed: list[ast.Expr]) -> AccessPlan | None:
        """Costed access plan for one FROM item (None = not a plain
        table: views, subqueries and TABLE() plan their own reads)."""
        if not isinstance(item, ast.TableRef):
            return None
        key = identifiers.normalize(item.name)
        if key in self.catalog.views:
            return None
        table = self.catalog.tables.get(key)
        if table is None:  # let _bindings_for raise NoSuchTable
            return None
        alias_key = identifiers.normalize(item.alias or item.name)
        return plan_access(table, alias_key, pushed,
                           allow_probes=self.enable_indexes)

    def _probe_rows(self, probe: ProbeSpec,
                    env: Env) -> list[Row] | None:
        """Candidate rows for *probe*, or None to fall back to a scan.

        Probe expressions are evaluated against the already-bound
        outer rows; a NULL probe value matches nothing (``col =
        NULL`` is never TRUE), an unkeyable value forfeits the probe.
        """
        values = []
        for column in probe.index.columns:
            value = self.evaluator.eval(probe.values[column], env)
            if value is None:
                return []
            values.append(value)
        rows = probe.index.lookup(tuple(values))
        if rows is None:
            return None
        self.stats["index_lookups"] += 1
        return rows

    def _range_probe_rows(self, probe: RangeProbeSpec,
                          env: Env) -> list[Row] | None:
        """Candidate rows for a range/prefix probe, or None to fall
        back to a scan (the sorted index bails out whenever its key
        population cannot answer the bounds safely).  A NULL bound
        matches nothing — ``col >= NULL`` is never TRUE."""
        if probe.prefix is not None:
            rows = probe.index.prefix_lookup(probe.prefix)
        else:
            low = high = None
            if probe.low is not None:
                low = self.evaluator.eval(probe.low, env)
                if low is None:
                    return []
            if probe.high is not None:
                high = self.evaluator.eval(probe.high, env)
                if high is None:
                    return []
            rows = probe.index.range_lookup(low, high,
                                            probe.low_inclusive,
                                            probe.high_inclusive)
        if rows is None:
            return None
        self.stats["range_index_lookups"] += 1
        return rows

    def _fulltext_probe_rows(self, probe: FullTextProbeSpec
                             ) -> list[Row]:
        """Candidate rows of a CONTAINS probe — intersected posting
        lists per AND-group, unioned across OR-groups (the residual
        CONTAINS check still runs per row)."""
        rows = probe.index.lookup(probe.groups)
        self.stats["fulltext_lookups"] += 1
        return rows

    def _trigram_probe_rows(self, probe: TrigramProbeSpec
                            ) -> list[Row]:
        """Candidate rows of a trigram LIKE probe; an absent trigram
        proves no row can match (the planner priced that at zero)."""
        rows = probe.index.lookup(probe.trigrams)
        self.stats["trigram_lookups"] += 1
        return rows

    def _execute_probe(self, probe, env: Env) -> list[Row] | None:
        if isinstance(probe, RangeProbeSpec):
            return self._range_probe_rows(probe, env)
        if isinstance(probe, FullTextProbeSpec):
            return self._fulltext_probe_rows(probe)
        if isinstance(probe, TrigramProbeSpec):
            return self._trigram_probe_rows(probe)
        return self._probe_rows(probe, env)

    def _bindings_for(self, item: ast.FromItem, env: Env,
                      plan: AccessPlan | None = None):
        """Bindings for one FROM item.

        ``rows_scanned``/``full_scans`` are counted here and only for
        *physical* row visits (table rows — scanned or probed — and
        TABLE() collection elements).  Bindings materialized from a
        view or subquery result are not re-counted: the inner SELECT
        already accounted for the physical work it did, and a view
        answered from the statement's memo did none at all.
        """
        if isinstance(item, ast.TableRef):
            key = identifiers.normalize(item.name)
            if key in self.catalog.views:
                yield from self._view_bindings(
                    self.catalog.views[key], item.alias)
                return
            table = self.catalog.table(item.name)
            alias_key = identifiers.normalize(item.alias or item.name)
            snap = self._active_snapshot
            rows = table.data.rows
            probe = plan.probe if plan is not None else None
            candidates = None
            if probe is not None and rows:
                candidates = self._execute_probe(probe, env)
            if candidates is not None:
                rows = candidates
                if snap is not None:
                    # indexes cover *current* contents only.  Rows
                    # whose old image this snapshot must read (chained
                    # updates, tombstoned deletes) may be missing from
                    # the bucket, so union them in; pushed conjuncts
                    # are re-checked per binding, so rows whose old
                    # image does NOT match drop out again.
                    extras = table.data.snapshot_extras()
                    if extras:
                        seen = {id(candidate) for candidate in rows}
                        rows = list(rows) + [
                            extra for extra in extras
                            if id(extra) not in seen]
            else:
                self.stats["full_scans"] += 1
                if plan is not None and plan.sargable:
                    # an index could have served this level but the
                    # planner priced it out (or its probe value was
                    # unkeyable at runtime) — observable as a fallback
                    self.stats["planner_full_scan_fallbacks"] += 1
                if snap is not None and table.data.tombstones:
                    # versioned live rows are already in the scan;
                    # deleted ones survive only as tombstones
                    rows = itertools.chain(rows,
                                           list(table.data.tombstones))
            for row in rows:
                self.stats["rows_scanned"] += 1
                if (self._statement_deadline is not None
                        and time.monotonic() > self._statement_deadline):
                    self._deadline_expired()
                if snap is None:
                    yield Binding(alias_key, row.values, table, row.oid)
                    continue
                if row.pending is not None \
                        and row.pending != snap.token:
                    # a 2PL reader would be blocked right here
                    snap.saw_pending = True
                values = row.visible_values(snap.ts, snap.token)
                if values is None:
                    continue
                yield Binding(alias_key, values, table, row.oid)
            return
        if isinstance(item, ast.SubqueryRef):
            result = self.execute_select(item.query, env)
            alias_key = identifiers.normalize(item.alias or "SUBQUERY")
            keys = [identifiers.normalize(name)
                    for name in result.columns]
            for row in result.rows:
                yield Binding(alias_key, dict(zip(keys, row)))
            return
        assert isinstance(item, ast.TableFunctionRef)
        value = self.evaluator.eval(item.expression, env)
        alias_key = identifiers.normalize(item.alias or "COLLECTION")
        if value is None:
            return
        if not isinstance(value, CollectionValue):
            raise TypeMismatch("TABLE() requires a collection value")
        element_type = self._collection_element_type(value)
        for element in value.items:
            self.stats["rows_scanned"] += 1
            if isinstance(element_type, ObjectType):
                columns = {
                    attribute.key: (element.get(attribute.key)
                                    if isinstance(element, ObjectValue)
                                    else None)
                    for attribute in element_type.attributes
                }
            else:
                columns = {"COLUMN_VALUE": element}
            yield Binding(alias_key, columns)

    def _collection_element_type(self, value: CollectionValue):
        datatype = self.catalog.types.get(
            identifiers.normalize(value.type_name))
        if isinstance(datatype, (NestedTableType,)):
            return datatype.element_type
        if datatype is not None and hasattr(datatype, "element_type"):
            return datatype.element_type
        return None

    def _view_result(self, view: View) -> Result:
        """Evaluate *view*'s query once per statement.

        The memo lives exactly as long as the statement (see
        :meth:`_execute`), so every read of the view inside it sees
        the same rows and no result crosses into another statement's
        snapshot."""
        result = self._view_memo.get(view.key)
        if result is not None:
            self.stats["view_cache_hits"] += 1
            return result
        self.stats["view_cache_misses"] += 1
        result = self._view_memo[view.key] = self.execute_select(
            view.query, None)
        return result

    def _view_bindings(self, view: View, alias: str | None):
        result = self._view_result(view)
        names = (list(view.column_names)
                 if view.column_names else result.columns)
        keys = [identifiers.normalize(name) for name in names]
        alias_key = identifiers.normalize(alias or view.name)
        for row in result.rows:
            yield Binding(alias_key, dict(zip(keys, row)))

    def empty_binding(self, item: ast.FromItem) -> list[Binding]:
        """Synthesize a zero-row binding so ``SELECT *`` on an empty
        table still reports column names."""
        if isinstance(item, ast.TableRef):
            key = identifiers.normalize(item.name)
            if key in self.catalog.views:
                view = self.catalog.views[key]
                result = self._view_result(view)
                names = (list(view.column_names)
                         if view.column_names else result.columns)
                keys = {identifiers.normalize(n): None for n in names}
                return [Binding(identifiers.normalize(
                    item.alias or view.name), keys)]
            table = self.catalog.table(item.name)
            return [Binding(
                identifiers.normalize(item.alias or item.name),
                {column.key: None for column in table.columns}, table)]
        return []

    _HANDLERS = {}


Database._HANDLERS = {
    ast.CreateTypeForward: Database._create_type_forward,
    ast.CreateObjectType: Database._create_object_type,
    ast.CreateVarrayType: Database._create_varray_type,
    ast.CreateNestedTableType: Database._create_nested_table_type,
    ast.CreateTable: Database._create_table,
    ast.CreateView: Database._create_view,
    ast.CreateIndex: Database._create_index,
    ast.DropType: Database._drop_type,
    ast.DropTable: Database._drop_table,
    ast.DropView: Database._drop_view,
    ast.DropIndex: Database._drop_index,
    ast.Analyze: Database._analyze,
    ast.Insert: Database._insert,
    ast.Update: Database._update,
    ast.Delete: Database._delete,
    ast.ExplainStmt: Database._explain_statement,
}

#: DDL that removes or reshapes objects a pinned snapshot may still
#: be reading.  The catalog keeps no version chains, so these abort
#: with SerializationConflict while other sessions hold pinned
#: snapshots (additive DDL and ANALYZE are safe: old snapshots simply
#: never look at the new object).
_DESTRUCTIVE_DDL = (ast.DropTable, ast.DropType, ast.DropView,
                    ast.DropIndex, ast.CreateIndex)


# -- module helpers --------------------------------------------------------------------


def _collect_table_refs(node: object, names: set[str]) -> None:
    """Collect every normalized ``TableRef`` name reachable from
    *node* — FROM items, subqueries (IN/EXISTS/scalar), CAST MULTISET
    and INSERT...SELECT sources alike.  The walk is generic over the
    frozen-dataclass AST so new node kinds are covered by default."""
    if isinstance(node, ast.TableRef):
        names.add(identifiers.normalize(node.name))
        return
    if isinstance(node, (tuple, list)):
        for item in node:
            _collect_table_refs(item, names)
        return
    if dataclasses.is_dataclass(node) and not isinstance(node, type):
        for field in dataclasses.fields(node):
            value = getattr(node, field.name)
            if value is None or isinstance(value,
                                           (str, int, float, bool)):
                continue
            _collect_table_refs(value, names)


def _split_conjuncts(expression: ast.Expr) -> list[ast.Expr]:
    """Flatten a WHERE tree into its top-level AND conjuncts."""
    if isinstance(expression, ast.BinaryOp) \
            and expression.operator == "AND":
        return (_split_conjuncts(expression.left)
                + _split_conjuncts(expression.right))
    return [expression]


def _analyze_references(expression: ast.Expr,
                        heads: set[str]) -> bool:
    """Collect qualified-path heads; False when the conjunct is not
    safe to push down (subqueries, unqualified columns, stars)."""
    if isinstance(expression, ast.ColumnPath):
        if len(expression.parts) < 2:
            return False  # unqualified name: resolve with full row
        heads.add(identifiers.normalize(expression.parts[0]))
        return True
    if isinstance(expression, (ast.Literal, ast.DateLiteral)):
        return True
    if isinstance(expression, ast.BinaryOp):
        return (_analyze_references(expression.left, heads)
                and _analyze_references(expression.right, heads))
    if isinstance(expression, ast.UnaryOp):
        return _analyze_references(expression.operand, heads)
    if isinstance(expression, ast.IsNull):
        return _analyze_references(expression.operand, heads)
    if isinstance(expression, ast.Like):
        return (_analyze_references(expression.operand, heads)
                and _analyze_references(expression.pattern, heads)
                and (expression.escape is None
                     or _analyze_references(expression.escape, heads)))
    if isinstance(expression, ast.Between):
        return (_analyze_references(expression.operand, heads)
                and _analyze_references(expression.low, heads)
                and _analyze_references(expression.high, heads))
    if isinstance(expression, ast.InList):
        return (_analyze_references(expression.operand, heads)
                and all(_analyze_references(item, heads)
                        for item in expression.items))
    if isinstance(expression, ast.AttributeAccess):
        return _analyze_references(expression.base, heads)
    if isinstance(expression, ast.FunctionCall):
        if expression.name.upper() in AGGREGATE_FUNCTIONS:
            return False
        return all(_analyze_references(argument, heads)
                   for argument in expression.arguments)
    if isinstance(expression, ast.CaseWhen):
        for condition, value in expression.branches:
            if not (_analyze_references(condition, heads)
                    and _analyze_references(value, heads)):
                return False
        return (expression.default is None
                or _analyze_references(expression.default, heads))
    # subqueries, EXISTS, CAST MULTISET, stars: not pushable
    return False
