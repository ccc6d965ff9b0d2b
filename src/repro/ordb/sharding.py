"""Hash-sharded document store: one router over N embedded engines.

The paper stores every document in a single Oracle instance; the
ROADMAP's north star is a store serving millions of users.  Documents
shard naturally by document id — the loader emits statements whose
rows all carry the doc's ``D<n>``/``D<n>.<m>`` identifiers — so a
:class:`ShardedDatabase` hash-partitions documents across N embedded
:class:`~repro.ordb.engine.Database` engines, each with its own WAL,
checkpoints and recovery, and merges query results at the router:

* **DDL / ANALYZE** broadcast to every shard (each shard holds the
  full schema, so any shard can answer any query over its rows).
* **INSERT** routes to one shard: the shard of the pinned document
  (see :meth:`ShardedDatabase.pin_document`) when a pin is active,
  else a stable hash of the statement.  ``INSERT ... SELECT``
  broadcasts and inserts from each shard's local rows, which keeps
  co-partitioned data co-partitioned.
* **UPDATE / DELETE** route to the pinned shard, else broadcast with
  summed rowcounts.
* **SELECT** routes to the pinned shard, else scatter-gathers: every
  shard answers with its :class:`~repro.ordb.select.Partial` of the
  statement, and the router merges and finalises them with the code a
  single engine runs (:mod:`repro.ordb.select`) — grouping,
  aggregates, HAVING, DISTINCT, ORDER BY and FETCH FIRST have no
  router-side implementation of their own.

Joins are only meaningful when the joined rows are co-partitioned —
true for every document-local query the paper's mapping produces,
since one document's rows always land on one shard.  A cross-shard
subquery would see only its own shard's rows, so it raises
:class:`~repro.ordb.errors.NotSupported` rather than return a
silently wrong answer (pin a document to run it shard-locally).

A durable router (``path=...``) keeps a *router journal* — the
ordered statement log that :meth:`ShardedDatabase.rebalance` replays
onto a fresh set of engines to change the shard count; the journal
grows with the write history (compaction is future work) and lives
beside a small manifest recording the shard count and generation.

>>> db = ShardedDatabase(n_shards=2)
>>> _ = db.execute("CREATE TABLE T(a NUMBER)")   # broadcast
>>> with db.pin_document(1):
...     _ = db.execute("INSERT INTO T VALUES(1)")
>>> with db.pin_document(2):
...     _ = db.execute("INSERT INTO T VALUES(2)")
>>> db.execute("SELECT SUM(t.a) FROM T t").scalar()  # scatter-gather
Decimal('3')
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import pickle
import shutil
import threading
import zlib
from pathlib import Path
from typing import Callable

from repro.obs import Observability

from .checkpoint import verify_integrity
from .engine import Database
from .errors import (
    NoSuchSavepoint,
    NotSupported,
    TransactionError,
)
from .expressions import Evaluator
from .faults import SITES, Fault, FaultEvent, FaultInjector
from .results import Result
from .schema import CompatibilityMode
from .select import Partial, PartialSelect, Pipeline
from .sessions import Session
from .sql import ast
from .sql.lexer import split_statements
from .sql.parser import parse_statement
from .wal import WriteAheadLog

#: AST nodes that embed a subquery — a scatter-gathered SELECT must
#: not contain one (the inner query would see only each shard's rows).
_SUBQUERY_NODES = (ast.InSubquery, ast.Exists, ast.ScalarSubquery,
                   ast.CastMultiset, ast.SubqueryRef)

#: Router-level fault sites; everything else lives in the engines.
_ROUTER_SITES = ("parse", "net")


def shard_of(doc_id: object, n_shards: int) -> int:
    """The stable home shard of *doc_id* (CRC-32 of its text)."""
    return zlib.crc32(str(doc_id).encode("utf-8")) % n_shards


def _has_subquery(statement: ast.SelectStmt) -> bool:
    return any(isinstance(node, _SUBQUERY_NODES)
               for node in ast.walk(statement))


class RouterFaults:
    """The sharded fault surface: one injector per shard plus a
    router-local injector for the sites the router itself owns
    (``parse`` before routing, ``net`` around each shard dispatch).

    ``arm(..., shard=i)`` targets one engine: engine sites
    (``statement``, ``wal``, ...) arm directly on that shard's
    injector; ``net`` arms a router-local fault that only fires for
    dispatches to that shard.  Without ``shard=``, engine sites arm
    on *every* shard (each counts its own ``at=`` positions).
    """

    SITES = SITES

    def __init__(self, router: "ShardedDatabase"):
        self.router = router
        self.local = FaultInjector()

    def arm(self, site: str | None = None, *, shard: int | None = None,
            predicate: Callable[[FaultEvent], bool] | None = None,
            **kwargs) -> Fault | list[Fault]:
        if shard is not None:
            if site == "net":
                def only_shard(event, _shard=shard, _user=predicate):
                    return (event.context.get("shard") == _shard
                            and (_user is None or _user(event)))
                return self.local.arm(site, predicate=only_shard,
                                      **kwargs)
            if site == "parse":
                raise ValueError(
                    "parse faults fire at the router, before any"
                    " shard is chosen; arm without shard=")
            return self.router.shards[shard].faults.arm(
                site, predicate=predicate, **kwargs)
        if site in _ROUTER_SITES:
            return self.local.arm(site, predicate=predicate, **kwargs)
        return [shard_db.faults.arm(site, predicate=predicate, **kwargs)
                for shard_db in self.router.shards]

    def hit(self, site: str, **context) -> None:
        self.local.hit(site, **context)

    def disarm(self, fault: Fault) -> None:
        self.local.disarm(fault)
        for shard_db in self.router.shards:
            shard_db.faults.disarm(fault)

    def clear(self) -> None:
        self.local.clear()
        for shard_db in self.router.shards:
            shard_db.faults.clear()

    def reset(self) -> None:
        self.local.reset()
        for shard_db in self.router.shards:
            shard_db.faults.reset()

    @property
    def armed(self) -> bool:
        return self.local.armed or any(
            shard_db.faults.armed for shard_db in self.router.shards)

    @property
    def events(self) -> dict[str, int]:
        merged = dict(self.local.events)
        for shard_db in self.router.shards:
            for site, count in shard_db.faults.events.items():
                merged[site] = merged.get(site, 0) + count
        return merged

    @property
    def fired(self) -> list[FaultEvent]:
        events = list(self.local.fired)
        for shard_db in self.router.shards:
            events.extend(shard_db.faults.fired)
        return events


class RouterLocks:
    """Just enough of the LockManager surface for the network server:
    cancelling a router session cancels its per-shard sessions."""

    def __init__(self, router: "ShardedDatabase"):
        self.router = router

    def _subs(self, sid: int) -> list[tuple[int, Session]]:
        session = self.router._sessions.get(sid)
        if session is None:
            return []
        return sorted(session._subs.items())

    def cancel(self, sid: int) -> None:
        for index, sub in self._subs(sid):
            self.router.shards[index].locks.cancel(sub.sid)

    def release_all(self, sid: int) -> None:
        for index, sub in self._subs(sid):
            self.router.shards[index].locks.release_all(sub.sid)


class _RouterWal:
    """Aggregate read-only view over the per-shard logs (the CLI
    reports ``wal_appends`` through it; each shard owns the real
    :class:`~repro.ordb.wal.WriteAheadLog`)."""

    def __init__(self, router: "ShardedDatabase"):
        self._router = router

    @property
    def appended(self) -> int:
        return sum(s.wal.appended for s in self._router.shards
                   if s.wal is not None)

    @property
    def bytes_written(self) -> int:
        return sum(s.wal.bytes_written for s in self._router.shards
                   if s.wal is not None)


class ShardedDatabase:
    """A router that partitions documents across embedded engines.

    Mirrors the :class:`~repro.ordb.engine.Database` surface the
    facade, server and CLI use — ``execute``/``session``/``atomic``/
    ``checkpoint``/``stats``/``faults``/``locks`` — so existing code
    runs against a sharded store unchanged.
    """

    MANIFEST = "shards.json"
    JOURNAL = "router.log"
    STATEMENT_CACHE_SIZE = 256

    def __init__(self, n_shards: int = 2,
                 mode: CompatibilityMode = CompatibilityMode.ORACLE9,
                 obs: Observability | None = None,
                 enable_indexes: bool = True,
                 lock_timeout: float = 5.0,
                 path: str | os.PathLike | None = None,
                 fsync: str = "commit",
                 checkpoint_every: int | None = None,
                 group_commit: bool = False):
        if n_shards < 1:
            raise ValueError("n_shards must be at least 1")
        self.path = Path(path) if path is not None else None
        self.fsync_policy = fsync
        self.mode = mode
        self._obs = obs if obs is not None else Observability()
        self._engine_kwargs = dict(
            mode=mode, enable_indexes=enable_indexes,
            lock_timeout=lock_timeout, fsync=fsync,
            checkpoint_every=checkpoint_every, group_commit=group_commit)
        #: the ordered statement log rebalance replays (see module doc)
        self._journal: list[tuple] = []
        self._journal_lock = threading.Lock()
        self._journal_wal: WriteAheadLog | None = None
        self._suppress_journal = False
        self._generation = 0
        if self.path is not None:
            self.path.mkdir(parents=True, exist_ok=True)
            manifest = self._load_manifest()
            if manifest is not None:
                # an existing store knows its own topology; the
                # n_shards argument only sizes a brand-new one
                n_shards = int(manifest["n_shards"])
                self._generation = int(manifest["generation"])
            else:
                self._write_manifest(n_shards, self._generation)
            # the journal must survive exactly as long as the shard
            # WALs it mirrors, so it follows the same fsync policy
            self._journal_wal = WriteAheadLog(
                self.path / self.JOURNAL, policy=fsync)
            for payload in self._journal_wal.open():
                self._journal.extend(pickle.loads(payload))
        self.n_shards = n_shards
        self.shards: list[Database] = [
            self._open_engine(i, self._generation)
            for i in range(n_shards)]
        self.reset_stats()
        self.faults = RouterFaults(self)
        self.locks = RouterLocks(self)
        self._sessions: dict[int, "ShardedSession"] = {}
        self._sessions_lock = threading.Lock()
        self._next_sid = itertools.count(1)
        #: bumped by rebalance so idle sessions drop stale subsessions
        self._topology_version = 0
        self._rebalance_lock = threading.Lock()
        self._pin = threading.local()
        self._stmt_cache: dict[str, ast.Statement] = {}
        self._stmt_cache_lock = threading.Lock()
        self._default_session = self.session(name="router-default")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        where = str(self.path) if self.path is not None else "memory"
        return (f"<ShardedDatabase n_shards={self.n_shards}"
                f" generation={self._generation} at {where}>")

    # -- engine pool -------------------------------------------------------------------

    def _open_engine(self, index: int, generation: int) -> Database:
        kwargs = dict(self._engine_kwargs)
        kwargs["obs"] = self._obs
        if self.path is not None:
            kwargs["path"] = self._shard_path(index, generation)
        return Database(**kwargs)

    def _shard_path(self, index: int, generation: int) -> Path:
        return self.path / f"gen-{generation}" / f"shard-{index:02d}"

    def _load_manifest(self) -> dict | None:
        manifest = self.path / self.MANIFEST
        if not manifest.exists():
            return None
        return json.loads(manifest.read_text())

    def _write_manifest(self, n_shards: int, generation: int) -> None:
        payload = json.dumps({"n_shards": n_shards,
                              "generation": generation})
        scratch = self.path / (self.MANIFEST + ".tmp")
        scratch.write_text(payload)
        os.replace(scratch, self.path / self.MANIFEST)

    # -- shared surfaces ---------------------------------------------------------------

    @property
    def catalog(self):
        """Shard 0's catalog — DDL broadcasts, so every shard holds
        the identical schema; shard 0 is the representative."""
        return self.shards[0].catalog

    @property
    def obs(self) -> Observability:
        return self._obs

    @obs.setter
    def obs(self, value: Observability) -> None:
        self._obs = value
        for shard_db in self.shards:
            shard_db.obs = value

    @property
    def enable_indexes(self) -> bool:
        return self._engine_kwargs["enable_indexes"]

    @enable_indexes.setter
    def enable_indexes(self, value: bool) -> None:
        self._engine_kwargs["enable_indexes"] = value
        for shard_db in self.shards:
            shard_db.enable_indexes = value

    @property
    def stats(self) -> dict[str, int]:
        merged = dict(self.router_stats)
        for shard_db in self.shards:
            for key, value in shard_db.stats.items():
                merged[key] = merged.get(key, 0) + value
        return merged

    def reset_stats(self) -> None:
        self.router_stats: dict[str, int] = {
            "router_statements": 0,
            "shard_fanouts": 0,
            "single_shard_routes": 0,
            "broadcasts": 0,
            "rebalances": 0,
        }
        for shard_db in self.shards:
            shard_db.reset_stats()

    @property
    def wal(self) -> _RouterWal | None:
        if self.path is None:
            return None
        return _RouterWal(self)

    @property
    def recovery_info(self) -> dict | None:
        infos = [shard_db.recovery_info for shard_db in self.shards]
        if all(info is None for info in infos):
            return None
        present = [info for info in infos if info is not None]
        return {
            "checkpoint_loaded": any(info["checkpoint_loaded"]
                                     for info in present),
            "transactions_replayed": sum(
                info["transactions_replayed"] for info in present),
            "statements_replayed": sum(
                info["statements_replayed"] for info in present),
            "records_skipped": sum(
                info["records_skipped"] for info in present),
            "torn_bytes_discarded": sum(
                info["torn_bytes_discarded"] for info in present),
            "seconds": max(info["seconds"] for info in present),
            "shards": infos,
        }

    # -- routing helpers ---------------------------------------------------------------

    @contextlib.contextmanager
    def pin_document(self, doc_id: object):
        """Route every statement of this thread to *doc_id*'s home
        shard while the context is open.  The facade pins around each
        document store/fetch/delete so a document's rows always land
        on — and are read from — one shard."""
        previous = getattr(self._pin, "doc", None)
        self._pin.doc = doc_id
        try:
            yield self.shard_for(doc_id)
        finally:
            self._pin.doc = previous

    def shard_for(self, doc_id: object) -> int:
        """The home shard of *doc_id* under the current topology."""
        return shard_of(doc_id, self.n_shards)

    def pinned_shard(self) -> int | None:
        doc = getattr(self._pin, "doc", None)
        return None if doc is None else self.shard_for(doc)

    def _parse_cached(self, sql: str) -> ast.Statement:
        with self._stmt_cache_lock:
            statement = self._stmt_cache.get(sql)
        if statement is not None:
            return statement
        statement = parse_statement(sql)
        with self._stmt_cache_lock:
            if len(self._stmt_cache) >= self.STATEMENT_CACHE_SIZE:
                self._stmt_cache.pop(next(iter(self._stmt_cache)))
            self._stmt_cache[sql] = statement
        return statement

    def _journal_commit(self, entries: list[tuple]) -> None:
        if not entries or self._suppress_journal:
            return
        with self._journal_lock:
            self._journal.extend(entries)
            if self._journal_wal is not None:
                self._journal_wal.append(pickle.dumps(entries))

    # -- sessions and execution --------------------------------------------------------

    def session(self, name: str = "") -> "ShardedSession":
        session = ShardedSession(self, next(self._next_sid), name)
        with self._sessions_lock:
            self._sessions[session.sid] = session
        return session

    def _session_closed(self, session: "ShardedSession") -> None:
        with self._sessions_lock:
            self._sessions.pop(session.sid, None)

    def execute(self, statement: str | ast.Statement,
                session: "ShardedSession | None" = None) -> Result:
        return (session or self._default_session).execute(statement)

    def executescript(self, script: str) -> list[Result]:
        return [self.execute(text) for text in split_statements(script)]

    def explain(self, statement: str | ast.Statement,
                session: "ShardedSession | None" = None):
        """Explain against one representative shard (the pinned
        document's shard when a pin is active, else shard 0) — every
        shard holds the same schema and indexes, so the plan shape is
        the same; only per-shard row counts differ."""
        index = self.pinned_shard()
        return self.shards[index if index is not None else 0].explain(
            statement)

    @property
    def in_transaction(self) -> bool:
        return self._default_session.in_transaction

    def begin(self) -> None:
        self._default_session.begin()

    def commit(self) -> None:
        self._default_session.commit()

    def rollback(self, to: str | None = None) -> None:
        self._default_session.rollback(to)

    def savepoint(self, name: str) -> None:
        self._default_session.savepoint(name)

    def transaction(self):
        return self._default_session.transaction()

    def atomic(self):
        return self._default_session.atomic()

    # -- durability --------------------------------------------------------------------

    def checkpoint(self) -> dict:
        infos = [shard_db.checkpoint() for shard_db in self.shards]
        merged = {"shards": infos}
        for key in ("bytes", "tables", "rows"):
            if infos and key in infos[0]:
                merged[key] = sum(info[key] for info in infos)
        return merged

    def vacuum(self) -> dict:
        merged: dict[str, int] = {}
        for shard_db in self.shards:
            for key, value in shard_db.vacuum().items():
                merged[key] = merged.get(key, 0) + value
        return merged

    def mvcc_info(self) -> dict:
        infos = [shard_db.mvcc_info() for shard_db in self.shards]
        return {
            "version_records": sum(i["version_records"] for i in infos),
            "tombstones": sum(i["tombstones"] for i in infos),
            "shards": infos,
        }

    def dereference(self, ref):
        """Follow a REF; dangling references yield NULL like Oracle.

        A document's rows — and therefore its REF targets — live on
        one shard, and the facade pins reads to the document's home
        shard, so the pinned engine resolves the REF.  Without a pin
        every shard is probed (OIDs are per-engine, so an unpinned
        dereference is best-effort) and the first hit wins."""
        index = self.pinned_shard()
        if index is not None:
            return self.shards[index].dereference(ref)
        for shard_db in self.shards:
            value = shard_db.dereference(ref)
            if value is not None:
                return value
        return None

    def verify(self) -> list[str]:
        """Cross-shard integrity sweep; one line per problem found."""
        problems: list[str] = []
        for index, shard_db in enumerate(self.shards):
            problems.extend(f"shard {index}: {problem}"
                            for problem in verify_integrity(shard_db))
        return problems

    def close(self) -> None:
        with self._sessions_lock:
            sessions = list(self._sessions.values())
        for session in sessions:
            session.close()
        for shard_db in self.shards:
            shard_db.close()
        if self._journal_wal is not None:
            self._journal_wal.close()

    # -- rebalance ---------------------------------------------------------------------

    def rebalance(self, n_shards: int) -> dict:
        """Change the shard count by replaying the router journal
        onto a fresh generation of engines, then atomically adopting
        it (manifest swap for durable stores).  Requires a quiescent
        router: any open transaction raises
        :class:`~repro.ordb.errors.TransactionError`.
        """
        if n_shards < 1:
            raise ValueError("n_shards must be at least 1")
        with self._rebalance_lock:
            with self._sessions_lock:
                busy = sorted(s.name for s in self._sessions.values()
                              if s.in_transaction)
            if busy:
                raise TransactionError(
                    "rebalance requires no open transactions;"
                    f" active: {', '.join(busy)}")
            old_shards = self.shards
            old_n, old_generation = self.n_shards, self._generation
            generation = old_generation + 1
            new_shards = [
                Database(**dict(
                    self._engine_kwargs, obs=self._obs,
                    **({"path": self._shard_path(i, generation)}
                       if self.path is not None else {})))
                for i in range(n_shards)]
            with self._journal_lock:
                entries = list(self._journal)
            self.shards, self.n_shards = new_shards, n_shards
            self._topology_version += 1
            self._suppress_journal = True
            try:
                replay = self.session(name="rebalance-replay")
                try:
                    for entry in entries:
                        self._apply_journal_entry(replay, entry)
                finally:
                    replay.close()
            except BaseException:
                self.shards, self.n_shards = old_shards, old_n
                self._topology_version += 1
                for shard_db in new_shards:
                    shard_db.close()
                if self.path is not None:
                    shutil.rmtree(self.path / f"gen-{generation}",
                                  ignore_errors=True)
                raise
            finally:
                self._suppress_journal = False
            self._generation = generation
            if self.path is not None:
                self._write_manifest(n_shards, generation)
            for shard_db in old_shards:
                shard_db.close()
            if self.path is not None:
                shutil.rmtree(self.path / f"gen-{old_generation}",
                              ignore_errors=True)
            self.router_stats["rebalances"] += 1
            return {"n_shards": n_shards, "generation": generation,
                    "entries_replayed": len(entries)}

    def _apply_journal_entry(self, session: "ShardedSession",
                             entry: tuple) -> None:
        kind = entry[0]
        if kind == "doc":
            _, doc_id, source = entry
            with self.pin_document(doc_id):
                session.execute(source)
        else:  # "ddl" / "bcast" / "ins" — routing re-derives the target
            session.execute(entry[1])


class ShardedSession:
    """One logical connection to the router: transaction control and
    savepoints fan out to lazily-opened per-shard sessions.

    Commit is sequential per shard without two-phase commit: on a
    shard commit failure the remaining (uncommitted) shards roll
    back and the error propagates; already-committed shards keep
    their work, exactly like a multi-database client without XA.  The
    facade's per-document compensation (delete on failure) restores
    cross-shard consistency at the document level.
    """

    def __init__(self, router: ShardedDatabase, sid: int,
                 name: str = ""):
        self.router = router
        self.sid = sid
        self.name = name or f"shard-session-{sid}"
        self.closed = False
        self._statement_timeout: float | None = None
        self._subs: dict[int, Session] = {}
        #: the subs in the open transaction (a sub joins on first use)
        self._joined: dict[int, Session] = {}
        self._topology_version = router._topology_version
        self._txn = False
        self._txn_executed = False
        self._set_txn: tuple | None = None
        #: established savepoints as (name, journal-buffer mark)
        self._savepoints: list[tuple[str, int]] = []
        self._journal_buf: list[tuple] = []
        self._atomic_seq = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self.closed else (
            "in transaction" if self._txn else "idle")
        return f"<ShardedSession {self.name} ({state})>"

    # -- per-shard plumbing ------------------------------------------------------------

    @property
    def statement_timeout(self) -> float | None:
        return self._statement_timeout

    @statement_timeout.setter
    def statement_timeout(self, value: float | None) -> None:
        self._statement_timeout = value
        for sub in self._subs.values():
            sub.statement_timeout = value

    def _revalidate(self) -> None:
        if self._topology_version == self.router._topology_version:
            return
        if self._txn:
            raise TransactionError(
                "shard topology changed under an open transaction")
        for sub in self._subs.values():
            sub.close()
        self._subs.clear()
        self._topology_version = self.router._topology_version

    def _sub(self, index: int) -> Session:
        sub = self._subs.get(index)
        if sub is None:
            sub = self.router.shards[index].session(
                name=f"{self.name}@s{index}")
            sub.statement_timeout = self._statement_timeout
            self._subs[index] = sub
        if self._txn and index not in self._joined:
            # a shard joins the open transaction when first used:
            # replay BEGIN, SET TRANSACTION and every savepoint, so
            # commit touches only the shards the transaction did
            sub.begin()
            if self._set_txn is not None:
                read_only, isolation = self._set_txn
                sub.set_transaction(read_only=read_only,
                                    isolation=isolation)
            for sp_name, _mark in self._savepoints:
                sub.savepoint(sp_name)
            self._joined[index] = sub
        return sub

    def _dispatch(self, index: int,
                  statement: ast.Statement | PartialSelect
                  ) -> Result | Partial:
        # the router→shard "network" hop; arm("net", shard=i) fires here
        self.router.faults.hit("net", shard=index, op="dispatch",
                               session=self.name)
        if self._txn:
            self._txn_executed = True
        return self._sub(index).execute(statement)

    # -- statement execution -----------------------------------------------------------

    def execute(self, statement: str | ast.Statement) -> Result:
        if self.closed:
            raise TransactionError("session is closed")
        router = self.router
        self._revalidate()
        source = statement
        if isinstance(statement, str):
            router.faults.hit("parse", sql=statement)
            statement = router._parse_cached(statement)
        router.router_stats["router_statements"] += 1
        if isinstance(statement, ast.BeginTransaction):
            self.begin()
            return Result(message="Transaction started.")
        if isinstance(statement, ast.CommitStmt):
            self.commit()
            return Result(message="Commit complete.")
        if isinstance(statement, ast.RollbackStmt):
            self.rollback(to=statement.savepoint)
            return Result(message="Rollback complete.")
        if isinstance(statement, ast.SavepointStmt):
            self.savepoint(statement.name)
            return Result(
                message=f"Savepoint {statement.name} established.")
        if isinstance(statement, ast.SetTransaction):
            self.set_transaction(read_only=statement.read_only,
                                 isolation=statement.isolation)
            return Result(message="Transaction set.")
        return self._route(statement, source)

    def executescript(self, script: str) -> list[Result]:
        return [self.execute(text) for text in split_statements(script)]

    def _route(self, statement: ast.Statement,
               source: str | ast.Statement) -> Result:
        router = self.router
        pinned = router.pinned_shard()
        if isinstance(statement, ast.ExplainStmt):
            return self._dispatch(
                pinned if pinned is not None else 0, statement)
        if isinstance(statement, ast.SelectStmt):
            if router.n_shards == 1:
                return self._dispatch(0, statement)
            if pinned is not None:
                router.router_stats["single_shard_routes"] += 1
                return self._dispatch(pinned, statement)
            return self._scatter_select(statement)
        if isinstance(statement, ast.Insert):
            if statement.query is not None and pinned is None:
                # INSERT ... SELECT inserts from each shard's local
                # rows, preserving co-partitioning
                return self._broadcast(statement, source, "bcast")
            index = (pinned if pinned is not None
                     else self._hash_route(statement))
            result = self._dispatch(index, statement)
            self._journal_write(source)
            return result
        if isinstance(statement, (ast.Update, ast.Delete)):
            if pinned is not None:
                router.router_stats["single_shard_routes"] += 1
                result = self._dispatch(pinned, statement)
                self._journal_write(source)
                return result
            return self._broadcast(statement, source, "bcast")
        # DDL, ANALYZE: every shard holds the full schema
        return self._broadcast(statement, source, "ddl")

    def _hash_route(self, statement: ast.Statement) -> int:
        return zlib.crc32(repr(statement).encode("utf-8")) \
            % self.router.n_shards

    def _journal_write(self, source: str | ast.Statement) -> None:
        router = self.router
        if router._suppress_journal:
            return
        doc = getattr(router._pin, "doc", None)
        entry = (("doc", doc, source) if doc is not None
                 else ("ins", source))
        if self._txn:
            self._journal_buf.append(entry)
        else:
            router._journal_commit([entry])

    def _broadcast(self, statement: ast.Statement,
                   source: str | ast.Statement, kind: str) -> Result:
        router = self.router
        router.router_stats["broadcasts"] += 1
        router.router_stats["shard_fanouts"] += 1
        entry = (kind, source)
        if self._txn:
            results = [self._dispatch(i, statement)
                       for i in range(router.n_shards)]
            if not router._suppress_journal:
                self._journal_buf.append(entry)
        else:
            # an implicit transaction makes the broadcast atomic:
            # a mid-broadcast failure rolls every shard back
            self.begin()
            try:
                results = [self._dispatch(i, statement)
                           for i in range(router.n_shards)]
                if not router._suppress_journal:
                    self._journal_buf.append(entry)
            except BaseException:
                self.rollback()
                raise
            self.commit()
        total = sum(result.rowcount for result in results)
        if isinstance(statement, ast.Insert):
            message = f"{total} row(s) inserted."
        elif isinstance(statement, ast.Update):
            message = f"{total} row(s) updated."
        elif isinstance(statement, ast.Delete):
            message = f"{total} row(s) deleted."
        else:
            message = results[0].message
        return Result(rowcount=total, message=message)

    # -- scatter-gather SELECT ---------------------------------------------------------

    def _scatter_select(self, statement: ast.SelectStmt) -> Result:
        if _has_subquery(statement):
            raise NotSupported(
                "cross-shard subqueries are not supported; pin a"
                " document (pin_document) to run shard-locally")
        router = self.router
        router.router_stats["shard_fanouts"] += 1
        pipeline = Pipeline(statement)
        request = PartialSelect(statement)
        merged = pipeline.merge([self._dispatch(index, request)
                                 for index in range(router.n_shards)])
        # select-list expressions over merged aggregates are evaluated
        # here; the router stands in for an engine (catalog, dereference)
        return pipeline.finalise(merged, Evaluator(router))

    # -- transaction control -----------------------------------------------------------

    @property
    def in_transaction(self) -> bool:
        return self._txn

    def begin(self) -> None:
        if self._txn:
            raise TransactionError(
                "a transaction is already active;"
                " COMMIT or ROLLBACK first")
        self._revalidate()
        self._txn = True
        self._txn_executed = False
        self._set_txn = None
        self._savepoints = []
        self._journal_buf = []
        self._joined = {}

    def commit(self) -> None:
        if not self._txn:
            for sub in self._subs.values():
                sub.commit()  # no-op commits still release locks
            return
        failure: BaseException | None = None
        for _index, sub in sorted(self._joined.items()):
            if failure is None:
                try:
                    sub.commit()
                except BaseException as error:
                    failure = error
                    # a commit-site fault leaves the shard's
                    # transaction open; undo it before moving on
                    if sub.txn is not None:
                        sub.rollback()
            else:
                sub.rollback()
        buffered, self._journal_buf = self._journal_buf, []
        self._txn = False
        self._set_txn = None
        self._savepoints = []
        if failure is not None:
            raise failure
        self.router._journal_commit(buffered)

    def rollback(self, to: str | None = None) -> None:
        if not self._txn:
            if to is not None:
                raise NoSuchSavepoint(
                    f"savepoint '{to}' never established"
                    f" (no transaction is active)")
            for sub in self._subs.values():
                sub.rollback()
            return
        if to is None:
            for sub in self._joined.values():
                sub.rollback()
            self._txn = False
            self._set_txn = None
            self._savepoints = []
            self._journal_buf = []
            return
        marks = [position for position, (name, _mark)
                 in enumerate(self._savepoints) if name == to]
        if not marks:
            raise NoSuchSavepoint(
                f"savepoint '{to}' never established")
        for sub in self._joined.values():
            sub.rollback(to=to)
        kept = marks[-1]
        del self._journal_buf[self._savepoints[kept][1]:]
        del self._savepoints[kept + 1:]

    def savepoint(self, name: str) -> None:
        if not self._txn:
            self.begin()
        for sub in self._joined.values():
            sub.savepoint(name)
        self._savepoints.append((name, len(self._journal_buf)))

    def set_transaction(self, read_only: bool | None = None,
                        isolation: str | None = None) -> None:
        if self._txn and self._txn_executed:
            raise TransactionError(
                "SET TRANSACTION must be the first statement of a"
                " transaction")
        if not self._txn:
            self.begin()
        previous = self._set_txn or (None, None)
        self._set_txn = (
            read_only if read_only is not None else previous[0],
            isolation if isolation is not None else previous[1])
        for sub in self._joined.values():
            sub.set_transaction(read_only=read_only,
                                isolation=isolation)

    @property
    def isolation_level(self) -> str:
        if self._txn and self._set_txn is not None:
            read_only, isolation = self._set_txn
            if read_only:
                return "READ ONLY"
            if isolation is not None:
                return isolation
        return "READ COMMITTED"

    def txn_status(self) -> dict:
        return {
            "active": self._txn,
            "isolation": self.isolation_level,
            "read_only": bool(self._txn and self._set_txn is not None
                              and self._set_txn[0]),
            # per-shard engines pin their own snapshots; there is no
            # single cluster-wide snapshot timestamp to report
            "snapshot_ts": None,
        }

    @contextlib.contextmanager
    def transaction(self):
        self.begin()
        try:
            yield self
        except BaseException:
            self.rollback()
            raise
        try:
            self.commit()
        except BaseException:
            if self._txn:
                self.rollback()
            raise

    @contextlib.contextmanager
    def atomic(self):
        if not self._txn:
            with self.transaction():
                yield self
            return
        self._atomic_seq += 1
        name = f"ATOMIC${self._atomic_seq}"
        self.savepoint(name)
        try:
            yield self
        except BaseException:
            if self._txn:
                self.rollback(to=name)
            raise

    # -- lifecycle ---------------------------------------------------------------------

    def close(self) -> None:
        if self.closed:
            return
        if self._txn:
            self.rollback()
        for sub in self._subs.values():
            sub.close()
        self._subs.clear()
        self.closed = True
        self.router._session_closed(self)

    def __enter__(self) -> "ShardedSession":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
