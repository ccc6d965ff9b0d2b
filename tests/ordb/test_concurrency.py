"""Multi-session concurrency: the lock manager, isolation, stress.

The stress scenarios follow one discipline: writers keep a table
invariant (every committed transaction inserts a +v/-v pair, so
``SUM(v)`` is always 0 and ``COUNT(*)`` always even), readers assert
the invariant while the writers run, and after every schedule the
physical structures — rows, hash indexes, caches — must agree.
``REPRO_STRESS_SEED`` varies the schedules (CI runs a small matrix).
"""

from __future__ import annotations

import itertools
import os
import random
import threading

import pytest

from repro.ordb import (
    Database,
    DeadlockDetected,
    LockManager,
    LockTimeout,
    is_transient,
)

SEED = int(os.environ.get("REPRO_STRESS_SEED", "0"))


def run_threads(targets, timeout=30.0):
    """Run callables in parallel; fail the test on leaks or errors."""
    errors: list[BaseException] = []

    def wrap(target):
        def runner():
            try:
                target()
            except BaseException as error:  # noqa: BLE001 - reported
                errors.append(error)
        return runner

    threads = [threading.Thread(target=wrap(t), daemon=True)
               for t in targets]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout)
    hung = [t for t in threads if t.is_alive()]
    assert not hung, f"{len(hung)} thread(s) hung (deadlock?)"
    return errors


class TestLockManager:
    def test_shared_locks_are_compatible(self):
        locks = LockManager()
        locks.acquire(1, "T", "S")
        locks.acquire(2, "T", "S")
        assert locks.holding(1, "T") == "S"
        assert locks.holding(2, "T") == "S"

    def test_exclusive_blocks_everyone(self):
        locks = LockManager()
        locks.acquire(1, "T", "X")
        with pytest.raises(LockTimeout):
            locks.acquire(2, "T", "S", timeout=0.05)
        with pytest.raises(LockTimeout):
            locks.acquire(2, "T", "X", timeout=0.05)

    def test_shared_blocks_exclusive_only(self):
        locks = LockManager()
        locks.acquire(1, "T", "S")
        locks.acquire(2, "T", "S")
        with pytest.raises(LockTimeout):
            locks.acquire(3, "T", "X", timeout=0.05)

    def test_reentrant_and_upgrade(self):
        locks = LockManager()
        locks.acquire(1, "T", "S")
        locks.acquire(1, "T", "S")      # reentrant no-op
        locks.acquire(1, "T", "X")      # sole holder upgrades
        assert locks.holding(1, "T") == "X"
        locks.acquire(1, "T", "S")      # X already covers S
        assert locks.holding(1, "T") == "X"
        assert locks.stats["upgrades"] == 1

    def test_upgrade_blocked_by_other_reader(self):
        locks = LockManager()
        locks.acquire(1, "T", "S")
        locks.acquire(2, "T", "S")
        with pytest.raises(LockTimeout):
            locks.acquire(1, "T", "X", timeout=0.05)
        # the failed upgrade must not have dropped the held S lock
        assert locks.holding(1, "T") == "S"

    def test_timeout_error_shape(self):
        locks = LockManager(timeout=0.05)
        locks.acquire(1, "T", "X")
        with pytest.raises(LockTimeout) as excinfo:
            locks.acquire(2, "T", "X")
        assert excinfo.value.code == "ORA-30006"
        assert is_transient(excinfo.value)
        assert locks.stats["timeouts"] == 1

    def test_release_all_wakes_waiters(self):
        locks = LockManager(timeout=5.0)
        locks.acquire(1, "T", "X")
        acquired = threading.Event()

        def waiter():
            locks.acquire(2, "T", "X")
            acquired.set()

        errors = run_threads([waiter, lambda: locks.release_all(1)])
        assert not errors
        assert acquired.is_set()
        assert locks.holding(2, "T") == "X"

    def test_cross_resource_deadlock_detected(self):
        locks = LockManager(timeout=5.0)
        locks.acquire(1, "A", "X")
        locks.acquire(2, "B", "X")
        ready = threading.Barrier(2)
        outcomes: list[str] = []

        def chase(sid, resource):
            ready.wait()
            try:
                locks.acquire(sid, resource, "X", timeout=1.0)
                outcomes.append("granted")
            except DeadlockDetected:
                outcomes.append("deadlock")
                locks.release_all(sid)
            except LockTimeout:
                outcomes.append("timeout")

        errors = run_threads([lambda: chase(1, "B"),
                              lambda: chase(2, "A")])
        assert not errors
        # the victim sees ORA-00060; its partner either times out (the
        # victim's transaction still held its locks) or gets granted
        # after the victim released
        assert "deadlock" in outcomes
        assert locks.stats["deadlocks"] == 1

    def test_waiting_sessions_introspection(self):
        locks = LockManager(timeout=5.0)
        locks.acquire(1, "T", "X")
        seen = threading.Event()

        def waiter():
            locks.acquire(2, "T", "S", timeout=2.0)

        def watcher():
            while not locks.waiting_sessions():
                pass
            seen.set()
            locks.release_all(1)

        errors = run_threads([waiter, watcher])
        assert not errors
        assert seen.is_set()
        assert not locks.waiting_sessions()


class TestSessionIsolation:
    def test_writer_blocks_reader_until_commit(self):
        # SELECTs never lock (see test_mvcc.py), but DML does: the
        # INSERT needs X on T and its SELECT reads T under S, so it
        # waits out the open writer and then copies the committed row
        db = Database(lock_timeout=5.0)
        db.execute("CREATE TABLE T(a NUMBER)")
        db.execute("CREATE TABLE Copy(a NUMBER)")
        writer = db.session(name="writer")
        writer.begin()
        writer.execute("INSERT INTO T VALUES(1)")
        other = db.session(name="other")
        started = threading.Event()

        def insert():
            started.set()
            other.execute("INSERT INTO T VALUES(2)")
            other.execute("INSERT INTO Copy SELECT t.a FROM T t")

        def release():
            started.wait()
            writer.commit()

        errors = run_threads([insert, release])
        assert not errors
        assert db.execute("SELECT COUNT(*) FROM Copy").scalar() == 2
        assert db.stats["lock_timeouts"] == 0
        other.close(), writer.close()

    def test_reader_times_out_on_held_lock(self):
        db = Database(lock_timeout=0.05)
        db.execute("CREATE TABLE T(a NUMBER)")
        db.execute("CREATE TABLE Copy(a NUMBER)")
        with db.session() as writer, db.session() as other:
            writer.begin()
            writer.execute("INSERT INTO T VALUES(1)")
            # X requested against X held: a plain INSERT times out
            with pytest.raises(LockTimeout) as raised:
                other.execute("INSERT INTO T VALUES(2)")
            assert raised.value.code == "ORA-30006"
            assert db.stats["lock_timeouts"] == 1
            # S requested by a DML subquery against X held: same
            with pytest.raises(LockTimeout):
                other.execute("INSERT INTO Copy SELECT t.a FROM T t")
            assert db.stats["lock_timeouts"] == 2
            writer.rollback()
            other.execute("INSERT INTO T VALUES(2)")
            assert other.execute(
                "SELECT COUNT(*) FROM T").scalar() == 1

    def test_snapshot_reader_never_waits_on_writer(self):
        # unlike the DML in the two tests above, a SELECT reader
        # holds zero locks, sees the pre-commit snapshot while the
        # write is uncommitted, and the new row right after COMMIT
        db = Database(lock_timeout=0.05)
        db.execute("CREATE TABLE T(a NUMBER)")
        with db.session() as writer, db.session() as reader:
            writer.begin()
            writer.execute("INSERT INTO T VALUES(1)")
            before = db.locks.stats["s_acquires"]
            assert reader.execute(
                "SELECT COUNT(*) FROM T").scalar() == 0
            assert db.locks.stats["s_acquires"] == before
            assert db.stats["lock_timeouts"] == 0
            writer.commit()
            assert reader.execute(
                "SELECT COUNT(*) FROM T").scalar() == 1

    def test_rollback_is_private_to_the_session(self):
        db = Database()
        db.execute("CREATE TABLE T(a NUMBER)")
        db.execute("INSERT INTO T VALUES(1)")
        with db.session() as other:
            other.begin()
            other.execute("INSERT INTO T VALUES(2)")
            other.execute("SAVEPOINT sp")
            other.execute("INSERT INTO T VALUES(3)")
            other.rollback(to="sp")
            other.commit()
        assert db.execute("SELECT COUNT(*) FROM T").scalar() == 2

    def test_autocommit_releases_locks_at_statement_end(self):
        db = Database(lock_timeout=0.05)
        db.execute("CREATE TABLE T(a NUMBER)")
        with db.session() as s1, db.session() as s2:
            s1.execute("INSERT INTO T VALUES(1)")   # autocommit
            assert s2.execute(
                "SELECT COUNT(*) FROM T").scalar() == 1

    def test_close_rolls_back_and_releases(self):
        db = Database(lock_timeout=0.05)
        db.execute("CREATE TABLE T(a NUMBER)")
        doomed = db.session(name="doomed")
        doomed.begin()
        doomed.execute("INSERT INTO T VALUES(1)")
        doomed.close()
        assert db.execute("SELECT COUNT(*) FROM T").scalar() == 0

    def test_ddl_serializes_against_readers(self):
        db = Database(lock_timeout=0.05)
        db.execute("CREATE TABLE T(a NUMBER)")
        with db.session() as s1, db.session() as s2:
            s1.begin()
            s1.execute("INSERT INTO T VALUES(1)")
            with pytest.raises(LockTimeout):
                s2.execute("DROP TABLE T")
            s1.commit()

    def test_engine_deadlock_detected_not_hung(self):
        db = Database(lock_timeout=5.0)
        db.execute("CREATE TABLE A(x NUMBER)")
        db.execute("CREATE TABLE B(x NUMBER)")
        ready = threading.Barrier(2)
        transient_errors: list[str] = []

        def crossing(first, second):
            with db.session() as session:
                session.begin()
                session.execute(f"INSERT INTO {first} VALUES(1)")
                ready.wait()
                try:
                    session.execute(
                        f"INSERT INTO {second} VALUES(1)")
                    session.commit()
                except (DeadlockDetected, LockTimeout) as error:
                    transient_errors.append(error.code)
                    session.rollback()

        errors = run_threads([lambda: crossing("A", "B"),
                              lambda: crossing("B", "A")])
        assert not errors
        assert "ORA-00060" in transient_errors
        assert db.stats["deadlocks"] >= 1
        # the engine stayed usable afterwards
        db.execute("INSERT INTO A VALUES(2)")
        assert db.execute("SELECT COUNT(*) FROM A").scalar() >= 1


class TestStress:
    WRITERS = 4
    READERS = 2
    TXNS_PER_WRITER = 15

    def _check_consistency(self, db):
        table = db.catalog.tables["T"]
        rows = table.data.rows
        assert len(rows) % 2 == 0
        total = sum(int(row.values["V"]) for row in rows)
        assert total == 0
        problems = table.indexes.verify(rows)
        assert problems == [], problems

    def test_writers_and_readers_keep_invariants(self):
        db = Database(lock_timeout=10.0)
        db.execute("CREATE TABLE T(id NUMBER PRIMARY KEY, v NUMBER)")
        ids = itertools.count(1)
        done = threading.Event()
        committed = itertools.count()

        def writer(seed):
            rng = random.Random(seed)
            with db.session() as session:
                for _ in range(self.TXNS_PER_WRITER):
                    a, b = next(ids), next(ids)
                    value = rng.randint(1, 9)
                    with_rollback = rng.random() < 0.25
                    session.begin()
                    session.execute(
                        f"INSERT INTO T VALUES({a}, {value})")
                    session.execute(
                        f"INSERT INTO T VALUES({b}, {-value})")
                    if with_rollback:
                        session.rollback()
                    else:
                        session.commit()
                        next(committed)

        def reader():
            with db.session() as session:
                while not done.is_set():
                    total = session.execute(
                        "SELECT SUM(v) FROM T").scalar()
                    assert total in (None, 0), total
                    count = session.execute(
                        "SELECT COUNT(*) FROM T").scalar()
                    assert count % 2 == 0, count

        writers = [
            (lambda s=SEED * 1000 + n: writer(s))
            for n in range(self.WRITERS)]

        def drive():
            errors = run_threads(writers, timeout=60.0)
            done.set()
            return errors

        reader_errors: list[BaseException] = []

        def guarded(target):
            try:
                target()
            except BaseException as error:  # noqa: BLE001
                reader_errors.append(error)
                done.set()

        reader_threads = [
            threading.Thread(target=lambda: guarded(reader),
                             daemon=True)
            for _ in range(self.READERS)]
        for thread in reader_threads:
            thread.start()
        writer_errors = drive()
        for thread in reader_threads:
            thread.join(30.0)
        assert not writer_errors, writer_errors
        assert not reader_errors, reader_errors
        expected = 2 * next(committed)
        final = db.execute("SELECT COUNT(*) FROM T").scalar()
        assert final == expected
        self._check_consistency(db)

    def test_stmt_cache_safe_under_concurrent_use(self):
        db = Database()
        db.execute("CREATE TABLE T(a NUMBER)")
        db.execute("INSERT INTO T VALUES(1)")
        statements = [f"SELECT COUNT(*) FROM T WHERE a = {n}"
                      for n in range(40)]

        def client(seed):
            rng = random.Random(seed)
            with db.session() as session:
                for _ in range(120):
                    text = rng.choice(statements)
                    session.execute(text)

        errors = run_threads(
            [(lambda s=SEED + n: client(s)) for n in range(6)])
        assert not errors
        # the LRU respected its capacity and stayed coherent
        assert len(db._statement_cache) <= db.STATEMENT_CACHE_SIZE

    def test_concurrent_commit_rollback_keeps_indexes(self):
        db = Database(lock_timeout=10.0)
        db.execute("CREATE TABLE T(id NUMBER PRIMARY KEY, v NUMBER)")
        ids = itertools.count(1)

        def churn(seed):
            rng = random.Random(seed)
            with db.session() as session:
                for _ in range(20):
                    rid = next(ids)
                    session.begin()
                    session.execute(
                        f"INSERT INTO T VALUES({rid}, 1)")
                    session.execute(
                        f"INSERT INTO T VALUES({rid + 100000}, -1)")
                    if rng.random() < 0.5:
                        session.rollback()
                    else:
                        session.commit()

        errors = run_threads(
            [(lambda s=SEED * 31 + n: churn(s)) for n in range(4)])
        assert not errors
        self._check_consistency(db)


class TestStatsAccounting:
    """Cached results must not double-count physical work."""

    def _warm(self, db):
        db.execute("CREATE TABLE T(id NUMBER PRIMARY KEY, v NUMBER)")
        for n in range(5):
            db.execute(f"INSERT INTO T VALUES({n}, {n})")
        db.execute("CREATE VIEW V AS SELECT t.v FROM T t")

    def test_view_cache_hit_does_no_physical_work(self, db):
        self._warm(db)
        before = dict(db.stats)
        db.execute("SELECT * FROM V")
        once = dict(db.stats)
        # the self-join reads V for the outer side and once per outer
        # row for the inner side: only the first read does any work
        db.execute("SELECT a.v FROM V a, V b WHERE a.v = b.v")
        after = db.stats
        assert once["view_cache_hits"] == before["view_cache_hits"]
        assert after["view_cache_misses"] == once["view_cache_misses"] + 1
        assert after["view_cache_hits"] > once["view_cache_hits"]
        for counter in ("rows_scanned", "full_scans", "index_lookups"):
            assert (after[counter] - once[counter]
                    == once[counter] - before[counter]), counter

    def test_index_probe_not_counted_as_full_scan(self, db):
        self._warm(db)
        before = dict(db.stats)
        db.execute("SELECT t.v FROM T t WHERE t.id = 3")
        after = db.stats
        assert after["index_lookups"] == before["index_lookups"] + 1
        assert after["full_scans"] == before["full_scans"]
        assert after["rows_scanned"] == before["rows_scanned"] + 1

    def test_full_scan_counted_once_per_statement(self, db):
        self._warm(db)
        before = dict(db.stats)
        db.execute("SELECT t.v FROM T t WHERE t.v > 1")
        after = db.stats
        assert after["full_scans"] == before["full_scans"] + 1
        assert after["rows_scanned"] == before["rows_scanned"] + 5


class TestAnalyzeLocking:
    """ANALYZE is a read-only stats scan and must never stall
    writers (regression: it used to take an EXCLUSIVE table lock)."""

    def test_writer_not_blocked_by_open_analyze_txn(self):
        db = Database(lock_timeout=0.05)
        db.execute("CREATE TABLE T(a NUMBER)")
        db.execute("INSERT INTO T VALUES(1)")
        with db.session(name="stats") as stats, \
                db.session(name="writer") as writer:
            stats.begin()
            stats.execute("ANALYZE TABLE T")
            # under MVCC the ANALYZE holds no table lock at all, so
            # the writer proceeds instead of hitting its timeout
            writer.execute("INSERT INTO T VALUES(2)")
            stats.commit()
        assert db.execute("SELECT COUNT(*) FROM T").scalar() == 2
        assert db.stats["lock_timeouts"] == 0

    def test_analyze_races_writers_without_stalls(self):
        db = Database(lock_timeout=5.0)
        db.execute("CREATE TABLE T(a NUMBER)")

        def writer():
            with db.session(name="w") as session:
                for n in range(25):
                    session.execute(f"INSERT INTO T VALUES({n})")

        def analyzer():
            with db.session(name="s") as session:
                for _ in range(25):
                    session.execute("ANALYZE TABLE T")

        errors = run_threads([writer, writer, analyzer])
        assert errors == []
        assert db.execute("SELECT COUNT(*) FROM T").scalar() == 50
        stats = db.catalog.table("T").stats
        assert stats is not None


class TestSnapshotCaches:
    """The statement LRU and the view cache must respect snapshot
    boundaries: a pinned old snapshot can never be served a result
    computed from (or cached under) a newer database state, and a
    fresh reader can never be served a stale snapshot's result."""

    def _schema(self, db):
        db.execute("CREATE TABLE T(id NUMBER PRIMARY KEY, v NUMBER)")
        db.execute("INSERT INTO T VALUES(1, 10)")
        db.execute("CREATE VIEW V AS SELECT t.v FROM T t")

    def test_stmt_cache_does_not_leak_new_rows_into_old_snapshot(self):
        db = Database()
        self._schema(db)
        sql = "SELECT SUM(t.v) FROM T t"
        with db.session(name="pinned") as pinned, \
                db.session(name="writer") as writer:
            pinned.set_transaction(read_only=True)
            assert pinned.execute(sql).scalar() == 10
            # the writer reuses the *same* SQL text (same LRU slot)
            # around its committed write
            assert writer.execute(sql).scalar() == 10
            writer.execute("UPDATE T SET v = 99 WHERE id = 1")
            assert writer.execute(sql).scalar() == 99
            # the pinned snapshot re-runs the cached statement and
            # must still see its own world
            assert pinned.execute(sql).scalar() == 10
            pinned.commit()
            assert pinned.execute(sql).scalar() == 99

    def test_view_cache_respects_snapshot_boundaries(self):
        db = Database()
        self._schema(db)
        with db.session(name="pinned") as pinned, \
                db.session(name="writer") as writer:
            pinned.set_transaction(read_only=True)
            assert pinned.execute("SELECT * FROM V").rows == [(10,)]
            writer.execute("UPDATE T SET v = 99 WHERE id = 1")
            # fresh readers see the new state (whether or not the old
            # snapshot populated a cache entry first)...
            assert writer.execute("SELECT * FROM V").rows == [(99,)]
            # ...and the pinned snapshot keeps seeing the old state
            # (whether or not the new state was cached in between)
            assert pinned.execute("SELECT * FROM V").rows == [(10,)]
            assert pinned.execute("SELECT * FROM V").rows == [(10,)]
            pinned.commit()
        assert db.execute("SELECT * FROM V").rows == [(99,)]

    def test_own_writes_bypass_the_snapshot_view_cache(self):
        db = Database()
        self._schema(db)
        db.execute("SELECT * FROM V")   # warm the caches
        with db.session(name="txn") as txn, \
                db.session(name="other") as other:
            txn.begin()
            txn.execute("UPDATE T SET v = 7 WHERE id = 1")
            # the writer reads its own uncommitted value through the
            # view, and must not publish it into any cache
            assert txn.execute("SELECT * FROM V").rows == [(7,)]
            assert other.execute("SELECT * FROM V").rows == [(10,)]
            txn.rollback()
            assert txn.execute("SELECT * FROM V").rows == [(10,)]

    def test_ddl_invalidates_snapshot_view_cache(self):
        db = Database()
        self._schema(db)
        with db.session(name="pinned") as pinned:
            pinned.set_transaction(read_only=True)
            assert pinned.execute("SELECT * FROM V").rows == [(10,)]
            # DDL is not versioned: it must drop snapshot-keyed view
            # results wholesale, not serve them stale
            db.execute("CREATE TABLE Unrelated(n NUMBER)")
            assert pinned.execute("SELECT * FROM V").rows == [(10,)]
            pinned.commit()
