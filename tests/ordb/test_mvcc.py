"""MVCC anomaly suite: snapshot reads proven free of dirty and
non-repeatable reads, without ever taking a shared lock.

Each test names the anomaly it rules out (the classic taxonomy from
the ANSI isolation levels), drives it with two sessions against one
engine, and asserts the *mechanism* as well as the outcome — e.g. the
zero-S-lock tests read the lock manager's ``s_acquires`` counter, not
just the result rows.  ``REPRO_STRESS_SEED`` varies the interleaved
stress schedules (CI runs a small matrix).
"""

from __future__ import annotations

import os
import random
import threading

import pytest

from repro.ordb import (
    Database,
    ReadOnlyViolation,
    SerializationConflict,
    TransactionError,
)

SEED = int(os.environ.get("REPRO_STRESS_SEED", "0"))


@pytest.fixture
def db():
    database = Database()
    database.executescript(
        "CREATE TABLE Accounts(Owner VARCHAR2(30) PRIMARY KEY,"
        " Balance NUMBER);"
        "INSERT INTO Accounts VALUES ('alice', 100);"
        "INSERT INTO Accounts VALUES ('bob', 200);")
    return database


def balance(session, owner: str):
    return session.execute(
        f"SELECT a.Balance FROM Accounts a"
        f" WHERE a.Owner = '{owner}'").scalar()


class TestNoDirtyReads:
    def test_uncommitted_write_is_invisible(self, db):
        with db.session(name="writer") as writer, \
                db.session(name="reader") as reader:
            writer.begin()
            writer.execute("UPDATE Accounts a SET Balance = 0"
                           " WHERE a.Owner = 'alice'")
            assert balance(reader, "alice") == 100
            writer.commit()
            assert balance(reader, "alice") == 0

    def test_uncommitted_insert_is_invisible(self, db):
        with db.session(name="writer") as writer, \
                db.session(name="reader") as reader:
            writer.begin()
            writer.execute("INSERT INTO Accounts VALUES ('carol', 7)")
            rows = reader.execute(
                "SELECT COUNT(*) FROM Accounts").scalar()
            assert rows == 2
            # the writer reads its own uncommitted insert
            assert balance(writer, "carol") == 7
            writer.rollback()
            assert reader.execute(
                "SELECT COUNT(*) FROM Accounts").scalar() == 2

    def test_uncommitted_delete_is_invisible(self, db):
        with db.session(name="writer") as writer, \
                db.session(name="reader") as reader:
            writer.begin()
            writer.execute("DELETE FROM Accounts WHERE Owner = 'bob'")
            assert balance(reader, "bob") == 200
            writer.commit()
            assert balance(reader, "bob") is None

    def test_rolled_back_write_never_observed(self, db):
        with db.session(name="writer") as writer, \
                db.session(name="reader") as reader:
            writer.begin()
            writer.execute("UPDATE Accounts a SET Balance = -1"
                           " WHERE a.Owner = 'alice'")
            writer.rollback()
            assert balance(reader, "alice") == 100

    def test_view_read_mid_statement_does_not_leak_pending_rows(self):
        # the writer's UPDATE reads V after it already rewrote row 1;
        # that view result mixes in an uncommitted row and must stay
        # with the writer's statement, never reach another session
        db = Database()
        db.executescript(
            "CREATE TABLE T(id NUMBER PRIMARY KEY, a NUMBER);"
            "INSERT INTO T VALUES (1, 10);"
            "INSERT INTO T VALUES (2, 20);"
            "CREATE VIEW V AS SELECT t.a FROM T t;")
        with db.session(name="w") as writer, \
                db.session(name="r") as reader:
            writer.begin()
            writer.execute(
                "UPDATE T t SET a = CASE WHEN t.id = 2"
                " THEN (SELECT MAX(v.a) FROM V v) ELSE t.a + 100 END")
            assert reader.execute(
                "SELECT MAX(t.a) FROM T t").scalar() == 20
            assert reader.execute(
                "SELECT MAX(v.a) FROM V v").scalar() == 20
            writer.rollback()
            assert reader.execute(
                "SELECT MAX(v.a) FROM V v").scalar() == 20


class TestNoNonRepeatableReads:
    """A pinned snapshot (READ ONLY / SERIALIZABLE) re-reads the same
    values no matter what commits around it."""

    def test_read_only_snapshot_is_stable(self, db):
        with db.session(name="auditor") as auditor, \
                db.session(name="teller") as teller:
            auditor.set_transaction(read_only=True)
            first = balance(auditor, "alice")
            teller.execute("UPDATE Accounts a SET Balance = 1"
                           " WHERE a.Owner = 'alice'")
            assert balance(auditor, "alice") == first == 100
            auditor.commit()
            # a fresh statement sees the committed update
            assert balance(auditor, "alice") == 1

    def test_serializable_snapshot_is_stable(self, db):
        with db.session(name="auditor") as auditor, \
                db.session(name="teller") as teller:
            auditor.set_transaction(isolation="SERIALIZABLE")
            total = auditor.execute(
                "SELECT SUM(a.Balance) FROM Accounts a").scalar()
            teller.execute("INSERT INTO Accounts VALUES ('mallory',"
                           " 1000000)")
            assert auditor.execute(
                "SELECT SUM(a.Balance) FROM Accounts a"
            ).scalar() == total == 300
            auditor.rollback()

    def test_snapshot_does_not_see_committed_delete(self, db):
        with db.session(name="auditor") as auditor, \
                db.session(name="teller") as teller:
            auditor.set_transaction(read_only=True)
            assert balance(auditor, "bob") == 200
            teller.execute("DELETE FROM Accounts WHERE Owner = 'bob'")
            # the deleted row survives as a tombstone for the snapshot
            assert balance(auditor, "bob") == 200
            assert auditor.execute(
                "SELECT COUNT(*) FROM Accounts").scalar() == 2
            auditor.commit()
            assert balance(auditor, "bob") is None

    def test_read_committed_sees_fresh_statement_snapshots(self, db):
        # the default level takes a new snapshot per SELECT: not
        # repeatable by design (Oracle's READ COMMITTED)
        with db.session(name="reader") as reader, \
                db.session(name="teller") as teller:
            reader.begin()
            assert balance(reader, "alice") == 100
            teller.execute("UPDATE Accounts a SET Balance = 42"
                           " WHERE a.Owner = 'alice'")
            assert balance(reader, "alice") == 42
            reader.rollback()


class TestZeroSharedLocks:
    """The tentpole mechanism: SELECTs acquire no table S locks."""

    def test_select_takes_no_shared_locks(self, db):
        before = db.locks.stats["s_acquires"]
        for _ in range(10):
            db.execute("SELECT a.Owner FROM Accounts a")
        assert db.locks.stats["s_acquires"] == before
        assert db.stats["snapshot_reads"] >= 10

    def test_reader_proceeds_while_writer_holds_x(self, db):
        with db.session(name="writer") as writer, \
                db.session(name="reader") as reader:
            writer.begin()
            writer.execute("UPDATE Accounts a SET Balance = 0"
                           " WHERE a.Owner = 'alice'")
            before = db.locks.stats["s_acquires"]
            timeouts = db.stats["lock_timeouts"]
            assert balance(reader, "alice") == 100
            assert db.locks.stats["s_acquires"] == before
            assert db.stats["lock_timeouts"] == timeouts
            assert db.stats["reader_lock_waits_avoided"] >= 1
            writer.rollback()


class TestSerializationConflicts:
    def test_first_committer_wins(self, db):
        """The lost-update anomaly surfaces as ORA-08177."""
        with db.session(name="t1") as t1, \
                db.session(name="t2") as t2:
            t1.set_transaction(isolation="SERIALIZABLE")
            assert balance(t1, "alice") == 100
            # t2 commits an overlapping write first
            t2.execute("UPDATE Accounts a SET Balance = 150"
                       " WHERE a.Owner = 'alice'")
            with pytest.raises(SerializationConflict) as info:
                t1.execute("UPDATE Accounts a SET Balance = 110"
                           " WHERE a.Owner = 'alice'")
            assert info.value.code == "ORA-08177"
            t1.rollback()
            assert balance(t1, "alice") == 150

    def test_disjoint_writes_both_commit(self, db):
        with db.session(name="t1") as t1, \
                db.session(name="t2") as t2:
            t1.set_transaction(isolation="SERIALIZABLE")
            t2.execute("UPDATE Accounts a SET Balance = 250"
                       " WHERE a.Owner = 'bob'")
            t1.execute("UPDATE Accounts a SET Balance = 110"
                       " WHERE a.Owner = 'alice'")
            t1.commit()
            assert balance(t1, "alice") == 110
            assert balance(t1, "bob") == 250


class TestReadOnlyTransactions:
    def test_write_in_read_only_txn_rejected(self, db):
        with db.session() as session:
            session.set_transaction(read_only=True)
            with pytest.raises(ReadOnlyViolation) as info:
                session.execute("UPDATE Accounts a SET Balance = 0"
                                " WHERE a.Owner = 'alice'")
            assert info.value.code == "ORA-01456"
            session.rollback()
            assert balance(session, "alice") == 100

    def test_set_transaction_must_come_first(self, db):
        with db.session() as session:
            session.begin()
            balance(session, "alice")
            with pytest.raises(TransactionError):
                session.execute("SET TRANSACTION READ ONLY")
            session.rollback()

    def test_isolation_level_reporting(self, db):
        with db.session() as session:
            assert session.isolation_level == "READ COMMITTED"
            session.set_transaction(read_only=True)
            assert session.isolation_level == "READ ONLY"
            assert session.txn_status()["read_only"] is True
            session.rollback()
            session.set_transaction(isolation="SERIALIZABLE")
            assert session.isolation_level == "SERIALIZABLE"
            assert session.txn_status()["snapshot_ts"] is not None
            session.rollback()


class TestGarbageCollection:
    def test_commit_prunes_when_nothing_pinned(self, db):
        for n in range(5):
            db.execute(f"UPDATE Accounts SET Balance = {n}"
                       " WHERE Owner = 'alice'")
        info = db.mvcc_info()
        assert info["version_records"] == 0
        assert info["tombstones"] == 0

    def test_pinned_snapshot_defers_gc_until_release(self, db):
        with db.session(name="auditor") as auditor, \
                db.session(name="teller") as teller:
            auditor.set_transaction(read_only=True)
            for n in range(5):
                teller.execute(f"UPDATE Accounts SET Balance = {n}"
                               " WHERE Owner = 'alice'")
            teller.execute("DELETE FROM Accounts WHERE Owner = 'bob'")
            held = db.mvcc_info()
            assert held["version_records"] >= 1
            assert held["tombstones"] == 1
            # the snapshot still reads the pinned images
            assert balance(auditor, "alice") == 100
            assert balance(auditor, "bob") == 200
            auditor.commit()
        # releasing the pin vacuums the backlog
        info = db.mvcc_info()
        assert info["version_records"] == 0
        assert info["tombstones"] == 0
        assert db.stats["gc_versions_pruned"] >= 1
        assert db.stats["gc_tombstones_pruned"] == 1

    def test_manual_vacuum_reports_work(self, db):
        with db.session(name="auditor") as auditor:
            auditor.set_transaction(read_only=True)
            db.execute("UPDATE Accounts SET Balance = 1"
                       " WHERE Owner = 'alice'")
            assert balance(auditor, "alice") == 100
            # pinned: nothing reclaimable yet
            assert db.vacuum()["versions_pruned"] == 0
            auditor.commit()
        swept = db.vacuum()
        assert swept["versions_pruned"] + swept["tombstones_pruned"] \
            >= 0
        assert db.mvcc_info()["version_records"] == 0


class TestCommitTimestampDurability:
    def test_commit_ts_survives_recovery(self, tmp_path):
        path = tmp_path / "mvcc.db"
        db = Database(path=path)
        db.executescript(
            "CREATE TABLE T(n NUMBER);"
            "INSERT INTO T VALUES (1);"
            "INSERT INTO T VALUES (2);")
        before = db.mvcc_info()["commit_ts"]
        assert before >= 1
        db.close()

        recovered = Database(path=path)
        after = recovered.mvcc_info()["commit_ts"]
        assert after >= before
        # snapshots born after recovery see everything committed
        assert recovered.execute(
            "SELECT COUNT(*) FROM T").scalar() == 2
        # and new commits keep the clock monotonic
        recovered.execute("INSERT INTO T VALUES (3)")
        assert recovered.mvcc_info()["commit_ts"] > after
        recovered.close()

    def test_replayed_rows_are_visible_not_pending(self, tmp_path):
        path = tmp_path / "mvcc2.db"
        db = Database(path=path, checkpoint_every=2)
        db.execute("CREATE TABLE T(n NUMBER)")
        for n in range(6):
            db.execute(f"INSERT INTO T VALUES ({n})")
        db.close()
        recovered = Database(path=path)
        assert recovered.execute(
            "SELECT COUNT(*) FROM T").scalar() == 6
        info = recovered.mvcc_info()
        assert info["version_records"] == 0
        recovered.close()


class TestExplainReadMode:
    def test_select_reports_snapshot_read(self, db):
        plan = db.explain("SELECT a.Owner FROM Accounts a").render()
        assert "SNAPSHOT READ @latest" in plan.splitlines()[0]

    def test_pinned_transaction_reports_its_timestamp(self, db):
        with db.session() as session:
            session.set_transaction(read_only=True)
            ts = session.txn_status()["snapshot_ts"]
            plan = db.explain("SELECT a.Owner FROM Accounts a",
                              session=session).render()
            assert f"SNAPSHOT READ @{ts}" in plan.splitlines()[0]
            session.commit()


class TestDmlStatementSnapshots:
    """DML inner reads (INSERT ... SELECT, UPDATE/DELETE subqueries)
    run against the same snapshot a top-level SELECT would use — not
    against the current state, which would leak concurrent commits
    into a pinned transaction mid-statement."""

    def test_insert_select_reads_pinned_snapshot(self, db):
        db.execute("CREATE TABLE Totals(T NUMBER)")
        with db.session(name="reporter") as reporter, \
                db.session(name="teller") as teller:
            reporter.set_transaction(isolation="SERIALIZABLE")
            assert balance(reporter, "alice") == 100
            teller.execute("UPDATE Accounts a SET Balance = 999"
                           " WHERE a.Owner = 'alice'")
            # disjoint write set (Totals vs Accounts): no ORA-08177,
            # but the inner SELECT must see the pinned 100
            reporter.execute(
                "INSERT INTO Totals SELECT a.Balance FROM Accounts a"
                " WHERE a.Owner = 'alice'")
            reporter.commit()
        assert db.execute("SELECT t.T FROM Totals t").scalar() == 100

    def test_delete_subquery_reads_pinned_snapshot(self, db):
        db.executescript(
            "CREATE TABLE Totals(T NUMBER);"
            "INSERT INTO Totals VALUES (100);"
            "INSERT INTO Totals VALUES (999);")
        with db.session(name="reporter") as reporter, \
                db.session(name="teller") as teller:
            reporter.set_transaction(isolation="SERIALIZABLE")
            assert balance(reporter, "alice") == 100
            teller.execute("UPDATE Accounts a SET Balance = 999"
                           " WHERE a.Owner = 'alice'")
            # the subquery evaluates to the snapshot's 100, so the
            # 100-row is deleted — not the 999-row current state
            # would select
            reporter.execute(
                "DELETE FROM Totals WHERE T ="
                " (SELECT a.Balance FROM Accounts a"
                "  WHERE a.Owner = 'alice')")
            reporter.commit()
        assert db.execute("SELECT t.T FROM Totals t").scalar() == 999

    def test_update_subquery_reads_pinned_snapshot(self, db):
        with db.session(name="reporter") as reporter, \
                db.session(name="teller") as teller:
            reporter.set_transaction(isolation="SERIALIZABLE")
            assert balance(reporter, "alice") == 100
            teller.execute("UPDATE Accounts a SET Balance = 999"
                           " WHERE a.Owner = 'alice'")
            reporter.execute(
                "UPDATE Accounts a SET Balance ="
                " (SELECT x.Balance FROM Accounts x"
                "  WHERE x.Owner = 'alice')"
                " WHERE a.Owner = 'bob'")
            reporter.commit()
        assert db.execute(
            "SELECT a.Balance FROM Accounts a"
            " WHERE a.Owner = 'bob'").scalar() == 100
        assert db.execute(
            "SELECT a.Balance FROM Accounts a"
            " WHERE a.Owner = 'alice'").scalar() == 999

    def test_txn_dml_still_sees_own_prior_writes(self, db):
        db.execute("CREATE TABLE Totals(T NUMBER)")
        with db.session(name="writer") as writer:
            writer.begin()
            writer.execute("UPDATE Accounts a SET Balance = 123"
                           " WHERE a.Owner = 'alice'")
            writer.execute(
                "INSERT INTO Totals SELECT a.Balance FROM Accounts a"
                " WHERE a.Owner = 'alice'")
            writer.commit()
        assert db.execute("SELECT t.T FROM Totals t").scalar() == 123

    @pytest.mark.parametrize("explicit", [
        pytest.param(False, id="autocommit"),
        pytest.param(True, id="transaction", marks=pytest.mark.xfail(
            strict=True, reason=(
                "inside a transaction a DML statement's inner reads"
                " see the statement's own earlier row writes (they"
                " carry the transaction's token); statement-level"
                " read consistency needs a per-statement image of"
                " those rows"))),
    ])
    def test_inner_read_ignores_own_statement_writes(self, explicit):
        db = Database()
        db.executescript(
            "CREATE TABLE T(id NUMBER PRIMARY KEY, a NUMBER);"
            "INSERT INTO T VALUES (1, 10);"
            "INSERT INTO T VALUES (2, 20);")
        if explicit:
            db.begin()
        db.execute(
            "UPDATE T t SET a = CASE WHEN t.id = 2"
            " THEN (SELECT MAX(u.a) FROM T u) ELSE t.a + 100 END")
        if explicit:
            db.commit()
        assert db.execute(
            "SELECT t.id, t.a FROM T t ORDER BY t.id").rows == [
                (1, 110), (2, 20)]


class TestDdlVersioning:
    """Destructive DDL cannot be versioned row-by-row, so it refuses
    to run while another session holds a pinned snapshot (the Oracle
    move: fail fast with ORA-08177 rather than yank the table out
    from under a repeatable read)."""

    def test_drop_table_conflicts_with_pinned_snapshot(self, db):
        with db.session(name="auditor") as auditor:
            auditor.set_transaction(read_only=True)
            assert balance(auditor, "alice") == 100
            with pytest.raises(SerializationConflict) as info:
                db.execute("DROP TABLE Accounts")
            assert info.value.code == "ORA-08177"
            # the snapshot keeps reading and the table survived
            assert balance(auditor, "alice") == 100
            auditor.commit()
        # pin released: the DROP now proceeds
        db.execute("DROP TABLE Accounts")

    def test_create_index_conflicts_with_pinned_snapshot(self, db):
        with db.session(name="auditor") as auditor:
            auditor.set_transaction(isolation="SERIALIZABLE")
            assert balance(auditor, "alice") == 100
            with pytest.raises(SerializationConflict):
                db.execute(
                    "CREATE INDEX acct_bal ON Accounts (Balance)")
            auditor.commit()
        db.execute("CREATE INDEX acct_bal ON Accounts (Balance)")
        plan = db.explain(
            "SELECT a.Owner FROM Accounts a"
            " WHERE a.Balance > 150").render()
        assert "RANGE INDEX SCAN" in plan

    def test_additive_ddl_allowed_under_pin(self, db):
        with db.session(name="auditor") as auditor:
            auditor.set_transaction(read_only=True)
            assert balance(auditor, "alice") == 100
            db.execute("CREATE TABLE Side(n NUMBER)")
            db.execute("ANALYZE TABLE Accounts")
            assert balance(auditor, "alice") == 100
            auditor.commit()


class TestSnapshotStress:
    """Seeded N-writers x M-readers interleavings: every snapshot
    must observe an invariant-preserving state (constant total)."""

    WRITERS = 3
    READERS = 3
    TRANSFERS = 25

    def test_invariant_holds_under_concurrent_transfers(self):
        db = Database(lock_timeout=10.0)
        db.execute("CREATE TABLE Acct(Id NUMBER PRIMARY KEY,"
                   " Balance NUMBER)")
        accounts = 6
        for n in range(accounts):
            db.execute(f"INSERT INTO Acct VALUES ({n}, 100)")
        total = accounts * 100
        errors: list = []
        bad_reads: list = []
        done = threading.Event()

        def writer(wid: int):
            rng = random.Random(SEED * 1000 + wid)
            try:
                with db.session(name=f"w{wid}") as session:
                    for _ in range(self.TRANSFERS):
                        src, dst = rng.sample(range(accounts), 2)
                        amount = rng.randint(1, 10)
                        with session.transaction():
                            session.execute(
                                f"UPDATE Acct SET Balance ="
                                f" Balance - {amount}"
                                f" WHERE Id = {src}")
                            session.execute(
                                f"UPDATE Acct SET Balance ="
                                f" Balance + {amount}"
                                f" WHERE Id = {dst}")
            except Exception as error:  # pragma: no cover - fails test
                errors.append(error)

        def reader(rid: int):
            try:
                with db.session(name=f"r{rid}") as session:
                    while not done.is_set():
                        seen = session.execute(
                            "SELECT SUM(a.Balance) FROM Acct a"
                        ).scalar()
                        if seen != total:
                            bad_reads.append(seen)
                            return
            except Exception as error:  # pragma: no cover - fails test
                errors.append(error)

        readers = [threading.Thread(target=reader, args=(rid,))
                   for rid in range(self.READERS)]
        writers = [threading.Thread(target=writer, args=(wid,))
                   for wid in range(self.WRITERS)]
        for thread in readers + writers:
            thread.start()
        for thread in writers:
            thread.join(60.0)
        done.set()
        for thread in readers:
            thread.join(10.0)
        assert not errors, errors
        assert not bad_reads, (
            f"snapshot read saw a torn total: {bad_reads}"
            f" (expected {total})")
        assert db.execute(
            "SELECT SUM(a.Balance) FROM Acct a").scalar() == total
        # the whole run should have needed zero reader S locks
        assert db.stats["snapshot_reads"] > 0
