"""Cross-shard differential harness: the router must be invisible.

Every test here runs the same statements against a single
:class:`Database` and against :class:`ShardedDatabase` instances with
n ∈ {1, 2, 4} shards, and asserts identical results — rows, columns,
rowcounts and messages, or exception class and ORA code — across
every query type: point and range predicates, CONTAINS full-text,
LIKE, global and grouped aggregates (including AVG's exact Decimal,
DISTINCT aggregates, HAVING and expressions over aggregates),
DISTINCT, ORDER BY by position, name, select-list expression and row
expression, FETCH FIRST, DML rowcounts, transactions and concurrent
writers.  The engine and the router share one SELECT back half
(:mod:`repro.ordb.select`), so only cross-shard subqueries still
refuse.  Where no ORDER BY (or a tie-prone one) leaves row order
unspecified, rows compare as multisets — both engines sort stably but
enumerate storage in different orders.

``REPRO_STRESS_SEED`` varies the seeded data and random query sweep,
and ``REPRO_SHARD_COUNTS`` (comma-separated, default ``1,2,4``)
picks the cluster sizes under test, so CI can fan a seed ×
shard-count matrix out across runs.
"""

from __future__ import annotations

import os
import random
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.ordb import Database, ShardedDatabase, shard_of
from repro.ordb.errors import NoSuchColumn, NotSupported, OrdbError

SEED = int(os.environ.get("REPRO_STRESS_SEED", "0"))
SHARD_COUNTS = tuple(
    int(piece) for piece in
    os.environ.get("REPRO_SHARD_COUNTS", "1,2,4").split(","))

WORDS = ("alpha", "beta", "gamma", "delta", "omega", "sigma")
GROUPS = ("g0", "g1", "g2")

DDL = ("CREATE TABLE t(a NUMBER PRIMARY KEY, b NUMBER,"
       " s VARCHAR2(80), g VARCHAR2(10))")


def seeded_rows(count: int = 40, seed: int = SEED) -> list[tuple]:
    rng = random.Random(seed * 7919 + 17)
    return [(k, rng.randint(-50, 50),
             " ".join(rng.choice(WORDS) for _ in range(3)),
             rng.choice(GROUPS))
            for k in range(count)]


def populate(db, rows) -> None:
    db.execute(DDL)
    for a, b, s, g in rows:
        db.execute(f"INSERT INTO t VALUES({a}, {b}, '{s}', '{g}')")


def make_pair(n_shards: int, rows=None):
    rows = seeded_rows() if rows is None else rows
    single, sharded = Database(), ShardedDatabase(n_shards=n_shards)
    populate(single, rows)
    populate(sharded, rows)
    return single, sharded


#: (sql, comparison) — "ordered" compares row lists exactly (the
#: ORDER BY key is unique, so order is fully determined), "multiset"
#: sorts both sides first, "count" compares only the row count
#: (FETCH FIRST without ORDER BY returns *some* k rows on both).
QUERIES = [
    ("SELECT t.a, t.b FROM t WHERE t.a = 7", "multiset"),
    ("SELECT t.a, t.s FROM t WHERE t.b > 0 AND t.b < 30", "multiset"),
    ("SELECT t.a, t.b FROM t ORDER BY a", "ordered"),
    ("SELECT t.a FROM t ORDER BY t.b * 100 + t.a DESC"
     " FETCH FIRST 5 ROWS ONLY", "ordered"),
    ("SELECT t.a FROM t FETCH FIRST 3 ROWS ONLY", "count"),
    ("SELECT DISTINCT t.g FROM t", "multiset"),
    ("SELECT COUNT(*), SUM(t.b), MIN(t.b), MAX(t.b), AVG(t.b)"
     " FROM t", "ordered"),
    ("SELECT SUM(t.b) FROM t WHERE t.g = 'g1'", "ordered"),
    ("SELECT COUNT(*) FROM t WHERE t.b > 999", "ordered"),
    ("SELECT t.g, COUNT(*), SUM(t.b), AVG(t.b) FROM t GROUP BY g",
     "multiset"),
    ("SELECT t.g, COUNT(*) FROM t GROUP BY g ORDER BY g", "ordered"),
    ("SELECT * FROM t WHERE t.b >= 10", "multiset"),
    ("SELECT t.a FROM t WHERE t.s LIKE '%alpha%'", "multiset"),
    ("SELECT t.a FROM t WHERE CONTAINS(t.s, 'alpha AND beta')",
     "multiset"),
    ("SELECT t.a FROM t WHERE NOT CONTAINS(t.s, 'omega')",
     "multiset"),
    ("SELECT t.g, t.b FROM t WHERE t.a < 20 ORDER BY a DESC",
     "ordered"),
    # finalise runs after merge: HAVING, DISTINCT aggregates and
    # expressions over aggregates are ordinary queries on any topology
    ("SELECT t.g FROM t GROUP BY g HAVING COUNT(*) > 1", "multiset"),
    ("SELECT t.g, COUNT(*) FROM t GROUP BY g HAVING COUNT(*) > 13",
     "multiset"),
    ("SELECT t.g, COUNT(*) FROM t GROUP BY g HAVING COUNT(*) > 999",
     "multiset"),
    ("SELECT COUNT(DISTINCT t.g) FROM t", "ordered"),
    ("SELECT t.g, COUNT(DISTINCT t.b), SUM(DISTINCT t.b),"
     " AVG(DISTINCT t.b) FROM t GROUP BY t.g", "multiset"),
    ("SELECT COUNT(*) + 1 FROM t", "ordered"),
    ("SELECT UPPER(t.g), COUNT(*) FROM t GROUP BY t.g", "multiset"),
    ("SELECT t.g || '/' || COUNT(*) FROM t GROUP BY t.g", "multiset"),
    ("SELECT t.g, SUM(t.b) FROM t GROUP BY g ORDER BY SUM(t.b) DESC,"
     " g", "ordered"),
    ("SELECT DISTINCT t.g FROM t ORDER BY g DESC"
     " FETCH FIRST 2 ROWS ONLY", "ordered"),
    ("SELECT DISTINCT t.g, t.b FROM t ORDER BY 2, 1"
     " FETCH FIRST 7 ROWS ONLY", "ordered"),
    # all-NULL and empty groups
    ("SELECT t.g, SUM(NULL), MIN(NULL), AVG(NULL), COUNT(NULL)"
     " FROM t GROUP BY t.g", "multiset"),
    ("SELECT COUNT(*), SUM(t.b), MIN(t.s), AVG(t.b),"
     " COUNT(DISTINCT t.b) FROM t WHERE t.a > 999", "ordered"),
    ("SELECT t.g, COUNT(*) FROM t WHERE t.a > 999 GROUP BY t.g",
     "multiset"),
]

#: (sql, exception class) — a statement refused anywhere is refused
#: everywhere, with the same class and ORA code
ERRORS = [
    ("SELECT t.a FROM t ORDER BY 5", NoSuchColumn),
    ("SELECT t.g, COUNT(*) FROM t GROUP BY g ORDER BY 3",
     NoSuchColumn),
    ("SELECT DISTINCT t.g FROM t ORDER BY t.b", NotSupported),
    ("SELECT t.g FROM t GROUP BY t.g ORDER BY t.b", NotSupported),
    ("SELECT SUM(t.s) FROM t", OrdbError),
    ("SELECT t.nope FROM t", NoSuchColumn),
]


def assert_same_result(expected, actual, sql: str,
                       comparison: str = "multiset") -> None:
    assert actual.columns == expected.columns, sql
    assert actual.rowcount == expected.rowcount, sql
    if comparison == "count":
        assert len(actual.rows) == len(expected.rows), sql
    elif comparison == "ordered":
        assert actual.rows == expected.rows, sql
    else:
        assert (sorted(actual.rows, key=repr)
                == sorted(expected.rows, key=repr)), sql


def assert_equivalent(single, sharded) -> None:
    for sql, comparison in QUERIES:
        assert_same_result(single.execute(sql), sharded.execute(sql),
                           sql, comparison)


@pytest.mark.parametrize("n", SHARD_COUNTS)
def test_every_query_type_matches_single_engine(n):
    single, sharded = make_pair(n)
    assert_equivalent(single, sharded)
    if n > 1:
        assert sharded.router_stats["shard_fanouts"] > 0


@pytest.mark.parametrize("n", SHARD_COUNTS)
def test_dml_rowcounts_and_messages_match(n):
    single, sharded = make_pair(n)
    for sql in [
        "UPDATE t SET b = t.b + 1 WHERE t.g = 'g2'",
        "UPDATE t SET s = 'rewritten' WHERE t.b < 0",
        "DELETE FROM t WHERE t.b > 40",
        "DELETE FROM t WHERE t.a = 3",
        "INSERT INTO t VALUES(1000, 7, 'tail', 'g0')",
    ]:
        expected, actual = single.execute(sql), sharded.execute(sql)
        assert actual.rowcount == expected.rowcount, sql
        assert actual.message == expected.message, sql
    assert_equivalent(single, sharded)


@pytest.mark.parametrize("n", SHARD_COUNTS)
def test_transactions_match_single_engine(n):
    single, sharded = make_pair(n)
    for db in (single, sharded):
        session = db.session(name="txn")
        session.execute("BEGIN")
        session.execute("INSERT INTO t VALUES(500, 1, 'tx', 'g0')")
        session.execute("SAVEPOINT sp1")
        session.execute("INSERT INTO t VALUES(501, 2, 'tx', 'g1')")
        session.execute("ROLLBACK TO SAVEPOINT sp1")
        session.execute("COMMIT")
        session.execute("BEGIN")
        session.execute("DELETE FROM t WHERE t.g = 'g2'")
        session.execute("ROLLBACK")
        session.close()
    assert_equivalent(single, sharded)


def test_transaction_commits_only_the_shards_it_touched():
    """A session that has touched every shard still commits one
    shard per shard a later transaction touches: idle shards join a
    transaction on first use, not at BEGIN."""
    _, sharded = make_pair(4)
    session = sharded.session(name="txn")
    session.execute("BEGIN")
    session.execute("UPDATE t SET b = b WHERE t.a < 0")  # every shard
    session.execute("COMMIT")
    assert len(session._subs) == 4
    before = sharded.stats["commits"]
    with session.transaction():
        session.execute("INSERT INTO t VALUES(600, 1, 'one', 'g0')")
    assert sharded.stats["commits"] - before == 1
    # a shard that joins after a savepoint replays it
    before = sharded.stats["commits"]
    with sharded.pin_document(7):
        session.execute("BEGIN")
        session.execute("SAVEPOINT sp")
        session.execute("INSERT INTO t VALUES(601, 1, 'two', 'g0')")
        session.execute("ROLLBACK TO SAVEPOINT sp")
        session.execute("INSERT INTO t VALUES(602, 1, 'three', 'g0')")
        session.execute("COMMIT")
    assert sharded.stats["commits"] - before == 1
    assert sharded.execute(
        "SELECT t.a FROM t WHERE t.a >= 600 ORDER BY a").rows \
        == [(600,), (602,)]
    session.close()


@pytest.mark.parametrize("n", (2, 4))
def test_concurrent_writers_match_serial_single_engine(n):
    """W writers insert disjoint keys through their own sessions; the
    final cluster state must equal a serial single-engine run."""
    writers, per_writer = 4, 8
    sharded = ShardedDatabase(n_shards=n)
    sharded.execute(DDL)

    def write(index: int) -> None:
        session = sharded.session(name=f"writer-{index}")
        rng = random.Random(SEED * 31 + index)
        for i in range(per_writer):
            session.execute(
                f"INSERT INTO t VALUES({index * 100 + i},"
                f" {rng.randint(-9, 9)}, 'w{index}',"
                f" 'g{index % len(GROUPS)}')")
        session.close()

    threads = [threading.Thread(target=write, args=(index,))
               for index in range(writers)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    single = Database()
    single.execute(DDL)
    for index in range(writers):
        rng = random.Random(SEED * 31 + index)
        for i in range(per_writer):
            single.execute(
                f"INSERT INTO t VALUES({index * 100 + i},"
                f" {rng.randint(-9, 9)}, 'w{index}',"
                f" 'g{index % len(GROUPS)}')")
    assert_equivalent(single, sharded)


@pytest.mark.parametrize("n", SHARD_COUNTS)
def test_errors_match_single_engine(n):
    single, sharded = make_pair(n)
    for sql, expected in ERRORS:
        with pytest.raises(expected) as on_single:
            single.execute(sql)
        with pytest.raises(OrdbError) as on_shards:
            sharded.execute(sql)
        assert type(on_shards.value) is type(on_single.value), sql
        assert on_shards.value.code == on_single.value.code, sql


def test_unsupported_shapes_raise_not_supported_cross_shard():
    """The one shape the merge cannot decompose — a subquery, which
    would see only its own shard's rows — must refuse loudly (never
    silently return shard-local answers) unless a document pin
    confines it to one shard."""
    _, sharded = make_pair(2)
    for sql in [
        "SELECT t.a FROM t WHERE t.b = (SELECT MAX(u.b) FROM t u)",
        "SELECT t.a FROM t WHERE t.a IN (SELECT u.a FROM t u)",
        "SELECT COUNT(*) FROM t WHERE EXISTS"
        " (SELECT u.a FROM t u WHERE u.a = t.a + 1)",
        "SELECT q.a FROM (SELECT t.a FROM t) q",
    ]:
        with pytest.raises(NotSupported, match="subqueries"):
            sharded.execute(sql)
    # pinned to one shard the same shape runs fine (single engine)
    with sharded.pin_document(0):
        result = sharded.execute(
            "SELECT t.a FROM t WHERE t.a IN (SELECT u.a FROM t u)")
    assert result.rowcount > 0


def test_rebalance_preserves_differential_equivalence():
    single, sharded = make_pair(2)
    assert_equivalent(single, sharded)
    info = sharded.rebalance(4)
    assert info["n_shards"] == 4 and sharded.n_shards == 4
    assert_equivalent(single, sharded)
    # and shrinking back down replays the same journal again
    sharded.rebalance(1)
    assert_equivalent(single, sharded)


def test_seeded_random_query_sweep():
    """Randomised predicates/orderings, reproducible from the seed."""
    rng = random.Random(SEED * 104729 + 3)
    single, sharded = make_pair(4)
    operators = ("<", "<=", ">", ">=", "=")
    for _ in range(40):
        column = rng.choice(("a", "b"))
        op = rng.choice(operators)
        bound = rng.randint(-50, 50)
        sql = (f"SELECT t.a, t.b, t.g FROM t"
               f" WHERE t.{column} {op} {bound}")
        comparison = "multiset"
        if rng.random() < 0.5:
            sql += " ORDER BY a"
            comparison = "ordered"
            if rng.random() < 0.5:
                sql += f" FETCH FIRST {rng.randint(1, 10)} ROWS ONLY"
        assert_same_result(single.execute(sql), sharded.execute(sql),
                           sql, comparison)


_keys = st.integers(min_value=0, max_value=10 ** 6)
_vals = st.integers(min_value=-1000, max_value=1000)


@settings(max_examples=20, deadline=None)
@given(st.lists(st.tuples(_keys, _vals),
                unique_by=lambda row: row[0], max_size=16),
       st.sampled_from(SHARD_COUNTS))
def test_property_differential(pairs, n):
    rows = [(a, b, f"alpha w{a % 5}", GROUPS[a % len(GROUPS)])
            for a, b in pairs]
    single, sharded = make_pair(n, rows=rows)
    for sql, comparison in [
        ("SELECT t.a, t.b FROM t ORDER BY a", "ordered"),
        ("SELECT COUNT(*), SUM(t.b), MIN(t.b), MAX(t.b), AVG(t.b)"
         " FROM t", "ordered"),
        ("SELECT t.g, COUNT(*), AVG(t.b) FROM t GROUP BY g",
         "multiset"),
    ]:
        assert_same_result(single.execute(sql), sharded.execute(sql),
                           sql, comparison)


# -- placement and routing invariants ----------------------------------------------


def test_hash_placement_is_stable_and_total():
    for n in SHARD_COUNTS:
        for doc_id in range(200):
            home = shard_of(doc_id, n)
            assert 0 <= home < n
            assert home == shard_of(doc_id, n)  # deterministic
    spread = {shard_of(doc_id, 4) for doc_id in range(200)}
    assert spread == {0, 1, 2, 3}, "hash should reach every shard"


class TestShardTargetedFaults:
    """Regression: ``db.faults.arm(site, shard=i)`` must hit exactly
    shard *i* — routing used to swallow the shard context, so a
    targeted fault either fired everywhere or not at all."""

    @staticmethod
    def doc_on_shard(sharded, shard: int) -> int:
        return next(doc_id for doc_id in range(1000)
                    if sharded.shard_for(doc_id) == shard)

    def test_net_fault_hits_only_the_armed_shard(self):
        from repro.ordb import TransientEngineFault

        sharded = ShardedDatabase(n_shards=4)
        sharded.execute(DDL)
        sharded.faults.arm("net", shard=2,
                           error=TransientEngineFault)
        # a statement routed to any *other* shard sails through
        safe = self.doc_on_shard(sharded, 0)
        with sharded.pin_document(safe):
            sharded.execute(
                f"INSERT INTO t VALUES({safe}, 1, 'ok', 'g0')")
        # the armed shard's dispatch dies
        doomed = self.doc_on_shard(sharded, 2)
        with sharded.pin_document(doomed):
            with pytest.raises(TransientEngineFault):
                sharded.execute(
                    f"INSERT INTO t VALUES({doomed}, 1, 'no', 'g0')")
        fired = [event for event in sharded.faults.fired
                 if event.site == "net"]
        assert len(fired) == 1
        assert fired[0].context.get("shard") == 2

    def test_wal_fault_hits_only_the_armed_shard(self, tmp_path):
        from repro.ordb import TornWrite, WalFault

        sharded = ShardedDatabase(n_shards=2, path=tmp_path,
                                  fsync="commit")
        sharded.execute(DDL)
        sharded.faults.arm("wal", shard=1, at=1, error=TornWrite)
        safe = self.doc_on_shard(sharded, 0)
        with sharded.pin_document(safe):
            sharded.execute(
                f"INSERT INTO t VALUES({safe}, 1, 'ok', 'g0')")
        appends_before = sharded.shards[0].stats["wal_appends"]
        doomed = self.doc_on_shard(sharded, 1)
        with sharded.pin_document(doomed):
            with pytest.raises(WalFault):
                sharded.execute(
                    f"INSERT INTO t VALUES({doomed}, 1, 'no', 'g0')")
        # the healthy shard neither fired nor logged anything new
        assert sharded.shards[0].stats["wal_appends"] \
            == appends_before
        assert not sharded.shards[0].faults.fired
        assert any(event.site == "wal"
                   for event in sharded.shards[1].faults.fired)
        # and the untargeted shard still commits afterwards
        with sharded.pin_document(safe):
            sharded.execute("UPDATE t SET b = 2 WHERE t.a ="
                            f" {safe}")
        sharded.close()

    def test_parse_faults_refuse_a_shard_target(self):
        sharded = ShardedDatabase(n_shards=2)
        with pytest.raises(ValueError):
            sharded.faults.arm("parse", shard=1)


def test_pinned_statements_stay_on_one_shard():
    sharded = ShardedDatabase(n_shards=4)
    sharded.execute(DDL)
    doc_id = 11
    home = sharded.shard_for(doc_id)
    with sharded.pin_document(doc_id):
        sharded.execute("INSERT INTO t VALUES(11, 1, 'pin', 'g0')")
    for index, shard_db in enumerate(sharded.shards):
        count = shard_db.execute("SELECT COUNT(*) FROM t").scalar()
        assert count == (1 if index == home else 0)
