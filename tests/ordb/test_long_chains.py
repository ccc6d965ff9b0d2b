"""10 000-term AND / OR chains and IN lists: right rows, no
RecursionError, on one engine and behind a 4-shard router.

The parser builds a left-deep BinaryOp per chain; conjunct splitting,
AND/OR evaluation and EXPLAIN's rendering unroll it in a loop.
"""

from __future__ import annotations

import pytest

from repro.ordb import Database
from repro.ordb.sharding import ShardedDatabase

TERMS = 10_000
ROWS = range(8)  # t.a = n, t.b = n % 3

#: shape -> (condition, the t.a values it selects)
CONDITIONS = {
    "or": (" OR ".join(f"t.a = {n}" for n in range(0, 2 * TERMS, 2)),
           [n for n in ROWS if n % 2 == 0]),
    "and": (" AND ".join(["t.b = 1"]
                         + [f"t.a <> {n}" for n in range(100, 99 + TERMS)]),
            [n for n in ROWS if n % 3 == 1]),
    "in": ("t.a IN (" + ", ".join(str(n) for n in range(3, 3 * TERMS + 3, 3))
           + ")",
           [n for n in ROWS if n % 3 == 0 and n > 0]),
}


@pytest.fixture(params=[1, 4], ids=["engine", "4-shards"])
def db(request):
    db = (Database() if request.param == 1
          else ShardedDatabase(n_shards=request.param))
    db.execute("CREATE TABLE t (a NUMBER PRIMARY KEY, b NUMBER)")
    for n in ROWS:
        db.execute(f"INSERT INTO t VALUES ({n}, {n % 3})")
    return db


def test_chains_are_long():
    assert CONDITIONS["or"][0].count(" OR ") == TERMS - 1
    assert CONDITIONS["and"][0].count(" AND ") == TERMS - 1
    assert CONDITIONS["in"][0].count(",") == TERMS - 1


@pytest.mark.parametrize("shape", sorted(CONDITIONS))
def test_select(db, shape):
    condition, selected = CONDITIONS[shape]
    rows = db.execute(f"SELECT t.a FROM t WHERE {condition}").rows
    assert sorted(a for (a,) in rows) == selected


@pytest.mark.parametrize("shape", sorted(CONDITIONS))
def test_update(db, shape):
    condition, selected = CONDITIONS[shape]
    result = db.execute(f"UPDATE t SET b = b + 10 WHERE {condition}")
    assert result.rowcount == len(selected)
    rows = db.execute("SELECT t.a FROM t WHERE t.b >= 10").rows
    assert sorted(a for (a,) in rows) == selected


@pytest.mark.parametrize("shape", sorted(CONDITIONS))
def test_delete(db, shape):
    condition, selected = CONDITIONS[shape]
    result = db.execute(f"DELETE FROM t WHERE {condition}")
    assert result.rowcount == len(selected)
    rows = db.execute("SELECT t.a FROM t").rows
    assert sorted(a for (a,) in rows) == [
        n for n in ROWS if n not in selected]


def test_explain_renders_the_whole_chain(db):
    condition, _selected = CONDITIONS["or"]
    plan = db.execute(f"EXPLAIN SELECT t.a FROM t WHERE {condition}")
    assert any(condition in str(cell) for row in plan.rows for cell in row)
