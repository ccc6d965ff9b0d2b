"""10 000-term AND / OR chains, IN lists and arithmetic chains:
right rows and values, no RecursionError, on one engine and behind a
sharded router.

The parser builds a left-deep BinaryOp per chain; conjunct splitting,
evaluation and EXPLAIN's rendering unroll it in a loop.
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


@pytest.fixture(params=[1, 2], ids=["engine", "2-shards"])
def numbers(request):
    db = (Database() if request.param == 1
          else ShardedDatabase(n_shards=request.param))
    db.execute("CREATE TABLE n (a NUMBER, b NUMBER, c NUMBER, d NUMBER,"
               " g NUMBER, s VARCHAR2(5))")
    db.execute("INSERT INTO n VALUES (10, 4, 1, 3, 1, 'x')")
    db.execute("INSERT INTO n VALUES (20, 4, 1, 3, 2, 'y')")
    db.execute("INSERT INTO n VALUES (30, 4, 1, 3, 2, 'z')")
    return db


def test_arithmetic_and_concatenation_chains(numbers):
    total = " + ".join(["n.a"] * TERMS)
    text = " || ".join(["n.s"] * TERMS)
    rows = numbers.execute(
        f"SELECT {total}, {text} FROM n WHERE n.a = 10").rows
    assert rows == [(10 * TERMS, "x" * TERMS)]


@pytest.mark.parametrize("expression, value", [
    ("n.a - (n.b - n.c)", 7),
    ("n.a - n.b - n.c", 5),
    ("n.a + n.b * n.c - n.d", 11),
    ("(n.a + n.b) * n.c - n.d", 11),
    ("n.a / (n.b - n.c - n.c)", 5),
])
def test_chains_keep_their_grouping(numbers, expression, value):
    rows = numbers.execute(
        f"SELECT {expression} FROM n WHERE n.a = 10").rows
    assert rows == [(value,)]


def test_chains_over_a_group_read_the_group_values(numbers):
    """``n.g + n.g`` is evaluated on the group's row; the chain above
    it adds the aggregate without reading the row again."""
    rows = numbers.execute(
        "SELECT COUNT(*), n.g * 2 + n.g + COUNT(*) FROM n GROUP BY n.g"
        " HAVING n.g + n.g + COUNT(*) > 3").rows
    assert rows == [(2, 8)]


def test_explain_renders_an_arithmetic_chain(numbers):
    total = " + ".join(["n.a"] * TERMS)
    plan = numbers.execute(f"EXPLAIN SELECT {total} FROM n")
    assert any(total in str(cell) for row in plan.rows for cell in row)


# -- deep chains under grouping and ordering ----------------------------------------------

DEEP = 3_000  # each probe raised RecursionError while this was hashed


def test_chain_grouped_with_its_column(numbers):
    chain = " + ".join(["n.a"] * DEEP)
    rows = numbers.execute(
        f"SELECT n.g, {chain} FROM n GROUP BY n.g, n.a").rows
    assert sorted(rows) == [(1, 10 * DEEP), (2, 20 * DEEP),
                            (2, 30 * DEEP)]


def test_chain_with_an_aggregate_in_having(numbers):
    chain = " + ".join(["n.g"] * DEEP)
    rows = numbers.execute(
        f"SELECT n.g, COUNT(*) FROM n GROUP BY n.g"
        f" HAVING {chain} + COUNT(*) > {DEEP + 1}").rows
    assert rows == [(2, 2)]


@pytest.mark.parametrize("direction, order", [("", [10, 20, 30]),
                                              (" DESC", [30, 20, 10])])
def test_order_by_a_repeated_chain(numbers, direction, order):
    chain = " + ".join(["n.a"] * DEEP)
    rows = numbers.execute(
        f"SELECT n.g, {chain} FROM n ORDER BY {chain}{direction}").rows
    assert [total for _g, total in rows] == [a * DEEP for a in order]
    assert [g for g, _total in rows] == [1 if a == 10 else 2
                                         for a in order]
