"""DML and SELECT evaluation."""

import gc
from decimal import Decimal

import pytest

from repro.ordb import (
    Database,
    InvalidNumber,
    NoSuchColumn,
    NotSupported,
    TypeMismatch,
    ValueTooLarge,
    WrongArgumentCount,
)
from repro.ordb.errors import ParseError


@pytest.fixture
def people(db):
    db.executescript("""
        CREATE TABLE people(
            name VARCHAR2(40), age NUMBER, city VARCHAR2(40));
        INSERT INTO people VALUES('Anna', 34, 'Leipzig');
        INSERT INTO people VALUES('Bernd', 41, 'Halle');
        INSERT INTO people VALUES('Clara', 28, 'Leipzig');
        INSERT INTO people VALUES('Dieter', NULL, NULL);
    """)
    return db


class TestInsert:
    def test_positional_arity_checked(self, people):
        with pytest.raises(WrongArgumentCount):
            people.execute("INSERT INTO people VALUES('x', 1)")

    def test_named_columns(self, people):
        people.execute("INSERT INTO people(name) VALUES('Emil')")
        row = people.execute(
            "SELECT p.age FROM people p WHERE p.name = 'Emil'")
        assert row.scalar() is None

    def test_varchar_length_enforced(self, people):
        with pytest.raises(ValueTooLarge):
            people.execute(
                f"INSERT INTO people VALUES('{'x' * 41}', 1, 'c')")

    def test_number_conversion(self, people):
        people.execute("INSERT INTO people VALUES('F', '55', 'B')")
        value = people.execute(
            "SELECT p.age FROM people p WHERE p.name = 'F'").scalar()
        assert value == Decimal(55)

    def test_bad_number_rejected(self, people):
        with pytest.raises(InvalidNumber):
            people.execute(
                "INSERT INTO people VALUES('G', 'not-a-number', 'B')")

    def test_insert_select(self, people):
        people.execute("CREATE TABLE names(n VARCHAR2(40))")
        people.execute(
            "INSERT INTO names SELECT p.name FROM people p"
            " WHERE p.city = 'Leipzig'")
        assert people.execute(
            "SELECT COUNT(*) FROM names").scalar() == 2


class TestProjection:
    def test_star(self, people):
        result = people.execute("SELECT * FROM people")
        assert result.columns == ["NAME", "AGE", "CITY"]
        assert len(result.rows) == 4

    def test_star_on_empty_table(self, db):
        db.execute("CREATE TABLE t(a INTEGER, b DATE)")
        result = db.execute("SELECT * FROM t")
        assert result.columns == ["A", "B"]
        assert result.rows == []

    def test_expression_columns_named(self, people):
        result = people.execute(
            "SELECT p.name, p.age + 1, UPPER(p.city) AS big FROM"
            " people p")
        assert result.columns == ["NAME", "EXPR2", "BIG"]

    def test_concat_and_arithmetic(self, people):
        result = people.execute(
            "SELECT p.name || '!' , p.age * 2 FROM people p"
            " WHERE p.name = 'Anna'")
        assert result.rows == [("Anna!", Decimal(68))]

    def test_distinct(self, people):
        result = people.execute("SELECT DISTINCT p.city FROM people p")
        assert sorted(str(v) for v, in result.rows) == \
            ["Halle", "Leipzig", "None"]


class TestWhere:
    def test_comparison_operators(self, people):
        assert len(people.execute(
            "SELECT p.name FROM people p WHERE p.age >= 34").rows) == 2
        assert len(people.execute(
            "SELECT p.name FROM people p WHERE p.age <> 34").rows) == 2

    def test_null_never_equal(self, people):
        result = people.execute(
            "SELECT p.name FROM people p WHERE p.city = NULL")
        assert result.rows == []

    def test_is_null(self, people):
        result = people.execute(
            "SELECT p.name FROM people p WHERE p.age IS NULL")
        assert result.rows == [("Dieter",)]

    def test_like(self, people):
        result = people.execute(
            "SELECT p.name FROM people p WHERE p.name LIKE '%er%'")
        assert {r[0] for r in result.rows} == {"Bernd", "Dieter"}

    def test_like_underscore(self, people):
        result = people.execute(
            "SELECT p.name FROM people p WHERE p.name LIKE '_nna'")
        assert result.rows == [("Anna",)]

    def test_between(self, people):
        result = people.execute(
            "SELECT p.name FROM people p WHERE p.age BETWEEN 30 AND 40")
        assert result.rows == [("Anna",)]

    def test_in_list(self, people):
        result = people.execute(
            "SELECT p.name FROM people p WHERE p.city IN"
            " ('Leipzig', 'Dresden')")
        assert len(result.rows) == 2

    def test_in_subquery(self, people):
        people.execute("CREATE TABLE cities(c VARCHAR2(40))")
        people.execute("INSERT INTO cities VALUES('Halle')")
        result = people.execute(
            "SELECT p.name FROM people p WHERE p.city IN"
            " (SELECT c.c FROM cities c)")
        assert result.rows == [("Bernd",)]

    def test_exists_correlated(self, people):
        result = people.execute(
            "SELECT p.name FROM people p WHERE EXISTS ("
            "SELECT 1 FROM people q WHERE q.city = p.city"
            " AND q.name <> p.name)")
        assert {r[0] for r in result.rows} == {"Anna", "Clara"}

    def test_three_valued_not(self, people):
        # NOT (age > 30) is UNKNOWN for Dieter -> excluded
        result = people.execute(
            "SELECT p.name FROM people p WHERE NOT (p.age > 30)")
        assert result.rows == [("Clara",)]

    def test_unknown_column(self, people):
        with pytest.raises(NoSuchColumn):
            people.execute("SELECT p.bogus FROM people p")

    def test_ambiguous_column(self, people):
        with pytest.raises(NoSuchColumn, match="ambiguous"):
            people.execute(
                "SELECT name FROM people a, people b")


class TestJoinsAndSubqueries:
    def test_cartesian_join_with_filter(self, people):
        result = people.execute(
            "SELECT a.name, b.name FROM people a, people b"
            " WHERE a.city = b.city AND a.name < b.name")
        assert result.rows == [("Anna", "Clara")]

    def test_subquery_in_from(self, people):
        result = people.execute(
            "SELECT q.n FROM (SELECT p.name n FROM people p"
            " WHERE p.age > 30) q ORDER BY n")
        assert result.rows == [("Anna",), ("Bernd",)]

    def test_scalar_subquery(self, people):
        result = people.execute(
            "SELECT (SELECT MAX(p.age) FROM people p) FROM people q"
            " WHERE q.name = 'Anna'")
        assert result.scalar() == Decimal(41)

    def test_scalar_subquery_multirow_rejected(self, people):
        with pytest.raises(NotSupported, match="more than one row"):
            people.execute(
                "SELECT (SELECT p.name FROM people p) FROM people q")


class TestAggregates:
    def test_count_star(self, people):
        assert people.execute(
            "SELECT COUNT(*) FROM people").scalar() == 4

    def test_count_column_skips_nulls(self, people):
        assert people.execute(
            "SELECT COUNT(p.age) FROM people p").scalar() == 3

    def test_count_distinct(self, people):
        assert people.execute(
            "SELECT COUNT(DISTINCT p.city) FROM people p").scalar() == 2

    def test_min_max_sum_avg(self, people):
        row = people.execute(
            "SELECT MIN(p.age), MAX(p.age), SUM(p.age), AVG(p.age)"
            " FROM people p").first()
        assert row == (Decimal(28), Decimal(41), Decimal(103),
                       Decimal(103) / Decimal(3))

    def test_aggregates_on_empty_input(self, people):
        row = people.execute(
            "SELECT COUNT(*), MAX(p.age) FROM people p"
            " WHERE p.name = 'ZZZ'").first()
        assert row == (0, None)

    def test_group_by_having(self, people):
        result = people.execute(
            "SELECT p.city, COUNT(*) c FROM people p"
            " WHERE p.city IS NOT NULL"
            " GROUP BY p.city HAVING COUNT(*) > 1")
        assert result.rows == [("Leipzig", 2)]

    def test_having_reads_an_inner_and_of_row_values(self, people):
        """``(p.age >= 0 AND p.age < 200)`` is read from each group's
        first row, so the AND chain must reach it whole, not split."""
        result = people.execute(
            "SELECT p.city, COUNT(*) c FROM people p"
            " WHERE p.city IS NOT NULL GROUP BY p.city"
            " HAVING COUNT(*) > 1 AND (p.age >= 0 AND p.age < 200)")
        assert result.rows == [("Leipzig", 2)]

    def test_expression_over_aggregate(self, people):
        assert people.execute(
            "SELECT COUNT(*) * 10 FROM people").scalar() == 40


class TestOrdering:
    def test_order_by_column(self, people):
        result = people.execute(
            "SELECT p.name FROM people p ORDER BY name")
        assert [r[0] for r in result.rows] == \
            ["Anna", "Bernd", "Clara", "Dieter"]

    def test_order_desc_nulls_first(self, people):
        # Oracle defaults: NULLS LAST ascending, NULLS FIRST descending
        result = people.execute(
            "SELECT p.age FROM people p ORDER BY age DESC")
        assert [r[0] for r in result.rows] == \
            [None, Decimal(41), Decimal(34), Decimal(28)]

    def test_nulls_last_ascending(self, people):
        result = people.execute(
            "SELECT p.age FROM people p ORDER BY age")
        assert result.rows[-1] == (None,)

    def test_order_by_position(self, people):
        result = people.execute(
            "SELECT p.name, p.age FROM people p ORDER BY 2 DESC")
        # Dieter's NULL age sorts first on DESC (Oracle default)
        assert result.rows[0][0] == "Dieter"
        assert result.rows[1][0] == "Bernd"

    def test_order_by_alias(self, people):
        result = people.execute(
            "SELECT p.age x FROM people p ORDER BY x")
        assert result.rows[0] == (Decimal(28),)


class TestFetchFirst:
    def test_limits_plain_select(self, people):
        result = people.execute(
            "SELECT p.name FROM people p FETCH FIRST 2 ROWS ONLY")
        assert len(result.rows) == 2

    def test_slices_after_order_by(self, people):
        result = people.execute(
            "SELECT p.name FROM people p ORDER BY name"
            " FETCH FIRST 2 ROWS ONLY")
        assert [r[0] for r in result.rows] == ["Anna", "Bernd"]

    def test_count_star_sees_every_row(self, people):
        # the limit must not truncate the enumeration feeding an
        # ungrouped aggregate — only the (single) output row
        assert people.execute(
            "SELECT COUNT(*) FROM people"
            " FETCH FIRST 1 ROWS ONLY").scalar() == 4

    def test_sum_sees_every_row(self, people):
        assert people.execute(
            "SELECT SUM(p.age) FROM people p"
            " FETCH FIRST 2 ROWS ONLY").scalar() == Decimal(103)

    def test_grouped_output_is_limited(self, people):
        result = people.execute(
            "SELECT p.city, COUNT(*) FROM people p"
            " WHERE p.city IS NOT NULL GROUP BY p.city"
            " ORDER BY 2 DESC FETCH FIRST 1 ROW ONLY")
        assert result.rows == [("Leipzig", 2)]

    def test_non_integral_count_rejected(self, people):
        with pytest.raises(ParseError, match="integer"):
            people.execute(
                "SELECT p.name FROM people p"
                " FETCH FIRST 2.5 ROWS ONLY")


class TestUpdateDelete:
    def test_update_with_where(self, people):
        result = people.execute(
            "UPDATE people SET city = 'Jena' WHERE name = 'Anna'")
        assert result.rowcount == 1
        assert people.execute(
            "SELECT p.city FROM people p WHERE p.name = 'Anna'"
        ).scalar() == "Jena"

    def test_update_expression_uses_old_row(self, people):
        people.execute("UPDATE people SET age = age + 1"
                       " WHERE age IS NOT NULL")
        assert people.execute(
            "SELECT SUM(p.age) FROM people p").scalar() == Decimal(106)

    def test_update_all_rows(self, people):
        result = people.execute("UPDATE people SET city = 'X'")
        assert result.rowcount == 4

    def test_delete_with_where(self, people):
        result = people.execute(
            "DELETE FROM people WHERE city = 'Leipzig'")
        assert result.rowcount == 2
        assert people.execute(
            "SELECT COUNT(*) FROM people").scalar() == 2

    def test_delete_all(self, people):
        people.execute("DELETE FROM people")
        assert people.execute(
            "SELECT COUNT(*) FROM people").scalar() == 0


class TestScalarFunctions:
    @pytest.mark.parametrize("expression,expected", [
        ("UPPER('ab')", "AB"),
        ("LOWER('AB')", "ab"),
        ("LENGTH('hello')", 5),
        ("SUBSTR('hello', 2)", "ello"),
        ("SUBSTR('hello', 2, 3)", "ell"),
        ("NVL(NULL, 'x')", "x"),
        ("NVL('a', 'x')", "a"),
        ("COALESCE(NULL, NULL, 7)", 7),
        ("TRIM('  pad  ')", "pad"),
        ("CONCAT('a', 'b')", "ab"),
        ("ABS(-3)", 3),
        ("MOD(7, 3)", 1),
        ("ROUND(2.567, 2)", Decimal("2.57")),
        ("TO_CHAR(42)", "42"),
        ("TO_NUMBER('42')", Decimal(42)),
        ("CASE WHEN 1 = 1 THEN 'y' ELSE 'n' END", "y"),
        ("CASE WHEN 1 = 2 THEN 'y' END", None),
        ("CAST('7' AS INTEGER)", 7),
    ])
    def test_functions(self, db, expression, expected):
        db.execute("CREATE TABLE one(x INTEGER)")
        db.execute("INSERT INTO one VALUES(1)")
        assert db.execute(
            f"SELECT {expression} FROM one").scalar() == expected

    def test_unknown_function(self, db):
        db.execute("CREATE TABLE one(x INTEGER)")
        db.execute("INSERT INTO one VALUES(1)")
        with pytest.raises(NotSupported, match="unknown function"):
            db.execute("SELECT FROBNICATE(x) FROM one")

    def test_division_by_zero(self, db):
        db.execute("CREATE TABLE one(x INTEGER)")
        db.execute("INSERT INTO one VALUES(1)")
        with pytest.raises(TypeMismatch, match="division"):
            db.execute("SELECT 1 / 0 FROM one")


def test_stats_counters():
    db = Database()
    db.execute("CREATE TABLE t(a INTEGER)")
    db.execute("INSERT INTO t VALUES(1)")
    db.execute("INSERT INTO t VALUES(2)")
    db.execute("SELECT * FROM t")
    db.execute("SELECT * FROM t x, t y")
    assert db.stats["inserts"] == 2
    assert db.stats["rows_inserted"] == 2
    assert db.stats["selects"] == 2
    assert db.stats["joins"] == 1
    assert db.stats["rows_scanned"] >= 8
    db.reset_stats()
    assert db.stats["inserts"] == 0


@pytest.mark.parametrize("sql", [
    "SELECT p.city, COUNT(*) FROM people p GROUP BY p.city",
    "SELECT p.name FROM people p WHERE p.age > 30",
    "SELECT a.name FROM people a, people b WHERE a.city = b.city",
    "SELECT p.name FROM people p WHERE p.age IN"
    " (SELECT q.age FROM people q WHERE q.city = 'Halle')",
    "SELECT p.nope FROM people p",
])
def test_select_leaves_no_reference_cycles(people, sql):
    """A SELECT's row environments are freed as soon as it returns (or
    fails), not left for the cyclic collector to find."""
    gc.collect()
    gc.disable()
    try:
        try:
            people.execute(sql)
        except NoSuchColumn:
            pass
        assert gc.collect() == 0
    finally:
        gc.enable()
