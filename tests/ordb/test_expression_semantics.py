"""Expression corner cases: three-valued logic, negations, coercion."""

from decimal import Decimal

import pytest

from repro.ordb import Database
from repro.ordb.errors import NotSupported


@pytest.fixture
def t(db):
    db.executescript("""
        CREATE TABLE t(s VARCHAR2(20), n NUMBER);
        INSERT INTO t VALUES('alpha', 1);
        INSERT INTO t VALUES('beta', 2);
        INSERT INTO t VALUES(NULL, 3);
        INSERT INTO t VALUES('delta', NULL);
    """)
    return db


class TestNegatedPredicates:
    def test_not_like(self, t):
        rows = t.execute("SELECT t.s FROM t WHERE t.s NOT LIKE 'a%'")
        assert {r[0] for r in rows} == {"beta", "delta"}
        # NULL s is UNKNOWN, excluded from both LIKE and NOT LIKE
        like_count = len(t.execute(
            "SELECT t.s FROM t WHERE t.s LIKE 'a%'").rows)
        assert like_count + len(rows.rows) == 3

    def test_not_between(self, t):
        rows = t.execute(
            "SELECT t.n FROM t WHERE t.n NOT BETWEEN 1 AND 2")
        assert [r[0] for r in rows.rows] == [Decimal(3)]

    def test_not_in_with_null_in_list_matches_nothing(self, t):
        rows = t.execute(
            "SELECT t.n FROM t WHERE t.n NOT IN (1, NULL)")
        # x NOT IN (1, NULL) is never TRUE in three-valued logic
        assert rows.rows == []

    def test_in_with_null_still_finds_members(self, t):
        rows = t.execute("SELECT t.n FROM t WHERE t.n IN (1, NULL)")
        assert [r[0] for r in rows.rows] == [Decimal(1)]

    def test_not_in_subquery_with_nulls(self, t):
        t.executescript("""
            CREATE TABLE u(v NUMBER);
            INSERT INTO u VALUES(1); INSERT INTO u VALUES(NULL);
        """)
        rows = t.execute(
            "SELECT t.n FROM t WHERE t.n NOT IN (SELECT u.v FROM u)")
        assert rows.rows == []


class TestCoercion:
    def test_number_vs_string_comparison(self, t):
        # Oracle-style implicit conversion: '2' compares numerically
        rows = t.execute("SELECT t.s FROM t WHERE t.n = '2'")
        assert rows.rows == [("beta",)]

    def test_concat_with_number(self, t):
        value = t.execute(
            "SELECT t.s || '-' || t.n FROM t WHERE t.s = 'alpha'"
        ).scalar()
        assert value == "alpha-1"

    def test_concat_with_null_is_empty(self, t):
        value = t.execute(
            "SELECT 'x' || t.s FROM t WHERE t.n = 3").scalar()
        assert value == "x"

    def test_arithmetic_with_string_number(self, t):
        value = t.execute(
            "SELECT t.n + '10' FROM t WHERE t.s = 'alpha'").scalar()
        assert value == Decimal(11)

    def test_unary_minus(self, t):
        value = t.execute(
            "SELECT -t.n FROM t WHERE t.s = 'beta'").scalar()
        assert value == Decimal(-2)

    def test_unary_minus_of_null(self, t):
        value = t.execute(
            "SELECT -t.n FROM t WHERE t.s = 'delta'").scalar()
        assert value is None


class TestCaseExpressions:
    def test_branches_in_order(self, t):
        rows = t.execute("""
            SELECT t.s, CASE WHEN t.n = 1 THEN 'one'
                             WHEN t.n < 3 THEN 'small'
                             ELSE 'big' END
            FROM t WHERE t.n IS NOT NULL ORDER BY 1
        """)
        by_name = dict(rows.rows)
        assert by_name[None] == "big"  # s NULL, n=3
        assert by_name["alpha"] == "one"
        assert by_name["beta"] == "small"

    def test_unknown_condition_skips_branch(self, t):
        value = t.execute(
            "SELECT CASE WHEN t.n > 0 THEN 'y' ELSE 'n' END FROM t"
            " WHERE t.s = 'delta'").scalar()
        assert value == "n"  # n NULL -> condition UNKNOWN -> ELSE


class TestBooleanAlgebra:
    @pytest.mark.parametrize("predicate,expected", [
        ("t.n > 1 AND t.s IS NOT NULL", {"beta"}),
        ("t.n > 1 OR t.s = 'alpha'", {"alpha", "beta", None}),
        ("NOT (t.s = 'alpha')", {"beta", "delta"}),
        ("t.n IS NULL AND t.s IS NOT NULL", {"delta"}),
    ])
    def test_filters(self, t, predicate, expected):
        rows = t.execute(f"SELECT t.s FROM t WHERE {predicate}")
        assert {r[0] for r in rows.rows} == expected

    def test_and_short_circuits_unknown(self, t):
        # FALSE AND UNKNOWN is FALSE -> no row, no error either
        rows = t.execute(
            "SELECT t.s FROM t WHERE 1 = 2 AND t.n / 1 > 0")
        assert rows.rows == []

    def test_or_absorbs_unknown(self, t):
        # TRUE OR UNKNOWN is TRUE
        rows = t.execute(
            "SELECT COUNT(*) FROM t WHERE 1 = 1 OR t.n > 99")
        assert rows.scalar() == 4


class TestMod:
    """``MOD`` follows Oracle: the remainder takes the dividend's sign,
    ``MOD(x, 0)`` is ``x``, and the call takes exactly two arguments."""

    @pytest.mark.parametrize("call, expected", [
        ("MOD(11, 4)", 3),
        ("MOD(-11, 4)", -3),
        ("MOD(11, -4)", 3),
        ("MOD(-11, -4)", -3),
        ("MOD(-11.5, 4)", Decimal("-3.5")),
        ("MOD(11.5, -4)", Decimal("3.5")),
        ("MOD(7, 0)", 7),
        ("MOD(-7.5, 0)", Decimal("-7.5")),
        ("MOD(NULL, 0)", None),
        ("MOD(7, NULL)", None),
    ])
    def test_value(self, t, call, expected):
        value = t.execute(f"SELECT {call} FROM t WHERE t.n = 1").scalar()
        assert value == expected
        assert type(value) is type(expected)

    def test_column_divisor_of_zero_returns_the_dividend(self, t):
        rows = t.execute("SELECT t.n, MOD(t.n, t.n - t.n) FROM t"
                         " WHERE t.n IS NOT NULL ORDER BY t.n").rows
        assert rows == [(n, n) for n in (1, 2, 3)]

    @pytest.mark.parametrize("call", ["MOD(7, 2, 3)", "MOD(7)"])
    def test_arity(self, t, call):
        with pytest.raises(NotSupported, match="MOD"):
            t.execute(f"SELECT {call} FROM t WHERE t.n = 1")


class TestLikeCache:
    """The compiled-pattern cache evicts LRU-style, never wholesale."""

    def test_hot_pattern_survives_cache_pressure(self, t):
        from repro.ordb import expressions

        expressions._LIKE_CACHE.clear()
        hot = expressions._like_to_regex("a%")
        # flood with one-shot patterns well past the limit
        for n in range(expressions._LIKE_CACHE_LIMIT + 50):
            expressions._like_to_regex(f"cold-{n}%")
            expressions._like_to_regex("a%")  # keep the hot one warm
        assert len(expressions._LIKE_CACHE) <= \
            expressions._LIKE_CACHE_LIMIT
        assert expressions._like_to_regex("a%") is hot

    def test_eviction_drops_oldest_not_everything(self):
        from repro.ordb import expressions

        expressions._LIKE_CACHE.clear()
        for n in range(expressions._LIKE_CACHE_LIMIT):
            expressions._like_to_regex(f"p{n}%")
        survivor = expressions._like_to_regex(
            f"p{expressions._LIKE_CACHE_LIMIT - 1}%")
        expressions._like_to_regex("straw%")  # one over the limit
        cache = expressions._LIKE_CACHE
        assert len(cache) == expressions._LIKE_CACHE_LIMIT
        assert ("p0%", None) not in cache          # oldest went
        assert cache[(f"p{expressions._LIKE_CACHE_LIMIT - 1}%",
                      None)] is survivor           # the rest stayed

    def test_concurrent_compilation_is_safe(self, t):
        import threading

        from repro.ordb import expressions

        expressions._LIKE_CACHE.clear()
        errors = []

        def hammer(offset):
            try:
                for n in range(400):
                    pattern = f"x{(offset + n) % 600}%"
                    regex = expressions._like_to_regex(pattern)
                    assert regex.fullmatch(f"x{(offset + n) % 600}y")
            except BaseException as error:  # noqa: BLE001 - reported
                errors.append(error)

        threads = [threading.Thread(target=hammer, args=(k * 37,))
                   for k in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30.0)
        assert not errors
        assert len(expressions._LIKE_CACHE) <= \
            expressions._LIKE_CACHE_LIMIT
