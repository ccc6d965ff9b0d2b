"""The index & cache layer: automatic hash indexes, index-selection,
statement/view caches, and the hot-path correctness fixes that ride
along (LIKE ESCAPE, ObjectValue hashing, ORDER BY expressions)."""

import datetime
import random
from decimal import Decimal

import pytest

from repro.ordb import (
    Database,
    NameInUse,
    NoSuchColumn,
    NoSuchType,
    NotSupported,
    TypeMismatch,
    UniqueViolation,
)
from repro.ordb.errors import TransientEngineFault
from repro.ordb.indexes import (
    HashIndex,
    IndexSet,
    SortedIndex,
    build_auto_indexes,
    canonical_key,
    find_probe,
)
from repro.ordb.sql import ast
from repro.ordb.values import CollectionValue, ObjectValue, content_key


def verify_all(db: Database) -> None:
    """Assert every table's indexes mirror its stored rows exactly."""
    for table in db.catalog.tables.values():
        problems = table.indexes.verify(table.data.rows)
        assert problems == [], problems


@pytest.fixture
def people(db):
    db.executescript("""
        CREATE TABLE people(
            id NUMBER PRIMARY KEY,
            email VARCHAR2(80) UNIQUE,
            name VARCHAR2(80));
        INSERT INTO people VALUES (1, 'ada@x.org', 'Ada');
        INSERT INTO people VALUES (2, 'bob@x.org', 'Bob');
        INSERT INTO people VALUES (3, 'cyd@x.org', 'Cyd');
    """)
    return db


class TestAutoIndexes:
    def test_pk_and_unique_get_indexes(self, people):
        table = people.catalog.table("people")
        names = sorted(index.name for index in table.indexes)
        assert names == ["PEOPLE_PK", "PEOPLE_UN1"]
        assert all(index.unique for index in table.indexes)
        verify_all(people)

    def test_scoped_ref_gets_index(self, db):
        db.executescript("""
            CREATE TYPE t_dept AS OBJECT(dname VARCHAR2(30));
            CREATE TABLE depts OF t_dept (dname PRIMARY KEY);
            CREATE TYPE t_emp AS OBJECT(ename VARCHAR2(30),
                                        dept REF t_dept);
            CREATE TABLE emps OF t_emp (
                ename PRIMARY KEY, SCOPE FOR (dept) IS depts);
        """)
        table = db.catalog.table("emps")
        names = sorted(index.name for index in table.indexes)
        assert names == ["EMPS_DEPT_REF", "EMPS_PK"]
        ref_index = table.indexes.covering(("DEPT",))
        assert ref_index is not None and not ref_index.unique

    def test_duplicate_column_sets_collapse(self, db):
        db.execute("CREATE TABLE t(a NUMBER PRIMARY KEY, UNIQUE(a))")
        table = db.catalog.table("t")
        assert [index.name for index in table.indexes] == ["T_PK"]


class TestPointLookup:
    def test_pk_lookup_is_o1_scans(self, people):
        people.reset_stats()
        result = people.execute(
            "SELECT p.name FROM people p WHERE p.id = 2")
        assert result.rows == [("Bob",)]
        assert people.stats["rows_scanned"] == 1
        assert people.stats["index_lookups"] == 1

    def test_numeric_string_probe_hits_same_bucket(self, people):
        # engine '=' converts numeric strings; the probe must too
        result = people.execute(
            "SELECT p.name FROM people p WHERE p.id = '2'")
        assert result.rows == [("Bob",)]

    def test_null_probe_matches_nothing(self, people):
        result = people.execute(
            "SELECT p.name FROM people p WHERE p.id = NULL")
        assert result.rows == []

    def test_non_unique_ref_index_lookup(self, db):
        db.executescript("""
            CREATE TYPE t_dept AS OBJECT(dname VARCHAR2(30));
            CREATE TABLE depts OF t_dept (dname PRIMARY KEY);
            CREATE TYPE t_emp AS OBJECT(ename VARCHAR2(30),
                                        dept REF t_dept);
            CREATE TABLE emps OF t_emp (
                ename PRIMARY KEY, SCOPE FOR (dept) IS depts);
            INSERT INTO depts VALUES (t_dept('cs'));
            INSERT INTO depts VALUES (t_dept('math'));
            INSERT INTO emps VALUES (t_emp('ada',
                (SELECT REF(d) FROM depts d WHERE d.dname = 'cs')));
            INSERT INTO emps VALUES (t_emp('bob',
                (SELECT REF(d) FROM depts d WHERE d.dname = 'math')));
        """)
        db.executescript("""
            INSERT INTO emps VALUES (t_emp('cyd',
                (SELECT REF(d) FROM depts d WHERE d.dname = 'cs')));
        """)
        db.reset_stats()
        result = db.execute(
            "SELECT e2.ename FROM emps e1, emps e2"
            " WHERE e1.ename = 'ada' AND e2.dept = e1.dept")
        assert sorted(result.rows) == [("ada",), ("cyd",)]
        # PK probe for e1 plus a REF-index probe for e2
        assert db.stats["index_lookups"] >= 2

    def test_disabled_indexes_fall_back_to_scan(self, people):
        people.enable_indexes = False
        people.reset_stats()
        result = people.execute(
            "SELECT p.name FROM people p WHERE p.id = 2")
        assert result.rows == [("Bob",)]
        assert people.stats["index_lookups"] == 0
        assert people.stats["rows_scanned"] == 3

    def test_results_match_scan_path(self, people):
        for sql in (
            "SELECT p.name FROM people p WHERE p.id = 2",
            "SELECT p.name FROM people p WHERE p.email = 'cyd@x.org'",
            "SELECT p.name FROM people p WHERE p.id = 9",
            "SELECT a.name, b.name FROM people a, people b"
            " WHERE a.id = 1 AND b.id = a.id + 1",
        ):
            indexed = people.execute(sql).rows
            people.enable_indexes = False
            assert people.execute(sql).rows == indexed
            people.enable_indexes = True


class TestIndexMaintenance:
    def test_update_moves_row_between_buckets(self, people):
        people.execute("UPDATE people p SET id = 10 WHERE p.id = 1")
        verify_all(people)
        assert people.execute(
            "SELECT p.name FROM people p WHERE p.id = 10"
        ).rows == [("Ada",)]
        assert people.execute(
            "SELECT p.name FROM people p WHERE p.id = 1").rows == []

    def test_delete_removes_index_entries(self, people):
        people.execute("DELETE FROM people WHERE id = 2")
        verify_all(people)
        assert people.execute(
            "SELECT p.name FROM people p WHERE p.id = 2").rows == []

    def test_rollback_restores_indexes(self, people):
        people.executescript("""
            BEGIN;
            INSERT INTO people VALUES (4, 'dee@x.org', 'Dee');
            UPDATE people p SET id = 20 WHERE p.id = 2;
            DELETE FROM people WHERE id = 3;
            ROLLBACK;
        """)
        verify_all(people)
        assert people.execute(
            "SELECT p.name FROM people p WHERE p.id = 2"
        ).rows == [("Bob",)]
        assert people.execute(
            "SELECT COUNT(*) FROM people").scalar() == 3

    def test_savepoint_rollback_restores_indexes(self, people):
        people.executescript("""
            BEGIN;
            UPDATE people p SET id = 100 WHERE p.id = 1;
            SAVEPOINT s1;
            DELETE FROM people;
            ROLLBACK TO s1;
        """)
        verify_all(people)
        assert people.execute(
            "SELECT p.name FROM people p WHERE p.id = 100"
        ).rows == [("Ada",)]
        people.execute("COMMIT")
        verify_all(people)

    def test_failed_statement_leaves_indexes_consistent(self, people):
        with pytest.raises(UniqueViolation):
            # second row collides on the PK: the whole INSERT..SELECT
            # must undo, including index entries for the first row
            people.execute(
                "INSERT INTO people"
                " SELECT p.id + 2, p.email || '!', p.name"
                " FROM people p")
        verify_all(people)
        assert people.execute(
            "SELECT COUNT(*) FROM people").scalar() == 3

    def test_injected_storage_fault_keeps_indexes_consistent(self, db):
        db.execute("CREATE TABLE t(a NUMBER PRIMARY KEY)")
        db.execute("INSERT INTO t VALUES (1)")
        db.execute("INSERT INTO t VALUES (2)")
        # the 2nd row of the INSERT..SELECT crashes; the 1st row and
        # its index entries must be rolled back with the statement
        db.faults.arm(site="storage", at=2)
        with pytest.raises(TransientEngineFault):
            db.execute("INSERT INTO t SELECT t.a + 10 FROM t")
        db.faults.clear()
        verify_all(db)
        assert db.execute("SELECT COUNT(*) FROM t").scalar() == 2

    def test_exhaustive_storage_fault_sweep(self, people):
        """Crash at every storage boundary of a mixed workload; the
        indexes must match the rows after each recovery."""
        workload = [
            "INSERT INTO people VALUES (7, 'eve@x.org', 'Eve')",
            "UPDATE people p SET id = p.id + 50 WHERE p.id <= 2",
            "DELETE FROM people WHERE id > 50",
        ]
        from repro.ordb.errors import OrdbError

        for boundary in range(1, 8):
            people.faults.clear()
            people.faults.arm(site="storage", at=boundary)
            for sql in workload:
                try:
                    people.execute(sql)
                except (TransientEngineFault, OrdbError):
                    # crashes and (on later sweeps) constraint
                    # violations both must leave indexes consistent
                    pass
                verify_all(people)
        people.faults.clear()

    def test_unhashable_key_goes_to_overflow(self, db):
        db.execute("CREATE TABLE t(a NUMBER PRIMARY KEY)")
        db.execute("INSERT INTO t VALUES (1)")
        table = db.catalog.table("t")
        # smuggle an unhashable (signaling NaN) key past SQL via a
        # direct insert; quiet NaN hashes fine on modern Python
        index = table.indexes.covering(("A",))
        from repro.ordb.storage import Row
        weird = Row({"A": Decimal("sNaN")})
        table.data.insert(weird)
        table.indexes.add_row(weird)
        assert index.overflow == [weird]
        verify_all(db)
        # probes still see overflow rows as candidates
        assert len(index.lookup((1,))) == 2


class TestUniqueCheckFastPath:
    def test_duplicate_pk_detected_via_index(self, people):
        people.reset_stats()
        with pytest.raises(UniqueViolation):
            people.execute(
                "INSERT INTO people VALUES (2, 'x@x.org', 'X')")
        assert people.stats["index_unique_checks"] >= 1

    def test_canonically_equal_strings_do_not_collide(self, db):
        # '1' and '1.0' land in the same canonical bucket but are not
        # tuple-equal; the bucket is re-verified, so both may coexist
        db.execute("CREATE TABLE t(s VARCHAR2(10) UNIQUE)")
        db.execute("INSERT INTO t VALUES ('1')")
        db.execute("INSERT INTO t VALUES ('1.0')")
        assert db.execute("SELECT COUNT(*) FROM t").scalar() == 2
        with pytest.raises(UniqueViolation):
            db.execute("INSERT INTO t VALUES ('1')")

    def test_unique_email_still_enforced(self, people):
        with pytest.raises(UniqueViolation):
            people.execute(
                "INSERT INTO people VALUES (9, 'ada@x.org', 'Imp')")


class TestStatementCache:
    def test_repeated_sql_hits_cache(self, people):
        people.reset_stats()
        for _ in range(3):
            people.execute("SELECT p.name FROM people p WHERE p.id = 1")
        assert people.stats["stmt_cache_misses"] == 1
        assert people.stats["stmt_cache_hits"] == 2

    def test_cache_respects_capacity(self, db):
        db.execute("CREATE TABLE t(a NUMBER)")
        for n in range(db.STATEMENT_CACHE_SIZE + 10):
            db.execute(f"INSERT INTO t VALUES ({n})")
        assert len(db._statement_cache) <= db.STATEMENT_CACHE_SIZE

    def test_parse_faults_fire_on_cached_statements(self, db):
        db.execute("CREATE TABLE t(a NUMBER)")
        db.execute("INSERT INTO t VALUES (1)")
        db.faults.arm(site="parse", at=1)
        with pytest.raises(TransientEngineFault):
            db.execute("INSERT INTO t VALUES (1)")
        db.faults.clear()

    def test_cached_statement_reexecutes_correctly(self, db):
        db.execute("CREATE TABLE t(a NUMBER)")
        for _ in range(3):
            db.execute("INSERT INTO t VALUES (1)")
        assert db.execute("SELECT COUNT(*) FROM t").scalar() == 3


class TestViewCache:
    def test_view_reuse_within_join_hits_cache(self, people):
        people.execute(
            "CREATE VIEW names AS SELECT people.name FROM people")
        people.reset_stats()
        people.execute(
            "SELECT a.name FROM people a, names n"
            " WHERE a.name = n.name")
        assert people.stats["view_cache_misses"] == 1
        assert people.stats["view_cache_hits"] >= 1

    def test_dml_invalidates_view_cache(self, people):
        people.execute(
            "CREATE VIEW names AS SELECT people.name FROM people")
        assert people.execute(
            "SELECT COUNT(*) FROM names").scalar() == 3
        people.execute("DELETE FROM people WHERE id = 1")
        assert people.execute(
            "SELECT COUNT(*) FROM names").scalar() == 2

    def test_rollback_invalidates_view_cache(self, people):
        people.execute(
            "CREATE VIEW names AS SELECT people.name FROM people")
        people.executescript("""
            BEGIN;
            DELETE FROM people WHERE id = 1;
        """)
        assert people.execute(
            "SELECT COUNT(*) FROM names").scalar() == 2
        people.execute("ROLLBACK")
        assert people.execute(
            "SELECT COUNT(*) FROM names").scalar() == 3

    def test_view_redefinition_invalidates(self, people):
        people.execute(
            "CREATE VIEW v AS SELECT people.name FROM people")
        assert people.execute("SELECT COUNT(*) FROM v").scalar() == 3
        people.execute(
            "CREATE OR REPLACE VIEW v AS"
            " SELECT people.name FROM people WHERE people.id = 1")
        assert people.execute("SELECT COUNT(*) FROM v").scalar() == 1


class TestCanonicalKeys:
    def test_engine_equal_values_share_buckets(self):
        assert canonical_key("1.0") == canonical_key(1)
        assert canonical_key(Decimal("2")) == canonical_key(2.0)
        assert canonical_key(datetime.date(2002, 3, 1)) \
            == canonical_key("2002-03-01")
        assert canonical_key("abc") == "abc"
        assert canonical_key(None) == canonical_key(None)

    def test_find_probe_prefers_unique_index(self, people):
        from repro.ordb.sql.parser import parse_statement

        table = people.catalog.table("people")
        statement = parse_statement(
            "SELECT p.name FROM people p"
            " WHERE p.id = 1 AND p.email = 'ada@x.org'")
        per_level, _residual = people._plan_predicates(statement)
        probe = find_probe(table, "P", per_level[0])
        assert probe is not None
        assert probe.index.name == "PEOPLE_PK"
        assert probe.operation == "INDEX UNIQUE LOOKUP"

    def test_probe_refuses_self_referencing_value(self, people):
        from repro.ordb.sql.parser import parse_statement

        table = people.catalog.table("people")
        statement = parse_statement(
            "SELECT p.name FROM people p WHERE p.id = p.id")
        per_level, _residual = people._plan_predicates(statement)
        assert find_probe(table, "P", per_level[0]) is None


class TestLikeEscape:
    @pytest.fixture
    def names(self, db):
        db.executescript("""
            CREATE TABLE t(s VARCHAR2(40));
            INSERT INTO t VALUES ('100%');
            INSERT INTO t VALUES ('100x');
            INSERT INTO t VALUES ('a_b');
            INSERT INTO t VALUES ('axb');
        """)
        return db

    def test_escaped_percent_is_literal(self, names):
        rows = names.execute(
            "SELECT t.s FROM t WHERE t.s LIKE '100!%' ESCAPE '!'").rows
        assert rows == [("100%",)]

    def test_escaped_underscore_is_literal(self, names):
        rows = names.execute(
            "SELECT t.s FROM t WHERE t.s LIKE 'a\\_b' ESCAPE '\\'").rows
        assert rows == [("a_b",)]

    def test_unescaped_still_wild(self, names):
        rows = names.execute(
            "SELECT t.s FROM t WHERE t.s LIKE '100_' ESCAPE '!'").rows
        assert rows == [("100%",), ("100x",)]

    def test_escape_of_itself(self, names):
        names.execute("INSERT INTO t VALUES ('!bang')")
        rows = names.execute(
            "SELECT t.s FROM t WHERE t.s LIKE '!!bang' ESCAPE '!'").rows
        assert rows == [("!bang",)]

    def test_null_escape_is_null(self, names):
        rows = names.execute(
            "SELECT t.s FROM t WHERE t.s LIKE '1%' ESCAPE NULL").rows
        assert rows == []

    def test_multichar_escape_rejected(self, names):
        with pytest.raises(TypeMismatch, match="ORA-01425"):
            names.execute(
                "SELECT t.s FROM t WHERE t.s LIKE '1%' ESCAPE '!!'")

    def test_dangling_escape_rejected(self, names):
        with pytest.raises(TypeMismatch, match="ORA-01424"):
            names.execute(
                "SELECT t.s FROM t WHERE t.s LIKE '1!x' ESCAPE '!'")

    def test_pattern_cache_reuse(self, names):
        from repro.ordb.expressions import _LIKE_CACHE, _like_to_regex

        _LIKE_CACHE.clear()
        first = _like_to_regex("100!%%", "!")
        again = _like_to_regex("100!%%", "!")
        assert first is again
        assert len(_LIKE_CACHE) == 1


class TestObjectValueHashing:
    def test_equal_objects_hash_equal(self):
        a = ObjectValue("T", {"A": 1, "B": "x"})
        b = ObjectValue("t", {"B": "x", "A": 1})
        assert a == b
        assert hash(a) == hash(b)

    def test_different_values_usually_differ(self):
        a = ObjectValue("T", {"A": 1})
        b = ObjectValue("T", {"A": 2})
        assert a != b
        # the seed bug: these hashed equal (type + keys only), making
        # every dedup bucket quadratic
        assert content_key(a) != content_key(b)

    def test_nested_collections_hash_by_content(self):
        a = ObjectValue("T", {"A": CollectionValue("C", [1, 2])})
        b = ObjectValue("T", {"A": CollectionValue("C", [1, 2])})
        assert a == b
        assert hash(a) == hash(b)

    def test_set_dedup_works(self):
        values = {ObjectValue("T", {"A": n % 2}) for n in range(10)}
        assert len(values) == 2


class TestOrderByExpressions:
    @pytest.fixture
    def scored(self, db):
        db.executescript("""
            CREATE TABLE scored(name VARCHAR2(10), pts NUMBER);
            INSERT INTO scored VALUES ('a', 5);
            INSERT INTO scored VALUES ('b', 30);
            INSERT INTO scored VALUES ('c', 20);
        """)
        return db

    def test_order_by_arithmetic_expression(self, scored):
        rows = scored.execute(
            "SELECT s.name FROM scored s ORDER BY 0 - s.pts").rows
        assert rows == [("b",), ("c",), ("a",)]

    def test_order_by_unselected_column(self, scored):
        rows = scored.execute(
            "SELECT s.name FROM scored s ORDER BY s.pts DESC").rows
        assert rows == [("b",), ("c",), ("a",)]

    def test_order_by_output_column_still_works(self, scored):
        rows = scored.execute(
            "SELECT s.name, s.pts FROM scored s ORDER BY pts").rows
        assert rows == [("a", 5), ("c", 20), ("b", 30)]

    def test_distinct_rejects_non_output_expression(self, scored):
        with pytest.raises(NotSupported):
            scored.execute("SELECT DISTINCT s.name FROM scored s"
                           " ORDER BY s.pts")


class TestCreateIndexDdl:
    def test_create_index_backfills_existing_rows(self, people):
        people.execute("CREATE INDEX people_name ON people (name)")
        table = people.catalog.table("people")
        index = next(i for i in table.indexes
                     if i.name == "PEOPLE_NAME")
        assert isinstance(index, SortedIndex)
        assert index.user_created and not index.unique
        assert index.entry_count() == 3
        verify_all(people)

    def test_created_index_serves_equality_probes(self, people):
        people.execute("CREATE INDEX people_name ON people (name)")
        people.reset_stats()
        rows = people.execute(
            "SELECT p.id FROM people p WHERE p.name = 'Bob'").rows
        assert rows == [(2,)]
        assert people.stats["index_lookups"] == 1
        assert people.stats["rows_scanned"] == 1

    def test_unique_index_not_supported(self, people):
        with pytest.raises(NotSupported):
            people.execute(
                "CREATE UNIQUE INDEX ux ON people (name)")

    def test_duplicate_index_name_rejected(self, people):
        people.execute("CREATE INDEX idx1 ON people (name)")
        with pytest.raises(NameInUse):
            people.execute("CREATE INDEX idx1 ON people (email)")
        # clashing with an automatic constraint index also fails
        with pytest.raises(NameInUse):
            people.execute("CREATE INDEX people_pk ON people (name)")
        # and with any catalog object
        with pytest.raises(NameInUse):
            people.execute("CREATE INDEX people ON people (name)")

    def test_drop_index(self, people):
        people.execute("CREATE INDEX people_name ON people (name)")
        people.execute("DROP INDEX people_name")
        table = people.catalog.table("people")
        assert all(index.name != "PEOPLE_NAME"
                   for index in table.indexes)
        verify_all(people)
        with pytest.raises(NoSuchType):
            people.execute("DROP INDEX people_name")

    def test_auto_indexes_cannot_be_dropped(self, people):
        with pytest.raises(NotSupported):
            people.execute("DROP INDEX people_pk")

    def test_unknown_column_rejected(self, people):
        with pytest.raises(NoSuchColumn):
            people.execute("CREATE INDEX bad ON people (shoe_size)")

    def test_dotted_path_index(self, db):
        db.executescript("""
            CREATE TYPE pt AS OBJECT(x NUMBER, y NUMBER);
            CREATE TABLE shapes(sname VARCHAR2(10), p pt);
            INSERT INTO shapes VALUES ('a', pt(1, 9));
            INSERT INTO shapes VALUES ('b', pt(5, 9));
            INSERT INTO shapes VALUES ('c', pt(8, 9));
        """)
        db.execute("CREATE INDEX shapes_x ON shapes (p.x)")
        db.reset_stats()
        rows = db.execute(
            "SELECT s.sname FROM shapes s WHERE s.p.x > 4").rows
        assert sorted(rows) == [("b",), ("c",)]
        assert db.stats["range_index_lookups"] == 1
        verify_all(db)

    def test_index_through_ref_rejected(self, db):
        db.executescript("""
            CREATE TYPE t_dept AS OBJECT(dname VARCHAR2(30));
            CREATE TABLE depts OF t_dept (dname PRIMARY KEY);
            CREATE TYPE t_emp AS OBJECT(ename VARCHAR2(30),
                                        dept REF t_dept);
            CREATE TABLE emps OF t_emp (ename PRIMARY KEY);
        """)
        with pytest.raises(NotSupported):
            db.execute("CREATE INDEX deep ON emps (dept.dname)")

    def test_analyze_collects_stats(self, people):
        people.execute("ANALYZE TABLE people")
        stats = people.catalog.table("people").stats
        assert stats.row_count == 3
        assert stats.columns["ID"].ndv == 3
        assert stats.columns["ID"].low == 1
        assert stats.columns["ID"].high == 3
        assert stats.columns["NAME"].nulls == 0

    def test_index_and_stats_survive_recovery(self, tmp_path):
        path = tmp_path / "idx.db"
        db = Database(path=path)
        db.executescript("""
            CREATE TABLE nums(k NUMBER PRIMARY KEY, v NUMBER);
            INSERT INTO nums VALUES (1, 10);
            INSERT INTO nums VALUES (2, 20);
        """)
        db.execute("CREATE INDEX nums_v ON nums (v)")
        db.execute("ANALYZE TABLE nums")
        db.execute("INSERT INTO nums VALUES (3, 30)")
        db.close()

        recovered = Database(path=path)
        table = recovered.catalog.table("nums")
        index = next(i for i in table.indexes if i.name == "NUMS_V")
        assert isinstance(index, SortedIndex)
        assert index.entry_count() == 3
        # the ANALYZE was replayed too: stats reflect its moment
        assert table.stats is not None
        assert table.stats.row_count == 2
        recovered.reset_stats()
        rows = recovered.execute(
            "SELECT n.k FROM nums n WHERE n.v >= 20").rows
        assert sorted(rows) == [(2,), (3,)]
        assert recovered.stats["range_index_lookups"] == 1
        recovered.close()

    def test_index_and_stats_survive_checkpoint(self, tmp_path):
        path = tmp_path / "ckpt.db"
        db = Database(path=path)
        db.executescript("""
            CREATE TABLE nums(k NUMBER PRIMARY KEY, v NUMBER);
            INSERT INTO nums VALUES (1, 10);
            INSERT INTO nums VALUES (2, 20);
        """)
        db.execute("CREATE INDEX nums_v ON nums (v)")
        db.execute("ANALYZE TABLE nums")
        db.checkpoint()
        db.close()

        recovered = Database(path=path)
        table = recovered.catalog.table("nums")
        assert any(isinstance(index, SortedIndex)
                   for index in table.indexes)
        assert table.stats is not None
        assert table.stats.columns["V"].low == 10
        recovered.close()


@pytest.fixture
def ranged(db):
    db.executescript(
        "CREATE TABLE nums(k NUMBER PRIMARY KEY, v NUMBER);"
        + "".join(f"INSERT INTO nums VALUES ({n}, {n * 10});"
                  for n in range(1, 21)))
    db.execute("CREATE INDEX nums_v ON nums (v)")
    return db


class TestRangeProbes:
    def test_range_predicate_probes_sorted_index(self, ranged):
        ranged.reset_stats()
        rows = ranged.execute(
            "SELECT n.k FROM nums n WHERE n.v > 170").rows
        assert sorted(rows) == [(18,), (19,), (20,)]
        assert ranged.stats["range_index_lookups"] == 1
        # only the directory slice was visited, not all 20 rows
        assert ranged.stats["rows_scanned"] == 3

    def test_between_uses_both_bounds(self, ranged):
        ranged.reset_stats()
        rows = ranged.execute(
            "SELECT n.k FROM nums n"
            " WHERE n.v BETWEEN 40 AND 60").rows
        assert sorted(rows) == [(4,), (5,), (6,)]
        assert ranged.stats["rows_scanned"] == 3

    def test_two_one_sided_bounds_combine(self, ranged):
        ranged.reset_stats()
        rows = ranged.execute(
            "SELECT n.k FROM nums n"
            " WHERE n.v >= 40 AND n.v < 70").rows
        assert sorted(rows) == [(4,), (5,), (6,)]
        assert ranged.stats["rows_scanned"] == 3

    def test_explain_shows_costed_range_scan(self, ranged):
        ranged.execute("ANALYZE TABLE nums")
        plan = ranged.explain(
            "SELECT n.k FROM nums n"
            " WHERE n.v BETWEEN 40 AND 60").render()
        assert "RANGE INDEX SCAN nums" in plan
        assert "NUMS_V" in plan
        assert "cost=" in plan

    def test_prefix_like_probes_index(self, db):
        db.executescript("""
            CREATE TABLE words(w VARCHAR2(20));
            INSERT INTO words VALUES ('apple');
            INSERT INTO words VALUES ('apricot');
            INSERT INTO words VALUES ('banana');
            INSERT INTO words VALUES ('cherry');
        """)
        db.execute("CREATE INDEX words_w ON words (w)")
        db.reset_stats()
        rows = db.execute(
            "SELECT t.w FROM words t WHERE t.w LIKE 'ap%'").rows
        assert sorted(rows) == [("apple",), ("apricot",)]
        assert db.stats["range_index_lookups"] == 1
        assert db.stats["rows_scanned"] == 2

    def test_runtime_bound_from_outer_row(self, ranged):
        ranged.reset_stats()
        rows = ranged.execute(
            "SELECT b.k FROM nums a, nums b"
            " WHERE a.k = 19 AND b.v > a.v").rows
        assert rows == [(20,)]
        assert ranged.stats["range_index_lookups"] >= 1

    def test_maintenance_keeps_range_results_fresh(self, ranged):
        ranged.execute("UPDATE nums n SET v = 500 WHERE n.k = 1")
        ranged.execute("DELETE FROM nums WHERE k = 20")
        ranged.execute("INSERT INTO nums VALUES (21, 210)")
        rows = ranged.execute(
            "SELECT n.k FROM nums n WHERE n.v > 190").rows
        assert sorted(rows) == [(1,), (21,)]
        verify_all(ranged)

    def test_mixed_type_keys_fall_back_to_scan(self, db):
        # '5' canonicalizes to a number: the column's stored keys mix
        # numeric and string classes, so the sorted directories
        # cannot model the engine's display-text comparison and the
        # probe bails out at runtime (counted as a planner fallback)
        db.executescript("""
            CREATE TABLE t(s VARCHAR2(10));
            INSERT INTO t VALUES ('apple');
            INSERT INTO t VALUES ('5');
        """)
        db.execute("CREATE INDEX t_s ON t (s)")
        db.reset_stats()
        indexed = db.execute(
            "SELECT t.s FROM t WHERE t.s > 'a'").rows
        assert db.stats["planner_full_scan_fallbacks"] == 1
        assert db.stats["range_index_lookups"] == 0
        db.enable_indexes = False
        assert db.execute(
            "SELECT t.s FROM t WHERE t.s > 'a'").rows == indexed

    def test_snapshot_sees_pre_update_rows_through_probe(self, db):
        db.executescript(
            "CREATE TABLE nums(k NUMBER PRIMARY KEY, v NUMBER);"
            "INSERT INTO nums VALUES (1, 10);"
            "INSERT INTO nums VALUES (2, 20);")
        db.execute("CREATE INDEX nums_v ON nums (v)")
        with db.session(name="auditor") as auditor, \
                db.session(name="writer") as writer:
            auditor.set_transaction(read_only=True)
            assert auditor.execute(
                "SELECT COUNT(*) FROM nums n"
                " WHERE n.v >= 20").scalar() == 1
            writer.execute("UPDATE nums n SET v = 25 WHERE n.k = 1")
            writer.execute("DELETE FROM nums WHERE k = 2")
            # the pinned snapshot still sees the old world: k=2 at 20
            # alive, k=1 still at 10 — even through index probes
            assert auditor.execute(
                "SELECT n.k FROM nums n WHERE n.v >= 20"
            ).rows == [(2,)]
            auditor.commit()
        assert db.execute(
            "SELECT n.k FROM nums n WHERE n.v >= 20").rows == [(1,)]


class TestNullSemantics:
    """SQL three-valued logic at the index layer: no equality or
    range probe ever returns a NULL-keyed row as a match."""

    @pytest.fixture
    def sparse(self, db):
        db.executescript("""
            CREATE TABLE sparse(k NUMBER PRIMARY KEY, v NUMBER);
            INSERT INTO sparse VALUES (1, 10);
            INSERT INTO sparse VALUES (2, NULL);
            INSERT INTO sparse VALUES (3, 30);
            INSERT INTO sparse VALUES (4, NULL);
        """)
        db.execute("CREATE INDEX sparse_v ON sparse (v)")
        return db

    def test_equality_with_null_matches_nothing(self, sparse):
        assert sparse.execute(
            "SELECT s.k FROM sparse s WHERE s.v = NULL").rows == []

    def test_range_probe_excludes_null_rows(self, sparse):
        sparse.reset_stats()
        rows = sparse.execute(
            "SELECT s.k FROM sparse s WHERE s.v > 0").rows
        assert sorted(rows) == [(1,), (3,)]
        # NULL keys don't disable the sorted index; the probe ran
        # and never surfaced the NULL-keyed rows
        assert sparse.stats["range_index_lookups"] == 1
        assert sparse.stats["rows_scanned"] == 2

    def test_null_bound_matches_nothing(self, sparse):
        assert sparse.execute(
            "SELECT s.k FROM sparse s WHERE s.v > NULL").rows == []
        assert sparse.execute(
            "SELECT s.k FROM sparse s"
            " WHERE s.v BETWEEN NULL AND 99").rows == []

    def test_is_null_is_answered_by_scan_not_probe(self, sparse):
        sparse.reset_stats()
        rows = sparse.execute(
            "SELECT s.k FROM sparse s WHERE s.v IS NULL").rows
        assert sorted(rows) == [(2,), (4,)]
        assert sparse.stats["index_lookups"] == 0
        assert sparse.stats["range_index_lookups"] == 0

    def test_range_lookup_unit_never_returns_null_keys(self, sparse):
        table = sparse.catalog.table("sparse")
        index = next(i for i in table.indexes
                     if i.name == "SPARSE_V")
        rows = index.range_lookup(0, None, True, True)
        assert rows is not None
        assert sorted(row.values["K"] for row in rows) == [1, 3]
        # a NULL bound is provably empty, not a scan fallback
        assert index.range_lookup(None, None, True, True) is None
        assert index.range_lookup(0, None, True, True) is not None


class TestPlannerDifferential:
    """Property test: whatever access path the planner picks, the
    result rows are identical to a forced full scan."""

    WORDS = ["alpha", "beta", "gamma", "delta", "epsil", "zeta"]

    def _populate(self, db, seed: int) -> None:
        rng = random.Random(seed)
        db.executescript(
            "CREATE TABLE d(pk NUMBER PRIMARY KEY, a NUMBER,"
            " b VARCHAR2(12));"
            "CREATE INDEX d_a ON d (a);"
            "CREATE INDEX d_b ON d (b);")
        for pk in range(60):
            a = rng.choice(["NULL"] + [str(n) for n in range(9)])
            b = rng.choice(["NULL"]
                           + [f"'{word}'" for word in self.WORDS])
            db.execute(f"INSERT INTO d VALUES ({pk}, {a}, {b})")

    def _predicate(self, rng) -> str:
        n1, n2 = sorted((rng.randint(0, 9), rng.randint(0, 9)))
        word = rng.choice(self.WORDS)
        return rng.choice([
            f"d.a = {n1}",
            f"d.a > {n1}",
            f"d.a >= {n1}",
            f"d.a < {n2}",
            f"d.a <= {n2}",
            f"d.a BETWEEN {n1} AND {n2}",
            f"d.b = '{word}'",
            f"d.b LIKE '{word[:2]}%'",
            "d.a IS NULL",
            f"d.a > {n1} AND d.b LIKE '{word[:1]}%'",
            f"d.pk = {rng.randint(0, 70)} AND d.a <= {n2}",
            f"d.b >= '{word}' AND d.a IS NULL",
        ])

    def test_select_plans_match_full_scan(self, db):
        self._populate(db, seed=2002)
        rng = random.Random(2002)
        for analyzed in (False, True):
            if analyzed:
                db.execute("ANALYZE TABLE d")
            for _ in range(40):
                sql = (f"SELECT d.pk, d.a, d.b FROM d"
                       f" WHERE {self._predicate(rng)}")
                db.enable_indexes = True
                indexed = sorted(db.execute(sql).rows)
                db.enable_indexes = False
                scanned = sorted(db.execute(sql).rows)
                db.enable_indexes = True
                assert indexed == scanned, sql
        # the property is vacuous unless probes actually fired
        assert db.stats["index_lookups"] > 0
        assert db.stats["range_index_lookups"] > 0

    def test_dml_plans_match_full_scan(self):
        indexed = Database()
        plain = Database(enable_indexes=False)
        self._populate(indexed, seed=7)
        self._populate(plain, seed=7)
        rng = random.Random(7)
        snapshot = "SELECT d.pk, d.a, d.b FROM d ORDER BY d.pk"
        for trial in range(12):
            predicate = self._predicate(rng)
            if trial % 3 == 2:
                sql = f"DELETE FROM d WHERE {predicate}"
            else:
                sql = (f"UPDATE d SET a = {trial}"
                       f" WHERE {predicate}")
            first = indexed.execute(sql)
            second = plain.execute(sql)
            assert first.rowcount == second.rowcount, sql
            assert indexed.execute(snapshot).rows \
                == plain.execute(snapshot).rows, sql
        verify_all(indexed)


class TestStatsSurface:
    def test_new_counters_present_after_reset(self, db):
        db.reset_stats()
        for key in ("index_lookups", "index_unique_checks",
                    "range_index_lookups",
                    "planner_full_scan_fallbacks",
                    "stmt_cache_hits", "stmt_cache_misses",
                    "view_cache_hits", "view_cache_misses"):
            assert db.stats[key] == 0

    def test_obs_metrics_count_index_lookups(self):
        from repro.obs import Observability

        obs = Observability(enabled=True)
        db = Database(obs=obs)
        db.executescript("""
            CREATE TABLE t(a NUMBER PRIMARY KEY);
            INSERT INTO t VALUES (1);
        """)
        db.execute("SELECT t.a FROM t WHERE t.a = 1")
        db.execute("SELECT t.a FROM t WHERE t.a = 1")
        # the counts live in db.stats alone, observed or not
        assert db.stats["index_lookups"] == 2
        assert db.stats["stmt_cache_hits"] == 1


class TestLookupWorkAtScale:
    """Rows visited per lookup on a 2 000-row table: an index probe
    touches O(1) rows (point) or exactly the matching slice (range);
    the forced scan touches the whole table every time."""

    ROWS = 2000
    PROBES = 10
    WIDTH = 50

    @pytest.fixture(scope="class")
    def big(self):
        db = Database()
        db.execute("CREATE TABLE big(pk NUMBER PRIMARY KEY,"
                   " payload VARCHAR2(40))")
        # pre-parsed INSERTs: the fixture builds data, not SQL text
        for n in range(self.ROWS):
            db.execute(ast.Insert(table="big", values=(
                ast.Literal(n), ast.Literal(f"payload-{n}"))))
        db.execute("CREATE INDEX big_range ON big (pk)")
        db.execute("ANALYZE TABLE big")
        return db

    def scanned_per_query(self, db, sqls, indexed: bool) -> float:
        db.enable_indexes = indexed
        db.reset_stats()
        try:
            for sql in sqls:
                db.execute(sql)
        finally:
            db.enable_indexes = True
        return db.stats["rows_scanned"] / len(sqls)

    def test_point_lookup_touches_o1_rows(self, big):
        step = self.ROWS // self.PROBES
        sqls = [f"SELECT b.payload FROM big b WHERE b.pk = {n}"
                for n in range(0, self.ROWS, step)]
        rendered = big.explain(sqls[0]).render()
        assert "INDEX UNIQUE LOOKUP" in rendered
        assert "SCAN" not in rendered
        indexed = self.scanned_per_query(big, sqls, indexed=True)
        assert big.stats["index_lookups"] >= len(sqls)
        scanned = self.scanned_per_query(big, sqls, indexed=False)
        assert indexed <= 2
        assert scanned >= self.ROWS * 0.9
        assert scanned / indexed >= 20

    def test_range_scan_touches_only_the_slice(self, big):
        step = self.ROWS // self.PROBES
        sqls = [f"SELECT b.payload FROM big b WHERE b.pk BETWEEN"
                f" {low} AND {low + self.WIDTH - 1}"
                for low in range(0, self.ROWS - self.WIDTH, step)]
        rendered = big.explain(sqls[0]).render()
        assert "RANGE INDEX SCAN" in rendered
        assert "cost=" in rendered
        indexed = self.scanned_per_query(big, sqls, indexed=True)
        assert big.stats["range_index_lookups"] == len(sqls)
        assert big.stats["planner_full_scan_fallbacks"] == 0
        assert indexed == self.WIDTH
        assert self.scanned_per_query(big, sqls, indexed=False) \
            == self.ROWS
