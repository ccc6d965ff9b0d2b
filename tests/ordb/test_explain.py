"""Query plans and engine introspection."""

import pytest

from repro.ordb import Database, NotSupported


@pytest.fixture
def three_tables(db):
    db.executescript("""
        CREATE TABLE a(x INTEGER); CREATE TABLE b(y INTEGER);
        CREATE TABLE c(z INTEGER);
        CREATE VIEW v AS SELECT a.x FROM a;
    """)
    return db


class TestExplain:
    def test_single_scan(self, three_tables):
        plan = three_tables.explain("SELECT a.x FROM a")
        assert plan.tables == ["A"]
        assert plan.join_count == 0

    def test_join_count(self, three_tables):
        plan = three_tables.explain(
            "SELECT a.x FROM a, b, c WHERE a.x = b.y AND b.y = c.z")
        assert plan.join_count == 2
        assert plan.tables == ["A", "B", "C"]

    def test_subquery_in_from_flattened(self, three_tables):
        plan = three_tables.explain(
            "SELECT q.x FROM (SELECT a.x FROM a) q, b")
        assert plan.has_subquery
        assert "A" in plan.tables and "B" in plan.tables

    def test_table_function_marker(self, three_tables):
        three_tables.executescript("""
            CREATE TYPE va AS VARRAY(5) OF VARCHAR2(5);
            CREATE TABLE t(c va);
        """)
        plan = three_tables.explain(
            "SELECT s.COLUMN_VALUE FROM t, TABLE(t.c) s")
        assert "TABLE()" in plan.tables

    def test_dot_navigation_detected(self, three_tables):
        three_tables.executescript("""
            CREATE TYPE inner_t AS OBJECT(p VARCHAR2(5));
            CREATE TYPE outer_t AS OBJECT(q inner_t);
            CREATE TABLE deep(o outer_t);
        """)
        plan = three_tables.explain("SELECT d.o.q.p FROM deep d")
        assert plan.uses_dot_navigation
        flat = three_tables.explain("SELECT a.x FROM a")
        assert not flat.uses_dot_navigation

    def test_describe_output(self, three_tables):
        plan = three_tables.explain(
            "SELECT a.x FROM a, b WHERE a.x = b.y")
        text = plan.describe()
        assert "scan(A)" in text
        assert "NESTED-LOOP-JOIN" in text

    def test_explain_rejects_ddl(self, three_tables):
        with pytest.raises(NotSupported):
            three_tables.explain("DROP TABLE a")

    def test_explain_does_not_execute(self, three_tables):
        three_tables.execute("INSERT INTO a VALUES(1)")
        before = dict(three_tables.stats)
        three_tables.explain("SELECT a.x FROM a")
        assert three_tables.stats["rows_scanned"] == \
            before["rows_scanned"]


@pytest.fixture
def university(db):
    """The Fig. 2 schema with two professors and two students."""
    db.executescript("""
        CREATE TYPE Type_Prof AS OBJECT(
            PName VARCHAR2(80), Subject VARCHAR2(120));
        CREATE TABLE TabProf OF Type_Prof (PName PRIMARY KEY);
        CREATE TYPE Type_Course AS OBJECT(
            Title VARCHAR2(120), Prof REF Type_Prof);
        CREATE TYPE TypeNT_Course AS TABLE OF Type_Course;
        CREATE TYPE Type_Student AS OBJECT(
            StudNr NUMBER, LName VARCHAR2(80),
            attrCourse TypeNT_Course);
        CREATE TABLE TabStudent OF Type_Student (StudNr PRIMARY KEY)
            NESTED TABLE attrCourse STORE AS StudentCourses;
        INSERT INTO TabProf VALUES (Type_Prof('Jaeger', 'CAD'));
        INSERT INTO TabProf VALUES (Type_Prof('Kudrass', 'Databases'));
        INSERT INTO TabStudent VALUES (Type_Student(1, 'Conrad',
            TypeNT_Course(
                Type_Course('CAD 1', (SELECT REF(p) FROM TabProf p
                                      WHERE p.PName = 'Jaeger')),
                Type_Course('DB 2', (SELECT REF(p) FROM TabProf p
                                     WHERE p.PName = 'Kudrass')))));
        INSERT INTO TabStudent VALUES (Type_Student(2, 'Mueller',
            TypeNT_Course(
                Type_Course('DB 1', (SELECT REF(p) FROM TabProf p
                                     WHERE p.PName = 'Kudrass')))));
    """)
    return db


class TestExplainGolden:
    """Exact rendered plans on the Fig. 2 university schema."""

    def test_pk_equality_uses_index(self, university):
        plan = university.explain(
            "SELECT s.LName FROM TabStudent s WHERE s.StudNr = 1")
        assert plan.render() == "\n".join([
            " 0  SELECT STATEMENT [SNAPSHOT READ @latest]"
            "  ~rows=1  cost=2",
            " 1    PROJECT [s.LName]  ~rows=1",
            " 2      INDEX UNIQUE LOOKUP TabStudent"
            " [TABSTUDENT_PK: s.StudNr = 1]  ~rows=1  cost=2",
        ])

    def test_filtered_scan_without_indexes(self, university):
        university.enable_indexes = False
        plan = university.explain(
            "SELECT s.LName FROM TabStudent s WHERE s.StudNr = 1")
        assert plan.render() == "\n".join([
            " 0  SELECT STATEMENT [SNAPSHOT READ @latest]"
            "  ~rows=1  cost=2",
            " 1    PROJECT [s.LName]  ~rows=1",
            " 2      FILTER [s.StudNr = 1]  ~rows=1",
            " 3        SCAN TabStudent  rows=2  cost=2",
        ])

    def test_non_equality_predicate_still_scans(self, university):
        plan = university.explain(
            "SELECT s.LName FROM TabStudent s WHERE s.StudNr > 1")
        assert plan.render() == "\n".join([
            " 0  SELECT STATEMENT [SNAPSHOT READ @latest]"
            "  ~rows=1  cost=2",
            " 1    PROJECT [s.LName]  ~rows=1",
            " 2      FILTER [s.StudNr > 1]  ~rows=1",
            " 3        SCAN TabStudent  rows=2  cost=2",
        ])

    def test_unnest_with_ref_deref(self, university):
        """The paper's flagship query: TABLE() + dot navigation."""
        plan = university.explain(
            "SELECT c.Title, c.Prof.PName"
            " FROM TabStudent s, TABLE(s.attrCourse) c"
            " WHERE c.Prof.Subject = 'CAD'")
        assert plan.render() == "\n".join([
            " 0  SELECT STATEMENT [SNAPSHOT READ @latest]  ~rows=2",
            " 1    PROJECT [c.Title, c.Prof.PName]  ~rows=2",
            " 2      NESTED-LOOP JOIN  ~rows=2",
            " 3        SCAN TabStudent  rows=2  cost=2",
            " 4        FILTER [c.Prof.Subject = 'CAD']  ~rows=1",
            # average cardinality of the stored nested tables: (2+1)/2
            " 5          COLLECTION EXPAND TABLE(s.attrCourse)"
            "  ~rows=2",
            " 6    REF DEREF TYPE_PROF [c.Prof]",
        ])
        assert plan.uses_dot_navigation

    def test_aggregate(self, university):
        plan = university.explain("SELECT COUNT(*) FROM TabProf")
        assert plan.render() == "\n".join([
            " 0  SELECT STATEMENT [SNAPSHOT READ @latest]"
            "  rows=1  cost=2",
            " 1    PROJECT [COUNT(*)]  rows=1",
            " 2      AGGREGATE [single group]  rows=1",
            " 3        SCAN TabProf  rows=2  cost=2",
        ])

    def test_insert_constructs(self, university):
        plan = university.explain(
            "EXPLAIN PLAN FOR INSERT INTO TabProf"
            " VALUES (Type_Prof('Conrad', 'XML'))")
        assert plan.render() == "\n".join([
            " 0  INSERT STATEMENT TabProf  rows=1",
            " 1    CONSTRUCT Type_Prof [2 argument(s)]",
        ])

    def test_update_and_delete(self, university):
        update = university.explain(
            "UPDATE TabProf p SET Subject = 'XML'"
            " WHERE p.PName = 'Jaeger'")
        assert update.render() == "\n".join([
            " 0  UPDATE STATEMENT TabProf [SET Subject]  ~rows=1",
            " 1    INDEX UNIQUE LOOKUP TabProf"
            " [TABPROF_PK: p.PName = 'Jaeger']  ~rows=1  cost=2",
        ])
        delete = university.explain(
            "DELETE FROM TabProf WHERE PName = 'Nobody'")
        # the unqualified PName is not pushable, so DELETE scans
        assert delete.render() == "\n".join([
            " 0  DELETE STATEMENT TabProf  ~rows=1",
            " 1    FILTER [PName = 'Nobody']  ~rows=1",
            " 2      SCAN TabProf  rows=2  cost=2",
        ])

    def test_view_level(self, university):
        """A conjunct on a view's columns filters the VIEW step; the
        view's own plan renders below it, and a view level leaves
        the statement without a total cost."""
        university.execute(
            "CREATE VIEW CadProfs AS SELECT p.PName, p.Subject"
            " FROM TabProf p WHERE p.Subject = 'CAD'")
        plan = university.explain(
            "SELECT v.PName, s.LName FROM CadProfs v, TabStudent s"
            " WHERE v.PName = 'Jaeger' AND s.StudNr = 1")
        assert plan.render() == "\n".join([
            " 0  SELECT STATEMENT [SNAPSHOT READ @latest]  ~rows=1",
            " 1    PROJECT [v.PName, s.LName]  ~rows=1",
            " 2      NESTED-LOOP JOIN  ~rows=1",
            " 3        FILTER [v.PName = 'Jaeger']  ~rows=1",
            " 4          VIEW CadProfs  ~rows=1",
            " 5            PROJECT [p.PName, p.Subject]  ~rows=1",
            " 6              FILTER [p.Subject = 'CAD']  ~rows=1",
            " 7                SCAN TabProf  rows=2  cost=2",
            " 8        INDEX UNIQUE LOOKUP TabStudent"
            " [TABSTUDENT_PK: s.StudNr = 1]  ~rows=1  cost=2",
        ])

    def test_from_subquery(self, university):
        plan = university.explain(
            "SELECT q.LName FROM (SELECT s.LName, s.StudNr"
            " FROM TabStudent s WHERE s.StudNr > 0) q"
            " WHERE q.StudNr = 1")
        assert plan.render() == "\n".join([
            " 0  SELECT STATEMENT [SNAPSHOT READ @latest]  ~rows=1",
            " 1    PROJECT [q.LName]  ~rows=1",
            " 2      FILTER [q.StudNr = 1]  ~rows=1",
            " 3        SUBQUERY q  ~rows=1",
            " 4          PROJECT [s.LName, s.StudNr]  ~rows=1",
            " 5            FILTER [s.StudNr > 0]  ~rows=1",
            " 6              SCAN TabStudent  rows=2  cost=2",
        ])

    def test_dml_two_conjuncts_probed(self, university):
        """The probe absorbs its conjunct; the rest of the WHERE
        filters the probed rows, in the order it was written."""
        update = university.explain(
            "UPDATE TabStudent s SET LName = 'Konrad'"
            " WHERE s.LName = 'Conrad' AND s.StudNr = 1")
        assert update.render() == "\n".join([
            " 0  UPDATE STATEMENT TabStudent [SET LName]  ~rows=1",
            " 1    FILTER [s.LName = 'Conrad']  ~rows=1",
            " 2      INDEX UNIQUE LOOKUP TabStudent"
            " [TABSTUDENT_PK: s.StudNr = 1]  ~rows=1  cost=2",
        ])
        delete = university.explain(
            "DELETE FROM TabStudent s WHERE s.LName LIKE 'M%'"
            " AND s.StudNr = 2 AND s.StudNr < 5")
        assert delete.render() == "\n".join([
            " 0  DELETE STATEMENT TabStudent  ~rows=1",
            " 1    FILTER [s.StudNr < 5]  ~rows=1",
            " 2      FILTER [s.LName LIKE 'M%']  ~rows=1",
            " 3        INDEX UNIQUE LOOKUP TabStudent"
            " [TABSTUDENT_PK: s.StudNr = 2]  ~rows=1  cost=2",
        ])

    def test_dml_two_conjuncts_scanned(self, university):
        """Without a probe, the whole WHERE filters the scan."""
        update = university.explain(
            "UPDATE TabStudent s SET LName = 'Konrad'"
            " WHERE s.LName = 'Conrad' AND s.StudNr > 0")
        assert update.render() == "\n".join([
            " 0  UPDATE STATEMENT TabStudent [SET LName]  ~rows=1",
            " 1    FILTER [s.LName = 'Conrad' AND s.StudNr > 0]"
            "  ~rows=1",
            " 2      SCAN TabStudent  rows=2  cost=2",
        ])
        university.enable_indexes = False
        delete = university.explain(
            "DELETE FROM TabStudent s"
            " WHERE s.StudNr = 2 AND s.LName LIKE 'M%'")
        assert delete.render() == "\n".join([
            " 0  DELETE STATEMENT TabStudent  ~rows=1",
            " 1    FILTER [s.StudNr = 2 AND s.LName LIKE 'M%']  ~rows=1",
            " 2      SCAN TabStudent  rows=2  cost=2",
        ])

    @pytest.mark.parametrize("sql, lines", [
        ("SELECT t.a FROM t WHERE t.a * (t.a + 1) = 2", [
            " 0  SELECT STATEMENT [SNAPSHOT READ @latest]"
            "  ~rows=1  cost=1",
            " 1    PROJECT [t.a]  ~rows=1",
            " 2      FILTER [t.a * (t.a + 1) = 2]  ~rows=1",
            " 3        SCAN t  rows=1  cost=1"]),
        ("SELECT t.a - (t.a - 1) FROM t", [
            " 0  SELECT STATEMENT [SNAPSHOT READ @latest]"
            "  rows=1  cost=1",
            " 1    PROJECT [t.a - (t.a - 1)]  rows=1",
            " 2      SCAN t  rows=1  cost=1"]),
        ("SELECT t.a FROM t WHERE t.s = 'O''Brien'", [
            " 0  SELECT STATEMENT [SNAPSHOT READ @latest]"
            "  ~rows=1  cost=1",
            " 1    PROJECT [t.a]  ~rows=1",
            " 2      FILTER [t.s = 'O''Brien']  ~rows=1",
            " 3        SCAN t  rows=1  cost=1"]),
    ])
    def test_expressions_print_as_they_run(self, db, sql, lines):
        """Parentheses an operand needs, and doubled quotes."""
        db.execute("CREATE TABLE t(a NUMBER, s VARCHAR2(20))")
        db.execute("INSERT INTO t VALUES (1, 'O''Brien')")
        assert db.explain(sql).render() == "\n".join(lines)

    def test_ref_path_left_of_in_subquery(self, university):
        """The operand of ``IN (SELECT ...)`` is searched like any
        other operand: its REF dereference is a plan step, and the
        query counts as dot navigation."""
        plan = university.explain(
            "SELECT c.Title FROM TabStudent s, TABLE(s.attrCourse) c"
            " WHERE c.Prof.Subject IN (SELECT p.Subject FROM TabProf p)")
        assert plan.render() == "\n".join([
            " 0  SELECT STATEMENT [SNAPSHOT READ @latest]  ~rows=2",
            " 1    PROJECT [c.Title]  ~rows=2",
            " 2      FILTER [c.Prof.Subject IN (SELECT ...)]  ~rows=2",
            " 3        NESTED-LOOP JOIN  ~rows=4",
            " 4          SCAN TabStudent  rows=2  cost=2",
            " 5          COLLECTION EXPAND TABLE(s.attrCourse)  ~rows=2",
            " 6    REF DEREF TYPE_PROF [c.Prof]",
        ])
        assert plan.uses_dot_navigation

    @pytest.mark.parametrize("condition", [
        "c.Prof.Subject IN ('CAD', 'XML')",
        "c.Title LIKE c.Prof.Subject",
        "c.Title BETWEEN 'A' AND c.Prof.Subject",
        "CAST(c.Prof.Subject AS VARCHAR2(9)) = 'CAD'",
        "CASE WHEN c.Prof.Subject = 'CAD' THEN 1 END = 1",
    ])
    def test_dot_navigation_inside_any_operand(self, university,
                                               condition):
        plan = university.explain(
            "SELECT c.Title FROM TabStudent s, TABLE(s.attrCourse) c"
            f" WHERE {condition}")
        assert plan.uses_dot_navigation

    def test_insert_constructs_left_of_in_subquery(self, university):
        plan = university.explain(
            "INSERT INTO TabProf VALUES (Type_Prof(CASE WHEN"
            " Type_Prof('x', 'y') IN (SELECT p.PName FROM TabProf p)"
            " THEN 'a' END, 'XML'))")
        assert plan.render() == "\n".join([
            " 0  INSERT STATEMENT TabProf  rows=1",
            " 1    CONSTRUCT Type_Prof [2 argument(s)]",
            " 2      CONSTRUCT Type_Prof [2 argument(s)]",
        ])

    def test_explain_via_sql_result(self, university):
        result = university.execute(
            "EXPLAIN SELECT p.PName FROM TabProf p")
        assert result.columns == ["QUERY PLAN"]
        assert [row[0] for row in result.rows] == [
            " 0  SELECT STATEMENT [SNAPSHOT READ @latest]"
            "  rows=2  cost=2",
            " 1    PROJECT [p.PName]  rows=2",
            " 2      SCAN TabProf  rows=2  cost=2",
        ]

    def test_explain_moves_no_stats(self, university):
        before = dict(university.stats)
        university.explain(
            "SELECT c.Title FROM TabStudent s, TABLE(s.attrCourse) c")
        assert dict(university.stats) == before


class TestStatements:
    def test_executescript_returns_all_results(self, db):
        results = db.executescript(
            "CREATE TABLE t(a INTEGER); INSERT INTO t VALUES(1);"
            " SELECT t.a FROM t;")
        assert len(results) == 3
        assert results[2].rows == [(1,)]

    def test_statement_counter(self, db):
        db.executescript("CREATE TABLE t(a INTEGER);"
                         " INSERT INTO t VALUES(1)")
        assert db.stats["statements"] == 2

    def test_pre_parsed_ast_accepted(self, db):
        from repro.ordb import parse_statement

        db.execute("CREATE TABLE t(a INTEGER)")
        statement = parse_statement("INSERT INTO t VALUES(9)")
        db.execute(statement)
        assert db.execute("SELECT t.a FROM t").scalar() == 9
