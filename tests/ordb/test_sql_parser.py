"""SQL dialect parser: statement ASTs."""

import pytest

from repro.ordb.errors import ParseError
from repro.ordb.sql import ast
from repro.ordb import Database
from repro.ordb.sql.parser import MAX_NESTING, parse_statement


class TestCreateType:
    def test_forward_declaration(self):
        statement = parse_statement("CREATE TYPE Type_Prof")
        assert isinstance(statement, ast.CreateTypeForward)
        assert statement.name == "Type_Prof"

    def test_object_type(self):
        statement = parse_statement(
            "CREATE TYPE t AS OBJECT(a VARCHAR2(80), b NUMBER(10,2),"
            " c REF other, d Nested_T)")
        assert isinstance(statement, ast.CreateObjectType)
        names = [name for name, _ref in statement.attributes]
        assert names == ["a", "b", "c", "d"]
        refs = dict(statement.attributes)
        assert refs["a"] == ast.ScalarTypeRef("VARCHAR2", (80,))
        assert refs["b"] == ast.ScalarTypeRef("NUMBER", (10, 2))
        assert refs["c"] == ast.RefTypeRef("other")
        assert refs["d"] == ast.NamedTypeRef("Nested_T")

    def test_or_replace(self):
        statement = parse_statement(
            "CREATE OR REPLACE TYPE t AS OBJECT(a DATE)")
        assert statement.or_replace

    def test_varray(self):
        statement = parse_statement(
            "CREATE TYPE v AS VARRAY(5) OF VARCHAR2(200)")
        assert isinstance(statement, ast.CreateVarrayType)
        assert statement.limit == 5

    def test_nested_table(self):
        statement = parse_statement(
            "CREATE TYPE nt AS TABLE OF REF Type_Prof")
        assert isinstance(statement, ast.CreateNestedTableType)
        assert statement.element == ast.RefTypeRef("Type_Prof")

    def test_missing_as_rejected(self):
        with pytest.raises(ParseError):
            parse_statement("CREATE TYPE t OBJECT(a DATE)")


class TestCreateTable:
    def test_relational_with_constraints(self):
        statement = parse_statement(
            "CREATE TABLE t(a INTEGER PRIMARY KEY,"
            " b VARCHAR2(10) NOT NULL UNIQUE,"
            " CONSTRAINT ck CHECK (b IS NOT NULL),"
            " UNIQUE (a, b))")
        assert isinstance(statement, ast.CreateTable)
        assert statement.of_type is None
        assert [c.name for c in statement.columns] == ["a", "b"]
        kinds = [c.kind for c in statement.constraints]
        assert kinds == ["CHECK", "UNIQUE"]

    def test_object_table(self):
        statement = parse_statement(
            "CREATE TABLE TabP OF Type_P(PName PRIMARY KEY,"
            " Dept NOT NULL, CHECK (Addr.Street IS NOT NULL),"
            " SCOPE FOR (r) IS TabQ)")
        assert statement.of_type == "Type_P"
        specs = {s.column: [c.kind for c in s.constraints]
                 for s in statement.object_specs}
        assert specs == {"PName": ["PRIMARY KEY"], "Dept": ["NOT NULL"]}
        scope = [c for c in statement.constraints if c.kind == "SCOPE"]
        assert scope[0].columns == ("r",)
        assert scope[0].scope_table == "TabQ"

    def test_nested_table_clause(self):
        statement = parse_statement(
            "CREATE TABLE t(a INTEGER, s SubjT)"
            " NESTED TABLE s STORE AS s_list")
        assert statement.nested_table_clauses == (
            ast.NestedTableClause("s", "s_list"),)

    def test_plain_object_table(self):
        statement = parse_statement("CREATE TABLE TabP OF Type_P")
        assert statement.of_type == "Type_P"
        assert statement.object_specs == ()


class TestDml:
    def test_insert_values_with_constructors(self):
        statement = parse_statement(
            "INSERT INTO t VALUES('CS', Type_C('x', Type_P('y','z')))")
        assert isinstance(statement, ast.Insert)
        outer = statement.values[1]
        assert isinstance(outer, ast.FunctionCall)
        inner = outer.arguments[1]
        assert isinstance(inner, ast.FunctionCall)
        assert inner.name == "Type_P"

    def test_insert_with_columns(self):
        statement = parse_statement(
            "INSERT INTO t(a, b) VALUES(1, 2)")
        assert statement.columns == ("a", "b")

    def test_insert_select(self):
        statement = parse_statement("INSERT INTO t SELECT a FROM u")
        assert statement.query is not None

    def test_update(self):
        statement = parse_statement(
            "UPDATE t x SET a = 1, b = 'two' WHERE x.a = 0")
        assert isinstance(statement, ast.Update)
        assert statement.alias == "x"
        assert len(statement.assignments) == 2

    def test_delete(self):
        statement = parse_statement("DELETE FROM t WHERE a > 3")
        assert isinstance(statement, ast.Delete)

    def test_delete_without_from(self):
        statement = parse_statement("DELETE t")
        assert statement.table == "t"


class TestSelect:
    def test_dot_path(self):
        statement = parse_statement(
            "SELECT S.attrStudent.attrCourse.attrName FROM TabU S")
        item = statement.items[0].expression
        assert isinstance(item, ast.ColumnPath)
        assert item.parts == ("S", "attrStudent", "attrCourse",
                              "attrName")

    def test_star_and_qualified_star(self):
        statement = parse_statement("SELECT *, t.* FROM t")
        assert isinstance(statement.items[0].expression, ast.Star)
        assert statement.items[1].expression.qualifier == "t"

    def test_aliases(self):
        statement = parse_statement(
            "SELECT a AS x, b y FROM t u, v WHERE u.a = v.b")
        assert statement.items[0].alias == "x"
        assert statement.items[1].alias == "y"
        assert statement.from_items[0].alias == "u"
        assert statement.from_items[1].alias is None

    def test_where_precedence(self):
        statement = parse_statement(
            "SELECT a FROM t WHERE a = 1 OR b = 2 AND c = 3")
        where = statement.where
        assert where.operator == "OR"
        assert where.right.operator == "AND"

    def test_table_function(self):
        statement = parse_statement(
            "SELECT s.x FROM TabU u, TABLE(u.attrStudent) s")
        unnest = statement.from_items[1]
        assert isinstance(unnest, ast.TableFunctionRef)
        assert unnest.alias == "s"

    def test_subquery_in_from(self):
        statement = parse_statement(
            "SELECT q.a FROM (SELECT a FROM t) q")
        assert isinstance(statement.from_items[0], ast.SubqueryRef)

    def test_cast_multiset(self):
        statement = parse_statement(
            "SELECT CAST(MULTISET(SELECT s.v FROM tabS s"
            " WHERE p.ID = s.PID) AS TypeVA_S) FROM tabP p")
        expression = statement.items[0].expression
        assert isinstance(expression, ast.CastMultiset)
        assert expression.type_name == "TypeVA_S"

    def test_scalar_cast(self):
        statement = parse_statement(
            "SELECT CAST(a AS VARCHAR2(10)) FROM t")
        assert isinstance(statement.items[0].expression, ast.Cast)

    def test_group_order_having(self):
        statement = parse_statement(
            "SELECT dept, COUNT(*) c FROM t GROUP BY dept"
            " HAVING COUNT(*) > 1 ORDER BY c DESC, 1 ASC")
        assert len(statement.group_by) == 1
        assert statement.having is not None
        assert statement.order_by[0].ascending is False
        assert statement.order_by[1].ascending is True

    def test_predicates(self):
        statement = parse_statement(
            "SELECT a FROM t WHERE a IS NOT NULL AND b LIKE 'x%'"
            " AND c BETWEEN 1 AND 5 AND d IN (1, 2)"
            " AND e NOT IN (SELECT e FROM u)"
            " AND EXISTS (SELECT 1 FROM v)")
        text = repr(statement.where)
        assert "IsNull" in text and "Like" in text
        assert "Between" in text and "InList" in text
        assert "InSubquery" in text and "Exists" in text

    def test_case_expression(self):
        statement = parse_statement(
            "SELECT CASE WHEN a = 1 THEN 'one' ELSE 'other' END FROM t")
        expression = statement.items[0].expression
        assert isinstance(expression, ast.CaseWhen)

    def test_deref_postfix_access(self):
        statement = parse_statement(
            "SELECT DEREF(REF(p)).attrDept FROM TabP p")
        expression = statement.items[0].expression
        assert isinstance(expression, ast.AttributeAccess)

    def test_date_literal(self):
        statement = parse_statement("SELECT DATE '2002-03-25' FROM t")
        assert isinstance(statement.items[0].expression,
                          ast.DateLiteral)

    def test_distinct(self):
        assert parse_statement("SELECT DISTINCT a FROM t").distinct


class TestDrop:
    def test_drop_type_force(self):
        statement = parse_statement("DROP TYPE t FORCE")
        assert statement.force

    def test_drop_table(self):
        assert isinstance(parse_statement("DROP TABLE t"),
                          ast.DropTable)

    def test_drop_view(self):
        assert isinstance(parse_statement("DROP VIEW v"), ast.DropView)


class TestErrors:
    @pytest.mark.parametrize("source", [
        "SELECT",                       # nothing after SELECT
        "SELECT a",                     # missing FROM
        "CREATE",                       # incomplete
        "INSERT INTO",                  # missing table
        "FROB x",                       # unknown statement
        "SELECT a FROM t WHERE",        # dangling WHERE
        "SELECT a FROM t GROUP",        # incomplete GROUP BY
        "CREATE TABLE t(",              # unterminated
    ])
    def test_parse_errors(self, source):
        with pytest.raises(ParseError):
            parse_statement(source)

    def test_trailing_garbage(self):
        with pytest.raises(ParseError, match="trailing"):
            parse_statement("SELECT a FROM t extra garbage ,")


#: statements nested far past MAX_NESTING: each must be refused with
#: ORA-00900 (ParseError), never die in a RecursionError (ORA-00600)
DEEP_STATEMENTS = {
    "1000 nested parentheses":
        "SELECT " + "(" * 1000 + "1" + ")" * 1000 + " FROM T",
    "1000 nested scalar subqueries":
        "SELECT " + "(SELECT " * 1000 + "1 FROM T" + ")" * 1000
        + " FROM T",
    "10000 NOTs": "SELECT a FROM T WHERE " + "NOT " * 10_000 + "a = 1",
}


class TestNestingLimit:
    @pytest.mark.parametrize("name", sorted(DEEP_STATEMENTS))
    def test_deep_statement_is_a_parse_error(self, name):
        db = Database()
        db.execute("CREATE TABLE T (a NUMBER)")
        with pytest.raises(ParseError) as info:
            db.execute(DEEP_STATEMENTS[name])
        assert info.value.code == "ORA-00900"
        assert f"deeper than {MAX_NESTING} levels" in str(info.value)

    def test_each_parenthesis_is_one_level(self):
        """The SELECT and its select-list expression take two levels;
        every parenthesis, NOT and unary sign one more."""
        def nested(depth: int) -> str:
            return "SELECT " + "(" * depth + "1" + ")" * depth + " FROM T"

        parse_statement(nested(MAX_NESTING - 2))
        with pytest.raises(ParseError, match="nests deeper"):
            parse_statement(nested(MAX_NESTING - 1))
        parse_statement("SELECT a FROM T WHERE "
                        + "NOT " * (MAX_NESTING - 2) + "a = 1")
        with pytest.raises(ParseError, match="nests deeper"):
            parse_statement("SELECT " + "- " * (MAX_NESTING - 1)
                            + "1 FROM T")
