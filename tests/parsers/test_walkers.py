"""Differential: every SQL-tree walker that now goes through
``ast.walk`` against its frozen copy in ``reference/walkers.py``.

Trees come from a strategy over every AST node class (subqueries
included), from a few hand-written corners and from every statement
the loader emits for the corpus documents.  Old and new agree on each
of them, except for the coverage fixes the one walk brought, which
are spelled out here:

* ``sub_expressions`` (which replaced ``explain._child_expressions``)
  also yields the operand of ``x IN (SELECT ...)``;
* ``explain.uses_dot_navigation`` also searches IN lists, CASE, CAST,
  LIKE patterns and escapes, BETWEEN bounds and the operand of
  ``x IN (SELECT ...)``.

``REPRO_STRESS_SEED`` picks the generation seed; the CI
``parser-fuzz`` job raises the example count.
"""

from __future__ import annotations

import dataclasses
import os
from collections import Counter
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, seed, settings, strategies as st

from repro.core import XML2Oracle
from repro.ordb.datatypes import RefType
from repro.ordb.engine import _collect_table_refs
from repro.ordb.explain import render_expr, uses_dot_navigation
from repro.ordb.expressions import (
    EMPTY_ENV,
    Evaluator,
    collect_aggregates,
    contains_aggregate,
    sub_expressions,
)
from repro.ordb.indexes import _mentions_alias
from repro.ordb.planner import _analyze_references, _dereferences_ref
from repro.ordb.sharding import _has_subquery
from repro.ordb.sql import ast
from repro.ordb.sql.lexer import split_statements
from repro.ordb.sql.parser import parse_statement
from repro.ordb.textindex import select_scans_vectors
from repro.workloads import CORPUS, SAMPLE_DOCUMENT, UNIVERSITY_DTD
from repro.xmlkit import parse

from .reference import walkers as ref

SEED = int(os.environ.get("REPRO_STRESS_SEED", "0"))

_SETTINGS = settings(deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])

#: ``t.ref`` is a REF column, ``t.a`` a plain one
_TABLE = SimpleNamespace(column=lambda name: {
    "REF": SimpleNamespace(datatype=RefType("T_Type")),
    "A": SimpleNamespace(datatype=None)}.get(name.upper()))

#: the node kinds whose operands uses_dot_navigation searches now
_DOT_COVERAGE_FIXES = (ast.InList, ast.CaseWhen, ast.Cast, ast.Like,
                       ast.Between, ast.InSubquery)


# -- the comparisons ---------------------------------------------------------------------


def _check_expression(expression: ast.Expr) -> None:
    new_children = sub_expressions(expression)
    assert new_children == ref.sub_expressions(expression)
    old_children = list(ref._child_expressions(expression))
    if isinstance(expression, ast.InSubquery):  # coverage fix
        old_children.insert(0, expression.operand)
    assert new_children == old_children
    assert contains_aggregate(expression) == \
        ref.contains_aggregate(expression)
    new_calls: list = []
    old_calls: list = []
    collect_aggregates(expression, new_calls)
    ref.collect_aggregates(expression, old_calls)
    assert new_calls == old_calls
    new_heads: set = set()
    old_heads: set = set()
    assert _analyze_references(expression, new_heads) == \
        ref._analyze_references(expression, old_heads)
    assert new_heads == old_heads
    for alias in ("T", "S"):
        assert _mentions_alias(expression, alias) == \
            ref._mentions_alias(expression, alias)
        assert _dereferences_ref(expression, alias, _TABLE) == \
            ref._dereferences_ref(expression, alias, _TABLE)
    assert ast.flatten(expression, "AND") == \
        ref._split_conjuncts(expression)
    # the frozen renderer drops needed parentheses and never doubles
    # quotes; those two fixes aside, the renderers agree
    assert _unparenthesised(render_expr(expression)) == \
        _unparenthesised(ref.render_expr(_quotes_doubled(expression)))


def _unparenthesised(rendered: str) -> str:
    return rendered.replace("(", "").replace(")", "")


def _rebuilt(node, rewrite):
    """*node* with *rewrite* applied to every node below it first."""
    if type(node) is tuple:
        return tuple(_rebuilt(child, rewrite) for child in node)
    names = ast.CHILD_FIELDS.get(type(node))
    if names:
        node = dataclasses.replace(node, **{
            name: _rebuilt(getattr(node, name), rewrite)
            for name in names})
    return rewrite(node)


def _quotes_doubled(node):
    """*node* with the quotes in its string literals doubled."""
    def double(node):
        if isinstance(node, ast.Literal) and isinstance(node.value, str):
            return ast.Literal(node.value.replace("'", "''"))
        return node
    return _rebuilt(node, double)


def _dot_navigation_with_coverage_fixes(statement: ast.SelectStmt
                                        ) -> bool:
    """The old answer, or the old probe's answer on any operand of a
    node kind the old probe did not enter."""
    roots = [item.expression for item in statement.items]
    if statement.where is not None:
        roots.append(statement.where)
    return ref.uses_dot_navigation(statement) or any(
        ref.uses_dot_navigation(
            ast.SelectStmt((ast.SelectItem(child),), ()))
        for root in roots
        for node in ast.walk(root, ast.SelectStmt)
        if isinstance(node, _DOT_COVERAGE_FIXES)
        for child in sub_expressions(node))


def _check_select(statement: ast.SelectStmt) -> None:
    assert select_scans_vectors(statement) == \
        ref.select_scans_vectors(statement)
    assert _has_subquery(statement) == ref._has_subquery(statement)
    assert uses_dot_navigation(statement) == \
        _dot_navigation_with_coverage_fixes(statement)


def _check_tree(root: object) -> None:
    """Every comparison, on *root* and on every node below it."""
    new_tables: set = set()
    old_tables: set = set()
    _collect_table_refs(root, new_tables)
    ref._collect_table_refs(root, old_tables)
    assert new_tables == old_tables
    # the walk reaches exactly the nodes the generic dataclass walk
    # reached (type references, which hold no expression, aside)
    assert Counter(map(id, ast.walk(root))) == Counter(
        id(node) for node in ref._walk(root)
        if type(node) in ast.CHILD_FIELDS)
    for node in ast.walk(root):
        if isinstance(node, ast.Expr):
            _check_expression(node)
        elif isinstance(node, ast.SelectStmt):
            _check_select(node)


# -- trees over every node class ----------------------------------------------------------

_names = st.sampled_from(["t", "T", "s", "a", "ref", "x"])
_maybe_name = st.none() | _names
_functions = st.sampled_from(
    ["COUNT", "sum", "ABS", "DEREF", "VECTOR_DISTANCE", "Type_A", "max"])
_type_refs = st.one_of(
    st.builds(ast.ScalarTypeRef, st.sampled_from(["NUMBER", "DATE"]),
              st.lists(st.integers(1, 9), max_size=2).map(tuple)),
    st.builds(ast.NamedTypeRef, _names),
    st.builds(ast.RefTypeRef, _names))


def _tuples(strategy, min_size=0, max_size=3):
    return st.lists(strategy, min_size=min_size,
                    max_size=max_size).map(tuple)


def _leaves() -> dict:
    return {
        ast.Literal: st.builds(ast.Literal, st.one_of(
            st.none(), st.integers(-3, 3), st.text("ab", max_size=2))),
        ast.DateLiteral: st.builds(ast.DateLiteral,
                                   st.just("2001-02-03")),
        ast.ColumnPath: st.builds(ast.ColumnPath,
                                  _tuples(_names, 1, 4)),
        ast.Star: st.builds(ast.Star, _maybe_name),
    }


def _composites(e, q) -> dict:
    """Expression nodes over child expressions *e* and queries *q*."""
    return {
        ast.FunctionCall: st.builds(ast.FunctionCall, _functions,
                                    _tuples(e), st.booleans()),
        ast.AttributeAccess: st.builds(ast.AttributeAccess, e, _names),
        ast.BinaryOp: st.builds(
            ast.BinaryOp, st.sampled_from(["AND", "OR", "=", "+", "||"]),
            e, e),
        ast.UnaryOp: st.builds(ast.UnaryOp, st.sampled_from(["NOT", "-"]),
                               e),
        ast.IsNull: st.builds(ast.IsNull, e, st.booleans()),
        ast.Like: st.builds(ast.Like, e, e, st.booleans(), st.none() | e),
        ast.Between: st.builds(ast.Between, e, e, e, st.booleans()),
        ast.InList: st.builds(ast.InList, e, _tuples(e, 1),
                              st.booleans()),
        ast.InSubquery: st.builds(ast.InSubquery, e, q, st.booleans()),
        ast.Exists: st.builds(ast.Exists, q),
        ast.ScalarSubquery: st.builds(ast.ScalarSubquery, q),
        ast.CastMultiset: st.builds(ast.CastMultiset, q, _names),
        ast.Cast: st.builds(ast.Cast, e, _type_refs),
        ast.CaseWhen: st.builds(ast.CaseWhen,
                                _tuples(st.tuples(e, e), 1, 2),
                                st.none() | e),
    }


def _query_parts(e, q) -> dict:
    """SELECT and its parts over expressions *e*; subqueries in FROM
    are *q* (None: no FROM subqueries)."""
    parts = {
        ast.SelectItem: st.builds(ast.SelectItem, e, _maybe_name),
        ast.TableRef: st.builds(ast.TableRef, _names, _maybe_name),
        ast.TableFunctionRef: st.builds(ast.TableFunctionRef, e,
                                        _maybe_name),
        ast.OrderItem: st.builds(ast.OrderItem, e, st.booleans()),
    }
    if q is not None:
        parts[ast.SubqueryRef] = st.builds(ast.SubqueryRef, q, _maybe_name)
    from_items = st.one_of(*[parts[kind] for kind in (
        ast.TableRef, ast.TableFunctionRef, ast.SubqueryRef)
        if kind in parts])
    parts[ast.SelectStmt] = st.builds(
        ast.SelectStmt, _tuples(parts[ast.SelectItem], 1),
        _tuples(from_items, 1, 2), st.none() | e, _tuples(e, 0, 2),
        st.none() | e, _tuples(parts[ast.OrderItem], 0, 2), st.booleans(),
        st.none() | st.integers(0, 3))
    return parts


def _statements(e, q) -> dict:
    """Every statement class (and the DDL parts) over *e* and *q*."""
    constraint = st.builds(ast.ColumnConstraint,
                           st.sampled_from(["NOT NULL", "UNIQUE"]))
    parts = {
        ast.ColumnConstraint: constraint,
        ast.ColumnDef: st.builds(ast.ColumnDef, _names, _type_refs,
                                 _tuples(constraint, 0, 2)),
        ast.TableConstraint: st.builds(
            ast.TableConstraint, st.sampled_from(["CHECK", "UNIQUE"]),
            _maybe_name, _tuples(_names, 0, 2), st.none() | e,
            st.none() | st.just("a > 0"), _maybe_name),
        ast.ObjectColumnSpec: st.builds(ast.ObjectColumnSpec, _names,
                                        _tuples(constraint, 0, 2)),
        ast.NestedTableClause: st.builds(ast.NestedTableClause, _names,
                                         _names),
    }
    dml = {
        ast.SelectStmt: q,
        ast.Insert: st.builds(ast.Insert, _names, _tuples(_names),
                              _tuples(e), st.none() | q),
        ast.Update: st.builds(
            ast.Update, _names, _maybe_name,
            _tuples(st.tuples(_leaves()[ast.ColumnPath], e), 1, 2),
            st.none() | e),
        ast.Delete: st.builds(ast.Delete, _names, _maybe_name,
                              st.none() | e),
    }
    statements = {
        **dml,
        ast.ExplainStmt: st.builds(ast.ExplainStmt,
                                   st.one_of(*dml.values())),
        ast.CreateTable: st.builds(
            ast.CreateTable, _names, _tuples(parts[ast.ColumnDef]),
            _tuples(parts[ast.TableConstraint]), _maybe_name,
            _tuples(parts[ast.ObjectColumnSpec]),
            _tuples(parts[ast.NestedTableClause])),
        ast.CreateView: st.builds(ast.CreateView, _names, q,
                                  _tuples(_names), st.booleans(),
                                  _tuples(_names)),
        ast.CreateTypeForward: st.builds(ast.CreateTypeForward, _names),
        ast.CreateObjectType: st.builds(
            ast.CreateObjectType, _names,
            _tuples(st.tuples(_names, _type_refs)), st.booleans()),
        ast.CreateVarrayType: st.builds(ast.CreateVarrayType, _names,
                                        st.integers(1, 9), _type_refs),
        ast.CreateNestedTableType: st.builds(ast.CreateNestedTableType,
                                             _names, _type_refs),
        ast.CreateIndex: st.builds(ast.CreateIndex, _names, _names,
                                   _tuples(_tuples(_names, 1, 2), 1, 2)),
        ast.DropType: st.builds(ast.DropType, _names, st.booleans()),
        ast.DropTable: st.builds(ast.DropTable, _names),
        ast.DropView: st.builds(ast.DropView, _names),
        ast.DropIndex: st.builds(ast.DropIndex, _names),
        ast.Analyze: st.builds(ast.Analyze, _names),
        ast.BeginTransaction: st.builds(ast.BeginTransaction),
        ast.CommitStmt: st.builds(ast.CommitStmt),
        ast.RollbackStmt: st.builds(ast.RollbackStmt, _maybe_name),
        ast.SavepointStmt: st.builds(ast.SavepointStmt, _names),
        ast.SetTransaction: st.builds(
            ast.SetTransaction, st.none() | st.booleans(),
            st.none() | st.just("SERIALIZABLE")),
    }
    return {**parts, **statements}


def _trees(depth: int) -> dict:
    """Per AST node class, a strategy for trees of that class whose
    expressions nest at most *depth* levels (subqueries included)."""
    exprs = st.one_of(*_leaves().values())
    selects = _query_parts(exprs, None)[ast.SelectStmt]
    builders: dict = {}
    for _level in range(depth):
        builders = {**_leaves(), **_composites(exprs, selects),
                    **_query_parts(exprs, selects)}
        exprs = st.one_of(*_leaves().values(),
                          *_composites(exprs, selects).values())
        selects = builders[ast.SelectStmt]
    builders.update(_statements(exprs, selects))
    return builders


_BUILDERS = _trees(3)


def test_the_strategy_covers_every_node_class():
    assert set(_BUILDERS) == set(ast.CHILD_FIELDS)


@seed(SEED)
@_SETTINGS
@given(st.one_of(*_BUILDERS.values()))
def test_walkers_agree_on_generated_trees(tree):
    _check_tree(tree)


# -- the loader's statements -----------------------------------------------------------------


def _loader_statements() -> list[str]:
    statements = []
    sources = [(UNIVERSITY_DTD, SAMPLE_DOCUMENT), *CORPUS.values()]
    for dtd, document in sources:
        tool = XML2Oracle()
        schema = tool.register_schema(dtd)
        statements += split_statements(schema.script.text)
        statements += tool.store(parse(document)).load_result.statements
    return statements


#: corners the generated trees reach only now and then
_CORNERS = [
    "SELECT SUM(COUNT(t.a)), MAX(t.b) + COUNT(*) FROM t GROUP BY t.c",
    "SELECT t.a FROM t WHERE t.x.y.z IN (1, 2) AND t.b LIKE t.c.d.e",
    "SELECT CASE WHEN t.a = 1 THEN DEREF(t.ref).x END FROM t"
    " WHERE CAST(t.p.q.r AS NUMBER) BETWEEN t.a AND t.b.c.d",
    "SELECT t.a FROM t WHERE t.ref.x IN (SELECT s.a FROM s"
    " WHERE s.b = t.ref.y) OR EXISTS (SELECT 1 FROM u)",
    "SELECT t.a FROM t WHERE (t.a = 1 AND t.b = 2) AND (t.c = 3 AND"
    " (t.d = 4 OR t.e = 5)) GROUP BY t.b HAVING SUM(t.a) > 1 AND t.b = 2",
    "UPDATE t SET a = (SELECT MAX(s.a) FROM s) WHERE t.a IN (1, 2)",
    "INSERT INTO t SELECT * FROM (SELECT s.a FROM s, TABLE(s.c) c)",
    "EXPLAIN DELETE FROM t WHERE NOT t.a = -t.b OR t.c IS NULL",
]


@pytest.mark.parametrize("sql", _CORNERS + _loader_statements())
def test_walkers_agree_on_statements(sql):
    _check_tree(parse_statement(sql))


# -- EXPLAIN's expression text parses back ------------------------------------------------

_spelled_leaves = st.one_of(
    st.builds(ast.Literal, st.none() | st.integers(0, 99)
              | st.text("a'b", max_size=3)),
    st.builds(ast.DateLiteral, st.just("2001-02-03")),
    st.builds(ast.ColumnPath, _tuples(st.sampled_from(["t", "a"]), 2, 3)),
)


def _spelled_composites(e):
    """Every expression node ``render_expr`` spells out in full."""
    return st.one_of(
        st.builds(ast.BinaryOp, st.sampled_from(
            ["OR", "AND", "=", "<>", "<", "<=", ">", ">=", "+", "-",
             "||", "*", "/"]), e, e),
        st.builds(ast.UnaryOp, st.sampled_from(["NOT", "-"]), e),
        st.builds(ast.IsNull, e, st.booleans()),
        st.builds(ast.Like, e, e, st.booleans(), st.none() | e),
        st.builds(ast.Between, e, e, e, st.booleans()),
        st.builds(ast.InList, e, _tuples(e, 1), st.booleans()),
        st.builds(ast.FunctionCall, st.just("ABS"), _tuples(e, 1, 2),
                  st.just(False)),
    )


def _left_leaning(node):
    """*node* grouped as the parser groups its rendering: each AND/OR
    chain leans left."""
    def lean(node):
        if isinstance(node, ast.BinaryOp) and node.operator in ("AND",
                                                                "OR"):
            operator = node.operator
            operands = ast.flatten(node, operator)
            node = operands[0]
            for operand in operands[1:]:
                node = ast.BinaryOp(operator, node, operand)
        return node
    return _rebuilt(node, lean)


@seed(SEED)
@_SETTINGS
@given(st.recursive(_spelled_leaves, _spelled_composites, max_leaves=12))
def test_rendered_expressions_parse_back(expression):
    """Parentheses where an operand binds more loosely than its place
    needs, doubled quotes in string literals: the text says exactly
    what the tree says (AND/OR chains print flat, and re-parse
    leaning left)."""
    rendered = render_expr(expression)
    parsed = parse_statement(f"SELECT {rendered} FROM t").items[0]
    assert parsed.expression == _left_leaning(expression), rendered


@pytest.mark.parametrize("sql, rendered", [
    ("t.a * (t.a + 1) = 2", "t.a * (t.a + 1) = 2"),
    ("t.a - (t.a - 1)", "t.a - (t.a - 1)"),
    ("'O''Brien'", "'O''Brien'"),
    ("NOT (t.a = 1 OR t.b = 2) AND (t.c OR t.d)",
     "NOT (t.a = 1 OR t.b = 2) AND (t.c OR t.d)"),
    ("(((t.a - t.b) - t.c))", "t.a - t.b - t.c"),
])
def test_rendered_expression_goldens(sql, rendered):
    statement = parse_statement(f"SELECT {sql} FROM t")
    assert render_expr(statement.items[0].expression) == rendered


# -- AND / OR evaluation ------------------------------------------------------------------------


class _Tracing:
    """Records the literals an evaluation reads, in order."""

    def _eval_Literal(self, expression, env):
        self.trace.append(expression.value)
        return expression.value


class _New(_Tracing, Evaluator):
    pass


class _Old(_Tracing, ref.Evaluator):
    pass


#: a comparison that is TRUE, FALSE or UNKNOWN, told apart by its key
_truths = st.builds(
    lambda key, truth: ast.BinaryOp(
        "=", ast.Literal(key),
        ast.Literal({"T": key, "F": -key - 1, "N": None}[truth])),
    st.integers(0, 99), st.sampled_from("TFN"))
_conditions = st.recursive(_truths, lambda c: st.one_of(
    st.builds(ast.BinaryOp, st.sampled_from(["AND", "OR"]), c, c),
    st.builds(ast.UnaryOp, st.just("NOT"), c)), max_leaves=24)


@seed(SEED)
@_SETTINGS
@given(_conditions)
def test_and_or_evaluate_as_before(condition):
    """Same three-valued answer, and the same operands read in the
    same order: the unrolled chain short-circuits where the binary
    recursion did."""
    engine = SimpleNamespace(catalog=None)
    new, old = _New(engine), _Old(engine)
    new.trace, old.trace = [], []
    assert repr(new.eval(condition, EMPTY_ENV)) == \
        repr(old.eval(condition, EMPTY_ENV))
    assert new.trace == old.trace
