"""Reference copies of the SQL-tree walkers the one ``ast.walk``
replaced (frozen).

Each function below enumerated AST children its own way: field
annotations that mention ``Expr``, ``dataclasses.fields`` on every
visit, or an isinstance ladder.  Nine of them recurse, so a deep tree
ends in a RecursionError here; the differential in
``tests/parsers/test_walkers.py`` feeds both sides trees shallow
enough for these copies.  ``Evaluator`` keeps the binary AND/OR
evaluation that ``ast.flatten`` replaced.
"""

from __future__ import annotations

import dataclasses
from typing import Iterator

from repro.ordb import identifiers
from repro.ordb.datatypes import RefType
from repro.ordb.expressions import AGGREGATE_FUNCTIONS
from repro.ordb.expressions import Evaluator as _Evaluator
from repro.ordb.schema import Table
from repro.ordb.sql import ast

#: AST nodes that embed a subquery — a scatter-gathered SELECT must
#: not contain one (the inner query would see only each shard's rows).
_SUBQUERY_NODES = (ast.InSubquery, ast.Exists, ast.ScalarSubquery,
                   ast.CastMultiset, ast.SubqueryRef)

#: per expression node type, its fields that hold expressions (going
#: by their annotations), last first; leaves map to ()
_EXPRESSION_FIELDS = {
    node_type: tuple(field.name
                     for field in reversed(dataclasses.fields(node_type))
                     if "Expr" in field.type)
    for node_type in ast.Expr.__subclasses__()}



def sub_expressions(node: ast.Expr) -> list[ast.Expr]:
    """The expressions directly under *node*, left to right
    (subqueries are opaque: a SELECT is not an expression)."""
    found: list[ast.Expr] = []
    pending = [getattr(node, name)
               for name in _EXPRESSION_FIELDS[type(node)]]
    while pending:
        value = pending.pop()
        if isinstance(value, ast.Expr):
            found.append(value)
        elif isinstance(value, tuple):
            pending.extend(reversed(value))
    return found


def is_aggregate(expression: ast.Expr) -> bool:
    return (isinstance(expression, ast.FunctionCall)
            and expression.name.upper() in AGGREGATE_FUNCTIONS)


def contains_aggregate(expression: ast.Expr) -> bool:
    """True if *expression* contains an aggregate function call."""
    return is_aggregate(expression) or any(
        contains_aggregate(child)
        for child in sub_expressions(expression))


def collect_aggregates(expression: ast.Expr,
                       out: list[ast.FunctionCall]) -> None:
    """Collect aggregate call nodes in *expression* into *out*."""
    if not is_aggregate(expression):
        for child in sub_expressions(expression):
            collect_aggregates(child, out)
    elif expression not in out:
        out.append(expression)


def _child_expressions(expression: ast.Expr):
    """Immediate sub-expressions, for generic tree walks."""
    if isinstance(expression, ast.BinaryOp):
        return (expression.left, expression.right)
    if isinstance(expression, ast.UnaryOp):
        return (expression.operand,)
    if isinstance(expression, ast.IsNull):
        return (expression.operand,)
    if isinstance(expression, ast.Like):
        if expression.escape is not None:
            return (expression.operand, expression.pattern,
                    expression.escape)
        return (expression.operand, expression.pattern)
    if isinstance(expression, ast.Between):
        return (expression.operand, expression.low, expression.high)
    if isinstance(expression, ast.InList):
        return (expression.operand, *expression.items)
    if isinstance(expression, ast.FunctionCall):
        return expression.arguments
    if isinstance(expression, ast.AttributeAccess):
        return (expression.base,)
    if isinstance(expression, ast.Cast):
        return (expression.operand,)
    if isinstance(expression, ast.CaseWhen):
        children = [sub for branch in expression.branches
                    for sub in branch]
        if expression.default is not None:
            children.append(expression.default)
        return tuple(children)
    return ()


def render_expr(expression: ast.Expr) -> str:
    """Compact SQL-ish rendering of an expression for plan lines."""
    if isinstance(expression, ast.Literal):
        if expression.value is None:
            return "NULL"
        if isinstance(expression.value, str):
            return f"'{expression.value}'"
        return str(expression.value)
    if isinstance(expression, ast.DateLiteral):
        return f"DATE '{expression.text}'"
    if isinstance(expression, ast.ColumnPath):
        return expression.source()
    if isinstance(expression, ast.Star):
        return (f"{expression.qualifier}.*"
                if expression.qualifier else "*")
    if isinstance(expression, ast.AttributeAccess):
        return f"{render_expr(expression.base)}.{expression.attribute}"
    if isinstance(expression, ast.FunctionCall):
        arguments = ", ".join(render_expr(argument)
                              for argument in expression.arguments)
        distinct = "DISTINCT " if expression.distinct else ""
        return f"{expression.name}({distinct}{arguments})"
    if isinstance(expression, ast.BinaryOp):
        return (f"{render_expr(expression.left)} {expression.operator}"
                f" {render_expr(expression.right)}")
    if isinstance(expression, ast.UnaryOp):
        return f"{expression.operator} {render_expr(expression.operand)}"
    if isinstance(expression, ast.IsNull):
        negated = "NOT " if expression.negated else ""
        return f"{render_expr(expression.operand)} IS {negated}NULL"
    if isinstance(expression, ast.Like):
        negated = "NOT " if expression.negated else ""
        rendered = (f"{render_expr(expression.operand)} {negated}LIKE"
                    f" {render_expr(expression.pattern)}")
        if expression.escape is not None:
            rendered += f" ESCAPE {render_expr(expression.escape)}"
        return rendered
    if isinstance(expression, ast.Between):
        negated = "NOT " if expression.negated else ""
        return (f"{render_expr(expression.operand)} {negated}BETWEEN"
                f" {render_expr(expression.low)} AND"
                f" {render_expr(expression.high)}")
    if isinstance(expression, ast.InList):
        negated = "NOT " if expression.negated else ""
        items = ", ".join(render_expr(item)
                          for item in expression.items)
        return f"{render_expr(expression.operand)} {negated}IN ({items})"
    if isinstance(expression, ast.InSubquery):
        negated = "NOT " if expression.negated else ""
        return (f"{render_expr(expression.operand)} {negated}IN"
                f" (SELECT ...)")
    if isinstance(expression, ast.Exists):
        return "EXISTS (SELECT ...)"
    if isinstance(expression, ast.ScalarSubquery):
        return "(SELECT ...)"
    if isinstance(expression, ast.CastMultiset):
        return f"CAST(MULTISET(SELECT ...) AS {expression.type_name})"
    if isinstance(expression, ast.Cast):
        return f"CAST({render_expr(expression.operand)} AS ...)"
    if isinstance(expression, ast.CaseWhen):
        return "CASE ... END"
    return type(expression).__name__  # pragma: no cover - safety net


def uses_dot_navigation(statement: ast.SelectStmt) -> bool:
    """True when the query navigates object attributes (Section 4.1)."""

    def probe(expression: ast.Expr) -> bool:
        if isinstance(expression, ast.ColumnPath):
            return len(expression.parts) > 2
        if isinstance(expression, ast.AttributeAccess):
            return True
        if isinstance(expression, ast.BinaryOp):
            return probe(expression.left) or probe(expression.right)
        if isinstance(expression, ast.UnaryOp):
            return probe(expression.operand)
        if isinstance(expression, (ast.IsNull, ast.Like, ast.Between)):
            return probe(expression.operand)
        if isinstance(expression, ast.FunctionCall):
            return any(probe(a) for a in expression.arguments)
        return False

    for item in statement.items:
        if not isinstance(item.expression, ast.Star) and probe(
                item.expression):
            return True
    return statement.where is not None and probe(statement.where)


def _walk(node: object) -> Iterator[object]:
    stack = [node]
    while stack:
        current = stack.pop()
        yield current
        if dataclasses.is_dataclass(current) and not isinstance(
                current, type):
            for field in dataclasses.fields(current):
                stack.append(getattr(current, field.name))
        elif isinstance(current, (tuple, list)):
            stack.extend(current)


def _has_subquery(statement: ast.SelectStmt) -> bool:
    return any(isinstance(node, _SUBQUERY_NODES)
               for node in _walk(statement))


def select_scans_vectors(statement: ast.SelectStmt) -> bool:
    """True when this SELECT itself (subqueries count when *they*
    execute) evaluates VECTOR_DISTANCE anywhere — the ``vector_scans``
    statistic."""
    expressions: list[ast.Expr] = [
        item.expression for item in statement.items
    ]
    if statement.where is not None:
        expressions.append(statement.where)
    if statement.having is not None:
        expressions.append(statement.having)
    expressions.extend(statement.group_by)
    expressions.extend(order.expression for order in statement.order_by)
    return any(_mentions_vector_distance(expression)
               for expression in expressions)


def _mentions_vector_distance(node: object) -> bool:
    if isinstance(node, ast.SelectStmt):
        return False  # counted when the subquery executes
    if isinstance(node, ast.FunctionCall):
        if node.name.upper() == "VECTOR_DISTANCE":
            return True
        return any(_mentions_vector_distance(argument)
                   for argument in node.arguments)
    if isinstance(node, (list, tuple)):
        return any(_mentions_vector_distance(item) for item in node)
    if dataclasses.is_dataclass(node) and not isinstance(node, type):
        return any(
            _mentions_vector_distance(getattr(node, field.name))
            for field in dataclasses.fields(node))
    return False


def _dereferences_ref(node: object, alias_key: str,
                      table: Table) -> bool:
    """True when evaluating *node* navigates through one of this
    table's REF columns (``alias.refcol.attr...``) — a hidden join
    the planner defers behind cheaper predicates."""
    if isinstance(node, ast.ColumnPath):
        if (len(node.parts) <= 2
                or identifiers.normalize(node.parts[0]) != alias_key):
            return False
        column = table.column(node.parts[1])
        return (column is not None
                and isinstance(column.datatype, RefType))
    if isinstance(node, (list, tuple)):
        return any(_dereferences_ref(item, alias_key, table)
                   for item in node)
    if dataclasses.is_dataclass(node) and not isinstance(node, type):
        return any(
            _dereferences_ref(getattr(node, field.name), alias_key,
                              table)
            for field in dataclasses.fields(node))
    return False


def _collect_table_refs(node: object, names: set[str]) -> None:
    """Collect every normalized ``TableRef`` name reachable from
    *node* — FROM items, subqueries (IN/EXISTS/scalar), CAST MULTISET
    and INSERT...SELECT sources alike.  The walk is generic over the
    frozen-dataclass AST so new node kinds are covered by default."""
    if isinstance(node, ast.TableRef):
        names.add(identifiers.normalize(node.name))
        return
    if isinstance(node, (tuple, list)):
        for item in node:
            _collect_table_refs(item, names)
        return
    if dataclasses.is_dataclass(node) and not isinstance(node, type):
        for field in dataclasses.fields(node):
            value = getattr(node, field.name)
            if value is None or isinstance(value,
                                           (str, int, float, bool)):
                continue
            _collect_table_refs(value, names)


def _split_conjuncts(expression: ast.Expr) -> list[ast.Expr]:
    """Flatten a WHERE tree into its top-level AND conjuncts."""
    if isinstance(expression, ast.BinaryOp) \
            and expression.operator == "AND":
        return (_split_conjuncts(expression.left)
                + _split_conjuncts(expression.right))
    return [expression]


def _analyze_references(expression: ast.Expr,
                        heads: set[str]) -> bool:
    """Collect qualified-path heads; False when the conjunct is not
    safe to push down (subqueries, unqualified columns, stars)."""
    if isinstance(expression, ast.ColumnPath):
        if len(expression.parts) < 2:
            return False  # unqualified name: resolve with full row
        heads.add(identifiers.normalize(expression.parts[0]))
        return True
    if isinstance(expression, (ast.Literal, ast.DateLiteral)):
        return True
    if isinstance(expression, ast.BinaryOp):
        return (_analyze_references(expression.left, heads)
                and _analyze_references(expression.right, heads))
    if isinstance(expression, ast.UnaryOp):
        return _analyze_references(expression.operand, heads)
    if isinstance(expression, ast.IsNull):
        return _analyze_references(expression.operand, heads)
    if isinstance(expression, ast.Like):
        return (_analyze_references(expression.operand, heads)
                and _analyze_references(expression.pattern, heads)
                and (expression.escape is None
                     or _analyze_references(expression.escape, heads)))
    if isinstance(expression, ast.Between):
        return (_analyze_references(expression.operand, heads)
                and _analyze_references(expression.low, heads)
                and _analyze_references(expression.high, heads))
    if isinstance(expression, ast.InList):
        return (_analyze_references(expression.operand, heads)
                and all(_analyze_references(item, heads)
                        for item in expression.items))
    if isinstance(expression, ast.AttributeAccess):
        return _analyze_references(expression.base, heads)
    if isinstance(expression, ast.FunctionCall):
        if expression.name.upper() in AGGREGATE_FUNCTIONS:
            return False
        return all(_analyze_references(argument, heads)
                   for argument in expression.arguments)
    if isinstance(expression, ast.CaseWhen):
        for condition, value in expression.branches:
            if not (_analyze_references(condition, heads)
                    and _analyze_references(value, heads)):
                return False
        return (expression.default is None
                or _analyze_references(expression.default, heads))
    # subqueries, EXISTS, CAST MULTISET, stars: not pushable
    return False


def _mentions_alias(expression: ast.Expr, alias_key: str) -> bool:
    """True when evaluating *expression* needs this table's row (or
    when we cannot tell: unknown node kinds count as mentions, which
    merely forfeits the probe, never correctness)."""
    if isinstance(expression, ast.ColumnPath):
        if len(expression.parts) < 2:
            return True  # unqualified: could resolve to this table
        return identifiers.normalize(expression.parts[0]) == alias_key
    if isinstance(expression, (ast.Literal, ast.DateLiteral)):
        return False
    if isinstance(expression, ast.BinaryOp):
        return (_mentions_alias(expression.left, alias_key)
                or _mentions_alias(expression.right, alias_key))
    if isinstance(expression, ast.UnaryOp):
        return _mentions_alias(expression.operand, alias_key)
    if isinstance(expression, ast.IsNull):
        return _mentions_alias(expression.operand, alias_key)
    if isinstance(expression, ast.Like):
        return (_mentions_alias(expression.operand, alias_key)
                or _mentions_alias(expression.pattern, alias_key)
                or (expression.escape is not None
                    and _mentions_alias(expression.escape, alias_key)))
    if isinstance(expression, ast.Between):
        return (_mentions_alias(expression.operand, alias_key)
                or _mentions_alias(expression.low, alias_key)
                or _mentions_alias(expression.high, alias_key))
    if isinstance(expression, ast.InList):
        return (_mentions_alias(expression.operand, alias_key)
                or any(_mentions_alias(item, alias_key)
                       for item in expression.items))
    if isinstance(expression, ast.FunctionCall):
        return any(_mentions_alias(argument, alias_key)
                   for argument in expression.arguments)
    if isinstance(expression, ast.AttributeAccess):
        return _mentions_alias(expression.base, alias_key)
    if isinstance(expression, ast.Cast):
        return _mentions_alias(expression.operand, alias_key)
    if isinstance(expression, ast.CaseWhen):
        for condition, value in expression.branches:
            if (_mentions_alias(condition, alias_key)
                    or _mentions_alias(value, alias_key)):
                return True
        return (expression.default is not None
                and _mentions_alias(expression.default, alias_key))
    # subqueries and anything unrecognized: assume dependence
    return True


class Evaluator(_Evaluator):
    """The evaluator with its old binary, recursive AND/OR."""

    def _eval_BinaryOp(self, expression: ast.BinaryOp, env) -> object:
        operator = expression.operator
        if operator == "AND":
            left = self.eval_predicate(expression.left, env)
            if left is False:
                return False
            right = self.eval_predicate(expression.right, env)
            if right is False:
                return False
            if left is None or right is None:
                return None
            return True
        if operator == "OR":
            left = self.eval_predicate(expression.left, env)
            if left is True:
                return True
            right = self.eval_predicate(expression.right, env)
            if right is True:
                return True
            if left is None or right is None:
                return None
            return False
        return super()._eval_BinaryOp(expression, env)
