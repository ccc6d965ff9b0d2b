"""Expression evaluation with SQL three-valued logic.

The evaluator interprets the expression ASTs of
:mod:`repro.ordb.sql.ast` against an environment of row bindings.
Predicates evaluate to ``True`` / ``False`` / ``None`` (UNKNOWN); the
paper's CHECK-constraint pitfall (Section 4.3) falls out of these
semantics naturally — see :class:`repro.ordb.constraints.CheckConstraint`.

Dot navigation implements the paper's headline query feature
(Section 4.1): a path like ``S.attrStudent.attrCourse.attrProfessor``
walks object attributes without joins, implicitly dereferencing REF
values on the way (Section 2.3).
"""

from __future__ import annotations

import datetime
import functools
import re
import threading
from decimal import Decimal

from . import identifiers
from .datatypes import NestedTableType, ObjectType, VarrayType
from .errors import (
    NoSuchColumn,
    NoSuchType,
    NotSupported,
    TypeMismatch,
)
from .schema import Table
from .sql import ast
from .textindex import (
    contains_match,
    normalize_metric,
    parse_contains_query,
    vector_distance,
)
from .values import (
    CollectionValue,
    ObjectValue,
    RefValue,
    construct_collection,
    construct_object,
)

#: Aggregate function names recognized by the engine.
AGGREGATE_FUNCTIONS = frozenset({"COUNT", "SUM", "MIN", "MAX", "AVG"})


class Binding:
    """One FROM-item row visible under an alias."""

    __slots__ = ("alias_key", "columns", "table", "oid")

    def __init__(self, alias_key: str, columns: dict[str, object],
                 table: Table | None = None, oid: int | None = None):
        self.alias_key = alias_key
        self.columns = columns
        self.table = table
        self.oid = oid


class Env:
    """A scope of bindings, chained to outer scopes for correlation."""

    __slots__ = ("frames", "parent")

    def __init__(self, frames: list[Binding], parent: "Env | None" = None):
        self.frames = frames
        self.parent = parent

    def find_alias(self, alias_key: str) -> Binding | None:
        for frame in self.frames:
            if frame.alias_key == alias_key:
                return frame
        if self.parent is not None:
            return self.parent.find_alias(alias_key)
        return None

    def find_column(self, column_key: str) -> tuple[bool, object]:
        """Search unqualified column; returns (found, value)."""
        matches = [
            frame for frame in self.frames
            if column_key in frame.columns
        ]
        if len(matches) > 1:
            raise NoSuchColumn(
                f"column '{column_key}' is ambiguous")
        if matches:
            return True, matches[0].columns[column_key]
        if self.parent is not None:
            return self.parent.find_column(column_key)
        return False, None


EMPTY_ENV = Env([])


def sub_expressions(node: ast.Expr) -> list[ast.Expr]:
    """The expressions directly under *node*, left to right
    (subqueries are opaque: a SELECT is not an expression)."""
    found: list[ast.Expr] = []
    pending = [getattr(node, name)
               for name in ast.CHILD_FIELDS[type(node)]]
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
    return any(is_aggregate(node)
               for node in ast.walk(expression, ast.SelectStmt))


def collect_aggregates(expression: ast.Expr,
                       out: list[ast.FunctionCall]) -> None:
    """Collect aggregate call nodes in *expression* into *out* (the
    arguments of an aggregate are not searched)."""
    skip = 0  # the rest of the aggregate just collected, in walk order
    for node in ast.walk(expression, ast.SelectStmt):
        if skip:
            skip -= 1
        elif is_aggregate(node):
            skip = sum(1 for _ in ast.walk(node, ast.SelectStmt)) - 1
            if not any(ast.same(node, seen) for seen in out):
                out.append(node)


class Evaluator:
    """Evaluates expressions; subqueries are delegated to the engine."""

    def __init__(self, engine):
        self.engine = engine
        self.catalog = engine.catalog

    # -- dispatch ---------------------------------------------------------------

    def eval(self, expression: ast.Expr, env: Env) -> object:
        method = getattr(self, "_eval_" + type(expression).__name__, None)
        if method is None:  # pragma: no cover - defensive
            raise NotSupported(
                f"cannot evaluate {type(expression).__name__}")
        return method(expression, env)

    def eval_predicate(self, expression: ast.Expr, env: Env) -> bool | None:
        """Evaluate as a truth value: True, False or None (UNKNOWN)."""
        return _truth(self.eval(expression, env))

    # -- leaves ------------------------------------------------------------------

    def _eval_Literal(self, expression: ast.Literal, env: Env) -> object:
        return expression.value

    def _eval_DateLiteral(self, expression: ast.DateLiteral,
                          env: Env) -> datetime.date:
        try:
            return datetime.date.fromisoformat(expression.text.strip())
        except ValueError:
            raise TypeMismatch(
                f"bad DATE literal {expression.text!r}") from None

    def _eval_Star(self, expression: ast.Star, env: Env) -> object:
        raise NotSupported("'*' is only valid in a select list or"
                           " COUNT(*)")

    # -- paths --------------------------------------------------------------------

    def _eval_ColumnPath(self, expression: ast.ColumnPath,
                         env: Env) -> object:
        parts = expression.parts
        head_key = identifiers.normalize(parts[0])
        binding = env.find_alias(head_key)
        if binding is not None and len(parts) > 1:
            second = identifiers.normalize(parts[1])
            if second in binding.columns:
                value = binding.columns[second]
                return self._navigate(value, parts[2:], expression)
            raise NoSuchColumn(
                f"'{parts[1]}' is not a column of '{parts[0]}'")
        found, value = env.find_column(head_key)
        if found:
            return self._navigate(value, parts[1:], expression)
        if binding is not None:
            raise NoSuchColumn(
                f"'{parts[0]}' names a row alias, not a value")
        if len(parts) == 1 and head_key == "SYSDATE":
            return datetime.date.today()
        raise NoSuchColumn(f"invalid identifier '{expression.source()}'")

    def _navigate(self, value: object, attributes: tuple[str, ...],
                  expression: ast.ColumnPath) -> object:
        for attribute in attributes:
            value = self._access(value, attribute, expression.source())
            if value is None and attribute is not attributes[-1]:
                # NULL propagates through the rest of the path
                return None
        return value

    def _access(self, value: object, attribute: str,
                source: str) -> object:
        if value is None:
            return None
        if isinstance(value, RefValue):
            value = self.engine.dereference(value)
            if value is None:
                return None
        if isinstance(value, ObjectValue):
            return value.get(attribute)
        if isinstance(value, CollectionValue):
            raise TypeMismatch(
                f"cannot navigate into collection in '{source}';"
                f" use TABLE(...) to unnest")
        raise TypeMismatch(
            f"cannot access attribute '{attribute}' of a scalar in"
            f" '{source}'")

    def _eval_AttributeAccess(self, expression: ast.AttributeAccess,
                              env: Env) -> object:
        base = self.eval(expression.base, env)
        return self._access(base, expression.attribute, "expression")

    # -- operators ------------------------------------------------------------------

    def _eval_BinaryOp(self, expression: ast.BinaryOp, env: Env) -> object:
        operator = expression.operator
        if operator == "AND" or operator == "OR":
            return _connective(operator == "OR", (
                self.eval_predicate(operand, env)
                for operand in self._operands(expression)))
        left = expression.left
        if type(left) is not ast.BinaryOp:
            return _apply(operator, self.eval(left, env),
                          self.eval(expression.right, env))
        # a left-deep chain (a + b + c ...) folds left to right in a
        # loop, so its length costs no Python stack
        spine = [expression]
        while (type(left) is ast.BinaryOp and left.operator != "AND"
               and left.operator != "OR" and not self._known(left)):
            spine.append(left)
            left = left.left
        value = self.eval(left, env)
        for node in reversed(spine):
            value = _apply(node.operator, value,
                           self.eval(node.right, env))
        return value

    def _operands(self, expression: ast.BinaryOp) -> list[ast.Expr]:
        """What an AND/OR evaluates, left to right: the whole chain."""
        return ast.flatten(expression, expression.operator)

    def _known(self, expression: ast.Expr) -> bool:
        """True when *expression* already has a value, so a chain walk
        must stop there and ask :meth:`eval` for it."""
        return False

    def _eval_UnaryOp(self, expression: ast.UnaryOp, env: Env) -> object:
        if expression.operator == "NOT":
            return _not(self.eval_predicate(expression.operand, env))
        return _sign(expression.operator == "-",
                     self.eval(expression.operand, env))

    def _eval_IsNull(self, expression: ast.IsNull, env: Env) -> bool:
        value = self.eval(expression.operand, env)
        return (value is None) is not expression.negated

    def _eval_Like(self, expression: ast.Like, env: Env) -> bool | None:
        value = self.eval(expression.operand, env)
        pattern = self.eval(expression.pattern, env)
        escape = (self.eval(expression.escape, env)
                  if expression.escape is not None else None)
        return _like(expression, value, pattern, escape)

    def _eval_Between(self, expression: ast.Between,
                      env: Env) -> bool | None:
        return _between(expression.negated,
                        self.eval(expression.operand, env),
                        self.eval(expression.low, env),
                        self.eval(expression.high, env))

    def _eval_InList(self, expression: ast.InList, env: Env) -> bool | None:
        return _member(expression.negated,
                       self.eval(expression.operand, env),
                       (self.eval(item, env) for item in expression.items))

    def _eval_InSubquery(self, expression: ast.InSubquery,
                         env: Env) -> bool | None:
        value = self.eval(expression.operand, env)
        result = self.engine.execute_select(expression.query, env)
        return _member(expression.negated, value,
                       (row[0] for row in result.rows))

    def _eval_Exists(self, expression: ast.Exists, env: Env) -> bool:
        result = self.engine.execute_select(expression.query, env,
                                            limit=1)
        return bool(result.rows)

    def _eval_ScalarSubquery(self, expression: ast.ScalarSubquery,
                             env: Env) -> object:
        result = self.engine.execute_select(expression.query, env)
        if not result.rows:
            return None
        if len(result.rows) > 1:
            raise NotSupported(
                "single-row subquery returns more than one row")
        return result.rows[0][0]

    def _eval_CastMultiset(self, expression: ast.CastMultiset,
                           env: Env) -> CollectionValue:
        collection_type = self.catalog.resolve_type(expression.type_name)
        if not isinstance(collection_type, (VarrayType, NestedTableType)):
            raise NoSuchType(
                f"'{expression.type_name}' is not a collection type")
        result = self.engine.execute_select(expression.query, env)
        items = [row[0] for row in result.rows]
        return construct_collection(
            collection_type, items, self.catalog.resolve_type)

    def _eval_Cast(self, expression: ast.Cast, env: Env) -> object:
        value = self.eval(expression.operand, env)
        datatype = self.catalog.datatype_from_ref(expression.type_ref)
        if value is None:
            return None
        coerce = getattr(datatype, "coerce", None)
        if coerce is None:
            raise NotSupported(
                f"CAST to {datatype.sql_name()} is not supported")
        return coerce(value)

    def _eval_CaseWhen(self, expression: ast.CaseWhen, env: Env) -> object:
        for condition, value in expression.branches:
            if self.eval_predicate(condition, env) is True:
                return self.eval(value, env)
        if expression.default is not None:
            return self.eval(expression.default, env)
        return None

    # -- functions -------------------------------------------------------------------

    def _eval_FunctionCall(self, expression: ast.FunctionCall,
                           env: Env) -> object:
        name = expression.name.upper()
        if name in AGGREGATE_FUNCTIONS:
            # repro.ordb.select substitutes finished aggregates before
            # a select list or HAVING reaches this evaluator
            raise NotSupported(
                f"aggregate {name} not allowed in this context")
        if name == "REF":
            return self._ref_of(expression, env, want_ref=True)
        if name == "VALUE":
            return self._ref_of(expression, env, want_ref=False)
        if name == "DEREF":
            value = self._single_argument(expression, env)
            if value is None:
                return None
            if not isinstance(value, RefValue):
                raise TypeMismatch("DEREF requires a REF argument")
            return self.engine.dereference(value)
        if name == "CONTAINS":
            return self._contains(expression, env)
        if name == "VECTOR_DISTANCE":
            return self._vector_distance(expression, env)
        # type constructor?
        try:
            datatype = self.catalog.resolve_type(expression.name)
        except NoSuchType:
            datatype = None
        if isinstance(datatype, ObjectType):
            arguments = [self.eval(a, env) for a in expression.arguments]
            return construct_object(datatype, arguments,
                                    self.catalog.resolve_type)
        if isinstance(datatype, (VarrayType, NestedTableType)):
            arguments = [self.eval(a, env) for a in expression.arguments]
            return construct_collection(datatype, arguments,
                                        self.catalog.resolve_type)
        return self._scalar_function(
            name, expression, [self.eval(a, env) for a in expression.arguments])

    def _ref_of(self, expression: ast.FunctionCall, env: Env,
                want_ref: bool) -> object:
        if (len(expression.arguments) != 1
                or not isinstance(expression.arguments[0],
                                  ast.ColumnPath)):
            raise NotSupported("REF/VALUE take a single row alias")
        path = expression.arguments[0]
        if len(path.parts) != 1:
            raise NotSupported("REF/VALUE take a single row alias")
        binding = env.find_alias(identifiers.normalize(path.parts[0]))
        if binding is None or binding.table is None:
            raise NoSuchColumn(
                f"'{path.parts[0]}' is not a row alias of an object"
                f" table")
        if not binding.table.is_object_table or binding.oid is None:
            raise TypeMismatch(
                f"table '{binding.table.name}' is not an object table")
        if want_ref:
            return RefValue(binding.oid, binding.table.key,
                            binding.table.of_type)
        object_type = self.catalog.object_type(binding.table.of_type)
        return ObjectValue(object_type.name, {
            attribute.key: binding.columns.get(attribute.key)
            for attribute in object_type.attributes
        })

    def _contains(self, expression: ast.FunctionCall,
                  env: Env) -> bool | None:
        """``CONTAINS(col, 'w1 AND w2 OR w3')`` — case-insensitive
        word search with three-valued logic (NULL text or NULL query
        is UNKNOWN)."""
        if len(expression.arguments) != 2:
            raise NotSupported("CONTAINS takes (column, 'query')")
        value = self.eval(expression.arguments[0], env)
        query = self.eval(expression.arguments[1], env)
        if query is None:
            return None
        return contains_match(value, parse_contains_query(query))

    def _vector_distance(self, expression: ast.FunctionCall,
                         env: Env) -> float | None:
        """``VECTOR_DISTANCE(a, b [, COSINE | EUCLIDEAN])``.

        The metric is syntax, not a value: a bare identifier (or a
        string literal) resolved before the operands are evaluated.
        """
        arguments = expression.arguments
        if len(arguments) not in (2, 3):
            raise NotSupported(
                "VECTOR_DISTANCE takes (vector, vector [, metric])")
        metric = "COSINE"
        if len(arguments) == 3:
            metric_node = arguments[2]
            if (isinstance(metric_node, ast.ColumnPath)
                    and len(metric_node.parts) == 1):
                metric = normalize_metric(metric_node.parts[0])
            elif (isinstance(metric_node, ast.Literal)
                    and isinstance(metric_node.value, str)):
                metric = normalize_metric(metric_node.value)
            else:
                raise NotSupported(
                    "VECTOR_DISTANCE metric must be COSINE or"
                    " EUCLIDEAN")
        left = self.eval(arguments[0], env)
        right = self.eval(arguments[1], env)
        if left is None or right is None:
            return None
        return vector_distance(left, right, metric)

    def _single_argument(self, expression: ast.FunctionCall,
                         env: Env) -> object:
        if len(expression.arguments) != 1:
            raise NotSupported(
                f"{expression.name} takes exactly one argument")
        return self.eval(expression.arguments[0], env)

    def _scalar_function(self, name: str, expression: ast.FunctionCall,
                         arguments: list[object]) -> object:
        def arg(index: int) -> object:
            if index >= len(arguments):
                raise NotSupported(
                    f"{name} missing argument {index + 1}")
            return arguments[index]

        if name == "NVL":
            return arg(1) if arg(0) is None else arg(0)
        if name == "COALESCE":
            for value in arguments:
                if value is not None:
                    return value
            return None
        if name == "UPPER":
            value = arg(0)
            return None if value is None else str(value).upper()
        if name == "LOWER":
            value = arg(0)
            return None if value is None else str(value).lower()
        if name == "LENGTH":
            value = arg(0)
            return None if value is None else len(str(value))
        if name == "TRIM":
            value = arg(0)
            return None if value is None else str(value).strip()
        if name == "SUBSTR":
            value = arg(0)
            if value is None:
                return None
            text = str(value)
            start = int(_as_number(arg(1)))
            begin = start - 1 if start > 0 else len(text) + start
            if len(arguments) > 2:
                length = int(_as_number(arg(2)))
                return text[begin:begin + length]
            return text[begin:]
        if name == "CONCAT":
            return _concat(arg(0), arg(1))
        if name == "ABS":
            value = arg(0)
            return None if value is None else abs(_as_number(value))
        if name == "MOD":
            if len(arguments) != 2:
                raise NotSupported("MOD takes exactly two arguments")
            return _mod(*arguments)
        if name == "ROUND":
            value = arg(0)
            if value is None:
                return None
            digits = int(_as_number(arg(1))) if len(arguments) > 1 else 0
            return round(_as_number(value), digits)
        if name == "TO_CHAR":
            value = arg(0)
            if value is None:
                return None
            if isinstance(value, Decimal):
                return format(value.normalize(), "f")
            return str(value)
        if name == "TO_NUMBER":
            value = arg(0)
            return None if value is None else _as_number(value)
        if name == "CARDINALITY":
            value = arg(0)
            if value is None:
                return None
            if not isinstance(value, CollectionValue):
                raise TypeMismatch("CARDINALITY requires a collection")
            return len(value)
        raise NotSupported(f"unknown function {expression.name!r}")


# -- compiled expressions ---------------------------------------------------------------


class _NeedsRow(Exception):
    """A closure over one level's columns dict met a node that needs
    the whole row: the level checks its bindings instead."""


#: node kinds whose value is always TRUE, FALSE or NULL, so a compiled
#: condition needs no check that it is one
_CONDITIONS = (ast.IsNull, ast.Like, ast.Between, ast.InList,
               ast.InSubquery, ast.Exists)
_LOGICAL = frozenset({"AND", "OR", "NOT", "=", "<>", "<", ">", "<=",
                      ">="})
#: functions the compiler leaves to :meth:`Evaluator.eval`
_INTERPRETED_FUNCTIONS = AGGREGATE_FUNCTIONS | {
    "REF", "VALUE", "DEREF", "CONTAINS", "VECTOR_DISTANCE"}


def _is_condition(expression: ast.Expr) -> bool:
    return isinstance(expression, _CONDITIONS) or (
        isinstance(expression, (ast.BinaryOp, ast.UnaryOp))
        and expression.operator in _LOGICAL)


class Compiler:
    """Compiles expressions into closures over resolved column slots.

    One compiler serves one execution of one statement.  *levels* are
    its FROM levels in order, each a :class:`~.planner.LevelPlan`
    whose ``alias_key`` its bindings carry and whose ``columns`` are
    None where they are known only once rows are read (views,
    subqueries, ``TABLE()``).  A column reference resolves once, to a
    level index and a normalized key, and its closure reads
    ``env.frames[level].columns[key]``.  Operators run through the
    helpers :class:`Evaluator` uses (:func:`_apply`, :func:`_compare`,
    :func:`_like`, :meth:`Evaluator._scalar_function` ...), so each
    operator's semantics live in one place.  What does not compile —
    subqueries, constructors, ``REF()`` / ``VALUE()`` / ``DEREF()``,
    ``CONTAINS``, ``CAST``, ``*`` and any reference that does not
    resolve (an outer or unknown column) — becomes a closure around
    :meth:`Evaluator.eval`, so it raises where and what it raises
    interpreted.  Compiling never raises.
    """

    def __init__(self, evaluator: Evaluator, levels: list,
                 outer_env: Env | None = None):
        self.evaluator = evaluator
        self.levels = levels
        self.outer_env = outer_env
        #: how many levels the closures' rows bind, and the level whose
        #: columns dict they get instead of an Env (None: an Env)
        self._bound = len(levels)
        self._single: int | None = None

    def compile(self, expression: ast.Expr, bound: int | None = None):
        """``f(env)``: *expression* over a row binding the first
        *bound* levels (all of them by default)."""
        self._bound = len(self.levels) if bound is None else bound
        self._single = None
        return self._node(expression)

    def predicate(self, expression: ast.Expr, bound: int | None = None):
        """As :meth:`compile`, for a condition: like
        :meth:`Evaluator.eval_predicate`, its closure raises
        TypeMismatch on a value that is not a truth value."""
        test = self.compile(expression, bound)
        return test if _is_condition(expression) else _checked(test)

    def level_filter(self, conjuncts: list[ast.Expr], level: int):
        """``f(columns)`` over the candidate columns dict of *level*:
        True when every conjunct is TRUE, so a row it rejects needs no
        Binding or Env.  None when a conjunct reads another level or
        needs :meth:`Evaluator.eval`."""
        self._bound, self._single = level + 1, level
        tests = []
        try:
            for conjunct in conjuncts:
                test = self._node(conjunct)
                tests.append(test if _is_condition(conjunct)
                             else _checked(test))
        except _NeedsRow:
            return None
        finally:
            self._single = None
        if len(tests) == 1:
            return tests[0]

        def accept(columns: dict) -> bool:
            for test in tests:
                if test(columns) is not True:
                    return False
            return True
        return accept

    # -- nodes -----------------------------------------------------------------------

    def _node(self, expression: ast.Expr):
        method = getattr(self, "_c_" + type(expression).__name__, None)
        if method is None:
            return self._interpreted(expression)
        return method(expression)

    def _interpreted(self, expression: ast.Expr):
        if self._single is not None:
            raise _NeedsRow
        return functools.partial(self.evaluator.eval, expression)

    def _c_Literal(self, expression: ast.Literal):
        value = expression.value
        return lambda row: value

    def _c_DateLiteral(self, expression: ast.DateLiteral):
        try:
            value = self.evaluator._eval_DateLiteral(expression, EMPTY_ENV)
        except TypeMismatch:  # raised per row, as interpreted
            return self._interpreted(expression)
        return lambda row: value

    def _c_ColumnPath(self, expression: ast.ColumnPath):
        parts = expression.parts
        head = identifiers.normalize(parts[0])
        level = next((index for index in range(self._bound)
                      if self.levels[index].alias_key == head), None)
        if level is not None and len(parts) > 1:
            key, rest = identifiers.normalize(parts[1]), parts[2:]
        elif level is None and (self.outer_env is None
                                or self.outer_env.find_alias(head) is None):
            level, key, rest = self._column_level(head), head, parts[1:]
        else:
            level = None
        if level is None:
            return self._interpreted(expression)
        read = self._slot(level, key, expression)
        if not rest:
            return read
        navigate = self.evaluator._navigate
        return lambda row: navigate(read(row), rest, expression)

    def _column_level(self, key: str) -> int | None:
        """The one bound level with a column *key*, else None (none,
        several, or a level whose columns are not known yet)."""
        columns = [level.columns for level in self.levels[:self._bound]]
        if any(keys is None for keys in columns):
            return None
        found = [index for index, keys in enumerate(columns)
                 if key in keys]
        return found[0] if len(found) == 1 else None

    def _slot(self, level: int, key: str, expression: ast.ColumnPath):
        # a key the level's rows lack raises what Evaluator.eval does
        evaluate = self.evaluator.eval
        if self._single is None:
            def read(env: Env) -> object:
                try:
                    return env.frames[level].columns[key]
                except KeyError:
                    return evaluate(expression, env)
            return read
        if level != self._single:
            raise _NeedsRow
        alias = self.levels[level].alias_key

        def read_columns(columns: dict) -> object:
            try:
                return columns[key]
            except KeyError:
                return evaluate(expression, Env([Binding(alias, columns)]))
        return read_columns

    def _c_AttributeAccess(self, expression: ast.AttributeAccess):
        base = self._node(expression.base)
        access, attribute = self.evaluator._access, expression.attribute
        return lambda row: access(base(row), attribute, "expression")

    def _c_BinaryOp(self, expression: ast.BinaryOp):
        operator = expression.operator
        if operator == "AND" or operator == "OR":
            return self._logical(expression)
        # a left-deep chain (a + b + c ...) compiles and runs in a loop
        spine = [expression]
        left = expression.left
        while (type(left) is ast.BinaryOp and left.operator != "AND"
               and left.operator != "OR"):
            spine.append(left)
            left = left.left
        if any(node.operator not in _OPERATIONS for node in spine):
            return self._interpreted(expression)  # pragma: no cover
        first = self._node(left)
        steps = [(_OPERATIONS[node.operator], self._node(node.right))
                 for node in reversed(spine)]
        if len(steps) == 1:
            ((operation, right),) = steps
            return lambda row: operation(first(row), right(row))

        def chain(row) -> object:
            value = first(row)
            for operation, right in steps:
                value = operation(value, right(row))
            return value
        return chain

    def _logical(self, expression: ast.BinaryOp):
        decisive = expression.operator == "OR"
        operands = [self._node(operand) for operand
                    in ast.flatten(expression, expression.operator)]
        return lambda row: _connective(
            decisive, (_truth(operand(row)) for operand in operands))

    def _c_UnaryOp(self, expression: ast.UnaryOp):
        operand = self._node(expression.operand)
        if expression.operator == "NOT":
            return lambda row: _not(_truth(operand(row)))
        minus = expression.operator == "-"
        return lambda row: _sign(minus, operand(row))

    def _c_IsNull(self, expression: ast.IsNull):
        operand = self._node(expression.operand)
        negated = expression.negated
        return lambda row: (operand(row) is None) is not negated

    def _c_Like(self, expression: ast.Like):
        operand = self._node(expression.operand)
        pattern = self._node(expression.pattern)
        escape = (self._node(expression.escape)
                  if expression.escape is not None else _null)
        regex = None
        if isinstance(expression.pattern, ast.Literal) and isinstance(
                expression.pattern.value, str) and (
                expression.escape is None
                or isinstance(expression.escape, ast.Literal)):
            try:
                regex = _like_to_regex(
                    expression.pattern.value,
                    None if expression.escape is None
                    else expression.escape.value)
            except TypeMismatch:  # raised per row, as interpreted
                regex = None
        return lambda row: _like(expression, operand(row), pattern(row),
                                 escape(row), regex)

    def _c_Between(self, expression: ast.Between):
        operand = self._node(expression.operand)
        low = self._node(expression.low)
        high = self._node(expression.high)
        negated = expression.negated
        return lambda row: _between(negated, operand(row), low(row),
                                    high(row))

    def _c_InList(self, expression: ast.InList):
        operand = self._node(expression.operand)
        items = [self._node(item) for item in expression.items]
        negated = expression.negated
        return lambda row: _member(negated, operand(row),
                                   (item(row) for item in items))

    def _c_CaseWhen(self, expression: ast.CaseWhen):
        branches = [(self._node(condition), self._node(value))
                    for condition, value in expression.branches]
        default = (self._node(expression.default)
                   if expression.default is not None else _null)

        def case(row) -> object:
            for condition, value in branches:
                if _truth(condition(row)) is True:
                    return value(row)
            return default(row)
        return case

    def _c_FunctionCall(self, expression: ast.FunctionCall):
        name = expression.name.upper()
        if name in _INTERPRETED_FUNCTIONS:
            return self._interpreted(expression)
        try:
            self.evaluator.catalog.resolve_type(expression.name)
        except NoSuchType:  # not a constructor: a scalar function
            arguments = [self._node(argument)
                         for argument in expression.arguments]
            scalar = self.evaluator._scalar_function
            return lambda row: scalar(name, expression,
                                      [argument(row) for argument in arguments])
        return self._interpreted(expression)


def _null(row) -> None:
    return None


def _checked(test):
    """*test* with its value checked as a condition."""
    return lambda row: _truth(test(row))


# -- scalar helpers -----------------------------------------------------------------


def _apply(operator: str, left: object, right: object) -> object:
    """The value of ``left <operator> right`` for a non-AND/OR
    operator."""
    operation = _OPERATIONS.get(operator)
    if operation is None:  # pragma: no cover - the parser prevents it
        raise NotSupported(f"operator {operator!r}")
    return operation(left, right)


def _truth(value: object) -> bool | None:
    """*value* as a condition: True, False or None (UNKNOWN)."""
    if value is None or value is True or value is False:
        return value
    raise TypeMismatch("expression is not a condition")


def _connective(decisive: bool, truths) -> bool | None:
    """Three-valued AND (*decisive* False) or OR (*decisive* True) of
    the *truths*, read left to right and only until one settles it."""
    unknown = False
    for value in truths:
        if value is decisive:
            return decisive
        unknown = unknown or value is None
    return None if unknown else not decisive


def _not(value: bool | None) -> bool | None:
    return None if value is None else not value


def _sign(minus: bool, value: object) -> object:
    if value is None:
        return None
    number = _as_number(value)
    return -number if minus else number


def _between(negated: bool, value: object, low: object,
             high: object) -> bool | None:
    lower = _compare(">=", value, low)
    upper = _compare("<=", value, high)
    if lower is None or upper is None:
        return None
    return (lower and upper) is not negated


def _member(negated: bool, value: object, candidates) -> bool | None:
    """``value [NOT] IN (candidates)``: the candidates are read only
    until one equals *value*."""
    saw_null = False
    for candidate in candidates:
        verdict = _compare("=", value, candidate)
        if verdict is True:
            return not negated
        if verdict is None:
            saw_null = True
    return None if saw_null else negated


def _like(expression: ast.Like, value: object, pattern: object,
          escape: object, regex: re.Pattern[str] | None = None
          ) -> bool | None:
    """``value LIKE pattern [ESCAPE escape]`` for *expression*'s
    negation and ESCAPE clause; *regex* is the pattern already
    compiled, when it is a constant."""
    if value is None or pattern is None:
        return None
    if expression.escape is not None and escape is None:
        return None
    if not isinstance(value, str) or not isinstance(pattern, str):
        raise TypeMismatch("LIKE requires string operands")
    if regex is None:
        regex = _like_to_regex(pattern, escape)
    result = regex.fullmatch(value) is not None
    return (not result) if expression.negated else result


def _concat(left: object, right: object) -> str:
    left_text = "" if left is None else _to_display(left)
    right_text = "" if right is None else _to_display(right)
    return left_text + right_text


def _to_display(value: object) -> str:
    if isinstance(value, Decimal):
        return format(value.normalize(), "f")
    if isinstance(value, datetime.date):
        return value.isoformat()
    return str(value)


def _as_number(value: object) -> Decimal | int:
    if isinstance(value, bool):
        raise TypeMismatch("boolean is not a number")
    if isinstance(value, (int, Decimal)):
        return value
    if isinstance(value, float):
        return Decimal(str(value))
    if isinstance(value, str):
        try:
            return Decimal(value.strip())
        except ArithmeticError:
            raise TypeMismatch(f"invalid number {value!r}") from None
    raise TypeMismatch(f"{type(value).__name__} is not a number")


def _mod(left: object, right: object) -> Decimal | int | None:
    """Oracle's ``MOD``: the remainder takes the dividend's sign, and
    ``MOD(x, 0)`` is ``x``."""
    if left is None or right is None:
        return None
    dividend, divisor = _as_number(left), _as_number(right)
    if divisor == 0:
        return dividend
    if isinstance(dividend, int) and isinstance(divisor, int):
        remainder = abs(dividend) % abs(divisor)
        return -remainder if dividend < 0 else remainder
    return dividend % divisor  # a Decimal remainder keeps this sign


def _arithmetic(operator: str, left: object, right: object) -> object:
    a = _as_number(left)
    b = _as_number(right)
    if operator == "+":
        return a + b
    if operator == "-":
        return a - b
    if operator == "*":
        return a * b
    if b == 0:
        raise TypeMismatch("division by zero")
    return Decimal(a) / Decimal(b)


def _arithmetic_of(operator: str):
    def operation(left: object, right: object) -> object:
        if left is None or right is None:
            return None
        return _arithmetic(operator, left, right)
    return operation


def _compare(operator: str, left: object, right: object) -> bool | None:
    if left is None or right is None:
        return None
    ordering = _ordering(left, right)
    if operator == "=":
        return ordering == 0
    if operator == "<>":
        return ordering != 0
    if ordering is None:
        raise TypeMismatch("values are not comparable")
    if operator == "<":
        return ordering < 0
    if operator == ">":
        return ordering > 0
    if operator == "<=":
        return ordering <= 0
    return ordering >= 0


#: operator -> ``f(left, right)`` for every non-AND/OR binary operator
_OPERATIONS = {
    "||": _concat,
    **{operator: functools.partial(_compare, operator)
       for operator in ("=", "<>", "<", ">", "<=", ">=")},
    **{operator: _arithmetic_of(operator)
       for operator in ("+", "-", "*", "/")},
}


#: number types that order without conversion (bool is not one)
_PLAIN_NUMBERS = frozenset({int, Decimal})


def _ordering(left: object, right: object) -> int | None:
    """-1/0/1 ordering; None when only (in)equality is defined."""
    if type(left) in _PLAIN_NUMBERS and type(right) in _PLAIN_NUMBERS:
        return (left > right) - (left < right)
    if isinstance(left, (ObjectValue, CollectionValue, RefValue)) or \
            isinstance(right, (ObjectValue, CollectionValue, RefValue)):
        return 0 if left == right else None
    if isinstance(left, str) and isinstance(right, str):
        return (left > right) - (left < right)
    if isinstance(left, datetime.date) and isinstance(right, datetime.date):
        return (left > right) - (left < right)
    # numeric comparison with implicit string conversion, like Oracle
    try:
        a = _as_number(left)
        b = _as_number(right)
    except TypeMismatch:
        if isinstance(left, str) or isinstance(right, str):
            a_text, b_text = _to_display(left), _to_display(right)
            return (a_text > b_text) - (a_text < b_text)
        raise
    return (a > b) - (a < b)


#: Compiled LIKE patterns, keyed by (pattern, escape char).  LIKE is
#: evaluated once per candidate row, so recompiling the regex every
#: time turned a predicate into a per-row re.compile.  The dict is
#: kept in LRU order (hits reinsert their key) and evicts the single
#: oldest entry when full — a wholesale clear would throw away every
#: hot pattern just because a 513th distinct one showed up.  The lock
#: makes lookup/eviction safe for concurrent sessions; compilation
#: itself happens outside it.
_LIKE_CACHE: dict[tuple[str, str | None], re.Pattern[str]] = {}
_LIKE_CACHE_LIMIT = 512
_LIKE_CACHE_LOCK = threading.Lock()


def _like_to_regex(pattern: str,
                   escape: object = None) -> re.Pattern[str]:
    """Compile a LIKE *pattern* (memoized), honouring ``ESCAPE``.

    Oracle semantics: the escape character must be a single
    character (ORA-01425) and may only precede ``%``, ``_`` or
    itself (ORA-01424).
    """
    if escape is not None:
        if not isinstance(escape, str) or len(escape) != 1:
            raise TypeMismatch(
                "ORA-01425: escape character must be a character"
                " string of length 1")
    cache_key = (pattern, escape)
    with _LIKE_CACHE_LOCK:
        cached = _LIKE_CACHE.pop(cache_key, None)
        if cached is not None:
            _LIKE_CACHE[cache_key] = cached  # refresh recency
            return cached
    out: list[str] = []
    characters = iter(pattern)
    for ch in characters:
        if escape is not None and ch == escape:
            follower = next(characters, None)
            if follower not in ("%", "_", escape):
                raise TypeMismatch(
                    "ORA-01424: missing or illegal character"
                    " following the escape character")
            out.append(re.escape(follower))
        elif ch == "%":
            out.append(".*")
        elif ch == "_":
            out.append(".")
        else:
            out.append(re.escape(ch))
    compiled = re.compile("".join(out), re.DOTALL)
    with _LIKE_CACHE_LOCK:
        if cache_key not in _LIKE_CACHE:
            while len(_LIKE_CACHE) >= _LIKE_CACHE_LIMIT:
                _LIKE_CACHE.pop(next(iter(_LIKE_CACHE)))
            _LIKE_CACHE[cache_key] = compiled
    return compiled
