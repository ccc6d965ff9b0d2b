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
            if node not in out:
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
        value = self.eval(expression, env)
        if value is None or isinstance(value, bool):
            return value
        raise TypeMismatch("expression is not a condition")

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
            decisive = operator == "OR"  # the value that settles it
            unknown = False
            for operand in self._operands(expression):
                value = self.eval_predicate(operand, env)
                if value is decisive:
                    return decisive
                unknown = unknown or value is None
            return None if unknown else not decisive
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
            value = self.eval_predicate(expression.operand, env)
            if value is None:
                return None
            return not value
        value = self.eval(expression.operand, env)
        if value is None:
            return None
        number = _as_number(value)
        return -number if expression.operator == "-" else number

    def _eval_IsNull(self, expression: ast.IsNull, env: Env) -> bool:
        value = self.eval(expression.operand, env)
        result = value is None
        return (not result) if expression.negated else result

    def _eval_Like(self, expression: ast.Like, env: Env) -> bool | None:
        value = self.eval(expression.operand, env)
        pattern = self.eval(expression.pattern, env)
        escape = (self.eval(expression.escape, env)
                  if expression.escape is not None else None)
        if value is None or pattern is None:
            return None
        if expression.escape is not None and escape is None:
            return None
        if not isinstance(value, str) or not isinstance(pattern, str):
            raise TypeMismatch("LIKE requires string operands")
        regex = _like_to_regex(pattern, escape)
        result = regex.fullmatch(value) is not None
        return (not result) if expression.negated else result

    def _eval_Between(self, expression: ast.Between,
                      env: Env) -> bool | None:
        value = self.eval(expression.operand, env)
        low = self.eval(expression.low, env)
        high = self.eval(expression.high, env)
        lower = _compare(">=", value, low)
        upper = _compare("<=", value, high)
        if lower is None or upper is None:
            return None
        result = lower and upper
        return (not result) if expression.negated else result

    def _eval_InList(self, expression: ast.InList, env: Env) -> bool | None:
        value = self.eval(expression.operand, env)
        saw_null = False
        for item in expression.items:
            candidate = self.eval(item, env)
            verdict = _compare("=", value, candidate)
            if verdict is True:
                return not expression.negated
            if verdict is None:
                saw_null = True
        if saw_null:
            return None
        return expression.negated

    def _eval_InSubquery(self, expression: ast.InSubquery,
                         env: Env) -> bool | None:
        value = self.eval(expression.operand, env)
        result = self.engine.execute_select(expression.query, env)
        saw_null = False
        for row in result.rows:
            verdict = _compare("=", value, row[0])
            if verdict is True:
                return not expression.negated
            if verdict is None:
                saw_null = True
        if saw_null:
            return None
        return expression.negated

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
        return self._scalar_function(name, expression, env)

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
                         env: Env) -> object:
        arguments = [self.eval(a, env) for a in expression.arguments]

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
            left, right = arg(0), arg(1)
            if left is None or right is None:
                return None
            return _as_number(left) % _as_number(right)
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


# -- scalar helpers -----------------------------------------------------------------


def _apply(operator: str, left: object, right: object) -> object:
    """The value of ``left <operator> right`` for a non-AND/OR
    operator."""
    if operator == "||":
        return _concat(left, right)
    if operator in ("=", "<>", "<", ">", "<=", ">="):
        return _compare(operator, left, right)
    if left is None or right is None:
        return None
    if operator in ("+", "-", "*", "/"):
        return _arithmetic(operator, left, right)
    raise NotSupported(f"operator {operator!r}")  # pragma: no cover


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


def _ordering(left: object, right: object) -> int | None:
    """-1/0/1 ordering; None when only (in)equality is defined."""
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
