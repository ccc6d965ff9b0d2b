"""Abstract syntax trees for the SQL dialect.

Plain dataclasses, no behaviour: the parser builds them, the engine
and the expression evaluator interpret them.  The one traversal over
them is :func:`walk`, driven by the :data:`CHILD_FIELDS` table.
"""

from __future__ import annotations

import dataclasses
import re
from dataclasses import dataclass
from decimal import Decimal
from typing import Iterator


# ---------------------------------------------------------------------------
# type references (appear in DDL)
# ---------------------------------------------------------------------------


class TypeRef:
    """Base class for a type mention in DDL."""


@dataclass(frozen=True)
class ScalarTypeRef(TypeRef):
    """A built-in scalar: VARCHAR2(4000), NUMBER(10,2), DATE, ..."""

    keyword: str
    parameters: tuple[int, ...] = ()


@dataclass(frozen=True)
class NamedTypeRef(TypeRef):
    """A user-defined type mentioned by name."""

    name: str


@dataclass(frozen=True)
class RefTypeRef(TypeRef):
    """``REF type_name``."""

    target: str


# ---------------------------------------------------------------------------
# expressions
# ---------------------------------------------------------------------------


class Expr:
    """Base class of all expression nodes."""


@dataclass(frozen=True)
class Literal(Expr):
    """A constant: string, number, date or NULL (value=None)."""

    value: str | int | Decimal | None


@dataclass(frozen=True)
class DateLiteral(Expr):
    """``DATE 'YYYY-MM-DD'``."""

    text: str


@dataclass(frozen=True)
class ColumnPath(Expr):
    """A dot-separated identifier chain: ``S.attrStudent.attrCourse``."""

    parts: tuple[str, ...]

    def source(self) -> str:
        return ".".join(self.parts)


@dataclass(frozen=True)
class Star(Expr):
    """``*`` in a select list or COUNT(*)."""

    qualifier: str | None = None


@dataclass(frozen=True)
class FunctionCall(Expr):
    """A function or type-constructor call."""

    name: str
    arguments: tuple[Expr, ...]
    distinct: bool = False


@dataclass(frozen=True)
class AttributeAccess(Expr):
    """Postfix ``.name`` on a non-path expression, e.g. ``DEREF(r).x``."""

    base: Expr
    attribute: str


@dataclass(frozen=True)
class BinaryOp(Expr):
    """Arithmetic, comparison, logical or concatenation operator."""

    operator: str
    left: Expr
    right: Expr


@dataclass(frozen=True)
class UnaryOp(Expr):
    """Unary ``-``, ``+`` or ``NOT``."""

    operator: str
    operand: Expr


@dataclass(frozen=True)
class IsNull(Expr):
    """``expr IS [NOT] NULL``."""

    operand: Expr
    negated: bool = False


@dataclass(frozen=True)
class Like(Expr):
    """``expr [NOT] LIKE pattern [ESCAPE escape_char]``."""

    operand: Expr
    pattern: Expr
    negated: bool = False
    escape: Expr | None = None


@dataclass(frozen=True)
class Between(Expr):
    """``expr [NOT] BETWEEN low AND high``."""

    operand: Expr
    low: Expr
    high: Expr
    negated: bool = False


@dataclass(frozen=True)
class InList(Expr):
    """``expr [NOT] IN (a, b, c)``."""

    operand: Expr
    items: tuple[Expr, ...]
    negated: bool = False


@dataclass(frozen=True)
class InSubquery(Expr):
    """``expr [NOT] IN (SELECT ...)``."""

    operand: Expr
    query: "SelectStmt"
    negated: bool = False


@dataclass(frozen=True)
class Exists(Expr):
    """``EXISTS (SELECT ...)``."""

    query: "SelectStmt"


@dataclass(frozen=True)
class ScalarSubquery(Expr):
    """A parenthesized subquery used as a value."""

    query: "SelectStmt"


@dataclass(frozen=True)
class CastMultiset(Expr):
    """``CAST (MULTISET (SELECT ...) AS collection_type)`` (Section 6.3)."""

    query: "SelectStmt"
    type_name: str


@dataclass(frozen=True)
class Cast(Expr):
    """``CAST (expr AS type)`` for scalars."""

    operand: Expr
    type_ref: TypeRef


@dataclass(frozen=True)
class CaseWhen(Expr):
    """Searched CASE expression."""

    branches: tuple[tuple[Expr, Expr], ...]
    default: Expr | None


# ---------------------------------------------------------------------------
# query structure
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SelectItem:
    expression: Expr
    alias: str | None = None


class FromItem:
    """Base class of FROM clause entries."""


@dataclass(frozen=True)
class TableRef(FromItem):
    """A table or view reference with optional alias."""

    name: str
    alias: str | None = None


@dataclass(frozen=True)
class SubqueryRef(FromItem):
    """``(SELECT ...) alias``."""

    query: "SelectStmt"
    alias: str | None = None


@dataclass(frozen=True)
class TableFunctionRef(FromItem):
    """``TABLE(collection_expr) alias`` — collection unnesting."""

    expression: Expr
    alias: str | None = None


@dataclass(frozen=True)
class OrderItem:
    expression: Expr
    ascending: bool = True


@dataclass(frozen=True)
class SelectStmt:
    items: tuple[SelectItem, ...]
    from_items: tuple[FromItem, ...]
    where: Expr | None = None
    group_by: tuple[Expr, ...] = ()
    having: Expr | None = None
    order_by: tuple[OrderItem, ...] = ()
    distinct: bool = False
    #: ``FETCH FIRST n ROWS ONLY`` row limit (applied after ORDER BY)
    fetch_first: int | None = None


# ---------------------------------------------------------------------------
# DDL statements
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ColumnConstraint:
    """Inline column constraint in CREATE TABLE."""

    kind: str  # 'NOT NULL' | 'PRIMARY KEY' | 'UNIQUE'


@dataclass(frozen=True)
class ColumnDef:
    name: str
    type_ref: TypeRef
    constraints: tuple[ColumnConstraint, ...] = ()


@dataclass(frozen=True)
class TableConstraint:
    """Out-of-line constraint: CHECK / PRIMARY KEY / UNIQUE / SCOPE FOR."""

    kind: str
    name: str | None = None
    columns: tuple[str, ...] = ()
    expression: Expr | None = None
    expression_source: str | None = None
    scope_table: str | None = None


@dataclass(frozen=True)
class ObjectColumnSpec:
    """Per-attribute constraint line inside CREATE TABLE ... OF type."""

    column: str
    constraints: tuple[ColumnConstraint, ...]


@dataclass(frozen=True)
class NestedTableClause:
    """``NESTED TABLE column STORE AS storage_name``."""

    column: str
    storage_name: str


@dataclass(frozen=True)
class CreateTypeForward:
    """``CREATE TYPE name;`` — incomplete type (Section 6.2)."""

    name: str


@dataclass(frozen=True)
class CreateObjectType:
    name: str
    attributes: tuple[tuple[str, TypeRef], ...]
    or_replace: bool = False


@dataclass(frozen=True)
class CreateVarrayType:
    name: str
    limit: int
    element: TypeRef
    or_replace: bool = False


@dataclass(frozen=True)
class CreateNestedTableType:
    name: str
    element: TypeRef
    or_replace: bool = False


@dataclass(frozen=True)
class CreateTable:
    name: str
    columns: tuple[ColumnDef, ...] = ()
    constraints: tuple[TableConstraint, ...] = ()
    of_type: str | None = None
    object_specs: tuple[ObjectColumnSpec, ...] = ()
    nested_table_clauses: tuple[NestedTableClause, ...] = ()


@dataclass(frozen=True)
class CreateView:
    name: str
    query: SelectStmt
    column_names: tuple[str, ...] = ()
    or_replace: bool = False
    with_object_oid: tuple[str, ...] = ()


@dataclass(frozen=True)
class DropType:
    name: str
    force: bool = False


@dataclass(frozen=True)
class DropTable:
    name: str


@dataclass(frozen=True)
class DropView:
    name: str


@dataclass(frozen=True)
class CreateIndex:
    """``CREATE INDEX name ON table (column[.path], ...) [USING method]``.

    Each column is a dot-notation path tuple: ``("PRICE",)`` for a
    plain column, ``("ADDR", "CITY")`` for an attribute of an
    embedded object column.  ``using`` selects the index structure:
    None for the default sorted index, ``"FULLTEXT"`` for an inverted
    token index (serves CONTAINS), ``"TRIGRAM"`` for a trigram index
    (serves non-prefix LIKE).
    """

    name: str
    table: str
    columns: tuple[tuple[str, ...], ...]
    unique: bool = False
    using: str | None = None


@dataclass(frozen=True)
class DropIndex:
    name: str


@dataclass(frozen=True)
class Analyze:
    """``ANALYZE TABLE name [COMPUTE STATISTICS]``."""

    table: str


# ---------------------------------------------------------------------------
# DML statements
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Insert:
    table: str
    columns: tuple[str, ...] = ()
    values: tuple[Expr, ...] = ()
    query: SelectStmt | None = None


@dataclass(frozen=True)
class Update:
    table: str
    alias: str | None
    assignments: tuple[tuple[ColumnPath, Expr], ...]
    where: Expr | None = None


@dataclass(frozen=True)
class Delete:
    table: str
    alias: str | None = None
    where: Expr | None = None


# ---------------------------------------------------------------------------
# introspection
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExplainStmt:
    """``EXPLAIN [PLAN] [FOR] <select | insert | update | delete>``.

    Renders the evaluation plan of the wrapped statement without
    executing it (Oracle's ``EXPLAIN PLAN FOR``, minus the plan
    table).
    """

    statement: "Statement"


# ---------------------------------------------------------------------------
# transaction control
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BeginTransaction:
    """``BEGIN [TRANSACTION | WORK]``."""


@dataclass(frozen=True)
class CommitStmt:
    """``COMMIT [WORK]``."""


@dataclass(frozen=True)
class RollbackStmt:
    """``ROLLBACK [WORK] [TO [SAVEPOINT] name]``."""

    savepoint: str | None = None


@dataclass(frozen=True)
class SavepointStmt:
    """``SAVEPOINT name``."""

    name: str


@dataclass(frozen=True)
class SetTransaction:
    """``SET TRANSACTION READ ONLY | READ WRITE | ISOLATION LEVEL
    {READ COMMITTED | SERIALIZABLE}``.

    Must be the first statement of a transaction (it implicitly opens
    one, like Oracle).  ``read_only``/``isolation`` are None when the
    clause did not mention them.
    """

    read_only: bool | None = None
    isolation: str | None = None


Statement = (
    CreateTypeForward | CreateObjectType | CreateVarrayType
    | CreateNestedTableType | CreateTable | CreateView
    | CreateIndex | DropType | DropTable | DropView | DropIndex
    | Analyze
    | Insert | Update | Delete | SelectStmt | ExplainStmt
    | BeginTransaction | CommitStmt | RollbackStmt | SavepointStmt
    | SetTransaction
)


# ---------------------------------------------------------------------------
# traversal
# ---------------------------------------------------------------------------

#: names an annotation uses for a field that can hold AST nodes; type
#: references are leaves (they hold no expression)
_NODE_NAMES = {"Expr", "FromItem", "Statement"} | {
    name for name, value in list(globals().items())
    if dataclasses.is_dataclass(value) and not issubclass(value, TypeRef)}

#: per AST node class, the fields that can hold nodes (a node, None or
#: a tuple nesting them), last field first; scalar fields are dropped
CHILD_FIELDS: dict[type, tuple[str, ...]] = {
    node_type: tuple(
        field.name for field in reversed(dataclasses.fields(node_type))
        if _NODE_NAMES.intersection(re.findall(r"\w+", field.type)))
    for node_type in list(globals().values())
    if isinstance(node_type, type) and node_type.__name__ in _NODE_NAMES
    and dataclasses.is_dataclass(node_type)}


def walk(node: object, stop: type | tuple[type, ...] = ()
         ) -> Iterator[object]:
    """Yield *node* and every AST node below it, depth first, left to
    right.  Nodes of a *stop* type are yielded but not entered: pass
    ``SelectStmt`` to treat subqueries as opaque.  Iterative, so a
    deep tree costs no Python stack."""
    stack = [node]
    pop, push = stack.pop, stack.append
    children = CHILD_FIELDS.get
    while stack:
        current = pop()
        names = children(type(current))
        if names is None:  # a tuple of children, None, or a scalar
            if type(current) is tuple:
                stack.extend(reversed(current))
            continue
        yield current
        if names and not isinstance(current, stop):
            for name in names:
                push(getattr(current, name))


def flatten(expression: Expr, operator: str) -> list[Expr]:
    """The operands of the *operator* chain at *expression*, left to
    right: ``a AND (b AND c) AND d`` gives ``[a, b, c, d]``.  A loop,
    not a recursion, so a 10 000-term AND/OR costs no Python stack."""
    operands: list[Expr] = []
    pending = [expression]
    while pending:
        node = pending.pop()
        if type(node) is BinaryOp and node.operator == operator:
            pending += (node.right, node.left)
        else:
            operands.append(node)
    return operands


#: per AST node class, every field name (scalar fields included)
_ALL_FIELDS: dict[type, tuple[str, ...]] = {
    node_type: tuple(field.name for field in dataclasses.fields(node_type))
    for node_type in CHILD_FIELDS}


def same(left: object, right: object) -> bool:
    """Structural equality of two AST values: what the dataclasses'
    generated ``__eq__`` computes, but in a loop, so comparing two
    deep trees costs no Python stack."""
    pending = [(left, right)]
    while pending:
        a, b = pending.pop()
        if a is b:
            continue
        names = _ALL_FIELDS.get(type(a))
        if names is not None:
            if type(b) is not type(a):
                return False
            pending.extend((getattr(a, name), getattr(b, name))
                           for name in names)
        elif type(a) is tuple and type(b) is tuple:
            if len(a) != len(b):
                return False
            pending.extend(zip(a, b))
        elif a != b:  # scalars (and type references) compare by value
            return False
    return True
