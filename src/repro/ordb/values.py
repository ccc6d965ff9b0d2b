"""Runtime values of the engine: objects, collections, REFs, NULL.

SQL NULL is represented by Python ``None`` everywhere.  Composite
values know the name of their declared type so constructors, type
checking and display all stay honest.
"""

from __future__ import annotations

import datetime
from decimal import Decimal

from . import identifiers
from .datatypes import (
    DataType,
    NestedTableType,
    ObjectType,
    RefType,
    VarrayType,
    is_collection,
)
from .errors import TypeMismatch, ValueTooLarge, WrongArgumentCount


class ObjectValue:
    """An instance of an object type (the result of ``Type_X(...)``)."""

    __slots__ = ("type_name", "_values")

    def __init__(self, type_name: str, values: dict[str, object]):
        self.type_name = type_name
        self._values = {
            identifiers.normalize(name): value
            for name, value in values.items()
        }

    def get(self, attribute: str) -> object:
        key = identifiers.normalize(attribute)
        if key not in self._values:
            raise TypeMismatch(
                f"type {self.type_name} has no attribute {attribute!r}")
        return self._values[key]

    def has(self, attribute: str) -> bool:
        return identifiers.normalize(attribute) in self._values

    def attributes(self) -> dict[str, object]:
        """Normalized attribute name -> value, in declaration order."""
        return dict(self._values)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ObjectValue):
            return NotImplemented
        return (identifiers.normalize(self.type_name)
                == identifiers.normalize(other.type_name)
                and self._values == other._values)

    def __hash__(self) -> int:
        # content-based: equal objects hash equal, distinct attribute
        # *values* (not just keys) spread across hash buckets, so
        # set/dict dedup over many instances stays O(n)
        return hash(content_key(self))

    def __repr__(self) -> str:
        inner = ", ".join(render_value(v) for v in self._values.values())
        return f"{self.type_name}({inner})"


class CollectionValue:
    """An instance of a VARRAY or nested-table type."""

    __slots__ = ("type_name", "items")

    def __init__(self, type_name: str, items: list[object]):
        self.type_name = type_name
        self.items = list(items)

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self):
        return iter(self.items)

    def __getitem__(self, index: int) -> object:
        return self.items[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CollectionValue):
            return NotImplemented
        return (identifiers.normalize(self.type_name)
                == identifiers.normalize(other.type_name)
                and self.items == other.items)

    def __hash__(self) -> int:
        # content-based (id() would break the hash/eq contract for
        # equal collections, e.g. inside a hashed ObjectValue)
        return hash(content_key(self))

    def __repr__(self) -> str:
        inner = ", ".join(render_value(item) for item in self.items)
        return f"{self.type_name}({inner})"


class RefValue:
    """A reference to a row object in an object table."""

    __slots__ = ("oid", "table", "type_name")

    def __init__(self, oid: int, table: str, type_name: str):
        self.oid = oid
        self.table = identifiers.normalize(table)
        self.type_name = identifiers.normalize(type_name)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RefValue):
            return NotImplemented
        return (self.oid, self.table) == (other.oid, other.table)

    def __hash__(self) -> int:
        return hash((self.oid, self.table))

    def __repr__(self) -> str:
        return f"REF({self.table}:{self.oid})"


def content_key(value: object) -> object:
    """A hashable key that is equal exactly when two values are ``==``.

    Composites fold their normalized type name and contents in
    (attribute order does not matter for :class:`ObjectValue`
    equality, so attributes are sorted); values that are themselves
    unhashable fall back to their rendered text.  This is the basis
    for :meth:`ObjectValue.__hash__` and for the hash-index keys in
    :mod:`repro.ordb.indexes`.
    """
    if isinstance(value, ObjectValue):
        return ("obj", identifiers.normalize(value.type_name),
                tuple(sorted(
                    ((key, content_key(item))
                     for key, item in value._values.items()),
                    key=lambda pair: pair[0])))
    if isinstance(value, CollectionValue):
        return ("coll", identifiers.normalize(value.type_name),
                tuple(content_key(item) for item in value.items))
    if isinstance(value, RefValue):
        return ("ref", value.table, value.oid)
    try:
        hash(value)
    except TypeError:
        return ("rendered", render_value(value))
    return value


def render_value(value: object) -> str:
    """Render a value the way a SQL client would print it."""
    if value is None:
        return "NULL"
    if isinstance(value, str):
        escaped = value.replace("'", "''")
        return f"'{escaped}'"
    if isinstance(value, Decimal):
        return format(value.normalize(), "f")
    if isinstance(value, datetime.date):
        return f"DATE '{value.isoformat()}'"
    return repr(value)


def coerce_value(value: object, datatype: DataType,
                 resolve) -> object:
    """Check/convert *value* for assignment into *datatype*.

    *resolve* maps a type name to its :class:`DataType` (used to chase
    named element types).  Raises the same errors the engine surfaces
    for bad assignments: ORA-12899 for oversized strings, ORA-00932
    for type clashes, ORA-02315 for wrong constructor arity.
    """
    if value is None:
        return None
    if isinstance(datatype, RefType):
        if isinstance(value, RefValue):
            if value.type_name != datatype.target_key:
                raise TypeMismatch(
                    f"REF to {value.type_name} where"
                    f" REF {datatype.target_type} expected")
            return value
        raise TypeMismatch(
            f"expected REF {datatype.target_type},"
            f" got {type(value).__name__}")
    if isinstance(datatype, ObjectType):
        if isinstance(value, ObjectValue):
            if (identifiers.normalize(value.type_name) != datatype.key):
                raise TypeMismatch(
                    f"object of type {value.type_name} where"
                    f" {datatype.name} expected")
            return value
        raise TypeMismatch(
            f"expected object type {datatype.name},"
            f" got {type(value).__name__}")
    if isinstance(datatype, (VarrayType, NestedTableType)):
        if isinstance(value, CollectionValue):
            wanted = identifiers.normalize(datatype.name)
            if identifiers.normalize(value.type_name) != wanted:
                raise TypeMismatch(
                    f"collection of type {value.type_name} where"
                    f" {datatype.name} expected")
            if (isinstance(datatype, VarrayType)
                    and len(value.items) > datatype.limit):
                raise ValueTooLarge(
                    f"VARRAY {datatype.name} limited to"
                    f" {datatype.limit} elements,"
                    f" got {len(value.items)}")
            return value
        raise TypeMismatch(
            f"expected collection type {datatype.name},"
            f" got {type(value).__name__}")
    # scalar types implement coerce() directly
    coerce = getattr(datatype, "coerce", None)
    if coerce is None:  # pragma: no cover - defensive
        raise TypeMismatch(f"cannot assign into {datatype.sql_name()}")
    return coerce(value)


def construct_object(object_type: ObjectType, arguments: list[object],
                     resolve) -> ObjectValue:
    """Apply an object-type constructor (Section 2.1's ``Type_X(...)``)."""
    if object_type.incomplete:
        raise TypeMismatch(
            f"type {object_type.name} is incomplete and cannot be"
            f" instantiated")
    if len(arguments) != len(object_type.attributes):
        raise WrongArgumentCount(
            f"constructor {object_type.name} expects"
            f" {len(object_type.attributes)} arguments,"
            f" got {len(arguments)}")
    values: dict[str, object] = {}
    for attribute, argument in zip(object_type.attributes, arguments):
        values[attribute.key] = coerce_value(argument, attribute.datatype,
                                             resolve)
    return ObjectValue(object_type.name, values)


def construct_collection(collection_type: VarrayType | NestedTableType,
                         arguments: list[object],
                         resolve) -> CollectionValue:
    """Apply a collection-type constructor (``TypeVA_X(a, b, ...)``)."""
    if (isinstance(collection_type, VarrayType)
            and len(arguments) > collection_type.limit):
        raise ValueTooLarge(
            f"VARRAY {collection_type.name} limited to"
            f" {collection_type.limit} elements, got {len(arguments)}")
    element_type = collection_type.element_type
    items = [coerce_value(argument, element_type, resolve)
             for argument in arguments]
    return CollectionValue(collection_type.name, items)


def deep_size(value: object) -> int:
    """Number of scalar leaves inside *value* (used by benchmarks)."""
    if value is None:
        return 0
    if isinstance(value, ObjectValue):
        return sum(deep_size(v) for v in value.attributes().values())
    if isinstance(value, CollectionValue):
        return sum(deep_size(item) for item in value.items)
    return 1
