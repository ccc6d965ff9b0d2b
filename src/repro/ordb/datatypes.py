"""SQL data types of the engine: scalars, object types, collections, REF.

These model the subset of the Oracle 8i/9i type system the paper's
mapping algorithms emit (Section 2): user-defined object types,
VARRAYs, nested tables and REFs, plus the scalar domains the generated
schemas use (VARCHAR2(4000) above all, per Section 4.1).
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass, field
from decimal import Decimal, InvalidOperation

from . import identifiers
from .errors import InvalidNumber, TypeMismatch, ValueTooLarge


class DataType:
    """Base class of every SQL data type."""

    def sql_name(self) -> str:
        """Render the type as it appears in DDL."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.sql_name()}>"


# -- scalar types ---------------------------------------------------------------


@dataclass(frozen=True)
class Varchar2(DataType):
    """Variable-length string with a hard maximum (ORA-12899 on excess)."""

    length: int = 4000

    def sql_name(self) -> str:
        return f"VARCHAR2({self.length})"

    def coerce(self, value: object) -> str:
        text = _to_text(value)
        if len(text) > self.length:
            raise ValueTooLarge(
                f"value of length {len(text)} exceeds"
                f" VARCHAR2({self.length})")
        return text


@dataclass(frozen=True)
class CharType(DataType):
    """Fixed-length, blank-padded string."""

    length: int = 1

    def sql_name(self) -> str:
        return f"CHAR({self.length})"

    def coerce(self, value: object) -> str:
        text = _to_text(value)
        if len(text) > self.length:
            raise ValueTooLarge(
                f"value of length {len(text)} exceeds CHAR({self.length})")
        return text.ljust(self.length)


@dataclass(frozen=True)
class NumberType(DataType):
    """NUMBER with optional precision/scale."""

    precision: int | None = None
    scale: int | None = None

    def sql_name(self) -> str:
        if self.precision is None:
            return "NUMBER"
        if self.scale is None:
            return f"NUMBER({self.precision})"
        return f"NUMBER({self.precision},{self.scale})"

    def coerce(self, value: object) -> Decimal:
        number = _to_number(value)
        if self.scale is not None:
            number = number.quantize(Decimal(1).scaleb(-self.scale))
        elif self.precision is not None:
            number = number.quantize(Decimal(1))
        return number


@dataclass(frozen=True)
class IntegerType(DataType):
    """INTEGER (an alias of NUMBER(38) in Oracle)."""

    def sql_name(self) -> str:
        return "INTEGER"

    def coerce(self, value: object) -> int:
        return int(_to_number(value))


@dataclass(frozen=True)
class DateType(DataType):
    """DATE holding a calendar date."""

    def sql_name(self) -> str:
        return "DATE"

    def coerce(self, value: object) -> datetime.date:
        if isinstance(value, datetime.datetime):
            return value.date()
        if isinstance(value, datetime.date):
            return value
        if isinstance(value, str):
            try:
                return datetime.date.fromisoformat(value.strip())
            except ValueError:
                raise TypeMismatch(
                    f"cannot convert {value!r} to DATE") from None
        raise TypeMismatch(f"cannot convert {type(value).__name__} to DATE")


@dataclass(frozen=True)
class ClobType(DataType):
    """Character large object; unlimited length (Section 7 future work)."""

    def sql_name(self) -> str:
        return "CLOB"

    def coerce(self, value: object) -> str:
        return _to_text(value)


@dataclass(frozen=True)
class VectorType(DataType):
    """VECTOR(dim): a fixed-dimension embedding, stored as a float
    tuple.  Accepts sequences of numbers or their text rendering
    (``'[0.1, 0.2]'`` / ``'0.1, 0.2'``) so vectors travel through SQL
    literals and the wire protocol as plain strings."""

    dimensions: int

    def sql_name(self) -> str:
        return f"VECTOR({self.dimensions})"

    def coerce(self, value: object) -> tuple[float, ...]:
        vector = parse_vector(value)
        if len(vector) != self.dimensions:
            raise TypeMismatch(
                f"vector of dimension {len(vector)} does not fit"
                f" VECTOR({self.dimensions})")
        return vector


def parse_vector(value: object) -> tuple[float, ...]:
    """A float tuple from a stored vector, a number sequence, or the
    bracketed/comma-separated text form."""
    if isinstance(value, (list, tuple)):
        items = value
    elif isinstance(value, str):
        text = value.strip()
        if text.startswith("[") and text.endswith("]"):
            text = text[1:-1]
        items = [part for part in text.split(",") if part.strip()]
    else:
        raise TypeMismatch(
            f"cannot convert {type(value).__name__} to VECTOR")
    try:
        return tuple(float(item) for item in items)
    except (TypeError, ValueError):
        raise TypeMismatch(
            f"cannot convert {value!r} to VECTOR") from None


# -- user-defined types ------------------------------------------------------------


@dataclass(frozen=True)
class TypeAttribute:
    """One attribute of an object type."""

    name: str
    datatype: DataType

    @property
    def key(self) -> str:
        return identifiers.normalize(self.name)


@dataclass
class ObjectType(DataType):
    """A user-defined object type (CREATE TYPE ... AS OBJECT).

    ``incomplete`` marks a forward declaration (``CREATE TYPE x;``),
    usable only as a REF target until completed — the device
    Section 6.2 uses for recursive structures.
    """

    name: str
    attributes: list[TypeAttribute] = field(default_factory=list)
    incomplete: bool = False

    def sql_name(self) -> str:
        return self.name

    @property
    def key(self) -> str:
        return identifiers.normalize(self.name)

    def attribute(self, name: str) -> TypeAttribute | None:
        wanted = identifiers.normalize(name)
        for attribute in self.attributes:
            if attribute.key == wanted:
                return attribute
        return None


@dataclass
class VarrayType(DataType):
    """CREATE TYPE ... AS VARRAY(limit) OF element_type."""

    name: str
    limit: int
    element_type: DataType

    def sql_name(self) -> str:
        return self.name

    @property
    def key(self) -> str:
        return identifiers.normalize(self.name)


@dataclass
class NestedTableType(DataType):
    """CREATE TYPE ... AS TABLE OF element_type."""

    name: str
    element_type: DataType

    def sql_name(self) -> str:
        return self.name

    @property
    def key(self) -> str:
        return identifiers.normalize(self.name)


@dataclass(frozen=True)
class RefType(DataType):
    """REF to an object type; values point at rows of object tables."""

    target_type: str

    def sql_name(self) -> str:
        return f"REF {self.target_type}"

    @property
    def target_key(self) -> str:
        return identifiers.normalize(self.target_type)


def is_collection(datatype: DataType) -> bool:
    """True for VARRAY and nested-table types."""
    return isinstance(datatype, (VarrayType, NestedTableType))


def contains_collection(datatype: DataType) -> bool:
    """True if *datatype* is, or transitively embeds, a collection.

    Used to enforce the Oracle 8 restriction of Section 2.2: the
    element type of a collection "must not be another collection type"
    — directly or through an embedded object type.
    """
    if is_collection(datatype):
        return True
    if isinstance(datatype, ObjectType):
        return any(
            contains_collection(attribute.datatype)
            for attribute in datatype.attributes
        )
    return False


# -- scalar conversion helpers --------------------------------------------------------


def _to_text(value: object) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        raise TypeMismatch("cannot convert boolean to string")
    if isinstance(value, (int, float, Decimal)):
        return _render_number(value)
    if isinstance(value, datetime.date):
        return value.isoformat()
    raise TypeMismatch(
        f"cannot convert {type(value).__name__} to string")


def _to_number(value: object) -> Decimal:
    if isinstance(value, bool):
        raise TypeMismatch("cannot convert boolean to number")
    if isinstance(value, Decimal):
        return value
    if isinstance(value, (int, float)):
        return Decimal(str(value))
    if isinstance(value, str):
        try:
            return Decimal(value.strip())
        except InvalidOperation:
            raise InvalidNumber(f"invalid number {value!r}") from None
    raise TypeMismatch(
        f"cannot convert {type(value).__name__} to number")


def _render_number(value: int | float | Decimal) -> str:
    if isinstance(value, int):
        return str(value)
    decimal_value = Decimal(str(value)) if isinstance(value, float) else value
    normalized = decimal_value.normalize()
    text = format(normalized, "f")
    return text
