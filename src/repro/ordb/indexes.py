"""Hash indexes over object/heap tables: the query-performance layer.

The paper's CLM2 argument is about how many scans and joins a
dot-notation query costs; the seed engine answered *every* query with
a full nested-loop scan, which buries that signal under O(n) row
visits.  Like the indexed lookups XRecursive and the DOM-based
mappings lean on, this module gives every PRIMARY KEY / UNIQUE
constraint and every scoped REF column (the ID/IDREF columns
XML2Oracle generates) an automatic in-memory hash index:

* :class:`HashIndex` — one index: canonical key tuple -> row bucket;
* :class:`IndexSet` — all indexes of one table, with the maintenance
  entry points the engine journals (add/remove/update ride the undo
  journal, so ROLLBACK and SAVEPOINT leave indexes consistent);
* :func:`build_auto_indexes` — derives the index set from a table's
  constraints at CREATE TABLE time;
* :func:`find_probe` — the index-*selection* pass: match pushed-down
  equality conjuncts against available indexes, shared by the
  executor and by ``EXPLAIN`` so plans show what actually runs.

Keys are *canonical* (:func:`canonical_key`): two values the engine's
``=`` would call equal always land in the same bucket (numbers and
numeric strings unify, dates unify with their ISO rendering,
composites use their content), so an index probe can only ever
*prune* rows — the pushed predicate is still evaluated on every
candidate, and a bucket is a superset of the true matches.
"""

from __future__ import annotations

import datetime
from bisect import bisect_left, bisect_right
from decimal import Decimal, InvalidOperation

from . import identifiers
from .sql import ast
from .storage import Row
from .values import CollectionValue, ObjectValue, RefValue, content_key

#: Sentinel for NULL components inside a key tuple (``None`` would
#: work too, but an explicit marker keeps buckets self-describing).
_NULL = ("<null>",)


def canonical_key(value: object) -> object:
    """A hashable bucket key; engine-equal values share it.

    The engine's ``=`` (see ``expressions._ordering``) converts
    numeric strings to numbers and falls back to display text for
    date/string mixes; the canonical form folds those conversions in
    so a probe with either representation hits the same bucket.
    Returns an unhashable-safe value or raises nothing: values whose
    content cannot be hashed are reported via :func:`try_key`.
    """
    if value is None:
        return _NULL
    if isinstance(value, str):
        try:
            number = Decimal(value.strip())
        except (InvalidOperation, ArithmeticError, ValueError):
            return value
        if number.is_nan():
            return value
        return number
    if isinstance(value, (int, float, Decimal)):
        # int/float/Decimal hash identically when numerically equal
        return value
    if isinstance(value, datetime.date):
        # the engine compares DATE against strings by ISO display
        return value.isoformat()
    if isinstance(value, (ObjectValue, CollectionValue, RefValue)):
        return content_key(value)
    return value


def try_key(values: tuple) -> tuple | None:
    """Canonical key tuple for *values*, or None when unhashable
    (e.g. a NaN Decimal); such rows go to the overflow list."""
    key = tuple(canonical_key(value) for value in values)
    try:
        hash(key)
    except TypeError:
        return None
    return key


def _column_value(values: dict, column: str) -> object:
    """The indexed value of *column* in a row's value dict.

    ``column`` is either a plain column key or a dot-notation path
    (``ADDR.CITY``) into embedded object values; any step that is
    missing or not an object yields NULL, matching how the engine's
    dot navigation treats absent attributes."""
    if "." not in column:
        return values.get(column)
    parts = column.split(".")
    value: object = values.get(parts[0])
    for part in parts[1:]:
        if not isinstance(value, ObjectValue) or not value.has(part):
            return None
        value = value.get(part)
    return value


class HashIndex:
    """One hash index: canonical key tuple -> list of rows.

    ``unique`` marks indexes backing PRIMARY KEY / UNIQUE
    constraints; buckets can still momentarily hold several rows
    (canonically-equal but distinct values such as ``'1.0'`` vs
    ``'1'``), so uniqueness is always re-verified on the bucket, not
    assumed.  Rows whose key cannot be hashed live in ``overflow``
    and are appended to every lookup result.
    """

    __slots__ = ("name", "columns", "unique", "buckets", "overflow")

    #: user-created indexes (see :class:`SortedIndex`) can be dropped
    #: with DROP INDEX; automatic constraint indexes cannot.
    user_created = False
    #: posting-list indexes (:mod:`~.textindex`) set this True; they
    #: serve CONTAINS/LIKE probes only, never equality or covering
    content = False

    def __init__(self, name: str, columns: tuple[str, ...],
                 unique: bool = False):
        self.name = name
        self.columns = tuple(columns)
        self.unique = unique
        self.buckets: dict[tuple, list[Row]] = {}
        self.overflow: list[Row] = []

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "UNIQUE " if self.unique else ""
        return (f"<{kind}{type(self).__name__} {self.name}"
                f"({', '.join(self.columns)}) {len(self.buckets)} keys>")

    def key_of(self, row: Row) -> tuple | None:
        return try_key(tuple(_column_value(row.values, column)
                             for column in self.columns))

    def key_for_values(self, values: dict[str, object]) -> tuple | None:
        return try_key(tuple(_column_value(values, column)
                             for column in self.columns))

    def add(self, row: Row) -> None:
        self.add_keyed(row, self.key_of(row))

    def add_keyed(self, row: Row, key: tuple | None) -> None:
        if key is None:
            self.overflow.append(row)
            return
        self.buckets.setdefault(key, []).append(row)

    def remove(self, row: Row) -> None:
        """Remove *row* by identity (rows compare equal by value)."""
        self.remove_keyed(row, self.key_of(row))

    def remove_keyed(self, row: Row, key: tuple | None) -> bool:
        bucket = self.overflow if key is None else self.buckets.get(key)
        if bucket is None:
            return False
        for position in range(len(bucket) - 1, -1, -1):
            if bucket[position] is row:
                del bucket[position]
                if key is not None and not bucket:
                    del self.buckets[key]
                return True
        return False

    def lookup(self, values: tuple) -> list[Row] | None:
        """Candidate rows for the equality probe, or None when the
        probe values cannot be keyed (caller falls back to a scan).

        The result is a *superset* of the true matches; the caller
        re-evaluates its predicate on every returned row.
        """
        key = try_key(values)
        if key is None:
            return None
        rows = self.buckets.get(key, ())
        if self.overflow:
            return list(rows) + list(self.overflow)
        return list(rows)

    def distinct_keys(self) -> int:
        return len(self.buckets)

    def entry_count(self) -> int:
        return (sum(len(bucket) for bucket in self.buckets.values())
                + len(self.overflow))


def _key_class(key: tuple) -> str:
    """Classify a canonical key for range-probe safety: single-column
    numeric / string keys are range-orderable within their class;
    NULL keys are 'null' (structurally excluded from range answers —
    SQL three-valued logic); composites and multi-column keys are
    'other' (their presence disables range probes entirely)."""
    if len(key) != 1:
        return "other"
    component = key[0]
    if component == _NULL:
        return "null"
    if isinstance(component, (int, float, Decimal)):
        return "num"
    if isinstance(component, str):
        return "str"
    return "other"


class SortedIndex(HashIndex):
    """A user-created index that also answers *range* probes.

    Hash buckets stay the authoritative store (equality probes work
    exactly as for :class:`HashIndex`); on top, the index keeps eager
    per-class entry counters and lazily-sorted key directories so
    ``<`` / ``>`` / ``BETWEEN`` / prefix-``LIKE`` predicates can be
    answered with a binary search instead of a scan.

    Range answers must be a *superset* of the true matches (the
    pushed predicate is still evaluated per row), but never more than
    sortedness can promise: the engine's comparison falls back to
    display text for mixed type classes, so a range probe bails out
    (returns None -> caller scans) whenever the stored keys mix
    numbers and strings, or contain composite keys.  NULL keys are
    structurally excluded — SQL three-valued logic means no range or
    equality predicate is ever true of NULL.
    """

    __slots__ = ("_dirty", "_num_dir", "_str_dir",
                 "_num_count", "_str_count", "_other_count")

    user_created = True

    def __init__(self, name: str, columns: tuple[str, ...],
                 unique: bool = False):
        super().__init__(name, columns, unique)
        self._dirty = False
        self._num_dir: list = []
        self._str_dir: list[str] = []
        self._num_count = 0
        self._str_count = 0
        self._other_count = 0

    def add_keyed(self, row: Row, key: tuple | None) -> None:
        super().add_keyed(row, key)
        if key is not None:
            self._count(key, +1)

    def remove_keyed(self, row: Row, key: tuple | None) -> bool:
        removed = super().remove_keyed(row, key)
        if removed and key is not None:
            self._count(key, -1)
        return removed

    def _count(self, key: tuple, delta: int) -> None:
        kind = _key_class(key)
        if kind == "null":
            # NULL keys live in their bucket (the unique check needs
            # them) but never enter the range directories: no range
            # or equality predicate is ever TRUE of NULL
            return
        if kind == "num":
            self._num_count += delta
        elif kind == "str":
            self._str_count += delta
        else:
            self._other_count += delta
        self._dirty = True

    def _directories(self) -> tuple[list, list[str]]:
        if self._dirty:
            numbers: list = []
            strings: list[str] = []
            for key in self.buckets:
                kind = _key_class(key)
                if kind == "num":
                    numbers.append(key[0])
                elif kind == "str":
                    strings.append(key[0])
            numbers.sort()
            strings.sort()
            self._num_dir = numbers
            self._str_dir = strings
            self._dirty = False
        return self._num_dir, self._str_dir

    def range_lookup(self, low, high, low_inclusive: bool,
                     high_inclusive: bool) -> list[Row] | None:
        """Candidate rows for ``low <(=) column <(=) high`` (either
        bound may be None = unbounded), a superset of the matches; []
        when the probe is provably empty (a NULL bound); None when
        the stored keys cannot answer it (caller falls back to scan).
        """
        if len(self.columns) != 1 or self._other_count:
            return None
        bounds = []
        for bound in (low, high):
            if bound is None:
                bounds.append(None)
                continue
            key = canonical_key(bound)
            if key is _NULL:
                return []  # x < NULL is UNKNOWN for every row
            kind = _key_class((key,))
            if kind == "other":
                return None
            bounds.append((kind, key))
        kinds = {kind for entry in bounds if entry
                 for kind in (entry[0],)}
        if len(kinds) != 1:
            return None  # unbounded both sides or mixed bound types
        kind = kinds.pop()
        # Mixed stored classes fall back to the engine's display-text
        # comparison, which sortedness within one class cannot model.
        if kind == "num" and self._str_count:
            return None
        if kind == "str" and self._num_count:
            return None
        numbers, strings = self._directories()
        directory = numbers if kind == "num" else strings
        start = 0
        end = len(directory)
        if bounds[0] is not None:
            locate = bisect_left if low_inclusive else bisect_right
            start = locate(directory, bounds[0][1])
        if bounds[1] is not None:
            locate = bisect_right if high_inclusive else bisect_left
            end = locate(directory, bounds[1][1])
        rows: list[Row] = []
        for component in directory[start:end]:
            rows.extend(self.buckets.get((component,), ()))
        rows.extend(self.overflow)
        return rows

    def prefix_lookup(self, prefix: str) -> list[Row] | None:
        """Candidate rows for ``column LIKE 'prefix%...'``; None when
        the stored keys include numbers or composites (the engine
        LIKEs their display text, which string order cannot model)."""
        if (len(self.columns) != 1 or self._other_count
                or self._num_count):
            return None
        _, strings = self._directories()
        rows: list[Row] = []
        position = bisect_left(strings, prefix)
        while position < len(strings):
            component = strings[position]
            if not component.startswith(prefix):
                break
            rows.extend(self.buckets.get((component,), ()))
            position += 1
        rows.extend(self.overflow)
        return rows


class IndexSet:
    """All hash indexes of one table, maintained together."""

    __slots__ = ("indexes",)

    def __init__(self, indexes: list[HashIndex] | None = None):
        self.indexes: list[HashIndex] = list(indexes or [])

    def __iter__(self):
        return iter(self.indexes)

    def __len__(self) -> int:
        return len(self.indexes)

    # -- maintenance (journaled by the engine) ------------------------------------

    def add_row(self, row: Row) -> None:
        for index in self.indexes:
            index.add(row)

    def remove_row(self, row: Row) -> None:
        for index in self.indexes:
            index.remove(row)

    def update_row(self, row: Row, old_values: dict[str, object],
                   new_values: dict[str, object]) -> None:
        """Move *row* between buckets after its values changed from
        *old_values* to *new_values* (also its own inverse, called
        with the dicts swapped when an UPDATE is rolled back)."""
        for index in self.indexes:
            old_key = index.key_for_values(old_values)
            new_key = index.key_for_values(new_values)
            if old_key == new_key and old_key is not None:
                continue
            index.remove_keyed(row, old_key)
            index.add_keyed(row, new_key)

    # -- selection ----------------------------------------------------------------

    def best_equality_index(
            self, available: set[str]) -> HashIndex | None:
        """The index to probe given equality conjuncts on *available*
        columns: prefer unique indexes, then fewer columns (a tighter
        bucket per probe is not implied, but fewer evaluations are)."""
        candidates = [index for index in self.indexes
                      if not index.content
                      and set(index.columns) <= available]
        if not candidates:
            return None
        candidates.sort(key=lambda index: (not index.unique,
                                           len(index.columns)))
        return candidates[0]

    def covering(self, columns: tuple[str, ...]) -> HashIndex | None:
        """The index whose column set is exactly *columns* (used to
        accelerate uniqueness checks), or None."""
        wanted = set(columns)
        for index in self.indexes:
            if not index.content and set(index.columns) == wanted:
                return index
        return None

    # -- introspection ------------------------------------------------------------

    def verify(self, rows: list[Row]) -> list[str]:
        """Consistency check for tests: every stored row appears in
        every index exactly once, and nothing else does.  Returns a
        list of human-readable problems (empty = consistent)."""
        problems: list[str] = []
        for index in self.indexes:
            if index.content:
                # posting-list indexes have no one-entry-per-row
                # contract; they check themselves against a rebuild
                problems.extend(index.verify_rows(rows))
                continue
            seen: dict[int, int] = {}
            for bucket_key, bucket in index.buckets.items():
                for row in bucket:
                    seen[id(row)] = seen.get(id(row), 0) + 1
                    if index.key_of(row) != bucket_key:
                        problems.append(
                            f"{index.name}: row in wrong bucket"
                            f" {bucket_key!r}")
            for row in index.overflow:
                seen[id(row)] = seen.get(id(row), 0) + 1
            for row in rows:
                count = seen.pop(id(row), 0)
                if count != 1:
                    problems.append(
                        f"{index.name}: stored row indexed"
                        f" {count} time(s): {row.values!r}")
            if seen:
                problems.append(
                    f"{index.name}: {len(seen)} stale entr(y/ies) for"
                    f" rows no longer stored")
        return problems


def build_auto_indexes(table) -> IndexSet:
    """Derive the automatic index set from *table*'s constraints.

    One unique index per PRIMARY KEY / UNIQUE constraint, one
    non-unique index per scoped REF column — the columns XML2Oracle's
    generated schemas key documents and IDREF links on.  Duplicate
    column sets collapse into the first index declared for them.
    """
    indexes: list[HashIndex] = []
    covered: set[tuple[str, ...]] = set()

    def declare(name: str, columns: tuple[str, ...],
                unique: bool) -> None:
        signature = tuple(sorted(columns))
        if signature in covered:
            return
        covered.add(signature)
        indexes.append(HashIndex(name, columns, unique))

    constraints = table.constraints
    if constraints.primary_key is not None:
        declare(f"{table.key}_PK", constraints.primary_key.columns,
                unique=True)
    for position, unique in enumerate(constraints.unique, start=1):
        declare(f"{table.key}_UN{position}", unique.columns,
                unique=True)
    for scope in constraints.scopes:
        declare(f"{table.key}_{scope.column}_REF", (scope.column,),
                unique=False)
    return IndexSet(indexes)


# -- index selection over pushed conjuncts ----------------------------------------


class ProbeSpec:
    """One planned index probe: which index, fed by which expressions.

    ``values`` maps each index column to the expression whose value
    (evaluated against the already-bound outer rows) keys the lookup;
    ``conjuncts`` are the WHERE conjuncts the probe absorbs (still
    re-checked row-by-row, but rendered on the plan's lookup step)."""

    __slots__ = ("index", "values", "conjuncts")

    def __init__(self, index: HashIndex,
                 values: dict[str, ast.Expr],
                 conjuncts: list[ast.Expr]):
        self.index = index
        self.values = values
        self.conjuncts = conjuncts

    @property
    def operation(self) -> str:
        return ("INDEX UNIQUE LOOKUP" if self.index.unique
                else "INDEX LOOKUP")


def find_probe(table, alias_key: str,
               pushed: list[ast.Expr]) -> ProbeSpec | None:
    """Match pushed equality conjuncts against *table*'s indexes.

    A conjunct qualifies when it is ``alias.column = expr`` (either
    side) with ``expr`` computable before this table's rows are bound
    — i.e. it never mentions *alias* itself.  The executor and the
    EXPLAIN plan builder share this function, so the rendered access
    path is exactly the one the executor takes.
    """
    if not pushed or not len(table.indexes):
        return None
    specs: dict[str, tuple[ast.Expr, ast.Expr]] = {}
    for conjunct in pushed:
        if (not isinstance(conjunct, ast.BinaryOp)
                or conjunct.operator != "="):
            continue
        for column_side, value_side in (
                (conjunct.left, conjunct.right),
                (conjunct.right, conjunct.left)):
            column = _probe_column(column_side, alias_key, table)
            if column is None or column in specs:
                continue
            if _mentions_alias(value_side, alias_key):
                continue
            specs[column] = (value_side, conjunct)
            break
    if not specs:
        return None
    index = table.indexes.best_equality_index(set(specs))
    if index is None:
        return None
    values = {column: specs[column][0] for column in index.columns}
    conjuncts = [specs[column][1] for column in index.columns]
    return ProbeSpec(index, values, conjuncts)


class RangeProbeSpec:
    """One planned range probe against a :class:`SortedIndex`.

    ``low``/``high`` are bound *expressions* (evaluated against the
    already-bound outer rows at probe time; None = unbounded), or
    ``prefix`` is the literal prefix of a ``LIKE 'prefix%'`` pattern.
    ``conjuncts`` are the WHERE conjuncts the probe absorbs (still
    re-checked row-by-row)."""

    __slots__ = ("index", "column", "low", "low_inclusive",
                 "high", "high_inclusive", "prefix", "conjuncts")

    def __init__(self, index: SortedIndex, column: str,
                 low: ast.Expr | None, low_inclusive: bool,
                 high: ast.Expr | None, high_inclusive: bool,
                 prefix: str | None, conjuncts: list[ast.Expr]):
        self.index = index
        self.column = column
        self.low = low
        self.low_inclusive = low_inclusive
        self.high = high
        self.high_inclusive = high_inclusive
        self.prefix = prefix
        self.conjuncts = conjuncts

    @property
    def operation(self) -> str:
        return "RANGE INDEX SCAN"


_FLIPPED = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}


def _like_prefix(pattern: str) -> str:
    """The literal prefix of a LIKE pattern ('' when it starts with a
    wildcard)."""
    for position, character in enumerate(pattern):
        if character in "%_":
            return pattern[:position]
    return pattern


def find_range_probe(table, alias_key: str,
                     pushed: list[ast.Expr]) -> RangeProbeSpec | None:
    """Match pushed range conjuncts (``<``/``<=``/``>``/``>=``,
    non-negated ``BETWEEN``, prefix ``LIKE``) against *table*'s
    sorted indexes.  Bound expressions must be computable before this
    table's rows are bound.  Both-bounded probes beat one-bounded
    probes beat prefix probes.
    """
    candidates = [index for index in table.indexes
                  if isinstance(index, SortedIndex)
                  and len(index.columns) == 1]
    if not pushed or not candidates:
        return None
    bounds: dict[str, dict] = {}
    for conjunct in pushed:
        if (isinstance(conjunct, ast.BinaryOp)
                and conjunct.operator in _FLIPPED):
            for column_side, value_side, operator in (
                    (conjunct.left, conjunct.right, conjunct.operator),
                    (conjunct.right, conjunct.left,
                     _FLIPPED[conjunct.operator])):
                column = _probe_column(column_side, alias_key, table)
                if column is None:
                    continue
                if _mentions_alias(value_side, alias_key):
                    continue
                entry = bounds.setdefault(column, {})
                side = "low" if operator in (">", ">=") else "high"
                entry.setdefault(side, (value_side,
                                        operator in (">=", "<="),
                                        conjunct))
                break
        elif isinstance(conjunct, ast.Between) and not conjunct.negated:
            column = _probe_column(conjunct.operand, alias_key, table)
            if column is None:
                continue
            if (_mentions_alias(conjunct.low, alias_key)
                    or _mentions_alias(conjunct.high, alias_key)):
                continue
            entry = bounds.setdefault(column, {})
            entry.setdefault("low", (conjunct.low, True, conjunct))
            entry.setdefault("high", (conjunct.high, True, conjunct))
        elif (isinstance(conjunct, ast.Like) and not conjunct.negated
                and conjunct.escape is None
                and isinstance(conjunct.pattern, ast.Literal)
                and isinstance(conjunct.pattern.value, str)):
            column = _probe_column(conjunct.operand, alias_key, table)
            if column is None:
                continue
            prefix = _like_prefix(conjunct.pattern.value)
            if prefix:
                entry = bounds.setdefault(column, {})
                entry.setdefault("prefix", (prefix, conjunct))
    best: tuple[int, RangeProbeSpec] | None = None
    for index in candidates:
        entry = bounds.get(index.columns[0])
        if not entry:
            continue
        low = entry.get("low")
        high = entry.get("high")
        if low is not None or high is not None:
            conjuncts: list[ast.Expr] = []
            for part in (low, high):
                if part is not None and not any(
                        part[2] is seen for seen in conjuncts):
                    conjuncts.append(part[2])
            rank = 0 if (low is not None and high is not None) else 1
            spec = RangeProbeSpec(
                index, index.columns[0],
                low[0] if low else None, low[1] if low else False,
                high[0] if high else None, high[1] if high else False,
                None, conjuncts)
        elif "prefix" in entry:
            prefix, conjunct = entry["prefix"]
            rank = 2
            spec = RangeProbeSpec(index, index.columns[0],
                                  None, False, None, False,
                                  prefix, [conjunct])
        else:
            continue
        if best is None or rank < best[0]:
            best = (rank, spec)
    return best[1] if best is not None else None


def _probe_column(expression: ast.Expr, alias_key: str,
                  table) -> str | None:
    """The indexed column key when *expression* is ``alias.column``
    or a dot-notation path ``alias.column.attr...`` into an embedded
    object column (the form CREATE INDEX accepts)."""
    if (not isinstance(expression, ast.ColumnPath)
            or len(expression.parts) < 2):
        return None
    if identifiers.normalize(expression.parts[0]) != alias_key:
        return None
    column = table.column(expression.parts[1])
    if column is None:
        return None
    if len(expression.parts) == 2:
        return column.key
    tail = [identifiers.normalize(part)
            for part in expression.parts[2:]]
    return ".".join([column.key, *tail])


#: what an expression may be built from, besides column paths, and
#: still be judged by its paths alone (unlike pushdown, CAST is fine)
_PROBE_TRANSPARENT = (
    ast.Literal, ast.DateLiteral, ast.BinaryOp, ast.UnaryOp, ast.IsNull,
    ast.Like, ast.Between, ast.InList, ast.FunctionCall,
    ast.AttributeAccess, ast.Cast, ast.CaseWhen)


def _mentions_alias(expression: ast.Expr, alias_key: str) -> bool:
    """True when evaluating *expression* needs this table's row (or
    when we cannot tell: subqueries and unknown node kinds count as
    mentions, which merely forfeits the probe, never correctness)."""
    for node in ast.walk(expression):
        if isinstance(node, ast.ColumnPath):
            if (len(node.parts) < 2  # unqualified: could be this table's
                    or identifiers.normalize(node.parts[0]) == alias_key):
                return True
        elif not isinstance(node, _PROBE_TRANSPARENT):
            return True
    return False
