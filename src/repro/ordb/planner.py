"""The one planning pass: where each WHERE conjunct runs, and how
each FROM level reads its rows.

:func:`plan_select` is the only place these choices are made.  It
returns a plain :class:`SelectPlan` that the executor runs
(``Database._enumerate_rows`` for SELECT, ``_update`` / ``_delete``
for DML) and that ``EXPLAIN`` (:mod:`repro.ordb.explain`) renders, so
the printed plan is the plan that runs.  A plan is built once per
execution and never cached, so its choices follow live row counts.

* conjuncts are pushed down to the earliest FROM level that binds
  every alias they name; the rest stay residual;
* :func:`plan_access` prices a full scan against every available
  equality probe (:func:`~.indexes.find_probe`), range probe
  (:func:`~.indexes.find_range_probe`) and content probe for one
  FROM level and picks the cheapest, returning an :class:`AccessPlan`;
* pushed conjuncts are reordered most-selective-first, with
  REF-dereferencing predicates pushed last (a dereference is a hidden
  join — the paper's Section 5 point about navigation cost);
* :func:`compute_table_stats` is the ``ANALYZE TABLE`` collector: row
  count, NDV, null count and min/max per column (dot-notation index
  paths included).  Stats live on :class:`~.schema.Table` and survive
  WAL replay (ANALYZE is a logged statement) and checkpoints (tables
  pickle wholesale).

Costs are abstract row-visit units: a scan costs N; a hash probe
costs 1 + estimated bucket rows; a sorted-index range probe costs
log2(N+1) + estimated matching rows.  Without stats the planner falls
back to live index metadata (distinct key counts) and textbook
default selectivities (eq 1/10, range 1/4, LIKE 1/4, other 1/3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal

from . import identifiers
from .datatypes import RefType
from .expressions import AGGREGATE_FUNCTIONS
from .indexes import (
    _NULL,
    ProbeSpec,
    RangeProbeSpec,
    _column_value,
    _key_class,
    canonical_key,
    find_probe,
    find_range_probe,
)
from .schema import ColumnStats, Table, TableStats
from .sql import ast
from .textindex import content_estimate, find_content_probes

#: default selectivity per conjunct class when no stats apply
_SELECTIVITY = {"eq": 0.1, "range": 0.25, "like": 0.25, "other": 1 / 3}
#: evaluation-order rank per class (lower = evaluated earlier)
_RANK = {"eq": 0, "range": 1, "like": 2, "other": 3}
#: added to the rank of conjuncts that dereference a REF path: they
#: hide a join, so they run last, over the fewest surviving rows
_DEREF_PENALTY = 10


@dataclass(slots=True)
class AccessPlan:
    """The costed access path for one FROM-level of a query.

    ``probe`` is the chosen index probe (:class:`~.indexes.ProbeSpec`,
    :class:`~.indexes.RangeProbeSpec` or a content-index probe) or
    None for a full scan; ``sargable`` records that some probe was
    available (so a scan execution counts as a planner fallback)."""

    probe: object
    cost: float
    est_rows: int
    sargable: bool


@dataclass(slots=True)
class LevelPlan:
    """One FROM level: the item, its :class:`AccessPlan` (None for
    views, subqueries, ``TABLE()`` and unknown names, which read their
    own rows) and the conjuncts that run as soon as the level's row
    is bound, in evaluation order.  ``alias_key`` is the alias its
    bindings carry (:func:`binding_alias`) and ``table`` the table it
    reads (None for those other items)."""

    item: ast.FromItem
    access: AccessPlan | None
    filters: list[ast.Expr]
    alias_key: str
    table: Table | None = None

    @property
    def columns(self) -> list[str] | None:
        """The column keys of the level's rows, or None where they are
        known only once rows are read (views, subqueries, ``TABLE()``,
        unknown names)."""
        return self.table.column_keys() if self.table is not None \
            else None


@dataclass(slots=True)
class SelectPlan:
    """The plan of one SELECT, UPDATE or DELETE: one
    :class:`LevelPlan` per FROM level, then the ``residual``
    conjuncts, which run once the whole row is assembled."""

    levels: list[LevelPlan]
    residual: list[ast.Expr]


def plan_select(catalog, statement: ast.SelectStmt | ast.Update
                | ast.Delete, enable_indexes: bool) -> SelectPlan:
    """Decide where each WHERE conjunct runs and how each FROM level
    reads its rows.  Pure: reads the catalog, never row data.

    WHERE splits into AND-conjuncts, and each is pushed down to the
    earliest level where all of its alias references are bound.  Only
    conjuncts that reference nothing but explicit FROM aliases (and
    hold no subquery or aggregate) are pushed; the rest are residual,
    preserving SQL semantics for correlation and ambiguity checking.
    A plain table level is costed by :func:`plan_access`, and its
    pushed conjuncts run in :func:`order_conjuncts` order.

    UPDATE and DELETE are the one-level case: their table's access
    path is chosen from the pushed conjuncts in the same way, and each
    candidate row is checked against the whole WHERE, as written.
    """
    if isinstance(statement, ast.SelectStmt):
        items = statement.from_items
    else:
        items = (ast.TableRef(statement.table, statement.alias),)
    where = statement.where
    pushed: list[list[ast.Expr]] = [[] for _ in items]
    residual: list[ast.Expr] = []
    if where is not None:
        alias_level: dict[str, int] = {}
        for index, item in enumerate(items):
            name = getattr(item, "alias", None) or getattr(
                item, "name", None)
            if name:
                alias_level[identifiers.normalize(name)] = index
        for conjunct in ast.flatten(where, "AND"):
            heads: set[str] = set()
            if (_analyze_references(conjunct, heads) and heads
                    and all(head in alias_level for head in heads)):
                pushed[max(alias_level[head]
                           for head in heads)].append(conjunct)
            else:
                residual.append(conjunct)
    levels = []
    for item, conjuncts in zip(items, pushed):
        table = None
        if isinstance(item, ast.TableRef):
            name_key = identifiers.normalize(item.name)
            if name_key not in catalog.views:
                # None for an unknown name: the executor raises
                table = catalog.tables.get(name_key)
        key = binding_alias(item)
        if table is None:
            levels.append(LevelPlan(item, None, conjuncts, key))
            continue
        levels.append(LevelPlan(
            item, plan_access(table, key, conjuncts,
                              allow_probes=enable_indexes),
            order_conjuncts(table, key, conjuncts), key, table))
    if not isinstance(statement, ast.SelectStmt):
        levels[0].filters = [where] if where is not None else []
        residual = []
    return SelectPlan(levels, residual)


def binding_alias(item: ast.FromItem) -> str:
    """The normalized alias a FROM item's bindings carry: its alias,
    else a table's or view's name, ``SUBQUERY`` or ``COLLECTION``."""
    if isinstance(item, ast.TableRef):
        name = item.name
    elif isinstance(item, ast.SubqueryRef):
        name = "SUBQUERY"
    else:
        name = "COLLECTION"
    return identifiers.normalize(item.alias or name)


#: what a pushable conjunct may be built from besides qualified
#: column paths (subqueries, EXISTS, CAST, stars, unqualified names
#: and aggregate calls are not pushable)
_PUSHDOWN_TRANSPARENT = (
    ast.Literal, ast.DateLiteral, ast.BinaryOp, ast.UnaryOp, ast.IsNull,
    ast.Like, ast.Between, ast.InList, ast.AttributeAccess,
    ast.FunctionCall, ast.CaseWhen)


def _analyze_references(expression: ast.Expr,
                        heads: set[str]) -> bool:
    """Collect qualified-path heads; False when the conjunct is not
    safe to push down (subqueries, unqualified columns, stars)."""
    for node in ast.walk(expression):
        if isinstance(node, ast.ColumnPath):
            if len(node.parts) < 2:
                return False  # unqualified name: resolve with full row
            heads.add(identifiers.normalize(node.parts[0]))
        elif not isinstance(node, _PUSHDOWN_TRANSPARENT) or (
                isinstance(node, ast.FunctionCall)
                and node.name.upper() in AGGREGATE_FUNCTIONS):
            return False
    return True


def plan_access(table: Table, alias_key: str,
                pushed: list[ast.Expr],
                allow_probes: bool = True) -> AccessPlan:
    """Pick the cheapest access path for *table* given the *pushed*
    conjuncts.  Pure: never mutates the table or its stats."""
    row_count = len(table.data.rows)
    selectivity = 1.0
    for conjunct in pushed:
        selectivity *= _conjunct_selectivity(conjunct, alias_key, table)
    scan_rows = _estimate(row_count, selectivity, bool(pushed))
    scan_cost = float(max(row_count, 1))

    candidates: list[tuple[float, int, object]] = []
    if allow_probes:
        # a probe visits a subset of the rows a scan would, so its
        # price is capped at the scan price (tiny tables would
        # otherwise pay the probe overhead twice over)
        equality = find_probe(table, alias_key, pushed)
        if equality is not None:
            est = _equality_estimate(table, equality, row_count)
            candidates.append((min(scan_cost, 1.0 + est), est, equality))
        ranged = find_range_probe(table, alias_key, pushed)
        if ranged is not None:
            est = _range_estimate(table, ranged, row_count)
            candidates.append(
                (min(scan_cost, math.log2(row_count + 1) + est), est,
                 ranged))
        for spec in find_content_probes(table, alias_key, pushed):
            # posting-list sizes are live metadata, not stats: the
            # smallest list bounds the candidate set (0 = provably
            # empty, so the probe wins outright)
            est = content_estimate(spec, row_count)
            candidates.append((min(scan_cost, 1.0 + est), est, spec))

    best_cost, best_est, best_probe = scan_cost, scan_rows, None
    for cost, est, probe in candidates:
        # ties go to the probe (it never reads more rows than a
        # scan), and to the equality probe among equal-cost probes
        if cost < best_cost or (best_probe is None
                                and cost <= best_cost):
            best_cost, best_est, best_probe = cost, est, probe
    return AccessPlan(best_probe, best_cost, best_est,
                      sargable=bool(candidates))


def order_conjuncts(table: Table, alias_key: str,
                    pushed: list[ast.Expr]) -> list[ast.Expr]:
    """Evaluation order for pushed conjuncts: most selective class
    first, REF-dereferencing predicates last (stable within a rank,
    so equal plans render deterministically)."""
    if len(pushed) < 2:
        return list(pushed)  # nothing to order

    def rank(conjunct: ast.Expr) -> int:
        value = _RANK[_conjunct_class(conjunct)]
        if _dereferences_ref(conjunct, alias_key, table):
            value += _DEREF_PENALTY
        return value

    return sorted(pushed, key=rank)


# -- selectivity and cardinality ----------------------------------------------------


def _estimate(row_count: int, selectivity: float,
              filtered: bool) -> int:
    if row_count == 0:
        return 0
    if not filtered:
        return row_count
    return max(1, round(row_count * selectivity))


def _conjunct_class(conjunct: ast.Expr) -> str:
    if isinstance(conjunct, ast.BinaryOp):
        if conjunct.operator == "=":
            return "eq"
        if conjunct.operator in ("<", "<=", ">", ">="):
            return "range"
    if isinstance(conjunct, ast.Between) and not conjunct.negated:
        return "range"
    if isinstance(conjunct, ast.Like) and not conjunct.negated:
        return "like"
    if (isinstance(conjunct, ast.FunctionCall)
            and conjunct.name.upper() == "CONTAINS"):
        return "like"  # word match: comparable selectivity class
    return "other"


def _conjunct_selectivity(conjunct: ast.Expr, alias_key: str,
                          table: Table) -> float:
    kind = _conjunct_class(conjunct)
    if kind == "eq" and isinstance(conjunct, ast.BinaryOp):
        # with stats, an equality keeps ~1/NDV of the rows
        from .indexes import _probe_column
        for side in (conjunct.left, conjunct.right):
            column = _probe_column(side, alias_key, table)
            if column is None:
                continue
            stats = _column_stats(table, column)
            if stats is not None and stats.ndv > 0:
                return min(1.0, 1.0 / stats.ndv)
    if kind == "range":
        column, low, high = _range_bounds(conjunct, alias_key, table)
        if column is not None:
            return _range_selectivity(_column_stats(table, column),
                                      low, high)
    return _SELECTIVITY[kind]


def _column_stats(table: Table, column: str) -> ColumnStats | None:
    if table.stats is None:
        return None
    return table.stats.columns.get(column)


def _range_bounds(conjunct: ast.Expr, alias_key: str, table: Table):
    """(column, low, high) literal canonical bounds of a range
    conjunct, or (None, None, None) when not statically analyzable."""
    from .indexes import _FLIPPED, _probe_column
    if (isinstance(conjunct, ast.BinaryOp)
            and conjunct.operator in _FLIPPED):
        for column_side, value_side, operator in (
                (conjunct.left, conjunct.right, conjunct.operator),
                (conjunct.right, conjunct.left,
                 _FLIPPED[conjunct.operator])):
            column = _probe_column(column_side, alias_key, table)
            if column is None:
                continue
            value = _literal_key(value_side)
            if operator in (">", ">="):
                return column, value, None
            return column, None, value
    if isinstance(conjunct, ast.Between) and not conjunct.negated:
        column = _probe_column(conjunct.operand, alias_key, table)
        if column is not None:
            return (column, _literal_key(conjunct.low),
                    _literal_key(conjunct.high))
    return None, None, None


def _literal_key(expression: ast.Expr):
    """The canonical key of a literal bound, or None when the bound
    is not a literal (evaluated at runtime, unknown at plan time)."""
    if isinstance(expression, ast.Literal):
        if expression.value is None:
            return None
        return canonical_key(expression.value)
    if isinstance(expression, ast.DateLiteral):
        return expression.text
    return None


def _range_selectivity(stats: ColumnStats | None, low, high) -> float:
    """Fraction of rows inside [low, high]; linear interpolation over
    the ANALYZEd min/max when the column population is numeric."""
    numeric = (int, float, Decimal)
    if (stats is not None
            and isinstance(stats.low, numeric)
            and isinstance(stats.high, numeric)):
        span = float(stats.high) - float(stats.low)
        if span > 0:
            lower = (float(low) if isinstance(low, numeric)
                     else float(stats.low))
            upper = (float(high) if isinstance(high, numeric)
                     else float(stats.high))
            fraction = ((min(upper, float(stats.high))
                         - max(lower, float(stats.low))) / span)
            return min(1.0, max(0.0, fraction))
    return 0.1 if (low is not None and high is not None) else 0.25


def _equality_estimate(table: Table, probe: ProbeSpec,
                       row_count: int) -> int:
    if probe.index.unique:
        return 1
    if len(probe.index.columns) == 1:
        stats = _column_stats(table, probe.index.columns[0])
        if stats is not None and stats.ndv > 0:
            return max(1, round(row_count / stats.ndv))
    distinct = probe.index.distinct_keys()
    if distinct <= 0:
        return max(0, row_count)
    return max(1, round(row_count / distinct))


def _range_estimate(table: Table, probe: RangeProbeSpec,
                    row_count: int) -> int:
    if row_count == 0:
        return 0
    if probe.prefix is not None:
        return max(1, round(row_count * 0.1))
    low = _literal_key(probe.low) if probe.low is not None else None
    high = _literal_key(probe.high) if probe.high is not None else None
    selectivity = _range_selectivity(
        _column_stats(table, probe.column), low, high)
    return max(1, round(row_count * selectivity))


# -- REF dereference detection ------------------------------------------------------


def _dereferences_ref(node: object, alias_key: str,
                      table: Table) -> bool:
    """True when evaluating *node* navigates through one of this
    table's REF columns (``alias.refcol.attr...``) — a hidden join
    the planner defers behind cheaper predicates."""
    for path in ast.walk(node):
        if (isinstance(path, ast.ColumnPath) and len(path.parts) > 2
                and identifiers.normalize(path.parts[0]) == alias_key):
            column = table.column(path.parts[1])
            if column is not None and isinstance(column.datatype,
                                                 RefType):
                return True
    return False


# -- ANALYZE: statistics collection -------------------------------------------------


def compute_table_stats(table: Table) -> TableStats:
    """Collect optimizer statistics over the table's *current* rows:
    NDV / null count for every column and every indexed dot-notation
    path, min/max of the canonical keys when the non-NULL population
    is order-homogeneous (all-numeric or all-string)."""
    rows = table.data.rows
    columns = list(dict.fromkeys(
        [*table.column_keys(),
         *(column for index in table.indexes
           for column in index.columns)]))
    collected: dict[str, ColumnStats] = {}
    for column in columns:
        distinct: set = set()
        nulls = 0
        classes: set[str] = set()
        for row in rows:
            key = canonical_key(_column_value(row.values, column))
            if key == _NULL:
                nulls += 1
                continue
            classes.add(_key_class((key,)))
            try:
                distinct.add(key)
            except TypeError:
                pass  # unhashable (NaN composite): skip for NDV
        low = high = None
        if distinct and (classes == {"num"} or classes == {"str"}):
            low = min(distinct)
            high = max(distinct)
        collected[column] = ColumnStats(ndv=len(distinct), nulls=nulls,
                                        low=low, high=high)
    return TableStats(row_count=len(rows), columns=collected)
