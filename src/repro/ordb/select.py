"""The back half of a SELECT, written once.

Row enumeration — FROM items, joins, WHERE, index probes, snapshots —
belongs to the engine.  Everything a SELECT does *after* that lives
here: grouping and aggregate state, HAVING, select-list evaluation,
DISTINCT, ORDER BY and FETCH FIRST, as three steps of one
:class:`Pipeline`:

* :meth:`Pipeline.partial` turns the rows one engine enumerated into a
  :class:`Partial`;
* :meth:`Pipeline.merge` folds the partials of several engines into one;
* :meth:`Pipeline.finalise` turns a partial into the
  :class:`~repro.ordb.results.Result`.

A single engine is "one partial, finalised"; the shard router asks
every shard for its partial (a :class:`PartialSelect` request), merges
them and finalises with the same code, so the answer cannot depend on
where the rows landed.  Whatever reads a row (aggregate arguments,
group keys, plain select-list entries, ORDER BY expressions) is
evaluated where the row is; a partial holds only values — numbers,
tuples and sets for the aggregate states — so it can leave the engine
that built it.

>>> from repro.ordb.sql.parser import parse_statement
>>> pipeline = Pipeline(parse_statement(
...     "SELECT t.a FROM t ORDER BY 1 DESC FETCH FIRST 2 ROWS ONLY"))
>>> merged = pipeline.merge([Partial(["A"], rows=[(3,), (1,)]),
...                          Partial(["A"], rows=[(4,), (2,)])])
>>> pipeline.finalise(merged, None).rows
[(4,), (3,)]
"""

from __future__ import annotations

import dataclasses
import functools
import heapq
import operator
from decimal import Decimal

from . import identifiers
from .errors import NoSuchColumn, NotSupported
from .expressions import (
    EMPTY_ENV,
    Compiler,
    Env,
    Evaluator,
    _as_number,
    collect_aggregates,
    contains_aggregate,
    is_aggregate,
    sub_expressions,
)
from .results import Result
from .sql import ast
from .values import CollectionValue, ObjectValue, render_value


@dataclasses.dataclass(frozen=True)
class PartialSelect:
    """A request for *query*'s :class:`Partial` instead of its Result:
    the shard leg of a scatter-gather.  It runs as the SELECT it wraps
    (same locks, snapshot, timeout, fault sites and counters)."""

    query: ast.SelectStmt


class Partial:
    """What one engine contributes to a SELECT's answer.

    A plain query carries ``rows``: the output values, then one hidden
    value per ORDER BY expression that is not an output column —
    always already deduplicated, sorted and cut to FETCH FIRST.  A
    grouped query carries ``groups`` instead: group key -> ``[values
    of the select list's row-reading expressions on the group's first
    row (None for the empty all-rows group), aggregate states]``.
    """

    __slots__ = ("columns", "rows", "groups")

    def __init__(self, columns: list[str],
                 rows: list[tuple] | None = None,
                 groups: dict[tuple, list] | None = None):
        self.columns = columns
        self.rows = rows
        self.groups = groups

    @property
    def rowcount(self) -> int:
        return len(self.rows if self.groups is None else self.groups)


# -- values ------------------------------------------------------------------------


def hashable(value: object) -> object:
    """A dict key equal exactly when two SQL values are: ``1`` and
    ``Decimal(1)`` collapse, objects compare by their rendering."""
    if isinstance(value, (ObjectValue, CollectionValue)):
        return render_value(value)
    try:
        hash(value)
    except TypeError:  # pragma: no cover - defensive
        return render_value(value)
    return value


def distinct(rows: list[tuple]) -> list[tuple]:
    """The first of every set of equal rows, in first-seen order."""
    first: dict[tuple, tuple] = {}
    for row in rows:
        first.setdefault(tuple([hashable(value) for value in row]), row)
    return list(first.values())


def _less(a: object, b: object) -> bool:
    try:
        return a < b
    except TypeError:  # mixed types order by their text
        return str(a) < str(b)


class _SortKey:
    """One row's ORDER BY values: NULLs last (first under DESC), each
    position in its own direction, mixed types by their text."""

    __slots__ = ("values", "ascending")

    def __init__(self, values: list, ascending: list[bool]):
        self.values = values
        self.ascending = ascending

    def __lt__(self, other: "_SortKey") -> bool:
        for a, b, ascending in zip(self.values, other.values,
                                   self.ascending):
            if a is None or b is None:
                if a is b:
                    continue
                return (b is None) == ascending
            if a == b:
                continue
            return _less(a, b) == ascending
        return False

    def __eq__(self, other: "_SortKey") -> bool:
        # equal exactly when neither orders first: heapq breaks a tie
        # on its insertion count only for keys that compare equal
        return not (self < other or other < self)


# -- aggregates --------------------------------------------------------------------


def _plus(a, b):
    return b if a is None else a if b is None else a + b


def _lesser(a, b):
    return b if a is None or (b is not None and _less(b, a)) else a


def _greater(a, b):
    return b if a is None or (b is not None and _less(a, b)) else a


def _mean(state: tuple) -> Decimal | None:
    total, count = state
    return Decimal(total) / Decimal(count) if count else None


def _same(state):
    return state


#: name -> (start state, step(state, value), merge(a, b), final(state));
#: *value* is never NULL.
_FOLDS = {
    "COUNT": (0, lambda count, _value: count + 1, operator.add, _same),
    "SUM": (None, lambda total, value: _plus(total, _as_number(value)),
            _plus, _same),
    "MIN": (None, _lesser, _lesser, _same),
    "MAX": (None, _greater, _greater, _same),
    "AVG": ((0, 0),
            lambda state, value: (state[0] + _as_number(value),
                                  state[1] + 1),
            lambda a, b: (a[0] + b[0], a[1] + b[1]), _mean),
}


class Aggregate:
    """How one aggregate call accumulates: ``start()`` a state,
    ``step`` each non-NULL argument value in, ``merge`` two states,
    ``final`` the value out.  States are plain values — a number, a
    ``(sum, count)`` pair, or for the DISTINCT forms the set of values
    seen, folded only at ``final``."""

    def __init__(self, call: ast.FunctionCall):
        name = call.name.upper()
        #: COUNT(*) counts rows; there is no argument to evaluate
        self.star = (name == "COUNT" and bool(call.arguments)
                     and isinstance(call.arguments[0], ast.Star))
        if not self.star and not call.arguments:
            raise NotSupported(f"{name} requires an argument")
        self.argument = None if self.star else call.arguments[0]
        self._start, self._step, self._merge, self._final = _FOLDS[name]
        # the least and greatest of a set are those of its members
        self.distinct = (call.distinct and not self.star
                         and name not in ("MIN", "MAX"))

    def start(self) -> object:
        return set() if self.distinct else self._start

    def step(self, state: object, value: object) -> object:
        if self.distinct:
            state.add(hashable(value))
            return state
        return self._step(state, value)

    def merge(self, a: object, b: object) -> object:
        return a | b if self.distinct else self._merge(a, b)

    def final(self, state: object) -> object:
        if self.distinct:
            values, state = state, self._start
            for value in values:
                state = self._step(state, value)
        return self._final(state)

    def accumulate(self, members: list[Env], read) -> object:
        """The state after every row of *members*; ``read(env)`` is
        the argument's value on a row."""
        if self.star:
            return len(members)
        state = self.start()
        step = self.step if self.distinct else self._step
        for env in members:
            value = read(env)
            if value is not None:
                state = step(state, value)
        return state


# -- the select list over a finished group -----------------------------------------


class _Substituting(Evaluator):
    """Evaluates the select list of a finished group: the parts that
    read the row (evaluated where the row was) have ``values``, keyed
    by node identity, and each aggregate call takes the ``finals`` of
    the distinct call it repeats.  Neither lookup hashes or compares a
    tree by recursion, so a deep expression costs no Python stack."""

    def __init__(self, engine, calls: list[ast.FunctionCall]):
        super().__init__(engine)
        self.calls = calls
        self.values: dict[int, object] = {}
        self.finals: list[object] = []

    def eval(self, expression: ast.Expr, env: Env) -> object:
        values = self.values
        if id(expression) in values:
            return values[id(expression)]
        return super().eval(expression, env)

    def _eval_FunctionCall(self, expression: ast.FunctionCall,
                           env: Env) -> object:
        if is_aggregate(expression):
            for call, final in zip(self.calls, self.finals):
                if call is expression or ast.same(call, expression):
                    return final
        return super()._eval_FunctionCall(expression, env)

    def _operands(self, expression: ast.BinaryOp) -> list[ast.Expr]:
        # a row part may be an inner node of an AND/OR chain, so each
        # level goes through eval() and its values lookup
        return [expression.left, expression.right]

    def _known(self, expression: ast.Expr) -> bool:
        return id(expression) in self.values


def _row_parts(expression: ast.Expr, out: list[ast.Expr]) -> None:
    """Collect into *out* the maximal aggregate-free sub-expressions
    of a select-list entry (all of it, when it has no aggregate), left
    to right; a loop, so a deep entry costs no Python stack."""
    pending = [expression]
    while pending:
        node = pending.pop()
        if not contains_aggregate(node):
            out.append(node)
        elif not is_aggregate(node):
            pending.extend(reversed(sub_expressions(node)))


# -- the pipeline --------------------------------------------------------------------


class Pipeline:
    """The back half of one SELECT statement (see the module doc)."""

    def __init__(self, statement: ast.SelectStmt):
        self.statement = statement
        calls: list[ast.FunctionCall] = []
        for item in statement.items:
            if not isinstance(item.expression, ast.Star):
                collect_aggregates(item.expression, calls)
        if statement.having is not None:
            collect_aggregates(statement.having, calls)
        #: aggregates consume every qualifying row, so FETCH FIRST may
        #: only cut the grouped output — never the enumeration
        self.grouped = bool(calls or statement.group_by)
        if not self.grouped:
            return
        self.calls = calls
        self.aggregates = [Aggregate(call) for call in calls]
        #: what the select list and HAVING read from a row: evaluated
        #: on each group's first row, where the rows are
        self.row_expressions: list[ast.Expr] = []
        for item in statement.items:
            _row_parts(item.expression, self.row_expressions)
        if statement.having is not None:
            _row_parts(statement.having, self.row_expressions)

    # -- partial ---------------------------------------------------------------------

    def partial(self, environments: list[Env], evaluator: Evaluator,
                compiler: Compiler | None = None) -> Partial:
        """The partial of the rows one engine enumerated.  Each
        expression read per row is compiled by *compiler* when the
        engine gave one, else interpreted by *evaluator*."""
        statement = self.statement
        if compiler is not None:
            read = compiler.compile
        else:
            def read(expression: ast.Expr):
                return functools.partial(evaluator.eval, expression)
        columns = _output_columns(statement, environments,
                                  evaluator.engine)
        if not self.grouped:
            indices, hidden = self._order_indices(columns)
            expressions = [item.expression
                           for item in statement.items] + hidden
            reads = [None if isinstance(expression, ast.Star)
                     else read(expression) for expression in expressions]
            if None not in reads:
                rows = [tuple([reader(env) for reader in reads])
                        for env in environments]
            else:
                rows = []
                for env in environments:
                    values: list[object] = []
                    for expression, reader in zip(expressions, reads):
                        if reader is None:
                            values.extend(_star_values(expression, env))
                        else:
                            values.append(reader(env))
                    rows.append(tuple(values))
            return Partial(columns, rows=self._reduce(rows, indices))
        if statement.group_by:
            keys = [read(expression) for expression in statement.group_by]
            buckets: dict[tuple, list[Env]] = {}
            for env in environments:
                key = tuple([hashable(reader(env)) for reader in keys])
                members = buckets.get(key)
                if members is None:
                    buckets[key] = [env]
                else:
                    members.append(env)
        else:
            buckets = {(): environments}
        firsts = [read(expression) for expression in self.row_expressions]
        arguments = [None if aggregate.star else read(aggregate.argument)
                     for aggregate in self.aggregates]
        groups = {}
        for key, members in buckets.items():
            first = (tuple([reader(members[0]) for reader in firsts])
                     if members else None)
            groups[key] = [first, [
                aggregate.accumulate(members, argument)
                for aggregate, argument in zip(self.aggregates, arguments)]]
        return Partial(columns, groups=groups)

    # -- merge -----------------------------------------------------------------------

    def merge(self, partials: list[Partial]) -> Partial:
        """One partial standing for the rows behind all of *partials*."""
        columns = partials[0].columns
        if not self.grouped:
            rows = [row for partial in partials for row in partial.rows]
            indices, _hidden = self._order_indices(columns)
            return Partial(columns, rows=self._reduce(rows, indices))
        groups: dict[tuple, list] = {}
        for partial in partials:
            for key, (first, states) in partial.groups.items():
                mine = groups.get(key)
                if mine is None:
                    groups[key] = [first, list(states)]
                    continue
                if mine[0] is None:
                    mine[0] = first
                mine[1] = [aggregate.merge(a, b) for aggregate, a, b
                           in zip(self.aggregates, mine[1], states)]
        return Partial(columns, groups=groups)

    # -- finalise --------------------------------------------------------------------

    def finalise(self, partial: Partial, evaluator: Evaluator) -> Result:
        """The statement's Result (*evaluator* computes select-list
        expressions over aggregates; plain queries never use it)."""
        columns = partial.columns
        if not self.grouped:
            rows = partial.rows
            if rows and len(rows[0]) > len(columns):
                rows = [row[:len(columns)] for row in rows]
            return Result(columns, rows)
        statement = self.statement
        indices, _hidden = self._order_indices(columns)
        over = _Substituting(evaluator.engine, self.calls)
        rows = []
        for first, states in partial.groups.values():
            if first is None:
                # the all-rows group of an empty input has no row to
                # read: only row-free expressions still evaluate
                first = [evaluator.eval(expression, EMPTY_ENV)
                         for expression in self.row_expressions]
            over.values = {id(expression): value for expression, value
                           in zip(self.row_expressions, first)}
            over.finals = [aggregate.final(state) for aggregate, state
                           in zip(self.aggregates, states)]
            if (statement.having is not None and over.eval_predicate(
                    statement.having, EMPTY_ENV) is not True):
                continue
            rows.append(tuple([over.eval(item.expression, EMPTY_ENV)
                               for item in statement.items]))
        return Result(columns, self._reduce(rows, indices))

    # -- DISTINCT, ORDER BY, FETCH FIRST ------------------------------------------

    def _order_indices(self, columns: list[str]
                       ) -> tuple[list[int], list[ast.Expr]]:
        """Per ORDER BY item, the index of its value in a row: an
        output column named by position, by name or by repeating a
        select-list expression — else, where rows still stand for
        themselves (no grouping, no DISTINCT), a hidden value appended
        to the row, whose expressions are returned too."""
        statement = self.statement
        if not statement.order_by:
            return [], []
        entries = [item.expression for item in statement.items]
        if any(isinstance(entry, ast.Star) for entry in entries):
            entries = []  # positions shift under star expansion
        indices: list[int] = []
        hidden: list[ast.Expr] = []
        for order_item in statement.order_by:
            expression = order_item.expression
            index = None
            if isinstance(expression, ast.Literal) and isinstance(
                    expression.value, int):
                index = expression.value - 1
                if not 0 <= index < len(columns):
                    raise NoSuchColumn(
                        f"ORDER BY position {expression.value}"
                        " out of range")
            elif isinstance(expression, ast.ColumnPath) and len(
                    expression.parts) == 1:
                wanted = expression.parts[0].upper()
                index = next((position for position, column
                              in enumerate(columns)
                              if column.upper() == wanted), None)
            if index is None:
                index = next((position for position, entry
                              in enumerate(entries)
                              if ast.same(entry, expression)), None)
            if index is None:
                if self.grouped or statement.distinct:
                    raise NotSupported(
                        "ORDER BY supports output column names and"
                        " positions")
                index = len(columns) + len(hidden)
                hidden.append(expression)
            indices.append(index)
        return indices, hidden

    def _reduce(self, rows: list[tuple],
                indices: list[int]) -> list[tuple]:
        statement = self.statement
        if statement.distinct:
            rows = distinct(rows)
        fetch = statement.fetch_first
        if indices:
            ascending = [item.ascending for item in statement.order_by]

            def key(row: tuple) -> _SortKey:
                return _SortKey([row[index] for index in indices],
                                ascending)
            if fetch is not None:
                # the first *fetch* rows only: a heap of that many,
                # equal to (and as stable as) sorted(...)[:fetch]
                return heapq.nsmallest(fetch, rows, key=key)
            rows = sorted(rows, key=key)
        if fetch is not None:
            rows = rows[:fetch]
        return rows


# -- output columns and star expansion ------------------------------------------


def _derive_column_name(expression: ast.Expr, index: int) -> str:
    if isinstance(expression, ast.ColumnPath):
        return expression.parts[-1].upper()
    if isinstance(expression, ast.AttributeAccess):
        return expression.attribute.upper()
    if isinstance(expression, ast.FunctionCall):
        return expression.name.upper()
    return f"EXPR{index + 1}"


def _output_columns(statement: ast.SelectStmt, environments: list[Env],
                    engine) -> list[str]:
    columns: list[str] = []
    for index, item in enumerate(statement.items):
        if isinstance(item.expression, ast.Star):
            columns.extend(_star_columns(item.expression, statement,
                                         environments, engine))
        elif item.alias is not None:
            columns.append(item.alias.upper())
        else:
            columns.append(_derive_column_name(item.expression, index))
    return columns


def _star_frames(star: ast.Star, frames: list) -> list:
    if star.qualifier is None:
        return frames
    qualifier = identifiers.normalize(star.qualifier)
    return [frame for frame in frames if frame.alias_key == qualifier]


def _star_columns(star: ast.Star, statement: ast.SelectStmt,
                  environments: list[Env], engine) -> list[str]:
    if environments:
        frames = environments[0].frames
    else:  # an empty table still reports its column names
        frames = [binding for item in statement.from_items
                  for binding in engine.empty_binding(item)]
    return [name for frame in _star_frames(star, frames)
            for name in frame.columns]


def _star_values(star: ast.Star, env: Env) -> list[object]:
    return [value for frame in _star_frames(star, env.frames)
            for value in frame.columns.values()]
