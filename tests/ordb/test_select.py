"""repro.ordb.select on its own: no Database, no catalog.

The engine and the shard router both answer a SELECT as "partial →
merge → finalise"; these tests pin the algebra that makes that safe —
however the rows are split and in whatever order the parts arrive,
the merged answer is the answer over the whole.
"""

from __future__ import annotations

from decimal import Decimal
from types import SimpleNamespace

from hypothesis import given, settings, strategies as st

from repro.ordb.expressions import Binding, Env, Evaluator
from repro.ordb.select import Aggregate, Pipeline, distinct
from repro.ordb.sql import ast
from repro.ordb.sql.parser import parse_statement

#: grouped statements evaluate nothing that needs a catalog
EVALUATOR = Evaluator(SimpleNamespace(catalog=None))

_values = st.one_of(
    st.none(),
    st.integers(min_value=-5, max_value=5),
    st.sampled_from([Decimal("1"), Decimal("1.5"), Decimal("-2.0"),
                     Decimal("3.25"), Decimal("0")]))
_rows = st.lists(st.tuples(st.sampled_from(["g0", "g1", None]), _values,
                           _values), max_size=24)
#: a split: which part each row goes to, then the order parts arrive in
_split = st.tuples(st.lists(st.integers(min_value=0, max_value=4),
                            min_size=24, max_size=24),
                   st.permutations(range(5)))


def environments(rows: list[tuple]) -> list[Env]:
    return [Env([Binding("T", {"G": g, "A": a, "B": b})])
            for g, a, b in rows]


def parts_of(rows: list[tuple], split) -> list[list[tuple]]:
    assignment, order = split
    parts = [[row for row, home in zip(rows, assignment) if home == part]
             for part in order]
    return [part for part in parts if part] or [[]]


def whole_and_merged(sql: str, rows: list[tuple], split):
    pipeline = Pipeline(parse_statement(sql))
    whole = pipeline.finalise(
        pipeline.partial(environments(rows), EVALUATOR), EVALUATOR)
    merged = pipeline.finalise(pipeline.merge([
        pipeline.partial(environments(part), EVALUATOR)
        for part in parts_of(rows, split)]), EVALUATOR)
    return whole, merged


AGGREGATES = [f"{name}({modifier}t.a)"
              for name in ("COUNT", "SUM", "MIN", "MAX", "AVG")
              for modifier in ("", "DISTINCT ")] + ["COUNT(*)"]


@settings(max_examples=150, deadline=None)
@given(_rows, _split)
def test_every_aggregate_merges_to_the_unsplit_answer(rows, split):
    sql = f"SELECT {', '.join(AGGREGATES)} FROM t"
    whole, merged = whole_and_merged(sql, rows, split)
    assert merged.columns == whole.columns
    assert merged.rows == whole.rows


@settings(max_examples=100, deadline=None)
@given(_rows, _split)
def test_grouped_having_and_expressions_merge(rows, split):
    whole, merged = whole_and_merged(
        "SELECT t.g, COUNT(*) + 1, SUM(t.a), AVG(DISTINCT t.b),"
        " MIN(t.b) FROM t GROUP BY t.g HAVING COUNT(t.a) > 1", rows,
        split)
    assert sorted(merged.rows, key=repr) == sorted(whole.rows, key=repr)


@settings(max_examples=150, deadline=None)
@given(_rows, _split, st.integers(min_value=0, max_value=8),
       st.booleans())
def test_order_by_fetch_first_merges_to_sorting_the_whole(
        rows, split, fetch, use_distinct):
    # the sort is total (every output column is a key), so the top-k
    # is unique whatever order equal-keyed rows arrived in
    sql = (f"SELECT {'DISTINCT ' if use_distinct else ''}t.g, t.a, t.b"
           f" FROM t ORDER BY 2 DESC, b, t.g"
           f" FETCH FIRST {fetch} ROWS ONLY")
    whole, merged = whole_and_merged(sql, rows, split)
    assert merged.rows == whole.rows
    assert len(whole.rows) <= fetch
    # NULLs sort last ascending, first descending
    firsts = [a for _g, a, _b in whole.rows]
    assert firsts == sorted(firsts, key=lambda a: (a is not None,
                                                   -(a or 0)))


@settings(max_examples=100, deadline=None)
@given(_rows, _split)
def test_hidden_order_expressions_travel_with_the_rows(rows, split):
    whole, merged = whole_and_merged(
        "SELECT t.g FROM t ORDER BY t.a * 10 + t.b DESC, t.g", rows,
        split)
    assert merged.rows == whole.rows
    assert all(len(row) == 1 for row in whole.rows)


@given(st.lists(_values, max_size=12), st.lists(_values, max_size=12))
def test_aggregate_states_are_plain_values(left, right):
    """step/merge/final directly: states are numbers, pairs and sets
    (what a process-backed shard could put on the wire)."""
    for name in ("COUNT", "SUM", "MIN", "MAX", "AVG"):
        for is_distinct in (False, True):
            aggregate = Aggregate(ast.FunctionCall(
                name, (ast.ColumnPath(("t", "a")),),
                distinct=is_distinct))

            def fold(values):
                state = aggregate.start()
                for value in values:
                    if value is not None:
                        state = aggregate.step(state, value)
                return state

            a, b = fold(left), fold(right)
            assert isinstance(a, (int, Decimal, tuple, set, type(None)))
            assert (aggregate.final(aggregate.merge(a, b))
                    == aggregate.final(fold(left + right)))


# -- DISTINCT ------------------------------------------------------------------------


def quadratic_distinct(rows: list[tuple]) -> list[tuple]:
    """The helper the engine and the router used to share."""
    unique: list[tuple] = []
    for row in rows:
        if row not in unique:
            unique.append(row)
    return unique


def test_distinct_matches_the_old_helper():
    rows = [(n, f"v{n % 4000}") for n in range(8000)]
    rows += [(Decimal(n), f"v{n}") for n in range(0, 8000, 40)]
    rows += [(None, None), (None, None), (1, None)]
    assert distinct(rows) == quadratic_distinct(rows)
    # 1 and Decimal(1) are one value; the first seen is kept
    assert distinct([(Decimal(1),), (1,), (2,)]) == [(Decimal(1),), (2,)]


def test_distinct_is_not_quadratic():
    """Distinct rows cost no pairwise comparisons: n values with
    distinct hashes are compared at most n times in all (the old list
    scan compared each row with every row kept before it)."""
    comparisons = 0

    class Counted:
        def __init__(self, n: int):
            self.n = n

        def __hash__(self) -> int:
            return self.n

        def __eq__(self, other: object) -> bool:
            nonlocal comparisons
            comparisons += 1
            return isinstance(other, Counted) and self.n == other.n

    count = 2_000
    assert len(distinct([(Counted(n),) for n in range(count)])) == count
    assert comparisons <= count
