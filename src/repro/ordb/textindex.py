"""Content search over stored documents: CONTAINS, trigram LIKE, VECTOR.

The paper maps XML *structure* into object-relational tables; this
module adds the content-addressed side of that workload — finding
documents by the words and substrings they contain, and by embedding
similarity:

* :class:`FullTextIndex` — an inverted index over the tokenized words
  of one string column, serving the ``CONTAINS(col, 'w1 AND w2 OR
  w3')`` predicate (case-insensitive word match);
* :class:`TrigramIndex` — a trigram posting index over the raw
  (lowercased) text of one string column, turning a non-prefix
  ``LIKE '%...%'`` from a full scan into an intersection of posting
  lists plus the residual regex check;
* :func:`vector_distance` — exact COSINE / EUCLIDEAN distance between
  ``VECTOR(dim)`` values, evaluated row-by-row (``ORDER BY ... FETCH
  FIRST k ROWS ONLY`` gives top-k).

Both index classes speak the same maintenance protocol as
:class:`~.indexes.HashIndex` (``add`` / ``remove`` / ``add_keyed`` /
``remove_keyed`` keyed by the raw column value), so the engine's
undo-journaled :class:`~.indexes.IndexSet` entry points keep them
fault-consistent for free.  Probes honour the superset contract: a
probe returns *at least* every matching row (the engine re-checks
pushed conjuncts per row), ``[]`` only when provably empty, and the
planner falls back to a scan when no probe applies.
"""

from __future__ import annotations

import math
import re

from . import identifiers
from .datatypes import parse_vector
from .errors import TypeMismatch
from .indexes import _column_value, _probe_column
from .sql import ast
from .storage import Row

#: words for tokenization: maximal runs of letters and digits
_TOKEN_RE = re.compile(r"[a-z0-9]+")

#: metrics VECTOR_DISTANCE understands
VECTOR_METRICS = frozenset({"COSINE", "EUCLIDEAN"})


# -- text decomposition -------------------------------------------------------------


def tokenize(value: object) -> frozenset[str]:
    """The distinct lowercased words of *value*; empty for non-text
    (a full-text index on a non-string column simply indexes
    nothing)."""
    if not isinstance(value, str):
        return frozenset()
    return frozenset(_TOKEN_RE.findall(value.lower()))


def trigrams(value: object) -> frozenset[str]:
    """The distinct trigrams of the lowercased raw text.

    Lowercasing folds both the stored text and the probe fragments
    the same way, so every case-sensitive LIKE match still has all
    of its fragments' trigrams present — candidates stay a superset.
    """
    if not isinstance(value, str) or len(value) < 3:
        return frozenset()
    text = value.lower()
    return frozenset(text[i:i + 3] for i in range(len(text) - 2))


def parse_contains_query(query: str) -> tuple[tuple[str, ...], ...]:
    """OR-groups of AND-terms from a CONTAINS query string.

    ``'a AND b OR c'`` parses to ``(("a", "b"), ("c",))`` — AND binds
    tighter than OR; bare whitespace between words is an implicit
    AND.  Terms are tokenized like indexed text, so punctuation never
    causes a mismatch.  An empty query yields no groups (matches
    nothing).
    """
    if not isinstance(query, str):
        raise TypeMismatch("CONTAINS requires a string query")
    groups: list[tuple[str, ...]] = []
    for segment in re.split(r"\s+OR\s+", query.strip(),
                            flags=re.IGNORECASE):
        terms: list[str] = []
        for part in re.split(r"\s+AND\s+", segment,
                             flags=re.IGNORECASE):
            terms.extend(_TOKEN_RE.findall(part.lower()))
        if terms:
            groups.append(tuple(terms))
    return tuple(groups)


def contains_match(value: object,
                   groups: tuple[tuple[str, ...], ...]) -> bool | None:
    """Evaluate a parsed CONTAINS query against one column value
    (NULL in, UNKNOWN out — standard three-valued logic)."""
    if value is None:
        return None
    if not isinstance(value, str):
        raise TypeMismatch("CONTAINS requires a string column")
    if not groups:
        return False
    tokens = tokenize(value)
    return any(all(term in tokens for term in group)
               for group in groups)


def like_fragments(pattern: str,
                   escape: str | None = None) -> list[str] | None:
    """The literal text runs between wildcards of a LIKE pattern,
    with ``ESCAPE`` sequences resolved (``\\%`` contributes a literal
    ``%``).  Returns None for a malformed pattern or escape — the
    probe is skipped and the evaluator raises the proper ORA error
    at run time."""
    if escape is not None and (not isinstance(escape, str)
                               or len(escape) != 1):
        return None
    fragments: list[str] = []
    current: list[str] = []
    position = 0
    while position < len(pattern):
        character = pattern[position]
        if escape is not None and character == escape:
            if position + 1 >= len(pattern):
                return None  # dangling escape (ORA-01424)
            follower = pattern[position + 1]
            if follower not in ("%", "_") and follower != escape:
                return None  # illegal escaped character (ORA-01424)
            current.append(follower)
            position += 2
            continue
        if character in ("%", "_"):
            if current:
                fragments.append("".join(current))
                current = []
            position += 1
            continue
        current.append(character)
        position += 1
    if current:
        fragments.append("".join(current))
    return fragments


def pattern_trigrams(pattern: str,
                     escape: str | None = None) -> frozenset[str]:
    """Trigrams every LIKE match must contain: the union over the
    pattern's literal fragments.  Empty when no fragment reaches
    three characters — too short to narrow anything, so the caller
    scans."""
    fragments = like_fragments(pattern, escape)
    if not fragments:
        return frozenset()
    grams: set[str] = set()
    for fragment in fragments:
        grams.update(trigrams(fragment))
    return frozenset(grams)


# -- index structures ---------------------------------------------------------------


class ContentIndex:
    """Shared machinery of the posting-list indexes.

    The *key* of a row (for :class:`~.indexes.IndexSet` maintenance)
    is the raw column value; ``add_keyed``/``remove_keyed`` derive
    the posting terms from it deterministically, so an UPDATE that
    leaves the column untouched short-circuits exactly like a hash
    index, and rollback replays are symmetric."""

    #: excluded from equality/covering probe selection
    content = True
    #: content indexes are never unique and always user-declared
    unique = False
    user_created = True
    #: "FULLTEXT" | "TRIGRAM", set by subclasses
    kind = ""

    __slots__ = ("name", "columns", "postings")

    def __init__(self, name: str, columns: tuple[str, ...]):
        self.name = name
        self.columns = tuple(columns)
        #: term -> rows whose indexed value contains the term
        self.postings: dict[str, list[Row]] = {}

    def _terms_of(self, value: object) -> frozenset[str]:
        raise NotImplementedError  # pragma: no cover - abstract

    # -- maintenance (the IndexSet protocol) --------------------------------------

    def key_of(self, row: Row) -> object:
        return _column_value(row.values, self.columns[0])

    def key_for_values(self, values: dict[str, object]) -> object:
        return _column_value(values, self.columns[0])

    def add(self, row: Row) -> None:
        self.add_keyed(row, self.key_of(row))

    def add_keyed(self, row: Row, key: object) -> None:
        for term in self._terms_of(key):
            self.postings.setdefault(term, []).append(row)

    def remove(self, row: Row) -> None:
        self.remove_keyed(row, self.key_of(row))

    def remove_keyed(self, row: Row, key: object) -> bool:
        removed = False
        for term in self._terms_of(key):
            bucket = self.postings.get(term)
            if bucket is None:
                continue
            for position in range(len(bucket) - 1, -1, -1):
                if bucket[position] is row:
                    del bucket[position]
                    removed = True
                    break
            if not bucket:
                del self.postings[term]
        return removed

    def rebuild(self, rows: list[Row]) -> None:
        """Recompute every posting list from the stored rows (after a
        checkpoint load or WAL replay)."""
        self.postings.clear()
        for row in rows:
            self.add(row)

    # -- introspection ------------------------------------------------------------

    def entry_count(self) -> int:
        return sum(len(bucket) for bucket in self.postings.values())

    def distinct_keys(self) -> int:
        return len(self.postings)

    def verify_rows(self, rows: list[Row]) -> list[str]:
        """Consistency check: the posting lists equal exactly what a
        rebuild from *rows* would produce (each stored row listed
        once under each of its terms, nothing stale)."""
        problems: list[str] = []
        expected: dict[str, set[int]] = {}
        for row in rows:
            for term in self._terms_of(self.key_of(row)):
                expected.setdefault(term, set()).add(id(row))
        actual: dict[str, dict[int, int]] = {}
        for term, bucket in self.postings.items():
            counts = actual.setdefault(term, {})
            for row in bucket:
                counts[id(row)] = counts.get(id(row), 0) + 1
        for term, row_ids in expected.items():
            counts = actual.get(term, {})
            for row_id in row_ids:
                if counts.pop(row_id, 0) != 1:
                    problems.append(
                        f"{self.name}: term {term!r} does not list a"
                        f" stored row exactly once")
        for term, counts in actual.items():
            if counts:
                problems.append(
                    f"{self.name}: term {term!r} has {len(counts)}"
                    f" stale entr(y/ies)")
        return problems


class FullTextIndex(ContentIndex):
    """Inverted word index serving ``CONTAINS`` (USING FULLTEXT)."""

    kind = "FULLTEXT"
    __slots__ = ()

    def _terms_of(self, value: object) -> frozenset[str]:
        return tokenize(value)

    def lookup(self,
               groups: tuple[tuple[str, ...], ...]) -> list[Row]:
        """Candidate rows for a parsed CONTAINS query: the union over
        OR-groups of the intersection of each group's posting lists.
        A term with no postings makes its group provably empty."""
        rows: list[Row] = []
        seen: set[int] = set()
        for group in groups:
            buckets = [self.postings.get(term, []) for term in group]
            if not buckets or any(not bucket for bucket in buckets):
                continue
            buckets.sort(key=len)
            rest = [set(map(id, bucket)) for bucket in buckets[1:]]
            for row in buckets[0]:
                if id(row) in seen:
                    continue
                if all(id(row) in bucket_ids for bucket_ids in rest):
                    seen.add(id(row))
                    rows.append(row)
        return rows


class TrigramIndex(ContentIndex):
    """Trigram posting index serving non-prefix LIKE (USING TRIGRAM)."""

    kind = "TRIGRAM"
    __slots__ = ()

    def _terms_of(self, value: object) -> frozenset[str]:
        return trigrams(value)

    def lookup(self, grams: frozenset[str]) -> list[Row]:
        """Candidate rows containing every trigram.  A trigram with
        no postings proves no row can match the pattern."""
        buckets: list[list[Row]] = []
        for gram in grams:
            bucket = self.postings.get(gram)
            if not bucket:
                return []
            buckets.append(bucket)
        if not buckets:
            return []
        buckets.sort(key=len)
        rest = [set(map(id, bucket)) for bucket in buckets[1:]]
        return [row for row in buckets[0]
                if all(id(row) in bucket_ids for bucket_ids in rest)]


# -- probe selection over pushed conjuncts ------------------------------------------


class FullTextProbeSpec:
    """A planned CONTAINS probe against a full-text index."""

    __slots__ = ("index", "groups", "conjuncts")

    def __init__(self, index: FullTextIndex,
                 groups: tuple[tuple[str, ...], ...],
                 conjuncts: list[ast.Expr]):
        self.index = index
        self.groups = groups
        self.conjuncts = conjuncts

    @property
    def operation(self) -> str:
        return "FULLTEXT INDEX SCAN"


class TrigramProbeSpec:
    """A planned trigram probe for a non-prefix LIKE."""

    __slots__ = ("index", "trigrams", "conjuncts")

    def __init__(self, index: TrigramIndex,
                 grams: frozenset[str], conjuncts: list[ast.Expr]):
        self.index = index
        self.trigrams = grams
        self.conjuncts = conjuncts

    @property
    def operation(self) -> str:
        return "TRIGRAM INDEX SCAN"


def find_content_probes(table, alias_key: str,
                        pushed: list[ast.Expr]) -> list[object]:
    """Every content probe the pushed conjuncts admit: CONTAINS with
    a literal query against a FULLTEXT index, and a non-negated LIKE
    with a literal pattern (literal ESCAPE allowed — it is unescaped
    before trigram extraction) against a TRIGRAM index.  The planner
    prices each against the scan."""
    fulltext: dict[str, FullTextIndex] = {}
    trigram: dict[str, TrigramIndex] = {}
    for index in table.indexes:
        if isinstance(index, FullTextIndex):
            fulltext.setdefault(index.columns[0], index)
        elif isinstance(index, TrigramIndex):
            trigram.setdefault(index.columns[0], index)
    specs: list[object] = []
    if not fulltext and not trigram:
        return specs
    for conjunct in pushed:
        if (isinstance(conjunct, ast.FunctionCall)
                and conjunct.name.upper() == "CONTAINS"
                and len(conjunct.arguments) == 2
                and isinstance(conjunct.arguments[1], ast.Literal)
                and isinstance(conjunct.arguments[1].value, str)):
            column = _probe_column(conjunct.arguments[0], alias_key,
                                   table)
            index = fulltext.get(column) if column else None
            if index is None:
                continue
            groups = parse_contains_query(conjunct.arguments[1].value)
            specs.append(FullTextProbeSpec(index, groups, [conjunct]))
        elif (isinstance(conjunct, ast.Like) and not conjunct.negated
                and isinstance(conjunct.pattern, ast.Literal)
                and isinstance(conjunct.pattern.value, str)):
            escape: str | None = None
            if conjunct.escape is not None:
                if not (isinstance(conjunct.escape, ast.Literal)
                        and isinstance(conjunct.escape.value, str)):
                    continue  # runtime escape: not statically safe
                escape = conjunct.escape.value
            column = _probe_column(conjunct.operand, alias_key, table)
            index = trigram.get(column) if column else None
            if index is None:
                continue
            grams = pattern_trigrams(conjunct.pattern.value, escape)
            if not grams:
                continue  # no fragment of 3+ chars: cannot narrow
            specs.append(TrigramProbeSpec(index, grams, [conjunct]))
    return specs


def content_estimate(spec, row_count: int) -> int:
    """Expected candidate rows of a content probe, from live posting
    list sizes: the smallest list bounds an intersection, the sum
    over OR-groups bounds a union.  Zero is meaningful — a missing
    term/trigram proves emptiness."""
    postings = spec.index.postings
    if isinstance(spec, TrigramProbeSpec):
        estimate = min((len(postings.get(gram, ()))
                        for gram in spec.trigrams), default=0)
    else:
        estimate = 0
        for group in spec.groups:
            sizes = [len(postings.get(term, ())) for term in group]
            estimate += min(sizes) if sizes else 0
    return min(estimate, max(row_count, 0))


# -- vector similarity --------------------------------------------------------------


def vector_distance(left: object, right: object,
                    metric: str = "COSINE") -> float:
    """Exact distance between two vectors (COSINE default).

    Operands coerce through :func:`~.datatypes.parse_vector`, so a
    stored ``VECTOR(dim)`` column compares against a string literal
    query vector directly."""
    a = parse_vector(left)
    b = parse_vector(right)
    if len(a) != len(b):
        raise TypeMismatch(
            f"VECTOR_DISTANCE dimensions differ: {len(a)} vs {len(b)}")
    if metric == "EUCLIDEAN":
        return math.sqrt(sum((x - y) ** 2 for x, y in zip(a, b)))
    norm_a = math.sqrt(sum(x * x for x in a))
    norm_b = math.sqrt(sum(y * y for y in b))
    if norm_a == 0.0 or norm_b == 0.0:
        raise TypeMismatch(
            "VECTOR_DISTANCE COSINE of a zero vector is undefined")
    dot = sum(x * y for x, y in zip(a, b))
    return 1.0 - dot / (norm_a * norm_b)


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
    return any(isinstance(node, ast.FunctionCall)
               and node.name.upper() == "VECTOR_DISTANCE"
               for expression in expressions
               for node in ast.walk(expression, ast.SelectStmt))


def normalize_metric(metric: str) -> str:
    """Canonical metric name, validated."""
    wanted = identifiers.normalize(metric)
    if wanted not in VECTOR_METRICS:
        raise TypeMismatch(
            f"unknown VECTOR_DISTANCE metric {metric!r}: expected"
            f" COSINE or EUCLIDEAN")
    return wanted
