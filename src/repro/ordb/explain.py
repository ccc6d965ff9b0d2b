"""EXPLAIN: render the plan a statement would run.

There is one plan.  :func:`repro.ordb.planner.plan_select` decides
which WHERE conjunct runs at which FROM level and which access path
each level uses; the executor runs that plan and :class:`PlanBuilder`
renders it, so each FROM level prints as SCAN, INDEX [UNIQUE] LOOKUP,
RANGE INDEX SCAN or a content-index scan exactly as it will run.
Lines are annotated with row estimates and costs:

* ``rows=N``  — an exact count (table sizes are known);
* ``~rows=N`` — an estimate: collection expansions use the average
  cardinality observed in stored rows, every FILTER keeps 1/3 of its
  input (a fixed selectivity, documented rather than clever);
* ``cost=N``  — the planner's estimated row-visit cost of the chosen
  access path (scan = table rows; hash probe = 1 + bucket rows;
  range probe = log2(N+1) + matching rows).  The statement root
  carries the plan total when every FROM level was costable.

The estimates for views, subqueries and ``TABLE()`` live here, in the
renderer, because the executor never needs them.  Rendering never
touches row data beyond counting, so ``EXPLAIN`` has no side effects
and bumps no scan counters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import identifiers
from .datatypes import NestedTableType, ObjectType, RefType, VarrayType
from .errors import NotSupported
from .expressions import contains_aggregate, sub_expressions
from .planner import LevelPlan, plan_select
from .sql import ast
from .values import CollectionValue

#: Fraction of rows assumed to survive one FILTER step.
FILTER_SELECTIVITY = 1 / 3


@dataclass
class PlanStep:
    """One step of a plan: a line of the rendered tree, with the
    steps it reads from as ``children``."""

    operation: str
    target: str = ""
    detail: str = ""
    estimated_rows: int | None = None
    exact: bool = False
    cost: float | None = None
    depth: int = 0
    children: list[PlanStep] = field(default_factory=list, repr=False)

    def render(self) -> str:
        text = self.operation
        if self.target:
            text += f" {self.target}"
        if self.detail:
            text += f" [{self.detail}]"
        if self.estimated_rows is not None:
            marker = "rows=" if self.exact else "~rows="
            text += f"  {marker}{self.estimated_rows}"
        if self.cost is not None:
            text += f"  cost={round(self.cost)}"
        return text

    def flatten(self, depth: int = 0,
                into: list[PlanStep] | None = None) -> list[PlanStep]:
        """This step and every step below it, depth first, each with
        its ``depth`` set."""
        steps = into if into is not None else []
        self.depth = depth
        steps.append(self)
        for child in self.children:
            child.flatten(depth + 1, steps)
        return steps


@dataclass
class QueryPlan:
    """A (deliberately simple) description of how a statement runs.

    ``tables`` / ``join_count`` / ``has_subquery`` /
    ``uses_dot_navigation`` are the flat summary the CLM2 experiment
    counts; ``steps`` is the full evaluation tree ``EXPLAIN`` renders.
    """

    tables: list[str] = field(default_factory=list)
    join_count: int = 0
    has_subquery: bool = False
    uses_dot_navigation: bool = False
    steps: list[PlanStep] = field(default_factory=list)
    estimated_rows: int | None = None

    def describe(self) -> str:
        parts = [f"scan({table})" for table in self.tables]
        text = " NESTED-LOOP-JOIN ".join(parts) if parts else "empty"
        if self.uses_dot_navigation:
            text += " +dot-navigation"
        return text

    def render(self) -> str:
        """The indented step tree, one numbered line per step."""
        lines = []
        for index, step in enumerate(self.steps):
            lines.append(f"{index:>2}  {'  ' * step.depth}{step.render()}")
        return "\n".join(lines)


def _filtered(rows: int | None) -> int | None:
    if rows is None:
        return None
    return max(1, math.ceil(rows * FILTER_SELECTIVITY))


class PlanBuilder:
    """Renders a statement's plan as a :class:`QueryPlan` against a
    live database."""

    def __init__(self, db, read_mode: str | None = None):
        self.catalog = db.catalog
        self.enable_indexes = db.enable_indexes
        #: rendered on the SELECT STATEMENT line: "SNAPSHOT READ
        #: @latest" or "SNAPSHOT READ @<ts>" (pinned transaction
        #: snapshot) — how the SELECT would actually read rows
        self.read_mode = read_mode

    # -- entry point -------------------------------------------------------------

    def build(self, statement: ast.Statement) -> QueryPlan:
        if isinstance(statement, ast.ExplainStmt):
            statement = statement.statement
        if isinstance(statement, ast.SelectStmt):
            root = self._select_node(statement)
            tables, has_subquery = self._legacy_summary(statement)
            plan = QueryPlan(
                tables=tables,
                join_count=max(0, len(statement.from_items) - 1),
                has_subquery=has_subquery,
                uses_dot_navigation=uses_dot_navigation(statement))
        elif isinstance(statement, (ast.Insert, ast.Update, ast.Delete)):
            root = (self._insert_node(statement)
                    if isinstance(statement, ast.Insert)
                    else self._dml_node(statement))
            plan = QueryPlan(
                tables=[identifiers.normalize(statement.table)])
        else:
            raise NotSupported(
                "EXPLAIN supports SELECT, INSERT, UPDATE or DELETE")
        plan.steps = root.flatten()
        plan.estimated_rows = root.estimated_rows
        return plan

    def _legacy_summary(self,
                        statement: ast.SelectStmt) -> tuple[list, bool]:
        tables: list[str] = []
        has_subquery = False
        for item in statement.from_items:
            if isinstance(item, ast.TableRef):
                tables.append(identifiers.normalize(item.name))
            elif isinstance(item, ast.SubqueryRef):
                inner, _ = self._legacy_summary(item.query)
                tables.extend(inner)
                has_subquery = True
            else:
                tables.append("TABLE()")
        return tables, has_subquery

    # -- the plan ----------------------------------------------------------------

    def _select_node(self, statement: ast.SelectStmt) -> PlanStep:
        plan = plan_select(self.catalog, statement, self.enable_indexes)
        sources: list[PlanStep] = []
        total_cost: float | None = 0.0
        outer_rows = 1
        for level in plan.levels:
            sources.append(self._level_node(level, statement))
            access = level.access
            if access is None:
                total_cost = None  # views/subqueries price themselves
            elif total_cost is not None:
                # nested loops: this level's access path runs once
                # per combination of already-bound outer rows
                total_cost += outer_rows * access.cost
                outer_rows *= max(1, access.est_rows)
        top = sources[0] if len(sources) == 1 else PlanStep(
            "NESTED-LOOP JOIN",
            estimated_rows=_product(node.estimated_rows for node in sources),
            exact=all(node.exact for node in sources), children=sources)
        for conjunct in plan.residual:
            top = _wrap_filter(top, conjunct)
        top = self._wrap_shaping(top, statement)
        return PlanStep(
            "SELECT STATEMENT", detail=self.read_mode or "",
            estimated_rows=top.estimated_rows, exact=top.exact,
            cost=total_cost,
            children=[top, *self._deref_nodes(statement)])

    def _dml_node(self, statement: ast.Update | ast.Delete) -> PlanStep:
        """UPDATE and DELETE: their one level, under the statement."""
        plan = plan_select(self.catalog, statement, self.enable_indexes)
        child = self._level_node(plan.levels[0], statement)
        if isinstance(statement, ast.Update):
            operation = "UPDATE STATEMENT"
            detail = "SET " + ", ".join(
                target.source() for target, _ in statement.assignments)
        else:
            operation, detail = "DELETE STATEMENT", ""
        return PlanStep(operation, target=statement.table, detail=detail,
                        estimated_rows=child.estimated_rows,
                        exact=child.exact, children=[child])

    def _level_node(self, level: LevelPlan, statement) -> PlanStep:
        """One level: its access step under a FILTER per conjunct it
        runs.  A conjunct the probe absorbs is not shown again, and a
        filter the probe absorbs part of shows the rest, one FILTER
        per conjunct."""
        access = level.access
        probe = access.probe if access is not None else None
        consumed: set[int] = set()
        if probe is not None:
            consumed = {id(conjunct) for conjunct in probe.conjuncts}
            table = self.catalog.tables[
                identifiers.normalize(level.item.name)]
            node = PlanStep(
                probe.operation, target=table.name,
                detail=f"{probe.index.name}: " + " AND ".join(
                    render_expr(conjunct)
                    for conjunct in probe.conjuncts),
                estimated_rows=access.est_rows, cost=access.cost)
        else:
            node = self._source_node(level.item, statement)
            if access is not None:
                node.cost = access.cost
        for expression in level.filters:
            for conjunct in (ast.flatten(expression, "AND") if consumed
                             else (expression,)):
                if id(conjunct) not in consumed:
                    node = _wrap_filter(node, conjunct)
        return node

    def _wrap_shaping(self, top: PlanStep,
                      statement: ast.SelectStmt) -> PlanStep:
        has_aggregate = any(
            contains_aggregate(item.expression) for item in statement.items)
        if statement.group_by or has_aggregate:
            top = PlanStep(
                "AGGREGATE",
                detail=("GROUP BY " + ", ".join(
                    render_expr(e) for e in statement.group_by)
                    if statement.group_by else "single group"),
                estimated_rows=(None if statement.group_by else 1),
                exact=not statement.group_by, children=[top])
        if statement.distinct:
            top = PlanStep("DISTINCT", estimated_rows=top.estimated_rows,
                           children=[top])
        if statement.order_by:
            top = PlanStep(
                "SORT",
                detail="ORDER BY " + ", ".join(
                    render_expr(item.expression)
                    for item in statement.order_by),
                estimated_rows=top.estimated_rows, exact=top.exact,
                children=[top])
        return PlanStep(
            "PROJECT",
            detail=", ".join(render_expr(item.expression)
                             for item in statement.items),
            estimated_rows=top.estimated_rows, exact=top.exact,
            children=[top])

    # -- FROM sources: what the executor never needs estimated -------------------

    def _source_node(self, item: ast.FromItem, statement) -> PlanStep:
        if isinstance(item, ast.TableRef):
            key = identifiers.normalize(item.name)
            view = self.catalog.views.get(key)
            if view is not None:
                inner = self._select_node(view.query)
                return PlanStep("VIEW", target=view.name,
                                estimated_rows=inner.estimated_rows,
                                children=inner.children)
            table = self.catalog.tables.get(key)
            rows = len(table.data.rows) if table is not None else None
            return PlanStep("SCAN",
                            target=(table.name if table is not None
                                    else item.name),
                            estimated_rows=rows, exact=rows is not None)
        if isinstance(item, ast.SubqueryRef):
            inner = self._select_node(item.query)
            return PlanStep("SUBQUERY", target=item.alias or "",
                            estimated_rows=inner.estimated_rows,
                            children=inner.children)
        assert isinstance(item, ast.TableFunctionRef)
        return PlanStep("COLLECTION EXPAND",
                        target=f"TABLE({render_expr(item.expression)})",
                        estimated_rows=self._collection_estimate(
                            item.expression, statement))

    def _alias_map(self, statement: ast.SelectStmt) -> dict:
        """Alias -> table, or -> element ObjectType for TABLE() items."""
        mapping: dict[str, object] = {}
        for item in statement.from_items:
            if isinstance(item, ast.TableRef):
                table = self.catalog.tables.get(
                    identifiers.normalize(item.name))
                if table is not None:
                    alias = item.alias or item.name
                    mapping[identifiers.normalize(alias)] = table
            elif isinstance(item, ast.TableFunctionRef) and item.alias:
                element = self._element_type(item.expression, mapping)
                if element is not None:
                    mapping[identifiers.normalize(item.alias)] = element
        return mapping

    def _member_type(self, source, name: str):
        """Datatype of a column (table source) or attribute (object)."""
        member = (source.attribute if isinstance(source, ObjectType)
                  else getattr(source, "column", None))
        found = member(name) if member is not None else None
        return found.datatype if found is not None else None

    def _element_type(self, expression: ast.Expr,
                      mapping: dict) -> ObjectType | None:
        """Element object type of a TABLE(...) collection expression."""
        if not (isinstance(expression, ast.ColumnPath)
                and len(expression.parts) >= 2):
            return None
        source = mapping.get(identifiers.normalize(expression.parts[0]))
        datatype = None
        for part in expression.parts[1:]:
            datatype = self._member_type(source, part)
            if isinstance(datatype, RefType):
                datatype = self.catalog.types.get(datatype.target_key)
            source = datatype
        if isinstance(datatype, (VarrayType, NestedTableType)):
            element = datatype.element_type
            if isinstance(element, ObjectType):
                return element
        return None

    def _collection_estimate(self, expression: ast.Expr,
                             statement: ast.SelectStmt) -> int | None:
        """Average cardinality of the expanded collection column."""
        if not (isinstance(expression, ast.ColumnPath)
                and len(expression.parts) == 2):
            return None
        table = self._alias_map(statement).get(
            identifiers.normalize(expression.parts[0]))
        if table is None or isinstance(table, ObjectType):
            return None  # no stored rows to average over
        column = table.column(expression.parts[1])
        if column is None or not isinstance(
                column.datatype, (VarrayType, NestedTableType)):
            return None
        sizes = [
            len(value.items) for row in table.data.rows
            if isinstance(value := row.values.get(column.key),
                          CollectionValue)
        ]
        if not sizes:
            return None
        return max(1, round(sum(sizes) / len(sizes)))

    # -- REF navigation ----------------------------------------------------------

    def _deref_nodes(self, statement: ast.SelectStmt) -> list[PlanStep]:
        alias_map = self._alias_map(statement)
        nodes: list[PlanStep] = []
        seen: set[str] = set()

        def note(path: str, target: str) -> None:
            if path not in seen:
                seen.add(path)
                nodes.append(PlanStep("REF DEREF", target=target,
                                      detail=path))

        for expression in _items_and_where(statement):
            for node in ast.walk(expression, ast.SelectStmt):
                if isinstance(node, ast.ColumnPath):
                    self._trace_ref_path(node, alias_map, note)
                elif (isinstance(node, ast.FunctionCall)
                        and node.name.upper() == "DEREF"):
                    argument = (render_expr(node.arguments[0])
                                if node.arguments else "?")
                    note(f"DEREF({argument})", "")
        return nodes

    def _trace_ref_path(self, path: ast.ColumnPath, alias_map: dict,
                        note) -> None:
        if len(path.parts) < 2:
            return
        source = alias_map.get(identifiers.normalize(path.parts[0]))
        datatype = self._member_type(source, path.parts[1])
        if datatype is None:
            return
        prefix = f"{path.parts[0]}.{path.parts[1]}"
        for part in path.parts[2:]:
            if isinstance(datatype, RefType):
                note(prefix, datatype.target_type)
                datatype = self.catalog.types.get(datatype.target_key)
            if not isinstance(datatype, ObjectType):
                return
            attribute = datatype.attribute(part)
            if attribute is None:
                return
            datatype = attribute.datatype
            prefix += f".{part}"

    # -- INSERT ------------------------------------------------------------------

    def _insert_node(self, statement: ast.Insert) -> PlanStep:
        if statement.query is not None:
            select = self._select_node(statement.query)
            return PlanStep("INSERT STATEMENT", target=statement.table,
                            estimated_rows=select.estimated_rows,
                            children=[select])
        root = PlanStep("INSERT STATEMENT", target=statement.table,
                        estimated_rows=1, exact=True)
        for value in statement.values:
            root.children.extend(self._value_nodes(value))
        return root

    def _value_nodes(self, expression: ast.Expr) -> list[PlanStep]:
        """CONSTRUCT / REF LOOKUP steps inside an INSERT value tree."""
        if isinstance(expression, ast.FunctionCall):
            key = identifiers.normalize(expression.name)
            if key in self.catalog.types:
                node = PlanStep("CONSTRUCT", target=expression.name,
                                detail=f"{len(expression.arguments)}"
                                       f" argument(s)")
                for argument in expression.arguments:
                    node.children.extend(self._value_nodes(argument))
                return [node]
        if isinstance(expression, ast.ScalarSubquery):
            select = self._select_node(expression.query)
            return [PlanStep("REF LOOKUP", estimated_rows=1, exact=True,
                             children=select.children)]
        nodes: list[PlanStep] = []
        for child in sub_expressions(expression):
            nodes.extend(self._value_nodes(child))
        return nodes


# -- module helpers --------------------------------------------------------------


def _wrap_filter(child: PlanStep, conjunct: ast.Expr) -> PlanStep:
    return PlanStep("FILTER", detail=render_expr(conjunct),
                    estimated_rows=_filtered(child.estimated_rows),
                    children=[child])


def _product(values) -> int | None:
    result = 1
    for value in values:
        if value is None:
            return None
        result *= value
    return result


#: how tightly each operator binds, loosest first (the parser's
#: levels); comparisons, IS NULL, LIKE, BETWEEN and IN share level 4
_BINDING = {"OR": 1, "AND": 2, "NOT": 3, "=": 4, "<>": 4, "<": 4,
            ">": 4, "<=": 4, ">=": 4, "+": 5, "-": 5, "||": 5,
            "*": 6, "/": 6}
_PREDICATE, _SIGN, _PRIMARY = 4, 7, 8


def _binding(expression: ast.Expr) -> int:
    if isinstance(expression, ast.BinaryOp):
        return _BINDING[expression.operator]
    if isinstance(expression, ast.UnaryOp):
        return _BINDING["NOT"] if expression.operator == "NOT" else _SIGN
    if isinstance(expression, (ast.IsNull, ast.Like, ast.Between,
                               ast.InList, ast.InSubquery)):
        return _PREDICATE
    return _PRIMARY


def _operand(expression: ast.Expr, binding: int) -> str:
    """*expression* rendered where it must bind at least *binding*
    tightly: parenthesised when it binds more loosely."""
    text = render_expr(expression)
    return f"({text})" if _binding(expression) < binding else text


def _comparand(expression: ast.Expr) -> str:
    """An operand of a comparison, IS NULL, LIKE, BETWEEN or IN."""
    return _operand(expression, _PREDICATE + 1)


def _quote(text: str) -> str:
    return "'" + text.replace("'", "''") + "'"


def render_expr(expression: ast.Expr) -> str:
    """Compact SQL rendering of an expression for plan lines: it
    parses back to the same expression, except that subqueries, CASE
    and CAST bodies are elided."""
    if isinstance(expression, ast.Literal):
        if expression.value is None:
            return "NULL"
        if isinstance(expression.value, str):
            return _quote(expression.value)
        return str(expression.value)
    if isinstance(expression, ast.DateLiteral):
        return f"DATE {_quote(expression.text)}"
    if isinstance(expression, ast.ColumnPath):
        return expression.source()
    if isinstance(expression, ast.Star):
        return (f"{expression.qualifier}.*"
                if expression.qualifier else "*")
    if isinstance(expression, ast.AttributeAccess):
        return (f"{_operand(expression.base, _PRIMARY)}"
                f".{expression.attribute}")
    if isinstance(expression, ast.FunctionCall):
        arguments = ", ".join(render_expr(argument)
                              for argument in expression.arguments)
        distinct = "DISTINCT " if expression.distinct else ""
        return f"{expression.name}({distinct}{arguments})"
    if isinstance(expression, ast.BinaryOp):
        operator = expression.operator
        binding = _BINDING[operator]
        if operator == "AND" or operator == "OR":
            return f" {operator} ".join(
                _operand(operand, binding + 1) for operand
                in ast.flatten(expression, operator))
        # a left-deep run of one level (a - b + c) needs no
        # parentheses; unroll it in a loop, so its length costs no
        # Python stack.  Comparisons do not chain.
        rights: list[str] = []
        node = expression
        while True:
            rights.append(
                f"{node.operator} {_operand(node.right, binding + 1)}")
            node = node.left
            if (binding == _PREDICATE or type(node) is not ast.BinaryOp
                    or _BINDING[node.operator] != binding):
                break
        first = _operand(node, binding + 1 if binding == _PREDICATE
                         else binding)
        return " ".join([first, *reversed(rights)])
    if isinstance(expression, ast.UnaryOp):
        return (f"{expression.operator}"
                f" {_operand(expression.operand, _binding(expression))}")
    negated = "NOT " if getattr(expression, "negated", False) else ""
    if isinstance(expression, ast.IsNull):
        return f"{_comparand(expression.operand)} IS {negated}NULL"
    if isinstance(expression, ast.Like):
        rendered = (f"{_comparand(expression.operand)} {negated}LIKE"
                    f" {_comparand(expression.pattern)}")
        if expression.escape is not None:
            rendered += f" ESCAPE {_comparand(expression.escape)}"
        return rendered
    if isinstance(expression, ast.Between):
        return (f"{_comparand(expression.operand)} {negated}BETWEEN"
                f" {_comparand(expression.low)} AND"
                f" {_comparand(expression.high)}")
    if isinstance(expression, ast.InList):
        items = ", ".join(render_expr(item)
                          for item in expression.items)
        return f"{_comparand(expression.operand)} {negated}IN ({items})"
    if isinstance(expression, ast.InSubquery):
        return f"{_comparand(expression.operand)} {negated}IN (SELECT ...)"
    if isinstance(expression, ast.Exists):
        return "EXISTS (SELECT ...)"
    if isinstance(expression, ast.ScalarSubquery):
        return "(SELECT ...)"
    if isinstance(expression, ast.CastMultiset):
        return f"CAST(MULTISET(SELECT ...) AS {expression.type_name})"
    if isinstance(expression, ast.Cast):
        return f"CAST({render_expr(expression.operand)} AS ...)"
    if isinstance(expression, ast.CaseWhen):
        return "CASE ... END"
    return type(expression).__name__  # pragma: no cover - safety net


def _items_and_where(statement: ast.SelectStmt) -> list[ast.Expr]:
    expressions = [item.expression for item in statement.items]
    if statement.where is not None:
        expressions.append(statement.where)
    return expressions


def uses_dot_navigation(statement: ast.SelectStmt) -> bool:
    """True when the query navigates object attributes (Section 4.1)."""
    return any(
        isinstance(node, ast.AttributeAccess)
        or (isinstance(node, ast.ColumnPath) and len(node.parts) > 2)
        for expression in _items_and_where(statement)
        for node in ast.walk(expression, ast.SelectStmt))
