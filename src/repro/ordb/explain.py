"""EXPLAIN: describe how the engine would evaluate a statement.

A plan here is a faithful rendering of what :mod:`repro.ordb.engine`
will actually do: the same cost-based access-path pass
(:mod:`repro.ordb.planner`) the executor runs decides whether each
FROM level renders as SCAN, INDEX [UNIQUE] LOOKUP or RANGE INDEX
SCAN.  Lines are annotated with row estimates and costs:

* ``rows=N``  — an exact count (table sizes are known);
* ``~rows=N`` — an estimate: collection expansions use the average
  cardinality observed in stored rows, every FILTER keeps 1/3 of its
  input (a fixed selectivity, documented rather than clever);
* ``cost=N``  — the planner's estimated row-visit cost of the chosen
  access path (scan = table rows; hash probe = 1 + bucket rows;
  range probe = log2(N+1) + matching rows).  The statement root
  carries the plan total when every FROM level was costable.

:class:`PlanBuilder` interprets the same AST the executor does and
never touches row data beyond counting, so ``EXPLAIN`` has no side
effects and bumps no scan counters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import identifiers
from .datatypes import NestedTableType, ObjectType, RefType, VarrayType
from .errors import NotSupported
from .expressions import contains_aggregate, sub_expressions
from .sql import ast
from .values import CollectionValue

#: Fraction of rows assumed to survive one FILTER step.
FILTER_SELECTIVITY = 1 / 3


@dataclass
class PlanStep:
    """One line of a rendered plan."""

    operation: str
    target: str = ""
    detail: str = ""
    estimated_rows: int | None = None
    exact: bool = False
    cost: float | None = None
    depth: int = 0

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


class _Node:
    """Plan-tree node; flattened into :class:`PlanStep` rows."""

    __slots__ = ("operation", "target", "detail", "rows", "exact",
                 "cost", "children")

    def __init__(self, operation: str, target: str = "",
                 detail: str = "", rows: int | None = None,
                 exact: bool = False, cost: float | None = None):
        self.operation = operation
        self.target = target
        self.detail = detail
        self.rows = rows
        self.exact = exact
        self.cost = cost
        self.children: list[_Node] = []

    def flatten(self, depth: int = 0,
                into: list[PlanStep] | None = None) -> list[PlanStep]:
        steps = into if into is not None else []
        steps.append(PlanStep(self.operation, self.target, self.detail,
                              self.rows, self.exact, self.cost, depth))
        for child in self.children:
            child.flatten(depth + 1, steps)
        return steps


def _filtered(rows: int | None) -> int | None:
    if rows is None:
        return None
    return max(1, math.ceil(rows * FILTER_SELECTIVITY))


class PlanBuilder:
    """Builds :class:`QueryPlan` trees against a live database."""

    def __init__(self, db, read_mode: str | None = None):
        self.db = db
        self.catalog = db.catalog
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
        elif isinstance(statement, ast.Insert):
            root = self._insert_node(statement)
            plan = QueryPlan(
                tables=[identifiers.normalize(statement.table)])
        elif isinstance(statement, ast.Update):
            root = self._update_node(statement)
            plan = QueryPlan(
                tables=[identifiers.normalize(statement.table)])
        elif isinstance(statement, ast.Delete):
            root = self._delete_node(statement)
            plan = QueryPlan(
                tables=[identifiers.normalize(statement.table)])
        else:
            raise NotSupported(
                "EXPLAIN supports SELECT, INSERT, UPDATE or DELETE")
        plan.steps = root.flatten()
        plan.estimated_rows = root.rows
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

    # -- SELECT ------------------------------------------------------------------

    def _select_node(self, statement: ast.SelectStmt) -> _Node:
        alias_map = self._alias_map(statement)
        per_level, residual = self.db._plan_predicates(statement)
        sources: list[_Node] = []
        total_cost: float | None = 0.0
        outer_rows = 1
        for index, item in enumerate(statement.from_items):
            pushed = list(per_level[index])
            # the executor's own cost-based access pass: when it
            # picks a probe, render the lookup instead of SCAN and
            # keep only the conjuncts the probe does not absorb as
            # FILTERs (in the planner's evaluation order)
            plan = self.db._level_access(item, pushed)
            probe = plan.probe if plan is not None else None
            if probe is not None:
                table = self.catalog.tables[
                    identifiers.normalize(item.name)]
                node = self._probe_node(table, plan)
                consumed = {id(conjunct)
                            for conjunct in probe.conjuncts}
                pushed = [conjunct for conjunct in plan.filters
                          if id(conjunct) not in consumed]
            else:
                node = self._source_node(item, statement)
                if plan is not None:
                    node.cost = plan.cost
                    pushed = list(plan.filters)
            if plan is None:
                total_cost = None  # views/subqueries price themselves
            elif total_cost is not None:
                # nested loops: this level's access path runs once
                # per combination of already-bound outer rows
                total_cost += outer_rows * plan.cost
                outer_rows *= max(1, plan.est_rows)
            for conjunct in pushed:
                node = self._wrap_filter(node, conjunct)
            sources.append(node)
        if len(sources) > 1:
            rows = _product(node.rows for node in sources)
            top = _Node("NESTED-LOOP JOIN", rows=rows,
                        exact=all(node.exact for node in sources))
            top.children.extend(sources)
        elif sources:
            top = sources[0]
        else:  # pragma: no cover - the grammar requires FROM
            top = _Node("EMPTY", rows=0, exact=True)
        for conjunct in residual:
            top = self._wrap_filter(top, conjunct)
        top = self._wrap_shaping(top, statement)
        root = _Node("SELECT STATEMENT", detail=self.read_mode or "",
                     rows=top.rows, exact=top.exact, cost=total_cost)
        root.children.append(top)
        root.children.extend(self._deref_nodes(statement, alias_map))
        return root

    def _probe_node(self, table, plan) -> _Node:
        """An INDEX [UNIQUE] LOOKUP / RANGE INDEX SCAN access step,
        annotated with the planner's row estimate and cost."""
        probe = plan.probe
        detail = f"{probe.index.name}: " + " AND ".join(
            render_expr(conjunct) for conjunct in probe.conjuncts)
        return _Node(probe.operation, target=table.name,
                     detail=detail, rows=plan.est_rows, exact=False,
                     cost=plan.cost)

    def _wrap_filter(self, child: _Node, conjunct: ast.Expr) -> _Node:
        node = _Node("FILTER", detail=render_expr(conjunct),
                     rows=_filtered(child.rows))
        node.children.append(child)
        return node

    def _wrap_shaping(self, top: _Node,
                      statement: ast.SelectStmt) -> _Node:
        has_aggregate = any(
            _contains_aggregate_item(item) for item in statement.items)
        if statement.group_by or has_aggregate:
            node = _Node(
                "AGGREGATE",
                detail=("GROUP BY " + ", ".join(
                    render_expr(e) for e in statement.group_by)
                    if statement.group_by else "single group"),
                rows=(None if statement.group_by else 1),
                exact=not statement.group_by)
            node.children.append(top)
            top = node
        if statement.distinct:
            node = _Node("DISTINCT", rows=top.rows)
            node.children.append(top)
            top = node
        if statement.order_by:
            node = _Node(
                "SORT",
                detail="ORDER BY " + ", ".join(
                    render_expr(item.expression)
                    for item in statement.order_by),
                rows=top.rows, exact=top.exact)
            node.children.append(top)
            top = node
        project = _Node(
            "PROJECT",
            detail=", ".join(render_expr(item.expression)
                             for item in statement.items),
            rows=top.rows, exact=top.exact)
        project.children.append(top)
        return project

    # -- FROM sources ------------------------------------------------------------

    def _source_node(self, item: ast.FromItem,
                     statement: ast.SelectStmt) -> _Node:
        if isinstance(item, ast.TableRef):
            key = identifiers.normalize(item.name)
            view = self.catalog.views.get(key)
            if view is not None:
                inner = self._select_node(view.query)
                node = _Node("VIEW", target=view.name, rows=inner.rows)
                node.children.extend(inner.children)
                return node
            table = self.catalog.tables.get(key)
            rows = len(table.data.rows) if table is not None else None
            return _Node("SCAN", target=(table.name if table is not None
                                         else item.name),
                         rows=rows, exact=rows is not None)
        if isinstance(item, ast.SubqueryRef):
            inner = self._select_node(item.query)
            node = _Node("SUBQUERY", target=item.alias or "",
                         rows=inner.rows)
            node.children.extend(inner.children)
            return node
        assert isinstance(item, ast.TableFunctionRef)
        return _Node("COLLECTION EXPAND",
                     target=f"TABLE({render_expr(item.expression)})",
                     rows=self._collection_estimate(item.expression,
                                                    statement))

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
        if isinstance(source, ObjectType):
            attribute = source.attribute(name)
            return attribute.datatype if attribute is not None else None
        column = getattr(source, "column", None)
        if column is None:
            return None
        found = column(name)
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

    def _deref_nodes(self, statement: ast.SelectStmt,
                     alias_map: dict) -> list[_Node]:
        nodes: list[_Node] = []
        seen: set[str] = set()

        def note(path: str, target: str) -> None:
            if path not in seen:
                seen.add(path)
                nodes.append(_Node("REF DEREF", target=target,
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
        if isinstance(datatype, RefType):
            # path ends on the REF column itself: no implicit deref
            return

    # -- DML ---------------------------------------------------------------------

    def _insert_node(self, statement: ast.Insert) -> _Node:
        if statement.query is not None:
            select = self._select_node(statement.query)
            root = _Node("INSERT STATEMENT", target=statement.table,
                         rows=select.rows)
            root.children.append(select)
            return root
        root = _Node("INSERT STATEMENT", target=statement.table,
                     rows=1, exact=True)
        for value in statement.values:
            root.children.extend(self._value_nodes(value))
        return root

    def _value_nodes(self, expression: ast.Expr) -> list[_Node]:
        """CONSTRUCT / REF LOOKUP steps inside an INSERT value tree."""
        nodes: list[_Node] = []
        if isinstance(expression, ast.FunctionCall):
            key = identifiers.normalize(expression.name)
            if key in self.catalog.types:
                node = _Node("CONSTRUCT", target=expression.name,
                             detail=f"{len(expression.arguments)}"
                                    f" argument(s)")
                for argument in expression.arguments:
                    node.children.extend(self._value_nodes(argument))
                return [node]
        if isinstance(expression, ast.ScalarSubquery):
            select = self._select_node(expression.query)
            node = _Node("REF LOOKUP", rows=1, exact=True)
            node.children.extend(select.children)
            return [node]
        for child in sub_expressions(expression):
            nodes.extend(self._value_nodes(child))
        return nodes

    def _scan_filter(self, table_name: str,
                     where: ast.Expr | None) -> _Node:
        table = self.catalog.tables.get(
            identifiers.normalize(table_name))
        rows = len(table.data.rows) if table is not None else None
        node = _Node("SCAN",
                     target=(table.name if table is not None
                             else table_name),
                     rows=rows, exact=rows is not None,
                     cost=(float(max(rows, 1)) if rows is not None
                           else None))
        if where is not None:
            node = self._wrap_filter(node, where)
        return node

    def _dml_source(self, statement) -> _Node:
        """Access path for UPDATE/DELETE row selection: the same
        costed plan the executor's ``_dml_access`` runs, rendered as
        a probe plus residual FILTERs, or the classic FILTER over
        SCAN when nothing is probeable."""
        table = self.catalog.tables.get(
            identifiers.normalize(statement.table))
        if table is None:
            return self._scan_filter(statement.table, statement.where)
        alias_key = identifiers.normalize(
            getattr(statement, "alias", None) or statement.table)
        plan = self.db._dml_access(table, alias_key, statement.where)
        if plan is None or plan.probe is None:
            node = self._scan_filter(statement.table, statement.where)
            return node
        node = self._probe_node(table, plan)
        consumed = {id(conjunct)
                    for conjunct in plan.probe.conjuncts}
        for conjunct in ast.flatten(statement.where, "AND"):
            if id(conjunct) not in consumed:
                node = self._wrap_filter(node, conjunct)
        return node

    def _update_node(self, statement: ast.Update) -> _Node:
        child = self._dml_source(statement)
        root = _Node(
            "UPDATE STATEMENT", target=statement.table,
            detail="SET " + ", ".join(
                target.source() for target, _ in statement.assignments),
            rows=child.rows, exact=child.exact)
        root.children.append(child)
        return root

    def _delete_node(self, statement: ast.Delete) -> _Node:
        child = self._dml_source(statement)
        root = _Node("DELETE STATEMENT", target=statement.table,
                     rows=child.rows, exact=child.exact)
        root.children.append(child)
        return root


# -- module helpers --------------------------------------------------------------


def _product(values) -> int | None:
    result = 1
    for value in values:
        if value is None:
            return None
        result *= value
    return result


def _contains_aggregate_item(item: ast.SelectItem) -> bool:
    if isinstance(item.expression, ast.Star):
        return False
    return contains_aggregate(item.expression)


def render_expr(expression: ast.Expr) -> str:
    """Compact SQL-ish rendering of an expression for plan lines."""
    if isinstance(expression, ast.Literal):
        if expression.value is None:
            return "NULL"
        if isinstance(expression.value, str):
            return f"'{expression.value}'"
        return str(expression.value)
    if isinstance(expression, ast.DateLiteral):
        return f"DATE '{expression.text}'"
    if isinstance(expression, ast.ColumnPath):
        return expression.source()
    if isinstance(expression, ast.Star):
        return (f"{expression.qualifier}.*"
                if expression.qualifier else "*")
    if isinstance(expression, ast.AttributeAccess):
        return f"{render_expr(expression.base)}.{expression.attribute}"
    if isinstance(expression, ast.FunctionCall):
        arguments = ", ".join(render_expr(argument)
                              for argument in expression.arguments)
        distinct = "DISTINCT " if expression.distinct else ""
        return f"{expression.name}({distinct}{arguments})"
    if isinstance(expression, ast.BinaryOp):
        return f" {expression.operator} ".join(
            render_expr(operand) for operand
            in ast.flatten(expression, expression.operator))
    if isinstance(expression, ast.UnaryOp):
        return f"{expression.operator} {render_expr(expression.operand)}"
    if isinstance(expression, ast.IsNull):
        negated = "NOT " if expression.negated else ""
        return f"{render_expr(expression.operand)} IS {negated}NULL"
    if isinstance(expression, ast.Like):
        negated = "NOT " if expression.negated else ""
        rendered = (f"{render_expr(expression.operand)} {negated}LIKE"
                    f" {render_expr(expression.pattern)}")
        if expression.escape is not None:
            rendered += f" ESCAPE {render_expr(expression.escape)}"
        return rendered
    if isinstance(expression, ast.Between):
        negated = "NOT " if expression.negated else ""
        return (f"{render_expr(expression.operand)} {negated}BETWEEN"
                f" {render_expr(expression.low)} AND"
                f" {render_expr(expression.high)}")
    if isinstance(expression, ast.InList):
        negated = "NOT " if expression.negated else ""
        items = ", ".join(render_expr(item)
                          for item in expression.items)
        return f"{render_expr(expression.operand)} {negated}IN ({items})"
    if isinstance(expression, ast.InSubquery):
        negated = "NOT " if expression.negated else ""
        return (f"{render_expr(expression.operand)} {negated}IN"
                f" (SELECT ...)")
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
