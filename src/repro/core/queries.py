"""Path queries: XPath-like paths rendered as dot-notation SQL.

Section 4.1 advertises the object-relational payoff: "The object
structure can be traversed using the dot notation without executing
join operations ... tight correspondence with XPath expressions."
This module turns ``/University/Student/Course/Professor/PName`` into
exactly that kind of statement against the generated schema —
collections become ``TABLE(...)`` unnestings of the *same* stored row,
never joins between separate tables (except for the Oracle-8 child
tables, where the join reappears; the CLM2 tests count that
difference).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.relational.shredder import sql_quote
from .plan import ElementPlan, MappingPlan, Storage


@dataclass
class PathQuery:
    """A rendered query plus the measures CLM2 compares."""

    sql: str
    from_count: int = 1
    unnest_count: int = 0
    join_count: int = 0  # genuine table-to-table joins (CHILD_TABLE)
    select_expression: str = ""


@dataclass
class _State:
    from_items: list[str] = field(default_factory=list)
    conditions: list[str] = field(default_factory=list)
    alias_counter: int = 0
    unnests: int = 0
    joins: int = 0

    def next_alias(self) -> str:
        self.alias_counter += 1
        return f"t{self.alias_counter}"


class PathQueryBuilder:
    """Builds dot-notation SQL for element paths over one plan."""

    def __init__(self, plan: MappingPlan):
        self.plan = plan

    def build(self, path: list[str] | str,
              predicate: tuple[str, str, str] | None = None,
              doc_id: int | None = None,
              select: str | None = None) -> PathQuery:
        """Render the query for *path*.

        ``path`` is '/'-separated or a list, starting at the root
        element.  ``predicate`` is an optional
        ``(child_path, operator, literal)`` filter and ``select`` an
        optional projection path, both relative to the last path
        element — together they express
        ``/University/Student[Course/Professor/PName='Jaeger']/LName``
        as ``build("/University/Student",
        ("Course/Professor/PName", "=", "Jaeger"), select="LName")``.
        ``doc_id`` restricts the query to one stored document.
        """
        steps = ([step for step in path.split("/") if step]
                 if isinstance(path, str) else list(path))
        if not steps or steps[0] != self.plan.root.name:
            raise ValueError(
                f"path must start at root element"
                f" '{self.plan.root.name}'")
        state = _State()
        root = self.plan.root
        alias = state.next_alias()
        state.from_items.append(f"{root.table} {alias}")
        if doc_id is not None:
            state.conditions.append(
                f"{alias}.{root.id_column} = {sql_quote(f'D{doc_id}')}")
        prefix = alias
        current = root
        for step in steps[1:]:
            prefix, current = self._descend(state, prefix, current, step)
        if select is not None:
            select_expression = self._relative_expression(
                state, prefix, current, select)
        else:
            select_expression = self._terminal_expression(prefix, current)
        if predicate is not None:
            child_path, operator, literal = predicate
            expression = self._relative_expression(
                state, prefix, current, child_path)
            state.conditions.append(
                f"{expression} {operator} {sql_quote(literal)}")
        sql = (f"SELECT {select_expression} FROM "
               + ", ".join(state.from_items))
        if state.conditions:
            sql += " WHERE " + " AND ".join(state.conditions)
        return PathQuery(
            sql=sql,
            from_count=len(state.from_items),
            unnest_count=state.unnests,
            join_count=state.joins,
            select_expression=select_expression,
        )

    # -- navigation -------------------------------------------------------------------

    def _descend(self, state: _State, prefix: str,
                 current: ElementPlan,
                 step: str) -> tuple[str, ElementPlan]:
        link = current.link_to(step)
        if link is None:
            raise ValueError(
                f"<{step}> is not a child of <{current.name}> in this"
                f" schema")
        child = link.child
        if link.storage is Storage.SCALAR_COLUMN:
            return f"{prefix}.{link.column}", child
        if link.storage is Storage.OBJECT_COLUMN:
            return f"{prefix}.{link.column}", child
        if link.storage is Storage.REF_COLUMN:
            # implicit dereference through the dot (Section 2.3)
            return f"{prefix}.{link.column}", child
        if link.storage in (Storage.SCALAR_COLLECTION,
                            Storage.OBJECT_COLLECTION,
                            Storage.REF_COLLECTION):
            alias = state.next_alias()
            state.from_items.append(
                f"TABLE({prefix}.{link.column}) {alias}")
            state.unnests += 1
            if link.storage is Storage.SCALAR_COLLECTION:
                return f"{alias}.COLUMN_VALUE", child
            if link.storage is Storage.REF_COLLECTION:
                return f"{alias}.COLUMN_VALUE", child
            return alias, child
        assert link.storage is Storage.CHILD_TABLE
        alias = state.next_alias()
        state.from_items.append(f"{child.table} {alias}")
        state.joins += 1
        state.conditions.append(
            f"{alias}.{link.column}.{current.id_column} ="
            f" {prefix}.{current.id_column}")
        return alias, child

    def _terminal_expression(self, prefix: str,
                             current: ElementPlan) -> str:
        if current.is_scalar_leaf:
            return prefix
        if current.text_column is not None:
            return f"{prefix}.{current.text_column}"
        return prefix

    def _relative_expression(self, state: _State, prefix: str,
                              current: ElementPlan,
                              child_path: str) -> str:
        expression = prefix
        plan = current
        for step in child_path.split("/"):
            link = plan.link_to(step)
            if link is None:
                attribute = plan.attribute_plan(step)
                if attribute is not None:
                    if plan.attr_list is not None:
                        return (f"{expression}.{plan.attr_list.column}"
                                f".{attribute.db_name}")
                    return f"{expression}.{attribute.db_name}"
                raise ValueError(
                    f"predicate step '{step}' not found under"
                    f" <{plan.name}>")
            if link.storage in (Storage.SCALAR_COLLECTION,
                                Storage.OBJECT_COLLECTION,
                                Storage.REF_COLLECTION,
                                Storage.CHILD_TABLE):
                expression, plan = self._descend(
                    state, expression, plan, step)
                continue
            expression = f"{expression}.{link.column}"
            plan = link.child
        if plan.text_column is not None and not plan.is_scalar_leaf:
            return f"{expression}.{plan.text_column}"
        return expression


def build_path_query(plan: MappingPlan, path: list[str] | str,
                     predicate: tuple[str, str, str] | None = None,
                     doc_id: int | None = None) -> PathQuery:
    """Convenience wrapper over :class:`PathQueryBuilder`."""
    return PathQueryBuilder(plan).build(path, predicate, doc_id)
