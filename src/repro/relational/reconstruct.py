"""Join-based document reconstruction from shredded schemas.

The reverse direction of the generic mappings: rebuild an element tree
from the rows.  What cannot be rebuilt (comments, processing
instructions, entity references, prolog, layout whitespace) is exactly
the information loss the paper charges these mappings with; the
CLM3 round-trip tests measure it with
:func:`repro.core.roundtrip.compare`.
"""

from __future__ import annotations

from repro.ordb.engine import Database
from repro.xmlkit.dom import Element, Text
from .edge import EdgeMapping
from .inlining import InliningMapping, Relation


def reconstruct_edge(db: Database, doc_id: int = 1) -> Element:
    """Rebuild a document stored through :class:`EdgeMapping`."""
    return EdgeMapping().reconstruct(db, doc_id)


def reconstruct_inlined(mapping: InliningMapping, db: Database,
                        doc_id: int = 1) -> Element:
    """Rebuild a document stored through :class:`InliningMapping`.

    Inlined scalar columns come back as child elements in DTD
    declaration order; relation-mapped children are fetched by
    PARENTID joins.  Element order across different child types is
    approximated by ordinal within each relation — another loss the
    generic mappings accept.
    """
    rows_by_relation: dict[str, list[tuple]] = {}
    for relation in mapping.relations.values():
        columns = [f"ID{relation.table}"]
        if relation.has_parent:
            columns.extend(["PARENTID", "PARENTCODE"])
        columns.append("ORDINAL")
        if relation.has_text:
            columns.append("VAL")
        columns.extend(column.name for column in relation.columns)
        select = ", ".join(f"t.{column}" for column in columns)
        result = db.execute(
            f"SELECT {select} FROM {relation.table} t")
        rows_by_relation[relation.element] = result.rows

    low = doc_id * 1_000_000
    high = (doc_id + 1) * 1_000_000

    def rows_for(relation: Relation, parent_id: int | None) -> list[tuple]:
        rows = rows_by_relation[relation.element]
        picked = []
        for row in rows:
            row_id = int(row[0])
            if not low < row_id < high:
                continue
            if relation.has_parent:
                row_parent = row[1]
                if parent_id is None:
                    if row_parent is not None:
                        continue
                elif row_parent is None or int(row_parent) != parent_id:
                    continue
            picked.append(row)
        ordinal_index = 3 if relation.has_parent else 1
        picked.sort(key=lambda row: int(row[ordinal_index]))
        return picked

    def build(relation: Relation, row: tuple) -> Element:
        element = Element(relation.element)
        # row layout: [id, (parentid, parentcode)?, ordinal, VAL?, cols...]
        index = 1 + (2 if relation.has_parent else 0) + 1
        if relation.has_text:
            value = row[index]
            index += 1
            if value:
                element.append(Text(str(value)))
        # rebuild inlined descendants
        holders: dict[tuple[str, ...], Element] = {(): element}
        for column in relation.columns:
            value = row[index]
            index += 1
            if value is None:
                continue
            if column.is_attribute:
                holder = _holder_for(holders, column.path, element)
                holder.set(column.attribute, str(value))
            else:
                holder = _holder_for(holders, column.path[:-1], element)
                child = Element(column.path[-1])
                child.append(Text(str(value)))
                holder.append(child)
                holders[column.path] = child
        # relation-mapped children
        row_id = int(row[0])
        for child_relation in mapping.relations.values():
            if not child_relation.has_parent:
                continue
            for child_row in rows_for(child_relation, row_id):
                if (child_row[2] is not None
                        and str(child_row[2]).upper()
                        != relation.table.upper()):
                    continue
                element.append(build(child_relation, child_row))
        return element

    root_relation = mapping.relations[mapping.root]
    roots = rows_for(root_relation, None)
    if not roots:
        raise ValueError(f"document {doc_id} not found")
    return build(root_relation, roots[0])


def _holder_for(holders: dict[tuple[str, ...], Element],
                path: tuple[str, ...], root: Element) -> Element:
    """Find or create the inlined ancestor element for *path*."""
    if path in holders:
        return holders[path]
    parent = _holder_for(holders, path[:-1], root) if path else root
    if not path:
        return root
    element = Element(path[-1])
    parent.append(element)
    holders[path] = element
    return element
