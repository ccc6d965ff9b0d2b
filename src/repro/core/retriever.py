"""Reconstruction: turn stored rows back into an XML document.

The inverse of the loader, walking the same :func:`type_members` layout so
every constructor argument the loader wrote is read back into the DOM
node it came from.  What the mapping inherently loses — sibling order
across different element types behind REFs (Section 7 drawback),
flattened mixed content — is visible here and measured by the CLM3
round-trip tests.
"""

from __future__ import annotations

from repro.ordb.engine import Database
from repro.ordb.values import CollectionValue, ObjectValue, RefValue
from repro.relational.shredder import sql_quote
from repro.xmlkit.dom import Element, Text
from repro.xmlkit.parser import XMLParser
from .generator import type_members
from .plan import ElementKind, ElementPlan, MappingPlan, Storage


class Retriever:
    """Fetches documents stored under a mapping plan."""

    def __init__(self, db: Database, plan: MappingPlan):
        self.db = db
        self.plan = plan
        self._fragment_parser = XMLParser()

    # -- public API -------------------------------------------------------------

    def fetch(self, doc_id: int) -> Element:
        """Rebuild the document with the given id."""
        root_plan = self.plan.root
        row = self._row_by_id(root_plan, f"D{doc_id}")
        if row is None:
            raise LookupError(f"document {doc_id} is not stored")
        return self._element_from_object(root_plan, row)

    def fetch_by_row_id(self, plan_name: str, row_id: str) -> Element:
        """Rebuild a single stored element row (e.g. an ID target)."""
        plan = self.plan.element(plan_name)
        if plan is None or not plan.is_table_stored:
            raise LookupError(f"'{plan_name}' is not table-stored")
        row = self._row_by_id(plan, row_id)
        if row is None:
            raise LookupError(f"row {row_id} not found in {plan.table}")
        return self._element_from_object(plan, row)

    # -- row access --------------------------------------------------------------

    def _row_by_id(self, plan: ElementPlan,
                   row_id: str) -> ObjectValue | None:
        result = self.db.execute(
            f"SELECT VALUE(t) FROM {plan.table} t"
            f" WHERE t.{plan.id_column} = {sql_quote(row_id)}")
        value = result.scalar()
        return value if isinstance(value, ObjectValue) else None

    def _child_rows(self, child: ElementPlan, ref_column: str,
                    parent_plan: ElementPlan,
                    parent_row_id: str) -> list[ObjectValue]:
        """Rows of a CHILD_TABLE child pointing back at one parent."""
        result = self.db.execute(
            f"SELECT VALUE(c), c.{child.id_column} FROM {child.table} c"
            f" WHERE c.{ref_column}.{parent_plan.id_column} ="
            f" {sql_quote(parent_row_id)}"
            f" ORDER BY 2")
        return [row[0] for row in result.rows
                if isinstance(row[0], ObjectValue)]

    # -- reconstruction ---------------------------------------------------------------

    def _element_from_object(self, plan: ElementPlan,
                             value: ObjectValue) -> Element:
        element = Element(plan.name)
        row_id: str | None = None
        for member in type_members(plan, self.plan):
            if member.kind == "parentref":
                continue
            stored = value.get(member.column)
            if member.kind == "id":
                row_id = stored
            elif member.kind == "text":
                self._restore_text(plan, element, stored)
            elif member.kind == "xmlattr":
                self._restore_attribute(element, member.attribute,
                                        stored)
            elif member.kind == "attrlist":
                if isinstance(stored, ObjectValue):
                    for attribute in plan.attr_list.attributes:
                        self._restore_attribute(
                            element, attribute,
                            stored.get(attribute.db_name))
            else:
                self._restore_link(element, member.link, stored)
        for link in plan.links:
            if link.storage is Storage.CHILD_TABLE and row_id:
                for child_value in self._child_rows(
                        link.child, link.column, plan, row_id):
                    element.append(self._element_from_object(
                        link.child, child_value))
        return element

    def _restore_text(self, plan: ElementPlan, element: Element,
                      stored: object) -> None:
        if stored is None or stored == "":
            return
        if self._stores_markup(plan):
            for node in self._fragment_parser.parse_fragment(str(stored)):
                element.append(node)
        else:
            element.append(Text(str(stored)))

    def _stores_markup(self, plan: ElementPlan) -> bool:
        if plan.kind is ElementKind.ANY:
            return True
        return (plan.kind is ElementKind.MIXED
                and self.plan.config.mixed_as_markup)

    def _restore_attribute(self, element: Element, attribute,
                           stored: object) -> None:
        if stored is None:
            return
        if isinstance(stored, RefValue):
            # an IDREF column: recover the original XML ID value from
            # the referenced row
            target_plan = self.plan.element(attribute.ref_target)
            target = self.db.dereference(stored)
            if target is None or target_plan is None:
                return
            id_value = self._id_value_of(target_plan, target)
            if id_value is not None:
                element.set(attribute.xml_name, str(id_value))
            return
        element.set(attribute.xml_name, str(stored))

    def _id_value_of(self, plan: ElementPlan,
                     value: ObjectValue) -> object | None:
        pool = (plan.attr_list.attributes if plan.attr_list
                else plan.attributes)
        id_attribute = next((a for a in pool if a.is_id), None)
        if id_attribute is None:
            return None
        if plan.attr_list is not None:
            attr_list = value.get(plan.attr_list.column)
            if isinstance(attr_list, ObjectValue):
                return attr_list.get(id_attribute.db_name)
            return None
        return value.get(id_attribute.db_name)

    def _restore_link(self, element: Element, link,
                      stored: object) -> None:
        child = link.child
        if stored is None:
            return
        if link.storage is Storage.SCALAR_COLUMN:
            element.append(self._scalar_element(child, stored))
        elif link.storage is Storage.SCALAR_COLLECTION:
            if isinstance(stored, CollectionValue):
                for item in stored:
                    if item is not None:
                        element.append(self._scalar_element(child, item))
        elif link.storage is Storage.OBJECT_COLUMN:
            if isinstance(stored, ObjectValue):
                element.append(self._element_from_object(child, stored))
        elif link.storage is Storage.OBJECT_COLLECTION:
            if isinstance(stored, CollectionValue):
                for item in stored:
                    if isinstance(item, ObjectValue):
                        element.append(self._element_from_object(child,
                                                                 item))
        elif link.storage is Storage.REF_COLUMN:
            if isinstance(stored, RefValue):
                value = self.db.dereference(stored)
                if isinstance(value, ObjectValue):
                    element.append(self._element_from_object(child,
                                                             value))
        else:
            assert link.storage is Storage.REF_COLLECTION
            if isinstance(stored, CollectionValue):
                for item in stored:
                    if isinstance(item, RefValue):
                        value = self.db.dereference(item)
                        if isinstance(value, ObjectValue):
                            element.append(self._element_from_object(
                                child, value))

    def _scalar_element(self, plan: ElementPlan,
                        stored: object) -> Element:
        element = Element(plan.name)
        if plan.kind is ElementKind.EMPTY:
            return element  # presence flag only
        if self._stores_markup(plan):
            for node in self._fragment_parser.parse_fragment(str(stored)):
                element.append(node)
            return element
        if stored != "":
            element.append(Text(str(stored)))
        return element
