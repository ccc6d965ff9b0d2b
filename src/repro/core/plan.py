"""The mapping plan: the analyzed, named blueprint of one schema.

The analyzer (Fig. 2 case analysis) produces a plan; the generator
renders it to DDL; the loader and retriever interpret it in both
directions.  Keeping the plan explicit — rather than weaving analysis
into generation — is what lets the same plan drive INSERT generation,
document reconstruction and path queries consistently.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.dtd.content import ChildOccurrence
from repro.dtd.model import AttributeDecl, AttributeType


class ElementKind(enum.Enum):
    """Fig. 2's top-level element classification (plus DTD extras)."""

    SIMPLE = "simple"      # (#PCDATA)
    COMPLEX = "complex"    # element content
    MIXED = "mixed"        # (#PCDATA | a | ...)*
    EMPTY = "empty"        # EMPTY
    ANY = "any"            # ANY


class Storage(enum.Enum):
    """How a child element is physically represented in its parent."""

    SCALAR_COLUMN = "scalar"            # VARCHAR2 column (4.1)
    OBJECT_COLUMN = "object"            # object-typed column (4.1)
    SCALAR_COLLECTION = "scalar-coll"   # VARRAY/NT of VARCHAR2 (4.2)
    OBJECT_COLLECTION = "object-coll"   # VARRAY/NT of object (4.2, O9)
    REF_COLUMN = "ref"                  # REF to child's object table
    REF_COLLECTION = "ref-coll"         # collection of REF (6.2)
    CHILD_TABLE = "child-table"         # child row holds REF to parent
    #                                     (4.2, Oracle 8 workaround)


class CollectionFlavor(enum.Enum):
    """Which collection constructor the generator uses (Section 4.2)."""

    VARRAY = "varray"
    NESTED_TABLE = "nested-table"


@dataclass
class AttributePlan:
    """One XML attribute mapped to a DB column (Section 4.4)."""

    xml_name: str
    db_name: str
    declaration: AttributeDecl

    @property
    def required(self) -> bool:
        return self.declaration.required

    @property
    def is_id(self) -> bool:
        return self.declaration.attribute_type is AttributeType.ID

    #: set when an IDREF attribute is mapped to a REF column: the
    #: element type the reference points to (Section 4.4: this cannot
    #: be derived from the DTD, only from documents).
    ref_target: str | None = None


@dataclass
class AttrListPlan:
    """Object type wrapping an element's attribute list (Section 4.4)."""

    type_name: str          # TypeAttrL_X
    column: str             # attrListX
    attributes: list[AttributePlan] = field(default_factory=list)


@dataclass
class ChildLink:
    """One parent->child edge of the plan with its chosen storage."""

    child: "ElementPlan"
    occurrence: ChildOccurrence
    storage: Storage
    column: str | None = None           # attrX in the parent type
    collection_type: str | None = None  # TypeVA_X / TypeNT_X / TypeRef_X
    storage_table: str | None = None    # STORE AS name for nested tables

    @property
    def optional(self) -> bool:
        return self.occurrence.optional

    @property
    def repeatable(self) -> bool:
        return self.occurrence.repeatable


@dataclass
class ElementPlan:
    """Everything known about one element type's mapping."""

    name: str
    kind: ElementKind
    links: list[ChildLink] = field(default_factory=list)
    attributes: list[AttributePlan] = field(default_factory=list)
    attr_list: AttrListPlan | None = None

    # assigned names (generator fills these)
    object_type: str | None = None   # Type_X; None for plain scalars
    table: str | None = None         # TabX when table-stored
    text_column: str | None = None   # attrX inside own object type
    id_column: str | None = None     # IDX synthetic unique key (4.2)

    # structural flags
    is_table_stored: bool = False
    recursive: bool = False
    shared: bool = False

    @property
    def is_scalar_leaf(self) -> bool:
        """Maps to a bare VARCHAR2 value (no object type of its own)."""
        return self.object_type is None

    def link_to(self, child_name: str) -> ChildLink | None:
        for link in self.links:
            if link.child.name == child_name:
                return link
        return None

    def attribute_plan(self, xml_name: str) -> AttributePlan | None:
        pool = (self.attr_list.attributes if self.attr_list
                else self.attributes)
        for attribute in pool:
            if attribute.xml_name == xml_name:
                return attribute
        return None


@dataclass
class MappingConfig:
    """Tunable decisions of the generator.

    Defaults follow the paper's prototype: VARRAY collections
    (Section 4.2 'In our prototype, we chose the VARRAY collection
    type'), VARCHAR2(4000) leaves (Section 4.1), no CHECK constraints
    for optional complex content (Section 4.3 'not recommendable').
    """

    collection_flavor: CollectionFlavor = CollectionFlavor.VARRAY
    varray_limit: int = 1000
    text_length: int = 4000
    use_clob_for_text: bool = False   # Section 7 future work
    not_null_constraints: bool = True
    check_constraints: bool = False   # Section 4.3: not recommendable
    scope_constraints: bool = True
    map_idrefs_to_refs: bool = True   # Section 4.4
    share_types: bool = True          # graph mode (Section 6.2 advice)
    #: wrap XML attributes in a TypeAttrL_ object type (the Section 4.4
    #: methodology); False inlines them as attrName columns, matching
    #: the Section 4.2 example schema.
    attribute_list_types: bool = False
    #: Section 7 future work: "no type concept in DTDs -> simple
    #: elements and attributes can only be assigned the VARCHAR
    #: datatype".  This map supplies the missing type concept (an
    #: XML-Schema-style annotation layer): XML element or attribute
    #: name -> SQL scalar type ("NUMBER", "NUMBER(10,2)", "INTEGER",
    #: "DATE", "CLOB").  Unlisted names keep the VARCHAR default.
    type_hints: dict[str, str] = field(default_factory=dict)
    #: extension beyond the paper: store mixed content as serialized
    #: markup instead of flattened text, removing the "known
    #: transformation problem" of Section 1 at the cost of opaque
    #: (non-queryable) inline elements.  Default False = the paper's
    #: behaviour.
    mixed_as_markup: bool = False

    def hinted_type(self, xml_name: str) -> str | None:
        """The SQL type annotation for an element/attribute name."""
        return self.type_hints.get(xml_name)

    def text_type(self) -> str:
        if self.use_clob_for_text:
            return "CLOB"
        return f"VARCHAR2({self.text_length})"


@dataclass
class MappingPlan:
    """The complete plan for one DTD."""

    root: ElementPlan
    elements: dict[str, ElementPlan]
    config: MappingConfig
    schema_id: str | None = None
    #: table-stored elements in load order (children-before-parents
    #: for REF targets, parents-before-children for CHILD_TABLE)
    warnings: list[str] = field(default_factory=list)

    def element(self, name: str) -> ElementPlan | None:
        return self.elements.get(name)

    def table_stored_elements(self) -> list[ElementPlan]:
        return [plan for plan in self.elements.values()
                if plan.is_table_stored]

    def describe(self) -> str:
        """Readable summary used by examples and docs."""
        lines: list[str] = []
        for plan in self.elements.values():
            marks = []
            if plan.is_table_stored:
                marks.append(f"table={plan.table}")
            if plan.object_type:
                marks.append(f"type={plan.object_type}")
            if plan.recursive:
                marks.append("recursive")
            if plan.shared:
                marks.append("shared")
            lines.append(f"{plan.name} [{plan.kind.value}]"
                         + (" " + " ".join(marks) if marks else ""))
            for link in plan.links:
                lines.append(
                    f"  -> {link.child.name}: {link.storage.value}"
                    + (f" as {link.column}" if link.column else ""))
        return "\n".join(lines)
