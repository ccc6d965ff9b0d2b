"""FIG3: non-hierarchical (shared-element) DTDs.

The Fig. 3 DTD gives Address two parents.  The tree representation
duplicates it; the analyzer's graph mode maps it once and both parents
reference the same element plan, as Section 6.2 recommends.
"""

from repro.core import XML2Oracle, analyze, compare
from repro.dtd import (
    build_tree,
    element_graph,
    parse_dtd,
    shared_elements,
)
from repro.workloads import (
    SHARED_ELEMENT_DOCUMENT,
    SHARED_ELEMENT_DTD,
)
from repro.xmlkit import parse


class TestSharedElementAnalysis:
    def test_dtd_detects_sharing(self):
        dtd = parse_dtd(SHARED_ELEMENT_DTD)
        assert shared_elements(dtd) == {"Address", "Student"}

    def test_tree_mode_duplicates(self):
        dtd = parse_dtd(SHARED_ELEMENT_DTD)
        tree = build_tree(dtd)
        addresses = [node for node in tree.walk()
                     if node.name == "Address"]
        assert len(addresses) >= 2
        duplicated = [node for node in addresses
                      if node.duplicate_of == "Address"]
        assert duplicated

    def test_tree_is_larger_than_the_element_graph(self):
        """Duplication in numbers: 16 tree nodes for 8 elements."""
        dtd = parse_dtd(SHARED_ELEMENT_DTD)
        tree_nodes = sum(1 for _ in build_tree(dtd).walk())
        graph_nodes = element_graph(dtd).number_of_nodes()
        assert (tree_nodes, graph_nodes) == (16, 8)

    def test_graph_mode_shares_one_plan(self):
        plan = analyze(parse_dtd(SHARED_ELEMENT_DTD))
        professor_address = plan.element("Professor").link_to("Address")
        student_address = plan.element("Student").link_to("Address")
        assert professor_address.child is student_address.child

    def test_single_type_generated_for_shared_element(self):
        tool = XML2Oracle()
        schema = tool.register_schema(SHARED_ELEMENT_DTD)
        creates = [s for s in schema.script.statements
                   if s.startswith("CREATE TYPE Type_Address")]
        assert len(creates) == 1


class TestSharedElementRoundtrip:
    def test_document_roundtrip(self):
        tool = XML2Oracle()
        tool.register_schema(SHARED_ELEMENT_DTD)
        document = parse(SHARED_ELEMENT_DOCUMENT)
        stored = tool.store(document)
        rebuilt = tool.fetch(stored.doc_id)
        assert compare(document, rebuilt).score == 1.0

    def test_addresses_queryable_from_both_parents(self):
        tool = XML2Oracle()
        tool.register_schema(SHARED_ELEMENT_DTD)
        tool.store(parse(SHARED_ELEMENT_DOCUMENT))
        professor_city = tool.query(
            "/Faculty/Professor/Address/City").scalar()
        assert professor_city == "Leipzig"
        student_cities = tool.query("/Faculty/Student/Address/City")
        assert {row[0] for row in student_cities.rows} == {"Halle"}
        nested = tool.query(
            "/Faculty/Professor/Student/Address/Street").scalar()
        assert nested == "Elm St 2"
