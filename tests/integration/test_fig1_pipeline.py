"""FIG1: the two-parser pipeline of Fig. 1.

An XML document and its DTD are analyzed by two separate parsers; the
document is checked for well-formedness and validity; both results are
tree structures feeding the mapping step.
"""

import pytest

from repro.core import XML2Oracle
from repro.dtd import DTDParser, build_tree, validate
from repro.obs import Observability
from repro.workloads import (
    SAMPLE_DOCUMENT,
    UNIVERSITY_DTD,
    make_university_xml,
    university_dtd,
)
from repro.xmlkit import XMLParser, XMLSyntaxError


class TestPipeline:
    def test_both_parsers_produce_trees(self):
        document = XMLParser().parse(SAMPLE_DOCUMENT)
        dtd = DTDParser().parse(UNIVERSITY_DTD)
        assert document.root_element.tag == "University"
        dtd_tree = build_tree(dtd)
        assert dtd_tree.name == "University"

    def test_wellformedness_is_checked_first(self):
        broken = SAMPLE_DOCUMENT.replace("</University>", "")
        with pytest.raises(XMLSyntaxError):
            XMLParser().parse(broken)

    def test_validity_is_checked_against_dtd(self):
        document = XMLParser().parse(SAMPLE_DOCUMENT)
        dtd = DTDParser().parse(UNIVERSITY_DTD)
        assert validate(document, dtd).valid

    def test_invalid_document_reported(self):
        bad = SAMPLE_DOCUMENT.replace(
            "<LName>Conrad</LName>", "")
        document = XMLParser().parse(bad)
        dtd = DTDParser().parse(UNIVERSITY_DTD)
        report = validate(document, dtd)
        assert not report.valid
        assert any(error.element == "Student"
                   for error in report.errors)

    def test_dtd_parser_is_standalone(self):
        """The DTD parser works without any document (non-validating
        parser role of the Wutka component)."""
        dtd = DTDParser().parse(UNIVERSITY_DTD)
        assert len(dtd.elements) == 12
        assert set(dtd.elements) >= {"University", "Student", "Course",
                                     "Professor"}
        assert dtd.entities.expand_general("cs") == "Computer Science"

    def test_document_parser_reads_internal_subset(self):
        document = XMLParser().parse(SAMPLE_DOCUMENT)
        assert document.doctype is not None
        assert document.doctype.dtd.element("Professor") is not None

    def test_dom_tree_exposes_values_and_attributes(self):
        document = XMLParser().parse(SAMPLE_DOCUMENT)
        student = document.root_element.find("Student")
        assert student.get("StudNr") == "23374"
        assert student.find("LName").text() == "Conrad"

    def test_dtd_tree_exposes_constraints(self):
        dtd = DTDParser().parse(UNIVERSITY_DTD)
        tree = build_tree(dtd)
        by_name = {node.name: node for node in tree.walk()}
        assert by_name["Student"].is_set_valued
        assert by_name["CreditPts"].is_optional
        assert not by_name["Dept"].is_optional


class TestPipelineAtScale:
    @pytest.mark.parametrize("students", [10, 100])
    def test_generated_document_parses_and_validates(self, students):
        document = XMLParser().parse(
            make_university_xml(students=students))
        assert len(document.root_element.find_all("Student")) == students
        assert validate(document, university_dtd()).valid

    def test_traced_store_records_every_pipeline_phase(self):
        """Text in, so the parse and validate stages run inside the
        traced store."""
        obs = Observability(enabled=True)
        tool = XML2Oracle(obs=obs)
        tool.register_schema(university_dtd())
        tool.store(make_university_xml(students=3))
        phases = {name for name in obs.metrics.names()
                  if name.startswith("phase.")}
        assert phases >= {"phase.parse_seconds",
                          "phase.validate_seconds",
                          "phase.shred_seconds",
                          "phase.store_seconds"}
