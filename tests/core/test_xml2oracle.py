"""The XML2Oracle facade end to end."""

import pytest

from repro.core import (
    MappingConfig,
    XML2Oracle,
    compare,
    infer_idref_targets,
)
from repro.core.plan import CollectionFlavor
from repro.ordb import CompatibilityMode, ValueTooLarge
from repro.workloads import (
    BIBLIOGRAPHY_DOCUMENT,
    BIBLIOGRAPHY_DTD,
    SAMPLE_DOCUMENT,
    UNIVERSITY_DTD,
    make_university,
)
from repro.dtd import parse_dtd
from repro.xmlkit import XMLValidityError, parse


class TestSchemaRegistration:
    def test_register_from_text(self):
        tool = XML2Oracle()
        schema = tool.register_schema(UNIVERSITY_DTD)
        assert schema.root_name == "University"
        assert "TABUNIVERSITY" in tool.db.catalog.tables

    def test_schema_script_accessible(self, uni_tool):
        assert "CREATE TYPE Type_Student" in uni_tool.schema_script()

    def test_no_schema_yet(self):
        tool = XML2Oracle()
        with pytest.raises(LookupError):
            tool.schema_script()

    def test_two_document_types_coexist(self):
        tool = XML2Oracle()
        tool.register_schema(UNIVERSITY_DTD)
        tool.register_schema(BIBLIOGRAPHY_DTD,
                             sample_document=BIBLIOGRAPHY_DOCUMENT)
        tool.store(make_university(students=1))
        tool.store(BIBLIOGRAPHY_DOCUMENT)
        assert len(tool.documents) == 2

    def test_same_dtd_twice_uses_schema_ids(self):
        tool = XML2Oracle()
        tool.register_schema(UNIVERSITY_DTD)
        tool.register_schema(UNIVERSITY_DTD)
        assert "TABUNIVERSITY" in tool.db.catalog.tables
        assert "TABUNIVERSITY_S2" in tool.db.catalog.tables


class TestStore:
    def test_store_parses_strings(self, uni_tool):
        stored = uni_tool.store(SAMPLE_DOCUMENT)
        assert stored.doc_id == 1
        assert stored.load_result.insert_count == 1

    def test_schema_found_by_root_name(self, uni_tool):
        stored = uni_tool.store(make_university(students=1))
        assert stored.schema.root_name == "University"

    def test_unknown_root_rejected(self, uni_tool):
        with pytest.raises(LookupError):
            uni_tool.store("<Unknown/>")

    def test_invalid_document_rejected(self, uni_tool):
        invalid = ("<!DOCTYPE University SYSTEM 'u.dtd'>"
                   "<University><Bogus/></University>")
        with pytest.raises(XMLValidityError):
            uni_tool.store(parse(invalid))

    def test_validation_can_be_disabled(self):
        tool = XML2Oracle(validate_documents=False)
        tool.register_schema(UNIVERSITY_DTD)
        document = parse("<University>"
                         "<StudyCourse>CS</StudyCourse></University>")
        tool.store(document)

    def test_doc_ids_increment(self, uni_tool):
        first = uni_tool.store(make_university(students=1, seed=1))
        second = uni_tool.store(make_university(students=1, seed=2))
        assert (first.doc_id, second.doc_id) == (1, 2)


class TestFetchAndQuery:
    def test_roundtrip_document(self, stored_university):
        tool, stored = stored_university
        rebuilt = tool.fetch(stored.doc_id)
        original = parse(SAMPLE_DOCUMENT)
        report = compare(original, rebuilt)
        assert report.score == 1.0

    def test_fetch_text_resubstitutes_entities(self, stored_university):
        tool, stored = stored_university
        text = tool.fetch_text(stored.doc_id)
        assert "&cs;" in text

    def test_fetch_text_without_resubstitution(self, stored_university):
        tool, stored = stored_university
        text = tool.fetch_text(stored.doc_id,
                               resubstitute_entities=False)
        assert "&cs;" not in text
        assert "Computer Science" in text

    def test_fetch_restores_prolog(self, stored_university):
        tool, stored = stored_university
        rebuilt = tool.fetch(stored.doc_id)
        assert rebuilt.xml_version == "1.0"
        assert rebuilt.encoding == "UTF-8"

    def test_fetch_unknown_document(self, uni_tool):
        with pytest.raises(LookupError):
            uni_tool.fetch(42)

    def test_query_returns_result(self, stored_university):
        tool, _stored = stored_university
        result = tool.query("/University/Student/LName")
        assert {row[0] for row in result.rows} == {"Conrad", "Meier"}

    def test_query_with_doc_filter(self, uni_tool):
        first = uni_tool.store(make_university(students=2, seed=1))
        uni_tool.store(make_university(students=5, seed=2))
        result = uni_tool.query("/University/Student",
                                select="StudNr",
                                doc_id=first.doc_id)
        assert len(result.rows) == 2

    def test_raw_sql_escape_hatch(self, stored_university):
        tool, _stored = stored_university
        assert tool.sql(
            "SELECT COUNT(*) FROM TabUniversity").scalar() == 1


class TestMultipleDocuments:
    def test_many_documents_one_schema(self, uni_tool):
        for seed in range(5):
            uni_tool.store(make_university(students=2, seed=seed))
        assert uni_tool.sql(
            "SELECT COUNT(*) FROM TabUniversity").scalar() == 5
        assert uni_tool.metadata.document_count() == 5

    def test_each_fetch_isolated(self, uni_tool):
        first = uni_tool.store(make_university(students=1, seed=1))
        second = uni_tool.store(make_university(students=3, seed=2))
        assert len(uni_tool.fetch(first.doc_id).root_element
                   .find_all("Student")) == 1
        assert len(uni_tool.fetch(second.doc_id).root_element
                   .find_all("Student")) == 3


class TestIdrefInference:
    def test_targets_from_document(self):
        dtd = parse_dtd(BIBLIOGRAPHY_DTD)
        document = parse(BIBLIOGRAPHY_DOCUMENT)
        targets = infer_idref_targets(document, dtd)
        assert targets == {("Cites", "ref"): "Article"}

    def test_full_bibliography_roundtrip(self):
        tool = XML2Oracle()
        tool.register_schema(BIBLIOGRAPHY_DTD,
                             sample_document=BIBLIOGRAPHY_DOCUMENT)
        tool.store(BIBLIOGRAPHY_DOCUMENT)
        rebuilt = tool.fetch(1)
        report = compare(parse(BIBLIOGRAPHY_DOCUMENT), rebuilt)
        assert report.score == 1.0


class TestOracle8EndToEnd:
    def test_facade_in_oracle8_mode(self):
        tool = XML2Oracle(mode=CompatibilityMode.ORACLE8)
        tool.register_schema(UNIVERSITY_DTD)
        stored = tool.store(parse(SAMPLE_DOCUMENT))
        assert stored.load_result.insert_count > 1
        rebuilt = tool.fetch(stored.doc_id)
        report = compare(parse(SAMPLE_DOCUMENT), rebuilt)
        # facts survive; sibling order does not (Oracle 8 regroups
        # children by table), so the combined score dips below 1.0
        assert report.fact_score == 1.0
        assert report.score < 1.0

    def test_mode_property(self):
        tool = XML2Oracle(mode=CompatibilityMode.ORACLE8)
        assert tool.mode is CompatibilityMode.ORACLE8


class TestDesignAblations:
    """The generator's unmeasured design choices (DESIGN.md Section 5)
    keep the single INSERT and a lossless round trip either way."""

    @staticmethod
    def tool(config=None, metadata=False) -> XML2Oracle:
        tool = XML2Oracle(config=config, metadata=metadata)
        tool.register_schema(UNIVERSITY_DTD)
        return tool

    @pytest.mark.parametrize("flavor", [CollectionFlavor.VARRAY,
                                        CollectionFlavor.NESTED_TABLE],
                             ids=["varray", "nested-table"])
    def test_collection_flavor(self, flavor):
        """Section 4.2: 'nested tables work in nearly the same
        manner'."""
        tool = self.tool(MappingConfig(collection_flavor=flavor))
        stored = tool.store(make_university(students=3))
        assert stored.load_result.insert_count == 1
        assert tool.query(
            "/University/Student/Course/Professor/PName").rows

    @pytest.mark.parametrize("wrapper", [False, True],
                             ids=["inline-attrs", "attrlist-types"])
    def test_attribute_list_types(self, wrapper):
        """Section 4.4's TypeAttrL_ wrapper vs Section 4.2's inline
        attributes: the same fidelity."""
        tool = self.tool(MappingConfig(attribute_list_types=wrapper))
        document = make_university(students=3)
        stored = tool.store(document)
        assert compare(document, tool.fetch(stored.doc_id)).score == 1.0

    @pytest.mark.parametrize("metadata", [False, True],
                             ids=["no-metadata", "with-metadata"])
    def test_metadata_adds_no_insert_to_the_document(self, metadata):
        tool = self.tool(metadata=metadata)
        stored = tool.store(make_university(students=3))
        assert stored.load_result.insert_count == 1

    @pytest.mark.parametrize("length", [255, 4000],
                             ids=["varchar-255", "varchar-4000"])
    def test_text_length(self, length):
        """Section 4.1 picks VARCHAR(4000) 'to avoid value assignment
        conflicts'; a smaller default rejects long text."""
        tool = self.tool(MappingConfig(text_length=length))
        stored = tool.store(make_university(students=3))
        assert stored.load_result.insert_count == 1
        long_text = parse(f"<University><StudyCourse>{'x' * 1000}"
                          f"</StudyCourse></University>")
        if length < 1000:
            with pytest.raises(ValueTooLarge):
                tool.store(long_text)
        else:
            tool.store(long_text)
