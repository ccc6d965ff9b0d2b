"""Naming conventions of Table 1 (experiment TAB1)."""

import pytest

from repro.core import XML2Oracle, analyze, generate_schema
from repro.core.naming import (
    NameGenerator,
    SchemaIdAllocator,
    clean_xml_name,
)
from repro.dtd import parse_dtd
from repro.ordb.identifiers import MAX_IDENTIFIER_LENGTH, is_reserved
from repro.workloads import CORPUS, university_dtd

#: every Table 1 prefix plus the documented extensions
_PREFIXES = ("Tab", "attr", "attrList", "ID", "Type_", "TypeAttrL_",
             "TypeVA_", "TypeNT_", "TypeRef_", "OView_", "ref")


@pytest.fixture
def names():
    return NameGenerator()


class TestTable1Conventions:
    """One test per row of Table 1."""

    def test_tab_prefix_for_tables(self, names):
        assert names.table("Professor") == "TabProfessor"

    def test_attr_prefix_for_simple_elements(self, names):
        assert names.attribute("LName") == "attrLName"

    def test_attr_prefix_for_xml_attributes(self, names):
        assert names.xml_attribute("StudNr") == "attrStudNr"

    def test_attrlist_prefix(self, names):
        assert names.attribute_list("B") == "attrListB"

    def test_id_prefix(self, names):
        assert names.id_column("Student") == "IDStudent"

    def test_type_prefix(self, names):
        assert names.object_type("Course") == "Type_Course"

    def test_typeattrl_prefix(self, names):
        assert names.attrlist_type("B") == "TypeAttrL_B"

    def test_typeva_prefix(self, names):
        assert names.varray_type("Subject") == "TypeVA_Subject"

    def test_oview_prefix(self, names):
        assert names.object_view("University") == "OView_University"


class TestExtensions:
    def test_nested_table_prefix(self, names):
        assert names.nested_table_type("Subject") == "TypeNT_Subject"

    def test_ref_collection_prefix(self, names):
        assert names.ref_collection_type("Professor") == \
            "TypeRef_Professor"

    def test_parent_ref_column(self, names):
        assert names.parent_ref_column("Course") == "refCourse"

    def test_storage_table(self, names):
        assert names.storage_table("Subject") == "TabSubject_List"


class TestUniquenessAndLegality:
    def test_same_request_is_stable(self, names):
        assert names.table("X") == names.table("X")

    def test_element_vs_attribute_namespaces(self, names):
        first = names.attribute("Name")
        second = names.xml_attribute("Name")
        assert first != second  # same prefix, disambiguated

    def test_collision_disambiguated(self, names):
        # two raw names that clean to the same identifier
        first = names.table("A.B")
        second = names.table("A_B")
        assert first != second

    def test_reserved_word_avoided(self, names):
        table = names.table("le")  # "Table" is reserved
        assert not is_reserved(table)

    def test_length_clamped(self, names):
        long_name = "Element" * 10
        table = names.table(long_name)
        assert len(table) <= MAX_IDENTIFIER_LENGTH

    def test_long_names_stay_unique(self, names):
        base = "VeryLongElementNameThatOverflows"
        first = names.table(base + "X")
        second = names.table(base + "Y")
        assert first != second
        assert len(first) <= MAX_IDENTIFIER_LENGTH
        assert len(second) <= MAX_IDENTIFIER_LENGTH

    def test_illegal_characters_cleaned(self):
        assert clean_xml_name("ns:tag-1.2") == "ns_tag_1_2"

    def test_leading_digit_prefixed(self):
        assert clean_xml_name("1abc").startswith("X")

    def test_hostile_names_stay_unique_and_legal(self, names):
        """Keywords, 'Tab' + 'le' = reserved 'Table', the length
        limit and characters Oracle identifiers cannot carry."""
        hostile = ["ORDER", "GROUP", "SELECT", "le",
                   "X" * 64, "X" * 64 + "Y", "ns:colon-name.dot"]
        generated = [names.table(name) for name in hostile]
        assert len(set(generated)) == len(generated)
        for name in generated:
            assert len(name) <= MAX_IDENTIFIER_LENGTH
            assert not is_reserved(name)

    def test_many_elements_get_distinct_names(self, names):
        generated = []
        for index in range(200):
            element = f"Element{index}"
            generated += [names.table(element),
                          names.object_type(element),
                          names.attribute(element),
                          names.varray_type(element)]
        assert len(set(generated)) == len(generated)


class TestGeneratedSchemas:
    def test_university_identifiers_conform(self):
        text = generate_schema(analyze(university_dtd())).text
        identifiers = {
            token
            for line in text.splitlines()
            for token in line.replace("(", " ").replace(")", " ")
            .replace(",", " ").split()
            if token.startswith(_PREFIXES)}
        assert identifiers
        for name in identifiers:
            assert len(name) <= MAX_IDENTIFIER_LENGTH, name
            assert not is_reserved(name), name

    @pytest.mark.parametrize("corpus", sorted(CORPUS))
    def test_corpus_schema_executes(self, corpus):
        dtd_text, _document = CORPUS[corpus]
        tool = XML2Oracle(metadata=False)
        tool.register_schema(parse_dtd(dtd_text))
        assert tool.schemas[0].script.statements


class TestSchemaIds:
    def test_allocator_sequence(self):
        allocator = SchemaIdAllocator()
        assert allocator.allocate() == "S1"
        assert allocator.allocate() == "S2"

    def test_schema_id_suffix(self):
        names = NameGenerator(schema_id="S2")
        assert names.table("Student") == "TabStudent_S2"
        assert names.object_type("Student") == "Type_Student_S2"

    def test_suffix_respects_length_limit(self):
        names = NameGenerator(schema_id="S2")
        long_name = "Q" * 40
        generated = names.table(long_name)
        assert len(generated) <= MAX_IDENTIFIER_LENGTH
        assert generated.endswith("_S2")

    def test_identical_elements_differ_across_schemas(self):
        first = NameGenerator()
        second = NameGenerator(schema_id="S2")
        assert first.table("Student") != second.table("Student")
