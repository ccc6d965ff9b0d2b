"""XML parser: well-formed documents build the expected tree."""

import pytest

from repro.xmlkit import (
    CDATASection,
    Comment,
    EntityReference,
    ProcessingInstruction,
    Text,
    XMLParser,
    XMLSyntaxError,
    parse,
)


class TestBasicParsing:
    def test_single_empty_element(self):
        doc = parse("<a/>")
        assert doc.root_element.tag == "a"
        assert doc.root_element.children == []

    def test_nested_elements(self):
        doc = parse("<a><b><c/></b></a>")
        assert doc.root_element.find("b").find("c") is not None

    def test_text_content(self):
        doc = parse("<a>hello world</a>")
        assert doc.root_element.text() == "hello world"

    def test_attributes(self):
        doc = parse('<a x="1" y="two"/>')
        root = doc.root_element
        assert root.get("x") == "1"
        assert root.get("y") == "two"

    def test_single_quoted_attributes(self):
        doc = parse("<a x='va\"l'/>")
        assert doc.root_element.get("x") == 'va"l'

    def test_mixed_content_order(self):
        doc = parse("<p>one<b>two</b>three</p>")
        kinds = [type(c).__name__ for c in doc.root_element.children]
        assert kinds == ["Text", "Element", "Text"]

    def test_whitespace_preserved_by_default(self):
        doc = parse("<a>\n  <b/>\n</a>")
        texts = [c for c in doc.root_element.children
                 if isinstance(c, Text)]
        assert len(texts) == 2

    def test_whitespace_dropped_when_disabled(self):
        parser = XMLParser(keep_ignorable_whitespace=False)
        doc = parser.parse("<a>\n  <b/>\n</a>")
        assert doc.root_element.child_elements[0].tag == "b"
        assert all(not isinstance(c, Text)
                   for c in doc.root_element.children)


class TestProlog:
    def test_xml_declaration(self):
        doc = parse('<?xml version="1.0" encoding="ISO-8859-1"'
                    ' standalone="yes"?><a/>')
        assert doc.xml_version == "1.0"
        assert doc.encoding == "ISO-8859-1"
        assert doc.standalone is True

    def test_no_declaration(self):
        doc = parse("<a/>")
        assert doc.xml_version is None

    def test_doctype_system(self):
        doc = parse('<!DOCTYPE a SYSTEM "a.dtd"><a/>')
        assert doc.doctype.name == "a"
        assert doc.doctype.system_id == "a.dtd"

    def test_doctype_public(self):
        doc = parse('<!DOCTYPE html PUBLIC "-//W3C//DTD//EN"'
                    ' "http://x/dtd"><html/>')
        assert doc.doctype.public_id == "-//W3C//DTD//EN"

    def test_internal_subset_is_parsed(self):
        doc = parse("<!DOCTYPE a [<!ELEMENT a (#PCDATA)>]><a/>")
        assert doc.doctype.dtd is not None
        assert doc.doctype.dtd.element("a") is not None

    def test_prolog_comment_and_pi(self):
        doc = parse("<!-- c --><?target data?><a/>")
        kinds = [type(c).__name__ for c in doc.misc_nodes()]
        assert kinds == ["Comment", "ProcessingInstruction"]

    def test_bom_is_skipped(self):
        doc = parse("﻿<a/>")
        assert doc.root_element.tag == "a"


class TestSpecialNodes:
    def test_comment(self):
        doc = parse("<a><!-- note --></a>")
        comment = doc.root_element.children[0]
        assert isinstance(comment, Comment)
        assert comment.data == " note "

    def test_cdata(self):
        doc = parse("<a><![CDATA[<raw> & text]]></a>")
        cdata = doc.root_element.children[0]
        assert isinstance(cdata, CDATASection)
        assert cdata.data == "<raw> & text"
        assert doc.root_element.text() == "<raw> & text"

    def test_processing_instruction(self):
        doc = parse("<a><?php echo 1;?></a>")
        pi = doc.root_element.children[0]
        assert isinstance(pi, ProcessingInstruction)
        assert pi.target == "php"
        assert pi.data == "echo 1;"

    def test_pi_without_data(self):
        doc = parse("<a><?marker?></a>")
        assert doc.root_element.children[0].data == ""

    def test_epilog_comment(self):
        doc = parse("<a/><!-- after -->")
        assert isinstance(doc.children[-1], Comment)


class TestReferences:
    def test_predefined_entities(self):
        doc = parse("<a>&lt;&amp;&gt;&quot;&apos;</a>")
        assert doc.root_element.text() == "<&>\"'"

    def test_char_references(self):
        doc = parse("<a>&#65;&#x42;</a>")
        assert doc.root_element.text() == "AB"

    def test_internal_entity_expansion(self):
        doc = parse('<!DOCTYPE a [<!ENTITY e "xyz">]><a>&e;</a>')
        assert doc.root_element.text() == "xyz"

    def test_entity_with_markup_expands_to_elements(self):
        doc = parse('<!DOCTYPE a [<!ENTITY e "<b>in</b>">]><a>&e;</a>')
        assert doc.root_element.find("b").text() == "in"

    def test_entity_preserved_when_expansion_disabled(self):
        parser = XMLParser(expand_entities=False)
        doc = parser.parse('<!DOCTYPE a [<!ENTITY e "xyz">]><a>&e;</a>')
        node = doc.root_element.children[0]
        assert isinstance(node, EntityReference)
        assert node.name == "e"
        assert node.expansion == "xyz"
        # text_content still sees through the reference
        assert doc.root_element.text_content() == "xyz"

    def test_entities_in_attribute_values(self):
        doc = parse('<!DOCTYPE a [<!ENTITY e "V">]><a x="&e;&#33;"/>')
        assert doc.root_element.get("x") == "V!"

    def test_attribute_whitespace_normalization(self):
        doc = parse('<a x="a\n b\tc"/>')
        assert doc.root_element.get("x") == "a  b c"


class TestEndOfLineNormalization:
    """XML 1.0 §2.11: ``\\r\\n`` and a lone ``\\r`` read as ``\\n``."""

    def test_crlf_and_cr_become_newlines(self):
        root = parse('<a b="x\r\ny">p\r\nq\rr</a>').root_element
        assert root.get("b") == "x y"
        assert root.text() == "p\nq\nr"

    def test_lines_count_after_normalization(self):
        with pytest.raises(XMLSyntaxError) as info:
            parse("<a>\r\n<b>\r</c></a>")
        assert (info.value.line, info.value.column) == (3, 4)

    def test_character_reference_keeps_carriage_return(self):
        assert parse("<a>x&#13;y</a>").root_element.text() == "x\ry"


class TestFragmentParsing:
    def test_fragment_returns_detached_nodes(self):
        nodes = XMLParser().parse_fragment("t1<x>v</x>t2")
        assert [type(n).__name__ for n in nodes] == [
            "Text", "Element", "Text"]
        assert all(n.parent is None for n in nodes)


@pytest.mark.parametrize("source,expected_tag", [
    ("<a-b/>", "a-b"),
    ("<a.b/>", "a.b"),
    ("<_x/>", "_x"),
    ("<ns:y/>", "ns:y"),
])
def test_name_variants(source, expected_tag):
    assert parse(source).root_element.tag == expected_tag
