"""XML parser: ill-formed input raises positioned errors."""

import pytest

from repro.xmlkit import XMLSyntaxError, parse
from repro.xmlkit.parser import MAX_ELEMENT_DEPTH


@pytest.mark.parametrize("source", [
    "",                           # no root element
    "<a>",                        # unterminated element
    "<a></b>",                    # mismatched end tag
    "<a><b></a></b>",             # improper nesting
    "<a/><b/>",                   # two root elements
    "<a x=1/>",                   # unquoted attribute
    '<a x="1" x="2"/>',           # duplicate attribute
    '<a x="<"/>',                 # '<' in attribute value
    "<a>&undefined;</a>",         # unknown entity
    "<a>&#xZZ;</a>",              # bad char reference
    "<a>]]></a>",                 # CDATA end in content
    "<a><!-- -- --></a>",         # double hyphen in comment
    "<a><?xml version=\"1.0\"?></a>",  # reserved PI target
    "<a><![CDATA[x]]</a>",        # unterminated CDATA
    "<?xml version='2.5'?><a/>",  # unsupported version
    "<!DOCTYPE a []><!DOCTYPE a []><a/>",  # double doctype
    "<a>text after root</a> trailing",     # content in epilog
    "<a attr = ></a>",            # missing attribute value
    "<a><b attr></b></a>",        # attribute without '='
])
def test_ill_formed_documents_raise(source):
    with pytest.raises(XMLSyntaxError):
        parse(source)


def test_error_carries_position():
    with pytest.raises(XMLSyntaxError) as info:
        parse("<a>\n  <b></c>\n</a>")
    assert info.value.line == 2
    assert info.value.column == 9
    assert info.value.message == "end tag </c> does not match <b>"


def test_too_deep_document_is_a_positioned_error():
    """10 000 nested elements: refused at the first element past the
    limit, never a RecursionError."""
    with pytest.raises(XMLSyntaxError) as info:
        parse("<a>" * 10_000 + "</a>" * 10_000)
    assert info.value.line == 1
    assert info.value.column == 3 * MAX_ELEMENT_DEPTH + 1
    assert info.value.message == (
        f"elements nest deeper than {MAX_ELEMENT_DEPTH} levels")


def test_document_at_the_depth_limit_parses():
    depth = MAX_ELEMENT_DEPTH
    element = parse("<a>" * depth + "x" + "</a>" * depth).root_element
    for _ in range(depth - 1):
        element = element.children[0]
    assert element.text_content() == "x"


def test_illegal_control_character_position():
    with pytest.raises(XMLSyntaxError) as info:
        parse("<a>bad\x00char</a>")
    assert "U+0000" in str(info.value)


def test_recursive_entities_rejected():
    with pytest.raises(XMLSyntaxError) as info:
        parse('<!DOCTYPE a [<!ENTITY x "&y;"><!ENTITY y "&x;">]>'
              "<a>&x;</a>")
    assert "recursive" in str(info.value)


def test_entity_markup_deep_in_the_document_expands():
    """Only element depth limits where an entity's markup may land."""
    source = ('<!DOCTYPE a [<!ENTITY e "<b/>">]>'
              + "<a>" * 40 + "&e;" + "</a>" * 40)
    element = parse(source).root_element
    for _ in range(40):
        element = element.children[0]
    assert element.tag == "b"


def test_entity_markup_counts_towards_element_depth():
    """250 nested elements from an entity used 20 levels deep make a
    270-deep tree: refused like any document past the limit."""
    markup = "<b>" * 250 + "</b>" * 250
    source = (f'<!DOCTYPE a [<!ENTITY e "{markup}">]>'
              + "<a>" * 20 + "&e;" + "</a>" * 20)
    with pytest.raises(XMLSyntaxError) as info:
        parse(source)
    assert info.value.message == (
        f"elements nest deeper than {MAX_ELEMENT_DEPTH} levels")


def test_long_entity_chain_is_a_syntax_error():
    """600 entities, each referencing the next: a bounded nesting
    error, never a RecursionError."""
    chain = "".join(f'<!ENTITY e{n} "&e{n + 1};">' for n in range(600))
    source = f'<!DOCTYPE a [{chain}<!ENTITY e600 "x">]><a>&e0;</a>'
    with pytest.raises(XMLSyntaxError) as info:
        parse(source)
    assert "nest deeper than" in info.value.message


def test_billion_laughs_is_bounded():
    subset = ['<!ENTITY e0 "ha">']
    for index in range(1, 12):
        subset.append(
            f'<!ENTITY e{index} "{"&e%d;" % (index - 1) * 10}">')
    source = ("<!DOCTYPE a [" + "".join(subset) + "]>"
              "<a>&e11;&e11;&e11;</a>")
    with pytest.raises(XMLSyntaxError):
        parse(source)


def test_unparsed_entity_in_content_rejected():
    source = ('<!DOCTYPE a [<!NOTATION gif SYSTEM "g">'
              '<!ENTITY pic SYSTEM "p.gif" NDATA gif>]><a>&pic;</a>')
    with pytest.raises(XMLSyntaxError):
        parse(source)


def test_whitespace_required_between_attributes():
    with pytest.raises(XMLSyntaxError):
        parse('<a x="1"y="2"/>')
