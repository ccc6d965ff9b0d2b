"""Golden error positions: the exact message, line and column of every
ill-formed XML document, DTD and SQL statement below.

Positions are derived from the scan offset only when an error is
raised, so these values are the contract that derivation must keep.
The XML list starts with every document of ``test_parser_errors.py``'s
ill-formed list; the rest are multi-line cases: errors on line 3 or
later, after multi-line comments and CDATA sections, inside internal
subset declarations (whose scanner starts at the declaration's line,
column 1), and next to non-ASCII names.
"""

import pytest

from repro.dtd.parser import parse_dtd
from repro.ordb import Database
from repro.ordb.errors import ParseError
from repro.ordb.sql.parser import parse_statement
from repro.xmlkit import XMLSyntaxError, parse

XML_GOLDEN = [
    # test_parser_errors.py's ill-formed list
    ("", "document has no root element", 1, 1),
    ("<a>", "unexpected end of input inside <a>", 1, 4),
    ("<a></b>", "end tag </b> does not match <a>", 1, 7),
    ("<a><b></a></b>", "end tag </a> does not match <b>", 1, 10),
    ("<a/><b/>", "content after document element", 1, 5),
    ("<a x=1/>", "expected quoted value of attribute 'x'", 1, 6),
    ('<a x="1" x="2"/>', "duplicate attribute 'x' in <a>", 1, 15),
    ('<a x="<"/>', "'<' in value of attribute 'x'", 1, 9),
    ("<a>&undefined;</a>", "undefined entity '&undefined;'", 1, 15),
    ("<a>&#xZZ;</a>", "malformed character reference '&#xZZ;'", 1, 10),
    ("<a>]]></a>", "']]>' not allowed in character data", 1, 4),
    ("<a><!-- -- --></a>", "'--' not allowed inside comment", 1, 15),
    ('<a><?xml version="1.0"?></a>',
     "'xml' is a reserved processing instruction target", 1, 9),
    ("<a><![CDATA[x]]</a>", "unterminated CDATA section", 1, 13),
    ("<?xml version='2.5'?><a/>", "unsupported XML version '2.5'", 1, 20),
    ("<!DOCTYPE a []><!DOCTYPE a []><a/>",
     "multiple DOCTYPE declarations", 1, 16),
    ("<a>text after root</a> trailing",
     "content after document element", 1, 24),
    ("<a attr = ></a>", "expected quoted value of attribute 'attr'", 1, 11),
    ("<a><b attr></b></a>",
     "expected '=' in attribute 'attr', found '>'", 1, 11),
    # errors on line 3 and later
    ("<a>\n  <b>\n    <c></d>\n  </b>\n</a>",
     "end tag </d> does not match <c>", 3, 11),
    ("<a>\n\t<b\tx='1'\n y='2'>text</b>\n\t<c/ >\n</a>",
     "expected '>' in start tag <c>, found '/'", 4, 4),
    ("<a>\n<b>\n\x01</b></a>", "illegal character U+0001", 3, 1),
    ("<a>\n  <b>\n  </b>\n", "unexpected end of input inside <a>", 4, 1),
    ("<a\n  x='1'\n  y\n='2'\n\n z></a>",
     "expected '=' in attribute 'z', found '>'", 6, 3),
    ("<a>\n  &amp\n</a>",
     "expected ';' in entity reference &amp, found '\\n'", 2, 7),
    ("<a>\n  text ]]> here</a>", "']]>' not allowed in character data",
     2, 8),
    # after a multi-line comment or CDATA section
    ("<a>\n<!-- one\ntwo\nthree -->\n<b x='1' x='2'/>\n</a>",
     "duplicate attribute 'x' in <b>", 5, 15),
    ("<a><![CDATA[line\nline\n]]>\n  <b>&nope;</b></a>",
     "undefined entity '&nope;'", 4, 12),
    # inside the internal subset (declaration scanners: start_line path)
    ("<!DOCTYPE a [\n  <!ELEMENT a (#PCDATA)>\n  <!ATTLIST a\n"
     "     x BOGUS #IMPLIED>\n]>\n<a/>",
     "unknown attribute type 'BOGUS'", 4, 13),
    ("<!DOCTYPE a [\n<!ELEMENT a (b,\n  c|d)>\n]><a/>",
     "',' and '|' mixed in one group", 3, 5),
    ("<!DOCTYPE a [<!ELEMENT a (b,c|d)>]><a/>",
     "',' and '|' mixed in one group", 1, 18),
    ("<!DOCTYPE a [\n\n  <!ELEMENT a (b,c|d)>]><a/>",
     "',' and '|' mixed in one group", 3, 18),
    ("<!DOCTYPE a [\n<!ELEMENT a ANY>\n<!-- unterminated\n]><a/>",
     "unterminated comment", 3, 5),
    ("<!DOCTYPE a [\n<!ELEMENT a ANY\n",
     "unterminated internal DTD subset", 3, 1),
    ("<!DOCTYPE a [\n<!ENTITY e 'x\n",
     "unterminated literal in internal subset", 2, 13),
    # next to non-ASCII names
    ("<Élément>\n  <naïve attr='1'></naive>\n</Élément>",
     "end tag </naive> does not match <naïve>", 2, 26),
    ("<a¢b/>", "whitespace required before attribute in <a>", 1, 3),
    ("<²a/>", "expected element name", 1, 2),
]

DTD_GOLDEN = [
    ("<!ELEMENT a (#PCDATA)>\n<![ INCLUDE [\n<!ELEMENT b (c,d|e)>\n]]>",
     "',' and '|' mixed in one group", 2, 18),
    ("<!ELEMENT a (#PCDATA)>\n<![ IGNORE [\n<![ x [ ]]>\n]]>\n"
     "<!ATTLIST a x (p|q r) #IMPLIED>",
     "expected '|' in enumeration, found 'r'", 5, 20),
    ("<!ELEMENT a (#PCDATA)>\n<![ INCLUDE [\n<!ELEMENT b ANY>\n",
     "unterminated conditional section", 4, 1),
    ("\n\n<!ENTITY % p '(x|y)'>\n<!ELEMENT a %p;*>\n<!ELEMENT b (%p;,z)>",
     "expected '>' in <!ELEMENT a>, found '*'", 4, 20),
]

SQL_GOLDEN = [
    ("SELECT @ FROM t",
     "ORA-00900: unexpected character '@' at line 1, column 8"),
    ("SELECT 1 FROM t\n\n  WHERE ! 3",
     "ORA-00900: unexpected character '!' at line 3, column 9"),
    ("SELECT 1 FROM t\nWHERE x = 'open",
     "ORA-00900: unterminated string literal at line 2"),
    ("SELECT 1\nFROM t /* never\nclosed",
     "ORA-00900: unterminated comment at line 2"),
    ('SELECT "unclosed FROM t',
     "ORA-00900: unterminated quoted identifier at line 1"),
    ("SELECT a,\n       b\n  FROM t\n WHERE a = = 2",
     "ORA-00900: expected an expression, found '=' (line 4, column 12)"),
    ("SELECT\n  FROM t",
     "ORA-00900: expected FROM, found '<end of statement>'"
     " (line 2, column 9)"),
    ("INSERT INTO t VALUES (1,\n 2,\n 3",
     "ORA-00900: expected ')', found '<end of statement>'"
     " (line 3, column 3)"),
    ("SELECT a FROM t -- trailing\nGARBAGE MORE",
     "ORA-00900: unexpected trailing input, found 'MORE'"
     " (line 2, column 9)"),
    ("CREATE TABLE t (a NUMBER(x))",
     "ORA-00900: expected numeric type parameter, found ')'"
     " (line 1, column 27)"),
    ("SELECT a FROM t FETCH FIRST 2.5 ROWS ONLY",
     "ORA-00900: FETCH FIRST row count must be an integer, got 2.5,"
     " found 'ROWS' (line 1, column 33)"),
    ("UPDATE t SET\n a = 'it''s' WHERE",
     "ORA-00900: expected an expression, found '<end of statement>'"
     " (line 2, column 19)"),
    ("SELECT t.a.\n FROM t",
     "ORA-00900: expected FROM, found '<end of statement>'"
     " (line 2, column 8)"),
]


@pytest.mark.parametrize("source,message,line,column", XML_GOLDEN)
def test_xml_error_position(source, message, line, column):
    with pytest.raises(XMLSyntaxError) as info:
        parse(source)
    assert (info.value.message, info.value.line, info.value.column) == (
        message, line, column)


@pytest.mark.parametrize("source,message,line,column", DTD_GOLDEN)
def test_dtd_error_position(source, message, line, column):
    with pytest.raises(XMLSyntaxError) as info:
        parse_dtd(source)
    assert (info.value.message, info.value.line, info.value.column) == (
        message, line, column)


@pytest.mark.parametrize("source,text", SQL_GOLDEN)
def test_sql_error_text(source, text):
    with pytest.raises(ParseError) as info:
        parse_statement(source)
    assert str(info.value) == text


@pytest.mark.parametrize("source,text", SQL_GOLDEN[:5])
def test_sql_error_text_through_execute(source, text):
    with pytest.raises(ParseError) as info:
        Database().execute(source)
    assert str(info.value) == text
