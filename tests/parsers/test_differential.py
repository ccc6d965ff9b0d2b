"""Differential fuzz: the bulk scanners against the frozen reference
lexers in ``tests/parsers/reference``.

* XML: generated well-formed documents, and the same documents with a
  few characters inserted, deleted or replaced, give the same DOM or
  the same error class, message, line and column under both parsers.
* DTD: generated declaration sets (conditional sections, parameter
  entities, character references in literals), whole and mutated,
  give the same model or the same positioned error.
* SQL: generated statements give the same
  ``(kind, text, value, line, column)`` list or the same ``ParseError``.

Inputs never contain ``\\r`` (XML 1.0 §2.11 line-end normalization is
new) or a non-ASCII digit (SQL numbers are ASCII only now); those two
behaviour changes have their own tests.  ``REPRO_STRESS_SEED`` picks
the generation seed; the CI ``parser-fuzz`` job raises the example
count with the ``parser-fuzz`` hypothesis profile.
"""

from __future__ import annotations

import os

from hypothesis import HealthCheck, given, seed, settings, strategies as st

from repro.dtd.parser import DTDParser
from repro.ordb.errors import ParseError
from repro.ordb.sql.lexer import tokenize
from repro.xmlkit import (
    CDATASection,
    Comment,
    Document,
    DocumentType,
    Element,
    EntityReference,
    ProcessingInstruction,
    Text,
    XMLParser,
)

from .reference import dtd_parser as ref_dtd
from .reference import sql_lexer as ref_sql
from .reference import xml_parser as ref_xml

SEED = int(os.environ.get("REPRO_STRESS_SEED", "0"))

_SETTINGS = settings(deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])


def _plain(alphabet: str, max_size: int = 8) -> st.SearchStrategy[str]:
    return st.text(alphabet=alphabet, max_size=max_size)


# -- outcomes --------------------------------------------------------------------------


def _error(exc: Exception) -> tuple:
    return ("error", type(exc).__name__, getattr(exc, "message", None),
            getattr(exc, "line", None), getattr(exc, "column", None),
            str(exc))


def _dtd_shape(dtd) -> tuple | None:
    if dtd is None:
        return None
    entities = [
        (d.name, d.replacement, d.is_parameter, d.system_id, d.public_id,
         d.notation)
        for table in (dtd.entities.general, dtd.entities.parameter)
        for d in table.values()]
    return ([d.to_source() for d in dtd.elements.values()],
            [(element, [a.to_source() for a in attributes.values()])
             for element, attributes in dtd.attributes.items()],
            entities,
            [(n.name, n.public_id, n.system_id)
             for n in dtd.notations.values()])


def _shape(node) -> tuple:
    if isinstance(node, Document):
        return ("document", node.xml_version, node.encoding,
                node.standalone, [_shape(c) for c in node.children])
    if isinstance(node, Element):
        return ("element", node.tag,
                [(a.name, a.value, a.specified)
                 for a in node.attributes.values()],
                [_shape(c) for c in node.children])
    if isinstance(node, DocumentType):
        return ("doctype", node.name, node.public_id, node.system_id,
                node.internal_subset, _dtd_shape(node.dtd))
    if isinstance(node, (Text, CDATASection, Comment)):
        return (type(node).__name__, node.data)
    if isinstance(node, ProcessingInstruction):
        return ("pi", node.target, node.data)
    if isinstance(node, EntityReference):
        return ("entity", node.name, node.expansion)
    raise AssertionError(f"unexpected node {node!r}")


def _xml_outcome(parser_class, text: str, options: dict) -> tuple:
    try:
        return ("ok", _shape(parser_class(**options).parse(text)))
    except Exception as exc:  # every failure must match, not just syntax
        return _error(exc)


def _dtd_outcome(parser_class, text: str) -> tuple:
    try:
        return ("ok", _dtd_shape(parser_class().parse(text)))
    except Exception as exc:
        return _error(exc)


def _sql_outcome(tokenizer, text: str) -> tuple:
    try:
        return ("ok", [(t.kind.name, t.text, t.value, type(t.value).__name__,
                        t.line, t.column) for t in tokenizer(text)])
    except ParseError as exc:
        return ("error", str(exc))


# -- mutation ----------------------------------------------------------------------------

#: what a mutation may insert: markup, quotes, references, names,
#: whitespace, an illegal control character and non-ASCII letters
_NASTY = list("<>&;]['\"=/!?-#%() \n\tax1.:é中\x01") + [
    "]]>", "<!--", "-->", "<![CDATA[", "</", "/>", "&#", "&#x", "<?", "?>"]


@st.composite
def _mutated(draw, source: st.SearchStrategy[str],
             pieces: list[str] = _NASTY) -> str:
    text = draw(source)
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(text)))
        action = draw(st.sampled_from(["insert", "delete", "replace"]))
        piece = draw(st.sampled_from(pieces))
        if action == "insert":
            text = text[:at] + piece + text[at:]
        elif action == "delete":
            text = text[:at] + text[at + draw(st.integers(1, 4)):]
        else:
            text = text[:at] + piece + text[at + len(piece):]
    return text


# -- XML documents -------------------------------------------------------------------------

_NAME_START = "abcXYZ_:\u00e9\u00df\u03a9\u4e2d\u2177"
_NAME_REST = _NAME_START + "0123-.\u00b7\u0301\u00b2"
_names = st.builds(lambda first, rest: first + rest,
                   st.sampled_from(_NAME_START), _plain(_NAME_REST, 5))
_space = st.sampled_from([" ", "  ", "\n", "\t", " \n\t "])
_maybe_space = st.sampled_from(["", " ", "\n", " \t"])
_char_data = _plain("abc xyz\n\t>]'\"=é中€", 12)
_references = st.sampled_from(
    ["&amp;", "&lt;", "&gt;", "&quot;", "&apos;", "&#65;", "&#x42;",
     "&#233;", "&e;", "&m;"])
_comment = _plain("abc -\n<>&é", 10).filter(
    lambda s: "--" not in s and not s.endswith("-")).map(
        lambda s: f"<!--{s}-->")
_pi = st.builds(lambda target, data: f"<?{target} {data}?>",
                _names.filter(lambda n: n.lower() != "xml"),
                _plain("abc =\"'\n<&", 8).filter(lambda s: "?>" not in s))
_cdata = _plain("abc<>&]\n é", 10).filter(
    lambda s: "]]>" not in s).map(lambda s: f"<![CDATA[{s}]]>")


@st.composite
def _attribute_value(draw) -> str:
    quote = draw(st.sampled_from(['"', "'"]))
    pieces = draw(st.lists(st.one_of(
        _plain("ab c\n\t>é'\"", 6), _references), max_size=3))
    body = "".join(pieces).replace(quote, "")
    return f"{quote}{body}{quote}"


@st.composite
def _element(draw, depth: int) -> str:
    tag = draw(_names)
    names = draw(st.lists(_names, max_size=3, unique=True))
    parts = ["<", tag]
    for name in names:
        parts += [draw(_space), name, draw(_maybe_space), "=",
                  draw(_maybe_space), draw(_attribute_value())]
    parts.append(draw(_maybe_space))
    if depth == 0 or draw(st.integers(0, 4)) == 0:
        return "".join(parts) + "/>"
    parts.append(">")
    children = [_char_data, _references, _comment, _pi, _cdata,
                st.sampled_from(["]", "]]", "]>", "]]>"])]
    if depth > 1:
        children.append(_element(depth - 1))
    for child in draw(st.lists(st.one_of(*children), max_size=5)):
        parts.append(child)
    parts += ["</", tag, draw(_maybe_space), ">"]
    return "".join(parts)


_SUBSET = ("\n  <!ENTITY e \"ent&#233;\">\n  <!ENTITY m '<b>in</b>'>"
           "\n  <!-- a ] comment -->\n  <!ELEMENT r ANY>"
           "\n  <!ATTLIST r a CDATA 'x&#65;'>\n")


@st.composite
def _document(draw) -> str:
    parts = []
    if draw(st.booleans()):
        parts.append(draw(st.sampled_from([
            '<?xml version="1.0"?>',
            "<?xml version='1.0' encoding='UTF-8' standalone='yes'?>"])))
    misc = st.lists(st.one_of(_comment, _pi, _space), max_size=2)
    parts += draw(misc)
    if draw(st.booleans()):
        parts.append(f"<!DOCTYPE r [{_SUBSET}]>")
        parts += draw(misc)
    parts.append(draw(_element(3)))
    parts += draw(misc)
    return "".join(parts)


_options = st.fixed_dictionaries({
    "expand_entities": st.booleans(),
    "keep_ignorable_whitespace": st.booleans()})


def _assert_same_xml(text: str, options: dict) -> None:
    assert "\r" not in text
    assert (_xml_outcome(XMLParser, text, options)
            == _xml_outcome(ref_xml.XMLParser, text, options)), text


@seed(SEED)
@_SETTINGS
@given(_document(), _options)
def test_well_formed_documents_agree(text, options):
    _assert_same_xml(text, options)


@seed(SEED)
@_SETTINGS
@given(_mutated(_document()), _options)
def test_mutated_documents_agree(text, options):
    _assert_same_xml(text, options)


@seed(SEED)
@_SETTINGS
@given(_mutated(_element(2)))
def test_mutated_fragments_agree(text):
    assert "\r" not in text

    def outcome(parser_class):
        try:
            holder = Element("#fragment")
            for node in parser_class().parse_fragment(text):
                holder.append(node)
            return ("ok", _shape(holder))
        except Exception as exc:
            return _error(exc)

    assert outcome(XMLParser) == outcome(ref_xml.XMLParser), text


# -- DTDs -------------------------------------------------------------------------------------

_content_models = st.sampled_from([
    "EMPTY", "ANY", "(#PCDATA)", "( #PCDATA )*", "(#PCDATA|a|b)*",
    "(#PCDATA | c)*", "(a,b?)", "(a|b|c)+", "(a, (b|c)*, d?)",
    "( a , b )", "(a|b,c)", "(%p;)", "(a,%p;)*"])
_attribute_defs = st.sampled_from([
    "x CDATA #IMPLIED", "id ID #REQUIRED", "ref IDREF #IMPLIED",
    "n NMTOKEN 'v1'", "e (p|q| 1r) 'p'", "f CDATA #FIXED \"a&#66;c\"",
    "g NOTATION (gif) #IMPLIED", "h CDATA 'caf&#xE9;'",
    "k (%p;) #IMPLIED"])
_declarations = st.one_of(
    st.builds(lambda n, m: f"<!ELEMENT {n} {m}>", _names, _content_models),
    st.builds(lambda n, a: f"<!ATTLIST {n}\n   {a}>", _names,
              _attribute_defs),
    st.sampled_from([
        "<!ENTITY e 'text &#38;#60; and &amp;'>",
        "<!ENTITY % p 'a|b'>", "<!ENTITY % q \"<!ELEMENT z ANY>\">",
        "%q;", "<!ENTITY pic SYSTEM 'p.gif' NDATA gif>",
        "<!ENTITY ext PUBLIC '-//X//EN' \"x.xml\">",
        "<!ENTITY v \"%p; &#x41;\">",
        "<!NOTATION gif SYSTEM 'gif'>", "<!NOTATION png PUBLIC 'png'>",
        "<!-- a comment with > and ' -->", "<?pi data?>",
        "<![ INCLUDE [ <!ELEMENT inc ANY> ]]>",
        "<![IGNORE[ <![ INCLUDE [ junk ]]> more ]]>",
        "<![ %r; [ <!ELEMENT cond EMPTY> ]]>",
        "<!ENTITY % r 'INCLUDE'>"]))


@st.composite
def _dtd(draw) -> str:
    parts = ["<!ENTITY % p 'a|b'>", "<!ENTITY % r 'INCLUDE'>"]
    for declaration in draw(st.lists(_declarations, max_size=8)):
        parts += [draw(st.sampled_from(["\n", " ", "\n\n  ", "\t"])),
                  declaration]
    return "".join(parts)


def _assert_same_dtd(text: str) -> None:
    assert "\r" not in text
    assert (_dtd_outcome(DTDParser, text)
            == _dtd_outcome(ref_dtd.DTDParser, text)), text


@seed(SEED)
@_SETTINGS
@given(_dtd())
def test_dtds_agree(text):
    _assert_same_dtd(text)


@seed(SEED)
@_SETTINGS
@given(_mutated(_dtd()))
def test_mutated_dtds_agree(text):
    _assert_same_dtd(text)


# -- SQL --------------------------------------------------------------------------------------

_sql_idents = st.one_of(
    st.sampled_from(["SELECT", "select", "FROM", "Where", "AND", "t",
                     "x1", "_a", "a$b", "c#d", "TabCourse", "NULL"]),
    st.from_regex(r"[A-Za-z_][A-Za-z0-9_$#]{0,6}", fullmatch=True))
_sql_text = _plain("ab '\n\t;-*/\"é中.", 8)
_sql_pieces = st.one_of(
    _sql_idents,
    _sql_text.map(lambda s: "'" + s.replace("'", "''") + "'"),
    _sql_text.map(lambda s: '"' + s.replace('"', "") + '"'),
    st.from_regex(r"[0-9]{1,4}(\.[0-9]{1,3})?|\.[0-9]{1,3}", fullmatch=True),
    st.sampled_from(["1..2", "1.2.3", "x.5", "t.a.b", "t1.col", "3.", ".",
                     "1.e", "''", "'it''s'", "''''", "-1", "--"]),
    st.sampled_from(["<=", ">=", "<>", "!=", "||", ":=", "(", ")", ",",
                     ";", "=", "<", ">", "+", "-", "*", "/", "%"]),
    _sql_text.map(lambda s: "--" + s.replace("\n", " ") + "\n"),
    _sql_text.map(lambda s: "/*" + s.replace("*/", "") + "*/"),
)
_sql_separators = st.sampled_from(["", " ", "  ", "\n", "\t", " \n  "])


@st.composite
def _statement(draw) -> str:
    parts = []
    for piece in draw(st.lists(_sql_pieces, max_size=14)):
        parts += [piece, draw(_sql_separators)]
    return "".join(parts)


_SQL_NASTY = list("@!:|'\"/*-.é$#?") + ["/*", "--", "''", "\n"]


def _assert_same_sql(text: str) -> None:
    assert "\r" not in text
    assert not any(ch.isdigit() and not ch.isascii() for ch in text)
    assert (_sql_outcome(tokenize, text)
            == _sql_outcome(ref_sql.tokenize, text)), text


@seed(SEED)
@_SETTINGS
@given(_statement())
def test_statements_agree(text):
    _assert_same_sql(text)


@seed(SEED)
@_SETTINGS
@given(_mutated(_statement(), _SQL_NASTY))
def test_mutated_statements_agree(text):
    _assert_same_sql(text)


@seed(SEED)
@_SETTINGS
@given(st.text(alphabet=st.characters(
    codec="utf-8", exclude_characters="\r").filter(
        lambda ch: ch.isascii() or not ch.isdigit()), max_size=40))
def test_arbitrary_text_tokenizes_alike(text):
    _assert_same_sql(text)
