"""XML 1.0 parser producing the :mod:`repro.xmlkit.dom` tree.

This is the reproduction of the validating "XML V2 parser" box of
Fig. 1: it checks well-formedness while building the tree; validity
checking against the DTD is performed afterwards by
:class:`repro.dtd.validator.Validator` on the finished tree.

Two behaviours relevant to the paper are configurable:

``expand_entities`` (default True)
    Matches the paper's parser, which expands general entities at their
    occurrences (Section 6.1).  With False, ``EntityReference`` nodes
    are preserved in the tree (each still carries its expansion so
    downstream code can read through it).

``keep_ignorable_whitespace`` (default True)
    Whitespace-only text between elements is kept, so serialization can
    reproduce the original layout.

Line ends are normalized once, before scanning (XML 1.0 §2.11): ``\\r\\n``
and a lone ``\\r`` read as ``\\n``.  Character data, well-formed start and
end tags, names and whitespace are each consumed with one compiled
pattern match; a tag the pattern does not accept (an error, or a
non-ASCII name) is read piece by piece, which yields the positioned
error message.
"""

from __future__ import annotations

import re

from . import chars
from .dom import (
    CDATASection,
    Comment,
    Document,
    DocumentType,
    Element,
    EntityReference,
    ProcessingInstruction,
    Text,
)
from .entities import (
    EntityTable,
    PREDEFINED_ENTITIES,
    expand_char_reference,
)
from .errors import EntityError
from .lexer import Scanner

#: Attribute value characters replaced by space during normalization.
_ATTR_WHITESPACE = str.maketrans("\t\n\r", "   ")

_S = r"[ \t\r\n]"
_ASCII_NAME = r"[A-Za-z_:][-.0-9A-Za-z_:]*"

#: A whole well-formed start tag with ASCII names: tag name, attribute
#: block, '/' when empty.
_START_TAG = re.compile(
    rf"<({_ASCII_NAME})"
    rf"""((?:{_S}+{_ASCII_NAME}{_S}*={_S}*(?:"[^"<]*"|'[^'<]*'))*)"""
    rf"{_S}*(/?)>")
#: One attribute of a matched attribute block: name, "value", 'value'.
_ATTRIBUTE = re.compile(
    rf"""{_S}+({_ASCII_NAME}){_S}*={_S}*(?:"([^"<]*)"|'([^'<]*)')""")
_END_TAG = re.compile(rf"</({_ASCII_NAME}){_S}*>")

#: A run of character data: it stops only where markup, a reference or
#: a possible ``]]>`` may start.
_CHAR_DATA = re.compile(r"[^<&\]]+")

#: Where the raw internal subset scan must look closer.
_SUBSET_STOP = re.compile(r"""[\]'"]|<!--""")

#: How deep elements may nest (the root element is level 1).  A deeper
#: document is an XMLSyntaxError: the DOM and everything that maps or
#: serializes it recurse once per level.
MAX_ELEMENT_DEPTH = 256


class XMLParser:
    """Recursive-descent XML 1.0 parser.

    A single parser instance is reusable; each :meth:`parse` call is
    independent.
    """

    def __init__(self, expand_entities: bool = True,
                 keep_ignorable_whitespace: bool = True,
                 dtd_loader=None, tracer=None):
        self.expand_entities = expand_entities
        self.keep_ignorable_whitespace = keep_ignorable_whitespace
        #: optional callable(system_id) -> DTD text, consulted for
        #: ``<!DOCTYPE name SYSTEM "...">`` declarations.  Offline by
        #: default (None): external subsets are recorded, not fetched.
        self.dtd_loader = dtd_loader
        #: optional :class:`repro.obs.Tracer`; when set, each parse
        #: opens an ``xml.parse`` span under the current span
        self.tracer = tracer
        self._entities = EntityTable()
        #: entity name -> expansion, shared by every reference of the
        #: document being parsed (each entity is expanded once)
        self._entity_memo: dict[str, str] = {}

    # -- public API -----------------------------------------------------------

    def parse(self, text: str) -> Document:
        """Parse a complete document; raises XMLSyntaxError if ill-formed."""
        if self.tracer is None:
            return self._parse_document(text)
        with self.tracer.span("xml.parse", chars=len(text)) as span:
            document = self._parse_document(text)
            root = document.root_element
            if root is not None:
                span.set(elements=sum(
                    1 for _ in root.iter_elements()))
            return document

    def _parse_document(self, text: str) -> Document:
        if text.startswith("﻿"):
            text = text[1:]
        text = chars.normalize_newlines(text)
        self._check_characters(text)
        scanner = Scanner(text)
        document = Document()
        self._entities = EntityTable()
        self._entity_memo = {}

        self._parse_prolog(scanner, document)
        root = self._parse_element(scanner, depth=0)
        document.append(root)
        self._parse_misc(scanner, document)
        if not scanner.at_end:
            scanner.error("content after document element")
        return document

    def parse_fragment(self, text: str,
                       entities: EntityTable | None = None,
                       depth: int = 0) -> list:
        """Parse mixed content (no prolog) into a list of nodes.

        Used for expanding entity replacement text that contains markup
        and by tests that build partial trees.  *depth* is the element
        depth the fragment lands at, so markup an entity brings in
        counts towards :data:`MAX_ELEMENT_DEPTH` where it is used.
        """
        entities = entities or EntityTable()
        if entities is not self._entities:
            self._entities = entities
            self._entity_memo = {}
        scanner = Scanner(text)
        holder = Element("#fragment")
        self._parse_content_into(scanner, holder, end_tag=None,
                                 depth=depth)
        nodes = list(holder.children)
        for node in nodes:
            node.parent = None
        return nodes

    # -- prolog ----------------------------------------------------------------

    def _parse_prolog(self, scanner: Scanner, document: Document) -> None:
        if scanner.lookahead("<?xml") and scanner.peek(5) in " \t\r\n":
            self._parse_xml_declaration(scanner, document)
        while True:
            scanner.skip_whitespace()
            if scanner.lookahead("<!--"):
                document.append(self._parse_comment(scanner))
            elif scanner.lookahead("<?"):
                document.append(self._parse_pi(scanner))
            elif scanner.lookahead("<!DOCTYPE"):
                if document.doctype is not None:
                    scanner.error("multiple DOCTYPE declarations")
                document.doctype = self._parse_doctype(scanner)
                document.append(document.doctype)
            else:
                break
        if scanner.at_end:
            scanner.error("document has no root element")

    def _parse_xml_declaration(self, scanner: Scanner,
                               document: Document) -> None:
        scanner.expect("<?xml")
        scanner.require_whitespace("after '<?xml'")
        scanner.expect("version", context="XML declaration")
        document.xml_version = self._parse_eq_literal(scanner)
        if document.xml_version not in ("1.0", "1.1"):
            scanner.error(
                f"unsupported XML version {document.xml_version!r}")
        scanner.skip_whitespace()
        if scanner.match("encoding"):
            document.encoding = self._parse_eq_literal(scanner)
            scanner.skip_whitespace()
        if scanner.match("standalone"):
            value = self._parse_eq_literal(scanner)
            if value not in ("yes", "no"):
                scanner.error("standalone must be 'yes' or 'no'")
            document.standalone = value == "yes"
            scanner.skip_whitespace()
        scanner.expect("?>", context="XML declaration")

    def _parse_eq_literal(self, scanner: Scanner) -> str:
        scanner.skip_whitespace()
        scanner.expect("=")
        scanner.skip_whitespace()
        return scanner.read_quoted()

    def _parse_doctype(self, scanner: Scanner) -> DocumentType:
        scanner.expect("<!DOCTYPE")
        scanner.require_whitespace("after '<!DOCTYPE'")
        name = scanner.read_name("document type name")
        public_id = system_id = None
        scanner.skip_whitespace()
        if scanner.match("SYSTEM"):
            scanner.require_whitespace("after SYSTEM")
            system_id = scanner.read_quoted("system identifier")
        elif scanner.match("PUBLIC"):
            scanner.require_whitespace("after PUBLIC")
            public_id = scanner.read_quoted("public identifier")
            if not chars.is_pubid_literal(public_id):
                scanner.error("illegal character in public identifier")
            scanner.require_whitespace("after public identifier")
            system_id = scanner.read_quoted("system identifier")
        scanner.skip_whitespace()
        internal_subset = None
        if scanner.match("["):
            internal_subset = self._read_internal_subset(scanner)
        scanner.skip_whitespace()
        scanner.expect(">", context="DOCTYPE declaration")

        doctype = DocumentType(name, public_id, system_id, internal_subset)
        # Imported lazily: repro.dtd depends on xmlkit but not on
        # this module, so the import is cycle-free at call time.
        from repro.dtd.parser import DTDParser

        subset_text = internal_subset
        if (subset_text is None and system_id is not None
                and self.dtd_loader is not None):
            subset_text = self.dtd_loader(system_id)
        if subset_text is not None:
            doctype.dtd = DTDParser().parse(subset_text)
            self._entities = doctype.dtd.entities
        return doctype

    def _read_internal_subset(self, scanner: Scanner) -> str:
        """Capture the raw internal subset, honouring nested literals."""
        start = scanner.pos
        while True:
            stop = scanner.skip_to(_SUBSET_STOP)
            if stop == "]":
                body = scanner.text[start:scanner.pos]
                scanner.pos += 1
                return body
            if stop == "<!--":
                self._parse_comment(scanner)
            elif stop:
                scanner.read_quoted("literal in internal subset")
            else:
                scanner.error("unterminated internal DTD subset")

    # -- elements ----------------------------------------------------------------

    def _parse_element(self, scanner: Scanner, depth: int) -> Element:
        if depth >= MAX_ELEMENT_DEPTH:
            scanner.error(
                f"elements nest deeper than {MAX_ELEMENT_DEPTH} levels")
        tag = _START_TAG.match(scanner.text, scanner.pos)
        if tag is None:
            element, empty = self._parse_start_tag(scanner)
        else:
            element = Element(tag.group(1))
            if tag.group(2):
                for attribute in _ATTRIBUTE.finditer(
                        scanner.text, tag.start(2), tag.end(2)):
                    # errors about this attribute are reported where
                    # the piece-by-piece read would stand: after it
                    scanner.pos = attribute.end()
                    raw = attribute.group(2)
                    self._add_attribute(
                        scanner, element, attribute.group(1),
                        attribute.group(3) if raw is None else raw)
            scanner.pos = tag.end()
            empty = tag.group(3)
        if not empty:
            self._parse_content_into(scanner, element, end_tag=element.tag,
                                     depth=depth)
        return element

    def _parse_start_tag(self, scanner: Scanner) -> tuple[Element, bool]:
        """Read a start tag piece by piece; returns (element, empty)."""
        scanner.expect("<")
        element = Element(scanner.read_name("element name"))
        while True:
            had_space = scanner.skip_whitespace()
            ch = scanner.peek()
            if ch in (">", "/") or scanner.at_end:
                break
            if not had_space:
                scanner.error(
                    f"whitespace required before attribute in <{element.tag}>")
            name = scanner.read_name("attribute name")
            scanner.skip_whitespace()
            scanner.expect("=", context=f"attribute {name!r}")
            scanner.skip_whitespace()
            raw = scanner.read_quoted(f"value of attribute {name!r}")
            self._add_attribute(scanner, element, name, raw)
        if scanner.match("/>"):
            return element, True
        scanner.expect(">", context=f"start tag <{element.tag}>")
        return element, False

    def _add_attribute(self, scanner: Scanner, element: Element,
                       name: str, raw: str) -> None:
        if "<" in raw:
            scanner.error(f"'<' in value of attribute {name!r}")
        if name in element.attributes:
            scanner.error(
                f"duplicate attribute {name!r} in <{element.tag}>")
        element.set(name, self._normalize_attribute(raw, scanner))

    def _normalize_attribute(self, raw: str, scanner: Scanner) -> str:
        """Apply XML 1.0 attribute-value normalization (CDATA rules)."""
        if "&" not in raw:
            return raw.translate(_ATTR_WHITESPACE)
        out: list[str] = []
        i = 0
        while True:
            amp = raw.find("&", i)
            if amp == -1:
                out.append(raw[i:].translate(_ATTR_WHITESPACE))
                return "".join(out)
            out.append(raw[i:amp].translate(_ATTR_WHITESPACE))
            end = raw.find(";", amp + 1)
            if end == -1:
                scanner.error("unterminated reference in attribute value")
            body = raw[amp + 1:end]
            try:
                if body.startswith("#"):
                    out.append(expand_char_reference(body))
                else:
                    out.append(self._entities.expand_general(
                        body, self._entity_memo))
            except EntityError as exc:
                scanner.error(str(exc))
            i = end + 1

    # -- content -------------------------------------------------------------------

    def _parse_content_into(self, scanner: Scanner, parent: Element,
                            end_tag: str | None, depth: int) -> None:
        text = scanner.text
        length = len(text)
        text_buffer: list[str] = []

        def flush_text() -> None:
            if not text_buffer:
                return
            data = "".join(text_buffer)
            text_buffer.clear()
            if data.strip(" \t\r\n") or self.keep_ignorable_whitespace:
                parent.append(Text(data))

        while True:
            run = _CHAR_DATA.match(text, scanner.pos)
            if run is not None:
                text_buffer.append(run.group())
                scanner.pos = run.end()
            pos = scanner.pos
            if pos >= length:
                if end_tag is None:
                    flush_text()
                    return
                scanner.error(f"unexpected end of input inside <{end_tag}>")
            ch = text[pos]
            if ch == "<":
                flush_text()
                after = text[pos + 1:pos + 2]
                if after == "/":
                    if end_tag is None:
                        scanner.error("unexpected end tag in fragment")
                    closing = _END_TAG.match(text, pos)
                    if closing is not None and closing.group(1) == end_tag:
                        scanner.pos = closing.end()
                        return
                    self._parse_end_tag(scanner, end_tag)
                    return
                if after == "!":
                    if text.startswith("<!--", pos):
                        parent.append(self._parse_comment(scanner))
                    elif text.startswith("<![CDATA[", pos):
                        parent.append(self._parse_cdata(scanner))
                    else:
                        scanner.error("declaration not allowed in content")
                elif after == "?":
                    parent.append(self._parse_pi(scanner))
                else:
                    parent.append(self._parse_element(scanner, depth + 1))
            elif ch == "&":
                self._parse_reference(scanner, parent, text_buffer, depth)
            else:  # "]"
                if text.startswith("]]>", pos):
                    scanner.error("']]>' not allowed in character data")
                text_buffer.append(ch)
                scanner.pos = pos + 1

    @staticmethod
    def _parse_end_tag(scanner: Scanner, end_tag: str) -> None:
        """Read an end tag piece by piece (non-ASCII name or an error)."""
        scanner.advance(2)
        closing = scanner.read_name("end tag name")
        if closing != end_tag:
            scanner.error(f"end tag </{closing}> does not match <{end_tag}>")
        scanner.skip_whitespace()
        scanner.expect(">", context=f"end tag </{closing}>")

    def _parse_reference(self, scanner: Scanner, parent: Element,
                         text_buffer: list[str], depth: int) -> None:
        scanner.expect("&")
        if scanner.match("#"):
            body = "#" + scanner.read_until(";", "character reference")
            try:
                text_buffer.append(expand_char_reference(body))
            except EntityError as exc:
                scanner.error(str(exc))
            return
        name = scanner.read_name("entity name")
        scanner.expect(";", context=f"entity reference &{name}")
        if name in PREDEFINED_ENTITIES:
            text_buffer.append(PREDEFINED_ENTITIES[name])
            return
        try:
            expansion = self._entities.expand_general(
                name, self._entity_memo)
        except EntityError as exc:
            if self.expand_entities:
                scanner.error(str(exc))
            if text_buffer:
                parent.append(Text("".join(text_buffer)))
                text_buffer.clear()
            parent.append(EntityReference(name, None))
            return
        if not self.expand_entities:
            # Keep the reference node but flush pending text first so
            # document order is preserved.
            if text_buffer:
                parent.append(Text("".join(text_buffer)))
                text_buffer.clear()
            parent.append(EntityReference(name, expansion))
            return
        if "<" in expansion:
            if text_buffer:
                parent.append(Text("".join(text_buffer)))
                text_buffer.clear()
            for node in self.parse_fragment(expansion, self._entities,
                                            depth):
                parent.append(node)
        else:
            text_buffer.append(expansion)

    # -- misc constructs -------------------------------------------------------------

    def _parse_comment(self, scanner: Scanner) -> Comment:
        scanner.expect("<!--")
        body = scanner.read_until("-->", "comment")
        if "--" in body:
            scanner.error("'--' not allowed inside comment")
        return Comment(body)

    def _parse_cdata(self, scanner: Scanner) -> CDATASection:
        scanner.expect("<![CDATA[")
        return CDATASection(scanner.read_until("]]>", "CDATA section"))

    def _parse_pi(self, scanner: Scanner) -> ProcessingInstruction:
        scanner.expect("<?")
        target = scanner.read_name("processing instruction target")
        if target.lower() == "xml":
            scanner.error("'xml' is a reserved processing instruction target")
        if scanner.match("?>"):
            return ProcessingInstruction(target, "")
        scanner.require_whitespace("after processing instruction target")
        return ProcessingInstruction(
            target, scanner.read_until("?>", "processing instruction"))

    def _parse_misc(self, scanner: Scanner, document: Document) -> None:
        while True:
            scanner.skip_whitespace()
            if scanner.lookahead("<!--"):
                document.append(self._parse_comment(scanner))
            elif scanner.lookahead("<?"):
                document.append(self._parse_pi(scanner))
            else:
                return

    # -- helpers ------------------------------------------------------------------------

    @staticmethod
    def _check_characters(text: str) -> None:
        illegal = chars.ILLEGAL_CHAR.search(text)
        if illegal is not None:
            scanner = Scanner(text)
            scanner.pos = illegal.start()
            scanner.error(f"illegal character U+{ord(illegal.group()):04X}")


def parse(text: str, expand_entities: bool = True,
          keep_ignorable_whitespace: bool = True,
          tracer=None) -> Document:
    """Parse *text* into a :class:`~repro.xmlkit.dom.Document`."""
    parser = XMLParser(expand_entities=expand_entities,
                       keep_ignorable_whitespace=keep_ignorable_whitespace,
                       tracer=tracer)
    return parser.parse(text)
