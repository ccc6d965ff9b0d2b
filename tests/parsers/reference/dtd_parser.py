"""Reference copy of the DTD parser over the frozen ``Scanner``.

This reproduces the role of the Wutka DTD parser in Fig. 1 of the
paper: it reads a document type definition (an internal subset or an
external subset file) and produces the :class:`repro.dtd.model.DTD`
structure from which XML2Oracle derives the database schema.

Supported constructs: ELEMENT, ATTLIST, ENTITY (general and parameter,
internal and external, NDATA), NOTATION, comments, processing
instructions, parameter-entity references and INCLUDE/IGNORE
conditional sections.  External identifiers are recorded but never
fetched (the environment is offline); external parameter entities are
ignored with their declarations preserved.
"""

from __future__ import annotations

import re

from repro.xmlkit.entities import (
    EntityDefinition,
    EntityTable,
    expand_char_reference,
)
from repro.xmlkit.errors import EntityError, XMLSyntaxError
from repro.dtd.content import (
    ChoiceParticle,
    ContentSpec,
    NameParticle,
    Occurrence,
    Particle,
    SequenceParticle,
)
from repro.dtd.model import (
    AttributeDecl,
    AttributeType,
    DTD,
    DefaultKind,
    ElementDecl,
    NotationDecl,
)

from .xml_lexer import Scanner

_PE_REFERENCE = re.compile(r"%([A-Za-z_:][-\w.:]*);")
_OCCURRENCE_CHARS = {"?": Occurrence.OPTIONAL,
                     "*": Occurrence.ZERO_OR_MORE,
                     "+": Occurrence.ONE_OR_MORE}
_MAX_PE_DEPTH = 32


class DTDParser:
    """Recursive-descent parser for DTD declaration text."""

    def parse(self, text: str) -> DTD:
        """Parse *text* (an internal or external subset) into a DTD."""
        dtd = DTD()
        self._parse_into(text, dtd, depth=0)
        return dtd

    # -- top level -------------------------------------------------------------

    def _parse_into(self, text: str, dtd: DTD, depth: int) -> None:
        if depth > _MAX_PE_DEPTH:
            raise XMLSyntaxError("parameter entities nest too deeply")
        scanner = Scanner(text)
        while True:
            scanner.skip_whitespace()
            if scanner.at_end:
                return
            if scanner.lookahead("<!--"):
                scanner.expect("<!--")
                body = scanner.read_until("-->", "comment")
                if "--" in body:
                    scanner.error("'--' not allowed inside comment")
            elif scanner.lookahead("<?"):
                scanner.expect("<?")
                scanner.read_until("?>", "processing instruction")
            elif scanner.lookahead("<!["):
                self._parse_conditional(scanner, dtd, depth)
            elif scanner.peek() == "%":
                scanner.advance()
                name = scanner.read_name("parameter entity name")
                scanner.expect(";", context=f"parameter entity %{name}")
                definition = dtd.entities.lookup_parameter(name)
                if definition is None:
                    scanner.error(f"undefined parameter entity '%{name};'")
                if definition.is_internal:
                    self._parse_into(definition.replacement, dtd, depth + 1)
                # external parameter entities cannot be fetched offline;
                # they are skipped, matching a non-validating processor.
            elif scanner.lookahead("<!"):
                raw, line = self._read_raw_declaration(scanner)
                expanded = self._expand_parameter_entities(raw, dtd.entities)
                self._parse_declaration(expanded, dtd, line)
            else:
                scanner.error("expected markup declaration")

    def _parse_conditional(self, scanner: Scanner, dtd: DTD,
                           depth: int) -> None:
        scanner.expect("<![")
        scanner.skip_whitespace()
        keyword = self._expand_parameter_entities(
            self._read_conditional_keyword(scanner), dtd.entities).strip()
        scanner.skip_whitespace()
        scanner.expect("[", context="conditional section")
        body = self._read_conditional_body(scanner)
        if keyword == "INCLUDE":
            self._parse_into(body, dtd, depth + 1)
        elif keyword != "IGNORE":
            scanner.error(
                f"conditional section keyword must be INCLUDE or IGNORE,"
                f" got {keyword!r}")

    @staticmethod
    def _read_conditional_keyword(scanner: Scanner) -> str:
        if scanner.peek() == "%":
            scanner.advance()
            name = scanner.read_name("parameter entity name")
            scanner.expect(";")
            return f"%{name};"
        return scanner.read_name("conditional section keyword")

    @staticmethod
    def _read_conditional_body(scanner: Scanner) -> str:
        """Consume up to the matching ``]]>``, honouring nesting."""
        start = scanner.pos
        nesting = 1
        while not scanner.at_end:
            if scanner.lookahead("<!["):
                nesting += 1
                scanner.advance(3)
            elif scanner.lookahead("]]>"):
                nesting -= 1
                if nesting == 0:
                    body = scanner.text[start:scanner.pos]
                    scanner.advance(3)
                    return body
                scanner.advance(3)
            else:
                scanner.advance()
        scanner.error("unterminated conditional section")
        raise AssertionError("unreachable")

    @staticmethod
    def _read_raw_declaration(scanner: Scanner) -> tuple[str, int]:
        """Read one ``<!...>`` declaration verbatim, respecting literals."""
        line = scanner.line
        start = scanner.pos
        scanner.expect("<!")
        while not scanner.at_end:
            ch = scanner.peek()
            if ch == ">":
                scanner.advance()
                return scanner.text[start:scanner.pos], line
            if ch in ("'", '"'):
                scanner.read_quoted("literal in declaration")
            else:
                scanner.advance()
        scanner.error("unterminated markup declaration")
        raise AssertionError("unreachable")

    def _expand_parameter_entities(self, text: str,
                                   entities: EntityTable,
                                   depth: int = 0) -> str:
        """Substitute ``%name;`` references with their replacement text."""
        if depth > _MAX_PE_DEPTH:
            raise XMLSyntaxError("parameter entities nest too deeply")

        def replace(match: re.Match[str]) -> str:
            definition = entities.lookup_parameter(match.group(1))
            if definition is None:
                raise XMLSyntaxError(
                    f"undefined parameter entity '%{match.group(1)};'")
            if not definition.is_internal:
                return ""
            # Per XML 1.0 the replacement is padded with one space on
            # each side when recognized inside a declaration.
            inner = self._expand_parameter_entities(
                definition.replacement, entities, depth + 1)
            return f" {inner} "

        return _PE_REFERENCE.sub(replace, text)

    # -- declarations -------------------------------------------------------------

    def _parse_declaration(self, text: str, dtd: DTD, line: int) -> None:
        scanner = Scanner(text, start_line=line)
        scanner.expect("<!")
        keyword = scanner.read_name("declaration keyword")
        if keyword == "ELEMENT":
            self._parse_element_decl(scanner, dtd)
        elif keyword == "ATTLIST":
            self._parse_attlist_decl(scanner, dtd)
        elif keyword == "ENTITY":
            self._parse_entity_decl(scanner, dtd)
        elif keyword == "NOTATION":
            self._parse_notation_decl(scanner, dtd)
        else:
            scanner.error(f"unknown declaration <!{keyword}>")

    # ELEMENT ------------------------------------------------------------------

    def _parse_element_decl(self, scanner: Scanner, dtd: DTD) -> None:
        scanner.require_whitespace("after <!ELEMENT")
        name = scanner.read_name("element name")
        scanner.require_whitespace("after element name")
        content = self._parse_content_spec(scanner)
        scanner.skip_whitespace()
        scanner.expect(">", context=f"<!ELEMENT {name}>")
        try:
            dtd.declare_element(ElementDecl(name, content))
        except ValueError as exc:
            scanner.error(str(exc))

    def _parse_content_spec(self, scanner: Scanner) -> ContentSpec:
        if scanner.match("EMPTY"):
            return ContentSpec.empty()
        if scanner.match("ANY"):
            return ContentSpec.any()
        if not scanner.lookahead("("):
            scanner.error("expected content specification")
        # Look ahead for #PCDATA to distinguish mixed from element content.
        probe = scanner.pos + 1
        while probe < len(scanner.text) and scanner.text[probe] in " \t\r\n":
            probe += 1
        if scanner.text.startswith("#PCDATA", probe):
            return self._parse_mixed(scanner)
        particle = self._parse_group(scanner)
        return ContentSpec.children(particle)

    def _parse_mixed(self, scanner: Scanner) -> ContentSpec:
        scanner.expect("(")
        scanner.skip_whitespace()
        scanner.expect("#PCDATA", context="mixed content")
        names: list[str] = []
        while True:
            scanner.skip_whitespace()
            if scanner.match(")"):
                break
            scanner.expect("|", context="mixed content")
            scanner.skip_whitespace()
            names.append(scanner.read_name("element name in mixed content"))
        if names:
            if not scanner.match("*"):
                scanner.error("mixed content with elements requires '*'")
            return ContentSpec.mixed(tuple(names))
        scanner.match("*")  # (#PCDATA)* is legal and equivalent
        return ContentSpec.pcdata()

    def _parse_group(self, scanner: Scanner) -> Particle:
        scanner.expect("(")
        items: list[Particle] = [self._parse_cp(scanner)]
        separator: str | None = None
        while True:
            scanner.skip_whitespace()
            if scanner.match(")"):
                break
            if scanner.peek() in (",", "|"):
                ch = scanner.advance()
                if separator is None:
                    separator = ch
                elif ch != separator:
                    scanner.error("',' and '|' mixed in one group")
                scanner.skip_whitespace()
                items.append(self._parse_cp(scanner))
            else:
                scanner.error("expected ',', '|' or ')' in content model")
        occurrence = self._parse_occurrence(scanner)
        if separator == "|":
            return ChoiceParticle(items, occurrence)
        if len(items) == 1 and occurrence is Occurrence.ONE:
            # A redundant single-item group: keep the tree minimal.
            return items[0]
        return SequenceParticle(items, occurrence)

    def _parse_cp(self, scanner: Scanner) -> Particle:
        scanner.skip_whitespace()
        if scanner.lookahead("("):
            return self._parse_group(scanner)
        name = scanner.read_name("element name in content model")
        return NameParticle(name, self._parse_occurrence(scanner))

    @staticmethod
    def _parse_occurrence(scanner: Scanner) -> Occurrence:
        ch = scanner.peek()
        if ch in _OCCURRENCE_CHARS:
            scanner.advance()
            return _OCCURRENCE_CHARS[ch]
        return Occurrence.ONE

    # ATTLIST ------------------------------------------------------------------

    def _parse_attlist_decl(self, scanner: Scanner, dtd: DTD) -> None:
        scanner.require_whitespace("after <!ATTLIST")
        element_name = scanner.read_name("element name")
        while True:
            had_space = scanner.skip_whitespace()
            if scanner.match(">"):
                return
            if not had_space:
                scanner.error("whitespace required before attribute"
                              " definition")
            dtd.declare_attribute(
                element_name, self._parse_attribute_def(scanner))

    def _parse_attribute_def(self, scanner: Scanner) -> AttributeDecl:
        name = scanner.read_name("attribute name")
        scanner.require_whitespace(f"after attribute name {name!r}")
        attribute_type, enumeration = self._parse_attribute_type(scanner)
        scanner.require_whitespace("before default declaration")
        default_kind, default_value = self._parse_default(scanner)
        return AttributeDecl(name, attribute_type, default_kind,
                             default_value, enumeration)

    def _parse_attribute_type(
            self, scanner: Scanner) -> tuple[AttributeType, tuple[str, ...]]:
        if scanner.lookahead("("):
            return AttributeType.ENUMERATION, self._parse_enumeration(scanner)
        keyword = scanner.read_name("attribute type")
        if keyword == "NOTATION":
            scanner.require_whitespace("after NOTATION")
            return AttributeType.NOTATION, self._parse_enumeration(scanner)
        try:
            return AttributeType(keyword), ()
        except ValueError:
            scanner.error(f"unknown attribute type {keyword!r}")
            raise AssertionError("unreachable")

    @staticmethod
    def _parse_enumeration(scanner: Scanner) -> tuple[str, ...]:
        scanner.expect("(")
        values: list[str] = []
        while True:
            scanner.skip_whitespace()
            values.append(scanner.read_nmtoken("enumeration value"))
            scanner.skip_whitespace()
            if scanner.match(")"):
                return tuple(values)
            scanner.expect("|", context="enumeration")

    def _parse_default(
            self, scanner: Scanner) -> tuple[DefaultKind, str | None]:
        if scanner.match("#REQUIRED"):
            return DefaultKind.REQUIRED, None
        if scanner.match("#IMPLIED"):
            return DefaultKind.IMPLIED, None
        if scanner.match("#FIXED"):
            scanner.require_whitespace("after #FIXED")
            return DefaultKind.FIXED, self._attribute_literal(scanner)
        return DefaultKind.DEFAULT, self._attribute_literal(scanner)

    @staticmethod
    def _attribute_literal(scanner: Scanner) -> str:
        raw = scanner.read_quoted("default value")
        # Character references are expanded in default values; general
        # entity references are kept (they expand at document use sites).
        out: list[str] = []
        i = 0
        while i < len(raw):
            if raw[i] == "&" and raw.startswith("&#", i):
                end = raw.find(";", i)
                if end == -1:
                    scanner.error("unterminated character reference")
                try:
                    out.append(expand_char_reference(raw[i + 1:end]))
                except EntityError as exc:
                    scanner.error(str(exc))
                i = end + 1
            else:
                out.append(raw[i])
                i += 1
        return "".join(out)

    # ENTITY -------------------------------------------------------------------

    def _parse_entity_decl(self, scanner: Scanner, dtd: DTD) -> None:
        scanner.require_whitespace("after <!ENTITY")
        is_parameter = False
        if scanner.match("%"):
            is_parameter = True
            scanner.require_whitespace("after '%'")
        name = scanner.read_name("entity name")
        scanner.require_whitespace("after entity name")
        replacement = public_id = system_id = notation = None
        if scanner.peek() in ("'", '"'):
            replacement = self._entity_value(scanner, dtd.entities)
        else:
            public_id, system_id = self._parse_external_id(scanner)
            scanner.skip_whitespace()
            if scanner.match("NDATA"):
                if is_parameter:
                    scanner.error("parameter entities cannot be NDATA")
                scanner.require_whitespace("after NDATA")
                notation = scanner.read_name("notation name")
        scanner.skip_whitespace()
        scanner.expect(">", context=f"<!ENTITY {name}>")
        dtd.entities.define(EntityDefinition(
            name, replacement, is_parameter=is_parameter,
            system_id=system_id, public_id=public_id, notation=notation))

    def _entity_value(self, scanner: Scanner,
                      entities: EntityTable) -> str:
        raw = scanner.read_quoted("entity value")
        # PE references and character references expand inside entity
        # values; general entity references are preserved literally.
        expanded = self._expand_parameter_entities(raw, entities)
        out: list[str] = []
        i = 0
        while i < len(expanded):
            if expanded.startswith("&#", i):
                end = expanded.find(";", i)
                if end == -1:
                    scanner.error("unterminated character reference")
                try:
                    out.append(expand_char_reference(expanded[i + 1:end]))
                except EntityError as exc:
                    scanner.error(str(exc))
                i = end + 1
            else:
                out.append(expanded[i])
                i += 1
        return "".join(out)

    def _parse_external_id(
            self, scanner: Scanner) -> tuple[str | None, str | None]:
        if scanner.match("SYSTEM"):
            scanner.require_whitespace("after SYSTEM")
            return None, scanner.read_quoted("system identifier")
        if scanner.match("PUBLIC"):
            scanner.require_whitespace("after PUBLIC")
            public_id = scanner.read_quoted("public identifier")
            scanner.require_whitespace("after public identifier")
            return public_id, scanner.read_quoted("system identifier")
        scanner.error("expected entity value or external identifier")
        raise AssertionError("unreachable")

    # NOTATION -----------------------------------------------------------------

    def _parse_notation_decl(self, scanner: Scanner, dtd: DTD) -> None:
        scanner.require_whitespace("after <!NOTATION")
        name = scanner.read_name("notation name")
        scanner.require_whitespace("after notation name")
        public_id = system_id = None
        if scanner.match("SYSTEM"):
            scanner.require_whitespace("after SYSTEM")
            system_id = scanner.read_quoted("system identifier")
        elif scanner.match("PUBLIC"):
            scanner.require_whitespace("after PUBLIC")
            public_id = scanner.read_quoted("public identifier")
            scanner.skip_whitespace()
            if scanner.peek() in ("'", '"'):
                system_id = scanner.read_quoted("system identifier")
        else:
            scanner.error("expected SYSTEM or PUBLIC in notation")
        scanner.skip_whitespace()
        scanner.expect(">", context=f"<!NOTATION {name}>")
        dtd.declare_notation(NotationDecl(name, public_id, system_id))


def parse_dtd(text: str) -> DTD:
    """Parse DTD declaration text with a throwaway :class:`DTDParser`."""
    return DTDParser().parse(text)
