r"""XML substrate: parser, DOM, entities and serializer.

This package replaces the Oracle XDK parser used by the paper's
XML2Oracle tool (Fig. 1).  The public surface is:

>>> from repro.xmlkit import parse, serialize
>>> doc = parse("<a><b>hi</b></a>")
>>> doc.root_element.find("b").text()
'hi'
>>> serialize(doc.root_element)
'<a><b>hi</b></a>'

Line ends are normalized before parsing (XML 1.0 §2.11): ``\r\n`` and a
lone ``\r`` read as ``\n``, in character data and attribute values.

>>> root = parse('<a b="x\r\ny">p\r\nq\rr</a>').root_element
>>> root.get("b"), root.text()
('x y', 'p\nq\nr')

The text is scanned in bulk: names, whitespace, character data and
well-formed tags are consumed one compiled-pattern match at a time, and
an error's line and column are derived from the scan offset only when
the error is raised.
"""

from .dom import (
    Attribute,
    CDATASection,
    Comment,
    Document,
    DocumentType,
    Element,
    EntityReference,
    Node,
    ProcessingInstruction,
    Text,
    build_element,
)
from .entities import EntityDefinition, EntityTable, PREDEFINED_ENTITIES
from .errors import (
    EntityError,
    SerializationError,
    XMLError,
    XMLSyntaxError,
    XMLValidityError,
)
from .parser import XMLParser, parse
from .serializer import Serializer, serialize

__all__ = [
    "Attribute",
    "CDATASection",
    "Comment",
    "Document",
    "DocumentType",
    "Element",
    "EntityDefinition",
    "EntityError",
    "EntityReference",
    "EntityTable",
    "Node",
    "PREDEFINED_ENTITIES",
    "ProcessingInstruction",
    "SerializationError",
    "Serializer",
    "Text",
    "XMLError",
    "XMLParser",
    "XMLSyntaxError",
    "XMLValidityError",
    "build_element",
    "parse",
    "serialize",
]
