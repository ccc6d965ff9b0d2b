"""Reference copy of the XML 1.0 character classification (frozen).

Only the subsets that matter for parsing real-world documents are
implemented exactly; the exotic Unicode ranges of the spec's productions
are approximated with Python's ``str`` predicates where the approximation
is strictly wider than needed for the corpora used in this project.
"""

from __future__ import annotations

#: Characters legal anywhere in an XML 1.0 document (production [2] Char).
_EXTRA_LEGAL = {"\t", "\n", "\r"}

#: ASCII letters, used by several name rules.
_ASCII_LETTERS = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
)

#: Characters that may start an XML Name (production [4] NameStartChar).
_NAME_START_EXTRA = frozenset(":_")

#: Additional characters allowed after the first position ([4a] NameChar).
_NAME_EXTRA = frozenset(":_-.·")

#: XML whitespace (production [3] S).
WHITESPACE = frozenset(" \t\r\n")

#: Characters allowed in a PUBLIC identifier literal ([13] PubidChar).
PUBID_CHARS = frozenset(
    " \r\n"
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
    "-'()+,./:=?;!*#@$_%"
)


def is_xml_char(ch: str) -> bool:
    """Return True if *ch* is a legal XML 1.0 document character."""
    code = ord(ch)
    if code >= 0x20:
        return code <= 0xD7FF or 0xE000 <= code <= 0xFFFD or code >= 0x10000
    return ch in _EXTRA_LEGAL


def is_whitespace(ch: str) -> bool:
    """Return True if *ch* is XML whitespace (space, tab, CR, LF)."""
    return ch in WHITESPACE


def is_name_start_char(ch: str) -> bool:
    """Return True if *ch* may begin an XML Name."""
    if ch in _ASCII_LETTERS or ch in _NAME_START_EXTRA:
        return True
    code = ord(ch)
    if code < 0x80:
        return False
    # Wider-than-spec approximation for non-ASCII ranges: accept any
    # character Python considers alphabetic, plus the spec's explicit
    # ideographic/extender ranges.
    return ch.isalpha() or 0x2070 <= code <= 0x218F or 0x3001 <= code <= 0xD7FF


def is_name_char(ch: str) -> bool:
    """Return True if *ch* may appear in an XML Name after position 0."""
    if is_name_start_char(ch) or ch in _NAME_EXTRA:
        return True
    return ch.isdigit() or 0x0300 <= ord(ch) <= 0x036F


def is_name(text: str) -> bool:
    """Return True if *text* is a valid XML Name."""
    if not text:
        return False
    if not is_name_start_char(text[0]):
        return False
    return all(is_name_char(ch) for ch in text[1:])


def is_nmtoken(text: str) -> bool:
    """Return True if *text* is a valid XML Nmtoken (NameChar+)."""
    return bool(text) and all(is_name_char(ch) for ch in text)


def is_pubid_literal(text: str) -> bool:
    """Return True if *text* may appear inside a PUBLIC id literal."""
    return all(ch in PUBID_CHARS for ch in text)
