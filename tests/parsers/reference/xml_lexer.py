"""Reference copy of the character-at-a-time ``Scanner`` (frozen).

The scanner owns position tracking (1-based line/column) and the
primitive operations every hand-written recursive-descent parser needs:
peeking, matching literals, reading XML names and quoted literals, and
raising positioned syntax errors.
"""

from __future__ import annotations

from repro.xmlkit.errors import XMLSyntaxError

from . import chars


class Scanner:
    """Cursor over a text buffer with line/column tracking."""

    def __init__(self, text: str, start_line: int = 1, start_column: int = 1):
        self.text = text
        self.pos = 0
        self.line = start_line
        self.column = start_column

    # -- inspection ----------------------------------------------------------

    @property
    def at_end(self) -> bool:
        return self.pos >= len(self.text)

    def peek(self, offset: int = 0) -> str:
        """Character at cursor + offset, or '' past the end."""
        index = self.pos + offset
        if index < len(self.text):
            return self.text[index]
        return ""

    def lookahead(self, literal: str) -> bool:
        """True if the buffer continues with *literal*."""
        return self.text.startswith(literal, self.pos)

    # -- movement ------------------------------------------------------------

    def advance(self, count: int = 1) -> str:
        """Consume *count* characters and return them."""
        end = min(self.pos + count, len(self.text))
        consumed = self.text[self.pos:end]
        for ch in consumed:
            if ch == "\n":
                self.line += 1
                self.column = 1
            else:
                self.column += 1
        self.pos = end
        return consumed

    def match(self, literal: str) -> bool:
        """Consume *literal* if present; return whether it was."""
        if self.lookahead(literal):
            self.advance(len(literal))
            return True
        return False

    def expect(self, literal: str, context: str | None = None) -> None:
        """Consume *literal* or raise a positioned syntax error."""
        if not self.match(literal):
            where = f" in {context}" if context else ""
            found = self.peek() or "<end of input>"
            self.error(f"expected {literal!r}{where}, found {found!r}")

    # -- composite reads ------------------------------------------------------

    def skip_whitespace(self) -> bool:
        """Skip XML whitespace; return True if any was consumed."""
        start = self.pos
        while not self.at_end and chars.is_whitespace(self.peek()):
            self.advance()
        return self.pos != start

    def require_whitespace(self, context: str) -> None:
        """Raise unless at least one whitespace character is consumed."""
        if not self.skip_whitespace():
            self.error(f"whitespace required {context}")

    def read_name(self, context: str = "name") -> str:
        """Read an XML Name or raise."""
        if self.at_end or not chars.is_name_start_char(self.peek()):
            self.error(f"expected {context}")
        start = self.pos
        self.advance()
        while not self.at_end and chars.is_name_char(self.peek()):
            self.advance()
        return self.text[start:self.pos]

    def read_nmtoken(self, context: str = "name token") -> str:
        """Read an XML Nmtoken or raise."""
        start = self.pos
        while not self.at_end and chars.is_name_char(self.peek()):
            self.advance()
        if self.pos == start:
            self.error(f"expected {context}")
        return self.text[start:self.pos]

    def read_quoted(self, context: str = "literal") -> str:
        """Read a single- or double-quoted literal; returns the raw body."""
        quote = self.peek()
        if quote not in ("'", '"'):
            self.error(f"expected quoted {context}")
        self.advance()
        start = self.pos
        end = self.text.find(quote, start)
        if end == -1:
            self.error(f"unterminated {context}")
        body = self.text[start:end]
        self.advance(len(body) + 1)
        return body

    def read_until(self, terminator: str, context: str) -> str:
        """Consume up to (and including) *terminator*; return the body."""
        end = self.text.find(terminator, self.pos)
        if end == -1:
            self.error(f"unterminated {context}")
        body = self.text[self.pos:end]
        self.advance(len(body) + len(terminator))
        return body

    # -- diagnostics -----------------------------------------------------------

    def error(self, message: str) -> None:
        """Raise an :class:`XMLSyntaxError` at the current position."""
        raise XMLSyntaxError(message, self.line, self.column)
