"""Tokenizer for the engine's SQL dialect.

Handles the lexical ground rules of Oracle SQL scripts as the paper's
generator emits them: single-quoted strings with ``''`` escapes,
double-quoted identifiers, ``--`` and ``/* */`` comments, numbers
(ASCII digits only), and the operator set used by the mapping pipeline.

:func:`tokenize` is one loop over the matches of a single compiled
pattern.  Each token records its offset; its line and column are
derived from that offset only when something asks for them, which in
practice is an error message.
"""

from __future__ import annotations

import enum
import re
from decimal import Decimal

from ..errors import ParseError


class TokenKind(enum.Enum):
    IDENT = "identifier"
    QUOTED_IDENT = "quoted identifier"
    STRING = "string"
    NUMBER = "number"
    OPERATOR = "operator"
    END = "end of input"


class Token:
    """One token of *source*, starting at *offset*.

    ``keyword`` is the upper-cased text of an identifier (quoted or
    not), computed once, and the plain text for every other kind.
    """

    __slots__ = ("kind", "text", "value", "offset", "source", "keyword")

    def __init__(self, kind: TokenKind, text: str, value: object,
                 offset: int, source: str):
        self.kind = kind
        self.text = text
        self.value = value
        self.offset = offset
        self.source = source
        self.keyword = (text.upper() if kind is TokenKind.IDENT
                        or kind is TokenKind.QUOTED_IDENT else text)

    @property
    def line(self) -> int:
        return _line(self.source, self.offset)

    @property
    def column(self) -> int:
        return _column(self.source, self.offset)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Token({self.kind.name}, {self.text!r})"


def _line(text: str, offset: int) -> int:
    return text.count("\n", 0, offset) + 1


def _column(text: str, offset: int) -> int:
    return offset - text.rfind("\n", 0, offset)


#: Whitespace and comments, then one token -- or the opening of an
#: unterminated one, or any other character as an error.  Strings end
#: at a quote not followed by another (``''`` is an escaped quote).
_TOKEN = re.compile(r"""
    (?:[ \t\r\n]+ | --[^\n]* | /\*.*?\*/)*
    (?:
        (?P<ident>[A-Za-z_][A-Za-z0-9_$\#]*)
      | (?P<number>[0-9]+(?:\.[0-9]+)?|\.[0-9]+)
      | (?P<open_comment>/\*)
      | (?P<operator><=|>=|<>|!=|\|\||:=|[(),;.=<>+*/%-])
      | (?P<string>'[^']*(?:''[^']*)*'(?!'))
      | (?P<quoted>"[^"]*")
      | (?P<end>\Z)
      | (?P<open_string>')
      | (?P<open_quoted>")
      | (?P<bad>.)
    )""", re.VERBOSE | re.DOTALL)


def tokenize(text: str) -> list[Token]:
    """Turn *text* into a token list ending with an END token."""
    tokens: list[Token] = []
    for match in _TOKEN.finditer(text):
        kind = match.lastgroup
        token = match.group(kind)
        start = match.start(kind)
        if kind == "ident":
            tokens.append(Token(TokenKind.IDENT, token, token, start, text))
        elif kind == "operator":
            tokens.append(
                Token(TokenKind.OPERATOR, token, token, start, text))
        elif kind == "number":
            number = Decimal(token) if "." in token else int(token)
            tokens.append(
                Token(TokenKind.NUMBER, token, number, start, text))
        elif kind == "string":
            value = token[1:-1].replace("''", "'")
            tokens.append(
                Token(TokenKind.STRING, f"'{value}'", value, start, text))
        elif kind == "quoted":
            name = token[1:-1]
            tokens.append(
                Token(TokenKind.QUOTED_IDENT, name, name, start, text))
        elif kind == "end":
            break
        elif kind == "open_comment":
            raise ParseError(
                f"unterminated comment at line {_line(text, start)}")
        elif kind == "open_string":
            raise ParseError(
                f"unterminated string literal at line {_line(text, start)}")
        elif kind == "open_quoted":
            raise ParseError(
                f"unterminated quoted identifier at line"
                f" {_line(text, start)}")
        else:
            raise ParseError(
                f"unexpected character {token!r} at line"
                f" {_line(text, start)}, column {_column(text, start)}")
    tokens.append(Token(TokenKind.END, "", None, len(text), text))
    return tokens


def split_statements(script: str) -> list[str]:
    """Split a SQL script into statements on top-level semicolons.

    Respects string literals, quoted identifiers and comments, so the
    generated scripts of Section 4 can be executed unmodified.  A line
    holding only ``/`` (the SQL*Plus run marker Oracle scripts use) is
    treated as a separator too.
    """
    statements: list[str] = []
    current: list[str] = []
    pos = 0
    length = len(script)
    while pos < length:
        ch = script[pos]
        if ch == "'":
            end = pos + 1
            while end < length:
                if script[end] == "'":
                    if end + 1 < length and script[end + 1] == "'":
                        end += 2
                        continue
                    break
                end += 1
            current.append(script[pos:end + 1])
            pos = end + 1
            continue
        if ch == '"':
            end = script.find('"', pos + 1)
            end = length - 1 if end == -1 else end
            current.append(script[pos:end + 1])
            pos = end + 1
            continue
        if script.startswith("--", pos):
            end = script.find("\n", pos)
            end = length if end == -1 else end
            current.append(script[pos:end])
            pos = end
            continue
        if script.startswith("/*", pos):
            end = script.find("*/", pos + 2)
            end = length - 2 if end == -1 else end
            current.append(script[pos:end + 2])
            pos = end + 2
            continue
        if ch == ";":
            statement = "".join(current).strip()
            if statement:
                statements.append(statement)
            current = []
            pos += 1
            continue
        if ch == "/" and _alone_on_line(script, pos):
            statement = "".join(current).strip()
            if statement:
                statements.append(statement)
            current = []
            pos += 1
            continue
        current.append(ch)
        pos += 1
    tail = "".join(current).strip()
    if tail:
        statements.append(tail)
    return statements


def _alone_on_line(script: str, pos: int) -> bool:
    start = script.rfind("\n", 0, pos) + 1
    end = script.find("\n", pos)
    end = len(script) if end == -1 else end
    return script[start:end].strip() == "/"
