"""Reference copy of the character-at-a-time SQL tokenizer (frozen).

Handles the lexical ground rules of Oracle SQL scripts as the paper's
generator emits them: single-quoted strings with ``''`` escapes,
double-quoted identifiers, ``--`` and ``/* */`` comments, numbers, and
the operator set used by the mapping pipeline.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from decimal import Decimal

from repro.ordb.errors import ParseError


class TokenKind(enum.Enum):
    IDENT = "identifier"
    QUOTED_IDENT = "quoted identifier"
    STRING = "string"
    NUMBER = "number"
    OPERATOR = "operator"
    END = "end of input"


@dataclass(frozen=True)
class Token:
    kind: TokenKind
    text: str
    value: object
    line: int
    column: int

    def upper(self) -> str:
        return self.text.upper()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Token({self.kind.name}, {self.text!r})"


#: Multi-character operators, longest first.
_OPERATORS = ("<=", ">=", "<>", "!=", "||", ":=",
              "(", ")", ",", ";", ".", "=", "<", ">", "+", "-", "*", "/",
              "%")

_IDENT_START = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_IDENT_CONT = _IDENT_START | frozenset("0123456789$#")


def tokenize(text: str) -> list[Token]:
    """Turn *text* into a token list ending with an END token."""
    tokens: list[Token] = []
    pos = 0
    line = 1
    column = 1
    length = len(text)

    def advance(count: int) -> None:
        nonlocal pos, line, column
        for _ in range(count):
            if pos < length and text[pos] == "\n":
                line += 1
                column = 1
            else:
                column += 1
            pos += 1

    while pos < length:
        ch = text[pos]
        # whitespace
        if ch in " \t\r\n":
            advance(1)
            continue
        # line comment
        if text.startswith("--", pos):
            end = text.find("\n", pos)
            advance((end - pos) if end != -1 else (length - pos))
            continue
        # block comment
        if text.startswith("/*", pos):
            end = text.find("*/", pos + 2)
            if end == -1:
                raise ParseError(f"unterminated comment at line {line}")
            advance(end + 2 - pos)
            continue
        token_line, token_column = line, column
        # string literal
        if ch == "'":
            advance(1)
            parts: list[str] = []
            while True:
                if pos >= length:
                    raise ParseError(
                        f"unterminated string literal at line {token_line}")
                if text[pos] == "'":
                    if pos + 1 < length and text[pos + 1] == "'":
                        parts.append("'")
                        advance(2)
                        continue
                    advance(1)
                    break
                parts.append(text[pos])
                advance(1)
            value = "".join(parts)
            tokens.append(Token(TokenKind.STRING, f"'{value}'", value,
                                token_line, token_column))
            continue
        # quoted identifier
        if ch == '"':
            end = text.find('"', pos + 1)
            if end == -1:
                raise ParseError(
                    f"unterminated quoted identifier at line {line}")
            name = text[pos + 1:end]
            advance(end + 1 - pos)
            tokens.append(Token(TokenKind.QUOTED_IDENT, name, name,
                                token_line, token_column))
            continue
        # number
        if ch.isdigit() or (ch == "." and pos + 1 < length
                            and text[pos + 1].isdigit()):
            start = pos
            seen_dot = False
            while pos < length and (text[pos].isdigit()
                                    or (text[pos] == "." and not seen_dot)):
                if text[pos] == ".":
                    # a trailing dot followed by an identifier is a path
                    if (pos + 1 >= length
                            or not text[pos + 1].isdigit()):
                        break
                    seen_dot = True
                advance(1)
            literal = text[start:pos]
            number: object
            number = Decimal(literal) if "." in literal else int(literal)
            tokens.append(Token(TokenKind.NUMBER, literal, number,
                                token_line, token_column))
            continue
        # identifier / keyword
        if ch in _IDENT_START:
            start = pos
            while pos < length and text[pos] in _IDENT_CONT:
                advance(1)
            word = text[start:pos]
            tokens.append(Token(TokenKind.IDENT, word, word,
                                token_line, token_column))
            continue
        # operator
        for operator in _OPERATORS:
            if text.startswith(operator, pos):
                advance(len(operator))
                tokens.append(Token(TokenKind.OPERATOR, operator, operator,
                                    token_line, token_column))
                break
        else:
            raise ParseError(
                f"unexpected character {ch!r} at line {line},"
                f" column {column}")
    tokens.append(Token(TokenKind.END, "", None, line, column))
    return tokens

