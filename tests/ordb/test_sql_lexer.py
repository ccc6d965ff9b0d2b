"""SQL tokenizer and script splitting."""

import pytest
from decimal import Decimal

from repro.ordb import Database
from repro.ordb.errors import ParseError
from repro.ordb.sql.lexer import Token, TokenKind, split_statements, tokenize


def kinds(text):
    return [(t.kind, t.value) for t in tokenize(text)[:-1]]


class TestTokenize:
    def test_identifiers_and_keywords(self):
        tokens = kinds("SELECT attrName FROM TabCourse")
        assert tokens == [
            (TokenKind.IDENT, "SELECT"), (TokenKind.IDENT, "attrName"),
            (TokenKind.IDENT, "FROM"), (TokenKind.IDENT, "TabCourse")]

    def test_string_literal_with_escape(self):
        tokens = tokenize("'it''s'")
        assert tokens[0].kind is TokenKind.STRING
        assert tokens[0].value == "it's"

    def test_unterminated_string(self):
        with pytest.raises(ParseError, match="unterminated string"):
            tokenize("'oops")

    def test_numbers(self):
        tokens = kinds("42 3.14 .5")
        assert tokens[0] == (TokenKind.NUMBER, 42)
        assert tokens[1] == (TokenKind.NUMBER, Decimal("3.14"))
        assert tokens[2] == (TokenKind.NUMBER, Decimal("0.5"))

    def test_number_followed_by_dot_path_stays_integer(self):
        # "1.e" would be a malformed number; ensure 't1.col' style works
        tokens = kinds("x1.col")
        assert tokens == [(TokenKind.IDENT, "x1"),
                          (TokenKind.OPERATOR, "."),
                          (TokenKind.IDENT, "col")]

    def test_quoted_identifier(self):
        tokens = tokenize('"Mixed Case"')
        assert tokens[0].kind is TokenKind.QUOTED_IDENT
        assert tokens[0].value == "Mixed Case"

    def test_multichar_operators(self):
        tokens = kinds("a <= b <> c || d != e")
        operators = [v for k, v in tokens if k is TokenKind.OPERATOR]
        assert operators == ["<=", "<>", "||", "!="]

    def test_comments_are_skipped(self):
        tokens = kinds("SELECT -- inline comment\n 1 /* block */ + 2")
        values = [v for _k, v in tokens]
        assert values == ["SELECT", 1, "+", 2]

    def test_unterminated_block_comment(self):
        with pytest.raises(ParseError):
            tokenize("SELECT /* oops")

    def test_position_tracking(self):
        tokens = tokenize("a\n  b")
        assert (tokens[0].line, tokens[0].column) == (1, 1)
        assert (tokens[1].line, tokens[1].column) == (2, 3)

    def test_unexpected_character(self):
        with pytest.raises(ParseError, match="unexpected character"):
            tokenize("SELECT @")

    def test_end_token_terminates(self):
        tokens = tokenize("x")
        assert tokens[-1].kind is TokenKind.END


class TestAsciiDigits:
    """Numbers are ASCII ``[0-9]`` only; other Unicode digits are an
    unexpected character, never a number."""

    def test_superscript_digit_is_a_parse_error(self):
        with pytest.raises(ParseError,
                           match="unexpected character '²' at line 1,"
                                 " column 8"):
            Database().execute("SELECT ² FROM dual")

    def test_arabic_indic_digit_is_not_read_as_one(self):
        db = Database()
        db.execute("CREATE TABLE t (x NUMBER)")
        db.execute("INSERT INTO t VALUES (1)")
        with pytest.raises(ParseError,
                           match="unexpected character '١' at line 1,"
                                 " column 31"):
            db.execute("SELECT t.x FROM t WHERE t.x = ١")

    def test_non_ascii_digit_does_not_continue_a_number(self):
        with pytest.raises(ParseError, match="unexpected character '٢'"):
            tokenize("SELECT 1٢")


class TestSplitStatements:
    def test_simple_split(self):
        parts = split_statements("CREATE TABLE a(x INTEGER);"
                                 " INSERT INTO a VALUES(1);")
        assert len(parts) == 2

    def test_semicolon_inside_string_ignored(self):
        parts = split_statements("INSERT INTO t VALUES('a;b'); SELECT 1")
        assert len(parts) == 2
        assert "'a;b'" in parts[0]

    def test_trailing_statement_without_semicolon(self):
        parts = split_statements("SELECT 1")
        assert parts == ["SELECT 1"]

    def test_comments_preserved_within_statement(self):
        parts = split_statements("SELECT 1 -- c; not a split\n + 2;")
        assert len(parts) == 1

    def test_slash_line_separates(self):
        parts = split_statements("CREATE TYPE t\n/\nCREATE TYPE u\n/")
        assert parts == ["CREATE TYPE t", "CREATE TYPE u"]

    def test_empty_script(self):
        assert split_statements("  \n  ") == []

    def test_quoted_identifier_with_semicolon(self):
        parts = split_statements('SELECT "a;b" FROM t; SELECT 2')
        assert len(parts) == 2
