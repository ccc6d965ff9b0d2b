"""Recursive-descent parser for the engine's SQL dialect.

The dialect is the subset of Oracle 8i/9i SQL that the paper's
generated scripts and example queries use (Sections 2, 4, 6.3):
object/collection/REF DDL, object tables with constraints and SCOPE
FOR, nested-table storage clauses, object views, nested constructor
INSERTs, dot-notation SELECTs, CAST/MULTISET, TABLE() unnesting, and
ordinary scalar SQL around them.
"""

from __future__ import annotations

from ..errors import ParseError
from . import ast
from .lexer import Token, TokenKind, tokenize

#: Keywords that terminate an implicit alias position.
_CLAUSE_KEYWORDS = frozenset({
    "WHERE", "GROUP", "ORDER", "HAVING", "UNION", "MINUS", "INTERSECT",
    "FROM", "ON", "SET", "VALUES", "NESTED", "WITH", "AND", "OR", "NOT",
    "INNER", "JOIN", "LEFT", "RIGHT", "FETCH",
})

_SCALAR_KEYWORDS = frozenset({
    "VARCHAR", "VARCHAR2", "CHAR", "NUMBER", "INTEGER", "INT",
    "DATE", "CLOB", "FLOAT", "SMALLINT", "DECIMAL", "NUMERIC",
    "VECTOR",
})

#: CREATE INDEX ... USING methods (None = the default sorted index).
_INDEX_METHODS = frozenset({"FULLTEXT", "TRIGRAM"})

#: How deep a statement may nest.  Each SELECT (subqueries included),
#: each expression the parser enters (a condition, a select-list entry,
#: one in parentheses or an argument list), each NOT and each unary
#: sign is one level; deeper input is a ParseError (ORA-00900), not a
#: crash of this recursive-descent parser or of the recursive evaluator.
MAX_NESTING = 64


class SQLParser:
    """Parses one statement per :meth:`parse` call."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = tokenize(text)
        self.index = 0
        self.depth = 0

    # -- token primitives --------------------------------------------------------

    @property
    def current(self) -> Token:
        return self.tokens[self.index]

    def peek(self, offset: int = 0) -> Token:
        index = min(self.index + offset, len(self.tokens) - 1)
        return self.tokens[index]

    def advance(self) -> Token:
        token = self.current
        if token.kind is not TokenKind.END:
            self.index += 1
        return token

    def at_keyword(self, *keywords: str) -> bool:
        token = self.current
        return token.kind is TokenKind.IDENT and token.keyword in keywords

    def accept_keyword(self, *keywords: str) -> bool:
        if self.at_keyword(*keywords):
            self.advance()
            return True
        return False

    def expect_keyword(self, keyword: str) -> None:
        if not self.accept_keyword(keyword):
            self.error(f"expected {keyword}")

    def at_operator(self, *operators: str) -> bool:
        token = self.current
        return token.kind is TokenKind.OPERATOR and token.text in operators

    def accept_operator(self, *operators: str) -> bool:
        if self.at_operator(*operators):
            self.advance()
            return True
        return False

    def expect_operator(self, operator: str) -> None:
        if not self.accept_operator(operator):
            self.error(f"expected {operator!r}")

    def expect_identifier(self, what: str = "identifier") -> str:
        token = self.current
        if token.kind in (TokenKind.IDENT, TokenKind.QUOTED_IDENT):
            self.advance()
            return token.text
        self.error(f"expected {what}")
        raise AssertionError("unreachable")

    def descend(self) -> None:
        """Enter one nesting level (the caller leaves it again with
        ``self.depth -= 1``); past :data:`MAX_NESTING` it is an error."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            self.error(f"statement nests deeper than {MAX_NESTING} levels")

    def error(self, message: str) -> None:
        token = self.current
        found = token.text or "<end of statement>"
        raise ParseError(
            f"{message}, found {found!r} (line {token.line},"
            f" column {token.column})")

    # -- entry point --------------------------------------------------------------

    def parse(self) -> ast.Statement:
        statement = self._parse_statement()
        self.accept_operator(";")
        if self.current.kind is not TokenKind.END:
            self.error("unexpected trailing input")
        return statement

    def _parse_statement(self) -> ast.Statement:
        if self.at_keyword("CREATE"):
            return self._parse_create()
        if self.at_keyword("DROP"):
            return self._parse_drop()
        if self.at_keyword("INSERT"):
            return self._parse_insert()
        if self.at_keyword("UPDATE"):
            return self._parse_update()
        if self.at_keyword("DELETE"):
            return self._parse_delete()
        if self.at_keyword("SELECT"):
            return self._parse_select()
        if self.at_keyword("EXPLAIN"):
            return self._parse_explain()
        if self.at_keyword("BEGIN"):
            self.advance()
            self.accept_keyword("TRANSACTION", "WORK")
            return ast.BeginTransaction()
        if self.at_keyword("COMMIT"):
            self.advance()
            self.accept_keyword("WORK")
            return ast.CommitStmt()
        if self.at_keyword("ROLLBACK"):
            return self._parse_rollback()
        if self.at_keyword("SAVEPOINT"):
            self.advance()
            return ast.SavepointStmt(
                self.expect_identifier("savepoint name"))
        if self.at_keyword("SET"):
            return self._parse_set_transaction()
        if self.at_keyword("ANALYZE"):
            return self._parse_analyze()
        self.error("expected a SQL statement")
        raise AssertionError("unreachable")

    def _parse_analyze(self) -> ast.Analyze:
        self.expect_keyword("ANALYZE")
        self.expect_keyword("TABLE")
        table = self.expect_identifier("table name")
        if self.accept_keyword("COMPUTE"):
            self.expect_keyword("STATISTICS")
        return ast.Analyze(table)

    def _parse_set_transaction(self) -> ast.SetTransaction:
        self.expect_keyword("SET")
        self.expect_keyword("TRANSACTION")
        if self.accept_keyword("READ"):
            if self.accept_keyword("ONLY"):
                return ast.SetTransaction(read_only=True)
            if self.accept_keyword("WRITE"):
                return ast.SetTransaction(read_only=False)
            self.error("expected ONLY or WRITE after READ")
        if self.accept_keyword("ISOLATION"):
            self.expect_keyword("LEVEL")
            if self.accept_keyword("SERIALIZABLE"):
                return ast.SetTransaction(isolation="SERIALIZABLE")
            if self.accept_keyword("READ"):
                self.expect_keyword("COMMITTED")
                return ast.SetTransaction(isolation="READ COMMITTED")
            self.error("expected SERIALIZABLE or READ COMMITTED")
        self.error("expected READ ONLY, READ WRITE or ISOLATION"
                   " LEVEL after SET TRANSACTION")
        raise AssertionError("unreachable")

    def _parse_explain(self) -> ast.ExplainStmt:
        self.expect_keyword("EXPLAIN")
        self.accept_keyword("PLAN")
        self.accept_keyword("FOR")
        if not self.at_keyword("SELECT", "INSERT", "UPDATE", "DELETE"):
            self.error("EXPLAIN supports SELECT, INSERT, UPDATE"
                       " or DELETE")
        return ast.ExplainStmt(self._parse_statement())

    def _parse_rollback(self) -> ast.RollbackStmt:
        self.expect_keyword("ROLLBACK")
        self.accept_keyword("WORK")
        if self.accept_keyword("TO"):
            self.accept_keyword("SAVEPOINT")
            return ast.RollbackStmt(
                self.expect_identifier("savepoint name"))
        return ast.RollbackStmt()

    # -- CREATE -----------------------------------------------------------------------

    def _parse_create(self) -> ast.Statement:
        self.expect_keyword("CREATE")
        or_replace = False
        if self.accept_keyword("OR"):
            self.expect_keyword("REPLACE")
            or_replace = True
        if self.accept_keyword("TYPE"):
            return self._parse_create_type(or_replace)
        if self.accept_keyword("TABLE"):
            if or_replace:
                self.error("OR REPLACE is not valid for tables")
            return self._parse_create_table()
        if self.accept_keyword("VIEW"):
            return self._parse_create_view(or_replace)
        unique = self.accept_keyword("UNIQUE")
        if self.accept_keyword("INDEX"):
            if or_replace:
                self.error("OR REPLACE is not valid for indexes")
            return self._parse_create_index(unique)
        if unique:
            self.error("expected INDEX after CREATE UNIQUE")
        self.error("expected TYPE, TABLE, VIEW or INDEX after CREATE")
        raise AssertionError("unreachable")

    def _parse_create_index(self, unique: bool) -> ast.CreateIndex:
        name = self.expect_identifier("index name")
        self.expect_keyword("ON")
        table = self.expect_identifier("table name")
        self.expect_operator("(")
        columns = [tuple(self._parse_path().parts)]
        while self.accept_operator(","):
            columns.append(tuple(self._parse_path().parts))
        self.expect_operator(")")
        using: str | None = None
        if self.accept_keyword("USING"):
            method = self.expect_identifier("index method").upper()
            if method not in _INDEX_METHODS:
                self.error(
                    f"unknown index method {method!r}: expected one"
                    f" of {', '.join(sorted(_INDEX_METHODS))}")
            using = method
        return ast.CreateIndex(name, table, tuple(columns), unique,
                               using)

    def _parse_create_type(self, or_replace: bool) -> ast.Statement:
        name = self.expect_identifier("type name")
        if (self.current.kind is TokenKind.END
                or self.at_operator(";")):
            return ast.CreateTypeForward(name)
        if not (self.accept_keyword("AS") or self.accept_keyword("IS")):
            self.error("expected AS in CREATE TYPE")
        if self.accept_keyword("OBJECT"):
            self.expect_operator("(")
            attributes: list[tuple[str, ast.TypeRef]] = []
            while True:
                attr_name = self.expect_identifier("attribute name")
                attributes.append((attr_name, self._parse_type_ref()))
                if not self.accept_operator(","):
                    break
            self.expect_operator(")")
            return ast.CreateObjectType(name, tuple(attributes), or_replace)
        if self.accept_keyword("VARRAY"):
            self.expect_operator("(")
            limit_token = self.advance()
            if limit_token.kind is not TokenKind.NUMBER:
                self.error("expected VARRAY limit")
            self.expect_operator(")")
            self.expect_keyword("OF")
            return ast.CreateVarrayType(name, int(limit_token.value),
                                        self._parse_type_ref(), or_replace)
        if self.accept_keyword("TABLE"):
            self.expect_keyword("OF")
            return ast.CreateNestedTableType(name, self._parse_type_ref(),
                                             or_replace)
        self.error("expected OBJECT, VARRAY or TABLE in CREATE TYPE")
        raise AssertionError("unreachable")

    def _parse_type_ref(self) -> ast.TypeRef:
        if self.accept_keyword("REF"):
            return ast.RefTypeRef(self.expect_identifier("type name"))
        token = self.current
        if (token.kind is TokenKind.IDENT
                and token.keyword in _SCALAR_KEYWORDS):
            self.advance()
            keyword = token.keyword
            parameters: list[int] = []
            if self.accept_operator("("):
                while True:
                    number = self.advance()
                    if number.kind is not TokenKind.NUMBER:
                        self.error("expected numeric type parameter")
                    parameters.append(int(number.value))
                    if not self.accept_operator(","):
                        break
                self.expect_operator(")")
            return ast.ScalarTypeRef(keyword, tuple(parameters))
        return ast.NamedTypeRef(self.expect_identifier("type name"))

    def _parse_create_table(self) -> ast.CreateTable:
        name = self.expect_identifier("table name")
        of_type: str | None = None
        columns: list[ast.ColumnDef] = []
        constraints: list[ast.TableConstraint] = []
        object_specs: list[ast.ObjectColumnSpec] = []
        if self.accept_keyword("OF"):
            of_type = self.expect_identifier("object type name")
            if self.accept_operator("("):
                self._parse_object_table_body(constraints, object_specs)
        else:
            self.expect_operator("(")
            self._parse_relational_table_body(columns, constraints)
        nested: list[ast.NestedTableClause] = []
        while self.accept_keyword("NESTED"):
            self.expect_keyword("TABLE")
            column = self.expect_identifier("nested table column")
            self.expect_keyword("STORE")
            self.expect_keyword("AS")
            nested.append(ast.NestedTableClause(
                column, self.expect_identifier("storage table name")))
        return ast.CreateTable(
            name, tuple(columns), tuple(constraints), of_type,
            tuple(object_specs), tuple(nested))

    def _parse_relational_table_body(
            self, columns: list[ast.ColumnDef],
            constraints: list[ast.TableConstraint]) -> None:
        while True:
            constraint = self._try_parse_table_constraint()
            if constraint is not None:
                constraints.append(constraint)
            else:
                column_name = self.expect_identifier("column name")
                type_ref = self._parse_type_ref()
                columns.append(ast.ColumnDef(
                    column_name, type_ref,
                    tuple(self._parse_column_constraints())))
            if not self.accept_operator(","):
                break
        self.expect_operator(")")

    def _parse_object_table_body(
            self, constraints: list[ast.TableConstraint],
            object_specs: list[ast.ObjectColumnSpec]) -> None:
        while True:
            constraint = self._try_parse_table_constraint()
            if constraint is not None:
                constraints.append(constraint)
            elif self.at_keyword("SCOPE"):
                constraints.append(self._parse_scope_for())
            else:
                column = self.expect_identifier("attribute name")
                if self.at_keyword("SCOPE"):
                    constraints.append(self._parse_scope_for(column))
                else:
                    specs = self._parse_column_constraints()
                    if not specs:
                        self.error(
                            "expected a constraint after attribute name")
                    object_specs.append(
                        ast.ObjectColumnSpec(column, tuple(specs)))
            if not self.accept_operator(","):
                break
        self.expect_operator(")")

    def _parse_scope_for(self,
                         column: str | None = None) -> ast.TableConstraint:
        self.expect_keyword("SCOPE")
        self.expect_keyword("FOR")
        if column is None:
            self.expect_operator("(")
            column = self.expect_identifier("REF column")
            self.expect_operator(")")
        self.expect_keyword("IS")
        table = self.expect_identifier("scope table")
        return ast.TableConstraint(kind="SCOPE", columns=(column,),
                                   scope_table=table)

    def _parse_column_constraints(self) -> list[ast.ColumnConstraint]:
        constraints: list[ast.ColumnConstraint] = []
        while True:
            if self.accept_keyword("NOT"):
                self.expect_keyword("NULL")
                constraints.append(ast.ColumnConstraint("NOT NULL"))
            elif self.accept_keyword("PRIMARY"):
                self.expect_keyword("KEY")
                constraints.append(ast.ColumnConstraint("PRIMARY KEY"))
            elif self.accept_keyword("UNIQUE"):
                constraints.append(ast.ColumnConstraint("UNIQUE"))
            elif self.accept_keyword("NULL"):
                continue  # explicit NULL is the default; accept and ignore
            else:
                return constraints

    def _try_parse_table_constraint(self) -> ast.TableConstraint | None:
        name: str | None = None
        if self.at_keyword("CONSTRAINT"):
            self.advance()
            name = self.expect_identifier("constraint name")
        if self.accept_keyword("PRIMARY"):
            self.expect_keyword("KEY")
            return ast.TableConstraint(
                kind="PRIMARY KEY", name=name,
                columns=self._parse_column_list())
        if self.accept_keyword("UNIQUE"):
            return ast.TableConstraint(
                kind="UNIQUE", name=name, columns=self._parse_column_list())
        if self.accept_keyword("CHECK"):
            self.expect_operator("(")
            start = self.index
            expression = self._parse_expression()
            source = self._source_between(start, self.index)
            self.expect_operator(")")
            return ast.TableConstraint(kind="CHECK", name=name,
                                       expression=expression,
                                       expression_source=source)
        if name is not None:
            self.error("expected PRIMARY KEY, UNIQUE or CHECK after"
                       " CONSTRAINT")
        return None

    def _parse_column_list(self) -> tuple[str, ...]:
        self.expect_operator("(")
        columns = [self.expect_identifier("column name")]
        while self.accept_operator(","):
            columns.append(self.expect_identifier("column name"))
        self.expect_operator(")")
        return tuple(columns)

    def _source_between(self, start: int, end: int) -> str:
        return " ".join(token.text for token in self.tokens[start:end])

    def _parse_create_view(self, or_replace: bool) -> ast.CreateView:
        name = self.expect_identifier("view name")
        column_names: tuple[str, ...] = ()
        if self.at_operator("("):
            column_names = self._parse_column_list()
        oid_columns: tuple[str, ...] = ()
        if self.accept_keyword("OF"):
            # object view: OF type WITH OBJECT OID/IDENTIFIER (attrs)
            self.expect_identifier("object type name")
            self.expect_keyword("WITH")
            self.expect_keyword("OBJECT")
            if not (self.accept_keyword("OID")
                    or self.accept_keyword("IDENTIFIER")):
                self.error("expected OID or IDENTIFIER")
            oid_columns = self._parse_column_list()
        self.expect_keyword("AS")
        query = self._parse_select()
        return ast.CreateView(name, query, column_names, or_replace,
                              oid_columns)

    # -- DROP -----------------------------------------------------------------------

    def _parse_drop(self) -> ast.Statement:
        self.expect_keyword("DROP")
        if self.accept_keyword("TYPE"):
            name = self.expect_identifier("type name")
            force = self.accept_keyword("FORCE")
            return ast.DropType(name, force)
        if self.accept_keyword("TABLE"):
            return ast.DropTable(self.expect_identifier("table name"))
        if self.accept_keyword("VIEW"):
            return ast.DropView(self.expect_identifier("view name"))
        if self.accept_keyword("INDEX"):
            return ast.DropIndex(self.expect_identifier("index name"))
        self.error("expected TYPE, TABLE, VIEW or INDEX after DROP")
        raise AssertionError("unreachable")

    # -- DML ------------------------------------------------------------------------

    def _parse_insert(self) -> ast.Insert:
        self.expect_keyword("INSERT")
        self.expect_keyword("INTO")
        table = self.expect_identifier("table name")
        columns: tuple[str, ...] = ()
        if self.at_operator("("):
            columns = self._parse_column_list()
        if self.accept_keyword("VALUES"):
            self.expect_operator("(")
            values = [self._parse_expression()]
            while self.accept_operator(","):
                values.append(self._parse_expression())
            self.expect_operator(")")
            return ast.Insert(table, columns, tuple(values))
        if self.at_keyword("SELECT"):
            return ast.Insert(table, columns, (), self._parse_select())
        self.error("expected VALUES or SELECT in INSERT")
        raise AssertionError("unreachable")

    def _parse_update(self) -> ast.Update:
        self.expect_keyword("UPDATE")
        table = self.expect_identifier("table name")
        alias = self._maybe_alias()
        self.expect_keyword("SET")
        assignments: list[tuple[ast.ColumnPath, ast.Expr]] = []
        while True:
            target = self._parse_path()
            self.expect_operator("=")
            assignments.append((target, self._parse_expression()))
            if not self.accept_operator(","):
                break
        where = None
        if self.accept_keyword("WHERE"):
            where = self._parse_expression()
        return ast.Update(table, alias, tuple(assignments), where)

    def _parse_delete(self) -> ast.Delete:
        self.expect_keyword("DELETE")
        self.accept_keyword("FROM")
        table = self.expect_identifier("table name")
        alias = self._maybe_alias()
        where = None
        if self.accept_keyword("WHERE"):
            where = self._parse_expression()
        return ast.Delete(table, alias, where)

    def _parse_path(self) -> ast.ColumnPath:
        parts = [self.expect_identifier("column name")]
        while self.accept_operator("."):
            parts.append(self.expect_identifier("attribute name"))
        return ast.ColumnPath(tuple(parts))

    # -- SELECT ------------------------------------------------------------------------

    def _parse_select(self) -> ast.SelectStmt:
        self.descend()
        self.expect_keyword("SELECT")
        distinct = self.accept_keyword("DISTINCT")
        self.accept_keyword("ALL")
        items: list[ast.SelectItem] = []
        while True:
            items.append(self._parse_select_item())
            if not self.accept_operator(","):
                break
        self.expect_keyword("FROM")
        from_items: list[ast.FromItem] = []
        while True:
            from_items.append(self._parse_from_item())
            if not self.accept_operator(","):
                break
        where = None
        if self.accept_keyword("WHERE"):
            where = self._parse_expression()
        group_by: list[ast.Expr] = []
        having = None
        if self.accept_keyword("GROUP"):
            self.expect_keyword("BY")
            while True:
                group_by.append(self._parse_expression())
                if not self.accept_operator(","):
                    break
            if self.accept_keyword("HAVING"):
                having = self._parse_expression()
        order_by: list[ast.OrderItem] = []
        if self.accept_keyword("ORDER"):
            self.expect_keyword("BY")
            while True:
                expression = self._parse_expression()
                ascending = True
                if self.accept_keyword("DESC"):
                    ascending = False
                else:
                    self.accept_keyword("ASC")
                order_by.append(ast.OrderItem(expression, ascending))
                if not self.accept_operator(","):
                    break
        fetch_first: int | None = None
        if self.accept_keyword("FETCH"):
            self.expect_keyword("FIRST")
            count = self.advance()
            if count.kind is not TokenKind.NUMBER:
                self.error("expected a row count after FETCH FIRST")
            if not isinstance(count.value, int):
                self.error(
                    f"FETCH FIRST row count must be an integer,"
                    f" got {count.text}")
            if not (self.accept_keyword("ROWS")
                    or self.accept_keyword("ROW")):
                self.error("expected ROW or ROWS in FETCH FIRST")
            self.expect_keyword("ONLY")
            fetch_first = max(0, int(count.value))
        self.depth -= 1
        return ast.SelectStmt(tuple(items), tuple(from_items), where,
                              tuple(group_by), having, tuple(order_by),
                              distinct, fetch_first)

    def _parse_select_item(self) -> ast.SelectItem:
        if self.at_operator("*"):
            self.advance()
            return ast.SelectItem(ast.Star())
        # qualified star: alias.*
        if (self.current.kind is TokenKind.IDENT
                and self.peek(1).text == "."
                and self.peek(2).text == "*"):
            qualifier = self.advance().text
            self.advance()
            self.advance()
            return ast.SelectItem(ast.Star(qualifier))
        expression = self._parse_expression()
        alias = None
        if self.accept_keyword("AS"):
            alias = self.expect_identifier("column alias")
        elif (self.current.kind in (TokenKind.IDENT, TokenKind.QUOTED_IDENT)
              and self.current.keyword not in _CLAUSE_KEYWORDS):
            alias = self.advance().text
        return ast.SelectItem(expression, alias)

    def _parse_from_item(self) -> ast.FromItem:
        if self.at_keyword("TABLE") and self.peek(1).text == "(":
            self.advance()
            self.expect_operator("(")
            expression = self._parse_expression()
            self.expect_operator(")")
            return ast.TableFunctionRef(expression, self._maybe_alias())
        if self.at_operator("("):
            self.advance()
            query = self._parse_select()
            self.expect_operator(")")
            return ast.SubqueryRef(query, self._maybe_alias())
        name = self.expect_identifier("table name")
        return ast.TableRef(name, self._maybe_alias())

    def _maybe_alias(self) -> str | None:
        token = self.current
        if (token.kind in (TokenKind.IDENT, TokenKind.QUOTED_IDENT)
                and token.keyword not in _CLAUSE_KEYWORDS):
            self.advance()
            return token.text
        return None

    # -- expressions ----------------------------------------------------------------------

    def _parse_expression(self) -> ast.Expr:
        self.descend()
        expression = self._parse_or()
        self.depth -= 1
        return expression

    def _parse_or(self) -> ast.Expr:
        left = self._parse_and()
        while self.accept_keyword("OR"):
            left = ast.BinaryOp("OR", left, self._parse_and())
        return left

    def _parse_and(self) -> ast.Expr:
        left = self._parse_not()
        while self.accept_keyword("AND"):
            left = ast.BinaryOp("AND", left, self._parse_not())
        return left

    def _parse_not(self) -> ast.Expr:
        if self.accept_keyword("NOT"):
            self.descend()
            operand = self._parse_not()
            self.depth -= 1
            return ast.UnaryOp("NOT", operand)
        return self._parse_predicate()

    def _parse_predicate(self) -> ast.Expr:
        left = self._parse_additive()
        if self.at_operator("=", "<>", "!=", "<", ">", "<=", ">="):
            operator = self.advance().text
            if operator == "!=":
                operator = "<>"
            return ast.BinaryOp(operator, left, self._parse_additive())
        if self.accept_keyword("IS"):
            negated = self.accept_keyword("NOT")
            self.expect_keyword("NULL")
            return ast.IsNull(left, negated)
        negated = False
        if self.at_keyword("NOT"):
            if self.peek(1).keyword in ("LIKE", "BETWEEN", "IN"):
                self.advance()
                negated = True
            else:
                return left
        if self.accept_keyword("LIKE"):
            pattern = self._parse_additive()
            escape = (self._parse_additive()
                      if self.accept_keyword("ESCAPE") else None)
            return ast.Like(left, pattern, negated, escape)
        if self.accept_keyword("BETWEEN"):
            low = self._parse_additive()
            self.expect_keyword("AND")
            return ast.Between(left, low, self._parse_additive(), negated)
        if self.accept_keyword("IN"):
            self.expect_operator("(")
            if self.at_keyword("SELECT"):
                query = self._parse_select()
                self.expect_operator(")")
                return ast.InSubquery(left, query, negated)
            items = [self._parse_expression()]
            while self.accept_operator(","):
                items.append(self._parse_expression())
            self.expect_operator(")")
            return ast.InList(left, tuple(items), negated)
        return left

    def _parse_additive(self) -> ast.Expr:
        left = self._parse_multiplicative()
        while self.at_operator("+", "-", "||"):
            operator = self.advance().text
            left = ast.BinaryOp(operator, left,
                                self._parse_multiplicative())
        return left

    def _parse_multiplicative(self) -> ast.Expr:
        left = self._parse_unary()
        while self.at_operator("*", "/"):
            operator = self.advance().text
            left = ast.BinaryOp(operator, left, self._parse_unary())
        return left

    def _parse_unary(self) -> ast.Expr:
        if self.at_operator("-", "+"):
            operator = self.advance().text
            self.descend()
            operand = self._parse_unary()
            self.depth -= 1
            return ast.UnaryOp(operator, operand)
        return self._parse_postfix()

    def _parse_postfix(self) -> ast.Expr:
        expression = self._parse_primary()
        while self.at_operator(".") and not isinstance(
                expression, ast.ColumnPath):
            self.advance()
            expression = ast.AttributeAccess(
                expression, self.expect_identifier("attribute name"))
        return expression

    def _parse_primary(self) -> ast.Expr:
        token = self.current
        if token.kind is TokenKind.STRING:
            self.advance()
            return ast.Literal(token.value)
        if token.kind is TokenKind.NUMBER:
            self.advance()
            return ast.Literal(token.value)
        if self.at_operator("("):
            self.advance()
            if self.at_keyword("SELECT"):
                query = self._parse_select()
                self.expect_operator(")")
                return ast.ScalarSubquery(query)
            expression = self._parse_expression()
            self.expect_operator(")")
            return expression
        if self.at_operator("*"):
            self.advance()
            return ast.Star()
        if token.kind not in (TokenKind.IDENT, TokenKind.QUOTED_IDENT):
            self.error("expected an expression")
        word = token.keyword
        if word == "NULL":
            self.advance()
            return ast.Literal(None)
        if word == "DATE" and self.peek(1).kind is TokenKind.STRING:
            self.advance()
            return ast.DateLiteral(self.advance().value)
        if word == "CASE":
            return self._parse_case()
        if word == "CAST":
            return self._parse_cast()
        if word == "EXISTS" and self.peek(1).text == "(":
            self.advance()
            self.expect_operator("(")
            query = self._parse_select()
            self.expect_operator(")")
            return ast.Exists(query)
        if self.peek(1).text == "(":
            name = self.advance().text
            self.expect_operator("(")
            distinct = self.accept_keyword("DISTINCT")
            arguments: list[ast.Expr] = []
            if not self.at_operator(")"):
                while True:
                    arguments.append(self._parse_expression())
                    if not self.accept_operator(","):
                        break
            self.expect_operator(")")
            return ast.FunctionCall(name, tuple(arguments), distinct)
        return self._parse_path()

    def _parse_case(self) -> ast.Expr:
        self.expect_keyword("CASE")
        branches: list[tuple[ast.Expr, ast.Expr]] = []
        while self.accept_keyword("WHEN"):
            condition = self._parse_expression()
            self.expect_keyword("THEN")
            branches.append((condition, self._parse_expression()))
        default = None
        if self.accept_keyword("ELSE"):
            default = self._parse_expression()
        self.expect_keyword("END")
        if not branches:
            self.error("CASE requires at least one WHEN branch")
        return ast.CaseWhen(tuple(branches), default)

    def _parse_cast(self) -> ast.Expr:
        self.expect_keyword("CAST")
        self.expect_operator("(")
        if self.accept_keyword("MULTISET"):
            self.expect_operator("(")
            query = self._parse_select()
            self.expect_operator(")")
            self.expect_keyword("AS")
            type_name = self.expect_identifier("collection type name")
            self.expect_operator(")")
            return ast.CastMultiset(query, type_name)
        operand = self._parse_expression()
        self.expect_keyword("AS")
        type_ref = self._parse_type_ref()
        self.expect_operator(")")
        return ast.Cast(operand, type_ref)


def parse_statement(text: str) -> ast.Statement:
    """Parse a single SQL statement."""
    return SQLParser(text).parse()
