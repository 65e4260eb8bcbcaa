"""Recursive-descent parser for the E-code language.

Grammar (statements)::

    program     := block | stmt*
    block       := '{' stmt* '}'
    stmt        := decl ';' | simple ';' | if | for | while
                 | return ';' | block
    decl        := type IDENT ('=' expr)?
    simple      := assign | incdec | expr
    assign      := target ('='|'+='|'-='|'*='|'/='|'%=') expr
    target      := IDENT postfix*           (postfix := '[' expr ']'
                                                      | '.' IDENT)
    if          := 'if' '(' expr ')' body ('else' (if | body))?
    for         := 'for' '(' (decl|simple)? ';' expr? ';' simple? ')' body
    while       := 'while' '(' expr ')' body
    body        := block | stmt

Expressions use standard C precedence:
``|| < && < ==,!= < <,<=,>,>= < +,- < *,/,% < unary < postfix``.

Nesting is bounded by :data:`MAX_NESTING`, counting statements,
blocks, parenthesised and operand expressions, prefix operators and
each link of an operator, postfix or ``else if`` chain together: the
parser, the analyzer and the code generator all recurse on it, and a
filter arrives from a peer.  Past the bound a source is an
:class:`EcodeSyntaxError` with the position where it went too deep —
the same answer wherever it is compiled, which the interpreter's own
recursion limit (it depends on the caller's stack) would not give.
"""

from __future__ import annotations

from typing import Optional

from repro.ecode import ast_nodes as A
from repro.ecode.lexer import tokenize
from repro.ecode.tokens import Token, TokenType as T
from repro.errors import EcodeSyntaxError

__all__ = ["parse", "MAX_NESTING"]

#: How deep a source may nest (see the module docstring).
MAX_NESTING = 64

_ASSIGN_OPS = {
    T.ASSIGN: "=", T.PLUS_ASSIGN: "+=", T.MINUS_ASSIGN: "-=",
    T.STAR_ASSIGN: "*=", T.SLASH_ASSIGN: "/=", T.PERCENT_ASSIGN: "%=",
}

_TYPE_KEYWORDS = {
    T.KW_INT: "int", T.KW_LONG: "long",
    T.KW_DOUBLE: "double", T.KW_FLOAT: "float",
}

_UNARY_OPS = {T.MINUS: "-", T.PLUS: "+", T.NOT: "!"}

# (token types, operator text) by descending binding level
_BINARY_LEVELS: list[dict[T, str]] = [
    {T.OR: "||"},
    {T.AND: "&&"},
    {T.EQ: "==", T.NE: "!="},
    {T.LT: "<", T.LE: "<=", T.GT: ">", T.GE: ">="},
    {T.PLUS: "+", T.MINUS: "-"},
    {T.STAR: "*", T.SLASH: "/", T.PERCENT: "%"},
]


class _Parser:
    def __init__(self, tokens: list[Token]) -> None:
        self.tokens = tokens
        self.pos = 0
        #: Nesting levels open at the current token.
        self.depth = 0

    # -- token plumbing --------------------------------------------------------

    @property
    def current(self) -> Token:
        return self.tokens[self.pos]

    def check(self, ttype: T) -> bool:
        return self.current.type is ttype

    def accept(self, ttype: T) -> Optional[Token]:
        if self.check(ttype):
            tok = self.current
            self.pos += 1
            return tok
        return None

    def expect(self, ttype: T, what: str) -> Token:
        tok = self.accept(ttype)
        if tok is None:
            cur = self.current
            raise EcodeSyntaxError(
                f"expected {what}, found {cur.text or 'end of input'!r}",
                cur.line, cur.column)
        return tok

    def error(self, message: str) -> EcodeSyntaxError:
        cur = self.current
        return EcodeSyntaxError(message, cur.line, cur.column)

    def deeper(self) -> None:
        """Open one more nesting level (its caller closes it)."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise self.error(
                f"nested deeper than {MAX_NESTING} levels")

    # -- program ---------------------------------------------------------------

    def parse_program(self) -> A.Program:
        first = self.current
        stmts = []
        while not self.check(T.EOF):
            stmts.append(self.parse_statement())
        if len(stmts) == 1 and isinstance(stmts[0], A.Block):
            # The common filter shape `{ ... }`: unwrap so the braced
            # block *is* the program body.
            body = stmts[0]
        else:
            body = A.Block(statements=stmts,
                           line=first.line, column=first.column)
        self.expect(T.EOF, "end of input")
        return A.Program(body=body, line=first.line, column=first.column)

    def parse_block(self) -> A.Block:
        lbrace = self.expect(T.LBRACE, "'{'")
        stmts = []
        while not self.check(T.RBRACE):
            if self.check(T.EOF):
                raise self.error("unterminated block: missing '}'")
            stmts.append(self.parse_statement())
        self.expect(T.RBRACE, "'}'")
        return A.Block(statements=stmts,
                       line=lbrace.line, column=lbrace.column)

    def parse_body(self) -> A.Block:
        """An if/for/while body: a block, or a single statement."""
        if self.check(T.LBRACE):
            return self.parse_block()
        stmt = self.parse_statement()
        return A.Block(statements=[stmt],
                       line=stmt.line, column=stmt.column)

    # -- statements -----------------------------------------------------------

    def parse_statement(self) -> A.Stmt:
        self.deeper()
        stmt = self._statement()
        self.depth -= 1
        return stmt

    def _statement(self) -> A.Stmt:
        tok = self.current
        if tok.type in _TYPE_KEYWORDS:
            decl = self.parse_declaration()
            self.expect(T.SEMICOLON, "';'")
            return decl
        if tok.type is T.KW_IF:
            return self.parse_if()
        if tok.type is T.KW_FOR:
            return self.parse_for()
        if tok.type is T.KW_WHILE:
            return self.parse_while()
        if tok.type is T.KW_RETURN:
            self.pos += 1
            value = None
            if not self.check(T.SEMICOLON):
                value = self.parse_expr()
            self.expect(T.SEMICOLON, "';'")
            return A.Return(value=value, line=tok.line, column=tok.column)
        if tok.type is T.KW_BREAK:
            self.pos += 1
            self.expect(T.SEMICOLON, "';'")
            return A.Break(line=tok.line, column=tok.column)
        if tok.type is T.KW_CONTINUE:
            self.pos += 1
            self.expect(T.SEMICOLON, "';'")
            return A.Continue(line=tok.line, column=tok.column)
        if tok.type is T.LBRACE:
            return self.parse_block()
        if tok.type is T.SEMICOLON:  # empty statement
            self.pos += 1
            return A.Block(statements=[], line=tok.line, column=tok.column)
        stmt = self.parse_simple()
        self.expect(T.SEMICOLON, "';'")
        return stmt

    def parse_declaration(self) -> A.VarDecl:
        tok = self.current
        ctype = _TYPE_KEYWORDS[tok.type]
        self.pos += 1
        name = self.expect(T.IDENTIFIER, "variable name")
        init = None
        if self.accept(T.ASSIGN):
            init = self.parse_expr()
        return A.VarDecl(ctype=ctype, name=name.text, init=init,
                         line=tok.line, column=tok.column)

    def parse_simple(self) -> A.Stmt:
        """Assignment, increment/decrement or bare expression."""
        tok = self.current
        expr = self.parse_expr()
        if self.current.type in _ASSIGN_OPS:
            op = _ASSIGN_OPS[self.current.type]
            self.pos += 1
            if not isinstance(expr, (A.Name, A.Index, A.Attribute)):
                raise EcodeSyntaxError("invalid assignment target",
                                       tok.line, tok.column)
            value = self.parse_expr()
            return A.Assign(target=expr, op=op, value=value,
                            line=tok.line, column=tok.column)
        if self.check(T.INCREMENT) or self.check(T.DECREMENT):
            op = "++" if self.current.type is T.INCREMENT else "--"
            self.pos += 1
            if not isinstance(expr, A.Name):
                raise EcodeSyntaxError(
                    f"{op} only applies to simple variables",
                    tok.line, tok.column)
            return A.IncDec(target=expr, op=op,
                            line=tok.line, column=tok.column)
        return A.ExprStmt(expr=expr, line=tok.line, column=tok.column)

    def parse_if(self) -> A.If:
        tok = self.expect(T.KW_IF, "'if'")
        self.expect(T.LPAREN, "'('")
        cond = self.parse_expr()
        self.expect(T.RPAREN, "')'")
        then_body = self.parse_body()
        else_body = None
        if self.accept(T.KW_ELSE):
            if self.check(T.KW_IF):
                self.deeper()
                chained = self.parse_if()
                self.depth -= 1
                else_body = A.Block(statements=[chained],
                                    line=chained.line,
                                    column=chained.column)
            else:
                else_body = self.parse_body()
        return A.If(cond=cond, then_body=then_body, else_body=else_body,
                    line=tok.line, column=tok.column)

    def parse_for(self) -> A.For:
        tok = self.expect(T.KW_FOR, "'for'")
        self.expect(T.LPAREN, "'('")
        init: Optional[A.Stmt] = None
        if not self.check(T.SEMICOLON):
            if self.current.type in _TYPE_KEYWORDS:
                init = self.parse_declaration()
            else:
                init = self.parse_simple()
        self.expect(T.SEMICOLON, "';'")
        cond = None
        if not self.check(T.SEMICOLON):
            cond = self.parse_expr()
        self.expect(T.SEMICOLON, "';'")
        step = None
        if not self.check(T.RPAREN):
            step = self.parse_simple()
        self.expect(T.RPAREN, "')'")
        body = self.parse_body()
        return A.For(init=init, cond=cond, step=step, body=body,
                     line=tok.line, column=tok.column)

    def parse_while(self) -> A.While:
        tok = self.expect(T.KW_WHILE, "'while'")
        self.expect(T.LPAREN, "'('")
        cond = self.parse_expr()
        self.expect(T.RPAREN, "')'")
        body = self.parse_body()
        return A.While(cond=cond, body=body,
                       line=tok.line, column=tok.column)

    # -- expressions -----------------------------------------------------------

    def parse_expr(self) -> A.Expr:
        self.deeper()
        expr = self._binary(0)
        self.depth -= 1
        return expr

    def _binary(self, level: int) -> A.Expr:
        if level >= len(_BINARY_LEVELS):
            return self.parse_unary()
        ops = _BINARY_LEVELS[level]
        depth = self.depth
        left = self._binary(level + 1)
        while self.current.type in ops:
            # Each link of a chain nests the tree one level deeper.
            self.deeper()
            tok = self.current
            self.pos += 1
            right = self._binary(level + 1)
            left = A.Binary(op=ops[tok.type], left=left, right=right,
                            line=tok.line, column=tok.column)
        self.depth = depth
        return left

    def parse_unary(self) -> A.Expr:
        tok = self.current
        op = _UNARY_OPS.get(tok.type)
        if op is None:
            return self.parse_postfix()
        self.deeper()
        self.pos += 1
        operand = self.parse_unary()
        self.depth -= 1
        return A.Unary(op=op, operand=operand,
                       line=tok.line, column=tok.column)

    def parse_postfix(self) -> A.Expr:
        expr = self.parse_primary()
        depth = self.depth
        while True:
            tok = self.current
            if tok.type in (T.LBRACKET, T.DOT):
                self.deeper()
            if tok.type is T.LBRACKET:
                self.pos += 1
                index = self.parse_expr()
                self.expect(T.RBRACKET, "']'")
                expr = A.Index(base=expr, index=index,
                               line=tok.line, column=tok.column)
            elif tok.type is T.DOT:
                self.pos += 1
                name = self.expect(T.IDENTIFIER, "field name")
                expr = A.Attribute(base=expr, name=name.text,
                                   line=tok.line, column=tok.column)
            else:
                self.depth = depth
                return expr

    def parse_primary(self) -> A.Expr:
        tok = self.current
        if tok.type is T.INT_LITERAL:
            self.pos += 1
            return A.IntLiteral(value=int(tok.text),
                                line=tok.line, column=tok.column)
        if tok.type is T.FLOAT_LITERAL:
            self.pos += 1
            return A.FloatLiteral(value=float(tok.text),
                                  line=tok.line, column=tok.column)
        if tok.type is T.IDENTIFIER:
            self.pos += 1
            if self.check(T.LPAREN):  # builtin call
                self.pos += 1
                args = []
                if not self.check(T.RPAREN):
                    args.append(self.parse_expr())
                    while self.accept(T.COMMA):
                        args.append(self.parse_expr())
                self.expect(T.RPAREN, "')'")
                return A.Call(func=tok.text, args=args,
                              line=tok.line, column=tok.column)
            return A.Name(ident=tok.text, line=tok.line, column=tok.column)
        if tok.type is T.LPAREN:
            self.pos += 1
            expr = self.parse_expr()
            self.expect(T.RPAREN, "')'")
            return expr
        raise self.error(
            f"unexpected token {tok.text or 'end of input'!r} "
            f"in expression")


def parse(source: str) -> A.Program:
    """Parse E-code ``source`` into an AST."""
    return _Parser(tokenize(source)).parse_program()
