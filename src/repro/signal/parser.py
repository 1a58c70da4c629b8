"""Parser for the textual SIGNAL syntax used in the paper.

The concrete syntax accepted is the one of the paper's listings::

    process Count = (? event reset ! integer val)
      (| counter := val$1 init 0
       | val := (0 when reset) default (counter + 1)
      |) where integer counter;
    end;

Supported constructs: process headers with typed input/output declarations,
equations ``x := e``, clock constraints ``a ^= b``, the primitives ``$ init``
(delay), ``when``, ``default``, unary ``when`` (clock extraction of a boolean
condition), clock operators ``^``, ``^*``, ``^+``, ``^-``, boolean/arithmetic/
relational operators, intrinsic function calls (``rshift(...)``), ``cell`` and
``where`` declarations (with an optional, ignored ``init`` clause, as in the
paper's ``integer s init 1``).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator, Optional

from .ast import (
    BinaryOp,
    Cell,
    ClockBinary,
    ClockConstraint,
    ClockOf,
    Constant,
    Default,
    Definition,
    Delay,
    Expression,
    FunctionCall,
    ProcessDefinition,
    SignalDeclaration,
    SignalRef,
    Statement,
    UnaryOp,
    When,
)
from ..core.values import EVENT
from .operators import LEVEL_OR, LEVEL_UNARY, OPERATORS, Operator


class SignalSyntaxError(Exception):
    """Raised when the input text is not valid SIGNAL."""

    def __init__(self, message: str, line: int = 0, column: int = 0) -> None:
        location = f" at line {line}, column {column}" if line else ""
        super().__init__(f"{message}{location}")
        self.line = line
        self.column = column


@dataclass(frozen=True)
class Token:
    """A lexical token."""

    kind: str
    text: str
    line: int
    column: int


KEYWORDS = {
    "process",
    "where",
    "end",
    "when",
    "default",
    "init",
    "cell",
    "not",
    "and",
    "or",
    "xor",
    "mod",
    "true",
    "false",
    "event",
    "boolean",
    "integer",
}

_TOKEN_SPEC = [
    ("COMMENT", r"%[^\n]*|\(\*.*?\*\)"),
    ("WS", r"[ \t\r\n]+"),
    ("LPARBAR", r"\(\|"),
    ("RPARBAR", r"\|\)"),
    ("OP", r":=|\^=|\^\*|\^\+|\^-|/=|<=|>=|<<|>>|[()\[\]{};,?!$=<>+\-*/&|^.]"),
    ("HEX", r"0[xX][0-9a-fA-F]+"),
    ("INT", r"\d+"),
    ("IDENT", r"[A-Za-z_][A-Za-z0-9_]*"),
]

_TOKEN_RE = re.compile("|".join(f"(?P<{name}>{pattern})" for name, pattern in _TOKEN_SPEC), re.DOTALL)


def tokenize(text: str) -> list[Token]:
    """Split SIGNAL source text into tokens (comments and whitespace dropped)."""
    tokens: list[Token] = []
    line = 1
    line_start = 0
    position = 0
    while position < len(text):
        match = _TOKEN_RE.match(text, position)
        if match is None:
            column = position - line_start + 1
            raise SignalSyntaxError(f"unexpected character {text[position]!r}", line, column)
        kind = match.lastgroup or ""
        lexeme = match.group()
        column = position - line_start + 1
        if kind not in ("WS", "COMMENT"):
            if kind == "IDENT" and lexeme in KEYWORDS:
                kind = "KW"
            tokens.append(Token(kind, lexeme, line, column))
        newlines = lexeme.count("\n")
        if newlines:
            line += newlines
            line_start = position + lexeme.rfind("\n") + 1
        position = match.end()
    tokens.append(Token("EOF", "", line, position - line_start + 1))
    return tokens


class _TokenStream:
    """Cursor over a token list with the usual peek/expect helpers."""

    def __init__(self, tokens: list[Token]) -> None:
        self._tokens = tokens
        self._index = 0

    def peek(self, offset: int = 0) -> Token:
        index = min(self._index + offset, len(self._tokens) - 1)
        return self._tokens[index]

    def next(self) -> Token:
        token = self.peek()
        if token.kind != "EOF":
            self._index += 1
        return token

    def at(self, text: str) -> bool:
        return self.peek().text == text

    def at_kind(self, kind: str) -> bool:
        return self.peek().kind == kind

    def accept(self, text: str) -> Optional[Token]:
        if self.at(text):
            return self.next()
        return None

    def expect(self, text: str) -> Token:
        token = self.peek()
        if token.text != text:
            raise SignalSyntaxError(f"expected {text!r}, found {token.text!r}", token.line, token.column)
        return self.next()

    def expect_kind(self, kind: str) -> Token:
        token = self.peek()
        if token.kind != kind:
            raise SignalSyntaxError(f"expected {kind}, found {token.text!r}", token.line, token.column)
        return self.next()


class Parser:
    """Recursive-descent parser producing :class:`ProcessDefinition` objects."""

    def __init__(self, text: str) -> None:
        self._stream = _TokenStream(tokenize(text))

    # -- entry points ------------------------------------------------------------

    def parse_file(self) -> list[ProcessDefinition]:
        """Parse a sequence of process definitions."""
        processes: list[ProcessDefinition] = []
        while not self._stream.at_kind("EOF"):
            processes.append(self.parse_process())
        return processes

    def parse_process(self) -> ProcessDefinition:
        """Parse a single ``process Name = (? ... ! ...) (| ... |) where ... end;``."""
        stream = self._stream
        stream.expect("process")
        name = stream.expect_kind("IDENT").text
        stream.expect("=")
        stream.expect("(")
        inputs: list[SignalDeclaration] = []
        outputs: list[SignalDeclaration] = []
        if stream.accept("?"):
            inputs = self._parse_declarations(stop={"!", ")"})
        if stream.accept("!"):
            outputs = self._parse_declarations(stop={")"})
        stream.expect(")")
        body = self._parse_body()
        locals_: list[SignalDeclaration] = []
        if stream.accept("where"):
            locals_ = self._parse_declarations(stop={"end"})
        stream.expect("end")
        stream.accept(";")
        return ProcessDefinition(name, inputs, outputs, body, locals_)

    def parse_expression_only(self) -> Expression:
        """Parse a standalone expression (useful for tests and the REPL)."""
        expr = self._parse_expression()
        token = self._stream.peek()
        if token.kind != "EOF":
            raise SignalSyntaxError(f"unexpected trailing input {token.text!r}", token.line, token.column)
        return expr

    # -- declarations --------------------------------------------------------------

    def _parse_declarations(self, stop: set[str]) -> list[SignalDeclaration]:
        stream = self._stream
        declarations: list[SignalDeclaration] = []
        while stream.peek().text not in stop and not stream.at_kind("EOF"):
            type_token = stream.peek()
            if type_token.text not in ("event", "boolean", "integer"):
                raise SignalSyntaxError(
                    f"expected a type (event/boolean/integer), found {type_token.text!r}",
                    type_token.line,
                    type_token.column,
                )
            stream.next()
            while True:
                name = stream.expect_kind("IDENT").text
                declarations.append(SignalDeclaration(name, type_token.text))
                if stream.accept("init"):
                    # Initialisation clauses on declarations (``integer s init 1``)
                    # are accepted for compatibility with the paper's listings;
                    # the initial value is carried by the delay operators.
                    self._parse_primary()
                if not stream.accept(","):
                    break
            stream.accept(";")
        return declarations

    # -- bodies ------------------------------------------------------------------------

    def _parse_body(self) -> list[Statement]:
        stream = self._stream
        stream.expect("(|")
        statements: list[Statement] = [self._parse_statement()]
        while stream.accept("|"):
            if stream.at(")"):
                break
            statements.append(self._parse_statement())
        stream.expect("|)")
        return statements

    def _parse_statement(self) -> Statement:
        stream = self._stream
        # Nested composition blocks ``(| ... |)`` flatten into the same body.
        if stream.at("(|"):
            nested = self._parse_body()
            if len(nested) == 1:
                return nested[0]
            return _Group(nested)
        first = self._parse_expression()
        if stream.accept(":="):
            if not isinstance(first, SignalRef):
                token = stream.peek()
                raise SignalSyntaxError("left-hand side of ':=' must be a signal name", token.line, token.column)
            expr = self._parse_expression()
            return Definition(first.name, expr)
        if stream.at("^="):
            operands = [first]
            while stream.accept("^="):
                operands.append(self._parse_expression())
            return ClockConstraint("=", operands)
        token = stream.peek()
        raise SignalSyntaxError("expected ':=' or '^=' in equation", token.line, token.column)

    # -- expressions ---------------------------------------------------------------------

    def _parse_expression(self) -> Expression:
        return self._parse_default()

    def _parse_default(self) -> Expression:
        left = self._parse_when()
        while self._stream.accept("default"):
            right = self._parse_when()
            left = Default(left, right)
        return left

    def _parse_when(self) -> Expression:
        stream = self._stream
        if stream.accept("when"):
            # Unary ``when c``: the event clock at which ``c`` is present and true.
            condition = self._parse_when()
            return When(Constant(EVENT), condition)
        left = self._parse_clock_term()
        while stream.at("when"):
            stream.next()
            right = self._parse_clock_term()
            left = When(left, right)
        return left

    def _parse_clock_term(self) -> Expression:
        stream = self._stream
        left = self._parse_operators(LEVEL_OR)
        while stream.peek().text in ("^*", "^+", "^-"):
            op = stream.next().text
            right = self._parse_operators(LEVEL_OR)
            left = ClockBinary(op, left, right)
        return left

    def _parse_operators(self, level: int) -> Expression:
        """The table's operators binding at ``level`` or tighter: a prefix
        row of that level, else binary rows of it associating to the left
        (a row that does not chain, such as a comparison, takes one)."""
        if level >= LEVEL_UNARY:
            return self._parse_unary()
        stream = self._stream
        prefix = _syntax("unary", stream.peek().text, level)
        if prefix is not None:
            stream.next()
            return UnaryOp(prefix.name, self._parse_operators(level))
        left = self._parse_operators(level + 1)
        while (row := _syntax("binary", stream.peek().text, level)) is not None:
            stream.next()
            left = BinaryOp(row.name, left, self._parse_operators(level + 1))
            if not row.chains:
                break
        return left

    def _parse_unary(self) -> Expression:
        stream = self._stream
        if stream.accept("^"):
            return ClockOf(self._parse_unary())
        prefix = _syntax("unary", stream.peek().text, LEVEL_UNARY)
        if prefix is not None:
            stream.next()
            return UnaryOp(prefix.name, self._parse_unary())
        return self._parse_postfix()

    def _parse_postfix(self) -> Expression:
        stream = self._stream
        expr = self._parse_primary()
        while True:
            if stream.accept("$"):
                depth = 1
                if stream.at_kind("INT"):
                    depth = int(stream.next().text)
                init_value: object = 0
                if stream.accept("init"):
                    init_value = self._constant_value(self._parse_unary())
                expr = Delay(expr, init_value, depth)
                continue
            if stream.accept("cell"):
                clock = self._parse_unary()
                init_value = 0
                if stream.accept("init"):
                    init_value = self._constant_value(self._parse_unary())
                expr = Cell(expr, clock, init_value)
                continue
            break
        return expr

    def _parse_primary(self) -> Expression:
        stream = self._stream
        token = stream.peek()
        if token.kind == "INT":
            stream.next()
            return Constant(int(token.text))
        if token.kind == "HEX":
            stream.next()
            return Constant(int(token.text, 16))
        if token.text == "true":
            stream.next()
            return Constant(True)
        if token.text == "false":
            stream.next()
            return Constant(False)
        if token.text == "(":
            stream.next()
            expr = self._parse_expression()
            stream.expect(")")
            return expr
        if token.kind == "IDENT":
            stream.next()
            if stream.at("("):
                stream.next()
                arguments: list[Expression] = []
                if not stream.at(")"):
                    arguments.append(self._parse_expression())
                    while stream.accept(","):
                        arguments.append(self._parse_expression())
                stream.expect(")")
                return FunctionCall(token.text, arguments)
            return SignalRef(token.text)
        raise SignalSyntaxError(f"unexpected token {token.text!r}", token.line, token.column)

    @staticmethod
    def _constant_value(expr: Expression) -> object:
        if isinstance(expr, Constant):
            return expr.value
        if isinstance(expr, UnaryOp) and expr.op == "-" and isinstance(expr.operand, Constant):
            return -expr.operand.value
        raise SignalSyntaxError("initial values must be constants")


def _syntax(kind: str, text: str, level: int) -> Optional[Operator]:
    """The table row a token writes at a binding level, if any."""
    row = OPERATORS.get((kind, text))
    return row if row is not None and row.level == level else None


class _Group(Statement):
    """A nested composition block, flattened by :func:`parse_process`."""

    def __init__(self, statements: list[Statement]) -> None:
        self.statements = statements

    def defined_names(self) -> set[str]:
        names: set[str] = set()
        for statement in self.statements:
            names |= statement.defined_names()
        return names

    def referenced_names(self) -> set[str]:
        names: set[str] = set()
        for statement in self.statements:
            names |= statement.referenced_names()
        return names

    def rename(self, mapping) -> "_Group":
        return _Group([s.rename(mapping) for s in self.statements])


def _flatten(statements: list[Statement]) -> list[Statement]:
    flattened: list[Statement] = []
    for statement in statements:
        if isinstance(statement, _Group):
            flattened.extend(_flatten(statement.statements))
        else:
            flattened.append(statement)
    return flattened


def parse_process(text: str) -> ProcessDefinition:
    """Parse a single process definition from SIGNAL source text."""
    process = Parser(text).parse_process()
    return process.with_body(_flatten(list(process.body)))


def parse_file(text: str) -> list[ProcessDefinition]:
    """Parse every process definition contained in ``text``."""
    processes = Parser(text).parse_file()
    return [p.with_body(_flatten(list(p.body))) for p in processes]


def parse_expression(text: str) -> Expression:
    """Parse a standalone SIGNAL expression."""
    return Parser(text).parse_expression_only()
