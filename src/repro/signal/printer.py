"""Pretty-printer for SIGNAL processes and expressions.

The printer emits the same concrete syntax the parser accepts, so
``parse_process(render_process(p))`` round-trips (tested in
``tests/test_signal_parser.py``).
"""

from __future__ import annotations

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
    Instantiation,
    ProcessDefinition,
    SignalDeclaration,
    SignalRef,
    Statement,
    UnaryOp,
    When,
)
from ..core.values import EVENT
from .operators import LEVEL_MUL, LEVEL_UNARY, OPERATORS

# Precedence levels of the non-operator forms, loosest first; the operator
# levels come from the rows of the operator table.  Used to decide where
# parentheses are needed.
_LEVEL_DEFAULT = 1
_LEVEL_WHEN = 2
_LEVEL_CLOCK = 3
_LEVEL_POSTFIX = 11
_LEVEL_ATOM = 12


def render_constant(value: object) -> str:
    """Render a constant value in concrete syntax."""
    if value is EVENT:
        return "true"
    if value is True:
        return "true"
    if value is False:
        return "false"
    return str(value)


def render_expression(expr: Expression) -> str:
    """Render an expression in concrete SIGNAL syntax."""
    text, _ = _render(expr)
    return text


def _paren(text: str, level: int, minimum: int) -> str:
    return f"({text})" if level < minimum else text


def _render(expr: Expression) -> tuple[str, int]:
    if isinstance(expr, SignalRef):
        return expr.name, _LEVEL_ATOM
    if isinstance(expr, Constant):
        return render_constant(expr.value), _LEVEL_ATOM
    if isinstance(expr, Default):
        left, left_level = _render(expr.left)
        right, right_level = _render(expr.right)
        text = f"{_paren(left, left_level, _LEVEL_DEFAULT)} default {_paren(right, right_level, _LEVEL_DEFAULT + 1)}"
        return text, _LEVEL_DEFAULT
    if isinstance(expr, When):
        condition, condition_level = _render(expr.condition)
        if isinstance(expr.operand, Constant) and expr.operand.value is EVENT:
            return f"when {_paren(condition, condition_level, _LEVEL_WHEN + 1)}", _LEVEL_WHEN
        operand, operand_level = _render(expr.operand)
        text = f"{_paren(operand, operand_level, _LEVEL_WHEN)} when {_paren(condition, condition_level, _LEVEL_WHEN + 1)}"
        return text, _LEVEL_WHEN
    if isinstance(expr, ClockBinary):
        left, left_level = _render(expr.left)
        right, right_level = _render(expr.right)
        text = f"{_paren(left, left_level, _LEVEL_CLOCK)} {expr.op} {_paren(right, right_level, _LEVEL_CLOCK + 1)}"
        return text, _LEVEL_CLOCK
    if isinstance(expr, BinaryOp):
        # An operator without syntax (``|``) is written for reading only.
        row = OPERATORS.get(("binary", expr.op))
        level = row.level if row is not None and row.level is not None else LEVEL_MUL
        chains = row is None or row.chains
        left, left_level = _render(expr.left)
        right, right_level = _render(expr.right)
        text = (
            f"{_paren(left, left_level, level if chains else level + 1)} {expr.op} "
            f"{_paren(right, right_level, level + 1)}"
        )
        return text, level
    if isinstance(expr, UnaryOp):
        row = OPERATORS.get(("unary", expr.op))
        level = row.level if row is not None and row.level is not None else LEVEL_UNARY
        operand, operand_level = _render(expr.operand)
        separator = " " if expr.op.isalpha() else ""
        return f"{expr.op}{separator}{_paren(operand, operand_level, level)}", level
    if isinstance(expr, Delay):
        operand, operand_level = _render(expr.operand)
        depth = "" if expr.depth == 1 else str(expr.depth)
        return (
            f"{_paren(operand, operand_level, _LEVEL_POSTFIX)}${depth} init {render_constant(expr.init)}",
            _LEVEL_POSTFIX,
        )
    if isinstance(expr, Cell):
        operand, operand_level = _render(expr.operand)
        clock, clock_level = _render(expr.clock)
        return (
            f"{_paren(operand, operand_level, _LEVEL_POSTFIX)} cell {_paren(clock, clock_level, LEVEL_UNARY)} "
            f"init {render_constant(expr.init)}",
            _LEVEL_POSTFIX,
        )
    if isinstance(expr, ClockOf):
        operand, operand_level = _render(expr.operand)
        return f"^{_paren(operand, operand_level, LEVEL_UNARY)}", LEVEL_UNARY
    if isinstance(expr, FunctionCall):
        arguments = ", ".join(render_expression(a) for a in expr.arguments)
        return f"{expr.function}({arguments})", _LEVEL_ATOM
    raise TypeError(f"cannot render expression {expr!r}")


def render_statement(statement: Statement) -> str:
    """Render a body statement (equation, constraint or instantiation)."""
    if isinstance(statement, Definition):
        return f"{statement.target} := {render_expression(statement.expression)}"
    if isinstance(statement, ClockConstraint):
        separator = f" ^{statement.kind} "
        return separator.join(render_expression(o) for o in statement.operands)
    if isinstance(statement, Instantiation):
        outputs = ", ".join(statement.output_names)
        inputs = ", ".join(render_expression(e) for e in statement.input_expressions)
        return f"({outputs}) := {statement.process.name}({inputs})"
    raise TypeError(f"cannot render statement {statement!r}")


def _render_declarations(declarations: tuple[SignalDeclaration, ...]) -> str:
    by_type: dict[str, list[str]] = {}
    order: list[str] = []
    for decl in declarations:
        if decl.type not in by_type:
            by_type[decl.type] = []
            order.append(decl.type)
        by_type[decl.type].append(decl.name)
    return "; ".join(f"{t} {', '.join(by_type[t])}" for t in order)


def render_process(process: ProcessDefinition, indent: str = "  ") -> str:
    """Render a full process definition in concrete SIGNAL syntax."""
    header = f"process {process.name} = (? {_render_declarations(process.inputs)}"
    header += f" ! {_render_declarations(process.outputs)})"
    lines = [header, f"{indent}(| " + render_statement(process.body[0]) if process.body else f"{indent}(|"]
    for statement in process.body[1:]:
        lines.append(f"{indent} | " + render_statement(statement))
    lines.append(f"{indent}|)")
    if process.locals:
        lines.append(f"{indent}where {_render_declarations(process.locals)};")
    lines.append("end;")
    return "\n".join(lines)
