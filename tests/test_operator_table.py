"""The operator table: every row walked against every engine that reads it.

``repro.signal.operators.OPERATORS`` holds each SIGNAL operator's meaning
once.  For every row this suite checks that:

* the interpreter and the generated step kernels compute the same value, or
  raise the same exception type with the same message, over the operands
  -4..4, the booleans and the event;
* every result lies in the row's interval transfer, over every operand
  interval inside -4..4;
* where the row has a circuit, the finite-integer BDD engine and the
  explicit explorer reach the same reactions of ``z := x op y`` over a
  small signed input domain;
* where it has none, the BDD engine's refusal names the operator;
* its concrete syntax (if any) survives render -> parse unchanged.

It also pins the README's operator-coverage table against the rows.
"""

import dataclasses
import itertools
import re
from pathlib import Path

import pytest

from repro.core.values import ABSENT, EVENT
from repro.signal import operators
from repro.signal.ast import BinaryOp, Constant, FunctionCall, SignalRef, UnaryOp
from repro.signal.dsl import ProcessBuilder
from repro.signal.operators import OPERATORS, EvaluationError, apply_binary
from repro.signal.parser import parse_expression
from repro.signal.printer import render_expression
from repro.simulation import STEP_COMPILE_MODES, CompiledProcess, SimulationError
from repro.verification import EncodingError, explore, infer_ranges
from repro.verification.explorer import ExplorationOptions
from repro.verification.symbolic_int import IntSymbolicEngine

ROWS = list(OPERATORS.values())
TRANSFERRED = [row for row in ROWS if row.transfer is not None]
UNENCODED = [row for row in ROWS if row.circuit is None]


def _ids(rows):
    return [f"{row.kind}:{row.name}" for row in rows]


def _has_syntax(row):
    """Intrinsics are written as calls; an operator without a level has no syntax."""
    return row.kind == "intrinsic" or row.level is not None

VALUES = [*range(-4, 5), True, False, EVENT]
SIGNED = (-2, -1, 0, 1, 2)


def _application(row, *operands):
    if row.kind == "unary":
        return UnaryOp(row.name, operands[0])
    if row.kind == "binary":
        return BinaryOp(row.name, *operands)
    return FunctionCall(row.name, operands)


def _process(row, operand_type="integer", divisor=None):
    """``z := op(x[, y])`` over inputs of ``operand_type`` (a constant divisor
    replaces ``y`` when given)."""
    builder = ProcessBuilder("Op")
    names = ["x", "y"][: len(row.operands)]
    operands = [builder.input(name, operand_type) for name in names]
    if divisor is not None:
        operands[1:] = [Constant(divisor)]
    result = "integer" if row.result == "int" else "boolean"
    builder.define(builder.output("z", result), _application(row, *operands))
    return builder.build()


def _outcome(compiled, stimulus):
    try:
        _, instant = compiled.step(compiled.initial_state(), stimulus)
    except (SimulationError, EvaluationError, TypeError) as error:
        return ("error", type(error).__name__, str(error))
    return ("value", type(instant["z"]), instant["z"])


# --------------------------------------------------------------------------- the table itself

def test_table_is_immutable():
    with pytest.raises(TypeError):
        OPERATORS["intrinsic", "triple"] = OPERATORS["intrinsic", "abs"]
    with pytest.raises(dataclasses.FrozenInstanceError):
        OPERATORS["binary", "+"].function = lambda a, b: 0
    assert not hasattr(operators, "register_intrinsic")
    assert not hasattr(operators, "INTRINSIC_FUNCTIONS")


@pytest.mark.parametrize(
    "left,right,quotient",
    [(7, 2, 3), (-7, 2, -3), (7, -2, -3), (-7, -2, 3), (-(2**60 + 1), 3, -384307168202282325)],
)
def test_division_truncates_toward_zero_exactly(left, right, quotient):
    assert apply_binary("/", left, right) == quotient


@pytest.mark.parametrize(
    "op,right,message",
    [("/", 0, "division by zero"), ("mod", 0, "modulo by zero"),
     (">>", -1, "negative shift count"), ("<<", -1, "negative shift count")],
)
def test_domain_errors_are_evaluation_errors(op, right, message):
    with pytest.raises(EvaluationError, match=message):
        apply_binary(op, 3, right)


# --------------------------------------------------------------------------- interp = codegen

@pytest.mark.parametrize("row", ROWS, ids=_ids(ROWS))
def test_interpreter_and_kernels_agree(row):
    """Same value (and type), or same exception type and message."""
    compiled = {mode: CompiledProcess(_process(row), compile=mode) for mode in STEP_COMPILE_MODES}
    names = ["x", "y"][: len(row.operands)]
    for values in itertools.product(VALUES, repeat=len(names)):
        stimulus = dict(zip(names, values))
        outcomes = {mode: _outcome(compiled[mode], stimulus) for mode in STEP_COMPILE_MODES}
        assert outcomes["interp"] == outcomes["codegen"], (row.name, stimulus)


# --------------------------------------------------------------------------- transfers

INTERVALS = [(lo, hi) for lo in range(-4, 5) for hi in range(lo, 5)]


@pytest.mark.parametrize("row", TRANSFERRED, ids=_ids(TRANSFERRED))
def test_results_lie_in_the_transfer_interval(row):
    for intervals in itertools.product(INTERVALS, repeat=len(row.operands)):
        bound = row.transfer(*intervals)
        if bound is None:
            continue
        for values in itertools.product(*(range(lo, hi + 1) for lo, hi in intervals)):
            try:
                result = row.function(*values)
            except EvaluationError:
                continue
            assert bound[0] <= result <= bound[1], (row.name, intervals, values, bound)


# --------------------------------------------------------------------------- circuits

def _circuit_cases():
    for row in ROWS:
        if row.circuit is None:
            continue
        if row.operands[0] == "bool":
            yield row, "boolean", None, SIGNED
        elif row.name == "mod":
            yield row, "integer", 3, SIGNED
        elif row.name == "*":
            # The multiplier bit-blasts non-negative ranges only.
            yield row, "integer", None, (0, 1, 2)
        else:
            yield row, "integer", None, SIGNED
            if row.operands[0] == "any":
                yield row, "boolean", None, SIGNED


CIRCUIT_CASES = list(_circuit_cases())


def _alphabet(process, domain):
    compiled = CompiledProcess(process)
    explicit = explore(compiled, ExplorationOptions(integer_domain=domain))
    engine = IntSymbolicEngine(compiled, ranges=infer_ranges(compiled, integer_domain=domain))
    symbolic = engine.reach()
    interface = set(process.input_names) | set(process.output_names)
    projected = {
        frozenset(
            (name, value)
            for name, value in reaction.items()
            if name in interface and value is not ABSENT
        )
        for reaction in engine.reactions_of(symbolic.states)
    }
    return explicit, projected


@pytest.mark.parametrize(
    "row,operand_type,divisor,domain",
    CIRCUIT_CASES,
    ids=[f"{row.kind}:{row.name}:{kind}" for row, kind, _d, _v in CIRCUIT_CASES],
)
def test_circuit_reaches_what_the_explorer_reaches(row, operand_type, divisor, domain):
    explicit, symbolic = _alphabet(_process(row, operand_type, divisor), domain)
    assert explicit.complete
    assert symbolic == explicit.lts.alphabet()
    assert any(dict(reaction).get("z") is not None for reaction in symbolic)


def test_multiplier_refuses_signed_operands():
    with pytest.raises(EncodingError, match="non-negative"):
        _alphabet(_process(OPERATORS["binary", "*"]), SIGNED)


@pytest.mark.parametrize("row", UNENCODED, ids=_ids(UNENCODED))
def test_refusal_names_the_operator(row):
    """Refused by the range inference (an integer result) and by the
    bit-blaster (the same operator under a boolean comparison)."""
    compared = ProcessBuilder("Compared")
    operands = [compared.input(name, "integer") for name in ["x", "y"][: len(row.operands)]]
    compared.define(compared.output("b", "boolean"), BinaryOp("=", _application(row, *operands), 0))
    for process in (_process(row), compared.build()):
        compiled = CompiledProcess(process)
        with pytest.raises(EncodingError, match=re.escape(repr(row.name))):
            IntSymbolicEngine(compiled, ranges=infer_ranges(compiled, integer_domain=SIGNED))


# --------------------------------------------------------------------------- concrete syntax

def _syntax_cases():
    x, y = SignalRef("x"), SignalRef("y")
    for row in ROWS:
        if not _has_syntax(row):
            continue
        if row.kind == "unary":
            yield UnaryOp(row.name, x)
            yield UnaryOp(row.name, UnaryOp(row.name, x))
            yield UnaryOp(row.name, BinaryOp("+", x, y))
            yield BinaryOp("*", UnaryOp(row.name, x), y)
        elif row.kind == "binary":
            yield BinaryOp(row.name, x, y)
            yield BinaryOp(row.name, BinaryOp(row.name, x, y), x)
            yield BinaryOp(row.name, x, BinaryOp(row.name, y, x))
            yield BinaryOp(row.name, BinaryOp("or", x, y), BinaryOp("*", x, y))
            yield UnaryOp("not", BinaryOp(row.name, x, y))
        else:
            yield FunctionCall(row.name, [BinaryOp("+", x, Constant(1)), y][: len(row.operands)])


@pytest.mark.parametrize("expression", list(_syntax_cases()), ids=repr)
def test_render_then_parse_is_identity(expression):
    assert parse_expression(render_expression(expression)) == expression


def test_bar_has_no_concrete_syntax():
    assert not _has_syntax(OPERATORS["binary", "|"])


# --------------------------------------------------------------------------- README

README = Path(__file__).resolve().parent.parent / "README.md"


def _mark(facet):
    return "yes" if facet is not None else "no"


def coverage_table():
    lines = ["| operator | kind | interp | inline | range | circuit |", "|---|---|---|---|---|---|"]
    for row in ROWS:
        # A bar inside a table cell is escaped even in a code span.
        name = f"`{row.name}`".replace("|", "\\|") + ("" if _has_syntax(row) else " (no concrete syntax)")
        transfer = _mark(row.transfer) if row.result == "int" else "n/a"
        lines.append(
            f"| {name} | {row.kind} | yes | {_mark(row.inline)} | {transfer} | {_mark(row.circuit)} |"
        )
    return "\n".join(lines)


def test_readme_coverage_table_matches_the_rows():
    text = README.read_text()
    match = re.search(r"<!-- operator-table -->\n(.*?)\n<!-- /operator-table -->", text, re.DOTALL)
    assert match is not None, "README.md lacks the operator-coverage table"
    assert match.group(1) == coverage_table()
