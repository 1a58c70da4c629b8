"""The operator table: every SIGNAL operator's meaning, written once.

One immutable row per unary operator, binary operator and intrinsic
function (:data:`OPERATORS`, keyed by ``(kind, name)``).  A row holds:

* ``function`` — the value computed when every operand is present: the
  interpreter (:mod:`repro.simulation.compiler`) applies it, and the
  generated step kernels (:mod:`repro.simulation.codegen`) bind it at
  compile time;
* ``inline`` — an optional Python template the kernels emit instead of the
  call: ``{0}``, ``{1}`` are the operand variables and ``{f}`` the bound
  ``function``, which a guarded template falls back to for its conversions
  and its errors;
* ``operands``/``result`` — the kinds (``"int"``, ``"bool"``, ``"any"``)
  the finite-integer engine (:mod:`repro.verification.symbolic_int`)
  encodes the operator at;
* ``level``/``chains`` — the binding strength of the concrete syntax and
  whether it associates, which the parser and the printer read (intrinsics
  are written as calls; an operator without a level has no syntax);
* ``transfer`` — an optional interval transfer for integer results
  (:mod:`repro.verification.ranges`); it receives one interval per operand,
  ``None`` meaning bottom;
* ``circuit`` — an optional circuit builder written against the bit-vector
  algebra the finite-integer engine passes in (``neg``/``conj``/``disj``/
  ``xor`` on booleans, ``negate``/``add``/``subtract``/``multiply``/
  ``modulo``/``equal``/``less``/``less_equal`` on integer payloads).

A row without a transfer or a circuit is refused by the finite-integer
engine with an ``EncodingError`` naming the operator.

The intrinsics model the "basic operations" of the paper's encoding of
SpecC statements (``rshift``, ``xand``, ``parity`` ...).  The *clock*
behaviour of operators (when results are present) is not defined here —
that is the business of the clock calculus and of the evaluation rules in
:mod:`repro.simulation.compiler`.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Any, Callable, Mapping, Optional

from ..core.values import EVENT

#: An inclusive integer interval, or None for "no information yet" (bottom).
Interval = Optional[tuple[int, int]]

#: Binding strengths of the operator syntax, loosest first.  The printer and
#: the parser place the non-operator forms (``default``, ``when``, the clock
#: operators, postfix ``$``/``cell``) around these.
LEVEL_OR = 4
LEVEL_AND = 5
LEVEL_NOT = 6
LEVEL_CMP = 7
LEVEL_ADD = 8
LEVEL_MUL = 9
LEVEL_UNARY = 10


class EvaluationError(Exception):
    """Raised when an operator is applied to values outside its domain."""


def _as_int(value: Any) -> int:
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, int):
        return value
    raise EvaluationError(f"expected an integer value, got {value!r}")


def _as_bool(value: Any) -> bool:
    if isinstance(value, bool):
        return value
    if value is EVENT:
        return True
    if isinstance(value, int):
        return bool(value)
    raise EvaluationError(f"expected a boolean value, got {value!r}")


def _div(a: Any, b: Any) -> int:
    """Integer division truncating toward zero, in exact integer arithmetic."""
    denominator = _as_int(b)
    if denominator == 0:
        raise EvaluationError("division by zero")
    numerator = _as_int(a)
    quotient = abs(numerator) // abs(denominator)
    return quotient if (numerator < 0) == (denominator < 0) else -quotient


def _mod(a: Any, b: Any) -> int:
    dividend, divisor = _as_int(a), _as_int(b)
    if divisor == 0:
        raise EvaluationError("modulo by zero")
    return dividend % divisor


def _shift_count(value: Any) -> int:
    count = _as_int(value)
    if count < 0:
        raise EvaluationError("negative shift count")
    return count


def _guarded(symbol: str, nonzero: bool = False) -> str:
    """Inline template: the Python operator on two plain ints (and, for
    ``nonzero``, a non-zero right operand); anything else takes ``{f}``."""
    guard = "type({0}) is int and type({1}) is int" + (" and {1}" if nonzero else "")
    return f"(({{0}} {symbol} {{1}}) if {guard} else {{f}}({{0}}, {{1}}))"


def _strict(transfer: Callable[..., Interval]) -> Callable[..., Interval]:
    """A transfer that is bottom whenever one of its operands is."""

    def strict(*intervals: Interval) -> Interval:
        return None if None in intervals else transfer(*intervals)

    return strict


def _product(a: tuple[int, int], b: tuple[int, int]) -> Interval:
    corners = [x * y for x in a for y in b]
    return (min(corners), max(corners))


def _modulo_transfer(a: Interval, b: Interval) -> Interval:
    # x mod k for a positive point k is bounded whatever x is — the base
    # case that lets modulo counters converge without declarations.
    if b is not None and b[0] == b[1] and b[0] > 0:
        return (0, b[0] - 1)
    return None


@dataclass(frozen=True)
class Operator:
    """One row of the operator table (see the module docstring)."""

    kind: str  # "unary", "binary" or "intrinsic"
    name: str
    function: Callable[..., Any]
    operands: tuple[str, ...]
    result: str
    inline: Optional[str] = None
    level: Optional[int] = None
    chains: bool = True
    transfer: Optional[Callable[..., Interval]] = None
    circuit: Optional[Callable[..., Any]] = None


_INT2, _BOOL2, _ANY2 = ("int", "int"), ("bool", "bool"), ("any", "any")


def _comparison(name: str, function: Callable[[Any, Any], Any], symbol: str, circuit) -> Operator:
    return Operator(
        "binary", name, function, _INT2, "bool", inline=_guarded(symbol), level=LEVEL_CMP,
        chains=False, circuit=circuit,
    )


_ROWS = (
    # -- unary operators
    Operator("unary", "not", lambda a: not _as_bool(a), ("bool",), "bool", level=LEVEL_NOT,
             circuit=lambda c, a: c.neg(a)),
    Operator("unary", "-", lambda a: -_as_int(a), ("int",), "int", level=LEVEL_UNARY,
             transfer=_strict(lambda a: (-a[1], -a[0])), circuit=lambda c, a: c.negate(a)),
    Operator("unary", "+", lambda a: _as_int(a), ("int",), "int", level=LEVEL_UNARY,
             transfer=_strict(lambda a: a), circuit=lambda c, a: a),
    # -- binary operators
    Operator("binary", "+", lambda a, b: _as_int(a) + _as_int(b), _INT2, "int", inline=_guarded("+"),
             level=LEVEL_ADD, transfer=_strict(lambda a, b: (a[0] + b[0], a[1] + b[1])),
             circuit=lambda c, a, b: c.add(a, b)),
    Operator("binary", "-", lambda a, b: _as_int(a) - _as_int(b), _INT2, "int", inline=_guarded("-"),
             level=LEVEL_ADD, transfer=_strict(lambda a, b: (a[0] - b[1], a[1] - b[0])),
             circuit=lambda c, a, b: c.subtract(a, b)),
    Operator("binary", "*", lambda a, b: _as_int(a) * _as_int(b), _INT2, "int", inline=_guarded("*"),
             level=LEVEL_MUL, transfer=_strict(_product), circuit=lambda c, a, b: c.multiply(a, b)),
    Operator("binary", "/", _div, _INT2, "int", level=LEVEL_MUL),
    Operator("binary", "mod", _mod, _INT2, "int", inline=_guarded("%", nonzero=True), level=LEVEL_MUL,
             transfer=_modulo_transfer, circuit=lambda c, a, b: c.modulo(a, b)),
    Operator("binary", "=", lambda a, b: a == b, _ANY2, "bool", inline="({0} == {1})", level=LEVEL_CMP,
             chains=False, circuit=lambda c, a, b: c.equal(a, b)),
    Operator("binary", "/=", lambda a, b: a != b, _ANY2, "bool", inline="({0} != {1})", level=LEVEL_CMP,
             chains=False, circuit=lambda c, a, b: c.neg(c.equal(a, b))),
    _comparison("<", lambda a, b: _as_int(a) < _as_int(b), "<", lambda c, a, b: c.less(a, b)),
    _comparison("<=", lambda a, b: _as_int(a) <= _as_int(b), "<=", lambda c, a, b: c.less_equal(a, b)),
    _comparison(">", lambda a, b: _as_int(a) > _as_int(b), ">", lambda c, a, b: c.less(b, a)),
    _comparison(">=", lambda a, b: _as_int(a) >= _as_int(b), ">=", lambda c, a, b: c.less_equal(b, a)),
    Operator("binary", "and", lambda a, b: _as_bool(a) and _as_bool(b), _BOOL2, "bool", level=LEVEL_AND,
             circuit=lambda c, a, b: c.conj(a, b)),
    Operator("binary", "or", lambda a, b: _as_bool(a) or _as_bool(b), _BOOL2, "bool", level=LEVEL_OR,
             circuit=lambda c, a, b: c.disj(a, b)),
    Operator("binary", "xor", lambda a, b: _as_bool(a) != _as_bool(b), _BOOL2, "bool", level=LEVEL_OR,
             circuit=lambda c, a, b: c.xor(a, b)),
    Operator("binary", "&", lambda a, b: _as_int(a) & _as_int(b), _INT2, "int", level=LEVEL_MUL),
    # ``|`` has no concrete syntax — the token is SIGNAL's composition — yet
    # the SpecC translation builds it; the printer writes it for reading only.
    Operator("binary", "|", lambda a, b: _as_int(a) | _as_int(b), _INT2, "int"),
    Operator("binary", ">>", lambda a, b: _as_int(a) >> _shift_count(b), _INT2, "int", level=LEVEL_MUL),
    Operator("binary", "<<", lambda a, b: _as_int(a) << _shift_count(b), _INT2, "int", level=LEVEL_MUL),
    # -- intrinsic functions
    # ``rshift(x)``: shift right by one bit (the ``data >>= 1`` of the SpecC ones).
    Operator("intrinsic", "rshift", lambda x: _as_int(x) >> 1, ("int",), "int"),
    # ``lshift(x)``: shift left by one bit.
    Operator("intrinsic", "lshift", lambda x: _as_int(x) << 1, ("int",), "int"),
    # ``xand(x, y)``: bitwise and (the ``data & mask`` of the SpecC ones).
    Operator("intrinsic", "xand", lambda x, y: _as_int(x) & _as_int(y), _INT2, "int"),
    # ``xor_bits(x, y)``: bitwise xor, used by the even/parity behaviors.
    Operator("intrinsic", "xor_bits", lambda x, y: _as_int(x) ^ _as_int(y), _INT2, "int"),
    # ``parity(x)``: parity (number of 1 bits modulo 2) — the EPC reference function.
    Operator("intrinsic", "parity", lambda x: bin(_as_int(x) & 0xFFFFFFFF).count("1") % 2, ("int",), "int"),
    # ``popcount(x)``: number of one bits — the value the ``ones`` behavior computes.
    Operator("intrinsic", "popcount", lambda x: bin(_as_int(x) & 0xFFFFFFFF).count("1"), ("int",), "int"),
    # ``min`` / ``max`` / ``abs``: ordinary arithmetic helpers.
    Operator("intrinsic", "min", lambda x, y: min(_as_int(x), _as_int(y)), _INT2, "int"),
    Operator("intrinsic", "max", lambda x, y: max(_as_int(x), _as_int(y)), _INT2, "int"),
    Operator("intrinsic", "abs", lambda x: abs(_as_int(x)), ("int",), "int"),
)

#: The operator table, read-only: ``(kind, name) -> Operator``.
OPERATORS: Mapping[tuple[str, str], Operator] = MappingProxyType({(row.kind, row.name): row for row in _ROWS})

_NOUNS = {"unary": "unary operator", "binary": "binary operator", "intrinsic": "intrinsic function"}


def lookup(kind: str, name: str) -> Operator:
    """The row of an operator; ``EvaluationError`` when the table has none."""
    try:
        return OPERATORS[kind, name]
    except KeyError:
        raise EvaluationError(f"unknown {_NOUNS[kind]} {name!r}") from None


def apply_binary(op: str, left: Any, right: Any) -> Any:
    """Apply a binary operator to two present values."""
    return lookup("binary", op).function(left, right)


def apply_unary(op: str, operand: Any) -> Any:
    """Apply a unary operator to a present value."""
    return lookup("unary", op).function(operand)


def apply_intrinsic(name: str, *arguments: Any) -> Any:
    """Apply an intrinsic function to present values."""
    return lookup("intrinsic", name).function(*arguments)


def truthy(value: Any) -> bool:
    """Interpret a present value as a sampling condition (SIGNAL ``when``)."""
    return _as_bool(value)
