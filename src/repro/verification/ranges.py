"""Finite-range inference for the integer signals of a SIGNAL process.

The finite-integer symbolic engine (:mod:`repro.verification.symbolic_int`)
bit-blasts every integer signal into ``ceil(log2(hi - lo + 1))`` BDD
variables, so it first needs a bounded range ``[lo, hi]`` for each of them.
This module computes those ranges by abstract interpretation over intervals:

* **declared** ranges come from :class:`~repro.signal.ast.SignalDeclaration`
  ``bounds`` (or a caller-supplied override) and are taken on faith — the
  engine later *checks* them against the reachable set and reports overflow
  instead of certifying unsound verdicts;
* **driven integer inputs** range over the exploration stimulus domain
  (``integer_domain``), exactly like the explicit explorer's alphabet;
* everything else is **inferred** by Kleene iteration from bottom: constants
  are point intervals, each operator applies its row's interval transfer
  (:data:`~repro.signal.operators.OPERATORS`: interval arithmetic, and
  ``x mod k`` is ``[0, k-1]`` for a positive point ``k``), delays and cells hull their
  operand with the initial value, merges hull both branches, and sampling by
  a comparison against a constant (``x when x < k``) *refines* the sampled
  interval — the idiom saturating designs bound themselves with.

A signal whose interval is still growing (or still bottom) when the iteration
budget runs out has no finite range the analysis can stand behind;
:func:`infer_ranges` then raises
:class:`~repro.verification.encoding.EncodingError` naming the offending
signals, and the workbench auto policy keeps routing such designs to the
explicit explorer.  An integer operator whose row has no transfer is
refused the same way, naming the operator (:func:`require`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Mapping, Optional, Sequence, Union

from ..core.values import EVENT
from ..signal.ast import (
    BinaryOp,
    Cell,
    Constant,
    Default,
    Delay,
    Expression,
    FunctionCall,
    ProcessDefinition,
    SignalRef,
    UnaryOp,
    When,
)
from ..signal.operators import EvaluationError, Interval, Operator, lookup
from ..simulation.compiler import CompiledProcess
from .encoding import EncodingError

#: Comparison operators usable as refining sampling conditions.
_REFINING_OPS = ("<", "<=", ">", ">=", "=")


def _hull(left: Interval, right: Interval) -> Interval:
    if left is None:
        return right
    if right is None:
        return left
    return (min(left[0], right[0]), max(left[1], right[1]))


@dataclass(frozen=True)
class RangeReport:
    """The outcome of range inference over one process.

    Attributes:
        signals: inclusive range per integer signal name.
        integer_domain: the stimulus alphabet assumed for driven integer inputs.
    """

    signals: Mapping[str, tuple[int, int]]
    integer_domain: tuple[int, ...]

    def range_of(self, name: str) -> tuple[int, int]:
        return self.signals[name]

    def potential_states(self, compiled: CompiledProcess) -> int:
        """Product of the state-slot domain sizes: the coarse static bound the
        workbench auto policy compares against the explicit engine's
        ``max_states`` (the integer analogue of 3^state-variables)."""
        product = 1
        for _key, node in compiled.stateful_nodes():
            interval = state_interval(node, self.signals, compiled.name)
            if interval is not None:
                size = interval[1] - interval[0] + 1
            else:
                size = 2  # boolean/event memory slot
            depth = node.depth if isinstance(node, Delay) else 1
            product *= size ** depth
        return product


def state_interval(
    node: Union[Delay, Cell], ranges: Mapping[str, tuple[int, int]], process: str
) -> Interval:
    """Interval stored by a stateful operator, when its operand is integer."""
    evaluator = _IntervalEvaluator(dict(ranges), process, refine=False)
    operand = evaluator.interval(node.operand)
    init = node.init
    if isinstance(init, bool) or init is EVENT or init is None:
        return operand if operand is not None else None
    return _hull(operand, (init, init))


def operator_row(node: Union[UnaryOp, BinaryOp, FunctionCall], process: str) -> Operator:
    """The operator-table row of a pointwise node; ``EncodingError`` when unknown."""
    if isinstance(node, FunctionCall):
        key = ("intrinsic", node.function)
    else:
        key = ("unary" if isinstance(node, UnaryOp) else "binary", node.op)
    try:
        return lookup(*key)
    except EvaluationError as error:
        raise EncodingError(f"{process}: {error}") from None


def require(row: Operator, facet: str, process: str) -> Callable[..., Any]:
    """A row's ``transfer`` or ``circuit``: the one place the finite-integer
    engine refuses an operator the table gives it no way to encode."""
    built = getattr(row, facet)
    if built is None:
        raise EncodingError(
            f"{process}: operator {row.name!r} has no {facet} in the operator table, so the "
            "finite-integer engine cannot encode it"
        )
    return built


class _IntervalEvaluator:
    """One monotone transfer step: expression -> interval, under an environment."""

    def __init__(self, environment: dict[str, Interval], process: str, refine: bool = True) -> None:
        self.environment = environment
        self.process = process
        self.refine = refine

    def interval(self, expression: Expression) -> Interval:
        if isinstance(expression, SignalRef):
            return self.environment.get(expression.name)
        if isinstance(expression, Constant):
            value = expression.value
            if isinstance(value, bool) or value is EVENT:
                return None
            if isinstance(value, int):
                return (value, value)
            return None
        if isinstance(expression, Delay):
            return self._stateful(expression)
        if isinstance(expression, Cell):
            return self._stateful(expression)
        if isinstance(expression, When):
            return self._when(expression)
        if isinstance(expression, Default):
            return _hull(self.interval(expression.left), self.interval(expression.right))
        if isinstance(expression, (UnaryOp, BinaryOp, FunctionCall)):
            row = operator_row(expression, self.process)
            if row.result != "int":
                return None  # comparisons and boolean connectives
            transfer = require(row, "transfer", self.process)
            return transfer(*(self.interval(operand) for operand in expression.children()))
        return None  # clocks: not integer-valued

    def _stateful(self, node: Union[Delay, Cell]) -> Interval:
        operand = self.interval(node.operand)
        init = node.init
        if isinstance(init, bool) or init is EVENT or init is None:
            return operand
        if isinstance(init, int):
            return _hull(operand, (init, init))
        return operand

    def _when(self, node: When) -> Interval:
        base = self.interval(node.operand)
        if not self.refine:
            return base
        refined = self._refined_environment(node.condition)
        if refined is not None:
            base = _IntervalEvaluator(refined, self.process).interval(node.operand)
        return base

    def _refined_environment(self, condition: Expression) -> Optional[dict[str, Interval]]:
        """Environment narrowed by a ``signal <op> constant`` sampling condition."""
        if not isinstance(condition, BinaryOp) or condition.op not in _REFINING_OPS:
            return None
        op, left, right = condition.op, condition.left, condition.right
        if isinstance(right, SignalRef) and isinstance(left, Constant):
            # Mirror "k op x" into "x op' k".
            left, right = right, left
            op = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "="}[op]
        if not (isinstance(left, SignalRef) and isinstance(right, Constant)):
            return None
        value = right.value
        if isinstance(value, bool) or not isinstance(value, int):
            return None
        current = self.environment.get(left.name)
        lo = current[0] if current is not None else None
        hi = current[1] if current is not None else None
        if op == "<":
            hi = value - 1 if hi is None else min(hi, value - 1)
        elif op == "<=":
            hi = value if hi is None else min(hi, value)
        elif op == ">":
            lo = value + 1 if lo is None else max(lo, value + 1)
        elif op == ">=":
            lo = value if lo is None else max(lo, value)
        else:  # "="
            lo, hi = value, value
        if lo is None or hi is None:
            return None
        environment = dict(self.environment)
        environment[left.name] = (lo, hi) if lo <= hi else None
        return environment


def infer_ranges(
    process: Union[ProcessDefinition, CompiledProcess],
    integer_domain: Sequence[int] = (0, 1),
    declared: Optional[Mapping[str, tuple[int, int]]] = None,
    max_rounds: int = 64,
    max_magnitude: int = 1 << 31,
) -> RangeReport:
    """Infer a finite range for every integer signal of ``process``.

    Args:
        process: the (expanded) process or its compiled form.
        integer_domain: stimulus values assumed for driven integer inputs —
            keep it equal to ``ExplorationOptions.integer_domain`` so the
            symbolic engine describes the same alphabet as the explorer.
        declared: per-signal overrides, taking precedence over declaration
            ``bounds``.
        max_rounds: Kleene iteration budget before giving up.
        max_magnitude: bound on interval endpoints — a runaway interval is
            reported as unbounded rather than iterated to the round budget.

    Raises:
        EncodingError: when some integer signal has no finite range (named in
            the message), or the declared stimulus domain is empty.
    """
    compiled = process if isinstance(process, CompiledProcess) else CompiledProcess(process)
    definition = compiled.definition
    if not integer_domain:
        raise EncodingError(f"{compiled.name}: empty integer stimulus domain")
    domain = tuple(int(v) for v in integer_domain)

    integer_signals = [
        name for name in compiled.signal_names if compiled.signal_types.get(name) == "integer"
    ]
    pinned: dict[str, tuple[int, int]] = {}
    for name in integer_signals:
        declaration = definition.declaration_of(name)
        if declared is not None and name in declared:
            lo, hi = declared[name]
            pinned[name] = (int(lo), int(hi))
        elif declaration is not None and declaration.bounds is not None:
            pinned[name] = declaration.bounds
        if name in compiled.input_names:
            # A driven input's window must cover the whole stimulus domain:
            # the explorer drives every domain value regardless of declared
            # bounds, and a window that cannot represent a driven value would
            # silently drop those reactions (with no overflow to audit, since
            # inputs have no defining equation).  Declared bounds on inputs
            # can therefore only widen the window, never narrow it.
            lo, hi = pinned.get(name, (min(domain), max(domain)))
            pinned[name] = (min(lo, min(domain)), max(hi, max(domain)))

    environment: dict[str, Interval] = {name: pinned.get(name) for name in integer_signals}
    definitions = [d for d in compiled.definitions if d.target in environment]

    for _round in range(max_rounds):
        changed = False
        evaluator = _IntervalEvaluator(environment, compiled.name)
        for definition_ in definitions:
            name = definition_.target
            if name in pinned:
                continue
            computed = evaluator.interval(definition_.expression)
            merged = _hull(environment[name], computed)
            if merged is not None and max(abs(merged[0]), abs(merged[1])) > max_magnitude:
                environment[name] = None
                break
            if merged != environment[name]:
                environment[name] = merged
                changed = True
        else:
            if not changed:
                break
            continue
        break  # magnitude blow-up: stop iterating, report below

    # A final transfer step detects non-convergence (still-growing intervals).
    evaluator = _IntervalEvaluator(environment, compiled.name)
    unbounded: list[str] = []
    for definition_ in definitions:
        name = definition_.target
        if name in pinned:
            continue
        computed = _hull(environment[name], evaluator.interval(definition_.expression))
        if computed is None or computed != environment[name] \
                or max(abs(computed[0]), abs(computed[1])) > max_magnitude:
            unbounded.append(name)
    for name, interval in environment.items():
        if interval is None and name not in unbounded:
            unbounded.append(name)
    if unbounded:
        raise EncodingError(
            f"{compiled.name}: no finite range could be inferred for integer signal(s) "
            f"{sorted(unbounded)}; declare bounds=(lo, hi) on the declaration (or pass "
            "ranges={...} to the finite-integer symbolic engine) to bit-blast them"
        )

    return RangeReport(
        signals={name: interval for name, interval in environment.items() if interval is not None},
        integer_domain=domain,
    )
