"""Encoding of SIGNAL control skeletons as polynomial dynamical systems over Z/3Z.

Sigali, the model checker of the Polychrony platform, abstracts a SIGNAL
process into a polynomial dynamical system: boolean/event signals become
ternary variables (absent / true / false), every equation becomes a polynomial
constraint, every delay becomes a state variable with a polynomial transition
function.  This module reproduces that encoding for the boolean/event fragment
of a process (its *control skeleton* — integer data is abstracted away exactly
as Sigali does) and provides reachability and invariant checking by solution
enumeration, adequate for the control parts of the paper's case study.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Mapping, Optional

from ..signal.ast import (
    BinaryOp,
    ClockBinary,
    ClockConstraint,
    ClockOf,
    Constant,
    Default,
    Definition,
    Delay,
    Expression,
    ProcessDefinition,
    SignalRef,
    UnaryOp,
    When,
    expand,
)
from ..core.values import EVENT
from .reachability import (
    BoundReached,
    CheckResult,
    Reachability,
    ReactionPredicate,
    Trace,
    TraceStep,
)
from .z3z import (
    FIELD,
    Polynomial,
    PolynomialSystem,
    absence,
    from_code,
    presence,
    to_code,
)


class EncodingError(Exception):
    """Raised when an expression falls outside the boolean/event fragment."""


@dataclass
class PolynomialDynamicalSystem:
    """A Sigali-style model: constraints, state variables and transitions.

    Attributes:
        name: name of the encoded process.
        signal_variables: ternary variable per (boolean/event) signal.
        state_variables: ternary variable per delay operator, with initial code.
        constraints: instantaneous constraints (polynomials that must be 0).
        transitions: next-state polynomial for every state variable.
    """

    name: str
    signal_variables: list[str] = field(default_factory=list)
    state_variables: dict[str, int] = field(default_factory=dict)
    constraints: PolynomialSystem = field(default_factory=PolynomialSystem)
    transitions: dict[str, Polynomial] = field(default_factory=dict)
    inputs: tuple[str, ...] = ()
    outputs: tuple[str, ...] = ()

    # -- instantaneous relation -------------------------------------------------------

    def admissible_reactions(self, state: Mapping[str, int]) -> Iterator[dict[str, int]]:
        """Enumerate the signal assignments compatible with ``state``.

        Backtracking search: each constraint is checked as soon as the last
        signal of its support is assigned, pruning the 3^signals product down
        to the admissible branches (the difference between milliseconds and
        minutes on designs with a dozen signals).
        """
        names = self.signal_variables
        position = {name: index for index, name in enumerate(names)}
        ready: list[list[Polynomial]] = [[] for _ in range(len(names) + 1)]
        for constraint in self.constraints.constraints:
            undecided = [position[v] for v in constraint.variables() if v in position]
            ready[max(undecided) + 1 if undecided else 0].append(constraint)

        assignment = dict(state)

        def backtrack(index: int) -> Iterator[dict[str, int]]:
            for constraint in ready[index]:
                if constraint.evaluate(assignment) != 0:
                    return
            if index == len(names):
                yield {name: assignment[name] for name in names}
                return
            name = names[index]
            for value in FIELD:
                assignment[name] = value
                yield from backtrack(index + 1)
            del assignment[name]

        yield from backtrack(0)

    def next_state(self, state: Mapping[str, int], reaction: Mapping[str, int]) -> dict[str, int]:
        """Apply the polynomial transition functions."""
        assignment = dict(state)
        assignment.update(reaction)
        return {name: poly.evaluate(assignment) for name, poly in self.transitions.items()}

    def initial_state(self) -> dict[str, int]:
        """The initial valuation of the state variables."""
        return dict(self.state_variables)

    # -- exploration ---------------------------------------------------------------------

    def _explore(
        self,
        max_states: int,
        visit: Optional[Any] = None,
        parents: Optional[dict] = None,
    ) -> tuple[set[tuple[tuple[str, int], ...]], bool]:
        """Shared breadth-first search core: reachable frozen states, plus a completeness flag.

        ``visit(state, reaction)`` is called on every reachable (state,
        reaction) pair; returning a non-``None`` value aborts the search (used
        by invariant checking to stop at the first violation).  When
        ``parents`` is given it is filled with discovery parent pointers —
        ``parents[successor] = (state, reaction)``, all frozen — which, with
        the breadth-first order, makes the recorded path to every state a
        shortest one: the skeleton of counterexample-trace extraction.
        """
        initial = tuple(sorted(self.initial_state().items()))
        seen = {initial}
        frontier = deque([initial])
        complete = True
        while frontier:
            current = frontier.popleft()
            state = dict(current)
            for reaction in self.admissible_reactions(state):
                if visit is not None and visit(state, reaction) is not None:
                    return seen, complete
                successor = tuple(sorted(self.next_state(state, reaction).items()))
                if successor not in seen:
                    if len(seen) >= max_states:
                        complete = False
                        continue
                    seen.add(successor)
                    if parents is not None:
                        parents[successor] = (current, tuple(sorted(reaction.items())))
                    frontier.append(successor)
        return seen, complete

    def check_invariant(self, invariant: Polynomial, max_states: int = 5000) -> bool:
        """True when ``invariant = 0`` holds for every reachable reaction.

        Raises:
            TypeError: when handed a :class:`ReactionPredicate`, which
                ``evaluate`` would silently misread as a polynomial; reaction
                predicates are checked by the engine, ``self.explore()``.
            BoundReached: when no violation was found but the search was
                truncated at ``max_states`` — a ``True`` would be unsound.
        """
        if isinstance(invariant, ReactionPredicate):
            raise TypeError(
                "PolynomialDynamicalSystem.check_invariant takes a Polynomial; "
                "check a ReactionPredicate with .explore().check_invariant(predicate)"
            )
        violated = []

        def visit(state: dict[str, int], reaction: dict[str, int]) -> Optional[bool]:
            assignment = dict(state)
            assignment.update(reaction)
            if invariant.evaluate(assignment) != 0:
                violated.append(True)
                return True
            return None

        _, complete = self._explore(max_states, visit)
        if not violated and not complete:
            raise BoundReached(
                f"{self.name}: invariant search truncated at max_states={max_states}; "
                "no violation found below the bound, but the verdict would be unsound"
            )
        return not violated

    def explore(self, max_states: int = 5000) -> "PolynomialReachability":
        """Explicit exploration packaged behind the shared Reachability interface."""
        return PolynomialReachability(self, max_states)

    def decode_reaction(self, reaction: Mapping[str, int]) -> dict[str, Any]:
        """Translate a ternary reaction back into signal statuses."""
        return {name: from_code(code) for name, code in reaction.items()}


class PolynomialReachability(Reachability):
    """Explicit enumeration over a polynomial dynamical system.

    The third backend of the differential test suite: it shares the encoding
    with the symbolic engine (so state counts are directly comparable) but
    explores state by state like the explicit explorer.  The distinct
    admissible reactions encountered during the construction search are cached,
    so every predicate check afterwards is a scan of that cache instead of a
    fresh ``O(states × 3^signals)`` enumeration.
    """

    def __init__(self, system: PolynomialDynamicalSystem, max_states: int = 5000) -> None:
        self.system = system
        self.max_states = max_states
        # Parent pointers of the construction BFS plus the first state each
        # distinct reaction was seen admissible in: together they turn any
        # cached reaction into a concrete initial-state-to-reaction trace
        # without re-exploring.
        self._parents: dict[tuple, tuple] = {}
        sites: dict[tuple, tuple] = {}

        def record(state: Mapping[str, int], reaction: Mapping[str, int]) -> None:
            frozen = tuple(sorted(reaction.items()))
            if frozen not in sites:
                sites[frozen] = tuple(sorted(state.items()))
            return None

        self._states, self._complete = system._explore(max_states, record, self._parents)
        self._reaction_sites = sites
        self._reactions = [
            (frozen, system.decode_reaction(dict(frozen))) for frozen in sorted(sites)
        ]

    @property
    def state_count(self) -> int:
        """Number of reachable ternary state valuations."""
        return len(self._states)

    @property
    def complete(self) -> bool:
        """False when the ``max_states`` bound truncated the search."""
        return self._complete

    def statistics(self) -> dict:
        """Explicit-enumeration statistics: states and distinct reactions."""
        return {
            "states": self.state_count,
            "distinct_reactions": len(self._reactions),
            "bound_reached": not self._complete,
        }

    def reactions(self) -> list[dict[str, Any]]:
        """The distinct decoded reactions reachable states admit (copies)."""
        return [dict(decoded) for _frozen, decoded in self._reactions]

    def _scan(self, predicate: ReactionPredicate) -> Optional[tuple[tuple, dict[str, Any]]]:
        """First reachable (frozen, decoded) reaction satisfying ``predicate``, if any."""
        self._validate_signals(
            predicate.signals(), self.system.signal_variables, self.system.name, "predicate"
        )
        for frozen, decoded in self._reactions:
            if predicate.evaluate(decoded):
                return frozen, dict(decoded)
        return None

    def trace_to(self, predicate: ReactionPredicate, name: str = "trace") -> Optional[Trace]:
        """A trace to a reaction satisfying ``predicate``, from the cached BFS.

        The construction search recorded, for every state, the (parent,
        reaction) pair that discovered it and, for every distinct reaction,
        the first state admitting it; the trace is the parent chain to that
        state followed by the satisfying reaction itself.  States are ternary
        valuations of the encoding's state variables.
        """
        found = self._scan(predicate)
        if found is None:
            self._require_complete(name)
            return None
        frozen, decoded = found
        system = self.system
        site = self._reaction_sites[frozen]
        spine: list[tuple[tuple, tuple]] = []  # (frozen reaction, frozen successor)
        cursor = site
        while cursor in self._parents:
            parent, reaction = self._parents[cursor]
            spine.append((reaction, cursor))
            cursor = parent
        spine.reverse()
        steps = [
            TraceStep(system.decode_reaction(dict(reaction)), dict(successor))
            for reaction, successor in spine
        ]
        steps.append(TraceStep(decoded, system.next_state(dict(site), dict(frozen))))
        return Trace(tuple(steps), name)

    def check_invariant(self, predicate: ReactionPredicate, name: str = "invariant") -> CheckResult:
        """AG over reactions, against the cached reachable reaction alphabet."""
        found = self._scan(~predicate)
        if found is None:
            self._require_complete(name)
            return CheckResult(True, name, details=f"{self.state_count} reachable states")
        return CheckResult(False, name, details=f"violating reaction {found[1]}")

    def check_reachable(self, predicate: ReactionPredicate, name: str = "reachability") -> CheckResult:
        """EF over reactions."""
        found = self._scan(predicate)
        if found is None:
            self._require_complete(name)
            return CheckResult(False, name, details="no reachable reaction satisfies the predicate")
        return CheckResult(True, name, details=f"witness reaction {found[1]}")


class SigaliEncoder:
    """Translate the boolean/event fragment of a process into polynomials."""

    def __init__(self, process: ProcessDefinition) -> None:
        self.process = expand(process)
        self.system = PolynomialDynamicalSystem(
            name=process.name,
            inputs=tuple(self.process.input_names),
            outputs=tuple(self.process.output_names),
        )
        self._delay_counter = 0
        self._aux_counter = 0

    # -- public API ---------------------------------------------------------------------

    def encode(self) -> PolynomialDynamicalSystem:
        """Run the encoding.

        Raises:
            EncodingError: when the process uses non-boolean data in a way
                that cannot be abstracted (integer arithmetic in the control
                skeleton).
        """
        for name in self.process.all_names:
            declaration = self.process.declaration_of(name)
            type_ = declaration.type if declaration is not None else "boolean"
            if type_ not in ("boolean", "event"):
                raise EncodingError(
                    f"{self.process.name}: signal {name!r} has type {type_}; "
                    "the Sigali encoding covers the boolean/event control skeleton only"
                )
            self.system.signal_variables.append(name)
            if type_ == "event":
                # An event carries no value: its code is 0 or 1, never 2
                # (present-false), which the constraint x² = x pins down.
                variable = Polynomial.variable(name)
                self.system.constraints.add(variable * variable - variable)
        for definition in self.process.definitions():
            target = Polynomial.variable(definition.target)
            encoded = self._encode_expression(definition.expression)
            self.system.constraints.add(target - encoded)
        for constraint in self.process.clock_constraints():
            self._encode_clock_constraint(constraint)
        return self.system

    # -- expressions ----------------------------------------------------------------------

    def _fresh_state(self, initial_code: int) -> str:
        self._delay_counter += 1
        name = f"__state{self._delay_counter}"
        self.system.state_variables[name] = initial_code
        return name

    def _encode_expression(self, expression: Expression) -> Polynomial:
        if isinstance(expression, SignalRef):
            return Polynomial.variable(expression.name)
        if isinstance(expression, Constant):
            # A constant adapts its clock to the context; Sigali models it as a
            # signal always carrying the constant, constrained elsewhere.  For
            # the fragment we need (event/boolean constants under ``when``), the
            # code of the constant value is adequate.
            return Polynomial.constant(to_code(expression.value if expression.value is not EVENT else True))
        if isinstance(expression, Delay):
            operand = self._encode_expression(expression.operand)
            state = self._fresh_state(to_code(expression.init if expression.init is not None else False))
            state_poly = Polynomial.variable(state)
            # The delayed signal is present exactly when its operand is and
            # carries the stored value: result = state * operand².
            result = state_poly * (operand * operand)
            # Next state: keep the old value when the operand is absent,
            # take the operand's value otherwise.
            next_state = operand + (Polynomial.constant(1) - operand * operand) * state_poly
            self.system.transitions[state] = next_state
            return result
        if isinstance(expression, When):
            operand = self._encode_expression(expression.operand)
            condition = self._encode_expression(expression.condition)
            return operand * (-condition - condition * condition)
        if isinstance(expression, Default):
            left = self._encode_expression(expression.left)
            right = self._encode_expression(expression.right)
            return left + (Polynomial.constant(1) - left * left) * right
        if isinstance(expression, ClockOf):
            operand = self._encode_expression(expression.operand)
            return operand * operand
        if isinstance(expression, UnaryOp) and expression.op == "not":
            return -self._encode_expression(expression.operand)
        if isinstance(expression, BinaryOp):
            left = self._encode_expression(expression.left)
            right = self._encode_expression(expression.right)
            if expression.op == "and":
                xy = left * right
                return xy * (xy - left - right - 1)
            if expression.op == "or":
                xy = left * right
                return xy * (1 - left - right - xy)
            if expression.op in ("=", "xor", "/="):
                # x*y is 1 when both carry the same truth value, -1 when they
                # differ, 0 when either is absent.
                eq = left * right
                if expression.op == "=":
                    return eq
                return -eq
            raise EncodingError(
                f"{self.process.name}: operator {expression.op!r} is outside the boolean fragment"
            )
        if isinstance(expression, ClockBinary):
            left = self._encode_expression(expression.left)
            right = self._encode_expression(expression.right)
            left_clock = left * left
            right_clock = right * right
            if expression.op == "^*":
                return left_clock * right_clock
            if expression.op == "^+":
                return left_clock + right_clock - left_clock * right_clock
            return left_clock * (Polynomial.constant(1) - right_clock)
        raise EncodingError(f"{self.process.name}: cannot encode {expression!r} over Z/3Z")

    def _encode_clock_constraint(self, constraint: ClockConstraint) -> None:
        encoded = [self._encode_expression(operand) for operand in constraint.operands]
        squares = [poly * poly for poly in encoded]
        if constraint.kind == "=":
            for left, right in zip(squares, squares[1:]):
                self.system.constraints.add(left - right)
        elif constraint.kind == "<":
            head = squares[0]
            for other in squares[1:]:
                # head ⊆ other: head * (1 - other) = 0
                self.system.constraints.add(head * (Polynomial.constant(1) - other))
        else:  # ">"
            head = squares[0]
            for other in squares[1:]:
                self.system.constraints.add(other * (Polynomial.constant(1) - head))


def encode_process(process: ProcessDefinition) -> PolynomialDynamicalSystem:
    """Convenience wrapper around :class:`SigaliEncoder`."""
    return SigaliEncoder(process).encode()
