"""Compilation of SIGNAL processes into executable reaction machines.

The *compiled* form of a process definition is the structure the operational
semantics runs on: the flattened list of equations and clock constraints, the
set of stateful operators (delays and cells) with their state slots, the
declared signal types, the order of one fixpoint pass, and an evaluator that
resolves one reaction (one logical instant) by fixpoint propagation over the
equations.

The pass order is the static schedule of the process: clock-equality
constraints propagate first, then the equations run in the dependency order
of :mod:`repro.simulation.scheduler`, members of instantaneous cycles last.
A reaction ends after the first pass that leaves every signal resolved (its
clock known, and its value too when present), or that changes nothing; in
dependency order one pass resolves most reactions.

This plays the role of the code-generation stage of the Polychrony platform
(Figure 2 of the paper): once compiled, a process can be simulated, explored
by the model checker, or embedded in a GALS architecture model.
"""

from __future__ import annotations

from functools import cached_property
from typing import TYPE_CHECKING, Any, Callable, Iterable, Mapping, Optional, Sequence

from ..core.values import ABSENT, EVENT
from ..signal.ast import (
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
    SignalRef,
    UnaryOp,
    When,
    expand,
)
from ..signal.operators import apply_binary, apply_intrinsic, apply_unary, truthy
from .scheduler import schedule
from .status import PRESENT, Status, UNKNOWN_VALUE

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .codegen import StepKernels


#: The step engines ``CompiledProcess`` can run reactions on.
STEP_COMPILE_MODES = ("interp", "codegen")


class SimulationError(Exception):
    """Base class of reaction-resolution errors."""


class ConsistencyError(SimulationError):
    """The equations and the scenario directives are contradictory."""


class UnresolvedError(SimulationError):
    """A signal's presence or value could not be resolved within the reaction."""


class CompiledProcess:
    """Executable form of a :class:`ProcessDefinition`.

    The compiled process is immutable; reaction state (the memory of delay and
    cell operators) is threaded explicitly through :meth:`step`, which makes
    the state space exploration of :mod:`repro.verification` straightforward.
    """

    def __init__(
        self,
        definition: ProcessDefinition,
        compile: str = "codegen",
    ) -> None:
        if compile not in STEP_COMPILE_MODES:
            raise ValueError(
                f"step compile mode must be one of {STEP_COMPILE_MODES}, not {compile!r}"
            )
        self.definition = expand(definition)
        self.name = definition.name
        self.input_names = tuple(self.definition.input_names)
        self.output_names = tuple(self.definition.output_names)
        self.local_names = tuple(
            n for n in self.definition.all_names if n not in self.input_names + self.output_names
        )
        self.signal_names = tuple(self.definition.all_names)
        self.signal_types = {
            name: (self.definition.declaration_of(name).type if self.definition.declaration_of(name) else "integer")
            for name in self.signal_names
        }
        self.event_signals = frozenset(n for n, t in self.signal_types.items() if t == "event")
        self.definitions = tuple(self.definition.definitions())
        self.constraints = tuple(self.definition.clock_constraints())
        self._stateful: list[tuple[str, Expression]] = []
        self._stateful_keys: dict[int, str] = {}
        self._index_stateful()
        #: The memory keys, in ``stateful_nodes()`` order: the order of the
        #: state tuples :meth:`successor` reacts on.
        self.state_keys = tuple(key for key, _node in self._stateful)
        self._default_passes = 2 * (len(self.definitions) + len(self.constraints)) + 4
        # Which engine resolves reactions: "codegen" runs generated kernels
        # (repro.simulation.codegen), "interp" the reference _Evaluator.
        self.step_compile = compile
        # The kernels are generated the first time a reaction needs them, so
        # a process only ever analysed symbolically never pays for them;
        # the watchers of :meth:`watch_kernels` are told when they are.
        self._kernels: Optional["StepKernels"] = None
        self._kernel_watchers: list[Callable[["StepKernels"], None]] = []

    # -- construction helpers ---------------------------------------------------

    def _index_stateful(self) -> None:
        counter = 0
        for definition in self.definitions:
            stack: list[Expression] = [definition.expression]
            while stack:
                node = stack.pop()
                if isinstance(node, (Delay, Cell)):
                    key = f"{'delay' if isinstance(node, Delay) else 'cell'}{counter}"
                    self._stateful.append((key, node))
                    # id -> key, built once: _Evaluator used to rebuild this
                    # map from stateful_nodes() on every reaction.
                    self._stateful_keys[id(node)] = key
                    counter += 1
                stack.extend(node.children())

    # -- public API ----------------------------------------------------------------

    def initial_state(self) -> dict[str, Any]:
        """The initial memory of every delay and cell operator."""
        state: dict[str, Any] = {}
        for key, node in self._stateful:
            if isinstance(node, Delay):
                state[key] = tuple([node.init] * node.depth)
            else:
                state[key] = node.init
        return state

    def stateful_nodes(self) -> tuple[tuple[str, Expression], ...]:
        """The (state-key, AST node) pairs of stateful operators."""
        return tuple(self._stateful)

    @cached_property
    def pass_order(self) -> tuple[Definition, ...]:
        """The equations in the order one fixpoint pass evaluates them, after
        the constraints (see :func:`~repro.simulation.scheduler.schedule`).

        :attr:`definitions` keeps the declared order, which numbers the
        memory and orders the final verification.  Computed when a step
        engine first needs it.
        """
        return tuple(schedule(self.definitions))

    @property
    def kernels(self) -> Optional["StepKernels"]:
        """The generated step kernels under codegen (built on first use), else None."""
        if self._kernels is None and self.step_compile == "codegen":
            from .codegen import StepKernels

            self._kernels = StepKernels(self)
            self.report_kernels()
        return self._kernels

    def watch_kernels(self, watcher: Callable[["StepKernels"], None]) -> None:
        """Call ``watcher(kernels)`` once the step kernels exist.

        At once if a reaction already built them, else when the first one
        does; and again whenever they compile more code (the equation
        verifier, on first need), so a watcher always holds their whole
        compile time.  The interpreter builds no kernels, so it never calls
        back.
        """
        if self._kernels is not None:
            watcher(self._kernels)
        else:
            self._kernel_watchers.append(watcher)

    def report_kernels(self) -> None:
        """Call every watcher of :meth:`watch_kernels` with the kernels."""
        for watcher in self._kernel_watchers:
            watcher(self._kernels)

    def step_engine_info(self) -> dict[str, Any]:
        """Which engine resolves reactions, plus kernel count/compile time."""
        info: dict[str, Any] = {"step_compile": self.step_compile}
        if self.kernels is not None:
            info.update(self.kernels.info())
        return info

    def step(
        self,
        state: Mapping[str, Any],
        driven: Mapping[str, Any],
        max_passes: Optional[int] = None,
    ) -> tuple[dict[str, Any], dict[str, Any]]:
        """Resolve one reaction.

        Args:
            state: memory of the stateful operators (from :meth:`initial_state`
                or a previous step).
            driven: scenario directives — for each driven signal either a
                concrete value, ``ABSENT``, or the ``PRESENT`` marker.
            max_passes: safety bound on fixpoint iterations (must be >= 1).
                ``max_passes=1`` succeeds on a reaction that one pass of
                :attr:`pass_order` resolves, which is every reaction of an
                acyclic design whose clocks the stimulus and the clock
                equalities fix.

        Returns:
            ``(new_state, instant)`` where ``instant`` maps every signal of the
            process to its value at this instant or ``ABSENT``.

        Raises:
            ValueError: when ``max_passes`` is not a positive pass count.
            ConsistencyError: when the directives contradict the equations.
            UnresolvedError: when a present signal's value cannot be computed,
                or the fixpoint did not converge within the pass bound.
        """
        if max_passes is not None and max_passes < 1:
            raise ValueError(
                f"{self.name}: max_passes must be a positive pass count, got {max_passes!r}"
            )
        bound = max_passes if max_passes is not None else self._default_passes
        kernels = self.kernels
        if kernels is not None:
            return kernels.step(state, driven, bound)

        env: dict[str, Status] = {name: Status.unknown() for name in self.signal_names}
        for name, directive in driven.items():
            if name not in env:
                raise ConsistencyError(f"{self.name}: scenario drives unknown signal {name!r}")
            try:
                env[name] = env[name].merge_driven(directive)
            except ValueError as error:
                raise ConsistencyError(f"{self.name}: {error}") from None
        self._normalise_events(env)

        evaluator = _Evaluator(self, state)
        for _ in range(bound):
            if not self._pass(evaluator, env) or _resolved(env):
                break
        else:
            raise UnresolvedError(
                f"{self.name}: reaction did not converge within {bound} fixpoint passes"
            )

        # Anything still unknown is absent at this instant.
        for name, status in env.items():
            if status.is_unknown:
                env[name] = Status.absent()

        self._verify(evaluator, env)

        instant = {}
        for name, status in env.items():
            if status.is_present:
                if status.value is UNKNOWN_VALUE:
                    raise UnresolvedError(
                        f"{self.name}: signal {name!r} is present but its value could not be resolved"
                    )
                instant[name] = status.value
            else:
                instant[name] = ABSENT

        new_state = evaluator.updated_state(env)
        return new_state, instant

    def successor(self, stimuli: Sequence[Mapping[str, Any]]) -> Callable[[tuple, int], tuple[tuple, tuple]]:
        """One reaction over state tuples, for a fixed list of stimuli.

        Returns ``react(state, index)``, the reaction of memory ``state`` (a
        tuple in :attr:`state_keys` order) to ``stimuli[index]``, as
        ``(next_state, values)``: the successor memory in the same order and
        every signal's value (``ABSENT`` when absent) in :attr:`signal_names`
        order.  ``react`` raises what :meth:`step` raises.  Under codegen it
        runs the generated kernels on status arrays built once per stimulus;
        under interp it adapts :meth:`step`.

        Raises:
            ConsistencyError: at once, when a stimulus drives an unknown signal.
        """
        for stimulus in stimuli:
            for name in stimulus:
                if name not in self.signal_types:
                    raise ConsistencyError(f"{self.name}: scenario drives unknown signal {name!r}")
        kernels = self.kernels
        if kernels is not None:
            return kernels.successor(stimuli, self._default_passes)
        keys, names, step = self.state_keys, self.signal_names, self.step

        def react(state: tuple, index: int) -> tuple[tuple, tuple]:
            new_state, instant = step(dict(zip(keys, state)), stimuli[index])
            return tuple(new_state[key] for key in keys), tuple(instant[name] for name in names)

        return react

    # -- internals ----------------------------------------------------------------------

    def _pass(self, evaluator: "_Evaluator", env: dict[str, Status]) -> bool:
        """One fixpoint pass in :attr:`pass_order`; whether anything changed."""
        changed = False
        for constraint in self.constraints:
            changed |= self._propagate_constraint(evaluator, constraint, env)
        for definition in self.pass_order:
            result = evaluator.evaluate(definition.expression, env)
            changed |= self._refine(env, definition.target, result)
        self._normalise_events(env)
        return changed

    def _normalise_events(self, env: dict[str, Status]) -> None:
        for name in self.event_signals:
            status = env[name]
            if status.is_present and status.value is UNKNOWN_VALUE:
                env[name] = Status.present(EVENT)

    def _refine(self, env: dict[str, Status], name: str, result: Status) -> bool:
        current = env[name]
        if result.is_unknown:
            return False
        if result.is_constant:
            # A constant right-hand side does not constrain the clock; it only
            # provides the value once the clock is known.
            if current.is_present and current.value is UNKNOWN_VALUE:
                env[name] = Status.present(result.value)
                return True
            return False
        if result.is_absent:
            if current.is_present:
                raise ConsistencyError(f"{self.name}: {name!r} must be absent but is present")
            if current.is_absent:
                return False
            env[name] = Status.absent()
            return True
        # result is present
        if current.is_absent:
            raise ConsistencyError(f"{self.name}: {name!r} must be present but is absent")
        if result.value is UNKNOWN_VALUE:
            if current.is_unknown:
                env[name] = Status.present()
                return True
            return False
        if current.is_present and current.value is not UNKNOWN_VALUE:
            if current.value != result.value:
                raise ConsistencyError(
                    f"{self.name}: conflicting values for {name!r}: {current.value!r} vs {result.value!r}"
                )
            return False
        env[name] = Status.present(result.value)
        return True

    def _clock_status(self, status: Status) -> str:
        if status.is_absent:
            return "absent"
        if status.is_present or status.is_constant:
            return "present"
        return "unknown"

    def _propagate_constraint(
        self, evaluator: "_Evaluator", constraint: ClockConstraint, env: dict[str, Status]
    ) -> bool:
        statuses = [self._clock_status(evaluator.evaluate(op, env)) for op in constraint.operands]
        changed = False
        if constraint.kind != "=":
            return False
        if "present" in statuses and "absent" in statuses:
            raise ConsistencyError(f"{self.name}: violated clock constraint {constraint!r}")
        target: Optional[str] = None
        if "present" in statuses:
            target = "present"
        elif "absent" in statuses:
            target = "absent"
        if target is None:
            return False
        for operand in constraint.operands:
            if not isinstance(operand, SignalRef):
                continue
            current = env[operand.name]
            if target == "present" and current.is_unknown:
                env[operand.name] = Status.present()
                changed = True
            elif target == "absent" and current.is_unknown:
                env[operand.name] = Status.absent()
                changed = True
            elif target == "absent" and current.is_present:
                raise ConsistencyError(
                    f"{self.name}: clock constraint forces {operand.name!r} absent but it is present"
                )
            elif target == "present" and current.is_absent:
                raise ConsistencyError(
                    f"{self.name}: clock constraint forces {operand.name!r} present but it is absent"
                )
        return changed

    def _verify(self, evaluator: "_Evaluator", env: dict[str, Status]) -> None:
        for definition in self.definitions:
            result = evaluator.evaluate(definition.expression, env)
            target = env[definition.target]
            if result.is_unknown:
                raise UnresolvedError(
                    f"{self.name}: equation for {definition.target!r} cannot be resolved at this instant"
                )
            if result.is_constant:
                if target.is_present and target.value != result.value:
                    raise ConsistencyError(
                        f"{self.name}: {definition.target!r} = {target.value!r} contradicts constant "
                        f"{result.value!r}"
                    )
                continue
            if result.is_absent and target.is_present:
                raise ConsistencyError(
                    f"{self.name}: {definition.target!r} is present but its defining expression is absent"
                )
            if result.is_present:
                if target.is_absent:
                    raise ConsistencyError(
                        f"{self.name}: {definition.target!r} is absent but its defining expression is present"
                    )
                if result.value is not UNKNOWN_VALUE and target.value != result.value:
                    raise ConsistencyError(
                        f"{self.name}: {definition.target!r} = {target.value!r} contradicts computed "
                        f"{result.value!r}"
                    )
        for constraint in self.constraints:
            statuses = [self._clock_status(evaluator.evaluate(op, env)) for op in constraint.operands]
            resolved = ["present" if s == "present" else "absent" for s in statuses]
            if constraint.kind == "=" and len(set(resolved)) > 1:
                raise ConsistencyError(f"{self.name}: violated clock equality {constraint!r}")
            if constraint.kind == "<" and resolved[0] == "present" and "absent" in resolved[1:]:
                raise ConsistencyError(f"{self.name}: violated clock inclusion {constraint!r}")
            if constraint.kind == ">" and "present" in resolved[1:] and resolved[0] == "absent":
                raise ConsistencyError(f"{self.name}: violated clock inclusion {constraint!r}")


def _resolved(env: Mapping[str, Status]) -> bool:
    """Whether every signal's clock is known, and its value when present."""
    return not any(status.is_unknown or status.has_unknown_value for status in env.values())


class _Evaluator:
    """Expression evaluation over statuses, for one reaction."""

    def __init__(self, process: CompiledProcess, state: Mapping[str, Any]) -> None:
        self._process = process
        # The evaluator only reads the memory, so no defensive copy — step()
        # is the hot path of every explorer and simulator.
        self._state = state
        self._keys = process._stateful_keys

    # -- evaluation ---------------------------------------------------------------

    def evaluate(self, expr: Expression, env: Mapping[str, Status]) -> Status:
        """Status of ``expr`` under the partial knowledge in ``env``."""
        if isinstance(expr, SignalRef):
            return env.get(expr.name, Status.unknown())
        if isinstance(expr, Constant):
            return Status.constant(expr.value)
        if isinstance(expr, Delay):
            return self._evaluate_delay(expr, env)
        if isinstance(expr, Cell):
            return self._evaluate_cell(expr, env)
        if isinstance(expr, When):
            return self._evaluate_when(expr, env)
        if isinstance(expr, Default):
            return self._evaluate_default(expr, env)
        if isinstance(expr, ClockOf):
            return self._evaluate_clockof(expr, env)
        if isinstance(expr, ClockBinary):
            return self._evaluate_clockbinary(expr, env)
        if isinstance(expr, UnaryOp):
            return self._evaluate_pointwise(expr, [expr.operand], env, lambda vs: apply_unary(expr.op, vs[0]))
        if isinstance(expr, BinaryOp):
            return self._evaluate_pointwise(
                expr, [expr.left, expr.right], env, lambda vs: apply_binary(expr.op, vs[0], vs[1])
            )
        if isinstance(expr, FunctionCall):
            return self._evaluate_pointwise(
                expr, list(expr.arguments), env, lambda vs: apply_intrinsic(expr.function, *vs)
            )
        raise SimulationError(f"cannot evaluate expression {expr!r}")

    def _evaluate_pointwise(self, expr, operands, env, compute) -> Status:
        statuses = [self.evaluate(o, env) for o in operands]
        non_constant = [s for s in statuses if not s.is_constant]
        if any(s.is_absent for s in non_constant):
            return Status.absent()
        if any(s.is_unknown for s in non_constant):
            return Status.unknown()
        # Everything non-constant is present.
        if any(s.has_unknown_value for s in statuses):
            return Status.present() if non_constant else Status.unknown()
        values = [s.value for s in statuses]
        result = compute(values)
        if not non_constant:
            return Status.constant(result)
        return Status.present(result)

    def _evaluate_delay(self, expr: Delay, env) -> Status:
        operand = self.evaluate(expr.operand, env)
        if operand.is_absent:
            return Status.absent()
        if operand.is_unknown:
            return Status.unknown()
        key = self._keys.get(id(expr))
        if key is None:
            # Delay node outside an equation (e.g. inside a constraint): treat
            # conservatively as synchronous with its operand, value unknown.
            return Status.present()
        stored = self._state[key]
        return Status.present(stored[0])

    def _evaluate_cell(self, expr: Cell, env) -> Status:
        operand = self.evaluate(expr.operand, env)
        clock = self.evaluate(expr.clock, env)
        clock_true = clock.provides_value and truthy(clock.value)
        if operand.is_present or operand.is_constant:
            value = operand.value if operand.value is not UNKNOWN_VALUE else UNKNOWN_VALUE
            return Status.present(value)
        if operand.is_unknown:
            return Status.unknown()
        # operand absent
        if clock.is_present and clock.value is UNKNOWN_VALUE:
            return Status.unknown()
        if clock_true:
            key = self._keys.get(id(expr))
            stored = self._state[key] if key is not None else UNKNOWN_VALUE
            return Status.present(stored)
        if clock.is_unknown:
            return Status.unknown()
        return Status.absent()

    def _evaluate_when(self, expr: When, env) -> Status:
        condition = self.evaluate(expr.condition, env)
        operand = self.evaluate(expr.operand, env)
        if condition.is_absent:
            return Status.absent()
        if operand.is_absent:
            return Status.absent()
        if condition.is_unknown:
            return Status.unknown()
        if condition.value is UNKNOWN_VALUE:
            return Status.unknown()
        if not truthy(condition.value):
            return Status.absent()
        # Condition is present (or constant) and true.
        if operand.is_constant:
            if condition.is_constant:
                return Status.constant(operand.value)
            return Status.present(operand.value)
        if operand.is_unknown:
            return Status.unknown()
        return Status.present(operand.value)

    def _evaluate_default(self, expr: Default, env) -> Status:
        left = self.evaluate(expr.left, env)
        right = self.evaluate(expr.right, env)
        if left.is_present:
            return Status.present(left.value)
        if left.is_constant:
            return left
        if left.is_unknown:
            return Status.unknown()
        # left absent
        if right.is_present:
            return Status.present(right.value)
        if right.is_constant:
            return right
        if right.is_absent:
            return Status.absent()
        return Status.unknown()

    def _evaluate_clockof(self, expr: ClockOf, env) -> Status:
        operand = self.evaluate(expr.operand, env)
        if operand.is_present:
            return Status.present(EVENT)
        if operand.is_constant:
            return Status.constant(EVENT)
        if operand.is_absent:
            return Status.absent()
        return Status.unknown()

    def _evaluate_clockbinary(self, expr: ClockBinary, env) -> Status:
        left = self.evaluate(expr.left, env)
        right = self.evaluate(expr.right, env)
        left_clock = "present" if (left.is_present or left.is_constant) else ("absent" if left.is_absent else "unknown")
        right_clock = (
            "present" if (right.is_present or right.is_constant) else ("absent" if right.is_absent else "unknown")
        )
        if expr.op == "^*":
            if left_clock == "absent" or right_clock == "absent":
                return Status.absent()
            if left_clock == "present" and right_clock == "present":
                return Status.present(EVENT)
            return Status.unknown()
        if expr.op == "^+":
            if left_clock == "present" or right_clock == "present":
                return Status.present(EVENT)
            if left_clock == "absent" and right_clock == "absent":
                return Status.absent()
            return Status.unknown()
        # "^-"
        if left_clock == "absent":
            return Status.absent()
        if right_clock == "present":
            return Status.absent()
        if left_clock == "present" and right_clock == "absent":
            return Status.present(EVENT)
        return Status.unknown()

    # -- state update ------------------------------------------------------------------

    def updated_state(self, env: Mapping[str, Status]) -> dict[str, Any]:
        """Memory of the stateful operators after the resolved reaction."""
        new_state = dict(self._state)
        for key, node in self._process.stateful_nodes():
            operand = self.evaluate(node.operand, env)
            if not operand.provides_value:
                continue
            if isinstance(node, Delay):
                window = new_state[key]
                new_state[key] = window[1:] + (operand.value,)
            else:
                new_state[key] = operand.value
        return new_state
