"""Generated reaction kernels: the compiled half of ``CompiledProcess.step``.

The reference implementation of a reaction is ``_Evaluator`` in
:mod:`repro.simulation.compiler`: a recursive AST walk with isinstance
dispatch, re-run on every pass of every fixpoint.  That walk dominates the
run time of explicit exploration, simulation and trace replay.  This module
generates an *expanded* process's kernels once, the first time a reaction
needs them, as straight-line Python functions over slot-indexed status
arrays; designs of one shape share the compiled code (:func:`_shape_of`):

* ``_pass`` — one fixpoint pass in the process's static schedule
  (``CompiledProcess.pass_order``): every clock equality propagated first,
  then every equation evaluated and refined into the status arrays in
  dependency order, members of instantaneous cycles last, then events
  normalised; returns whether anything changed and whether it *decided*
  every equation (see below);
* ``_finish`` — the end of a converged reaction: unknown signals set absent,
  the equation verifier run unless the pass decided the reaction, every
  clock constraint checked, every present signal checked for a resolved
  value, and the result returned as ``(next_state, values)`` — the
  successor memory of the delay/cell operators in ``stateful_nodes()``
  order and every signal's value (``ABSENT`` when absent) in slot order;
* ``_verify_equations`` — the final consistency check of every equation
  against the settled arrays, generated and compiled only when a reaction
  first needs it (:meth:`StepKernels._verify`).

The arrays replace the dict of :class:`~repro.simulation.status.Status`:
``K`` holds one small-int kind per signal (0 unknown, 1 absent, 2 present,
3 constant), ``V`` the value slots (``UNKNOWN_VALUE`` until computed,
``ABSENT`` once absent) and ``S`` the stateful memory in
``stateful_nodes()`` order.  A reaction runs passes until one leaves every
signal resolved or changes nothing.  Because absent slots hold ``ABSENT``,
"every signal resolved" is the single C-level test ``UNKNOWN_VALUE not in
V``.  In the schedule, the first pass passes it on every reaction of an
acyclic design whose clocks the stimulus and the clock equalities fix, and
no confirming pass follows.

Nor does the equation verifier, when the pass decided every equation: it
assigned the expression's value to the target or compared it equal, or
found both absent.  Evaluation only gains knowledge within a reaction, so
re-evaluating a decided equation yields the same result, and the verifier
could find nothing.  An equation is left undecided when its expression was
unknown, present without a value, or a constant not assigned into a
present valueless target; and when a re-evaluation could call an operator
(or test a ``when``/``cell`` condition) on operands this pass had not yet
settled: an operand defined later in the schedule (a delay's operand
too, whose clock is the delay's), or an event the pass normalised at its
end.  Then ``_finish`` verifies every equation, so a
conflict the pass did not see is still a ``ConsistencyError`` with the
interpreter's message.  The clock constraints are checked on every
reaction: the pass propagates them before the equations refine their
operands.  The explorer runs these
tuples directly (:meth:`StepKernels.successor`); :meth:`StepKernels.step`
adapts them to the dict contract of ``CompiledProcess.step``.

The generated code reproduces the partial-knowledge semantics of
``_Evaluator`` branch for branch — including evaluation order, so every
``ConsistencyError``/``UnresolvedError``/``EvaluationError`` is raised under
exactly the same circumstances with exactly the same message as the
interpreter.  Every operator and intrinsic is bound at compile time to its
row of :data:`~repro.signal.operators.OPERATORS`: a row with an inline
template runs inline (integer operators when both operands are plain
``int``, falling back to the row's function otherwise, so booleans, events
and other values take the interpreter's own conversion path and errors),
any other row is a call of its function.  The differential suite
(``tests/test_step_codegen.py``) pins that equivalence over the same
corpora the symbolic engine is checked against; the interpreter stays
available as the oracle via ``CompiledProcess(process, compile="interp")``.
"""

from __future__ import annotations

from functools import lru_cache
from time import perf_counter
from types import CodeType
from typing import TYPE_CHECKING, Any, Callable, Mapping, Optional, Sequence

from ..core.values import ABSENT, EVENT
from ..signal.ast import (
    BinaryOp,
    Cell,
    ClockBinary,
    ClockOf,
    Constant,
    Default,
    Delay,
    Expression,
    FunctionCall,
    SignalRef,
    UnaryOp,
    When,
)
from ..signal.operators import OPERATORS, lookup, truthy
from .status import PRESENT, UNKNOWN_VALUE

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .compiler import CompiledProcess


# ------------------------------------------------------------------- lowering

class _FunctionBuilder:
    """Emits the straight-line body of one generated function.

    Every ``lower`` call appends statements computing a (kind, value) pair
    into two fresh local variables and returns their names.  Operands are
    lowered *before* the combining branches, in the same order the
    interpreter evaluates them, so data-dependent exceptions (``truthy`` on
    a non-boolean, operator failures) fire at the same point.
    """

    def __init__(self, module: "_ModuleBuilder", name: str, params: str) -> None:
        self.module = module
        self.lines = [f"def {name}({params}):"]
        self._counter = 0

    def emit(self, line: str, depth: int = 1) -> None:
        self.lines.append("    " * depth + line)

    def fresh(self) -> tuple[str, str]:
        self._counter += 1
        return f"k{self._counter}", f"v{self._counter}"

    def source(self) -> str:
        return "\n".join(self.lines)

    # -- dispatch ------------------------------------------------------------

    def lower(self, expr: Expression) -> tuple[str, str]:
        if isinstance(expr, SignalRef):
            return self._lower_signal(expr)
        if isinstance(expr, Constant):
            return self._lower_constant(expr)
        if isinstance(expr, Delay):
            return self._lower_delay(expr)
        if isinstance(expr, Cell):
            return self._lower_cell(expr)
        if isinstance(expr, When):
            return self._lower_when(expr)
        if isinstance(expr, Default):
            return self._lower_default(expr)
        if isinstance(expr, ClockOf):
            return self._lower_clockof(expr)
        if isinstance(expr, ClockBinary):
            return self._lower_clockbinary(expr)
        if isinstance(expr, UnaryOp):
            return self._lower_pointwise([expr.operand], self.module.operator_call("unary", expr.op))
        if isinstance(expr, BinaryOp):
            call = self.module.operator_call("binary", expr.op)
            return self._lower_pointwise([expr.left, expr.right], call)
        if isinstance(expr, FunctionCall):
            call = self.module.operator_call("intrinsic", expr.function)
            return self._lower_pointwise(list(expr.arguments), call)
        # Mirrors the interpreter's catch-all for unknown node types.
        raise _simulation_error(f"cannot compile expression {expr!r}")

    # -- leaves --------------------------------------------------------------

    def _lower_signal(self, expr: SignalRef) -> tuple[str, str]:
        k, v = self.fresh()
        slot = self.module.slots.get(expr.name)
        if slot is None:
            # The interpreter returns unknown() for names outside the env.
            self.emit(f"{k} = 0; {v} = _UV")
        else:
            self.emit(f"{k} = K[{slot}]; {v} = V[{slot}]")
        return k, v

    def _lower_constant(self, expr: Constant) -> tuple[str, str]:
        k, v = self.fresh()
        self.emit(f"{k} = 3; {v} = {self.module.constant(expr.value)}")
        return k, v

    # -- stateful operators ---------------------------------------------------

    def _lower_delay(self, expr: Delay) -> tuple[str, str]:
        ka, _va = self.lower(expr.operand)
        k, v = self.fresh()
        index = self.module.state_index.get(id(expr))
        self.emit(f"if {ka} == 1:")
        self.emit(f"    {k} = 1; {v} = _UV")
        self.emit(f"elif {ka} == 0:")
        self.emit(f"    {k} = 0; {v} = _UV")
        self.emit("else:")
        if index is None:
            # Delay outside an equation: synchronous with its operand, value
            # unknown — same conservative reading as the interpreter.
            self.emit(f"    {k} = 2; {v} = _UV")
        else:
            self.emit(f"    {k} = 2; {v} = S[{index}][0]")
        return k, v

    def _lower_cell(self, expr: Cell) -> tuple[str, str]:
        ka, va = self.lower(expr.operand)
        kc, vc = self.lower(expr.clock)
        k, v = self.fresh()
        truth = f"t{k[1:]}"
        index = self.module.state_index.get(id(expr))
        stored = f"S[{index}]" if index is not None else "_UV"
        # The interpreter computes clock_true eagerly (truthy may raise on a
        # malformed clock value even when the operand decides the result).
        self.emit(f"{truth} = ({kc} == 2 or {kc} == 3) and {vc} is not _UV and {_truth(vc)}")
        self.emit(f"if {ka} == 2 or {ka} == 3:")
        self.emit(f"    {k} = 2; {v} = {va}")
        self.emit(f"elif {ka} == 0:")
        self.emit(f"    {k} = 0; {v} = _UV")
        self.emit(f"elif {kc} == 2 and {vc} is _UV:")
        self.emit(f"    {k} = 0; {v} = _UV")
        self.emit(f"elif {truth}:")
        self.emit(f"    {k} = 2; {v} = {stored}")
        self.emit(f"elif {kc} == 0:")
        self.emit(f"    {k} = 0; {v} = _UV")
        self.emit("else:")
        self.emit(f"    {k} = 1; {v} = _UV")
        return k, v

    # -- sampling / merge -----------------------------------------------------

    def _lower_when(self, expr: When) -> tuple[str, str]:
        kc, vc = self.lower(expr.condition)
        ka, va = self.lower(expr.operand)
        k, v = self.fresh()
        self.emit(f"if {kc} == 1 or {ka} == 1:")
        self.emit(f"    {k} = 1; {v} = _UV")
        self.emit(f"elif {kc} == 0:")
        self.emit(f"    {k} = 0; {v} = _UV")
        self.emit(f"elif {vc} is _UV:")
        self.emit(f"    {k} = 0; {v} = _UV")
        self.emit(f"elif not {_truth(vc)}:")
        self.emit(f"    {k} = 1; {v} = _UV")
        self.emit(f"elif {ka} == 3:")
        self.emit(f"    {k} = 3 if {kc} == 3 else 2; {v} = {va}")
        self.emit(f"elif {ka} == 0:")
        self.emit(f"    {k} = 0; {v} = _UV")
        self.emit("else:")
        self.emit(f"    {k} = 2; {v} = {va}")
        return k, v

    def _lower_default(self, expr: Default) -> tuple[str, str]:
        ka, va = self.lower(expr.left)
        kb, vb = self.lower(expr.right)
        k, v = self.fresh()
        self.emit(f"if {ka} == 2:")
        self.emit(f"    {k} = 2; {v} = {va}")
        self.emit(f"elif {ka} == 3:")
        self.emit(f"    {k} = 3; {v} = {va}")
        self.emit(f"elif {ka} == 0:")
        self.emit(f"    {k} = 0; {v} = _UV")
        self.emit(f"elif {kb} == 2:")
        self.emit(f"    {k} = 2; {v} = {vb}")
        self.emit(f"elif {kb} == 3:")
        self.emit(f"    {k} = 3; {v} = {vb}")
        self.emit(f"elif {kb} == 1:")
        self.emit(f"    {k} = 1; {v} = _UV")
        self.emit("else:")
        self.emit(f"    {k} = 0; {v} = _UV")
        return k, v

    # -- clock algebra --------------------------------------------------------

    def _lower_clockof(self, expr: ClockOf) -> tuple[str, str]:
        ka, _va = self.lower(expr.operand)
        k, v = self.fresh()
        self.emit(f"if {ka} == 2:")
        self.emit(f"    {k} = 2; {v} = _EVENT")
        self.emit(f"elif {ka} == 3:")
        self.emit(f"    {k} = 3; {v} = _EVENT")
        self.emit(f"elif {ka} == 1:")
        self.emit(f"    {k} = 1; {v} = _UV")
        self.emit("else:")
        self.emit(f"    {k} = 0; {v} = _UV")
        return k, v

    def _lower_clockbinary(self, expr: ClockBinary) -> tuple[str, str]:
        ka, _va = self.lower(expr.left)
        kb, _vb = self.lower(expr.right)
        k, v = self.fresh()
        left_present = f"({ka} == 2 or {ka} == 3)"
        right_present = f"({kb} == 2 or {kb} == 3)"
        if expr.op == "^*":
            self.emit(f"if {ka} == 1 or {kb} == 1:")
            self.emit(f"    {k} = 1; {v} = _UV")
            self.emit(f"elif {left_present} and {right_present}:")
            self.emit(f"    {k} = 2; {v} = _EVENT")
            self.emit("else:")
            self.emit(f"    {k} = 0; {v} = _UV")
        elif expr.op == "^+":
            self.emit(f"if {left_present} or {right_present}:")
            self.emit(f"    {k} = 2; {v} = _EVENT")
            self.emit(f"elif {ka} == 1 and {kb} == 1:")
            self.emit(f"    {k} = 1; {v} = _UV")
            self.emit("else:")
            self.emit(f"    {k} = 0; {v} = _UV")
        else:  # "^-"
            self.emit(f"if {ka} == 1:")
            self.emit(f"    {k} = 1; {v} = _UV")
            self.emit(f"elif {right_present}:")
            self.emit(f"    {k} = 1; {v} = _UV")
            self.emit(f"elif {left_present} and {kb} == 1:")
            self.emit(f"    {k} = 2; {v} = _EVENT")
            self.emit("else:")
            self.emit(f"    {k} = 0; {v} = _UV")
        return k, v

    # -- pointwise operators --------------------------------------------------

    def _lower_pointwise(self, operands: list[Expression], call) -> tuple[str, str]:
        pairs = [self.lower(operand) for operand in operands]
        k, v = self.fresh()
        if not pairs:
            # No operands, nothing non-constant: always a constant result.
            self.emit(f"{v} = {call([])}; {k} = 3")
            return k, v
        ks = [p[0] for p in pairs]
        vs = [p[1] for p in pairs]
        # Constants are never absent/unknown, so testing every operand is the
        # same as the interpreter's test over the non-constant ones.
        self.emit("if " + " or ".join(f"{kk} == 1" for kk in ks) + ":")
        self.emit(f"    {k} = 1; {v} = _UV")
        self.emit("elif " + " or ".join(f"{kk} == 0" for kk in ks) + ":")
        self.emit(f"    {k} = 0; {v} = _UV")
        # An UNKNOWN_VALUE implies a present (non-constant) operand, so the
        # interpreter's "present if non_constant else unknown" is just present.
        self.emit("elif " + " or ".join(f"{vv} is _UV" for vv in vs) + ":")
        self.emit(f"    {k} = 2; {v} = _UV")
        self.emit("else:")
        self.emit(f"    {v} = {call(vs)}")
        all_constant = " and ".join(f"{kk} == 3" for kk in ks)
        self.emit(f"    {k} = 3 if {all_constant} else 2")
        return k, v


def _truth(value: str) -> str:
    """``_truthy(value)`` with booleans and events decided inline; any other
    value still goes through ``truthy`` for its conversion or its error."""
    return f"({value} is True or {value} is _EVENT or ({value} is not False and _truthy({value})))"


def _guarded_reads(expr: Expression) -> set[str]:
    """The signals ``expr`` reads where evaluating it can raise: under an
    operator or intrinsic, or in a ``when``/``cell`` condition.

    Unlike ``scheduler.instantaneous_reads`` this counts the operand of a
    delay under an operator: the delay's value is memory, but its clock is
    the operand's, so a pass that ran before the operand's clock was known
    never called the operator a re-evaluation calls.  A plain read outside
    any operator cannot raise, and is not counted."""
    reads: set[str] = set()

    def visit(node: Expression, guarded: bool) -> None:
        if isinstance(node, SignalRef):
            if guarded:
                reads.add(node.name)
        elif isinstance(node, When):
            visit(node.condition, True)
            visit(node.operand, guarded)
        elif isinstance(node, Cell):
            visit(node.operand, guarded)
            visit(node.clock, True)
        else:
            guarded = guarded or isinstance(node, (UnaryOp, BinaryOp, FunctionCall))
            for child in node.children():
                visit(child, guarded)

    visit(expr, False)
    return reads


def _simulation_error(message: str) -> Exception:
    from .compiler import SimulationError

    return SimulationError(message)


class _ModuleBuilder:
    """The shared exec namespace and interning of constants/messages."""

    def __init__(self, slots: Mapping[str, int], state_index: Mapping[int, int]) -> None:
        from .compiler import ConsistencyError, UnresolvedError

        self.slots = dict(slots)
        self.state_index = dict(state_index)
        self.namespace: dict[str, Any] = {
            "_UV": UNKNOWN_VALUE,
            "_EVENT": EVENT,
            "_ABSENT": ABSENT,
            "_truthy": truthy,
            "_CE": ConsistencyError,
            "_UE": UnresolvedError,
        }

    def _intern(self, prefix: str, value: Any) -> str:
        name = f"_{prefix}{len(self.namespace)}"
        self.namespace[name] = value
        return name

    def constant(self, value: Any) -> str:
        return self._intern("c", value)

    def message(self, text: str) -> str:
        return self._intern("m", text)

    def operator_call(self, kind: str, name: str):
        """The call template of an operator's row, its function bound now."""
        row = OPERATORS.get((kind, name))
        if row is None:
            # Unknown operator: the lookup error fires when the call is
            # evaluated, exactly when the interpreter would raise it.
            function = self._intern("f", lambda *_: lookup(kind, name))
            return lambda vs: f"{function}({', '.join(vs)})"
        function = self._intern("f", row.function)
        if row.inline is not None:
            return lambda vs: row.inline.format(*vs, f=function)
        return lambda vs: f"{function}({', '.join(vs)})"


# ------------------------------------------------------------------- the kernels

#: Kernel shapes whose code objects one process keeps (least recently used
#: first out).  A shape is a generated body with its comments blanked.
SHAPE_CACHE_SIZE = 64


@lru_cache(maxsize=SHAPE_CACHE_SIZE)
def _compile_shape(body: str) -> CodeType:
    """The code object of one kernel shape, shared by every design of it."""
    return compile(body, "<repro-step-kernels>", "exec")


def _shape_of(source: str) -> str:
    """``source`` with its comment lines blanked, so its line numbers stand.

    The comments quote the design's equations; everything else specific to
    one design (constants, messages, operator functions) is a name bound in
    its namespace, so designs that differ only there share one shape."""
    return "\n".join("" if line.lstrip().startswith("#") else line for line in source.split("\n"))


class StepKernels:
    """The compiled reaction engine of one :class:`CompiledProcess`.

    Two generated functions — fixpoint pass and fused finish — resolve a
    reaction from status arrays to the successor memory and the resolved
    values; a third, the equation verifier, is generated the first time a
    reaction needs it (:meth:`_verify`).  :meth:`successor` runs them over
    state tuples for the explorer; :meth:`step` adapts them into a drop-in
    replacement for the interpreter path of :meth:`CompiledProcess.step`:
    same results, same exceptions, same messages.
    """

    def __init__(self, process: "CompiledProcess") -> None:
        started = perf_counter()
        name = process.name
        self._process = process
        self.process_name = name
        self.signal_names = process.signal_names
        self.width = len(process.signal_names)
        slots = {signal: i for i, signal in enumerate(process.signal_names)}
        self.slot_of = slots
        self.event_slots = tuple(
            slots[signal] for signal in process.signal_names if signal in process.event_signals
        )
        stateful = process.stateful_nodes()
        self.state_keys = process.state_keys
        # Aliased nodes resolve to their last key, like the interpreter's map.
        state_index = {id(node): i for i, (_key, node) in enumerate(stateful)}
        self._module = module = _ModuleBuilder(slots, state_index)
        self._verify_equations: Optional[Callable[[list, list, tuple], None]] = None

        #: The generated source so far: the pass and the finish, then the
        #: equation verifier once a reaction needed it.
        self.source = ""
        self._exec("\n\n\n".join([self._build_pass(module, process), self._build_finish(module, process)]))
        self._pass = module.namespace["_pass"]
        self._finish = module.namespace["_finish"]
        # One logical kernel per equation, constraint operand and stateful
        # operand — what the fused functions are made of.
        self.kernel_count = (
            len(process.definitions)
            + sum(len(c.operands) for c in process.constraints)
            + len(stateful)
        )
        self.compile_seconds = perf_counter() - started

    # -- code generation -------------------------------------------------------

    def _exec(self, source: str) -> None:
        """Run ``source`` in the kernels' namespace, compiled once per shape
        (:func:`_shape_of`) for the whole process."""
        source += "\n"
        exec(_compile_shape(_shape_of(source)), self._module.namespace)
        self.source += source

    def _build_pass(self, module: _ModuleBuilder, process: "CompiledProcess") -> str:
        """One fixpoint pass in the process's schedule: propagate every
        clock constraint, refine every equation in ``pass_order``, normalise
        events; returns whether anything changed and whether every equation
        was decided (see the module docstring)."""
        name = self.process_name
        fn = _FunctionBuilder(module, "_pass", "K, V, S")
        fn.emit("changed = False; decided = True")
        for constraint in process.constraints:
            fn.emit(f"# constraint {constraint!r}"[:100])
            codes = [fn.lower(operand)[0] for operand in constraint.operands]
            if constraint.kind != "=" or not codes:
                # The interpreter evaluates the operands (for their side
                # exceptions) but only propagates clock equalities.
                continue
            m_violated = module.message(f"{name}: violated clock constraint {constraint!r}")
            some_present = " or ".join(f"{k} == 2 or {k} == 3" for k in codes)
            some_absent = " or ".join(f"{k} == 1" for k in codes)
            fn.emit(f"p = {some_present}")
            fn.emit(f"a = {some_absent}")
            fn.emit("if p and a:")
            fn.emit(f"    raise _CE({m_violated})")
            for operand in constraint.operands:
                if not isinstance(operand, SignalRef):
                    continue
                slot = module.slots[operand.name]
                m_force_absent = module.message(
                    f"{name}: clock constraint forces {operand.name!r} absent but it is present"
                )
                m_force_present = module.message(
                    f"{name}: clock constraint forces {operand.name!r} present but it is absent"
                )
                fn.emit("if p:")
                fn.emit(f"    c = K[{slot}]")
                fn.emit("    if c == 0:")
                fn.emit(f"        K[{slot}] = 2; changed = True")
                fn.emit("    elif c == 1:")
                fn.emit(f"        raise _CE({m_force_present})")
                fn.emit("elif a:")
                fn.emit(f"    c = K[{slot}]")
                fn.emit("    if c == 0:")
                fn.emit(f"        K[{slot}] = 1; V[{slot}] = _ABSENT; changed = True")
                fn.emit("    elif c == 2:")
                fn.emit(f"        raise _CE({m_force_absent})")
        # Where a re-evaluation could raise, an equation is only decided if
        # the pass had settled what it read: nothing defined at or after it
        # in the schedule, and no event the pass normalises at its end.
        position = {definition.target: index for index, definition in enumerate(process.pass_order)}
        guarded_slots = set()
        for index, definition in enumerate(process.pass_order):
            target = definition.target
            slot = module.slots[target]
            fn.emit(f"# {target} := {definition.expression!r}"[:100])
            guarded = _guarded_reads(definition.expression)
            guarded_slots.update(module.slots[signal] for signal in guarded if signal in module.slots)
            if any(position.get(signal, -1) >= index for signal in guarded):
                fn.emit("decided = False")
            k, v = fn.lower(definition.expression)
            m_absent = module.message(f"{name}: {target!r} must be absent but is present")
            m_present = module.message(f"{name}: {target!r} must be present but is absent")
            m_conflict = module.message(f"{name}: conflicting values for {target!r}: ")
            fn.emit(f"if {k} == 2:")
            fn.emit(f"    c = K[{slot}]")
            fn.emit("    if c == 1:")
            fn.emit(f"        raise _CE({m_present})")
            fn.emit(f"    if {v} is _UV:")
            fn.emit("        decided = False")
            fn.emit("        if c == 0:")
            fn.emit(f"            K[{slot}] = 2; changed = True")
            fn.emit(f"    elif c == 2 and V[{slot}] is not _UV:")
            fn.emit(f"        if V[{slot}] != {v}:")
            fn.emit(f"            raise _CE({m_conflict} + repr(V[{slot}]) + ' vs ' + repr({v}))")
            fn.emit("    else:")
            fn.emit(f"        K[{slot}] = 2; V[{slot}] = {v}; changed = True")
            fn.emit(f"elif {k} == 3:")
            fn.emit(f"    if K[{slot}] == 2 and V[{slot}] is _UV:")
            fn.emit(f"        V[{slot}] = {v}; changed = True")
            fn.emit("    else:")
            fn.emit("        decided = False")
            fn.emit(f"elif {k} == 1:")
            fn.emit(f"    c = K[{slot}]")
            fn.emit("    if c == 2:")
            fn.emit(f"        raise _CE({m_absent})")
            fn.emit("    if c != 1:")
            fn.emit(f"        K[{slot}] = 1; V[{slot}] = _ABSENT; changed = True")
            fn.emit("else:")
            fn.emit("    decided = False")
        for slot in self.event_slots:
            fn.emit(f"if K[{slot}] == 2 and V[{slot}] is _UV:")
            fn.emit(f"    V[{slot}] = _EVENT" + ("; decided = False" if slot in guarded_slots else ""))
        fn.emit("return changed, decided")
        return fn.source()

    def _build_verify_equations(self, module: _ModuleBuilder, process: "CompiledProcess") -> str:
        """The equation half of the final consistency check, re-evaluating
        every equation against the settled status arrays."""
        name = self.process_name
        fn = _FunctionBuilder(module, "_verify_equations", "K, V, S")
        for definition in process.definitions:
            target = definition.target
            slot = module.slots[target]
            fn.emit(f"# {target} := {definition.expression!r}"[:100])
            k, v = fn.lower(definition.expression)
            m_unresolved = module.message(
                f"{name}: equation for {target!r} cannot be resolved at this instant"
            )
            m_constant = module.message(f"{name}: {target!r} = ")
            m_abs_exp = module.message(
                f"{name}: {target!r} is present but its defining expression is absent"
            )
            m_pre_exp = module.message(
                f"{name}: {target!r} is absent but its defining expression is present"
            )
            fn.emit(f"if {k} == 2:")
            fn.emit(f"    c = K[{slot}]")
            fn.emit("    if c == 1:")
            fn.emit(f"        raise _CE({m_pre_exp})")
            fn.emit(f"    if {v} is not _UV and V[{slot}] != {v}:")
            fn.emit(
                f"        raise _CE({m_constant} + repr(V[{slot}]) + "
                f"' contradicts computed ' + repr({v}))"
            )
            fn.emit(f"elif {k} == 0:")
            fn.emit(f"    raise _UE({m_unresolved})")
            fn.emit(f"elif {k} == 3:")
            fn.emit(f"    if K[{slot}] == 2 and V[{slot}] != {v}:")
            fn.emit(
                f"        raise _CE({m_constant} + repr(V[{slot}]) + "
                f"' contradicts constant ' + repr({v}))"
            )
            fn.emit(f"elif K[{slot}] == 2:")
            fn.emit(f"    raise _CE({m_abs_exp})")
        fn.emit("return None")
        return fn.source()

    def _build_finish(self, module: _ModuleBuilder, process: "CompiledProcess") -> str:
        """The end of a converged reaction: unknown signals set absent, the
        equations verified by ``verify`` unless it is None, every clock
        constraint checked, then the resolved values and the successor
        memory (delay windows shifted, cells latched).  The last pass
        normalised the events already."""
        name = self.process_name
        # ``resolved``: the caller found no _UV in V, so no signal is
        # unknown and none is present without a value.
        fn = _FunctionBuilder(module, "_finish", "K, V, S, resolved, verify")
        if self.width:
            fn.emit("if not resolved:")
        for slot in range(self.width):
            fn.emit(f"if K[{slot}] == 0:", 2)
            fn.emit(f"    K[{slot}] = 1; V[{slot}] = _ABSENT", 2)
        fn.emit("if verify is not None:")
        fn.emit("    verify(K, V, S)")
        for constraint in process.constraints:
            fn.emit(f"# constraint {constraint!r}"[:100])
            codes = [fn.lower(operand)[0] for operand in constraint.operands]
            presents = [f"({k} == 2 or {k} == 3)" for k in codes]
            if len(presents) < 2:
                # Degenerate arities can never violate; the interpreter still
                # evaluates the operands, which the lowering above did.
                continue
            if constraint.kind == "=":
                m = module.message(f"{name}: violated clock equality {constraint!r}")
                fn.emit(f"if ({' or '.join(presents)}) and not ({' and '.join(presents)}):")
                fn.emit(f"    raise _CE({m})")
            elif constraint.kind == "<":
                m = module.message(f"{name}: violated clock inclusion {constraint!r}")
                fn.emit(f"if {presents[0]} and not ({' and '.join(presents[1:])}):")
                fn.emit(f"    raise _CE({m})")
            else:  # ">"
                m = module.message(f"{name}: violated clock inclusion {constraint!r}")
                fn.emit(f"if ({' or '.join(presents[1:])}) and not {presents[0]}:")
                fn.emit(f"    raise _CE({m})")
        fn.emit("values = tuple(V)")
        # Now only a present signal can hold _UV; the first one in slot
        # order is the one the interpreter reports.
        unresolved = module.constant(
            tuple(
                f"{name}: signal {signal!r} is present but its value could not be resolved"
                for signal in process.signal_names
            )
        )
        fn.emit("if not resolved and _UV in values:")
        fn.emit("    for slot, value in enumerate(values):")
        fn.emit("        if value is _UV:")
        fn.emit(f"            raise _UE({unresolved}[slot])")
        memory = []
        for index, (key, node) in enumerate(process.stateful_nodes()):
            fn.emit(f"# {key}: {node!r}"[:100])
            k, v = fn.lower(node.operand)
            update = f"S[{index}][1:] + ({v},)" if isinstance(node, Delay) else v
            fn.emit(f"n{index} = {update} if ({k} == 2 or {k} == 3) and {v} is not _UV else S[{index}]")
            memory.append(f"n{index}, ")
        fn.emit(f"return ({''.join(memory)}), values")
        return fn.source()

    # -- reactions -------------------------------------------------------------

    def _load(self, driven: Mapping[str, Any]) -> tuple[list, list]:
        """The status arrays of a reaction's start: the driven directives."""
        from .compiler import ConsistencyError

        UV = UNKNOWN_VALUE
        K = [0] * self.width
        V = [UV] * self.width
        slots = self.slot_of
        for signal, directive in driven.items():
            slot = slots.get(signal)
            if slot is None:
                raise ConsistencyError(
                    f"{self.process_name}: scenario drives unknown signal {signal!r}"
                )
            # merge_driven from unknown never conflicts: three plain cases.
            if directive is ABSENT:
                K[slot] = 1
                V[slot] = ABSENT
            elif directive is PRESENT:
                K[slot] = 2
            else:
                K[slot] = 2
                V[slot] = directive
        for slot in self.event_slots:
            if K[slot] == 2 and V[slot] is UV:
                V[slot] = EVENT
        return K, V

    def _react(self, K: list, V: list, S: tuple, bound: int) -> tuple[tuple, tuple]:
        """Run the fixpoint passes, then finish: ``(next_state, values)``.

        The passes stop at the first one that leaves every signal resolved,
        which is when no ``UNKNOWN_VALUE`` is left in ``V`` (an absent slot
        holds ``ABSENT``), or that changes nothing.  The equations are
        verified unless that pass resolved every signal and decided every
        equation.
        """
        run_pass = self._pass
        UV = UNKNOWN_VALUE
        for _ in range(bound):
            changed, decided = run_pass(K, V, S)
            if UV not in V:
                return self._finish(K, V, S, True, None if decided else self._verify)
            if not changed:
                return self._finish(K, V, S, False, self._verify)
        from .compiler import UnresolvedError

        raise UnresolvedError(
            f"{self.process_name}: reaction did not converge within {bound} fixpoint passes"
        )

    def _verify(self, K: list, V: list, S: tuple) -> None:
        """Check every equation against the settled status arrays.

        The checking function is generated and compiled on the first call:
        reactions whose pass decided every equation never need it.
        """
        verify = self._verify_equations
        if verify is None:
            started = perf_counter()
            self._exec(self._build_verify_equations(self._module, self._process))
            verify = self._verify_equations = self._module.namespace["_verify_equations"]
            self.compile_seconds += perf_counter() - started
            self._process.report_kernels()
        verify(K, V, S)

    def successor(self, stimuli: Sequence[Mapping[str, Any]], bound: int):
        """``react(state, index)`` over state tuples (see ``CompiledProcess.successor``).

        The status arrays of every stimulus are built once; each reaction
        copies them.
        """
        loaded = [self._load(stimulus) for stimulus in stimuli]
        run = self._react

        def react(state: tuple, index: int) -> tuple[tuple, tuple]:
            K, V = loaded[index]
            return run(K.copy(), V.copy(), state, bound)

        return react

    def step(
        self,
        state: Mapping[str, Any],
        driven: Mapping[str, Any],
        bound: int,
    ) -> tuple[dict[str, Any], dict[str, Any]]:
        """Resolve one reaction on the generated kernels.

        The dict adapter of :meth:`_react`; ``bound`` is the validated
        fixpoint bound computed by :meth:`CompiledProcess.step`.
        """
        K, V = self._load(driven)
        keys = self.state_keys
        next_state, values = self._react(K, V, tuple(state[key] for key in keys), bound)
        new_state = dict(state)
        new_state.update(zip(keys, next_state))
        return new_state, dict(zip(self.signal_names, values))

    # -- reporting -------------------------------------------------------------

    def info(self) -> dict[str, Any]:
        """Kernel count and compile time, for statistics surfaces."""
        return {
            "kernels": self.kernel_count,
            "kernel_compile_seconds": round(self.compile_seconds, 6),
        }
