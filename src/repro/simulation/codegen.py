"""Generated reaction kernels: the compiled half of ``CompiledProcess.step``.

The reference implementation of a reaction is ``_Evaluator`` in
:mod:`repro.simulation.compiler`: a recursive AST walk with isinstance
dispatch, re-run on every pass of every fixpoint.  That walk dominates the
run time of explicit exploration, simulation and trace replay.  This module
compiles an *expanded* process once, the first time a reaction needs it,
into three straight-line Python functions over slot-indexed status arrays:

* ``_pass`` — one full fixpoint pass: every equation evaluated and refined
  into the status arrays, every clock constraint propagated, events
  normalised; returns whether anything changed;
* ``_verify`` — the final consistency pass over equations and constraints;
* ``_finish`` — the end of a converged reaction: unknown signals set absent,
  ``_verify`` run, every present signal checked for a resolved value, and
  the result returned as ``(next_state, values)`` — the successor memory of
  the delay/cell operators in ``stateful_nodes()`` order and every signal's
  value (``ABSENT`` when absent) in slot order.

The arrays replace the dict of :class:`~repro.simulation.status.Status`:
``K`` holds one small-int kind per signal (0 unknown, 1 absent, 2 present,
3 constant), ``V`` the value slots (``UNKNOWN_VALUE`` until computed) and
``S`` the stateful memory in ``stateful_nodes()`` order.  The explorer runs
these tuples directly (:meth:`StepKernels.successor`); :meth:`StepKernels.step`
adapts them to the dict contract of ``CompiledProcess.step``.

The generated code reproduces the partial-knowledge semantics of
``_Evaluator`` branch for branch — including evaluation order, so every
``ConsistencyError``/``UnresolvedError``/``EvaluationError`` is raised under
exactly the same circumstances with exactly the same message as the
interpreter.  Integer operators run inline when both operands are plain
``int`` and fall back to the :data:`~repro.signal.operators.BINARY_OPERATORS`
function otherwise, so booleans, events and other values take the
interpreter's own conversion path.  The differential suite
(``tests/test_step_codegen.py``) pins that equivalence over the same
corpora the symbolic engine is checked against; the interpreter stays
available as the oracle via ``CompiledProcess(process, compile="interp")``.
"""

from __future__ import annotations

from time import perf_counter
from typing import TYPE_CHECKING, Any, Mapping, Sequence

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
from ..signal.operators import (
    BINARY_OPERATORS,
    UNARY_OPERATORS,
    apply_binary,
    apply_intrinsic,
    apply_unary,
    truthy,
)
from .status import PRESENT, UNKNOWN_VALUE

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .compiler import CompiledProcess


# ------------------------------------------------------------------- lowering

#: Operators emitted as bare Python comparisons, as their functions compute.
_INLINE_EQUALITY = {"=": "==", "/=": "!="}

#: Integer operators emitted inline behind a ``type(...) is int`` guard.
_INLINE_INTEGER = {
    "+": "+",
    "-": "-",
    "*": "*",
    "mod": "%",
    "<": "<",
    "<=": "<=",
    ">": ">",
    ">=": ">=",
}


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
            call = self.module.unary_call(expr.op)
            return self._lower_pointwise([expr.operand], call)
        if isinstance(expr, BinaryOp):
            call = self.module.binary_call(expr.op)
            return self._lower_pointwise([expr.left, expr.right], call)
        if isinstance(expr, FunctionCall):
            call = self.module.intrinsic_call(expr.function)
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
            "_apply_unary": apply_unary,
            "_apply_binary": apply_binary,
            "_apply_intrinsic": apply_intrinsic,
        }

    def _intern(self, prefix: str, value: Any) -> str:
        name = f"_{prefix}{len(self.namespace)}"
        self.namespace[name] = value
        return name

    def constant(self, value: Any) -> str:
        return self._intern("c", value)

    def message(self, text: str) -> str:
        return self._intern("m", text)

    def unary_call(self, op: str):
        function = UNARY_OPERATORS.get(op)
        if function is None:
            # Unknown operator: defer to apply_unary so the EvaluationError
            # fires lazily, exactly when the interpreter would raise it.
            return lambda vs: f"_apply_unary({op!r}, {vs[0]})"
        name = self._intern("f", function)
        return lambda vs: f"{name}({vs[0]})"

    def binary_call(self, op: str):
        function = BINARY_OPERATORS.get(op)
        if function is None:
            return lambda vs: f"_apply_binary({op!r}, {vs[0]}, {vs[1]})"
        if op in _INLINE_EQUALITY:
            # The operator functions compare the raw values: no conversion.
            symbol = _INLINE_EQUALITY[op]
            return lambda vs: f"({vs[0]} {symbol} {vs[1]})"
        name = self._intern("f", function)
        if op in _INLINE_INTEGER:
            # Plain ints need no _as_int; anything else (bool, event, ...)
            # takes the operator function for its conversion or its error.
            symbol = _INLINE_INTEGER[op]
            return lambda vs: (
                f"(({vs[0]} {symbol} {vs[1]}) if type({vs[0]}) is int and type({vs[1]}) is int "
                f"else {name}({vs[0]}, {vs[1]}))"
            )
        return lambda vs: f"{name}({vs[0]}, {vs[1]})"

    def intrinsic_call(self, function: str):
        # Intrinsics stay late-bound: register_intrinsic may add or replace
        # them after compilation, and the interpreter looks them up per call.
        return lambda vs: f"_apply_intrinsic({function!r}, {', '.join(vs)})"


# ------------------------------------------------------------------- the kernels

class StepKernels:
    """The compiled reaction engine of one :class:`CompiledProcess`.

    Three generated functions — fixpoint pass, verification pass, fused
    finish — resolve a reaction from status arrays to the successor memory
    and the resolved values.  :meth:`successor` runs them over state tuples
    for the explorer; :meth:`step` adapts them into a drop-in replacement
    for the interpreter path of :meth:`CompiledProcess.step`: same results,
    same exceptions, same messages.
    """

    def __init__(self, process: "CompiledProcess") -> None:
        started = perf_counter()
        name = process.name
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
        module = _ModuleBuilder(slots, state_index)

        sources = [
            self._build_pass(module, process),
            self._build_verify(module, process),
            self._build_finish(module, process),
        ]
        source = "\n\n\n".join(sources) + "\n"
        code = compile(source, f"<repro-step-kernels:{name}>", "exec")
        exec(code, module.namespace)
        self.source = source
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

    def _build_pass(self, module: _ModuleBuilder, process: "CompiledProcess") -> str:
        """One fixpoint pass: refine every equation, propagate every
        constraint, normalise events; returns whether anything changed."""
        name = self.process_name
        fn = _FunctionBuilder(module, "_pass", "K, V, S")
        fn.emit("changed = False")
        for definition in process.definitions:
            target = definition.target
            slot = module.slots[target]
            fn.emit(f"# {target} := {definition.expression!r}"[:100])
            k, v = fn.lower(definition.expression)
            m_absent = module.message(f"{name}: {target!r} must be absent but is present")
            m_present = module.message(f"{name}: {target!r} must be present but is absent")
            m_conflict = module.message(f"{name}: conflicting values for {target!r}: ")
            fn.emit(f"if {k} == 2:")
            fn.emit(f"    c = K[{slot}]")
            fn.emit("    if c == 1:")
            fn.emit(f"        raise _CE({m_present})")
            fn.emit(f"    if {v} is _UV:")
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
            fn.emit(f"elif {k} == 1:")
            fn.emit(f"    c = K[{slot}]")
            fn.emit("    if c == 2:")
            fn.emit(f"        raise _CE({m_absent})")
            fn.emit("    if c != 1:")
            fn.emit(f"        K[{slot}] = 1; changed = True")
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
                fn.emit(f"        K[{slot}] = 1; changed = True")
                fn.emit("    elif c == 2:")
                fn.emit(f"        raise _CE({m_force_absent})")
        for slot in self.event_slots:
            fn.emit(f"if K[{slot}] == 2 and V[{slot}] is _UV:")
            fn.emit(f"    V[{slot}] = _EVENT")
        fn.emit("return changed")
        return fn.source()

    def _build_verify(self, module: _ModuleBuilder, process: "CompiledProcess") -> str:
        """The final consistency pass, re-evaluating every equation and
        constraint against the fully resolved status arrays."""
        name = self.process_name
        fn = _FunctionBuilder(module, "_verify", "K, V, S")
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
        fn.emit("return None")
        return fn.source()

    def _build_finish(self, module: _ModuleBuilder, process: "CompiledProcess") -> str:
        """The end of a converged reaction: unknown signals set absent,
        events normalised, the verification pass, then the resolved values
        and the successor memory (delay windows shifted, cells latched)."""
        name = self.process_name
        fn = _FunctionBuilder(module, "_finish", "K, V, S")
        slots = range(self.width)
        for slot in slots:
            fn.emit(f"if K[{slot}] == 0:")
            fn.emit(f"    K[{slot}] = 1")
        for slot in self.event_slots:
            fn.emit(f"if K[{slot}] == 2 and V[{slot}] is _UV:")
            fn.emit(f"    V[{slot}] = _EVENT")
        fn.emit("_verify(K, V, S)")
        for slot in slots:
            fn.emit(f"x{slot} = V[{slot}] if K[{slot}] == 2 else _ABSENT")
        fn.emit("values = (" + "".join(f"x{slot}, " for slot in slots) + ")")
        if self.width:
            # Only a present signal can hold _UV; the first one in slot
            # order is the one the interpreter reports.
            unresolved = module.constant(
                tuple(
                    f"{name}: signal {signal!r} is present but its value could not be resolved"
                    for signal in process.signal_names
                )
            )
            fn.emit("if " + " or ".join(f"x{slot} is _UV" for slot in slots) + ":")
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
        """Run the fixpoint passes, then finish: ``(next_state, values)``."""
        run_pass = self._pass
        for _ in range(bound):
            if not run_pass(K, V, S):
                return self._finish(K, V, S)
        from .compiler import UnresolvedError

        raise UnresolvedError(
            f"{self.process_name}: reaction did not converge within {bound} fixpoint passes"
        )

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
