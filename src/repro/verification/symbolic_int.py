"""Symbolic reachability: bit-blasted BDD model checking.

This is the repository's one BDD engine.  Every boolean signal becomes two
BDD variables, ``x.p`` (presence) and ``x.v`` (carried truth value); an
event keeps only ``x.p``; and every integer signal with a declared or
inferred finite range ``[lo, hi]`` (see :mod:`repro.verification.ranges`)
becomes ``ceil(log2(hi - lo + 1))`` value bits holding ``value - lo`` in
binary.  A boolean/event control skeleton — the fragment the paper's Sigali
Z/3Z encoding (:mod:`repro.verification.encoding`) covers — is therefore the
special case with no integer bits, and the three Z/3Z codes map onto the
same presence/value bits (code 0 is ``¬x.p``, code 1 ``x.p ∧ x.v``, code 2
``x.p ∧ ¬x.v``), which is how Sigali polynomial invariants are checked here
(:meth:`IntSymbolicReachability.check_polynomial_invariant`).  SIGNAL
arithmetic compiles onto the bit-vector circuits of :mod:`repro.clocks.bdd`
— ripple-carry adders for ``+``/``-``, comparator chains for
``<``/``<=``/``=``, shift-and-add for ``*``, conditional subtraction for
``mod k`` — and the usual relational reading of the language turns every
equation, clock constraint and stimulus domain into one BDD conjunct of the
instantaneous relation.  The stimulus domain — the values driven integer
inputs take — has one home, the range report's ``integer_domain``: a
:class:`~repro.workbench.Design` infers its ranges from its
``ExplorationOptions.integer_domain``, so both engines share one alphabet,
and a standalone engine built without ``ranges=`` assumes ``(0, 1)``.
Reachability, invariants, counterexample traces and controller synthesis
run on the image fixpoint over the partitioned relation of
:mod:`repro.verification.relational`.

Soundness of declared capacities.  The operational semantics never clips a
value, so a range declared too small could make the symbolic engine quietly
drop reactions the explicit explorer performs.  Instead of trusting the
declaration, the engine records, for every equation and every memory slot,
the *overflow condition* — "the defining expression is needed but its value
falls outside the target's representable range" — and checks it against the
reached states (with the offending equation relaxed, so exclusion by the
equation itself cannot mask the divergence).  A reachable overflow flags the
analysis ``complete = False``: found violations and witnesses are still
reported, but universally-quantified verdicts refuse with
:class:`~repro.verification.reachability.BoundReached`, exactly like a
truncated explicit exploration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Any, Iterator, Mapping, Optional, Sequence, Union

from ..clocks.bdd import BDDManager, BDDNode, dump_nodes, load_nodes
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
    ProcessDefinition,
    SignalRef,
    UnaryOp,
    When,
)
from ..signal.operators import EvaluationError
from ..simulation.compiler import CompiledProcess
from .encoding import EncodingError
from .reachability import (
    BoundReached,
    CheckResult,
    ControlVerdict,
    Reachability,
    ReactionPredicate,
    Trace,
    TraceStep,
)
from .ranges import RangeReport, infer_ranges, operator_row, require, state_interval
from .relational import PartitionedRelation, _presence, _primed, _value, merge_pairwise
from .z3z import FIELD, Polynomial

#: Hard cap on the width of any one bit-blasted integer signal.
MAX_SIGNAL_BITS = 24

#: Cap on the number of concrete values a ``ReactionPredicate.value`` atom is
#: evaluated on (the atom's Python callable is opaque, so the engine
#: enumerates the signal's representable range).
VALUE_ATOM_LIMIT = 1 << 16


@dataclass
class SymbolicOptions:
    """Parameters of a symbolic exploration.

    The stimulus alphabet of driven integer inputs is not an option here: it
    travels with the range report (see the module docstring).

    Attributes:
        reorder: ``"auto"`` lets the BDD manager re-sift its variable order
            when the unique table outgrows ``reorder_threshold``; ``"off"``
            keeps the static constraint-locality declaration order.
        reorder_threshold: unique-table population that arms the first
            automatic reorder (doubling afterwards; clamped to half the
            ``node_budget`` when one is set).
        node_budget: hard cap on the unique table —
            :class:`~repro.clocks.bdd.NodeBudgetExceeded` beyond it (None =
            unbounded; benchmarks use this to bound adversarial orders).
        max_iterations: bound on image-computation rounds (None = fixpoint).
        ranges: per-signal ``(lo, hi)`` overrides, taking precedence over
            declaration ``bounds`` and inference.
        max_bits: per-signal bit-width cap (wider ranges refuse to encode).
    """

    reorder: str = "auto"
    reorder_threshold: int = 20000
    node_budget: Optional[int] = None
    max_iterations: Optional[int] = None
    ranges: Mapping[str, tuple[int, int]] = field(default_factory=dict)
    max_bits: int = MAX_SIGNAL_BITS

    def manager(self) -> BDDManager:
        """A fresh BDD manager configured from the reordering knobs."""
        if self.reorder not in ("auto", "off"):
            raise ValueError(f"reorder must be 'auto' or 'off', not {self.reorder!r}")
        return BDDManager(
            auto_reorder=self.reorder == "auto",
            reorder_threshold=self.reorder_threshold,
            node_budget=self.node_budget,
        )


# --------------------------------------------------------------------------- bit-vector values

@dataclass(frozen=True)
class _IntVec:
    """An integer-valued circuit: ``value = offset + unsigned(bits)``."""

    offset: int
    bits: tuple[BDDNode, ...]

    @property
    def lo(self) -> int:
        return self.offset

    @property
    def hi(self) -> int:
        return self.offset + (1 << len(self.bits)) - 1


def _width_for(count: int) -> int:
    """Bits needed to represent ``count`` distinct values (0 for a single one)."""
    return max(count - 1, 0).bit_length()


class _BitVectors:
    """The bit-vector algebra the operator table's circuits are written in.

    Boolean payloads are BDD nodes and integer payloads :class:`_IntVec`;
    each row of :data:`~repro.signal.operators.OPERATORS` with a circuit
    builds it from these methods alone.
    """

    def __init__(self, manager: BDDManager, name: str) -> None:
        self.manager = manager
        self.name = name
        self.neg, self.conj, self.disj, self.xor = manager.neg, manager.conj, manager.disj, manager.xor

    def _align(self, left: _IntVec, right: _IntVec) -> tuple[list[BDDNode], list[BDDNode]]:
        """Shift both vectors onto the smaller offset so they compare unsigned."""
        manager = self.manager
        delta = left.offset - right.offset
        a, b = list(left.bits), list(right.bits)
        if delta > 0:
            width = max(len(a), delta.bit_length()) + 1
            a = manager.bv_add(a, manager.bv_const(delta, delta.bit_length()), width)
        elif delta < 0:
            width = max(len(b), (-delta).bit_length()) + 1
            b = manager.bv_add(b, manager.bv_const(-delta, (-delta).bit_length()), width)
        return a, b

    def equal(self, left: Any, right: Any) -> BDDNode:
        if isinstance(left, _IntVec):
            return self.manager.bv_eq(*self._align(left, right))
        return self.manager.neg(self.manager.xor(left, right))

    def less(self, left: _IntVec, right: _IntVec) -> BDDNode:
        return self.manager.bv_lt(*self._align(left, right))

    def less_equal(self, left: _IntVec, right: _IntVec) -> BDDNode:
        return self.manager.bv_le(*self._align(left, right))

    def negate(self, operand: _IntVec) -> _IntVec:
        return _IntVec(-operand.hi, tuple(self.manager.bv_not(operand.bits)))

    def add(self, left: _IntVec, right: _IntVec) -> _IntVec:
        width = max(len(left.bits), len(right.bits)) + (1 if left.bits and right.bits else 0)
        bits = self.manager.bv_add(left.bits, right.bits, max(width, len(left.bits), len(right.bits)))
        return _IntVec(left.offset + right.offset, tuple(bits))

    def subtract(self, left: _IntVec, right: _IntVec) -> _IntVec:
        return self.add(left, self.negate(right))

    def multiply(self, left: _IntVec, right: _IntVec) -> _IntVec:
        manager = self.manager
        if left.offset < 0 or right.offset < 0:
            raise EncodingError(
                f"{self.name}: symbolic multiplication needs non-negative operand ranges"
            )
        # Rebase both onto offset 0, then classical shift-and-add.
        a = _IntVec(0, tuple(manager.bv_add(left.bits, manager.bv_const(left.offset, left.offset.bit_length()),
                                            _width_for(left.hi + 1)))) if left.offset else left
        b = _IntVec(0, tuple(manager.bv_add(right.bits, manager.bv_const(right.offset, right.offset.bit_length()),
                                            _width_for(right.hi + 1)))) if right.offset else right
        width = len(a.bits) + len(b.bits)
        accumulator = manager.bv_const(0, width)
        for index, bit in enumerate(b.bits):
            shifted = [manager.false] * index + list(a.bits)
            addend = manager.bv_mux(bit, shifted, manager.bv_const(0, width))
            accumulator = manager.bv_add(accumulator, addend, width)
        return _IntVec(0, tuple(accumulator))

    def modulo(self, operand: _IntVec, divisor: _IntVec) -> _IntVec:
        if divisor.bits or divisor.offset <= 0:
            raise EncodingError(f"{self.name}: symbolic mod needs a positive constant modulus")
        manager = self.manager
        modulus = divisor.offset
        # (offset + u) mod m == ((offset mod m) + u) mod m for positive m.
        base = operand.offset % modulus
        width = max(((1 << len(operand.bits)) - 1 + base).bit_length(), modulus.bit_length(), 1)
        remainder = manager.bv_add(operand.bits, manager.bv_const(base, base.bit_length()), width)
        modulus_bits = manager.bv_const(modulus, width)
        wrap = manager.bv_const((1 << width) - modulus, width)
        steps = ((1 << len(operand.bits)) - 1 + base) // modulus
        for _ in range(steps):
            reduced = manager.bv_add(remainder, wrap, width)  # remainder - m, mod 2^width
            remainder = manager.bv_mux(manager.bv_lt(remainder, modulus_bits), remainder, reduced)
        return _IntVec(0, tuple(remainder))


class _Sym:
    """Relational status of one sub-expression.

    ``pres`` is the condition under which the expression carries an event;
    ``value`` its payload then (a BDD for boolean/event values, an
    :class:`_IntVec` for integers).  ``fallback`` reproduces the evaluator's
    *constant* status: when not ``None`` and ``pres`` is false, the
    expression behaves as a clock-adaptive constant of that Python value —
    present wherever the context needs it, never forcing a clock.
    """

    __slots__ = ("kind", "pres", "value", "fallback")

    def __init__(self, kind: str, pres: BDDNode, value: Any, fallback: Any = None) -> None:
        self.kind = kind  # 'bool' (covers events) or 'int'
        self.pres = pres
        self.value = value
        self.fallback = fallback


# --------------------------------------------------------------------------- the engine

class IntSymbolicEngine:
    """BDD transition-relation encoding of a finite-integer SIGNAL process."""

    def __init__(
        self,
        source: Union[ProcessDefinition, CompiledProcess],
        options: Optional[SymbolicOptions] = None,
        ranges: Optional[RangeReport] = None,
    ) -> None:
        self._lay_out(source, options, ranges)
        self._build_relation()

    @classmethod
    def rehydrated(
        cls,
        source: Union[ProcessDefinition, CompiledProcess],
        options: Optional[SymbolicOptions] = None,
        ranges: Optional[RangeReport] = None,
        payload: Optional[Mapping] = None,
    ) -> "IntSymbolicEngine":
        """An engine restored from a ``snapshot_relation`` payload.

        Skips :meth:`_build_relation` — the bit-vector circuit compilation
        that dominates construction — and loads the relation, the relaxed
        audit relation and the overflow clip conditions from ``payload``;
        only the cheap AST-walking variable layout runs.
        """
        if payload is None:
            raise ValueError("rehydrated() needs a snapshot_relation payload")
        engine = cls.__new__(cls)
        engine._lay_out(source, options, ranges)
        engine._restore_relation(payload)
        return engine

    def _lay_out(
        self,
        source: Union[ProcessDefinition, CompiledProcess],
        options: Optional[SymbolicOptions],
        ranges: Optional[RangeReport],
    ) -> None:
        """Everything before the relation: process, ranges and bit layout.

        Without ``ranges``, driven integer inputs take
        :func:`~repro.verification.ranges.infer_ranges`' default stimulus
        alphabet ``(0, 1)``.
        """
        self.compiled = source if isinstance(source, CompiledProcess) else CompiledProcess(source)
        self.options = options or SymbolicOptions()
        self.manager = self.options.manager()
        self.bits = _BitVectors(self.manager, self.compiled.name)
        self.ranges: RangeReport = ranges if ranges is not None else infer_ranges(
            self.compiled, declared=self.options.ranges
        )
        self.signal_names: list[str] = list(self.compiled.signal_names)
        self._check_widths()
        self._slot_keys = {id(node): key for key, node in self.compiled.stateful_nodes()}
        self._slots: dict[str, dict[str, Any]] = {}  # slot name -> layout record
        self._memo: dict[int, _Sym] = {}
        self._declare_variables()

    def snapshot_relation(self) -> dict:
        """The engine's durable BDDs as one pure-data payload.

        One shared node table holds the instantaneous relation, the initial
        state set, the transition clusters and the overflow audit's roots —
        the relaxed relation and the equation and slot clip conditions, which
        every later :meth:`reach` consults — so :meth:`rehydrated` rebuilds
        the engine without redoing any BDD circuit work, and without losing
        the range-soundness check.
        """
        roots = [
            self.instantaneous,
            self.initial,
            *self.relation.clusters,
            self._relaxed_relation,
            *(clip for _name, clip in self._equation_clips),
            *(clip for _key, clip in self._slot_clips),
        ]
        return {
            "cluster_count": len(self.relation.clusters),
            "dump": dump_nodes(self.manager, roots),
            "equation_clips": [name for name, _clip in self._equation_clips],
            "slot_clips": [key for key, _clip in self._slot_clips],
        }

    def _restore_relation(self, payload: Mapping) -> None:
        """Reinstall the roots of a :meth:`snapshot_relation` payload.

        The variable layout must be declared first, so the manager knows the
        reorder groups; the loaded diagrams themselves are order independent.
        Every restored root is protected: a rehydrated engine must survive
        its first garbage-collecting reorder exactly like a freshly built one.
        """
        manager = self.manager
        roots = [manager.protect(root) for root in load_nodes(manager, payload["dump"])]
        cluster_count = payload["cluster_count"]
        equation_names = list(payload["equation_clips"])
        slot_keys = list(payload["slot_clips"])
        if len(roots) != 3 + cluster_count + len(equation_names) + len(slot_keys):
            raise ValueError("relation snapshot roots do not match their metadata")
        self.instantaneous, self.initial = roots[0], roots[1]
        # cluster_size=0 keeps every restored cluster as its own cluster —
        # re-merging would undo the clustering the snapshot was taken with.
        self.relation = PartitionedRelation(manager, roots[2 : 2 + cluster_count], cluster_size=0)
        audit = roots[2 + cluster_count :]
        self._relaxed_relation = audit[0]
        self._equation_clips = list(zip(equation_names, audit[1 : 1 + len(equation_names)]))
        self._slot_clips = list(zip(slot_keys, audit[1 + len(equation_names) :]))
        # Build-time scratch lists; a rehydrated engine never re-runs the build.
        self._equation_constraints = []
        self._relaxed_constraints = []

    @property
    def name(self) -> str:
        """Name of the encoded process (shared engine interface)."""
        return self.compiled.name

    # -- layout ------------------------------------------------------------------------

    def _kind_of_signal(self, name: str) -> str:
        return "int" if self.compiled.signal_types.get(name) == "integer" else "bool"

    def _check_widths(self) -> None:
        for name, (lo, hi) in self.ranges.signals.items():
            if _width_for(hi - lo + 1) > self.options.max_bits:
                raise EncodingError(
                    f"{self.name}: signal {name!r} range [{lo}, {hi}] needs "
                    f"{_width_for(hi - lo + 1)} bits, beyond max_bits={self.options.max_bits}"
                )

    def _signal_bit_names(self, name: str) -> list[str]:
        bits = [_presence(name)]
        kind = self._kind_of_signal(name)
        if kind == "bool" and self.compiled.signal_types.get(name) != "event":
            bits.append(_value(name))
        elif kind == "int":
            lo, hi = self.ranges.range_of(name)
            bits.extend(f"{name}.v{index}" for index in range(_width_for(hi - lo + 1)))
        return bits

    def _expression_kind(self, expression: Expression) -> str:
        if isinstance(expression, SignalRef):
            return self._kind_of_signal(expression.name)
        if isinstance(expression, Constant):
            value = expression.value
            if isinstance(value, bool) or value is EVENT:
                return "bool"
            if isinstance(value, int):
                return "int"
            raise EncodingError(f"{self.name}: cannot bit-blast constant {value!r}")
        if isinstance(expression, (Delay, Cell, When)):
            return self._expression_kind(expression.operand)
        if isinstance(expression, Default):
            left = self._expression_kind(expression.left)
            right = self._expression_kind(expression.right)
            if left != right:
                raise EncodingError(f"{self.name}: merge of {left} and {right} values in {expression!r}")
            return left
        if isinstance(expression, (ClockOf, ClockBinary)):
            return "bool"
        if isinstance(expression, (UnaryOp, BinaryOp, FunctionCall)):
            return operator_row(expression, self.name).result
        raise EncodingError(f"{self.name}: cannot bit-blast {expression!r}")

    def _slot_layout(self, node: Union[Delay, Cell]) -> list[str]:
        """Register (once) and return the slot names of a stateful operator."""
        key = self._slot_keys.get(id(node))
        if key is None:
            raise EncodingError(
                f"{self.name}: stateful operator outside an equation cannot be bit-blasted: {node!r}"
            )
        depth = node.depth if isinstance(node, Delay) else 1
        names = [f"{key}#{index}" for index in range(depth)]
        if names[0] in self._slots:
            return names
        kind = self._expression_kind(node.operand)
        if kind == "int":
            interval = state_interval(node, self.ranges.signals, self.name)
            if interval is None:
                raise EncodingError(
                    f"{self.name}: no finite range for the memory of {key} ({node!r})"
                )
            lo, hi = interval
            width = _width_for(hi - lo + 1)
            if width > self.options.max_bits:
                raise EncodingError(
                    f"{self.name}: memory {key} range [{lo}, {hi}] is wider than max_bits"
                )
        else:
            lo, width = 0, 1
        for name in names:
            self._slots[name] = {
                "kind": kind,
                "lo": lo,
                "width": width,
                "bits": [f"{name}.b{j}" for j in range(width)] if kind == "int" else [name + ".b0"],
                "init": node.init,
            }
        return names

    def _declare_variables(self) -> None:
        """Declare BDD bits in constraint-locality order.

        Each equation's target, operands and memory slots sit next to each
        other, which keeps the relation small for pipelined designs such as
        shift registers; a slot's primed bit sits directly below its
        unprimed one, and the pair is declared as a reorder group so
        dynamic sifting keeps them adjacent.
        """
        manager = self.manager
        declared: set[str] = set()

        def declare_signal(name: str) -> None:
            if name in declared:
                return
            declared.add(name)
            for bit in self._signal_bit_names(name):
                manager.declare(bit)

        def declare_slots(expression: Expression) -> None:
            stack = [expression]
            while stack:
                node = stack.pop()
                if isinstance(node, (Delay, Cell)) and id(node) in self._slot_keys:
                    for slot in self._slot_layout(node):
                        for bit in self._slots[slot]["bits"]:
                            manager.declare(bit)
                            manager.declare(_primed(bit))
                            manager.group_variables((bit, _primed(bit)))
                stack.extend(node.children())

        for definition in self.compiled.definitions:
            declare_signal(definition.target)
            for name in sorted(definition.expression.references()):
                declare_signal(name)
            declare_slots(definition.expression)
        for name in self.signal_names:
            declare_signal(name)

        self.signal_bits = [bit for name in self.signal_names for bit in self._signal_bit_names(name)]
        self.state_bits = [bit for slot in self._slots.values() for bit in slot["bits"]]
        self.primed_bits = [_primed(bit) for bit in self.state_bits]
        self._prime_map = {bit: _primed(bit) for bit in self.state_bits}
        self._unprime_map = {primed: bit for bit, primed in self._prime_map.items()}

    # -- bit-vector value algebra -----------------------------------------------------

    def _iv_const(self, value: int) -> _IntVec:
        return _IntVec(value, ())

    def _materialise_const(self, kind: str, value: Any) -> Any:
        if kind == "int":
            if isinstance(value, bool) or not isinstance(value, int):
                raise EncodingError(f"{self.name}: integer context holds constant {value!r}")
            return self._iv_const(value)
        if value is EVENT:
            return self.manager.true
        if isinstance(value, bool):
            return self.manager.true if value else self.manager.false
        raise EncodingError(f"{self.name}: boolean context holds constant {value!r}")

    def _iv_in_window(self, value: _IntVec, lo: int, width: int) -> BDDNode:
        """Is the value inside the ``width``-bit window starting at ``lo``?"""
        above = self.bits.less_equal(self._iv_const(lo), value)
        below = self.bits.less_equal(value, self._iv_const(lo + (1 << width) - 1))
        return self.manager.conj(above, below)

    def _iv_rebase_bits(self, value: _IntVec, lo: int, width: int) -> list[BDDNode]:
        """Bits of ``value - lo`` truncated mod 2^width (exact inside the window)."""
        delta = (value.offset - lo) % (1 << width) if width else 0
        if width == 0:
            return []
        return self.manager.bv_add(value.bits, self.manager.bv_const(delta, delta.bit_length()), width)

    # -- expression compilation --------------------------------------------------------

    def _truthy(self, sym: _Sym) -> BDDNode:
        """Truth of a present payload, per the ``when`` sampling rule."""
        manager = self.manager
        if sym.kind == "bool":
            payload = self._payload(sym)
            return payload
        value = self._payload(sym)
        if value.lo <= 0 <= value.hi:
            return manager.neg(self.bits.equal(value, self._iv_const(0)))
        return manager.true

    def _payload(self, sym: _Sym) -> Any:
        """The expression's value wherever it provides one (present or constant)."""
        if sym.value is None:
            return self._materialise_const(sym.kind, sym.fallback)
        if sym.fallback is None:
            return sym.value
        fallback = self._materialise_const(sym.kind, sym.fallback)
        if sym.kind == "bool":
            return self.manager.ite(sym.pres, sym.value, fallback)
        return self._iv_mux(sym.pres, sym.value, fallback)

    def _iv_mux(self, condition: BDDNode, then: _IntVec, otherwise: _IntVec) -> _IntVec:
        manager = self.manager
        lo = min(then.offset, otherwise.offset)
        hi = max(then.hi, otherwise.hi)
        width = _width_for(hi - lo + 1)
        a = manager.bv_extend(self._iv_rebase_bits(then, lo, width), width)
        b = manager.bv_extend(self._iv_rebase_bits(otherwise, lo, width), width)
        return _IntVec(lo, tuple(manager.bv_mux(condition, a, b)))

    def _provides(self, sym: _Sym) -> BDDNode:
        """Condition under which the expression supplies a value at all."""
        return self.manager.true if sym.fallback is not None else sym.pres

    def _compile(self, expression: Expression) -> _Sym:
        memo = self._memo.get(id(expression))
        if memo is not None:
            return memo
        sym = self._compile_fresh(expression)
        self._memo[id(expression)] = sym
        return sym

    def _compile_fresh(self, expression: Expression) -> _Sym:
        manager = self.manager
        if isinstance(expression, SignalRef):
            name = expression.name
            if name not in self.compiled.signal_types:
                raise EncodingError(f"{self.name}: unknown signal {name!r}")
            pres = manager.var(_presence(name))
            if self._kind_of_signal(name) == "int":
                lo, _hi = self.ranges.range_of(name)
                bits = tuple(manager.var(bit) for bit in self._signal_bit_names(name)[1:])
                return _Sym("int", pres, _IntVec(lo, bits))
            if self.compiled.signal_types.get(name) == "event":
                return _Sym("bool", pres, manager.true)
            return _Sym("bool", pres, manager.var(_value(name)))
        if isinstance(expression, Constant):
            kind = self._expression_kind(expression)
            return _Sym(kind, manager.false, None, fallback=expression.value)
        if isinstance(expression, Delay):
            return self._compile_delay(expression)
        if isinstance(expression, Cell):
            return self._compile_cell(expression)
        if isinstance(expression, When):
            return self._compile_when(expression)
        if isinstance(expression, Default):
            return self._compile_default(expression)
        if isinstance(expression, ClockOf):
            operand = self._compile(expression.operand)
            fallback = EVENT if operand.fallback is not None else None
            return _Sym("bool", operand.pres, manager.true, fallback=fallback)
        if isinstance(expression, ClockBinary):
            left = self._provides(self._compile(expression.left))
            right = self._provides(self._compile(expression.right))
            if expression.op == "^*":
                pres = manager.conj(left, right)
            elif expression.op == "^+":
                pres = manager.disj(left, right)
            else:  # "^-"
                pres = manager.diff(left, right)
            return _Sym("bool", pres, manager.true)
        if isinstance(expression, (UnaryOp, BinaryOp, FunctionCall)):
            return self._compile_pointwise(expression)
        raise EncodingError(f"{self.name}: cannot bit-blast {expression!r}")

    def _compile_delay(self, node: Delay) -> _Sym:
        operand = self._compile(node.operand)
        slots = self._slot_layout(node)
        head = self._slots[slots[0]]
        pres = self._provides(operand)
        return _Sym(head["kind"], pres, self._slot_payload(head))

    def _slot_payload(self, slot: Mapping[str, Any]) -> Any:
        manager = self.manager
        if slot["kind"] == "int":
            return _IntVec(slot["lo"], tuple(manager.var(bit) for bit in slot["bits"]))
        return manager.var(slot["bits"][0])

    def _compile_cell(self, node: Cell) -> _Sym:
        manager = self.manager
        operand = self._compile(node.operand)
        clock = self._compile(node.clock)
        slots = self._slot_layout(node)
        stored = self._slot_payload(self._slots[slots[0]])
        provides = self._provides(operand)
        ticking = manager.conj(self._provides(clock), self._truthy(clock))
        pres = manager.disj(provides, ticking)
        if operand.kind == "int":
            value = self._iv_mux(provides, self._payload(operand), stored)
        else:
            value = manager.ite(provides, self._payload(operand), stored)
        return _Sym(operand.kind, pres, value)

    def _compile_when(self, node: When) -> _Sym:
        manager = self.manager
        operand = self._compile(node.operand)
        condition = self._compile(node.condition)
        if condition.value is None:  # pure constant condition: adapts, never constrains
            if self._truthy_constant(condition.fallback):
                return operand
            return _Sym(operand.kind, manager.false, self._neutral(operand.kind))
        sampling = manager.conj(condition.pres, self._truthy(condition))
        if condition.fallback is not None and self._truthy_constant(condition.fallback):
            sampling = manager.disj(sampling, manager.neg(condition.pres))
        pres = manager.conj(sampling, self._provides(operand))
        return _Sym(operand.kind, pres, self._payload(operand))

    def _truthy_constant(self, value: Any) -> bool:
        if value is EVENT:
            return True
        if isinstance(value, (bool, int)):
            return bool(value)
        raise EncodingError(f"{self.name}: cannot sample on constant {value!r}")

    def _neutral(self, kind: str) -> Any:
        return self._iv_const(0) if kind == "int" else self.manager.false

    def _compile_default(self, node: Default) -> _Sym:
        manager = self.manager
        left = self._compile(node.left)
        right = self._compile(node.right)
        if left.kind != right.kind:
            raise EncodingError(f"{self.name}: merge of {left.kind} and {right.kind} in {node!r}")
        if left.fallback is not None:
            # A constant-mode left wins outright (the evaluator returns it
            # before even looking at the right branch).
            return left
        pres = manager.disj(left.pres, right.pres)
        if left.kind == "int":
            value = self._iv_mux(left.pres, left.value, self._payload(right))
        else:
            value = manager.ite(left.pres, left.value, self._payload(right))
        return _Sym(left.kind, pres, value, fallback=right.fallback)

    def _compile_pointwise(self, node: Union[UnaryOp, BinaryOp, FunctionCall]) -> _Sym:
        """An operator application: its row's circuit over the operands' payloads."""
        manager = self.manager
        row = operator_row(node, self.name)
        syms = [self._compile(operand) for operand in node.children()]
        strict = [sym.pres for sym in syms if sym.fallback is None]
        pres = manager.conj(
            manager.conj_all(strict),
            manager.disj_all(sym.pres for sym in syms),
        )
        fallback = None
        if all(sym.fallback is not None for sym in syms):
            # Every operand still has a value when absent (constant mode), so
            # the result keeps a constant mode too: in the all-absent scenario
            # each operand contributes its fallback, and the fold below is
            # what the evaluator's Status.constant path computes.
            try:
                fallback = row.function(*(sym.fallback for sym in syms))
            except EvaluationError as error:
                raise EncodingError(f"{self.name}: {error} in {node!r}") from None
        payloads = [self._payload(sym) for sym in syms]
        circuit = require(row, "circuit", self.name)
        kinds = [sym.kind for sym in syms]
        wanted = [kinds[0] if want == "any" else want for want in row.operands]
        if kinds != wanted:
            raise EncodingError(f"{self.name}: {row.name!r} expects {wanted} operands, got {kinds}")
        return _Sym(row.result, pres, circuit(self.bits, *payloads), fallback=fallback)

    # -- the instantaneous and transition relations ------------------------------------

    def _build_checkpoint(self, *extra: BDDNode) -> None:
        """Reordering checkpoint during relation construction.

        The roots are the durable conjuncts built so far (passed by the
        caller) plus every BDD captured in the expression-compilation memo —
        later equations reuse memoised sub-circuits, so they must survive a
        garbage-collecting reorder.  (Clip conditions are protected at
        creation and need no listing.)
        """
        roots = list(extra)
        for sym in self._memo.values():
            roots.append(sym.pres)
            value = sym.value
            if isinstance(value, _IntVec):
                roots.extend(value.bits)
            elif value is not None:
                roots.append(value)
        self.manager.maybe_reorder(roots)

    def _build_relation(self) -> None:
        manager = self.manager
        compiled = self.compiled

        well_formed = merge_pairwise(
            manager,
            [
                manager.implies(manager.var(bit), manager.var(_presence(name)))
                for name in self.signal_names
                for bit in self._signal_bit_names(name)[1:]
            ],
        )[0]

        domain_parts: list[BDDNode] = []
        values = sorted(set(self.ranges.integer_domain))
        defined = {definition.target for definition in compiled.definitions}
        for name in self.signal_names:
            if self._kind_of_signal(name) != "int" or name in defined:
                continue
            # Every integer signal without a defining equation is driven by
            # the environment — the declared inputs, but also free outputs the
            # explicit explorer drives via ``extra_driven``.  All of them
            # carry the stimulus alphabet, never the whole declared window:
            # leaving a non-input free over its bounds would make reactions
            # reachable that the reference explorer can never perform.
            # Compiled unmemoised: the memo is keyed by node identity, and
            # a temporary node's id is reused once it is freed.
            signal = self._compile_fresh(SignalRef(name))
            member = manager.disj_all(
                self.bits.equal(signal.value, self._iv_const(v)) for v in values
            )
            domain_parts.append(manager.implies(signal.pres, member))
        domain = merge_pairwise(manager, domain_parts)[0]

        clock_parts = [self._clock_constraint(constraint) for constraint in compiled.constraints]

        self._equation_constraints: list[BDDNode] = []
        self._relaxed_constraints: list[BDDNode] = []
        self._equation_clips: list[tuple[str, BDDNode]] = []
        # Every BDD consumed after the loops below must ride through the
        # garbage-collecting checkpoints.
        durable = [well_formed, domain, *clock_parts]
        for definition in compiled.definitions:
            constraint, relaxed, clip = self._equation(definition)
            self._equation_constraints.append(constraint)
            self._relaxed_constraints.append(relaxed)
            if clip is not manager.false:
                # Clips are consulted by the overflow audit after the (maybe
                # reordered) fixpoint, so they must survive collection.
                self._equation_clips.append((definition.target, manager.protect(clip)))
            self._build_checkpoint(
                *durable, *self._equation_constraints, *self._relaxed_constraints
            )

        # The transition relation stays partitioned: one conjunct per clock
        # constraint, per equation and per memory-slot update (the int
        # engine's bit-vector fragments).  ``instantaneous`` folds the leading
        # parts in the pairwise shape the clustering later merges them in,
        # so the clustering finds those subtrees in the computed cache.
        parts: list[BDDNode] = [well_formed, domain, *clock_parts, *self._equation_constraints]
        self.instantaneous = merge_pairwise(manager, parts)[0]
        # The audit relation: every equation keeps its presence linking and its
        # in-window value equality, but *admits* the reactions whose value
        # falls outside the window (target bits unconstrained there).  This is
        # the projection of the explicit relation onto the representable
        # space, so clips are audited against it — a strict window of one
        # equation can never mask a simultaneous clip of another.  Without an
        # integer target every relaxed conjunct is the strict one.
        if all(
            relaxed is strict
            for relaxed, strict in zip(self._relaxed_constraints, self._equation_constraints)
        ):
            self._relaxed_relation = manager.protect(self.instantaneous)
        else:
            self._relaxed_relation = manager.protect(
                merge_pairwise(
                    manager, [well_formed, domain, *clock_parts, *self._relaxed_constraints]
                )[0]
            )
        self._slot_clips: list[tuple[str, BDDNode]] = []
        for key, node in compiled.stateful_nodes():
            step, clip = self._slot_transition(node)
            parts.append(step)
            if clip is not manager.false:
                self._slot_clips.append((key, manager.protect(clip)))
            self._build_checkpoint(
                self.instantaneous, *parts, *self._relaxed_constraints
            )

        initial: dict[str, bool] = {}
        for name, slot in self._slots.items():
            initial.update(self._slot_cube(slot, slot["init"]))
        self.initial = manager.cube(initial)
        self._finalise_relation(parts)

    def _finalise_relation(self, parts: Sequence[BDDNode]) -> None:
        """Install the partitioned transition relation from its ``parts``.

        The clusters, ``instantaneous`` and ``initial`` are protected so
        dynamic reordering optimises for them.  :meth:`_build_relation`
        calls this *last*, with ``instantaneous`` and ``initial`` already set
        and every other durable BDD (audit relation, clip conditions) already
        protected — a reordering checkpoint garbage-collects down to exactly
        that set.
        """
        manager = self.manager
        # Entry checkpoint: the build loops leave construction garbage
        # behind; collect it (and maybe re-sift) before clustering adds its
        # own conjunctions.
        manager.maybe_reorder((self.instantaneous, self.initial, *parts))
        self.relation = PartitionedRelation(manager, parts)
        for cluster in self.relation.clusters:
            manager.protect(cluster)
        manager.protect(self.instantaneous)
        manager.protect(self.initial)
        manager.maybe_reorder()

    def _clock_constraint(self, constraint) -> BDDNode:
        manager = self.manager
        clocks = [self._provides_or_pres(operand) for operand in constraint.operands]
        if constraint.kind == "=":
            return manager.conj_all(
                manager.neg(manager.xor(clocks[0], other)) for other in clocks[1:]
            )
        if constraint.kind == "<":
            return manager.conj_all(manager.implies(clocks[0], other) for other in clocks[1:])
        return manager.conj_all(manager.implies(other, clocks[0]) for other in clocks[1:])

    def _provides_or_pres(self, expression: Expression) -> BDDNode:
        sym = self._compile(expression)
        return self._provides(sym) if sym.fallback is not None else sym.pres

    def _equation(self, definition) -> tuple[BDDNode, BDDNode, BDDNode]:
        """Compile one equation into (strict, relaxed, clip).

        ``strict`` is the conjunct of the instantaneous relation (a present
        target must carry an in-window value equal to the expression's);
        ``relaxed`` replaces "in-window AND equal" by "in-window IMPLIES
        equal", admitting the out-of-window reactions the explicit semantics
        performs; ``clip`` is the condition under which the two differ — the
        expression's value is needed but not representable.
        """
        manager = self.manager
        target = definition.target
        sym = self._compile(definition.expression)
        target_type = self.compiled.signal_types.get(target)
        target_kind = self._kind_of_signal(target)
        if sym.kind != target_kind:
            raise EncodingError(
                f"{self.name}: equation for {target!r} yields {sym.kind}, signal is {target_kind}"
            )
        presence = manager.var(_presence(target))
        linking = manager.implies(sym.pres, presence)
        if sym.fallback is None:
            linking = manager.conj(linking, manager.implies(presence, sym.pres))
        clip = manager.false
        value_needed = manager.disj(sym.pres, presence if sym.fallback is not None else manager.false)
        payload = self._payload(sym)
        if target_kind == "int":
            lo, hi = self.ranges.range_of(target)
            width = _width_for(hi - lo + 1)
            in_window = self._iv_in_window(payload, lo, width)
            target_vec = _IntVec(lo, tuple(manager.var(bit) for bit in self._signal_bit_names(target)[1:]))
            equal = self.bits.equal(payload, target_vec)
            strict = manager.conj(
                linking, manager.implies(presence, manager.conj(in_window, equal))
            )
            relaxed = manager.conj(
                linking, manager.implies(presence, manager.implies(in_window, equal))
            )
            clip = manager.conj(value_needed, manager.neg(in_window))
            return strict, relaxed, clip
        if target_type == "event":
            # Events carry no value bit but must be driven by a *true* payload
            # (mirrors the Z/3Z rule pinning event codes to {0, 1}).
            strict = manager.conj(linking, manager.implies(presence, payload))
        else:
            value_bit = manager.var(_value(target))
            equal = manager.neg(manager.xor(value_bit, payload))
            strict = manager.conj(linking, manager.implies(presence, equal))
        return strict, strict, clip

    def _slot_cube(self, slot: Mapping[str, Any], value: Any) -> dict[str, bool]:
        if slot["kind"] == "int":
            if isinstance(value, bool) or not isinstance(value, int):
                raise EncodingError(f"{self.name}: integer memory initialised with {value!r}")
            encoded = value - slot["lo"]
            if encoded < 0 or encoded >= (1 << slot["width"]):
                raise EncodingError(f"{self.name}: initial value {value} outside memory range")
            return {bit: bool((encoded >> j) & 1) for j, bit in enumerate(slot["bits"])}
        truth = value is EVENT or bool(value)
        return {slot["bits"][0]: truth}

    def _slot_transition(self, node: Union[Delay, Cell]) -> tuple[BDDNode, BDDNode]:
        manager = self.manager
        slots = [self._slots[name] for name in self._slot_layout(node)]
        operand = self._compile(node.operand)
        update = self._provides(operand)
        incoming = self._payload(operand)
        clip = manager.false
        head = slots[0]
        if head["kind"] == "int":
            in_window = self._iv_in_window(incoming, head["lo"], head["width"])
            clip = manager.conj(update, manager.neg(in_window))
            guard = manager.implies(update, in_window)
            incoming_bits = self._iv_rebase_bits(incoming, head["lo"], head["width"])
        else:
            guard = manager.true
            incoming_bits = [incoming]
        constraint = guard
        for index, slot in enumerate(slots):
            if index + 1 < len(slots):
                next_bits = [manager.var(bit) for bit in slots[index + 1]["bits"]]
            else:
                next_bits = list(incoming_bits)
            current_bits = [manager.var(bit) for bit in slot["bits"]]
            updated = manager.bv_mux(update, manager.bv_extend(next_bits, len(current_bits)), current_bits)
            for bit_name, bit_value in zip(slot["bits"], updated):
                primed = manager.var(_primed(bit_name))
                constraint = manager.conj(constraint, manager.neg(manager.xor(primed, bit_value)))
        return constraint, clip

    # -- predicates --------------------------------------------------------------------

    def predicate_bdd(self, predicate: ReactionPredicate) -> BDDNode:
        """Compile a reaction predicate onto the signal bits.

        ``value`` atoms are evaluated by enumerating the signal's (finite)
        representable domain and constraining the bit-vector to the values the
        atom's Python callable accepts.
        """
        manager = self.manager
        kind = predicate.kind
        if kind == "const":
            return manager.true if predicate.operands[0] else manager.false
        if kind == "not":
            return manager.neg(self.predicate_bdd(predicate.operands[0]))
        if kind == "and":
            return manager.conj_all(self.predicate_bdd(p) for p in predicate.operands)
        if kind == "or":
            return manager.disj_all(self.predicate_bdd(p) for p in predicate.operands)
        name = predicate.operands[0]
        if name not in self.compiled.signal_types:
            raise KeyError(f"{self.name}: predicate mentions unknown signal {name!r}")
        presence = manager.var(_presence(name))
        if kind == "present":
            return presence
        signal_type = self.compiled.signal_types[name]
        if kind == "value":
            return self._value_atom_bdd(name, predicate.operands[1], presence, signal_type)
        if signal_type == "event":
            return presence if kind == "true" else manager.false
        if signal_type == "integer":
            # Strictly-boolean semantics: a present integer is neither true
            # nor false, mirroring ReactionPredicate.evaluate on reactions.
            return manager.false
        value = manager.var(_value(name))
        if kind == "true":
            return manager.conj(presence, value)
        return manager.conj(presence, manager.neg(value))

    def polynomial_bdd(self, polynomial: Polynomial) -> BDDNode:
        """BDD of the Sigali objective ``polynomial = 0`` over the signal bits.

        Enumerates the ternary assignments of the polynomial's own support
        (3^support cubes) with the Z/3Z codes read off the presence/value
        bits: code 0 is ``¬x.p``, code 1 is ``x.p ∧ x.v`` (``x.p`` for an
        event), code 2 is ``x.p ∧ ¬x.v`` (impossible for an event).

        Raises:
            KeyError: for a name that is no signal of the process.
            ValueError: for an integer signal or a Z/3Z state variable
                (``__stateN``), which have no code on these bits — check such
                objectives on the encoding with
                :meth:`~repro.verification.encoding.PolynomialDynamicalSystem.check_invariant`.
        """
        manager = self.manager
        support = sorted(polynomial.variables())
        for name in support:
            signal_type = self.compiled.signal_types.get(name)
            if signal_type == "integer" or (signal_type is None and name.startswith("__state")):
                raise ValueError(
                    f"{self.name}: polynomial invariant mentions {name!r}, which has no "
                    "Z/3Z code on the presence/value bits; check it with "
                    "PolynomialDynamicalSystem.check_invariant on the design's encoding"
                )
        # Z/3Z code c of a signal is the predicate atoms[c] on its bits.
        atoms = (ReactionPredicate.absent, ReactionPredicate.true_of, ReactionPredicate.false_of)
        codes = {name: [self.predicate_bdd(atom(name)) for atom in atoms] for name in support}
        return manager.disj_all(
            manager.conj_all(codes[name][code] for name, code in zip(support, values))
            for values in product(FIELD, repeat=len(support))
            if polynomial.evaluate(dict(zip(support, values))) == 0
        )

    def _value_atom_bdd(self, name: str, test: Any, presence: BDDNode, signal_type: str) -> BDDNode:
        manager = self.manager
        if signal_type == "event":
            return presence if test(EVENT) else manager.false
        if signal_type == "boolean":
            value = manager.var(_value(name))
            accepted = manager.false
            if test(True):
                accepted = manager.disj(accepted, value)
            if test(False):
                accepted = manager.disj(accepted, manager.neg(value))
            return manager.conj(presence, accepted)
        lo, hi = self.ranges.range_of(name)
        width = _width_for(hi - lo + 1)
        window = 1 << width
        if window > VALUE_ATOM_LIMIT:
            raise EncodingError(
                f"{self.name}: value atom on {name!r} would enumerate {window} values; "
                "use the explicit engine for domains this wide"
            )
        vector = _IntVec(lo, tuple(manager.var(bit) for bit in self._signal_bit_names(name)[1:]))
        accepted = manager.disj_all(
            self.bits.equal(vector, self._iv_const(lo + offset))
            for offset in range(window)
            if test(lo + offset)
        )
        return manager.conj(presence, accepted)

    # -- image computation --------------------------------------------------------------

    def image(self, states: BDDNode) -> BDDNode:
        """Successors of ``states`` under the transition relation, unprimed."""
        successors = self.relation.product(states, self.signal_bits + self.state_bits)
        return self.manager.rename(successors, self._unprime_map)

    def _reach_fixpoint(
        self, max_iterations: Optional[int]
    ) -> tuple[BDDNode, int, bool, list[BDDNode]]:
        """Least fixpoint of image computation from the initial state.

        Returns ``(reach, iterations, converged, rings)`` — ``converged`` is
        False when ``max_iterations`` stopped the loop before the frontier
        emptied, and ``rings`` are the per-iteration discovery frontiers
        (``rings[0]`` is the initial state set, ``rings[k]`` the states first
        reached after exactly k images): the onion rings counterexample
        extraction walks backward through.  Keeping them is free — they are
        exactly the frontier BDDs the loop already computes.
        """
        manager = self.manager
        reach = self.initial
        frontier = self.initial
        rings = [self.initial]
        iterations = 0
        while frontier is not manager.false:
            if max_iterations is not None and iterations >= max_iterations:
                return manager.protect(reach), iterations, False, rings
            successors = self.image(frontier)
            frontier = manager.diff(successors, reach)
            reach = manager.disj(reach, frontier)
            if frontier is not manager.false:
                rings.append(manager.protect(frontier))
            iterations += 1
            # Iteration boundary = reordering checkpoint: the rings are
            # protected, the running reach is passed explicitly, every other
            # intermediate of this iteration is dead — exactly the state a
            # garbage-collecting reorder needs.
            manager.maybe_reorder((reach,))
        return manager.protect(reach), iterations, True, rings

    def reach(self) -> "IntSymbolicReachability":
        """Least fixpoint of image computation, plus the overflow audit."""
        reach, iterations, converged, rings = self._reach_fixpoint(self.options.max_iterations)
        overflowed = sorted(self._audit_overflow(reach)) if converged else []
        return IntSymbolicReachability(
            self,
            reach,
            iterations,
            fixpoint=converged,
            frontiers=tuple(rings),
            overflowed=tuple(overflowed),
        )

    def _audit_overflow(self, reach: BDDNode) -> set[str]:
        """Names whose declared capacity some reachable reaction exceeds.

        Clips are checked against the *relaxed* relation, in which every
        equation admits its out-of-window reactions — so simultaneous clips
        of several equations (or of an equation and a memory slot) cannot
        mask each other through their strict windows.
        """
        manager = self.manager
        overflowed: set[str] = set()
        for name, clip in self._equation_clips:
            if manager.conj_all([reach, self._relaxed_relation, clip]) is not manager.false:
                overflowed.add(name)
        for key, clip in self._slot_clips:
            if manager.conj_all([reach, self._relaxed_relation, clip]) is not manager.false:
                overflowed.add(key)
        return overflowed

    # -- decoding ----------------------------------------------------------------------

    def decode_reaction(self, assignment: Mapping[str, bool]) -> dict[str, Any]:
        """Signal statuses of a bit-level satisfying assignment."""
        decoded: dict[str, Any] = {}
        for name in self.signal_names:
            if not assignment.get(_presence(name), False):
                decoded[name] = ABSENT
                continue
            signal_type = self.compiled.signal_types.get(name)
            if signal_type == "event":
                decoded[name] = EVENT
            elif signal_type == "integer":
                lo, _hi = self.ranges.range_of(name)
                bits = self._signal_bit_names(name)[1:]
                decoded[name] = lo + sum(
                    (1 << j) for j, bit in enumerate(bits) if assignment.get(bit, False)
                )
            else:
                decoded[name] = bool(assignment.get(_value(name), False))
        return decoded

    def decode_state(self, assignment: Mapping[str, bool]) -> dict[str, Any]:
        """Memory-slot values of a bit-level assignment (trace successor states)."""
        state: dict[str, Any] = {}
        for name, slot in self._slots.items():
            if slot["kind"] == "int":
                state[name] = slot["lo"] + sum(
                    (1 << j) for j, bit in enumerate(slot["bits"]) if assignment.get(bit, False)
                )
            else:
                state[name] = bool(assignment.get(slot["bits"][0], False))
        return state

    def count_states(self, states: BDDNode) -> int:
        """Number of state valuations in a state set (model counting)."""
        return self.manager.count_satisfying(states, self.state_bits)

    def reactions_of(self, states: BDDNode) -> Iterator[dict[str, Any]]:
        """Enumerate decoded admissible reactions of a symbolic state set.

        The state bits are quantified out first, so enumeration yields exactly
        one model per distinct reaction however many states admit it.
        """
        admissible = self.manager.and_exists(states, self.instantaneous, self.state_bits)
        for model in self.manager.satisfying_assignments(admissible, self.signal_bits):
            yield self.decode_reaction(model)

    def statistics(self) -> dict:
        """BDD-level engine statistics (peak nodes, reorders, clusters, ...)."""
        stats = self.manager.statistics()
        stats["clusters"] = self.relation.cluster_count
        return stats


# --------------------------------------------------------------------------- the result

@dataclass
class IntSymbolicReachability(Reachability):
    """A bit-blasted symbolic reachable set, behind the shared interface.

    Witness extraction, invariant / reachability checking, ring-walk
    counterexample traces and supervisory-control synthesis all run on the
    engine's partitioned relation; completeness accounts for the
    range-overflow audit, and Sigali-style polynomial invariants are lowered
    onto the presence/value bits.

    ``frontiers`` keeps the per-iteration discovery rings of the fixpoint
    (``frontiers[0]`` = initial states): they cost nothing beyond a tuple of
    references the loop computed anyway, and they are what lets
    :meth:`trace_to` extract a concrete counterexample *path* by walking
    backward ring by ring instead of re-running the forward search.
    """

    engine: IntSymbolicEngine
    states: BDDNode
    iterations: int
    fixpoint: bool = True
    frontiers: tuple[BDDNode, ...] = ()
    overflowed: tuple[str, ...] = ()

    @property
    def state_count(self) -> int:
        """Number of reachable state valuations (model counting, no enumeration)."""
        return self.engine.count_states(self.states)

    @property
    def complete(self) -> bool:
        """False when the fixpoint was truncated *or* a declared range
        demonstrably clipped a reachable reaction."""
        return self.fixpoint and not self.overflowed

    def statistics(self) -> dict:
        """Engine statistics plus the fixpoint's own counters."""
        stats = self.engine.statistics()
        stats["iterations"] = self.iterations
        stats["frontier_rings"] = len(self.frontiers)
        return stats

    # -- suspend / resume ------------------------------------------------------------

    def snapshot(self) -> dict:
        """The reached set, frontier rings, overflow audit and engine relation
        as pure data.

        The payload is self-contained: ``engine`` holds the
        :meth:`IntSymbolicEngine.snapshot_relation` dump, so a cold process
        can rebuild both halves; a process that already holds the engine can
        restore the result alone from the ``dump`` part.  The frontier rings
        ride along so ring-walk trace extraction works on a warm-loaded
        result exactly as on a freshly computed one.
        """
        return {
            "engine": self.engine.snapshot_relation(),
            "iterations": self.iterations,
            "fixpoint": self.fixpoint,
            "dump": dump_nodes(self.engine.manager, [self.states, *self.frontiers]),
            "overflowed": list(self.overflowed),
        }

    @classmethod
    def from_snapshot(cls, engine: IntSymbolicEngine, payload: Mapping) -> "IntSymbolicReachability":
        """Rehydrate a result into ``engine`` from a :meth:`snapshot` payload.

        ``engine`` is any live engine of the same design — typically one
        restored through :meth:`IntSymbolicEngine.rehydrated` from the
        payload's own ``engine`` part, but an already-built engine works too
        (the loaded diagrams land in its manager under whatever variable
        order it currently has).  The reached set and every ring are
        protected so they survive later reorders.
        """
        manager = engine.manager
        roots = load_nodes(manager, payload["dump"])
        if not roots:
            raise ValueError("result snapshot carries no reached set")
        return cls(
            engine=engine,
            states=manager.protect(roots[0]),
            iterations=payload["iterations"],
            fixpoint=payload["fixpoint"],
            frontiers=tuple(manager.protect(ring) for ring in roots[1:]),
            overflowed=tuple(payload["overflowed"]),
        )

    def _require_complete(self, name: str) -> None:
        if self.overflowed:
            raise BoundReached(
                f"{name}: reachable reactions overflow the declared range of "
                f"{list(self.overflowed)}; widen the bounds for a sound verdict"
            )
        super()._require_complete(name)

    def _witness(self, condition: BDDNode, name: str, found_holds: bool, missing) -> CheckResult:
        manager = self.engine.manager
        hit = manager.conj_all([self.states, self.engine.instantaneous, condition])
        if manager.is_false(hit):
            # "No reaction satisfies the condition" is only certain when the
            # fixpoint actually converged.  ``missing`` is a thunk so the
            # model count it typically reports is only paid on this branch.
            self._require_complete(name)
            return CheckResult(not found_holds, name, details=missing())
        model = manager.first_model([hit], self.engine.signal_bits)
        reaction = {k: v for k, v in self.engine.decode_reaction(model).items() if v is not ABSENT}
        return CheckResult(found_holds, name, details=f"witness reaction {reaction}")

    def _validate_predicate(self, predicate: ReactionPredicate) -> None:
        engine = self.engine
        self._validate_signals(predicate.signals(), engine.signal_names, engine.name, "predicate")

    def check_invariant(self, predicate: ReactionPredicate, name: str = "invariant") -> CheckResult:
        """AG over reactions: no reachable reaction violates ``predicate``."""
        self._validate_predicate(predicate)
        violating = self.engine.manager.neg(self.engine.predicate_bdd(predicate))
        return self._witness(
            violating, name, found_holds=False, missing=lambda: f"{self.state_count} reachable states"
        )

    def check_reachable(self, predicate: ReactionPredicate, name: str = "reachability") -> CheckResult:
        """EF over reactions: some reachable reaction satisfies ``predicate``."""
        self._validate_predicate(predicate)
        return self._witness(
            self.engine.predicate_bdd(predicate),
            name,
            found_holds=True,
            missing=lambda: "no reachable reaction satisfies the predicate",
        )

    def trace_to(self, predicate: ReactionPredicate, name: str = "trace") -> Optional[Trace]:
        """A trace to a reaction satisfying ``predicate``, by backward ring walk.

        Forward information is already there: the fixpoint stored one frontier
        BDD per iteration (:attr:`frontiers`).  Extraction finds the earliest
        ring admitting a satisfying reaction and takes its first (state,
        reaction) model, then walks back ring by ring: each step is one
        search for the first model of the previous ring and the relation's
        clusters with the current state fixed on the primed bits, which
        yields one concrete predecessor and its connecting reaction at once
        (:meth:`~repro.clocks.bdd.BDDManager.first_model`, which builds no
        BDD).  The trace length equals the ring index plus one — the BFS
        distance, since ``rings[k]`` holds exactly the states first reached
        after k images — so symbolic traces are as short as the explicit
        engine's parent-pointer BFS paths, and no state is ever enumerated
        outside the path itself.
        """
        self._validate_predicate(predicate)
        return self._extract_trace(self.engine.predicate_bdd(predicate), name)

    def _extract_trace(self, condition: BDDNode, name: str) -> Optional[Trace]:
        """The ring walk behind :meth:`trace_to`, from a condition BDD.

        Every model comes from one ``first_model`` search over the operands
        as they are: the ring search over ``[ring, instantaneous,
        condition]``, each step back over ``[previous ring, *clusters]``, so
        a multi-cluster relation is walked as its clusters and never
        conjoined.  The walk creates no node.
        """
        engine = self.engine
        manager = engine.manager
        if not self.frontiers:
            raise NotImplementedError(
                f"{name}: this result carries no frontier rings (hand-built?); "
                "recompute it via the engine's reach() to enable trace extraction"
            )
        bits = engine.signal_bits + engine.state_bits
        for ring_index, ring in enumerate(self.frontiers):
            model = manager.first_model([ring, engine.instantaneous, condition], bits)
            if model is not None:
                break
        else:
            # The rings partition the reached states: no ring has a model
            # exactly when no reached reaction satisfies the condition.
            self._require_complete(name)
            return None

        # Walk the rings backward from the state the satisfying reaction fires
        # in: the first model of the previous ring and the relation with the
        # cursor on the primed bits is a predecessor in that ring (its state
        # bits) and a reaction stepping into the cursor (its signal bits).
        # The steps come out in reverse order.
        clusters = engine.relation.clusters
        prime = engine._prime_map
        steps: list[TraceStep] = []
        cursor = {bit: model[bit] for bit in engine.state_bits}
        for index in range(ring_index, 0, -1):
            into_cursor = {prime[bit]: value for bit, value in cursor.items()}
            step = manager.first_model([self.frontiers[index - 1], *clusters], bits, into_cursor)
            steps.append(TraceStep(engine.decode_reaction(step), engine.decode_state(cursor)))
            cursor = {bit: step[bit] for bit in engine.state_bits}
        steps.reverse()
        steps.append(TraceStep(engine.decode_reaction(model), self._successor_of(model)))
        return Trace(tuple(steps), name)

    def _successor_of(self, model: Mapping[str, bool]) -> Optional[dict[str, Any]]:
        """The decoded successor state of one concrete (state, reaction) model.

        ``None`` when the transition relation admits no successor for the
        model — a reaction clipping a declared range guards the memory
        update.
        """
        engine = self.engine
        successor = engine.manager.first_model(engine.relation.clusters, engine.primed_bits, model)
        if successor is None:
            return None
        prime = engine._prime_map
        return engine.decode_state({bit: successor[prime[bit]] for bit in engine.state_bits})

    def synthesise(
        self,
        safe: ReactionPredicate,
        controllable: Sequence[str],
        ensure_nonblocking: bool = True,
    ) -> ControlVerdict:
        """Symbolic supervisory-control synthesis (greatest controllable invariant).

        Mirrors the explicit construction of :mod:`.synthesis`: a state is
        unsafe when it is the target of a reachable reaction violating
        ``safe``; a reaction is uncontrollable when every ``controllable``
        signal is absent; kept states must not let an uncontrollable reaction
        escape and (optionally) must keep at least one allowed reaction.
        Every image here is a partitioned relational product — the monolithic
        transition relation is never materialised.

        Raises:
            BoundReached: when the reach fixpoint did not converge — the
                greatest-controllable-invariant fixpoint would treat every
                reachable-but-unexplored state as an escape target and could
                report "no controller" for a controllable plant.
        """
        engine = self.engine
        manager = engine.manager
        self._validate_predicate(safe)
        self._validate_signals(
            controllable,
            engine.signal_names,
            engine.name,
            "controllable set",
            error=ValueError,
        )
        self._require_complete("synthesis")

        quantified = engine.signal_bits + engine.state_bits
        signal_primed = engine.signal_bits + engine.primed_bits
        bad_reaction = manager.neg(engine.predicate_bdd(safe))
        bad_targets = manager.rename(
            engine.relation.product(manager.conj(self.states, bad_reaction), quantified),
            engine._unprime_map,
        )
        kept = manager.diff(self.states, bad_targets)

        uncontrollable = manager.cube({_presence(name): False for name in controllable})
        if ensure_nonblocking:
            has_outgoing = engine.relation.product(self.states, signal_primed)

        while True:
            kept_primed = manager.rename(kept, engine._prime_map)
            escape = engine.relation.product(
                manager.conj_all([self.states, uncontrollable, manager.neg(kept_primed)]),
                signal_primed,
            )
            refined = manager.diff(kept, escape)
            if ensure_nonblocking:
                alive = engine.relation.product(
                    manager.conj(self.states, manager.rename(refined, engine._prime_map)),
                    signal_primed,
                )
                refined = manager.conj(refined, manager.disj(alive, manager.neg(has_outgoing)))
            if refined is kept:
                break
            kept = refined

        success = not manager.is_false(self.states) and manager.entails(engine.initial, kept)
        details = "" if success else "the initial state is outside the greatest controllable invariant set"
        return ControlVerdict(
            success=success,
            kept_states=engine.count_states(kept),
            total_states=self.state_count,
            details=details,
            backend=kept,
        )

    def check_polynomial_invariant(self, invariant: Polynomial, name: str = "invariant") -> CheckResult:
        """Sigali-style objective: ``invariant = 0`` on every reachable reaction.

        The polynomial is lowered onto the presence/value bits of its
        boolean/event signals (see :meth:`IntSymbolicEngine.polynomial_bdd`).
        """
        violating = self.engine.manager.neg(self.engine.polynomial_bdd(invariant))
        return self._witness(
            violating, name, found_holds=False, missing=lambda: f"{self.state_count} reachable states"
        )


def symbolic_int_explore(
    source: Union[ProcessDefinition, CompiledProcess],
    options: Optional[SymbolicOptions] = None,
) -> IntSymbolicReachability:
    """Bit-blast ``source`` and compute its reachable state space symbolically."""
    return IntSymbolicEngine(source, options).reach()
