"""BDD-backed symbolic reachability and invariant checking.

This module is the symbolic half of the verification pipeline — the
construction Sigali actually performs, where the explicit explorer
(:mod:`repro.verification.explorer`) enumerates states one by one.  A SIGNAL
process's boolean/event control skeleton is first abstracted into a
polynomial dynamical system over Z/3Z (:mod:`repro.verification.encoding`);
here every ternary variable ``x`` is *bit-blasted* into two boolean
variables, ``x.p`` (presence) and ``x.v`` (carried truth value), with the
well-formedness invariant ``¬x.p ⇒ ¬x.v`` so state valuations are in
bijection with ternary valuations:

====== ======= =======
code    x.p     x.v
====== ======= =======
0       false   false
1       true    true
2       true    false
====== ======= =======

Every polynomial constraint becomes a BDD by enumerating the (few) ternary
variables of its own support; their conjunction is the instantaneous relation
``T_inst(state, signals)``, and the next-state polynomials extend it to the
full transition relation ``T(state, signals, state')``.  The transition
relation is kept *conjunctively partitioned* — one conjunct per constraint
and per next-state polynomial, clustered and scheduled for early
quantification by :class:`~repro.verification.relational.PartitionedRelation`
— and reachability is the least fixed point of relational image
computation::

    reach₀ = init;   reachₖ₊₁ = reachₖ ∪ rename(∃ signals, state . reachₖ ∧ T)

using the quantification / renaming / ``and_exists`` primitives of
:mod:`repro.clocks.bdd` (whose dynamic variable reordering the engine opts
into by default, ``reorder="auto"``).  The frontier never enumerates
individual states, so designs whose reachable set is far beyond the explicit
engine's ``max_states`` bound (e.g. the 2^n states of an n-stage boolean
shift register) are handled in time proportional to the BDD sizes instead —
``benchmarks/bench_symbolic_reachability.py`` measures the crossover, and
``benchmarks/bench_variable_ordering.py`` the adversarial equation orders
the monolithic static-order encoding cannot survive.

Invariant checking, reaction reachability and controller synthesis are
offered through the same :class:`~repro.verification.reachability.Reachability`
interface as the explicit engines, which is what
``tests/test_symbolic_vs_explicit.py`` exploits to cross-check the two
implementations reaction for reaction.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Any, Mapping, Optional, Sequence, Union

from ..clocks.bdd import BDDManager, BDDNode
from ..core.values import ABSENT
from ..signal.ast import ProcessDefinition
from ..simulation.compiler import CompiledProcess
from .encoding import PolynomialDynamicalSystem, encode_process
from .invariants import CheckResult
from .reachability import BackendCapabilities, ReactionPredicate
from .relational import (
    RelationalEngineOptions,
    RelationalFixpointEngine,
    RelationalReachability,
    _presence,
    _primed,
    _value,
    manager_for_options,
)
from .z3z import FIELD, Polynomial

__all__ = [
    "RelationalFixpointEngine",
    "SymbolicEncodingError",
    "SymbolicEngine",
    "SymbolicOptions",
    "SymbolicReachability",
    "symbolic_explore",
]


class SymbolicEncodingError(Exception):
    """Raised when a polynomial's support is too wide to bit-blast locally."""


@dataclass
class SymbolicOptions(RelationalEngineOptions):
    """Parameters of a symbolic exploration.

    Inherits the partitioning/reordering knobs of
    :class:`~repro.verification.relational.RelationalEngineOptions`
    (``partition``, ``reorder``, ``cluster_size``, ``reorder_threshold``,
    ``node_budget``) and adds:

    Attributes:
        max_iterations: bound on image-computation rounds (None = run to the
            fixpoint; the fixpoint always terminates on these finite systems).
        max_support: per-polynomial support width accepted by the local
            enumeration that builds constraint BDDs (3^width assignments).
    """

    max_iterations: Optional[int] = None
    max_support: int = 12


class SymbolicEngine(RelationalFixpointEngine):
    """Boolean transition-relation encoding of a polynomial dynamical system."""

    def __init__(
        self,
        source: Union[ProcessDefinition, CompiledProcess, PolynomialDynamicalSystem],
        options: Optional[SymbolicOptions] = None,
        manager: Optional[BDDManager] = None,
    ) -> None:
        if isinstance(source, CompiledProcess):
            source = encode_process(source.definition)
        elif isinstance(source, ProcessDefinition):
            source = encode_process(source)
        self.system: PolynomialDynamicalSystem = source
        self.options = options or SymbolicOptions()
        self.manager = manager if manager is not None else manager_for_options(self.options)
        self._declare_variables()
        self._build_relation()

    @classmethod
    def rehydrated(
        cls,
        system: PolynomialDynamicalSystem,
        options: Optional[SymbolicOptions] = None,
        payload: Optional[Mapping] = None,
    ) -> "SymbolicEngine":
        """An engine restored from a ``snapshot_relation`` payload.

        Skips :meth:`_build_relation` — the expensive half of construction,
        which enumerates every polynomial's ternary support — and loads the
        relation BDDs from ``payload`` instead; only the cheap variable
        layout runs.  The manager's variable order starts from the layout's
        declaration order whatever order the dump was sifted to, which is
        exactly the state a freshly built engine starts from.
        """
        if payload is None:
            raise ValueError("rehydrated() needs a snapshot_relation payload")
        engine = cls.__new__(cls)
        engine.system = system
        engine.options = options or SymbolicOptions()
        engine.manager = manager_for_options(engine.options)
        engine._declare_variables()
        engine._restore_relation(payload)
        return engine

    @property
    def name(self) -> str:
        """Name of the encoded process (shared engine interface)."""
        return self.system.name

    # -- variable layout ---------------------------------------------------------

    def _declare_variables(self) -> None:
        """Declare BDD bits in constraint-locality order.

        Variables that occur in the same constraint are declared next to each
        other (first-use order over the constraint list), which keeps the
        relation BDD small for pipelined designs such as shift registers; a
        state bit's primed copy sits directly below it, and the pair is
        declared as a reorder *group* so dynamic sifting keeps them adjacent
        (renaming maps are name-based and survive reorders regardless).
        """
        system = self.system
        order: list[str] = []
        seen: set[str] = set()

        def note(name: str) -> None:
            if name not in seen:
                seen.add(name)
                order.append(name)

        for constraint in system.constraints.constraints:
            for name in sorted(constraint.variables()):
                note(name)
        for state, polynomial in system.transitions.items():
            note(state)
            for name in sorted(polynomial.variables()):
                note(name)
        for name in system.signal_variables:
            note(name)
        for name in system.state_variables:
            note(name)

        self.state_names = list(system.state_variables)
        self.signal_names = list(system.signal_variables)
        states = set(self.state_names)
        self.signal_bits: list[str] = []
        self.state_bits: list[str] = []
        self.primed_bits: list[str] = []
        for name in order:
            bits = (_presence(name), _value(name))
            if name in states:
                for bit in bits:
                    self.manager.declare(bit)
                    self.manager.declare(_primed(bit))
                    self.manager.group_variables((bit, _primed(bit)))
                    self.state_bits.append(bit)
                    self.primed_bits.append(_primed(bit))
            else:
                for bit in bits:
                    self.manager.declare(bit)
                    self.signal_bits.append(bit)
        self._prime_map = {bit: _primed(bit) for bit in self.state_bits}
        self._unprime_map = {primed: bit for bit, primed in self._prime_map.items()}

    # -- encoding helpers ----------------------------------------------------------

    def code_cube(self, name: str, code: int, primed: bool = False) -> BDDNode:
        """The cube of presence/value bits encoding ternary ``code`` for ``name``."""
        presence_bit, value_bit = _presence(name), _value(name)
        if primed:
            presence_bit, value_bit = _primed(presence_bit), _primed(value_bit)
        code %= 3
        return self.manager.cube({presence_bit: code != 0, value_bit: code == 1})

    def _assignment_cube(self, assignment: Mapping[str, int]) -> BDDNode:
        cube = self.manager.true
        for name, code in assignment.items():
            cube = self.manager.conj(cube, self.code_cube(name, code))
        return cube

    def _polynomial_bdd(self, polynomial: Polynomial, next_state: Optional[str] = None) -> BDDNode:
        """BDD of ``polynomial = 0``, or of ``next_state' = polynomial`` when given.

        Built by enumerating the ternary assignments of the polynomial's own
        support — each equation touches only a handful of signals, so this
        local enumeration stays tiny even when the global state space is huge.
        """
        support = sorted(polynomial.variables())
        if len(support) > self.options.max_support:
            raise SymbolicEncodingError(
                f"polynomial support {len(support)} exceeds max_support="
                f"{self.options.max_support}: {polynomial!r}"
            )
        result = self.manager.false
        for values in product(FIELD, repeat=len(support)):
            assignment = dict(zip(support, values))
            outcome = polynomial.evaluate(assignment)
            if next_state is None:
                if outcome != 0:
                    continue
                cube = self._assignment_cube(assignment)
            else:
                cube = self.manager.conj(
                    self._assignment_cube(assignment),
                    self.code_cube(next_state, outcome, primed=True),
                )
            result = self.manager.disj(result, cube)
        return result

    def _well_formed(self, names: Sequence[str]) -> BDDNode:
        """``¬p ⇒ ¬v`` for every listed ternary variable."""
        manager = self.manager
        constraint = manager.true
        for name in names:
            implied = manager.implies(manager.var(_value(name)), manager.var(_presence(name)))
            constraint = manager.conj(constraint, implied)
        return constraint

    def _build_relation(self) -> None:
        """Build the relation as per-constraint conjuncts (the partition).

        Each polynomial constraint and each next-state polynomial contributes
        one part; the instantaneous relation (needed monolithically by
        witness extraction and reaction enumeration, and small — its
        conjuncts have near-disjoint local supports) is still materialised,
        but the full transition relation is not: the parts go to
        :meth:`~repro.verification.relational.RelationalFixpointEngine._finalise_relation`,
        which clusters them for early-quantification products.
        """
        manager = self.manager
        system = self.system
        parts: list[BDDNode] = [self._well_formed(self.signal_names + self.state_names)]
        for constraint in system.constraints.constraints:
            parts.append(self._polynomial_bdd(constraint))
            manager.maybe_reorder(parts)
        instantaneous = manager.true
        for part in parts:
            # The instantaneous relation is materialised monolithically (the
            # witness machinery needs it), so its fold gets the same growth
            # checkpoints as the monolithic transition fold.
            instantaneous = manager.conj(instantaneous, part)
            manager.maybe_reorder((instantaneous, *parts))
        self.instantaneous = instantaneous

        for state, polynomial in system.transitions.items():
            parts.append(self._polynomial_bdd(polynomial, next_state=state))
            manager.maybe_reorder((instantaneous, *parts))

        self.initial = manager.conj(
            self._well_formed(self.state_names),
            self._assignment_cube(system.initial_state()),
        )
        self._finalise_relation(parts, self.options.partition, self.options.cluster_size)

    # -- predicates ------------------------------------------------------------------

    def predicate_bdd(self, predicate: ReactionPredicate) -> BDDNode:
        """Compile a reaction predicate onto the signal presence/value bits."""
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
        if kind == "value":
            raise SymbolicEncodingError(
                f"{self.system.name}: value predicates (on signal "
                f"{predicate.operands[0]!r}) test carried data, which the boolean "
                "abstraction does not represent — use an explicit backend"
            )
        name = predicate.operands[0]
        if name not in self.system.signal_variables:
            raise KeyError(f"{self.system.name}: predicate mentions unknown signal {name!r}")
        presence = manager.var(_presence(name))
        if kind == "present":
            return presence
        value = manager.var(_value(name))
        if kind == "true":
            return manager.conj(presence, value)
        return manager.conj(presence, manager.neg(value))

    def invariant_bdd(self, invariant: Polynomial) -> BDDNode:
        """BDD of ``invariant = 0``, for Sigali-style polynomial objectives."""
        return self._polynomial_bdd(invariant)

    # -- image computation -----------------------------------------------------------

    def reach(self) -> "SymbolicReachability":
        """Least fixpoint of image computation from the initial state."""
        reach, iterations, converged, rings = self._reach_fixpoint(self.options.max_iterations)
        return SymbolicReachability(self, reach, iterations, converged, tuple(rings))

    def decode_reaction(self, assignment: Mapping[str, bool]) -> dict[str, Any]:
        """Signal statuses of a bit-level satisfying assignment."""
        decoded: dict[str, Any] = {}
        for name in self.signal_names:
            if not assignment.get(_presence(name), False):
                decoded[name] = ABSENT
            else:
                decoded[name] = bool(assignment.get(_value(name), False))
        return decoded

    def decode_state(self, assignment: Mapping[str, bool]) -> dict[str, int]:
        """Ternary codes of the state variables in a bit-level assignment."""
        state: dict[str, int] = {}
        for name in self.state_names:
            if not assignment.get(_presence(name), False):
                state[name] = 0
            else:
                state[name] = 1 if assignment.get(_value(name), False) else 2
        return state


@dataclass
class SymbolicReachability(RelationalReachability):
    """The Z/3Z engine's reachable set, behind the shared interface.

    Everything generic — witness extraction, invariant / reachability
    checking, frontier-ring counterexample traces, controller synthesis —
    is inherited from
    :class:`~repro.verification.relational.RelationalReachability`; this
    subclass only declares the capabilities and adds the Sigali-style
    polynomial-invariant objective that needs the Z/3Z ``system``.
    """

    engine: SymbolicEngine

    @classmethod
    def capabilities(cls) -> BackendCapabilities:
        """The BDD fixpoint: boolean/event skeleton only, exhaustive (no
        state bound — ``max_iterations`` is off by default), with symbolic
        supervisory synthesis and ring-walk counterexample traces."""
        return BackendCapabilities(integer_data=False, bounded=False, synthesis=True, traces=True)

    def check_polynomial_invariant(self, invariant: Polynomial, name: str = "invariant") -> CheckResult:
        """Sigali-style objective: ``invariant = 0`` on every reachable reaction."""
        system = self.engine.system
        known = set(system.signal_variables) | set(system.state_variables)
        self._validate_signals(invariant.variables(), known, system.name, "polynomial invariant")
        violating = self.engine.manager.neg(self.engine.invariant_bdd(invariant))
        return self._witness(
            violating, name, found_holds=False, missing=lambda: f"{self.state_count} reachable states"
        )


def symbolic_explore(
    source: Union[ProcessDefinition, CompiledProcess, PolynomialDynamicalSystem],
    options: Optional[SymbolicOptions] = None,
) -> SymbolicReachability:
    """Encode ``source`` and compute its reachable state space symbolically."""
    return SymbolicEngine(source, options).reach()
