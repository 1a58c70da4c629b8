"""State-space exploration of compiled SIGNAL processes.

The explorer enumerates, from the initial memory of a compiled process, every
reachable memory state under every admissible reaction of a finite stimulus
alphabet (events present/absent, booleans over both truth values, integers
over a user-supplied finite domain).  The result is an :class:`~repro.verification.lts.LTS`
whose labels are the reactions, ready for invariant checking, bisimulation
checking and controller synthesis.

This is the *explicit* half of the verification pipeline: Sigali performs the
same construction symbolically, and so does our
:mod:`repro.verification.symbolic_int` engine, which represents state sets
as BDDs over bit-blasted presence/value bits and scales far beyond the
``max_states`` bound of this module.  Explicit exploration remains the
reference semantics (it handles unbounded integer data, which no finite
bit-blast can) and the oracle the differential test suite
(``tests/test_symbolic_vs_explicit.py``) checks the symbolic engine against;
prefer the symbolic engine (``backend="symbolic-int"``) for large designs.

Explorations that hit ``max_states`` are never silently truncated: the result
carries ``bound_reached`` (and ``complete = False``), and
``ExplorationOptions(on_bound="raise")`` turns the truncation into a
:class:`BoundReached` exception.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from operator import itemgetter
from typing import Any, Callable, Hashable, Optional, Sequence

from ..core.values import ABSENT, EVENT
from ..signal.ast import ProcessDefinition
from ..simulation.compiler import CompiledProcess, SimulationError
from ..simulation.status import PRESENT
from .invariants import CheckResult, check_invariant_labels, check_reaction_reachable
from .lts import LTS, label_to_dict
from .reachability import (
    BackendCapabilities,
    BoundReached,
    ControlVerdict,
    Reachability,
    ReactionPredicate,
    Trace,
    TraceStep,
)


@dataclass
class ExplorationOptions:
    """Parameters of a state-space exploration.

    Attributes:
        integer_domain: values tried for integer-typed driven signals.
        driven_signals: signals driven by the environment (default: declared inputs).
        extra_driven: additional signals to drive (e.g. free-clock outputs).
        observed: signals recorded in the transition labels (default: interface).
        max_states: exploration bound (states beyond the bound are not expanded).
        on_bound: what to do when ``max_states`` is hit — ``"flag"`` records
            ``bound_reached`` on the result, ``"raise"`` raises
            :class:`BoundReached`.
    """

    integer_domain: Sequence[int] = (0, 1)
    driven_signals: Optional[Sequence[str]] = None
    extra_driven: Sequence[str] = ()
    observed: Optional[Sequence[str]] = None
    max_states: int = 10000
    on_bound: str = "flag"

    def __post_init__(self) -> None:
        if self.on_bound not in ("flag", "raise"):
            raise ValueError(f"on_bound must be 'flag' or 'raise', not {self.on_bound!r}")


@dataclass
class ExplorationResult(Reachability):
    """The LTS produced by an exploration, plus bookkeeping.

    Implements the shared :class:`~repro.verification.reachability.Reachability`
    interface, so invariant checking and controller synthesis can be run
    against an explicit exploration and a symbolic one interchangeably.

    Each LTS state's payload is its memory as a tuple in ``stateful_nodes()``
    order (``CompiledProcess.state_keys``); a product state's payload is the
    pair of both sides' tuples.  ``memories`` holds the same memory as a
    dict per state (``{"left": ..., "right": ...}`` for a product), which is
    what traces report.
    """

    lts: LTS
    memories: dict[int, dict[str, Any]] = field(default_factory=dict)
    complete: bool = True
    bound_reached: bool = False
    rejected_stimuli: int = 0
    observed: Optional[tuple[str, ...]] = None
    #: Which engine resolved the reactions (``CompiledProcess.step_engine_info()``):
    #: the ``compile=`` knob plus kernel count and compile time under codegen.
    step_engine: Optional[dict] = None

    @property
    def state_count(self) -> int:
        """Number of explored states."""
        return self.lts.state_count()

    @property
    def transition_count(self) -> int:
        """Number of explored transitions."""
        return self.lts.transition_count()

    # -- Reachability interface ---------------------------------------------------
    # Labels only carry the observed alphabet (None on hand-built results):
    # that is the universe predicates are validated against.

    @classmethod
    def capabilities(cls) -> BackendCapabilities:
        """The reference semantics: concrete reactions (integer data included),
        bounded by ``max_states``, with explicit supervisory synthesis and
        shortest counterexample traces (BFS parent pointers)."""
        return BackendCapabilities(integer_data=True, bounded=True, synthesis=True, traces=True)

    def statistics(self) -> dict:
        """Explicit-engine statistics: explored states, transitions, rejections."""
        stats = {
            "states": self.state_count,
            "transitions": self.transition_count,
            "rejected_stimuli": self.rejected_stimuli,
            "bound_reached": self.bound_reached,
        }
        if self.step_engine is not None:
            stats.update(self.step_engine)
        return stats

    def check_invariant(self, predicate: ReactionPredicate, name: str = "invariant") -> CheckResult:
        """AG over reactions, on the explored LTS."""
        self._validate_signals(predicate.signals(), self.observed, self.lts.name, "predicate")
        result = check_invariant_labels(self.lts, predicate, name)
        if result.holds:
            self._require_complete(name)
        return result

    def check_reachable(self, predicate: ReactionPredicate, name: str = "reachability") -> CheckResult:
        """EF over reactions, on the explored LTS."""
        self._validate_signals(predicate.signals(), self.observed, self.lts.name, "predicate")
        result = check_reaction_reachable(self.lts, predicate, name)
        if not result.holds:
            self._require_complete(name)
        return result

    def trace_to(self, predicate: ReactionPredicate, name: str = "trace") -> Optional[Trace]:
        """A shortest explicit trace to a reaction satisfying ``predicate``.

        BFS over the explored LTS (:meth:`~repro.verification.lts.LTS.path_to_reaction`),
        so the returned path has minimal length; each step carries the
        successor state's concrete memory.  A truncated exploration refuses
        the "no trace exists" answer with :class:`BoundReached`.
        """
        self._validate_signals(predicate.signals(), self.observed, self.lts.name, "predicate")
        path = self.lts.path_to_reaction(predicate.evaluate)
        if path is None:
            self._require_complete(name)
            return None
        steps = []
        for transition in path:
            memory = self.memories.get(transition.target)
            state = dict(memory) if memory is not None else self.lts.payload(transition.target)
            steps.append(TraceStep(label_to_dict(transition.label), state))
        return Trace(tuple(steps), name)

    def synthesise(
        self,
        safe: ReactionPredicate,
        controllable: Sequence[str],
        ensure_nonblocking: bool = True,
    ) -> ControlVerdict:
        """Explicit supervisory-control synthesis on the explored LTS.

        Raises:
            BoundReached: when the exploration was truncated — the LTS then
                lacks the boundary transitions (in particular uncontrollable
                escapes into unexplored states), so any verdict would be
                about a different plant.
        """
        self._validate_signals(safe.signals(), self.observed, self.lts.name, "safety predicate")
        self._validate_signals(
            controllable, self.observed, self.lts.name, "controllable set", error=ValueError
        )
        self._require_complete("synthesis")
        from .synthesis import synthesise_with

        return synthesise_with(self.lts, safe, controllable, ensure_nonblocking)


def _stimulus_domain(compiled: CompiledProcess, name: str, integers: Sequence[int]) -> list[Any]:
    signal_type = compiled.signal_types.get(name, "integer")
    if signal_type == "event":
        return [ABSENT, EVENT]
    if signal_type == "boolean":
        return [ABSENT, True, False]
    return [ABSENT, *integers]


def _picker(slots: Sequence[int]) -> Callable[[tuple], tuple]:
    """The observed values out of a values tuple, as a tuple."""
    if len(slots) == 1:
        (slot,) = slots
        return lambda values: (values[slot],)
    if not slots:
        return lambda values: ()
    return itemgetter(*slots)


def _search(
    result: ExplorationResult,
    options: ExplorationOptions,
    react: Callable[[Hashable, int], tuple[Hashable, tuple]],
    stimulus_count: int,
    observed_slots: Sequence[int],
    memory_of: Callable[[Hashable], dict[str, Any]],
    name: str,
) -> ExplorationResult:
    """The exploration loop shared by single and product exploration.

    ``react(key, index)`` resolves the reaction of the state whose LTS
    payload is ``key`` to stimulus ``index``, returning the successor's
    payload and a values tuple; it raises SimulationError for inadmissible
    stimuli.  ``observed_slots`` picks the observed values (in
    ``result.observed`` order) out of that tuple, and ``memory_of`` turns a
    new payload into the memory dict kept for traces.  Each distinct
    observed reaction gets one shared label.  The frontier is a stack, so
    traversal order is depth-first — the reachable *set* is the same either
    way, but do not rely on shortest-path discovery order.
    """
    lts = result.lts
    observed = result.observed
    pick = _picker(observed_slots)
    index_of, add_transition = lts.index_of, lts.add_transition
    # Keyed by the values *and* their types: 1 == True, but a predicate
    # must see the value the reaction carried.
    labels: dict[tuple, frozenset] = {}
    stimuli = range(stimulus_count)
    frontier = [lts.initial]
    pending = {lts.initial}
    explored: set[int] = set()
    while frontier:
        state = frontier.pop()
        pending.discard(state)
        if state in explored:
            continue
        explored.add(state)
        key = lts.payload(state)
        for index in stimuli:
            try:
                target_key, values = react(key, index)
            except SimulationError:
                result.rejected_stimuli += 1
                continue
            existing = index_of(target_key)
            if existing is None:
                if lts.state_count() >= options.max_states:
                    _hit_bound(result, options, name)
                    continue
                existing = lts.add_state(target_key)
                result.memories[existing] = memory_of(target_key)
                frontier.append(existing)
                pending.add(existing)
            elif existing not in explored and existing not in pending:
                frontier.append(existing)
                pending.add(existing)
            reaction = pick(values)
            typed = (reaction, tuple(map(type, reaction)))
            label = labels.get(typed)
            if label is None:
                label = labels[typed] = frozenset(
                    (signal, value)
                    for signal, value in zip(observed, reaction)
                    if value is not ABSENT
                )
            add_transition(state, label, existing)
    return result


def explore(
    process: ProcessDefinition | CompiledProcess,
    options: Optional[ExplorationOptions] = None,
) -> ExplorationResult:
    """Explore the reachable state space of ``process``.

    Raises:
        ValueError: when a driven signal does not exist in the process.
    """
    compiled = process if isinstance(process, CompiledProcess) else CompiledProcess(process)
    options = options or ExplorationOptions()

    driven = list(options.driven_signals) if options.driven_signals is not None else list(compiled.input_names)
    driven += [name for name in options.extra_driven if name not in driven]
    unknown = [name for name in driven if name not in compiled.signal_names]
    if unknown:
        raise ValueError(f"{compiled.name}: cannot drive unknown signals {unknown}")

    observed = list(options.observed) if options.observed is not None else list(
        compiled.input_names + compiled.output_names
    )
    unknown = [name for name in observed if name not in compiled.signal_names]
    if unknown:
        raise ValueError(f"{compiled.name}: cannot observe unknown signals {unknown}")

    domains = [_stimulus_domain(compiled, name, options.integer_domain) for name in driven]
    stimuli = [dict(zip(driven, combination)) for combination in product(*domains)]

    react = compiled.successor(stimuli)
    lts = LTS(compiled.name)
    result = ExplorationResult(lts, observed=tuple(observed), step_engine=compiled.step_engine_info())

    keys = compiled.state_keys
    initial_memory = compiled.initial_state()
    initial = lts.add_state(tuple(initial_memory[key] for key in keys), initial=True)
    result.memories[initial] = dict(initial_memory)

    slots = {signal: slot for slot, signal in enumerate(compiled.signal_names)}
    return _search(
        result,
        options,
        react,
        len(stimuli),
        [slots[signal] for signal in observed],
        lambda key: dict(zip(keys, key)),
        compiled.name,
    )


def _hit_bound(result: ExplorationResult, options: ExplorationOptions, name: str) -> None:
    result.complete = False
    result.bound_reached = True
    if options.on_bound == "raise":
        raise BoundReached(
            f"{name}: exploration truncated at max_states={options.max_states}; "
            'raise the bound or switch to backend="symbolic-int"'
        )


def explore_product(
    left: ProcessDefinition | CompiledProcess,
    right: ProcessDefinition | CompiledProcess,
    shared_driven: Optional[Sequence[str]] = None,
    options: Optional[ExplorationOptions] = None,
) -> ExplorationResult:
    """Explore the synchronous product of two processes.

    Both processes receive the same stimulus on their shared driven signals at
    every reaction; the product label is the union of both reactions.  This is
    the construction used to compare a specification and its refinement under
    identical environments (experiments E7 and E9).
    """
    left_compiled = left if isinstance(left, CompiledProcess) else CompiledProcess(left)
    right_compiled = right if isinstance(right, CompiledProcess) else CompiledProcess(right)
    options = options or ExplorationOptions()

    if shared_driven is None:
        shared_driven = [n for n in left_compiled.input_names if n in right_compiled.input_names]
    driven = list(shared_driven)
    # Both processes step on every stimulus, so a driven signal must exist on
    # both sides — a one-sided name would reject every stimulus and yield an
    # empty exploration certifying vacuous verdicts.
    for compiled in (left_compiled, right_compiled):
        unknown = [name for name in driven if name not in compiled.signal_names]
        if unknown:
            raise ValueError(f"{compiled.name}: cannot drive unknown signals {unknown}")
    known = set(left_compiled.signal_names) | set(right_compiled.signal_names)

    domains = [_stimulus_domain(left_compiled, name, options.integer_domain) for name in driven]
    stimuli = [dict(zip(driven, combination)) for combination in product(*domains)]

    observed = list(options.observed) if options.observed is not None else sorted(
        set(left_compiled.output_names) | set(right_compiled.output_names) | set(driven)
    )
    unknown = [name for name in observed if name not in known]
    if unknown:
        raise ValueError(
            f"{left_compiled.name}×{right_compiled.name}: cannot observe unknown signals {unknown}"
        )

    left_react = left_compiled.successor(stimuli)
    right_react = right_compiled.successor(stimuli)
    lts = LTS(f"{left_compiled.name}×{right_compiled.name}")
    result = ExplorationResult(
        lts, observed=tuple(observed), step_engine=left_compiled.step_engine_info()
    )
    left_keys, right_keys = left_compiled.state_keys, right_compiled.state_keys
    left_memory, right_memory = left_compiled.initial_state(), right_compiled.initial_state()
    initial_payload = (
        tuple(left_memory[key] for key in left_keys),
        tuple(right_memory[key] for key in right_keys),
    )
    initial = lts.add_state(initial_payload, initial=True)
    result.memories[initial] = {"left": left_memory, "right": right_memory}

    def react(key: tuple, index: int) -> tuple[tuple, tuple]:
        left_state, left_values = left_react(key[0], index)
        right_state, right_values = right_react(key[1], index)
        return (left_state, right_state), left_values + right_values

    # The product reaction is the right one overridden by the left one.
    width = len(left_compiled.signal_names)
    slots = {signal: width + slot for slot, signal in enumerate(right_compiled.signal_names)}
    slots.update((signal, slot) for slot, signal in enumerate(left_compiled.signal_names))

    def memory_of(key: tuple) -> dict[str, Any]:
        return {"left": dict(zip(left_keys, key[0])), "right": dict(zip(right_keys, key[1]))}

    return _search(
        result, options, react, len(stimuli), [slots[signal] for signal in observed], memory_of, lts.name
    )
