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
carries ``complete = False``, and every verdict method of
:class:`ExplorationResult` that only a complete exploration can support —
"holds", "unreachable", "no trace", any synthesis verdict — raises
:class:`BoundReached` instead of certifying.  Those methods are the only way
to a verdict: the LTS-level checks below are private to them.
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
from .lts import LTS, Label, Transition, label_to_dict
from .reachability import (
    CheckResult,
    ControlVerdict,
    Reachability,
    ReactionPredicate,
    Trace,
    TraceStep,
)
from .synthesis import _synthesise


@dataclass
class ExplorationOptions:
    """Parameters of a state-space exploration.

    Attributes:
        integer_domain: values tried for integer-typed driven signals.
        driven_signals: signals driven by the environment (default: declared inputs).
        extra_driven: additional signals to drive (e.g. free-clock outputs).
        observed: signals recorded in the transition labels (default: interface).
        max_states: exploration bound (states beyond the bound are not
            expanded, and the result is flagged ``complete = False``).
    """

    integer_domain: Sequence[int] = (0, 1)
    driven_signals: Optional[Sequence[str]] = None
    extra_driven: Sequence[str] = ()
    observed: Optional[Sequence[str]] = None
    max_states: int = 10000


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
    rejected_stimuli: int = 0
    observed: Optional[tuple[str, ...]] = None
    #: Which engine resolved the reactions (``CompiledProcess.step_engine_info()``):
    #: the ``compile=`` knob plus kernel count and compile time under codegen.
    step_engine: Optional[dict] = None
    #: The states reachable from the initial one in BFS order and their BFS
    #: parents (:meth:`LTS.breadth_first`), walked on the first check that
    #: needs them, and every label's reaction dict, shared by all predicates
    #: (keyed by label identity, as :func:`~repro.verification.lts.per_label`
    #: explains).  Not init fields, so the closed loop ``Controller.restrict``
    #: builds with ``dataclasses.replace`` walks its own LTS, which can hold
    #: states its initial one no longer reaches.
    _bfs: Optional[tuple[list[int], list[int]]] = field(
        default=None, init=False, repr=False, compare=False
    )
    _reactions: dict[int, dict[str, Any]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

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

    def statistics(self) -> dict:
        """Explicit-engine statistics: explored states, transitions, rejections."""
        stats = {
            "states": self.state_count,
            "transitions": self.transition_count,
            "rejected_stimuli": self.rejected_stimuli,
            "bound_reached": not self.complete,
        }
        if self.step_engine is not None:
            stats.update(self.step_engine)
        return stats

    def check_invariant(self, predicate: ReactionPredicate, name: str = "invariant") -> CheckResult:
        """AG over reactions, on the explored LTS.

        A violation's ``counterexample`` is the first violating transition in
        BFS order behind a shortest path to its source: the path
        :meth:`trace_to` ``(~predicate)`` walks.
        """
        self._validate_signals(predicate.signals(), self.observed, self.lts.name, "predicate")
        path = self._first_path(predicate.evaluate, False)
        if path is None:
            self._require_complete(name)
            return CheckResult(True, name, details=f"{len(self._breadth_first()[0])} reachable states")
        return CheckResult(False, name, path, path[-1].target)

    def check_reachable(self, predicate: ReactionPredicate, name: str = "reachability") -> CheckResult:
        """EF over reactions, on the explored LTS; a witness's
        ``counterexample`` is the path :meth:`trace_to` walks."""
        self._validate_signals(predicate.signals(), self.observed, self.lts.name, "predicate")
        path = self._first_path(predicate.evaluate, True)
        if path is None:
            self._require_complete(name)
            return CheckResult(False, name, details="no reachable reaction satisfies the predicate")
        return CheckResult(True, name, path, path[-1].target, "witness reaction found")

    def _breadth_first(self) -> tuple[list[int], list[int]]:
        """The BFS order and parents, walked once per result: an
        exploration's LTS is final when the explorer returns it."""
        if self._bfs is None:
            self._bfs = self.lts.breadth_first()
        return self._bfs

    def _first_path(
        self, predicate: Callable[[dict[str, Any]], bool], wanted: bool
    ) -> Optional[list[Transition]]:
        """A shortest path ending with the first transition in BFS order
        whose reaction ``predicate`` judges ``wanted``, or ``None``.

        ``predicate`` runs once per distinct label, on the reaction dicts
        every predicate of this result shares.
        """
        order, parents = self._breadth_first()
        lts, reactions = self.lts, self._reactions
        verdicts: dict[int, bool] = {}
        for source in order:
            for label, target in lts.outgoing(source):
                key = id(label)
                verdict = verdicts.get(key)
                if verdict is None:
                    reaction = reactions.get(key)
                    if reaction is None:
                        reaction = reactions[key] = label_to_dict(label)
                    verdict = verdicts[key] = bool(predicate(reaction))
                if verdict is wanted:
                    return lts.path_back(parents, source) + [Transition(source, label, target)]
        return None

    def trace_to(self, predicate: ReactionPredicate, name: str = "trace") -> Optional[Trace]:
        """A shortest explicit trace to a reaction satisfying ``predicate``.

        The first satisfying transition in BFS order over the explored LTS,
        behind a shortest path to its source, so the returned path has
        minimal length; each step carries the successor state's concrete
        memory.  A truncated exploration refuses the "no trace exists"
        answer with :class:`BoundReached`.
        """
        self._validate_signals(predicate.signals(), self.observed, self.lts.name, "predicate")
        path = self._first_path(predicate.evaluate, True)
        if path is None:
            self._require_complete(name)
            return None
        return self._trace_along(path, name)

    def trace_of(self, result: CheckResult, predicate: ReactionPredicate, name: str) -> Optional[Trace]:
        """The trace along ``result``'s counterexample path, which is the
        path :meth:`trace_to` would walk again."""
        if result.counterexample is None:
            return super().trace_of(result, predicate, name)
        return self._trace_along(result.counterexample, name)

    def _trace_along(self, path: list[Transition], name: str) -> Trace:
        steps = []
        for transition in path:
            memory = self.memories.get(transition.target)
            state = dict(memory) if memory is not None else self.lts.payload(transition.target)
            steps.append(TraceStep(self._reaction(transition.label), state))
        return Trace(tuple(steps), name)

    def _reaction(self, label: Label) -> dict[str, Any]:
        """A label as a reaction dict, keyed in ``observed`` order.

        A label is a frozenset, whose iteration order follows the string
        hash seed; the observed order keeps traces the same from run to
        run.  Hand-built results without ``observed`` keep the label's order.
        """
        reaction = label_to_dict(label)
        if self.observed is None:
            return reaction
        return {name: reaction[name] for name in self.observed if name in reaction}

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
        return _synthesise(self.lts, safe, controllable, ensure_nonblocking)


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
    max_states: int,
    react: Callable[[Hashable, int], tuple[Hashable, tuple]],
    stimulus_count: int,
    observed_slots: Sequence[int],
    memory_of: Callable[[Hashable], dict[str, Any]],
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
    memories = result.memories
    pick = _picker(observed_slots)
    payload, index_of, transition_lists = lts.payload, lts.index_of, lts.transition_lists
    # Keyed by the values *and* their types: 1 == True, but a predicate
    # must see the value the reaction carried.
    labels: dict[tuple, frozenset] = {}
    stimuli = range(stimulus_count)
    rejected = 0
    # A state is pushed once, when it is added, so none is expanded twice.
    frontier = [lts.initial]
    while frontier:
        state = frontier.pop()
        key = payload(state)
        state_labels, state_targets = transition_lists(state)
        for index in stimuli:
            try:
                target_key, values = react(key, index)
            except SimulationError:
                rejected += 1
                continue
            target = index_of(target_key)
            if target is None:
                if lts.state_count() >= max_states:
                    result.complete = False
                    continue
                target = lts.add_state(target_key)
                memories[target] = memory_of(target_key)
                frontier.append(target)
            reaction = pick(values)
            typed = (reaction, tuple(map(type, reaction)))
            label = labels.get(typed)
            if label is None:
                label = labels[typed] = frozenset(
                    (signal, value)
                    for signal, value in zip(observed, reaction)
                    if value is not ABSENT
                )
            state_labels.append(label)
            state_targets.append(target)
    result.rejected_stimuli += rejected
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
    result = ExplorationResult(lts, observed=tuple(observed))

    keys = compiled.state_keys
    initial_memory = compiled.initial_state()
    initial = lts.add_state(tuple(initial_memory[key] for key in keys), initial=True)
    result.memories[initial] = dict(initial_memory)

    slots = {signal: slot for slot, signal in enumerate(compiled.signal_names)}
    _search(
        result,
        options.max_states,
        react,
        len(stimuli),
        [slots[signal] for signal in observed],
        lambda key: dict(zip(keys, key)),
    )
    # Read after the search: the kernels compile their equation verifier
    # on the first reaction that needs it.
    result.step_engine = compiled.step_engine_info()
    return result


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
    result = ExplorationResult(lts, observed=tuple(observed))
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

    _search(result, options.max_states, react, len(stimuli), [slots[signal] for signal in observed], memory_of)
    result.step_engine = left_compiled.step_engine_info()
    return result
