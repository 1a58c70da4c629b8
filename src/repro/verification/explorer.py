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
from typing import Any, Mapping, Optional, Sequence

from ..core.values import ABSENT, EVENT
from ..signal.ast import ProcessDefinition
from ..simulation.compiler import CompiledProcess, SimulationError
from ..simulation.status import PRESENT
from .invariants import CheckResult, check_invariant_labels, check_reaction_reachable
from .lts import LTS, label_to_dict, make_label
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
        allow_silent: whether the all-absent stimulus is part of the alphabet.
        on_bound: what to do when ``max_states`` is hit — ``"flag"`` records
            ``bound_reached`` on the result, ``"raise"`` raises
            :class:`BoundReached`.
    """

    integer_domain: Sequence[int] = (0, 1)
    driven_signals: Optional[Sequence[str]] = None
    extra_driven: Sequence[str] = ()
    observed: Optional[Sequence[str]] = None
    max_states: int = 10000
    allow_silent: bool = True
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


def _freeze(memory: Mapping[str, Any]) -> tuple:
    return tuple(sorted(memory.items()))


def _search(
    result: ExplorationResult,
    options: ExplorationOptions,
    stimuli: Sequence[Mapping[str, Any]],
    observed: Sequence[str],
    step: Any,
    name: str,
) -> ExplorationResult:
    """The exploration loop shared by single and product exploration.

    ``step(memory, stimulus)`` resolves one reaction, returning the record to
    store for the successor state, its hashable payload, and the instant; it
    raises SimulationError for inadmissible stimuli.  The frontier is a
    stack, so traversal order is depth-first — the reachable *set* is the
    same either way, but do not rely on shortest-path discovery order.
    """
    lts = result.lts
    frontier = [lts.initial]
    pending = {lts.initial}
    explored: set[int] = set()
    while frontier:
        state = frontier.pop()
        pending.discard(state)
        if state in explored:
            continue
        explored.add(state)
        memory = result.memories[state]
        for stimulus in stimuli:
            try:
                record, payload, instant = step(memory, stimulus)
            except SimulationError:
                result.rejected_stimuli += 1
                continue
            existing = lts.index_of(payload)
            if existing is None:
                if lts.state_count() >= options.max_states:
                    _hit_bound(result, options, name)
                    continue
                existing = lts.add_state(payload)
                result.memories[existing] = record
                frontier.append(existing)
                pending.add(existing)
            elif existing not in explored and existing not in pending:
                frontier.append(existing)
                pending.add(existing)
            lts.add_transition(state, make_label(instant, observed), existing)
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
    stimuli: list[dict[str, Any]] = []
    for combination in product(*domains) if driven else [()]:
        stimulus = dict(zip(driven, combination))
        if not options.allow_silent and all(v is ABSENT for v in stimulus.values()):
            continue
        stimuli.append(stimulus)

    lts = LTS(compiled.name)
    result = ExplorationResult(lts, observed=tuple(observed), step_engine=compiled.step_engine_info())

    initial_memory = compiled.initial_state()
    initial = lts.add_state(_freeze(initial_memory), initial=True)
    result.memories[initial] = dict(initial_memory)

    def step(memory: Mapping[str, Any], stimulus: Mapping[str, Any]):
        new_memory, instant = compiled.step(memory, stimulus)
        return dict(new_memory), _freeze(new_memory), instant

    return _search(result, options, stimuli, observed, step, compiled.name)


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
    stimuli = [dict(zip(driven, combination)) for combination in product(*domains)] if driven else [{}]

    observed = list(options.observed) if options.observed is not None else sorted(
        set(left_compiled.output_names) | set(right_compiled.output_names) | set(driven)
    )
    unknown = [name for name in observed if name not in known]
    if unknown:
        raise ValueError(
            f"{left_compiled.name}×{right_compiled.name}: cannot observe unknown signals {unknown}"
        )

    lts = LTS(f"{left_compiled.name}×{right_compiled.name}")
    result = ExplorationResult(
        lts, observed=tuple(observed), step_engine=left_compiled.step_engine_info()
    )
    initial_payload = (_freeze(left_compiled.initial_state()), _freeze(right_compiled.initial_state()))
    initial = lts.add_state(initial_payload, initial=True)
    result.memories[initial] = {
        "left": left_compiled.initial_state(),
        "right": right_compiled.initial_state(),
    }

    def step(memory: Mapping[str, Any], stimulus: Mapping[str, Any]):
        left_memory, left_instant = left_compiled.step(memory["left"], stimulus)
        right_memory, right_instant = right_compiled.step(memory["right"], stimulus)
        instant = dict(right_instant)
        instant.update(left_instant)
        record = {"left": left_memory, "right": right_memory}
        return record, (_freeze(left_memory), _freeze(right_memory)), instant

    return _search(result, options, stimuli, observed, step, lts.name)
