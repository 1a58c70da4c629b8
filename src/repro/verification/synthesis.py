"""Discrete controller synthesis on explored state spaces.

Last section of the paper ("Toward an integration platform"): "Whereas
model-checking consists of proving a property correct w.r.t. the specification
of a system, controller synthesis consists of using this property as a control
objective and to automatically generate a coercive process that wraps the
initial specification so as to guarantee that the objective is an invariant."

This module implements the classical supervisory-control construction on a
finite LTS (the approach of Marchand et al., reference [10] of the paper):

* the transition alphabet is split into *controllable* reactions (those the
  wrapper may inhibit — typically reactions that drive controllable input
  signals) and *uncontrollable* ones;
* the greatest controllable invariant subset of the safe states is computed by
  a fixed point: a state is kept as long as every uncontrollable transition
  leaving it stays in the kept set (and, optionally, at least one transition
  remains, to avoid introducing deadlocks);
* the synthesised controller maps every kept state to the set of transitions
  it allows; wrapping the original system with it makes the objective an
  invariant by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Optional, Sequence

from .invariants import _as_reachability
from .lts import LTS, Label, Transition, label_to_dict
from .reachability import ControlVerdict, ReactionPredicate


@dataclass
class SynthesisObjective:
    """A control objective: keep the system inside ``safe_states`` forever.

    Attributes:
        safe_states: predicate over state indices (True = allowed).
        controllable: predicate over transition labels (as dicts) deciding
            whether the wrapper may disable that reaction.
        ensure_nonblocking: also require every kept state to retain at least
            one allowed transition.
    """

    safe_states: Callable[[int], bool]
    controllable: Callable[[dict[str, Any]], bool]
    ensure_nonblocking: bool = True


@dataclass
class Controller:
    """The synthesised coercive wrapper."""

    allowed: dict[int, list[Transition]] = field(default_factory=dict)
    kept_states: set[int] = field(default_factory=set)

    def allows(self, state: int, label: Label) -> bool:
        """True when the controller lets the system take ``label`` from ``state``."""
        return any(t.label == label for t in self.allowed.get(state, []))

    def allowed_labels(self, state: int) -> set[Label]:
        """The reactions allowed from ``state``."""
        return {t.label for t in self.allowed.get(state, [])}

    def restrict(self, lts: LTS) -> LTS:
        """The closed-loop system: the plant restricted to allowed transitions."""
        closed = LTS(f"{lts.name}/controlled")
        mapping: dict[int, int] = {}
        for state in sorted(self.kept_states):
            mapping[state] = closed.add_state(lts.payload(state))
        if lts.initial in self.kept_states:
            closed.initial = mapping[lts.initial]
        for state, transitions in self.allowed.items():
            for transition in transitions:
                if transition.target in self.kept_states:
                    closed.add_transition(mapping[state], transition.label, mapping[transition.target])
        return closed


@dataclass
class SynthesisResult:
    """Outcome of a controller-synthesis run."""

    success: bool
    controller: Controller
    plant: LTS
    removed_states: set[int] = field(default_factory=set)
    disabled_transitions: int = 0
    iterations: int = 0
    details: str = ""

    def __bool__(self) -> bool:
        return self.success

    def explain(self) -> str:
        """Readable summary."""
        verdict = "controller found" if self.success else "NO controller exists"
        return (
            f"{verdict}: kept {len(self.controller.kept_states)}/{self.plant.state_count()} states, "
            f"disabled {self.disabled_transitions} transitions ({self.iterations} iterations)"
        )


def synthesise(lts: LTS, objective: SynthesisObjective) -> SynthesisResult:
    """Compute the maximally permissive controller enforcing the objective.

    Returns a failed result (``success = False``) when the initial state
    cannot be kept — i.e. no wrapper can make the objective invariant.
    """
    kept = {state for state in lts.states if objective.safe_states(state)}
    iterations = 0
    changed = True
    while changed:
        iterations += 1
        changed = False
        for state in sorted(kept):
            outgoing = lts.transitions_from(state)
            must_leave = False
            allowed_count = 0
            for transition in outgoing:
                target_ok = transition.target in kept
                if target_ok:
                    allowed_count += 1
                    continue
                if not objective.controllable(label_to_dict(transition.label)):
                    # An uncontrollable reaction escapes the safe set: the state
                    # itself must be abandoned.
                    must_leave = True
                    break
            if must_leave or (objective.ensure_nonblocking and outgoing and allowed_count == 0):
                kept.discard(state)
                changed = True

    controller = Controller(kept_states=set(kept))
    disabled = 0
    for state in kept:
        allowed: list[Transition] = []
        for transition in lts.transitions_from(state):
            if transition.target in kept:
                allowed.append(transition)
            else:
                disabled += 1
        controller.allowed[state] = allowed

    success = lts.initial is not None and lts.initial in kept
    removed = set(lts.states) - kept
    details = "" if success else "the initial state is outside the greatest controllable invariant set"
    return SynthesisResult(success, controller, lts, removed, disabled, iterations, details)


def synthesise_with(
    target: Any,
    safe: ReactionPredicate,
    controllable: Sequence[str],
    ensure_nonblocking: bool = True,
) -> ControlVerdict:
    """Engine-agnostic controller synthesis.

    ``target`` may be a plain LTS or any backend of the shared Reachability
    interface; the objective is phrased once, as a reaction predicate plus the
    set of controllable signals, and dispatched to the explicit fixpoint below
    or to the symbolic BDD fixpoint of :mod:`.symbolic_int`.
    """
    if isinstance(target, LTS):
        objective = SynthesisObjective(
            safe_states=safety_from_labels(target, safe),
            controllable=controllable_by_signals(controllable),
            ensure_nonblocking=ensure_nonblocking,
        )
        result = synthesise(target, objective)
        return ControlVerdict(
            success=result.success,
            kept_states=len(result.controller.kept_states),
            total_states=target.state_count(),
            details=result.details,
            backend=result,
        )
    backend = _as_reachability(target, "synthesise_with")
    return backend.synthesise(safe, controllable, ensure_nonblocking)


def controllable_by_signals(signals: Iterable[str]) -> Callable[[dict[str, Any]], bool]:
    """Controllability predicate: a reaction is controllable when it involves one of ``signals``.

    This matches the usual modelling where the wrapper may delay or inhibit
    the occurrences of designated (input) events but cannot prevent the
    environment's other reactions.
    """
    names = set(signals)
    return lambda reaction: any(name in names for name in reaction)


def safety_from_labels(lts: LTS, predicate: Callable[[dict[str, Any]], bool]) -> Callable[[int], bool]:
    """Lift a reaction predicate to a state predicate.

    A state is declared unsafe when *every* path into it uses a reaction that
    violates the predicate is too strong a reading; instead we mark a state
    unsafe when it is the target of some violating transition — the usual
    encoding of "the bad thing has just happened".
    """
    bad_targets = {
        transition.target
        for transition in lts.transitions()
        if not predicate(label_to_dict(transition.label))
    }
    return lambda state: state not in bad_targets
