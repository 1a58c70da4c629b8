"""Discrete controller synthesis on explored state spaces.

Last section of the paper ("Toward an integration platform"): "Whereas
model-checking consists of proving a property correct w.r.t. the specification
of a system, controller synthesis consists of using this property as a control
objective and to automatically generate a coercive process that wraps the
initial specification so as to guarantee that the objective is an invariant."

This module implements the classical supervisory-control construction on a
finite LTS (the approach of Marchand et al., reference [10] of the paper)
behind :meth:`ExplorationResult.synthesise
<repro.verification.explorer.ExplorationResult.synthesise>`, which refuses a
truncated exploration before it gets here:

* the transition alphabet is split into *controllable* reactions (those that
  make one of the designated signals present — the wrapper may inhibit them)
  and *uncontrollable* ones;
* a state is unsafe when it is the target of a reaction violating the safety
  predicate, and the greatest controllable invariant subset of the safe
  states is computed by a fixed point: a state is kept as long as every
  uncontrollable transition leaving it stays in the kept set (and,
  optionally, at least one transition remains, to avoid introducing
  deadlocks);
* the synthesised :class:`Controller` maps every kept state to the
  transitions it allows; :meth:`Controller.restrict` wraps the plant with
  it, and the closed loop is an exploration whose checks refuse on
  truncation like every other.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Sequence

from .lts import LTS, Label, Transition, label_to_dict
from .reachability import ControlVerdict, ReactionPredicate

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .explorer import ExplorationResult


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

    def restrict(self, plant: "ExplorationResult") -> "ExplorationResult":
        """The closed-loop system: the plant restricted to allowed transitions.

        The closed loop keeps the plant's observed alphabet and completeness,
        so checking it is a ``check_invariant`` call that refuses on a
        truncated plant exactly as the plant's own checks do.
        """
        lts = plant.lts
        closed = LTS(f"{lts.name}/controlled")
        mapping: dict[int, int] = {}
        for state in sorted(self.kept_states.intersection(lts.states)):
            mapping[state] = closed.add_state(lts.payload(state))
        if lts.initial in mapping:
            closed.initial = mapping[lts.initial]
        for state in mapping:
            allowed = {(t.source, t.label, t.target) for t in self.allowed.get(state, ())}
            for label, target in lts.outgoing(state):
                if (state, label, target) in allowed and target in mapping:
                    closed.add_transition(mapping[state], label, mapping[target])
        memories = {mapping[state]: plant.memories[state] for state in mapping if state in plant.memories}
        return replace(plant, lts=closed, memories=memories)


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


def _synthesise(
    lts: LTS,
    safe: ReactionPredicate,
    controllable: Sequence[str],
    ensure_nonblocking: bool,
) -> ControlVerdict:
    """The maximally permissive controller of a complete explored ``lts``.

    The implementation of :meth:`ExplorationResult.synthesise
    <repro.verification.explorer.ExplorationResult.synthesise>`, which
    refuses truncated explorations first.  The verdict fails
    (``success = False``) when the initial state cannot be kept — i.e. no
    wrapper can make the objective invariant; ``backend`` carries the
    :class:`SynthesisResult`.
    """
    names = set(controllable)
    # "The bad thing has just happened": a state is unsafe when it is the
    # target of some violating reaction.
    bad_targets = {
        target
        for state in lts.states
        for label, target in lts.outgoing(state)
        if not safe(label_to_dict(label))
    }
    kept = {state for state in lts.states if state not in bad_targets}
    iterations = 0
    changed = True
    while changed:
        iterations += 1
        changed = False
        for state in sorted(kept):
            must_leave = False
            outgoing = allowed_count = 0
            for label, target in lts.outgoing(state):
                outgoing += 1
                if target in kept:
                    allowed_count += 1
                    continue
                if not any(name in names for name, _value in label):
                    # An uncontrollable reaction escapes the safe set: the state
                    # itself must be abandoned.
                    must_leave = True
                    break
            if must_leave or (ensure_nonblocking and outgoing and allowed_count == 0):
                kept.discard(state)
                changed = True

    controller = Controller(kept_states=set(kept))
    disabled = 0
    for state in kept:
        allowed: list[Transition] = []
        for label, target in lts.outgoing(state):
            if target in kept:
                allowed.append(Transition(state, label, target))
            else:
                disabled += 1
        controller.allowed[state] = allowed

    success = lts.initial is not None and lts.initial in kept
    removed = set(lts.states) - kept
    details = "" if success else "the initial state is outside the greatest controllable invariant set"
    result = SynthesisResult(success, controller, lts, removed, disabled, iterations, details)
    return ControlVerdict(
        success=success,
        kept_states=len(kept),
        total_states=lts.state_count(),
        details=details,
        backend=result,
    )
