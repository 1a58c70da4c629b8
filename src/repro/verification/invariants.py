"""Invariant and reachability checking over explored state spaces.

Model checking in the paper's tool-chain ("showing that the refinement of the
EPC architecture layer preserves flow-equivalence amounts to a model checking
problem, implemented using, e.g., the tool Sigali") boils down to two
questions on a finite LTS: *is a predicate invariant along every reachable
execution?* and *is some state/reaction reachable?*  This module answers both,
producing counterexample paths when the answer is negative, and offers the
small CTL-like operators (AG, EF, AF) that the refinement obligations and the
controller-synthesis objectives are phrased with.

The checks also come in engine-agnostic form: :func:`invariant_holds` and
:func:`reaction_reachable` accept either a plain :class:`~.lts.LTS`, or any
backend of the shared :class:`~repro.verification.reachability.Reachability`
interface (explicit exploration, polynomial enumeration, or the symbolic BDD
engine), so a property written once can be checked by every engine — which is
exactly what the differential test suite does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Optional

from .lts import LTS, Transition, per_label

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .reachability import Trace

#: Predicate over a transition label (a reaction).
LabelPredicate = Callable[[dict[str, Any]], bool]
#: Predicate over a state index.
StatePredicate = Callable[[int], bool]


@dataclass
class CheckResult:
    """Outcome of an invariant / reachability check.

    ``trace`` is the engine-independent counterexample/witness path
    (:class:`~repro.verification.reachability.Trace`) when the caller asked
    for one — the workbench attaches it on ``design.check(..., traces=True)``;
    it stays ``None`` by default so batch checking never pays for extraction.
    """

    holds: bool
    property_name: str
    counterexample: Optional[list[Transition]] = None
    witness_state: Optional[int] = None
    details: str = ""
    trace: Optional["Trace"] = None

    def __bool__(self) -> bool:
        return self.holds

    def explain(self) -> str:
        """Readable verdict, including the length of a counterexample if any."""
        verdict = "holds" if self.holds else "FAILS"
        text = f"{self.property_name}: {verdict}"
        if self.trace is not None:
            text += f" (trace of {len(self.trace)} steps)"
        elif self.counterexample is not None:
            text += f" (counterexample of length {len(self.counterexample)})"
        if self.details:
            text += f" — {self.details}"
        return text


def check_invariant_labels(lts: LTS, predicate: LabelPredicate, name: str = "invariant") -> CheckResult:
    """AG over reactions: every reachable transition label satisfies ``predicate``."""
    reachable = lts.reachable()
    holds = per_label(predicate)
    for transition in lts.transitions():
        if transition.source not in reachable:
            continue
        if not holds(transition.label):
            path = lts.path_to(lambda s: s == transition.source) or []
            return CheckResult(False, name, path + [transition], transition.target)
    return CheckResult(True, name, details=f"{len(reachable)} reachable states")


def check_invariant_states(lts: LTS, predicate: StatePredicate, name: str = "state-invariant") -> CheckResult:
    """AG over states: every reachable state satisfies ``predicate``."""
    for state in sorted(lts.reachable()):
        if not predicate(state):
            path = lts.path_to(lambda s: s == state)
            return CheckResult(False, name, path, state)
    return CheckResult(True, name, details=f"{len(lts.reachable())} reachable states")


def check_reachable(lts: LTS, predicate: StatePredicate, name: str = "reachability") -> CheckResult:
    """EF: some reachable state satisfies ``predicate`` (witness path returned)."""
    path = lts.path_to(predicate)
    if path is None and (lts.initial is None or not predicate(lts.initial)):
        return CheckResult(False, name, details="no reachable state satisfies the predicate")
    witness = path[-1].target if path else lts.initial
    return CheckResult(True, name, counterexample=path, witness_state=witness, details="witness found")


def check_reaction_reachable(lts: LTS, predicate: LabelPredicate, name: str = "reaction-reachability") -> CheckResult:
    """EF over reactions: some reachable transition label satisfies ``predicate``."""
    reachable = lts.reachable()
    holds = per_label(predicate)
    for transition in lts.transitions():
        if transition.source in reachable and holds(transition.label):
            path = lts.path_to(lambda s: s == transition.source) or []
            return CheckResult(True, name, path + [transition], transition.target, "witness reaction found")
    return CheckResult(False, name, details="no reachable reaction satisfies the predicate")


def _as_reachability(
    target: Any,
    caller: str,
    needs_synthesis: bool = False,
    predicates: tuple = (),
) -> Any:
    # Late import: reachability imports CheckResult from this module.  The
    # isinstance check matters — bare duck-typing would silently match e.g.
    # PolynomialDynamicalSystem.check_invariant(polynomial, max_states) and
    # misinterpret both arguments.
    from .reachability import Reachability

    if isinstance(target, Reachability):
        return target
    # A workbench Design resolves to whatever backend its registry's auto
    # policy picks, so the legacy entry points ride the facade's memoised
    # artifacts for free; the query's predicates are forwarded so value
    # atoms route to a concrete backend exactly as in the batch API.  Late
    # import: workbench sits above verification.
    from ..workbench import Design

    if isinstance(target, Design):
        return target.backend(predicates=predicates, needs_synthesis=needs_synthesis)
    raise TypeError(
        f"{caller} expects an LTS, a Reachability backend or a workbench Design, not "
        f"{type(target).__name__} (for a PolynomialDynamicalSystem, call .explore() first)"
    )


def invariant_holds(target: Any, predicate: LabelPredicate, name: str = "invariant") -> CheckResult:
    """Engine-agnostic AG over reactions.

    ``target`` may be an LTS (checked transition by transition) or any
    Reachability backend (delegated to its own ``check_invariant``, which for
    the symbolic engine is a single BDD emptiness test).
    """
    if isinstance(target, LTS):
        return check_invariant_labels(target, predicate, name)
    backend = _as_reachability(target, "invariant_holds", predicates=(predicate,))
    return backend.check_invariant(predicate, name)


def reaction_reachable(target: Any, predicate: LabelPredicate, name: str = "reachability") -> CheckResult:
    """Engine-agnostic EF over reactions (see :func:`invariant_holds`)."""
    if isinstance(target, LTS):
        return check_reaction_reachable(target, predicate, name)
    backend = _as_reachability(target, "reaction_reachable", predicates=(predicate,))
    return backend.check_reachable(predicate, name)


def states_satisfying_ef(lts: LTS, targets: set[int]) -> set[int]:
    """The states from which some state in ``targets`` is reachable (EF targets)."""
    result = set(targets)
    changed = True
    while changed:
        changed = False
        for transition in lts.transitions():
            if transition.target in result and transition.source not in result:
                result.add(transition.source)
                changed = True
    return result


def states_satisfying_ag(lts: LTS, safe: set[int]) -> set[int]:
    """The states from which every reachable state stays in ``safe`` (AG safe)."""
    unsafe = set(lts.states) - safe
    bad = states_satisfying_ef(lts, unsafe)
    return set(lts.states) - bad


def states_satisfying_af(lts: LTS, targets: set[int]) -> set[int]:
    """The states from which every infinite path eventually hits ``targets`` (AF).

    Computed as the least fixed point: a state is in AF(targets) when it is a
    target, or when it has at least one transition and all its successors are
    already in the set.
    """
    result = set(targets)
    changed = True
    while changed:
        changed = False
        for state in lts.states:
            if state in result:
                continue
            outgoing = lts.transitions_from(state)
            if outgoing and all(t.target in result for t in outgoing):
                result.add(state)
                changed = True
    return result


def always_eventually(lts: LTS, predicate: StatePredicate, name: str = "AF") -> CheckResult:
    """AF from the initial state: every execution eventually reaches ``predicate``."""
    targets = {state for state in lts.states if predicate(state)}
    good = states_satisfying_af(lts, targets)
    if lts.initial in good:
        return CheckResult(True, name, details=f"{len(targets)} target states")
    return CheckResult(False, name, details="some execution avoids the target states forever")


def deadlock_free(lts: LTS, name: str = "deadlock-freedom") -> CheckResult:
    """Every reachable state has at least one outgoing transition."""
    deadlocks = lts.deadlocks()
    if not deadlocks:
        return CheckResult(True, name, details=f"{len(lts.reachable())} reachable states")
    state = sorted(deadlocks)[0]
    return CheckResult(False, name, lts.path_to(lambda s: s == state), state, f"{len(deadlocks)} deadlock states")
