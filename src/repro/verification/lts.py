"""Labelled transition systems: the common currency of the verification layer.

The explorer turns compiled SIGNAL processes (or SpecC designs) into finite
LTSs whose transition labels are *reactions* — the set of signals present at
an instant together with their values.  The explorer's verdict methods,
bisimulation checking and controller synthesis all operate on this structure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Hashable, Iterable, Iterator, Mapping, Optional

from ..core.values import ABSENT

Label = frozenset


def make_label(instant: Mapping[str, Any], observed: Optional[Iterable[str]] = None) -> Label:
    """Build a transition label from a reaction (present signals and values).

    Absent signals are omitted, so the silent reaction is the empty label.
    """
    names = set(observed) if observed is not None else set(instant)
    return frozenset(
        (name, value) for name, value in instant.items() if name in names and value is not ABSENT
    )


def label_to_dict(label: Label) -> dict[str, Any]:
    """Inverse of :func:`make_label` (absent signals omitted)."""
    return {name: value for name, value in label}


def per_label(predicate: Callable[[dict[str, Any]], bool]) -> Callable[[Label], bool]:
    """``predicate`` over labels, evaluated once per distinct label object.

    Keyed by identity, not equality: the explorer shares one label object
    per distinct reaction, and equal labels carrying ``1`` and ``True`` must
    still be evaluated apart.  The labels must outlive the returned function
    (they do while their LTS does).
    """
    verdicts: dict[int, bool] = {}

    def holds(label: Label) -> bool:
        verdict = verdicts.get(id(label))
        if verdict is None:
            verdict = verdicts[id(label)] = bool(predicate(label_to_dict(label)))
        return verdict

    return holds


@dataclass(frozen=True)
class Transition:
    """One labelled transition ``source --label--> target``."""

    source: int
    label: Label
    target: int


class LTS:
    """A finite labelled transition system."""

    def __init__(self, name: str = "lts") -> None:
        self.name = name
        self._states: list[Hashable] = []
        self._index: dict[Hashable, int] = {}
        self._transitions: dict[int, list[Transition]] = {}
        self.initial: Optional[int] = None

    # -- construction --------------------------------------------------------------

    def add_state(self, payload: Hashable, initial: bool = False) -> int:
        """Add (or retrieve) a state identified by its hashable payload."""
        index = self._index.get(payload)
        if index is None:
            index = len(self._states)
            self._states.append(payload)
            self._index[payload] = index
            self._transitions[index] = []
        if initial:
            self.initial = index
        return index

    def add_transition(self, source: int, label: Label | Mapping[str, Any], target: int) -> Transition:
        """Add a transition (labels given as mappings are converted)."""
        if not isinstance(label, frozenset):
            label = make_label(label)
        transition = Transition(source, label, target)
        self._transitions[source].append(transition)
        return transition

    # -- observations ----------------------------------------------------------------

    @property
    def states(self) -> range:
        """Indices of the states."""
        return range(len(self._states))

    def state_count(self) -> int:
        """Number of states."""
        return len(self._states)

    def transition_count(self) -> int:
        """Number of transitions."""
        return sum(len(ts) for ts in self._transitions.values())

    def payload(self, state: int) -> Hashable:
        """The payload used to register ``state``."""
        return self._states[state]

    def index_of(self, payload: Hashable) -> Optional[int]:
        """The state registered with ``payload``, if any."""
        return self._index.get(payload)

    def transitions_from(self, state: int) -> list[Transition]:
        """Outgoing transitions of ``state``."""
        return list(self._transitions.get(state, []))

    def transitions(self) -> Iterator[Transition]:
        """All transitions."""
        for outgoing in self._transitions.values():
            yield from outgoing

    def successors(self, state: int) -> set[int]:
        """Target states of the outgoing transitions of ``state``."""
        return {t.target for t in self._transitions.get(state, [])}

    def predecessors(self, state: int) -> set[int]:
        """States with a transition into ``state``."""
        return {t.source for t in self.transitions() if t.target == state}

    def alphabet(self) -> set[Label]:
        """The set of labels used by the transitions."""
        return {t.label for t in self.transitions()}

    # -- traversals --------------------------------------------------------------------

    def reachable(self, start: Optional[int] = None) -> set[int]:
        """States reachable from ``start`` (default: the initial state)."""
        if start is None:
            start = self.initial
        if start is None:
            return set()
        seen = {start}
        frontier = [start]
        while frontier:
            state = frontier.pop()
            for transition in self._transitions.get(state, []):
                if transition.target not in seen:
                    seen.add(transition.target)
                    frontier.append(transition.target)
        return seen

    def path_to(self, predicate: Callable[[int], bool]) -> Optional[list[Transition]]:
        """A shortest transition path from the initial state to a state satisfying ``predicate``."""
        if self.initial is None:
            return None
        if predicate(self.initial):
            return []
        parents: dict[int, Transition] = {}
        frontier = [self.initial]
        seen = {self.initial}
        while frontier:
            next_frontier: list[int] = []
            for state in frontier:
                for transition in self._transitions.get(state, []):
                    if transition.target in seen:
                        continue
                    seen.add(transition.target)
                    parents[transition.target] = transition
                    if predicate(transition.target):
                        path = [transition]
                        while path[0].source != self.initial:
                            path.insert(0, parents[path[0].source])
                        return path
                    next_frontier.append(transition.target)
            frontier = next_frontier
        return None

    def path_to_reaction(self, predicate: Callable[[dict[str, Any]], bool]) -> Optional[list[Transition]]:
        """A shortest transition path ending with a reaction satisfying ``predicate``.

        BFS with parent pointers from the initial state: source states are
        examined layer by layer, so the first satisfying transition found has
        a minimal-depth source and the returned path (prefix to the source
        plus the satisfying transition itself) has minimal length.  This is
        the explicit engine's counterexample-trace skeleton — ``path_to``
        targets *states*, this targets *labels*.
        """
        if self.initial is None:
            return None
        holds = per_label(predicate)
        parents: dict[int, Transition] = {}
        frontier = [self.initial]
        seen = {self.initial}
        while frontier:
            next_frontier: list[int] = []
            for state in frontier:
                for transition in self._transitions.get(state, []):
                    if holds(transition.label):
                        path = [transition]
                        while path[0].source != self.initial:
                            path.insert(0, parents[path[0].source])
                        return path
                    if transition.target not in seen:
                        seen.add(transition.target)
                        parents[transition.target] = transition
                        next_frontier.append(transition.target)
            frontier = next_frontier
        return None

    # -- transformations ------------------------------------------------------------------

    def relabel(self, transform: Callable[[Label], Label]) -> "LTS":
        """A copy of the LTS with every label rewritten by ``transform``."""
        copy = LTS(self.name)
        for payload in self._states:
            copy.add_state(payload)
        copy.initial = self.initial
        for transition in self.transitions():
            copy.add_transition(transition.source, transform(transition.label), transition.target)
        return copy

    def project_labels(self, observed: Iterable[str]) -> "LTS":
        """Restrict every label to the observed signals (others hidden)."""
        names = set(observed)
        return self.relabel(lambda label: frozenset((n, v) for n, v in label if n in names))

    def restricted_to(self, states: Iterable[int]) -> "LTS":
        """The sub-LTS induced by ``states`` (transitions inside the set only)."""
        keep = set(states)
        copy = LTS(self.name)
        mapping: dict[int, int] = {}
        for state in sorted(keep):
            mapping[state] = copy.add_state(self._states[state])
        if self.initial in keep:
            copy.initial = mapping[self.initial]
        for transition in self.transitions():
            if transition.source in keep and transition.target in keep:
                copy.add_transition(mapping[transition.source], transition.label, mapping[transition.target])
        return copy

    # -- rendering ----------------------------------------------------------------------------

    def render_label(self, label: Label) -> str:
        """Readable rendering of a label."""
        if not label:
            return "τ"
        return ",".join(f"{n}={v}" for n, v in sorted(label, key=lambda kv: kv[0]))

    def to_dot(self) -> str:
        """GraphViz rendering (for documentation and debugging)."""
        lines = [f'digraph "{self.name}" {{', "  rankdir=LR;"]
        for state in self.states:
            shape = "doublecircle" if state == self.initial else "circle"
            lines.append(f'  s{state} [label="{state}", shape={shape}];')
        for transition in self.transitions():
            lines.append(
                f'  s{transition.source} -> s{transition.target} [label="{self.render_label(transition.label)}"];'
            )
        lines.append("}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"LTS({self.name}, states={self.state_count()}, transitions={self.transition_count()})"
