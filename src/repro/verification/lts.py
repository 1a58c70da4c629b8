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


def _as_label(label: Label | Mapping[str, Any]) -> Label:
    """``label`` as a transition label (a mapping goes through :func:`make_label`)."""
    return label if isinstance(label, frozenset) else make_label(label)


@dataclass(frozen=True)
class Transition:
    """One labelled transition ``source --label--> target``."""

    source: int
    label: Label
    target: int


class LTS:
    """A finite labelled transition system.

    States are dense ints in order of registration.  The transitions out of
    state ``s`` are stored as two parallel lists, ``_labels[s]`` and
    ``_targets[s]``, in insertion order; a :class:`Transition` object is
    built only where a method returns one.  Every walk reports transitions
    grouped by source, in state order, and in insertion order within a
    state.  Walks that need no objects read :meth:`outgoing`, and a builder
    that adds many transitions per state appends to :meth:`transition_lists`.
    """

    def __init__(self, name: str = "lts") -> None:
        self.name = name
        self._states: list[Hashable] = []
        self._index: dict[Hashable, int] = {}
        self._labels: list[list[Label]] = []
        self._targets: list[list[int]] = []
        self.initial: Optional[int] = None

    # -- construction --------------------------------------------------------------

    def add_state(self, payload: Hashable, initial: bool = False) -> int:
        """Add (or retrieve) a state identified by its hashable payload."""
        index = self._index.get(payload)
        if index is None:
            index = len(self._states)
            self._states.append(payload)
            self._index[payload] = index
            self._labels.append([])
            self._targets.append([])
        if initial:
            self.initial = index
        return index

    def add_transition(self, source: int, label: Label | Mapping[str, Any], target: int) -> Transition:
        """Add a transition (labels given as mappings are converted).

        Raises:
            KeyError: when ``source`` or ``target`` is not a state of this LTS.
        """
        for state in (source, target):
            if not self._known(state):
                raise KeyError(state)
        label = _as_label(label)
        self._labels[source].append(label)
        self._targets[source].append(target)
        return Transition(source, label, target)

    def transition_lists(self, state: int) -> tuple[list[Label], list[int]]:
        """The label and target lists of the transitions out of ``state``, for
        a builder that appends to both in step.  Unlike :meth:`add_transition`
        nothing is checked: every target appended must already be a state."""
        return self._labels[state], self._targets[state]

    def _known(self, state: int) -> bool:
        """Whether ``state`` indexes a state (never counting from the end)."""
        return 0 <= state < len(self._states)

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
        return sum(map(len, self._targets))

    def payload(self, state: int) -> Hashable:
        """The payload used to register ``state``."""
        return self._states[state]

    def index_of(self, payload: Hashable) -> Optional[int]:
        """The state registered with ``payload``, if any."""
        return self._index.get(payload)

    def outgoing(self, state: int) -> Iterator[tuple[Label, int]]:
        """The ``(label, target)`` pairs of the transitions out of ``state``,
        in insertion order, without building :class:`Transition` objects
        (none for an unknown state)."""
        if not self._known(state):
            return iter(())
        return zip(self._labels[state], self._targets[state])

    def transitions_from(self, state: int) -> list[Transition]:
        """Outgoing transitions of ``state`` (none for an unknown state)."""
        return [Transition(state, label, target) for label, target in self.outgoing(state)]

    def transitions(self) -> Iterator[Transition]:
        """All transitions."""
        for source in self.states:
            for label, target in self.outgoing(source):
                yield Transition(source, label, target)

    def successors(self, state: int) -> set[int]:
        """Target states of the outgoing transitions of ``state``."""
        return set(self._targets[state]) if self._known(state) else set()

    def predecessors(self, state: int) -> set[int]:
        """States with a transition into ``state``."""
        return {source for source, targets in enumerate(self._targets) if state in targets}

    def alphabet(self) -> set[Label]:
        """The set of labels used by the transitions."""
        return {label for labels in self._labels for label in labels}

    # -- traversals --------------------------------------------------------------------

    def reachable(self, start: Optional[int] = None) -> set[int]:
        """States reachable from ``start`` (default: the initial state)."""
        if start is None:
            start = self.initial
        if start is None:
            return set()
        if not self._known(start):
            return {start}
        seen = {start}
        frontier = [start]
        targets_of = self._targets
        while frontier:
            for target in targets_of[frontier.pop()]:
                if target not in seen:
                    seen.add(target)
                    frontier.append(target)
        return seen

    def breadth_first(self) -> tuple[list[int], list[int]]:
        """The states reachable from the initial one in breadth-first order,
        and each state's BFS parent, indexed by state.

        A state's parent is the source whose transition first reached it;
        the initial state is its own parent, and a state the initial one
        does not reach has ``-1``.  Sources are expanded in BFS order and
        their transitions in insertion order, so the first transition of
        that walk passing a test has a source of minimal depth, and
        :meth:`path_back` from that source is a shortest path to it.
        """
        initial = self.initial
        if initial is None:
            return [], []
        if not self._known(initial):
            return [initial], []
        parents = [-1] * len(self._states)
        parents[initial] = initial
        order = [initial]
        targets_of = self._targets
        for state in order:  # grows while it is walked: a FIFO queue
            for target in targets_of[state]:
                if parents[target] < 0:
                    parents[target] = state
                    order.append(target)
        return order, parents

    def path_back(self, parents: list[int], state: int) -> list[Transition]:
        """The transitions from the initial state to ``state`` along the BFS
        ``parents`` of :meth:`breadth_first`.  Each step is the parent's
        first transition into the state, the one the walk reached it by."""
        path: list[Transition] = []
        while state != self.initial:
            source = parents[state]
            label = self._labels[source][self._targets[source].index(state)]
            path.append(Transition(source, label, state))
            state = source
        path.reverse()
        return path

    def path_to(self, predicate: Callable[[int], bool]) -> Optional[list[Transition]]:
        """A shortest transition path from the initial state to a state satisfying ``predicate``."""
        order, parents = self.breadth_first()
        for state in order:
            if predicate(state):
                return self.path_back(parents, state)
        return None

    def path_to_reaction(self, predicate: Callable[[dict[str, Any]], bool]) -> Optional[list[Transition]]:
        """A shortest transition path ending with a reaction satisfying ``predicate``.

        The first satisfying transition of the :meth:`breadth_first` walk has
        a minimal-depth source, so the returned path (prefix to the source
        plus the satisfying transition itself) has minimal length —
        ``path_to`` targets *states*, this targets *labels*.
        """
        order, parents = self.breadth_first()
        holds = per_label(predicate)
        for source in order:
            for label, target in self.outgoing(source):
                if holds(label):
                    return self.path_back(parents, source) + [Transition(source, label, target)]
        return None

    # -- transformations ------------------------------------------------------------------

    def relabel(self, transform: Callable[[Label], Label]) -> "LTS":
        """A copy of the LTS with every label rewritten by ``transform``."""
        copy = LTS(self.name)
        for payload in self._states:
            copy.add_state(payload)
        copy.initial = self.initial
        for source, labels in enumerate(self._labels):
            copy._labels[source] = [_as_label(transform(label)) for label in labels]
            copy._targets[source] = list(self._targets[source])
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
        for source, new_source in mapping.items():
            for label, target in self.outgoing(source):
                if target in keep:
                    copy._labels[new_source].append(label)
                    copy._targets[new_source].append(mapping[target])
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
        for source in self.states:
            for label, target in self.outgoing(source):
                lines.append(f'  s{source} -> s{target} [label="{self.render_label(label)}"];')
        lines.append("}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"LTS({self.name}, states={self.state_count()}, transitions={self.transition_count()})"
