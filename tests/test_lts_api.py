"""The public surface of :class:`~repro.verification.lts.LTS`, pinned exactly.

One hand-built LTS — a diamond ``a → {b, c} → d``, a silent self-loop on
``d``, a state ``u`` nothing reaches, and labels given both as mappings and
as frozensets — and the exact output and order of every observation,
traversal and transformation over it.  Transitions are added out of source
order on purpose: every walk reports them grouped by source state, in state
order, and in insertion order within a state.
"""

import pytest

from repro.core.values import EVENT
from repro.verification import LTS, Transition, make_label

X = make_label({"x": 1})
Y = make_label({"y": True})
Z = make_label({"z": EVENT})
SILENT = frozenset()


@pytest.fixture
def lts():
    lts = LTS("demo")
    a = lts.add_state("a", initial=True)
    b = lts.add_state("b")
    c = lts.add_state("c")
    d = lts.add_state("d")
    u = lts.add_state("u")
    lts.add_transition(a, {"x": 1}, b)
    lts.add_transition(c, Z, d)
    lts.add_transition(a, {"y": True}, c)
    lts.add_transition(u, X, a)
    lts.add_transition(d, {}, d)
    lts.add_transition(b, {"z": EVENT}, d)
    return lts


ALL = [
    Transition(0, X, 1),
    Transition(0, Y, 2),
    Transition(1, Z, 3),
    Transition(2, Z, 3),
    Transition(3, SILENT, 3),
    Transition(4, X, 0),
]


def test_construction(lts):
    assert (lts.state_count(), lts.transition_count(), lts.initial) == (5, 6, 0)
    assert list(lts.states) == [0, 1, 2, 3, 4]
    assert [lts.payload(state) for state in lts.states] == ["a", "b", "c", "d", "u"]
    assert lts.add_state("c") == 2 and lts.state_count() == 5
    assert (lts.index_of("d"), lts.index_of("nowhere")) == (3, None)
    # A label given as a mapping becomes a frozenset label.
    assert lts.add_transition(4, {"y": True}, 2) == Transition(4, Y, 2)
    assert lts.transitions_from(4) == [Transition(4, X, 0), Transition(4, Y, 2)]


@pytest.mark.parametrize("source", [-1, 5, 99])
def test_a_transition_out_of_an_unknown_state_is_refused(lts, source):
    with pytest.raises(KeyError):
        lts.add_transition(source, X, 0)
    assert lts.transition_count() == 6


def test_transitions_in_state_then_insertion_order(lts):
    assert list(lts.transitions()) == ALL
    assert lts.transitions_from(0) == ALL[:2]
    assert lts.transitions_from(3) == [Transition(3, SILENT, 3)]
    assert lts.transitions_from(4) == [Transition(4, X, 0)]


@pytest.mark.parametrize("state", [-1, -5, 5, 99])
def test_an_unknown_state_has_no_transitions(lts, state):
    assert lts.transitions_from(state) == []
    assert lts.successors(state) == set()
    assert lts.predecessors(state) == set()


def test_returned_transition_lists_are_copies(lts):
    lts.transitions_from(0).clear()
    assert lts.transitions_from(0) == ALL[:2]


def test_neighbours_and_alphabet(lts):
    assert [lts.successors(state) for state in lts.states] == [{1, 2}, {3}, {3}, {3}, {0}]
    assert [lts.predecessors(state) for state in lts.states] == [{4}, {0}, {0}, {1, 2, 3}, set()]
    assert lts.alphabet() == {X, Y, Z, SILENT}


def test_reachable(lts):
    assert lts.reachable() == {0, 1, 2, 3}
    assert lts.reachable(4) == {0, 1, 2, 3, 4}
    assert lts.reachable(3) == {3}
    assert LTS("empty").reachable() == set()


def test_path_to(lts):
    assert lts.path_to(lambda state: state == 0) == []
    assert lts.path_to(lambda state: state == 2) == [Transition(0, Y, 2)]
    # Breadth first, and b's branch of the diamond was added first.
    assert lts.path_to(lambda state: state == 3) == [Transition(0, X, 1), Transition(1, Z, 3)]
    assert lts.path_to(lambda state: state == 4) is None
    assert LTS("empty").path_to(lambda state: True) is None


def test_breadth_first(lts):
    order, parents = lts.breadth_first()
    # u is unreached; d is first reached through b, whose branch came first.
    assert order == [0, 1, 2, 3]
    assert parents == [0, 0, 0, 1, -1]
    assert lts.path_back(parents, 3) == [Transition(0, X, 1), Transition(1, Z, 3)]
    assert lts.path_back(parents, 0) == []
    assert LTS("empty").breadth_first() == ([], [])


def test_path_to_reaction(lts):
    assert lts.path_to_reaction(lambda reaction: "y" in reaction) == [Transition(0, Y, 2)]
    assert lts.path_to_reaction(lambda reaction: "z" in reaction) == [
        Transition(0, X, 1),
        Transition(1, Z, 3),
    ]
    assert lts.path_to_reaction(lambda reaction: reaction == {}) == [
        Transition(0, X, 1),
        Transition(1, Z, 3),
        Transition(3, SILENT, 3),
    ]
    # u's transition carries x=1 too, but only reachable sources count.
    assert lts.path_to_reaction(lambda reaction: reaction.get("x") == 1) == [Transition(0, X, 1)]
    assert lts.path_to_reaction(lambda reaction: False) is None
    assert LTS("empty").path_to_reaction(lambda reaction: True) is None


def test_relabel(lts):
    upper = lts.relabel(lambda label: frozenset((name.upper(), value) for name, value in label))
    assert (upper.name, upper.initial, upper.state_count()) == ("demo", 0, 5)
    assert [upper.payload(state) for state in upper.states] == ["a", "b", "c", "d", "u"]
    assert list(upper.transitions()) == [
        Transition(t.source, frozenset((n.upper(), v) for n, v in t.label), t.target) for t in ALL
    ]
    # A transform may return a mapping; it is converted like add_transition's.
    sizes = lts.relabel(lambda label: {"size": len(label)})
    assert [t.label for t in sizes.transitions()] == [
        make_label({"size": size}) for size in (1, 1, 1, 1, 0, 1)
    ]
    assert list(lts.transitions()) == ALL


def test_project_labels(lts):
    projected = lts.project_labels(["x", "z"])
    assert [t.label for t in projected.transitions()] == [X, SILENT, Z, Z, SILENT, X]


def test_restricted_to(lts):
    reached = lts.restricted_to(lts.reachable())
    assert (reached.initial, reached.state_count()) == (0, 4)
    assert list(reached.transitions()) == ALL[:5]
    tail = lts.restricted_to({4, 3, 2})
    assert [tail.payload(state) for state in tail.states] == ["c", "d", "u"]
    assert tail.initial is None
    assert list(tail.transitions()) == [Transition(0, Z, 1), Transition(1, SILENT, 1)]


def test_to_dot(lts):
    assert lts.to_dot() == "\n".join(
        [
            'digraph "demo" {',
            "  rankdir=LR;",
            '  s0 [label="0", shape=doublecircle];',
            '  s1 [label="1", shape=circle];',
            '  s2 [label="2", shape=circle];',
            '  s3 [label="3", shape=circle];',
            '  s4 [label="4", shape=circle];',
            '  s0 -> s1 [label="x=1"];',
            '  s0 -> s2 [label="y=True"];',
            '  s1 -> s3 [label="z=⊤"];',
            '  s2 -> s3 [label="z=⊤"];',
            '  s3 -> s3 [label="τ"];',
            '  s4 -> s0 [label="x=1"];',
            "}",
        ]
    )
