"""Counterexample-trace extraction across the engine crossover.

Extracting a trace is a different workload from deciding a verdict: the
explicit engine walks BFS parent pointers it already holds, while the
symbolic engine walks the stored frontier rings backward — one node-free
model search per ring, over the previous ring and the relation's clusters,
touching only the states on the path.  These
benchmarks measure both, and assert the headline claim of the trace work:
on a 2^14-state design whose explicit exploration is bound-truncated (and
therefore refuses the deep trace), the symbolic ring walk extracts a full
replay-valid 15-step counterexample in well under a second.  A bank of five
modulo counters is the other shape: short walks over wide states, where
each step's model search spans all 35 state bits.  Its smoke run records
``bank_trace_nodes``, the nodes its two traces create (their condition BDDs
only: the walk itself creates none), in ``BENCH_SMOKE.json``.
"""

import pytest

from repro.core.values import ABSENT
from repro.signal.ast import compose
from repro.signal.library import boolean_shift_register_process, modulo_counter_process
from repro.verification import (
    ExplorationOptions,
    ReactionPredicate,
    explore,
    symbolic_int_explore,
)


def _deep_predicate(depth: int) -> ReactionPredicate:
    """True on the deepest stage: needs a value shifted through all of them."""
    return ReactionPredicate.true_of(f"s{depth - 1}")


@pytest.mark.parametrize("depth", [4, 7])
def test_bench_explicit_trace_extraction(benchmark, depth):
    """Explicit BFS path extraction (the exploration is paid outside the loop)."""
    process = boolean_shift_register_process(depth)
    result = explore(process)
    trace = benchmark(lambda: result.trace_to(_deep_predicate(depth)))
    assert trace is not None
    assert len(trace) == depth + 1


@pytest.mark.parametrize("depth", [4, 10, 14])
def test_bench_symbolic_trace_extraction(benchmark, depth):
    """Symbolic ring walk: one model search per step of the trace."""
    process = boolean_shift_register_process(depth)
    result = symbolic_int_explore(process)
    trace = benchmark(lambda: result.trace_to(_deep_predicate(depth)))
    assert trace is not None
    assert len(trace) == depth + 1
    assert trace.violation[f"s{depth - 1}"] is not ABSENT


def _counter_bank(moduli):
    """Independent modulo counters side by side: ``prod(moduli)`` states."""
    return compose(
        "Bank",
        *(
            modulo_counter_process(modulo, f"C{index}").renamed(
                {"tick": f"tick{index}", "n": f"n{index}", "carry": f"carry{index}",
                 "previous": f"previous{index}"}
            )
            for index, modulo in enumerate(moduli)
        ),
    )


@pytest.mark.parametrize("moduli", [(7, 7, 7, 7, 7), (8, 8, 8, 8, 8)])
def test_bench_symbolic_bank_trace_extraction(benchmark, record_property, moduli):
    """The counterexample and witness traces of perfbench's 5-counter banks."""
    result = symbolic_int_explore(_counter_bank(moduli))
    predicates = (
        ReactionPredicate.present("carry0") & ReactionPredicate.present("carry1"),
        ReactionPredicate.value("n0", lambda value: value == moduli[0] - 1),
    )
    manager = result.engine.manager
    before = manager.statistics()["nodes_created"]
    first = [result.trace_to(predicate) for predicate in predicates]
    record_property("bank_trace_nodes", manager.statistics()["nodes_created"] - before)
    traces = benchmark(lambda: [result.trace_to(predicate) for predicate in predicates])
    assert [len(trace) for trace in traces] == [len(trace) for trace in first] == [1, moduli[0]]


def test_symbolic_trace_extraction_past_the_explicit_bound():
    """The headline claim: full traces on a design the explicit engine cannot finish.

    With ``max_states=1000`` the explicit explorer cannot construct the
    16384-state register's state space at all (the exploration is flagged
    incomplete, and its "no trace" answers refuse with BoundReached — any
    such answer off a truncated LTS is about a different plant), while the
    symbolic engine both completes the
    reachable set and, from the frontier rings its fixpoint stored anyway,
    walks out a full 15-step counterexample trace.
    """
    depth, bound = 14, 1000
    process = boolean_shift_register_process(depth)

    explicit = explore(process, ExplorationOptions(max_states=bound))
    assert not explicit.complete

    symbolic = symbolic_int_explore(process)
    assert symbolic.complete
    assert symbolic.state_count == 2 ** depth
    trace = symbolic.trace_to(_deep_predicate(depth))
    assert trace is not None
    assert len(trace) == depth + 1
    # The extracted path is genuinely executable: a True enters at x and
    # arrives at the deepest stage exactly depth steps later.
    assert trace[0].reaction["x"] is True
    assert trace.violation[f"s{depth - 1}"] is True
