"""Symbolic vs. explicit reachability on scaled boolean shift registers.

An n-stage boolean shift register has exactly 2^n reachable memory states —
the explicit explorer must visit each one, while the symbolic engine's
reachable set is a constant-size BDD whatever n is.  These benchmarks sweep n
across the crossover: the explicit engine is competitive on tiny designs,
hits its ``max_states`` bound on medium ones, and the symbolic engine keeps
going orders of magnitude further (2^18 states in well under a second).
"""

import pytest

from repro.signal.library import boolean_shift_register_process
from repro.verification import (
    ExplorationOptions,
    ReactionPredicate,
    explore,
    symbolic_int_explore,
)


@pytest.mark.parametrize("depth", [4, 7])
def test_bench_explicit_reachability(benchmark, depth):
    """Explicit enumeration: cost doubles with every extra stage."""
    process = boolean_shift_register_process(depth)
    result = benchmark(lambda: explore(process))
    assert result.complete
    assert result.state_count == 2 ** depth


@pytest.mark.parametrize("depth", [4, 12, 18])
def test_bench_symbolic_reachability(benchmark, depth):
    """Symbolic fixpoint: cost tracks BDD sizes, not state counts."""
    process = boolean_shift_register_process(depth)
    result = benchmark(lambda: symbolic_int_explore(process))
    assert result.complete
    assert result.state_count == 2 ** depth


def test_symbolic_completes_where_explicit_hits_its_bound():
    """The headline claim: a design the explicit engine cannot finish.

    With ``max_states=1000`` the explicit explorer truncates the 16384-state
    register; the symbolic engine computes the exact reachable set — more
    than 10× beyond the explicit bound.
    """
    depth, bound = 14, 1000
    process = boolean_shift_register_process(depth)
    explicit = explore(process, ExplorationOptions(max_states=bound))
    assert not explicit.complete
    symbolic = symbolic_int_explore(process)
    assert symbolic.complete
    assert symbolic.state_count == 2 ** depth
    assert symbolic.state_count >= 10 * bound


@pytest.mark.parametrize("depth", [12])
def test_bench_symbolic_invariant_check(benchmark, depth):
    """Invariant checking on a 4096-state design is one BDD emptiness test."""
    process = boolean_shift_register_process(depth)
    result = symbolic_int_explore(process)
    predicate = ReactionPredicate.present(f"s{depth - 1}").implies(ReactionPredicate.present("x"))
    verdict = benchmark(lambda: result.check_invariant(predicate))
    assert verdict.holds
