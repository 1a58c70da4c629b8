"""Finite-integer symbolic vs. explicit reachability on scaled counter banks.

A bank of ``k`` independent modulo-``m`` counters has exactly ``m^k``
reachable memory states but a diameter of only ``m - 1`` image steps, so it
is the integer analogue of the boolean shift register: the explicit explorer
must enumerate every product state and hits its ``max_states`` bound almost
immediately, while the finite-integer engine's fixpoint converges in a
handful of BDD images whatever ``k`` is.  Before this engine existed these
designs had *no* exhaustive backend at all — integer data has no Z/3Z
encoding (``encode_process`` raises ``EncodingError``), which is precisely
the gap ``repro.verification.symbolic_int`` closes.

The relation build is recorded as a layer of its own: the smoke run writes
the build seconds and the nodes it creates for a depth-18 register and a
5-counter bank, the two strata of perfbench ``symbolic``, to
``BENCH_SMOKE.json``.
"""

from time import perf_counter

import pytest

from repro.signal.ast import compose
from repro.signal.library import (
    boolean_shift_register_process,
    modulo_counter_process,
    saturating_accumulator_process,
)
from repro.simulation.compiler import CompiledProcess
from repro.verification import (
    BoundReached,
    EncodingError,
    ExplorationOptions,
    IntSymbolicEngine,
    ReactionPredicate,
    encode_process,
    explore,
    symbolic_int_explore,
)
from repro.verification.ranges import infer_ranges


def counter_bank(counters: int, modulo: int):
    """Compose ``counters`` independent modulo-``modulo`` counters."""
    parts = [
        modulo_counter_process(modulo, f"C{index}").renamed(
            {
                "tick": f"tick{index}",
                "n": f"n{index}",
                "carry": f"carry{index}",
                "previous": f"previous{index}",
            }
        )
        for index in range(counters)
    ]
    return compose(f"Bank{counters}x{modulo}", *parts)


@pytest.mark.parametrize("counters,modulo", [(2, 3), (3, 4)])
def test_bench_explicit_integer_reachability(benchmark, counters, modulo):
    """Explicit enumeration: cost is the full m^k product."""
    process = counter_bank(counters, modulo)
    result = benchmark(lambda: explore(process))
    assert result.complete
    assert result.state_count == modulo ** counters


def test_bench_relation_build(benchmark, record_property):
    """The relation-build layer: seconds (best of three) and nodes created.

    The process is compiled and its ranges inferred up front, so only the
    engine's circuit compilation and clustering are timed — the work
    perfbench reports as ``relational.build_s``.
    """
    designs = {
        "register18": boolean_shift_register_process(18),
        "bank5x8": counter_bank(5, 8),
    }
    for label, process in designs.items():
        compiled = CompiledProcess(process)
        ranges = infer_ranges(compiled)
        seconds = []
        for _ in range(3):
            started = perf_counter()
            engine = IntSymbolicEngine(compiled, ranges=ranges)
            seconds.append(perf_counter() - started)
        record_property(f"{label}_build_s", round(min(seconds), 6))
        record_property(f"{label}_build_nodes", engine.manager.statistics()["nodes_created"])
        assert engine.relation.cluster_count == 1
    benchmark(lambda: IntSymbolicEngine(compiled, ranges=ranges))


@pytest.mark.parametrize("counters,modulo", [(2, 3), (4, 6), (6, 8)])
def test_bench_symbolic_int_reachability(benchmark, counters, modulo):
    """Symbolic fixpoint: cost tracks the diameter (m-1 images), not m^k."""
    process = counter_bank(counters, modulo)
    result = benchmark(lambda: symbolic_int_explore(process))
    assert result.complete
    assert result.state_count == modulo ** counters


def test_symbolic_int_completes_where_explicit_raises():
    """The headline claim: an integer state space only the new engine finishes.

    The 8^4 = 4096-state bank truncates the explicit explorer at
    ``max_states=400`` (its verdicts then refuse with ``BoundReached``), and
    it has no Z/3Z encoding
    (``encode_process`` raises ``EncodingError``); the finite-integer engine
    computes the exact reachable set — more than 10x beyond the explicit bound.
    """
    counters, modulo, bound = 4, 8, 400
    process = counter_bank(counters, modulo)
    explicit = explore(process, ExplorationOptions(max_states=bound))
    assert not explicit.complete
    with pytest.raises(BoundReached):
        explicit.check_invariant(ReactionPredicate.always())
    with pytest.raises(EncodingError):
        encode_process(process)  # integer data: no Z/3Z encoding exists
    result = symbolic_int_explore(process)
    assert result.complete
    assert result.state_count == modulo ** counters
    assert result.state_count >= 10 * bound


@pytest.mark.parametrize("cap", [64])
def test_bench_symbolic_int_value_invariant(benchmark, cap):
    """A value-atom invariant over a saturating accumulator: the check is one
    BDD emptiness test after constraining the bit-vector."""
    process = saturating_accumulator_process(cap)
    result = symbolic_int_explore(process)
    assert result.complete
    predicate = ReactionPredicate.absent("total") | ReactionPredicate.value(
        "total", lambda v: 0 <= v <= cap
    )
    verdict = benchmark(lambda: result.check_invariant(predicate))
    assert verdict.holds
