"""Cold vs. warm artifact-cache sweeps over a counter-bank template family.

The service-scale scenario the persistent cache targets: many near-identical
designs — template instantiations of a modulo-counter bank, every variant a
distinct process (distinct canonical key) — verified twice.  The *cold*
sweep builds every bit-blasted transition relation and runs every fixpoint,
persisting each reached set through a :class:`DiskArtifactStore`; the
*warm* sweep re-verifies the same family from fresh ``Design`` objects and
must answer from the store alone — rehydrating engines from their node-table
dumps instead of re-encoding, and reached sets (frontier rings included)
instead of re-iterating.  The long-diameter counters make the asymmetry
honest: a modulo-``m`` counter needs ``m - 1`` image steps cold, and zero
warm.  The sweep asserts the headline claim — the warm pass is at least
**10x** faster — and differentially validates sampled variants: a
warm-loaded reached set must return the same verdicts and literally equal
counterexample/witness traces as an uncached recomputation.
"""

import tempfile
import time

import pytest

from repro.signal.ast import compose
from repro.signal.library import modulo_counter_process
from repro.verification import ReactionPredicate
from repro.verification.symbolic_int import SymbolicOptions
from repro.workbench import Design, DiskArtifactStore

P = ReactionPredicate

#: The template grid variants cycle through: mostly single long-diameter
#: counters (fixpoint-dominated cold cost) plus a wider bank for variety.
GRID = [(1, 128), (1, 96), (1, 160), (2, 48)]


def bank_variant(index: int):
    """Variant ``index`` of the family: a renamed, distinctly-named bank."""
    counters, modulo = GRID[index % len(GRID)]
    parts = [
        modulo_counter_process(modulo, f"C{index}_{j}").renamed(
            {
                "tick": f"tick{j}",
                "n": f"n{j}",
                "carry": f"carry{j}",
                "previous": f"previous{j}",
            }
        )
        for j in range(counters)
    ]
    return compose(f"Variant{index}Bank{counters}x{modulo}", *parts)


def _design(index: int, store):
    return Design.from_process(
        bank_variant(index),
        symbolic_options=SymbolicOptions(reorder="off"),
        cache=store,
    )


def _sweep(variants: int, store):
    """Verify every variant once; returns the per-variant state counts."""
    return [_design(index, store).symbolic_int.state_count for index in range(variants)]


def _verdicts(report):
    return [(check.name, check.kind, check.holds) for check in report]


def _traces(report):
    return {
        check.name: (None if check.trace is None else check.trace.render())
        for check in report
    }


@pytest.mark.parametrize("variants", [8, 96])
def test_bench_persistent_cache_cold_vs_warm(benchmark, variants):
    """The tentpole claim: a warm sweep is >=10x faster than the cold one."""
    with tempfile.TemporaryDirectory() as root:
        store = DiskArtifactStore(root)
        started = time.perf_counter()
        cold_counts = _sweep(variants, store)
        cold_seconds = time.perf_counter() - started

        started = time.perf_counter()
        warm_counts = _sweep(variants, store)
        warm_seconds = time.perf_counter() - started

        assert warm_counts == cold_counts
        expected = [GRID[i % len(GRID)] for i in range(variants)]
        assert cold_counts == [modulo ** counters for counters, modulo in expected]
        assert cold_seconds >= 10 * warm_seconds, (
            f"warm sweep not 10x faster: cold {cold_seconds:.3f}s vs "
            f"warm {warm_seconds:.3f}s ({cold_seconds / warm_seconds:.1f}x)"
        )
        # The recorded trajectory metric is the warm (steady-state) sweep.
        benchmark(lambda: _sweep(variants, store))


@pytest.mark.parametrize("samples", [2])
def test_bench_warm_loads_answer_identically(benchmark, samples):
    """Differential validation: warm-loaded reached sets vs. recomputation.

    For sampled variants, the warm design (answering from the store) must
    return the same verdicts as an uncached design and — the managers share
    the static variable order — literally equal counterexample and witness
    traces, which exercises the persisted frontier rings.
    """
    with tempfile.TemporaryDirectory() as root:
        store = DiskArtifactStore(root)
        for index in range(samples):
            _design(index, store).symbolic_int  # populate the store

        def differential():
            outcomes = []
            for index in range(samples):
                counters, modulo = GRID[index % len(GRID)]
                invariants = [
                    ("in-range", P.absent("n0") | P.value("n0", lambda v, m=modulo: 0 <= v < m)),
                    ("never-wraps", P.absent("carry0")),  # fails: counterexample
                ]
                reachables = [("can-wrap", P.true_of("carry0"))]  # holds: witness
                warm = _design(index, store)
                uncached = _design(index, None)
                warm_report = warm.check_all(
                    invariants=invariants, reachables=reachables,
                    backend="symbolic-int", traces=True,
                )
                cold_report = uncached.check_all(
                    invariants=invariants, reachables=reachables,
                    backend="symbolic-int", traces=True,
                )
                assert warm.cache_stats["hits"] > 0
                assert uncached.cache_stats == {"hits": 0, "misses": 0}
                assert _verdicts(warm_report) == _verdicts(cold_report)
                assert warm_report.state_count == cold_report.state_count
                trace_table = _traces(cold_report)
                assert trace_table["never-wraps"] is not None
                assert trace_table["can-wrap"] is not None
                assert _traces(warm_report) == trace_table
                outcomes.append(_verdicts(warm_report))
            return outcomes

        outcomes = benchmark(differential)
        assert len(outcomes) == samples
