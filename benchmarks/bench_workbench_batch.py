"""Batch property checking through the workbench vs. a naive per-property loop.

The point of the Design facade is that k properties share one reachable set:
``design.check_all`` pays for the relation build and the BDD fixpoint (or the
explicit exploration) exactly once, then answers each property with a cheap
query, whereas the pre-workbench idiom — a loop of ``check_invariant`` calls,
each against a freshly computed engine — pays the fixpoint k times.  These
benchmarks measure both sides of that trade on scaled boolean shift registers
and assert the crossover directly.
"""

import time

import pytest

from repro.signal.library import boolean_shift_register_process
from repro.verification import ReactionPredicate, symbolic_int_explore
from repro.workbench import Design


def _invariants(depth: int, count: int) -> dict:
    """``count`` stage-propagation invariants over a depth-stage register."""
    properties = {}
    for index in range(count):
        stage = f"s{index % depth}"
        properties[f"stage-{index}"] = ReactionPredicate.present(stage).implies(
            ReactionPredicate.present("x")
        )
    return properties


@pytest.mark.parametrize("depth,k", [(8, 4), (12, 8), (14, 12)])
def test_bench_batch_check_all(benchmark, depth, k):
    """One shared fixpoint, k cheap queries (the workbench batch API)."""
    process = boolean_shift_register_process(depth)
    properties = _invariants(depth, k)

    def run():
        design = Design.from_process(process)
        return design.check_all(invariants=properties, backend="symbolic-int")

    report = benchmark(run)
    assert len(report) == k
    assert report.all_hold


@pytest.mark.parametrize("depth,k", [(8, 4), (12, 8), (14, 12)])
def test_bench_naive_per_property_loop(benchmark, depth, k):
    """The pre-workbench idiom: every property pays its own fixpoint."""
    process = boolean_shift_register_process(depth)
    properties = _invariants(depth, k)

    def run():
        return [
            symbolic_int_explore(process).check_invariant(predicate, name)
            for name, predicate in properties.items()
        ]

    verdicts = benchmark(run)
    assert len(verdicts) == k
    assert all(verdicts)


def test_batch_beats_naive_loop():
    """The headline claim: shared artifacts make the batch strictly cheaper.

    k = 8 properties on a 2^10-state design: the naive loop computes eight
    BDD fixpoints where the batch computes one, so even a noisy timer sees
    the gap.  The artifact counters also pin the sharing down exactly.
    """
    depth, k = 10, 8
    process = boolean_shift_register_process(depth)
    properties = _invariants(depth, k)

    started = time.perf_counter()
    design = Design.from_process(process)
    report = design.check_all(invariants=properties, backend="symbolic-int")
    batch_seconds = time.perf_counter() - started
    assert report.all_hold
    assert design.artifact_counts["symbolic_int_engine"] == 1
    assert design.artifact_counts["symbolic_int"] == 1

    started = time.perf_counter()
    for name, predicate in properties.items():
        assert symbolic_int_explore(process).check_invariant(predicate, name).holds
    naive_seconds = time.perf_counter() - started

    assert batch_seconds < naive_seconds, (
        f"batch check_all took {batch_seconds:.4f}s, naive loop {naive_seconds:.4f}s"
    )


def test_traces_off_by_default_keeps_batch_checking_lean():
    """Counterexample traces are opt-in: the default batch path never extracts.

    The trace machinery stores the fixpoint's frontier rings (references the
    loop computed anyway) but extraction is lazy and per-property: a default
    ``check_all`` attaches no trace to any result — failing properties
    included — and pays for exactly one fixpoint; turning ``traces=True`` on
    afterwards attaches traces to the failures *without recomputing the
    reachable set*, so default batch throughput is unchanged by this feature.
    """
    depth, k = 10, 8
    process = boolean_shift_register_process(depth)
    properties = _invariants(depth, k)
    properties["fails"] = ReactionPredicate.absent(f"s{depth - 1}")

    design = Design.from_process(process)
    report = design.check_all(invariants=properties, backend="symbolic-int")
    assert report["fails"].holds is False
    assert all(check.trace is None for check in report)
    assert design.artifact_counts["symbolic_int"] == 1

    traced = design.check_all(invariants=properties, backend="symbolic-int", traces=True)
    assert traced["fails"].trace is not None
    assert all(check.trace is None for check in traced if check.holds is True)
    assert design.artifact_counts["symbolic_int"] == 1


def test_auto_backend_serves_both_workload_shapes():
    """Auto-selection under batch load: integer data explicit, huge boolean symbolic."""
    from repro.signal.library import count_process
    from repro.verification import ExplorationOptions

    integer_design = Design.from_process(
        count_process(), exploration_options=ExplorationOptions(extra_driven=["val"])
    )
    integer_report = integer_design.check(ReactionPredicate.always())
    assert integer_report.backend_name == "explicit"

    huge_design = Design.from_process(boolean_shift_register_process(14))
    huge_report = huge_design.check_all(invariants=_invariants(14, 4))
    assert huge_report.backend_name == "symbolic-int"
    assert huge_report.state_count == 2 ** 14
