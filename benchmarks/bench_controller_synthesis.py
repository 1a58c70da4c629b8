"""E10 ("Toward an integration platform"): controller synthesis.

Benchmarks the supervisory-control construction on explored SIGNAL processes:
the objective fails for the free system, a maximally permissive controller is
synthesised, and the closed loop satisfies the objective by construction.
"""

import pytest

from repro.signal.dsl import ProcessBuilder, const
from repro.signal.library import modulo_counter_process
from repro.verification import ExplorationOptions, ReactionPredicate, explore

#: The physical saturation of the load register: it bounds the plant, so its
#: exploration is complete and every verdict below is certified.
SATURATION = 6
OBSERVED = ["enter", "leave", "load"]


def _load_process():
    """A load counter: `enter` increments, `leave` decrements, clamped to [0, SATURATION]."""
    builder = ProcessBuilder("Load")
    enter = builder.input("enter", "event")
    leave = builder.input("leave", "event")
    load = builder.output("load", "integer")
    previous = builder.local("previous", "integer")
    candidate = builder.local("candidate", "integer")
    builder.define(previous, load.delayed(0))
    change = const(1).when(enter.clock()).default(const(-1).when(leave.clock())).default(const(0))
    builder.define(candidate, (previous + change).when((previous + change).ge(0)).default(const(0)))
    builder.define(load, candidate.when(candidate.le(SATURATION)).default(const(SATURATION)))
    builder.synchronize(load, candidate, enter.clock_union(leave))
    return builder.build()


def _plant():
    plant = explore(_load_process(), ExplorationOptions(observed=OBSERVED))
    assert plant.complete
    return plant


def _within(limit):
    return ReactionPredicate.absent("load") | ReactionPredicate.value("load", lambda value: value <= limit)


@pytest.mark.parametrize("limit", [2, 4])
def test_synthesis_enforces_the_objective(limit):
    """The free system violates the bound; the controlled system satisfies it."""
    plant = _plant()
    assert not plant.check_invariant(_within(limit)).holds
    verdict = plant.synthesise(_within(limit), ["enter"])
    assert verdict.success
    closed = verdict.backend.controller.restrict(plant)
    assert closed.check_invariant(_within(limit)).holds


def test_uncontrollable_violation_has_no_controller():
    """If the violating reaction is uncontrollable, synthesis correctly fails."""
    verdict = _plant().synthesise(_within(0), ["leave"])  # cannot refuse `enter`
    assert not verdict.success


@pytest.mark.parametrize("limit", [3])
def test_bench_exploration_plus_synthesis(benchmark, limit):
    """Cost of exploration + synthesis on the load-control example."""
    process = _load_process()

    def run():
        plant = explore(process, ExplorationOptions(observed=OBSERVED))
        return plant.synthesise(_within(limit), ["enter"])

    verdict = benchmark(run)
    assert verdict.success


def test_bench_synthesis_on_modulo_counter(benchmark):
    """Synthesis on the library modulo counter: never let the carry fire."""
    plant = explore(modulo_counter_process(5))
    verdict = benchmark(lambda: plant.synthesise(ReactionPredicate.absent("carry"), ["tick"]))
    assert verdict.success
    assert verdict.kept_states < plant.state_count
