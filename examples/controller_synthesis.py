#!/usr/bin/env python
"""Controller synthesis: turning a verification property into a wrapper.

The last section of the paper ("Toward an integration platform") proposes to
use Sigali's controller-synthesis techniques so that a control objective is
*enforced* rather than merely checked: "controller synthesis consists of using
this property as a control objective and to automatically generate a coercive
process that wraps the initial specification so as to guarantee that the
objective is an invariant".

This example wraps a small SIGNAL process (a load counter fed by requests) in
a workbench Design, shows with one batch query that the objective "the load
never saturates" does NOT hold for the free environment, and synthesises the
maximally permissive controller that inhibits requests just enough to make it
an invariant.  The property tests carried integer data, so ``backend="auto"``
routes everything to the explicit engine.

Run with:  python examples/controller_synthesis.py
"""

from repro.signal.dsl import ProcessBuilder, const
from repro.verification import ExplorationOptions, ReactionPredicate
from repro.workbench import Design


def elevator_design(capacity: int = 3, limit: int = 6) -> tuple[Design, int]:
    """A load counter: `enter` increments, `leave` decrements, clamped to [0, limit].

    ``limit`` is the physical saturation of the counter (the register width),
    ``capacity`` the smaller bound the control objective asks for — the free
    environment can drive the load anywhere up to ``limit``.
    """
    builder = ProcessBuilder("Load")
    enter = builder.input("enter", "event")
    leave = builder.input("leave", "event")
    load = builder.output("load", "integer")
    previous = builder.local("previous", "integer")
    candidate = builder.local("candidate", "integer")
    builder.define(previous, load.delayed(0))
    change = const(1).when(enter.clock()).default(const(-1).when(leave.clock())).default(const(0))
    builder.define(candidate, (previous + change).when((previous + change).ge(0)).default(const(0)))
    builder.define(load, candidate.when(candidate.le(limit)).default(const(limit)))
    builder.synchronize(load, candidate, enter.clock_union(leave))
    design = builder.design(
        exploration_options=ExplorationOptions(observed=["enter", "leave", "load"], max_states=200)
    )
    return design, capacity


def main() -> None:
    design, capacity = elevator_design()

    within_capacity = ReactionPredicate.absent("load") | ReactionPredicate.value(
        "load", lambda value: value <= capacity
    )

    report = design.check_all(
        invariants={f"load <= {capacity}": within_capacity}, traces=True
    )
    plant = design.exploration
    print(f"explored plant: {plant.state_count} states, {plant.transition_count} transitions")
    print(f"model checking the free system ({report.backend_name} backend):")
    print(report.summary())
    print()

    # The verdict is actionable because it comes with a counterexample trace:
    # the exact request sequence that drives the load past the capacity.
    trace = report[f"load <= {capacity}"].trace
    print(f"counterexample trace ({len(trace)} reactions to the violation):")
    print(trace.render())
    print()

    verdict = design.synthesise(within_capacity, controllable=["enter"])
    print(f"controller synthesis: {verdict.explain()}")

    synthesis = verdict.backend  # the explicit SynthesisResult artefact
    # The closed loop is an exploration like the plant (complete, same
    # alphabet), so checking it is one more engine call.
    closed_loop = synthesis.controller.restrict(plant)
    verdict_closed = closed_loop.check_invariant(
        within_capacity, f"load <= {capacity} (closed loop)"
    )
    print(f"model checking the controlled system: {verdict_closed.explain()}")
    print()
    print("The synthesised wrapper disables `enter` exactly in the states where")
    print("accepting another request could overflow the capacity — the objective")
    print("has become an invariant by construction.")


if __name__ == "__main__":
    main()
