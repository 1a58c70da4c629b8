"""A library of standard SIGNAL processes.

Contains the processes used by the paper (the ``Count`` example of Section 2)
plus the usual small synchronous components the GALS layer and the EPC case
study are built from: memories (``current``), one-place buffers, synchronisers,
alternators, edge detectors and bounded counters.

Every function returns a fresh :class:`~repro.signal.ast.ProcessDefinition`
(optionally renamed), so callers can instantiate several copies.
"""

from __future__ import annotations

from typing import Optional

from .ast import ProcessDefinition
from .dsl import ProcessBuilder, const, sig, synchro


def count_process(name: str = "Count") -> ProcessDefinition:
    """The ``Count`` process of Section 2 of the paper.

    It accepts an input event ``reset`` and delivers the integer output
    ``val``; a local ``counter`` stores the previous value of ``val``; when
    ``reset`` occurs ``val`` restarts from 0, otherwise it increments.  The
    clock of ``val`` is free (a superset of the clock of ``reset``): the
    process is multi-clocked, as the paper points out.
    """
    builder = ProcessBuilder(name)
    reset = builder.input("reset", "event")
    val = builder.output("val", "integer")
    counter = builder.local("counter", "integer")
    builder.define(counter, val.delayed(0))
    builder.define(val, const(0).when(reset).default(counter + 1))
    return builder.build()


def current_process(init: int = 0, name: str = "Current") -> ProcessDefinition:
    """``current`` (a.k.a. ``cell``): hold the last value of ``x`` at clock ``c``.

    Output ``y`` is present whenever ``x`` or the event ``c`` is present and
    carries the freshest value of ``x`` (``init`` before the first one).
    """
    builder = ProcessBuilder(name)
    x = builder.input("x", "integer")
    c = builder.input("c", "event")
    y = builder.output("y", "integer")
    builder.define(y, x.cell(c, init))
    return builder.build()


def alternator_process(name: str = "Alternator") -> ProcessDefinition:
    """A boolean signal alternating true/false at the clock of input ``tick``."""
    builder = ProcessBuilder(name)
    tick = builder.input("tick", "event")
    flip = builder.output("flip", "boolean")
    previous = builder.local("previous", "boolean")
    builder.define(previous, flip.delayed(False))
    builder.define(flip, (~previous).when(tick.clock()))
    builder.synchronize(flip, tick)
    return builder.build()


def modulo_counter_process(modulo: int, name: str = "ModCounter") -> ProcessDefinition:
    """A counter modulo ``modulo`` incremented at every occurrence of ``tick``.

    Outputs the counter value ``n`` and an event ``carry`` raised when the
    counter wraps around.
    """
    if modulo < 1:
        raise ValueError("modulo must be at least 1")
    builder = ProcessBuilder(name)
    tick = builder.input("tick", "event")
    n = builder.output("n", "integer")
    carry = builder.output("carry", "event")
    previous = builder.local("previous", "integer")
    builder.define(previous, n.delayed(modulo - 1))
    builder.define(n, ((previous + 1) % const(modulo)).when(tick.clock()))
    builder.define(carry, tick.clock().when(n.eq(0)))
    builder.synchronize(n, tick)
    return builder.build()


def edge_detector_process(name: str = "Edge") -> ProcessDefinition:
    """Detect rising edges of a boolean input ``level``.

    The output event ``rise`` is present exactly when ``level`` is true and
    its previous value was false.
    """
    builder = ProcessBuilder(name)
    level = builder.input("level", "boolean")
    rise = builder.output("rise", "event")
    previous = builder.local("previous", "boolean")
    builder.define(previous, level.delayed(False))
    builder.define(rise, level.clock().when(level & ~previous))
    return builder.build()


def sample_and_hold_process(init: int = 0, name: str = "SampleHold") -> ProcessDefinition:
    """Sample ``x`` when the event ``sample`` occurs, hold it otherwise.

    The output ``y`` is synchronous with ``read`` and carries the latest
    sampled value (``init`` before the first sample).
    """
    builder = ProcessBuilder(name)
    x = builder.input("x", "integer")
    sample = builder.input("sample", "event")
    read = builder.input("read", "event")
    y = builder.output("y", "integer")
    held = builder.local("held", "integer")
    builder.define(held, x.when(sample).cell(read, init))
    builder.define(y, held.when(read.clock()))
    builder.synchronize(y, read)
    return builder.build()


def one_place_buffer_process(init: int = 0, name: str = "Buffer1") -> ProcessDefinition:
    """A one-place buffer: writes on ``push``, reads on ``pop``.

    This is the buffer placed between the two processes and the observer in
    the paper's flow-equivalence checking diagram: the value written by the
    producer at its own clock is delivered to the consumer at the consumer's
    clock.  ``full`` reports, at every ``pop``, whether a fresh value had been
    pushed since the previous pop.
    """
    builder = ProcessBuilder(name)
    push = builder.input("push", "integer")
    pop = builder.input("pop", "event")
    value = builder.output("value", "integer")
    full = builder.output("full", "boolean")
    stored = builder.local("stored", "integer")
    fresh = builder.local("fresh", "boolean")
    previous_fresh = builder.local("previous_fresh", "boolean")
    builder.define(stored, push.cell(pop, init))
    builder.define(value, stored.when(pop.clock()))
    builder.define(previous_fresh, fresh.delayed(False))
    builder.define(
        fresh,
        const(True).when(push.clock()).default(const(False).when(pop.clock())).default(previous_fresh),
    )
    builder.synchronize(fresh, push.clock_union(pop))
    builder.define(full, previous_fresh.default(const(False)).when(pop.clock()))
    builder.synchronize(value, pop)
    builder.synchronize(full, pop)
    return builder.build()


def synchronizer_process(name: str = "Synchronizer") -> ProcessDefinition:
    """Emit an event when both input events have occurred since the last emission.

    A classical resynchronisation cell used when recombining desynchronised
    components of a GALS architecture.
    """
    builder = ProcessBuilder(name)
    a = builder.input("a", "event")
    b = builder.input("b", "event")
    both = builder.output("both", "event")
    seen_a = builder.local("seen_a", "boolean")
    seen_b = builder.local("seen_b", "boolean")
    previous_a = builder.local("previous_a", "boolean")
    previous_b = builder.local("previous_b", "boolean")
    any_clock = a.clock_union(b)
    builder.define(previous_a, seen_a.delayed(False))
    builder.define(previous_b, seen_b.delayed(False))
    pending_a = const(True).when(a.clock()).default(previous_a.when(any_clock))
    pending_b = const(True).when(b.clock()).default(previous_b.when(any_clock))
    fire = builder.local("fire", "boolean")
    builder.define(fire, pending_a & pending_b)
    builder.define(both, any_clock.when(fire))
    builder.define(seen_a, const(False).when(fire).default(pending_a))
    builder.define(seen_b, const(False).when(fire).default(pending_b))
    return builder.build()


def merge_process(name: str = "Merge") -> ProcessDefinition:
    """Deterministic merge of two integer flows (priority to the first)."""
    builder = ProcessBuilder(name)
    a = builder.input("a", "integer")
    b = builder.input("b", "integer")
    y = builder.output("y", "integer")
    builder.define(y, a.default(b))
    return builder.build()


def switch_process(name: str = "Switch") -> ProcessDefinition:
    """Route input ``x`` to ``t`` when ``c`` is true and to ``f`` when false."""
    builder = ProcessBuilder(name)
    x = builder.input("x", "integer")
    c = builder.input("c", "boolean")
    t = builder.output("t", "integer")
    f = builder.output("f", "integer")
    builder.define(t, x.when(c))
    builder.define(f, x.when(~c))
    builder.synchronize(x, c)
    return builder.build()


def accumulator_process(init: int = 0, name: str = "Accumulator") -> ProcessDefinition:
    """Running sum of the input flow ``x`` (restarted by the event ``clear``)."""
    builder = ProcessBuilder(name)
    x = builder.input("x", "integer")
    clear = builder.input("clear", "event")
    total = builder.output("total", "integer")
    previous = builder.local("previous", "integer")
    builder.define(previous, total.delayed(init))
    builder.define(total, const(init).when(clear).default(previous + x))
    builder.synchronize(total, x.clock_union(clear))
    return builder.build()


def saturating_accumulator_process(cap: int, name: str = "SatAccumulator") -> ProcessDefinition:
    """Running sum of ``x`` that saturates at ``cap`` (restarted by ``clear``).

    Unlike :func:`accumulator_process`, the total is *bounded by construction*
    — the sampling conditions ``sum >= cap`` / ``sum < cap`` clamp it — which
    is exactly the idiom the finite-integer range inference recognises: no
    ``bounds`` declaration is needed for the symbolic engine to bit-blast it.
    """
    if cap < 1:
        raise ValueError("cap must be at least 1")
    builder = ProcessBuilder(name)
    x = builder.input("x", "integer")
    clear = builder.input("clear", "event")
    total = builder.output("total", "integer")
    previous = builder.local("previous", "integer")
    summed = builder.local("summed", "integer")
    builder.define(previous, total.delayed(0))
    builder.define(summed, previous + x)
    clamped = const(cap).when(summed.ge(cap)).default(summed.when(summed.lt(cap)))
    builder.define(total, const(0).when(clear).default(clamped))
    builder.synchronize(total, x.clock_union(clear))
    return builder.build()


def bounded_channel_process(capacity: int, name: str = "BoundedChannel") -> ProcessDefinition:
    """A producer/consumer fill level bounded to ``[0, capacity]``.

    ``push`` raises the level, ``pop`` lowers it, both saturate at the
    channel's ends, and a simultaneous push and pop holds the level.  The
    level's clock is the union of both events, so the process is fully
    driven by its inputs — the configuration the differential engines agree
    on by construction.
    """
    if capacity < 1:
        raise ValueError("capacity must be at least 1")
    builder = ProcessBuilder(name)
    push = builder.input("push", "event")
    pop = builder.input("pop", "event")
    level = builder.output("level", "integer")
    previous = builder.local("previous", "integer")
    builder.define(previous, level.delayed(0))
    held = previous.when(push.clock().clock_product(pop.clock()))
    raised = (previous + 1).when(previous.lt(capacity)).when(push.clock())
    lowered = (previous - 1).when(previous.gt(0)).when(pop.clock())
    builder.define(level, held.default(raised).default(lowered).default(previous))
    builder.synchronize(level, push.clock_union(pop))
    return builder.build()


def watchdog_process(limit: int, name: str = "Watchdog") -> ProcessDefinition:
    """Raise ``alarm`` when ``limit`` ticks elapse without a ``kick``."""
    if limit < 1:
        raise ValueError("limit must be at least 1")
    builder = ProcessBuilder(name)
    tick = builder.input("tick", "event")
    kick = builder.input("kick", "event")
    alarm = builder.output("alarm", "event")
    elapsed = builder.local("elapsed", "integer")
    previous = builder.local("previous", "integer")
    builder.define(previous, elapsed.delayed(0))
    builder.define(
        elapsed,
        const(0).when(kick).default((previous + 1).when(tick.clock())),
    )
    builder.synchronize(elapsed, tick.clock_union(kick))
    builder.define(alarm, tick.clock().when(elapsed.ge(limit)))
    return builder.build()


def shift_register_process(depth: int, init: int = 0, name: str = "ShiftRegister") -> ProcessDefinition:
    """A ``depth``-deep shift register over the input flow ``x``."""
    if depth < 1:
        raise ValueError("depth must be at least 1")
    builder = ProcessBuilder(name)
    x = builder.input("x", "integer")
    y = builder.output("y", "integer")
    stages = [x]
    for index in range(depth):
        stage = builder.local(f"stage{index}", "integer")
        builder.define(stage, stages[-1].delayed(init))
        stages.append(stage)
    builder.define(y, stages[-1])
    return builder.build()


def boolean_shift_register_process(depth: int, name: Optional[str] = None) -> ProcessDefinition:
    """A boolean shift register with every stage ``s0 … s{depth-1}`` observable.

    Exactly 2^depth memory states are reachable, all within ``depth`` steps,
    which makes this the canonical design for comparing explicit and symbolic
    reachability (differential tests and the symbolic benchmarks).
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    builder = ProcessBuilder(name or f"Shift{depth}")
    stage = builder.input("x", "boolean")
    for index in range(depth):
        target = builder.output(f"s{index}", "boolean")
        builder.define(target, stage.delayed(False))
        stage = target
    return builder.build()


#: Mapping of library process names to their constructors, for discovery.
STANDARD_PROCESSES = {
    "Count": count_process,
    "Current": current_process,
    "Alternator": alternator_process,
    "Edge": edge_detector_process,
    "SampleHold": sample_and_hold_process,
    "Buffer1": one_place_buffer_process,
    "Synchronizer": synchronizer_process,
    "Merge": merge_process,
    "Switch": switch_process,
    "Accumulator": accumulator_process,
}
