"""Compiled step kernels vs. the status-dict interpreter.

The headline claim of the compiled-step engine: resolving reactions through
the exec-compiled slot-array kernels is at least **10x** faster than the
reference ``_Evaluator`` interpreter on a pipeline-shaped process — the
shape explicit exploration, polynomial enumeration and long trace replays
spend their time in.  The benchmark steps the same stimulus schedule
through both engines from the same initial memory, asserts the instants
agree reaction for reaction (the differential guard in miniature), times
both loops, and asserts the throughput ratio.  The measured ratio is
recorded as the ``step_speedup`` test property (pytest's
``record_property``), which the bench-smoke conftest copies into
``BENCH_SMOKE.json`` next to the wall-clocks, together with each engine's
fixpoint passes per reaction (``passes_per_reaction``) and equation
verifications per reaction (``verify_runs_per_reaction``): both engines run
their passes in the process's static schedule, which resolves every
reaction of this pipeline in one pass, and that pass decides every
equation, so the kernels never verify them (the interpreter, the oracle,
verifies every reaction).  ``kernel_compile_seconds`` records the kernels'
build time for the first design of the pipeline's shape in the process and
for a repeat of that shape, which reuses the compiled code and only
generates the source.
"""

import time

import pytest

from repro.core.values import ABSENT, EVENT
from repro.signal.dsl import ProcessBuilder, const
from repro.simulation import CompiledProcess
from repro.simulation.codegen import _compile_shape
from repro.verification import explore

#: Reactions per timed loop — enough to swamp per-call noise, small enough
#: for the smoke harness.
REACTIONS = 3000

#: The headline engine-vs-engine floor asserted at every size.
SPEEDUP_FLOOR = 10.0


def pipeline_process(stages: int):
    """A register pipeline with an accumulator tail: the explorer workload."""
    builder = ProcessBuilder(f"StepBench{stages}")
    tick = builder.input("tick", "event")
    x = builder.input("x", "integer")
    prev = builder.local("prev", "integer")
    total = builder.output("total", "integer")
    parity = builder.output("parity", "boolean")
    stage = x
    for index in range(stages):
        register = builder.local(f"s{index}", "integer")
        builder.define(register, ((stage + const(index)) % const(97)).delayed(0))
        stage = register
    builder.define(prev, total.delayed(0))
    builder.define(total, ((prev + stage) % const(13)).when(tick).default(prev))
    builder.define(parity, (total % const(2)).eq(const(1)))
    builder.synchronize(x, tick)
    builder.synchronize(total, tick)
    return builder.build()


def schedule(reactions: int):
    """A repeating stimulus schedule mixing driven and silent instants."""
    cycle = [
        {"tick": EVENT, "x": 1},
        {"tick": EVENT, "x": 2},
        {"tick": EVENT, "x": 3},
        {"tick": ABSENT, "x": ABSENT},
    ]
    return [cycle[index % len(cycle)] for index in range(reactions)]


def count_calls(compiled, method):
    """Count the calls of the step engine's ``method`` from now on.

    Wraps the method of the engine that resolves ``compiled``'s reactions
    (its ``StepKernels`` under codegen, the ``CompiledProcess`` itself under
    interp) on this instance only; returns a one-item list holding the
    running count.
    """
    owner = compiled.kernels or compiled
    run = getattr(owner, method)
    calls = [0]

    def counted(*args):
        calls[0] += 1
        return run(*args)

    setattr(owner, method, counted)
    return calls


def count_passes(compiled):
    """Count the fixpoint passes ``compiled`` runs from now on: the
    generated ``_pass`` under codegen, :meth:`CompiledProcess._pass` under
    interp."""
    return count_calls(compiled, "_pass")


def count_verifies(compiled):
    """Count the equation verifications ``compiled`` runs from now on:
    ``StepKernels._verify`` under codegen, which runs only when the last
    pass left an equation undecided, and :meth:`CompiledProcess._verify`
    under interp, which runs on every reaction that converges."""
    return count_calls(compiled, "_verify")


def timed_replay(compiled, stimuli):
    """Run the schedule; return (elapsed_seconds, instants)."""
    state = compiled.initial_state()
    instants = []
    started = time.perf_counter()
    for stimulus in stimuli:
        state, instant = compiled.step(state, stimulus)
        instants.append(instant)
    return time.perf_counter() - started, instants


@pytest.mark.parametrize("stages", [4, 8, 16])
def test_bench_step_codegen_throughput(benchmark, record_property, stages):
    """Generated kernels beat the interpreter >=10x on step throughput."""
    process = pipeline_process(stages)
    interp = CompiledProcess(process, compile="interp")
    codegen = CompiledProcess(process, compile="codegen")
    stimuli = schedule(REACTIONS)

    # Warm both paths once (first-touch allocations, operator caches).
    timed_replay(interp, stimuli[:8])
    timed_replay(codegen, stimuli[:8])

    codegen_seconds, codegen_instants = benchmark(lambda: timed_replay(codegen, stimuli))
    interp_seconds, interp_instants = timed_replay(interp, stimuli)

    # The differential guard in miniature: both engines saw the same run.
    assert codegen_instants == interp_instants

    # Best-of-3 per engine: scheduler noise inflates single reads both ways,
    # and the minimum is the honest estimate of each engine's cost.
    for _ in range(2):
        codegen_seconds = min(codegen_seconds, timed_replay(codegen, stimuli)[0])
        interp_seconds = min(interp_seconds, timed_replay(interp, stimuli)[0])

    ratio = interp_seconds / codegen_seconds
    record_property("step_speedup", round(ratio, 3))
    passes, verifies = {}, {}
    for engine, compiled in (("interp", interp), ("codegen", codegen)):
        pass_calls, verify_calls = count_passes(compiled), count_verifies(compiled)
        timed_replay(compiled, stimuli)
        passes[engine] = round(pass_calls[0] / len(stimuli), 3)
        verifies[engine] = round(verify_calls[0] / len(stimuli), 3)
    record_property("passes_per_reaction", passes)
    record_property("verify_runs_per_reaction", verifies)
    assert verifies == {"interp": 1.0, "codegen": 0.0}
    assert ratio >= SPEEDUP_FLOOR, (
        f"codegen step throughput only {ratio:.1f}x the interpreter "
        f"at {stages} stages (floor {SPEEDUP_FLOOR}x)"
    )

    # Kernel build time, first of its shape vs a repeat of the shape.
    _compile_shape.cache_clear()
    first, repeat = (CompiledProcess(process).kernels.compile_seconds for _ in range(2))
    record_property(
        "kernel_compile_seconds", {"first_of_shape": round(first, 6), "same_shape_repeat": round(repeat, 6)}
    )
    assert repeat < first

    # The win must survive the exploration loop wrapped around it: the
    # explicit explorer over the same process is meaningfully faster too.
    # (LTS bookkeeping dilutes the raw kernel ratio, so the floor is softer.)
    explore_interp = timed_explore(process, "interp")
    explore_codegen = timed_explore(process, "codegen")
    assert explore_codegen <= explore_interp


def timed_explore(process, mode):
    compiled = CompiledProcess(process, compile=mode)
    started = time.perf_counter()
    result = explore(compiled)
    assert result.state_count > 0
    return time.perf_counter() - started
