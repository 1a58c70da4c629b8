"""Differential tests: generated step kernels vs. the reference interpreter.

The compiled-step engine (:mod:`repro.simulation.codegen`) exec-compiles
every expanded process into straight-line kernels over a slot-indexed
status array.  It must reproduce the interpreter's partial-knowledge
fixpoint *exactly* — same instants, same successor memories, and the same
exception types **with the same messages** on contradictory or unresolvable
scenarios.  This suite is the oracle for that claim: it replays both
corpora of ``test_symbolic_vs_explicit`` step by step under both
``compile=`` modes over the full explorer stimulus alphabet, comparing
every reachable reaction, plus a bespoke operator zoo (cell, clock
algebra, intrinsics, deep delays, inclusion constraints, integer operators
on booleans, events and a zero modulus) that the boolean corpus does not
cover.  The explorer's successor path gets its own oracle: whole
explorations under both modes must build the same LTS.  The ``compile=``
plumbing — the codegen default, kernels built on first use and reported by
a ``Design`` wrapping the compiled process, statistics surfacing — is
pinned here too.
"""

import itertools
from collections import Counter

import pytest

from test_symbolic_vs_explicit import CORPUS, INTEGER_CORPUS

from repro.core.values import ABSENT, EVENT
from repro.signal.ast import BinaryOp
from repro.signal.dsl import ProcessBuilder, call, const
from repro.signal.library import (
    alternator_process,
    boolean_shift_register_process,
    modulo_counter_process,
)
from repro.signal.operators import EvaluationError
from repro.simulation import (
    STEP_COMPILE_MODES,
    CompiledProcess,
    PRESENT,
    SimulationError,
    UnresolvedError,
)
from repro.verification.explorer import ExplorationOptions, _stimulus_domain, explore, explore_product
from repro.verification.reachability import ReactionPredicate
from repro.workbench import Design


# --------------------------------------------------------------------------- lockstep driver

def _outcome(compiled, state, stimulus):
    """One reaction's observable behaviour: the result or the exact error.

    Besides the reaction errors, operator failures count: an
    ``EvaluationError`` must surface identically.
    """
    try:
        new_state, instant = compiled.step(state, stimulus)
    except (SimulationError, EvaluationError) as error:
        return ("error", type(error).__name__, str(error))
    return ("ok", new_state, instant)


def lockstep_compare(process, integers=(0, 1), max_states=400):
    """BFS both engines over the full stimulus alphabet from shared memories.

    Every reachable memory state is expanded under *every* stimulus
    combination — admissible reactions must agree on ``(new_state,
    instant)``, inadmissible ones on the exception type and message.
    Returns the number of reactions compared (sanity: must be > 0).
    """
    interp = CompiledProcess(process, compile="interp")
    codegen = CompiledProcess(process, compile="codegen")
    assert interp.kernels is None
    assert codegen.kernels is not None
    assert interp.initial_state() == codegen.initial_state()

    driven = list(interp.input_names)
    domains = [_stimulus_domain(interp, name, integers) for name in driven]
    stimuli = [dict(zip(driven, combo)) for combo in itertools.product(*domains)]
    if not stimuli:
        stimuli = [{}]

    seen = set()
    frontier = [interp.initial_state()]
    compared = 0
    while frontier and len(seen) < max_states:
        state = frontier.pop(0)
        key = tuple(sorted(state.items()))
        if key in seen:
            continue
        seen.add(key)
        for stimulus in stimuli:
            reference = _outcome(interp, state, stimulus)
            generated = _outcome(codegen, state, stimulus)
            assert reference == generated, (
                f"{process.name}: engines diverge on {stimulus!r} from {state!r}\n"
                f"  interp:  {reference!r}\n  codegen: {generated!r}"
            )
            compared += 1
            if reference[0] == "ok":
                frontier.append(reference[1])
    assert compared > 0
    return compared


# --------------------------------------------------------------------------- corpus replay

@pytest.mark.parametrize("label,factory", CORPUS, ids=[label for label, _ in CORPUS])
def test_boolean_corpus_lockstep(label, factory):
    """Every boolean-corpus process reacts identically under both engines."""
    lockstep_compare(factory())


@pytest.mark.parametrize(
    "label,factory,payload,values",
    INTEGER_CORPUS,
    ids=[entry[0] for entry in INTEGER_CORPUS],
)
def test_integer_corpus_lockstep(label, factory, payload, values):
    """The integer corpus agrees too — concrete arithmetic, not just clocks."""
    lockstep_compare(factory(), integers=(0, 1, 2))


# --------------------------------------------------------------------------- operator zoo

def cell_process():
    builder = ProcessBuilder("CellZoo")
    x = builder.input("x", "integer")
    gate = builder.input("gate", "boolean")
    held = builder.output("held", "integer")
    builder.define(held, x.cell(gate, 0))
    return builder.build()


def clock_algebra_process():
    builder = ProcessBuilder("ClockZoo")
    x = builder.input("x", "event")
    y = builder.input("y", "event")
    builder.define(builder.output("both", "event"), x.clock_product(y))
    builder.define(builder.output("either", "event"), x.clock_union(y))
    builder.define(builder.output("onlyx", "event"), x.clock_difference(y))
    return builder.build()


def intrinsic_process():
    builder = ProcessBuilder("IntrinsicZoo")
    x = builder.input("x", "integer")
    builder.define(builder.output("bits", "integer"), call("popcount", x))
    builder.define(builder.output("low", "integer"), call("min", x, const(3)) + (-x))
    return builder.build()


def deep_delay_process():
    builder = ProcessBuilder("DeepDelay")
    x = builder.input("x", "boolean")
    y = builder.output("y", "boolean")
    builder.define(y, x.delayed(False, depth=2))
    builder.synchronize(x, y)
    return builder.build()


def inclusion_constraint_process(kind):
    builder = ProcessBuilder(f"Inclusion{'Lt' if kind == '<' else 'Gt'}")
    x = builder.input("x", "event")
    y = builder.input("y", "event")
    builder.constrain(x, y, kind=kind)
    builder.define(builder.output("z", "event"), x.clock_union(y))
    return builder.build()


def constant_sampling_process():
    builder = ProcessBuilder("ConstSampling")
    t = builder.input("t", "boolean")
    y = builder.output("y", "integer")
    builder.define(y, const(7).when(t).default(const(2).when(~t)))
    return builder.build()


def boolean_arithmetic_process():
    """Integer operators fed booleans: computed through ``_as_int``."""
    builder = ProcessBuilder("BoolArith")
    b = builder.input("b", "boolean")
    c = builder.input("c", "boolean")
    builder.define(builder.output("total", "integer"), b + c)
    builder.define(builder.output("rest", "integer"), BinaryOp("mod", b, const(2)))
    builder.define(builder.output("below", "boolean"), BinaryOp("<", b, c))
    builder.synchronize(b, c)
    return builder.build()


def event_arithmetic_process():
    """An event operand of ``+``: an EvaluationError in both engines."""
    builder = ProcessBuilder("EventArith")
    e = builder.input("e", "event")
    builder.define(builder.output("y", "integer"), e + const(1))
    return builder.build()


def zero_modulus_process():
    """``mod`` by a zero constant: the same EvaluationError in both engines."""
    builder = ProcessBuilder("ZeroModulus")
    x = builder.input("x", "integer")
    builder.define(builder.output("y", "integer"), BinaryOp("mod", x, const(0)))
    return builder.build()


ZOO = [
    ("cell", cell_process),
    ("clock-algebra", clock_algebra_process),
    ("intrinsics", intrinsic_process),
    ("deep-delay", deep_delay_process),
    ("inclusion-lt", lambda: inclusion_constraint_process("<")),
    ("inclusion-gt", lambda: inclusion_constraint_process(">")),
    ("constant-sampling", constant_sampling_process),
    ("boolean-arithmetic", boolean_arithmetic_process),
    ("event-arithmetic", event_arithmetic_process),
    ("zero-modulus", zero_modulus_process),
]


@pytest.mark.parametrize("label,factory", ZOO, ids=[label for label, _ in ZOO])
def test_operator_zoo_lockstep(label, factory):
    """Operators the boolean corpus misses: cell, clock algebra, intrinsics,
    multi-depth delay, inclusion constraints, constant sampling, and the
    fallback of the inlined integer operators."""
    lockstep_compare(factory(), integers=(0, 1, 5))


@pytest.mark.parametrize("mode", STEP_COMPILE_MODES)
def test_integer_operators_convert_booleans(mode):
    """``True + True`` is 2 and ``True mod 2`` is 1, as ``_as_int`` computes."""
    compiled = CompiledProcess(boolean_arithmetic_process(), compile=mode)
    _, instant = compiled.step(compiled.initial_state(), {"b": True, "c": True})
    assert (instant["total"], instant["rest"], instant["below"]) == (2, 1, False)
    assert type(instant["total"]) is int


@pytest.mark.parametrize(
    "factory,stimulus,error,message",
    [
        (event_arithmetic_process, {"e": EVENT}, EvaluationError, "expected an integer value"),
        (zero_modulus_process, {"x": 3}, EvaluationError, "modulo by zero"),
    ],
    ids=["event-operand", "zero-modulus"],
)
def test_operator_failures_identical(factory, stimulus, error, message):
    """Failing operators raise the same exception type and text in both modes."""
    outcomes = []
    for mode in STEP_COMPILE_MODES:
        compiled = CompiledProcess(factory(), compile=mode)
        with pytest.raises(error, match=message) as excinfo:
            compiled.step(compiled.initial_state(), stimulus)
        outcomes.append((type(excinfo.value), str(excinfo.value)))
    assert outcomes[0] == outcomes[1]


# --------------------------------------------------------------------------- explorer differential

def _typed(label):
    """A label with each value's type: 1 and True must not compare equal."""
    return frozenset((name, type(value), value) for name, value in label)


def _exploration_record(result):
    """What two explorations must agree on, transition by transition."""
    lts = result.lts
    payloads = [lts.payload(state) for state in lts.states]
    transitions = Counter(
        (lts.payload(t.source), _typed(t.label), lts.payload(t.target)) for t in lts.transitions()
    )
    return {
        "states": set(payloads),
        "transitions": transitions,
        "rejected": result.rejected_stimuli,
        "memories": result.memories,
        "complete": result.complete,
    }


def explorer_compare(explore_with):
    """Run one exploration under both step engines and require the same LTS."""
    records = {mode: _exploration_record(explore_with(mode)) for mode in STEP_COMPILE_MODES}
    assert records["interp"] == records["codegen"]
    assert records["codegen"]["transitions"]
    return records["codegen"]


#: The zoo entries whose every present stimulus fails get their own test.
FAILING_ZOO = ("event-arithmetic", "zero-modulus")

EXPLORER_CASES = (
    [(label, factory, (0, 1)) for label, factory in CORPUS]
    + [(entry[0], entry[1], (0, 1, 2)) for entry in INTEGER_CORPUS]
    + [(label, factory, (0, 1, 5)) for label, factory in ZOO if label not in FAILING_ZOO]
)


@pytest.mark.parametrize(
    "label,factory,integers", EXPLORER_CASES, ids=[case[0] for case in EXPLORER_CASES]
)
def test_explorer_engines_agree(label, factory, integers):
    """``explore()`` reaches the same payloads, transitions, rejections and
    memories whether reactions run on the interpreter or the kernels."""
    options = ExplorationOptions(integer_domain=integers, max_states=400)
    explorer_compare(
        lambda mode: explore(CompiledProcess(factory(), compile=mode), options)
    )


def test_explorer_engines_agree_on_failing_operators():
    """Stimuli whose operators fail abort the exploration identically."""
    for factory in (event_arithmetic_process, zero_modulus_process):
        outcomes = []
        for mode in STEP_COMPILE_MODES:
            with pytest.raises(EvaluationError) as excinfo:
                explore(CompiledProcess(factory(), compile=mode))
            outcomes.append((type(excinfo.value), str(excinfo.value)))
        assert outcomes[0] == outcomes[1]


def test_product_explorer_engines_agree():
    """``explore_product`` agrees too, shared signals included."""
    record = explorer_compare(
        lambda mode: explore_product(
            CompiledProcess(modulo_counter_process(3), compile=mode),
            CompiledProcess(modulo_counter_process(4), compile=mode),
        )
    )
    assert len(record["states"]) == 12


# --------------------------------------------------------------------------- error parity

@pytest.mark.parametrize("mode", STEP_COMPILE_MODES)
def test_unresolved_value_message_parity(mode):
    """A present-but-valueless input raises the same UnresolvedError text."""
    builder = ProcessBuilder("Unresolved")
    x = builder.input("x", "integer")
    builder.define(builder.output("y", "integer"), x + const(1))
    compiled = CompiledProcess(builder.build(), compile=mode)
    with pytest.raises(UnresolvedError) as excinfo:
        compiled.step(compiled.initial_state(), {"x": PRESENT})
    assert "could not be resolved" in str(excinfo.value)


def test_contradiction_messages_identical():
    """Contradictory scenarios raise byte-identical messages in both modes."""
    process = alternator_process()
    engines = {
        mode: CompiledProcess(process, compile=mode) for mode in STEP_COMPILE_MODES
    }
    scenarios = [
        {"tick": ABSENT, "flip": True},      # output forced without its clock
        {"tick": EVENT, "flip": False},      # value contradicting the toggle
        {"bogus": EVENT},                    # unknown driven signal
    ]
    state = engines["interp"].initial_state()
    for stimulus in scenarios:
        outcomes = {
            mode: _outcome(engine, dict(state), stimulus)
            for mode, engine in engines.items()
        }
        assert outcomes["interp"] == outcomes["codegen"]


# --------------------------------------------------------------------------- max_passes semantics

def chained_process():
    """Definitions listed against dataflow order: needs several passes."""
    builder = ProcessBuilder("SlowChain")
    x = builder.input("x", "integer")
    a = builder.local("a", "integer")
    b = builder.local("b", "integer")
    out = builder.output("out", "integer")
    builder.define(out, b + const(0))
    builder.define(b, a + const(1))
    builder.define(a, x + const(1))
    return builder.build()


@pytest.mark.parametrize("mode", STEP_COMPILE_MODES)
@pytest.mark.parametrize("bad", [0, -1, -7])
def test_max_passes_must_be_positive(mode, bad):
    """``max_passes=0`` used to be silently clamped to 2; now it is an error."""
    compiled = CompiledProcess(alternator_process(), compile=mode)
    with pytest.raises(ValueError, match="max_passes must be a positive pass count"):
        compiled.step(compiled.initial_state(), {"tick": EVENT}, max_passes=bad)


@pytest.mark.parametrize("mode", STEP_COMPILE_MODES)
def test_non_convergence_is_flagged(mode):
    """An exhausted pass budget raises UnresolvedError instead of returning
    a half-resolved reaction as if it had converged."""
    compiled = CompiledProcess(chained_process(), compile=mode)
    state = compiled.initial_state()
    with pytest.raises(UnresolvedError, match="did not converge within 1 fixpoint passes"):
        compiled.step(state, {"x": 1}, max_passes=1)
    # A sufficient budget resolves the same scenario.
    _, instant = compiled.step(state, {"x": 1}, max_passes=4)
    assert instant["out"] == 3


def test_non_convergence_message_parity():
    interp = CompiledProcess(chained_process(), compile="interp")
    codegen = CompiledProcess(chained_process(), compile="codegen")
    state = interp.initial_state()
    assert _outcome(interp, state, {"x": 5}) == _outcome(codegen, state, {"x": 5})
    outcomes = [
        _outcome(engine, dict(state), {"x": 5})
        for engine in (interp, codegen)
    ]
    # Force the pass budget down on both and compare the failures verbatim.
    failures = []
    for engine in (interp, codegen):
        with pytest.raises(UnresolvedError) as excinfo:
            engine.step(dict(state), {"x": 5}, max_passes=1)
        failures.append(str(excinfo.value))
    assert failures[0] == failures[1]
    assert outcomes[0] == outcomes[1]


# --------------------------------------------------------------------------- compile= plumbing

def test_mode_validation():
    assert CompiledProcess(alternator_process()).step_compile == "codegen"
    with pytest.raises(ValueError, match="step compile mode must be one of"):
        CompiledProcess(alternator_process(), compile="bogus")


def test_step_engine_info():
    codegen = CompiledProcess(alternator_process(), compile="codegen")
    info = codegen.step_engine_info()
    assert info["step_compile"] == "codegen"
    assert info["kernels"] >= 1
    assert info["kernel_compile_seconds"] >= 0.0
    interp = CompiledProcess(alternator_process(), compile="interp")
    assert interp.step_engine_info() == {"step_compile": "interp"}


def test_explorer_statistics_surface_engine():
    stats = explore(CompiledProcess(alternator_process(), compile="codegen")).statistics()
    assert stats["step_compile"] == "codegen"
    assert stats["kernels"] >= 1
    stats = explore(CompiledProcess(alternator_process(), compile="interp")).statistics()
    assert stats["step_compile"] == "interp"
    assert "kernels" not in stats


def test_design_rides_the_knob():
    """A design wrapping a compiled process runs on its engine; the kernels
    are generated when the design first reacts (explores or simulates), not
    at ``compiled``, and the interpreter builds none."""
    design = Design(CompiledProcess(modulo_counter_process(3), compile="codegen"))
    assert design.compiled.step_compile == "codegen"
    assert "step_kernels" not in design.artifact_counts
    design.exploration
    assert design.artifact_counts["step_kernels"] >= 1
    assert design.artifact_seconds["step_kernels"] >= 0.0
    simulated = Design(CompiledProcess(modulo_counter_process(3), compile="codegen"))
    simulated.simulate([{"tick": EVENT}])
    assert simulated.artifact_counts["step_kernels"] >= 1
    interp_design = Design(CompiledProcess(modulo_counter_process(3), compile="interp"))
    assert interp_design.compiled.step_compile == "interp"
    interp_design.exploration
    assert "step_kernels" not in interp_design.artifact_counts


def test_design_from_compiled_process_reports_kernels():
    """Wrapping a compiled process reports its kernels like building one does."""
    from_definition = Design(modulo_counter_process(3), cache=None)
    from_definition.exploration
    from_compiled = Design(CompiledProcess(modulo_counter_process(3)), cache=None)
    from_compiled.exploration
    assert from_definition.artifact_counts["step_kernels"] == 6
    assert from_compiled.artifact_counts["step_kernels"] == 6


def test_design_reports_kernels_built_before_it():
    """Kernels a reaction built before the design wrapped them still count."""
    compiled = CompiledProcess(modulo_counter_process(3))
    explore(compiled)
    design = Design(compiled, cache=None)
    assert design.artifact_counts["step_kernels"] == compiled.kernels.kernel_count


def test_symbolic_route_builds_no_kernels():
    """A design routed to the BDD engine never generates step kernels."""
    design = Design(boolean_shift_register_process(12), cache=None)
    tail = ReactionPredicate.present("s11").implies(ReactionPredicate.present("x"))
    report = design.check_all({"tail-needs-input": tail}, traces=True)
    assert report.backend_name == "symbolic-int"
    assert "step_kernels" not in design.artifact_counts


def test_explore_builds_and_reports_kernels():
    """The explorer builds the kernels it needs and its statistics show them."""
    built = []
    compiled = CompiledProcess(alternator_process(), compile="codegen")
    compiled.watch_kernels(built.append)
    assert built == []
    stats = explore(compiled).statistics()
    assert len(built) == 1
    assert stats["kernels"] == built[0].kernel_count >= 1
    explore(compiled)
    assert len(built) == 1


def test_engines_agree_through_design():
    """End-to-end: explorations driven by either engine reach the same LTS."""
    results = {
        mode: explore(CompiledProcess(alternator_process(), compile=mode))
        for mode in STEP_COMPILE_MODES
    }
    interp, codegen = results["interp"], results["codegen"]
    assert interp.state_count == codegen.state_count
    assert interp.transition_count == codegen.transition_count
    assert interp.lts.alphabet() == codegen.lts.alphabet()
