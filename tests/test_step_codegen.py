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

from test_bench_smoke import BENCH_DIR, _load
from test_symbolic_vs_explicit import CORPUS, INTEGER_CORPUS

from repro.core.values import ABSENT, EVENT
from repro.signal.ast import BinaryOp, compose
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
from repro.simulation.codegen import SHAPE_CACHE_SIZE, _compile_shape
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


# --------------------------------------------------------------------------- the pass schedule

#: The step benchmark: its pipeline design and its pass counter.
BENCH = _load(BENCH_DIR / "bench_step_codegen.py")


def chained_process():
    """Definitions listed against dataflow order: the schedule reorders them."""
    builder = ProcessBuilder("SlowChain")
    x = builder.input("x", "integer")
    a = builder.local("a", "integer")
    b = builder.local("b", "integer")
    out = builder.output("out", "integer")
    builder.define(out, b + const(0))
    builder.define(b, a + const(1))
    builder.define(a, x + const(1))
    return builder.build()


def cyclic_process():
    """An instantaneous cycle ``a -> b -> a``, which the schedule leaves to
    iteration.

    Cycle members run last, in name order, so ``a`` reads ``b`` before
    ``b`` takes the value of ``x``; the second pass computes ``a``.
    """
    builder = ProcessBuilder("Loop")
    x = builder.input("x", "integer")
    a = builder.local("a", "integer")
    b = builder.output("b", "integer")
    builder.define(a, b + const(1))
    builder.define(b, x.default(a))
    return builder.build()


def counter_bank_process(moduli=(3, 4)):
    """Renamed modulo counters composed side by side, as perfbench builds them."""
    return compose(
        "Bank",
        *(
            modulo_counter_process(modulo, f"C{index}").renamed(
                {
                    "tick": f"tick{index}",
                    "n": f"n{index}",
                    "carry": f"carry{index}",
                    "previous": f"previous{index}",
                }
            )
            for index, modulo in enumerate(moduli)
        ),
    )


def register_process(depth=4, order=None):
    """A boolean shift register, its equations in ``order`` (default: in order)."""
    builder = ProcessBuilder("Register")
    x = builder.input("x", "boolean")
    stages = [builder.output(f"s{index}", "boolean") for index in range(depth)]
    for index in order or range(depth):
        builder.define(stages[index], (x if index == 0 else stages[index - 1]).delayed(False))
    return builder.build()


def calls_per_reaction(compiled, max_states=200):
    """Fixpoint passes and equation verifications per reaction over every
    reachable state and stimulus, the rejected stimuli included."""
    driven = list(compiled.input_names)
    domains = [_stimulus_domain(compiled, name, (0, 1)) for name in driven]
    stimuli = [dict(zip(driven, combo)) for combo in itertools.product(*domains)]
    react = compiled.successor(stimuli)
    passes, verifies = BENCH.count_passes(compiled), BENCH.count_verifies(compiled)
    initial = tuple(compiled.initial_state()[key] for key in compiled.state_keys)
    seen, frontier, reactions = {initial}, [initial], 0
    while frontier and len(seen) < max_states:
        state = frontier.pop()
        for index in range(len(stimuli)):
            reactions += 1
            try:
                successor, _values = react(state, index)
            except SimulationError:
                continue
            if successor not in seen:
                seen.add(successor)
                frontier.append(successor)
    assert reactions >= len(stimuli)
    return passes[0] / reactions, verifies[0] / reactions


@pytest.mark.parametrize("mode", STEP_COMPILE_MODES)
@pytest.mark.parametrize(
    "build",
    [
        counter_bank_process,
        register_process,
        lambda: register_process(5, order=(3, 0, 4, 2, 1)),
        lambda: BENCH.pipeline_process(4),
        chained_process,
    ],
    ids=["counter-bank", "register", "shuffled-register", "pipeline", "chained"],
)
def test_one_pass_per_reaction(mode, build):
    """Constraints first, then the equations in dependency order: one pass
    resolves every reaction, and the resolved exit skips the confirming pass.
    That pass decides every equation, so the kernels never verify them; the
    interpreter verifies every reaction that converges."""
    compiled = CompiledProcess(build(), compile=mode)
    passes, verifies = calls_per_reaction(compiled)
    assert passes == 1.0
    if mode == "codegen":
        assert verifies == 0.0
        assert "_verify_equations" not in compiled.kernels.source
    else:
        assert verifies > 0.0


def test_pass_order_follows_value_then_presence_reads():
    """A delay follows its operand unless a value read forces the opposite;
    the memory keeps the declared order."""
    compiled = CompiledProcess(register_process(4, order=(3, 1, 0, 2)))
    assert [d.target for d in compiled.definitions] == ["s3", "s1", "s0", "s2"]
    assert [d.target for d in compiled.pass_order] == ["s0", "s1", "s2", "s3"]
    assert compiled.state_keys == ("delay0", "delay1", "delay2", "delay3")
    counter = CompiledProcess(modulo_counter_process(3))
    # previous := n$ reads n's presence, n reads previous's value: the value
    # read wins, and the clock equality n ^= tick supplies n's presence.
    assert [d.target for d in counter.pass_order] == ["previous", "n", "carry"]


@pytest.mark.parametrize("mode", STEP_COMPILE_MODES)
@pytest.mark.parametrize("bad", [0, -1, -7])
def test_max_passes_must_be_positive(mode, bad):
    """``max_passes=0`` used to be silently clamped to 2; now it is an error."""
    compiled = CompiledProcess(alternator_process(), compile=mode)
    with pytest.raises(ValueError, match="max_passes must be a positive pass count"):
        compiled.step(compiled.initial_state(), {"tick": EVENT}, max_passes=bad)


@pytest.mark.parametrize("mode", STEP_COMPILE_MODES)
def test_one_pass_suffices_when_it_resolves(mode):
    """``max_passes=1`` succeeds on a reaction one scheduled pass resolves,
    even with the equations declared against dataflow order."""
    compiled = CompiledProcess(chained_process(), compile=mode)
    _, instant = compiled.step(compiled.initial_state(), {"x": 1}, max_passes=1)
    assert instant["out"] == 3


@pytest.mark.parametrize("mode", STEP_COMPILE_MODES)
def test_non_convergence_is_flagged(mode):
    """An instantaneous cycle still iterates, and an exhausted pass budget
    raises UnresolvedError instead of returning a half-resolved reaction as
    if it had converged."""
    compiled = CompiledProcess(cyclic_process(), compile=mode)
    state = compiled.initial_state()
    calls = BENCH.count_passes(compiled)
    with pytest.raises(UnresolvedError, match="did not converge within 1 fixpoint passes"):
        compiled.step(state, {"x": 1}, max_passes=1)
    assert calls[0] == 1
    # A sufficient budget resolves the same scenario, in two passes.
    _, instant = compiled.step(state, {"x": 1}, max_passes=2)
    assert (instant["a"], instant["b"]) == (2, 1)
    assert calls[0] == 3


def test_non_convergence_message_parity():
    interp = CompiledProcess(cyclic_process(), compile="interp")
    codegen = CompiledProcess(cyclic_process(), compile="codegen")
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


def test_conflict_resolved_in_one_pass_is_rejected():
    """A stimulus one pass resolves into a conflict is still rejected: no
    confirming pass runs, so ``_verify`` raises it, with the same exception
    and message under both engines.  Here ``a := b + 1`` runs before ``b``
    is known, so the pass never refines the driven ``a = 5``."""
    outcomes = []
    for mode in STEP_COMPILE_MODES:
        compiled = CompiledProcess(cyclic_process(), compile=mode)
        calls = BENCH.count_passes(compiled)
        outcomes.append(_outcome(compiled, compiled.initial_state(), {"x": 1, "a": 5}))
        assert calls[0] == 1
    assert outcomes[0] == outcomes[1]
    assert outcomes[0] == ("error", "ConsistencyError", "Loop: 'a' = 5 contradicts computed 2")


@pytest.mark.parametrize("mode", STEP_COMPILE_MODES)
def test_cyclic_design_verifies_its_equations(mode):
    """In an instantaneous cycle ``a`` reads ``b`` under an operator before
    the pass computes ``b``: the pass cannot decide ``a``, so every
    reaction that converges verifies the equations."""
    compiled = CompiledProcess(cyclic_process(), compile=mode)
    _passes, verifies = calls_per_reaction(compiled)
    assert verifies >= 1.0


def relay_process(synchronous=False):
    """``a := b`` in a cycle with ``b := x default a``: ``a`` runs first and
    reads ``b`` unknown, or present without a value once ``a ^= b`` forces
    ``b``'s clock.  No operator sits between them, so only the result's
    kind leaves ``a`` undecided."""
    builder = ProcessBuilder("Relay")
    x = builder.input("x", "integer")
    a = builder.local("a", "integer")
    b = builder.output("b", "integer")
    builder.define(a, b)
    builder.define(b, x.default(a))
    if synchronous:
        builder.synchronize(a, b)
    return builder.build()


def constant_process():
    """``y := 7``: a constant provides a value, never a clock."""
    builder = ProcessBuilder("Seven")
    builder.define(builder.output("y", "integer"), const(7))
    return builder.build()


def late_operand_process():
    """``a := x default (x mod b)`` in a cycle with ``b := a - a``: ``a`` runs
    first and ``x`` decides it, but re-evaluating it once ``b`` is 0
    computes ``x mod 0``."""
    builder = ProcessBuilder("LateOperand")
    x = builder.input("x", "integer")
    a = builder.output("a", "integer")
    b = builder.local("b", "integer")
    builder.define(a, x.default(BinaryOp("mod", x, b)))
    builder.define(b, a - a)
    return builder.build()


def late_delay_process():
    """``a := x default ((w $ 1) mod z)`` with ``z := x - x`` and
    ``w := a + 0``: ``a`` runs before ``w``, so its delay is unknown and
    ``x`` decides it; once ``w`` is present the delay is too, and
    re-evaluating ``a`` computes ``0 mod 0``.  The delay's value is memory,
    but its clock is ``w``'s, read later in the schedule."""
    builder = ProcessBuilder("LateDelay")
    x = builder.input("x", "integer")
    a = builder.output("a", "integer")
    z = builder.local("z", "integer")
    w = builder.local("w", "integer")
    builder.define(a, x.default(BinaryOp("mod", w.delayed(0), z)))
    builder.define(z, x - x)
    builder.define(w, a + const(0))
    return builder.build()


def normalised_event_process():
    """``y := x default (e + 1)`` with ``e ^= x``: an undriven ``e`` is forced
    present without a value, and the pass makes it an event only at its
    end, after ``x`` decided ``y``; re-evaluating ``e + 1`` then fails."""
    builder = ProcessBuilder("LateEvent")
    x = builder.input("x", "integer")
    e = builder.input("e", "event")
    builder.define(builder.output("y", "integer"), x.default(e + const(1)))
    builder.synchronize(x, e)
    return builder.build()


#: One reaction per way a pass leaves an equation undecided, every signal
#: resolved at its end, and what the equation verifier makes of it.
UNDECIDED = [
    ("unknown-kind", relay_process, {"x": 1, "a": 5},
     ("error", "ConsistencyError", "Relay: 'a' = 5 contradicts computed 1")),
    ("present-without-value", lambda: relay_process(synchronous=True), {"x": 1, "a": 5},
     ("error", "ConsistencyError", "Relay: 'a' = 5 contradicts computed 1")),
    ("constant-into-valued-target", constant_process, {"y": 3},
     ("error", "ConsistencyError", "Seven: 'y' = 3 contradicts constant 7")),
    ("constant-into-absent-target", constant_process, {"y": ABSENT},
     ("ok", {}, {"y": ABSENT})),
    ("operand-defined-later", late_operand_process, {"x": 3},
     ("error", "EvaluationError", "modulo by zero")),
    ("delay-operand-defined-later", late_delay_process, {"x": 3},
     ("error", "EvaluationError", "modulo by zero")),
    ("event-normalised-at-pass-end", normalised_event_process, {"x": 3},
     ("error", "EvaluationError", "expected an integer value, got EVENT")),
]


@pytest.mark.parametrize(
    "factory,stimulus,expected", [case[1:] for case in UNDECIDED], ids=[case[0] for case in UNDECIDED]
)
def test_undecided_pass_runs_the_verifier(factory, stimulus, expected):
    """One pass resolves every signal but leaves an equation undecided, so
    the kernels verify the equations as the interpreter does: the same
    outcome, error and message under both engines."""
    outcomes = []
    for mode in STEP_COMPILE_MODES:
        compiled = CompiledProcess(factory(), compile=mode)
        passes, verifies = BENCH.count_passes(compiled), BENCH.count_verifies(compiled)
        outcomes.append(_outcome(compiled, compiled.initial_state(), stimulus))
        assert (passes[0], verifies[0]) == (1, 1)
    assert outcomes[0] == outcomes[1] == expected


def test_verifier_is_compiled_on_first_need():
    """Decided reactions never build the equation verifier; the first
    undecided one generates it, once, and adds its source and compile time."""
    compiled = CompiledProcess(constant_process())
    kernels = compiled.kernels
    before = (kernels.source, kernels.compile_seconds)
    assert "def _verify_equations" not in before[0]
    _, instant = compiled.step(compiled.initial_state(), {"y": PRESENT})
    assert instant == {"y": 7}
    assert kernels.source == before[0]
    compiled.step(compiled.initial_state(), {"y": ABSENT})
    assert "def _verify_equations" in kernels.source
    assert kernels.source.startswith(before[0])
    assert kernels.compile_seconds >= before[1]
    built = kernels.source
    compiled.step(compiled.initial_state(), {"y": ABSENT})
    assert kernels.source == built


# --------------------------------------------------------------------------- one compile per shape

def test_designs_of_one_shape_share_their_code():
    """Counters modulo 5 and 7 differ only in constants and their name:
    one code object serves both, and each still behaves as itself."""
    five, seven = (
        CompiledProcess(modulo_counter_process(modulo, f"Mod{modulo}")) for modulo in (5, 7)
    )
    assert five.kernels._pass.__code__ is seven.kernels._pass.__code__
    assert five.kernels._finish.__code__ is seven.kernels._finish.__code__
    assert five.kernels.source != seven.kernels.source
    assert [explore(design).state_count for design in (five, seven)] == [5, 7]
    for modulo in (5, 7):
        lockstep_compare(modulo_counter_process(modulo, f"Mod{modulo}"))


def test_shared_code_reports_each_designs_own_violation():
    """Messages are bound per design: a conflict in the second design of a
    shape names that design, not the first one."""
    for modulo in (5, 7):
        compiled = CompiledProcess(modulo_counter_process(modulo, f"Mod{modulo}"))
        outcome = _outcome(compiled, compiled.initial_state(), {"tick": EVENT, "n": 3})
        assert outcome == ("error", "ConsistencyError", f"Mod{modulo}: conflicting values for 'n': 3 vs 0")


def _constant_design(name, value):
    builder = ProcessBuilder(name)
    builder.define(builder.output("y", "integer"), const(value))
    return CompiledProcess(builder.build())


def test_lazily_compiled_verifier_shares_its_code():
    """The equation verifier, compiled on first need, is one shape too; its
    messages still name the design and its constant."""
    first, second = _constant_design("Seven", 7), _constant_design("Nine", 9)
    first.step(first.initial_state(), {"y": ABSENT})
    assert second.kernels._verify_equations is None
    hits = _compile_shape.cache_info().hits
    second.step(second.initial_state(), {"y": ABSENT})
    assert _compile_shape.cache_info().hits == hits + 1
    assert first.kernels._verify_equations.__code__ is second.kernels._verify_equations.__code__
    assert _outcome(second, second.initial_state(), {"y": 3}) == (
        "error", "ConsistencyError", "Nine: 'y' = 3 contradicts constant 9"
    )


def test_shape_cache_stays_within_its_bound():
    """More distinct shapes than the bound evict the oldest ones."""
    for depth in range(1, SHAPE_CACHE_SIZE + 2):
        CompiledProcess(register_process(depth)).kernels
    info = _compile_shape.cache_info()
    assert info.maxsize == SHAPE_CACHE_SIZE
    assert info.currsize == SHAPE_CACHE_SIZE


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


def test_kernel_statistics_match_the_kernels_after_verifying():
    """The compile time a design and an exploration report is the kernels'
    whole compile time, also once reactions of a cycle verified equations."""
    design = Design(cyclic_process(), cache=None)
    stats = design.exploration.statistics()
    kernels = design.compiled.kernels
    assert calls_per_reaction(design.compiled)[1] >= 1.0
    assert design.artifact_seconds["step_kernels"] == kernels.compile_seconds
    assert stats["kernel_compile_seconds"] == round(kernels.compile_seconds, 6)


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
