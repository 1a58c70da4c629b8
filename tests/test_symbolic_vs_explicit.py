"""Differential tests: symbolic BDD reachability vs. the explicit engines.

Every process of the boolean corpus is pushed through three independent
implementations of the same state-space construction:

* the explicit explorer (``repro.verification.explorer``), which enumerates
  memory states by stepping the compiled process;
* the explicit polynomial enumerator
  (``repro.verification.encoding.PolynomialReachability``), which enumerates
  ternary valuations of the Sigali encoding;
* the symbolic BDD engine (``repro.verification.symbolic_int``), which
  computes the same set as a fixpoint of relational images over bit-blasted
  presence/value bits.

The three must agree exactly on reachable-state counts, on invariant
verdicts, on Sigali polynomial invariants, on reaction reachability, and on
controller-synthesis outcomes.  Every test that runs the explicit explorer
runs it under both step engines (:func:`over_step_engines`): the generated
kernels and the reference interpreter.
An *integer* corpus (modulo counter, saturating accumulator, bounded
producer/consumer channel) additionally cross-checks the finite-integer
engine against the explicit explorer — the only other engine that sees
concrete integer reactions — including the full projected reaction
alphabets and ``ReactionPredicate.value`` verdicts.  Any divergence is a bug
in (at least) one engine — this suite is the oracle that lets the symbolic
engine replace the explicit one on large designs.
"""

import random

import pytest

from repro.core.values import ABSENT
from repro.signal.dsl import ProcessBuilder, const
from repro.signal.library import (
    alternator_process,
    boolean_shift_register_process,
    bounded_channel_process,
    edge_detector_process,
    modulo_counter_process,
    saturating_accumulator_process,
)
from repro.signal.ast import compose
from repro.simulation import STEP_COMPILE_MODES, CompiledProcess
from repro.verification import (
    ReactionPredicate as P,
    encode_process,
    explore,
    symbolic_int_explore,
)
from repro.verification.z3z import is_false, is_true, presence


# --------------------------------------------------------------------------- corpus

def toggle_count_process():
    """A boolean abstraction of the paper's Count: restart on reset, toggle on tick."""
    builder = ProcessBuilder("CountFlag")
    reset = builder.input("reset", "event")
    tick = builder.input("tick", "event")
    val = builder.output("val", "boolean")
    prev = builder.local("prev", "boolean")
    builder.define(prev, val.delayed(False))
    builder.define(val, const(False).when(reset).default((~prev).when(tick.clock())))
    builder.synchronize(val, reset.clock_union(tick))
    return builder.build()


def boolean_observer_process():
    """The paper's flow observer, over boolean flows (encodable over Z/3Z)."""
    builder = ProcessBuilder("BoolObserver")
    left = builder.input("x_left", "boolean")
    right = builder.input("x_right", "boolean")
    ok = builder.output("ok", "boolean")
    builder.define(ok, left.eq(right))
    builder.synchronize(left, right)
    return builder.build()


def observer_composition():
    """Two alternators feeding the observer — the paper's checking diagram."""
    left = alternator_process("Left").renamed(
        {"tick": "tick_left", "flip": "x_left", "previous": "prev_left"}
    )
    right = alternator_process("Right").renamed(
        {"tick": "tick_right", "flip": "x_right", "previous": "prev_right"}
    )
    return compose("ObserverDesign", left, right, boolean_observer_process())


def desynchronised_observer_composition():
    """One alternator observed against its own delayed copy (ok can go false)."""
    left = alternator_process("Left").renamed(
        {"tick": "tick", "flip": "x_left", "previous": "prev_left"}
    )
    builder = ProcessBuilder("Delayed")
    x_left = builder.input("x_left", "boolean")
    x_right = builder.output("x_right", "boolean")
    builder.define(x_right, x_left.delayed(True))
    return compose("SkewedDesign", left, builder.build(), boolean_observer_process())


def toggle_pair_process():
    """Two alternators on independent clocks: the full 2×2 product is reachable."""
    left = alternator_process("A").renamed({"tick": "tick_a", "flip": "flip_a", "previous": "prev_a"})
    right = alternator_process("B").renamed({"tick": "tick_b", "flip": "flip_b", "previous": "prev_b"})
    return compose("TogglePair", left, right)


def random_process(seed: int):
    """A small deterministic boolean process drawn from a fixed-seed grammar.

    Every equation derives its clock from the inputs (pointwise operators,
    sampling, merging, delays), so the explicit explorer and the Z/3Z
    encoding describe the same reaction relation by construction.  Delays are
    over-weighted to keep the reachable memory spaces non-trivial.
    """
    rng = random.Random(seed)
    builder = ProcessBuilder(f"Rand{seed}")
    pool = [builder.input("i0", "boolean")]
    if rng.random() < 0.5:
        pool.append(builder.input("i1", "boolean"))
    for index in range(rng.randint(2, 4)):
        target = builder.output(f"o{index}", "boolean")
        left = rng.choice(pool)
        right = rng.choice(pool)
        kind = rng.choice(
            ["not", "and", "or", "when", "default", "delay", "delay", "delayed-merge", "delayed-not"]
        )
        if kind == "not":
            expression = ~left
        elif kind == "and":
            expression = left & right
        elif kind == "or":
            expression = left | right
        elif kind == "when":
            expression = left.when(right)
        elif kind == "default":
            expression = left.default(right)
        elif kind == "delayed-merge":
            expression = left.default(right).delayed(rng.random() < 0.5)
        elif kind == "delayed-not":
            expression = (~left).delayed(rng.random() < 0.5)
        else:
            expression = left.delayed(rng.random() < 0.5)
        builder.define(target, expression)
        pool.append(target)
    return builder.build()


RANDOM_SEEDS = list(range(20))

CORPUS = [
    ("alternator", alternator_process),
    ("edge-detector", edge_detector_process),
    ("toggle-count", toggle_count_process),
    ("observer-composition", observer_composition),
    ("skewed-observer", desynchronised_observer_composition),
    ("shift-register-3", lambda: boolean_shift_register_process(3)),
    ("shift-register-5", lambda: boolean_shift_register_process(5)),
    ("toggle-pair", toggle_pair_process),
] + [(f"random-{seed}", lambda seed=seed: random_process(seed)) for seed in RANDOM_SEEDS]


ENGINE_NAMES = ("explicit", "polynomial", "symbolic-int")


def over_step_engines(argnames, cases, ids):
    """Parametrize over ``cases`` × the step engines, as ``argnames,compile``.

    The codegen runs keep the bare case ids; the interpreter runs append
    ``-interp``.
    """
    return pytest.mark.parametrize(
        f"{argnames},compile",
        [(*case, mode) for mode in ("codegen", "interp") for case in cases],
        ids=[*ids, *(f"{case_id}-interp" for case_id in ids)],
    )


over_corpus = pytest.mark.parametrize("label,factory", CORPUS, ids=[label for label, _ in CORPUS])
over_corpus_and_engines = over_step_engines("label,factory", CORPUS, [label for label, _ in CORPUS])


def engines_for(process, compile="codegen"):
    """The three backends under differential test."""
    return (
        explore(CompiledProcess(process, compile=compile)),
        encode_process(process).explore(),
        symbolic_int_explore(process),
    )


def interface_signals(process):
    return [decl.name for decl in process.inputs] + [decl.name for decl in process.outputs]


def predicates_for(process):
    """A deterministic battery of properties over the process interface."""
    names = interface_signals(process)
    predicates = []
    for name in names:
        predicates.append(P.present(name))
        predicates.append(P.true_of(name))
        predicates.append(P.false_of(name))
    for left, right in zip(names, names[1:]):
        predicates.append(P.present(left).implies(P.present(right)))
        predicates.append(P.true_of(left) | P.false_of(right))
    predicates.append(P.always())
    predicates.append(P.never())
    return predicates


# --------------------------------------------------------------------------- tests

class TestDifferential:
    @over_corpus_and_engines
    def test_reachable_state_counts_agree(self, label, factory, compile):
        process = factory()
        explicit, polynomial, symbolic = engines_for(process, compile)
        assert explicit.complete and polynomial.complete and symbolic.complete
        assert symbolic.state_count == explicit.state_count == polynomial.state_count

    @over_corpus_and_engines
    def test_invariant_verdicts_agree(self, label, factory, compile):
        process = factory()
        engines = dict(zip(ENGINE_NAMES, engines_for(process, compile)))
        for predicate in predicates_for(process):
            verdicts = {
                name: engine.check_invariant(predicate).holds for name, engine in engines.items()
            }
            assert len(set(verdicts.values())) == 1, f"{predicate!r}: {verdicts}"

    @over_corpus_and_engines
    def test_reachability_verdicts_agree(self, label, factory, compile):
        process = factory()
        engines = dict(zip(ENGINE_NAMES, engines_for(process, compile)))
        for predicate in predicates_for(process):
            verdicts = {
                name: engine.check_reachable(predicate).holds for name, engine in engines.items()
            }
            assert len(set(verdicts.values())) == 1, f"{predicate!r}: {verdicts}"

    @over_corpus
    def test_reaction_alphabets_agree(self, label, factory):
        """The *full* decoded reaction sets must coincide, not just verdicts."""
        process = factory()
        polynomial_alphabet = {
            frozenset(reaction.items())
            for reaction in encode_process(process).explore().reactions()
        }
        symbolic = symbolic_int_explore(process)
        symbolic_alphabet = {
            frozenset(reaction.items())
            for reaction in symbolic.engine.reactions_of(symbolic.states)
        }
        assert symbolic_alphabet == polynomial_alphabet

    @over_corpus
    def test_polynomial_invariant_verdicts_agree(self, label, factory):
        """Sigali objectives lowered onto the shared bits match the Z/3Z
        enumeration of the encoding itself."""
        process = factory()
        system = encode_process(process)
        symbolic = symbolic_int_explore(process)
        names = interface_signals(process)
        objectives = [presence(name) for name in names]
        objectives += [is_true(name) for name in names] + [is_false(name) for name in names]
        objectives += [presence(left) - presence(right) for left, right in zip(names, names[1:])]
        objectives += [is_true(left) * is_false(right) for left, right in zip(names, names[1:])]
        for objective in objectives:
            expected = system.check_invariant(objective)
            assert symbolic.check_polynomial_invariant(objective).holds == expected, repr(objective)


class TestDifferentialSynthesis:
    @over_step_engines("controllable", [(["tick"],), ([],)], ["controllable-tick", "uncontrollable"])
    def test_synthesis_verdicts_agree_on_alternator(self, controllable, compile):
        process = alternator_process()
        explicit, _, symbolic = engines_for(process, compile)
        safe = ~P.false_of("flip")
        explicit_verdict = explicit.synthesise(safe, controllable)
        verdict = symbolic.synthesise(safe, controllable)
        assert explicit_verdict.success == verdict.success
        assert explicit_verdict.kept_states == verdict.kept_states

    def test_synthesis_verdicts_agree_on_skewed_observer(self):
        process = desynchronised_observer_composition()
        safe = ~P.false_of("ok")
        for mode in STEP_COMPILE_MODES:
            explicit, _, symbolic = engines_for(process, mode)
            for controllable in (["tick"], []):
                explicit_verdict = explicit.synthesise(safe, controllable)
                verdict = symbolic.synthesise(safe, controllable)
                assert explicit_verdict.success == verdict.success, (mode, controllable)
                assert explicit_verdict.kept_states == verdict.kept_states, (mode, controllable)

    def test_observer_invariant_ag_ok(self):
        """The paper's check: AG ok on the lock-step design, refuted on the skewed one."""
        ok = P.present("ok").implies(P.true_of("ok"))
        for mode in STEP_COMPILE_MODES:
            for engine in engines_for(observer_composition(), mode):
                assert engine.check_invariant(ok).holds, mode
            verdicts = [
                engine.check_invariant(ok).holds
                for engine in engines_for(desynchronised_observer_composition(), mode)
            ]
            assert verdicts == [False, False, False], mode


# --------------------------------------------------------------------------- integer corpus

INTEGER_CORPUS = [
    ("modulo-counter-5", lambda: modulo_counter_process(5), "n", range(-1, 7)),
    ("saturating-accumulator-6", lambda: saturating_accumulator_process(6), "total", range(-1, 9)),
    ("bounded-channel-4", lambda: bounded_channel_process(4), "level", range(-2, 7)),
]


def integer_engines_for(process, compile="codegen"):
    """Explicit explorer vs the finite-integer engine — the two backends that
    see concrete integer reactions."""
    return explore(CompiledProcess(process, compile=compile)), symbolic_int_explore(process)


INTEGER_IDS = [case[0] for case in INTEGER_CORPUS]
over_integer_corpus_and_engines = over_step_engines(
    "label,factory,payload,values", INTEGER_CORPUS, INTEGER_IDS
)


def integer_predicates_for(process, payload, values):
    """Presence battery plus value atoms over the integer payload signal."""
    predicates = predicates_for(process)
    for k in values:
        predicates.append(P.value(payload, lambda v, k=k: v == k))
        predicates.append(P.absent(payload) | P.value(payload, lambda v, k=k: v <= k))
    return predicates


@over_integer_corpus_and_engines
class TestIntegerDifferential:
    def test_state_counts_agree(self, label, factory, payload, values, compile):
        explicit, symbolic_int = integer_engines_for(factory(), compile)
        assert explicit.complete and symbolic_int.complete
        assert explicit.state_count == symbolic_int.state_count

    def test_invariant_verdicts_agree(self, label, factory, payload, values, compile):
        process = factory()
        explicit, symbolic_int = integer_engines_for(process, compile)
        for predicate in integer_predicates_for(process, payload, values):
            expected = explicit.check_invariant(predicate).holds
            assert symbolic_int.check_invariant(predicate).holds == expected, repr(predicate)

    def test_reachability_verdicts_and_witnesses_agree(self, label, factory, payload, values, compile):
        process = factory()
        explicit, symbolic_int = integer_engines_for(process, compile)
        for predicate in integer_predicates_for(process, payload, values):
            expected = explicit.check_reachable(predicate)
            verdict = symbolic_int.check_reachable(predicate)
            assert verdict.holds == expected.holds, repr(predicate)
            if verdict.holds:
                # The engine's witness must be a genuinely admissible reaction
                # satisfying the predicate, not just a "yes".
                witness = next(
                    reaction
                    for reaction in symbolic_int.engine.reactions_of(
                        symbolic_int.engine.manager.conj(
                            symbolic_int.states,
                            symbolic_int.engine.predicate_bdd(predicate),
                        )
                    )
                )
                assert predicate.evaluate(witness), (repr(predicate), witness)

    def test_projected_reaction_alphabets_agree(self, label, factory, payload, values, compile):
        """Every reachable reaction, projected on the interface, coincides."""
        process = factory()
        explicit, symbolic_int = integer_engines_for(process, compile)
        interface = set(process.input_names) | set(process.output_names)
        symbolic_alphabet = {
            frozenset(
                (name, value)
                for name, value in reaction.items()
                if name in interface and value is not ABSENT
            )
            for reaction in symbolic_int.engine.reactions_of(symbolic_int.states)
        }
        assert symbolic_alphabet == explicit.lts.alphabet()
