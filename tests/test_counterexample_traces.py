"""Differential trace tests: every engine's counterexamples replay in the simulator.

Every Reachability backend now extracts *traces* — initial-state-to-violation
sequences of (reaction, successor-state) steps
(:class:`repro.verification.reachability.Trace`) — instead of just a single
violating reaction.  A trace is only worth anything if it is executable, so
this suite replays every trace any engine returns, step by step, through the
reaction simulator (the operational semantics is the oracle): each recorded
reaction must be exactly what the compiled process performs under the
recorded input stimuli, and the final reaction — performed from the state the
trace leads to, i.e. a state whose reaction alphabet contains it — must
satisfy the traced predicate.  The corpora are the boolean + integer corpora
of ``tests/test_symbolic_vs_explicit.py`` (library processes, observer
compositions, fixed-seed random processes), so the three engines are
cross-checked on the same designs whose verdicts they already agree on.

The soundness contract is tested alongside: a truncated (``complete ==
False``) analysis refuses the "no trace exists" answer with ``BoundReached``
exactly as it refuses "holds"/"unreachable" verdicts, while a trace to a
violation already in hand still extracts under truncation.  Every test that
runs the explicit explorer runs it, and the replay, under both step engines:
the generated kernels and the reference interpreter.
"""

import os
import subprocess
import sys

import pytest

from test_symbolic_vs_explicit import (
    engines_for,
    integer_engines_for,
    integer_predicates_for,
    over_corpus_and_engines,
    over_integer_corpus_and_engines,
    predicates_for,
)

from repro.clocks.bdd import BDDManager
from repro.core.values import ABSENT, EVENT
from repro.signal.ast import compose
from repro.signal.library import (
    alternator_process,
    boolean_shift_register_process,
    modulo_counter_process,
)
from repro.simulation import STEP_COMPILE_MODES, CompiledProcess
from repro.verification import (
    BoundReached,
    ExplorationOptions,
    ReactionPredicate as P,
    SymbolicOptions,
    Trace,
    encode_process,
    explore,
    symbolic_int_explore,
)
from repro.verification.relational import PartitionedRelation
from repro.verification.symbolic_int import IntSymbolicEngine

ENGINE_NAMES = ("explicit", "polynomial", "symbolic-int")

#: Engines that decode reactions through the Z/3Z ternary abstraction, where
#: an event carries the truth value True rather than the EVENT marker.
ABSTRACT_ENGINES = {"polynomial"}


def _normalise(value, abstract: bool):
    if abstract and value is EVENT:
        return True
    return value


def replay_trace(process, trace: Trace, predicate, abstract: bool, compile="codegen") -> None:
    """Drive the simulator along the trace's reactions and cross-check each step.

    The stimulus of each step is the trace reaction projected on the process
    inputs (the same universe the explicit explorer drives); the resulting
    instant must agree with the recorded reaction on every signal the trace
    mentions, and the final instant must satisfy the traced predicate — the
    trace genuinely ends in a state whose reaction alphabet contains the
    violating/witnessing reaction.
    """
    compiled = CompiledProcess(process, compile=compile)
    memory = compiled.initial_state()
    instant = None
    for step in trace:
        stimulus = {}
        for name in compiled.input_names:
            value = step.reaction.get(name, ABSENT)
            if value is not ABSENT and compiled.signal_types.get(name) == "event":
                value = EVENT
            stimulus[name] = value
        memory, instant = compiled.step(memory, stimulus)
        for name, expected in step.reaction.items():
            actual = instant.get(name, ABSENT)
            assert _normalise(actual, abstract) == _normalise(expected, abstract), (
                f"trace step diverges from the simulator on {name!r}: "
                f"replayed {actual!r}, trace recorded {expected!r}"
            )
    assert instant is not None
    assert predicate.evaluate(instant), (
        f"the trace's final reaction {instant!r} does not satisfy the traced predicate"
    )


# --------------------------------------------------------------------------- boolean corpus

@over_corpus_and_engines
def test_boolean_corpus_traces_replay(label, factory, compile):
    """All three engines: every extracted trace replays; unreachable → no trace."""
    process = factory()
    engines = dict(zip(ENGINE_NAMES, engines_for(process, compile)))
    predicates = predicates_for(process)
    expected = [engines["explicit"].check_reachable(p).holds for p in predicates]
    for name, engine in engines.items():
        abstract = name in ABSTRACT_ENGINES
        for predicate, reachable in zip(predicates, expected):
            trace = engine.trace_to(predicate)
            if reachable:
                assert trace is not None and len(trace) >= 1, (name, repr(predicate))
                replay_trace(process, trace, predicate, abstract, compile)
            else:
                assert trace is None, (name, repr(predicate))


def test_explicit_traces_are_shortest():
    """BFS parent pointers: the deep-stage trace has exactly depth+1 steps."""
    depth = 5
    process = boolean_shift_register_process(depth)
    predicate = P.true_of(f"s{depth - 1}")
    for mode in STEP_COMPILE_MODES:
        explicit = explore(CompiledProcess(process, compile=mode))
        assert len(explicit.trace_to(predicate)) == depth + 1, mode
    # The symbolic ring walk starts from the earliest ring admitting the
    # reaction; ``rings[k]`` holds exactly the states first reached after k
    # images, so this equality is contractual, not a coincidence — the
    # corpus-wide pins below assert it over every engine and property.
    assert len(symbolic_int_explore(process).trace_to(predicate)) == depth + 1


# --------------------------------------------------------------------------- shortest-ness
#
# The contract (ROADMAP trace-minimisation follow-on): symbolic traces are as
# short as the explicit engine's BFS paths.  The explicit trace length is the
# BFS distance + 1 by construction (parent pointers of a breadth-first
# exploration), and the symbolic ring index is the same distance because the
# fixpoint's ring k is exactly the set of states first discovered after k
# images.  These pins run the ring-indexed check over the full boolean and
# integer corpora, for every reachable predicate of the differential battery.

@over_corpus_and_engines
def test_boolean_corpus_trace_lengths_match_explicit_bfs(label, factory, compile):
    """Symbolic ring-walk traces are exactly as short as explicit BFS traces."""
    process = factory()
    engines = dict(zip(ENGINE_NAMES, engines_for(process, compile)))
    for predicate in predicates_for(process):
        explicit_trace = engines["explicit"].trace_to(predicate)
        if explicit_trace is None:
            continue
        trace = engines["symbolic-int"].trace_to(predicate)
        assert trace is not None, repr(predicate)
        assert len(trace) == len(explicit_trace), (
            f"symbolic-int trace has {len(trace)} steps, explicit BFS distance "
            f"is {len(explicit_trace) - 1} for {predicate!r}"
        )


@over_integer_corpus_and_engines
def test_integer_corpus_trace_lengths_match_explicit_bfs(label, factory, payload, values, compile):
    """The finite-integer ring walk matches explicit BFS distances on data too."""
    process = factory()
    explicit, symbolic_int = integer_engines_for(process, compile)
    for predicate in integer_predicates_for(process, payload, values):
        explicit_trace = explicit.trace_to(predicate)
        if explicit_trace is None:
            continue
        trace = symbolic_int.trace_to(predicate)
        assert trace is not None, repr(predicate)
        assert len(trace) == len(explicit_trace), (
            f"symbolic-int trace has {len(trace)} steps, explicit BFS distance "
            f"is {len(explicit_trace) - 1} for {predicate!r}"
        )


def test_trace_steps_carry_successor_states():
    """Explicit steps carry concrete memories; the other engines decoded valuations."""
    process = boolean_shift_register_process(3)
    for mode in STEP_COMPILE_MODES:
        explicit_trace = explore(CompiledProcess(process, compile=mode)).trace_to(P.true_of("s2"))
        for step in explicit_trace:
            assert isinstance(step.state, dict) and step.state, mode
    symbolic_trace = symbolic_int_explore(process).trace_to(P.true_of("s2"))
    for step in symbolic_trace:
        assert isinstance(step.state, dict) and step.state
        assert all(isinstance(value, bool) for value in step.state.values())
    polynomial_trace = encode_process(process).explore().trace_to(P.true_of("s2"))
    for step in polynomial_trace:
        assert isinstance(step.state, dict) and step.state
        assert all(code in (0, 1, 2) for code in step.state.values())


#: A counter-bank trace printed by a fresh interpreter: its reactions' keys
#: in the order the trace holds them.
_TRACE_KEYS_SCRIPT = """
from repro.signal.ast import compose
from repro.signal.library import modulo_counter_process
from repro.verification import ReactionPredicate as P, explore
bank = compose("Bank", *(
    modulo_counter_process(modulo, f"C{index}").renamed(
        {"tick": f"tick{index}", "n": f"n{index}", "carry": f"carry{index}",
         "previous": f"previous{index}"})
    for index, modulo in enumerate((2, 3))))
trace = explore(bank).trace_to(P.present("carry0") & P.present("carry1"))
print([list(step.reaction) for step in trace])
"""


def test_explicit_trace_reactions_follow_the_observed_order():
    """Explicit trace reactions are keyed in ``observed`` order, not in the
    hash order of their frozenset labels, so a trace prints the same under
    every string hash seed."""
    process = compose(
        "Bank",
        *(
            modulo_counter_process(modulo, f"C{index}").renamed(
                {"tick": f"tick{index}", "n": f"n{index}", "carry": f"carry{index}",
                 "previous": f"previous{index}"}
            )
            for index, modulo in enumerate((2, 3))
        ),
    )
    for mode in STEP_COMPILE_MODES:
        result = explore(CompiledProcess(process, compile=mode))
        trace = result.trace_to(P.present("carry0") & P.present("carry1"))
        assert len(trace) >= 1 and len(trace[-1].reaction) >= 4
        for step in trace:
            assert list(step.reaction) == [name for name in result.observed if name in step.reaction]
    printed = set()
    for seed in ("0", "1", "2"):
        completed = subprocess.run(
            [sys.executable, "-c", _TRACE_KEYS_SCRIPT],
            env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": os.pathsep.join(sys.path)},
            capture_output=True, text=True, check=True,
        )
        printed.add(completed.stdout)
    assert len(printed) == 1


# --------------------------------------------------------------------------- integer corpus

@over_integer_corpus_and_engines
def test_integer_corpus_traces_replay(label, factory, payload, values, compile):
    """Explicit and finite-integer engines replay on concrete integer data."""
    process = factory()
    explicit, symbolic_int = integer_engines_for(process, compile)
    predicates = integer_predicates_for(process, payload, values)
    expected = [explicit.check_reachable(p).holds for p in predicates]
    for name, engine in (("explicit", explicit), ("symbolic-int", symbolic_int)):
        for predicate, reachable in zip(predicates, expected):
            trace = engine.trace_to(predicate)
            if reachable:
                assert trace is not None and len(trace) >= 1, (name, repr(predicate))
                replay_trace(process, trace, predicate, abstract=False, compile=compile)
            else:
                assert trace is None, (name, repr(predicate))


def test_integer_trace_reaches_deep_counter_value():
    """A value atom needing several ticks produces a multi-step replayable trace."""
    process = modulo_counter_process(5)
    deep = P.value("n", lambda v: v == 3)
    for mode in STEP_COMPILE_MODES:
        for engine in integer_engines_for(process, mode):
            trace = engine.trace_to(deep)
            assert trace is not None and len(trace) >= 4, mode
            replay_trace(process, trace, deep, abstract=False, compile=mode)


def counter_bank(moduli):
    """Independent modulo counters side by side: ``prod(moduli)`` states."""
    return compose(
        "Bank",
        *(
            modulo_counter_process(modulo, f"C{index}").renamed(
                {"tick": f"tick{index}", "n": f"n{index}", "carry": f"carry{index}",
                 "previous": f"previous{index}"}
            )
            for index, modulo in enumerate(moduli)
        ),
    )


def test_counter_bank_traces_create_few_nodes():
    """Ring-walk traces on a 7^5-state bank create no node past the condition.

    Every step of a symbolic trace reads models of 35 state bits (and the
    signal bits) out of a ring and the relation.  Cubes, relational products
    and model reads cost 300-450 nodes per trace here; the node-free model
    search creates none, so only the predicate's condition BDD (built before
    the walk) may cost a node.
    """
    process = counter_bank((7, 7, 7, 7, 7))
    result = symbolic_int_explore(process)
    manager = result.engine.manager
    both_carries = P.present("carry0") & P.present("carry1")
    top_value = P.value("n0", lambda v: v == 6)
    for predicate, length in ((both_carries, 1), (top_value, 7)):
        before = manager.statistics()["nodes_created"]
        result.engine.predicate_bdd(predicate)
        condition = manager.statistics()["nodes_created"]
        trace = result.trace_to(predicate)
        assert trace is not None and len(trace) == length, repr(predicate)
        assert condition - before <= 1, (repr(predicate), condition - before)
        assert manager.statistics()["nodes_created"] == condition, repr(predicate)
        replay_trace(process, trace, predicate, abstract=False)


def test_register_trace_steps_back_create_no_nodes(monkeypatch):
    """A depth-16 register's 17-step trace builds nothing, however many
    clusters the relation is kept as: each step back is one model search
    over the previous ring and the clusters as they are."""
    process = boolean_shift_register_process(16)
    result = symbolic_int_explore(process)
    engine = result.engine
    manager = engine.manager
    deepest = P.true_of("s15")
    engine.predicate_bdd(deepest)
    # A three-cluster relation with the same conjunction: two projections
    # of the one cluster, then the cluster itself.
    (cluster,) = engine.relation.clusters
    parts = [
        manager.exists(cluster, engine.signal_bits[:8]),
        manager.exists(cluster, engine.primed_bits[8:]),
        cluster,
    ]
    single = engine.relation
    for relation in (single, PartitionedRelation(manager, parts, cluster_size=0)):
        engine.relation = relation
        with monkeypatch.context() as patched:
            for owner, name in (
                (PartitionedRelation, "product"),
                (BDDManager, "exists"),
                (BDDManager, "satisfying_assignments"),
            ):
                patched.setattr(owner, name, _refused(name))
            before = manager.statistics()["nodes_created"]
            trace = result.trace_to(deepest)
            assert manager.statistics()["nodes_created"] == before, relation.cluster_count
        assert trace is not None and len(trace) == 17, relation.cluster_count
        replay_trace(process, trace, deepest, abstract=False)
    assert engine.relation.cluster_count == 3


def _refused(name):
    def refuse(*args, **kwargs):
        raise AssertionError(f"the trace walk called {name}")

    return refuse


# --------------------------------------------------------------------------- soundness

class TestTraceSoundness:
    def test_no_trace_on_complete_analysis_is_a_definite_answer(self):
        """Complete engines answer "no trace" with None, for all three engines."""
        for mode in STEP_COMPILE_MODES:
            for engine in engines_for(alternator_process(), mode):
                assert engine.complete, mode
                assert engine.trace_to(P.never()) is None, mode

    def test_truncated_explicit_refuses_no_trace(self):
        for mode in STEP_COMPILE_MODES:
            truncated = explore(
                CompiledProcess(boolean_shift_register_process(8), compile=mode),
                ExplorationOptions(max_states=10),
            )
            assert not truncated.complete, mode
            with pytest.raises(BoundReached):
                truncated.trace_to(P.never())
            # The same refusal for a predicate merely unreached below the bound.
            with pytest.raises(BoundReached):
                truncated.trace_to(P.true_of("s7"))

    def test_truncated_explicit_still_traces_found_violations(self):
        """A violation below the bound keeps its trace even under truncation."""
        for mode in STEP_COMPILE_MODES:
            truncated = explore(
                CompiledProcess(boolean_shift_register_process(8), compile=mode),
                ExplorationOptions(max_states=10),
            )
            trace = truncated.trace_to(P.present("x"))
            assert trace is not None, mode
            assert trace.violation.get("x") is not ABSENT, mode

    def test_truncated_polynomial_refuses_no_trace(self):
        truncated = encode_process(boolean_shift_register_process(8)).explore(max_states=10)
        assert not truncated.complete
        with pytest.raises(BoundReached):
            truncated.trace_to(P.never())

    def test_truncated_symbolic_refuses_no_trace(self):
        process = boolean_shift_register_process(8)
        truncated = symbolic_int_explore(process, SymbolicOptions(max_iterations=1))
        assert not truncated.complete
        with pytest.raises(BoundReached):
            truncated.trace_to(P.true_of("s7"))

    def test_truncated_symbolic_int_refuses_no_trace(self):
        process = modulo_counter_process(6)
        truncated = IntSymbolicEngine(
            process, SymbolicOptions(max_iterations=1)
        ).reach()
        assert not truncated.complete
        with pytest.raises(BoundReached):
            truncated.trace_to(P.value("n", lambda v: v == 5))

    def test_overflowed_ranges_refuse_no_trace(self):
        """A demonstrably clipped range is truncation: refusals name the signal."""
        from repro.signal.library import count_process

        result = symbolic_int_explore(
            count_process(), SymbolicOptions(ranges={"val": (0, 3)})
        )
        assert result.overflowed == ("val",)
        with pytest.raises(BoundReached, match="val"):
            result.trace_to(P.value("val", lambda v: v == 13))

    def test_hand_built_symbolic_result_refuses_traces(self):
        """A result without frontier rings cannot walk backward — explicit error."""
        from repro.verification import IntSymbolicReachability

        engine = IntSymbolicEngine(alternator_process())
        computed = engine.reach()
        stripped = IntSymbolicReachability(
            engine, computed.states, computed.iterations, computed.fixpoint
        )
        with pytest.raises(NotImplementedError):
            stripped.trace_to(P.present("flip"))


# --------------------------------------------------------------------------- workbench surface

class TestWorkbenchTraces:
    def test_satisfied_invariant_gets_no_trace(self):
        """A holding invariant must not dress up as a counterexample."""
        from repro.workbench import Design

        design = Design.from_process(boolean_shift_register_process(4))
        report = design.check_all(
            invariants={"ok": P.present("s3").implies(P.present("x"))},
            reachables={"tail": P.present("s3")},
            traces=True,
        )
        assert report["ok"].holds is True
        assert report["ok"].trace is None
        assert report["tail"].holds is True
        assert report["tail"].trace is not None

    def test_failed_invariant_trace_replays_through_design_simulator(self):
        from repro.workbench import Design

        process = boolean_shift_register_process(5)
        design = Design.from_process(process)
        bad = P.absent("s4") | P.false_of("s4")
        report = design.check_all(invariants={"never-true": bad}, traces=True, backend="symbolic-int")
        check = report["never-true"]
        assert check.holds is False
        assert check.trace is not None
        replay_trace(process, check.trace, ~bad, abstract=False)
        summary = report.summary()
        for line in check.trace.render().splitlines():
            assert line in summary

    def test_refused_check_has_no_trace(self):
        from repro.verification import ExplorationOptions
        from repro.workbench import Design

        for mode in STEP_COMPILE_MODES:
            design = Design.from_process(
                CompiledProcess(boolean_shift_register_process(8), compile=mode),
                exploration_options=ExplorationOptions(max_states=10),
            )
            report = design.check_all(
                invariants={"truncated": P.present("s7").implies(P.present("x"))},
                backend="explicit",
                traces=True,
            )
            assert report["truncated"].holds is None, mode
            assert report["truncated"].trace is None, mode

    def test_traces_across_every_registered_backend(self):
        """design.check(..., traces=True) works whatever engine is named."""
        from repro.workbench import Design

        process = boolean_shift_register_process(4)
        bad = P.absent("s3") | P.false_of("s3")
        backends = [("explicit", "codegen"), ("symbolic-int", "codegen"), ("explicit", "interp")]
        for backend, mode in backends:
            design = Design.from_process(CompiledProcess(process, compile=mode))
            report = design.check(("never-true", bad), backend=backend, traces=True)
            check = report["never-true"]
            assert check.holds is False, (backend, mode)
            assert check.trace is not None, (backend, mode)
            replay_trace(process, check.trace, ~bad, abstract=False, compile=mode)
