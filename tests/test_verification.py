"""Tests for the verification substrate: LTS, exploration, invariants,
bisimulation, observer, controller synthesis and the Z/3Z encoding."""

import pytest

from repro.core.values import ABSENT, EVENT
from repro.signal.library import (
    alternator_process,
    boolean_shift_register_process,
    edge_detector_process,
    modulo_counter_process,
)
from repro.signal.dsl import ProcessBuilder, const
from repro.simulation import Trace
from repro.verification import (
    BoundReached,
    ExplorationOptions,
    FlowObserver,
    LTS,
    PolynomialSystem,
    Controller,
    ReactionPredicate,
    SymbolicOptions,
    check_bisimulation,
    compare_traces,
    encode_process,
    explore,
    explore_product,
    label_to_dict,
    make_label,
    quotient,
    symbolic_int_explore,
)
from repro.epc import check_rtl_bisimulation
from repro.verification.z3z import (
    Polynomial,
    and_constraint,
    default_constraint,
    from_code,
    is_true,
    not_constraint,
    or_constraint,
    presence,
    to_code,
    when_constraint,
)


class TestLTS:
    def test_states_and_transitions(self):
        lts = LTS("demo")
        a = lts.add_state("a", initial=True)
        b = lts.add_state("b")
        lts.add_transition(a, {"x": 1}, b)
        lts.add_transition(b, {}, a)
        assert lts.state_count() == 2 and lts.transition_count() == 2
        assert lts.successors(a) == {b}
        assert lts.predecessors(a) == {b}
        assert lts.reachable() == {a, b}
        assert lts.alphabet() == {make_label({"x": 1}), frozenset()}

    def test_transition_into_an_unknown_state_is_refused(self):
        lts = LTS("demo")
        a = lts.add_state("a", initial=True)
        for target in (-1, 1):
            with pytest.raises(KeyError):
                lts.add_transition(a, {}, target)
        assert lts.transition_count() == 0 and lts.reachable() == {a}

    def test_transitions_appended_to_a_states_lists_are_its_transitions(self):
        lts = LTS("demo")
        a = lts.add_state("a", initial=True)
        b = lts.add_state("b")
        lts.add_transition(a, {"x": 1}, b)
        labels, targets = lts.transition_lists(a)
        labels.append(make_label({"x": 2}))
        targets.append(a)
        assert [(t.source, t.label, t.target) for t in lts.transitions()] == [
            (a, make_label({"x": 1}), b),
            (a, make_label({"x": 2}), a),
        ]
        assert lts.transition_lists(b) == ([], [])

    def test_path_to_and_deadlocks(self):
        lts = LTS("demo")
        a = lts.add_state("a", initial=True)
        b = lts.add_state("b")
        c = lts.add_state("c")
        lts.add_transition(a, {"go": EVENT}, b)
        lts.add_transition(b, {"stop": EVENT}, c)
        path = lts.path_to(lambda s: s == c)
        assert [t.target for t in path] == [b, c]
        assert lts.successors(c) == set()

    def test_label_projection_and_rendering(self):
        lts = LTS("demo")
        a = lts.add_state("a", initial=True)
        lts.add_transition(a, {"x": 1, "y": 2}, a)
        projected = lts.project_labels(["x"])
        assert projected.alphabet() == {make_label({"x": 1})}
        assert "x=1" in lts.render_label(make_label({"x": 1}))
        assert lts.render_label(frozenset()) == "τ"
        assert "digraph" in lts.to_dot()

    def test_label_round_trip(self):
        label = make_label({"x": 1, "y": ABSENT})
        assert label_to_dict(label) == {"x": 1}


class TestExplorer:
    def test_alternator_exploration(self):
        result = explore(alternator_process())
        assert result.complete
        assert result.lts.state_count() == 2
        assert result.lts.transition_count() == 4  # tick present/absent from each state

    def test_driving_unknown_signal_rejected(self):
        with pytest.raises(ValueError):
            explore(alternator_process(), ExplorationOptions(driven_signals=["ghost"]))

    def test_max_states_bound_is_flagged(self):
        result = explore(modulo_counter_process(9), ExplorationOptions(max_states=3))
        assert not result.complete
        assert result.lts.state_count() <= 3

    def test_max_states_bound_can_raise(self):
        # The explorer only flags the bound; a verdict over the truncated
        # result raises it when the answer needs the whole state space.
        result = explore(modulo_counter_process(9), ExplorationOptions(max_states=3))
        assert result.check_reachable(ReactionPredicate.value("n", lambda n: n == 1)).holds
        with pytest.raises(BoundReached, match="truncated"):
            result.check_invariant(ReactionPredicate.always())

    def test_unbounded_exploration_is_not_flagged(self):
        result = explore(modulo_counter_process(3))
        assert result.complete

    def test_invalid_on_bound_rejected(self):
        # The on_bound knob is gone: a caller still asking for the old
        # raising explorer fails loudly instead of silently getting a
        # flagged result.
        with pytest.raises(TypeError, match="on_bound"):
            ExplorationOptions(on_bound="raise")

    def test_observing_unknown_signal_rejected(self):
        # A typo here would otherwise make the signal silently always-absent
        # in every label while passing the predicate validation.
        with pytest.raises(ValueError, match="observe"):
            explore(alternator_process(), ExplorationOptions(observed=["tick", "filp"]))
        with pytest.raises(ValueError, match="observe"):
            explore_product(
                alternator_process(),
                alternator_process(),
                options=ExplorationOptions(observed=["ghost"]),
            )

    def test_product_exploration(self):
        result = explore_product(alternator_process(), alternator_process())
        assert result.lts.state_count() >= 1
        assert result.complete

    def test_product_exploration_bound(self):
        options = ExplorationOptions(max_states=1)
        result = explore_product(modulo_counter_process(5), modulo_counter_process(7), options=options)
        assert not result.complete
        assert result.state_count == 1

    def test_payload_is_the_memory_tuple(self):
        result = explore(modulo_counter_process(3))
        payloads = {result.lts.payload(state) for state in result.lts.states}
        assert payloads == {((0,),), ((1,),), ((2,),)}
        for state, memory in result.memories.items():
            assert result.lts.payload(state) == tuple(memory.values())

    def test_labels_keep_value_types(self):
        # 1 == True, yet each transition's label carries the value its own
        # reaction produced, and predicates see that value.
        builder = ProcessBuilder("Mixed")
        b = builder.input("b", "boolean")
        y = builder.output("y", "integer")
        builder.define(y, const(1).when(b).default(const(True).when(~b)))
        result = explore(builder.build(), ExplorationOptions(observed=["y"]))
        carried = sorted(repr(dict(t.label)["y"]) for t in result.lts.transitions() if t.label)
        assert carried == ["1", "True"]
        is_bool = ReactionPredicate.value("y", lambda value: value is True)
        assert result.check_reachable(is_bool).holds
        assert not result.check_invariant(~is_bool).holds

    def test_product_driving_unknown_signal_rejected(self):
        # A typo here would otherwise reject every stimulus and produce an
        # empty-but-"complete" exploration certifying vacuous verdicts.
        with pytest.raises(ValueError, match="drive"):
            explore_product(alternator_process(), alternator_process(), shared_driven=["tikc"])
        # A signal known to only ONE side rejects every stimulus the same way.
        left = alternator_process("Left").renamed(
            {"tick": "tick_l", "flip": "flip_l", "previous": "prev_l"}
        )
        right = alternator_process("Right").renamed(
            {"tick": "tick_r", "flip": "flip_r", "previous": "prev_r"}
        )
        with pytest.raises(ValueError, match="drive"):
            explore_product(left, right, shared_driven=["tick_l"])


class TestInvariants:
    def _counter(self, modulo=3):
        return explore(modulo_counter_process(modulo))

    def test_invariant_holds(self):
        counter = self._counter()
        below = ReactionPredicate.absent("n") | ReactionPredicate.value("n", lambda n: n < 3)
        verdict = counter.check_invariant(below)
        assert verdict.holds and "holds" in verdict.explain()

    def test_invariant_violation_yields_counterexample(self):
        counter = self._counter()
        low = ReactionPredicate.absent("n") | ReactionPredicate.value("n", lambda n: n in (0, 1))
        verdict = counter.check_invariant(low)
        assert not verdict.holds
        assert verdict.counterexample

    def test_reachability(self):
        counter = self._counter()
        hit = counter.check_reachable(ReactionPredicate.present("carry"))
        assert hit.holds
        miss = counter.check_reachable(ReactionPredicate.value("n", lambda n: n == 99))
        assert not miss.holds

    def test_state_reachability_and_af(self):
        # Every counter state is reached by a shortest engine trace, and the
        # last one is the initial memory again: the cycle closes.
        counter = self._counter()
        for value in range(3):
            trace = counter.trace_to(ReactionPredicate.value("n", lambda n, v=value: n == v))
            assert len(trace) == value + 1
            assert trace[-1].state == {"delay0": (value,)}
        assert trace[-1].state == counter.memories[counter.lts.initial]

    def test_checks_share_one_reachability_walk(self, monkeypatch):
        # An exploration's LTS is final: its checks and traces walk it once
        # between them, breadth first.
        walks = []
        walk = LTS.breadth_first
        monkeypatch.setattr(LTS, "breadth_first", lambda lts: walks.append(lts) or walk(lts))
        counter = self._counter()
        below = ReactionPredicate.absent("n") | ReactionPredicate.value("n", lambda n: n < 3)
        assert counter.check_invariant(below).holds
        assert not counter.check_invariant(ReactionPredicate.absent("carry")).holds
        assert counter.check_reachable(ReactionPredicate.present("carry")).holds
        assert counter.trace_to(ReactionPredicate.present("carry")) is not None
        assert walks == [counter.lts]

    def test_closed_loop_walks_its_own_lts(self):
        # The plant reaches every state; a controller that keeps only the
        # silent reaction out of the initial state leaves the other states
        # in the closed loop, unreachable.  Their reactions must not count.
        plant = self._counter()
        ticking = ReactionPredicate.present("tick")
        assert not plant.check_invariant(~ticking).holds
        initial = plant.lts.initial
        allowed = {state: plant.lts.transitions_from(state) for state in plant.lts.states}
        allowed[initial] = [t for t in allowed[initial] if not t.label]
        closed = Controller(allowed=allowed, kept_states=set(plant.lts.states)).restrict(plant)
        assert closed.state_count == plant.state_count
        assert closed.check_invariant(~ticking).holds
        assert not closed.check_reachable(ticking).holds


class TestBisimulation:
    def test_identical_systems_are_bisimilar(self):
        left = explore(modulo_counter_process(3)).lts
        right = explore(modulo_counter_process(3)).lts
        assert check_bisimulation(left, right).bisimilar

    def test_different_modulos_are_not_bisimilar(self):
        left = explore(modulo_counter_process(3)).lts
        right = explore(modulo_counter_process(4)).lts
        result = check_bisimulation(left, right)
        assert not result.bisimilar
        assert "NOT" in result.explain()

    def test_projection_can_recover_bisimilarity(self):
        left = explore(modulo_counter_process(3)).lts
        right = explore(modulo_counter_process(4)).lts
        # Hiding the counter value and the carry leaves only the tick alphabet.
        assert check_bisimulation(left, right, observed=["tick"]).bisimilar

    def test_quotient_is_bisimilar_to_original(self):
        lts = explore(modulo_counter_process(4)).lts
        reduced = quotient(lts)
        assert reduced.state_count() <= lts.state_count()
        assert check_bisimulation(lts, reduced).bisimilar


class TestObserver:
    def test_flow_observer_matches_and_diverges(self):
        observer = FlowObserver(["x"])
        assert observer.feed("left", "x", 1)
        assert observer.feed("right", "x", 1)
        assert observer.ok
        observer.feed("left", "x", 2)
        assert not observer.feed("right", "x", 3)
        verdict = observer.verdict()
        assert not verdict.equivalent and verdict.mismatch.signal == "x"

    def test_strict_verdict_requires_equal_lengths(self):
        observer = FlowObserver(["x"])
        observer.feed("left", "x", 1)
        assert observer.verdict(strict=False).equivalent
        assert not observer.verdict(strict=True).equivalent

    def test_feed_validation(self):
        observer = FlowObserver(["x"])
        with pytest.raises(ValueError):
            observer.feed("middle", "x", 1)
        with pytest.raises(KeyError):
            observer.feed("left", "unknown", 1)

    def test_compare_traces_with_renaming(self):
        left = Trace.from_columns({"Outport": [1, 2]})
        right = Trace.from_columns({"outport": [ABSENT, 1, ABSENT, 2]})
        verdict = compare_traces(left, right, ["Outport"], rename_right={"outport": "Outport"})
        assert verdict.equivalent


class TestSynthesis:
    def test_synthesis_on_counter(self):
        plant = explore(modulo_counter_process(4))
        no_carry = ReactionPredicate.absent("carry")
        result = plant.synthesise(no_carry, ["tick"]).backend
        assert result.success
        closed = result.controller.restrict(plant)
        assert closed.complete and closed.observed == plant.observed
        assert closed.check_invariant(no_carry).holds
        assert result.disabled_transitions >= 1

    def test_synthesis_failure_when_uncontrollable(self):
        plant = explore(modulo_counter_process(2))
        # nothing can be disabled
        result = plant.synthesise(ReactionPredicate.absent("carry"), []).backend
        assert not result.success
        assert "NO controller" in result.explain()


class TestZ3Z:
    def test_polynomial_arithmetic(self):
        x = Polynomial.variable("x")
        assert (x + x + x).is_zero()
        assert (x * x * x) == x  # x^3 = x over Z/3Z
        assert (x - x).is_zero()
        assert (2 * x) == (-x)
        assert (x ** 2).degree() == 2

    def test_substitution_and_evaluation(self):
        x, y = Polynomial.variable("x"), Polynomial.variable("y")
        p = x * y + 1
        assert p.evaluate({"x": 2, "y": 2}) == (2 * 2 + 1) % 3
        substituted = p.substitute({"x": y})
        assert substituted == y * y + 1

    def test_primitive_encodings(self):
        assert to_code(ABSENT) == 0 and to_code(True) == 1 and to_code(False) == 2
        assert from_code(2) is False
        for code in (0, 1, 2):
            assert presence("x").evaluate({"x": code}) == (0 if code == 0 else 1)
        system = PolynomialSystem([not_constraint("r", "x")])
        for solution in system.solutions(["r", "x"]):
            assert solution["r"] == (-solution["x"]) % 3

    def test_and_or_constraints(self):
        system = PolynomialSystem([and_constraint("r", "x", "y"), or_constraint("s", "x", "y")])
        for solution in system.solutions(["r", "s", "x", "y"]):
            x, y = solution["x"], solution["y"]
            if 0 in (x, y):
                assert solution["r"] == 0 and solution["s"] == 0
            else:
                x_b, y_b = x == 1, y == 1
                assert solution["r"] == to_code(x_b and y_b)
                assert solution["s"] == to_code(x_b or y_b)

    def test_encode_alternator_and_check_invariant(self):
        system = encode_process(alternator_process())
        assert system.check_invariant(presence("flip") - presence("tick"))
        assert not system.check_invariant(is_true("flip") - presence("tick"))
        explored = system.explore()
        assert explored.complete
        assert explored.state_count == 2

    def test_encode_rejects_integer_signals(self):
        from repro.signal.library import count_process
        from repro.verification import EncodingError

        with pytest.raises(EncodingError):
            encode_process(count_process())

    def test_edge_detector_encoding_matches_simulation(self):
        explored = encode_process(edge_detector_process()).explore()
        assert explored.complete
        # In every admissible reaction, rise present implies level present-true.
        for decoded in explored.reactions():
            if decoded["rise"] is not ABSENT:
                assert decoded["level"] is True

    def test_event_signals_never_carry_false(self):
        explored = encode_process(alternator_process()).explore()
        assert explored.complete
        for decoded in explored.reactions():
            assert decoded["tick"] in (ABSENT, True)

    def test_polynomial_reachability_interface(self):
        engine = encode_process(alternator_process()).explore()
        assert engine.complete
        assert engine.state_count == 2
        predicate = ReactionPredicate.present("flip").implies(ReactionPredicate.present("tick"))
        assert engine.check_invariant(predicate).holds
        assert engine.check_reachable(ReactionPredicate.true_of("flip")).holds
        assert not engine.check_reachable(ReactionPredicate.false_of("tick")).holds


class TestSymbolic:
    def test_symbolic_matches_known_state_space(self):
        result = symbolic_int_explore(alternator_process())
        assert result.complete
        assert result.state_count == 2
        assert result.iterations == 2

    def test_iteration_bound_flags_incompleteness(self):
        result = symbolic_int_explore(edge_detector_process(), SymbolicOptions(max_iterations=0))
        assert not result.complete
        assert result.state_count == 1  # only the initial state

    def test_truncated_analyses_refuse_unsound_verdicts(self):
        # "Invariant holds" / "nothing reachable" from a truncated state space
        # would be unsound: every backend must refuse instead of certifying.
        symbolic = symbolic_int_explore(edge_detector_process(), SymbolicOptions(max_iterations=0))
        with pytest.raises(BoundReached):
            symbolic.check_invariant(ReactionPredicate.always())
        # previous=true only happens after a step, i.e. beyond the truncation
        with pytest.raises(BoundReached):
            symbolic.check_reachable(ReactionPredicate.true_of("previous"))
        explicit = explore(modulo_counter_process(9), ExplorationOptions(max_states=3))
        with pytest.raises(BoundReached):
            explicit.check_invariant(ReactionPredicate.always())
        polynomial = encode_process(alternator_process()).explore(max_states=1)
        assert not polynomial.complete
        with pytest.raises(BoundReached):
            polynomial.check_invariant(ReactionPredicate.always())
        # The legacy polynomial-objective checker obeys the same rule.
        with pytest.raises(BoundReached):
            encode_process(alternator_process()).check_invariant(
                presence("flip") - presence("tick"), max_states=1
            )
        # Every verdict entry point of a truncated exploration refuses:
        # 5 of the 50 counter states, with n = 30 beyond the bound.
        counter = explore(modulo_counter_process(50), ExplorationOptions(max_states=5))
        assert counter.state_count == 5 and not counter.complete
        safe = ReactionPredicate.absent("n") | ReactionPredicate.value("n", lambda n: n != 30)
        thirty = ReactionPredicate.value("n", lambda n: n == 30)
        for verdict in (
            lambda: counter.check_invariant(safe),
            lambda: counter.check_reachable(thirty),
            lambda: counter.trace_to(thirty),
            lambda: counter.synthesise(safe, ["tick"]),
        ):
            with pytest.raises(BoundReached):
                verdict()
        # So does the closed loop of a truncated plant, even under a
        # controller that allows every explored transition.
        everything = Controller(
            allowed={state: counter.lts.transitions_from(state) for state in counter.lts.states},
            kept_states=set(counter.lts.states),
        )
        closed = everything.restrict(counter)
        assert closed.state_count == 5 and not closed.complete
        with pytest.raises(BoundReached):
            closed.check_invariant(safe)
        # A controller synthesised on the complete plant, applied to the
        # truncated one, gives a closed loop that refuses all the same.
        controller = explore(modulo_counter_process(50)).synthesise(safe, ["tick"]).backend.controller
        with pytest.raises(BoundReached):
            controller.restrict(counter).check_invariant(safe)
        # The RTL obligation refuses below its reachable count (78 states of
        # the implementation at width 2) instead of comparing truncated LTSs.
        with pytest.raises(BoundReached, match="max_states=50"):
            check_rtl_bisimulation(width=2, max_states=50)

    def test_truncated_exploration_refuses_synthesis(self):
        explicit = explore(modulo_counter_process(9), ExplorationOptions(max_states=3))
        assert not explicit.complete
        with pytest.raises(BoundReached):
            explicit.synthesise(ReactionPredicate.always(), ["tick"])
        # Unconverged symbolic fixpoints would treat unexplored states as
        # escapes and report "no controller" for a controllable plant.
        symbolic = symbolic_int_explore(
            boolean_shift_register_process(3), SymbolicOptions(max_iterations=1)
        )
        assert not symbolic.complete
        with pytest.raises(BoundReached):
            symbolic.synthesise(ReactionPredicate.always(), [])

    def test_truncated_analyses_still_report_found_violations(self):
        # A violation (or witness) found below the bound is sound to report.
        symbolic = symbolic_int_explore(alternator_process(), SymbolicOptions(max_iterations=1))
        assert not symbolic.complete
        verdict = symbolic.check_invariant(ReactionPredicate.never())
        assert not verdict.holds and "witness reaction" in verdict.details
        assert symbolic.check_reachable(ReactionPredicate.always()).holds

    def test_symbolic_invariants_and_witnesses(self):
        result = symbolic_int_explore(alternator_process())
        holds = result.check_invariant(ReactionPredicate.present("flip").implies(ReactionPredicate.present("tick")))
        assert holds.holds and "reachable states" in holds.details
        fails = result.check_invariant(~ReactionPredicate.false_of("flip"))
        assert not fails.holds and "witness reaction" in fails.details
        assert result.check_reachable(ReactionPredicate.true_of("flip")).holds

    def test_symbolic_rejects_unknown_predicate_signal(self):
        result = symbolic_int_explore(alternator_process())
        with pytest.raises(KeyError):
            result.check_invariant(ReactionPredicate.present("ghost"))

    def test_symbolic_polynomial_invariant(self):
        result = symbolic_int_explore(alternator_process())
        assert result.check_polynomial_invariant(presence("flip") - presence("tick")).holds
        assert not result.check_polynomial_invariant(is_true("flip") - presence("tick")).holds
        with pytest.raises(KeyError):
            result.check_polynomial_invariant(presence("flpi"))

    def test_polynomial_invariant_rejects_integer_signals(self):
        result = symbolic_int_explore(modulo_counter_process(3))
        with pytest.raises(ValueError, match="PolynomialDynamicalSystem.check_invariant"):
            result.check_polynomial_invariant(presence("n"))

    def test_polynomial_invariant_rejects_z3z_state_variables(self):
        process = alternator_process()
        state = next(iter(encode_process(process).state_variables))
        result = symbolic_int_explore(process)
        with pytest.raises(ValueError, match="PolynomialDynamicalSystem.check_invariant"):
            result.check_polynomial_invariant(presence(state))

    def test_engine_agnostic_helpers_reject_non_backends(self):
        # A raw PolynomialDynamicalSystem has a check_invariant(polynomial,
        # max_states) method that would silently misread a ReactionPredicate
        # meant for the engine's check_invariant.
        system = encode_process(alternator_process())
        predicate = ReactionPredicate.present("flip") | ReactionPredicate.absent("flip")
        with pytest.raises(TypeError, match="explore"):
            system.check_invariant(predicate)
        assert system.explore().check_invariant(predicate).holds

    def test_symbolic_scales_past_the_explicit_bound(self):
        process = boolean_shift_register_process(12)
        explicit = explore(process, ExplorationOptions(max_states=64))
        assert not explicit.complete
        symbolic = symbolic_int_explore(process)
        assert symbolic.complete
        assert symbolic.state_count == 2 ** 12
        assert symbolic.state_count > 10 * 64

    def test_engine_agnostic_helpers_accept_lts_and_engines(self):
        predicate = ReactionPredicate.present("flip").implies(ReactionPredicate.present("tick"))
        explicit = explore(alternator_process())
        symbolic = symbolic_int_explore(alternator_process())
        assert explicit.check_invariant(predicate).holds
        assert symbolic.check_invariant(predicate).holds
        assert explicit.check_reachable(ReactionPredicate.true_of("flip")).holds
        assert symbolic.check_reachable(ReactionPredicate.true_of("flip")).holds

    def test_synthesise_with_dispatch(self):
        safe = ~ReactionPredicate.false_of("flip")
        explicit = explore(alternator_process())
        symbolic = symbolic_int_explore(alternator_process())
        for target in (explicit, symbolic):
            verdict = target.synthesise(safe, ["tick"])
            assert not verdict.success  # flip must eventually go false
            assert "kept" in verdict.explain()
        with pytest.raises(ValueError):
            symbolic.synthesise(safe, ["ghost"])
        with pytest.raises(ValueError):
            explicit.synthesise(safe, ["ghost"])

    def test_explicit_backends_reject_unknown_predicate_signals(self):
        # A typo'd signal would silently read as always-absent and certify a
        # wrong verdict; every backend must reject it like the symbolic one.
        typo = ReactionPredicate.true_of("flpi")
        explicit = explore(alternator_process())
        with pytest.raises(KeyError):
            explicit.check_reachable(typo)
        with pytest.raises(KeyError):
            explicit.check_invariant(typo)
        polynomial = encode_process(alternator_process()).explore()
        with pytest.raises(KeyError):
            polynomial.check_reachable(typo)
        # An explicitly empty observed alphabet rejects every named signal
        # rather than silently certifying from empty labels.
        blind = explore(alternator_process(), ExplorationOptions(observed=[]))
        with pytest.raises(KeyError):
            blind.check_reachable(ReactionPredicate.present("flip"))

    def test_value_atoms_are_boolean_only(self):
        # A present integer signal — whatever it carries — is neither true
        # nor false; only booleans and events have truth values.
        for integer in (0, 1, 2):
            reaction = {"data": integer}
            assert ReactionPredicate.present("data").evaluate(reaction)
            assert not ReactionPredicate.true_of("data").evaluate(reaction)
            assert not ReactionPredicate.false_of("data").evaluate(reaction)
        assert ReactionPredicate.false_of("data").evaluate({"data": False})
        assert ReactionPredicate.true_of("data").evaluate({"data": True})
        assert ReactionPredicate.true_of("data").evaluate({"data": EVENT})
