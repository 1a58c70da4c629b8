"""Tests for the finite-integer symbolic engine and its range inference.

The differential suite (``tests/test_symbolic_vs_explicit.py``) establishes
agreement with the explicit explorer on whole corpora; this module pins the
edge cases of the new machinery itself: the bit-vector circuit layer, range
inference (declared bounds, comparison refinement, unbounded refusal naming
the offending signal), degenerate ranges (``[5, 5]`` → zero bits), negative
ranges, the overflow audit that keeps mis-declared capacities sound, value
atoms, and the workbench routing/memoisation around the new backend.
"""

import itertools

import pytest

from repro.clocks.bdd import BDDManager
from repro.core.values import EVENT
from repro.signal.ast import SignalDeclaration, expand
from repro.signal.dsl import ProcessBuilder, const
from repro.signal.library import (
    bounded_channel_process,
    count_process,
    modulo_counter_process,
    saturating_accumulator_process,
)
from repro.verification import (
    BoundReached,
    EncodingError,
    IntSymbolicEngine,
    IntSymbolicReachability,
    ReactionPredicate as P,
    SymbolicOptions,
    explore,
    infer_ranges,
    symbolic_int_explore,
)
from repro.workbench import Design, DiskArtifactStore


# --------------------------------------------------------------------------- bit-vector circuits

class TestBitVectorCircuits:
    def test_adder_comparators_mux_exhaustive(self):
        manager = BDDManager()
        a = [manager.var("a0"), manager.var("a1"), manager.var("a2")]
        b = [manager.var("b0"), manager.var("b1")]
        for left, right in itertools.product(range(8), range(4)):
            assignment = {
                "a0": bool(left & 1), "a1": bool(left & 2), "a2": bool(left & 4),
                "b0": bool(right & 1), "b1": bool(right & 2),
            }
            assert manager.bv_value(manager.bv_add(a, b), assignment) == left + right
            assert manager.evaluate(manager.bv_lt(a, b), dict(assignment)) == (left < right)
            assert manager.evaluate(manager.bv_le(a, b), dict(assignment)) == (left <= right)
            assert manager.evaluate(manager.bv_eq(a, b), dict(assignment)) == (left == right)
            mux = manager.bv_mux(manager.var("a0"), a, b)
            assert manager.bv_value(mux, assignment) == (left if left & 1 else right)

    def test_truncating_add_wraps(self):
        manager = BDDManager()
        three = manager.bv_const(3, 2)
        assert manager.bv_value(manager.bv_add(three, three, 2), {}) == 2  # (3+3) mod 4

    def test_zero_width_vectors(self):
        manager = BDDManager()
        assert manager.bv_add([], []) == []
        assert manager.evaluate(manager.bv_eq([], []), {}) is True
        assert manager.evaluate(manager.bv_lt([], []), {}) is False
        assert manager.bv_const(0, 0) == []

    def test_const_rejects_unrepresentable(self):
        manager = BDDManager()
        with pytest.raises(ValueError):
            manager.bv_const(4, 2)
        with pytest.raises(ValueError):
            manager.bv_const(-1, 4)


# --------------------------------------------------------------------------- range inference

class TestRangeInference:
    def test_modulo_counter_inferred_without_declarations(self):
        report = infer_ranges(modulo_counter_process(5))
        assert report.range_of("n") == (0, 4)
        assert report.range_of("previous") == (0, 4)

    def test_saturating_accumulator_refined_by_comparisons(self):
        """``sum when sum < cap`` narrows the sampled interval — the idiom
        that bounds saturating designs without any declaration."""
        report = infer_ranges(saturating_accumulator_process(6))
        assert report.range_of("total") == (0, 6)
        assert report.range_of("summed") == (0, 7)

    def test_bounded_channel_converges(self):
        report = infer_ranges(bounded_channel_process(4))
        assert report.range_of("level") == (0, 4)

    def test_inputs_range_over_the_stimulus_domain(self):
        report = infer_ranges(saturating_accumulator_process(6), integer_domain=(0, 1, 2))
        assert report.range_of("x") == (0, 2)
        assert report.range_of("summed") == (0, 8)

    def test_unbounded_count_raises_naming_the_signal(self):
        with pytest.raises(EncodingError) as excinfo:
            infer_ranges(count_process())
        assert "counter" in str(excinfo.value) or "val" in str(excinfo.value)
        assert "bounds" in str(excinfo.value)

    def test_declared_bounds_break_the_cycle(self):
        report = infer_ranges(count_process(), declared={"val": (0, 7)})
        assert report.range_of("val") == (0, 7)
        assert report.range_of("counter") == (0, 7)

    def test_declaration_bounds_on_the_builder(self):
        builder = ProcessBuilder("Declared")
        tick = builder.input("tick", "event")
        value = builder.output("value", "integer", bounds=(2, 9))
        previous = builder.local("previous", "integer")
        builder.define(previous, value.delayed(2))
        builder.define(value, previous.when(tick.clock()))
        builder.synchronize(value, tick)
        report = infer_ranges(builder.build())
        assert report.range_of("value") == (2, 9)

    def test_bounds_survive_rename_and_expand(self):
        declaration = SignalDeclaration("x", "integer", (1, 3))
        builder = ProcessBuilder("Inner")
        x = builder.input("x", "integer", bounds=(1, 3))
        builder.define(builder.output("y", "integer", bounds=(1, 3)), x)
        inner = builder.build()
        renamed = inner.renamed({"x": "a", "y": "b"})
        assert renamed.declaration_of("a").bounds == (1, 3)
        assert expand(renamed).declaration_of("b").bounds == (1, 3)
        assert declaration.bounds == (1, 3)

    def test_bounds_reject_non_integer_and_empty(self):
        with pytest.raises(ValueError):
            SignalDeclaration("flag", "boolean", (0, 1))
        with pytest.raises(ValueError):
            SignalDeclaration("x", "integer", (3, 1))


# --------------------------------------------------------------------------- degenerate ranges

def singleton_process():
    builder = ProcessBuilder("Five")
    tick = builder.input("tick", "event")
    five = builder.output("five", "integer", bounds=(5, 5))
    builder.define(five, const(5).when(tick))
    builder.synchronize(five, tick)
    return builder.build()


def negative_down_counter(floor=-4):
    builder = ProcessBuilder("Down")
    tick = builder.input("tick", "event")
    level = builder.output("level", "integer")
    previous = builder.local("previous", "integer")
    builder.define(previous, level.delayed(0))
    stepped = (previous - 1).when(previous.gt(floor))
    builder.define(level, stepped.default(previous.when(previous.le(floor))).when(tick.clock()))
    builder.synchronize(level, tick)
    return builder.build()


class TestDegenerateRanges:
    def test_singleton_range_uses_zero_bits(self):
        process = singleton_process()
        result = symbolic_int_explore(process)
        assert result.complete
        # Zero value bits: the only signal bits are the two presence bits.
        assert result.engine.signal_bits == ["tick.p", "five.p"]
        assert result.state_count == explore(process).state_count == 1
        assert result.check_reachable(P.value("five", lambda v: v == 5)).holds
        assert not result.check_reachable(P.value("five", lambda v: v != 5)).holds
        reactions = {
            frozenset(r.items()) for r in result.engine.reactions_of(result.states)
        }
        assert frozenset({("tick", EVENT), ("five", 5)}) in reactions

    def test_negative_range_round_trips(self):
        process = negative_down_counter()
        explicit = explore(process)
        result = symbolic_int_explore(process)
        assert result.complete
        # level itself only ever carries -4..-1; the initial 0 lives in the
        # delay's memory (whose slot range hulls the initial value in).
        assert result.engine.ranges.range_of("level") == (-4, -1)
        assert result.state_count == explicit.state_count == 5
        for k in range(-6, 2):
            expected = explicit.check_reachable(P.value("level", lambda v, k=k: v == k)).holds
            assert result.check_reachable(P.value("level", lambda v, k=k: v == k)).holds == expected

    def test_negative_initial_value(self):
        builder = ProcessBuilder("NegInit")
        tick = builder.input("tick", "event")
        out = builder.output("out", "integer")
        previous = builder.local("previous", "integer")
        builder.define(previous, out.delayed(-3))
        builder.define(out, ((previous + 1).when(previous.lt(0))).default(previous).when(tick.clock()))
        builder.synchronize(out, tick)
        process = builder.build()
        explicit = explore(process)
        result = symbolic_int_explore(process)
        assert result.complete
        assert result.state_count == explicit.state_count == 4


# --------------------------------------------------------------------------- the overflow audit

class TestOverflowAudit:
    def test_count_with_tight_bounds_is_flagged_incomplete(self):
        """Count genuinely overflows any declared window: the engine explores
        the window, reports what it found, and refuses universal verdicts."""
        result = symbolic_int_explore(
            count_process(), SymbolicOptions(ranges={"val": (0, 7)})
        )
        assert not result.complete
        assert result.overflowed == ("val",)
        assert result.state_count == 8
        # Witnesses below the bound are still certain...
        assert result.check_reachable(P.value("val", lambda v: v == 5)).holds
        # ... violations too ...
        assert not result.check_invariant(P.absent("val") | P.value("val", lambda v: v < 5)).holds
        # ... but "unreachable"/"holds" would be unsound: refuse, naming the range.
        with pytest.raises(BoundReached) as excinfo:
            result.check_reachable(P.value("val", lambda v: v == 9))
        assert "val" in str(excinfo.value)
        with pytest.raises(BoundReached):
            result.check_invariant(P.absent("reset") | P.present("val"))

    def test_wide_enough_bounds_stay_complete(self):
        """The audit is not paranoid: a range the dynamics never leave is
        certified complete (the saturating designs below never clip)."""
        for process in (
            saturating_accumulator_process(6),
            bounded_channel_process(4),
            modulo_counter_process(7),
        ):
            result = symbolic_int_explore(process)
            assert result.complete and not result.overflowed, process.name

    def test_synthesis_refuses_on_overflow(self):
        result = symbolic_int_explore(
            count_process(), SymbolicOptions(ranges={"val": (0, 3)})
        )
        with pytest.raises(BoundReached):
            result.synthesise(P.always(), ["reset"])

    # A suspended engine or result must carry the audit with it: one that
    # lost its relaxed relation or clip conditions would certify the window.
    TIGHT = SymbolicOptions(ranges={"val": (0, 7)}, reorder="off")
    UNIVERSAL = P.absent("reset") | P.present("val")

    def _assert_refused(self, result):
        assert result.complete is False
        assert result.overflowed == ("val",)
        with pytest.raises(BoundReached, match="val"):
            result.check_invariant(self.UNIVERSAL)

    def test_rehydrated_engine_reruns_the_audit(self):
        payload = IntSymbolicEngine(count_process(), self.TIGHT).snapshot_relation()
        engine = IntSymbolicEngine.rehydrated(count_process(), self.TIGHT, payload=payload)
        self._assert_refused(engine.reach())

    def test_result_from_snapshot_keeps_the_audit(self):
        payload = IntSymbolicEngine(count_process(), self.TIGHT).reach().snapshot()
        engine = IntSymbolicEngine.rehydrated(count_process(), self.TIGHT, payload=payload["engine"])
        self._assert_refused(IntSymbolicReachability.from_snapshot(engine, payload))

    def test_warm_design_check_keeps_the_audit(self, tmp_path):
        cold = Design(count_process(), symbolic_options=self.TIGHT, cache=DiskArtifactStore(str(tmp_path)))
        assert cold.check(("universal", self.UNIVERSAL), backend="symbolic-int")["universal"].holds is None
        warm = Design(count_process(), symbolic_options=self.TIGHT, cache=DiskArtifactStore(str(tmp_path)))
        report = warm.check(("universal", self.UNIVERSAL), backend="symbolic-int")
        assert "symbolic_int_engine" not in warm.artifact_counts  # rehydrated, not rebuilt
        assert warm.cache_stats["hits"] >= 1
        assert report["universal"].holds is None
        self._assert_refused(warm.symbolic_int)


# --------------------------------------------------------------------------- review regressions

class TestSoundnessRegressions:
    """Divergences found by review: each case previously certified a verdict
    the explicit reference explorer refutes, with ``complete=True``."""

    def test_undefined_integer_signals_carry_the_stimulus_alphabet(self):
        """An integer signal with no defining equation is environment-driven:
        it must range over the stimulus alphabet like every driven input, not
        freely over its declared window.  Previously only declared *inputs*
        got the domain constraint, so a free output with ``bounds=(0, 10)``
        made ``val == 8`` reachable — a reaction the reference explorer
        (driving ``val`` via ``extra_driven``) can never perform."""
        from repro.verification import ExplorationOptions

        builder = ProcessBuilder("FreeOut")
        t = builder.input("t", "event")
        val = builder.output("val", "integer", bounds=(0, 10))
        builder.synchronize(val, t)
        process = builder.build()

        explicit = explore(
            process, ExplorationOptions(extra_driven=["val"], integer_domain=(0, 1))
        )
        result = symbolic_int_explore(process, SymbolicOptions(integer_domain=(0, 1)))
        assert explicit.complete and result.complete
        for predicate in (
            P.value("val", lambda v: v == 8),
            P.present("val") & P.value("val", lambda v: v >= 2),
        ):
            assert not explicit.check_reachable(predicate).holds
            assert not result.check_reachable(predicate).holds
        low = P.absent("val") | P.value("val", lambda v: v < 2)
        assert explicit.check_invariant(low).holds
        assert result.check_invariant(low).holds

    def test_constant_fallback_through_pointwise_operators(self):
        """``(x default 1) + (y default 2)``: with x and y absent the constant
        status adapts and the sum is present (value 3) wherever sampled."""
        builder = ProcessBuilder("Adapt")
        x = builder.input("x", "integer")
        y = builder.input("y", "integer")
        t = builder.input("t", "event")
        z = builder.output("z", "integer")
        builder.define(z, (x.default(const(1)) + y.default(const(2))).when(t.clock()))
        process = builder.build()
        explicit = explore(process)
        result = symbolic_int_explore(process)
        assert result.complete
        adapted = P.present("z") & P.absent("x") & P.absent("y")
        assert explicit.check_reachable(adapted).holds
        assert result.check_reachable(adapted).holds
        assert result.check_reachable(adapted & P.value("z", lambda v: v == 3)).holds
        assert explicit.check_invariant(~adapted).holds == result.check_invariant(~adapted).holds is False

    def test_constant_fallback_through_unary_minus(self):
        builder = ProcessBuilder("NegAdapt")
        x = builder.input("x", "integer")
        t = builder.input("t", "event")
        builder.define(builder.output("z", "integer"), (-(x.default(const(2)))).when(t.clock()))
        process = builder.build()
        explicit = explore(process)
        result = symbolic_int_explore(process)
        adapted = P.value("z", lambda v: v == -2) & P.absent("x")
        assert explicit.check_reachable(adapted).holds
        assert result.check_reachable(adapted).holds

    def test_simultaneous_clips_do_not_mask_each_other(self):
        """Two equations overflowing in the same reaction must both be
        audited — neither strict window may veto the other's clip."""
        builder = ProcessBuilder("TwinClip")
        tick = builder.input("tick", "event")
        val = builder.output("val", "integer")
        twin = builder.output("twin", "integer")
        previous = builder.local("previous", "integer")
        builder.define(previous, val.delayed(0))
        builder.define(val, (previous + 1).when(tick.clock()))
        builder.define(twin, (previous + 1).when(tick.clock()))
        builder.synchronize(val, tick)
        builder.synchronize(twin, tick)
        result = symbolic_int_explore(
            builder.build(),
            SymbolicOptions(ranges={"val": (0, 7), "twin": (0, 7), "previous": (0, 7)}),
        )
        assert not result.complete
        assert "val" in result.overflowed and "twin" in result.overflowed
        with pytest.raises(BoundReached):
            result.check_invariant(P.absent("val") | P.value("val", lambda v: v < 8))

    def test_declared_input_bounds_never_narrow_the_stimulus_domain(self):
        """The explorer drives every ``integer_domain`` value regardless of
        declared input bounds, so the bit-vector window must cover them."""
        builder = ProcessBuilder("NarrowInput")
        x = builder.input("x", "integer", bounds=(2, 3))
        builder.define(builder.output("y", "integer"), x + x)
        process = builder.build()
        explicit = explore(process)  # default stimulus domain (0, 1)
        result = symbolic_int_explore(process)
        assert result.complete
        for predicate in (
            P.present("x"),
            P.value("x", lambda v: v == 0),
            P.value("y", lambda v: v == 2),
        ):
            assert result.check_reachable(predicate).holds == explicit.check_reachable(predicate).holds
        assert not result.check_invariant(P.absent("x")).holds

    def test_auto_falls_back_when_the_engine_refuses_to_encode(self):
        """Ranges can be finite yet unencodable (wider than max_bits): a
        batch check must fall back to explicit, not leak EncodingError."""
        from repro.verification import ExplorationOptions
        from repro.workbench import Design

        builder = ProcessBuilder("Wide")
        tick = builder.input("tick", "event")
        wide = builder.output("wide", "integer", bounds=(0, 1 << 30))
        previous = builder.local("previous", "integer")
        builder.define(previous, wide.delayed(0))
        builder.define(wide, const(0).when(tick))
        builder.synchronize(wide, tick)
        design = Design.from_process(
            builder.build(), exploration_options=ExplorationOptions(max_states=100)
        )
        assert design.backend_info("auto").name == "symbolic-int"
        report = design.check_all(
            invariants={"zero": P.absent("wide") | P.value("wide", lambda v: v == 0)}
        )
        assert report.backend_name == "explicit"
        assert report.all_hold
        # Naming the backend explicitly still surfaces the refusal.
        with pytest.raises(EncodingError):
            design.check_all(invariants={"zero": P.always()}, backend="symbolic-int")


# --------------------------------------------------------------------------- value atoms

class TestValueAtoms:
    def test_value_atoms_on_every_signal_type(self):
        process = modulo_counter_process(5)
        result = symbolic_int_explore(process)
        assert result.check_reachable(P.value("n", lambda v: v == 4)).holds
        assert not result.check_reachable(P.value("n", lambda v: v > 4)).holds
        assert result.check_reachable(P.value("tick", lambda v: v is EVENT)).holds
        assert result.check_invariant(P.absent("n") | P.value("n", lambda v: 0 <= v <= 4)).holds

    def test_value_atom_on_boolean_signal(self):
        builder = ProcessBuilder("Flag")
        x = builder.input("x", "boolean")
        builder.define(builder.output("y", "boolean"), ~x)
        result = symbolic_int_explore(builder.build())
        assert result.check_reachable(P.value("y", lambda v: v is False)).holds
        assert result.check_invariant(
            P.absent("y") | P.value("y", lambda v: isinstance(v, bool))
        ).holds

    def test_unknown_signal_rejected(self):
        result = symbolic_int_explore(modulo_counter_process(3))
        with pytest.raises(KeyError):
            result.check_invariant(P.value("typo", lambda v: True))


# --------------------------------------------------------------------------- engine fragment limits

class TestFragmentLimits:
    def test_division_is_outside_the_fragment(self):
        from repro.signal.ast import BinaryOp

        builder = ProcessBuilder("Div")
        a = builder.input("a", "integer")
        builder.define(builder.output("q", "integer"), BinaryOp("/", a, const(2)))
        with pytest.raises(EncodingError):
            symbolic_int_explore(builder.build())

    def test_variable_modulus_is_rejected(self):
        builder = ProcessBuilder("VarMod")
        a = builder.input("a", "integer")
        b = builder.input("b", "integer")
        builder.define(builder.output("r", "integer"), a % b)
        with pytest.raises(EncodingError):
            symbolic_int_explore(builder.build())

    def test_max_bits_cap(self):
        builder = ProcessBuilder("Wide")
        tick = builder.input("tick", "event")
        wide = builder.output("wide", "integer", bounds=(0, 1 << 30))
        builder.define(wide, const(0).when(tick))
        builder.synchronize(wide, tick)
        with pytest.raises(EncodingError):
            symbolic_int_explore(builder.build())

    def test_max_iterations_flags_incomplete(self):
        result = symbolic_int_explore(
            modulo_counter_process(6), SymbolicOptions(max_iterations=1)
        )
        assert not result.complete
        with pytest.raises(BoundReached):
            result.check_invariant(P.always())


# --------------------------------------------------------------------------- multiplication

class TestMultiplication:
    def test_product_against_explicit(self):
        builder = ProcessBuilder("Product")
        a = builder.input("a", "integer")
        b = builder.input("b", "integer")
        builder.define(builder.output("p", "integer"), a * b)
        process = builder.build()
        from repro.verification import ExplorationOptions

        domain = (0, 1, 2, 3)
        explicit = explore(process, ExplorationOptions(integer_domain=domain))
        result = symbolic_int_explore(process, SymbolicOptions(integer_domain=domain))
        for k in range(-1, 11):
            expected = explicit.check_reachable(P.value("p", lambda v, k=k: v == k)).holds
            assert result.check_reachable(P.value("p", lambda v, k=k: v == k)).holds == expected, k


# --------------------------------------------------------------------------- refinement edges
#
# Comparison-refinement corners of ranges.py that the partitioned engine now
# exercises per bit-vector fragment: windows entirely below zero, sampling
# conditions that pin a signal to one value ([k, k] -> zero bits), and
# refinement flowing through chains of ``default`` merges.  Each inference
# pin is paired with a differential check against the explicit explorer, so
# the window is not just *computed* but demonstrably sound per fragment.

def negative_window_process():
    """``y := x when x < 0`` over a declared signed input: a window < 0."""
    builder = ProcessBuilder("NegWindow")
    x = builder.input("x", "integer", bounds=(-4, 3))
    builder.define(builder.output("y", "integer"), x.when(x.lt(0)))
    return builder.build()


def pinned_value_process():
    """``y := x when x = 2``: refinement collapses y to the point [2, 2]."""
    builder = ProcessBuilder("Pinned")
    x = builder.input("x", "integer")
    builder.define(builder.output("y", "integer"), x.when(x.eq(2)))
    return builder.build()


def default_chain_process():
    """Refinement through a ``default`` chain of disjoint sampled windows."""
    builder = ProcessBuilder("Chain")
    x = builder.input("x", "integer", bounds=(0, 9))
    builder.define(
        builder.output("y", "integer"),
        x.when(x.lt(3)).default(const(7).when(x.ge(3))),
    )
    return builder.build()


class TestComparisonRefinementEdges:
    def test_negative_window_inferred_and_sound(self):
        process = negative_window_process()
        domain = (-4, -1, 0, 3)
        report = infer_ranges(process, integer_domain=domain)
        assert report.range_of("x") == (-4, 3)
        assert report.range_of("y") == (-4, -1)  # the window sits entirely below 0
        from repro.verification import ExplorationOptions

        explicit = explore(process, ExplorationOptions(integer_domain=domain))
        result = symbolic_int_explore(process, SymbolicOptions(integer_domain=domain))
        assert result.complete
        for k in range(-5, 4):
            predicate = P.value("y", lambda v, k=k: v == k)
            assert (
                result.check_reachable(predicate).holds
                == explicit.check_reachable(predicate).holds
            ), k

    def test_mirrored_constant_comparison_refines_too(self):
        """``k > x`` is normalised to ``x < k`` before refining."""
        builder = ProcessBuilder("Mirrored")
        x = builder.input("x", "integer", bounds=(0, 9))
        builder.define(builder.output("y", "integer"), x.when(const(4).gt(x)))
        report = infer_ranges(builder.build())
        assert report.range_of("y") == (0, 3)

    def test_equality_refinement_pins_to_zero_bits(self):
        """``x when x = 2`` infers [2, 2]; the engine spends zero value bits
        on it and still agrees with the explicit explorer."""
        process = pinned_value_process()
        domain = (0, 1, 2, 3)
        report = infer_ranges(process, integer_domain=domain)
        assert report.range_of("y") == (2, 2)
        engine_result = symbolic_int_explore(process, SymbolicOptions(integer_domain=domain))
        from repro.verification.symbolic_int import IntSymbolicEngine

        engine = IntSymbolicEngine(process, SymbolicOptions(integer_domain=domain))
        assert engine._signal_bit_names("y") == ["y.p"]  # presence only, zero value bits
        from repro.verification import ExplorationOptions

        explicit = explore(process, ExplorationOptions(integer_domain=domain))
        only_two = P.absent("y") | P.value("y", lambda v: v == 2)
        assert engine_result.check_invariant(only_two).holds
        assert explicit.check_invariant(only_two).holds
        present = P.present("y")
        assert (
            engine_result.check_reachable(present).holds
            == explicit.check_reachable(present).holds
            is True
        )

    def test_refinement_through_default_chain(self):
        """The merge hulls a refined window with a constant branch: the chain
        ``(x when x < 3) default (7 when x >= 3)`` lands on [0, 7]."""
        process = default_chain_process()
        domain = (0, 2, 3, 8)
        report = infer_ranges(process, integer_domain=domain)
        assert report.range_of("y") == (0, 7)
        from repro.verification import ExplorationOptions

        explicit = explore(process, ExplorationOptions(integer_domain=domain))
        result = symbolic_int_explore(process, SymbolicOptions(integer_domain=domain))
        assert result.complete
        for k in (0, 1, 2, 3, 6, 7):
            predicate = P.value("y", lambda v, k=k: v == k)
            assert (
                result.check_reachable(predicate).holds
                == explicit.check_reachable(predicate).holds
            ), k

    def test_refinement_default_chain_with_nested_windows(self):
        """Chained defaults refine each branch independently before hulling."""
        builder = ProcessBuilder("Nested")
        x = builder.input("x", "integer", bounds=(0, 9))
        chain = x.when(x.le(1)).default(x.when(x.ge(8)))
        builder.define(builder.output("y", "integer"), chain)
        report = infer_ranges(builder.build())
        # [0, 1] hulled with [8, 9]: the hull spans the gap, conservatively.
        assert report.range_of("y") == (0, 9)


# --------------------------------------------------------------------------- build-time reorders

class TestBuildTimeReorders:
    def test_mid_build_reorder_keeps_the_clock_conjunction_alive(self):
        """Regression: with auto-reorder armed low enough to fire during the
        equation loop, the clocks conjunction (consumed only at the end of
        the build) must survive the garbage-collecting checkpoints — it used
        to be swept, corrupting the relation (duplicate-node assertion, or
        silently wrong verdicts)."""
        builder = ProcessBuilder("ManyClocks")
        inputs = [builder.input(f"i{k}", "boolean") for k in range(4)]
        outputs = [builder.output(f"o{k}", "boolean") for k in range(6)]
        for k, out in enumerate(outputs):
            left = inputs[k % 4]
            right = inputs[(k + 1) % 4]
            builder.define(out, (left & right).default(left.delayed(False)))
        builder.synchronize(inputs[0], inputs[1])
        builder.synchronize(inputs[2], inputs[3])
        process = builder.build()

        for threshold in (64, 128, 300):
            result = symbolic_int_explore(
                process, SymbolicOptions(reorder="auto", reorder_threshold=threshold)
            )
            assert result.complete
            explicit = explore(process)
            assert result.state_count == explicit.state_count
            for predicate in (
                P.present("o0") & P.present("o5"),
                P.true_of("o2"),
                P.never(),
            ):
                assert (
                    result.check_reachable(predicate).holds
                    == explicit.check_reachable(predicate).holds
                ), repr(predicate)

    def test_mid_build_reorder_on_integer_fragments(self):
        """The same low-threshold build on integer data: clip conditions,
        memoised sub-circuits and the relaxed relation all survive."""
        process = saturating_accumulator_process(20)
        result = symbolic_int_explore(
            process, SymbolicOptions(reorder="auto", reorder_threshold=200)
        )
        assert result.complete
        explicit = explore(process)
        assert result.state_count == explicit.state_count
        bound = P.absent("total") | P.value("total", lambda v: 0 <= v <= 20)
        assert result.check_invariant(bound).holds
        assert explicit.check_invariant(bound).holds
