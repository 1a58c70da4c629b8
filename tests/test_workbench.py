"""Tests for the workbench layer: the Design facade, artifact memoisation,
the ``backend="auto"`` route, and the batch-checking API."""

import pytest

from repro.core.values import ABSENT, EVENT
from repro.signal.dsl import ProcessBuilder, const
from repro.signal.library import (
    alternator_process,
    boolean_shift_register_process,
    count_process,
    modulo_counter_process,
)
from repro.simulation import PRESENT
from repro.verification import (
    BoundReached,
    EncodingError,
    ExplorationOptions,
    ReactionPredicate,
    invariant_holds,
    reaction_reachable,
    synthesise_with,
)
from repro.verification.encoding import PolynomialReachability
from repro.verification.explorer import ExplorationResult
from repro.verification.symbolic_int import IntSymbolicReachability
from repro.workbench import Design, Property, Report

P = ReactionPredicate


class TestConstruction:
    def test_from_process(self):
        design = Design.from_process(alternator_process())
        assert design.name == "Alternator"
        assert design.process.name == "Alternator"

    def test_from_source(self):
        design = Design.from_source(
            """
            process Filter = (? integer sample; boolean keep ! integer kept)
              (| kept := sample when keep
               | sample ^= keep
              |) end;
            """
        )
        assert design.name == "Filter"
        assert design.source is not None
        assert design.is_endochronous

    def test_from_builder(self):
        builder = ProcessBuilder("Latch")
        x = builder.input("x", "boolean")
        builder.define(builder.output("held", "boolean"), x.delayed(False))
        design = Design.from_builder(builder)
        assert design.name == "Latch"
        assert design.encodable

    def test_builder_design_shortcut(self):
        builder = ProcessBuilder("Latch")
        x = builder.input("x", "boolean")
        builder.define(builder.output("held", "boolean"), x.delayed(False))
        design = builder.design()
        assert isinstance(design, Design)
        assert design.name == "Latch"

    def test_from_specc_keeps_translation(self):
        from repro.epc import ones_behavior

        design = Design.from_specc(ones_behavior())
        assert design.translation is not None
        assert design.translation.process is design.process
        assert "tick" in design.process.input_names

    def test_translation_design_shortcut(self):
        from repro.epc import ones_behavior
        from repro.specc import translate_behavior

        translation = translate_behavior(ones_behavior())
        design = translation.design()
        assert design.translation is translation

    def test_from_compiled_process_seeds_artifact(self):
        from repro.simulation import CompiledProcess

        compiled = CompiledProcess(alternator_process())
        design = Design.from_process(compiled)
        assert design.compiled is compiled
        # Seeded, not computed: the counter records no compilation.
        assert "compiled" not in design.artifact_counts


class TestMemoisation:
    def test_each_artifact_computed_exactly_once_across_batch(self):
        """The acceptance criterion: k >= 4 properties, one artifact each."""
        design = Design.from_process(boolean_shift_register_process(6))
        invariants = {
            f"stage-{i}": P.present(f"s{i}").implies(P.present("x")) for i in range(4)
        }
        report = design.check_all(
            invariants=invariants, reachables={"tail": P.present("s5")}, backend="symbolic-int"
        )
        assert len(report) == 5
        assert report.all_hold
        assert design.artifact_counts["compiled"] == 1
        assert design.artifact_counts["symbolic_int_engine"] == 1
        assert design.artifact_counts["symbolic_int"] == 1
        # A second batch reuses everything.
        again = design.check_all(invariants=invariants, backend="symbolic-int")
        assert again.all_hold
        assert design.artifact_counts["symbolic_int"] == 1

    def test_trace_extraction_reuses_the_memoised_fixpoint(self):
        """Storing frontiers is free: a traces=True batch (and a repeat of it)
        computes the reachable set exactly once — ring storage and backward
        walking never re-run the forward fixpoint."""
        design = Design.from_process(boolean_shift_register_process(5))
        properties = {"tail-fires": P.present("s4")}
        report = design.check_all(reachables=properties, backend="symbolic-int", traces=True)
        assert report["tail-fires"].trace is not None
        assert design.artifact_counts["symbolic_int"] == 1
        assert design.artifact_counts["symbolic_int_engine"] == 1
        again = design.check_all(reachables=properties, backend="symbolic-int", traces=True)
        assert again["tail-fires"].trace is not None
        assert design.artifact_counts["symbolic_int"] == 1
        assert design.artifact_counts["ranges"] == 1

    def test_explicit_backend_explores_once(self):
        design = Design.from_process(alternator_process())
        properties = [P.present("flip").implies(P.present("tick")) for _ in range(4)]
        report = design.check(*properties, backend="explicit")
        assert report.all_hold
        assert design.artifact_counts["exploration"] == 1
        design.check(*properties, backend="explicit")
        assert design.artifact_counts["exploration"] == 1

    def test_polynomial_backend_enumerates_once(self):
        design = Design.from_process(alternator_process())
        for _ in range(3):
            design.check(P.always(), backend="polynomial")
        assert design.artifact_counts["encoding"] == 1
        assert design.artifact_counts["polynomial"] == 1

    def test_encoding_failure_is_memoised(self):
        design = Design.from_process(count_process())
        for _ in range(3):
            with pytest.raises(EncodingError):
                design.encoding
        assert design.artifact_counts["encoding"] == 1
        assert not design.encodable

    def test_clock_artifacts_are_shared(self):
        design = Design.from_process(alternator_process())
        hierarchy = design.clock_hierarchy
        report = design.endochrony
        assert report.hierarchy is hierarchy
        assert design.artifact_counts["hierarchy"] == 1

    def test_invalidate_recomputes(self):
        design = Design.from_process(alternator_process())
        first = design.exploration
        design.invalidate("exploration")
        second = design.exploration
        assert first is not second
        assert design.artifact_counts["exploration"] == 2

    def test_invalidate_cascades_to_dependents(self):
        """Dropping an upstream artifact drops everything derived from it."""
        from repro.verification import SymbolicOptions

        design = Design.from_process(boolean_shift_register_process(5))
        assert design.symbolic_int.complete
        design.symbolic_options = SymbolicOptions(max_iterations=1)
        design.invalidate("symbolic_int_engine")
        # The fixpoint must rebuild on a fresh engine carrying the new options.
        assert not design.symbolic_int.complete

    def test_invalidate_cascade(self):
        """invalidate("encoding") must drop every verification artifact built
        over it — including the BDD engine and fixpoint, which the auto
        policy routes through the same encodability probe, and the frontier
        rings the fixpoint stores for trace extraction (they live on the
        symbolic artifact, so they go with it)."""
        design = Design.from_process(boolean_shift_register_process(5))
        design.encoding
        design.polynomial
        rings = design.symbolic_int.frontiers
        assert rings
        design.invalidate("encoding")
        for artifact in ("encoding", "polynomial", "symbolic_int_engine", "symbolic_int"):
            assert artifact not in design._artifacts
        # The compiled process and range report were not downstream of the
        # encoding; they survive.
        assert "compiled" in design._artifacts
        assert "ranges" in design._artifacts
        # A recomputed fixpoint carries fresh rings (the old ones were dropped
        # with their artifact), and the same number of onion layers.
        assert design.symbolic_int.frontiers is not rings
        assert len(design.symbolic_int.frontiers) == len(rings)

    def test_invalidate_compiled_drops_trace_frontiers(self):
        """invalidate("compiled") takes the integer fixpoint — and with it the
        frontier rings trace extraction walks — along the cascade."""
        design = Design.from_process(modulo_counter_process(4))
        rings = design.symbolic_int.frontiers
        assert rings
        design.invalidate("compiled")
        assert "symbolic_int" not in design._artifacts
        assert design.symbolic_int.frontiers is not rings

    def test_invalidate_compiled_cascades_to_integer_engine(self):
        from repro.verification import SymbolicOptions

        design = Design.from_process(modulo_counter_process(4))
        assert design.symbolic_int.complete
        design.symbolic_options = SymbolicOptions(max_iterations=1)
        design.invalidate("compiled")
        for artifact in ("ranges", "symbolic_int_engine", "symbolic_int"):
            assert artifact not in design._artifacts
        # The rebuilt fixpoint runs on a fresh engine carrying the new options.
        assert not design.symbolic_int.complete


class TestAutoSelection:
    def test_integer_data_process_picks_explicit(self):
        """Count carries integer data: only the explicit engine can answer."""
        design = Design.from_process(
            count_process(),
            exploration_options=ExplorationOptions(extra_driven=["val"], integer_domain=(0, 1, 2)),
        )
        report = design.check_all(
            invariants={"val-with-reset-or-not": P.present("val") | P.absent("val")},
            reachables={"reset-fires": P.present("reset")},
        )
        assert report.backend_name == "explicit"
        assert report.all_hold
        assert "symbolic_int" not in design.artifact_counts

    def test_large_boolean_process_picks_symbolic(self):
        """2^14+ potential states: auto goes symbolic, never explores explicitly."""
        design = Design.from_process(boolean_shift_register_process(14))
        report = design.check_all(
            invariants={"tail-needs-head": P.present("s13").implies(P.present("x"))}
        )
        assert report.backend_name == "symbolic-int"
        assert report.state_count == 2 ** 14
        assert report.all_hold
        assert "exploration" not in design.artifact_counts

    def test_deep_register_routes_to_the_bdd_engine(self):
        """The routing bound is 3^(state variables) of the Z/3Z encoding."""
        design = Design.from_process(boolean_shift_register_process(18), cache=None)
        assert design.potential_state_bound == 3 ** 18
        report = design.check_all(
            invariants={"tail-needs-head": P.present("s17").implies(P.present("x"))},
            reachables={"tail-rises": P.true_of("s17")},
            traces=True,
        )
        assert report.backend_name == "symbolic-int"
        assert report.state_count == 2 ** 18
        assert report.all_hold
        assert len(report["tail-rises"].trace) == 19

    def test_removed_z3z_backend_name_is_unknown(self):
        """The Z/3Z BDD engine was registered as "symbolic"; the name is gone."""
        removed = "symbolic"
        design = Design.from_process(alternator_process())
        with pytest.raises(LookupError):
            design.check(P.always(), backend=removed)

    def test_symbolic_options_reach_the_engine_through_design(self):
        """The sifting configuration: a low reorder threshold and a low
        routing threshold send a shuffled depth-7 register to the BDD engine,
        which sifts at that threshold (and not at the default one)."""
        import random

        from repro.verification import SymbolicOptions

        order = list(range(7))
        random.Random(5).shuffle(order)
        builder = ProcessBuilder("Shuffled7")
        x = builder.input("x", "boolean")
        stages = [builder.output(f"s{index}", "boolean") for index in range(7)]
        for index in order:
            builder.define(stages[index], (x if index == 0 else stages[index - 1]).delayed(False))
        process = builder.build()
        properties = {"tail-needs-head": P.present("s6").implies(P.present("x"))}
        reorders = {}
        for threshold in (2000, None):
            options = {} if threshold is None else {"reorder_threshold": threshold}
            design = Design.from_process(
                process,
                symbolic_options=SymbolicOptions(**options),
                symbolic_state_threshold=100,
                cache=None,
            )
            report = design.check_all(invariants=properties, traces=True)
            assert report.backend_name == "symbolic-int"
            assert report.state_count == 2 ** 7 and report.all_hold
            reorders[threshold] = report.engine_statistics["reorders"]
        assert reorders[2000] >= 1
        assert reorders[None] == 0

    def test_one_integer_domain_for_both_engines(self):
        """``ExplorationOptions.integer_domain`` is the one stimulus alphabet:
        the BDD engine takes it through the design's range report, so
        ``explicit`` and ``symbolic-int`` agree on it."""
        builder = ProcessBuilder("Adder")
        x = builder.input("x", "integer")
        builder.define(builder.output("y", "integer"), x + const(1))
        design = Design.from_builder(
            builder,
            exploration_options=ExplorationOptions(integer_domain=(0, 1, 2)),
            cache=None,
        )
        assert tuple(design.integer_domain) == (0, 1, 2)
        assert design.ranges.integer_domain == (0, 1, 2)
        assert design.symbolic_int_engine.ranges is design.ranges
        assert design.ranges.range_of("y") == (1, 3)
        reachables = {
            f"y-reaches-{k}": P.value("y", lambda v, k=k: v == k) for k in range(5)
        }
        verdicts = {
            backend: {
                check.name: check.result.holds
                for check in design.check_all(reachables=reachables, backend=backend).checks
            }
            for backend in ("explicit", "symbolic-int")
        }
        assert verdicts["explicit"] == verdicts["symbolic-int"]
        assert verdicts["explicit"] == {
            "y-reaches-0": False, "y-reaches-1": True, "y-reaches-2": True,
            "y-reaches-3": True, "y-reaches-4": False,
        }

    def test_small_boolean_process_prefers_explicit_reference(self):
        design = Design.from_process(alternator_process())
        report = design.check(P.always())
        assert report.backend_name == "explicit"

    def test_value_predicates_force_concrete_backend(self):
        """A value atom needs a concrete backend: explicit while the design is
        small, the exhaustive bit-blasted engine once it outgrows the
        explicit bound."""
        small = Design.from_process(boolean_shift_register_process(4))
        assert small.backend_info(
            "auto", predicates=(P.value("x", lambda v: v is True),)
        ).name == "explicit"
        large = Design.from_process(boolean_shift_register_process(14))
        assert large.backend_info(
            "auto", predicates=(P.value("x", lambda v: v is True),)
        ).name == "symbolic-int"


#: Library designs routed below: a builder and a signal for the value atom.
ROUTED_DESIGNS = {
    "shift-3": (lambda: boolean_shift_register_process(3), "x"),
    "shift-12": (lambda: boolean_shift_register_process(12), "x"),
    "modcounter-3": (lambda: modulo_counter_process(3), "n"),
    "modcounter-40": (lambda: modulo_counter_process(40), "n"),
    "count-unbounded": (count_process, "val"),
}


@pytest.mark.parametrize("value_atom", [False, True], ids=["skeleton", "value-atom"])
@pytest.mark.parametrize("threshold", [None, 10, 100_000], ids=["default", "10", "100000"])
@pytest.mark.parametrize("design_name", list(ROUTED_DESIGNS))
def test_auto_route_is_the_state_bound_rule(design_name, threshold, value_atom):
    """``backend="auto"`` is symbolic-int exactly when the potential state
    bound exceeds the threshold, explicit otherwise — value atoms or not."""
    build, signal = ROUTED_DESIGNS[design_name]
    design = Design.from_process(build(), symbolic_state_threshold=threshold, cache=None)
    predicate = (
        P.absent(signal) | P.value(signal, lambda value: value is not None)
        if value_atom
        else P.always()
    )
    bound = design.potential_state_bound
    large = bound is not None and bound > design.symbolic_state_threshold
    expected = "symbolic-int" if large else "explicit"
    assert design.backend_info("auto", predicates=(predicate,)).name == expected
    assert design.check_all(invariants={"p": predicate}).backend_name == expected


class TestRegistry:
    """The fixed table of backend names and the engines behind them."""

    def test_default_registry_names_and_capabilities(self):
        """The three engine classes behind the backend names declare the
        capabilities reports print."""
        design = Design.from_process(alternator_process())
        engines = {
            "explicit": ExplorationResult,
            "polynomial": PolynomialReachability,
            "symbolic-int": IntSymbolicReachability,
        }
        for name, engine in engines.items():
            assert design.backend_info(name) == (name, engine.capabilities())
        assert ExplorationResult.capabilities().integer_data
        assert ExplorationResult.capabilities().synthesis
        assert not PolynomialReachability.capabilities().synthesis
        assert IntSymbolicReachability.capabilities().integer_data
        assert not IntSymbolicReachability.capabilities().bounded
        assert IntSymbolicReachability.capabilities().synthesis

    def test_unknown_backend_lookup(self):
        design = Design.from_process(alternator_process())
        with pytest.raises(LookupError):
            design.check(P.always(), backend="no-such-engine")


class TestBatchAPI:
    def test_report_structure(self):
        design = Design.from_process(boolean_shift_register_process(4))
        report = design.check_all(
            invariants={"ok": P.present("s3").implies(P.present("x"))},
            reachables={"tail": P.present("s3"), "never": P.present("s3") & P.absent("s3")},
        )
        assert isinstance(report, Report)
        assert report["ok"].holds is True
        assert report["tail"].kind == "reachable"
        assert report["never"].holds is False
        assert not report.all_hold
        assert [c.name for c in report.failed] == ["never"]
        assert "ok" in report and "missing" not in report
        assert report[0].name == "ok"
        with pytest.raises(KeyError):
            report["missing"]
        assert "properties hold" in report.summary()

    def test_report_surfaces_engine_statistics(self):
        """The statistics hook: BDD pressure for the symbolic backend, state and
        transition counts for the explicit one, rendered in summary()."""
        design = Design.from_process(boolean_shift_register_process(4))
        symbolic = design.check(
            ("ok", P.present("s3").implies(P.present("x"))), backend="symbolic-int"
        )
        stats = symbolic.engine_statistics
        assert stats["peak_nodes"] >= stats["live_nodes"] > 0
        assert stats["clusters"] >= 1
        assert stats["iterations"] == len(design.symbolic_int.frontiers)
        assert "reorders" in stats
        assert "engine:" in symbolic.summary()
        assert f"clusters={stats['clusters']}" in symbolic.summary()

        explicit = design.check(
            ("ok", P.present("s3").implies(P.present("x"))), backend="explicit"
        )
        assert explicit.engine_statistics["states"] == 16
        assert explicit.engine_statistics["transitions"] > 0

    def test_check_auto_names_and_pairs(self):
        design = Design.from_process(alternator_process())
        report = design.check(
            P.always(),
            ("named", P.present("flip").implies(P.present("tick"))),
            Property.reachable("flips", P.present("flip")),
        )
        assert [c.name for c in report.checks] == ["P1", "named", "flips"]
        assert report.all_hold

    def test_check_all_requires_properties(self):
        design = Design.from_process(alternator_process())
        with pytest.raises(ValueError):
            design.check_all()

    def test_invalid_property_type(self):
        design = Design.from_process(alternator_process())
        with pytest.raises(TypeError):
            design.check(42)

    def test_truncated_backend_refusal_is_reported_not_raised(self):
        design = Design.from_process(
            boolean_shift_register_process(8),
            exploration_options=ExplorationOptions(max_states=10),
        )
        report = design.check_all(
            invariants={"holds-but-truncated": P.present("s7").implies(P.present("x"))},
            reachables={"tail": P.present("s7")},
            backend="explicit",
        )
        assert not report.complete
        refused = report["holds-but-truncated"]
        assert refused.holds is None
        assert "truncated" in refused.error
        assert not report.all_hold
        assert "REFUSED" in report.summary()

    def test_batch_and_single_checks_agree(self):
        process = boolean_shift_register_process(5)
        design = Design.from_process(process)
        predicate = P.present("s4").implies(P.present("x"))
        batch = design.check_all(invariants={"p": predicate}, backend="symbolic-int")
        single = design.symbolic_int.check_invariant(predicate, "p")
        assert batch["p"].holds == single.holds

    def test_synthesise_through_facade_symbolic_and_explicit(self):
        process = boolean_shift_register_process(10)
        design = Design.from_process(process)
        verdict = design.synthesise(P.absent("s9") | P.present("x"), ["x"])
        assert design.backend_info("auto").name == "symbolic-int"
        small = Design.from_process(boolean_shift_register_process(3))
        explicit = small.synthesise(P.absent("s2") | P.present("x"), ["x"], backend="explicit")
        assert verdict.success == explicit.success


class TestLegacyWrappers:
    def test_wrapper_routes_value_atoms_to_concrete_backend(self):
        """A value atom on a large boolean design goes to a concrete engine —
        the exhaustive bit-blasted one rather than a truncating explicit
        exploration — and the wrapper checks on the engine it is handed."""
        design = Design.from_process(boolean_shift_register_process(10))
        predicate = P.absent("x") | P.value("x", lambda v: isinstance(v, bool))
        assert invariant_holds(design.backend(), predicate).holds
        assert "symbolic_int" in design.artifact_counts
        assert "exploration" not in design.artifact_counts

    def test_non_backend_target_still_rejected(self):
        with pytest.raises(TypeError):
            invariant_holds(42, P.always())
        design = Design.from_process(alternator_process())
        for wrapper, arguments in (
            (invariant_holds, (P.always(),)),
            (reaction_reachable, (P.present("flip"),)),
            (synthesise_with, (P.always(), ["tick"])),
        ):
            with pytest.raises(TypeError):
                wrapper(design, *arguments)
        assert reaction_reachable(design.backend(), P.present("flip")).holds


class TestSimulationFacade:
    def test_simulate_scenario(self):
        design = Design.from_process(count_process())
        trace = design.simulate(
            [
                {"reset": EVENT, "val": PRESENT},
                {"reset": ABSENT, "val": PRESENT},
            ]
        )
        assert trace.values("val") == [0, 1]
        assert design.artifact_counts["simulator"] == 1
        assert design.artifact_counts["compiled"] == 1

    def test_simulate_columns(self):
        builder = ProcessBuilder("Double")
        x = builder.input("x", "integer")
        builder.define(builder.output("y", "integer"), x + x)
        design = builder.design()
        trace = design.simulate_columns({"x": [1, 2, 3]})
        assert trace.values("y") == [2, 4, 6]

    def test_simulator_shares_compiled_artifact(self):
        design = Design.from_process(count_process())
        assert design.simulator.compiled is design.compiled
        assert design.artifact_counts["compiled"] == 1


class TestValuePredicate:
    def test_value_atom_on_concrete_reactions(self):
        predicate = P.value("load", lambda v: v <= 2)
        assert predicate.evaluate({"load": 1})
        assert not predicate.evaluate({"load": 3})
        assert not predicate.evaluate({})
        assert predicate.signals() == {"load"}

    def test_explicit_check_with_value_atom_through_facade(self):
        builder = ProcessBuilder("Adder")
        x = builder.input("x", "integer")
        builder.define(builder.output("y", "integer"), x + const(1))
        design = Design.from_builder(
            builder,
            exploration_options=ExplorationOptions(integer_domain=(0, 1, 2)),
        )
        report = design.check_all(
            invariants={"y-bounded": P.absent("y") | P.value("y", lambda v: v <= 3)}
        )
        assert report.backend_name == "explicit"
        assert report.all_hold
