"""Tests for the bounded denotational semantics and remaining SIGNAL utilities."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.properties import check_endochrony
from repro.core.relaxation import flows
from repro.core.values import ABSENT, EVENT
from repro.epc.signal_model import epc_signal_composition
from repro.signal.ast import Cell, ClockOf
from repro.signal.dsl import ProcessBuilder, call, const, sig
from repro.signal.library import STANDARD_PROCESSES, merge_process, switch_process
from repro.signal.operators import EvaluationError, apply_binary, apply_intrinsic, apply_unary
from repro.signal.parser import parse_expression
from repro.signal.printer import render_expression
from repro.signal.semantics import bounded_denotation, denotation, enumerate_scenarios, flows_denotation
from repro.simulation import Simulator


class TestOperators:
    def test_binary_and_unary_application(self):
        assert apply_binary("+", 2, 3) == 5
        assert apply_binary("mod", 7, 3) == 1
        assert apply_binary("=", True, True) is True
        assert apply_unary("not", False) is True
        assert apply_unary("-", 4) == -4
        with pytest.raises(EvaluationError):
            apply_binary("??", 1, 2)
        with pytest.raises(EvaluationError):
            apply_binary("/", 1, 0)

    def test_intrinsics(self):
        assert apply_intrinsic("rshift", 8) == 4
        assert apply_intrinsic("xand", 6, 3) == 2
        assert apply_intrinsic("parity", 7) == 1
        assert apply_intrinsic("popcount", 255) == 8
        with pytest.raises(EvaluationError):
            apply_intrinsic("nope", 1)


class TestPrinterEdgeCases:
    def test_cell_and_clockof_render_and_reparse(self):
        expr = Cell(sig("x"), sig("c"), 5)
        text = render_expression(expr)
        assert "cell" in text and "init 5" in text
        assert parse_expression(text) == expr
        clock = ClockOf(sig("x"))
        assert parse_expression(render_expression(clock)) == clock

    def test_nested_precedence_round_trip(self):
        source = "((a + 1) * b) when (not c or d)"
        expr = parse_expression(source)
        assert parse_expression(render_expression(expr)) == expr


class TestBoundedSemantics:
    def test_denotation_collects_behaviors(self):
        process = denotation(
            merge_process(),
            scenarios=[
                [{"a": 1, "b": ABSENT}],
                [{"a": ABSENT, "b": 2}],
            ],
            observed=["a", "b", "y"],
        )
        assert len(process) == 2
        assert {flows(b)["y"] for b in process} == {(1,), (2,)}

    def test_denotation_skips_inconsistent_scenarios(self):
        process = denotation(
            switch_process(),
            scenarios=[
                [{"x": 1, "c": True}],
                [{"x": 1, "c": ABSENT}],  # violates x ^= c
            ],
            observed=["x", "c", "t", "f"],
        )
        assert len(process) == 1

    def test_enumerate_scenarios_counts(self):
        scenarios = enumerate_scenarios(merge_process(), horizon=1, integer_values=(0,))
        # Each of a, b ranges over {ABSENT, 0}: 4 single-instant scenarios.
        assert len(scenarios) == 4
        limited = enumerate_scenarios(merge_process(), horizon=2, integer_values=(0,), limit=5)
        assert len(limited) == 5

    def test_bounded_denotation_supports_endochrony_check(self):
        process = bounded_denotation(switch_process(), horizon=1, integer_values=(0, 1))
        assert check_endochrony(process, ["x", "c"]).holds

    def test_flows_denotation(self):
        builder = ProcessBuilder("Doubler")
        x = builder.input("x", "integer")
        y = builder.output("y", "integer")
        builder.define(y, x * 2)
        builder.synchronize(y, x)
        process = flows_denotation(builder.build(), [{"x": [1, 2]}, {"x": [5]}], observed=["x", "y"])
        assert {flows(b)["y"] for b in process} == {(2, 4), (10,)}


class TestLibraryCatalogue:
    def test_standard_processes_build_and_analyse(self):
        for name, factory in STANDARD_PROCESSES.items():
            process = factory()
            assert process.name == name
            assert process.output_names  # every library process produces something


class TestEpcSignalComposition:
    def test_composition_wires_ones_to_evenio(self):
        composite = epc_signal_composition()
        assert "Inport" in composite.input_names
        assert "parity" in composite.output_names
        simulator = Simulator(composite)
        trace = simulator.run_flows({"Inport": [13, 7]}, tick={"tick": EVENT}, max_reactions=200)
        assert trace.values("Outport") == [3, 3]
        assert trace.values("parity") == [0, 0]


@given(st.lists(st.integers(min_value=0, max_value=255), min_size=1, max_size=6))
@settings(max_examples=25, deadline=None)
def test_endochronous_ones_matches_popcount_on_random_workloads(workload):
    """Property: the endochronous SIGNAL ones computes popcount for any flow."""
    from repro.epc.signal_model import ones_endochronous_process

    simulator = Simulator(ones_endochronous_process())
    trace = simulator.run_flows({"Inport": workload}, tick={"tick": EVENT}, max_reactions=40 * len(workload) + 50)
    assert trace.values("Outport") == [bin(word).count("1") for word in workload]
