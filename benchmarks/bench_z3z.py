"""E11 (Sigali substrate): the Z/3Z polynomial encoding of SIGNAL processes.

Benchmarks the polynomial algebra itself (products, substitution) and the
encoding + reachability/invariant checking of boolean control skeletons, i.e.
what Sigali does symbolically in the paper's tool-chain.
"""

import pytest

from repro.signal.library import alternator_process, edge_detector_process
from repro.verification import encode_process
from repro.verification.z3z import (
    Polynomial,
    PolynomialSystem,
    default_constraint,
    from_code,
    is_false,
    is_true,
    presence,
    synchronous_constraint,
    to_code,
    when_constraint,
)
from repro.core.values import ABSENT


def test_characteristic_polynomials():
    """The ternary encodings of presence / truth behave as Sigali defines them."""
    for code, present, true, false in [(0, 0, 0, 0), (1, 1, 1, 0), (2, 1, 0, 1)]:
        assert presence("x").evaluate({"x": code}) == present
        assert is_true("x").evaluate({"x": code}) == true
        assert is_false("x").evaluate({"x": code}) == false
    assert from_code(to_code(ABSENT)) is ABSENT
    assert from_code(to_code(True)) is True
    assert from_code(to_code(False)) is False


def test_primitive_constraints_characterise_the_primitives():
    """`when` and `default` polynomial constraints admit exactly the right solutions."""
    system = PolynomialSystem([when_constraint("r", "y", "c")])
    for solution in system.solutions(["r", "y", "c"]):
        y, c, r = solution["y"], solution["c"], solution["r"]
        expected = y if c == 1 else 0
        assert r == expected

    system = PolynomialSystem([default_constraint("r", "a", "b")])
    for solution in system.solutions(["r", "a", "b"]):
        a, b, r = solution["a"], solution["b"], solution["r"]
        assert r == (a if a != 0 else b)


@pytest.mark.parametrize("variables", [6, 9])
def test_bench_polynomial_products(benchmark, variables):
    """Cost of multiplying out presence polynomials over many variables."""
    names = [f"x{i}" for i in range(variables)]

    def run():
        product = Polynomial.constant(1)
        for name in names:
            product = product * (presence(name) + 1)
        return product

    result = benchmark(run)
    assert not result.is_zero()


def test_bench_sigali_encoding_and_invariant(benchmark):
    """Encode the alternator and check its flip/tick synchronisation invariant."""
    process = alternator_process()

    def run():
        system = encode_process(process)
        invariant = synchronous_constraint("flip", "tick")
        return system, system.check_invariant(invariant)

    system, holds = benchmark(run)
    assert holds
    explored = system.explore()
    assert explored.complete
    assert explored.state_count == 2


def test_bench_sigali_reachability(benchmark):
    """Reachable ternary state space of the edge detector."""
    system = encode_process(edge_detector_process())
    explored = benchmark(lambda: system.explore())
    assert explored.complete
    assert 1 <= explored.state_count <= 3


def test_sigali_detects_violated_invariant():
    """A deliberately wrong invariant is refuted on the alternator."""
    system = encode_process(alternator_process())
    always_true = is_false("flip")  # "flip is always false" — wrong
    assert not system.check_invariant(always_true)
