"""Adversarial equation orders: partitioned relations + sifting vs monolithic.

The symbolic engine declares BDD variables in first-use/constraint-locality
order, which is excellent when the equations arrive in dataflow order — and
terrible when they do not.  The design here is a plain ``depth``-stage shift
register whose equations are *shuffled*: the declaration order scatters the
chain, so the monolithic transition relation ``∧ᵢ (sᵢ₊₁' ↔ sᵢ)`` links
variable pairs far apart in the order and its BDD grows exponentially with
the layout's cutwidth (the classic ordering pathology).  Two mechanisms of
the relational core neutralise it:

* **partitioning** — the relation is kept as per-equation conjuncts with
  early quantification (:mod:`repro.verification.relational`), so the
  exponential conjunction is never materialised;
* **dynamic reordering** — Rudell sifting
  (:meth:`repro.clocks.bdd.BDDManager.reorder`) recovers a chain-adjacent
  order at the engine's growth checkpoints, shrinking the fixpoint's
  working BDDs.

The headline test pins the claim quantitatively: under one shared node
budget the static monolithic encoding *exhausts the budget*
(:class:`~repro.clocks.bdd.NodeBudgetExceeded`) while the partitioned +
sifted configuration completes the same design with a peak node count at
least 2x below the budget it never hit.
"""

import random

import pytest

from repro.clocks.bdd import NodeBudgetExceeded
from repro.signal.dsl import ProcessBuilder
from repro.verification import IntSymbolicEngine, SymbolicOptions

#: Shared unique-table budget of the headline comparison: the static
#: monolithic encoding of the depth-18 shuffled register exhausts it; the
#: partitioned+sifted engine peaks far below half of it.  (At depth 12 the
#: bit-blasted monolithic relation still fits, at about 11k nodes.)
NODE_BUDGET = 25000
HEADLINE_DEPTH = 18


def shuffled_register(depth: int, seed: int = 11):
    """A ``depth``-stage boolean shift register with shuffled equation order.

    Semantically identical to
    :func:`repro.signal.library.boolean_shift_register_process`; only the
    *textual* order of the equations differs, which is exactly what the
    first-use variable ordering heuristic keys on.
    """
    order = list(range(depth))
    random.Random(seed).shuffle(order)
    builder = ProcessBuilder(f"Shuffled{depth}")
    x = builder.input("x", "boolean")
    stages = [builder.output(f"s{index}", "boolean") for index in range(depth)]
    for index in order:
        source = x if index == 0 else stages[index - 1]
        builder.define(stages[index], source.delayed(False))
    return builder.build()


def _options(partition: bool, reorder: str, node_budget=None) -> SymbolicOptions:
    return SymbolicOptions(
        partition=partition,
        reorder=reorder,
        reorder_threshold=2000,
        node_budget=node_budget,
    )


def test_partitioned_sifted_completes_where_monolithic_static_exhausts_budget():
    """The headline claim, asserted under one shared node budget.

    The static-order monolithic encoding cannot even *build* its transition
    relation within the budget; the partitioned + sifted engine finishes the
    whole reachability fixpoint on the same design with a >=2x lower peak —
    and the peak is against the budget the monolithic run already proved too
    small, so the margin is a floor, not an estimate.
    """
    process = shuffled_register(HEADLINE_DEPTH)

    with pytest.raises(NodeBudgetExceeded):
        IntSymbolicEngine(process, _options(False, "off", NODE_BUDGET)).reach()

    engine = IntSymbolicEngine(process, _options(True, "auto", NODE_BUDGET))
    result = engine.reach()
    assert result.complete
    assert result.state_count == 2 ** HEADLINE_DEPTH
    stats = result.statistics()
    assert stats["reorders"] >= 1, "sifting never engaged"
    assert stats["clusters"] > 1, "the relation was not actually partitioned"
    assert 2 * stats["peak_nodes"] <= NODE_BUDGET, (
        f"peak {stats['peak_nodes']} is not >=2x below the {NODE_BUDGET}-node "
        "budget the monolithic static baseline exhausted"
    )


@pytest.mark.parametrize("depth", [12, 16, 20])
def test_bench_partitioned_sifted_reachability(benchmark, depth):
    """Partitioned + sifted fixpoint across scaled shuffled registers."""
    process = shuffled_register(depth)
    result = benchmark(lambda: IntSymbolicEngine(process, _options(True, "auto")).reach())
    assert result.complete
    assert result.state_count == 2 ** depth


@pytest.mark.parametrize("depth", [12])
def test_bench_sifting_rescues_the_monolithic_encoding(benchmark, depth):
    """Even the monolithic relation survives when sifting runs between conjuncts.

    The growth checkpoints inside the monolithic fold let the manager
    recover a chain-adjacent order mid-construction, cutting the peak well
    below the static baseline — the pure dynamic-reordering effect, with
    partitioning out of the picture.
    """
    process = shuffled_register(depth)
    static = IntSymbolicEngine(process, _options(False, "off"))
    static.reach()
    static_peak = static.manager.peak_nodes

    result = benchmark(lambda: IntSymbolicEngine(process, _options(False, "auto")).reach())
    assert result.complete
    stats = result.statistics()
    assert stats["reorders"] >= 1
    assert stats["peak_nodes"] < static_peak
