"""Adversarial equation orders: dynamic reordering of the partitioned relation.

The symbolic engine declares BDD variables in first-use/constraint-locality
order, which is excellent when the equations arrive in dataflow order — and
poor when they do not.  The design here is a plain ``depth``-stage shift
register whose equations are *shuffled*: the declaration order scatters the
chain, so each stage's conjunct ``sᵢ₊₁' ↔ sᵢ`` links variable pairs far
apart in the order, and the reached-state sets of the fixpoint grow with the
layout's cutwidth (the classic ordering pathology).  Two mechanisms of the
relational core keep it in check:

* **partitioning** — the relation is kept as per-equation conjuncts with
  early quantification (:mod:`repro.verification.relational`), and is
  never folded into one BDD.  The conjunction of the depth-18 clusters is
  small (3,320 nodes), but the conjunct-by-conjunct fold that builds it
  under the static order passes through intermediate products that blow a
  25,000-node budget;
* **dynamic reordering** — Rudell sifting
  (:meth:`repro.clocks.bdd.BDDManager.reorder`) recovers a chain-adjacent
  order at the engine's growth checkpoints, shrinking the fixpoint's
  working BDDs.

The headline test pins the reordering effect quantitatively: under one
shared node budget, the partitioned + sifted engine completes the depth-18
register with a peak node count at most half the peak of the same
partitioned engine under the static order.  (Measured on a 2-core host:
static peaks at 7,792 nodes in about 0.1 s; sifted at 2,984 nodes with 4
reorders in about 2.7 s.  The sifted run took 0.9 s with 2 reorders while
the relation build left more garbage behind: with less of it, the doubling
reorder threshold trips at different checkpoints.)
"""

import random

import pytest

from repro.signal.dsl import ProcessBuilder
from repro.verification import IntSymbolicEngine, SymbolicOptions

#: Shared unique-table budget of the headline comparison: both the static
#: and the sifted partitioned engines must finish the depth-18 shuffled
#: register inside it.
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


def _options(reorder: str, node_budget=None) -> SymbolicOptions:
    return SymbolicOptions(
        reorder=reorder,
        reorder_threshold=2000,
        node_budget=node_budget,
    )


def test_sifting_halves_the_static_peak_under_the_budget():
    """The headline claim, asserted under one shared node budget.

    Both configurations run the whole reachability fixpoint of the same
    design inside the budget; the sifted one peaks at no more than half the
    static one, so the saving comes from the variable order alone.
    """
    process = shuffled_register(HEADLINE_DEPTH)

    static = IntSymbolicEngine(process, _options("off", NODE_BUDGET)).reach()
    assert static.complete
    assert static.state_count == 2 ** HEADLINE_DEPTH
    static_peak = static.statistics()["peak_nodes"]

    result = IntSymbolicEngine(process, _options("auto", NODE_BUDGET)).reach()
    assert result.complete
    assert result.state_count == 2 ** HEADLINE_DEPTH
    stats = result.statistics()
    assert stats["reorders"] >= 1, "sifting never engaged"
    assert stats["clusters"] > 1, "the relation was not actually partitioned"
    assert 2 * stats["peak_nodes"] <= static_peak, (
        f"sifted peak {stats['peak_nodes']} is not >=2x below the static "
        f"peak {static_peak}"
    )


@pytest.mark.parametrize("depth", [12, 16, 20])
def test_bench_partitioned_sifted_reachability(benchmark, depth):
    """Partitioned + sifted fixpoint across scaled shuffled registers."""
    process = shuffled_register(depth)
    result = benchmark(lambda: IntSymbolicEngine(process, _options("auto")).reach())
    assert result.complete
    assert result.state_count == 2 ** depth

