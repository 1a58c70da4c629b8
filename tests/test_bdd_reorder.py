"""Property tests for dynamic BDD variable reordering (level swaps + sifting).

Sifting rewrites nodes in place, so it must be *semantics-preserving* by
construction: every protected function keeps its node identity, its model
count and its full satisfying-assignment set across any reorder, and the
counting/enumeration helpers must consult the live variable order — never
the insertion order — afterwards.  These tests pin exactly that on
fixed-seed random BDDs, plus the supporting machinery: group adjacency,
the garbage-collection contract, the node budget, auto-trigger thresholds
and the statistics counters.
"""

import random

import pytest

from repro.clocks.bdd import (
    BDDManager,
    NodeBudgetExceeded,
    global_stats,
    reset_global_stats,
)


def random_function(manager, names, rng, depth=4):
    """A deterministic random BDD over ``names`` (fixed-seed grammar)."""
    if depth == 0 or rng.random() < 0.3:
        name = rng.choice(names)
        return manager.var(name) if rng.random() < 0.5 else manager.nvar(name)
    left = random_function(manager, names, rng, depth - 1)
    right = random_function(manager, names, rng, depth - 1)
    return rng.choice([manager.conj, manager.disj, manager.xor])(left, right)


def assignment_set(manager, node, names):
    return {
        tuple(sorted(model.items()))
        for model in manager.satisfying_assignments(node, names)
    }


class TestSiftingPreservesSemantics:
    @pytest.mark.parametrize("seed", range(12))
    def test_counts_and_assignment_sets_survive_reorder(self, seed):
        """The satellite contract: fixed-seed random BDDs, identical model
        counts and satisfying-assignment sets before and after reorder()."""
        rng = random.Random(seed)
        manager = BDDManager()
        names = [f"v{index}" for index in range(7)]
        for name in names:
            manager.declare(name)
        functions = [manager.protect(random_function(manager, names, rng)) for _ in range(3)]
        counts = [manager.count_satisfying(f, names) for f in functions]
        models = [assignment_set(manager, f, names) for f in functions]

        manager.reorder()

        for function, count, expected in zip(functions, counts, models):
            assert manager.count_satisfying(function, names) == count
            assert assignment_set(manager, function, names) == expected

    @pytest.mark.parametrize("seed", range(6))
    def test_hash_consing_survives_reorder(self, seed):
        """Operations after a reorder still canonicalise onto the same nodes."""
        rng = random.Random(100 + seed)
        manager = BDDManager()
        names = [f"v{index}" for index in range(6)]
        for name in names:
            manager.declare(name)
        left = manager.protect(random_function(manager, names, rng))
        right = manager.protect(random_function(manager, names, rng))
        both = manager.protect(manager.conj(left, right))
        manager.reorder()
        assert manager.conj(left, right) is both
        assert manager.disj(both, left) is manager.disj(both, left)
        assert manager.equivalent(manager.neg(manager.neg(left)), left)

    def test_counting_consults_live_order_not_insertion_order(self):
        """After a reorder, an insertion-ordered variable list still counts
        correctly — the helpers re-sort against the *current* ranks."""
        manager = BDDManager()
        insertion_order = ["a", "b", "c", "d"]
        for name in insertion_order:
            manager.declare(name)
        function = manager.conj(
            manager.neg(manager.xor(manager.var("a"), manager.var("c"))),
            manager.neg(manager.xor(manager.var("b"), manager.var("d"))),
        )
        manager.protect(function)
        manager.reorder()
        # Whatever the live order is now, counting over the insertion-ordered
        # list must still see all 4 models, and enumeration must yield total
        # assignments over exactly these names.
        assert manager.count_satisfying(function, list(insertion_order)) == 4
        for model in manager.satisfying_assignments(function, list(insertion_order)):
            assert set(model) == set(insertion_order)

    def test_sifting_shrinks_the_classic_bad_order(self):
        """∧ᵢ (xᵢ ↔ yᵢ) declared blockwise is exponential; sifting recovers
        the interleaved linear order."""
        manager = BDDManager()
        n = 7
        xs = [f"x{index}" for index in range(n)]
        ys = [f"y{index}" for index in range(n)]
        for name in xs + ys:
            manager.declare(name)
        function = manager.conj_all(
            manager.neg(manager.xor(manager.var(x), manager.var(y)))
            for x, y in zip(xs, ys)
        )
        manager.protect(function)
        before = manager.size(function)
        live = manager.reorder()
        after = manager.size(function)
        assert after < before / 4
        assert live == after
        assert manager.count_satisfying(function, xs + ys) == 2 ** n


class TestGroupsAndRoots:
    def test_grouped_pairs_stay_adjacent(self):
        manager = BDDManager()
        for index in range(4):
            manager.declare(f"s{index}")
            manager.declare(f"s{index}'")
            manager.group_variables((f"s{index}", f"s{index}'"))
        function = manager.conj_all(
            manager.neg(manager.xor(manager.var(f"s{index}"), manager.var(f"s{(index + 2) % 4}'")))
            for index in range(4)
        )
        manager.protect(function)
        manager.reorder()
        order = manager.variables
        for index in range(4):
            assert order.index(f"s{index}'") == order.index(f"s{index}") + 1

    def test_group_must_be_contiguous(self):
        manager = BDDManager(["a", "b", "c"])
        with pytest.raises(ValueError, match="contiguous"):
            manager.group_variables(("a", "c"))

    def test_conflicting_group_membership_rejected(self):
        manager = BDDManager(["a", "b", "c"])
        manager.group_variables(("a", "b"))
        with pytest.raises(ValueError, match="already belongs"):
            manager.group_variables(("b", "c"))

    def test_reorder_collects_unprotected_garbage(self):
        """The documented contract: a reorder sweeps the table down to the
        roots' diagrams; scratch nodes are dropped."""
        manager = BDDManager()
        names = [f"v{index}" for index in range(8)]
        for name in names:
            manager.declare(name)
        rng = random.Random(7)
        for _ in range(20):
            random_function(manager, names, rng)  # scratch, never protected
        kept = manager.protect(random_function(manager, names, rng))
        table_before = manager.statistics()["table_nodes"]
        manager.reorder()
        stats = manager.statistics()
        assert stats["table_nodes"] < table_before
        assert stats["table_nodes"] == stats["live_nodes"] == manager.size(kept)

    def test_reorder_without_roots_is_a_noop(self):
        manager = BDDManager(["a", "b"])
        manager.conj(manager.var("a"), manager.var("b"))
        assert manager.reorder() == 0
        assert manager.reorder_count == 0


class TestBudgetAndAutoTrigger:
    def test_node_budget_raises_before_overflowing(self):
        manager = BDDManager(node_budget=16)
        names = [f"v{index}" for index in range(10)]
        with pytest.raises(NodeBudgetExceeded):
            function = manager.false
            for index, name in enumerate(names):
                function = manager.disj(
                    function,
                    manager.conj(manager.var(name), manager.var(names[(index + 1) % len(names)])),
                )
        assert len(manager.statistics()) >= 1  # manager left consistent

    def test_maybe_reorder_fires_on_threshold_and_doubles_it(self):
        manager = BDDManager(auto_reorder=True, reorder_threshold=64)
        xs = [f"x{index}" for index in range(6)]
        ys = [f"y{index}" for index in range(6)]
        names = xs + ys
        for name in names:
            manager.declare(name)
        # Blockwise-declared equality chain: guaranteed to outgrow the threshold.
        function = manager.protect(
            manager.conj_all(
                manager.neg(manager.xor(manager.var(x), manager.var(y)))
                for x, y in zip(xs, ys)
            )
        )
        count = manager.count_satisfying(function, names)
        assert manager.statistics()["table_nodes"] >= 64
        assert manager.maybe_reorder() is True
        assert manager.reorder_count == 1
        assert manager.reorder_threshold >= 64
        assert manager.count_satisfying(function, names) == count
        # Below the (raised) threshold nothing fires.
        assert manager.maybe_reorder() is False

    def test_maybe_reorder_off_by_default(self):
        manager = BDDManager(reorder_threshold=1)
        manager.protect(manager.conj(manager.var("a"), manager.var("b")))
        assert manager.maybe_reorder() is False

    def test_auto_reorder_arms_before_the_budget(self):
        """A budget below the default threshold must not starve sifting: the
        checkpoint arms at half the budget, so a design one sift fits
        completes instead of dying with zero reorders."""
        import random as _random

        from repro.signal.dsl import ProcessBuilder
        from repro.verification import SymbolicOptions, symbolic_int_explore

        # Depth 16 peaks at 7,457 nodes under the static order: past the
        # armed threshold (half the budget), short of the near-budget
        # checkpoint (three quarters), so only the arming makes it sift.
        order = list(range(16))
        _random.Random(11).shuffle(order)
        builder = ProcessBuilder("ShuffledBudget")
        x = builder.input("x", "boolean")
        stages = [builder.output(f"s{index}", "boolean") for index in range(16)]
        for index in order:
            source = x if index == 0 else stages[index - 1]
            builder.define(stages[index], source.delayed(False))
        # node_budget=10000 < the default reorder_threshold of 20000.
        result = symbolic_int_explore(
            builder.build(),
            SymbolicOptions(reorder="auto", node_budget=10000),
        )
        assert result.complete and result.state_count == 2 ** 16
        assert result.statistics()["reorders"] >= 1


class TestStatistics:
    def test_statistics_counters(self):
        manager = BDDManager()
        names = [f"v{index}" for index in range(6)]
        function = manager.protect(random_function(manager, names, random.Random(5)))
        stats = manager.statistics()
        assert stats["peak_nodes"] >= stats["live_nodes"] >= manager.size(function)
        assert stats["reorders"] == 0
        manager.reorder()
        stats = manager.statistics()
        assert stats["reorders"] == manager.reorder_count == 1
        assert stats["variables"] == len(manager.variables)

    def test_global_stats_accumulate_and_reset(self):
        reset_global_stats()
        manager = BDDManager()
        manager.protect(manager.conj(manager.var("a"), manager.var("b")))
        manager.reorder()
        stats = global_stats()
        assert stats["managers"] >= 1
        assert stats["reorders"] >= 1
        assert stats["peak_nodes"] >= 1
        reset_global_stats()
        assert global_stats() == {
            "managers": 0,
            "peak_nodes": 0,
            "reorders": 0,
            "cache_hits": 0,
            "cache_misses": 0,
        }
