"""The BDD core against a brute-force truth-table oracle.

Every test builds one fixed-seed random expression twice: as a BDD through
the manager's public API, and as a truth table — a function over ``n <= 12``
variables stored as a ``2**n``-bit integer whose bit ``i`` is the value
under the assignment giving ``names[k]`` the ``k``-th bit of ``i``.  The
table side shares no algorithm with the code under test: connectives are
integer bit operations, and quantification, restriction and renaming
enumerate assignments directly.  The tests pin model counts and sets,
``exists``/``forall``, ``and_exists``, order-keeping and order-breaking
``rename``, ``restrict``, the pairwise conjunction fold the relation build
runs (``merge_pairwise``), and round-trips through
``reorder()`` and ``dump_nodes``/``load_nodes`` to the table — plus the
canonicity invariants of the complement-edge store (no stored complemented
high edge, O(1) involutive negation).  ``cube`` and the model walk are also
pinned after sifting has moved the levels, together with their cost
contracts: one node per cube literal, a ``restrict`` linear in the diagram,
and no recursion-depth limit at 2,000 variables.  ``first_model``, the
node-free search for the first model of a conjunction under a partial
assignment, is pinned against the table and the built conjunction, before
and after sifting, at no node and no cache miss.
"""

import random
from itertools import combinations
from time import perf_counter

import pytest

from repro.clocks.bdd import BDDManager, BDDNode, dump_nodes, load_nodes
from repro.verification.relational import merge_pairwise

NAMES = [f"v{index}" for index in range(7)]


# -- the oracle -------------------------------------------------------------------


def random_expression(names, rng, depth=4):
    """A fixed-seed random expression tree over ``names``."""
    if depth == 0 or rng.random() < 0.3:
        return ("lit", rng.choice(names), rng.random() < 0.5)
    roll = rng.random()
    if roll < 0.1:
        return ("not", random_expression(names, rng, depth - 1))
    if roll < 0.25:
        return (
            "ite",
            random_expression(names, rng, depth - 1),
            random_expression(names, rng, depth - 1),
            random_expression(names, rng, depth - 1),
        )
    op = rng.choice(["and", "or", "xor"])
    return (op, random_expression(names, rng, depth - 1), random_expression(names, rng, depth - 1))


def build(manager, expression):
    """The expression as a BDD of ``manager``."""
    kind = expression[0]
    if kind == "lit":
        _, name, positive = expression
        return manager.var(name) if positive else manager.nvar(name)
    if kind == "not":
        return manager.neg(build(manager, expression[1]))
    if kind == "ite":
        return manager.ite(*(build(manager, part) for part in expression[1:]))
    left, right = build(manager, expression[1]), build(manager, expression[2])
    return {"and": manager.conj, "or": manager.disj, "xor": manager.xor}[kind](left, right)


class Table:
    """Truth tables over a fixed variable list (at most 12 variables)."""

    def __init__(self, names):
        assert len(names) <= 12
        self.names = list(names)
        self.size = 1 << len(names)
        self.full = (1 << self.size) - 1

    def literal(self, name):
        k = self.names.index(name)
        return sum(1 << i for i in range(self.size) if i >> k & 1)

    def of(self, expression):
        kind = expression[0]
        if kind == "lit":
            _, name, positive = expression
            table = self.literal(name)
            return table if positive else self.full ^ table
        if kind == "not":
            return self.full ^ self.of(expression[1])
        if kind == "ite":
            c, t, e = (self.of(part) for part in expression[1:])
            return (c & t) | ((self.full ^ c) & e)
        left, right = self.of(expression[1]), self.of(expression[2])
        return {"and": left & right, "or": left | right, "xor": left ^ right}[kind]

    def models(self, table):
        return {i for i in range(self.size) if table >> i & 1}

    def assignment(self, index):
        return {name: bool(index >> k & 1) for k, name in enumerate(self.names)}

    def index(self, assignment):
        return sum(1 << k for k, name in enumerate(self.names) if assignment[name])

    def where(self, predicate):
        """The table of ``predicate(assignment)`` over every assignment."""
        return sum(1 << i for i in range(self.size) if predicate(self.assignment(i)))

    def value(self, table, assignment):
        return bool(table >> self.index(assignment) & 1)

    def quantify(self, table, variables, existential):
        def holds(assignment):
            values = []
            for bits in range(1 << len(variables)):
                flipped = dict(assignment)
                for k, name in enumerate(variables):
                    flipped[name] = bool(bits >> k & 1)
                values.append(self.value(table, flipped))
            return any(values) if existential else all(values)

        return self.where(holds)

    def restrict(self, table, fixed):
        return self.where(lambda a: self.value(table, {**a, **fixed}))

    def rename(self, table, mapping):
        """``f[old := new]``: the result reads each ``old`` at ``new``."""

        def renamed(assignment):
            source = dict(assignment)
            for old, new in mapping.items():
                source[old] = assignment[new]
            return self.value(table, source)

        return self.where(renamed)


def assert_matches(manager, node, oracle, table):
    """Model set and model count of ``node`` equal the truth table's."""
    models = {oracle.index(model) for model in manager.satisfying_assignments(node, oracle.names)}
    assert models == oracle.models(table)
    assert manager.count_satisfying(node, oracle.names) == len(models)


def built(seed, depth=4, names=NAMES):
    """A fresh manager, one random function as BDD and table, and the oracle."""
    manager = BDDManager(names)
    oracle = Table(names)
    expression = random_expression(names, random.Random(seed), depth)
    return manager, oracle, build(manager, expression), oracle.of(expression)


# -- the tests ----------------------------------------------------------------------


class TestRandomBuildsAgree:
    @pytest.mark.parametrize("seed", range(10))
    def test_counts_and_assignment_sets(self, seed):
        manager, oracle, f, table = built(seed)
        assert_matches(manager, f, oracle, table)

    @pytest.mark.parametrize("seed", range(4))
    def test_evaluate_agrees_on_every_assignment(self, seed):
        manager, oracle, f, table = built(seed, depth=3)
        for index in range(oracle.size):
            assert manager.evaluate(f, oracle.assignment(index)) == bool(table >> index & 1)

    @pytest.mark.parametrize("seed", range(4))
    def test_connective_identities(self, seed):
        manager, oracle, f, f_table = built(seed)
        expression = random_expression(NAMES, random.Random(seed + 1000))
        g, g_table = build(manager, expression), oracle.of(expression)
        full = oracle.full
        assert_matches(manager, manager.diff(f, g), oracle, f_table & (full ^ g_table))
        assert_matches(manager, manager.implies(f, g), oracle, (full ^ f_table) | g_table)
        assert_matches(manager, manager.neg(manager.xor(f, g)), oracle, full ^ (f_table ^ g_table))
        assert manager.equivalent(manager.diff(f, g), manager.conj(f, manager.neg(g)))
        assert manager.entails(manager.conj(f, g), f)


class TestQuantificationAgrees:
    @pytest.mark.parametrize("seed", range(8))
    def test_exists_forall_and_relprod(self, seed):
        manager, oracle, f, f_table = built(seed)
        rng = random.Random(seed + 500)
        quantified = rng.sample(NAMES, 3)
        for op, existential in (("exists", True), ("forall", False)):
            result = getattr(manager, op)(f, quantified)
            assert_matches(manager, result, oracle, oracle.quantify(f_table, quantified, existential))
        expression = random_expression(NAMES, random.Random(seed + 900))
        g, g_table = build(manager, expression), oracle.of(expression)
        product = manager.and_exists(f, g, quantified)
        assert_matches(manager, product, oracle, oracle.quantify(f_table & g_table, quantified, True))

    def test_quantifying_unknown_variables_is_identity(self):
        manager = BDDManager(NAMES)
        f = manager.xor(manager.var("v0"), manager.var("v1"))
        assert manager.exists(f, ["zz", "qq"]) is f
        assert manager.forall(f, []) is f


class TestMergePairwiseAgrees:
    """``merge_pairwise`` against the conjunction of the parts' truth tables."""

    @staticmethod
    def parts(seed):
        """Six dense random parts (each a disjunction) with ``true`` mixed in."""
        rng = random.Random(seed + 1300)
        manager, oracle = BDDManager(NAMES), Table(NAMES)
        expressions = [
            ("or", random_expression(NAMES, rng, 2), random_expression(NAMES, rng, 2)) for _ in range(6)
        ]
        parts = [build(manager, expression) for expression in expressions]
        parts.insert(rng.randrange(len(parts) + 1), manager.true)
        table = oracle.full
        for expression in expressions:
            table &= oracle.of(expression)
        return manager, oracle, parts, table

    @staticmethod
    def conjunction(manager, parts):
        result = manager.true
        for part in parts:
            result = manager.conj(result, part)
        return result

    @pytest.mark.parametrize("seed", range(4))
    def test_unbounded_fold_is_the_conjunction(self, seed):
        manager, oracle, parts, table = self.parts(seed)
        [result] = merge_pairwise(manager, parts)
        assert_matches(manager, result, oracle, table)
        assert result is self.conjunction(manager, parts)

    @pytest.mark.parametrize("seed", range(4))
    def test_bounded_clusters_are_maximal_contiguous_runs(self, seed):
        manager, oracle, parts, table = self.parts(seed)
        kept = [part for part in parts if part is not manager.true]
        assert merge_pairwise(manager, parts, 0) == kept
        assert merge_pairwise(manager, parts, 10**9) == merge_pairwise(manager, parts)
        sizes = sorted({manager.size(part) for part in kept})
        for bound in (sizes[0] * 2, sizes[-1] + sizes[0], 2 * sum(sizes)):
            clusters = merge_pairwise(manager, parts, bound)
            assert_matches(manager, self.conjunction(manager, clusters), oracle, table)
            cuts = [
                (0, *inner, len(kept))
                for inner in combinations(range(1, len(kept)), len(clusters) - 1)
            ]
            assert any(
                all(
                    cluster is self.conjunction(manager, kept[start:stop])
                    for cluster, start, stop in zip(clusters, cut, cut[1:])
                )
                for cut in cuts
            ), "clusters are not conjunctions of contiguous runs, in order"
            for left, right in zip(clusters, clusters[1:]):
                assert manager.size(left) + manager.size(right) > bound

    def test_constant_parts(self):
        manager = BDDManager(NAMES)
        true, false = manager.true, manager.false
        x = manager.var("v0")
        assert merge_pairwise(manager, []) == [true]
        assert merge_pairwise(manager, [true, true], 5) == [true]
        assert merge_pairwise(manager, [x, true]) == [x]
        assert merge_pairwise(manager, [x, false, manager.var("v1")]) == [false]
        assert merge_pairwise(manager, [x, manager.neg(x)]) == [false]
        assert merge_pairwise(manager, [x, manager.neg(x)], 0) == [x, manager.neg(x)]


class TestRenameAndPreimageAgree:
    @pytest.mark.parametrize("seed", range(6))
    def test_monotone_rename_matches_oracle(self, seed):
        """The prime/unprime shape: interleaved targets keep support order."""
        base = [f"x{i}" for i in range(6)]
        primed = [f"x{i}'" for i in range(6)]
        names = [name for pair in zip(base, primed) for name in pair]
        manager, oracle = BDDManager(names), Table(names)
        expression = random_expression(base, random.Random(seed), 4)
        f, table = build(manager, expression), oracle.of(expression)
        mapping = dict(zip(base, primed))
        assert_matches(manager, manager.rename(f, mapping), oracle, oracle.rename(table, mapping))

    @pytest.mark.parametrize("seed", range(6))
    def test_order_breaking_rename_matches_oracle(self, seed):
        """A swap map reverses support order: exercises the compose fallback."""
        manager, oracle, f, table = built(seed, depth=3)
        mapping = {"v0": "v6", "v6": "v0", "v1": "v5", "v5": "v1"}
        assert_matches(manager, manager.rename(f, mapping), oracle, oracle.rename(table, mapping))


class TestReorderRoundTrips:
    @pytest.mark.parametrize("seed", range(6))
    def test_counts_and_models_survive_reorder(self, seed):
        manager, oracle, f, table = built(seed)
        manager.protect(f)
        manager.reorder()
        manager.assert_canonical()
        assert_matches(manager, f, oracle, table)

    @pytest.mark.parametrize("seed", range(4))
    def test_operations_after_reorder_still_agree(self, seed):
        manager, oracle, f, f_table = built(seed)
        manager.protect(f)
        manager.reorder()
        expression = random_expression(NAMES, random.Random(seed + 77))
        g, g_table = build(manager, expression), oracle.of(expression)
        h = manager.exists(manager.conj(f, g), NAMES[:2])
        assert_matches(manager, h, oracle, oracle.quantify(f_table & g_table, NAMES[:2], True))


class TestDumpLoadRoundTrips:
    @pytest.mark.parametrize("seed", range(6))
    def test_payloads_round_trip_in_both_directions(self, seed):
        """Out into a manager of the reversed order, and back again."""
        manager, oracle, f, table = built(seed)
        reversed_manager = BDDManager(list(reversed(NAMES)))
        (there,) = load_nodes(reversed_manager, dump_nodes(manager, [f]))
        assert_matches(reversed_manager, there, oracle, table)
        (back,) = load_nodes(manager, dump_nodes(reversed_manager, [there]))
        # reloading a function the manager already holds is hash-consed
        assert back is f

    def test_terminal_payload_roots(self):
        manager = BDDManager(NAMES)
        payload = dump_nodes(manager, [manager.true, manager.false])
        assert payload["roots"] == [1, 0]
        assert payload["nodes"] == []
        other = BDDManager()
        t, f = load_nodes(other, payload)
        assert t is other.true and f is other.false

    def test_malformed_payloads_are_rejected(self):
        manager = BDDManager(NAMES)
        with pytest.raises(ValueError):
            load_nodes(manager, {"format": 999, "order": [], "nodes": [], "roots": []})
        with pytest.raises(ValueError):
            load_nodes(
                manager,
                {"format": 1, "order": ["a"], "nodes": [["a", 0, 9]], "roots": [2]},
            )
        with pytest.raises(ValueError):
            load_nodes(
                manager,
                {"format": 1, "order": ["a"], "nodes": [["a", 0, 1]], "roots": [7]},
            )


class TestComplementEdgeInvariants:
    @pytest.mark.parametrize("seed", range(8))
    def test_canonicity_no_complemented_high_edges(self, seed):
        manager, _, f, _ = built(seed)
        g = build(manager, random_expression(NAMES, random.Random(seed + 31)))
        manager.exists(manager.conj(f, g), NAMES[:3])
        manager.assert_canonical()

    def test_negation_is_involutive_and_free(self):
        manager = BDDManager(NAMES)
        f = manager.xor(manager.var("v0"), manager.conj(manager.var("v1"), manager.nvar("v2")))
        assert manager.neg(manager.neg(f)) is f
        assert manager.neg(manager.true) is manager.false
        assert manager.neg(manager.false) is manager.true
        # A negation shares every decision slot with the function itself.
        created = manager.statistics()["nodes_created"]
        g = manager.neg(f)
        assert manager.statistics()["nodes_created"] == created
        assert manager.size(g) == manager.size(f)

    def test_handles_are_canonical_across_recreation(self):
        manager = BDDManager(NAMES)
        f = manager.conj(manager.var("v0"), manager.var("v1"))
        again = manager.conj(manager.var("v0"), manager.var("v1"))
        assert again is f
        assert isinstance(f, BDDNode)
        assert f.variable == "v0" and f.high.variable == "v1"
        assert f.low is manager.false and f.high.high is manager.true

    def test_restrict_and_cofactors_agree_with_oracle(self):
        for seed in range(3):
            manager, oracle, f, table = built(seed)
            fixed = {"v0": True, "v3": False}
            assert_matches(manager, manager.restrict(f, fixed), oracle, oracle.restrict(table, fixed))


class TestCacheAccounting:
    def test_hits_and_misses_are_counted(self):
        manager = BDDManager(NAMES)
        f = manager.xor(manager.var("v0"), manager.var("v1"))
        g = manager.xor(manager.var("v0"), manager.var("v1"))
        assert g is f
        stats = manager.statistics()
        assert stats["cache_misses"] > 0
        assert stats["cache_hits"] > 0  # the second xor replays the first
        assert set(stats) >= {"cache_hits", "cache_misses", "cache_clears", "cache_entries"}

    def test_gc_clears_the_computed_cache(self):
        manager, oracle, f, table = built(3)
        manager.protect(f)
        manager.reorder()  # begin/end reorder each sweep dead nodes
        assert manager.statistics()["cache_clears"] >= 1
        assert_matches(manager, f, oracle, table)

    def test_cache_bound_triggers_clears(self):
        manager = BDDManager(NAMES)
        # Force the bound low enough to trip on a handful of small functions.
        manager._CACHE_RATIO = 0.001
        manager._MIN_CACHE = 4
        manager._cache_limit = 4
        for seed in range(6):
            build(manager, random_expression(NAMES, random.Random(seed)))
        assert manager.statistics()["cache_clears"] >= 1


def reordered(seed):
    """``built(seed)`` after a ``reorder()`` that moved the level order."""
    manager, oracle, f, table = built(seed)
    manager.protect(f)
    manager.reorder()
    assert manager.variables != tuple(NAMES)  # the seeds below all move
    return manager, oracle, f, table


def shuffled(mapping, rng):
    """``mapping`` with its items in a shuffled insertion order."""
    items = list(mapping.items())
    rng.shuffle(items)
    return dict(items)


class TestCubesAndModelWalks:
    @pytest.mark.parametrize("seed", [2, 6, 7, 9])
    def test_models_come_out_in_rank_order_after_reorder(self, seed):
        manager, oracle, f, table = reordered(seed)
        ranked = list(manager.variables)
        models = list(manager.satisfying_assignments(f, list(reversed(NAMES))))
        expected = sorted(
            (oracle.assignment(index) for index in oracle.models(table)),
            key=lambda model: [model[name] for name in ranked],
        )
        assert models == expected
        assert all(list(model) == ranked for model in models)
        with pytest.raises(ValueError, match="omits support variables"):
            next(manager.satisfying_assignments(f, sorted(manager.support(f))[1:]))

    @pytest.mark.parametrize("seed", [2, 6, 7, 9])
    def test_cubes_of_shuffled_literals_after_reorder(self, seed):
        manager, oracle, _, _ = reordered(seed)
        rng = random.Random(seed + 300)
        for size in (1, 3, len(NAMES)):
            literals = shuffled({name: rng.random() < 0.5 for name in rng.sample(NAMES, size)}, rng)
            cube = manager.cube(literals)
            expected = oracle.where(lambda a: all(a[name] == value for name, value in literals.items()))
            assert_matches(manager, cube, oracle, expected)
            assert cube is manager.conj_all(
                manager.var(name) if value else manager.nvar(name) for name, value in literals.items()
            )
        manager.assert_canonical()

    def test_a_fresh_cube_costs_one_node_per_literal(self):
        names = [f"c{index}" for index in range(40)]
        manager = BDDManager(names)
        rng = random.Random(40)
        literals = shuffled({name: rng.random() < 0.5 for name in names}, rng)
        before = manager.statistics()
        cube = manager.cube(literals)
        after = manager.statistics()
        assert after["nodes_created"] - before["nodes_created"] <= len(names)
        assert after["cache_misses"] == before["cache_misses"]
        assert manager.size(cube) == len(names)

    @pytest.mark.timeout(20)
    def test_wide_cubes_and_model_walks_do_not_recurse(self):
        """2,000 literals: past the interpreter's recursion limit."""
        names = [f"w{index}" for index in range(2000)]
        manager = BDDManager(names)
        rng = random.Random(2000)
        literals = {name: rng.random() < 0.5 for name in names}
        cube = manager.cube(shuffled(literals, rng))
        assert manager.size(cube) == len(names)
        assert manager.evaluate(cube, literals)
        (model,) = manager.satisfying_assignments(cube, names)
        assert model == literals and list(model) == names
        # One variable left free: two models, its False branch first.
        free = names[1000]
        partial = manager.cube({name: value for name, value in literals.items() if name != free})
        first, second = manager.satisfying_assignments(partial, names)
        assert (first[free], second[free]) == (False, True)
        assert {**first, free: literals[free]} == literals
        # Model counting and cofactoring walk the same 2,000 levels.
        assert manager.count_satisfying(cube, names) == 1
        assert manager.count_satisfying(partial, names) == 2
        assert manager.count_satisfying(manager.neg(cube), names) == (1 << len(names)) - 1
        pinned = names[1500]
        restricted = manager.restrict(cube, {pinned: literals[pinned]})
        assert manager.size(restricted) == len(names) - 1
        assert manager.evaluate(restricted, literals)
        flipped = {**literals, names[0]: not literals[names[0]]}
        assert not manager.evaluate(restricted, flipped)
        assert manager.restrict(cube, {pinned: not literals[pinned]}) is manager.false

    @pytest.mark.timeout(10)
    def test_restrict_is_linear_on_a_wide_xor_chain(self):
        """An n-variable xor chain has n slots but 2^n paths."""
        names = [f"x{index}" for index in range(64)]
        manager = BDDManager(names)
        chain = manager.false
        for name in names:
            chain = manager.xor(chain, manager.var(name))
        assert manager.size(chain) == len(names)
        rng = random.Random(64)
        free = sorted(rng.sample(names, 12), key=names.index)
        fixed = {name: rng.random() < 0.5 for name in names if name not in free}
        started = perf_counter()
        restricted = manager.restrict(chain, fixed)
        first_fixed = manager.restrict(chain, {"x0": True})
        assert perf_counter() - started < 0.5
        oracle = Table(free)
        parity = oracle.full if sum(fixed.values()) % 2 else 0
        expected = oracle.of(("lit", free[0], True))
        for name in free[1:]:
            expected ^= oracle.of(("lit", name, True))
        assert_matches(manager, restricted, oracle, expected ^ parity)
        rest = manager.false
        for name in names[1:]:
            rest = manager.xor(rest, manager.var(name))
        assert first_fixed is manager.neg(rest)
        assert manager.restrict(chain, {"unknown": True}) is chain


def first_model_case(seed, reorder):
    """A few random operands over ``NAMES``, a partial assignment, and the
    operands' conjunction as a truth table; ``reorder`` sifts first."""
    rng = random.Random(seed + 7000)
    manager, oracle = BDDManager(NAMES), Table(NAMES)
    expressions = [random_expression(NAMES, rng, 4) for _ in range(rng.randint(1, 4))]
    operands = [build(manager, expression) for expression in expressions]
    if reorder:
        for operand in operands:
            manager.protect(operand)
        manager.reorder()
    fixed = {name: rng.random() < 0.5 for name in rng.sample(NAMES, rng.randint(0, 3))}
    table = oracle.full
    for expression in expressions:
        table &= oracle.of(expression)
    return manager, oracle, operands, fixed, table


class TestFirstModelAgrees:
    """``first_model`` walks a conjunction's operands without building it."""

    @pytest.mark.parametrize("reorder", [False, True])
    @pytest.mark.parametrize("seed", range(24))
    def test_first_model_of_the_conjunction_under_the_fixed_bits(self, seed, reorder):
        manager, oracle, operands, fixed, table = first_model_case(seed, reorder)
        free = [name for name in NAMES if name not in fixed]
        ranked = [name for name in manager.variables if name in free]
        before = manager.statistics()
        model = manager.first_model(operands, list(reversed(free)), fixed)
        after = manager.statistics()
        assert after["nodes_created"] == before["nodes_created"]
        assert after["cache_misses"] == before["cache_misses"]
        # The oracle: every total assignment agreeing with ``fixed`` that the
        # table accepts, the first in rank order over the free variables.
        models = [
            oracle.assignment(index)
            for index in oracle.models(table)
            if all(oracle.assignment(index)[name] == value for name, value in fixed.items())
        ]
        if not models:
            assert model is None
            assert manager.restrict(manager.conj_all(operands), fixed) is manager.false
            return
        first = min(models, key=lambda assignment: [assignment[name] for name in ranked])
        assert model == {name: first[name] for name in ranked}
        assert list(model) == ranked
        # The same model as the built conjunction's first one.
        built_conjunction = manager.restrict(manager.conj_all(operands), fixed)
        assert model == next(manager.satisfying_assignments(built_conjunction, free))

    @pytest.mark.parametrize("seed", range(8))
    def test_fixed_and_unlisted_variables(self, seed):
        manager, oracle, operands, fixed, table = first_model_case(seed, reorder=False)
        free = [name for name in NAMES if name not in fixed]
        model = manager.first_model(operands, free, fixed)
        # A listed fixed variable takes its fixed value.
        with_fixed = manager.first_model(operands, NAMES, fixed)
        assert (model is None) == (with_fixed is None)
        if model is not None:
            assert with_fixed == {name: {**model, **fixed}[name] for name in manager.variables}
            # Unlisted variables are searched and left out: the model of the
            # listed ones is the first model of the projection.
            listed = free[: len(free) // 2]
            projected = manager.first_model(operands, listed, fixed)
            assert projected == {name: model[name] for name in manager.variables if name in listed}

    def test_a_fixed_variable_no_operand_mentions_is_harmless(self):
        manager = BDDManager(NAMES)
        f = manager.xor(manager.var("v0"), manager.var("v1"))
        g = manager.implies(manager.var("v1"), manager.var("v2"))
        variables = ["v0", "v1", "v2"]
        plain = manager.first_model([f, g], variables)
        assert plain == {"v0": False, "v1": True, "v2": True}
        assert manager.first_model([f, g], variables, {"v5": True, "ghost": False}) == plain
        assert "ghost" not in manager.variables
        assert manager.first_model([f, g], variables, {"v0": True}) == {
            "v0": True, "v1": False, "v2": False,
        }
        assert manager.first_model([f, g], variables, {"v1": True, "v2": False}) is None
        assert manager.first_model([f, manager.neg(f)], variables) is None
        assert manager.first_model([], ["v3"]) == {"v3": False}
        assert manager.first_model([manager.true], ["v3"], {"v3": True}) == {"v3": True}
        assert manager.first_model([manager.false], ["v3"]) is None

    @pytest.mark.timeout(20)
    def test_a_wide_chain_does_not_recurse(self):
        """2,000 levels, split over two operands: past the recursion limit."""
        names = [f"w{index}" for index in range(2000)]
        manager = BDDManager(names)
        rng = random.Random(2001)
        literals = {name: rng.random() < 0.5 for name in names}
        free = names[1000]
        def half(parity, skip=None):
            return manager.cube(
                {n: v for n, v in literals.items() if int(n[1:]) % 2 == parity and n != skip}
            )

        halves = [half(0), half(1)]
        loose = [half(0, skip=free), halves[1]]
        before = manager.statistics()["nodes_created"]
        assert manager.first_model(halves, names) == literals
        model = manager.first_model(loose, names, {names[1]: literals[names[1]]})
        assert model == {**literals, free: False} and list(model) == names
        pinned = names[1500]
        assert manager.first_model(halves, names, {pinned: not literals[pinned]}) is None
        assert manager.statistics()["nodes_created"] == before
