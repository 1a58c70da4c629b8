"""The BDD core against a brute-force truth-table oracle.

Every test builds one fixed-seed random expression twice: as a BDD through
the manager's public API, and as a truth table — a function over ``n <= 12``
variables stored as a ``2**n``-bit integer whose bit ``i`` is the value
under the assignment giving ``names[k]`` the ``k``-th bit of ``i``.  The
table side shares no algorithm with the code under test: connectives are
integer bit operations, and quantification, restriction and renaming
enumerate assignments directly.  The tests pin model counts and sets,
``exists``/``forall``, ``and_exists``, order-keeping and order-breaking
``rename``, ``preimage``, ``restrict``, and round-trips through
``reorder()`` and ``dump_nodes``/``load_nodes`` to the table — plus the
canonicity invariants of the complement-edge store (no stored complemented
high edge, O(1) involutive negation).  ``cube`` and the model walk are also
pinned after sifting has moved the levels, together with their cost
contracts: one node per cube literal, a ``restrict`` linear in the diagram,
and no recursion-depth limit at 2,000 variables.
"""

import random
from time import perf_counter

import pytest

from repro.clocks.bdd import BDDManager, BDDNode, dump_nodes, load_nodes

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

    @pytest.mark.parametrize("seed", range(4))
    def test_preimage_matches_oracle(self, seed):
        current = [f"s{i}" for i in range(4)]
        primed = [f"s{i}'" for i in range(4)]
        names = [name for pair in zip(current, primed) for name in pair]
        manager, oracle = BDDManager(names), Table(names)
        relation_expr = random_expression(names, random.Random(seed), 4)
        target_expr = random_expression(current, random.Random(seed + 1), 3)
        relation = build(manager, relation_expr)
        target = build(manager, target_expr)
        mapping = dict(zip(current, primed))
        result = manager.preimage(relation, target, mapping, primed)
        expected = oracle.quantify(
            oracle.of(relation_expr) & oracle.rename(oracle.of(target_expr), mapping), primed, True
        )
        assert_matches(manager, result, oracle, expected)


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
