"""Round-trip tests for the BDD node-table serialisation.

:func:`repro.clocks.bdd.dump_nodes` flattens a set of diagrams into a pure
data payload (children-first node table) and :func:`load_nodes` rebuilds
them bottom-up through ``ite`` — so the payload must survive pickling,
loading into a manager with a *different* variable order, and loading into
a manager that already holds the functions (hash-consing must return the
identical node objects).  These are the invariants the persistent artifact
cache of :mod:`repro.workbench.cache` is built on.
"""

import pickle
import random

import pytest

from repro.clocks.bdd import BDDManager, DUMP_FORMAT, dump_nodes, load_nodes

VARIABLES = [f"v{i}" for i in range(8)]


def random_function(manager, rng, depth=4):
    """A random boolean function over VARIABLES, built from a seeded rng."""
    if depth == 0 or rng.random() < 0.2:
        node = manager.var(rng.choice(VARIABLES))
        return manager.neg(node) if rng.random() < 0.5 else node
    left = random_function(manager, rng, depth - 1)
    right = random_function(manager, rng, depth - 1)
    op = rng.choice([manager.conj, manager.disj, manager.xor, manager.implies])
    return op(left, right)


def assignment_set(manager, node):
    """The satisfying set over the full VARIABLES list, as hashable rows."""
    return {
        tuple(sorted(model.items()))
        for model in manager.satisfying_assignments(node, list(VARIABLES))
    }


class TestRoundTrip:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_round_trip_preserves_functions(self, seed):
        rng = random.Random(seed)
        source = BDDManager(VARIABLES)
        functions = [random_function(source, rng) for _ in range(4)]
        payload = dump_nodes(source, functions)

        target = BDDManager(VARIABLES)
        loaded = load_nodes(target, payload)
        assert len(loaded) == len(functions)
        for original, copy in zip(functions, loaded):
            assert assignment_set(source, original) == assignment_set(target, copy)
            assert source.count_satisfying(original, list(VARIABLES)) == target.count_satisfying(
                copy, list(VARIABLES)
            )

    @pytest.mark.parametrize("seed", [5, 6, 7])
    def test_load_under_reversed_order(self, seed):
        """The payload is order-independent: a reversed target order works."""
        rng = random.Random(seed)
        source = BDDManager(VARIABLES)
        function = random_function(source, rng, depth=5)
        payload = dump_nodes(source, [function])

        target = BDDManager(list(reversed(VARIABLES)))
        (copy,) = load_nodes(target, payload)
        assert assignment_set(source, function) == assignment_set(target, copy)

    def test_dump_after_sifting_still_loads(self):
        """Dumping from a sifted manager (different level order) round-trips."""
        rng = random.Random(11)
        source = BDDManager(VARIABLES)
        function = random_function(source, rng, depth=5)
        before = assignment_set(source, function)
        source.protect(function)
        source.reorder()
        assert assignment_set(source, function) == before  # reorder is semantic no-op
        payload = dump_nodes(source, [function])
        # The recorded order is the dump-time (post-sift) level order.
        ranks = {name: index for index, name in enumerate(source.variables)}
        assert payload["order"] == sorted(payload["order"], key=ranks.__getitem__)

        target = BDDManager(VARIABLES)
        (copy,) = load_nodes(target, payload)
        assert assignment_set(target, copy) == before

    def test_load_then_sift_then_reload_is_hash_consed(self):
        """Reloading a function a manager already holds yields the same object,
        even after the manager reordered in between."""
        rng = random.Random(13)
        source = BDDManager(VARIABLES)
        f = random_function(source, rng)
        g = source.neg(f)
        payload = dump_nodes(source, [f, g])

        target = BDDManager(VARIABLES)
        f1, g1 = load_nodes(target, payload)
        target.protect(f1)
        target.protect(g1)
        target.reorder()
        f2, g2 = load_nodes(target, payload)
        assert f2 is f1 and g2 is g1  # identity = function equality (hash-consing)

    def test_reload_into_source_manager_is_identity(self):
        source = BDDManager(VARIABLES)
        f = source.conj(source.var("v0"), source.neg(source.var("v3")))
        (copy,) = load_nodes(source, dump_nodes(source, [f]))
        assert copy is f

    def test_payload_survives_pickle(self):
        rng = random.Random(17)
        source = BDDManager(VARIABLES)
        function = random_function(source, rng)
        payload = pickle.loads(pickle.dumps(dump_nodes(source, [function])))
        target = BDDManager()
        (copy,) = load_nodes(target, payload)
        assert assignment_set(source, function) == assignment_set(target, copy)

    def test_terminals_and_sharing(self):
        source = BDDManager(VARIABLES)
        v = source.var("v0")
        payload = dump_nodes(source, [source.true, source.false, v, v])
        assert payload["roots"][0] == 1 and payload["roots"][1] == 0
        assert payload["roots"][2] == payload["roots"][3]  # shared diagram dumped once
        target = BDDManager()
        top, bottom, first, second = load_nodes(target, payload)
        assert top is target.true and bottom is target.false
        assert first is second

    def test_undeclared_variables_are_declared_on_load(self):
        source = BDDManager(["a", "b"])
        f = source.conj(source.var("a"), source.var("b"))
        target = BDDManager()
        (copy,) = load_nodes(target, dump_nodes(source, [f]))
        assert set(target.variables) == {"a", "b"}
        assert target.count_satisfying(copy, ["a", "b"]) == 1


class TestMalformedPayloads:
    def test_rejects_non_mapping(self):
        with pytest.raises(ValueError):
            load_nodes(BDDManager(), [1, 2, 3])

    def test_rejects_unknown_format(self):
        with pytest.raises(ValueError, match="format"):
            load_nodes(BDDManager(), {"format": DUMP_FORMAT + 1, "order": [], "nodes": [], "roots": []})

    def test_rejects_child_index_out_of_range(self):
        payload = {"format": DUMP_FORMAT, "order": ["x"], "nodes": ["x", 0, 9], "roots": [2]}
        with pytest.raises(ValueError, match="malformed"):
            load_nodes(BDDManager(), payload)

    def test_rejects_ragged_table(self):
        # Three items a node: a table whose length is not a multiple of 3 is torn.
        payload = {"format": DUMP_FORMAT, "order": ["x"], "nodes": ["x", 0, 1, "x"], "roots": [2]}
        with pytest.raises(ValueError, match="malformed"):
            load_nodes(BDDManager(), payload)

    def test_rejects_forward_reference(self):
        # Children-first is the contract: an entry may only reference earlier rows.
        payload = {"format": DUMP_FORMAT, "order": ["x"], "nodes": ["x", 0, 3], "roots": [2]}
        with pytest.raises(ValueError, match="malformed"):
            load_nodes(BDDManager(), payload)

    def test_rejects_root_index_out_of_range(self):
        payload = {"format": DUMP_FORMAT, "order": ["x"], "nodes": ["x", 0, 1], "roots": [3]}
        with pytest.raises(ValueError, match="root"):
            load_nodes(BDDManager(), payload)

    def test_rejects_non_string_variable(self):
        payload = {"format": DUMP_FORMAT, "order": [], "nodes": [7, 0, 1], "roots": [2]}
        with pytest.raises(ValueError, match="malformed"):
            load_nodes(BDDManager(), payload)
