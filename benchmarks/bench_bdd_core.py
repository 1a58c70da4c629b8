"""Relational image throughput of the BDD core on first-visit steps.

Each measured step takes a fresh (frontier, visited-block) pair — the
regime of every partitioned reachability fixpoint — and runs the full image
step: relational product, rename back onto the current bits, frontier diff
against the visited block, union.  ``diff(img, reach)`` negates the visited
block; complement edges make that negation a bit flip, so a step costs in
proportion to the small cube frontier rather than the large block.

The guard is independent of the image algebra.  The relation is a
parity-tapped shift register, so it maps each state to exactly one
successor, which plain Python computes from the frontier cube's bits.  Each
updated block must therefore count ``count(visited)`` plus one, unless the
successor already lies in ``visited``.  The counts are taken after the
timed region: ``count_satisfying`` walks the whole diagram, so counting
inside the loop would measure the walk, not the step.
"""

import random

import pytest

from repro.clocks.bdd import BDDManager


def cube_state(current, block):
    """The one-state frontier of pair ``block``: a fixed bit pattern."""
    return {name: bool((block * 2654435761 + index) >> 3 & 1) for index, name in enumerate(current)}


def successor(current, state):
    """The register's unique successor of ``state`` (the relation in plain Python)."""
    variables = len(current)
    bits = [state[name] for name in current]
    tap = bits[-1] ^ bits[variables // 2] ^ bits[3]
    return dict(zip(current, [tap, *bits[:-1]]))


def random_function(manager, names, rng, depth):
    """A deterministic random BDD over ``names`` (fixed-seed grammar)."""
    if depth == 0:
        name = rng.choice(names)
        return manager.var(name) if rng.random() < 0.5 else manager.nvar(name)
    left = random_function(manager, names, rng, depth - 1)
    right = random_function(manager, names, rng, depth - 1)
    return rng.choice([manager.conj, manager.disj, manager.xor])(left, right)


def sparse_set(manager, names, rng, depth=6, terms=3):
    """A sparse scattered state set: the shape of a large visited block."""
    function = random_function(manager, names, rng, depth)
    for _ in range(terms - 1):
        function = manager.conj(function, random_function(manager, names, rng, depth))
    return function


def build_workload(variables, blocks, seed=17):
    """A manager plus the relation and (frontier, block) pairs.

    The relation is a parity-tapped shift register over an interleaved
    current/next order — linear-sized, so the timed region isolates the
    image-step algebra rather than relation construction.  Pair ``0`` is
    the warm-up pair; the rest are the measured first-visit steps.
    """
    current = [f"x{index}" for index in range(variables)]
    primed = [f"y{index}" for index in range(variables)]
    order = [name for pair in zip(current, primed) for name in pair]
    manager = BDDManager(order)
    rng = random.Random(seed)
    tap = manager.xor(
        manager.var(current[-1]),
        manager.xor(manager.var(current[variables // 2]), manager.var(current[3])),
    )
    relation = manager.neg(manager.xor(manager.var(primed[0]), tap))
    for index in range(1, variables):
        relation = manager.conj(
            relation,
            manager.neg(manager.xor(manager.var(primed[index]), manager.var(current[index - 1]))),
        )
    pairs = []
    for block in range(blocks + 1):
        visited = manager.protect(sparse_set(manager, current, rng))
        cube = manager.cube(cube_state(current, block))
        pairs.append((manager.protect(cube), visited))
    return manager, relation, current, dict(zip(primed, current)), pairs


def image_step(manager, relation, current, rename_map, frontier, visited):
    """One reachability step: product, rename back, frontier diff, union."""
    image = manager.rename(manager.and_exists(frontier, relation, current), rename_map)
    return manager.disj(visited, manager.diff(image, visited))


def measured_pass(manager, relation, current, rename_map, pairs):
    """Run every measured pair once; return the updated blocks."""
    return [
        image_step(manager, relation, current, rename_map, frontier, visited)
        for frontier, visited in pairs
    ]


@pytest.mark.parametrize("variables,blocks", [(18, 5), (22, 6), (24, 8)])
def test_bench_bdd_core_image_throughput(benchmark, variables, blocks):
    """First-visit image steps, each checked against the one-successor count."""
    manager, relation, current, rename_map, pairs = build_workload(variables, blocks)

    # Warm up on the dedicated pair 0 (first-touch allocations, variable
    # handles) without touching the measured pairs.
    image_step(manager, relation, current, rename_map, *pairs[0])

    results = benchmark(lambda: measured_pass(manager, relation, current, rename_map, pairs[1:]))

    for block, ((_, visited), result) in enumerate(zip(pairs[1:], results), start=1):
        known = manager.evaluate(visited, successor(current, cube_state(current, block)))
        expected = manager.count_satisfying(visited, current) + (0 if known else 1)
        assert manager.count_satisfying(result, current) == expected, block
