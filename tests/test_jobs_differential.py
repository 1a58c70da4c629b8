"""Differential suite: pooled verdicts must equal in-process ``check_all``.

The sequential in-process path is the job layer's reference semantics: for
every design in a mixed boolean + integer corpus, submitting through a
:class:`WorkerPool` (spec pickled, design rebuilt in a spawned worker, disk
artifact store warm or cold) must reproduce the in-process report exactly —
same per-property verdicts, same chosen backend, same state count, and the
same rendered counterexample/witness traces.  Anything less means the spec
round-trip, the worker rebuild or the result pickling changed semantics.

Integer-corpus value atoms use :class:`~repro.workbench.jobs.Compare` — the
picklable substitute for the lambdas the in-process API tolerates.
"""

import pytest

from repro.signal.ast import compose
from repro.signal.library import (
    alternator_process,
    boolean_shift_register_process,
    bounded_channel_process,
    modulo_counter_process,
    saturating_accumulator_process,
)
from repro.verification.reachability import ReactionPredicate as P
from repro.workbench import Design, WorkerPool
from repro.workbench.jobs import Compare

GUARD = pytest.mark.timeout(180)


def toggle_pair_process():
    left = alternator_process("A").renamed(
        {"tick": "tick_a", "flip": "flip_a", "previous": "prev_a"}
    )
    right = alternator_process("B").renamed(
        {"tick": "tick_b", "flip": "flip_b", "previous": "prev_b"}
    )
    return compose("TogglePair", left, right)


def value(name, op, bound):
    return P.absent(name) | P.value(name, Compare(op, bound))


#: (factory, invariants, reachables) — designs routed to the bit-blasted
#: symbolic engine by size or to explicit; the pool must agree with whatever
#: auto picks.
CORPUS = {
    "alternator": (
        alternator_process,
        {"flip-ticks": P.present("flip").implies(P.present("tick"))},
        {"can-flip-true": P.true_of("flip")},
    ),
    "shift-register-3": (
        lambda: boolean_shift_register_process(3),
        {"tail-needs-input": P.present("s2").implies(P.present("x")),
         "spontaneous-tail": P.absent("x").implies(P.absent("s0"))},
        {"tail-can-rise": P.true_of("s2")},
    ),
    "toggle-pair": (
        toggle_pair_process,
        {"a-independent": P.present("flip_a").implies(P.present("tick_a"))},
        {"both-flip": P.true_of("flip_a") & P.true_of("flip_b")},
    ),
    "modulo-counter-5": (
        lambda: modulo_counter_process(5),
        {"bounded": value("n", "<", 5), "non-negative": value("n", ">=", 0)},
        {"wraps": P.present("carry"), "reaches-4": P.value("n", Compare("==", 4))},
    ),
    "saturating-accumulator-6": (
        lambda: saturating_accumulator_process(6),
        {"capped": value("total", "<=", 6)},
        {"saturates": P.value("total", Compare("==", 6))},
    ),
    "bounded-channel-4": (
        lambda: bounded_channel_process(4),
        {"level-in-range": value("level", "between", (0, 4))},
        {"fills": P.value("level", Compare("==", 4))},
    ),
}


@pytest.fixture(scope="module")
def pool(tmp_path_factory):
    root = str(tmp_path_factory.mktemp("differential-artifacts"))
    with WorkerPool(2, name="diff", cache=root) as shared:
        assert shared.wait_ready(60)
        yield shared


@GUARD
@pytest.mark.parametrize("name", sorted(CORPUS))
def test_pooled_report_equals_in_process(pool, name):
    factory, invariants, reachables = CORPUS[name]
    pooled = pool.submit(
        Design.from_process(factory(), cache=None),
        invariants=invariants,
        reachables=reachables,
        traces=True,
    ).result(120)
    local = Design.from_process(factory(), cache=None).check_all(
        invariants=invariants, reachables=reachables, traces=True
    )
    assert pooled.backend_name == local.backend_name
    assert pooled.state_count == local.state_count
    assert pooled.complete == local.complete
    assert [c.name for c in pooled] == [c.name for c in local]
    assert [c.holds for c in pooled] == [c.holds for c in local]
    for pooled_check, local_check in zip(pooled, local):
        assert (pooled_check.trace is None) == (local_check.trace is None), pooled_check.name
        if pooled_check.trace is not None:
            assert pooled_check.trace.render() == local_check.trace.render()


@GUARD
def test_warm_pool_still_agrees(pool):
    # Same corpus entry twice: the second run is served from the shared disk
    # store (hits > 0) and must not change a single verdict.
    factory, invariants, reachables = CORPUS["modulo-counter-5"]
    first = pool.submit(
        Design.from_process(factory()), invariants=invariants, reachables=reachables
    ).result(120)
    second = pool.submit(
        Design.from_process(factory()), invariants=invariants, reachables=reachables
    ).result(120)
    assert [c.holds for c in second] == [c.holds for c in first]
    assert second.cache_hits > 0
