"""The partitioned transition relation of the BDD engine.

The bit-blasted engine (:mod:`repro.verification.symbolic_int`) computes
reachability as a least fixpoint of relational image computation over a
transition relation ``T(state, signals, state')``, and walks the same
relation backward for counterexample traces and controller synthesis.  This
module holds the relation itself, kept apart from the bit-vector circuit
compilation that builds it, plus the bit-naming scheme both sides share
(``x.p`` presence, ``x.v`` value, ``b'`` the primed copy of bit ``b``).

:class:`PartitionedRelation` keeps the relation as a list of *conjunctive
clusters* instead of one monolithic BDD.  Every equation (or bit-vector
fragment) contributes its own conjunct; neighbouring conjuncts are merged
pairwise, level by level, while the sum of their sizes stays within a
node-size bound (:func:`merge_pairwise`), and every relational product runs an
**early-quantification** schedule: a variable is existentially eliminated at
the last cluster whose support mentions it, so intermediate products never
carry bits no later conjunct cares about.  The relation is never conjoined
into one BDD: under an adversarial variable order the conjunction itself can
stay small (3,320 nodes for the depth-18 shuffled register of
``benchmarks/bench_variable_ordering.py``), but the fold that builds it, one
conjunct at a time, passes through intermediate products that blow a
25,000-node budget.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..clocks.bdd import BDDManager, BDDNode


def _presence(name: str) -> str:
    return f"{name}.p"


def _value(name: str) -> str:
    return f"{name}.v"


def _primed(bit: str) -> str:
    return f"{bit}'"


#: Node-count bound up to which adjacent conjuncts are merged into one cluster.
CLUSTER_SIZE = 600


def merge_pairwise(
    manager: BDDManager, parts: Sequence[BDDNode], bound: Optional[int] = None
) -> list[BDDNode]:
    """Conjoin neighbouring ``parts`` pairwise, level by level.

    Each level conjoins parts 0 ∧ 1, 2 ∧ 3, … and carries an unpaired last
    part up unchanged, so a fold of n parts is log₂ n levels deep and walks
    each part O(log n) times, where a left fold re-walks the growing
    conjunction once per later part.  With a ``bound``, two neighbours merge
    only while the sum of their sizes stays within it (a refused pair leaves
    its left part alone and the right one tries its own right neighbour);
    each node's size is computed once.  Levels repeat until one merges
    nothing.  Without a bound the result is the single conjunction.

    ``true`` parts are dropped and a ``false`` part (or conjunction) makes
    the result ``[false]``; no parts at all give ``[true]``.  Two folds over
    lists that share a prefix build the same subtrees over its aligned
    blocks, so the second finds them in the computed cache.
    """
    true, false = manager.true, manager.false
    sized: list[tuple[BDDNode, int]] = []
    for part in parts:
        if part is false:
            return [false]
        if part is not true:
            sized.append((part, 0 if bound is None else manager.size(part)))
    merged = True
    while merged and len(sized) > 1:
        merged = False
        level: list[tuple[BDDNode, int]] = []
        index = 0
        while index < len(sized):
            left, left_size = sized[index]
            if index + 1 < len(sized):
                right, right_size = sized[index + 1]
                if bound is None or left_size + right_size <= bound:
                    both = manager.conj(left, right)
                    if both is false:
                        return [false]
                    level.append((both, 0 if bound is None else manager.size(both)))
                    merged = True
                    index += 2
                    continue
            level.append((left, left_size))
            index += 1
        sized = level
    return [part for part, _size in sized] or [true]


class PartitionedRelation:
    """A conjunctively partitioned relation with early-quantification products.

    ``parts`` are the per-equation conjuncts; :func:`merge_pairwise` merges
    neighbours into clusters while the sum of their sizes stays within
    ``cluster_size`` nodes (``0`` keeps every part its own cluster).  The
    clusters' supports are computed once; each distinct quantification set
    gets a cached schedule assigning every quantified variable to the last
    cluster that mentions it.
    """

    def __init__(
        self, manager: BDDManager, parts: Sequence[BDDNode], cluster_size: int = CLUSTER_SIZE
    ) -> None:
        self.manager = manager
        self.clusters: list[BDDNode] = merge_pairwise(manager, parts, cluster_size)
        self._supports: list[frozenset] = [
            frozenset(manager.support(cluster)) for cluster in self.clusters
        ]
        self._schedules: dict[frozenset, tuple[frozenset, list[frozenset]]] = {}

    @property
    def cluster_count(self) -> int:
        """Number of conjunctive clusters the relation is kept as."""
        return len(self.clusters)

    def _schedule(self, quantified: frozenset) -> tuple[frozenset, list[frozenset]]:
        cached = self._schedules.get(quantified)
        if cached is not None:
            return cached
        last: dict[str, int] = {}
        for index, support in enumerate(self._supports):
            for name in support & quantified:
                last[name] = index
        immediate = quantified - last.keys()
        per_cluster: list[set] = [set() for _ in self.clusters]
        for name, index in last.items():
            per_cluster[index].add(name)
        schedule = (immediate, [frozenset(names) for names in per_cluster])
        self._schedules[quantified] = schedule
        return schedule

    def product(self, seed: BDDNode, quantified: Sequence[str]) -> BDDNode:
        """``∃ quantified . seed ∧ cluster₁ ∧ … ∧ clusterₙ`` without the middle.

        The fold conjoins one cluster at a time and eliminates each
        quantified variable at the *last* cluster whose support mentions it
        (variables no cluster mentions are quantified out of ``seed`` up
        front) — the early-quantification schedule that keeps intermediate
        products small where a conjunct-by-conjunct fold blows up.
        """
        manager = self.manager
        immediate, per_cluster = self._schedule(frozenset(quantified))
        result = manager.exists(seed, immediate) if immediate else seed
        for cluster, names in zip(self.clusters, per_cluster):
            result = manager.and_exists(result, cluster, names)
        return result
