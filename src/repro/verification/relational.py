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
fragment) contributes its own conjunct; clusters are formed greedily up to
a node-size bound, and every relational product runs an
**early-quantification** schedule: a variable is existentially eliminated at
the last cluster whose support mentions it, so intermediate products never
carry bits no later conjunct cares about.  The monolithic relation of an
adversarially ordered design can be exponentially larger than the sum of
its conjuncts (``benchmarks/bench_variable_ordering.py`` measures exactly
that), which is why it is never materialised unless explicitly asked for
(:attr:`PartitionedRelation.monolithic`).
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


class PartitionedRelation:
    """A conjunctively partitioned relation with early-quantification products.

    ``parts`` are the per-equation conjuncts; they are greedily merged into
    clusters whose BDDs stay below ``cluster_size`` nodes (one monolithic
    cluster when the caller passes a single pre-conjoined part).  The
    clusters' supports are computed once; each distinct quantification set
    gets a cached schedule assigning every quantified variable to the last
    cluster that mentions it.
    """

    def __init__(
        self, manager: BDDManager, parts: Sequence[BDDNode], cluster_size: int = 600
    ) -> None:
        self.manager = manager
        self.clusters: list[BDDNode] = self._cluster(list(parts), cluster_size)
        self._supports: list[frozenset] = [
            frozenset(manager.support(cluster)) for cluster in self.clusters
        ]
        self._schedules: dict[frozenset, tuple[frozenset, list[frozenset]]] = {}
        self._monolithic: Optional[BDDNode] = None

    def _cluster(self, parts: list[BDDNode], cluster_size: int) -> list[BDDNode]:
        manager = self.manager
        clusters: list[BDDNode] = []
        current: Optional[BDDNode] = None
        current_size = 0
        for part in parts:
            if part is manager.true:
                continue
            if part is manager.false:
                return [manager.false]
            size = manager.size(part)
            if current is None:
                current, current_size = part, size
            elif current_size + size <= cluster_size:
                current = manager.conj(current, part)
                current_size = manager.size(current)
            else:
                clusters.append(current)
                current, current_size = part, size
        if current is not None:
            clusters.append(current)
        return clusters or [manager.true]

    @property
    def cluster_count(self) -> int:
        """Number of conjunctive clusters the relation is kept as."""
        return len(self.clusters)

    @property
    def monolithic(self) -> BDDNode:
        """The full conjunction, materialised on first access only.

        Nothing in the pipeline needs it; it exists for callers that want to
        *measure* the monolithic relation (benchmarks) or feed it to foreign
        tooling.
        """
        if self._monolithic is None:
            self._monolithic = self.manager.protect(self.manager.conj_all(self.clusters))
        return self._monolithic

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
        products small where the monolithic conjunction blows up.
        """
        manager = self.manager
        immediate, per_cluster = self._schedule(frozenset(quantified))
        result = manager.exists(seed, immediate) if immediate else seed
        for cluster, names in zip(self.clusters, per_cluster):
            result = manager.and_exists(result, cluster, names)
        return result
