"""The relational fixpoint core of the BDD engine.

The bit-blasted engine (:mod:`repro.verification.symbolic_int`) computes
reachability as a least fixpoint of relational image computation over a
transition relation ``T(state, signals, state')``, followed by witness
extraction, frontier-ring counterexample traces and
greatest-controllable-invariant synthesis over the result.  This module is
that machinery, kept apart from the bit-vector circuit compilation that
builds the relation:

* :class:`PartitionedRelation` — the transition relation kept as a list of
  *conjunctive clusters* instead of one monolithic BDD.  Every equation (or
  bit-vector fragment) contributes its own conjunct; clusters are formed
  greedily up to a node-size bound, and every relational product runs an
  **early-quantification** schedule: a variable is existentially eliminated
  at the last cluster whose support mentions it, so intermediate products
  never carry bits no later conjunct cares about.  The monolithic relation
  of an adversarially ordered design can be exponentially larger than the
  sum of its conjuncts (``benchmarks/bench_variable_ordering.py`` measures
  exactly that), which is why it is never materialised unless explicitly
  asked for (:attr:`PartitionedRelation.monolithic`).

* :class:`RelationalFixpointEngine` — the engine half: image / preimage
  relational products over the partitioned relation, the reachability
  fixpoint loop (keeping the per-iteration frontier rings trace extraction
  walks backward), symbolic state counting, reaction enumeration and the
  BDD statistics hook.

* :class:`RelationalReachability` — the result half: witness extraction,
  invariant / reachability checking, ring-walk counterexample traces and
  supervisory-control synthesis.

The engine also cooperates with the BDD manager's dynamic variable
reordering (:meth:`repro.clocks.bdd.BDDManager.reorder`): durable artifacts
(clusters, frontier rings, reached sets) are *protected* so sifting
minimises what actually matters, and prime/unprime bit pairs are declared as
reorder groups so renaming stays cheap across reorders.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator, Mapping, Optional, Sequence

from ..clocks.bdd import BDDManager, BDDNode, dump_nodes, load_nodes
from ..core.values import ABSENT
from .invariants import CheckResult
from .reachability import (
    ControlVerdict,
    Reachability,
    ReactionPredicate,
    Trace,
    TraceStep,
)


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


class RelationalFixpointEngine:
    """The image-fixpoint core of the BDD engine.

    Subclasses provide the relation itself — ``manager``, ``instantaneous``,
    the partitioned ``relation``, ``initial``, the ``signal_bits`` /
    ``state_bits`` / ``_unprime_map`` layout and ``decode_reaction`` /
    ``decode_state`` — and inherit image computation, the reachability
    fixpoint loop, state counting, reaction enumeration and the statistics
    hook.
    """

    def _finalise_relation(
        self, parts: Sequence[BDDNode], partition: bool, cluster_size: int
    ) -> None:
        """Install the transition relation from its per-equation ``parts``.

        ``partition=False`` collapses everything into one monolithic cluster
        (the pre-partitioning behaviour, kept as a baseline and an escape
        hatch); either way the durable artifacts are protected so dynamic
        reordering optimises for them.  Engines call this *last* in their
        relation build, with ``instantaneous`` and ``initial`` already set
        and every other durable BDD (audit relations, clip conditions)
        already protected — a reordering checkpoint garbage-collects down to
        exactly that set.
        """
        manager = self.manager
        # Entry checkpoint: the engine's build loops leave construction
        # garbage behind; collect it (and maybe re-sift) before the
        # clustering / monolithic folds below add their own conjunctions.
        manager.maybe_reorder((self.instantaneous, self.initial, *parts))
        if not partition:
            merged = manager.true
            for part in parts:
                merged = manager.conj(merged, part)
                # The monolithic conjunction is where an adversarial static
                # order blows up; give sifting a chance between conjuncts.
                manager.maybe_reorder((merged, self.instantaneous, self.initial, *parts))
            parts = [merged]
        self.relation = PartitionedRelation(manager, parts, cluster_size)
        for cluster in self.relation.clusters:
            manager.protect(cluster)
        manager.protect(self.instantaneous)
        manager.protect(self.initial)
        manager.maybe_reorder()

    @property
    def transition(self) -> BDDNode:
        """The monolithic transition relation (materialised on demand only)."""
        return self.relation.monolithic

    def image(self, states: BDDNode) -> BDDNode:
        """Successors of ``states`` under the transition relation, unprimed."""
        successors = self.relation.product(states, self.signal_bits + self.state_bits)
        return self.manager.rename(successors, self._unprime_map)

    def preimage(self, states: BDDNode) -> BDDNode:
        """Predecessors of ``states`` under the transition relation.

        The backward counterpart of :meth:`image` — the target set is renamed
        onto the primed variables and the signal and primed state bits are
        eliminated cluster by cluster.  Trace extraction walks the stored
        frontier rings back through it.
        """
        seed = self.manager.rename(states, self._prime_map)
        return self.relation.product(seed, self.signal_bits + self.primed_bits)

    def _reach_fixpoint(
        self, max_iterations: Optional[int]
    ) -> tuple[BDDNode, int, bool, list[BDDNode]]:
        """Least fixpoint of image computation from the initial state.

        Returns ``(reach, iterations, converged, rings)`` — ``converged`` is
        False when ``max_iterations`` stopped the loop before the frontier
        emptied, and ``rings`` are the per-iteration discovery frontiers
        (``rings[0]`` is the initial state set, ``rings[k]`` the states first
        reached after exactly k images): the onion rings counterexample
        extraction walks backward through.  Keeping them is free — they are
        exactly the frontier BDDs the loop already computes.
        """
        manager = self.manager
        reach = self.initial
        frontier = self.initial
        rings = [self.initial]
        iterations = 0
        while frontier is not manager.false:
            if max_iterations is not None and iterations >= max_iterations:
                return manager.protect(reach), iterations, False, rings
            successors = self.image(frontier)
            frontier = manager.diff(successors, reach)
            reach = manager.disj(reach, frontier)
            if frontier is not manager.false:
                rings.append(manager.protect(frontier))
            iterations += 1
            # Iteration boundary = reordering checkpoint: the rings are
            # protected, the running reach is passed explicitly, every other
            # intermediate of this iteration is dead — exactly the state a
            # garbage-collecting reorder needs.
            manager.maybe_reorder((reach,))
        return manager.protect(reach), iterations, True, rings

    # -- suspend / resume ------------------------------------------------------------

    def snapshot_relation(self) -> dict:
        """The engine's durable relation BDDs as one pure-data payload.

        Captures the instantaneous relation, the initial state set, the
        transition clusters and whatever extra durable roots the engine
        declares through :meth:`_snapshot_extras` (the finite-integer
        engine's audit relation and clip conditions) in a single shared
        node table, so an engine can be rebuilt by
        :meth:`_restore_relation` without redoing any BDD circuit work —
        the expensive half of construction.
        """
        extras, metadata = self._snapshot_extras()
        roots = [self.instantaneous, self.initial, *self.relation.clusters, *extras]
        payload = {
            "cluster_count": len(self.relation.clusters),
            "dump": dump_nodes(self.manager, roots),
        }
        payload.update(metadata)
        return payload

    def _snapshot_extras(self) -> tuple[list[BDDNode], dict]:
        """Extra durable roots (and their metadata) an engine wants persisted."""
        return [], {}

    def _restore_relation(self, payload: Mapping) -> None:
        """Rebuild the relation from a :meth:`snapshot_relation` payload.

        The caller must have run the (cheap) variable layout first —
        ``signal_bits`` / ``state_bits`` / renaming maps — so the manager
        knows the reorder groups; the loaded diagrams themselves are order
        independent.  Every restored root is protected: a rehydrated engine
        must survive its first garbage-collecting reorder exactly like a
        freshly built one.
        """
        manager = self.manager
        roots = load_nodes(manager, payload["dump"])
        cluster_count = payload["cluster_count"]
        if len(roots) < 2 + cluster_count:
            raise ValueError("relation snapshot is missing roots")
        self.instantaneous = manager.protect(roots[0])
        self.initial = manager.protect(roots[1])
        clusters = roots[2 : 2 + cluster_count]
        # cluster_size=0 keeps every restored cluster as its own cluster —
        # re-merging would undo the clustering the snapshot was taken with.
        self.relation = PartitionedRelation(manager, clusters, cluster_size=0)
        for cluster in self.relation.clusters:
            manager.protect(cluster)
        self._restore_extras(roots[2 + cluster_count :], payload)

    def _restore_extras(self, extras: Sequence[BDDNode], payload: Mapping) -> None:
        """Reinstall the engine-specific roots of :meth:`_snapshot_extras`."""

    def count_states(self, states: BDDNode) -> int:
        """Number of state valuations in a state set (model counting)."""
        return self.manager.count_satisfying(states, self.state_bits)

    def reactions_of(self, states: BDDNode) -> Iterator[dict[str, Any]]:
        """Enumerate decoded admissible reactions of a symbolic state set.

        The state bits are quantified out first, so enumeration yields exactly
        one model per distinct reaction however many states admit it.
        """
        admissible = self.manager.and_exists(states, self.instantaneous, self.state_bits)
        for model in self.manager.satisfying_assignments(admissible, self.signal_bits):
            yield self.decode_reaction(model)

    def statistics(self) -> dict:
        """BDD-level engine statistics (peak nodes, reorders, clusters, ...)."""
        stats = self.manager.statistics()
        stats["clusters"] = self.relation.cluster_count
        return stats


@dataclass
class RelationalReachability(Reachability):
    """A symbolically computed reachable state set, behind the shared interface.

    Everything here — witness extraction, invariant/reachability checking,
    frontier-ring trace extraction, controller synthesis — works purely
    through the :class:`RelationalFixpointEngine` contract.

    ``frontiers`` keeps the per-iteration discovery rings of the fixpoint
    (``frontiers[0]`` = initial states): they cost nothing beyond a tuple of
    references the loop computed anyway, and they are what lets
    :meth:`trace_to` extract a concrete counterexample *path* by walking
    backward ring by ring instead of re-running the forward search.
    """

    engine: RelationalFixpointEngine
    states: BDDNode
    iterations: int
    fixpoint: bool = True
    frontiers: tuple[BDDNode, ...] = ()

    @property
    def state_count(self) -> int:
        """Number of reachable state valuations (model counting, no enumeration)."""
        return self.engine.count_states(self.states)

    @property
    def complete(self) -> bool:
        """False when ``max_iterations`` stopped the fixpoint early."""
        return self.fixpoint

    def statistics(self) -> dict:
        """Engine statistics plus the fixpoint's own counters."""
        stats = self.engine.statistics()
        stats["iterations"] = self.iterations
        stats["frontier_rings"] = len(self.frontiers)
        return stats

    # -- suspend / resume ------------------------------------------------------------

    def snapshot(self) -> dict:
        """The reached set, frontier rings and engine relation as pure data.

        The payload is self-contained: ``engine`` holds the
        :meth:`RelationalFixpointEngine.snapshot_relation` dump, so a cold
        process can rebuild both halves; a process that already holds the
        engine can restore the result alone from the ``dump`` part.  The
        frontier rings ride along so ring-walk trace extraction works on a
        warm-loaded result exactly as on a freshly computed one.
        """
        payload = {
            "engine": self.engine.snapshot_relation(),
            "iterations": self.iterations,
            "fixpoint": self.fixpoint,
            "dump": dump_nodes(self.engine.manager, [self.states, *self.frontiers]),
        }
        payload.update(self._snapshot_result_extras())
        return payload

    def _snapshot_result_extras(self) -> dict:
        """Extra result fields a subclass persists (e.g. the overflow audit)."""
        return {}

    @classmethod
    def _result_extras(cls, payload: Mapping) -> dict:
        """Constructor kwargs a subclass recovers from its persisted extras."""
        return {}

    @classmethod
    def from_snapshot(cls, engine: RelationalFixpointEngine, payload: Mapping) -> "RelationalReachability":
        """Rehydrate a result into ``engine`` from a :meth:`snapshot` payload.

        ``engine`` is any live engine of the same design — typically one
        restored through ``rehydrated(...)`` from the payload's own
        ``engine`` part, but an already-built engine works too (the loaded
        diagrams land in its manager under whatever variable order it
        currently has).  The reached set and every ring are protected so
        they survive later reorders.
        """
        manager = engine.manager
        roots = load_nodes(manager, payload["dump"])
        if not roots:
            raise ValueError("result snapshot carries no reached set")
        states = manager.protect(roots[0])
        frontiers = tuple(manager.protect(ring) for ring in roots[1:])
        return cls(
            engine=engine,
            states=states,
            iterations=payload["iterations"],
            fixpoint=payload["fixpoint"],
            frontiers=frontiers,
            **cls._result_extras(payload),
        )

    def _witness(self, condition: BDDNode, name: str, found_holds: bool, missing) -> CheckResult:
        manager = self.engine.manager
        hit = manager.conj_all([self.states, self.engine.instantaneous, condition])
        if manager.is_false(hit):
            # "No reaction satisfies the condition" is only certain when the
            # fixpoint actually converged.  ``missing`` is a thunk so the
            # model count it typically reports is only paid on this branch.
            self._require_complete(name)
            return CheckResult(not found_holds, name, details=missing())
        bits = self.engine.signal_bits + self.engine.state_bits
        model = next(manager.satisfying_assignments(hit, bits))
        reaction = {k: v for k, v in self.engine.decode_reaction(model).items() if v is not ABSENT}
        return CheckResult(found_holds, name, details=f"witness reaction {reaction}")

    def _validate_predicate(self, predicate: ReactionPredicate) -> None:
        engine = self.engine
        self._validate_signals(predicate.signals(), engine.signal_names, engine.name, "predicate")

    def check_invariant(self, predicate: ReactionPredicate, name: str = "invariant") -> CheckResult:
        """AG over reactions: no reachable reaction violates ``predicate``."""
        self._validate_predicate(predicate)
        violating = self.engine.manager.neg(self.engine.predicate_bdd(predicate))
        return self._witness(
            violating, name, found_holds=False, missing=lambda: f"{self.state_count} reachable states"
        )

    def check_reachable(self, predicate: ReactionPredicate, name: str = "reachability") -> CheckResult:
        """EF over reactions: some reachable reaction satisfies ``predicate``."""
        self._validate_predicate(predicate)
        return self._witness(
            self.engine.predicate_bdd(predicate),
            name,
            found_holds=True,
            missing=lambda: "no reachable reaction satisfies the predicate",
        )

    def trace_to(self, predicate: ReactionPredicate, name: str = "trace") -> Optional[Trace]:
        """A trace to a reaction satisfying ``predicate``, by backward ring walk.

        Forward information is already there: the fixpoint stored one frontier
        BDD per iteration (:attr:`frontiers`).  Extraction finds the earliest
        ring admitting a satisfying reaction, picks one concrete (state,
        reaction) model there with the witness-synthesis machinery, then walks
        back ring by ring — each step one
        :meth:`~RelationalFixpointEngine.preimage` partitioned relational
        product intersected with the previous ring, from which one concrete
        predecessor state and one connecting reaction are extracted.  The
        trace length equals the ring index plus one — the BFS distance, since
        ``rings[k]`` holds exactly the states first reached after k images —
        so symbolic traces are as short as the explicit engine's
        parent-pointer BFS paths, and no state is ever enumerated outside the
        path itself.
        """
        self._validate_predicate(predicate)
        return self._extract_trace(self.engine.predicate_bdd(predicate), name)

    def _extract_trace(self, condition: BDDNode, name: str) -> Optional[Trace]:
        engine = self.engine
        manager = engine.manager
        hit = manager.conj_all([self.states, engine.instantaneous, condition])
        if manager.is_false(hit):
            self._require_complete(name)
            return None
        if not self.frontiers:
            raise NotImplementedError(
                f"{name}: this result carries no frontier rings (hand-built?); "
                "recompute it via the engine's reach() to enable trace extraction"
            )
        ring_index = 0
        ring_hit = manager.false
        for index, ring in enumerate(self.frontiers):
            ring_hit = manager.conj(ring, hit)
            if not manager.is_false(ring_hit):
                ring_index = index
                break
        bits = engine.signal_bits + engine.state_bits
        model = next(manager.satisfying_assignments(ring_hit, bits))

        # Walk the rings backward from the state the satisfying reaction fires
        # in, extracting one concrete predecessor and connecting reaction per
        # ring.  The steps come out in reverse order.
        steps: list[TraceStep] = []
        cursor = {bit: model[bit] for bit in engine.state_bits}
        for index in range(ring_index, 0, -1):
            cursor_cube = manager.cube(cursor)
            predecessors = manager.conj(engine.preimage(cursor_cube), self.frontiers[index - 1])
            previous = next(manager.satisfying_assignments(predecessors, engine.state_bits))
            step_relation = engine.relation.product(
                manager.conj(
                    manager.cube(previous),
                    manager.rename(cursor_cube, engine._prime_map),
                ),
                engine.primed_bits,
            )
            reaction_model = next(manager.satisfying_assignments(step_relation, bits))
            steps.append(
                TraceStep(engine.decode_reaction(reaction_model), engine.decode_state(cursor))
            )
            cursor = previous
        steps.reverse()
        steps.append(TraceStep(engine.decode_reaction(model), self._successor_of(model)))
        return Trace(tuple(steps), name)

    def _successor_of(self, model: Mapping[str, bool]) -> Optional[dict[str, Any]]:
        """The decoded successor state of one concrete (state, reaction) model.

        ``None`` when the transition relation admits no successor for the
        model — possible only for engines whose relation guards memory
        updates (a finite-integer reaction clipping a declared range).
        """
        engine = self.engine
        manager = engine.manager
        primed = engine.relation.product(
            manager.cube(model), engine.signal_bits + engine.state_bits
        )
        if manager.is_false(primed):
            return None
        successor = manager.rename(primed, engine._unprime_map)
        assignment = next(manager.satisfying_assignments(successor, engine.state_bits))
        return engine.decode_state(assignment)

    def synthesise(
        self,
        safe: ReactionPredicate,
        controllable: Sequence[str],
        ensure_nonblocking: bool = True,
    ) -> ControlVerdict:
        """Symbolic supervisory-control synthesis (greatest controllable invariant).

        Mirrors the explicit construction of :mod:`.synthesis`: a state is
        unsafe when it is the target of a reachable reaction violating
        ``safe``; a reaction is uncontrollable when every ``controllable``
        signal is absent; kept states must not let an uncontrollable reaction
        escape and (optionally) must keep at least one allowed reaction.
        Every image here is a partitioned relational product — the monolithic
        transition relation is never materialised.

        Raises:
            BoundReached: when the reach fixpoint did not converge — the
                greatest-controllable-invariant fixpoint would treat every
                reachable-but-unexplored state as an escape target and could
                report "no controller" for a controllable plant.
        """
        engine = self.engine
        manager = engine.manager
        self._validate_predicate(safe)
        self._validate_signals(
            controllable,
            engine.signal_names,
            engine.name,
            "controllable set",
            error=ValueError,
        )
        self._require_complete("synthesis")

        quantified = engine.signal_bits + engine.state_bits
        signal_primed = engine.signal_bits + engine.primed_bits
        bad_reaction = manager.neg(engine.predicate_bdd(safe))
        bad_targets = manager.rename(
            engine.relation.product(manager.conj(self.states, bad_reaction), quantified),
            engine._unprime_map,
        )
        kept = manager.diff(self.states, bad_targets)

        uncontrollable = manager.conj_all(
            manager.nvar(_presence(name)) for name in controllable
        )
        if ensure_nonblocking:
            has_outgoing = engine.relation.product(self.states, signal_primed)

        iterations = 0
        while True:
            iterations += 1
            kept_primed = manager.rename(kept, engine._prime_map)
            escape = engine.relation.product(
                manager.conj_all([self.states, uncontrollable, manager.neg(kept_primed)]),
                signal_primed,
            )
            refined = manager.diff(kept, escape)
            if ensure_nonblocking:
                alive = engine.relation.product(
                    manager.conj(self.states, manager.rename(refined, engine._prime_map)),
                    signal_primed,
                )
                refined = manager.conj(refined, manager.disj(alive, manager.neg(has_outgoing)))
            if refined is kept:
                break
            kept = refined

        success = not manager.is_false(self.states) and manager.entails(engine.initial, kept)
        details = "" if success else "the initial state is outside the greatest controllable invariant set"
        return ControlVerdict(
            success=success,
            kept_states=engine.count_states(kept),
            total_states=self.state_count,
            details=details,
            backend=kept,
        )
