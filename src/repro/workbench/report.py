"""Structured results of workbench batch verification queries.

A :meth:`Design.check_all <repro.workbench.design.Design.check_all>` call
evaluates many properties against one shared reachable set; the
:class:`Report` it returns records, per property, the underlying
:class:`~repro.verification.reachability.CheckResult` (or the refusal of a
truncated backend), and globally the backend that was chosen, the state
count, completeness, and wall-clock timings — both per property and for the
artifacts the design had to compute to answer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator, Mapping, Optional, Sequence, Union

from ..verification.reachability import CheckResult, ReactionPredicate


@dataclass(frozen=True)
class Property:
    """A named verification property: an invariant (AG) or a reachability (EF).

    ``predicate`` is a :class:`~repro.verification.reachability.ReactionPredicate`;
    properties are what :meth:`Design.check` and :meth:`Design.check_all`
    consume, and the factory classmethods are the idiomatic way to build them::

        Property.invariant("exclusive", ~(present("a") & present("b")))
        Property.reachable("can-fire", true_of("fire"))
    """

    name: str
    predicate: ReactionPredicate
    kind: str = "invariant"

    def __post_init__(self) -> None:
        if self.kind not in ("invariant", "reachable"):
            raise ValueError(f"property kind must be 'invariant' or 'reachable', not {self.kind!r}")

    @classmethod
    def invariant(cls, name: str, predicate: ReactionPredicate) -> "Property":
        """AG over reactions: every reachable reaction satisfies ``predicate``."""
        return cls(name, predicate, "invariant")

    @classmethod
    def reachable(cls, name: str, predicate: ReactionPredicate) -> "Property":
        """EF over reactions: some reachable reaction satisfies ``predicate``."""
        return cls(name, predicate, "reachable")


def normalise_properties(
    properties: Optional[Union[Mapping[str, ReactionPredicate], Sequence[Any]]],
    kind: str,
) -> list[Property]:
    """The loose property forms the batch APIs accept, as Property objects.

    ``properties`` is a mapping ``name -> predicate``, or a sequence whose
    items are full :class:`Property` objects, ``(name, predicate)`` pairs, or
    bare predicates (auto-named ``P1``, ``P2``, ... by position); None means
    none.  Shared by ``Design.check``/``check_all`` and the job layer's
    submission path, so a pooled job accepts exactly the forms the in-process
    call does.
    """
    if properties is None:
        return []
    if isinstance(properties, Mapping):
        return [Property(name, predicate, kind) for name, predicate in properties.items()]
    specs: list[Property] = []
    for index, item in enumerate(properties, start=1):
        if isinstance(item, Property):
            specs.append(item)
        elif isinstance(item, ReactionPredicate):
            specs.append(Property(f"P{index}", item, kind))
        elif isinstance(item, tuple) and len(item) == 2:
            specs.append(Property(item[0], item[1], kind))
        else:
            raise TypeError(
                f"property #{index} must be a Property, a ReactionPredicate or a "
                f"(name, predicate) pair, not {type(item).__name__}"
            )
    return specs


@dataclass
class PropertyCheck:
    """One property's outcome within a batch report.

    ``result`` is None when the backend *refused* the verdict (a truncated
    analysis asked to certify a universal answer raises
    :class:`~repro.verification.reachability.BoundReached`); the refusal
    message is then in ``error`` and :attr:`holds` is None — unknown, not
    false.
    """

    name: str
    kind: str
    result: Optional[CheckResult] = None
    error: Optional[str] = None
    elapsed: float = 0.0

    @property
    def holds(self) -> Optional[bool]:
        """True / False verdict, or None when the backend refused."""
        return None if self.result is None else self.result.holds

    @property
    def trace(self):
        """The counterexample/witness trace, when one was requested and exists.

        Populated by ``design.check(..., traces=True)`` on a failed invariant
        (the violation path) or a satisfied reachability property (the
        witness path); ``None`` otherwise.
        """
        return None if self.result is None else self.result.trace

    def __bool__(self) -> bool:
        return self.holds is True

    def explain(self) -> str:
        """One-line readable verdict."""
        if self.result is None:
            return f"{self.name} [{self.kind}]: REFUSED — {self.error}"
        return f"{self.result.explain()} [{self.kind}]"


@dataclass
class Report:
    """Outcome of a batch check: per-property verdicts plus shared context."""

    design_name: str
    backend_name: str
    state_count: int
    complete: bool
    checks: list[PropertyCheck] = field(default_factory=list)
    elapsed: float = 0.0
    artifact_seconds: dict[str, float] = field(default_factory=dict)
    #: Engine resource statistics (:meth:`Reachability.statistics`): for the
    #: symbolic engine peak/live BDD node counts, dynamic-reorder count,
    #: transition-relation cluster count and fixpoint iterations; for the
    #: explicit engines state/transition counts.  Empty when the backend
    #: reports nothing.
    engine_statistics: dict = field(default_factory=dict)
    #: Persistent-cache traffic behind this report.  In-process: the design's
    #: lifetime ``Design.cache_stats`` totals at report time.  Pooled: the
    #: *worker-side, job-scoped* counters the pool aggregated back in —
    #: cache counters are per-process, so without the aggregation a pooled
    #: report would always read 0.  Both zero when no cache is wired.
    cache_hits: int = 0
    cache_misses: int = 0
    #: Progress/status events (dicts with at least ``kind`` and ``at``)
    #: accumulated by the job layer: submission, dispatch, start, the
    #: worker's streamed ``backend``/``property`` progress, and the terminal
    #: transition.  Empty for in-process checks.
    events: list = field(default_factory=list)

    # -- access --------------------------------------------------------------------

    def __iter__(self) -> Iterator[PropertyCheck]:
        return iter(self.checks)

    def __len__(self) -> int:
        return len(self.checks)

    def __getitem__(self, name: Union[str, int]) -> PropertyCheck:
        if isinstance(name, int):
            return self.checks[name]
        for check in self.checks:
            if check.name == name:
                return check
        raise KeyError(f"no property named {name!r} in this report")

    def __contains__(self, name: str) -> bool:
        return any(check.name == name for check in self.checks)

    # -- aggregate verdicts ----------------------------------------------------------

    @property
    def all_hold(self) -> bool:
        """True when every property verdict is positive (no failure, no refusal)."""
        return all(check.holds is True for check in self.checks)

    def __bool__(self) -> bool:
        return self.all_hold

    @property
    def passed(self) -> list[PropertyCheck]:
        """The properties whose verdict is positive."""
        return [check for check in self.checks if check.holds is True]

    @property
    def failed(self) -> list[PropertyCheck]:
        """The properties whose verdict is negative (refusals excluded)."""
        return [check for check in self.checks if check.holds is False]

    @property
    def refused(self) -> list[PropertyCheck]:
        """The properties the backend could not soundly answer."""
        return [check for check in self.checks if check.holds is None]

    def summary(self) -> str:
        """Multi-line human-readable report."""
        status = "complete" if self.complete else "TRUNCATED"
        lines = [
            f"{self.design_name}: {len(self.passed)}/{len(self.checks)} properties hold "
            f"({len(self.failed)} fail, {len(self.refused)} refused)",
            f"  backend: {self.backend_name} — "
            f"{self.state_count} states, {status}, {self.elapsed:.3f}s",
        ]
        if self.engine_statistics:
            rendered = ", ".join(
                f"{key}={value}" for key, value in sorted(self.engine_statistics.items())
            )
            lines.append(f"  engine: {rendered}")
        if self.cache_hits or self.cache_misses:
            lines.append(f"  cache: {self.cache_hits} hits, {self.cache_misses} misses")
        if self.events:
            kinds = ", ".join(event.get("kind", "?") for event in self.events)
            lines.append(f"  events: {kinds}")
        for check in self.checks:
            lines.append(f"  {check.explain()}")
            if check.trace is not None:
                for trace_line in check.trace.render().splitlines():
                    lines.append(f"    {trace_line}")
        return "\n".join(lines)
