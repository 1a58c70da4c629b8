"""The wire protocol of the verification job layer.

Everything that crosses the process boundary between a
:class:`~repro.workbench.jobs.pool.WorkerPool` and its workers is defined
here as pure picklable data: the :class:`DesignSpec` a worker rebuilds a
:class:`~repro.workbench.design.Design` from, the :class:`JobSpec` naming
what to run against it, and the message stream a worker answers with
(:class:`WorkerReady`, :class:`JobStarted`, :class:`JobEvent`,
:class:`JobFinished`).

Jobs are pickled **eagerly at submission**, so a spec the spawn machinery
cannot ship — most commonly a :meth:`ReactionPredicate.value
<repro.verification.reachability.ReactionPredicate.value>` atom closing over
a lambda — fails in the caller with a pointed error instead of wedging a
worker.  :class:`Compare` is the picklable replacement for those lambdas: a
small declarative comparison (``Compare("<", 5)``, ``Compare("between",
(0, 7))``) that any worker process can import and evaluate.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Mapping, Optional, Sequence

from ...signal.ast import ProcessDefinition
from ...verification.explorer import ExplorationOptions
from ...verification.symbolic_int import SymbolicOptions
from ..report import Property, normalise_properties

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..cache import ArtifactStore
    from ..design import Design


# --------------------------------------------------------------------------- failures

class JobError(RuntimeError):
    """Base class of every failure a :class:`JobHandle` can raise."""


class JobFailed(JobError):
    """The job ran and raised; ``error_type`` names the worker-side class."""

    def __init__(self, message: str, error_type: str = "Exception") -> None:
        super().__init__(message)
        self.error_type = error_type


class JobTimeout(JobError):
    """The job exceeded its per-job timeout and its worker was killed."""


class JobCancelled(JobError):
    """The job was cancelled — before it started, or cooperatively during."""


class WorkerCrashed(JobError):
    """The worker process died mid-job and the retry budget is exhausted."""


# --------------------------------------------------------------------------- picklable value tests

#: The comparison operators :class:`Compare` implements.
COMPARE_OPERATORS = ("==", "!=", "<", "<=", ">", ">=", "between")


@dataclass(frozen=True)
class Compare:
    """A picklable value test for :meth:`ReactionPredicate.value` atoms.

    Lambdas do not survive pickling, so properties over carried data cannot
    cross the pool's process boundary as closures.  ``Compare`` is the
    declarative substitute::

        P.value("n", Compare("<", 5))            # n < 5
        P.value("level", Compare("between", (0, 4)))  # 0 <= level <= 4

    ``"between"`` takes an inclusive ``(lo, hi)`` pair; every other operator
    takes a single constant.
    """

    op: str
    bound: Any

    def __post_init__(self) -> None:
        if self.op not in COMPARE_OPERATORS:
            raise ValueError(f"Compare operator must be one of {COMPARE_OPERATORS}, not {self.op!r}")
        if self.op == "between":
            lo, hi = self.bound  # unpacking doubles as validation
            if lo > hi:
                raise ValueError(f"Compare('between', (lo, hi)) needs lo <= hi, got {self.bound!r}")

    def __call__(self, value: Any) -> bool:
        if self.op == "==":
            return value == self.bound
        if self.op == "!=":
            return value != self.bound
        if self.op == "<":
            return value < self.bound
        if self.op == "<=":
            return value <= self.bound
        if self.op == ">":
            return value > self.bound
        if self.op == ">=":
            return value >= self.bound
        lo, hi = self.bound
        return lo <= value <= hi

    def __repr__(self) -> str:
        return f"Compare({self.op!r}, {self.bound!r})"


# --------------------------------------------------------------------------- design specs

@dataclass(frozen=True)
class DesignSpec:
    """A picklable recipe for rebuilding a Design in a worker process.

    Carries the process definition and every option that influences derived
    artifacts, so the worker-side rebuild computes exactly what the
    submitting design would have — same artifact cache keys included, which
    is what lets a shared :class:`~repro.workbench.cache.DiskArtifactStore`
    serve warm encodings and reached sets across the pool.  The worker-side
    design routes ``backend="auto"`` exactly as the submitting one: the
    route reads only the process and ``symbolic_state_threshold``.
    """

    process: ProcessDefinition
    source: Optional[str] = None
    exploration_options: Optional[ExplorationOptions] = None
    symbolic_options: Optional[SymbolicOptions] = None
    symbolic_state_threshold: Optional[int] = None

    @classmethod
    def from_design(cls, design: "Design") -> "DesignSpec":
        """Snapshot a Design's identity and options into a shippable spec."""
        return cls(
            process=design.process,
            source=design.source,
            exploration_options=design.exploration_options,
            symbolic_options=design.symbolic_options,
            symbolic_state_threshold=design.symbolic_state_threshold,
        )

    def build(self, cache: Optional["ArtifactStore"] = None) -> "Design":
        """Rebuild the Design (in whatever process this runs in)."""
        from ..design import Design

        return Design(
            self.process,
            exploration_options=self.exploration_options,
            symbolic_options=self.symbolic_options,
            symbolic_state_threshold=self.symbolic_state_threshold,
            source=self.source,
            cache=cache,
        )

    @property
    def name(self) -> str:
        return self.process.name


def as_design_spec(design: Any) -> DesignSpec:
    """Coerce what ``submit`` accepts — a Design, a spec, or a bare process."""
    from ..design import Design

    if isinstance(design, DesignSpec):
        return design
    if isinstance(design, Design):
        return DesignSpec.from_design(design)
    if isinstance(design, ProcessDefinition):
        return DesignSpec(process=design)
    raise TypeError(
        f"submit() expects a Design, a DesignSpec or a ProcessDefinition, "
        f"not {type(design).__name__}"
    )


# --------------------------------------------------------------------------- job specs

@dataclass
class JobSpec:
    """One verification job, as shipped to a worker.

    The job is a batch check of invariants/reachables through
    ``Design.check_all``.  ``priority`` is higher-runs-first; ``timeout`` is
    wall-clock seconds of *run* time before the worker is killed and the job
    fails with :class:`JobTimeout`; ``retries`` is the budget for re-running
    the job after a worker crash.
    """

    seq: int
    job_id: str
    design: DesignSpec
    invariants: tuple[Property, ...] = ()
    reachables: tuple[Property, ...] = ()
    backend: str = "auto"
    traces: bool = False
    priority: int = 0
    timeout: Optional[float] = None
    retries: int = 1

    def __post_init__(self) -> None:
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError(f"timeout must be positive, not {self.timeout!r}")
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, not {self.retries!r}")
        if not (self.invariants or self.reachables):
            raise ValueError("a check job needs at least one invariant or reachable property")

    def requeued(self) -> "JobSpec":
        """A copy with one retry spent (for a retry after a worker crash)."""
        return replace(self, retries=self.retries - 1)


def make_check_job(
    seq: int,
    job_id: str,
    design: Any,
    properties: Sequence[Any] = (),
    invariants: Any = None,
    reachables: Any = None,
    **options: Any,
) -> JobSpec:
    """Build a ``check`` JobSpec from the loose forms ``submit`` accepts."""
    specs_invariants = tuple(normalise_properties(properties or None, "invariant"))
    specs_invariants += tuple(normalise_properties(invariants, "invariant"))
    specs_reachables = tuple(normalise_properties(reachables, "reachable"))
    return JobSpec(
        seq=seq,
        job_id=job_id,
        design=as_design_spec(design),
        invariants=specs_invariants,
        reachables=specs_reachables,
        **options,
    )


def ensure_picklable(spec: JobSpec) -> bytes:
    """Pickle the spec eagerly, so unshippable jobs fail in the caller.

    The usual offender is a ``ReactionPredicate.value`` atom closing over a
    lambda; the error says to use :class:`Compare` (or any importable
    callable) instead.
    """
    try:
        return pickle.dumps(spec, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as error:
        raise TypeError(
            f"job {spec.job_id!r} cannot be shipped to a worker process: {error} "
            "(value-atom predicates must use picklable callables — e.g. "
            "repro.workbench.jobs.Compare — instead of lambdas)"
        ) from error


# --------------------------------------------------------------------------- worker messages

@dataclass(frozen=True)
class WorkerReady:
    """A worker finished importing and is accepting jobs."""

    worker: str
    pid: int


@dataclass(frozen=True)
class JobStarted:
    """A worker picked the job up; the per-job timeout clock starts here."""

    seq: int
    worker: str
    pid: int
    at: float


@dataclass(frozen=True)
class JobEvent:
    """One progress/status event, streamed while the job runs."""

    seq: int
    kind: str
    payload: Mapping[str, Any] = field(default_factory=dict)
    at: float = 0.0

    def as_dict(self) -> dict[str, Any]:
        """The flat form surfaced in ``Report.events``.

        The event's own ``kind``/``at`` win over same-named payload keys, so
        a progress payload cannot re-label the event.
        """
        return {**dict(self.payload), "kind": self.kind, "at": self.at}


#: Terminal statuses a worker reports for a job.
JOB_STATUSES = ("done", "failed", "cancelled")


@dataclass(frozen=True)
class JobFinished:
    """The job's terminal message: a result, a failure, or a cancellation.

    ``cache_hits``/``cache_misses`` are the *job-scoped* artifact-cache
    counters of the worker-side design — the parent aggregates them into the
    returned report and the pool statistics, so pooled runs never report the
    parent process's zeros (the per-process counter bug).
    """

    seq: int
    status: str
    result: Any = None
    error_type: Optional[str] = None
    error_message: Optional[str] = None
    cache_hits: int = 0
    cache_misses: int = 0
    elapsed: float = 0.0
    at: float = 0.0

    def failure(self) -> Optional[JobError]:
        """The parent-side exception this message maps to, if any."""
        if self.status == "done":
            return None
        if self.status == "cancelled":
            return JobCancelled(self.error_message or "job cancelled")
        return JobFailed(
            self.error_message or "job failed",
            error_type=self.error_type or "Exception",
        )
