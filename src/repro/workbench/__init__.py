"""repro.workbench — one facade over the whole polychronous tool-chain.

:class:`Design` is the single entry point users are expected to touch:
construct it from SIGNAL source, a process definition, a DSL builder or a
SpecC behavior; read its memoised artifacts (compiled process, clock
hierarchy, endochrony report, Z/3Z encoding, explicit / polynomial / symbolic
reachable sets, simulator); and run batched verification queries on a named
engine or on ``backend="auto"``, which picks the bit-blasted BDD engine when
the design's potential state bound exceeds ``symbolic_state_threshold`` and
the explicit engine otherwise.

    from repro.workbench import Design, Property
    from repro.verification import ReactionPredicate as P

    design = Design.from_process(boolean_shift_register_process(14))
    report = design.check_all(invariants={
        "output-needs-input": P.present("s13").implies(P.present("x")),
        "no-spontaneous-tail": P.absent("x").implies(P.absent("s0")),
    })
    print(report.summary())   # backend: symbolic-int — one fixpoint, k queries

Expensive artifacts can additionally be shared *across* designs (and across
processes) through the content-addressed persistent cache of
:mod:`repro.workbench.cache`: pass ``Design(..., cache=store)`` or install a
process-wide default with :func:`configure_cache`.

Verification scales past one interpreter through the job layer
(:mod:`repro.workbench.jobs`): a :class:`WorkerPool` of spawned OS processes,
created and shut down by its caller, runs ``submit``-ted batch checks
against a shared :class:`DiskArtifactStore`, with priorities, per-job
timeouts, cooperative cancellation and crash retry — answered as
:class:`JobHandle` futures.

The module-level entry points of :mod:`repro.verification` (``explore``,
``invariant_holds``, ``synthesise_with``, ...) take an LTS or an engine;
``design.backend(...)`` hands them the one the facade routes to.
"""

from .cache import (
    ArtifactStore,
    DiskArtifactStore,
    MemoryArtifactStore,
    configure_cache,
    default_cache,
)
from .design import CheckCancelled, Design
from .report import Property, PropertyCheck, Report

# .jobs imports .design; keep it after the facade so the cycle stays one-way.
from .jobs import (
    Compare,
    DesignSpec,
    JobCancelled,
    JobError,
    JobFailed,
    JobHandle,
    JobQueue,
    JobTimeout,
    WorkerCrashed,
    WorkerPool,
)

__all__ = [
    "ArtifactStore",
    "CheckCancelled",
    "Compare",
    "Design",
    "DesignSpec",
    "DiskArtifactStore",
    "JobCancelled",
    "JobError",
    "JobFailed",
    "JobHandle",
    "JobQueue",
    "JobTimeout",
    "MemoryArtifactStore",
    "Property",
    "PropertyCheck",
    "Report",
    "WorkerCrashed",
    "WorkerPool",
    "configure_cache",
    "default_cache",
]
