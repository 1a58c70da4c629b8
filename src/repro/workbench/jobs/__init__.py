"""Verification-as-a-service: a multiprocess job layer over the workbench.

The package splits into the three layers of the service:

* :mod:`~repro.workbench.jobs.protocol` — the picklable wire protocol
  (:class:`DesignSpec`, :class:`JobSpec`, worker messages, :class:`Compare`);
* :mod:`~repro.workbench.jobs.worker` — the worker-process entry point;
* :mod:`~repro.workbench.jobs.pool` — :class:`WorkerPool`, its first-in
  first-out queue of pending jobs, and the :class:`JobHandle` futures it
  answers with.

What the pool adds over an in-process ``Design.check_all`` loop is crash
isolation (a dead worker re-runs its job once on a fresh one), hard
timeouts (an overrunning worker is killed), cooperative cancellation,
streamed progress events, and one on-disk artifact store shared by every
worker.

Quickstart::

    from repro.workbench import WorkerPool
    from repro.verification.reachability import ReactionPredicate as P

    with WorkerPool(4, cache="/tmp/artifacts") as pool:
        handle = pool.submit(design, P.absent("alarm"), traces=True)
        report = handle.result()
"""

from .pool import JobHandle, WorkerPool
from .protocol import (
    Compare,
    DesignSpec,
    JobCancelled,
    JobError,
    JobEvent,
    JobFailed,
    JobFinished,
    JobSpec,
    JobStarted,
    JobTimeout,
    WorkerCrashed,
    WorkerReady,
    ensure_picklable,
)

__all__ = [
    "Compare",
    "DesignSpec",
    "JobCancelled",
    "JobError",
    "JobEvent",
    "JobFailed",
    "JobFinished",
    "JobHandle",
    "JobSpec",
    "JobStarted",
    "JobTimeout",
    "WorkerCrashed",
    "WorkerPool",
    "WorkerReady",
    "ensure_picklable",
]
