"""Verification-as-a-service: a multiprocess job layer over the workbench.

The package splits into the four layers of the service:

* :mod:`~repro.workbench.jobs.protocol` — the picklable wire protocol
  (:class:`DesignSpec`, :class:`JobSpec`, worker messages, :class:`Compare`);
* :mod:`~repro.workbench.jobs.queue` — the priority queue of pending jobs;
* :mod:`~repro.workbench.jobs.worker` — the worker-process entry point;
* :mod:`~repro.workbench.jobs.pool` — :class:`WorkerPool` and the
  :class:`JobHandle` futures it answers with.

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
from .queue import JobQueue

__all__ = [
    "Compare",
    "DesignSpec",
    "JobCancelled",
    "JobError",
    "JobEvent",
    "JobFailed",
    "JobFinished",
    "JobHandle",
    "JobQueue",
    "JobSpec",
    "JobStarted",
    "JobTimeout",
    "WorkerCrashed",
    "WorkerPool",
    "WorkerReady",
    "ensure_picklable",
]
