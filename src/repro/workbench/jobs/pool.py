"""The multiprocess verification worker pool and its job futures.

:class:`WorkerPool` turns the single-process workbench into a service: jobs
— ``(design spec, properties, options)`` — are queued with priorities,
executed by a fleet of **spawned** OS processes (one interpreter and one GIL
each, so verification scales with cores), and answered through
:class:`JobHandle` futures that stream progress events and surface the
worker-side :class:`~repro.workbench.report.Report`.

The failure taxonomy the pool owns:

* **per-job timeouts** — the run clock starts at the worker's ``started``
  message; on expiry the worker is killed and respawned, and the job fails
  with :class:`~repro.workbench.jobs.protocol.JobTimeout`;
* **worker crashes** — a dead worker process with a job in flight retries
  the job on a fresh worker up to ``retries`` times, then fails it with
  :class:`~repro.workbench.jobs.protocol.WorkerCrashed`;
* **cancellation** — before dispatch the job is dropped from the queue;
  after dispatch the parent writes the job's sequence number into the
  worker's shared cancel cell and the worker aborts **cooperatively** at
  the next property boundary (a stuck fixpoint is the timeout's problem).

A shared :class:`~repro.workbench.cache.DiskArtifactStore` (``cache=``) is
wired into every worker's initialiser, so encodings and reached sets
computed by one worker warm the whole fleet — and the job-scoped hit/miss
counters come back in each report instead of reading 0 in the parent.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import queue as queue_module
import threading
import time
from typing import Any, Optional

from ..report import Report
from .protocol import (
    JobCancelled,
    JobError,
    JobEvent,
    JobFinished,
    JobSpec,
    JobStarted,
    JobTimeout,
    WorkerCrashed,
    WorkerReady,
    ensure_picklable,
    make_check_job,
)
from .queue import JobQueue
from .worker import worker_main

#: Handle states, in the order a healthy job moves through them.
QUEUED, RUNNING, DONE, FAILED, CANCELLED, TIMEOUT = (
    "queued", "running", "done", "failed", "cancelled", "timeout",
)
_TERMINAL = (DONE, FAILED, CANCELLED, TIMEOUT)

#: Service-loop heartbeat in seconds: bounds timeout/crash detection
#: latency, not job latency (completions wake the loop).
_POLL_INTERVAL_S = 0.05


class JobHandle:
    """An async future for one submitted job.

    ``result()`` blocks for and returns the worker-side
    :class:`~repro.workbench.report.Report`, re-raising the job's failure
    otherwise.  ``events`` is the accumulated progress/status stream — the
    pool also attaches it to the returned report (``report.events``).
    """

    def __init__(self, spec: JobSpec, pool: "WorkerPool") -> None:
        self.spec = spec
        self.job_id = spec.job_id
        self.seq = spec.seq
        self._pool = pool
        self._completed = threading.Event()
        self._started = threading.Event()
        self._result: Any = None
        self._error: Optional[BaseException] = None
        self._state = QUEUED
        self._events: list[dict] = []
        self.worker: Optional[str] = None
        self.pid: Optional[int] = None

    # -- observation -------------------------------------------------------------

    @property
    def state(self) -> str:
        return self._state

    @property
    def events(self) -> list[dict]:
        """A copy of the progress/status events observed so far."""
        return list(self._events)

    def done(self) -> bool:
        return self._completed.is_set()

    def cancelled(self) -> bool:
        return self._state == CANCELLED

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the job reaches a terminal state (True) or ``timeout``."""
        return self._completed.wait(timeout)

    def wait_started(self, timeout: Optional[float] = None) -> bool:
        """Block until a worker actually picked the job up."""
        return self._started.wait(timeout)

    def result(self, timeout: Optional[float] = None) -> Any:
        """The job's report; raises its failure; raises TimeoutError
        when the job is still unfinished after ``timeout`` seconds."""
        if not self._completed.wait(timeout):
            raise TimeoutError(f"job {self.job_id!r} not finished (state: {self._state})")
        if self._error is not None:
            raise self._error
        return self._result

    def exception(self, timeout: Optional[float] = None) -> Optional[BaseException]:
        """The job's failure (None for success); same blocking as ``result``."""
        if not self._completed.wait(timeout):
            raise TimeoutError(f"job {self.job_id!r} not finished (state: {self._state})")
        return self._error

    def cancel(self) -> bool:
        """Request cancellation; True when the request could still be placed."""
        return self._pool._cancel(self)

    # -- pool-side transitions (called under the pool lock) ------------------------

    def _event(self, kind: str, **payload: Any) -> None:
        self._events.append({"kind": kind, "at": time.time(), **payload})

    def _mark_running(self, worker: str, pid: int) -> None:
        self._state = RUNNING
        self.worker, self.pid = worker, pid
        self._started.set()

    def _mark_requeued(self) -> None:
        self._state = QUEUED

    def _finish(self, state: str, result: Any = None, error: Optional[BaseException] = None) -> None:
        if self._state in _TERMINAL:
            return
        self._state = state
        self._result, self._error = result, error
        self._completed.set()

    def __repr__(self) -> str:
        return f"JobHandle({self.job_id!r}, state={self._state!r})"


class _WorkerSlot:
    """Parent-side bookkeeping for one worker process."""

    __slots__ = ("name", "process", "tasks", "cancel_cell", "ready", "job", "deadline")

    def __init__(self) -> None:
        self.name = ""
        self.process = None
        self.tasks = None
        self.cancel_cell = None
        self.ready = False
        self.job: Optional[JobSpec] = None
        self.deadline: Optional[float] = None


class WorkerPool:
    """A fleet of spawned verification workers behind a priority job queue.

    Args:
        workers: process count (default: all schedulable cores, capped at 4).
        cache: a :class:`~repro.workbench.cache.DiskArtifactStore` (or its
            root path) shared by every worker; None disables cross-worker
            artifact sharing.  In-memory stores cannot cross the process
            boundary and are rejected.
        job_timeout: default per-job timeout (seconds of run time) applied
            when a submission does not set its own; None = no timeout.
        retries: default retry budget per job for worker crashes.
        name: prefix of the worker process names (shows up in reports).
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        *,
        cache: Any = None,
        job_timeout: Optional[float] = None,
        retries: int = 1,
        name: str = "pool",
    ) -> None:
        if workers is None:
            workers = max(1, min(4, _available_cores()))
        if workers < 1:
            raise ValueError(f"a pool needs at least one worker, not {workers}")
        self.name = name
        self.workers = workers
        self.job_timeout = job_timeout
        self.retries = retries
        self._cache_spec = _cache_spec(cache)
        self._context = multiprocessing.get_context("spawn")
        self._results = self._context.Queue()
        self._queue = JobQueue()
        self._lock = threading.RLock()
        self._handles: dict[int, JobHandle] = {}
        self._seq = itertools.count()
        self._closed = False
        self._stopping = False
        self.stats = {
            "submitted": 0, "completed": 0, "failed": 0, "cancelled": 0,
            "timeouts": 0, "crashes": 0, "retries": 0,
            "cache_hits": 0, "cache_misses": 0,
        }
        self._slots = [self._spawn_slot(index) for index in range(workers)]
        self._service = threading.Thread(
            target=self._service_loop, name=f"{name}-service", daemon=True
        )
        self._service.start()

    # -- lifecycle ---------------------------------------------------------------

    def _spawn_slot(self, index: int, slot: Optional[_WorkerSlot] = None) -> _WorkerSlot:
        slot = slot or _WorkerSlot()
        slot.name = f"{self.name}-w{index}"
        slot.tasks = self._context.SimpleQueue()
        slot.cancel_cell = self._context.Value("q", -1, lock=False)
        slot.ready = False
        slot.job = None
        slot.deadline = None
        slot.process = self._context.Process(
            target=worker_main,
            name=slot.name,
            args=(slot.name, slot.tasks, self._results, self._cache_spec, slot.cancel_cell),
            daemon=True,
        )
        slot.process.start()
        return slot

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        # An exception unwinding through the block must not hang on queued
        # work; a clean exit drains it.
        self.shutdown(wait=exc_info[0] is None)

    @property
    def closed(self) -> bool:
        return self._closed

    def wait_ready(self, timeout: float = 60.0) -> bool:
        """Block until every worker finished importing (True), or ``timeout``."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with self._lock:
                if all(slot.ready for slot in self._slots):
                    return True
            time.sleep(0.01)
        return False

    def wait_idle(self, timeout: Optional[float] = None) -> bool:
        """Block until no job is pending or running (True), or ``timeout``."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            with self._lock:
                idle = not self._queue and all(slot.job is None for slot in self._slots)
            if idle:
                return True
            if deadline is not None and time.monotonic() >= deadline:
                return False
            time.sleep(0.01)

    def shutdown(self, wait: bool = True, timeout: Optional[float] = None) -> None:
        """Stop the pool.  ``wait=True`` drains queued and running jobs first;
        ``wait=False`` cancels queued jobs and kills running workers."""
        with self._lock:
            if self._stopping:
                return
            self._closed = True
        if wait:
            self.wait_idle(timeout)
        with self._lock:
            self._stopping = True
            for job in self._queue.drain():
                handle = self._handles.get(job.seq)
                if handle is not None:
                    handle._event("cancelled", reason="pool shutdown")
                    handle._finish(CANCELLED, error=JobCancelled("pool shut down"))
                    self.stats["cancelled"] += 1
            for slot in self._slots:
                if slot.job is None and slot.process.is_alive():
                    slot.tasks.put(None)
        for slot in self._slots:
            slot.process.join(2.0)
        with self._lock:
            for slot in self._slots:
                if slot.process.is_alive():
                    _stop_process(slot.process)
                if slot.job is not None:
                    handle = self._handles.get(slot.job.seq)
                    slot.job = None
                    if handle is not None:
                        handle._event("cancelled", reason="pool shutdown")
                        handle._finish(CANCELLED, error=JobCancelled("pool shut down"))
                        self.stats["cancelled"] += 1
        self._service.join(5.0)

    # -- submission ----------------------------------------------------------------

    def submit(
        self,
        design: Any,
        *properties: Any,
        invariants: Any = None,
        reachables: Any = None,
        backend: str = "auto",
        traces: bool = False,
        priority: int = 0,
        timeout: Optional[float] = None,
        retries: Optional[int] = None,
        job_id: Optional[str] = None,
    ) -> JobHandle:
        """Queue a batch check job; returns its :class:`JobHandle` future.

        ``design`` is a Design, a DesignSpec or a bare ProcessDefinition;
        properties follow the ``Design.check``/``check_all`` forms.  Higher
        ``priority`` runs first.  ``timeout`` (default: the pool's
        ``job_timeout``) kills the worker on expiry and fails the job with
        :class:`~repro.workbench.jobs.protocol.JobTimeout`.
        """
        seq = next(self._seq)
        spec = make_check_job(
            seq,
            job_id or f"job-{seq}",
            design,
            properties,
            invariants,
            reachables,
            backend=backend,
            traces=traces,
            priority=priority,
            timeout=timeout if timeout is not None else self.job_timeout,
            retries=self.retries if retries is None else retries,
        )
        return self._submit_spec(spec)

    def _submit_spec(self, spec: JobSpec) -> JobHandle:
        ensure_picklable(spec)
        with self._lock:
            if self._closed:
                raise RuntimeError(f"pool {self.name!r} is shut down")
            handle = JobHandle(spec, self)
            self._handles[spec.seq] = handle
            handle._event("submitted", job_id=spec.job_id, priority=spec.priority)
            self.stats["submitted"] += 1
            self._queue.push(spec)
            self._dispatch()
        return handle

    # -- cancellation -----------------------------------------------------------------

    def _cancel(self, handle: JobHandle) -> bool:
        with self._lock:
            if handle.state in _TERMINAL:
                return False
            if self._queue.cancel(handle.seq):
                handle._event("cancelled", reason="before start")
                handle._finish(CANCELLED, error=JobCancelled(f"job {handle.job_id} cancelled before it started"))
                self.stats["cancelled"] += 1
                return True
            for slot in self._slots:
                if slot.job is not None and slot.job.seq == handle.seq:
                    # Cooperative: the worker sees the cell at its next
                    # property boundary and answers status="cancelled".
                    slot.cancel_cell.value = handle.seq
                    handle._event("cancel-requested", worker=slot.name)
                    return True
            return False

    # -- the service loop ---------------------------------------------------------------

    def _service_loop(self) -> None:
        while True:
            try:
                message = self._results.get(timeout=_POLL_INTERVAL_S)
            except (queue_module.Empty, OSError, EOFError):
                message = None
            with self._lock:
                if message is not None:
                    self._handle_message(message)
                    # Drain whatever else already arrived before sleeping again.
                    while True:
                        try:
                            self._handle_message(self._results.get_nowait())
                        except (queue_module.Empty, OSError, EOFError):
                            break
                self._check_deadlines()
                self._reap_workers()
                self._dispatch()
                if self._stopping:
                    return

    def _handle_message(self, message: Any) -> None:
        if isinstance(message, WorkerReady):
            for slot in self._slots:
                if slot.name == message.worker and slot.process.pid == message.pid:
                    slot.ready = True
            return
        handle = self._handles.get(getattr(message, "seq", -1))
        if handle is None:
            return
        if isinstance(message, JobStarted):
            slot = self._slot_running(message.seq)
            if slot is not None:
                spec_timeout = slot.job.timeout
                slot.deadline = None if spec_timeout is None else time.monotonic() + spec_timeout
            handle._mark_running(message.worker, message.pid)
            handle._event("started", worker=message.worker, pid=message.pid)
        elif isinstance(message, JobEvent):
            handle._events.append(message.as_dict())
        elif isinstance(message, JobFinished):
            slot = self._slot_running(message.seq)
            if slot is not None:
                slot.job = None
                slot.deadline = None
            if handle.state in _TERMINAL:
                return
            # A late result racing a crash retry is still a valid answer:
            # accept it and drop the queued retry.
            self._queue.cancel(message.seq)
            self.stats["cache_hits"] += message.cache_hits
            self.stats["cache_misses"] += message.cache_misses
            failure = message.failure()
            if failure is None:
                handle._event("finished", elapsed=round(message.elapsed, 6))
                result = message.result
                if isinstance(result, Report):
                    result.cache_hits = message.cache_hits
                    result.cache_misses = message.cache_misses
                    result.events = handle._events
                handle._finish(DONE, result=result)
                self.stats["completed"] += 1
            elif isinstance(failure, JobCancelled):
                handle._event("cancelled", reason="cooperative")
                handle._finish(CANCELLED, error=failure)
                self.stats["cancelled"] += 1
            else:
                handle._event("failed", error=message.error_type)
                handle._finish(FAILED, error=failure)
                self.stats["failed"] += 1

    def _slot_running(self, seq: int) -> Optional[_WorkerSlot]:
        for slot in self._slots:
            if slot.job is not None and slot.job.seq == seq:
                return slot
        return None

    def _check_deadlines(self) -> None:
        now = time.monotonic()
        for index, slot in enumerate(self._slots):
            if slot.job is None or slot.deadline is None or now < slot.deadline:
                continue
            job = slot.job
            handle = self._handles.get(job.seq)
            self.stats["timeouts"] += 1
            _stop_process(slot.process)
            slot.job = None
            if not self._stopping:
                self._slots[index] = self._spawn_slot(index, slot)
            if handle is None or handle.state in _TERMINAL:
                continue
            handle._event("timeout", action="failed")
            handle._finish(
                TIMEOUT,
                error=JobTimeout(
                    f"job {job.job_id} exceeded its {job.timeout:.3g}s timeout "
                    f"(worker {slot.name} killed)"
                ),
            )

    def _reap_workers(self) -> None:
        if self._stopping:
            return
        for index, slot in enumerate(self._slots):
            if slot.process.is_alive():
                continue
            job, exitcode = slot.job, slot.process.exitcode
            slot.job = None
            self._slots[index] = self._spawn_slot(index, slot)
            if job is None:
                continue
            self.stats["crashes"] += 1
            handle = self._handles.get(job.seq)
            if handle is None or handle.state in _TERMINAL:
                continue
            if job.retries > 0:
                self.stats["retries"] += 1
                handle._event("worker-crashed", exitcode=exitcode, action="requeued",
                              retries_left=job.retries - 1)
                handle._mark_requeued()
                self._queue.push(job.requeued())
            else:
                handle._event("worker-crashed", exitcode=exitcode, action="failed")
                handle._finish(
                    FAILED,
                    error=WorkerCrashed(
                        f"worker {slot.name} died (exit code {exitcode}) while running "
                        f"job {job.job_id}, and its retry budget is exhausted"
                    ),
                )

    def _dispatch(self) -> None:
        for slot in self._slots:
            if not slot.ready or slot.job is not None or not slot.process.is_alive():
                continue
            job = self._queue.pop()
            if job is None:
                return
            slot.job = job
            slot.deadline = None  # armed when the worker reports started
            handle = self._handles.get(job.seq)
            if handle is not None:
                handle._event("dispatched", worker=slot.name)
            slot.tasks.put(job)

    # -- introspection ---------------------------------------------------------------

    def statistics(self) -> dict:
        """A snapshot of the pool's lifetime counters and current load.

        ``cache_hits``/``cache_misses`` aggregate the job-scoped worker-side
        counters across every finished job — the pool-wide view of the
        shared artifact store's effectiveness.
        """
        with self._lock:
            running = sum(1 for slot in self._slots if slot.job is not None)
            return {
                **self.stats,
                "workers": len(self._slots),
                "running": running,
                "pending": len(self._queue),
            }

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return f"WorkerPool({self.name!r}, workers={self.workers}, {state})"


# --------------------------------------------------------------------------- helpers

def _available_cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _cache_spec(cache: Any) -> Optional[tuple]:
    """Normalise ``cache=`` into the picklable (root, max_bytes) worker spec."""
    from ..cache import ArtifactStore, DiskArtifactStore

    if cache is None:
        return None
    if isinstance(cache, DiskArtifactStore):
        return (cache.root, cache.max_bytes)
    if isinstance(cache, ArtifactStore):
        raise TypeError(
            f"{type(cache).__name__} cannot be shared across worker processes — "
            "use a DiskArtifactStore (or a directory path)"
        )
    return (str(cache), None)


def _stop_process(process: Any) -> None:
    """Terminate, escalating to SIGKILL; never leaves a zombie behind."""
    process.terminate()
    process.join(1.0)
    if process.is_alive():
        process.kill()
        process.join(1.0)

