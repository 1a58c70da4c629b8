"""The pool's pending-job queue: priorities, FIFO ties, lazy cancellation.

A :class:`JobQueue` holds :class:`~repro.workbench.jobs.protocol.JobSpec`\\ s
that have been submitted but not yet dispatched to a worker.  Ordering is
**higher priority first**, submission order within a priority (a heap over
``(-priority, seq)``).  Cancellation is lazy: :meth:`cancel` marks the
sequence number and :meth:`pop` silently drops marked entries — removing
from the middle of a heap would cost a rebuild, and requeued jobs (crash
retries) re-enter with their original sequence number, so the mark also
covers a cancel racing a retry.

The queue is thread-safe (pool callers: the submitting thread, the service
thread, and ``cancel`` from any thread) but deliberately in-process only —
workers never see it; the pool hands each worker one job at a time.
"""

from __future__ import annotations

import heapq
import threading
from typing import Optional

from .protocol import JobSpec


class JobQueue:
    """A thread-safe priority queue of pending jobs."""

    def __init__(self) -> None:
        self._heap: list[tuple[int, int, JobSpec]] = []
        self._cancelled: set[int] = set()
        self._condition = threading.Condition()

    def push(self, job: JobSpec) -> None:
        """Enqueue a job (or re-enqueue a retried one)."""
        with self._condition:
            # A retry of a job cancelled while it was in flight must not
            # resurrect it; drop the stale mark for genuinely new sequence
            # numbers is not needed because seqs are never reused for new jobs.
            if job.seq in self._cancelled:
                return
            heapq.heappush(self._heap, (-job.priority, job.seq, job))
            self._condition.notify()

    def pop(self, block: bool = False, timeout: Optional[float] = None) -> Optional[JobSpec]:
        """The highest-priority pending job, or None.

        Cancelled entries are discarded on the way out.  With ``block=True``
        waits up to ``timeout`` seconds for a job to arrive.
        """
        with self._condition:
            while True:
                job = self._pop_live()
                if job is not None or not block:
                    return job
                if not self._condition.wait(timeout):
                    return self._pop_live()

    def _pop_live(self) -> Optional[JobSpec]:
        while self._heap:
            _, seq, job = heapq.heappop(self._heap)
            if seq in self._cancelled:
                self._cancelled.discard(seq)
                continue
            return job
        return None

    def cancel(self, seq: int) -> bool:
        """Mark a queued job cancelled; True when it was actually pending."""
        with self._condition:
            if any(entry_seq == seq for _, entry_seq, _ in self._heap):
                self._cancelled.add(seq)
                return True
            return False

    def drain(self) -> list[JobSpec]:
        """Remove and return every pending (non-cancelled) job."""
        with self._condition:
            drained = []
            while True:
                job = self._pop_live()
                if job is None:
                    return drained
                drained.append(job)

    def __len__(self) -> int:
        with self._condition:
            return sum(1 for _, seq, _ in self._heap if seq not in self._cancelled)

    def __bool__(self) -> bool:
        return len(self) > 0
