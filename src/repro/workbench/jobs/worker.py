"""The worker-process side of the pool: rebuild, run, stream, answer.

:func:`worker_main` is the (spawn-picklable, module-level) target of every
pool process.  A worker:

* wires the pool's shared :class:`~repro.workbench.cache.DiskArtifactStore`
  into its own process (``configure_cache``) so encodings, ranges and
  reached sets computed by *any* worker warm every other worker;
* announces :class:`~repro.workbench.jobs.protocol.WorkerReady` and then
  loops on its task queue (``None`` is the shutdown sentinel);
* rebuilds a fresh :class:`~repro.workbench.design.Design` per job from the
  pickled :class:`~repro.workbench.jobs.protocol.DesignSpec`, runs the
  query through the **same** facade code the in-process path uses
  (``check_all`` / ``synthesise``), and streams progress events back;
* polls the shared cancel cell between properties — the cooperative
  cancellation point — and reports ``status="cancelled"`` when it fires;
* converts any worker-side exception into a ``status="failed"`` message
  (the parent re-raises it as :class:`~repro.workbench.jobs.protocol.JobFailed`)
  and **pre-pickles** results before sending, so an unpicklable payload
  degrades into a structured failure instead of wedging the result queue.

Because each job gets a fresh Design, the cache hit/miss counters shipped in
:class:`~repro.workbench.jobs.protocol.JobFinished` are exactly the job's
own traffic; the parent folds them into the returned report (per-process
counters would otherwise read 0 for pooled jobs).
"""

from __future__ import annotations

import os
import pickle
import signal
import time
import traceback
from time import perf_counter
from typing import Any, Optional

from ..cache import DiskArtifactStore
from ..design import CheckCancelled
from .protocol import JobEvent, JobFinished, JobSpec, JobStarted, WorkerReady


def _open_store(cache_spec: Optional[tuple]) -> Optional[DiskArtifactStore]:
    """The worker's handle on the pool-shared on-disk artifact store."""
    if cache_spec is None:
        return None
    root, max_bytes = cache_spec
    return DiskArtifactStore(root, max_bytes=max_bytes)


def _run_job(
    worker: str,
    spec: JobSpec,
    results: Any,
    store: Optional[DiskArtifactStore],
    cancel_cell: Any,
) -> None:
    started = perf_counter()
    results.put(JobStarted(spec.seq, worker, os.getpid(), time.time()))

    def emit(kind: str, payload: dict) -> None:
        results.put(JobEvent(spec.seq, kind, dict(payload), time.time()))

    def cancelled() -> bool:
        return cancel_cell.value == spec.seq

    status, result, error_type, error_message = "done", None, None, None
    hits = misses = 0
    try:
        if cancelled():
            raise CheckCancelled(f"job {spec.job_id} cancelled before it started")
        design = spec.design.build(cache=store)
        if spec.kind == "synthesise":
            verdict = design.synthesise(
                spec.safe,
                list(spec.controllable),
                ensure_nonblocking=spec.ensure_nonblocking,
                backend=spec.backend,
            )
            # The backend field carries live engine artifacts (BDD roots,
            # synthesis LTSs) that must not cross the process boundary.
            verdict.backend = None
            emit("synthesis", {"success": verdict.success, "kept": verdict.kept_states})
            result = verdict
        else:
            result = design.check_all(
                invariants=list(spec.invariants) or None,
                reachables=list(spec.reachables) or None,
                backend=spec.backend,
                traces=spec.traces,
                progress=emit,
                should_cancel=cancelled,
            )
        hits, misses = design.cache_stats["hits"], design.cache_stats["misses"]
    except CheckCancelled as interruption:
        status, error_message = "cancelled", str(interruption)
    except Exception as error:  # noqa: BLE001 - every failure must reach the parent
        status = "failed"
        error_type = type(error).__name__
        error_message = f"{error}\n{traceback.format_exc()}".strip()

    message = JobFinished(
        seq=spec.seq,
        status=status,
        result=result,
        error_type=error_type,
        error_message=error_message,
        cache_hits=hits,
        cache_misses=misses,
        elapsed=perf_counter() - started,
        at=time.time(),
    )
    try:
        pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as error:  # pragma: no cover - defensive: results should be pure data
        message = JobFinished(
            seq=spec.seq,
            status="failed",
            error_type="PicklingError",
            error_message=f"job result could not be pickled back to the pool: {error}",
            cache_hits=hits,
            cache_misses=misses,
            elapsed=perf_counter() - started,
            at=time.time(),
        )
    results.put(message)


def worker_main(worker: str, tasks: Any, results: Any, cache_spec: Optional[tuple], cancel_cell: Any) -> None:
    """Entry point of one pool worker process (spawn-safe, module-level).

    ``tasks`` delivers :class:`JobSpec` s (``None`` shuts the worker down),
    ``results`` carries the message stream back, ``cache_spec`` is the
    ``(root, max_bytes)`` of the shared disk store (or None), and
    ``cancel_cell`` is the shared integer cell the parent writes a job's
    sequence number into to request cooperative cancellation.
    """
    # Ctrl-C belongs to the parent: the pool shuts workers down explicitly.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    store = _open_store(cache_spec)
    from ..cache import configure_cache

    configure_cache(store)
    results.put(WorkerReady(worker, os.getpid()))
    while True:
        spec = tasks.get()
        if spec is None:
            break
        _run_job(worker, spec, results, store, cancel_cell)
