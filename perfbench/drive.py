"""Calls into the workbench for one design: plain, traced, or as a pooled job.

Every path starts its clock at ``Design`` construction and stops it when the
``Report`` is in hand, as a user of ``repro.workbench`` would see it.  The
traced path also times each layer from outside, by touching the design's
artifacts in dependency order before ``check_all``: the workbench's own
``artifact_seconds`` are inclusive (a reached set's entry holds the
relation build it triggered), so they cannot be summed into a breakdown.
"""

from __future__ import annotations

import time
from time import perf_counter

import corpus
from repro.clocks.bdd import BDDManager
from repro.workbench import Design, DiskArtifactStore, JobError, WorkerPool

#: Seconds a pooled job may take before the client counts it as failed.
JOB_TIMEOUT_S = 60.0

#: What a failed pooled job raises at the client.
JOB_FAILURES = (JobError, TimeoutError)

#: Per-design layer seconds of the traced in-process path.
LAYER_SECONDS = (
    "encoding.encode_s",
    "simulation.compile_s",
    "ranges.infer_s",
    "workbench.route_s",
    "explorer.explore_s",
    "relational.build_s",
    "relational.fixpoint_s",
    "workbench.check_s",
    "bdd.reorder_s",
)

#: Per-design counts, and the ``Report.engine_statistics`` key of each.
ENGINE_COUNTS = {
    "explorer.states": "states",
    "explorer.transitions": "transitions",
    "explorer.rejected": "rejected_stimuli",
    "bdd.peak_nodes": "peak_nodes",
    "bdd.nodes_created": "nodes_created",
    "bdd.cache_hits": "cache_hits",
    "bdd.cache_misses": "cache_misses",
    "bdd.reorders": "reorders",
    "relational.iterations": "iterations",
    "relational.clusters": "clusters",
    "simulation.kernels": "kernels",
}


class ReorderClock:
    """While entered, sums the wall-clock seconds of every ``BDDManager.reorder``."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self._original = BDDManager.reorder

    def __enter__(self) -> "ReorderClock":
        original = self._original

        def timed(manager, *args, **kwargs):
            started = perf_counter()
            try:
                return original(manager, *args, **kwargs)
            finally:
                self.seconds += perf_counter() - started

        BDDManager.reorder = timed
        return self

    def __exit__(self, *exc_info) -> None:
        BDDManager.reorder = self._original


def check(case: corpus.Case, process) -> tuple[float, object]:
    """The user's path, ``Design`` to ``Report``: ``(seconds, report)``."""
    invariants, reachables = case.properties()
    started = perf_counter()
    design = Design(process, cache=None, **case.design_options())
    report = design.check_all(invariants, reachables, traces=True)
    return perf_counter() - started, report


def check_traced(case: corpus.Case, process) -> tuple[float, object, dict, dict]:
    """:func:`check` with each layer timed: ``(seconds, report, layer seconds, counts)``."""
    invariants, reachables = case.properties()
    predicates = [*invariants.values(), *reachables.values()]
    layers = dict.fromkeys(LAYER_SECONDS, 0.0)
    with ReorderClock() as reorders:
        started = perf_counter()
        design = Design(process, cache=None, **case.design_options())
        mark = perf_counter()

        def lap(layer: str) -> None:
            nonlocal mark
            now = perf_counter()
            layers[layer] += now - mark
            mark = now

        encodable = design.encodable
        lap("encoding.encode_s")
        if not encodable:
            # Routing an integer design reads its ranges, which are
            # inferred on the compiled process.
            _ = design.compiled
            lap("simulation.compile_s")
            _ = design.ranges
            lap("ranges.infer_s")
        route = design.backend_info(predicates=predicates).name
        lap("workbench.route_s")
        if route == "explicit":
            _ = design.compiled
            lap("simulation.compile_s")
            _ = design.exploration
            lap("explorer.explore_s")
        elif route == "symbolic":
            _ = design.symbolic_engine
            lap("relational.build_s")
            _ = design.symbolic
            lap("relational.fixpoint_s")
        elif route == "symbolic-int":
            _ = design.symbolic_int_engine
            lap("relational.build_s")
            _ = design.symbolic_int
            lap("relational.fixpoint_s")
        report = design.check_all(invariants, reachables, traces=True)
        lap("workbench.check_s")
        seconds = perf_counter() - started
    layers["bdd.reorder_s"] = reorders.seconds
    counts = engine_counts(report)
    counts["simulation.kernels"] = design.artifact_counts.get("step_kernels", 0)
    return seconds, report, layers, counts


def engine_counts(report) -> dict:
    """The per-design counts of a report's engine statistics (0 where absent)."""
    stats = report.engine_statistics
    return {name: stats.get(key, 0) for name, key in ENGINE_COUNTS.items()}


def open_pool(store_root: str) -> WorkerPool:
    """A one-worker pool over a disk artifact store, with its worker ready."""
    pool = WorkerPool(workers=1, cache=DiskArtifactStore(store_root), name="bench")
    if not pool.wait_ready(timeout=60.0):
        pool.shutdown(wait=False)
        raise RuntimeError("the pool's worker was not ready within 60 s")
    return pool


def submit(pool: WorkerPool, case: corpus.Case, process) -> tuple[float, object, dict]:
    """One pooled job, ``Design`` to ``Report``: ``(seconds, report, phases)``.

    Raises one of :data:`JOB_FAILURES` when the job fails or outlives
    :data:`JOB_TIMEOUT_S`.
    """
    invariants, reachables = case.properties()
    submitted = time.time()
    started = perf_counter()
    design = Design(process, cache=None, **case.design_options())
    handle = pool.submit(design, invariants=invariants, reachables=reachables, traces=True)
    try:
        report = handle.result(JOB_TIMEOUT_S)
    except TimeoutError:
        handle.cancel()
        raise
    seconds = perf_counter() - started
    return seconds, report, job_phases(submitted, time.time(), handle.events)


def job_phases(submitted: float, received: float, events: list) -> dict:
    """Where a pooled job's seconds went, from its event stream.

    All four phases are read on the client's clock and sum to the job's
    latency: ``submit`` is the client call up to dispatch (design, spec
    pickling, queueing); ``dispatch`` runs until the worker's start message
    reaches the pool; ``run`` until its result does; ``return`` until the
    client holds the report.  ``worker_s`` is the run as the worker timed it.
    """
    first: dict = {}
    for event in events:
        first.setdefault(event["kind"], event)
    dispatched, started, finished = (first[kind]["at"] for kind in ("dispatched", "started", "finished"))
    return {
        "jobs.submit_s": dispatched - submitted,
        "jobs.dispatch_s": started - dispatched,
        "jobs.run_s": finished - started,
        "jobs.return_s": received - finished,
        "worker_s": first["finished"]["elapsed"],
    }
