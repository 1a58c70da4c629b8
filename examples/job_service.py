"""Verification as a service: a worker pool chewing through a mixed corpus.

The workbench's job layer (``repro.workbench.jobs``) turns one-design-at-a-
time checking into a service: a :class:`WorkerPool` of spawned OS processes
takes ``(design, properties)`` jobs in submission order, rebuilds each
design from its pickled spec, runs the same ``check_all`` the in-process
path uses, and shares one on-disk artifact store so a fixpoint computed by
any worker warms every other worker.

This example submits the documentation's mixed boolean + integer corpus —
with a per-job timeout on the largest design, a 12-stage shift register —
then prints every verdict, the measured throughput and
the pool's lifetime statistics (including the pool-wide cache hit/miss
aggregation).  Value properties over carried integers use the picklable
:class:`~repro.workbench.jobs.Compare` atoms: lambdas cannot cross the
process boundary, and the pool rejects them at submission with a pointed
error.
"""

import tempfile
import time

from repro.signal.library import (
    alternator_process,
    boolean_shift_register_process,
    bounded_channel_process,
    modulo_counter_process,
    saturating_accumulator_process,
)
from repro.verification.reachability import ReactionPredicate as P
from repro.workbench import Design, WorkerPool
from repro.workbench.jobs import Compare


def in_range(name, op, bound):
    """An invariant over a carried value, tolerant of silent reactions."""
    return P.absent(name) | P.value(name, Compare(op, bound))


#: Seconds of run time the largest design may take before its worker is killed.
LARGEST_TIMEOUT_S = 60.0


def corpus():
    """(label, design, invariants, timeout) — boolean designs next to integer ones."""
    return [
        ("alternator", Design.from_process(alternator_process()),
         {"flip-needs-tick": P.present("flip").implies(P.present("tick"))}, None),
        ("shift-register-12", Design.from_process(boolean_shift_register_process(12)),
         {"tail-needs-input": P.present("s11").implies(P.present("x"))}, LARGEST_TIMEOUT_S),
        ("modulo-counter-5", Design.from_process(modulo_counter_process(5)),
         {"bounded": in_range("n", "<", 5)}, None),
        ("saturating-accumulator-6", Design.from_process(saturating_accumulator_process(6)),
         {"capped": in_range("total", "<=", 6)}, None),
        ("bounded-channel-4", Design.from_process(bounded_channel_process(4)),
         {"level-in-range": in_range("level", "between", (0, 4))}, None),
    ]


def main() -> None:
    jobs = corpus()
    with tempfile.TemporaryDirectory(prefix="job-service-") as store_root:
        with WorkerPool(2, name="service", cache=store_root) as pool:
            pool.wait_ready(60)
            started = time.perf_counter()

            # Everything is queued up front; jobs start in submission order.
            handles = [
                pool.submit(design, invariants=invariants, timeout=timeout, job_id=label)
                for label, design, invariants, timeout in jobs
            ]
            reports = [handle.result(120) for handle in handles]
            elapsed = time.perf_counter() - started

        print("== verdicts ==")
        for handle, report in zip(handles, reports):
            verdict = "holds" if report.all_hold else "FAILS"
            timeout = handle.spec.timeout
            limit = f" (timeout {timeout:g}s)" if timeout is not None else ""
            print(
                f"  {handle.job_id:<26} {verdict:<6} backend={report.backend_name:<12}"
                f" states={report.state_count:<5} worker={handle.worker}{limit}"
            )

        completed = len(reports)
        statistics = pool.statistics()
        print("\n== throughput ==")
        print(f"  {completed} jobs over {statistics['workers']} workers "
              f"in {elapsed:.2f}s  ->  {completed / elapsed:.1f} jobs/s")
        print("\n== pool statistics ==")
        for key in ("submitted", "completed", "failed", "cancelled",
                    "timeouts", "crashes", "retries", "cache_hits", "cache_misses"):
            print(f"  {key:<13} {statistics[key]}")
        print("\nThe cache counters are aggregated from the worker processes: "
              "per-process counters would read 0 here.")


if __name__ == "__main__":
    main()
