"""The job layer: queue ordering, wire protocol, pool lifecycle, failure taxonomy.

The :class:`WorkerPool` tests run real spawned worker processes, so every
pool-touching test carries the ``timeout`` guard marker — a regressed queue
or service loop must *fail* in CI, not hang it.  The failure-taxonomy tests
(worker killed mid-fixpoint, job timeout with fail/requeue policies,
cancellation before and after start) each use a small dedicated pool whose
single worker they are allowed to break; the happy-path tests share one
module-scoped pool wired to a :class:`DiskArtifactStore`, which also pins
the cache-counter aggregation (worker-side hit/miss counters must reach the
parent report — per-process counters would otherwise read 0 for every
pooled job).
"""

import os
import pickle
import signal
import time

import pytest

from repro.signal.library import (
    alternator_process,
    boolean_shift_register_process,
    modulo_counter_process,
    saturating_accumulator_process,
)
from repro.verification.reachability import ReactionPredicate as P
from repro.verification.symbolic_int import SymbolicOptions
from repro.workbench import Design, Property, WorkerPool
from repro.workbench.jobs import (
    Compare,
    DesignSpec,
    JobCancelled,
    JobFailed,
    JobQueue,
    JobSpec,
    JobTimeout,
    WorkerCrashed,
    ensure_picklable,
)

#: Every test that talks to worker processes fails fast instead of hanging.
GUARD = pytest.mark.timeout(120)


def counter_design() -> Design:
    return Design.from_process(modulo_counter_process(5), cache=None)


def slow_design() -> Design:
    """~1.5s of symbolic-int fixpoint: long enough to kill, time out, cancel."""
    return Design.from_process(
        modulo_counter_process(300),
        symbolic_options=SymbolicOptions(reorder="off"),
        cache=None,
    )


SLOW_PROPS = (
    Property.invariant("in-range", P.absent("n") | P.value("n", Compare("<", 300))),
    Property.invariant("non-negative", P.absent("n") | P.value("n", Compare(">=", 0))),
)

#: Forcing the bit-blasted engine keeps the slow job genuinely slow (~2s of
#: fixpoint) — auto would route this 300-state counter to the fast explicit
#: engine, and the timeout/kill/cancel tests need a worker caught mid-work.
SLOW_BACKEND = "symbolic-int"


def make_job(seq: int, priority: int = 0) -> JobSpec:
    return JobSpec(
        seq=seq,
        job_id=f"j{seq}",
        design=DesignSpec(process=alternator_process()),
        invariants=(Property.invariant("t", P.always()),),
        priority=priority,
    )


# --------------------------------------------------------------------------- queue

class TestJobQueue:
    def test_priority_order_with_fifo_ties(self):
        queue = JobQueue()
        for seq, priority in ((0, 0), (1, 5), (2, 5), (3, 1)):
            queue.push(make_job(seq, priority))
        assert [queue.pop().seq for _ in range(4)] == [1, 2, 3, 0]
        assert queue.pop() is None

    def test_cancel_drops_pending_job(self):
        queue = JobQueue()
        queue.push(make_job(0))
        queue.push(make_job(1))
        assert queue.cancel(0) is True
        assert queue.cancel(99) is False
        assert queue.pop().seq == 1
        assert queue.pop() is None

    def test_cancelled_seq_cannot_be_requeued(self):
        # A cancel racing a timeout/crash retry: the retry push must not
        # resurrect the job.
        queue = JobQueue()
        queue.push(make_job(7))
        assert queue.cancel(7)
        queue.push(make_job(7))
        assert queue.pop() is None
        assert len(queue) == 0

    def test_drain_and_len(self):
        queue = JobQueue()
        for seq in range(3):
            queue.push(make_job(seq, priority=seq))
        queue.cancel(1)
        assert len(queue) == 2
        assert [job.seq for job in queue.drain()] == [2, 0]
        assert not queue


# --------------------------------------------------------------------------- Compare

class TestCompare:
    @pytest.mark.parametrize(
        "op,bound,hit,miss",
        [
            ("==", 3, 3, 4),
            ("!=", 3, 4, 3),
            ("<", 3, 2, 3),
            ("<=", 3, 3, 4),
            (">", 3, 4, 3),
            (">=", 3, 3, 2),
            ("between", (0, 4), 4, 5),
        ],
    )
    def test_operators(self, op, bound, hit, miss):
        test = Compare(op, bound)
        assert test(hit) is True
        assert test(miss) is False

    def test_validation(self):
        with pytest.raises(ValueError):
            Compare("~=", 3)
        with pytest.raises(ValueError):
            Compare("between", (4, 0))

    def test_pickles(self):
        test = pickle.loads(pickle.dumps(Compare("between", (1, 3))))
        assert test(2) and not test(4)


# --------------------------------------------------------------------------- protocol

class TestProtocol:
    def test_job_spec_validation(self):
        design = DesignSpec(process=alternator_process())
        prop = (Property.invariant("t", P.always()),)
        with pytest.raises(ValueError):
            JobSpec(seq=0, job_id="j", design=design, kind="mystery", invariants=prop)
        with pytest.raises(ValueError):
            JobSpec(seq=0, job_id="j", design=design, invariants=prop, on_timeout="retry")
        with pytest.raises(ValueError):
            JobSpec(seq=0, job_id="j", design=design, invariants=prop, timeout=0)
        with pytest.raises(ValueError):
            JobSpec(seq=0, job_id="j", design=design, invariants=prop, retries=-1)
        with pytest.raises(ValueError):
            JobSpec(seq=0, job_id="j", design=design)  # a check needs properties
        with pytest.raises(ValueError):
            JobSpec(seq=0, job_id="j", design=design, kind="synthesise")  # needs safe

    def test_requeued_spends_one_retry(self):
        job = make_job(0)
        assert job.retries == 1
        assert job.requeued().retries == 0

    def test_lambda_predicate_fails_pointedly(self):
        job = JobSpec(
            seq=0,
            job_id="lam",
            design=DesignSpec(process=modulo_counter_process(5)),
            invariants=(Property.invariant("v", P.value("n", lambda v: v < 5)),),
        )
        with pytest.raises(TypeError, match="Compare"):
            ensure_picklable(job)

    def test_design_spec_round_trip(self):
        design = slow_design()
        spec = DesignSpec.from_design(design)
        assert spec.name == design.name
        rebuilt = pickle.loads(pickle.dumps(spec)).build(cache=None)
        assert rebuilt.name == design.name
        assert rebuilt.symbolic_options.reorder == "off"
        assert rebuilt.cache is None


# --------------------------------------------------------------------------- pool: happy paths

@pytest.fixture(scope="module")
def store_root(tmp_path_factory):
    return str(tmp_path_factory.mktemp("pool-artifacts"))


@pytest.fixture(scope="module")
def pool(store_root):
    with WorkerPool(2, name="shared", cache=store_root) as shared:
        assert shared.wait_ready(60)
        yield shared


@GUARD
class TestWorkerPool:
    def test_submit_matches_in_process(self, pool):
        design = counter_design()
        props = {
            "bounded": P.absent("n") | P.value("n", Compare("<", 5)),
            "carries": P.present("carry").implies(P.value("n", Compare("==", 0))),
        }
        pooled = pool.submit(design, invariants=props).result(90)
        local = counter_design().check_all(invariants=props)
        assert [c.holds for c in pooled] == [c.holds for c in local]
        assert pooled.backend_name == local.backend_name
        assert pooled.state_count == local.state_count

    def test_events_reach_the_report(self, pool):
        report = pool.submit(counter_design(), P.value("n", Compare("<", 5))).result(90)
        kinds = [event["kind"] for event in report.events]
        for expected in ("submitted", "dispatched", "started", "backend", "property", "finished"):
            assert expected in kinds, kinds
        assert "events:" in report.summary()

    def test_map_designs_keeps_order(self, pool):
        designs = [
            Design.from_process(boolean_shift_register_process(3), cache=None),
            counter_design(),
        ]
        reports = pool.map_designs(designs, P.always(), result_timeout=90)
        assert [r.design_name for r in reports] == [d.name for d in designs]
        assert all(r.all_hold for r in reports)

    def test_check_async_facade(self, pool):
        handle = counter_design().check_async(
            P.absent("n") | P.value("n", Compare("<=", 4)), pool=pool
        )
        assert handle.result(90).all_hold

    def test_worker_errors_propagate(self, pool):
        handle = pool.submit(counter_design(), P.present("no_such_signal"))
        with pytest.raises(JobFailed, match="no_such_signal"):
            handle.result(90)
        assert handle.state == "failed"
        assert handle.exception().error_type == "KeyError"

    def test_synthesis_job(self, pool):
        design = Design.from_process(boolean_shift_register_process(5), cache=None)
        safe = P.absent("s4") | P.present("x")
        verdict = pool.submit_synthesis(design, safe, ["x"]).result(90)
        local = Design.from_process(boolean_shift_register_process(5), cache=None).synthesise(
            safe, ["x"]
        )
        assert verdict.success == local.success
        assert verdict.backend is None  # live engine artifacts must not cross

    def test_cache_counters_aggregate_into_report(self, pool):
        # Fresh Design objects, same content: the second job must be served
        # from the pool-shared disk store, and the *worker-side* counters
        # must surface in the parent report (they are per-process).
        process = saturating_accumulator_process(6)
        first = pool.submit(Design.from_process(process), P.absent("total") | P.value("total", Compare("<=", 6)))
        cold = first.result(90)
        assert cold.cache_misses > 0
        warm = pool.submit(
            Design.from_process(process), P.absent("total") | P.value("total", Compare("<=", 6))
        ).result(90)
        assert warm.cache_hits > 0
        statistics = pool.statistics()
        assert statistics["cache_hits"] >= warm.cache_hits
        assert statistics["cache_misses"] >= cold.cache_misses

    def test_unpicklable_job_rejected_at_submit(self, pool):
        before = pool.statistics()["submitted"]
        with pytest.raises(TypeError, match="Compare"):
            pool.submit(counter_design(), P.value("n", lambda v: v < 5))
        assert pool.statistics()["submitted"] == before

    def test_priorities_order_queued_work(self, store_root):
        with WorkerPool(1, name="prio", cache=store_root) as small:
            assert small.wait_ready(60)
            blocker = small.submit(slow_design(), *SLOW_PROPS, backend=SLOW_BACKEND)
            assert blocker.wait_started(60)
            low = small.submit(counter_design(), P.always(), priority=0)
            high = small.submit(counter_design(), P.always(), priority=10)
            assert high.result(90).all_hold and low.result(90).all_hold
            started_at = lambda h: next(
                e["at"] for e in h.events if e["kind"] == "started"
            )
            assert started_at(high) <= started_at(low)
            assert blocker.result(90).all_hold


# --------------------------------------------------------------------------- failure taxonomy

@GUARD
class TestFailureTaxonomy:
    def test_timeout_kills_worker_and_fails_job(self, tmp_path):
        with WorkerPool(1, name="tmo", cache=str(tmp_path)) as small:
            handle = small.submit(slow_design(), *SLOW_PROPS, backend=SLOW_BACKEND, timeout=0.4)
            with pytest.raises(JobTimeout, match="0.4"):
                handle.result(90)
            assert handle.state == "timeout"
            # The replacement worker keeps the pool serviceable.
            assert small.submit(counter_design(), P.always()).result(90).all_hold
            assert small.statistics()["timeouts"] == 1

    def test_timeout_requeue_spends_retries_then_fails(self, tmp_path):
        with WorkerPool(1, name="rq", cache=str(tmp_path)) as small:
            handle = small.submit(
                slow_design(), *SLOW_PROPS, backend=SLOW_BACKEND,
                timeout=0.4, on_timeout="requeue", retries=1,
            )
            with pytest.raises(JobTimeout):
                handle.result(120)
            statistics = small.statistics()
            assert statistics["timeouts"] == 2  # the original run and the retry
            assert statistics["retries"] == 1
            kinds = [event["kind"] for event in handle.events]
            assert kinds.count("timeout") == 2

    def test_worker_killed_mid_fixpoint_retries_and_succeeds(self, tmp_path):
        # The satellite pin: a SIGKILL mid-fixpoint over a shared disk store
        # must leave only atomic (or torn-and-therefore-miss) entries — the
        # retried job and any later job rebuild cleanly and verdicts stay
        # correct.
        with WorkerPool(1, name="kill", cache=str(tmp_path)) as small:
            handle = small.submit(slow_design(), *SLOW_PROPS, backend=SLOW_BACKEND, retries=1)
            assert handle.wait_started(60)
            time.sleep(0.3)  # well inside the ~1.5s fixpoint
            os.kill(handle.pid, signal.SIGKILL)
            report = handle.result(120)
            assert report.all_hold
            assert small.statistics()["crashes"] == 1
            assert any(event["kind"] == "worker-crashed" for event in handle.events)
            # The store survived the kill: a warm resubmission still agrees.
            again = small.submit(slow_design(), *SLOW_PROPS, backend=SLOW_BACKEND).result(120)
            assert [c.holds for c in again] == [c.holds for c in report]

    def test_worker_crash_without_retries_fails(self, tmp_path):
        with WorkerPool(1, name="crash", cache=str(tmp_path)) as small:
            handle = small.submit(slow_design(), *SLOW_PROPS, backend=SLOW_BACKEND, retries=0)
            assert handle.wait_started(60)
            os.kill(handle.pid, signal.SIGKILL)
            with pytest.raises(WorkerCrashed, match="retry budget"):
                handle.result(90)
            assert handle.state == "failed"

    def test_cancel_before_start(self, tmp_path):
        with WorkerPool(1, name="cxl-q", cache=str(tmp_path)) as small:
            blocker = small.submit(slow_design(), *SLOW_PROPS, backend=SLOW_BACKEND)
            assert blocker.wait_started(60)
            queued = small.submit(counter_design(), P.always())
            assert queued.cancel() is True
            with pytest.raises(JobCancelled, match="before it started"):
                queued.result(5)
            assert queued.cancelled()
            assert blocker.result(120).all_hold
            assert queued.cancel() is False  # already terminal

    def test_cooperative_cancel_while_running(self, tmp_path):
        with WorkerPool(1, name="cxl-r", cache=str(tmp_path)) as small:
            handle = small.submit(slow_design(), *SLOW_PROPS, backend=SLOW_BACKEND)
            assert handle.wait_started(60)
            assert handle.cancel() is True  # routed to the worker's cancel cell
            with pytest.raises(JobCancelled):
                handle.result(120)
            assert handle.state == "cancelled"
            assert small.statistics()["cancelled"] == 1
            # The worker survives a cooperative cancel (it was never killed).
            assert small.submit(counter_design(), P.always()).result(90).all_hold

    def test_shutdown_without_wait_cancels_queued_jobs(self, tmp_path):
        small = WorkerPool(1, name="down", cache=str(tmp_path))
        try:
            blocker = small.submit(slow_design(), *SLOW_PROPS, backend=SLOW_BACKEND)
            assert blocker.wait_started(60)
            queued = small.submit(counter_design(), P.always())
        finally:
            small.shutdown(wait=False)
        with pytest.raises(JobCancelled, match="shut down"):
            queued.result(5)
        with pytest.raises(JobCancelled):
            blocker.result(10)
        with pytest.raises(RuntimeError, match="shut down"):
            small.submit(counter_design(), P.always())
