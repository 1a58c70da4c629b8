"""Tests for the cross-design persistent artifact cache.

Covers the store backends (memory and disk, including torn-entry recovery
and atomic writes), the content-addressed keying (expanded-syntax identity,
bounds sensitivity, per-artifact option fingerprints), the Design glue
(hit/miss accounting, opt-out, the process-wide default), the failure
taxonomy (structural failures persisted, transient resource-limit failures
retried), intra-process concurrency, and — the acceptance criterion — a
differential suite pinning that a warm-loaded reached set answers the exact
same verdicts, witnesses and traces as a recomputed one, on both the
boolean and the finite-integer corpus.
"""

import threading

import pytest

from repro.signal.dsl import ProcessBuilder
from repro.signal.library import (
    boolean_shift_register_process,
    modulo_counter_process,
)
from repro.signal.printer import render_process
from repro.verification import (
    BoundReached,
    EncodingError,
    ExplorationOptions,
    ReactionPredicate,
)
from repro.clocks.bdd import NodeBudgetExceeded
from repro.verification.symbolic_int import SymbolicOptions
from repro.workbench import (
    Design,
    DiskArtifactStore,
    MemoryArtifactStore,
    configure_cache,
    default_cache,
)
from repro.workbench.cache import (
    artifact_key,
    canonical_design_text,
    design_key,
    error_payload,
    payload_error,
)

P = ReactionPredicate


# ----------------------------------------------------------------------- stores

class TestMemoryStore:
    def test_round_trip_and_default(self):
        store = MemoryArtifactStore()
        assert store.get("missing", "fallback") == "fallback"
        store.put("k", {"payload": 1})
        assert store.get("k") == {"payload": 1}
        assert "k" in store and len(store) == 1
        store.clear()
        assert len(store) == 0

    def test_stored_none_is_not_a_miss(self):
        store = MemoryArtifactStore()
        store.put("k", None)
        sentinel = object()
        assert store.get("k", sentinel) is None


class TestDiskStore:
    def test_round_trip_across_instances(self, tmp_path):
        DiskArtifactStore(tmp_path).put("k", {"nodes": [1, 2, 3]})
        assert DiskArtifactStore(tmp_path).get("k") == {"nodes": [1, 2, 3]}

    def test_missing_is_default(self, tmp_path):
        assert DiskArtifactStore(tmp_path).get("nope", 42) == 42

    def test_torn_entry_is_a_miss_and_is_dropped(self, tmp_path):
        store = DiskArtifactStore(tmp_path)
        path = tmp_path / "k.pkl"
        path.write_bytes(b"definitely not a pickle")
        assert store.get("k", "miss") == "miss"
        assert not path.exists()  # the offender is removed, not trusted again

    def test_no_temp_files_survive_a_write(self, tmp_path):
        store = DiskArtifactStore(tmp_path)
        store.put("k", list(range(100)))
        leftovers = [name for name in tmp_path.iterdir() if name.suffix == ".tmp"]
        assert leftovers == []
        assert len(store) == 1 and "k" in store

    def test_last_complete_write_wins(self, tmp_path):
        store = DiskArtifactStore(tmp_path)
        store.put("k", "first")
        store.put("k", "second")
        assert store.get("k") == "second"

    def test_unpicklable_payload_leaves_no_debris(self, tmp_path):
        store = DiskArtifactStore(tmp_path)
        with pytest.raises(Exception):
            store.put("k", lambda: None)  # lambdas do not pickle
        assert list(tmp_path.iterdir()) == []

    def test_delete(self, tmp_path):
        store = DiskArtifactStore(tmp_path)
        store.put("k", 1)
        assert store.delete("k") is True
        assert store.delete("k") is False
        assert store.get("k", "miss") == "miss"


class TestDiskStoreEviction:
    """The ``max_bytes`` LRU budget — a long-lived pool must not fill the disk."""

    @staticmethod
    def entry_size(tmp_path) -> int:
        probe = DiskArtifactStore(tmp_path / "probe")
        probe.put("probe", b"x" * 100)
        return probe.total_bytes()

    def test_validation(self, tmp_path):
        with pytest.raises(ValueError):
            DiskArtifactStore(tmp_path, max_bytes=0)

    def test_oldest_entries_evicted_first(self, tmp_path):
        import os

        size = self.entry_size(tmp_path)
        store = DiskArtifactStore(tmp_path, max_bytes=3 * size)
        now = 1_000_000_000
        for index, key in enumerate(("a", "b", "c")):
            store.put(key, b"x" * 100)
            os.utime(tmp_path / f"{key}.pkl", (now + index, now + index))
        store.put("d", b"x" * 100)  # over budget: the LRU entry must go
        assert "a" not in store
        assert all(key in store for key in ("b", "c", "d"))
        assert store.total_bytes() <= 3 * size

    def test_read_refreshes_recency(self, tmp_path):
        import os

        size = self.entry_size(tmp_path)
        store = DiskArtifactStore(tmp_path, max_bytes=2 * size)
        now = 1_000_000_000
        store.put("old", b"x" * 100)
        os.utime(tmp_path / "old.pkl", (now, now))
        store.put("young", b"x" * 100)
        os.utime(tmp_path / "young.pkl", (now + 10, now + 10))
        assert store.get("old") == b"x" * 100  # bumps mtime past "young"
        store.put("new", b"x" * 100)
        assert "old" in store and "new" in store
        assert "young" not in store

    def test_oversized_payload_is_not_persisted(self, tmp_path):
        store = DiskArtifactStore(tmp_path, max_bytes=64)
        store.put("small", 1)
        store.put("huge", b"x" * 4096)  # larger than the whole budget
        assert "huge" not in store
        assert "small" in store  # and nothing was evicted to make room

    def test_unbudgeted_store_never_evicts(self, tmp_path):
        store = DiskArtifactStore(tmp_path)
        for index in range(20):
            store.put(f"k{index}", b"x" * 200)
        assert len(store) == 20

    def test_design_verdicts_survive_eviction_pressure(self, tmp_path):
        # A budget smaller than the fixpoint snapshot degrades to recompute
        # (misses), never to wrong answers or errors.
        store = DiskArtifactStore(tmp_path, max_bytes=256)
        predicate = P.present("s2").implies(P.present("x"))
        cold = Design.from_process(
            boolean_shift_register_process(3), cache=store
        ).check(("p", predicate))
        warmish = Design.from_process(
            boolean_shift_register_process(3), cache=store
        ).check(("p", predicate))
        assert cold["p"].holds == warmish["p"].holds
        assert store.total_bytes() <= 256


# ------------------------------------------------------------------------- keys

def bounded_latch_process(bounds):
    builder = ProcessBuilder("BoundedLatch")
    x = builder.input("x", "integer", bounds=bounds)
    builder.define(builder.output("held", "integer", bounds=bounds), x.delayed(0))
    return builder.build()


class TestKeys:
    def test_same_expanded_process_shares_a_key(self):
        first = Design.from_process(modulo_counter_process(5), cache=None)
        second = Design.from_process(modulo_counter_process(5), cache=None)
        assert design_key(first) == design_key(second)

    def test_different_processes_differ(self):
        first = Design.from_process(modulo_counter_process(5), cache=None)
        second = Design.from_process(modulo_counter_process(7), cache=None)
        assert design_key(first) != design_key(second)

    def test_bounds_change_the_key_despite_identical_syntax(self):
        narrow = Design.from_process(bounded_latch_process((0, 3)), cache=None)
        wide = Design.from_process(bounded_latch_process((0, 15)), cache=None)
        # The renderer prints types only — the concrete syntax is identical...
        assert render_process(narrow.compiled.definition) == render_process(
            wide.compiled.definition
        )
        # ...but bounds change the bit-blasted encoding, so the keys differ.
        assert canonical_design_text(narrow) != canonical_design_text(wide)
        assert design_key(narrow) != design_key(wide)

    def test_artifact_keys_differ_per_artifact(self):
        design = Design.from_process(modulo_counter_process(5), cache=None)
        keys = {artifact_key(design, name) for name in ("encoding", "ranges", "symbolic_int")}
        assert len(keys) == 3
        assert all(key.startswith(design_key(design)) for key in keys)

    def test_options_change_the_fingerprint(self):
        design = Design.from_process(modulo_counter_process(5), cache=None)
        before = artifact_key(design, "symbolic_int")
        design.symbolic_options = SymbolicOptions(reorder_threshold=7)
        assert artifact_key(design, "symbolic_int") != before
        # ...but the options do not touch the design identity itself.
        assert artifact_key(design, "encoding").startswith(design_key(design))

    def test_error_payload_round_trip(self):
        error = payload_error(error_payload(EncodingError("no boolean skeleton")))
        assert isinstance(error, EncodingError)
        assert "no boolean skeleton" in str(error)
        assert payload_error({"ordinary": "payload"}) is None
        assert payload_error([1, 2]) is None


# ------------------------------------------------------------------ design glue

class TestDesignCache:
    def test_warm_design_hits_instead_of_recomputing(self):
        store = MemoryArtifactStore()
        cold = Design.from_process(modulo_counter_process(5), cache=store)
        cold_result = cold.symbolic_int
        assert cold.cache_stats["hits"] == 0
        assert cold.cache_stats["misses"] > 0
        assert len(store) > 0

        warm = Design.from_process(modulo_counter_process(5), cache=store)
        warm_result = warm.symbolic_int
        assert warm.cache_stats["misses"] == 0
        assert warm.cache_stats["hits"] > 0
        assert warm_result.state_count == cold_result.state_count
        assert warm_result.fixpoint and warm_result.complete

    def test_cache_none_disables_consultation(self):
        store = MemoryArtifactStore()
        seeded = Design.from_process(modulo_counter_process(4), cache=store)
        seeded.symbolic_int
        lone = Design.from_process(modulo_counter_process(4), cache=None)
        lone.symbolic_int
        assert lone.cache_stats == {"hits": 0, "misses": 0}

    def test_configure_cache_installs_the_default(self):
        store = MemoryArtifactStore()
        previous = configure_cache(store)
        try:
            design = Design.from_process(modulo_counter_process(4))
            assert design.cache is store
            assert default_cache() is store
            explicit = Design.from_process(modulo_counter_process(4), cache=None)
            assert explicit.cache is None
        finally:
            configure_cache(previous)

    def test_report_summary_shows_cache_traffic(self):
        store = MemoryArtifactStore()
        Design.from_process(modulo_counter_process(4), cache=store).symbolic_int
        warm = Design.from_process(modulo_counter_process(4), cache=store)
        report = warm.check(
            ("bounded", P.absent("n") | P.value("n", lambda v: 0 <= v <= 3)),
            backend="symbolic-int",
        )
        assert report.all_hold
        assert report.cache_hits > 0
        assert "cache:" in report.summary()

    def test_structural_failure_is_persisted_and_replayed(self):
        store = MemoryArtifactStore()
        cold = Design.from_process(modulo_counter_process(5), cache=store)
        with pytest.raises(EncodingError):
            cold.encoding  # integer data: no Z/3Z encoding exists
        assert artifact_key(cold, "encoding") in store

        warm = Design.from_process(modulo_counter_process(5), cache=store)
        with pytest.raises(EncodingError):
            warm.encoding
        assert warm.cache_stats["hits"] == 1
        assert warm.cache_stats["misses"] == 0

    def test_corrupt_disk_entry_falls_back_to_rebuild(self, tmp_path):
        store = DiskArtifactStore(tmp_path)
        cold = Design.from_process(modulo_counter_process(4), cache=store)
        expected = cold.symbolic_int.state_count
        key = artifact_key(cold, "symbolic_int")
        (tmp_path / f"{key}.pkl").write_bytes(b"garbage")

        warm = Design.from_process(modulo_counter_process(4), cache=store)
        assert warm.symbolic_int.state_count == expected
        # The torn reached-set entry was a miss; upstream artifacts still hit.
        assert warm.cache_stats["misses"] >= 1
        assert warm.cache_stats["hits"] >= 1

    def test_wrong_typed_payload_falls_back_to_rebuild(self):
        store = MemoryArtifactStore()
        design = Design.from_process(boolean_shift_register_process(3), cache=store)
        store.put(artifact_key(design, "encoding"), {"not": "an encoding"})
        encoding = design.encoding  # undecodable entry: rebuild, not crash
        assert encoding.state_variables
        assert design.cache_stats["misses"] >= 1

    def test_endochrony_round_trips_as_pure_data(self):
        store = MemoryArtifactStore()
        cold = Design.from_process(boolean_shift_register_process(3), cache=store)
        cold_report = cold.endochrony
        warm = Design.from_process(boolean_shift_register_process(3), cache=store)
        warm_report = warm.endochrony
        assert warm.cache_stats["hits"] >= 1
        assert warm_report.is_endochronous == cold_report.is_endochronous
        assert warm_report.master_signals == cold_report.master_signals
        assert warm_report.free_clocks == cold_report.free_clocks
        assert warm_report.issues == cold_report.issues
        assert warm_report.hierarchy is None  # BDD back-reference is not persisted


# ------------------------------------------------------------ failure taxonomy

class TestFailureClassification:
    def test_node_budget_failure_retries_after_raising_the_budget(self):
        """The satellite regression: a transient budget exhaustion must not be
        memoised — raising the budget and re-querying (no ``invalidate()``)
        succeeds."""
        store = MemoryArtifactStore()
        design = Design.from_process(
            boolean_shift_register_process(4),
            symbolic_options=SymbolicOptions(node_budget=40, reorder="off"),
            cache=store,
        )
        with pytest.raises(NodeBudgetExceeded):
            design.symbolic_int
        # The failure was neither memoised nor persisted as an error payload.
        assert artifact_key(design, "symbolic_int") not in store
        design.symbolic_options.node_budget = None
        result = design.symbolic_int  # no invalidate() in between
        assert result.fixpoint
        assert result.state_count > 0

    def test_bound_reached_failure_retries_after_raising_the_bound(self):
        design = Design.from_process(
            modulo_counter_process(5),
            exploration_options=ExplorationOptions(max_states=2, on_bound="raise"),
            cache=None,
        )
        with pytest.raises(BoundReached):
            design.exploration
        design.exploration_options = ExplorationOptions(max_states=10_000, on_bound="raise")
        assert design.exploration.complete

    def test_structural_failure_stays_memoised(self):
        design = Design.from_process(modulo_counter_process(5), cache=None)
        for _ in range(3):
            with pytest.raises(EncodingError):
                design.encoding
        assert design.artifact_counts["encoding"] == 1


# ---------------------------------------------------------------- concurrency

class TestConcurrency:
    def test_concurrent_queries_build_each_artifact_once(self):
        design = Design.from_process(
            boolean_shift_register_process(5), cache=MemoryArtifactStore()
        )
        predicate = P.present("s4").implies(P.present("x"))
        errors = []

        def query():
            try:
                report = design.check(("chain", predicate), backend="symbolic-int")
                assert report.all_hold
            except Exception as failure:  # pragma: no cover - failure path
                errors.append(failure)

        threads = [threading.Thread(target=query) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert design.artifact_counts["symbolic_int"] == 1
        assert design.artifact_counts["symbolic_int_engine"] == 1

    def test_concurrent_disk_writes_leave_a_readable_entry(self, tmp_path):
        store = DiskArtifactStore(tmp_path)
        payloads = [{"writer": index, "data": list(range(200))} for index in range(8)]

        def write(payload):
            for _ in range(10):
                store.put("shared", payload)

        threads = [threading.Thread(target=write, args=(p,)) for p in payloads]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        final = store.get("shared")
        assert final in payloads  # some complete write, never a torn hybrid


# ---------------------------------------------------- warm-load differential

def _verdict_table(report):
    return [(check.name, check.kind, check.holds) for check in report]


def _trace_table(report):
    return {
        check.name: (None if check.trace is None else check.trace.render())
        for check in report
    }


class TestWarmDifferential:
    """A warm-loaded reached set must answer *identically* to a recomputed one.

    With ``reorder="off"`` the cold and warm managers share the variable
    order, so even witness/counterexample traces must match literally.
    """

    def test_boolean_corpus(self, tmp_path):
        store = DiskArtifactStore(tmp_path)
        properties = [
            ("chain-causality", P.present("s3").implies(P.present("x"))),
            ("tail-never-fires", P.absent("s3")),  # fails: counterexample trace
        ]
        options = dict(symbolic_options=SymbolicOptions(reorder="off"))

        cold = Design.from_process(boolean_shift_register_process(4), cache=store, **options)
        cold_report = cold.check(*properties, backend="symbolic-int", traces=True)
        assert cold.cache_stats["hits"] == 0

        warm = Design.from_process(boolean_shift_register_process(4), cache=store, **options)
        warm_report = warm.check(*properties, backend="symbolic-int", traces=True)
        assert warm.cache_stats["hits"] > 0
        assert "symbolic_int_engine" not in warm.artifact_counts  # rehydrated, not rebuilt

        assert _verdict_table(warm_report) == _verdict_table(cold_report)
        assert warm_report.state_count == cold_report.state_count
        assert warm_report.complete == cold_report.complete
        traces = _trace_table(cold_report)
        assert traces["tail-never-fires"] is not None
        assert _trace_table(warm_report) == traces

    def test_integer_corpus(self, tmp_path):
        store = DiskArtifactStore(tmp_path)
        properties = [
            ("in-range", P.absent("n") | P.value("n", lambda v: 0 <= v <= 4)),
            ("never-wraps", P.absent("carry")),  # fails: counterexample trace
        ]
        options = dict(symbolic_options=SymbolicOptions(reorder="off"))

        cold = Design.from_process(modulo_counter_process(5), cache=store, **options)
        cold_report = cold.check(*properties, backend="symbolic-int", traces=True)
        assert cold.cache_stats["hits"] == 0

        warm = Design.from_process(modulo_counter_process(5), cache=store, **options)
        warm_report = warm.check(*properties, backend="symbolic-int", traces=True)
        assert warm.cache_stats["hits"] > 0
        assert "symbolic_int_engine" not in warm.artifact_counts

        assert _verdict_table(warm_report) == _verdict_table(cold_report)
        assert warm_report.state_count == cold_report.state_count
        assert warm_report.complete == cold_report.complete
        traces = _trace_table(cold_report)
        assert traces["never-wraps"] is not None
        assert _trace_table(warm_report) == traces

    def test_witness_traces_survive_the_warm_load(self, tmp_path):
        """Reachability witnesses need the frontier rings: pin that the rings
        ride along in the snapshot and the warm witness is literally equal."""
        store = DiskArtifactStore(tmp_path)
        options = dict(symbolic_options=SymbolicOptions(reorder="off"))
        witness = ("can-wrap", P.true_of("carry"))

        cold = Design.from_process(modulo_counter_process(5), cache=store, **options)
        cold_report = cold.check_all(reachables=[witness], backend="symbolic-int", traces=True)
        warm = Design.from_process(modulo_counter_process(5), cache=store, **options)
        warm_report = warm.check_all(reachables=[witness], backend="symbolic-int", traces=True)

        assert cold_report["can-wrap"].holds is True
        assert warm_report["can-wrap"].holds is True
        assert cold_report["can-wrap"].trace is not None
        assert (
            warm_report["can-wrap"].trace.render() == cold_report["can-wrap"].trace.render()
        )

    def test_default_options_verdict_parity(self, tmp_path):
        """Under auto-reorder the orders may diverge, but verdicts, counts and
        completeness must still agree between warm and cold."""
        store = DiskArtifactStore(tmp_path)
        properties = [("chain-causality", P.present("s4").implies(P.present("x")))]
        cold = Design.from_process(boolean_shift_register_process(5), cache=store)
        cold_report = cold.check(*properties, backend="symbolic-int")
        warm = Design.from_process(boolean_shift_register_process(5), cache=store)
        warm_report = warm.check(*properties, backend="symbolic-int")
        assert _verdict_table(warm_report) == _verdict_table(cold_report)
        assert warm_report.state_count == cold_report.state_count
        assert warm_report.complete == cold_report.complete
