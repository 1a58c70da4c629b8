"""Tests for the benchmark-trajectory tooling around the smoke runs.

Two pieces of plumbing are pinned here.  ``tools/check_bench_regression.py``
is the CI gate comparing a fresh ``BENCH_SMOKE.json`` against the committed
baseline: its message formatting must survive schema-skewed entries (a
baseline predating the ``peak_nodes`` counters, a current entry missing
``seconds``) without crashing or silently skipping a gate.  The repo
``conftest`` must write ``BENCH_SMOKE.json`` exactly when the collected
items *are* the smoke suite — substring-matching the ``-m`` expression
would misread ``-m "not bench_smoke"`` as a smoke run and overwrite the
artifact with an empty payload.
"""

import importlib.util
import json
import os
import types

import pytest

import conftest

_TOOL_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "tools", "check_bench_regression.py")
_spec = importlib.util.spec_from_file_location("check_bench_regression", _TOOL_PATH)
check_bench_regression = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_bench_regression)


def _payload(*entries, schema="bench-smoke/2", **extra):
    return {"schema": schema, "benchmarks": list(entries), **extra}


def _entry(nodeid, seconds=None, peak_nodes=None):
    entry = {"id": nodeid}
    if seconds is not None:
        entry["seconds"] = seconds
    if peak_nodes is not None:
        entry["peak_nodes"] = peak_nodes
    return entry


class TestRegressionGate:
    def test_within_factor_passes(self):
        current = _payload(_entry("bench::a", seconds=0.2, peak_nodes=5000))
        baseline = _payload(_entry("bench::a", seconds=0.1, peak_nodes=4000))
        assert check_bench_regression.check(current, baseline, factor=3.0) == []

    def test_seconds_regression_fails_with_both_values(self):
        current = _payload(_entry("bench::a", seconds=1.0))
        baseline = _payload(_entry("bench::a", seconds=0.1))
        (failure,) = check_bench_regression.check(current, baseline, factor=3.0)
        assert "1.000s" in failure and "0.100s" in failure

    def test_peak_nodes_regression_fails(self):
        current = _payload(_entry("bench::a", seconds=0.01, peak_nodes=50_000))
        baseline = _payload(_entry("bench::a", seconds=0.01, peak_nodes=3000))
        (failure,) = check_bench_regression.check(current, baseline, factor=3.0)
        assert "BDD nodes" in failure

    def test_seconds_floor_absorbs_jitter(self):
        # 0.001s -> 0.1s is 100x, but both sit under the clamped floor budget.
        current = _payload(_entry("bench::a", seconds=0.1))
        baseline = _payload(_entry("bench::a", seconds=0.001))
        assert check_bench_regression.check(current, baseline, factor=3.0) == []

    def test_peak_nodes_floor_absorbs_trivial_diagrams(self):
        current = _payload(_entry("bench::a", seconds=0.01, peak_nodes=5000))
        baseline = _payload(_entry("bench::a", seconds=0.01, peak_nodes=10))
        assert check_bench_regression.check(current, baseline, factor=3.0) == []

    def test_baseline_without_peak_nodes_notes_instead_of_skipping(self, capsys):
        """A schema-1-era baseline entry has no node counts: the gate must say
        so (refresh needed) rather than silently not gating."""
        current = _payload(_entry("bench::a", seconds=0.01, peak_nodes=9999))
        baseline = _payload(_entry("bench::a", seconds=0.01))
        assert check_bench_regression.check(current, baseline, factor=3.0) == []
        out = capsys.readouterr().out
        assert "baseline lacks peak_nodes" in out
        assert "bench::a" in out

    def test_current_without_peak_nodes_is_silent(self, capsys):
        current = _payload(_entry("bench::a", seconds=0.01))
        baseline = _payload(_entry("bench::a", seconds=0.01, peak_nodes=5000))
        assert check_bench_regression.check(current, baseline, factor=3.0) == []
        assert "peak_nodes" not in capsys.readouterr().out

    def test_current_entry_missing_seconds_does_not_crash(self):
        """The failure-message path indexes the current entry defensively: an
        entry with no ``seconds`` field counts as 0 and cannot regress."""
        current = _payload(_entry("bench::a", peak_nodes=100))
        baseline = _payload(_entry("bench::a", seconds=10.0, peak_nodes=100))
        assert check_bench_regression.check(current, baseline, factor=3.0) == []

    def test_one_sided_benchmarks_note_but_pass(self, capsys):
        current = _payload(_entry("bench::new", seconds=0.01))
        baseline = _payload(_entry("bench::old", seconds=0.01))
        assert check_bench_regression.check(current, baseline, factor=3.0) == []
        out = capsys.readouterr().out
        assert "disappeared" in out and "bench::old" in out
        assert "without baseline" in out and "bench::new" in out

    def test_main_exit_codes(self, tmp_path, capsys):
        good = tmp_path / "good.json"
        bad = tmp_path / "bad.json"
        base = tmp_path / "base.json"
        good.write_text(json.dumps(_payload(_entry("bench::a", seconds=0.1))))
        bad.write_text(json.dumps(_payload(_entry("bench::a", seconds=9.0))))
        base.write_text(json.dumps(_payload(_entry("bench::a", seconds=0.1))))
        assert check_bench_regression.main([str(good), str(base)]) == 0
        assert "bench gate OK" in capsys.readouterr().out
        assert check_bench_regression.main([str(bad), str(base)]) == 1
        assert "REGRESSION" in capsys.readouterr().err


class TestSchemaAndScalingGuards:
    """The bench-smoke/3 additions: schema validation and tooling-error exits."""

    def test_exact_factor_boundary_passes(self):
        """The gate is strict-greater: exactly 3.0x the baseline is allowed."""
        current = _payload(_entry("bench::a", seconds=0.3, peak_nodes=9000))
        baseline = _payload(_entry("bench::a", seconds=0.1, peak_nodes=3000))
        assert check_bench_regression.check(current, baseline, factor=3.0) == []

    def test_unsupported_schema_raises(self):
        current = _payload(_entry("bench::a", seconds=0.1), schema="bench-smoke/99")
        baseline = _payload(_entry("bench::a", seconds=0.1))
        with pytest.raises(ValueError, match="bench-smoke/99"):
            check_bench_regression.check(current, baseline, factor=3.0)

    def test_missing_schema_raises(self):
        current = {"benchmarks": [_entry("bench::a", seconds=0.1)]}
        baseline = _payload(_entry("bench::a", seconds=0.1))
        with pytest.raises(ValueError, match="unsupported schema"):
            check_bench_regression.check(current, baseline, factor=3.0)

    def test_schema_skew_notes_but_compares(self, capsys):
        current = _payload(
            _entry("bench::a", seconds=0.1), schema="bench-smoke/3", cpu_count=8
        )
        baseline = _payload(_entry("bench::a", seconds=0.1))
        assert check_bench_regression.check(current, baseline, factor=3.0) == []
        assert "schema skew" in capsys.readouterr().out

    def test_main_reports_malformed_current_as_tooling_error(self, tmp_path, capsys):
        current = tmp_path / "current.json"
        baseline = tmp_path / "baseline.json"
        current.write_text("{not json")
        baseline.write_text(json.dumps(_payload(_entry("bench::a", seconds=0.1))))
        assert check_bench_regression.main([str(current), str(baseline)]) == 2
        assert "bench gate error" in capsys.readouterr().err

    def test_main_reports_empty_file_as_tooling_error(self, tmp_path, capsys):
        current = tmp_path / "current.json"
        baseline = tmp_path / "baseline.json"
        current.write_text("")
        baseline.write_text(json.dumps(_payload(_entry("bench::a", seconds=0.1))))
        assert check_bench_regression.main([str(current), str(baseline)]) == 2
        assert "bench gate error" in capsys.readouterr().err

    def test_main_reports_missing_file_as_tooling_error(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(_payload(_entry("bench::a", seconds=0.1))))
        assert check_bench_regression.main([str(tmp_path / "nope.json"), str(baseline)]) == 2
        assert "bench gate error" in capsys.readouterr().err

    def test_main_reports_schema_mismatch_as_tooling_error(self, tmp_path, capsys):
        current = tmp_path / "current.json"
        baseline = tmp_path / "baseline.json"
        current.write_text(json.dumps(_payload(_entry("bench::a", seconds=0.1), schema="nope/1")))
        baseline.write_text(json.dumps(_payload(_entry("bench::a", seconds=0.1))))
        assert check_bench_regression.main([str(current), str(baseline)]) == 2
        assert "unsupported schema" in capsys.readouterr().err


# ------------------------------------------------------- conftest smoke gating

def _item(keywords):
    return types.SimpleNamespace(keywords=keywords)


class TestSmokeRunDetection:
    @pytest.fixture(autouse=True)
    def _restore_flag(self, monkeypatch):
        monkeypatch.setattr(conftest, "_bench_smoke_run", False)
        monkeypatch.delenv("BENCH_SMOKE_JSON", raising=False)

    def test_all_smoke_items_arm_the_writer(self):
        items = [_item({"bench_smoke": True}), _item({"bench_smoke": True})]
        conftest.pytest_collection_finish(types.SimpleNamespace(items=items))
        assert conftest._bench_smoke_run is True

    def test_mixed_collection_does_not_arm(self):
        """The regression this fixes: ``-m "not bench_smoke"`` selects the
        whole non-smoke suite; the old markexpr substring check would have
        armed the writer and clobbered BENCH_SMOKE.json."""
        items = [_item({"bench_smoke": True}), _item({"other_marker": True})]
        conftest.pytest_collection_finish(types.SimpleNamespace(items=items))
        assert conftest._bench_smoke_run is False

    def test_no_smoke_items_do_not_arm(self):
        session = types.SimpleNamespace(items=[_item({}), _item({})])
        conftest.pytest_collection_finish(session)
        assert conftest._bench_smoke_run is False

    def test_empty_collection_does_not_arm(self):
        conftest.pytest_collection_finish(types.SimpleNamespace(items=[]))
        assert conftest._bench_smoke_run is False

    def test_output_path_none_outside_smoke_runs(self):
        config = types.SimpleNamespace(rootpath="/somewhere")
        assert conftest._output_path(config) is None

    def test_output_path_under_rootdir_during_smoke_runs(self, monkeypatch):
        monkeypatch.setattr(conftest, "_bench_smoke_run", True)
        config = types.SimpleNamespace(rootpath="/somewhere")
        assert conftest._output_path(config) == os.path.join("/somewhere", "BENCH_SMOKE.json")

    def test_env_override_wins_even_outside_smoke_runs(self, monkeypatch):
        monkeypatch.setenv("BENCH_SMOKE_JSON", "/tmp/override.json")
        config = types.SimpleNamespace(rootpath="/somewhere")
        assert conftest._output_path(config) == "/tmp/override.json"


class TestSmokeFileWriting:
    """The write-then-rename contract: a failing run must never leave a fresh
    (or half-written) BENCH_SMOKE.json shadowing the last good artifact."""

    @pytest.fixture
    def session_at(self, tmp_path, monkeypatch):
        target = tmp_path / "SMOKE.json"
        monkeypatch.setenv("BENCH_SMOKE_JSON", str(target))
        monkeypatch.setattr(conftest, "_durations", {"bench::a": 0.125})
        monkeypatch.setattr(conftest, "_bdd_stats", {"bench::a": {"peak_nodes": 10}})
        config = types.SimpleNamespace(rootpath=str(tmp_path))
        return target, types.SimpleNamespace(config=config)

    def test_passing_session_writes_schema_3(self, session_at):
        target, session = session_at
        conftest.pytest_sessionfinish(session, exitstatus=0)
        payload = json.loads(target.read_text())
        assert payload["schema"] == "bench-smoke/3"
        assert payload["cpu_count"] >= 1
        (entry,) = payload["benchmarks"]
        assert entry == {"id": "bench::a", "seconds": 0.125, "peak_nodes": 10}
        assert not target.with_suffix(".json.tmp").exists()

    def test_failing_session_leaves_no_file(self, session_at):
        target, session = session_at
        conftest.pytest_sessionfinish(session, exitstatus=1)
        assert not target.exists()
        assert not os.path.exists(str(target) + ".tmp")

    def test_failing_session_preserves_the_previous_artifact(self, session_at):
        target, session = session_at
        target.write_text('{"schema": "bench-smoke/3", "benchmarks": []}')
        conftest.pytest_sessionfinish(session, exitstatus=2)
        assert json.loads(target.read_text())["benchmarks"] == []


_SMOKE_PATH = os.path.join(os.path.dirname(_TOOL_PATH), "perfbench_smoke.py")
_smoke_spec = importlib.util.spec_from_file_location("perfbench_smoke", _SMOKE_PATH)
perfbench_smoke = importlib.util.module_from_spec(_smoke_spec)
_smoke_spec.loader.exec_module(perfbench_smoke)


class TestPerfbenchSmokeGate:
    """The benchmark runner exits 0 on failed operations; the gate must not."""

    def test_clean_run_passes(self):
        line = json.dumps({"correct": 5, "attempted": 5, "failed": 0, "metrics": {}})
        assert perfbench_smoke.result_problem(line) is None

    def test_failed_operations_fail(self):
        line = json.dumps({"correct": 4, "attempted": 5, "failed": 1, "metrics": {}})
        assert "1 of 5" in perfbench_smoke.result_problem(line)

    def test_nothing_attempted_fails(self):
        line = json.dumps({"correct": 0, "attempted": 0, "failed": 0, "metrics": {}})
        assert "no operation attempted" in perfbench_smoke.result_problem(line)

    @pytest.mark.parametrize("line", ["", "Traceback (most recent call last):", "[1, 2]"])
    def test_non_result_lines_fail(self, line):
        assert "not a JSON object" in perfbench_smoke.result_problem(line)


class TestPerfbenchCountGate:
    """Routes and count/% metrics are compared exactly against the record."""

    @staticmethod
    def _lines(states=540.0, backends=None):
        diagnostics = {"diagnostics": {"backends": backends or {"explicit": 12}}}
        result = {
            "correct": True, "attempted": 24, "failed": 0,
            "metrics": {
                "explorer.states": {"value": states, "unit": "count"},
                "workbench.mix_explicit": {"value": 100.0, "unit": "%"},
                "explorer.explore_s": {"value": 0.25, "unit": "s"},
            },
        }
        return [json.dumps(diagnostics), json.dumps(result)]

    def test_exact_counts_keep_only_deterministic_units(self):
        counts = perfbench_smoke.exact_counts(self._lines())
        assert counts == {
            "backends": {"explicit": 12},
            "metrics": {"explorer.states": 540.0, "workbench.mix_explicit": 100.0},
        }

    def test_identical_counts_pass(self):
        recorded = perfbench_smoke.exact_counts(self._lines())
        assert perfbench_smoke.count_problems(recorded, perfbench_smoke.exact_counts(self._lines())) == []

    def test_planted_count_change_fails(self):
        recorded = perfbench_smoke.exact_counts(self._lines())
        current = perfbench_smoke.exact_counts(self._lines(states=541.0))
        assert perfbench_smoke.count_problems(recorded, current) == ["explorer.states 540.0 -> 541.0"]

    def test_route_change_fails(self):
        recorded = perfbench_smoke.exact_counts(self._lines())
        current = perfbench_smoke.exact_counts(self._lines(backends={"symbolic-int": 12}))
        (problem,) = perfbench_smoke.count_problems(recorded, current)
        assert problem.startswith("backends")

    def test_gate_fails_on_a_planted_change_against_the_record(self, tmp_path, monkeypatch, capsys):
        record = tmp_path / "COUNTS.json"
        record.write_text(json.dumps(
            {"workloads": {"explicit": perfbench_smoke.exact_counts(self._lines())}}
        ))
        monkeypatch.setattr(perfbench_smoke, "COUNTS_PATH", record)
        declaration = {"command": ["python3", "run.py"], "workloads": [{"name": "explicit"}]}
        monkeypatch.setattr(perfbench_smoke, "run_workload", lambda *a, **k: (None, self._lines()))
        assert perfbench_smoke.counts(declaration, update=False) == 0
        monkeypatch.setattr(
            perfbench_smoke, "run_workload", lambda *a, **k: (None, self._lines(states=600.0))
        )
        assert perfbench_smoke.counts(declaration, update=False) == 1
        assert "explorer.states 540.0 -> 600.0" in capsys.readouterr().out

    def test_committed_record_covers_every_workload(self):
        declaration = json.loads((perfbench_smoke.ROOT / "BENCHMARK.json").read_text())
        record = json.loads(perfbench_smoke.COUNTS_PATH.read_text())
        assert record["seed"] == perfbench_smoke.COUNT_SEED
        assert set(record["workloads"]) == {entry["name"] for entry in declaration["workloads"]}
