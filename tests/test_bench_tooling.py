"""Tests for the benchmark-trajectory tooling around the smoke runs.

Two pieces of plumbing are pinned here.  ``tools/check_bench_regression.py``
is the CI gate comparing a fresh ``BENCH_SMOKE.json`` against the committed
baseline: its message formatting must survive schema-skewed entries (a
baseline predating the ``peak_nodes`` counters, a current entry missing
``seconds``) without crashing or silently skipping a gate.  The repo
``conftest`` must write ``BENCH_SMOKE.json`` exactly when the collected
items *are* the smoke suite — substring-matching the ``-m`` expression
would misread ``-m "not bench_smoke"`` as a smoke run and overwrite the
artifact with an empty payload.  ``tools/perfbench_pairs.py``, which runs
interleaved parent/change pairs of a perfbench workload, is pinned on a
stub runner: which side runs first, how values are read, and the summary.
"""

import importlib.util
import json
import os
import subprocess
import sys
import types

import pytest

import conftest

_TOOL_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "tools", "check_bench_regression.py")
_spec = importlib.util.spec_from_file_location("check_bench_regression", _TOOL_PATH)
check_bench_regression = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_bench_regression)

_PAIRS_PATH = os.path.join(os.path.dirname(_TOOL_PATH), "perfbench_pairs.py")
_spec = importlib.util.spec_from_file_location("perfbench_pairs", _PAIRS_PATH)
perfbench_pairs = importlib.util.module_from_spec(_spec)
# Registered first: its dataclasses resolve their annotations through it.
sys.modules[_spec.name] = perfbench_pairs
_spec.loader.exec_module(perfbench_pairs)


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


# ------------------------------------------------------- interleaved perfbench pairs

def _result(value, failed=0, **others):
    metrics = {"designs_per_s": value, **others}
    return {
        "attempted": 5, "failed": failed,
        "metrics": {name: {"value": number, "unit": "-"} for name, number in metrics.items()},
    }


class StubRunner:
    """Answers ``runner(side, seed)`` from a table and records the calls."""

    def __init__(self, values):
        self.values = values
        self.calls = []

    def __call__(self, side, seed):
        self.calls.append((side, seed))
        value = self.values[side, seed]
        return value if value is None or isinstance(value, dict) else _result(value)


def _pair(seed, first, parent, change, metric="designs_per_s"):
    side = lambda value: None if value is None else {metric: value}  # noqa: E731
    return perfbench_pairs.Pair(seed, first, side(parent), side(change))


class TestPerfbenchPairs:
    def test_parent_runs_first_on_odd_seeds(self):
        runner = StubRunner({(side, seed): 1.0 for side in ("parent", "change") for seed in (1, 2, 3)})
        pairs = list(perfbench_pairs.run_pairs(runner, [1, 2, 3]))
        assert runner.calls == [
            ("parent", 1), ("change", 1), ("change", 2), ("parent", 2), ("parent", 3), ("change", 3),
        ]
        assert [pair.first for pair in pairs] == ["parent", "change", "parent"]

    def test_values_are_read_per_side(self):
        runner = StubRunner({("parent", 4): _result(10.0, peak_rss_mb=30.0), ("change", 4): 12.5})
        (pair,) = perfbench_pairs.run_pairs(runner, [4])
        assert (pair.seed, pair.values("designs_per_s")) == (4, (10.0, 12.5))
        assert pair.values("peak_rss_mb") == (30.0, None)

    def test_failed_operations_or_no_result_leave_a_side_empty(self):
        runner = StubRunner({("parent", 5): _result(9.0, failed=1), ("change", 5): None})
        (pair,) = perfbench_pairs.run_pairs(runner, [5])
        assert pair.parent is None and pair.change is None
        assert not pair.change_wins("designs_per_s", higher_is_better=True)
        assert perfbench_pairs.metric_values({"attempted": 0, "failed": 0}) is None

    def test_summary_counts_wins_in_the_better_direction(self):
        pairs = [_pair(1, "parent", 10.0, 12.0), _pair(2, "change", 11.0, 10.5), _pair(3, "parent", 9.0, 13.0)]
        higher = perfbench_pairs.summarise(pairs, "designs_per_s", higher_is_better=True)
        assert (higher.wins, higher.pairs) == (2, 3)
        assert (higher.parent_median, higher.change_median) == (10.0, 12.0)
        assert higher.parent_quartiles == (9.5, 10.5)
        assert higher.spread == 1.0
        assert higher.clears_spread(higher_is_better=True)
        lower = perfbench_pairs.summarise(pairs, "designs_per_s", higher_is_better=False)
        assert lower.wins == 1
        assert not lower.clears_spread(higher_is_better=False)

    def test_summary_skips_incomplete_pairs(self):
        summary = perfbench_pairs.summarise(
            [_pair(1, "parent", 10.0, 11.0), _pair(2, "change", None, 20.0)], "designs_per_s", True
        )
        assert (summary.wins, summary.pairs, summary.parent_quartiles) == (1, 1, (10.0, 10.0))
        with pytest.raises(ValueError, match="no pair"):
            perfbench_pairs.summarise([_pair(2, "change", None, 20.0)], "designs_per_s", True)

    def test_report_prints_pairs_summary_and_every_metric(self):
        values = {
            ("parent", 7): _result(10.0, setup_s=0.2), ("change", 7): _result(12.0, setup_s=0.1),
            ("parent", 8): _result(10.0, setup_s=0.2), ("change", 8): _result(9.0, setup_s=0.3),
        }
        lines = []
        metrics = {"designs_per_s": (True, 0.25), "setup_s": (False, 0.25)}
        status = perfbench_pairs.report(StubRunner(values), "designs_per_s", metrics, [7, 8], lines.append)
        assert status == 0
        assert lines[1].split() == ["7", "parent", "10", "12", "1.200", "win"]
        assert lines[2].split() == ["8", "change", "10", "9", "0.900", "loss"]
        assert lines[3] == "change wins 1 of 2 pairs"
        start = lines.index("every end-to-end metric, parent -> change medians:")
        assert lines[start + 1].split()[:5] == ["designs_per_s", "10", "->", "10.5", "1.050x"]
        assert lines[start + 2].split()[:5] == ["setup_s", "0.2", "->", "0.2", "1.000x"]
        assert lines[start + 2].endswith("(lower is better; change better in 1 of 2)")
        assert lines[start + 3] == "every end-to-end metric against its bound:"
        failing = StubRunner({("parent", 7): 10.0, ("change", 7): None})
        assert perfbench_pairs.report(failing, "designs_per_s", metrics, [7], lines.append) == 1

    def test_report_gives_every_metric_a_verdict_against_its_bound(self):
        """Four seeds: a small loss, a loss past the bound, and three spreads
        wider than the bound.  Of those, a mixed outcome and a change ahead
        in every pair whose runs still overlap the parent's are unresolved;
        only a change whose every run beats every parent run is resolved."""
        parent = {
            "designs_per_s": [10.0] * 4,
            "setup_s": [0.2] * 4,
            "verdict_p50_s": [0.1, 0.2, 0.3, 0.4],
            "verdict_tail_s": [0.1, 0.2, 0.3, 0.4],
            "peak_rss_mb": [10.0, 20.0, 30.0, 40.0],
        }
        change = {
            "designs_per_s": [9.5] * 4,
            "setup_s": [0.3] * 4,
            "verdict_p50_s": [0.05, 0.3, 0.25, 0.5],
            "verdict_tail_s": [0.09, 0.19, 0.29, 0.39],
            "peak_rss_mb": [5.0, 6.0, 7.0, 9.0],
        }
        seeds = [11, 12, 13, 14]
        values = {}
        for side, table in (("parent", parent), ("change", change)):
            for index, seed in enumerate(seeds):
                metrics = {name: column[index] for name, column in table.items()}
                values[side, seed] = _result(metrics.pop("designs_per_s"), **metrics)
        metrics = {name: (name == "designs_per_s", 0.25) for name in parent}
        lines = []
        status = perfbench_pairs.report(StubRunner(values), "designs_per_s", metrics, seeds, lines.append)
        assert status == 0
        start = lines.index("every end-to-end metric against its bound:")
        verdicts = {line.split()[0]: line.split(": ")[-1] for line in lines[start + 1:]}
        assert verdicts == {
            "designs_per_s": "within bound",
            "setup_s": "worse than bound",
            "verdict_p50_s": "unresolved",
            "verdict_tail_s": "unresolved",
            "peak_rss_mb": "within bound",
        }
        assert lines[start + 1].split() == [
            "designs_per_s", "parent", "spread", "0", "(0.0%", "of", "median),", "gain", "-5.0%,",
            "bound", "25%:", "within", "bound",
        ]
        assert "parent spread 0.15 (60.0% of median)" in lines[start + 3]
        assert len(lines) == start + 1 + len(metrics)

    def test_parent_revision_is_required(self, capsys):
        with pytest.raises(SystemExit):
            perfbench_pairs.main(["--workload", "explicit"])
        assert "--parent" in capsys.readouterr().err

    def test_command_runner_runs_each_side_in_its_checkout(self, tmp_path):
        script = tmp_path / "bench.py"
        script.write_text(
            "import json, os, sys\n"
            "print('noise')\n"
            "print(json.dumps({'cwd': os.getcwd(), 'argv': sys.argv[1:],"
            " 'prefix': os.environ.get('PYTHONPYCACHEPREFIX')}))\n"
        )
        roots = {"parent": tmp_path / "p", "change": tmp_path / "c"}
        for root in roots.values():
            root.mkdir()
        runner = perfbench_pairs.command_runner(
            ["python3", str(script)], roots, "explicit", 2.0, tmp_path / "caches"
        )
        result = runner("parent", 9)
        assert os.path.samefile(result["cwd"], roots["parent"])
        assert result["argv"] == ["--workload", "explicit", "--seed", "9", "--seconds", "2.0"]
        # Each side's bytecode lives apart from both checkouts.
        assert result["prefix"] == str(tmp_path / "caches" / "parent")
        assert runner("change", 9)["prefix"] == str(tmp_path / "caches" / "change")
        failing = perfbench_pairs.command_runner(
            ["python3", "-c", "raise SystemExit(3)"], roots, "explicit", 2.0, tmp_path / "caches"
        )
        assert failing("parent", 9) is None

    def test_parent_checkout_is_a_removed_worktree(self, tmp_path):
        repository = tmp_path / "repository"
        repository.mkdir()
        git = ["git", "-c", "user.name=bench", "-c", "user.email=bench@example.com"]
        for command in (["init", "--quiet"], ["commit", "--quiet", "--allow-empty", "-m", "parent"]):
            subprocess.run([*git, *command], cwd=repository, check=True)
        (repository / "marker.txt").write_text("parent")
        subprocess.run([*git, "add", "marker.txt"], cwd=repository, check=True)
        subprocess.run([*git, "commit", "--quiet", "-m", "change"], cwd=repository, check=True)
        with perfbench_pairs.parent_checkout("HEAD~1", repository) as checkout:
            assert checkout.is_dir() and not (checkout / "marker.txt").exists()
        assert not checkout.exists()
        listed = subprocess.run(
            ["git", "worktree", "list"], cwd=repository, check=True, capture_output=True, text=True
        )
        assert len(listed.stdout.strip().splitlines()) == 1
