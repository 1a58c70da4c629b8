"""Repo-level pytest plumbing: timeout guards and the bench-smoke trajectory file.

``make bench-smoke`` (``pytest -m bench_smoke``) smoke-runs every
``benchmarks/bench_*.py`` main path at its smallest size.  This plugin
records each smoke test's wall-clock plus the process-wide BDD counters the
run accumulated (peak unique-table nodes and dynamic-reorder count, reset
per test — see :mod:`repro.clocks.bdd`) and, when the run actually selected
the ``bench_smoke`` marker (or ``BENCH_SMOKE_JSON`` names an output path),
writes them to ``BENCH_SMOKE.json`` — the artifact CI uploads on every
build, seeding the benchmark trajectory without a full pytest-benchmark
campaign.  ``tools/check_bench_regression.py`` compares that file against
the committed ``benchmarks/BENCH_BASELINE.json`` and fails CI on a >3x
regression of any benchmark's wall-clock or peak-node count.
"""

import json
import os
import platform
import signal
import threading
import time

import pytest

_durations: dict[str, float] = {}
_bdd_stats: dict[str, dict] = {}
#: True when the session's *collected items* are exactly the bench-smoke
#: suite.  Set at collection time — substring-matching the ``-m`` expression
#: would misread ``-m "not bench_smoke"`` (or any compound expression
#: mentioning the marker) as a smoke run and overwrite BENCH_SMOKE.json
#: with an empty or partial payload.
_bench_smoke_run = False


def _bdd_module():
    try:
        from repro.clocks import bdd
    except ImportError:  # pragma: no cover - repro not importable (bad env)
        return None
    return bdd


# --------------------------------------------------------------------- timeout guard

@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    """Enforce ``@pytest.mark.timeout(seconds)``: fail, don't hang.

    The multiprocess pool tests deadlock rather than fail when the queue or
    service loop regresses; without a guard, CI hangs until the job-level
    kill and reports nothing useful.  SIGALRM (via ``setitimer``, so
    fractional budgets work) interrupts the test body with a pointed
    failure.  Only usable on the POSIX main thread — anywhere else the
    marker degrades to a no-op rather than breaking collection.
    """
    marker = item.get_closest_marker("timeout")
    seconds = float(marker.args[0]) if marker and marker.args else 0.0
    usable = (
        seconds > 0
        and hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )
    if not usable:
        return (yield)

    def expired(signum, frame):
        pytest.fail(f"test exceeded its {seconds:g}s timeout guard", pytrace=False)

    previous = signal.signal(signal.SIGALRM, expired)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return (yield)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


# ----------------------------------------------------------------- bench-smoke output

def pytest_collection_finish(session):
    # Runs after every collection-modifying hook — in particular after the
    # ``-m`` marker filter has deselected items — so ``session.items`` is
    # exactly what will execute.
    global _bench_smoke_run
    items = session.items
    _bench_smoke_run = bool(items) and all("bench_smoke" in item.keywords for item in items)


def pytest_runtest_setup(item):
    if "bench_smoke" in item.keywords:
        bdd = _bdd_module()
        if bdd is not None:
            bdd.reset_global_stats()


def pytest_runtest_logreport(report):
    if report.when == "call" and report.passed and "bench_smoke" in report.keywords:
        _durations[report.nodeid] = report.duration
        bdd = _bdd_module()
        if bdd is not None:
            stats = bdd.global_stats()
            _bdd_stats[report.nodeid] = {
                "peak_nodes": stats["peak_nodes"],
                "reorders": stats["reorders"],
                "cache_hits": stats["cache_hits"],
                "cache_misses": stats["cache_misses"],
            }
        # Figures a benchmark records itself through ``record_property``:
        # bench_step_codegen's ``step_speedup``, bench_trace_extraction's
        # ``bank_trace_nodes``.
        if report.user_properties:
            _bdd_stats.setdefault(report.nodeid, {}).update(report.user_properties)


def _output_path(config) -> str | None:
    explicit = os.environ.get("BENCH_SMOKE_JSON")
    if explicit:
        return explicit
    if _bench_smoke_run:
        return os.path.join(str(config.rootpath), "BENCH_SMOKE.json")
    return None


def pytest_sessionfinish(session, exitstatus):
    path = _output_path(session.config)
    if path is None or not _durations:
        return
    payload = {
        "schema": "bench-smoke/3",
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count() or 1,
        "exit_status": int(exitstatus),
        "total_seconds": round(sum(_durations.values()), 6),
        "benchmarks": [
            {
                "id": nodeid,
                "seconds": round(seconds, 6),
                **_bdd_stats.get(nodeid, {}),
            }
            for nodeid, seconds in sorted(_durations.items())
        ],
    }
    # Write-then-rename: a failing run must not leave a half-written (or
    # fully written but unrepresentative) smoke file shadowing the last good
    # one — the regression gate would compare garbage against the baseline.
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    if int(exitstatus) == 0:
        os.replace(tmp, path)
    else:
        os.unlink(tmp)
