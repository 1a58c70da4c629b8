"""Smoke runs of the benchmark suite, so benchmarks cannot silently rot.

The ``benchmarks/bench_*.py`` modules are not collected by the default
``test_*.py`` pattern, which historically let them break unnoticed between
benchmark campaigns.  Each test here imports one benchmark module and runs
every one of its test functions once, substituting a pass-through stub for
the ``pytest-benchmark`` fixture and picking the *first* (smallest) value of
every ``parametrize`` mark — benchmark files list their sizes in increasing
order.  Select just these with ``pytest -m bench_smoke`` (or ``make
bench-smoke``); they also run as part of the plain suite because they are
cheap at the smallest sizes.
"""

import importlib.util
import inspect
import pathlib

import pytest

BENCH_DIR = pathlib.Path(__file__).resolve().parent.parent / "benchmarks"
BENCH_MODULES = sorted(BENCH_DIR.glob("bench_*.py"))


class PassThroughBenchmark:
    """Minimal stand-in for pytest-benchmark's fixture: run once, no timing."""

    def __call__(self, function, *args, **kwargs):
        return function(*args, **kwargs)

    def pedantic(self, function, args=(), kwargs=None, **_ignored):
        return function(*args, **(kwargs or {}))


def _load(path: pathlib.Path):
    spec = importlib.util.spec_from_file_location(f"bench_smoke_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _smallest_parameters(function) -> dict:
    """The first value of every ``@pytest.mark.parametrize`` on ``function``."""
    parameters: dict = {}
    for mark in getattr(function, "pytestmark", []):
        if mark.name != "parametrize":
            continue
        argnames, argvalues = mark.args[0], mark.args[1]
        names = [n.strip() for n in argnames.split(",")] if isinstance(argnames, str) else list(argnames)
        first = argvalues[0]
        if len(names) == 1:
            parameters[names[0]] = first
        else:
            parameters.update(zip(names, first))
    return parameters


def test_benchmark_directory_is_nonempty():
    assert BENCH_MODULES, f"no benchmark modules found under {BENCH_DIR}"


@pytest.mark.bench_smoke
@pytest.mark.parametrize("path", BENCH_MODULES, ids=lambda p: p.stem)
def test_benchmark_module_smoke(path, record_property):
    module = _load(path)
    executed = 0
    for name in sorted(dir(module)):
        if not name.startswith("test_"):
            continue
        function = getattr(module, name)
        if not callable(function):
            continue
        arguments = _smallest_parameters(function)
        signature = inspect.signature(function)
        if "benchmark" in signature.parameters:
            arguments["benchmark"] = PassThroughBenchmark()
        # Figures a benchmark records (e.g. its codegen speedup) land on
        # this smoke test's report, where the conftest collects them.
        arguments["record_property"] = record_property
        accepted = {key: value for key, value in arguments.items() if key in signature.parameters}
        missing = [p for p in signature.parameters if p not in accepted]
        assert not missing, f"{path.stem}.{name}: no smoke value for fixtures {missing}"
        function(**accepted)
        executed += 1
    assert executed, f"{path.stem} defines no test functions"
