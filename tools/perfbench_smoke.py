"""Smoke run of the repository benchmark, and its count gate.

Run from anywhere (CI runs both as ``make perfbench-smoke`` and
``make perfbench-counts``)::

    python tools/perfbench_smoke.py                    # the smoke runs
    python tools/perfbench_smoke.py --counts           # the count gate
    python tools/perfbench_smoke.py --counts --update  # regenerate its record

The workloads and the command come from ``BENCHMARK.json``.

Smoke runs: each workload runs once for ``SECONDS`` seconds at seed ``SEED``
with ``--trace 0``, and the ``TRACED`` workloads once more with ``--trace 1``
(the per-layer path, which routes through ``Design.backend_info``); the gate
fails unless the JSON object on the last line of each run's output reports
at least one attempted operation and no failed one.  The benchmark runner
exits 0 even when operations fail, so its exit status alone does not show
that the API path it drives still works.

Count gate: each workload runs traced at seed ``COUNT_SEED``.  Its routes
(``diagnostics.backends``) and every per-layer metric whose unit is in
``EXACT_UNITS`` are deterministic per seed, so they are compared exactly
against the committed record ``benchmarks/PERFBENCH_COUNTS.json``.  A change
that moves a count regenerates the record with ``--update`` and says which
counts moved and why.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent

#: Measured seconds per workload, and the seed every smoke run uses.
SECONDS = 3
SEED = 1
#: Workloads also run traced: the symbolic one covers the routed BDD layers.
TRACED = ("symbolic",)
#: Seconds one workload's run may take, set-up included, before it fails.
RUN_TIMEOUT_S = 600

#: Seed of the count gate's traced runs, and the record they are held to.
COUNT_SEED = 3
COUNTS_PATH = ROOT / "benchmarks" / "PERFBENCH_COUNTS.json"
#: Units of the per-layer metrics that are deterministic per seed.
EXACT_UNITS = ("count", "%")


def result_problem(last_line: str) -> Optional[str]:
    """Why a run's last output line fails the gate, or None when it passes."""
    try:
        result = json.loads(last_line)
    except ValueError:
        return f"last line is not a JSON object: {last_line[:200]!r}"
    if not isinstance(result, dict):
        return f"last line is not a JSON object: {last_line[:200]!r}"
    attempted, failed = result.get("attempted"), result.get("failed")
    if not isinstance(attempted, int) or attempted <= 0:
        return f"no operation attempted (attempted={attempted!r})"
    if failed != 0:
        return f"{failed!r} of {attempted} operations failed"
    return None


def run_workload(
    command: list[str], workload: str, trace: int = 0, seed: int = SEED
) -> tuple[Optional[str], list[str]]:
    """Run one workload; return why it fails the gate (or None) and its output lines."""
    arguments = [
        "--workload", workload, "--seed", str(seed), "--seconds", str(SECONDS), "--trace", str(trace),
    ]
    # The declared command names ``python3``; run it on this interpreter.
    if command and Path(command[0]).name.startswith("python"):
        command = [sys.executable, *command[1:]]
    try:
        completed = subprocess.run(
            [*command, *arguments], cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return f"no result within {RUN_TIMEOUT_S} s", []
    if completed.returncode != 0:
        tail = completed.stderr.strip().splitlines()[-5:]
        return f"exit status {completed.returncode}: " + " | ".join(tail), []
    lines = completed.stdout.strip().splitlines()
    return result_problem(lines[-1] if lines else ""), lines


def exact_counts(lines: list[str]) -> dict:
    """The routes and the ``EXACT_UNITS`` metrics of a traced run's output."""
    diagnostics = json.loads(lines[-2])["diagnostics"]
    metrics = json.loads(lines[-1])["metrics"]
    return {
        "backends": dict(sorted(diagnostics["backends"].items())),
        "metrics": {
            name: entry["value"] for name, entry in metrics.items() if entry["unit"] in EXACT_UNITS
        },
    }


def count_problems(recorded: dict, current: dict) -> list[str]:
    """Every difference between a workload's recorded and current counts."""
    problems = []
    if recorded.get("backends") != current["backends"]:
        problems.append(f"backends {recorded.get('backends')} -> {current['backends']}")
    before, after = recorded.get("metrics", {}), current["metrics"]
    for name in sorted(set(before) | set(after)):
        if before.get(name) != after.get(name):
            problems.append(f"{name} {before.get(name)!r} -> {after.get(name)!r}")
    return problems


def smoke(declaration: dict) -> int:
    failures = 0
    workloads = [entry["name"] for entry in declaration["workloads"]]
    runs = [(name, 0) for name in workloads] + [(name, 1) for name in TRACED if name in workloads]
    for workload, trace in runs:
        problem, _lines = run_workload(declaration["command"], workload, trace)
        label = f"{workload} (traced)" if trace else workload
        print(f"perfbench {label}: {'ok' if problem is None else 'FAILED: ' + problem}", flush=True)
        failures += problem is not None
    return 1 if failures else 0


def counts(declaration: dict, update: bool) -> int:
    record = {} if update else json.loads(COUNTS_PATH.read_text())["workloads"]
    current = {}
    failures = 0
    for entry in declaration["workloads"]:
        workload = entry["name"]
        problem, lines = run_workload(declaration["command"], workload, trace=1, seed=COUNT_SEED)
        problems = [problem] if problem is not None else []
        if not problems:
            current[workload] = exact_counts(lines)
            if not update:
                problems = count_problems(record.get(workload, {}), current[workload])
        print(f"perfbench counts {workload}: " + ("ok" if not problems else "FAILED"), flush=True)
        for line in problems:
            print(f"  {line}", flush=True)
        failures += bool(problems)
    if update and not failures:
        payload = {"seed": COUNT_SEED, "units": list(EXACT_UNITS), "workloads": current}
        COUNTS_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"wrote {COUNTS_PATH.relative_to(ROOT)}")
    return 1 if failures else 0


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--counts", action="store_true", help="run the count gate")
    parser.add_argument("--update", action="store_true", help="regenerate the count record")
    args = parser.parse_args(argv)
    declaration = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.counts or args.update:
        return counts(declaration, args.update)
    return smoke(declaration)


if __name__ == "__main__":
    sys.exit(main())
