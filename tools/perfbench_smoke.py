"""Smoke run of the repository benchmark: every workload, a few seconds each.

Run from anywhere (CI runs it as ``make perfbench-smoke``)::

    python tools/perfbench_smoke.py

The workloads and the command come from ``BENCHMARK.json``.  Each workload
runs once for ``SECONDS`` seconds at seed ``SEED`` with ``--trace 0``; the
gate fails unless the JSON object on the last line of its output reports at
least one attempted operation and no failed one.  The benchmark runner exits
0 even when operations fail, so its exit status alone does not show that the
API path it drives still works.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent

#: Measured seconds per workload, and the seed every run uses.
SECONDS = 3
SEED = 1
#: Seconds one workload's run may take, set-up included, before it fails.
RUN_TIMEOUT_S = 600


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


def run_workload(command: list[str], workload: str) -> Optional[str]:
    """Run one workload; return why it fails the gate, or None."""
    arguments = ["--workload", workload, "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", "0"]
    # The declared command names ``python3``; run it on this interpreter.
    if command and Path(command[0]).name.startswith("python"):
        command = [sys.executable, *command[1:]]
    try:
        completed = subprocess.run(
            [*command, *arguments], cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return f"no result within {RUN_TIMEOUT_S} s"
    if completed.returncode != 0:
        tail = completed.stderr.strip().splitlines()[-5:]
        return f"exit status {completed.returncode}: " + " | ".join(tail)
    lines = completed.stdout.strip().splitlines()
    return result_problem(lines[-1] if lines else "")


def main() -> int:
    declaration = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = 0
    for workload in (entry["name"] for entry in declaration["workloads"]):
        problem = run_workload(declaration["command"], workload)
        print(f"perfbench {workload}: {'ok' if problem is None else 'FAILED: ' + problem}", flush=True)
        failures += problem is not None
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
