#!/usr/bin/env python
"""Fail when a smoke benchmark regresses past a factor over the baseline.

Usage::

    python tools/check_bench_regression.py BENCH_SMOKE.json benchmarks/BENCH_BASELINE.json

Compares the freshly generated ``BENCH_SMOKE.json`` (written by the repo
conftest during ``make bench-smoke``) against the committed baseline file,
benchmark by benchmark:

* ``seconds`` — wall-clock, compared with a small absolute floor so that
  sub-hundredth-second benchmarks cannot trip the gate on scheduler noise;
* ``peak_nodes`` — peak BDD unique-table population, which is deterministic
  for a given code state, so a blow-up here is always a real regression.

A benchmark fails when its current value exceeds ``factor`` (default 3.0)
times the (floored) baseline value.  Benchmarks present on only one side
are reported but do not fail the gate — adding or retiring a benchmark is
a deliberate act that lands together with a refreshed baseline.

Schema ``bench-smoke/3`` additionally records the runner's ``cpu_count``.
An unrecognised schema on either side is an error (exit 2) — the gate must
never silently compare files it does not understand.
"""

from __future__ import annotations

import argparse
import json
import sys

#: Baselines below these floors are clamped up before applying the factor:
#: timing jitter dominates tiny benchmarks, and trivial BDD usage should not
#: gate on a handful of nodes.
SECONDS_FLOOR = 0.05
PEAK_NODES_FLOOR = 2000

#: Smoke-file schemas this gate knows how to compare.  ``bench-smoke/2``
#: baselines stay valid (they just lack cpu metadata); anything else is a
#: hard error rather than a silent pass.
SUPPORTED_SCHEMAS = ("bench-smoke/2", "bench-smoke/3")


def _validate_schema(payload: dict, role: str) -> str:
    schema = payload.get("schema")
    if schema not in SUPPORTED_SCHEMAS:
        raise ValueError(
            f"{role} file has unsupported schema {schema!r} "
            f"(supported: {', '.join(SUPPORTED_SCHEMAS)})"
        )
    return schema


def _index(payload: dict) -> dict[str, dict]:
    return {entry["id"]: entry for entry in payload.get("benchmarks", [])}


def check(current: dict, baseline: dict, factor: float) -> list[str]:
    """Return the list of regression messages (empty = gate passes)."""
    failures: list[str] = []
    _validate_schema(current, "current")
    schema_baseline = _validate_schema(baseline, "baseline")
    if current.get("schema") != schema_baseline:
        print(
            f"note: schema skew — current {current.get('schema')!r} vs "
            f"baseline {schema_baseline!r} (baseline refresh will realign)"
        )
    current_by_id = _index(current)
    baseline_by_id = _index(baseline)

    for missing in sorted(baseline_by_id.keys() - current_by_id.keys()):
        print(f"note: benchmark disappeared (baseline refresh needed?): {missing}")
    for added in sorted(current_by_id.keys() - baseline_by_id.keys()):
        print(f"note: new benchmark without baseline: {added}")

    for nodeid in sorted(current_by_id.keys() & baseline_by_id.keys()):
        now, then = current_by_id[nodeid], baseline_by_id[nodeid]
        budget = factor * max(then.get("seconds", 0.0), SECONDS_FLOOR)
        if now.get("seconds", 0.0) > budget:
            failures.append(
                f"{nodeid}: {now.get('seconds', 0.0):.3f}s exceeds {budget:.3f}s "
                f"({factor}x the {then.get('seconds', 0.0):.3f}s baseline)"
            )
        if "peak_nodes" in now and "peak_nodes" in then:
            node_budget = factor * max(then["peak_nodes"], PEAK_NODES_FLOOR)
            if now["peak_nodes"] > node_budget:
                failures.append(
                    f"{nodeid}: peak {now['peak_nodes']} BDD nodes exceeds "
                    f"{node_budget:.0f} ({factor}x the {then['peak_nodes']}-node baseline)"
                )
        elif "peak_nodes" in now:
            # A schema-1-era baseline entry has no node counts: say so instead
            # of silently skipping the (deterministic) node gate.
            print(f"note: baseline lacks peak_nodes (refresh needed?): {nodeid}")
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("current", help="freshly generated BENCH_SMOKE.json")
    parser.add_argument("baseline", help="committed baseline JSON")
    parser.add_argument("--factor", type=float, default=3.0, help="regression factor (default 3)")
    arguments = parser.parse_args(argv)

    try:
        with open(arguments.current, encoding="utf-8") as handle:
            current = json.load(handle)
        with open(arguments.baseline, encoding="utf-8") as handle:
            baseline = json.load(handle)
        failures = check(current, baseline, arguments.factor)
    except (OSError, json.JSONDecodeError, ValueError) as error:
        # Unreadable/malformed inputs or an unsupported schema are tooling
        # errors, distinct from a benchmark regression (exit 1).
        print(f"bench gate error: {error}", file=sys.stderr)
        return 2
    for failure in failures:
        print(f"REGRESSION: {failure}", file=sys.stderr)
    if failures:
        return 1
    compared = len(_index(current).keys() & _index(baseline).keys())
    print(f"bench gate OK: {compared} benchmarks within {arguments.factor}x of baseline")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
