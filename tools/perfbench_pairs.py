"""Interleaved parent/change pairs of one perfbench workload.

Run from anywhere; ``make perfbench-pairs ARGS="--parent HEAD~1"`` forwards
its arguments::

    python tools/perfbench_pairs.py --parent HEAD~1
    python tools/perfbench_pairs.py --parent HEAD --workload service --pairs 5 --first-seed 401

The *change* is the working tree this script sits in, uncommitted edits
included; the *parent* is the revision ``--parent`` (``HEAD`` for an
uncommitted change, ``HEAD~1`` for a committed one), checked out with
``git worktree`` into a temporary directory that is removed afterwards.
Pair ``i`` runs both sides at seed ``first_seed + i`` with the benchmark
command and run length of ``BENCHMARK.json``; the parent runs first on odd
seeds and the change first on even ones, so a drift of the host over the
run does not favour one side.

The report prints each pair's values of one end-to-end metric
(``--metric``), which side won, and both sides' medians with the parent's
quartiles: a claimed gain should win (nearly) every pair and move the
median by more than the parent's interquartile spread.  It ends with the
medians and wins of every end-to-end metric, read from the same runs.  The
exit status is 1 when a run failed an operation or produced no result.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, Mapping, Optional

ROOT = Path(__file__).resolve().parent.parent

#: Seconds one run may take, set-up included, before it counts as failed.
RUN_TIMEOUT_S = 900

#: ``runner(side, seed)``: the parsed last output line of one run, or None.
Runner = Callable[[str, int], Optional[dict]]


@dataclass(frozen=True)
class Pair:
    """Both sides' metric values at one seed; a side is None when its run failed."""

    seed: int
    first: str  # "parent" or "change"
    parent: Optional[Mapping[str, float]]
    change: Optional[Mapping[str, float]]

    def values(self, metric: str) -> tuple[Optional[float], Optional[float]]:
        """``(parent, change)`` values of ``metric``, None where missing."""
        return tuple(None if side is None else side.get(metric) for side in (self.parent, self.change))

    def change_wins(self, metric: str, higher_is_better: bool) -> bool:
        parent, change = self.values(metric)
        if parent is None or change is None:
            return False
        return change > parent if higher_is_better else change < parent


@dataclass(frozen=True)
class Summary:
    """The wins and medians of one metric over the pairs with a value on both sides."""

    wins: int
    pairs: int
    parent_median: float
    change_median: float
    parent_quartiles: tuple[float, float]

    @property
    def spread(self) -> float:
        """The parent's interquartile distance."""
        return self.parent_quartiles[1] - self.parent_quartiles[0]

    @property
    def ratio(self) -> float:
        return self.change_median / self.parent_median if self.parent_median else float("nan")

    def clears_spread(self, higher_is_better: bool) -> bool:
        """Whether the medians differ in the better direction by more than the spread."""
        gain = self.change_median - self.parent_median
        return (gain if higher_is_better else -gain) > self.spread


def order(seed: int) -> tuple[str, str]:
    """Which side runs first at ``seed``: the parent on odd seeds."""
    return ("parent", "change") if seed % 2 else ("change", "parent")


def metric_values(result: Optional[dict]) -> Optional[dict[str, float]]:
    """The metrics of a run's result line; None unless every operation succeeded."""
    if not isinstance(result, dict) or result.get("failed") != 0 or not result.get("attempted"):
        return None
    return {name: float(entry["value"]) for name, entry in result.get("metrics", {}).items()}


def run_pairs(runner: Runner, seeds: list[int]) -> Iterator[Pair]:
    """Run both sides at every seed, in :func:`order`, yielding each pair."""
    for seed in seeds:
        values = {side: metric_values(runner(side, seed)) for side in order(seed)}
        yield Pair(seed, order(seed)[0], values["parent"], values["change"])


def summarise(pairs: list[Pair], metric: str, higher_is_better: bool) -> Summary:
    """Wins, medians and the parent's quartiles of ``metric`` over the complete pairs."""
    complete = [pair for pair in pairs if None not in pair.values(metric)]
    if not complete:
        raise ValueError(f"no pair has a value of {metric} on both sides")
    parents = [pair.values(metric)[0] for pair in complete]
    changes = [pair.values(metric)[1] for pair in complete]
    if len(parents) > 1:
        low, _median, high = statistics.quantiles(parents, n=4, method="inclusive")
    else:
        low = high = parents[0]
    return Summary(
        wins=sum(pair.change_wins(metric, higher_is_better) for pair in complete),
        pairs=len(complete),
        parent_median=statistics.median(parents),
        change_median=statistics.median(changes),
        parent_quartiles=(low, high),
    )


def _number(value: Optional[float]) -> str:
    return "failed" if value is None else f"{value:.4g}"


def pair_line(pair: Pair, metric: str, higher_is_better: bool) -> str:
    parent, change = pair.values(metric)
    ratio = None
    if parent is None or change is None:
        verdict = "incomplete"
    else:
        ratio = change / parent if parent else None
        verdict = "win" if pair.change_wins(metric, higher_is_better) else "loss"
    return (
        f"{pair.seed:>6}  {pair.first:<7}  {_number(parent):>10}  {_number(change):>10}  "
        f"{'' if ratio is None else f'{ratio:.3f}':>6}  {verdict}"
    )


def summary_lines(summary: Summary, higher_is_better: bool) -> list[str]:
    low, high = summary.parent_quartiles
    return [
        f"change wins {summary.wins} of {summary.pairs} pairs",
        f"median parent {_number(summary.parent_median)}, change {_number(summary.change_median)} "
        f"({summary.ratio:.3f}x)",
        f"parent quartiles {_number(low)}-{_number(high)} (spread {_number(summary.spread)}); "
        f"median moves by more than the spread in the better direction: "
        f"{'yes' if summary.clears_spread(higher_is_better) else 'no'}",
    ]


def metric_line(metric: str, summary: Summary, higher_is_better: bool) -> str:
    return (
        f"{metric:<16}  {_number(summary.parent_median):>10} -> {_number(summary.change_median):<10}  "
        f"{summary.ratio:.3f}x  ({'higher' if higher_is_better else 'lower'} is better; "
        f"change better in {summary.wins} of {summary.pairs})"
    )


@contextlib.contextmanager
def parent_checkout(ref: str, repository: Path = ROOT) -> Iterator[Path]:
    """``ref`` checked out into a temporary ``git worktree``, removed on exit."""
    with tempfile.TemporaryDirectory(prefix="perfbench-parent-") as scratch:
        checkout = Path(scratch) / "parent"
        subprocess.run(
            ["git", "worktree", "add", "--detach", "--quiet", str(checkout), ref],
            cwd=repository, check=True,
        )
        try:
            yield checkout
        finally:
            subprocess.run(
                ["git", "worktree", "remove", "--force", str(checkout)], cwd=repository, check=False
            )
            subprocess.run(["git", "worktree", "prune"], cwd=repository, check=False)


def command_runner(
    command: list[str], roots: dict[str, Path], workload: str, seconds: float, caches: Path
) -> Runner:
    """A runner that runs ``command`` in each side's checkout.

    Each side keeps its bytecode under ``caches/<side>``, away from its
    checkout: a fresh worktree has no ``__pycache__`` while a working tree
    often has one, which would favour the change on ``setup_s``.
    """
    # The declared command names ``python3``; run it on this interpreter.
    if command and Path(command[0]).name.startswith("python"):
        command = [sys.executable, *command[1:]]

    def run(side: str, seed: int) -> Optional[dict]:
        arguments = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
        env = {**os.environ, "PYTHONPYCACHEPREFIX": str(caches / side)}
        try:
            completed = subprocess.run(
                [*command, *arguments], cwd=roots[side], env=env, capture_output=True, text=True,
                timeout=RUN_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return None
        lines = completed.stdout.strip().splitlines()
        if completed.returncode != 0 or not lines:
            return None
        try:
            return json.loads(lines[-1])
        except ValueError:
            return None

    return run


def report(
    runner: Runner, metric: str, better: Mapping[str, bool], seeds: list[int], out=print
) -> int:
    """Run the pairs, print each as it ends, the summary of ``metric`` and
    the medians of every metric in ``better`` (name -> higher is better);
    the exit status."""
    out(f"{'seed':>6}  {'first':<7}  {'parent':>10}  {'change':>10}  {'ratio':>6}")
    pairs = []
    for pair in run_pairs(runner, seeds):
        pairs.append(pair)
        out(pair_line(pair, metric, better[metric]))
    try:
        summary = summarise(pairs, metric, better[metric])
    except ValueError as error:
        out(str(error))
        return 1
    for line in summary_lines(summary, better[metric]):
        out(line)
    out("every end-to-end metric, parent -> change medians:")
    for name, higher_is_better in better.items():
        try:
            out(metric_line(name, summarise(pairs, name, higher_is_better), higher_is_better))
        except ValueError as error:
            out(str(error))
    return 0 if summary.pairs == len(pairs) else 1


def main(argv: Optional[list[str]] = None) -> int:
    declaration = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {entry["name"]: entry["better"] == "higher" for entry in declaration["end_to_end"]}
    workloads = [entry["name"] for entry in declaration["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent side")
    parser.add_argument("--workload", choices=workloads, default="explicit")
    parser.add_argument("--metric", choices=sorted(better), default="designs_per_s")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=101)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    seconds = declaration["run_seconds"]
    seeds = [args.first_seed + index for index in range(args.pairs)]
    print(
        f"perfbench {args.workload} {args.metric} ({'higher' if better[args.metric] else 'lower'} "
        f"is better): parent {args.parent} vs the working tree, {args.pairs} pairs of {seconds:g} s",
        flush=True,
    )
    with parent_checkout(args.parent) as parent, tempfile.TemporaryDirectory(
        prefix="perfbench-pycache-"
    ) as caches:
        runner = command_runner(
            declaration["command"], {"parent": parent, "change": ROOT}, args.workload, seconds, Path(caches)
        )
        return report(runner, args.metric, better, seeds, lambda line: print(line, flush=True))


if __name__ == "__main__":
    sys.exit(main())
