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
median by more than the parent's interquartile spread.  It goes on with the
medians and wins of every end-to-end metric, read from the same runs, and
ends with each metric's verdict against its ``bound`` in ``BENCHMARK.json``
(the largest relative loss of the change's median the benchmark accepts):
``within bound``, ``worse than bound``, or ``unresolved`` when the parent's
quartile spread is wider than the bound and some run of the change is not
better than every run of the parent, so the runs cannot tell.  The exit
status is 1 when a run failed an operation or produced no result.
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

#: End-to-end metric name -> (higher is better, bound), from ``BENCHMARK.json``.
Metrics = Mapping[str, tuple[bool, float]]


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
    """One metric's values over the pairs with a value on both sides, in
    seed order, and the number of pairs the change won."""

    wins: int
    parent_values: tuple[float, ...]
    change_values: tuple[float, ...]

    @property
    def pairs(self) -> int:
        return len(self.parent_values)

    @property
    def parent_median(self) -> float:
        return statistics.median(self.parent_values)

    @property
    def change_median(self) -> float:
        return statistics.median(self.change_values)

    @property
    def parent_quartiles(self) -> tuple[float, float]:
        if self.pairs == 1:
            return self.parent_values[0], self.parent_values[0]
        low, _median, high = statistics.quantiles(self.parent_values, n=4, method="inclusive")
        return low, high

    @property
    def spread(self) -> float:
        """The parent's interquartile distance."""
        return self.parent_quartiles[1] - self.parent_quartiles[0]

    @property
    def ratio(self) -> float:
        return self.change_median / self.parent_median if self.parent_median else float("nan")

    @property
    def relative_spread(self) -> float:
        """The parent's interquartile distance as a share of its median."""
        return self.spread / self.parent_median if self.parent_median else float("inf")

    def relative_loss(self, higher_is_better: bool) -> float:
        """How much worse the change's median is, as a share of the parent's
        (negative when it is better)."""
        loss = self.parent_median - self.change_median
        if not higher_is_better:
            loss = -loss
        if not self.parent_median:
            return float("inf") if loss > 0 else 0.0
        return loss / self.parent_median

    def separated(self, higher_is_better: bool) -> bool:
        """Whether every run of the change is better than every run of the parent."""
        if higher_is_better:
            return min(self.change_values) > max(self.parent_values)
        return max(self.change_values) < min(self.parent_values)

    def bound_verdict(self, higher_is_better: bool, bound: float) -> str:
        """The change against a relative ``bound`` on its loss (see the module docstring)."""
        if self.relative_spread > bound and not self.separated(higher_is_better):
            return "unresolved"
        return "worse than bound" if self.relative_loss(higher_is_better) > bound else "within bound"

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
    return Summary(
        wins=sum(pair.change_wins(metric, higher_is_better) for pair in complete),
        parent_values=tuple(pair.values(metric)[0] for pair in complete),
        change_values=tuple(pair.values(metric)[1] for pair in complete),
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


def bound_line(metric: str, summary: Summary, higher_is_better: bool, bound: float) -> str:
    return (
        f"{metric:<16}  parent spread {_number(summary.spread)} ({summary.relative_spread:.1%} of median), "
        f"gain {-summary.relative_loss(higher_is_better):+.1%}, bound {bound:.0%}: "
        f"{summary.bound_verdict(higher_is_better, bound)}"
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


def report(runner: Runner, metric: str, metrics: Metrics, seeds: list[int], out=print) -> int:
    """Run the pairs, print each as it ends, the summary of ``metric``, then
    the medians and the verdict against its bound of every metric in
    ``metrics``; the exit status."""
    higher_is_better = metrics[metric][0]
    out(f"{'seed':>6}  {'first':<7}  {'parent':>10}  {'change':>10}  {'ratio':>6}")
    pairs = []
    for pair in run_pairs(runner, seeds):
        pairs.append(pair)
        out(pair_line(pair, metric, higher_is_better))
    try:
        summary = summarise(pairs, metric, higher_is_better)
    except ValueError as error:
        out(str(error))
        return 1
    for line in summary_lines(summary, higher_is_better):
        out(line)
    summaries: dict[str, Summary] = {}
    out("every end-to-end metric, parent -> change medians:")
    for name, (higher, _bound) in metrics.items():
        try:
            summaries[name] = summarise(pairs, name, higher)
        except ValueError as error:
            out(str(error))
        else:
            out(metric_line(name, summaries[name], higher))
    out("every end-to-end metric against its bound:")
    for name, summary_of_name in summaries.items():
        higher, bound = metrics[name]
        out(bound_line(name, summary_of_name, higher, bound))
    return 0 if summary.pairs == len(pairs) else 1


def main(argv: Optional[list[str]] = None) -> int:
    declaration = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {
        entry["name"]: (entry["better"] == "higher", float(entry["bound"]))
        for entry in declaration["end_to_end"]
    }
    workloads = [entry["name"] for entry in declaration["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent side")
    parser.add_argument("--workload", choices=workloads, default="explicit")
    parser.add_argument("--metric", choices=sorted(metrics), default="designs_per_s")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=101)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    seconds = declaration["run_seconds"]
    seeds = [args.first_seed + index for index in range(args.pairs)]
    print(
        f"perfbench {args.workload} {args.metric} ({'higher' if metrics[args.metric][0] else 'lower'} "
        f"is better): parent {args.parent} vs the working tree, {args.pairs} pairs of {seconds:g} s",
        flush=True,
    )
    with parent_checkout(args.parent) as parent, tempfile.TemporaryDirectory(
        prefix="perfbench-pycache-"
    ) as caches:
        runner = command_runner(
            declaration["command"], {"parent": parent, "change": ROOT}, args.workload, seconds, Path(caches)
        )
        return report(runner, args.metric, metrics, seeds, lambda line: print(line, flush=True))


if __name__ == "__main__":
    sys.exit(main())
