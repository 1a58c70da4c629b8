"""Design-to-verdict benchmark of ``repro.workbench``, normalised to host speed.

Run from the repository root::

    python3 perfbench/run.py --workload explicit --seed 1 --seconds 20 --trace 0

Workloads: ``explicit``, ``symbolic``, ``sifting`` and ``service`` (see
NOTES.md beside this file).  ``--trace 0`` measures the end-to-end metrics;
``--trace 1`` makes a traced run and reports the per-layer metrics.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds
diagnostics (raw seconds, the reference-slice median, sample counts).
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import itertools
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from multiprocessing import active_children, resource_tracker
from pathlib import Path
from time import perf_counter

import hostscale

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("explicit", "symbolic", "sifting", "service")

#: The quantile ``verdict_tail_s`` reports: the highest that leaves at least
#: ten samples beyond it in one run at the nominal host speed.
TAIL = {"explicit": 0.9, "symbolic": 0.9, "sifting": 0.75, "service": 0.9}

#: Set-ups per run, each in a fresh interpreter; ``setup_s`` is their median.
SETUP_REPEATS = 7

#: Designs whose per-layer counts a traced run reports and checks for repeats.
COUNT_DESIGNS = 12

#: Seconds any child interpreter of a run may take.
CHILD_TIMEOUT_S = 120

#: ``prctl`` option that makes a process adopt its orphaned descendants.
PR_SET_CHILD_SUBREAPER = 36

#: Scratch space of the service workload's artifact stores (git-ignored).
SCRATCH = ROOT / ".perfbench_tmp"


@dataclass
class Sample:
    """One timed operation: a design checked in-process, or one pooled job."""

    seconds: float
    traced: bool
    failed: bool = False
    route: str = ""
    layers: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)


class Bench:
    """One run's corpus and, on ``service``, its pool and artifact store."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.pool = None
        self.store = None
        self.store_root = None

    def set_up(self) -> None:
        """Import the package, generate the corpus and, on service, start the pool."""
        import drive  # importing the package is part of what set-up measures

        self.drive = drive
        self.cases = drive.corpus.generate(self.workload, self.seed)
        if self.workload == "service":
            SCRATCH.mkdir(exist_ok=True)
            self.store_root = tempfile.mkdtemp(prefix="store-", dir=SCRATCH)
            self.store = drive.DiskArtifactStore(self.store_root)
            self.pool = drive.open_pool(self.store_root)

    @property
    def rounds(self) -> int:
        """Designs per corpus round (one per stratum)."""
        return len(self.drive.corpus.STRATA[self.workload])

    def close(self) -> None:
        """Stop the pool's worker and remove the store, whatever state the run is in.

        Every process the pool started has ended when this returns: its
        worker, and the resource tracker its queues started, which would
        otherwise outlive this interpreter.
        """
        if self.pool is not None:
            pool, self.pool = self.pool, None
            pool.shutdown(wait=False)
            for process in active_children():
                process.kill()
                process.join()
            del pool
            gc.collect()  # releases the pool's semaphores before their tracker stops
            stop_resource_tracker()
        if self.store_root is not None:
            shutil.rmtree(self.store_root, ignore_errors=True)
            self.store_root = None
            try:
                SCRATCH.rmdir()
            except OSError:
                pass  # another run still uses it

    def operations(self, kind: str, first: int):
        """Endless zero-argument operations over the corpus from design ``first``.

        ``kind`` is ``"plain"`` (every design once, untraced), ``"traced"``
        or ``"both"`` (every design traced and plain, the order alternating
        so each half sees the same designs under the same conditions).  On
        ``service`` a design is two jobs, cold then warm, under a process
        name of its own so the cold job cannot hit the store.  Processes are
        built here, outside the timed operations.
        """
        for index in itertools.count(first):
            case = self.cases[index % len(self.cases)]
            if kind == "both":
                modes = (True, False) if index % 2 == 0 else (False, True)
            else:
                modes = (kind == "traced",)
            for traced in modes:
                process = case.build(f"{case.label}_{index}{'t' if traced else 'p'}")
                if self.workload != "service":
                    yield partial(self._check, case, process, traced)
                    continue
                yield partial(self._job, case, process, traced, True)
                yield partial(self._job, case, process, traced, False)

    def _check(self, case, process, traced: bool) -> Sample:
        if traced:
            seconds, report, layers, counts = self.drive.check_traced(case, process)
        else:
            (seconds, report), layers, counts = self.drive.check(case, process), {}, {}
        sample = Sample(seconds, traced, route=report.backend_name, layers=layers, counts=counts)
        return self._judged(case, report, sample)

    def _job(self, case, process, traced: bool, cold: bool) -> Sample:
        stored = self.store.total_bytes() if traced and cold else 0
        try:
            seconds, report, phases = self.drive.submit(self.pool, case, process)
        except self.drive.JOB_FAILURES as error:
            print(f"{process.name}: job failed: {error!r}", file=sys.stderr)
            return Sample(0.0, traced, failed=True)
        sample = Sample(seconds, traced, route=report.backend_name)
        if traced:
            worker_s = phases.pop("worker_s")
            sample.layers = {**phases, "cache.cold_run_s" if cold else "cache.warm_run_s": worker_s}
            sample.counts = {
                **self.drive.engine_counts(report),
                "cache.hits": report.cache_hits,
                "cache.misses": report.cache_misses,
            }
            if cold:
                sample.counts["cache.store_bytes"] = self.store.total_bytes() - stored
        return self._judged(case, report, sample)

    def _judged(self, case, report, sample: Sample) -> Sample:
        problems = self.drive.corpus.mistakes(case, report)
        if problems:
            print(f"{report.design_name}: {'; '.join(problems)}", file=sys.stderr)
            sample.failed = True
        return sample


def measure(operations, seconds: float, minimum: int = 0) -> tuple[list[Sample], list[float]]:
    """Run operations for ``seconds`` (and at least ``minimum`` of them).

    A reference slice runs before the first operation and after every one;
    garbage left by an operation is collected before its slice, so it is
    never charged to the next operation.
    """
    samples: list[Sample] = []
    slices = [hostscale.reference_slice()]
    deadline = perf_counter() + seconds
    for operation in operations:
        if perf_counter() >= deadline and len(samples) >= minimum:
            break
        samples.append(operation())
        gc.collect()
        slices.append(hostscale.reference_slice())
    return samples, slices


def scaled_samples(samples: list[Sample], slices: list[float]) -> list[tuple[float, Sample]]:
    """``(host-scale factor, sample)`` of every sample that did not fail."""
    references = hostscale.local_references(slices, len(samples))
    return [
        (hostscale.REF_NOMINAL_S / reference, sample)
        for reference, sample in zip(references, samples)
        if not sample.failed
    ]


def stop_resource_tracker() -> None:
    """End multiprocessing's resource tracker, if this process started one, and reap it.

    Its public API has no stop: the tracker exits when the pipe it reads
    closes, which otherwise happens only as this interpreter exits, so the
    tracker would outlive the run by a moment.
    """
    resource_tracker._resource_tracker._stop()


def child(args: argparse.Namespace, role: str, env: dict | None = None):
    """Run this script in ``role`` in a fresh interpreter; its last output line, parsed.

    The child leads a process group of its own, so that when it fails to
    finish in time, or this run is stopped meanwhile, it and any worker it
    started are stopped together.
    """
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--role", role,
    ]
    process = subprocess.Popen(
        command, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        stdout, stderr = process.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        stop_group(process)
    if process.returncode != 0:
        raise RuntimeError(f"the {role} child failed:\n{stderr[-4000:]}")
    return json.loads(stdout.strip().splitlines()[-1])


def become_subreaper() -> None:
    """Adopt the processes orphaned below this one (Linux), so they can be reaped here."""
    try:
        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass  # elsewhere an orphan goes to init, which reaps it


def stop_group(process: subprocess.Popen) -> None:
    """Stop a child and all that is left of its process group, and reap them.

    A child still running gets SIGTERM first, so it can shut its pool down;
    then SIGKILL ends whatever remains.  Members the child's exit orphaned
    were adopted by this process (:func:`become_subreaper`) and are reaped.
    """
    if process.poll() is None:
        signal_group(process.pid, signal.SIGTERM)
        try:
            process.communicate(timeout=15.0)
        except subprocess.TimeoutExpired:
            pass
    signal_group(process.pid, signal.SIGKILL)
    process.communicate()
    while True:
        try:
            os.waitpid(-process.pid, 0)
        except ChildProcessError:
            return


def signal_group(group: int, signum: int) -> None:
    try:
        os.killpg(group, signum)
    except ProcessLookupError:
        pass  # no member is left


def set_up_once(args: argparse.Namespace) -> dict:
    """Child role ``setup``: one set-up, bracketed by reference slices."""
    before = [hostscale.reference_slice() for _ in range(3)]
    bench = Bench(args.workload, args.seed)
    try:
        started = perf_counter()
        bench.set_up()
        seconds = perf_counter() - started
        after = [hostscale.reference_slice() for _ in range(3)]
    finally:
        bench.close()
    return {"seconds": seconds, "reference": statistics.median(before + after)}


def count_designs(bench: Bench) -> list[dict]:
    """Child role ``counts``: the counts of the first traced designs, untimed."""
    operations = bench.operations("traced", first=bench.rounds)
    return [next(operations)().counts for _ in range(counted_operations(bench))]


def counted_operations(bench: Bench) -> int:
    return COUNT_DESIGNS * (2 if bench.workload == "service" else 1)


def end_to_end(args: argparse.Namespace, bench: Bench) -> tuple[dict, dict, list[Sample]]:
    """The end-to-end metrics of one run, plus diagnostics."""
    setups = [child(args, "setup") for _ in range(SETUP_REPEATS)]
    setup_s = statistics.median(
        probe["seconds"] * hostscale.REF_NOMINAL_S / probe["reference"] for probe in setups
    )
    bench.set_up()
    warm_up = bench.operations("plain", first=0)
    for _ in range(bench.rounds * (2 if bench.workload == "service" else 1)):
        next(warm_up)()
    samples, slices = measure(bench.operations("plain", first=bench.rounds), args.seconds)
    good = [factor * sample.seconds for factor, sample in scaled_samples(samples, slices)]
    tail = hostscale.percentile(good, TAIL[bench.workload])
    metrics = {
        "designs_per_s": len(good) / sum(good),
        "verdict_p50_s": statistics.median(good),
        "verdict_tail_s": tail,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    raw = [sample.seconds for sample in samples if not sample.failed]
    diagnostics = {
        "samples": len(good),
        "tail_quantile": TAIL[bench.workload],
        "beyond_tail": sum(value > tail for value in good),
        "raw_designs_per_s": len(raw) / sum(raw),
        "raw_p50_s": statistics.median(raw),
        "reference_median_ms": 1000 * statistics.median(slices),
        "setup_raw_s": [round(probe["seconds"], 4) for probe in setups],
        "backends": Counter(sample.route for sample in samples),
    }
    return metrics, diagnostics, samples


def traced(args: argparse.Namespace, bench: Bench) -> tuple[dict, dict, list[Sample]]:
    """The per-layer metrics of a traced run, plus diagnostics."""
    bench.set_up()
    counted = counted_operations(bench)
    samples, slices = measure(
        bench.operations("both", first=bench.rounds), args.seconds, minimum=2 * counted
    )
    scaled = scaled_samples(samples, slices)
    tracing = [(factor, sample) for factor, sample in scaled if sample.traced]
    plain = [factor * sample.seconds for factor, sample in scaled if not sample.traced]
    metrics: dict = {}
    for factor, sample in tracing:
        for name, seconds in sample.layers.items():
            metrics.setdefault(name, []).append(factor * seconds)
    first = [sample for sample in samples if sample.traced][:counted]
    for sample in first:
        for name, count in sample.counts.items():
            metrics.setdefault(name, []).append(count)
    metrics = {name: statistics.fmean(values) for name, values in metrics.items()}
    routes = Counter(sample.route for sample in first)
    for route in ("explicit", "symbolic", "symbolic-int"):
        metrics[f"workbench.mix_{route.replace('-', '_')}"] = 100 * routes[route] / len(first)
    traced_rate = len(tracing) / sum(factor * sample.seconds for factor, sample in tracing)
    metrics["trace.overhead_designs_per_s"] = traced_rate - len(plain) / sum(plain)
    if bench.workload == "service":
        bench.close()  # joins the worker, whose peak memory is then the children's
        metrics["jobs.worker_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024

    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "1" if env.get("PYTHONHASHSEED") == "0" else "0"
    repeated = child(args, "counts", env)
    unstable = sorted(
        {
            name
            for mine, theirs in zip(first, repeated)
            for name in mine.counts
            if mine.counts[name] != theirs.get(name)
        }
    )
    metrics["trace.unstable_counts"] = len(unstable)
    diagnostics = {
        "samples": len(scaled),
        "counted_operations": len(first),
        "unstable_counts": unstable,
        "hash_seeds": [os.environ.get("PYTHONHASHSEED", "random"), env["PYTHONHASHSEED"]],
        "reference_median_ms": 1000 * statistics.median(slices),
        "backends": dict(routes),
    }
    return metrics, diagnostics, samples


def result_line(trace: int, metrics: dict, samples: list[Sample]) -> dict:
    """The final JSON object, with the metrics and units BENCHMARK.json lists.

    A per-layer metric of a layer the workload never enters reads 0.
    """
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = spec["per_layer" if trace else "end_to_end"]
    failed = sum(sample.failed for sample in samples)
    return {
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {
            entry["name"]: {"value": metrics.get(entry["name"], 0.0), "unit": entry["unit"]}
            for entry in listed
        },
    }


def _stop(signum, frame) -> None:
    raise SystemExit(128 + signum)  # unwinds through the cleanup below


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("run", "setup", "counts"), default="run",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    signal.signal(signal.SIGTERM, _stop)
    become_subreaper()
    if args.role == "setup":
        print(json.dumps(set_up_once(args)))
        return 0
    bench = Bench(args.workload, args.seed)
    try:
        if args.role == "counts":
            bench.set_up()
            print(json.dumps(count_designs(bench)))
            return 0
        measured = traced if args.trace else end_to_end
        metrics, diagnostics, samples = measured(args, bench)
    finally:
        bench.close()
    print(json.dumps({"diagnostics": diagnostics}))
    print(json.dumps(result_line(args.trace, metrics, samples)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
