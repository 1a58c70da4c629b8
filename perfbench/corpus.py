"""Seeded design corpora whose answers follow from their parameters.

Two design families have closed-form reachable state counts:

* a **counter bank** of ``k`` independent modulo-``mᵢ`` counters (event
  ``tickᵢ`` in, integer ``nᵢ`` and event ``carryᵢ`` out) has exactly
  ``∏ mᵢ`` reachable memory states;
* a boolean **shift register** of depth ``d`` has exactly ``2^d``; with its
  equations shuffled, the first-use BDD variable order scatters the chain
  and dynamic reordering has to recover it.

Every design is checked against three properties whose verdicts follow from
the family alone: an invariant that holds, an invariant that fails (its
trace is a counterexample) and a reachable property (its trace is a
witness).  :func:`mistakes` compares a report with these answers.

A corpus is drawn in rounds: each round takes one design from every stratum
of the workload, in shuffled order.  Within a stratum the size that sets a
design's cost follows a low-discrepancy sequence from a seeded start, and
only the parameters that barely move the cost are drawn at random.  Every
prefix of a corpus then holds nearly the same mix of costs whatever the
seed, so runs on different seeds measure the same workload, and a run that
ends part-way through the corpus still measures the intended mix.  A corpus
is long enough that no run checks a design twice.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Optional

from repro.signal.ast import ProcessDefinition, compose
from repro.signal.dsl import ProcessBuilder
from repro.signal.library import modulo_counter_process
from repro.verification import ReactionPredicate as P
from repro.verification import SymbolicOptions
from repro.workbench import Compare

#: The verdict every design must get, by property name.
EXPECTED = {"holds": True, "fails": False, "witness": True}

#: Properties whose verdict comes with a trace (counterexample or witness).
TRACED = ("fails", "witness")

#: Design options of the shuffled registers: sifting arms at 2000 nodes (the
#: ``bench_variable_ordering`` configuration), and ``auto`` sends even a
#: depth-7 register to the BDD engine.  At depth 9, the smallest depth
#: ``auto`` routes there by itself, one design takes 0.7-1.8 s, too few for
#: a tail in one run; at depth 7 a design takes 0.2-0.5 s, about one
#: sifting pass, which still takes about 85% of the check.
SIFTING_OPTIONS = {
    "symbolic_options": SymbolicOptions(reorder_threshold=2000),
    "symbolic_state_threshold": 100,
}

#: Rounds per corpus: more than any run at nominal host speed gets through.
ROUNDS = 256

#: Step of the low-discrepancy size sequences (the golden-ratio conjugate).
GOLDEN = (5**0.5 - 1) / 2


@dataclass(frozen=True)
class Case:
    """One design of a corpus: its family and its sizes."""

    family: str  # "bank" or "register"
    sizes: tuple[int, ...]  # counter moduli, or (depth,)
    order: Optional[tuple[int, ...]] = None  # equation order of a shuffled register

    @property
    def states(self) -> int:
        """The exact number of reachable states."""
        if self.family == "bank":
            return math.prod(self.sizes)
        return 2 ** self.sizes[0]

    @property
    def label(self) -> str:
        sizes = "x".join(map(str, self.sizes))
        suffix = "" if self.order is None else "s" + "".join(map(str, self.order))
        return f"{self.family}{sizes}{suffix}"

    def design_options(self) -> dict:
        """Keyword options of the ``Design`` this case is checked through."""
        return {} if self.order is None else SIFTING_OPTIONS

    def build(self, name: str) -> ProcessDefinition:
        """The SIGNAL process of this case, named ``name``."""
        if self.family == "bank":
            return compose(
                name,
                *(
                    modulo_counter_process(modulo, f"C{index}").renamed(
                        {
                            "tick": f"tick{index}",
                            "n": f"n{index}",
                            "carry": f"carry{index}",
                            "previous": f"previous{index}",
                        }
                    )
                    for index, modulo in enumerate(self.sizes)
                ),
            )
        depth = self.sizes[0]
        builder = ProcessBuilder(name)
        x = builder.input("x", "boolean")
        stages = [builder.output(f"s{index}", "boolean") for index in range(depth)]
        for index in self.order or range(depth):
            builder.define(stages[index], (x if index == 0 else stages[index - 1]).delayed(False))
        return builder.build()

    def properties(self) -> tuple[dict, dict]:
        """``(invariants, reachables)`` with the names of :data:`EXPECTED`."""
        if self.family == "bank":
            # Every counter's first tick wraps it to 0, so both carries can
            # fire together; counter 0 reaches m0 - 1 after m0 ticks.
            invariants = {
                "holds": P.present("carry0").implies(P.present("tick0")),
                "fails": ~(P.present("carry0") & P.present("carry1")),
            }
            reachables = {"witness": P.value("n0", Compare("==", self.sizes[0] - 1))}
        else:
            last = f"s{self.sizes[0] - 1}"
            invariants = {
                "holds": P.present("s0").implies(P.present("x")),
                "fails": ~P.true_of(last),
            }
            reachables = {"witness": P.true_of("s0") & P.true_of(last)}
        return invariants, reachables


def mistakes(case: Case, report) -> list[str]:
    """How ``report`` disagrees with the answers known for ``case`` (empty: none)."""
    found = []
    if not report.complete:
        found.append("analysis truncated")
    if report.state_count != case.states:
        found.append(f"{report.state_count} states, expected {case.states}")
    for name, holds in EXPECTED.items():
        check = report[name]
        if check.holds is None:
            found.append(f"{name}: refused ({check.error})")
        elif check.holds is not holds:
            found.append(f"{name}: holds={check.holds}, expected {holds}")
        elif name in TRACED and check.trace is None:
            found.append(f"{name}: no trace")
    return found


# --------------------------------------------------------------------------- strata


def _sizes(rng: random.Random, lo: int, hi: int):
    """Endless integers in ``[lo, hi]``, evenly spread over every prefix."""
    start = rng.random()
    for index in itertools.count():
        yield lo + int((start + index * GOLDEN) % 1.0 * (hi - lo + 1))


def _near(rng: random.Random, size: int, lo: int, hi: int) -> int:
    """``size`` moved by at most one, kept in ``[lo, hi]``."""
    return min(hi, max(lo, size + rng.choice((-1, 0, 1))))


def _banks2(rng: random.Random, lo: int, hi: int):
    """Two counters of close moduli: the cost follows the first modulus."""
    for size in _sizes(rng, lo, hi):
        yield Case("bank", (size, _near(rng, size, lo, hi)))


def _banks3(rng: random.Random, lo: int, hi: int):
    for size in _sizes(rng, lo, hi):
        yield Case("bank", (size, size, _near(rng, size, lo, hi)))


def _banks5(rng: random.Random):
    """Five counters modulo 7 or 8: the cost follows how many are modulo 8."""
    for eights in _sizes(rng, 0, 5):
        moduli = [8] * eights + [7] * (5 - eights)
        rng.shuffle(moduli)
        yield Case("bank", tuple(moduli))


def _registers(rng: random.Random, lo: int, hi: int):
    for depth in _sizes(rng, lo, hi):
        yield Case("register", (depth,))


def _shuffled(rng: random.Random, depth: int):
    """Registers with shuffled equations, spread over how far apart the
    equations of neighbouring stages land (the stretch), which is the
    cheapest predictor of the sifting cost found (correlation 0.5)."""

    def stretch(order: tuple[int, ...]) -> int:
        position = {stage: index for index, stage in enumerate(order)}
        return sum(abs(position[stage] - position[stage + 1]) for stage in range(depth - 1))

    orders = sorted(itertools.permutations(range(depth)), key=lambda order: (stretch(order), rng.random()))
    for index in _sizes(rng, 0, len(orders) - 1):
        yield Case("register", (depth,), order=orders[index])


#: Strata of each workload: generators of cases from a seeded rng.
STRATA = {
    "explicit": (
        lambda rng: _banks2(rng, 20, 50),
        lambda rng: _banks3(rng, 5, 8),
        lambda rng: _registers(rng, 6, 8),
    ),
    "symbolic": (
        lambda rng: _registers(rng, 14, 18),
        _banks5,
    ),
    "sifting": (lambda rng: _shuffled(rng, 7),),
}
# The service mix keeps one explicit stratum, the 3-counter banks.  Depth 6-8
# registers (~0.01 s) would make one latency mode of pure IPC cost, and the
# largest 2-counter banks (0.3-0.55 s a job) alone would set the p90.
STRATA["service"] = STRATA["explicit"][1:2] + STRATA["symbolic"]


def generate(workload: str, seed: int) -> list[Case]:
    """The seeded corpus of ``workload``: :data:`ROUNDS` rounds of its strata."""
    rng = random.Random(f"{workload}:{seed}")
    strata = [stratum(rng) for stratum in STRATA[workload]]
    cases: list[Case] = []
    for _ in range(ROUNDS):
        round_cases = [next(stratum) for stratum in strata]
        rng.shuffle(round_cases)
        cases.extend(round_cases)
    return cases
