"""The EPC refinement chain and its verification obligations.

This module assembles the paper's case study end to end: the same workload is
run at every abstraction level (specification, architecture over ChMP, GALS
over FIFOs, communication over the bus, RTL FSM), and the refinement
obligations between consecutive levels are discharged with the verification
substrate:

* flow-equivalence of the observable flows (the observer of the paper's
  diagram) between every pair of consecutive levels;
* static endochrony of the SIGNAL components that get desynchronised;
* bisimulation of the RTL control skeleton against the SpecC→SIGNAL
  translation of the ``ones`` behavior (the paper's "proving it bisimilar to
  the encoding of the communication layer" obligation), on a reduced data
  width so the state spaces stay exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..clocks.endochrony import EndochronyReport, analyse_endochrony
from ..core.properties import RefinementReport, PropertyReport
from ..core.values import ABSENT, EVENT
from ..simulation.traces import Trace
from ..verification.bisimulation import BisimulationResult, check_bisimulation
from ..verification.explorer import ExplorationOptions, explore
from ..verification.observer import FlowObserver, ObserverVerdict
from ..verification.reachability import BoundReached
from .architecture_level import ArchitectureRun, run_architecture, run_gals_architecture
from .communication_level import CommunicationRun, run_communication
from .rtl_level import RtlRun, rtl_ones_process, run_rtl
from .signal_model import ones_endochronous_process, ones_translated
from .spec_level import DEFAULT_WIDTH, SpecificationRun, reference_even, reference_ones, run_specification

#: The default workload used by the examples and benchmarks.
DEFAULT_WORKLOAD = (13, 7, 0, 255, 128, 1, 2, 170)


def _flow_verdict(left_flows: dict[str, list], right_flows: dict[str, list], observed: Sequence[str]) -> ObserverVerdict:
    """Compare two dictionaries of flows with the observer."""
    observer = FlowObserver(observed)
    for name in observed:
        for value in left_flows.get(name, []):
            observer.feed("left", name, value)
        for value in right_flows.get(name, []):
            observer.feed("right", name, value)
    return observer.verdict(strict=True)


def _as_property(verdict: ObserverVerdict, name: str) -> PropertyReport:
    return PropertyReport(bool(verdict), name, details=verdict.explain())


def _endochrony_property(report: EndochronyReport) -> PropertyReport:
    return PropertyReport(bool(report), "static-endochrony", details="; ".join(report.issues) or report.summary())


def _bisimulation_property(result: BisimulationResult) -> PropertyReport:
    return PropertyReport(bool(result), "bisimulation", details=result.explain())


@dataclass
class RefinementChainResult:
    """All level runs plus the per-step verification reports."""

    workload: tuple[int, ...]
    specification: SpecificationRun
    architecture: ArchitectureRun
    gals: ArchitectureRun
    communication: CommunicationRun
    rtl: RtlRun
    steps: list[RefinementReport] = field(default_factory=list)

    @property
    def holds(self) -> bool:
        """True when every refinement obligation is discharged."""
        return all(step.holds for step in self.steps)

    def step(self, name: str) -> RefinementReport:
        """Look up a refinement step report by name."""
        for report in self.steps:
            if report.step == name:
                return report
        raise KeyError(f"no refinement step named {name!r}")

    def summary(self) -> str:
        """Readable end-to-end report of the refinement chain."""
        lines = [
            f"EPC refinement chain on workload {list(self.workload)}:",
            f"  specification counts: {list(self.specification.counts)}",
            f"  rtl counts:           {list(self.rtl.counts)}",
            f"  overall verdict:      {'CORRECT' if self.holds else 'FAILED'}",
        ]
        for step in self.steps:
            lines.append(step.summary())
        return "\n".join(lines)


def check_refinement_chain(
    workload: Sequence[int] = DEFAULT_WORKLOAD,
    width: int = DEFAULT_WIDTH,
    include_bisimulation: bool = False,
    bisimulation_width: int = 2,
) -> RefinementChainResult:
    """Run every level of the EPC on ``workload`` and discharge the obligations.

    ``include_bisimulation`` additionally explores the RTL FSM and the
    SpecC→SIGNAL translation on a reduced data width (``bisimulation_width``
    bits) and checks them bisimilar on the observable count flow — the
    exhaustive counterpart of the trace-based flow comparison.
    """
    workload = tuple(int(w) for w in workload)
    specification = run_specification(workload)
    architecture = run_architecture(workload)
    gals = run_gals_architecture(workload)
    communication = run_communication(workload, width)
    rtl = run_rtl(workload, width)

    result = RefinementChainResult(workload, specification, architecture, gals, communication, rtl)

    # Step 0: the specification meets the golden model.
    step0 = RefinementReport("specification-correctness")
    reference_counts = [reference_ones(word, width) for word in workload]
    reference_parities = [1 if reference_even(word, width) else 0 for word in workload]
    step0.add(
        "golden-counts",
        "the specification-level ones unit computes the reference bit counts",
        PropertyReport(list(specification.counts) == reference_counts, "golden-counts"),
    )
    step0.add(
        "golden-parity",
        "the specification-level even unit computes the reference parity",
        PropertyReport(list(specification.parities) == reference_parities, "golden-parity"),
    )
    result.steps.append(step0)

    # Step 1: specification -> architecture (ChMP channel).
    step1 = RefinementReport("specification-to-architecture")
    step1.add(
        "flow-preservation",
        "ocount and parity flows are preserved across the ChMP refinement",
        _as_property(
            _flow_verdict(
                {"ocount": list(specification.counts), "parity": list(specification.parities)},
                {"ocount": list(architecture.counts), "parity": list(architecture.parities)},
                ["ocount", "parity"],
            ),
            "flow-preservation",
        ),
    )
    result.steps.append(step1)

    # Step 2: architecture -> GALS deployment of the SIGNAL components.
    step2 = RefinementReport("architecture-to-gals")
    step2.add(
        "component-endochrony-ones",
        "the desynchronised ones component is statically endochronous",
        _endochrony_property(analyse_endochrony(ones_endochronous_process())),
    )
    step2.add(
        "flow-preservation",
        "the desynchronised (FIFO) deployment preserves the flows",
        _as_property(
            _flow_verdict(
                {"ocount": list(architecture.counts), "parity": list(architecture.parities)},
                {"ocount": list(gals.counts), "parity": list(gals.parities)},
                ["ocount", "parity"],
            ),
            "flow-preservation",
        ),
    )
    result.steps.append(step2)

    # Step 3: architecture -> communication (bus).
    step3 = RefinementReport("architecture-to-communication")
    step3.add(
        "flow-preservation",
        "the bus-level refinement of ChMP preserves the flows",
        _as_property(
            _flow_verdict(
                {"ocount": list(architecture.counts), "parity": list(architecture.parities)},
                {"ocount": list(communication.counts), "parity": list(communication.parities)},
                ["ocount", "parity"],
            ),
            "flow-preservation",
        ),
    )
    step3.add(
        "bus-carries-workload",
        "the request bus carries exactly the workload words",
        PropertyReport(list(communication.bus_traffic) == list(workload), "bus-carries-workload"),
    )
    result.steps.append(step3)

    # Step 4: communication -> RTL.
    step4 = RefinementReport("communication-to-rtl")
    step4.add(
        "flow-preservation",
        "the RTL FSM produces the same count and parity flows",
        _as_property(
            _flow_verdict(
                {"ocount": list(communication.counts), "parity": list(communication.parities)},
                {"ocount": list(rtl.counts), "parity": list(rtl.parities)},
                ["ocount", "parity"],
            ),
            "flow-preservation",
        ),
    )
    step4.add(
        "rtl-endochrony",
        "the RTL FSM is statically endochronous (single master clock clk)",
        _endochrony_property(analyse_endochrony(rtl_ones_process())),
    )
    if include_bisimulation:
        step4.add(
            "control-bisimulation",
            f"RTL FSM is bisimilar to the SpecC translation on {bisimulation_width}-bit data",
            _bisimulation_property(check_rtl_bisimulation(bisimulation_width)),
        )
    result.steps.append(step4)

    return result


def check_rtl_bisimulation(
    width: int = 2,
    max_states: int = 4000,
    implementation=None,
) -> BisimulationResult:
    """Explore the RTL implementation and its cycle-accurate golden model.

    Both FSMs (the accumulating implementation of :func:`rtl_ones_process` and
    the ``popcount``-based reference of
    :func:`~repro.epc.rtl_level.rtl_reference_process`) are driven by the same
    reduced-width data domain and observed through their interface wires
    (``outport``, ``done``, ``ack_istart``).  Strong bisimilarity of the
    reachable, observation-projected systems is the paper's RTL-level
    obligation; passing ``implementation`` lets the tests and benchmarks
    substitute a mutated FSM and watch the check fail.

    Raises:
        BoundReached: when either exploration is truncated at ``max_states``
            — a verdict on truncated systems would be about other systems.
    """
    from .rtl_level import rtl_reference_process

    domain = tuple(range(2 ** width))
    options = ExplorationOptions(
        integer_domain=domain,
        driven_signals=["clk", "rst", "start", "ack_idone", "inport"],
        observed=["outport", "done", "ack_istart"],
        max_states=max_states,
    )
    implementation_run = explore(implementation or rtl_ones_process(), options)
    reference_run = explore(rtl_reference_process(), options)
    truncated = [run.lts.name for run in (implementation_run, reference_run) if not run.complete]
    if truncated:
        raise BoundReached(
            f"RTL bisimulation: exploration of {truncated} truncated at "
            f"max_states={max_states}; raise the bound"
        )
    return check_bisimulation(
        implementation_run.lts, reference_run.lts, observed=["outport", "done", "ack_istart"]
    )


def ablation_drop_handshake(
    workload: Sequence[int] = DEFAULT_WORKLOAD,
    consumer_period: int = 2,
) -> ObserverVerdict:
    """Ablation: replace the handshaken link by an unsynchronised shared register.

    Without the ChMP back-pressure, the producer overwrites the shared slot
    whenever the consumer has not sampled it yet: with a consumer that samples
    once every ``consumer_period`` productions, part of the count flow is lost
    and the remaining values reach the even unit out of correspondence with the
    workload.  The observer detects the divergence — the negative control of
    experiment E7 showing why the paper's refinement needs the protocol.
    """
    workload = tuple(int(w) for w in workload)
    produced = [reference_ones(word) for word in workload]

    # Lossy register: the consumer only sees the value present in the register
    # at its sampling instants; values written in between are overwritten.
    register: Optional[int] = None
    sampled: list[int] = []
    for index, value in enumerate(produced):
        register = value
        if (index + 1) % consumer_period == 0:
            sampled.append(register)
    if register is not None and len(produced) % consumer_period != 0:
        sampled.append(register)

    observer = FlowObserver(["ocount"])
    for value in produced:
        observer.feed("left", "ocount", value)
    for value in sampled:
        observer.feed("right", "ocount", value)
    return observer.verdict(strict=True)
