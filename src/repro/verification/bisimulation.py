"""Strong bisimulation checking by partition refinement.

The paper's RTL-level refinement obligation is phrased as a bisimulation
check: "Checking the RTL-level refinement correct amounts to proving it
bisimilar to the encoding of the communication layer".  This module decides
strong bisimilarity of two finite LTSs (after projecting their labels onto the
observed interface) using the classical partition-refinement algorithm, and
reports a distinguishing state pair when the systems are not bisimilar.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .lts import LTS, Label


@dataclass
class BisimulationResult:
    """Outcome of a bisimulation check."""

    bisimilar: bool
    left_name: str
    right_name: str
    blocks: int = 0
    distinguishing_pair: Optional[tuple[int, int]] = None
    details: str = ""

    def __bool__(self) -> bool:
        return self.bisimilar

    def explain(self) -> str:
        """Readable verdict."""
        verdict = "bisimilar" if self.bisimilar else "NOT bisimilar"
        return f"{self.left_name} vs {self.right_name}: {verdict} ({self.details})"


def _partition_refinement(lts: LTS, states: Iterable[int]) -> dict[int, int]:
    """Coarsest strong-bisimulation partition of ``states`` (block index per state)."""
    state_list = sorted(set(states))
    block: dict[int, int] = {state: 0 for state in state_list}
    changed = True
    while changed:
        changed = False
        signatures: dict[int, tuple] = {}
        for state in state_list:
            moves = {(label, block[target]) for label, target in lts.outgoing(state)}
            signature = tuple(
                sorted(moves, key=lambda item: (sorted((n, repr(v)) for n, v in item[0]), item[1]))
            )
            signatures[state] = (block[state], signature)
        # Re-number blocks by signature.
        mapping: dict[tuple, int] = {}
        new_block: dict[int, int] = {}
        for state in state_list:
            signature = signatures[state]
            if signature not in mapping:
                mapping[signature] = len(mapping)
            new_block[state] = mapping[signature]
        if new_block != block:
            block = new_block
            changed = True
    return block


def _disjoint_union(left: LTS, right: LTS) -> tuple[LTS, dict[int, int], dict[int, int]]:
    union = LTS(f"{left.name}⊎{right.name}")
    left_map: dict[int, int] = {}
    right_map: dict[int, int] = {}
    for state in left.states:
        left_map[state] = union.add_state(("L", left.payload(state), state))
    for state in right.states:
        right_map[state] = union.add_state(("R", right.payload(state), state))
    for side, side_map in ((left, left_map), (right, right_map)):
        for source in side.states:
            for label, target in side.outgoing(source):
                union.add_transition(side_map[source], label, side_map[target])
    return union, left_map, right_map


def check_bisimulation(
    left: LTS,
    right: LTS,
    observed: Optional[Iterable[str]] = None,
    reachable_only: bool = True,
) -> BisimulationResult:
    """Decide strong bisimilarity of the initial states of two LTSs.

    Args:
        left, right: the two transition systems.
        observed: if given, labels are first projected onto these signals
            (hiding the rest), which is how the paper compares levels that
            introduce extra wires (clk, rst, acknowledgements, ...).
        reachable_only: restrict the check to reachable states.
    """
    if observed is not None:
        left = left.project_labels(observed)
        right = right.project_labels(observed)
    if left.initial is None or right.initial is None:
        return BisimulationResult(False, left.name, right.name, details="missing initial state")

    if reachable_only:
        left = left.restricted_to(left.reachable())
        right = right.restricted_to(right.reachable())

    union, left_map, right_map = _disjoint_union(left, right)
    block = _partition_refinement(union, union.states)
    blocks = len(set(block.values()))
    left_block = block[left_map[left.initial]]
    right_block = block[right_map[right.initial]]
    if left_block == right_block:
        return BisimulationResult(True, left.name, right.name, blocks, details=f"{blocks} equivalence classes")

    return BisimulationResult(
        False,
        left.name,
        right.name,
        blocks,
        distinguishing_pair=(left.initial, right.initial),
        details="initial states fall in different equivalence classes",
    )


def quotient(lts: LTS) -> LTS:
    """The quotient of an LTS by its coarsest strong bisimulation."""
    restricted = lts.restricted_to(lts.reachable()) if lts.initial is not None else lts
    block = _partition_refinement(restricted, restricted.states)
    result = LTS(f"{lts.name}/≈")
    block_state: dict[int, int] = {}
    for state in restricted.states:
        index = block[state]
        if index not in block_state:
            block_state[index] = result.add_state(("block", index))
    if restricted.initial is not None:
        result.initial = block_state[block[restricted.initial]]
    seen: set[tuple[int, Label, int]] = set()
    for source in restricted.states:
        for label, target in restricted.outgoing(source):
            key = (block[source], label, block[target])
            if key in seen:
                continue
            seen.add(key)
            result.add_transition(block_state[key[0]], label, block_state[key[2]])
    return result
