"""Instantaneous data-dependency analysis of SIGNAL processes.

Within one reaction, the value of a signal may depend on the value of another
signal *at the same instant* (through any operator except the delay, which
breaks instantaneous dependencies).  A delay still reads its operand's
*presence* at the same instant: ``y := x$`` is present exactly when ``x``
is.  The scheduler builds this dependency graph, detects instantaneous
cycles (causality loops) and produces the evaluation order that both step
engines of :class:`~repro.simulation.compiler.CompiledProcess` run their
fixpoint pass in, the way the Polychrony compiler orders a process to emit
sequential code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from ..signal.ast import (
    Cell,
    Definition,
    Delay,
    Expression,
    ProcessDefinition,
    SignalRef,
    expand,
)


@dataclass
class DependencyGraph:
    """The instantaneous dependency graph of a process.

    ``edges[x]`` is the set of signals whose *current* value the equation
    defining ``x`` reads.  Delayed operands are recorded separately in
    ``delayed_edges``: the equation reads only their current presence.
    """

    defined: set[str] = field(default_factory=set)
    free: set[str] = field(default_factory=set)
    edges: dict[str, set[str]] = field(default_factory=dict)
    delayed_edges: dict[str, set[str]] = field(default_factory=dict)

    @property
    def signals(self) -> set[str]:
        """All signals appearing in the graph."""
        return self.defined | self.free

    def dependencies_of(self, name: str) -> set[str]:
        """Instantaneous dependencies of ``name``."""
        return set(self.edges.get(name, set()))


def instantaneous_reads(expr: Expression) -> tuple[set[str], set[str]]:
    """Return ``(instantaneous, delayed)`` signal reads of ``expr``."""
    instantaneous: set[str] = set()
    delayed: set[str] = set()

    def visit(node: Expression, under_delay: bool) -> None:
        if isinstance(node, SignalRef):
            (delayed if under_delay else instantaneous).add(node.name)
            return
        if isinstance(node, Delay):
            visit(node.operand, True)
            return
        if isinstance(node, Cell):
            # The stored value is delayed but the pass-through path is not.
            visit(node.operand, under_delay)
            visit(node.clock, under_delay)
            return
        for child in node.children():
            visit(child, under_delay)

    visit(expr, False)
    return instantaneous, delayed


def build_dependency_graph(process: ProcessDefinition) -> DependencyGraph:
    """Build the instantaneous dependency graph of ``process``.

    Sub-process instantiations are expanded first so that the graph covers the
    whole flattened design.
    """
    return _graph(expand(process).definitions())


def _graph(definitions: Iterable[Definition]) -> DependencyGraph:
    graph = DependencyGraph()
    for definition in definitions:
        instantaneous, delayed = instantaneous_reads(definition.expression)
        graph.defined.add(definition.target)
        graph.edges.setdefault(definition.target, set()).update(instantaneous)
        graph.delayed_edges.setdefault(definition.target, set()).update(delayed)
    for target in graph.defined:
        graph.free.update(graph.edges[target] | graph.delayed_edges[target])
    graph.free -= graph.defined
    return graph


def find_cycles(graph: DependencyGraph) -> list[list[str]]:
    """Return the elementary instantaneous cycles of the dependency graph.

    A cycle means the process has an instantaneous causality loop; whether it
    is a real deadlock depends on the clocks (the loop may never be active),
    which is why the compiler reports cycles instead of rejecting them.
    """
    cycles: list[list[str]] = []
    visited: set[str] = set()
    stack: list[str] = []
    on_stack: set[str] = set()

    def visit(node: str) -> None:
        visited.add(node)
        stack.append(node)
        on_stack.add(node)
        for successor in sorted(graph.edges.get(node, set())):
            if successor not in graph.defined:
                continue
            if successor not in visited:
                visit(successor)
            elif successor in on_stack:
                cycle = stack[stack.index(successor):] + [successor]
                if sorted(set(cycle)) not in [sorted(set(c)) for c in cycles]:
                    cycles.append(cycle)
        stack.pop()
        on_stack.remove(node)

    for name in sorted(graph.defined):
        if name not in visited:
            visit(name)
    return cycles


def evaluation_order(graph: DependencyGraph) -> list[str]:
    """A topological order of the defined signals (cycle members last).

    A signal comes after every signal whose current value its equation
    reads.  Among the signals that may come next, one whose delayed operands
    are all placed goes first, so a delay follows its operand wherever no
    value dependency forces the opposite; ties go by name.  Signals involved
    in instantaneous cycles are appended after all acyclic signals, in name
    order; the fixpoint evaluator handles them by iteration.
    """

    def placed_reads(reads: dict[str, set[str]], name: str) -> bool:
        return all(read in placed or read == name for read in reads[name] & graph.defined)

    remaining = sorted(graph.defined)
    placed: set[str] = set()
    order: list[str] = []
    while True:
        ready = [name for name in remaining if placed_reads(graph.edges, name)]
        if not ready:
            return order + remaining
        settled = [name for name in ready if placed_reads(graph.delayed_edges, name)]
        name = (settled or ready)[0]
        order.append(name)
        placed.add(name)
        remaining.remove(name)


def schedule(definitions: Iterable[Definition]) -> list[Definition]:
    """The equations reordered according to :func:`evaluation_order`.

    ``definitions`` are those of an expanded process.  The sort is stable,
    so several equations of one signal keep their relative order.
    """
    definitions = list(definitions)
    order = {name: index for index, name in enumerate(evaluation_order(_graph(definitions)))}
    return sorted(definitions, key=lambda definition: order[definition.target])


@dataclass(frozen=True)
class ScheduleReport:
    """Summary of the scheduling analysis of a process."""

    process: str
    order: tuple[str, ...]
    cycles: tuple[tuple[str, ...], ...]
    free_signals: tuple[str, ...]

    @property
    def has_cycles(self) -> bool:
        """True when the process contains instantaneous dependency cycles."""
        return bool(self.cycles)

    def summary(self) -> str:
        """Human-readable description of the schedule."""
        lines = [f"schedule for {self.process}: {' -> '.join(self.order) or '(no equations)'}"]
        if self.free_signals:
            lines.append(f"  free signals: {', '.join(self.free_signals)}")
        for cycle in self.cycles:
            lines.append(f"  instantaneous cycle: {' -> '.join(cycle)}")
        return "\n".join(lines)


def analyse(process: ProcessDefinition) -> ScheduleReport:
    """Run the full scheduling analysis of ``process``."""
    graph = build_dependency_graph(process)
    return ScheduleReport(
        process=process.name,
        order=tuple(evaluation_order(graph)),
        cycles=tuple(tuple(c) for c in find_cycles(graph)),
        free_signals=tuple(sorted(graph.free)),
    )
