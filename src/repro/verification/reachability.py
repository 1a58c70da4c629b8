"""The shared reachability interface of the verification pipeline.

The paper's tool-chain computes reachable state spaces in two ways: the
explicit explorer (:mod:`repro.verification.explorer`) enumerates memory
states one by one, and the symbolic engine
(:mod:`repro.verification.symbolic_int`) manipulates whole state *sets* as
BDDs over bit-blasted presence/value bits.
Invariant checking and controller synthesis should not care which engine
produced the state space, so both implement the :class:`Reachability`
interface defined here, and properties are phrased in a small declarative
predicate language (:class:`ReactionPredicate`) that every backend can
interpret — the explicit engines evaluate a predicate on concrete reactions,
the symbolic engine compiles it to a BDD over presence/value bits.

Backends:

* :class:`~repro.verification.explorer.ExplorationResult` — explicit LTS
  exploration of a compiled process;
* :class:`~repro.verification.encoding.PolynomialReachability` — explicit
  enumeration over the Z/3Z polynomial dynamical system;
* :class:`~repro.verification.symbolic_int.IntSymbolicReachability` — BDD
  fixpoint over the presence/value bits of booleans, events and finite
  integers.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Mapping, Optional, Sequence

from ..core.values import ABSENT, EVENT
from .invariants import CheckResult


# --------------------------------------------------------------------------- predicates

class ReactionPredicate:
    """A boolean combination of presence/value atoms over one reaction.

    Instances are built with the factory classmethods and combined with
    ``&``, ``|`` and ``~``.  :meth:`evaluate` interprets the predicate on a
    concrete reaction (a mapping from signal names to values, with absent
    signals either omitted or mapped to ``ABSENT``); the symbolic engine
    instead compiles the same tree into a BDD, so one property definition
    serves every backend of the differential test suite.
    """

    def __init__(self, kind: str, *operands: Any) -> None:
        self.kind = kind
        self.operands = operands

    # -- factories ---------------------------------------------------------------

    @classmethod
    def present(cls, name: str) -> "ReactionPredicate":
        """The signal is present in the reaction."""
        return cls("present", name)

    @classmethod
    def absent(cls, name: str) -> "ReactionPredicate":
        """The signal is absent from the reaction."""
        return ~cls.present(name)

    @classmethod
    def true_of(cls, name: str) -> "ReactionPredicate":
        """The signal is present with value true (events count as true)."""
        return cls("true", name)

    @classmethod
    def value(cls, name: str, test: Any) -> "ReactionPredicate":
        """The signal is present and ``test(value)`` is truthy.

        This is the escape hatch for properties over carried *data* (integer
        comparisons, set membership, ...) that the ternary abstraction cannot
        express.  Only backends that see concrete values
        (``capabilities().integer_data``: the explicit explorer and the
        bit-blasted symbolic engine) can check it; the polynomial engine
        cannot.  ``backend="auto"`` only ever picks one of the former two.
        """
        return cls("value", name, test)

    @classmethod
    def false_of(cls, name: str) -> "ReactionPredicate":
        """The signal is present with value false."""
        return cls("false", name)

    @classmethod
    def always(cls) -> "ReactionPredicate":
        """The constant-true predicate."""
        return cls("const", True)

    @classmethod
    def never(cls) -> "ReactionPredicate":
        """The constant-false predicate."""
        return cls("const", False)

    # -- combinators --------------------------------------------------------------

    def __and__(self, other: "ReactionPredicate") -> "ReactionPredicate":
        return ReactionPredicate("and", self, other)

    def __or__(self, other: "ReactionPredicate") -> "ReactionPredicate":
        return ReactionPredicate("or", self, other)

    def __invert__(self) -> "ReactionPredicate":
        return ReactionPredicate("not", self)

    def implies(self, other: "ReactionPredicate") -> "ReactionPredicate":
        """``self ⇒ other``."""
        return ~self | other

    # -- interpretation ------------------------------------------------------------

    def signals(self) -> set[str]:
        """The signal names mentioned by the predicate."""
        if self.kind in ("present", "true", "false", "value"):
            return {self.operands[0]}
        if self.kind == "const":
            return set()
        result: set[str] = set()
        for operand in self.operands:
            result |= operand.signals()
        return result

    def evaluate(self, reaction: Mapping[str, Any]) -> bool:
        """Interpret the predicate on a concrete reaction."""
        if self.kind == "const":
            return self.operands[0]
        if self.kind == "not":
            return not self.operands[0].evaluate(reaction)
        if self.kind == "and":
            return all(operand.evaluate(reaction) for operand in self.operands)
        if self.kind == "or":
            return any(operand.evaluate(reaction) for operand in self.operands)
        value = reaction.get(self.operands[0], ABSENT)
        if self.kind == "present":
            return value is not ABSENT
        if value is ABSENT:
            return False
        if self.kind == "value":
            return bool(self.operands[1](value))
        # Value atoms are strictly boolean: a present signal carrying an
        # integer (even 0/1) is neither true nor false, mirroring the ternary
        # encoding where only boolean/event signals have truth values.
        if self.kind == "true":
            return value is EVENT or value is True
        return value is False

    def __call__(self, reaction: Mapping[str, Any]) -> bool:
        return self.evaluate(reaction)

    def __repr__(self) -> str:
        if self.kind in ("present", "true", "false", "value"):
            return f"{self.kind}({self.operands[0]})"
        if self.kind == "const":
            return "⊤" if self.operands[0] else "⊥"
        if self.kind == "not":
            return f"¬{self.operands[0]!r}"
        joiner = " ∧ " if self.kind == "and" else " ∨ "
        return "(" + joiner.join(repr(operand) for operand in self.operands) + ")"


class BoundReached(RuntimeError):
    """A bounded analysis cannot stand behind the requested verdict.

    Raised by the explicit explorer when ``max_states`` is hit with
    ``on_bound="raise"``, and by every Reachability backend when a truncated
    (``complete = False``) analysis is asked to certify a universally
    quantified answer — "the invariant holds", "nothing satisfies the
    predicate", or "no trace leads to the predicate" — that only a complete
    exploration can support.  Negative existential answers stay available
    through the legacy per-LTS checkers, which document their bounded
    semantics.
    """


# --------------------------------------------------------------------------- traces

@dataclass(frozen=True)
class TraceStep:
    """One step of a counterexample/witness trace.

    ``reaction`` is the decoded reaction fired at this step (a mapping from
    signal names to values; absent signals are either omitted or mapped to
    ``ABSENT``, depending on the backend's decoding).  ``state`` is the
    *successor* state the reaction leads to, in the backend's own
    representation: a concrete memory dict for the explicit explorer, a
    ternary valuation for the polynomial engine, a memory-slot valuation for
    the bit-blasted symbolic engine — state identities differ between backends, but
    the reaction sequence is the shared currency the replay suite validates.
    ``None`` marks a successor the backend could not reconstruct (e.g. a
    violating reaction that overflows a declared integer range).
    """

    reaction: Mapping[str, Any]
    state: Any = None

    def present_signals(self) -> dict[str, Any]:
        """The reaction restricted to its present signals."""
        return {name: value for name, value in self.reaction.items() if value is not ABSENT}


@dataclass(frozen=True)
class Trace:
    """An initial-state-to-violation execution path, engine-independently.

    ``steps[0].reaction`` fires from the backend's initial state; every later
    step fires from the previous step's successor state; the *last* step's
    reaction is the violating (for a failed invariant) or witnessing (for a
    satisfied reachability property) reaction itself.  Produced by
    :meth:`Reachability.trace_to` and attached to
    :class:`~repro.verification.invariants.CheckResult.trace` when the
    workbench is asked for traces (``design.check(..., traces=True)``).
    """

    steps: tuple[TraceStep, ...]
    property_name: str = "trace"

    def __len__(self) -> int:
        return len(self.steps)

    def __iter__(self):
        return iter(self.steps)

    def __getitem__(self, index: int) -> TraceStep:
        return self.steps[index]

    @property
    def violation(self) -> Mapping[str, Any]:
        """The final (violating/witnessing) reaction."""
        return self.steps[-1].reaction

    def reactions(self) -> list[dict[str, Any]]:
        """The reaction sequence (copies), ready to replay through a simulator."""
        return [dict(step.reaction) for step in self.steps]

    def render(self) -> str:
        """Readable one-line-per-step rendering (absent signals omitted)."""
        lines = []
        for index, step in enumerate(self.steps, start=1):
            present = step.present_signals()
            shown = ",".join(f"{name}={value}" for name, value in sorted(present.items())) or "τ"
            lines.append(f"step {index}: {shown}")
        return "\n".join(lines)


# --------------------------------------------------------------------------- capabilities

@dataclass(frozen=True)
class BackendCapabilities:
    """Static description of what a Reachability backend can do.

    Each engine class declares its own; workbench reports
    (:attr:`~repro.workbench.report.Report.capabilities`) print them.  The
    ``backend="auto"`` route does not read them: it is a state-bound test.

    Attributes:
        integer_data: evaluates predicates on *concrete* reactions — required
            for processes whose control skeleton carries integer data (the
            Z/3Z encoding raises :class:`~repro.verification.encoding.EncodingError`
            on those) and for :meth:`ReactionPredicate.value` atoms.
        bounded: the analysis may truncate at a state/iteration bound, i.e.
            is not exhaustive past it (truncation is always *reported*, never
            silent — see the soundness rule in ROADMAP.md).
        synthesis: implements :meth:`Reachability.synthesise`.
        traces: implements :meth:`Reachability.trace_to` — counterexample /
            witness *paths*, not just single violating reactions.
    """

    integer_data: bool = False
    bounded: bool = True
    synthesis: bool = False
    traces: bool = False

    def describe(self) -> str:
        """Short human-readable capability summary (used in reports)."""
        facets = [
            "integer data" if self.integer_data else "boolean/event skeleton",
            "bounded" if self.bounded else "exhaustive",
        ]
        if self.synthesis:
            facets.append("synthesis")
        if self.traces:
            facets.append("traces")
        return ", ".join(facets)


# --------------------------------------------------------------------------- verdicts

@dataclass
class ControlVerdict:
    """Backend-independent outcome of a controller-synthesis run.

    ``backend`` carries the engine-specific artefact (an explicit
    :class:`~repro.verification.synthesis.SynthesisResult`, or the kept-state
    BDD of the symbolic engine) for callers that want more than the verdict.
    """

    success: bool
    kept_states: int
    total_states: int
    details: str = ""
    backend: Any = None

    def __bool__(self) -> bool:
        return self.success

    def explain(self) -> str:
        """Readable summary."""
        verdict = "controller found" if self.success else "NO controller exists"
        text = f"{verdict}: kept {self.kept_states}/{self.total_states} states"
        if self.details:
            text += f" — {self.details}"
        return text


# --------------------------------------------------------------------------- interface

class Reachability(ABC):
    """What every reachable-state-space backend exposes.

    The interface is deliberately phrased in terms of *reactions* (the labels
    of the paper's LTSs) rather than state payloads, because state identities
    differ between backends (memory tuples vs. ternary valuations vs. BDD
    cubes) while the observable alphabet is shared.
    """

    @classmethod
    def capabilities(cls) -> BackendCapabilities:
        """Declared capabilities of this backend class.

        Cheap and static — no artifact is computed.  The conservative default
        claims nothing beyond bounded boolean checking; concrete backends
        override it.
        """
        return BackendCapabilities()

    @property
    @abstractmethod
    def state_count(self) -> int:
        """Number of reachable states."""

    @property
    @abstractmethod
    def complete(self) -> bool:
        """False when a bound (states or iterations) truncated the analysis."""

    def statistics(self) -> dict:
        """Engine-level resource statistics, for reports and benchmarks.

        Backends override this with whatever measures their machinery: the
        symbolic engine reports BDD pressure (peak unique-table nodes, live
        nodes, dynamic-reorder count, transition-relation cluster count,
        fixpoint iterations), the explicit engines their state and
        transition counts.  The workbench surfaces the dict per batch report
        (:attr:`repro.workbench.report.Report.engine_statistics`).  The
        default claims nothing.
        """
        return {}

    @abstractmethod
    def check_invariant(self, predicate: ReactionPredicate, name: str = "invariant") -> CheckResult:
        """AG over reactions: every reachable reaction satisfies ``predicate``.

        Raises:
            BoundReached: when the analysis is incomplete and no violation was
                found — a "holds" verdict would be unsound.
        """

    @abstractmethod
    def check_reachable(self, predicate: ReactionPredicate, name: str = "reachability") -> CheckResult:
        """EF over reactions: some reachable reaction satisfies ``predicate``.

        Raises:
            BoundReached: when the analysis is incomplete and no witness was
                found — an "unreachable" verdict would be unsound.
        """

    def _require_complete(self, name: str) -> None:
        """Guard for the verdicts only a complete exploration can certify."""
        if not self.complete:
            raise BoundReached(
                f"{name}: the analysis was truncated (state or iteration bound); "
                "a definitive verdict would be unsound — raise the bound"
            )

    def _validate_signals(
        self,
        names: Any,
        alphabet: Any,
        context: str,
        what: str,
        error: type = KeyError,
    ) -> None:
        """The shared unknown-signal contract of every backend.

        A name outside the backend's alphabet would silently read as
        always-absent and certify a wrong verdict, so it is rejected up
        front.  ``alphabet`` is ``None`` when the backend has no alphabet
        knowledge (hand-built results) — validation is then skipped.
        """
        if alphabet is None:
            return
        unknown = [name for name in names if name not in alphabet]
        if unknown:
            raise error(f"{context}: {what} mentions unknown or unobserved signals {unknown}")

    def trace_to(self, predicate: ReactionPredicate, name: str = "trace") -> Optional[Trace]:
        """A :class:`Trace` from the initial state to a reaction satisfying ``predicate``.

        The shared primitive behind counterexample extraction: a failed
        invariant traces to ``~invariant`` (the violating reaction), a
        satisfied reachability property traces to the predicate itself (the
        witness reaction).  Returns ``None`` when no reachable reaction
        satisfies the predicate — a *universally* quantified answer, so a
        truncated analysis refuses it exactly as it refuses "holds" /
        "unreachable" verdicts.  Backends that do not support trace
        extraction (``capabilities().traces`` is False) keep this default,
        which refuses.

        Raises:
            BoundReached: when the analysis is incomplete and no satisfying
                reaction was found — "no trace exists" would be unsound.
        """
        raise NotImplementedError(f"{type(self).__name__} does not extract counterexample traces")

    def synthesise(
        self,
        safe: ReactionPredicate,
        controllable: Sequence[str],
        ensure_nonblocking: bool = True,
    ) -> ControlVerdict:
        """Greatest controllable invariant under ``safe`` (see :mod:`.synthesis`).

        A reaction is controllable when it makes one of the ``controllable``
        signals present; a state is unsafe when it is the target of a
        reaction violating ``safe``.  Backends that do not support synthesis
        keep this default, which refuses.
        """
        raise NotImplementedError(f"{type(self).__name__} does not implement controller synthesis")
