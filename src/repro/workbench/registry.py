"""The verification backend registry of the workbench.

Every reachable-state engine of :mod:`repro.verification` (and any engine a
user plugs in) is registered here under a name, together with a factory that
builds it *from a Design's memoised artifacts* and the
:class:`~repro.verification.reachability.BackendCapabilities` it declares.
``backend="auto"`` then becomes a pure capability-matching problem: the
registry filters the entries that can answer the query (integer data needed?
synthesis needed?) and prefers an exhaustive engine when the design's
potential state space outgrows the explicit bound.

The default registry carries the paper tool-chain's three engines (every one
of which also extracts counterexample traces, ``traces=True``):

============ ============================================== =========================
name          engine                                         capabilities
============ ============================================== =========================
explicit      :func:`repro.verification.explorer.explore`    integer data, bounded,
              on the compiled process                        synthesis, traces
polynomial    :class:`~repro.verification.encoding.PolynomialReachability`
              over the shared Z/3Z encoding                  boolean skeleton,
                                                             bounded, traces
symbolic-int  :func:`repro.verification.symbolic_int.symbolic_int_explore`
              BDD fixpoint over the presence/value bits      integer data,
              of booleans, events and finite integers        exhaustive, synthesis,
                                                             traces
============ ============================================== =========================

Every backend also reports engine statistics through
:meth:`~repro.verification.reachability.Reachability.statistics` — BDD
pressure (peak/live nodes, dynamic reorders, transition-relation clusters)
for the BDD engine, state/transition counts for the explicit ones —
which batch reports surface as
:attr:`~repro.workbench.report.Report.engine_statistics`.

Use :func:`register_backend` to add an engine globally, or
``Design(..., registry=...)`` / :meth:`BackendRegistry.copy` for a private
registry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterator, Optional

from ..verification.reachability import BackendCapabilities, Reachability

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .design import Design

#: A factory builds a Reachability engine from a Design's memoised artifacts.
BackendFactory = Callable[["Design"], Reachability]


@dataclass(frozen=True)
class RegisteredBackend:
    """One registry entry: a named engine with declared capabilities."""

    name: str
    factory: BackendFactory
    capabilities: BackendCapabilities
    priority: int = 0

    def matches(self, needs_integer_data: bool, needs_synthesis: bool) -> bool:
        """Can this backend answer a query with the given hard requirements?"""
        if needs_integer_data and not self.capabilities.integer_data:
            return False
        if needs_synthesis and not self.capabilities.synthesis:
            return False
        return True


class BackendRegistry:
    """Named verification backends, with the ``auto`` selection policy.

    Entries are kept in priority order (ties broken by registration order);
    ``select`` returns the first entry whose capabilities satisfy the query,
    preferring an exhaustive (unbounded) engine for large state spaces.
    """

    def __init__(self, entries: Optional[list[RegisteredBackend]] = None) -> None:
        self._entries: list[RegisteredBackend] = list(entries or [])

    # -- registration -------------------------------------------------------------

    def register_backend(
        self,
        name: str,
        factory: BackendFactory,
        capabilities: BackendCapabilities,
        priority: Optional[int] = None,
        replace: bool = False,
    ) -> RegisteredBackend:
        """Register (or, with ``replace=True``, redefine) a backend.

        ``priority`` orders candidates during auto-selection — lower wins;
        by default a new backend lands after every existing one.
        """
        if name == "auto":
            raise ValueError("'auto' names the selection policy, not a backend")
        existing = self.entry(name, default=None)
        if existing is not None and not replace:
            raise ValueError(f"backend {name!r} is already registered (pass replace=True)")
        if existing is not None:
            self._entries.remove(existing)
            if priority is None:
                priority = existing.priority
        if priority is None:
            priority = max((e.priority for e in self._entries), default=-1) + 1
        entry = RegisteredBackend(name, factory, capabilities, priority)
        self._entries.append(entry)
        self._entries.sort(key=lambda e: e.priority)
        return entry

    def copy(self) -> "BackendRegistry":
        """An independent registry with the same entries."""
        return BackendRegistry(self._entries)

    # -- queries ---------------------------------------------------------------------

    def __iter__(self) -> Iterator[RegisteredBackend]:
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def names(self) -> list[str]:
        """Registered backend names, in selection-priority order."""
        return [entry.name for entry in self._entries]

    def entry(self, name: str, default: object = LookupError) -> RegisteredBackend:
        """The entry registered under ``name``."""
        for candidate in self._entries:
            if candidate.name == name:
                return candidate
        if default is LookupError:
            raise LookupError(f"no backend named {name!r} (registered: {self.names()})")
        return default  # type: ignore[return-value]

    def capabilities(self, name: str) -> BackendCapabilities:
        """Declared capabilities of the backend registered under ``name``."""
        return self.entry(name).capabilities

    def create(self, name: str, design: "Design") -> Reachability:
        """Build the named engine from ``design``'s artifacts."""
        return self.entry(name).factory(design)

    # -- the auto policy ---------------------------------------------------------------

    def select(
        self,
        needs_integer_data: bool = False,
        needs_synthesis: bool = False,
        large_state_space: bool = False,
    ) -> RegisteredBackend:
        """Pick the backend for a query, by declared capabilities alone.

        Hard requirements (integer data, synthesis) filter; among the
        survivors, a large state space promotes exhaustive (``bounded=False``)
        engines — a bounded engine would either truncate or refuse — and
        otherwise the priority order decides (the explicit reference
        semantics first, in the default registry).
        """
        candidates = [e for e in self._entries if e.matches(needs_integer_data, needs_synthesis)]
        if not candidates:
            wanted = []
            if needs_integer_data:
                wanted.append("integer data")
            if needs_synthesis:
                wanted.append("synthesis")
            raise LookupError(
                f"no registered backend supports {' + '.join(wanted) or 'the query'} "
                f"(registered: {self.names()})"
            )
        if large_state_space:
            exhaustive = [e for e in candidates if not e.capabilities.bounded]
            if exhaustive:
                return exhaustive[0]
        return candidates[0]


def _explicit_factory(design: "Design") -> Reachability:
    return design.exploration


def _polynomial_factory(design: "Design") -> Reachability:
    return design.polynomial


def _symbolic_int_factory(design: "Design") -> Reachability:
    return design.symbolic_int


def _default_entries() -> list[RegisteredBackend]:
    from ..verification.encoding import PolynomialReachability
    from ..verification.explorer import ExplorationResult
    from ..verification.symbolic_int import IntSymbolicReachability

    return [
        RegisteredBackend("explicit", _explicit_factory, ExplorationResult.capabilities(), 0),
        RegisteredBackend("polynomial", _polynomial_factory, PolynomialReachability.capabilities(), 1),
        RegisteredBackend("symbolic-int", _symbolic_int_factory, IntSymbolicReachability.capabilities(), 2),
    ]


_DEFAULT_REGISTRY: Optional[BackendRegistry] = None


def default_registry() -> BackendRegistry:
    """The process-wide registry every Design uses unless given its own."""
    global _DEFAULT_REGISTRY
    if _DEFAULT_REGISTRY is None:
        _DEFAULT_REGISTRY = BackendRegistry(_default_entries())
    return _DEFAULT_REGISTRY


def register_backend(
    name: str,
    factory: BackendFactory,
    capabilities: BackendCapabilities,
    priority: Optional[int] = None,
    replace: bool = False,
) -> RegisteredBackend:
    """Register a backend in the process-wide default registry."""
    return default_registry().register_backend(name, factory, capabilities, priority, replace)
