"""The Design facade: one object, the whole polychronous tool-chain.

The paper's methodology is a single pipeline — write a polychronous SIGNAL
design (or translate a SpecC behavior into one), compile it, analyse its
clocks, simulate it, and verify or synthesise over its state space — and
:class:`Design` is that pipeline as one object.  Construct it from whatever
you have::

    design = Design.from_source(\"\"\"process Filter = ... end;\"\"\")
    design = Design.from_process(count_process())
    design = Design.from_builder(builder)          # a signal.dsl.ProcessBuilder
    design = Design.from_specc(ones_behavior())    # SpecC -> SIGNAL translation

Every derived artifact — the compiled process, the clock hierarchy and
endochrony report, the Z/3Z Sigali encoding, the integer range inference,
the explicit exploration, the bit-blasted BDD fixpoint, the simulator — is
computed lazily and **memoised**, so repeated queries never recompute a
fixpoint or re-encode; :attr:`artifact_counts` records how often each was
actually built (the tests pin it to one).

Verification queries name an engine (``backend="explicit"`` or
``"symbolic-int"``) or let ``backend="auto"`` route on
one bound test: the bit-blasted BDD engine (``symbolic-int``) when
:attr:`Design.potential_state_bound` exceeds ``symbolic_state_threshold``,
the explicit engine otherwise — boolean/event skeletons and integer designs
with finite ranges alike.  The batch API —
:meth:`check` / :meth:`check_all` — evaluates many properties against one
shared reachable set and returns a structured
:class:`~repro.workbench.report.Report`; with ``traces=True`` every failed
invariant / satisfied reachability property additionally carries a
replay-valid counterexample/witness
:class:`~repro.verification.reachability.Trace` (extraction is lazy, so the
default keeps batch throughput unchanged).
"""

from __future__ import annotations

import copy
import threading
from time import perf_counter
from typing import TYPE_CHECKING, Any, Callable, Iterable, Mapping, NamedTuple, Optional, Sequence, Union

from ..clocks.bdd import NodeBudgetExceeded
from ..clocks.endochrony import EndochronyReport, analyse_endochrony
from ..clocks.hierarchy import ClockHierarchy, build_hierarchy
from ..signal.ast import ProcessDefinition
from ..signal.dsl import ProcessBuilder
from ..signal.parser import parse_process
from ..simulation.compiler import CompiledProcess
from ..simulation.simulator import Simulator
from ..simulation.traces import Trace
from ..verification.encoding import (
    EncodingError,
    PolynomialDynamicalSystem,
    encode_process,
)
from ..verification.explorer import ExplorationOptions, ExplorationResult, explore
from ..verification.reachability import (
    BoundReached,
    ControlVerdict,
    Reachability,
    ReactionPredicate,
)
from ..verification.ranges import RangeReport, infer_ranges
from ..verification.symbolic_int import (
    IntSymbolicEngine,
    IntSymbolicReachability,
    SymbolicOptions,
)
from .cache import (
    CACHEABLE_ARTIFACTS,
    MISSING,
    ArtifactStore,
    artifact_key,
    default_cache,
    error_payload,
    payload_error,
)
from .report import Property, PropertyCheck, Report, normalise_properties

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..simulation.codegen import StepKernels

#: What ``check``/``check_all`` accept per property: a bare predicate
#: (auto-named), a ``(name, predicate)`` pair, or a full Property.
PropertyLike = Union[Property, ReactionPredicate, tuple[str, ReactionPredicate]]

#: A collection of named properties: mapping name -> predicate, or a sequence
#: of PropertyLike.
PropertiesLike = Union[Mapping[str, ReactionPredicate], Sequence[PropertyLike]]


#: The memoised artifact each backend name resolves to.
_BACKENDS: dict[str, str] = {
    "explicit": "exploration",
    "symbolic-int": "symbolic_int",
}


class BackendInfo(NamedTuple):
    """What :meth:`Design.backend_info` resolves a backend name to."""

    name: str


class CheckCancelled(RuntimeError):
    """A batch check was abandoned at a cancellation point.

    Raised by :meth:`Design.check`/:meth:`Design.check_all` when the
    ``should_cancel`` callback answers True — the cooperative cancellation
    hook the job layer's worker processes poll between properties.
    """


class _FailedArtifact:
    """Memoised failure: every later access raises a fresh copy of the error.

    A copy keeps the error's type, arguments and attributes, and no
    traceback.  The original's traceback holds the frames that built the
    artifact, and with them the design; re-raising one stored object would
    also grow that traceback by the caller's frames on every access.
    """

    __slots__ = ("error",)

    def __init__(self, error: Exception) -> None:
        self.error = copy.copy(error)

    def fresh(self) -> Exception:
        return copy.copy(self.error)


#: Default of the ``cache=`` constructor parameter: consult the process-wide
#: :func:`~repro.workbench.cache.default_cache` (``cache=None`` disables
#: caching for the design even when a process default is configured).
USE_DEFAULT_CACHE = object()

#: Resource-limit failures are *transient*: the same query can succeed after
#: a raised budget or on a less loaded machine, so they are re-raised without
#: being memoised — and never persisted, where they would poison every later
#: process that shares the store.  Structural failures (``EncodingError``)
#: stay memoised and persisted: they are properties of the design itself.
_TRANSIENT_FAILURES = (NodeBudgetExceeded,)

#: The artifacts built from ``Design.exploration_options``: the exploration
#: itself, and the integer ranges (over its ``integer_domain``) with the
#: bit-blasted engine built on them.
_OPTION_ARTIFACTS = ("exploration", "ranges", "symbolic_int_engine", "symbolic_int")


class Design:
    """Facade over one polychronous design and its derived-artifact graph.

    Attributes:
        process: the underlying :class:`~repro.signal.ast.ProcessDefinition`.
        translation: the SpecC :class:`~repro.specc.translate.TranslationResult`
            when the design came through :meth:`from_specc`, else None.
        artifact_counts: how many times each artifact was actually computed —
            the memoisation counter the batch-API tests assert on.
    """

    def __init__(
        self,
        process: Union[ProcessDefinition, CompiledProcess],
        *,
        exploration_options: Optional[ExplorationOptions] = None,
        symbolic_options: Optional[SymbolicOptions] = None,
        symbolic_state_threshold: Optional[int] = None,
        source: Optional[str] = None,
        translation: Optional[Any] = None,
        cache: Any = USE_DEFAULT_CACHE,
    ) -> None:
        self._artifacts: dict[str, Any] = {}
        self.artifact_counts: dict[str, int] = {}
        self.artifact_seconds: dict[str, float] = {}
        self.cache: Optional[ArtifactStore] = (
            default_cache() if cache is USE_DEFAULT_CACHE else cache
        )
        self.cache_stats: dict[str, int] = {"hits": 0, "misses": 0}
        # One reentrant lock per design: artifact builds recurse into other
        # artifacts, and concurrent check() calls must neither double-compute
        # a fixpoint nor race the counters.
        self._lock = threading.RLock()
        if isinstance(process, CompiledProcess):
            self._artifacts["compiled"] = process
            self._watch_kernels(process)
            process = process.definition
        self.process: ProcessDefinition = process
        self.exploration_options = exploration_options or ExplorationOptions()
        self.symbolic_options = symbolic_options or SymbolicOptions()
        # Past this many *potential* state valuations the explicit engines
        # would truncate (or crawl), so auto routes to the BDD engine.
        self.symbolic_state_threshold = (
            symbolic_state_threshold
            if symbolic_state_threshold is not None
            else self.exploration_options.max_states
        )
        self.source = source
        self.translation = translation

    @property
    def exploration_options(self) -> ExplorationOptions:
        """The explorer's options; also the stimulus domain of every engine.

        Assigning new options drops the memoised artifacts built from the
        old ones, so a check refused on a truncated exploration can be
        retried after raising ``max_states``.
        """
        return self._exploration_options

    @exploration_options.setter
    def exploration_options(self, options: ExplorationOptions) -> None:
        with self._lock:
            self._exploration_options = options
            for name in _OPTION_ARTIFACTS:
                self._artifacts.pop(name, None)

    # -- constructors ------------------------------------------------------------------

    @classmethod
    def from_source(cls, source: str, **options: Any) -> "Design":
        """Parse SIGNAL concrete syntax (one process) into a Design."""
        return cls(parse_process(source), source=source, **options)

    @classmethod
    def from_process(cls, process: Union[ProcessDefinition, CompiledProcess], **options: Any) -> "Design":
        """Wrap an existing (possibly compiled) process definition."""
        return cls(process, **options)

    @classmethod
    def from_builder(cls, builder: ProcessBuilder, **options: Any) -> "Design":
        """Build the :class:`~repro.signal.dsl.ProcessBuilder` and wrap the result."""
        return cls(builder.build(), **options)

    @classmethod
    def from_specc(
        cls,
        behavior: Any,
        name: Optional[str] = None,
        input_ports: Optional[Sequence[str]] = None,
        output_ports: Optional[Sequence[str]] = None,
        **options: Any,
    ) -> "Design":
        """Translate a SpecC behavior into SIGNAL and wrap the encoding.

        The :class:`~repro.specc.translate.TranslationResult` (step table,
        port lists) stays available as :attr:`translation`.
        """
        from ..specc.translate import translate_behavior

        translation = translate_behavior(behavior, name, input_ports, output_ports)
        return cls(translation.process, translation=translation, **options)

    # -- memoisation core ----------------------------------------------------------------

    def _artifact(self, name: str, build: Callable[[], Any]) -> Any:
        """Compute-once accessor; structural failures are memoised and re-raised.

        Double-checked under the per-design lock, so concurrent queries
        compute each artifact exactly once and never race the counters.
        Transient resource-limit failures (:data:`_TRANSIENT_FAILURES`) are
        re-raised *without* being memoised: a later identical query retries
        — the caller may have raised the budget in the meantime — where a
        memoised budget exhaustion would be re-raised forever.
        """
        if name not in self._artifacts:
            with self._lock:
                if name not in self._artifacts:
                    started = perf_counter()
                    try:
                        self._artifacts[name] = self._produce(name, build)
                    except _TRANSIENT_FAILURES:
                        raise
                    except Exception as error:
                        self._artifacts[name] = _FailedArtifact(error)
                        raise
                    finally:
                        self.artifact_seconds[name] = perf_counter() - started
                        self.artifact_counts[name] = self.artifact_counts.get(name, 0) + 1
        value = self._artifacts[name]
        if isinstance(value, _FailedArtifact):
            raise value.fresh()
        return value

    # -- the persistent cache glue -------------------------------------------------------

    def _produce(self, name: str, build: Callable[[], Any]) -> Any:
        """Build one artifact, consulting the content-addressed store around it."""
        store = self.cache
        if store is None or name not in CACHEABLE_ARTIFACTS:
            return build()
        key = artifact_key(self, name)
        payload = store.get(key, MISSING)
        if payload is not MISSING:
            error = payload_error(payload)
            if error is not None:
                self.cache_stats["hits"] += 1
                raise error
            try:
                value = self._from_payload(name, payload)
            except _TRANSIENT_FAILURES:
                raise
            except Exception:
                # An undecodable or version-skewed entry is a miss: fall
                # through to a clean rebuild (which overwrites it).
                pass
            else:
                self.cache_stats["hits"] += 1
                return value
        self.cache_stats["misses"] += 1
        try:
            value = build()
        except EncodingError as failure:
            self._store_put(store, key, error_payload(failure))
            raise
        self._store_put(store, key, self._to_payload(name, value))
        return value

    @staticmethod
    def _store_put(store: ArtifactStore, key: str, payload: Any) -> None:
        """Best-effort store write: a full disk must not fail a verification."""
        try:
            store.put(key, payload)
        except Exception:
            pass

    def _to_payload(self, name: str, value: Any) -> Any:
        """The pure-data form an artifact is persisted as."""
        if name == "endochrony":
            # The report's hierarchy back-reference holds live BDDs; persist
            # the verdict fields only (a warm load records hierarchy=None).
            return {
                "process_name": value.process_name,
                "is_endochronous": value.is_endochronous,
                "master_signals": tuple(value.master_signals),
                "free_clocks": tuple(value.free_clocks),
                "issues": list(value.issues),
            }
        if name == "symbolic_int":
            return value.snapshot()
        # encoding / ranges: plain picklable dataclasses, stored as-is.
        return value

    def _from_payload(self, name: str, payload: Any) -> Any:
        """Rebuild an artifact from its persisted form (inverse of _to_payload)."""
        if name == "endochrony":
            return EndochronyReport(hierarchy=None, **payload)
        if name == "symbolic_int":
            engine = self._artifacts.get("symbolic_int_engine")
            if not isinstance(engine, IntSymbolicEngine):
                engine = IntSymbolicEngine.rehydrated(
                    self.compiled, self.symbolic_options, self.ranges, payload["engine"]
                )
                self._artifacts["symbolic_int_engine"] = engine
            return IntSymbolicReachability.from_snapshot(engine, payload)
        expected = PolynomialDynamicalSystem if name == "encoding" else RangeReport
        if not isinstance(payload, expected):
            raise ValueError(f"cached {name} payload is not a {expected.__name__}")
        return payload

    #: Which artifacts are derived from which, so invalidation cascades —
    #: recomputing a dropped artifact must never rebuild on a stale upstream.
    #: The BDD engine is built from the compiled process *and* consults the
    #: (memoised) encodability probe during auto-routing, so a refreshed
    #: ``encoding`` drops it too — routing and engine must never disagree
    #: about whether the design has a boolean skeleton.
    _ARTIFACT_DEPENDENTS = {
        "compiled": ("exploration", "simulator", "ranges"),
        "hierarchy": ("endochrony",),
        "encoding": ("symbolic_int_engine",),
        "ranges": ("symbolic_int_engine",),
        "symbolic_int_engine": ("symbolic_int",),
    }

    def invalidate(self, name: Optional[str] = None) -> None:
        """Drop a memoised artifact (or all of them) so it is recomputed.

        Dropping an artifact also drops everything derived from it (e.g.
        ``ranges`` takes ``symbolic_int_engine`` and ``symbolic_int`` with
        it), so changed options take effect through the whole downstream
        chain.  The computation *counters* are deliberately
        kept — they record work actually done over the design's lifetime.
        """
        if name is None:
            self._artifacts.clear()
            return
        frontier = [name]
        while frontier:
            artifact = frontier.pop()
            self._artifacts.pop(artifact, None)
            frontier.extend(self._ARTIFACT_DEPENDENTS.get(artifact, ()))

    # -- the artifact graph ---------------------------------------------------------------

    @property
    def name(self) -> str:
        """Name of the underlying process."""
        return self.process.name

    @property
    def compiled(self) -> CompiledProcess:
        """The executable reaction machine (memoised)."""
        return self._artifact("compiled", self._build_compiled)

    def _build_compiled(self) -> CompiledProcess:
        compiled = CompiledProcess(self.process)
        self._watch_kernels(compiled)
        return compiled

    def _watch_kernels(self, compiled: CompiledProcess) -> None:
        # The step kernels are generated when a reaction first runs (an
        # exploration or a simulation, never a BDD route); their build is
        # surfaced alongside the other artifacts then, and its time again
        # once they compile their equation verifier.  The watcher holds
        # the two dicts, not the design, so it makes no reference cycle.
        counts, seconds = self.artifact_counts, self.artifact_seconds

        def record(kernels: StepKernels) -> None:
            counts["step_kernels"] = kernels.kernel_count
            seconds["step_kernels"] = kernels.compile_seconds

        compiled.watch_kernels(record)

    @property
    def clock_hierarchy(self) -> ClockHierarchy:
        """The clock-class forest of the process (memoised)."""
        return self._artifact("hierarchy", lambda: build_hierarchy(self.process))

    @property
    def endochrony(self) -> EndochronyReport:
        """Static endochrony analysis, reusing the memoised hierarchy."""
        return self._artifact("endochrony", lambda: analyse_endochrony(self.clock_hierarchy))

    @property
    def is_endochronous(self) -> bool:
        """Shorthand for ``endochrony.is_endochronous``."""
        return self.endochrony.is_endochronous

    @property
    def encoding(self) -> PolynomialDynamicalSystem:
        """The Z/3Z Sigali encoding of the control skeleton (memoised).

        Raises:
            EncodingError: when the control skeleton carries integer data;
                the failure is memoised, so probing repeatedly is free.
        """
        return self._artifact("encoding", lambda: encode_process(self.process))

    @property
    def encodable(self) -> bool:
        """True when the Z/3Z encoding exists (no integer data in the skeleton)."""
        try:
            self.encoding
        except EncodingError:
            return False
        return True

    @property
    def exploration(self) -> ExplorationResult:
        """Explicit LTS exploration of the compiled process (memoised)."""
        return self._artifact(
            "exploration", lambda: explore(self.compiled, self.exploration_options)
        )

    @property
    def ranges(self) -> RangeReport:
        """Finite ranges of the integer signals (declared or inferred, memoised).

        Raises:
            EncodingError: when some integer signal has no finite range; the
                failure is memoised, so the auto policy can probe repeatedly
                for free.
        """
        return self._artifact(
            "ranges",
            lambda: infer_ranges(
                self.compiled, self.integer_domain, self.symbolic_options.ranges
            ),
        )

    @property
    def integer_domain(self) -> Sequence[int]:
        """The stimulus values of driven integer inputs, for every engine.

        The explorer's ``exploration_options.integer_domain``; the BDD
        engine receives it through :attr:`ranges`, so both engines describe
        the same stimulus alphabet (the property the differential suites
        rely on).
        """
        return self.exploration_options.integer_domain

    @property
    def symbolic_int_engine(self) -> IntSymbolicEngine:
        """The bit-blasted transition relation (memoised), built over the
        shared compiled process and memoised range report."""
        return self._artifact(
            "symbolic_int_engine",
            lambda: IntSymbolicEngine(self.compiled, self.symbolic_options, ranges=self.ranges),
        )

    @property
    def symbolic_int(self) -> IntSymbolicReachability:
        """The symbolic reachable set (BDD fixpoint, memoised)."""
        return self._artifact("symbolic_int", lambda: self.symbolic_int_engine.reach())

    @property
    def simulator(self) -> Simulator:
        """A reaction simulator over the compiled process (memoised, stateful)."""
        return self._artifact("simulator", lambda: Simulator(self.compiled))

    # -- simulation facade -----------------------------------------------------------------

    def simulate(self, scenario: Sequence[Mapping[str, Any]], reset: bool = True) -> Trace:
        """Drive the simulator through a scenario (see :meth:`Simulator.run`)."""
        return self.simulator.run(scenario, reset=reset)

    def simulate_columns(self, columns: Mapping[str, Sequence[Any]], reset: bool = True) -> Trace:
        """Column-per-signal synchronous run (see :meth:`Simulator.run_synchronous`)."""
        return self.simulator.run_synchronous(columns, reset=reset)

    def run_flows(self, flows: Mapping[str, Sequence[Any]], **kwargs: Any) -> Trace:
        """Asynchronous flow-driven run (see :meth:`Simulator.run_flows`)."""
        return self.simulator.run_flows(flows, **kwargs)

    # -- backend resolution --------------------------------------------------------------

    @property
    def potential_state_bound(self) -> Optional[int]:
        """Coarse static bound on the state space.

        3^(state variables) for boolean/event skeletons (the Z/3Z encoding);
        for integer designs, the product of the memory-slot domain sizes the
        range inference established.  None when neither analysis applies —
        an *unbounded* integer design, for which the bounded explicit engine
        is the only option anyway.
        """
        try:
            encoding = self.encoding
        except EncodingError:
            try:
                return self.ranges.potential_states(self.compiled)
            except EncodingError:
                return None
        return 3 ** len(encoding.state_variables)

    def _route(self, backend: str) -> str:
        """The backend name a query runs on: ``"auto"`` is the bound test."""
        if backend == "auto":
            bound = self.potential_state_bound
            large = bound is not None and bound > self.symbolic_state_threshold
            return "symbolic-int" if large else "explicit"
        if backend not in _BACKENDS:
            raise LookupError(f"no backend named {backend!r} (known: {list(_BACKENDS)})")
        return backend

    def backend_info(
        self,
        backend: str = "auto",
        *,
        predicates: Iterable[ReactionPredicate] = (),
    ) -> BackendInfo:
        """Resolve a backend name (or ``"auto"``) to the engine it routes to.

        ``"auto"`` is ``"symbolic-int"`` when :attr:`potential_state_bound`
        exceeds ``symbolic_state_threshold`` and ``"explicit"`` otherwise;
        no artifact is computed beyond the (memoised) encoding and range
        probes of that bound.  ``predicates`` does not influence the route —
        both routed engines evaluate value atoms — and is accepted only
        because callers pass a query's predicates (``perfbench/drive.py``
        does).
        """
        name = self._route(backend)
        return BackendInfo(name)

    def backend(self, backend: str = "auto") -> Reachability:
        """The ready-to-query engine for ``backend`` (a memoised artifact)."""
        return self._resolve_backend(backend)[1]

    def _resolve_backend(self, backend: str) -> tuple[str, Reachability]:
        """Resolve and *build* the backend, with the auto fallback.

        The auto route reads cheap static facts (the potential state bound);
        an engine may still refuse at construction — e.g. the BDD engine on
        a range wider than ``max_bits`` or on an arithmetic fragment it
        cannot bit-blast.  Auto then falls back to the explicit reference
        engine instead of leaking the ``EncodingError`` out of a batch
        check; a backend named explicitly still raises.
        """
        name = self._route(backend)
        try:
            return name, getattr(self, _BACKENDS[name])
        except EncodingError:
            if backend != "auto" or name == "explicit":
                raise
        return "explicit", self.exploration

    # -- the batch verification API ---------------------------------------------------------

    def check(
        self,
        *properties: PropertyLike,
        backend: str = "auto",
        traces: bool = False,
        progress: Optional[Callable[[str, dict], None]] = None,
        should_cancel: Optional[Callable[[], bool]] = None,
    ) -> Report:
        """Check properties against one shared reachable set.

        Each property is a :class:`~repro.workbench.report.Property`, a
        ``(name, predicate)`` pair, or a bare predicate (an invariant, named
        ``P1``, ``P2``, ... by position).  With ``traces=True`` every failed
        invariant / satisfied reachability property additionally gets a
        counterexample/witness :class:`~repro.verification.reachability.Trace`
        attached to its result — extraction is lazy and per-property, so the
        default (off) keeps batch throughput untouched.

        ``progress`` (a ``(kind, payload)`` callback) observes the backend
        resolution and every finished property; ``should_cancel`` is polled
        between properties and aborts the batch with :class:`CheckCancelled`
        when it answers True.  Both are the job layer's hooks, but any caller
        may use them.
        """
        return self._run_checks(
            self._normalise(properties, "invariant"), backend, traces,
            progress=progress, should_cancel=should_cancel,
        )

    def check_all(
        self,
        invariants: Optional[PropertiesLike] = None,
        reachables: Optional[PropertiesLike] = None,
        backend: str = "auto",
        traces: bool = False,
        progress: Optional[Callable[[str, dict], None]] = None,
        should_cancel: Optional[Callable[[], bool]] = None,
    ) -> Report:
        """Batch check: invariants (AG) and reachability (EF) properties together.

        ``invariants`` and ``reachables`` are mappings ``name -> predicate``
        or sequences of properties; everything is evaluated against the same
        memoised reachable set, so k properties cost one exploration /
        encoding / fixpoint plus k cheap queries.  ``traces=True`` attaches
        counterexample/witness traces; ``progress``/``should_cancel`` hook
        observation and cooperative cancellation (see :meth:`check`).
        """
        specs = self._normalise(invariants, "invariant") + self._normalise(reachables, "reachable")
        if not specs:
            raise ValueError("check_all needs at least one invariant or reachable property")
        return self._run_checks(specs, backend, traces, progress=progress, should_cancel=should_cancel)

    def synthesise(
        self,
        safe: ReactionPredicate,
        controllable: Sequence[str],
        ensure_nonblocking: bool = True,
        backend: str = "auto",
    ) -> ControlVerdict:
        """Controller synthesis through a synthesis-capable backend."""
        return self.backend(backend).synthesise(safe, controllable, ensure_nonblocking)

    # -- internals ----------------------------------------------------------------------------

    def _normalise(self, properties: Optional[PropertiesLike], kind: str) -> list[Property]:
        return normalise_properties(properties, kind)

    def _run_checks(
        self,
        specs: list[Property],
        backend: str,
        traces: bool = False,
        progress: Optional[Callable[[str, dict], None]] = None,
        should_cancel: Optional[Callable[[], bool]] = None,
    ) -> Report:
        started = perf_counter()
        name, engine = self._resolve_backend(backend)
        if progress is not None:
            progress("backend", {"backend": name, "state_count": engine.state_count})
        checks: list[PropertyCheck] = []
        for index, spec in enumerate(specs):
            if should_cancel is not None and should_cancel():
                raise CheckCancelled(
                    f"check of {self.name!r} cancelled after "
                    f"{index} of {len(specs)} properties"
                )
            check_started = perf_counter()
            try:
                if spec.kind == "invariant":
                    result = engine.check_invariant(spec.predicate, spec.name)
                else:
                    result = engine.check_reachable(spec.predicate, spec.name)
                if traces:
                    result.trace = self._extract_trace(engine, spec, result)
                check = PropertyCheck(spec.name, spec.kind, result)
            except BoundReached as refusal:
                check = PropertyCheck(spec.name, spec.kind, None, error=str(refusal))
            check.elapsed = perf_counter() - check_started
            checks.append(check)
            if progress is not None:
                holds = None if check.result is None else check.result.holds
                progress(
                    "property",
                    {"name": spec.name, "property_kind": spec.kind, "holds": holds,
                     "index": index + 1, "total": len(specs)},
                )
        return Report(
            design_name=self.name,
            backend_name=name,
            state_count=engine.state_count,
            complete=engine.complete,
            checks=checks,
            elapsed=perf_counter() - started,
            artifact_seconds=dict(self.artifact_seconds),
            engine_statistics=engine.statistics(),
            cache_hits=self.cache_stats["hits"],
            cache_misses=self.cache_stats["misses"],
        )

    @staticmethod
    def _extract_trace(engine: Reachability, spec: Property, result: Any) -> Optional[Any]:
        """The trace a finished check deserves, or None.

        A *failed* invariant traces to its violating reaction (``~predicate``);
        a *satisfied* reachability property traces to its witness.  A holding
        invariant (or an unreachable predicate) gets no trace — returning a
        vacuous one would dress a positive verdict up as a counterexample.
        Extraction cannot refuse here: a violation/witness is already in hand,
        so the trace exists even under a truncated analysis.
        """
        if spec.kind == "invariant" and not result.holds:
            return engine.trace_of(result, ~spec.predicate, spec.name)
        if spec.kind == "reachable" and result.holds:
            return engine.trace_of(result, spec.predicate, spec.name)
        return None

    def __repr__(self) -> str:
        cached = sorted(self._artifacts)
        return f"Design({self.name!r}, artifacts={cached})"
