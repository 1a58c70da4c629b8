"""The Sigali-like verification substrate: explicit and symbolic (bit-blasted
BDD) state-space exploration behind one Reachability interface, bisimulation,
observer-based flow-equivalence checking and the Z/3Z polynomial encoding.

Invariant, reachability, trace and controller-synthesis verdicts come only
from the engines' own methods (``check_invariant``, ``check_reachable``,
``trace_to``, ``synthesise``), which refuse with :class:`BoundReached` when
the analysis was truncated; no module-level function answers them on a bare
:class:`LTS`."""

from .bisimulation import BisimulationResult, check_bisimulation, quotient
from .encoding import (
    EncodingError,
    PolynomialDynamicalSystem,
    PolynomialReachability,
    SigaliEncoder,
    encode_process,
)
from .explorer import ExplorationOptions, ExplorationResult, explore, explore_product
from .lts import LTS, Label, Transition, label_to_dict, make_label
from .reachability import (
    BoundReached,
    CheckResult,
    ControlVerdict,
    Reachability,
    ReactionPredicate,
    Trace,
    TraceStep,
)
from .observer import (
    FlowObserver,
    Mismatch,
    ObserverVerdict,
    buffered_observer,
    compare_processes,
    compare_traces,
    observer_process,
)
from .ranges import RangeReport, infer_ranges
from .relational import PartitionedRelation
from .symbolic_int import (
    IntSymbolicEngine,
    IntSymbolicReachability,
    SymbolicOptions,
    symbolic_int_explore,
)
from .synthesis import Controller, SynthesisResult
from .z3z import (
    ABSENT_CODE,
    FALSE_CODE,
    Polynomial,
    PolynomialSystem,
    TRUE_CODE,
    absence,
    and_constraint,
    default_constraint,
    from_code,
    is_false,
    is_true,
    not_constraint,
    or_constraint,
    presence,
    synchronous_constraint,
    to_code,
    when_constraint,
)

__all__ = [
    "ABSENT_CODE",
    "BisimulationResult",
    "BoundReached",
    "CheckResult",
    "ControlVerdict",
    "Controller",
    "EncodingError",
    "ExplorationOptions",
    "ExplorationResult",
    "FALSE_CODE",
    "FlowObserver",
    "IntSymbolicEngine",
    "IntSymbolicReachability",
    "LTS",
    "Label",
    "Mismatch",
    "ObserverVerdict",
    "Polynomial",
    "PolynomialDynamicalSystem",
    "PartitionedRelation",
    "PolynomialReachability",
    "PolynomialSystem",
    "Reachability",
    "ReactionPredicate",
    "RangeReport",
    "SigaliEncoder",
    "SymbolicOptions",
    "SynthesisResult",
    "TRUE_CODE",
    "Trace",
    "TraceStep",
    "Transition",
    "absence",
    "and_constraint",
    "buffered_observer",
    "check_bisimulation",
    "compare_processes",
    "compare_traces",
    "default_constraint",
    "encode_process",
    "explore",
    "explore_product",
    "from_code",
    "infer_ranges",
    "is_false",
    "is_true",
    "label_to_dict",
    "make_label",
    "not_constraint",
    "observer_process",
    "or_constraint",
    "presence",
    "quotient",
    "symbolic_int_explore",
    "synchronous_constraint",
    "to_code",
    "when_constraint",
]
