"""Pins of the public option surface.

Every option here is a knob users can set and the code has to honour, so a
new one should be a deliberate decision.  These tests name each field and
keyword parameter: adding, renaming or removing one fails them until the pin
is edited in the same change, where a reviewer sees it.  The public names of
:mod:`repro.verification` are pinned the same way, so a new module-level
verdict entry point (one that could answer on a truncated LTS without the
engines' refusal rule) shows in the diff too; so are those of
:mod:`repro.workbench.jobs`, so a re-added queue class or job knob does.
"""

import inspect
from dataclasses import fields

import repro.verification
import repro.workbench.jobs
from repro.verification import ExplorationOptions, SymbolicOptions
from repro.workbench import Design, WorkerPool
from repro.workbench.jobs import JobSpec


def field_names(cls) -> list[str]:
    return [field.name for field in fields(cls)]


def keyword_names(function) -> list[str]:
    return [
        name
        for name, parameter in inspect.signature(function).parameters.items()
        if name != "self" and parameter.kind is not inspect.Parameter.VAR_POSITIONAL
    ]


def test_symbolic_options_fields():
    assert field_names(SymbolicOptions) == [
        "reorder",
        "reorder_threshold",
        "node_budget",
        "max_iterations",
        "ranges",
        "max_bits",
    ]


def test_exploration_options_fields():
    assert field_names(ExplorationOptions) == [
        "integer_domain",
        "driven_signals",
        "extra_driven",
        "observed",
        "max_states",
    ]


def test_job_spec_fields():
    assert field_names(JobSpec) == [
        "seq",
        "job_id",
        "design",
        "invariants",
        "reachables",
        "backend",
        "traces",
        "timeout",
    ]


def test_design_constructor_parameters():
    assert keyword_names(Design.__init__) == [
        "process",
        "exploration_options",
        "symbolic_options",
        "symbolic_state_threshold",
        "source",
        "translation",
        "cache",
    ]


def test_worker_pool_constructor_parameters():
    assert keyword_names(WorkerPool.__init__) == [
        "workers",
        "cache",
        "name",
    ]


def test_worker_pool_submit_parameters():
    assert keyword_names(WorkerPool.submit) == [
        "design",
        "invariants",
        "reachables",
        "backend",
        "traces",
        "timeout",
        "job_id",
    ]


def test_jobs_public_names():
    assert sorted(repro.workbench.jobs.__all__) == [
        "Compare",
        "DesignSpec",
        "JobCancelled",
        "JobError",
        "JobEvent",
        "JobFailed",
        "JobFinished",
        "JobHandle",
        "JobSpec",
        "JobStarted",
        "JobTimeout",
        "WorkerCrashed",
        "WorkerPool",
        "WorkerReady",
        "ensure_picklable",
    ]


def test_verification_public_names():
    assert sorted(repro.verification.__all__) == [
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
        "PartitionedRelation",
        "Polynomial",
        "PolynomialDynamicalSystem",
        "PolynomialReachability",
        "PolynomialSystem",
        "RangeReport",
        "Reachability",
        "ReactionPredicate",
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
