"""Pins of the public option surface.

Every option here is a knob users can set and the code has to honour, so a
new one should be a deliberate decision.  These tests name each field and
keyword parameter: adding, renaming or removing one fails them until the pin
is edited in the same change, where a reviewer sees it.
"""

import inspect
from dataclasses import fields

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
        "on_bound",
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
        "priority",
        "timeout",
        "retries",
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
        "job_timeout",
        "retries",
        "name",
    ]


def test_worker_pool_submit_parameters():
    assert keyword_names(WorkerPool.submit) == [
        "design",
        "invariants",
        "reachables",
        "backend",
        "traces",
        "priority",
        "timeout",
        "retries",
        "job_id",
    ]
