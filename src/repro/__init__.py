"""repro — a Python reproduction of "Polychrony for refinement-based design".

The package re-implements, from scratch, the SIGNAL/Polychrony design platform
described in the DATE 2003 paper by Talpin, Le Guernic, Shukla, Gupta and
Doucet: the tagged model of polychronous signals, the SIGNAL language kernel,
the clock calculus, a reaction simulator, a Sigali-like verification substrate
(including observer-based flow-equivalence checking and controller synthesis),
a SpecC-like front end with its translation to SIGNAL, a GALS architecture
layer and the even-parity-checker (EPC) refinement case study.

Sub-packages:

* :mod:`repro.core` — tags, behaviors, processes, design properties.
* :mod:`repro.signal` — the SIGNAL language (AST, DSL, parser, library).
* :mod:`repro.clocks` — clock calculus and hierarchization.
* :mod:`repro.simulation` — compilation and reaction-level simulation.
* :mod:`repro.verification` — LTS exploration, model checking, bisimulation,
  observers, controller synthesis, Z/3Z (Sigali) encoding.
* :mod:`repro.specc` — SpecC-like behaviors/channels, kernel, translation.
* :mod:`repro.gals` — buffers, channels, desynchronisation, architectures.
* :mod:`repro.epc` — the even-parity-checker case study and refinement chain.
* :mod:`repro.workbench` — the :class:`~repro.workbench.design.Design` facade
  over the whole pipeline, with its ``backend="auto"`` route and the
  shared-artifact batch-checking API (the recommended entry point).
"""

from . import clocks, core, epc, gals, signal, simulation, specc, verification, workbench
from .workbench import Design

__version__ = "1.1.0"

__all__ = [
    "Design",
    "clocks",
    "core",
    "epc",
    "gals",
    "signal",
    "simulation",
    "specc",
    "verification",
    "workbench",
    "__version__",
]
