"""Per-instant signal statuses used by the reaction simulator.

During the resolution of one reaction (one logical instant), every signal is
in one of four states:

* ``unknown`` — nothing is known yet about the signal at this instant;
* ``absent``  — the signal has no event at this instant;
* ``present`` with a known value;
* ``present`` with an *unknown* value (its clock is known — e.g. it was driven
  by the environment or forced by a clock constraint — but its value has not
  been computed yet).

The module also defines the sentinels used by simulation scenarios: ``ABSENT``
(re-exported from the core value domain) to drive a signal absent, and
``PRESENT`` to drive a signal present and let the equations compute its value.
"""

from __future__ import annotations

from typing import Any

from ..core.values import ABSENT, render_value


class _PresentMarker:
    """Scenario marker: "this signal is present, compute its value"."""

    _instance: "_PresentMarker | None" = None

    def __new__(cls) -> "_PresentMarker":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "PRESENT"


PRESENT = _PresentMarker()


class _UnknownValue:
    """Sentinel for "present, value not computed yet"."""

    _instance: "_UnknownValue | None" = None

    def __new__(cls) -> "_UnknownValue":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "UNKNOWN_VALUE"


UNKNOWN_VALUE = _UnknownValue()

# Status kinds.
UNKNOWN = "unknown"
ABSENT_KIND = "absent"
PRESENT_KIND = "present"
CONSTANT_KIND = "constant"


class Status:
    """The resolution status of one signal (or sub-expression) at one instant."""

    __slots__ = ("kind", "value")

    def __init__(self, kind: str, value: Any = UNKNOWN_VALUE) -> None:
        self.kind = kind
        self.value = value

    # -- constructors --------------------------------------------------------

    @staticmethod
    def unknown() -> "Status":
        """Nothing known yet."""
        return Status(UNKNOWN)

    @staticmethod
    def absent() -> "Status":
        """No event at this instant."""
        return Status(ABSENT_KIND)

    @staticmethod
    def present(value: Any = UNKNOWN_VALUE) -> "Status":
        """An event at this instant (value possibly still unknown)."""
        return Status(PRESENT_KIND, value)

    @staticmethod
    def constant(value: Any) -> "Status":
        """A constant sub-expression: adapts its clock to the context."""
        return Status(CONSTANT_KIND, value)

    # -- predicates ------------------------------------------------------------

    @property
    def is_unknown(self) -> bool:
        return self.kind == UNKNOWN

    @property
    def is_absent(self) -> bool:
        return self.kind == ABSENT_KIND

    @property
    def is_present(self) -> bool:
        return self.kind == PRESENT_KIND

    @property
    def is_constant(self) -> bool:
        return self.kind == CONSTANT_KIND

    @property
    def provides_value(self) -> bool:
        """True when a concrete value is available (present or constant)."""
        return self.kind in (PRESENT_KIND, CONSTANT_KIND) and self.value is not UNKNOWN_VALUE

    @property
    def has_unknown_value(self) -> bool:
        """True when present but the value has not been computed yet."""
        return self.kind == PRESENT_KIND and self.value is UNKNOWN_VALUE

    # -- comparison / display -----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Status):
            return NotImplemented
        return self.kind == other.kind and self.value == other.value

    def __hash__(self) -> int:
        return hash((self.kind, repr(self.value)))

    def __repr__(self) -> str:
        if self.kind == PRESENT_KIND:
            return f"Status(present, {render_value(self.value) if self.value is not UNKNOWN_VALUE else '?'})"
        if self.kind == CONSTANT_KIND:
            return f"Status(constant, {render_value(self.value)})"
        return f"Status({self.kind})"

    def merge_driven(self, driven: Any) -> "Status":
        """Combine this status with a scenario directive for the same signal."""
        if driven is ABSENT:
            if self.is_present:
                raise ValueError("scenario drives a signal absent that equations make present")
            return Status.absent()
        if driven is PRESENT:
            if self.is_absent:
                raise ValueError("scenario drives a signal present that equations make absent")
            if self.is_present:
                return self
            return Status.present()
        # A concrete driven value.
        if self.is_absent:
            raise ValueError("scenario drives a value on a signal that equations make absent")
        if self.provides_value and self.value != driven:
            raise ValueError(f"scenario value {driven!r} conflicts with computed value {self.value!r}")
        return Status.present(driven)
