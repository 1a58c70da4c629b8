"""Value domain of the polychronous model.

The paper considers "a set of boolean and integer values ``v in V`` to
represent the operands and results of a computation" (Section 3).  This module
defines that value domain together with the distinguished *absence* marker used
by the operational layers (a signal is simply *not defined* at a tag in the
denotational model; operationally we carry an explicit ``ABSENT`` status).

The value domain is deliberately permissive: booleans, integers and symbolic
constants (strings) are all allowed, plus the pure *event* value ``EVENT``
which is the single value carried by signals of type ``event`` in SIGNAL
(an event signal is present-with-value-true or absent).
"""

from __future__ import annotations

from typing import Any


class _Absent:
    """Singleton marker for the absence of a signal at an instant.

    ``ABSENT`` is *not* a value of the paper's value domain ``V``; it is the
    operational encoding of "this signal has no event at this tag".  It is
    falsy, hashable, and prints as ``⊥``.
    """

    _instance: "_Absent | None" = None

    def __new__(cls) -> "_Absent":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "ABSENT"

    def __str__(self) -> str:
        return "⊥"

    def __bool__(self) -> bool:
        return False

    def __reduce__(self):
        return (_Absent, ())


ABSENT = _Absent()


class _Event:
    """Singleton value carried by pure ``event`` signals.

    In SIGNAL an ``event`` signal carries the value *true* whenever it is
    present.  We keep a distinct singleton so traces render as ``⊤`` and so
    that type-checking of event signals is possible, but it compares equal to
    ``True`` to match the SIGNAL convention (``when reset`` samples on the
    event being present and true).
    """

    _instance: "_Event | None" = None

    def __new__(cls) -> "_Event":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "EVENT"

    def __str__(self) -> str:
        return "⊤"

    def __bool__(self) -> bool:
        return True

    def __eq__(self, other: object) -> bool:
        return other is self or other is True or other == 1

    def __hash__(self) -> int:
        return hash(True)

    def __reduce__(self):
        return (_Event, ())


EVENT = _Event()


#: Python types admitted as signal values.
VALUE_TYPES = (bool, int, str, _Event)


def is_value(v: Any) -> bool:
    """Return ``True`` when ``v`` belongs to the value domain ``V``.

    ``ABSENT`` is *not* a value; ``EVENT`` is.
    """
    if v is ABSENT:
        return False
    return isinstance(v, VALUE_TYPES)


def is_present(v: Any) -> bool:
    """Return ``True`` when ``v`` denotes a present value (i.e. not ABSENT)."""
    return v is not ABSENT


def check_value(v: Any) -> Any:
    """Validate ``v`` as a member of the value domain and return it.

    Raises:
        TypeError: if ``v`` is not an admissible signal value.
    """
    if not is_value(v):
        raise TypeError(f"not a signal value: {v!r}")
    return v


def render_value(v: Any) -> str:
    """Render a value (or ABSENT) compactly for trace display."""
    if v is ABSENT:
        return "⊥"
    if v is EVENT:
        return "⊤"
    if v is True:
        return "tt"
    if v is False:
        return "ff"
    return str(v)
