"""Degree caps: one immutable Limits value, active per context.

Each family of exact computations has a degree cap that keeps it at desk
scale. ``check(family, n)`` is the one guard every capped entry point calls.

The active value lives in a ContextVar. ``scoped(limits)`` makes a value
active for one with-block in the current thread (or asyncio task) and
restores the previous one on exit, so a cap raised for one call ends with
that call. Outside every scope, ``current()`` is the library-wide default,
which ``set_default`` replaces for every thread.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import astuple, dataclass, fields, replace

from .errors import DegreeCapError


@dataclass(frozen=True)
class Limits:
    """The largest degree n each family computes."""

    ring: int = 20  # transition tables between the bases
    table: int = 8  # whole character tables
    coefficient: int = 12  # character rows, LR, Kronecker, Young's rule
    regular: int = 6  # the regular representation
    specht: int = 5  # Specht modules
    young: int = 6  # Young permutation modules

    def __post_init__(self):
        if any(cap < 0 for cap in astuple(self)):
            raise ValueError(f"degree caps must be >= 0: {self}")

    def raised(self, n: int) -> "Limits":
        """Every cap raised to at least n; caps above n stay."""
        return Limits(*(max(getattr(self, f.name), n) for f in fields(self)))


_NAMES = {
    "ring": "transition tables",
    "table": "character tables",
    "coefficient": "character rows and coefficients",
    "regular": "regular representations",
    "specht": "Specht modules",
    "young": "Young modules",
}

_default = Limits()
_default_lock = threading.Lock()
_active: ContextVar[Limits | None] = ContextVar("symfunc_limits", default=None)


def current() -> Limits:
    """The limits in force here: the innermost scope's, else the default."""
    return _active.get() or _default


def set_default(**caps: int) -> None:
    """Replace the named caps of the library-wide default, e.g.
    ``set_default(table=10)``. Scopes already entered keep their value."""
    global _default
    with _default_lock:
        _default = replace(_default, **caps)


@contextmanager
def scoped(limits: Limits):
    """Make ``limits`` active for the with-block in this context only."""
    token = _active.set(limits)
    try:
        yield
    finally:
        _active.reset(token)


def check(family: str, n: int) -> None:
    """Raise DegreeCapError when degree n exceeds the active cap of family."""
    cap = getattr(current(), family)
    if n > cap:
        raise DegreeCapError(
            f"{_NAMES[family]} are capped at n <= {cap}, got {n}; "
            "raise the cap with --max-degree or symfunc.limits"
        )
