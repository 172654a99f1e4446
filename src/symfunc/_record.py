"""The base of symfunc's frozen value classes.

A subclass names its fields in its class annotations and stores them in an
explicit ``__init__`` through ``self.__dict__``. Plain classes keep a cold
import light: generating the methods instead would import ``inspect`` and
``ast`` and compile code for each class (see the README's Conventions).
"""

from operator import attrgetter


class Record:
    """Fields from the annotations, a ``Name(field=value, ...)`` repr, no
    assignment or deletion, and field-wise ``==`` and ``hash`` unless the
    subclass defines its own ``__eq__`` (it is then unhashable)."""

    def __init_subclass__(cls):
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        cls._values = attrgetter(*cls._fields)  # a tuple: every record has 2+ fields

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        args = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values(self)))
        return f"{type(self).__qualname__}({args})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == self._values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))
