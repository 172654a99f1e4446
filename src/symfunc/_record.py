"""The base of symfunc's frozen value classes.

A subclass names its fields in its class annotations, and a class attribute
of the same name is that field's default. The one ``__init__`` binds them
by position or keyword; a subclass overrides it only to check or normalise.
Plain classes keep a cold import light: generating the methods instead
would import ``inspect`` and ``ast`` and compile code for each class (see
the README's Conventions).
"""

from operator import attrgetter


class Record:
    """Fields from the annotations, a ``Name(field=value, ...)`` repr, no
    assignment or deletion, and field-wise ``==`` and ``hash`` unless the
    subclass defines its own ``__eq__`` (it is then unhashable)."""

    def __init_subclass__(cls):
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        cls._values = attrgetter(*cls._fields)  # a tuple: every record has 2+ fields
        cls._defaults = {name: cls.__dict__[name] for name in cls._fields if name in cls.__dict__}

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(self._fields):  # one positional per field is the fast path
            args = self._bind(args, kwargs)
        self.__dict__.update(zip(self._fields, args))

    def _bind(self, args, kwargs) -> list:
        """The field values in order, from positionals, keywords and defaults."""
        fields = self._fields
        given = dict(zip(fields, args))
        values = {**self._defaults, **given, **kwargs}
        bad = [f"{len(args)} positionals for {len(fields)} fields"] if len(args) > len(fields) else []
        bad += [f"field {key!r} given twice" for key in kwargs if key in given]
        bad += [f"unknown field {key!r}" for key in kwargs if key not in fields]
        bad += [f"missing field {key!r}" for key in fields if key not in values]
        if bad:
            raise TypeError(f"{type(self).__qualname__}(): {'; '.join(bad)}")
        return [values[key] for key in fields]

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
