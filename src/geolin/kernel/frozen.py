"""Immutable value classes that generate no code.

`@dataclass(frozen=True)` compiles an __init__, __repr__, __eq__,
__hash__, __setattr__ and __delattr__ for every class, each through its
own exec, and that was most of what defining the package's value classes
cost at import.  A subclass of Frozen is still registered as a dataclass,
so dataclasses.fields and is_dataclass see the same fields in the same
order, but it shares Frozen's six methods, which read the field names
and defaults cached on the class and behave as the generated methods do.
"""

from __future__ import annotations

import dataclasses
from dataclasses import MISSING, FrozenInstanceError

_set_field = object.__setattr__


class Frozen:
    """Base of an immutable value class.

    The annotated class attributes are the fields, after those of the
    bases, and a class value is the field's default.  An instance takes
    its fields by position or keyword and then runs __post_init__ when
    the class has one; it equals and hashes as the tuple of its field
    values, equal only to an instance of its own class; it prints as
    Name(field=value, ...); assigning or deleting an attribute raises
    FrozenInstanceError.
    """

    _field_names = ()
    # (names, open, defaults, __post_init__ or None) for __init__, where
    # open[k] holds the fields left for keywords after k positional values
    _spec = ((), (frozenset(),), {}, None)

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        fields = dataclasses.fields(
            dataclasses.dataclass(init=False, repr=False, eq=False)(cls))
        names = cls._field_names = tuple(f.name for f in fields)
        cls._spec = (names, tuple(frozenset(names[k:]) for k in range(len(names) + 1)),
                     {f.name: f.default for f in fields if f.default is not MISSING},
                     getattr(cls, "__post_init__", None))

    def __init__(self, *args, **kwargs):
        names, open_, defaults, post_init = self._spec
        n = len(args)
        if n > len(names) or kwargs and not kwargs.keys() <= open_[n]:
            raise _bind_error(self, n, kwargs)
        # Fields are set one by one, in field order, so they stay in the
        # instance's inline values under the class's shared keys, where
        # CPython 3.11 specializes attribute reads and method calls; an
        # instance whose __dict__ has been read loses that for good.
        for name, value in zip(names, args):
            _set_field(self, name, value)
        if n < len(names):
            for name in names[n:]:
                if name in kwargs:
                    _set_field(self, name, kwargs[name])
                elif name in defaults:
                    _set_field(self, name, defaults[name])
                else:
                    raise _bind_error(self, n, kwargs)
        if post_init is not None:
            post_init(self)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._field_names])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._field_names)
        return f"{self.__class__.__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")


def _bind_error(value: Frozen, n: int, kwargs: dict) -> TypeError:
    names = ", ".join(value._field_names)
    return TypeError(f"{type(value).__qualname__}() takes the fields {names};"
                     f" got {n} by position and {sorted(kwargs)} by keyword")
