"""Immutable value classes that generate no code.

`@dataclass(frozen=True)` compiles an __init__, __repr__, __eq__,
__hash__, __setattr__ and __delattr__ for every class, each through its
own exec, and that was most of what defining the package's value classes
cost at import.  A subclass of Frozen shares Frozen's six methods, which
read the field names and defaults cached on the class and behave as the
generated methods do.  It is still a dataclass to whoever asks:
dataclasses.fields, is_dataclass, replace and asdict see the same fields
in the same order.  The class is registered with dataclasses when one of
them first reads its __dataclass_fields__, so a process that never asks,
such as every CLI command, does not import dataclasses and the inspect,
ast, dis and tokenize modules that it loads.
"""

from __future__ import annotations

import threading

_set_field = object.__setattr__
_MISSING = object()


class _Register:
    """The __dataclass_fields__ of a value class until it is first read.

    The first read, from the class or an instance, registers the class
    with dataclasses, which replaces this descriptor in the class's
    __dict__ with the real fields and registers the bases first; the lock
    makes two threads that read at once register the class once.
    """

    _lock = threading.RLock()

    def __get__(self, instance, owner):
        from dataclasses import dataclass

        with self._lock:
            if vars(owner).get("__dataclass_fields__") is self:
                dataclass(init=False, repr=False, eq=False)(owner)
        return vars(owner)["__dataclass_fields__"]


_REGISTER = _Register()


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
        # dataclass field order: the fields of the bases, furthest first,
        # a field keeping its first place, then the class's own annotations
        fields = {}
        for base in reversed(cls.__mro__[1:]):
            if "_spec" in vars(base):
                defaults = base._spec[2]
                fields.update((name, defaults.get(name, _MISSING))
                              for name in base._field_names)
        for name in vars(cls).get("__annotations__", {}):
            fields[name] = getattr(cls, name, _MISSING)
        names = cls._field_names = tuple(fields)
        cls._spec = (names, tuple(frozenset(names[k:]) for k in range(len(names) + 1)),
                     {name: d for name, d in fields.items() if d is not _MISSING},
                     getattr(cls, "__post_init__", None))
        if "__match_args__" not in vars(cls):
            cls.__match_args__ = names
        cls.__dataclass_fields__ = _REGISTER

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

    def __replace__(self, /, **changes):
        # copy.replace (Python 3.13) calls the __replace__ that dataclass
        # adds, which a class not yet registered lacks
        from dataclasses import replace

        return replace(self, **changes)

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot delete field {name!r}")


def _bind_error(value: Frozen, n: int, kwargs: dict) -> TypeError:
    names = ", ".join(value._field_names)
    return TypeError(f"{type(value).__qualname__}() takes the fields {names};"
                     f" got {n} by position and {sorted(kwargs)} by keyword")
