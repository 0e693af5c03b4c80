"""Modules registered at import whose bodies run on first use.

Each command is one process, and with no bytecode cache it compiles
every module it imports.  `lazy_module(name)` puts a module into
sys.modules, and onto its parent package, without running its body; the
first attribute read runs the body once, in that same module object, so
every holder of the placeholder sees the loaded module and a command
that never reads it never compiles it.
"""

from __future__ import annotations

import importlib.util
import sys
import threading
from types import ModuleType

# one lock for every first load: a body that reads another deferred
# module takes it again (it is reentrant), and two bodies that read each
# other from two threads cannot each hold one lock and wait for the other
_LOCK = threading.RLock()


class _Deferred(ModuleType):
    """A registered module whose body has not run.  The first attribute
    read runs it under the lock and makes this a plain module."""

    def __getattribute__(self, name):
        with _LOCK:
            if type(self) is _Deferred:
                self.__class__ = _Running
                try:
                    ModuleType.__getattribute__(self, "__spec__").loader.exec_module(self)
                except BaseException:
                    self.__class__ = _Deferred
                    raise
                self.__class__ = ModuleType
        return ModuleType.__getattribute__(self, name)


class _Running(ModuleType):
    """A module whose body is running: the loading thread's own reads
    (the import system reads __dict__) pass, and any other thread waits
    on the lock until the body has run."""

    def __getattribute__(self, name):
        with _LOCK:
            return ModuleType.__getattribute__(self, name)


def lazy_module(name: str) -> ModuleType:
    """The module `name` from sys.modules, or else a placeholder
    registered there that loads it on first attribute read."""
    with _LOCK:
        module = sys.modules.get(name)
        if module is None:
            spec = importlib.util.find_spec(name)
            module = importlib.util.module_from_spec(spec)
            module.__class__ = _Deferred
            sys.modules[name] = module
            parent, _, child = name.rpartition(".")
            if parent:
                setattr(sys.modules[parent], child, module)
        return module
