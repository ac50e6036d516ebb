"""Guard against mutable module-level state in the package.

A module-level container (a cache, a registry, an accumulator) or a writeable
array is state shared by every episode in a process. It can make a rerun
depend on what ran before it, so no vesselnav module may hold one.
"""

import importlib
import pkgutil

import numpy as np

import vesselnav


def _module_values():
    for info in pkgutil.iter_modules(vesselnav.__path__, "vesselnav."):
        module = importlib.import_module(info.name)
        for name, value in vars(module).items():
            if not name.startswith("__"):
                yield f"{info.name}.{name}", value


def _arrays(value):
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, tuple):
        for item in value:
            yield from _arrays(item)


def test_no_module_level_mutable_containers():
    found = [name for name, value in _module_values() if isinstance(value, (dict, list, set, bytearray))]
    assert found == []


def test_no_writeable_module_level_arrays():
    found = [name for name, value in _module_values() if any(a.flags.writeable for a in _arrays(value))]
    assert found == []
