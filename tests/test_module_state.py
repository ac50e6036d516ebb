"""Guard against mutable module-level state in the package.

A module-level container (a cache, a registry, an accumulator) is state
shared by every episode in a process. It can make a rerun depend on what ran
before it, so no vesselnav module may hold one.
"""

import importlib
import pkgutil

import vesselnav


def test_no_module_level_mutable_containers():
    found = []
    for info in pkgutil.iter_modules(vesselnav.__path__, "vesselnav."):
        module = importlib.import_module(info.name)
        for name, value in vars(module).items():
            if name.startswith("__"):
                continue
            if isinstance(value, (dict, list, set, bytearray)):
                found.append(f"{info.name}.{name}")
    assert found == []
