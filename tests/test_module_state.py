"""Guard against mutable module-level state in the package, and its import cost.

A module-level container (a cache, a registry, an accumulator) or a writeable
array is state shared by every episode in a process. It can make a rerun
depend on what ran before it, so no vesselnav module may hold one. Importing
the CLI must not load ``scipy.spatial``, which costs start-up time and memory
that nothing in the package needs.
"""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

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


def test_cli_import_leaves_scipy_spatial_unloaded():
    src = str(Path(vesselnav.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    probe = "import sys, vesselnav.cli; print(sorted(m for m in sys.modules if m.startswith('scipy.spatial')))"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
