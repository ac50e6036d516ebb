"""Guard against mutable module-level state in the package, and its import cost.

A module-level container (a cache, a registry, an accumulator) or a writeable
array is state shared by every episode in a process. It can make a rerun
depend on what ran before it, so no vesselnav module may hold one. The
package runs on NumPy alone: neither importing the CLI nor running a
full-perception episode, which registers frames, may load any ``scipy``
module, whose import costs start-up time and memory.
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


def test_cli_and_full_perception_episode_load_no_scipy():
    src = str(Path(vesselnav.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    probe = (
        "import sys, vesselnav.cli\n"
        "from vesselnav.navigator import EpisodeConfig, run_episode\n"
        "from vesselnav.vessel_model import PhantomSpec, generate_phantom\n"
        "tree = generate_phantom(PhantomSpec(), seed=11)\n"
        "report = run_episode(tree, (0, 20), (7, 25), seed=0, config=EpisodeConfig(max_loops=2))\n"
        "assert len(report.records) == 2 and report.records[0].registration_rmse_px < 0.5, report\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
