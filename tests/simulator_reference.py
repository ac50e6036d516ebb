"""Reference path for the simulator tests: the per-call wire walk.

``vesselnav.simulator.step`` reads each address's options from the tree's
options table and extends or slices the body tuple. These helpers keep the
walk it replaced: the options are rebuilt from ``child_links`` on every call,
and the body is a list that grows by appends and shrinks by pops. The two
must give equal wire states and leave the generator in equal states.
"""

import numpy as np

from vesselnav.simulator import ActuationNoise, ControlCommand, GuidewireState
from vesselnav.vessel_model import VesselTree

_STEP_EPS = 1e-9

Address = tuple[int, int]


def advance_options(tree: VesselTree, addr: Address) -> list[Address]:
    """Addresses one step away from the root: attached children in link
    order, then the same-branch continuation."""
    bid, idx = addr
    branch = tree.branches[bid]
    out = [(cid, 0) for cid in branch.child_links if tree.branches[cid].attach_index == idx]
    if idx + 1 < len(branch):
        out.append((bid, idx + 1))
    return out


def reference_step(
    tree: VesselTree,
    state: GuidewireState,
    command: ControlCommand,
    rng: np.random.Generator,
    noise: ActuationNoise | None = None,
) -> GuidewireState:
    noise = noise or ActuationNoise()
    jitter = rng.normal(0.0, 1.0)
    rot_roll = rng.uniform()
    moved = command.translate * (1.0 + noise.translation_jitter * jitter)
    steps = int(abs(moved) + _STEP_EPS)
    body = list(state.body)
    phase = state.rotation_phase
    if moved >= 0.0:
        for _ in range(steps):
            options = advance_options(tree, body[-1])
            if not options:
                break
            body.append(options[phase % len(options)])
    else:
        for _ in range(steps):
            if len(body) == 1:
                break
            body.pop()
    if command.rotate == 1 and rot_roll >= noise.rotation_failure:
        phase += 1
    return GuidewireState(tuple(body), phase)
