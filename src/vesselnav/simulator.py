"""Guidewire motion on the vessel grid.

The wire body is the ordered list of tree addresses it occupies, from the
insertion point to the tip. Commands carry a signed translation in grid steps
and a rotation flag. Translation is applied first, consuming whole grid steps;
rotation then advances the tip's rotation phase, which picks the outgoing
option at junctions (children in attachment order, then the same-branch
continuation). Retraction clamps at the insertion point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .planning import Address, advance_options, plan
from .vessel_model import VesselTree

_STEP_EPS = 1e-9
# Every wire enters the tree here and retracts no further.
INSERTION: Address = (0, 0)


@dataclass(frozen=True)
class ControlCommand:
    translate: float
    rotate: int

    def __post_init__(self) -> None:
        if self.rotate not in (0, 1):
            raise ValueError("rotate flag must be 0 or 1")


@dataclass(frozen=True)
class ActuationNoise:
    """Multiplicative translation jitter and chance a rotation is dropped."""

    translation_jitter: float = 0.1
    rotation_failure: float = 0.1


@dataclass(frozen=True)
class GuidewireState:
    body: tuple[Address, ...]
    rotation_phase: int = 0

    def __post_init__(self) -> None:
        if len(self.body) == 0:
            raise ValueError("wire body cannot be empty")

    @property
    def tip(self) -> Address:
        return self.body[-1]


def initial_wire(tree: VesselTree, start: Address) -> GuidewireState:
    """Wire threaded along the unique route from the insertion point to start."""
    return GuidewireState(plan(tree, INSERTION, start), rotation_phase=0)


def true_tip(tree: VesselTree, state: GuidewireState) -> np.ndarray:
    return tree.position(state.tip)


def step(
    tree: VesselTree,
    state: GuidewireState,
    command: ControlCommand,
    rng: np.random.Generator,
    noise: ActuationNoise | None = None,
) -> GuidewireState:
    """Apply one command. Consumes exactly two random variates per call so the
    stream stays aligned regardless of the command content."""
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
