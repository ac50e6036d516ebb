"""Lift a tracked 2D instrument tip onto the 3D vessel model.

The registered model fixes where every centerline point projects; the lifted
tip is the model point whose projection lands closest to the tracked 2D tip.
Near-ties (projective ambiguity between branches crossing in the image) are
resolved by 3D proximity to the previous tip, which keeps the lifted track
topologically consistent over time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import project_points
from .registration import RegistrationProblem, RegistrationState

# A tip farther than LIFT_GATE_PX from every projection is off the vessel;
# model points within LIFT_TIE_PX of the best projection count as near-ties.
LIFT_GATE_PX = 30.0
LIFT_TIE_PX = 2.0


class OffVesselError(RuntimeError):
    """The 2D tip projects too far from every model point."""


@dataclass(frozen=True)
class LiftedTip:
    address: tuple[int, int]
    position3: np.ndarray
    pixel_error: float


def lift(
    prob: RegistrationProblem,
    state: RegistrationState,
    tip2: np.ndarray,
    previous3: np.ndarray | None = None,
) -> LiftedTip:
    """Pick the model address whose projection best explains the 2D tip.

    Raises OffVesselError when no projection falls within ``LIFT_GATE_PX`` of
    the tip.
    """
    if prob.addresses is None:
        raise ValueError("problem carries no addresses; build it with from_tree")
    tip2 = np.asarray(tip2, dtype=float).reshape(2)
    pix, depth = project_points(prob.points3, state.pose, prob.cam)
    ok = depth > 0
    if not np.any(ok):
        raise OffVesselError("entire model is behind the camera")
    dist = np.full(len(pix), np.inf)
    dist[ok] = np.linalg.norm(pix[ok] - tip2, axis=1)
    best = float(dist.min())
    if best > LIFT_GATE_PX:
        raise OffVesselError(f"nearest projection is {best:.1f}px away (gate {LIFT_GATE_PX:.1f}px)")
    candidates = np.flatnonzero(dist <= best + LIFT_TIE_PX)
    if previous3 is not None and len(candidates) > 1:
        world = prob.points3[candidates] + prob.center
        d3 = np.linalg.norm(world - np.asarray(previous3, dtype=float), axis=1)
        pick = candidates[int(np.argmin(d3))]
    else:
        pick = candidates[int(np.argmin(dist[candidates]))]
    return LiftedTip(prob.addresses[pick], prob.points3[pick] + prob.center, float(dist[pick]))
