"""Reference path for the registration tests: the k-neighbour surrogate.

The solver collapses each model point's k kernel-weighted neighbours into one
target. These helpers keep the uncollapsed form, one residual row per
(point, neighbour) pair, with its analytic pose Jacobian, and a central
finite-difference Jacobian to check that against. ``eval_objective`` is the
energy oracle: the kernel data term at a state, which the solver itself never
evaluates.
"""

from dataclasses import dataclass

import numpy as np

from vesselnav.geometry import se3_exp
from vesselnav.registration import (
    RegistrationProblem,
    RegistrationState,
    _match_neighbors,
    _pixel_jacobians,
    _projection,
)


@dataclass(frozen=True)
class EnergyBreakdown:
    data: float
    behind_camera: tuple[int, ...] = ()


def eval_objective(prob: RegistrationProblem, state: RegistrationState) -> EnergyBreakdown:
    """Kernel data term at the given state, using its kernel bandwidth."""
    proj = _projection(prob, state.pose)
    idx, dist, ok = _match_neighbors(prob, proj.pix, proj.depth)
    ell2 = 2.0 * state.bandwidth_px ** 2
    data = float(np.sum(np.exp(-dist[ok] ** 2 / ell2)))
    return EnergyBreakdown(data, tuple(np.flatnonzero(~ok)))


def _dense_residuals(prob, pose, idx, gamma, ell):
    """Stacked surrogate residual vector at the given pose."""
    pix, depth = _projection(prob, pose)
    ok = np.all(idx >= 0, axis=1) & (depth > 0)
    rows = []
    inv = 1.0 / np.sqrt(2.0 * ell * ell)
    for i in np.flatnonzero(ok):
        for col, j in enumerate(idx[i]):
            a = np.sqrt(gamma[i, col]) * inv
            rows.append(a * (pix[i] - prob.points2[j]))
    return np.concatenate(rows)


def _dense_jacobian(prob, pose, idx, gamma, ell):
    """Analytic Jacobian of _dense_residuals w.r.t. the pose twist."""
    proj = _projection(prob, pose)
    g_blocks = _pixel_jacobians(prob, pose, proj)
    ok_mask = np.all(idx >= 0, axis=1) & (proj.depth > 0)
    blocks = []
    inv = 1.0 / np.sqrt(2.0 * ell * ell)
    for i in np.flatnonzero(ok_mask):
        for col in range(idx.shape[1]):
            a = np.sqrt(gamma[i, col]) * inv
            blocks.append(a * g_blocks[i])
    return np.vstack(blocks)


def _fd_jacobian(prob, pose, idx, gamma, ell, eps=1e-6):
    """Central differences of _dense_residuals w.r.t. the pose twist."""
    def residual_at(tw):
        return _dense_residuals(prob, pose.compose(se3_exp(tw)), idx, gamma, ell)

    j = np.zeros((len(residual_at(np.zeros(6))), 6))
    for c in range(6):
        tw = np.zeros(6)
        tw[c] = eps
        hi = residual_at(tw)
        tw[c] = -eps
        j[:, c] = (hi - residual_at(tw)) / (2 * eps)
    return j
