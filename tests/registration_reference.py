"""Reference path for the registration tests: the k-neighbour surrogate.

The solver collapses each model point's k kernel-weighted neighbours into one
target. These helpers keep the uncollapsed form, one residual row per
(point, neighbour) pair, with its analytic Jacobian, and a central
finite-difference Jacobian to check that against.
"""

import numpy as np

from vesselnav.geometry import se3_exp, se3_right_jacobian_inv
from vesselnav.registration import _PRIOR_SCALE, _log_to_init, _pixel_jacobians, _projection


def _dense_residuals(prob, pose, disp, idx, gamma, ell):
    """Stacked surrogate residual vector at the given state."""
    _, pix, depth = _projection(prob, pose, disp)
    ok = np.all(idx >= 0, axis=1) & (depth > 0)
    rows = []
    inv = 1.0 / np.sqrt(2.0 * ell * ell)
    for i in np.flatnonzero(ok):
        for col, j in enumerate(idx[i]):
            a = np.sqrt(gamma[i, col]) * inv
            rows.append(a * (pix[i] - prob.points2[j]))
    psi = _log_to_init(prob, pose)
    rows.append(np.sqrt(prob.weights.pose_prior) * _PRIOR_SCALE * psi)
    w = prob.weights
    rows.append((np.sqrt(w.deform * w.deform_magnitude) * disp).ravel())
    for pairs, cw in ((prob.chain_pairs, w.deform_chain), (prob.cross_pairs, w.deform_cross)):
        if len(pairs):
            diff = disp[pairs[:, 0]] - disp[pairs[:, 1]]
            rows.append((np.sqrt(w.deform * cw) * diff).ravel())
    return np.concatenate([np.atleast_1d(r).ravel() for r in rows])


def _dense_jacobian(prob, pose, disp, idx, gamma, ell, active_deform=True):
    """Analytic Jacobian of _dense_residuals w.r.t. [pose twist, displacements]."""
    n = len(prob.points3)
    ncols = 6 + (3 * n if active_deform else 0)
    proj = _projection(prob, pose, disp)
    g_blocks, h_blocks = _pixel_jacobians(prob, pose, proj)
    ok_mask = np.all(idx >= 0, axis=1) & (proj.depth > 0)
    blocks = []
    inv = 1.0 / np.sqrt(2.0 * ell * ell)
    for i in np.flatnonzero(ok_mask):
        for col in range(idx.shape[1]):
            a = np.sqrt(gamma[i, col]) * inv
            row = np.zeros((2, ncols))
            row[:, :6] = a * g_blocks[i]
            if active_deform:
                row[:, 6 + 3 * i : 9 + 3 * i] = a * h_blocks[i]
            blocks.append(row)
    psi = _log_to_init(prob, pose)
    jr = _PRIOR_SCALE[:, None] * se3_right_jacobian_inv(psi)
    row = np.zeros((6, ncols))
    row[:, :6] = np.sqrt(prob.weights.pose_prior) * jr
    blocks.append(row)
    w = prob.weights
    if active_deform:
        mag = np.zeros((3 * n, ncols))
        mag[:, 6:] = np.sqrt(w.deform * w.deform_magnitude) * np.eye(3 * n)
        blocks.append(mag)
        for pairs, cw in ((prob.chain_pairs, w.deform_chain), (prob.cross_pairs, w.deform_cross)):
            if len(pairs) == 0:
                continue
            c = np.sqrt(w.deform * cw)
            block = np.zeros((3 * len(pairs), ncols))
            for k, (i, j) in enumerate(pairs):
                block[3 * k : 3 * k + 3, 6 + 3 * i : 9 + 3 * i] = c * np.eye(3)
                block[3 * k : 3 * k + 3, 6 + 3 * j : 9 + 3 * j] = -c * np.eye(3)
            blocks.append(block)
    else:
        mag = np.zeros((3 * n, ncols))
        blocks.append(mag)
        for pairs, cw in ((prob.chain_pairs, w.deform_chain), (prob.cross_pairs, w.deform_cross)):
            if len(pairs):
                blocks.append(np.zeros((3 * len(pairs), ncols)))
    return np.vstack(blocks)


def _fd_jacobian(prob, pose, disp, idx, gamma, ell, active, eps=1e-6):
    """Central differences of _dense_residuals w.r.t. [pose twist, displacements]."""
    def residual_at(tw, dd):
        return _dense_residuals(prob, pose.compose(se3_exp(tw)), disp + dd, idx, gamma, ell)

    n = len(prob.points3)
    base = residual_at(np.zeros(6), np.zeros((n, 3)))
    j = np.zeros((len(base), 6 + (3 * n if active else 0)))
    for c in range(6):
        tw = np.zeros(6)
        tw[c] = eps
        hi = residual_at(tw, np.zeros((n, 3)))
        tw[c] = -eps
        j[:, c] = (hi - residual_at(tw, np.zeros((n, 3)))) / (2 * eps)
    if active:
        for i in range(n):
            for a in range(3):
                dd = np.zeros((n, 3))
                dd[i, a] = eps
                hi = residual_at(np.zeros(6), dd)
                dd[i, a] = -eps
                j[:, 6 + 3 * i + a] = (hi - residual_at(np.zeros(6), dd)) / (2 * eps)
    return j
