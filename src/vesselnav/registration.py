"""Rigid 3D-2D registration of a vessel tree to projected centerlines.

The data term scores each projected 3D centerline point against its nearby 2D
points through Gaussian kernels. The rigid pose maximizes it alone; the
initial pose is only where the search starts. The solver is iteratively
reweighted least squares: kernel weights are frozen at the current state, the
resulting weighted least-squares surrogate is stepped by Levenberg-Marquardt,
and the kernel bandwidth is halved on a fixed schedule down to a floor.

With the weights frozen, a point's k-neighbour surrogate term equals a
weighted squared distance to one target point plus a constant (see _Targets;
the "virtual point" of EM-ICP, Granger & Pennec, ECCV 2002), so each LM trial
costs O(n) in the model points, not O(nk). The tests keep the k-neighbour
form, with its dense Jacobian, as the reference path.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.spatial import cKDTree

from .geometry import CameraModel, Pose, project_points, se3_exp
from .vessel_model import VesselTree


# Fixed solver schedule: outer iterations per bandwidth halving, LM steps per
# reweighting, the step length (and relative predicted decrease) that ends a
# stage, and the Levenberg-Marquardt damping start, factors and cap.
_ANNEAL_EVERY = 5
_INNER_ITERS = 2
_TOL = 1e-6
_LM_DAMPING_INIT = 1e-3
_LM_DAMPING_UP = 10.0
_LM_DAMPING_DOWN = 10.0
_LM_DAMPING_CAP = 1e8
# Outer-iteration budget of one solve, and the smallest kernel bandwidth the
# annealing reaches.
_MAX_OUTER_ITERS = 80
_BANDWIDTH_FLOOR_PX = 2.0
# Image points matched to each projected model point (fewer if the frame has fewer).
_K_CORR = 8


@dataclass
class RegistrationState:
    """Solver state: pose acts on centered model points, see RegistrationProblem."""

    pose: Pose
    bandwidth_px: float
    iteration: int = 0
    converged: bool = False
    diagnostics: dict = field(default_factory=dict)


class RegistrationProblem:
    """Static data of one registration: model points, image points, camera.

    Model points are centered on their centroid so the rigid pose rotates the
    cloud about its own center; ``center`` restores world coordinates via
    ``world = centered + center``.
    """

    def __init__(
        self,
        points3: np.ndarray,
        points2: np.ndarray,
        cam: CameraModel,
        init_pose: Pose,
        addresses: list[tuple[int, int]] | None = None,
        center: np.ndarray | None = None,
    ):
        self.points3 = np.asarray(points3, dtype=float).reshape(-1, 3)
        if len(self.points3) < 6:
            raise ValueError("need at least 6 model points")
        self.cam = cam
        self.addresses = addresses
        self.center = np.zeros(3) if center is None else np.asarray(center, dtype=float).reshape(3)
        self._bind_frame(points2, init_pose)

    def _bind_frame(self, points2: np.ndarray, init_pose: Pose) -> None:
        self.points2 = np.asarray(points2, dtype=float).reshape(-1, 2)
        if len(self.points2) < 1:
            raise ValueError("need at least one 2D point")
        self.init_pose = init_pose
        self.k_corr = min(_K_CORR, len(self.points2))
        self.kd2 = cKDTree(self.points2)

    @staticmethod
    def from_tree(
        tree: VesselTree,
        points2: np.ndarray,
        cam: CameraModel,
        init_pose_world: Pose,
    ) -> "RegistrationProblem":
        """Build a problem over every centerline point of the tree.

        ``init_pose_world`` maps tree coordinates to the camera frame; it is
        converted to act on centered points internally.
        """
        world, addresses = tree.flat_points()
        center = world.mean(axis=0)
        centered = world - center
        return RegistrationProblem(
            centered,
            points2,
            cam,
            _pose_from_world(init_pose_world, center),
            addresses=addresses,
            center=center,
        )

    def with_frame(self, points2: np.ndarray, init_pose_world: Pose) -> "RegistrationProblem":
        """Same model rebound to a new image and start pose.

        The copy shares the model points with this problem; only the image
        points, their k-d tree, ``k_corr`` and the start pose are its own. The
        start pose only seeds the search: nothing pulls the solve back to it.
        A frame-to-frame tracker passes the previous frame's registered pose
        here and that frame's state to ``solve(..., warm=...)``: the solve
        then starts at the previous optimum and its bandwidth, and only the
        first frame anneals. Over a static scene the tracker solves only
        until a solve converges, then holds that pose.
        """
        frame = copy.copy(self)
        frame._bind_frame(points2, _pose_from_world(init_pose_world, self.center))
        return frame

    def pose_from_world(self, world_pose: Pose) -> Pose:
        return _pose_from_world(world_pose, self.center)

    def pose_to_world(self, centered_pose: Pose) -> Pose:
        return Pose(centered_pose.rotation, centered_pose.translation - centered_pose.rotation @ self.center)


def _pose_from_world(world_pose: Pose, center: np.ndarray) -> Pose:
    return Pose(world_pose.rotation, world_pose.rotation @ center + world_pose.translation)


# ---------------------------------------------------------------------------
# energies


class _Projection(NamedTuple):
    """Pixels and depths of the model points at one pose."""

    pix: np.ndarray
    depth: np.ndarray


def _projection(prob: RegistrationProblem, pose: Pose) -> _Projection:
    return _Projection(*project_points(prob.points3, pose, prob.cam))


def _match_neighbors(prob: RegistrationProblem, pix: np.ndarray, depth: np.ndarray):
    """k nearest 2D points for every visible projection."""
    ok = depth > 0
    idx = np.full((len(pix), prob.k_corr), -1, dtype=int)
    dist = np.full((len(pix), prob.k_corr), np.nan)
    if np.any(ok):
        # a list of ranks keeps the (m, k) shape when k_corr is 1
        dist[ok], idx[ok] = prob.kd2.query(pix[ok], k=list(range(1, prob.k_corr + 1)))
    return idx, dist, ok


def reprojection_rmse(prob: RegistrationProblem, state: RegistrationState, reference_pix: np.ndarray) -> float:
    """RMSE between current projections and reference pixels over visible points."""
    proj = _projection(prob, state.pose)
    ok = proj.depth > 0
    err = proj.pix[ok] - np.asarray(reference_pix, dtype=float)[ok]
    return float(np.sqrt(np.mean(np.sum(err * err, axis=1))))


# ---------------------------------------------------------------------------
# IRLS + Levenberg-Marquardt solver

_DIAG_FLOOR = 1e-12


class _Targets(NamedTuple):
    """One weighted target per model point for frozen kernel weights.

    For a row whose k matches all exist, with weights gamma_ij on 2D points
    q_ij:
    s_i    = sum_j gamma_ij
    qbar_i = sum_j gamma_ij q_ij / s_i
    c_i    = sum_j gamma_ij |q_ij - qbar_i|^2
    so that sum_j gamma_ij |u - q_ij|^2 = s_i |u - qbar_i|^2 + c_i for any
    pixel u. A row with an unmatched neighbour (idx -1) counts as having no
    matches: it and every row whose weights all underflowed hold s_i = 0,
    qbar_i = 0 and c_i = 0, so it adds nothing to the surrogate.
    """

    s: np.ndarray
    qbar: np.ndarray
    c: np.ndarray


def _weighted_targets(prob: RegistrationProblem, idx: np.ndarray, gamma: np.ndarray) -> _Targets:
    matched = np.all(idx >= 0, axis=1)
    g = np.where(matched[:, None], gamma, 0.0)
    q = prob.points2[idx]  # rows with idx == -1 gather a real point and weigh it by 0
    s = g.sum(axis=1)
    qbar = np.einsum("nk,nkd->nd", g, q) / np.where(s > 0.0, s, 1.0)[:, None]
    # centred spread, so that large pixel coordinates do not cancel
    dq = q - qbar[:, None, :]
    c = np.einsum("nk,nk->n", g, np.einsum("nkd,nkd->nk", dq, dq))
    return _Targets(s, qbar, c)


def _surrogate_cost(proj: _Projection, targets: _Targets, ell: float) -> float:
    """Weighted least-squares surrogate with frozen kernel weights.

    ``proj`` is ``_projection(prob, pose)``, passed in so that the solver
    computes it once per state.
    """
    r = proj.pix - targets.qbar
    per_point = targets.s * np.einsum("ij,ij->i", r, r) + targets.c
    return float(np.sum(per_point, where=proj.depth > 0)) / (2.0 * ell * ell)


def _pixel_jacobians(prob: RegistrationProblem, pose: Pose, proj: _Projection) -> np.ndarray:
    """2x6 pose (twist) Jacobian of every pixel.

    Rows behind the camera get zero blocks.
    """
    ok = proj.depth > 0
    m = prob.cam.intrinsics[:, :3] @ pose.rotation
    pix = np.where(ok[:, None], proj.pix, 0.0)
    inv_depth = np.divide(1.0, proj.depth, out=np.zeros(len(ok)), where=ok)
    # d(pix)/dy = (M[:2] - pix outer M[2]) / depth with M = A R
    h_blocks = (m[:2] - pix[:, :, None] * m[2]) * inv_depth[:, None, None]
    g_blocks = np.empty((len(ok), 2, 6))
    g_blocks[:, :, :3] = h_blocks
    # rotation columns: -H skew(y), i.e. y x (each row of H)
    y = prob.points3[:, None, :]
    g_blocks[:, :, 3] = y[..., 1] * h_blocks[..., 2] - y[..., 2] * h_blocks[..., 1]
    g_blocks[:, :, 4] = y[..., 2] * h_blocks[..., 0] - y[..., 0] * h_blocks[..., 2]
    g_blocks[:, :, 5] = y[..., 0] * h_blocks[..., 1] - y[..., 1] * h_blocks[..., 0]
    return g_blocks


def _data_blocks(prob, pose, proj, targets, ell):
    """Per-point quantities entering the normal equations for the data term.

    Returns (s, gvec, G) where for each visible matched point i (zero
    s and gvec elsewhere):
    s_i    = sum_j gamma_ij / (2 ell^2)
    gvec_i = sum_j gamma_ij (u_i - q_ij) / (2 ell^2) = s_i (u_i - qbar_i)
    G_i    = 2x6 pose Jacobian of u_i.
    """
    ok = proj.depth > 0
    s = np.where(ok, targets.s, 0.0) / (2.0 * ell * ell)
    gvec = s[:, None] * np.where(ok[:, None], proj.pix - targets.qbar, 0.0)
    return s, gvec, _pixel_jacobians(prob, pose, proj)


def _normal_equations(prob, pose, proj, targets, ell):
    """Gauss-Newton matrix A and gradient g of the surrogate at the pose."""
    s, gvec, g_blocks = _data_blocks(prob, pose, proj, targets, ell)
    n = len(prob.points3)
    gs = g_blocks * s[:, None, None]
    g_rows = g_blocks.reshape(2 * n, 6)
    app = gs.reshape(2 * n, 6).T @ g_rows
    gp = g_rows.T @ gvec.reshape(2 * n)
    return app, gp


def _solve_step(app, gp, damping, rotation_locked=False):
    """One damped normal-equation solve for the pose twist step.

    With ``rotation_locked`` the rotation half of the step stays zero.
    """
    dp_diag = np.maximum(np.diag(app), _DIAG_FLOOR)
    app_d = app + damping * np.diag(dp_diag)
    free = slice(0, 3 if rotation_locked else 6)
    delta_p = np.zeros(6)
    delta_p[free] = np.linalg.solve(app_d[free, free], -gp[free])
    return delta_p


def _predicted_decrease(app, gp, rotation_locked) -> float:
    """Surrogate decrease the undamped Gauss-Newton step promises, g'A^-1 g / 2.

    inf when the normal equations are singular.
    """
    try:
        delta_p = _solve_step(app, gp, 0.0, rotation_locked)
    except np.linalg.LinAlgError:
        return np.inf
    return -0.5 * float(gp @ delta_p)


def solve(prob: RegistrationProblem, warm: RegistrationState | None = None) -> RegistrationState:
    """Run IRLS with LM inner steps and bandwidth annealing over the pose.

    The surrogate cost never increases across accepted LM steps; each
    converged bandwidth stage advances the annealing schedule immediately.

    A cold solve (``warm`` is None) starts at a bandwidth equal to the largest
    initial neighbour distance and keeps the rotation locked for the first
    stage. A warm solve continues from ``warm``, the state the previous frame
    returned: it starts at ``warm.bandwidth_px`` (not below the floor) with the
    rotation free, so a frame whose ``prob`` was built by ``with_frame`` from
    the previous pose does not anneal again. Only the first frame of a
    sequence anneals. The pose still starts at ``prob.init_pose``. A warm
    solve is the fallback after a solve that did not converge: over a static
    scene, a converged pose is held rather than solved again.

    ``converged`` is True when the solve stopped at the floor bandwidth with
    the freshly reweighted surrogate solved: either its first LM step was
    shorter than ``_TOL``, or no LM step lowered it and the undamped
    Gauss-Newton step promises a relative decrease of at most ``_TOL``. A
    solve that runs out of ``_MAX_OUTER_ITERS`` reports False.
    """
    pose = prob.init_pose
    # projection of the current pose; an accepted candidate brings its own
    proj = _projection(prob, pose)
    # a cold solve's start match is also its first outer iteration's
    match = None
    if warm is None:
        match = _match_neighbors(prob, proj.pix, proj.depth)
        _, dist0, ok0 = match
        ell = _BANDWIDTH_FLOOR_PX
        if np.any(ok0):
            ell = max(float(np.nanmax(dist0[ok0])), _BANDWIDTH_FLOOR_PX)
        stage = 0
    else:
        if not (np.isfinite(warm.bandwidth_px) and warm.bandwidth_px > 0.0):
            raise ValueError("warm-start bandwidth must be positive and finite")
        ell = max(float(warm.bandwidth_px), _BANDWIDTH_FLOOR_PX)
        stage = 1
    damping = _LM_DAMPING_INIT
    history: list[dict] = []
    converged = False
    for outer in range(_MAX_OUTER_ITERS):
        idx, dist, okm = match or _match_neighbors(prob, proj.pix, proj.depth)
        match = None
        gamma = np.where(okm[:, None], np.exp(-dist ** 2 / (2.0 * ell * ell)), 0.0)
        targets = _weighted_targets(prob, idx, np.nan_to_num(gamma))
        rot_locked = stage == 0
        # An accepted candidate's cost is the next inner iteration's starting
        # cost: same pose and frozen weights.
        cost0 = _surrogate_cost(proj, targets, ell)
        for inner in range(_INNER_ITERS):
            app, gp = _normal_equations(prob, pose, proj, targets, ell)
            accepted = False
            step = 0.0
            while True:
                try:
                    delta_p = _solve_step(app, gp, damping, rot_locked)
                except np.linalg.LinAlgError:
                    # Singular normal equations count as a rejected step;
                    # anything else is a bug.
                    delta_p = None
                if delta_p is not None and np.all(np.isfinite(delta_p)):
                    cand_pose = pose.compose(se3_exp(delta_p))
                    cand_proj = _projection(prob, cand_pose)
                    cost1 = _surrogate_cost(cand_proj, targets, ell)
                else:
                    cost1 = np.inf
                if np.isfinite(cost1) and cost1 < cost0:
                    step = float(np.sqrt(np.sum(delta_p ** 2)))
                    history.append(
                        {
                            "outer": outer,
                            "bandwidth": ell,
                            "cost_before": cost0,
                            "cost_after": cost1,
                            "damping": damping,
                            "step_norm": step,
                            "accepted": True,
                        }
                    )
                    pose, proj, cost0 = cand_pose, cand_proj, cost1
                    damping = max(damping / _LM_DAMPING_DOWN, 1e-12)
                    accepted = True
                    break
                damping *= _LM_DAMPING_UP
                if damping > _LM_DAMPING_CAP:
                    damping = _LM_DAMPING_CAP
                    break
            if inner == 0:
                first_step = step if accepted else 0.0
                first_stalled = not accepted
            if not accepted or step < _TOL:
                break
        # The stage is exhausted only when a freshly matched and reweighted
        # surrogate yields no meaningful first step; small trailing inner steps
        # just mean this one surrogate is solved.
        if first_stalled or first_step < _TOL:
            if ell <= _BANDWIDTH_FLOOR_PX:
                # A stall counts as convergence when the undamped Gauss-Newton
                # model promises no relative decrease above tol, so rounding
                # noise at the optimum is not read as failure.
                converged = not first_stalled or _predicted_decrease(app, gp, rot_locked) <= _TOL * cost0
                break
            ell = max(ell / 2.0, _BANDWIDTH_FLOOR_PX)
            stage += 1
            damping = _LM_DAMPING_INIT
            continue
        if (outer + 1) % _ANNEAL_EVERY == 0:
            ell = max(ell / 2.0, _BANDWIDTH_FLOOR_PX)
            stage += 1
    if not np.isfinite(cost0):
        raise FloatingPointError("registration surrogate cost is not finite")
    return RegistrationState(pose, ell, iteration=outer + 1, converged=converged, diagnostics={"history": history})
