"""Non-rigid 3D-2D registration of a vessel tree to projected centerlines.

The data term scores each projected 3D centerline point against its nearby 2D
points through Gaussian kernels. A pose prior anchors the rigid estimate to
its initialization and a per-point displacement field captures deformation,
penalized through one weighted difference operator (magnitude, along-branch
and cross-branch rows; see _difference_operator). The composite loss

    -(data term) + pose_prior * anchor + deform * regularizer

is minimized by iteratively reweighted least squares: kernel weights are
frozen at the current state, the resulting weighted least-squares surrogate is
stepped by Levenberg-Marquardt, and the kernel bandwidth is halved on a fixed
schedule down to a floor.

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
from scipy import sparse
from scipy.sparse.linalg import splu
from scipy.spatial import cKDTree

from .geometry import CameraModel, Pose, project_points, se3_exp, se3_log, se3_right_jacobian_inv
from .vessel_model import VesselTree


# Model coordinates are millimeters; the pose anchor is calibrated for SI
# units (meters, radians), so the translation half of the relative twist is
# scaled by 1e-3 inside the prior. Without this a 100-weighted anchor would
# overpower the data term for millimeter-scale corrections.
_PRIOR_SCALE = np.array([1e-3, 1e-3, 1e-3, 1.0, 1.0, 1.0])
_PRIOR_SCALE.setflags(write=False)

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


@dataclass(frozen=True)
class Weights:
    """Energy weights; all must be non-negative."""

    pose_prior: float = 100.0
    deform: float = 1.0
    deform_magnitude: float = 0.1
    deform_chain: float = 10.0
    deform_cross: float = 1.0

    def __post_init__(self) -> None:
        for name in ("pose_prior", "deform", "deform_magnitude", "deform_chain", "deform_cross"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"weight {name} must be non-negative")


@dataclass(frozen=True)
class SolverConfig:
    max_outer_iters: int = 80
    bandwidth_floor_px: float = 2.0
    optimize_deformation: bool = True


@dataclass
class RegistrationState:
    """Solver state: pose acts on centered model points, see RegistrationProblem.

    ``displacements`` holds one 3-vector per model point, shape (N, 3).
    """

    pose: Pose
    displacements: np.ndarray
    bandwidth_px: float
    iteration: int = 0
    converged: bool = False
    diagnostics: dict = field(default_factory=dict)


class RegistrationProblem:
    """Static data of one registration: model points, image points, weights.

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
        weights: Weights | None = None,
        chain_pairs: np.ndarray | None = None,
        cross_pairs: np.ndarray | None = None,
        addresses: list[tuple[int, int]] | None = None,
        center: np.ndarray | None = None,
        k_corr: int = 8,
        k_omega: int = 4,
    ):
        self.points3 = np.asarray(points3, dtype=float).reshape(-1, 3)
        n = len(self.points3)
        if n < 6:
            raise ValueError("need at least 6 model points")
        self.cam = cam
        self.weights = w = weights or Weights()
        self.addresses = addresses
        self.center = np.zeros(3) if center is None else np.asarray(center, dtype=float).reshape(3)
        self.k_requested = int(k_corr)
        if chain_pairs is None:
            chain_pairs = np.empty((0, 2), dtype=int)
        self.chain_pairs = np.asarray(chain_pairs, dtype=int).reshape(-1, 2)
        if cross_pairs is None:
            k = min(k_omega + 1, n)
            _, idx = cKDTree(self.points3).query(self.points3, k=k)
            cross_pairs = np.stack([np.repeat(np.arange(n), k - 1), idx[:, 1:].ravel()], axis=1)
        self.cross_pairs = np.asarray(cross_pairs, dtype=int).reshape(-1, 2)
        self.deform_op = _difference_operator(n, w, self.chain_pairs, self.cross_pairs)
        # Gauss-Newton block of deform * |D disp|^2 over displacements
        # flattened point-major (index 3 i + axis)
        self.deform_hessian = w.deform * sparse.kron(
            self.deform_op.T @ self.deform_op, sparse.identity(3), format="csc"
        )
        self._bind_frame(points2, init_pose)

    def _bind_frame(self, points2: np.ndarray, init_pose: Pose) -> None:
        self.points2 = np.asarray(points2, dtype=float).reshape(-1, 2)
        if len(self.points2) < 1:
            raise ValueError("need at least one 2D point")
        self.init_pose = init_pose
        self._init_pose_inv = init_pose.inverse()
        self.k_corr = min(self.k_requested, len(self.points2))
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
        # consecutive points of one branch, chained both ways, in (i, j) order
        i = np.flatnonzero(np.diff([bid for bid, _ in addresses]) == 0)
        chain = np.concatenate([np.stack([i, i + 1], axis=1), np.stack([i + 1, i], axis=1)])
        chain = chain[np.lexsort((chain[:, 1], chain[:, 0]))]
        return RegistrationProblem(
            centered,
            points2,
            cam,
            _pose_from_world(init_pose_world, center),
            chain_pairs=chain,
            addresses=addresses,
            center=center,
        )

    def with_frame(self, points2: np.ndarray, init_pose_world: Pose) -> "RegistrationProblem":
        """Same model rebound to a new image and initialization.

        The copy shares the model points, pairs and deformation operator with
        this problem; only the image points, their k-d tree, ``k_corr`` and
        the initial pose are its own. A frame-to-frame tracker passes the previous frame's registered pose
        here and that frame's state to ``solve(..., warm=...)``: the solve
        then starts at the previous optimum and its bandwidth, and only the
        first frame anneals.
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


def _difference_operator(n: int, w: Weights, chain_pairs: np.ndarray, cross_pairs: np.ndarray) -> sparse.csr_matrix:
    """Sparse D with rows sqrt(deform_magnitude) e_i for every point, then
    sqrt(deform_chain) (e_i - e_j) per chain pair and sqrt(deform_cross)
    (e_i - e_j) per cross pair, so the deformation penalty is |D disp|^2."""
    pairs = np.concatenate([chain_pairs, cross_pairs])
    m = len(pairs)
    scale = np.repeat(np.sqrt([w.deform_chain, w.deform_cross]), [len(chain_pairs), len(cross_pairs)])
    rows = np.concatenate([np.arange(n), n + np.arange(m), n + np.arange(m)])
    cols = np.concatenate([np.arange(n), pairs[:, 0], pairs[:, 1]])
    vals = np.concatenate([np.full(n, np.sqrt(w.deform_magnitude)), scale, -scale])
    return sparse.csr_matrix((vals, (rows, cols)), shape=(n + m, n))


# ---------------------------------------------------------------------------
# energies


class _Projection(NamedTuple):
    """Deformed model points ``y`` with their pixels and depths at one state."""

    y: np.ndarray
    pix: np.ndarray
    depth: np.ndarray


def _projection(prob: RegistrationProblem, pose: Pose, disp: np.ndarray) -> _Projection:
    y = prob.points3 + disp
    return _Projection(y, *project_points(y, pose, prob.cam))


def _match_neighbors(prob: RegistrationProblem, pix: np.ndarray, depth: np.ndarray):
    """k nearest 2D points for every visible projection."""
    ok = depth > 0
    idx = np.full((len(pix), prob.k_corr), -1, dtype=int)
    dist = np.full((len(pix), prob.k_corr), np.nan)
    if np.any(ok):
        # a list of ranks keeps the (m, k) shape when k_corr is 1
        dist[ok], idx[ok] = prob.kd2.query(pix[ok], k=list(range(1, prob.k_corr + 1)))
    return idx, dist, ok


def _log_to_init(prob: RegistrationProblem, pose: Pose) -> np.ndarray:
    return se3_log(prob._init_pose_inv.compose(pose))


def _regularizer(prob: RegistrationProblem, disp: np.ndarray) -> float:
    """Deformation penalty |D disp|^2: magnitude plus chain and cross smoothness."""
    r = prob.deform_op @ disp
    return float(np.sum(r * r))


def reprojection_rmse(prob: RegistrationProblem, state: RegistrationState, reference_pix: np.ndarray) -> float:
    """RMSE between current projections and reference pixels over visible points."""
    proj = _projection(prob, state.pose, state.displacements)
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


def _surrogate_cost(
    prob: RegistrationProblem,
    psi: np.ndarray,
    proj: _Projection,
    targets: _Targets,
    ell: float,
    reg: float,
) -> float:
    """Weighted least-squares surrogate with frozen kernel weights.

    ``psi`` is ``_log_to_init(prob, pose)``, ``proj`` is
    ``_projection(prob, pose, disp)`` and ``reg`` is
    ``_regularizer(prob, disp)``; all three are passed in so that the solver
    computes each once per state.
    """
    r = proj.pix - targets.qbar
    per_point = targets.s * np.einsum("ij,ij->i", r, r) + targets.c
    data = float(np.sum(per_point, where=proj.depth > 0))
    scaled = _PRIOR_SCALE * psi
    return data / (2.0 * ell * ell) + prob.weights.pose_prior * float(scaled @ scaled) + prob.weights.deform * reg


def _pixel_jacobians(prob: RegistrationProblem, pose: Pose, proj: _Projection):
    """2x6 pose (twist) and 2x3 displacement Jacobians of every pixel.

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
    y = proj.y[:, None, :]
    g_blocks[:, :, 3] = y[..., 1] * h_blocks[..., 2] - y[..., 2] * h_blocks[..., 1]
    g_blocks[:, :, 4] = y[..., 2] * h_blocks[..., 0] - y[..., 0] * h_blocks[..., 2]
    g_blocks[:, :, 5] = y[..., 0] * h_blocks[..., 1] - y[..., 1] * h_blocks[..., 0]
    return g_blocks, h_blocks


def _data_blocks(prob, pose, proj, targets, ell):
    """Per-point quantities entering the normal equations for the data term.

    Returns (s, gvec, G, H) where for each visible matched point i (zero
    s and gvec elsewhere):
    s_i    = sum_j gamma_ij / (2 ell^2)
    gvec_i = sum_j gamma_ij (u_i - q_ij) / (2 ell^2) = s_i (u_i - qbar_i)
    G_i    = 2x6 pose Jacobian of u_i,  H_i = 2x3 displacement Jacobian.
    """
    ok = proj.depth > 0
    s = np.where(ok, targets.s, 0.0) / (2.0 * ell * ell)
    gvec = s[:, None] * np.where(ok[:, None], proj.pix - targets.qbar, 0.0)
    g_blocks, h_blocks = _pixel_jacobians(prob, pose, proj)
    return s, gvec, g_blocks, h_blocks


def _normal_equations(prob, pose, disp, proj, psi, targets, ell, active_deform):
    """Gauss-Newton blocks App, Apr, Arr, gp, gr of the surrogate at the state.

    ``psi`` is ``_log_to_init(prob, pose)``. Arr is the sparse CSC 3n x 3n
    displacement block: the block-diagonal data term plus
    ``prob.deform_hessian``.
    """
    s, gvec, g_blocks, h_blocks = _data_blocks(prob, pose, proj, targets, ell)
    n = len(prob.points3)
    w = prob.weights

    gs = g_blocks * s[:, None, None]
    g_rows = g_blocks.reshape(2 * n, 6)
    app = gs.reshape(2 * n, 6).T @ g_rows
    gp = g_rows.T @ gvec.reshape(2 * n)
    jr = _PRIOR_SCALE[:, None] * se3_right_jacobian_inv(psi)
    app += w.pose_prior * jr.T @ jr
    gp += w.pose_prior * (jr.T @ (_PRIOR_SCALE * psi))

    if not active_deform:
        return app, None, None, gp, None

    apr = np.transpose(gs, (0, 2, 1)) @ h_blocks  # (n, 6, 3)
    arr_data = np.transpose(h_blocks * s[:, None, None], (0, 2, 1)) @ h_blocks  # (n, 3, 3)
    arr = prob.deform_hessian + sparse.bsr_matrix((arr_data, np.arange(n), np.arange(n + 1)), shape=(3 * n, 3 * n))
    gr = np.einsum("nai,na->ni", h_blocks, gvec) + (prob.deform_hessian @ disp.ravel()).reshape(n, 3)
    return app, apr, arr, gp, gr


def _solve_step(app, apr, arr, gp, gr, damping, rotation_locked=False):
    """One damped normal-equation solve; returns (delta_pose, delta_disp)."""
    dp_diag = np.maximum(np.diag(app), _DIAG_FLOOR)
    app_d = app + damping * np.diag(dp_diag)
    if apr is None:
        free = slice(0, 3 if rotation_locked else 6)
        delta_p = np.zeros(6)
        delta_p[free] = np.linalg.solve(app_d[free, free], -gp[free])
        return delta_p, None
    n = len(gr)
    lu = splu(arr + sparse.diags(damping * np.maximum(arr.diagonal(), _DIAG_FLOOR), format="csc"))
    apr_mat = np.transpose(apr, (1, 0, 2)).reshape(6, 3 * n)
    rhs = np.concatenate([apr_mat.T, gr.reshape(-1, 1)], axis=1)  # (3n, 7)
    sol = lu.solve(rhs)
    x_a = sol[:, :6]
    x_g = sol[:, 6]
    schur = app_d - apr_mat @ x_a
    rhs_p = -gp + apr_mat @ x_g
    delta_p = np.linalg.solve(schur, rhs_p)
    delta_r = -(x_g + x_a @ delta_p)
    return delta_p, delta_r.reshape(n, 3)


def _predicted_decrease(app, apr, arr, gp, gr, rotation_locked) -> float:
    """Surrogate decrease the undamped Gauss-Newton step promises, g'A^-1 g / 2.

    inf when the normal equations are singular.
    """
    try:
        delta_p, delta_r = _solve_step(app, apr, arr, gp, gr, 0.0, rotation_locked)
    except (np.linalg.LinAlgError, RuntimeError):
        return np.inf
    return -0.5 * float(gp @ delta_p + (0.0 if delta_r is None else np.sum(gr * delta_r)))


def solve(
    prob: RegistrationProblem,
    cfg: SolverConfig | None = None,
    warm: RegistrationState | None = None,
) -> RegistrationState:
    """Run IRLS with LM inner steps and bandwidth annealing.

    The deformation field stays frozen until the first bandwidth halving, then
    is optimized jointly with the pose (when cfg.optimize_deformation). The
    surrogate cost never increases across accepted LM steps; each converged
    bandwidth stage advances the annealing schedule immediately.

    A cold solve (``warm`` is None) starts at a bandwidth equal to the largest
    initial neighbour distance and keeps the rotation locked for the first
    stage. A warm solve continues from ``warm``, the state the previous frame
    returned: it starts at ``warm.bandwidth_px`` (not below the floor) with the
    rotation free, so a frame whose ``prob`` was built by ``with_frame`` from
    the previous pose does not anneal again. Only the first frame of a
    sequence anneals. The pose still starts at ``prob.init_pose`` and the
    displacements at zero.

    ``converged`` is True when the solve stopped at the floor bandwidth with
    the freshly reweighted surrogate solved: either its first LM step was
    shorter than ``_TOL``, or no LM step lowered it and the undamped
    Gauss-Newton step promises a relative decrease of at most ``_TOL``. A
    solve that runs out of ``cfg.max_outer_iters`` reports False.
    """
    cfg = cfg or SolverConfig()
    if cfg.max_outer_iters < 1:
        raise ValueError("max_outer_iters must be at least 1")
    n = len(prob.points3)
    pose = prob.init_pose
    disp = np.zeros((n, 3))
    # projection and pose log of the current (pose, disp); an accepted
    # candidate brings its own
    proj = _projection(prob, pose, disp)
    psi = _log_to_init(prob, pose)
    if warm is None:
        idx0, dist0, ok0 = _match_neighbors(prob, proj.pix, proj.depth)
        ell = cfg.bandwidth_floor_px
        if np.any(ok0):
            ell = max(float(np.nanmax(dist0[ok0])), cfg.bandwidth_floor_px)
        stage = 0
    else:
        if not (np.isfinite(warm.bandwidth_px) and warm.bandwidth_px > 0.0):
            raise ValueError("warm-start bandwidth must be positive and finite")
        ell = max(float(warm.bandwidth_px), cfg.bandwidth_floor_px)
        stage = 1
    damping = _LM_DAMPING_INIT
    history: list[dict] = []
    reg = _regularizer(prob, disp)
    converged = False
    for outer in range(cfg.max_outer_iters):
        idx, dist, okm = _match_neighbors(prob, proj.pix, proj.depth)
        gamma = np.where(okm[:, None], np.exp(-dist ** 2 / (2.0 * ell * ell)), 0.0)
        targets = _weighted_targets(prob, idx, np.nan_to_num(gamma))
        active = cfg.optimize_deformation and ell <= cfg.bandwidth_floor_px
        rot_locked = stage == 0
        # An accepted candidate's cost is the next inner iteration's starting
        # cost: same pose, displacements and frozen weights.
        cost0 = _surrogate_cost(prob, psi, proj, targets, ell, reg)
        for inner in range(_INNER_ITERS):
            app, apr, arr, gp, gr = _normal_equations(prob, pose, disp, proj, psi, targets, ell, active)
            accepted = False
            step = 0.0
            while True:
                try:
                    delta_p, delta_r = _solve_step(app, apr, arr, gp, gr, damping, rot_locked)
                except (np.linalg.LinAlgError, RuntimeError):
                    # Singular normal equations (or a singular splu factor)
                    # count as a rejected step; anything else is a bug.
                    delta_p, delta_r = None, None
                if delta_p is not None and np.all(np.isfinite(delta_p)):
                    cand_pose = pose.compose(se3_exp(delta_p))
                    if delta_r is None:
                        cand_disp, cand_reg = disp, reg
                    else:
                        cand_disp = disp + delta_r
                        cand_reg = _regularizer(prob, cand_disp)
                    cand_proj = _projection(prob, cand_pose, cand_disp)
                    cand_psi = _log_to_init(prob, cand_pose)
                    cost1 = _surrogate_cost(prob, cand_psi, cand_proj, targets, ell, cand_reg)
                else:
                    cost1 = np.inf
                if np.isfinite(cost1) and cost1 < cost0:
                    step = float(np.sqrt(np.sum(delta_p ** 2) + (0.0 if delta_r is None else np.sum(delta_r ** 2))))
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
                    pose, disp, proj, psi, reg, cost0 = cand_pose, cand_disp, cand_proj, cand_psi, cand_reg, cost1
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
            if ell <= cfg.bandwidth_floor_px:
                # A stall counts as convergence when the undamped Gauss-Newton
                # model promises no relative decrease above tol, so rounding
                # noise at the optimum is not read as failure.
                converged = not first_stalled or (
                    _predicted_decrease(app, apr, arr, gp, gr, rot_locked) <= _TOL * cost0
                )
                break
            ell = max(ell / 2.0, cfg.bandwidth_floor_px)
            stage += 1
            damping = _LM_DAMPING_INIT
            continue
        if (outer + 1) % _ANNEAL_EVERY == 0:
            ell = max(ell / 2.0, cfg.bandwidth_floor_px)
            stage += 1
    if not np.isfinite(cost0):
        raise FloatingPointError("registration surrogate cost is not finite")
    return RegistrationState(pose, disp, ell, iteration=outer + 1, converged=converged, diagnostics={"history": history})
