"""Rigid 3D-2D registration of a vessel tree to projected centerlines.

The data term is chamfer matching on a distance map (Borgefors, IEEE PAMI
1988): binding a frame rasterizes its 2D points and takes the Euclidean
distance transform of the image once, and each projected 3D centerline point
reads its distance ``d`` to the nearest image point bilinearly from that map.
Each point scores the Geman-McClure term ``d^2 / (d^2 + sigma^2)``, and the
rigid pose minimizes their sum over the image alone; the initial pose is only
where the search starts. The solver is iteratively reweighted least squares:
the weights ``sigma^2 / (d^2 + sigma^2)^2`` are frozen at the current state,
the weighted least-squares surrogate of the distances is stepped by
Levenberg-Marquardt, and the scale ``sigma`` is halved down to a floor. The
residual is a point-to-curve distance whose gradient is the curve normal, so
a model point may slide along the curve instead of being pulled onto one
image sample.

The distance transform is exact and separable (Felzenszwalb and
Huttenlocher, Theory of Computing 2012). A column pass gives each pixel its
vertical distance ``g`` to the nearest image point in its column. In each
row, the squared distance at ``x`` is then the lower envelope of the
parabolas ``(x - j)^2 + g_j^2`` over the columns ``j`` that hold a point,
and the parabolas on that envelope are the vertices of the lower convex hull
of the points ``(j, g_j^2 + j^2)``. All rows are pruned to their hulls at
once by repeated integer chord tests, and each pixel reads the parabola
whose integer crossings bracket it. The squared distance is an exact integer
until the final square root in float64.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .geometry import CameraModel, Pose, project_points, se3_exp
from .vessel_model import VesselTree


# Fixed solver schedule: outer iterations per scale halving, LM steps per
# reweighting, the step length (and relative predicted decrease) that ends a
# stage, and the Levenberg-Marquardt damping start, factors and cap.
_ANNEAL_EVERY = 5
_INNER_ITERS = 2
_TOL = 1e-6
_LM_DAMPING_INIT = 1e-3
_LM_DAMPING_UP = 10.0
_LM_DAMPING_DOWN = 10.0
_LM_DAMPING_CAP = 1e8
# Outer-iteration budget of one solve, and the smallest robust scale the
# annealing reaches.
_MAX_OUTER_ITERS = 80
_SIGMA_FLOOR_PX = 1.0


@dataclass
class RegistrationState:
    """Solver state: pose acts on centered model points, see RegistrationProblem.
    ``bandwidth_px`` is the robust scale sigma the solve ended at."""

    pose: Pose
    bandwidth_px: float
    iteration: int = 0
    converged: bool = False
    diagnostics: dict = field(default_factory=dict)


class RegistrationProblem:
    """Static data of one registration: model points, image points, camera.

    Model points are centered on their centroid so the rigid pose rotates the
    cloud about its own center; ``center`` restores world coordinates via
    ``world = centered + center``. ``points2`` None binds no frame: such a
    problem projects and lifts but cannot be solved until ``with_frame``.
    """

    def __init__(
        self,
        points3: np.ndarray,
        points2: np.ndarray | None,
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

    def _bind_frame(self, points2: np.ndarray | None, init_pose: Pose) -> None:
        self.init_pose = init_pose
        self.points2 = self.dist_map = None
        if points2 is not None:
            self.points2 = np.asarray(points2, dtype=float).reshape(-1, 2)
            self.dist_map = _distance_map(self.points2, self.cam.image_size)

    @staticmethod
    def from_tree(
        tree: VesselTree,
        cam: CameraModel,
        init_pose_world: Pose,
    ) -> "RegistrationProblem":
        """Build a problem over every centerline point of the tree, bound to no frame.

        ``init_pose_world`` maps tree coordinates to the camera frame; it is
        converted to act on centered points internally.
        """
        world, addresses = tree.flat_points()
        center = world.mean(axis=0)
        centered = world - center
        return RegistrationProblem(
            centered,
            None,
            cam,
            _pose_from_world(init_pose_world, center),
            addresses=addresses,
            center=center,
        )

    def with_frame(self, points2: np.ndarray, init_pose_world: Pose) -> "RegistrationProblem":
        """Same model rebound to a new image and start pose.

        The copy shares the model points with this problem; only the image
        points, their distance map and the start pose are its own. The map
        is the Euclidean distance transform of the image with every 2D point
        rounded to its pixel (points off the image are dropped), computed
        here once per frame. The start pose only seeds the search: nothing
        pulls the solve back to it. Over a static scene a tracker re-solves
        each frame cold from the last registered pose until a solve
        converges, then holds that pose.
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


def _distance_map(points2: np.ndarray, image_size: tuple[int, int]) -> np.ndarray:
    """(height, width) Euclidean distance from each pixel to the nearest
    image point rounded to a pixel; points off the image are dropped."""
    w, h = image_size
    # Off-image (and non-finite) points drop in float, before any cast.
    cells = np.rint(points2)
    cells = cells[np.all((cells >= 0) & (cells < (w, h)), axis=1)].astype(np.intp)
    if len(cells) < 1:
        raise ValueError("need at least one 2D point on the image")
    feature = np.zeros((h, w), dtype=bool)
    feature[cells[:, 1], cells[:, 0]] = True
    return _distance_transform(feature)


def _distance_transform(feature: np.ndarray) -> np.ndarray:
    """Exact Euclidean distance from each pixel of a (height, width) boolean
    image to its nearest True pixel, of which there must be one: the square
    root, in float64, of the integer squared distance."""
    h, w = feature.shape
    # Every integer below stays under (h^2 + w^2) * w in magnitude; int32
    # halves the memory traffic where that fits.
    itype = np.int32 if (h * h + w * w) * w < 2**31 else np.int64
    cols = np.flatnonzero(feature.any(axis=0)).astype(itype)
    hit = feature[:, cols]
    y = np.arange(h, dtype=itype)[:, None]
    above = np.maximum.accumulate(np.where(hit, y, -h), axis=0)
    below = np.minimum.accumulate(np.where(hit, y, 2 * h)[::-1], axis=0)[::-1]
    g = np.minimum(y - above, below - y)
    # One hull point (x, c) per row and feature column, row after row.
    row = np.repeat(np.arange(h, dtype=itype), len(cols))
    x = np.tile(cols, h)
    c = (g * g + cols * cols).ravel()
    while True:
        # A point that is not strictly below the chord of its neighbours in
        # its row is no hull vertex; dropping all such points at once leaves
        # every row's hull unchanged.
        inner = (row[1:-1] == row[:-2]) & (row[1:-1] == row[2:])
        dx, dc = np.diff(x), np.diff(c)
        drop = inner & (dc[:-1] * dx[1:] >= dc[1:] * dx[:-1])
        if not drop.any():
            break
        keep = np.concatenate(([True], ~drop, [True]))
        row, x, c = row[keep], x[keep], c[keep]
    # A vertex serves its row from the first integer past its crossing with
    # the vertex before it up to where the next vertex, or the next row,
    # starts; the starts are flat pixel indices.
    first = np.ones(len(row), dtype=bool)
    first[1:] = row[1:] != row[:-1]
    start = np.zeros(len(row), dtype=itype)
    start[1:] = (c[1:] - c[:-1]) // np.where(first[1:], 1, 2 * (x[1:] - x[:-1])) + 1
    start = row * w + np.where(first, 0, np.clip(start, 0, w))
    counts = np.diff(start, append=h * w)
    d2 = np.arange(h * w, dtype=itype) - np.repeat(row * w + x, counts)
    d2 *= d2
    d2 += np.repeat(c - x * x, counts)
    dist = d2.astype(np.float64).reshape(h, w)
    return np.sqrt(dist, out=dist)


# ---------------------------------------------------------------------------
# energies


class _Reading(NamedTuple):
    """The model points at one pose: pixels and depths, and the distance map's
    bilinear value and its exact pixel gradient at each pixel (0 behind the
    camera)."""

    pix: np.ndarray
    depth: np.ndarray
    dist: np.ndarray
    grad: np.ndarray


def _read(prob: RegistrationProblem, pose: Pose) -> _Reading:
    pix, depth = project_points(prob.points3, pose, prob.cam)
    front = depth > 0
    if front.all():
        return _Reading(pix, depth, *_bilinear(prob.dist_map, pix))
    dist, grad = _bilinear(prob.dist_map, np.where(front[:, None], pix, 0.0))
    return _Reading(pix, depth, np.where(front, dist, 0.0), np.where(front[:, None], grad, 0.0))


def _bilinear(dist_map: np.ndarray, pix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bilinear value of the map at each (x, y) pixel and the exact gradient
    of that interpolant. A pixel off the map reads the value at the nearest
    map point plus its distance to that point, which keeps the value
    continuous and an upper bound of the distance to the nearest image point.
    When every pixel is on the map, the same arithmetic runs without the
    clip and the off-map terms, and the gradient's columns are contiguous."""
    h, w = dist_map.shape
    on_map = bool(pix.min() >= 0.0 and pix[:, 0].max() <= w - 1.0 and pix[:, 1].max() <= h - 1.0)
    near = pix if on_map else np.clip(pix, 0.0, (w - 1.0, h - 1.0))
    # floor of a non-negative value, with the last row and column read as
    # the far side of the cell before them
    x0 = np.minimum(near[:, 0].astype(np.intp), max(w - 2, 0))
    y0 = np.minimum(near[:, 1].astype(np.intp), max(h - 2, 0))
    fx, fy = near[:, 0] - x0, near[:, 1] - y0
    # the four corners from shifted views of the flat map; a map one pixel
    # wide (or high) reads its one column (or row) on both sides
    flat, i = dist_map.ravel(), y0 * w + x0
    right, down = int(w > 1), w * (h > 1)
    d00, d01, d10, d11 = flat[i], flat[right:][i], flat[down:][i], flat[down + right :][i]
    top = d00 + fx * (d01 - d00)
    bottom = d10 + fx * (d11 - d10)
    grad = np.array((d01 - d00 + fy * (d11 - d10 - d01 + d00), bottom - top))
    if on_map:
        return top + fy * grad[1], grad.T
    off = pix - near
    extra = np.hypot(off[:, 0], off[:, 1])
    grad = np.where(off != 0.0, off / np.where(extra > 0.0, extra, 1.0)[:, None], grad.T)
    return top + fy * (bottom - top) + extra, grad


def reprojection_rmse(prob: RegistrationProblem, state: RegistrationState, reference_pix: np.ndarray) -> float:
    """RMSE between current projections and reference pixels over visible points."""
    pix, depth = project_points(prob.points3, state.pose, prob.cam)
    ok = depth > 0
    err = pix[ok] - np.asarray(reference_pix, dtype=float)[ok]
    return float(np.sqrt(np.mean(np.sum(err * err, axis=1))))


# ---------------------------------------------------------------------------
# IRLS + Levenberg-Marquardt solver

_DIAG_FLOOR = 1e-12


def _weights(cur: _Reading, sigma: float) -> np.ndarray:
    """Geman-McClure IRLS weights sigma^2 / (d^2 + sigma^2)^2; 0 behind the camera."""
    return np.where(cur.depth > 0, sigma * sigma / (cur.dist * cur.dist + sigma * sigma) ** 2, 0.0)


def _surrogate_cost(cur: _Reading, weights: np.ndarray) -> float:
    """Weighted least-squares surrogate sum_i w_i d_i^2 / 2 with frozen
    weights, over the points in front of the camera.

    ``cur`` is ``_read(prob, pose)``, passed in so that the solver reads the
    map once per state.
    """
    return 0.5 * float(np.sum(weights * cur.dist * cur.dist, where=cur.depth > 0))


def _distance_jacobian(prob: RegistrationProblem, pose: Pose, cur: _Reading) -> np.ndarray:
    """(n, 6) C-ordered pose (twist) Jacobian of every point's map distance:
    its pixel gradient times its 2x6 pixel Jacobian, built column by column;
    zero rows behind the camera."""
    ok = cur.depth > 0
    m = prob.cam.intrinsics[:, :3] @ pose.rotation
    pix = cur.pix.T.copy()  # contiguous columns, as the gradient's are
    np.copyto(pix, 0.0, where=~ok)
    inv_depth = np.divide(1.0, cur.depth, out=np.zeros(len(ok)), where=ok)
    y0, y1, y2 = prob.points3.T.copy()
    blocks = []
    for a in range(2):
        # d(pix_a)/dy = (M[a] - pix_a M[2]) / depth with M = A R
        h = [(m[a, b] - pix[a] * m[2, b]) * inv_depth for b in range(3)]
        # rotation columns: -h skew(y), i.e. y x h
        blocks.append([*h, y1 * h[2] - y2 * h[1], y2 * h[0] - y0 * h[2], y0 * h[1] - y1 * h[0]])
    gx, gy = cur.grad.T
    return np.column_stack([gx * jx + gy * jy for jx, jy in zip(*blocks)])


def _normal_equations(prob, pose, cur, weights):
    """Gauss-Newton matrix A and gradient g of the surrogate at the pose."""
    rows = _distance_jacobian(prob, pose, cur)
    weighted = rows * weights[:, None]
    return weighted.T @ rows, weighted.T @ cur.dist


def _solve_step(app, gp, damping, rotation_locked=False):
    """One damped normal-equation solve for the pose twist step.

    With ``rotation_locked`` the rotation half of the step stays zero.
    """
    n = 3 if rotation_locked else 6
    app_d = app[:n, :n] + 0.0  # a copy, with -0.0 made 0.0 as a damping matrix's zeros would
    app_d.ravel()[:: n + 1] += damping * np.maximum(app.diagonal()[:n], _DIAG_FLOOR)
    delta_p = np.zeros(6)
    delta_p[:n] = np.linalg.solve(app_d, -gp[:n])
    return delta_p


def _predicted_decrease(app, gp) -> float:
    """Surrogate decrease the undamped Gauss-Newton step promises, g'A^+ g / 2.

    A^+ is the pseudo-inverse: g = J'r lies in the range of A = J'J, so a
    singular A (say, a direction the distances do not see) still gives the
    decrease of the shortest Gauss-Newton step.
    """
    return 0.5 * float(gp @ np.linalg.lstsq(app, gp, rcond=None)[0])


def solve(prob: RegistrationProblem) -> RegistrationState:
    """Run IRLS with LM inner steps and robust-scale annealing over the pose.

    The solve starts at ``prob.init_pose`` with sigma twice the largest
    distance any model point reads there (not below ``_SIGMA_FLOOR_PX``) and
    the rotation locked for the first stage, so a far start first slides the
    model into place. Each outer iteration freezes the Geman-McClure weights
    at the current pose and takes up to ``_INNER_ITERS`` LM steps on the
    surrogate, whose cost never increases across accepted steps. A stage ends,
    and sigma halves, when a freshly reweighted surrogate yields no meaningful
    first step, or after ``_ANNEAL_EVERY`` outer iterations. Damping starts at
    ``_LM_DAMPING_INIT`` in each stage and again after a step that no damping
    up to the cap could make, so a stage never ends on one trial at the cap.

    The solve ends at the floor scale, in a stage after the rotation-locked
    one. ``converged`` is True when it stopped there with the freshly
    reweighted surrogate solved: either its first LM step was shorter
    than ``_TOL``, or no LM step lowered it and the undamped Gauss-Newton step
    promises a relative decrease of at most ``_TOL``. A solve that runs out of
    ``_MAX_OUTER_ITERS`` reports False.
    """
    if prob.dist_map is None:
        raise ValueError("the problem has no frame; bind one with with_frame")
    pose = prob.init_pose
    # the map reading of the current pose; an accepted candidate brings its own
    cur = _read(prob, pose)
    sigma = max(2.0 * float(np.max(cur.dist, initial=0.0)), _SIGMA_FLOOR_PX)
    rot_locked = True  # until the first stage ends
    damping = _LM_DAMPING_INIT
    history: list[dict] = []
    converged = False
    for outer in range(_MAX_OUTER_ITERS):
        weights = _weights(cur, sigma)
        # An accepted candidate's cost is the next inner iteration's starting
        # cost: same pose and frozen weights.
        cost0 = _surrogate_cost(cur, weights)
        for inner in range(_INNER_ITERS):
            app, gp = _normal_equations(prob, pose, cur, weights)
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
                    cand = _read(prob, cand_pose)
                    cost1 = _surrogate_cost(cand, weights)
                else:
                    cost1 = np.inf
                if np.isfinite(cost1) and cost1 < cost0:
                    step = float(np.sqrt(np.sum(delta_p ** 2)))
                    history.append(
                        {
                            "outer": outer,
                            "bandwidth": sigma,
                            "cost_before": cost0,
                            "cost_after": cost1,
                            "damping": damping,
                            "step_norm": step,
                            "accepted": True,
                        }
                    )
                    pose, cur, cost0 = cand_pose, cand, cost1
                    damping = max(damping / _LM_DAMPING_DOWN, 1e-12)
                    accepted = True
                    break
                damping *= _LM_DAMPING_UP
                if damping > _LM_DAMPING_CAP:
                    damping = _LM_DAMPING_INIT
                    break
            if inner == 0:
                first_step = step if accepted else 0.0
                first_stalled = not accepted
            if not accepted or step < _TOL:
                break
        # The stage is exhausted only when a freshly reweighted surrogate
        # yields no meaningful first step; small trailing inner steps just
        # mean this one surrogate is solved.
        stalled = first_stalled or first_step < _TOL
        if stalled and not rot_locked and sigma <= _SIGMA_FLOOR_PX:
            # A stall counts as convergence when the undamped Gauss-Newton
            # model promises no relative decrease above tol, so rounding
            # noise at the optimum is not read as failure.
            converged = not first_stalled or _predicted_decrease(app, gp) <= _TOL * cost0
            break
        if stalled or (outer + 1) % _ANNEAL_EVERY == 0:
            sigma = max(sigma / 2.0, _SIGMA_FLOOR_PX)
            rot_locked = False
            damping = _LM_DAMPING_INIT
    if not np.isfinite(cost0):
        raise FloatingPointError("registration surrogate cost is not finite")
    return RegistrationState(pose, sigma, iteration=outer + 1, converged=converged, diagnostics={"history": history})
