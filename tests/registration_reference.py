"""Reference path for the registration tests: the distance map by brute force.

The solver reads each model point's distance from a Euclidean distance
transform of the frame. ``reference_distance`` rebuilds that reading without
the transform: it rounds the frame's points to pixels in a loop, finds each
grid pixel's nearest one by a nested loop, and interpolates bilinearly (a
pixel off the image reads the nearest image point's value plus its distance
to it). ``_dense_residuals`` stacks the weighted reference distances, and
``_fd_jacobian`` differentiates them by central differences, for the
solver's analytic Jacobian (``_dense_jacobian``) to be checked against.
``eval_objective`` is the energy oracle: the Geman-McClure data term at a
state, which the solver itself never evaluates. ``brute_force_transform``
is the distance transform itself by brute force, for the exactness tests of
the separable one.

``masked_project_points``, ``masked_bilinear``, ``masked_read`` and
``masked_distance_jacobian`` are frozen copies of the projection, map reading
and Jacobian that apply every behind-camera and off-map mask to every row,
and ``two_diag_solve_step`` is a frozen copy of the damped step that builds
the damping as a matrix from two ``np.diag``: the bit-exactness tests check
that the solver's routines give the same floats, bit for bit.
"""

import math
from dataclasses import dataclass

import numpy as np

from vesselnav.geometry import CameraModel, Pose, project_points, se3_exp
from vesselnav.registration import RegistrationProblem, RegistrationState, _distance_jacobian, _read


@dataclass(frozen=True)
class EnergyBreakdown:
    data: float
    behind_camera: tuple[int, ...] = ()


def eval_objective(prob: RegistrationProblem, state: RegistrationState) -> EnergyBreakdown:
    """Data term sum_i d_i^2 / (d_i^2 + sigma^2) / 2 at the state, with sigma
    its ``bandwidth_px``, over the solver's map reading."""
    cur = _read(prob, state.pose)
    ok = cur.depth > 0
    d2 = cur.dist[ok] ** 2
    data = 0.5 * float(np.sum(d2 / (d2 + state.bandwidth_px**2)))
    return EnergyBreakdown(data, tuple(np.flatnonzero(~ok)))


def rasterized(prob: RegistrationProblem) -> list[tuple[int, int]]:
    """The frame's points rounded to (x, y) pixels, those off the image dropped."""
    w, h = prob.cam.image_size
    cells = []
    for x, y in prob.points2:
        if math.isfinite(x) and math.isfinite(y):
            cx, cy = round(x), round(y)
            if 0 <= cx < w and 0 <= cy < h:
                cells.append((cx, cy))
    return cells


def _grid_distance(cells, gx: int, gy: int) -> float:
    best = math.inf
    for cx, cy in cells:
        best = min(best, math.sqrt((gx - cx) ** 2 + (gy - cy) ** 2))
    return best


def brute_force_transform(feature: np.ndarray) -> np.ndarray:
    """sqrt(float(d2)) at each pixel of a (height, width) boolean image, with
    d2 the least integer squared distance to a True pixel over every one."""
    h, w = feature.shape
    ys, xs = np.mgrid[:h, :w]
    best = np.full((h, w), np.iinfo(np.int64).max)
    for fy, fx in np.argwhere(feature):
        np.minimum(best, (ys - fy) ** 2 + (xs - fx) ** 2, out=best)
    return np.sqrt(best.astype(np.float64))


def reference_distance(prob: RegistrationProblem, pixel, cells=None) -> float:
    """Bilinear distance reading at one (x, y) pixel from brute-force grid
    distances to ``cells``, by default ``rasterized(prob)``."""
    w, h = prob.cam.image_size
    x, y = float(pixel[0]), float(pixel[1])
    nx, ny = min(max(x, 0.0), w - 1.0), min(max(y, 0.0), h - 1.0)
    x0, y0 = min(math.floor(nx), w - 2), min(math.floor(ny), h - 2)
    fx, fy = nx - x0, ny - y0
    cells = rasterized(prob) if cells is None else cells
    d = (
        (1 - fx) * (1 - fy) * _grid_distance(cells, x0, y0)
        + fx * (1 - fy) * _grid_distance(cells, x0 + 1, y0)
        + (1 - fx) * fy * _grid_distance(cells, x0, y0 + 1)
        + fx * fy * _grid_distance(cells, x0 + 1, y0 + 1)
    )
    return d + math.hypot(x - nx, y - ny)


def _dense_residuals(prob, pose, weights):
    """sqrt(w_i) d_i of every point in front of the camera, from the reference reading."""
    pix, depth = project_points(prob.points3, pose, prob.cam)
    cells = rasterized(prob)
    rows = []
    for i in range(len(pix)):
        if depth[i] > 0:
            rows.append(math.sqrt(weights[i]) * reference_distance(prob, pix[i], cells))
    return np.array(rows)


def _dense_jacobian(prob, pose, weights):
    """The solver's analytic Jacobian of _dense_residuals w.r.t. the pose twist."""
    cur = _read(prob, pose)
    ok = cur.depth > 0
    return np.sqrt(weights[ok])[:, None] * _distance_jacobian(prob, pose, cur)[ok]


def _fd_jacobian(prob, pose, weights, eps=1e-6):
    """Central differences of _dense_residuals w.r.t. the pose twist, and a
    mask of the rows whose pixel stayed inside one bilinear cell (the one it
    starts in) over every step; only those rows are differentiable there."""
    w, h = prob.cam.image_size

    def cell(tw):
        pix, depth = project_points(prob.points3, pose.compose(se3_exp(tw)), prob.cam)
        pix = pix[depth > 0]
        return np.minimum(np.floor(np.clip(pix, 0.0, (w - 1.0, h - 1.0))), (w - 2.0, h - 2.0))

    def residual_at(tw):
        return _dense_residuals(prob, pose.compose(se3_exp(tw)), weights)

    base = cell(np.zeros(6))
    same = np.ones(len(base), dtype=bool)
    j = np.zeros((len(base), 6))
    for c in range(6):
        tw = np.zeros(6)
        tw[c] = eps
        hi = residual_at(tw)
        same &= np.all(cell(tw) == base, axis=1)
        tw[c] = -eps
        j[:, c] = (hi - residual_at(tw)) / (2 * eps)
        same &= np.all(cell(tw) == base, axis=1)
    return j, same


def masked_project_points(points3: np.ndarray, pose: Pose, cam: CameraModel) -> tuple[np.ndarray, np.ndarray]:
    """Pixels and depths; every row goes through the NaN buffer and the
    in-front gather."""
    z = np.asarray(points3, dtype=float).reshape(-1, 3) @ pose.rotation.T + pose.translation
    h = z @ cam.intrinsics[:, :3].T + cam.intrinsics[:, 3]
    depth = h[:, 2].copy()
    pix = np.full((len(h), 2), np.nan)
    ok = depth > 0.0
    pix[ok] = h[ok, :2] / depth[ok, None]
    return pix, depth


def masked_bilinear(dist_map: np.ndarray, pix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bilinear value and gradient, every pixel clipped to the map and
    charged its (possibly zero) distance off it."""
    h, w = dist_map.shape
    near = np.clip(pix, 0.0, (w - 1.0, h - 1.0))
    x0 = np.minimum(near[:, 0].astype(np.intp), max(w - 2, 0))
    y0 = np.minimum(near[:, 1].astype(np.intp), max(h - 2, 0))
    x1, y1 = np.minimum(x0 + 1, w - 1), np.minimum(y0 + 1, h - 1)
    fx, fy = near[:, 0] - x0, near[:, 1] - y0
    d00, d01 = dist_map[y0, x0], dist_map[y0, x1]
    d10, d11 = dist_map[y1, x0], dist_map[y1, x1]
    top = d00 + fx * (d01 - d00)
    bottom = d10 + fx * (d11 - d10)
    grad = np.column_stack((d01 - d00 + fy * (d11 - d10 - d01 + d00), bottom - top))
    off = pix - near
    extra = np.hypot(off[:, 0], off[:, 1])
    grad = np.where(off != 0.0, off / np.where(extra > 0.0, extra, 1.0)[:, None], grad)
    return top + fy * (bottom - top) + extra, grad


def masked_read(prob: RegistrationProblem, pose: Pose):
    """(pix, depth, dist, grad) with the behind-camera masks on every row."""
    pix, depth = masked_project_points(prob.points3, pose, prob.cam)
    dist, grad = masked_bilinear(prob.dist_map, np.where(depth[:, None] > 0, pix, 0.0))
    return pix, depth, np.where(depth > 0, dist, 0.0), np.where(depth[:, None] > 0, grad, 0.0)


def masked_distance_jacobian(prob: RegistrationProblem, pose: Pose, pix, depth, grad) -> np.ndarray:
    """(n, 6) distance Jacobian from (n, 2, 6) pixel Jacobian blocks contracted
    with the pixel gradients by ``einsum``."""
    ok = depth > 0
    m = prob.cam.intrinsics[:, :3] @ pose.rotation
    pix = np.where(ok[:, None], pix, 0.0)
    inv_depth = np.divide(1.0, depth, out=np.zeros(len(ok)), where=ok)
    h_blocks = (m[:2] - pix[:, :, None] * m[2]) * inv_depth[:, None, None]
    g_blocks = np.empty((len(ok), 2, 6))
    g_blocks[:, :, :3] = h_blocks
    y = prob.points3[:, None, :]
    g_blocks[:, :, 3] = y[..., 1] * h_blocks[..., 2] - y[..., 2] * h_blocks[..., 1]
    g_blocks[:, :, 4] = y[..., 2] * h_blocks[..., 0] - y[..., 0] * h_blocks[..., 2]
    g_blocks[:, :, 5] = y[..., 0] * h_blocks[..., 1] - y[..., 1] * h_blocks[..., 0]
    return np.einsum("nk,nkj->nj", grad, g_blocks)


def two_diag_solve_step(app, gp, damping, rotation_locked=False):
    """The LM step from A + damping * diag(max(diag(A), 1e-12)), solved on
    the free block (the translation alone when rotation-locked)."""
    dp_diag = np.maximum(np.diag(app), 1e-12)
    app_d = app + damping * np.diag(dp_diag)
    free = slice(0, 3 if rotation_locked else 6)
    delta_p = np.zeros(6)
    delta_p[free] = np.linalg.solve(app_d[free, free], -gp[free])
    return delta_p
