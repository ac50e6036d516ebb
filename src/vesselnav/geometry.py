"""Rigid transforms, pinhole projection, and Lie-group helpers.

Conventions used throughout the package:

* poses map world coordinates into camera coordinates, ``z = R x + t``
* the camera looks along +z, so visible points have positive depth
* twist vectors are ordered ``[translation, rotation]``
* image coordinates are ``(x, y)`` pixels with x along columns
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_SMALL_ANGLE = 1e-6

# Pose accepts R when every entry of R R^T is within these bounds of the
# identity: np.allclose(R R^T, I, atol=1e-9) written out, whose per-entry
# tolerance is atol + rtol * |I| with rtol = 1e-5. NaN entries fail.
_EYE3 = np.eye(3)
_ORTHONORMAL_TOL = 1e-9 + 1e-5 * _EYE3
_EYE3.setflags(write=False)
_ORTHONORMAL_TOL.setflags(write=False)


class BehindCameraError(ValueError):
    """Point has non-positive depth in the camera frame."""


def _skew(v: np.ndarray) -> np.ndarray:
    return np.array(
        [
            [0.0, -v[2], v[1]],
            [v[2], 0.0, -v[0]],
            [-v[1], v[0], 0.0],
        ]
    )


def so3_exp(omega: np.ndarray) -> np.ndarray:
    """Rotation matrix for an axis-angle vector."""
    omega = np.asarray(omega, dtype=float)
    theta = float(np.linalg.norm(omega))
    k = _skew(omega)
    if theta < _SMALL_ANGLE:
        # Second order Taylor expansion keeps orthonormality to machine precision.
        return np.eye(3) + k + 0.5 * (k @ k)
    a = np.sin(theta) / theta
    b = (1.0 - np.cos(theta)) / (theta * theta)
    return np.eye(3) + a * k + b * (k @ k)


def so3_log(rot: np.ndarray) -> np.ndarray:
    """Axis-angle vector of a rotation matrix."""
    rot = np.asarray(rot, dtype=float)
    w = 0.5 * np.array([rot[2, 1] - rot[1, 2], rot[0, 2] - rot[2, 0], rot[1, 0] - rot[0, 1]])
    s = float(np.linalg.norm(w))
    c = 0.5 * (float(np.trace(rot)) - 1.0)
    theta = float(np.arctan2(s, np.clip(c, -1.0, 1.0)))
    if s > _SMALL_ANGLE:
        return w * (theta / s)
    if c > 0.0:
        # theta/sin(theta) expansion near zero.
        return w * (1.0 + theta * theta / 6.0)
    # Near pi the off-diagonal differences vanish; recover the axis from R + I.
    m = rot + np.eye(3)
    k = int(np.argmax(np.diag(m)))
    axis = m[:, k]
    axis = axis / np.linalg.norm(axis)
    return axis * theta


def _so3_left_jacobian(omega: np.ndarray) -> np.ndarray:
    theta = float(np.linalg.norm(omega))
    k = _skew(omega)
    if theta < _SMALL_ANGLE:
        return np.eye(3) + 0.5 * k + (k @ k) / 6.0
    b = (1.0 - np.cos(theta)) / (theta * theta)
    c = (theta - np.sin(theta)) / (theta ** 3)
    return np.eye(3) + b * k + c * (k @ k)


def _so3_left_jacobian_inv(omega: np.ndarray) -> np.ndarray:
    theta = float(np.linalg.norm(omega))
    k = _skew(omega)
    if theta < _SMALL_ANGLE:
        return np.eye(3) - 0.5 * k + (k @ k) / 12.0
    coef = 1.0 / (theta * theta) - (1.0 + np.cos(theta)) / (2.0 * theta * np.sin(theta))
    return np.eye(3) - 0.5 * k + coef * (k @ k)


def _se3_q_matrix(upsilon: np.ndarray, omega: np.ndarray) -> np.ndarray:
    # Coupling block of the SE(3) left Jacobian (closed form with Taylor guards).
    r = _skew(upsilon)
    p = _skew(omega)
    theta = float(np.linalg.norm(omega))
    if theta < 1e-4:
        c1 = 1.0 / 6.0 - theta * theta / 120.0
        c2 = 1.0 / 24.0 - theta * theta / 720.0
        c3 = -1.0 / 120.0 + theta * theta / 5040.0
    else:
        t2 = theta * theta
        c1 = (theta - np.sin(theta)) / (t2 * theta)
        c2 = (np.cos(theta) - 1.0 + t2 / 2.0) / (t2 * t2)
        c3 = (theta - np.sin(theta) - t2 * theta / 6.0) / (t2 * t2 * theta)
    q = 0.5 * r
    q += c1 * (p @ r + r @ p + p @ r @ p)
    q += c2 * (p @ p @ r + r @ p @ p - 3.0 * (p @ r @ p))
    q += 0.5 * (c2 + 3.0 * c3) * (p @ r @ p @ p + p @ p @ r @ p)
    return q


def se3_left_jacobian_inv(xi: np.ndarray) -> np.ndarray:
    xi = np.asarray(xi, dtype=float)
    upsilon, omega = xi[:3], xi[3:]
    jinv = _so3_left_jacobian_inv(omega)
    q = _se3_q_matrix(upsilon, omega)
    out = np.zeros((6, 6))
    out[:3, :3] = jinv
    out[:3, 3:] = -jinv @ q @ jinv
    out[3:, 3:] = jinv
    return out


def se3_right_jacobian_inv(xi: np.ndarray) -> np.ndarray:
    """Inverse right Jacobian, d/d(delta) log(exp(xi) exp(delta)) at delta = 0."""
    return se3_left_jacobian_inv(-np.asarray(xi, dtype=float))


@dataclass(frozen=True)
class Pose:
    """Rigid transform with a 3x3 rotation and a 3-vector translation."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self) -> None:
        rot = np.asarray(self.rotation, dtype=float).reshape(3, 3)
        tra = np.asarray(self.translation, dtype=float).reshape(3)
        object.__setattr__(self, "rotation", rot)
        object.__setattr__(self, "translation", tra)
        if not (np.abs(rot @ rot.T - _EYE3) <= _ORTHONORMAL_TOL).all():
            raise ValueError("rotation is not orthonormal")
        (a, b, c), (d, e, f), (g, h, i) = rot.tolist()
        if abs(a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g) - 1.0) > 1e-9:
            raise ValueError("rotation determinant is not +1")

    def compose(self, other: "Pose") -> "Pose":
        return Pose(self.rotation @ other.rotation, self.rotation @ other.translation + self.translation)

    def inverse(self) -> "Pose":
        rt = self.rotation.T
        return Pose(rt, -rt @ self.translation)

    def apply(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        return pts @ self.rotation.T + self.translation


def se3_exp(xi: np.ndarray) -> Pose:
    """Pose for a twist ``[translation, rotation]``."""
    xi = np.asarray(xi, dtype=float).reshape(6)
    upsilon, omega = xi[:3], xi[3:]
    return Pose(so3_exp(omega), _so3_left_jacobian(omega) @ upsilon)


def se3_log(pose: Pose) -> np.ndarray:
    """Twist ``[translation, rotation]`` of a pose."""
    omega = so3_log(pose.rotation)
    upsilon = _so3_left_jacobian_inv(omega) @ pose.translation
    return np.concatenate([upsilon, omega])


@dataclass(frozen=True)
class CameraModel:
    """Pinhole camera with a 3x4 intrinsic matrix.

    ``image_size`` is (width, height) in pixels.
    """

    intrinsics: np.ndarray
    image_size: tuple[int, int]

    def __post_init__(self) -> None:
        k = np.asarray(self.intrinsics, dtype=float).reshape(3, 4)
        object.__setattr__(self, "intrinsics", k)
        object.__setattr__(self, "image_size", (int(self.image_size[0]), int(self.image_size[1])))
        if np.linalg.matrix_rank(k) != 3:
            raise ValueError("intrinsic matrix must have full row rank")
        if self.image_size[0] <= 0 or self.image_size[1] <= 0:
            raise ValueError("image size must be positive")

    @staticmethod
    def standard(
        focal_px: float = 2500.0,
        image_size: tuple[int, int] = (512, 512),
    ) -> "CameraModel":
        w, h = image_size
        k = np.array(
            [
                [focal_px, 0.0, w / 2.0, 0.0],
                [0.0, focal_px, h / 2.0, 0.0],
                [0.0, 0.0, 1.0, 0.0],
            ]
        )
        return CameraModel(k, image_size)

    def scale_px_per_mm(self, depth: float) -> float:
        # Image-plane magnification of a small object at the given depth.
        fx = abs(float(self.intrinsics[0, 0]))
        fy = abs(float(self.intrinsics[1, 1]))
        return 0.5 * (fx + fy) / depth


def project(point3: np.ndarray, pose: Pose, cam: CameraModel) -> np.ndarray:
    """Project one world point to pixel coordinates.

    Raises BehindCameraError when the point has non-positive depth.
    """
    pix, depth = project_points(point3, pose, cam)
    if depth[0] <= 0.0:
        raise BehindCameraError(f"point at depth {depth[0]:.6g} is behind the camera")
    return pix[0]


def project_points(points3: np.ndarray, pose: Pose, cam: CameraModel) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized projection.

    Returns (pixels (N,2), depth (N,)). Rows with depth <= 0 hold NaN pixels;
    callers filter on depth instead of catching exceptions.
    """
    z = pose.apply(np.asarray(points3, dtype=float).reshape(-1, 3))
    h = z @ cam.intrinsics[:, :3].T + cam.intrinsics[:, 3]
    depth = h[:, 2].copy()
    pix = np.full((len(h), 2), np.nan)
    ok = depth > 0.0
    pix[ok] = h[ok, :2] / depth[ok, None]
    return pix, depth
