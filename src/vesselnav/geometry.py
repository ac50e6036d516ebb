"""Rigid transforms, pinhole projection (``project_points``), and the SE(3) exponential.

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


def _so3_left_jacobian(omega: np.ndarray) -> np.ndarray:
    theta = float(np.linalg.norm(omega))
    k = _skew(omega)
    if theta < _SMALL_ANGLE:
        return np.eye(3) + 0.5 * k + (k @ k) / 6.0
    b = (1.0 - np.cos(theta)) / (theta * theta)
    c = (theta - np.sin(theta)) / (theta ** 3)
    return np.eye(3) + b * k + c * (k @ k)


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

    def apply(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        return pts @ self.rotation.T + self.translation


def se3_exp(xi: np.ndarray) -> Pose:
    """Pose for a twist ``[translation, rotation]``."""
    xi = np.asarray(xi, dtype=float).reshape(6)
    upsilon, omega = xi[:3], xi[3:]
    return Pose(so3_exp(omega), _so3_left_jacobian(omega) @ upsilon)


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
        if not np.isfinite(k).all():
            raise ValueError("intrinsic matrix must be finite")
        if np.linalg.matrix_rank(k) != 3:
            raise ValueError("intrinsic matrix must have full row rank")
        if self.image_size[0] <= 0 or self.image_size[1] <= 0:
            raise ValueError("image size must be positive")

    @staticmethod
    def standard(focal_px: float = 2500.0, width: int = 512, height: int = 512) -> "CameraModel":
        """Square pixels of ``focal_px`` focal length and the principal point
        at the image centre; the parameters are the ``[camera]`` config keys."""
        k = np.array(
            [
                [focal_px, 0.0, width / 2.0, 0.0],
                [0.0, focal_px, height / 2.0, 0.0],
                [0.0, 0.0, 1.0, 0.0],
            ]
        )
        return CameraModel(k, (width, height))

    def scale_px_per_mm(self, depth: float) -> float:
        # Image-plane magnification of a small object at the given depth.
        fx = abs(float(self.intrinsics[0, 0]))
        fy = abs(float(self.intrinsics[1, 1]))
        return 0.5 * (fx + fy) / depth


def project_points(points3: np.ndarray, pose: Pose, cam: CameraModel) -> tuple[np.ndarray, np.ndarray]:
    """Project world points to pixel coordinates; a single point is row 0.

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
