"""Rigid transforms, pinhole projection (``project_points``), and the SE(3) exponential.

Conventions used throughout the package:

* poses map world coordinates into camera coordinates, ``z = R x + t``
* the camera looks along +z, so visible points have positive depth
* twist vectors are ordered ``[translation, rotation]``
* image coordinates are ``(x, y)`` pixels with x along columns
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_SMALL_ANGLE = 1e-6

# Pose accepts R when each of the six distinct entries of R R^T is within
# these bounds of the identity: np.allclose(R R^T, I, atol=1e-9) written out,
# whose per-entry tolerance is atol + rtol * |I| with rtol = 1e-5. A NaN fails.
_DIAG_TOL = 1e-9 + 1e-5
_OFF_DIAG_TOL = 1e-9


def _skew(v: np.ndarray) -> np.ndarray:
    return np.array(
        [
            [0.0, -v[2], v[1]],
            [v[2], 0.0, -v[0]],
            [-v[1], v[0], 0.0],
        ]
    )


@dataclass(frozen=True)
class Pose:
    """Rigid transform with a 3x3 rotation and a finite 3-vector translation."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self) -> None:
        rot = np.asarray(self.rotation, dtype=float).reshape(3, 3)
        tra = np.asarray(self.translation, dtype=float).reshape(3)
        object.__setattr__(self, "rotation", rot)
        object.__setattr__(self, "translation", tra)
        (a, b, c), (d, e, f), (g, h, i) = rot.tolist()
        if not (
            abs(a * a + b * b + c * c - 1.0) <= _DIAG_TOL and abs(d * d + e * e + f * f - 1.0) <= _DIAG_TOL
            and abs(g * g + h * h + i * i - 1.0) <= _DIAG_TOL and abs(a * d + b * e + c * f) <= _OFF_DIAG_TOL
            and abs(a * g + b * h + c * i) <= _OFF_DIAG_TOL and abs(d * g + e * h + f * i) <= _OFF_DIAG_TOL
        ):
            raise ValueError("rotation is not orthonormal")
        if abs(a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g) - 1.0) > 1e-9:
            raise ValueError("rotation determinant is not +1")
        if not all(map(math.isfinite, tra.tolist())):
            raise ValueError("translation is not finite")

    def compose(self, other: "Pose") -> "Pose":
        return Pose(self.rotation @ other.rotation, self.rotation @ other.translation + self.translation)


def se3_exp(xi: np.ndarray) -> Pose:
    """Pose for a twist ``[translation, rotation]``: the rotation's Rodrigues
    formula and the translation through the SO(3) left Jacobian, both from
    one angle, skew matrix and its square."""
    xi = np.asarray(xi, dtype=float).reshape(6)
    upsilon, omega = xi[:3], xi[3:]
    theta = float(np.linalg.norm(omega))
    k = _skew(omega)
    kk = k @ k
    if theta < _SMALL_ANGLE:
        # Second order Taylor expansions keep orthonormality to machine precision.
        rotation = np.eye(3) + k + 0.5 * kk
        jacobian = np.eye(3) + 0.5 * k + kk / 6.0
    else:
        sin = np.sin(theta)
        b = (1.0 - np.cos(theta)) / (theta * theta)
        rotation = np.eye(3) + (sin / theta) * k + b * kk
        jacobian = np.eye(3) + b * k + ((theta - sin) / (theta ** 3)) * kk
    return Pose(rotation, jacobian @ upsilon)


@dataclass(frozen=True)
class CameraModel:
    """Pinhole camera with a 3x4 intrinsic matrix, held as a read-only copy.

    ``image_size`` is (width, height) in pixels. Cameras of equal image
    sizes and intrinsic values are equal and hash alike.
    """

    intrinsics: np.ndarray
    image_size: tuple[int, int]

    def __post_init__(self) -> None:
        k = np.array(self.intrinsics, dtype=float).reshape(3, 4)
        k.flags.writeable = False
        object.__setattr__(self, "intrinsics", k)
        object.__setattr__(self, "image_size", (int(self.image_size[0]), int(self.image_size[1])))
        if not np.isfinite(k).all():
            raise ValueError("intrinsic matrix must be finite")
        if np.linalg.matrix_rank(k) != 3:
            raise ValueError("intrinsic matrix must have full row rank")
        if self.image_size[0] <= 0 or self.image_size[1] <= 0:
            raise ValueError("image size must be positive")

    def __eq__(self, other: object) -> bool:
        return isinstance(other, CameraModel) and self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())  # float hashes agree with ==: hash(-0.0) == hash(0.0)

    def _values(self) -> tuple:
        return (self.image_size, *self.intrinsics.ravel().tolist())

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
    callers filter on depth instead of catching exceptions. Each offset is
    added, and the depth divided out, by a C-order pass over transposed
    views: one long loop per coordinate, with the floats of a broadcast over
    rows of three or two.
    """
    z = np.asarray(points3, dtype=float).reshape(-1, 3) @ pose.rotation.T
    np.add(z.T, pose.translation[:, None], out=z.T, order="C")
    h = z @ cam.intrinsics[:, :3].T
    np.add(h.T, cam.intrinsics[:, 3:], out=h.T, order="C")
    depth = h[:, 2].copy()
    pix = np.full((len(h), 2), np.nan)
    np.divide(h[:, :2].T, depth, out=pix.T, where=depth > 0.0, order="C")
    return pix, depth
