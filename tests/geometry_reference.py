"""Reference path for the geometry tests: the homogeneous 4x4 matrix of a
pose, a frozen SE(3) exponential that builds the rotation and the left
Jacobian in two passes, each with its own angle and skew matrix, and the
frozen rotation check that forms R R^T as a matrix."""

import numpy as np

from vesselnav.geometry import Pose


def pose_matrix(pose: Pose) -> np.ndarray:
    """Homogeneous 4x4 matrix of ``pose``."""
    out = np.eye(4)
    out[:3, :3] = pose.rotation
    out[:3, 3] = pose.translation
    return out


def _skew(v):
    return np.array([[0.0, -v[2], v[1]], [v[2], 0.0, -v[0]], [-v[1], v[0], 0.0]])


def _so3_exp(omega):
    theta = float(np.linalg.norm(omega))
    k = _skew(omega)
    if theta < 1e-6:
        return np.eye(3) + k + 0.5 * (k @ k)
    a = np.sin(theta) / theta
    b = (1.0 - np.cos(theta)) / (theta * theta)
    return np.eye(3) + a * k + b * (k @ k)


def _so3_left_jacobian(omega):
    theta = float(np.linalg.norm(omega))
    k = _skew(omega)
    if theta < 1e-6:
        return np.eye(3) + 0.5 * k + (k @ k) / 6.0
    b = (1.0 - np.cos(theta)) / (theta * theta)
    c = (theta - np.sin(theta)) / (theta ** 3)
    return np.eye(3) + b * k + c * (k @ k)


def two_pass_se3_exp(xi) -> tuple[np.ndarray, np.ndarray]:
    """(rotation, translation) of the twist ``[translation, rotation]``."""
    xi = np.asarray(xi, dtype=float).reshape(6)
    return _so3_exp(xi[3:]), _so3_left_jacobian(xi[3:]) @ xi[:3]


_EYE3 = np.eye(3)
_ORTHONORMAL_TOL = 1e-9 + 1e-5 * _EYE3


def matrix_rotation_check(rotation) -> str | None:
    """The message Pose raised for ``rotation`` when it compared the matrix
    R R^T with the identity entry by entry, or None where it accepted it."""
    rot = np.asarray(rotation, dtype=float).reshape(3, 3)
    if not (np.abs(rot @ rot.T - _EYE3) <= _ORTHONORMAL_TOL).all():
        return "rotation is not orthonormal"
    (a, b, c), (d, e, f), (g, h, i) = rot.tolist()
    if abs(a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g) - 1.0) > 1e-9:
        return "rotation determinant is not +1"
    return None
