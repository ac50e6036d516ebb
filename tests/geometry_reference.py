"""Reference path for the geometry tests: the forward SE(3) left Jacobian
and the homogeneous 4x4 matrix of a pose.

The package only needs the inverse Jacobian; the forward form checks it.
"""

import numpy as np

from vesselnav.geometry import Pose, _se3_q_matrix, _so3_left_jacobian


def se3_left_jacobian(xi: np.ndarray) -> np.ndarray:
    """Left Jacobian of SE(3) at twist ``xi = [translation, rotation]``."""
    xi = np.asarray(xi, dtype=float)
    upsilon, omega = xi[:3], xi[3:]
    j = _so3_left_jacobian(omega)
    q = _se3_q_matrix(upsilon, omega)
    out = np.zeros((6, 6))
    out[:3, :3] = j
    out[:3, 3:] = q
    out[3:, 3:] = j
    return out


def pose_matrix(pose: Pose) -> np.ndarray:
    """Homogeneous 4x4 matrix of ``pose``."""
    out = np.eye(4)
    out[:3, :3] = pose.rotation
    out[:3, 3] = pose.translation
    return out
