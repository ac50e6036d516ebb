"""Reference path for the geometry tests: the homogeneous 4x4 matrix of a
pose."""

import numpy as np

from vesselnav.geometry import Pose


def pose_matrix(pose: Pose) -> np.ndarray:
    """Homogeneous 4x4 matrix of ``pose``."""
    out = np.eye(4)
    out[:3, :3] = pose.rotation
    out[:3, 3] = pose.translation
    return out
