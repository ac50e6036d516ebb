"""Transform and projection checks against scipy matrix oracles.

Exponentials are compared to scipy.linalg.expm of the hat matrices, and pose
algebra to products of homogeneous 4x4 matrices.
"""

import numpy as np
import pytest
from scipy.linalg import expm

from vesselnav.geometry import (
    CameraModel,
    Pose,
    project_points,
    se3_exp,
    so3_exp,
)

from geometry_reference import pose_matrix


def hat4(xi):
    out = np.zeros((4, 4))
    out[:3, 3] = xi[:3]
    w = xi[3:]
    out[:3, :3] = [[0, -w[2], w[1]], [w[2], 0, -w[0]], [-w[1], w[0], 0]]
    return out


def random_twists(rng, n, max_angle=3.0):
    xi = rng.normal(size=(n, 6))
    for row in xi:
        angle = np.linalg.norm(row[3:])
        if angle > max_angle:
            row[3:] *= max_angle / angle
    return xi


class TestSo3:
    def test_exp_matches_expm(self):
        rng = np.random.default_rng(0)
        for scale in [1.0, 1e-3, 1e-9, 1e-13]:
            for _ in range(20):
                w = rng.normal(size=3) * scale
                k = np.array([[0, -w[2], w[1]], [w[2], 0, -w[0]], [-w[1], w[0], 0]])
                assert np.allclose(so3_exp(w), expm(k), atol=1e-12)


class TestSe3:
    def test_exp_matches_expm(self):
        rng = np.random.default_rng(3)
        for xi in random_twists(rng, 40):
            expected = expm(hat4(xi))
            assert np.allclose(pose_matrix(se3_exp(xi)), expected, atol=1e-10)


class TestPose:
    def test_algebra_matches_matrices(self):
        rng = np.random.default_rng(9)
        a = se3_exp(random_twists(rng, 1)[0])
        b = se3_exp(random_twists(rng, 1)[0])
        assert np.allclose(pose_matrix(a.compose(b)), pose_matrix(a) @ pose_matrix(b), atol=1e-12)
        assert np.allclose(pose_matrix(Pose(np.eye(3), np.zeros(3))), np.eye(4))
        pts = rng.normal(size=(7, 3))
        by_matrix = (pose_matrix(a) @ np.c_[pts, np.ones(7)].T).T[:, :3]
        assert np.allclose(a.apply(pts), by_matrix, atol=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            Pose(np.eye(3) * 2.0, np.zeros(3))
        reflection = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(ValueError):
            Pose(reflection, np.zeros(3))

    def test_tolerance_boundaries(self):
        # Orthonormality allows 1e-9 off the diagonal of R R^T and 1e-5 more
        # on it; the determinant must be +1 to 1e-9.
        for err, accepted in ((0.9e-9, True), (1.1e-9, False)):
            shear = np.eye(3)
            shear[0, 1] = err  # R R^T is off by err at (0, 1), det stays 1
            if accepted:
                Pose(shear, np.zeros(3))
            else:
                with pytest.raises(ValueError):
                    Pose(shear, np.zeros(3))
        for stretch, accepted in ((4e-6, True), (6e-6, False)):
            # R R^T is off by about 2 * stretch on the diagonal, det stays 1
            squeeze = np.diag([1.0 + stretch, 1.0 / (1.0 + stretch), 1.0])
            if accepted:
                Pose(squeeze, np.zeros(3))
            else:
                with pytest.raises(ValueError):
                    Pose(squeeze, np.zeros(3))
        nan_rotation = np.eye(3)
        nan_rotation[1, 2] = np.nan
        with pytest.raises(ValueError):
            Pose(nan_rotation, np.zeros(3))
        with pytest.raises(ValueError):
            Pose(np.diag([1.0, -1.0, 1.0]), np.zeros(3))


class TestProjection:
    def test_pinhole_formula(self):
        cam = CameraModel.standard()
        pose = Pose(np.eye(3), np.array([0.0, 0.0, 500.0]))
        point = np.array([10.0, -20.0, 100.0])
        pix = project_points(point, pose, cam)[0][0]
        assert pix == pytest.approx([2500 * 10 / 600 + 256, 2500 * -20 / 600 + 256])

    def test_vectorized_matches_scalar(self):
        cam = CameraModel.standard()
        rng = np.random.default_rng(10)
        pose = se3_exp(np.array([5.0, -3.0, 700.0, 0.02, -0.01, 0.03]))
        pts = rng.normal(scale=40.0, size=(30, 3))
        pix, depth = project_points(pts, pose, cam)
        for i in range(len(pts)):
            if depth[i] > 0:
                assert np.allclose(pix[i], project_points(pts[i], pose, cam)[0][0], atol=1e-12)

    def test_negative_depth_rows_are_nan(self):
        cam = CameraModel.standard()
        pose = Pose(np.eye(3), np.zeros(3))
        pts = np.array([[0.0, 0.0, 100.0], [0.0, 0.0, -100.0]])
        pix, depth = project_points(pts, pose, cam)
        assert depth[0] > 0 and depth[1] < 0
        assert np.all(np.isfinite(pix[0]))
        assert np.all(np.isnan(pix[1]))


class TestCameraModel:
    def test_standard_magnification(self):
        cam = CameraModel.standard()
        assert cam.scale_px_per_mm(820.0) == pytest.approx(2500.0 / 820.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            CameraModel(np.zeros((3, 4)), (512, 512))
        good = CameraModel.standard().intrinsics
        with pytest.raises(ValueError):
            CameraModel(good, (0, 512))

    @pytest.mark.parametrize("focal_px", [float("nan"), float("inf")], ids=["nan", "inf"])
    def test_non_finite_intrinsics_fail_on_their_own_message(self, focal_px):
        with pytest.raises(ValueError, match="intrinsic matrix must be finite"):
            CameraModel.standard(focal_px=focal_px)
