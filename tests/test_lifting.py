"""Tip lifting checks: exact picks, gating, tie-breaks, and the error bound.

The ambiguity fixture places two branches on the same line of sight so their
projections coincide to well under the tie tolerance; which one wins must
then be decided by 3D continuity with the previous tip.
"""

import numpy as np
import pytest

from vesselnav.geometry import CameraModel, Pose, project_points
from lifting_reference import lateral_error_bound, radius_at
from vesselnav.lifting import LiftedTip, OffVesselError, lift
from vesselnav.registration import RegistrationProblem, RegistrationState
from vesselnav.simulator import initial_wire, step, ControlCommand, ActuationNoise
from vesselnav.vessel_model import (
    Branch,
    PhantomSpec,
    VesselTree,
    generate_phantom,
    resample_centerlines,
    validate_tree,
)

CAM = CameraModel.standard()


def _branch(positions, radius=1.5, parent=None, attach=None):
    return Branch(positions, np.full(len(positions), radius), parent, attach)


def ambiguous_tree():
    """Two levels of the same branch lie on one camera ray.

    With the camera at z = +500 looking down +z, world (10, 0, -100) sits at
    camera depth 400 and world (15, 0, 100) at depth 600; both hit the same
    pixel because 10/400 == 15/600.
    """
    root = _branch([(8, 0, -100), (9, 0, -100), (10, 0, -100), (11, 0, -100)])
    far = _branch([(8, 0, -100), (11, 0, 100), (13, 0, 100), (15, 0, 100), (17, 0, 100)], parent=0, attach=0)
    root.child_links = [1]
    tree = VesselTree({0: root, 1: far}, root=0)
    validate_tree(tree)
    return tree


def view_pose():
    return Pose(np.eye(3), np.array([0.0, 0.0, 500.0]))


def problem_for(tree, pose):
    # Lifting reads no frame, so none is bound.
    return RegistrationProblem.from_tree(tree, None, CAM, pose)


def rigid_state(prob):
    """The problem's initial pose; lifting ignores the bandwidth."""
    return RegistrationState(prob.init_pose, 2.0)


class TestBound:
    def test_bound_sums_radius_and_spacing(self):
        assert lateral_error_bound(2.0, 0.5) == 2.5
        assert lateral_error_bound(0.8, 1.0) == 1.8


class TestLiftPicks:
    def test_exact_projection_recovers_address(self):
        tree = ambiguous_tree()
        pose = view_pose()
        prob = problem_for(tree, pose)
        state = rigid_state(prob)
        target = (1, 2)
        pix, depth = project_points(tree.position(target), pose, CAM)
        assert depth[0] > 0
        lifted = lift(prob, state, pix[0])
        assert lifted.address == target
        assert lifted.pixel_error < 1e-9
        assert np.allclose(lifted.position3, tree.position(target))
        assert isinstance(lifted, LiftedTip)

    def test_gate_rejects_far_tips(self):
        tree = ambiguous_tree()
        prob = problem_for(tree, view_pose())
        state = rigid_state(prob)
        with pytest.raises(OffVesselError):
            lift(prob, state, np.array([-500.0, -500.0]))

    def test_behind_camera_model_rejected(self):
        tree = ambiguous_tree()
        behind = Pose(np.eye(3), np.array([0.0, 0.0, -5000.0]))
        prob = problem_for(tree, behind)
        state = rigid_state(prob)
        with pytest.raises(OffVesselError):
            lift(prob, state, np.array([256.0, 256.0]))

    def test_tie_broken_by_previous_tip(self):
        tree = ambiguous_tree()
        pose = view_pose()
        prob = problem_for(tree, pose)
        state = rigid_state(prob)
        near_addr, far_addr = (0, 2), (1, 3)
        pix_near, _ = project_points(tree.position(near_addr), pose, CAM)
        pix_far, _ = project_points(tree.position(far_addr), pose, CAM)
        assert np.linalg.norm(pix_near[0] - pix_far[0]) < 0.5
        tip2 = pix_near[0]
        from_near = lift(prob, state, tip2, previous3=tree.position((0, 1)))
        assert from_near.address == near_addr
        from_far = lift(prob, state, tip2, previous3=tree.position((1, 4)))
        assert from_far.address == far_addr

    def test_without_history_takes_best_pixel(self):
        tree = ambiguous_tree()
        pose = view_pose()
        prob = problem_for(tree, pose)
        state = rigid_state(prob)
        # Nudge the tip toward the near point's projection by a hair so the
        # pixel argmin is unique even under the tie tolerance.
        pix_near, _ = project_points(tree.position((0, 2)), pose, CAM)
        lifted = lift(prob, state, pix_near[0] + np.array([0.05, 0.0]))
        assert lifted.address == (0, 2)


class TestEpisodeBound:
    def test_exact_registration_error_within_bound(self):
        # Walk a wire along a phantom; lift the exactly projected true tip at
        # every step and demand the 3D miss stays within radius + spacing.
        tree = generate_phantom(PhantomSpec(), seed=11)
        spacing = 0.5
        model = resample_centerlines(tree, spacing)
        pose = Pose(np.eye(3), np.array([0.0, 0.0, 820.0]))
        prob = RegistrationProblem.from_tree(model, None, CAM, pose)
        state = rigid_state(prob)
        wire = initial_wire(tree, (0, 2))
        rng = np.random.default_rng(3)
        prev3 = None
        checked = 0
        for _ in range(60):
            tip3 = tree.position(wire.tip)
            pix, depth = project_points(tip3, pose, CAM)
            assert depth[0] > 0
            lifted = lift(prob, state, pix[0], previous3=prev3)
            err = float(np.linalg.norm(lifted.position3 - tip3))
            assert err <= lateral_error_bound(radius_at(model, lifted.address), spacing)
            prev3 = lifted.position3
            checked += 1
            wire = step(tree, wire, ControlCommand(2.0, int(rng.integers(0, 2))), rng, ActuationNoise(0.0, 0.0))
        assert checked == 60
