"""Registration solver tests.

Expected values come from independent re-implementations: the objective is
recomputed with nested Python loops and brute-force neighbor search, and
Jacobians are validated against central finite differences of the stacked
residual vector.
"""

import numpy as np
import pytest

from vesselnav import registration
from vesselnav.geometry import CameraModel, Pose, se3_exp
from vesselnav.registration import (
    RegistrationProblem,
    RegistrationState,
    _data_blocks,
    _match_neighbors,
    _normal_equations,
    _projection,
    _surrogate_cost,
    _weighted_targets,
    reprojection_rmse,
    solve,
)
from vesselnav.vessel_model import PhantomSpec, generate_phantom, resample_centerlines

from geometry_reference import pose_matrix
from registration_reference import _dense_jacobian, _dense_residuals, _fd_jacobian, eval_objective


def small_problem(rng, n=14, m=40):
    """Random problem matched with 3 image neighbours per model point."""
    pts = rng.uniform(-20, 20, (n, 3))
    q = rng.uniform(100, 400, (m, 2))
    cam = CameraModel.standard()
    pose = Pose(np.eye(3), np.array([0.0, 0.0, 800.0]))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(registration, "_K_CORR", 3)
        return RegistrationProblem(pts, q, cam, pose)


def random_state(prob, rng):
    tw = np.concatenate([rng.uniform(-5, 5, 3), rng.uniform(-0.05, 0.05, 3)])
    return RegistrationState(prob.init_pose.compose(se3_exp(tw)), 6.0)


def oracle_objective(prob, state):
    """Direct nested-loop evaluation of the kernel data term."""
    k = prob.cam.intrinsics
    ell = state.bandwidth_px
    data = 0.0
    behind = []
    pix_all = []
    for i in range(len(prob.points3)):
        z = state.pose.rotation @ prob.points3[i] + state.pose.translation
        h = k[:, :3] @ z + k[:, 3]
        if h[2] <= 0:
            behind.append(i)
            pix_all.append(None)
            continue
        pix_all.append(h[:2] / h[2])
    for i, u in enumerate(pix_all):
        if u is None:
            continue
        d2 = np.sum((prob.points2 - u) ** 2, axis=1)
        nearest = np.sort(d2)[: prob.k_corr]
        data += np.sum(np.exp(-nearest / (2.0 * ell * ell)))
    return data, behind


class TestObjectiveOracle:
    def test_energy_terms_match_direct_summation(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            prob = small_problem(rng)
            state = random_state(prob, rng)
            got = eval_objective(prob, state)
            data, behind = oracle_objective(prob, state)
            assert got.data == pytest.approx(data, rel=1e-12)
            assert list(got.behind_camera) == behind

    def test_behind_camera_points_are_excluded(self):
        rng = np.random.default_rng(8)
        prob = small_problem(rng)
        state = RegistrationState(prob.init_pose, 6.0)
        # push one model point behind the projection center
        prob.points3[0, 2] = -2000.0
        e = eval_objective(prob, state)
        assert list(e.behind_camera) == [0]
        assert np.isfinite(e.data)


class TestJacobian:
    def test_analytic_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        worst = 0.0
        for _ in range(10):
            prob = small_problem(rng, n=10, m=30)
            pose = random_state(prob, rng).pose
            pix, depth = _projection(prob, pose)
            idx, dist, ok = _match_neighbors(prob, pix, depth)
            ell = 6.0
            gamma = np.where(ok[:, None], np.exp(-dist ** 2 / (2 * ell * ell)), 0.0)
            gamma = np.nan_to_num(gamma)
            ja = _dense_jacobian(prob, pose, idx, gamma, ell)
            jn = _fd_jacobian(prob, pose, idx, gamma, ell)
            scale = max(1.0, np.abs(jn).max())
            worst = max(worst, np.abs(ja - jn).max() / scale)
        assert worst < 1e-5

    def test_normal_equations_match_dense_jacobian(self):
        rng = np.random.default_rng(13)
        for _ in range(2):
            prob = small_problem(rng, n=9, m=25)
            pose = random_state(prob, rng).pose
            proj = _projection(prob, pose)
            idx, dist, ok = _match_neighbors(prob, proj.pix, proj.depth)
            ell = 5.0
            gamma = np.nan_to_num(np.where(ok[:, None], np.exp(-dist ** 2 / (2 * ell * ell)), 0.0))
            j = _dense_jacobian(prob, pose, idx, gamma, ell)
            rho = _dense_residuals(prob, pose, idx, gamma, ell)
            targets = _weighted_targets(prob, idx, gamma)
            app, gp = _normal_equations(prob, pose, proj, targets, ell)
            assert np.allclose(app, j.T @ j, atol=1e-9)
            assert np.allclose(gp, j.T @ rho, atol=1e-9)


class TestSurrogate:
    def test_frozen_weight_surrogate_majorizes_data_energy(self):
        # With kernel weights frozen at a reference state, the quadratic
        # surrogate changes by at least as much as the true data energy term
        # for any candidate state (tangent majorization of the exponential).
        rng = np.random.default_rng(17)
        for _ in range(25):
            prob = small_problem(rng)
            ref = random_state(prob, rng)
            ell = ref.bandwidth_px
            pix, depth = _projection(prob, ref.pose)
            idx, dist, ok = _match_neighbors(prob, pix, depth)
            assert np.all(ok)
            gamma = np.exp(-dist ** 2 / (2 * ell * ell))
            targets = _weighted_targets(prob, idx, gamma)

            cand = random_state(prob, rng)
            cand.bandwidth_px = ell
            e_ref = eval_objective(prob, ref)
            e_cand = eval_objective(prob, cand)
            if e_cand.behind_camera or e_ref.behind_camera:
                continue
            def surrogate(state):
                return _surrogate_cost(_projection(prob, state.pose), targets, ell)

            lhs = (-e_cand.data) - (-e_ref.data)
            rhs = surrogate(cand) - surrogate(ref)
            assert lhs <= rhs + 1e-9

    def test_weighted_targets_match_k_neighbour_reference(self):
        # The per-point targets must reproduce the k-neighbour surrogate of
        # the reference path exactly (up to rounding), including rows that
        # fall behind the camera after matching, unmatched rows and rows
        # whose weights all underflow.
        rng = np.random.default_rng(29)
        for trial in range(20):
            prob = small_problem(rng)
            ref = random_state(prob, rng)
            pix, depth = _projection(prob, ref.pose)
            idx, dist, ok = _match_neighbors(prob, pix, depth)
            ell = 4.0
            gamma = np.nan_to_num(np.where(ok[:, None], np.exp(-dist ** 2 / (2 * ell * ell)), 0.0))
            idx[1] = -1  # unmatched row; its stale weights must not count
            gamma[1] = rng.uniform(0.1, 1.0, prob.k_corr)
            idx[2, 0] = -1  # partly unmatched rows count as unmatched
            gamma[3] = np.exp(-np.full(prob.k_corr, 1e4))  # underflows to 0
            assert np.all(gamma[3] == 0.0)

            pose = random_state(prob, rng).pose
            if trial % 2:
                prob.points3[4, 2] = -5000.0  # behind the camera, but matched
            proj = _projection(prob, pose)
            assert (proj.depth[4] <= 0) == bool(trial % 2)
            targets = _weighted_targets(prob, idx, gamma)
            assert np.all(targets.s[1:4] == 0.0) and np.all(targets.c[1:4] == 0.0)

            rho = _dense_residuals(prob, pose, idx, gamma, ell)
            got = _surrogate_cost(proj, targets, ell)
            assert got == pytest.approx(float(rho @ rho), rel=1e-10)

            s, gvec, _ = _data_blocks(prob, pose, proj, targets, ell)
            n = len(prob.points3)
            want_s = np.zeros(n)
            want_g = np.zeros((n, 2))
            for i in range(n):
                if np.any(idx[i] < 0) or proj.depth[i] <= 0:
                    continue
                for j, w in zip(idx[i], gamma[i]):
                    want_s[i] += w / (2 * ell * ell)
                    want_g[i] += w * (proj.pix[i] - prob.points2[j]) / (2 * ell * ell)
            assert np.allclose(s, want_s, rtol=1e-12, atol=0.0)
            assert np.allclose(gvec, want_g, rtol=1e-10, atol=1e-10 * np.abs(want_g).max())

    def test_accepted_steps_decrease_surrogate(self, monkeypatch):
        rng = np.random.default_rng(23)
        prob = small_problem(rng, n=20, m=60)
        monkeypatch.setattr(registration, "_MAX_OUTER_ITERS", 20)
        st = solve(prob)
        hist = st.diagnostics["history"]
        assert len(hist) > 0
        for h in hist:
            assert h["accepted"]
            assert h["cost_after"] < h["cost_before"]


@pytest.fixture(scope="module")
def scene():
    cam = CameraModel.standard()
    tree = generate_phantom(PhantomSpec(), seed=11)
    dense = resample_centerlines(tree, 0.25)
    pts, _ = dense.flat_points()
    world = Pose(np.eye(3), np.array([0.0, 0.0, 820.0]) - pts.mean(axis=0))
    prob0 = RegistrationProblem.from_tree(dense, np.zeros((1, 2)), cam, world)
    true_c = prob0.pose_from_world(world)
    pix, depth = _projection(prob0, true_c)
    assert np.all(depth > 0)
    return prob0, true_c, pix


class TestRecovery:
    def test_identity_perturbation_is_fixed_point(self, scene):
        prob0, true_c, pix = scene
        prob = prob0.with_frame(pix, prob0.pose_to_world(true_c))
        st = solve(prob)
        assert reprojection_rmse(prob, st, pix) < 0.35

    def test_pose_perturbations_recover_subpixel(self, scene):
        prob0, true_c, pix = scene
        rng = np.random.default_rng(77)
        rmses = []
        for _ in range(10):
            d = rng.normal(size=3)
            t = rng.uniform(0, 10.0) * d / np.linalg.norm(d)
            a = rng.normal(size=3)
            r = np.deg2rad(rng.uniform(0, 5.0)) * a / np.linalg.norm(a)
            init = true_c.compose(se3_exp(np.concatenate([t, r])))
            prob = prob0.with_frame(pix, prob0.pose_to_world(init))
            st = solve(prob)
            rmses.append(reprojection_rmse(prob, st, pix))
        assert np.median(rmses) < 0.5
        assert sum(r < 0.5 for r in rmses) >= 9

    def test_solver_is_deterministic(self, scene):
        prob0, true_c, pix = scene
        init = true_c.compose(se3_exp(np.array([3.0, -2.0, 5.0, 0.02, -0.01, 0.03])))
        prob = prob0.with_frame(pix, prob0.pose_to_world(init))
        a = solve(prob)
        b = solve(prob)
        assert np.array_equal(pose_matrix(a.pose), pose_matrix(b.pose))
        ha = [(h["cost_before"], h["cost_after"], h["step_norm"]) for h in a.diagnostics["history"]]
        hb = [(h["cost_before"], h["cost_after"], h["step_norm"]) for h in b.diagnostics["history"]]
        assert ha == hb


@pytest.fixture(scope="module")
def clean_cold(scene):
    """The first of criterion 3's perturbed clean problems, solved cold."""
    prob0, true_c, pix = scene
    rng = np.random.default_rng(303)
    d = rng.normal(size=3)
    t = rng.uniform(0.0, 10.0) * d / np.linalg.norm(d)
    a = rng.normal(size=3)
    r = np.deg2rad(rng.uniform(0.0, 5.0)) * a / np.linalg.norm(a)
    prob = prob0.with_frame(pix, prob0.pose_to_world(true_c.compose(se3_exp(np.concatenate([t, r])))))
    return prob, solve(prob)


def rotation_angle_deg(a, b):
    """Angle of the relative rotation, from its trace."""
    cos = 0.5 * (np.trace(a.rotation.T @ b.rotation) - 1.0)
    return float(np.degrees(np.arccos(np.clip(cos, -1.0, 1.0))))


class TestConvergedFlag:
    def test_stall_at_optimum_is_converged(self, clean_cold):
        _, st = clean_cold
        hist = st.diagnostics["history"]
        # The solve ends in a stall at the floor bandwidth: its last outer
        # iteration accepted no LM step, with the pose at the optimum up to
        # rounding.
        assert hist[-1]["outer"] < st.iteration - 1
        assert st.bandwidth_px == registration._BANDWIDTH_FLOOR_PX
        assert st.converged

    def test_cold_solve_matches_once_per_outer_iteration(self, clean_cold, monkeypatch):
        # The start match that sets the first bandwidth is also the first
        # outer iteration's match: the pose has not moved in between.
        prob, _ = clean_cold
        calls = []
        match = registration._match_neighbors

        def counted(*args):
            calls.append(args)
            return match(*args)

        monkeypatch.setattr(registration, "_match_neighbors", counted)
        st = solve(prob)
        assert len(calls) == st.iteration

    def test_exhausted_iteration_budget_is_not_converged(self, clean_cold, monkeypatch):
        prob, _ = clean_cold
        monkeypatch.setattr(registration, "_MAX_OUTER_ITERS", 1)
        st = solve(prob)
        assert st.iteration == 1
        assert not st.converged


class TestWarmStart:
    def test_unchanged_frame_stays_at_optimum(self, scene, clean_cold):
        prob0, _, pix = scene
        prob, prev = clean_cold
        # Warm re-solves of one image, each from the last state. Each
        # solve stops once its steps fall below the step tolerance, a little
        # short of the optimum, so each re-solve closes part of the remaining
        # gap and moves less than the one before, until a re-solve leaves the
        # pose where it is.
        iters, moves = [], []
        for _ in range(3):
            frame = prob0.with_frame(pix, prob.pose_to_world(prev.pose))
            st = solve(frame, warm=prev)
            assert st.converged
            iters.append(st.iteration)
            moves.append(np.abs(pose_matrix(st.pose) - pose_matrix(prev.pose)).max())
            prob, prev = frame, st
        assert moves[0] < 1e-4
        assert moves[0] > moves[1] > moves[2]
        assert iters[-1] <= 2 and moves[-1] < 1e-6

    def test_rotation_offset_is_recovered(self, scene, clean_cold):
        prob0, _, pix = scene
        _, prev = clean_cold
        axis = np.array([1.0, 2.0, -1.0]) / np.sqrt(6.0)
        start = prev.pose.compose(se3_exp(np.concatenate([np.zeros(3), np.deg2rad(1.0) * axis])))
        frame = prob0.with_frame(pix, prob0.pose_to_world(start))
        st = solve(frame, warm=prev)
        # A rotation-locked first stage would keep the 1 degree offset.
        assert rotation_angle_deg(st.pose, prev.pose) < 0.2
        assert max(h["bandwidth"] for h in st.diagnostics["history"]) <= prev.bandwidth_px

    def test_bandwidth_starts_at_warm_state(self, scene):
        prob0, true_c, pix = scene
        start = true_c.compose(se3_exp(np.array([1.0, -0.5, 2.0, 0.0, 0.0, 0.0])))
        frame = prob0.with_frame(pix, prob0.pose_to_world(start))
        prev = RegistrationState(start, 4.0)
        st = solve(frame, warm=prev)
        bws = [h["bandwidth"] for h in st.diagnostics["history"]]
        assert bws[0] == prev.bandwidth_px
        assert max(bws) <= prev.bandwidth_px
        assert st.bandwidth_px == registration._BANDWIDTH_FLOOR_PX

    def test_rejects_unusable_bandwidth(self, scene):
        prob0, true_c, pix = scene
        frame = prob0.with_frame(pix, prob0.pose_to_world(true_c))
        prev = RegistrationState(true_c, float("nan"))
        with pytest.raises(ValueError):
            solve(frame, warm=prev)


class TestStepFailures:
    @pytest.mark.parametrize("error", [ValueError, RuntimeError])
    def test_unexpected_step_error_propagates(self, monkeypatch, error):
        prob = small_problem(np.random.default_rng(37), n=20, m=60)

        def broken(*args):
            raise error("shape bug in assembly")

        monkeypatch.setattr(registration, "_solve_step", broken)
        monkeypatch.setattr(registration, "_MAX_OUTER_ITERS", 5)
        with pytest.raises(error, match="shape bug"):
            solve(prob)

    def test_singular_step_counts_as_rejected(self, monkeypatch):
        prob = small_problem(np.random.default_rng(37), n=20, m=60)
        real = registration._solve_step
        dampings = []

        def singular_once(*args):
            dampings.append(args[2])
            if len(dampings) == 1:
                raise np.linalg.LinAlgError("singular matrix")
            return real(*args)

        monkeypatch.setattr(registration, "_solve_step", singular_once)
        monkeypatch.setattr(registration, "_MAX_OUTER_ITERS", 5)
        st = solve(prob)
        # The failed solve raised the damping like any rejected trial step.
        assert dampings[1] == dampings[0] * registration._LM_DAMPING_UP
        assert st.diagnostics["history"]

    def test_non_finite_cost_raises(self, monkeypatch):
        prob = small_problem(np.random.default_rng(41))
        # The k-d tree keeps matching the finite points it was built on, but
        # every weighted target, and so the surrogate cost, is NaN.
        prob.points2 = np.full_like(prob.points2, np.nan)
        monkeypatch.setattr(registration, "_MAX_OUTER_ITERS", 5)
        with pytest.raises(FloatingPointError):
            solve(prob)


class TestAnnealing:
    def test_bandwidth_never_increases_and_reaches_floor(self, monkeypatch):
        rng = np.random.default_rng(29)
        prob = small_problem(rng, n=20, m=60)
        monkeypatch.setattr(registration, "_MAX_OUTER_ITERS", 40)
        st = solve(prob)
        bws = [h["bandwidth"] for h in st.diagnostics["history"]]
        assert all(b2 <= b1 for b1, b2 in zip(bws, bws[1:]))
        assert st.bandwidth_px >= 2.0

    def test_floor_respected(self, monkeypatch):
        rng = np.random.default_rng(31)
        prob = small_problem(rng, n=20, m=60)
        monkeypatch.setattr(registration, "_MAX_OUTER_ITERS", 60)
        monkeypatch.setattr(registration, "_BANDWIDTH_FLOOR_PX", 3.0)
        st = solve(prob)
        assert st.bandwidth_px == pytest.approx(3.0)


class TestProblemConstruction:
    def test_from_tree_centers_points(self):
        tree = generate_phantom(PhantomSpec(depth=3), seed=5)
        cam = CameraModel.standard()
        world = Pose(np.eye(3), np.array([0.0, 0.0, 800.0]))
        prob = RegistrationProblem.from_tree(tree, np.zeros((1, 2)), cam, world)
        assert np.allclose(prob.points3.mean(axis=0), 0.0, atol=1e-9)
        pts, _ = tree.flat_points()
        assert np.allclose(prob.points3 + prob.center, pts)

    def test_pose_round_trip_world_centered(self):
        tree = generate_phantom(PhantomSpec(depth=3), seed=5)
        cam = CameraModel.standard()
        world = Pose(np.eye(3), np.array([1.0, -2.0, 800.0]))
        prob = RegistrationProblem.from_tree(tree, np.zeros((1, 2)), cam, world)
        back = prob.pose_to_world(prob.pose_from_world(world))
        assert np.allclose(pose_matrix(back), pose_matrix(world), atol=1e-12)
        # centered and world poses must project a given tree point identically
        pts, _ = tree.flat_points()
        pc = prob.pose_from_world(world)
        assert np.allclose(pc.apply(pts[7] - prob.center), world.apply(pts[7]), atol=1e-9)

    def test_rejects_tiny_problems(self):
        cam = CameraModel.standard()
        with pytest.raises(ValueError):
            RegistrationProblem(
                np.zeros((3, 3)), np.zeros((5, 2)), cam, Pose(np.eye(3), np.zeros(3))
            )

    def test_with_frame_keeps_model_and_rebinds_image(self):
        tree = generate_phantom(PhantomSpec(depth=3), seed=5)
        cam = CameraModel.standard()
        world = Pose(np.eye(3), np.array([0.0, 0.0, 800.0]))
        prob = RegistrationProblem.from_tree(tree, np.zeros((1, 2)), cam, world)
        q = np.random.default_rng(1).uniform(0, 512, (200, 2))
        other = Pose(np.eye(3), np.array([2.0, 1.0, 790.0]))
        p2 = prob.with_frame(q, other)
        assert np.shares_memory(p2.points3, prob.points3)
        assert len(p2.points2) == 200
        assert p2.k_corr == 8
        assert np.allclose(pose_matrix(p2.pose_to_world(p2.init_pose)), pose_matrix(other), atol=1e-9)
