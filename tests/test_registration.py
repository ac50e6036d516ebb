"""Registration solver tests.

Expected values come from independent re-implementations: the objective is
recomputed with nested Python loops and brute-force neighbor search, the log
map is cross-checked against scipy's matrix logarithm, and Jacobians are
validated against central finite differences of the stacked residual vector.
"""

import numpy as np
import pytest
from scipy.linalg import logm

from vesselnav import registration
from vesselnav.geometry import CameraModel, Pose, se3_exp, so3_log
from vesselnav.registration import (
    _PRIOR_SCALE,
    RegistrationProblem,
    RegistrationState,
    SolverConfig,
    Weights,
    _data_blocks,
    _log_to_init,
    _match_neighbors,
    _normal_equations,
    _projection,
    _regularizer,
    _surrogate_cost,
    _weighted_targets,
    reprojection_rmse,
    solve,
)
from vesselnav.vessel_model import PhantomSpec, generate_phantom, resample_centerlines

from registration_reference import _dense_jacobian, _dense_residuals, _fd_jacobian, eval_objective


def small_problem(rng, n=14, m=40, k_corr=3, weights=None):
    pts = rng.uniform(-20, 20, (n, 3))
    q = rng.uniform(100, 400, (m, 2))
    cam = CameraModel.standard()
    pose = Pose(np.eye(3), np.array([0.0, 0.0, 800.0]))
    chain = np.array([(i, i + 1) for i in range(n - 1)] + [(i + 1, i) for i in range(n - 1)])
    return RegistrationProblem(
        pts, q, cam, pose, weights=weights, chain_pairs=chain, k_corr=k_corr, k_omega=3
    )


def random_state(prob, rng, disp_scale=0.5):
    tw = np.concatenate([rng.uniform(-5, 5, 3), rng.uniform(-0.05, 0.05, 3)])
    disp = rng.normal(0, disp_scale, (len(prob.points3), 3))
    return RegistrationState(prob.init_pose.compose(se3_exp(tw)), disp, 6.0)


def mean_nearest_px(prob, state):
    """Mean distance from each visible projected model point to its nearest 2D point."""
    _, pix, depth = _projection(prob, state.pose, state.displacements)
    d, _ = prob.kd2.query(pix[depth > 0], k=1)
    return float(d.mean())


def oracle_objective(prob, state):
    """Direct nested-loop evaluation of every energy term."""
    disp = state.displacements
    k = prob.cam.intrinsics
    ell = state.bandwidth_px
    data = 0.0
    behind = []
    pix_all = []
    for i in range(len(prob.points3)):
        z = state.pose.rotation @ (prob.points3[i] + disp[i]) + state.pose.translation
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
    rel = np.linalg.inv(prob.init_pose.matrix()) @ state.pose.matrix()
    lg = logm(rel)
    psi = np.concatenate([lg[:3, 3], [lg[2, 1], lg[0, 2], lg[1, 0]]]).real
    prior = float(np.sum((_PRIOR_SCALE * psi) ** 2))
    w = prob.weights
    reg = w.deform_magnitude * np.sum(disp ** 2)
    for i, j in prob.chain_pairs:
        reg += w.deform_chain * np.sum((disp[i] - disp[j]) ** 2)
    for i, j in prob.cross_pairs:
        reg += w.deform_cross * np.sum((disp[i] - disp[j]) ** 2)
    return data, prior, float(reg), behind


class TestObjectiveOracle:
    def test_energy_terms_match_direct_summation(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            prob = small_problem(rng)
            state = random_state(prob, rng)
            got = eval_objective(prob, state)
            data, prior, reg, behind = oracle_objective(prob, state)
            assert got.data == pytest.approx(data, rel=1e-12)
            assert got.pose_prior == pytest.approx(prior, rel=1e-9, abs=1e-15)
            assert got.deform == pytest.approx(reg, rel=1e-12)
            assert list(got.behind_camera) == behind

    def test_composite_combines_terms(self):
        rng = np.random.default_rng(3)
        w = Weights(pose_prior=7.0, deform=2.5)
        prob = small_problem(rng, weights=w)
        state = random_state(prob, rng)
        e = eval_objective(prob, state)
        assert e.composite(w) == pytest.approx(-e.data + 7.0 * e.pose_prior + 2.5 * e.deform)

    def test_behind_camera_points_are_excluded(self):
        rng = np.random.default_rng(8)
        prob = small_problem(rng)
        state = RegistrationState(prob.init_pose, np.zeros_like(prob.points3), 6.0)
        # push one model point behind the projection center
        prob.points3[0, 2] = -2000.0
        e = eval_objective(prob, state)
        assert list(e.behind_camera) == [0]
        assert np.isfinite(e.data)


class TestJacobian:
    @pytest.mark.parametrize("active", [True, False])
    def test_analytic_matches_finite_differences(self, active):
        rng = np.random.default_rng(11)
        worst = 0.0
        for _ in range(10):
            prob = small_problem(rng, n=10, m=30)
            state = random_state(prob, rng)
            pose, disp = state.pose, state.displacements
            _, pix, depth = _projection(prob, pose, disp)
            idx, dist, ok = _match_neighbors(prob, pix, depth)
            ell = 6.0
            gamma = np.where(ok[:, None], np.exp(-dist ** 2 / (2 * ell * ell)), 0.0)
            gamma = np.nan_to_num(gamma)
            ja = _dense_jacobian(prob, pose, disp, idx, gamma, ell, active_deform=active)
            jn = _fd_jacobian(prob, pose, disp, idx, gamma, ell, active)
            scale = max(1.0, np.abs(jn).max())
            worst = max(worst, np.abs(ja - jn).max() / scale)
        assert worst < 1e-5

    def test_normal_equations_match_dense_jacobian(self):
        rng = np.random.default_rng(13)
        for active in (True, False):
            prob = small_problem(rng, n=9, m=25)
            state = random_state(prob, rng)
            pose, disp = state.pose, state.displacements
            _, pix, depth = _projection(prob, pose, disp)
            idx, dist, ok = _match_neighbors(prob, pix, depth)
            ell = 5.0
            gamma = np.nan_to_num(np.where(ok[:, None], np.exp(-dist ** 2 / (2 * ell * ell)), 0.0))
            j = _dense_jacobian(prob, pose, disp, idx, gamma, ell, active_deform=active)
            rho = _dense_residuals(prob, pose, disp, idx, gamma, ell)
            proj = _projection(prob, pose, disp)
            targets = _weighted_targets(prob, idx, gamma)
            app, apr, arr, gp, gr = _normal_equations(
                prob, pose, disp, proj, _log_to_init(prob, pose), targets, ell, active
            )
            jtj = j.T @ j
            jtr = j.T @ rho
            assert np.allclose(app, jtj[:6, :6], atol=1e-9)
            assert np.allclose(gp, jtr[:6], atol=1e-9)
            if active:
                n = len(prob.points3)
                apr_full = np.transpose(apr, (1, 0, 2)).reshape(6, 3 * n)
                assert np.allclose(apr_full, jtj[:6, 6:], atol=1e-9)
                assert np.allclose(gr.ravel(), jtr[6:], atol=1e-9)
                assert np.allclose(arr.toarray(), jtj[6:, 6:], atol=1e-9)


class TestSurrogate:
    def test_frozen_weight_surrogate_majorizes_data_energy(self):
        # With kernel weights frozen at a reference state, the quadratic
        # surrogate changes by at least as much as the true data energy term
        # for any candidate state (tangent majorization of the exponential).
        rng = np.random.default_rng(17)
        for _ in range(25):
            prob = small_problem(rng)
            ref = random_state(prob, rng, disp_scale=0.2)
            ell = ref.bandwidth_px
            _, pix, depth = _projection(prob, ref.pose, ref.displacements)
            idx, dist, ok = _match_neighbors(prob, pix, depth)
            assert np.all(ok)
            gamma = np.exp(-dist ** 2 / (2 * ell * ell))
            targets = _weighted_targets(prob, idx, gamma)

            cand = random_state(prob, rng, disp_scale=0.2)
            cand.bandwidth_px = ell
            e_ref = eval_objective(prob, ref)
            e_cand = eval_objective(prob, cand)
            if e_cand.behind_camera or e_ref.behind_camera:
                continue
            def surrogate(state):
                disp = state.displacements
                proj = _projection(prob, state.pose, disp)
                return _surrogate_cost(
                    prob, _log_to_init(prob, state.pose), proj, targets, ell, _regularizer(prob, disp)
                )

            s_ref = surrogate(ref)
            s_cand = surrogate(cand)
            # compare only the data parts: subtract identical prior and reg rows
            def aux(state):
                w = prob.weights
                return (
                    w.pose_prior * eval_objective(prob, state).pose_prior
                    + w.deform * eval_objective(prob, state).deform
                )

            lhs = (-e_cand.data) - (-e_ref.data)
            rhs = (s_cand - aux(cand)) - (s_ref - aux(ref))
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
            _, pix, depth = _projection(prob, ref.pose, ref.displacements)
            idx, dist, ok = _match_neighbors(prob, pix, depth)
            ell = 4.0
            gamma = np.nan_to_num(np.where(ok[:, None], np.exp(-dist ** 2 / (2 * ell * ell)), 0.0))
            idx[1] = -1  # unmatched row; its stale weights must not count
            gamma[1] = rng.uniform(0.1, 1.0, prob.k_corr)
            idx[2, 0] = -1  # partly unmatched rows count as unmatched
            gamma[3] = np.exp(-np.full(prob.k_corr, 1e4))  # underflows to 0
            assert np.all(gamma[3] == 0.0)

            state = random_state(prob, rng)
            pose, disp = state.pose, state.displacements.copy()
            if trial % 2:
                disp[4, 2] = -5000.0  # behind the camera, but matched
            proj = _projection(prob, pose, disp)
            assert (proj.depth[4] <= 0) == bool(trial % 2)
            targets = _weighted_targets(prob, idx, gamma)
            assert np.all(targets.s[1:4] == 0.0) and np.all(targets.c[1:4] == 0.0)

            rho = _dense_residuals(prob, pose, disp, idx, gamma, ell)
            got = _surrogate_cost(prob, _log_to_init(prob, pose), proj, targets, ell, _regularizer(prob, disp))
            assert got == pytest.approx(float(rho @ rho), rel=1e-10)

            s, gvec, _, _ = _data_blocks(prob, pose, proj, targets, ell)
            want_s = np.zeros(len(disp))
            want_g = np.zeros((len(disp), 2))
            for i in range(len(disp)):
                if np.any(idx[i] < 0) or proj.depth[i] <= 0:
                    continue
                for j, w in zip(idx[i], gamma[i]):
                    want_s[i] += w / (2 * ell * ell)
                    want_g[i] += w * (proj.pix[i] - prob.points2[j]) / (2 * ell * ell)
            assert np.allclose(s, want_s, rtol=1e-12, atol=0.0)
            assert np.allclose(gvec, want_g, rtol=1e-10, atol=1e-10 * np.abs(want_g).max())

    def test_accepted_steps_decrease_surrogate(self):
        rng = np.random.default_rng(23)
        prob = small_problem(rng, n=20, m=60)
        st = solve(prob, SolverConfig(max_outer_iters=20))
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
    _, pix, depth = _projection(prob0, true_c, np.zeros((len(pts), 3)))
    assert np.all(depth > 0)
    return prob0, true_c, pix


class TestRecovery:
    def test_identity_perturbation_is_fixed_point(self, scene):
        prob0, true_c, pix = scene
        prob = prob0.with_frame(pix, prob0.pose_to_world(true_c))
        st = solve(prob, SolverConfig(optimize_deformation=False))
        assert reprojection_rmse(prob, st, pix) < 0.35

    def test_pose_perturbations_recover_subpixel(self, scene):
        prob0, true_c, pix = scene
        rng = np.random.default_rng(77)
        cfg = SolverConfig(optimize_deformation=False)
        rmses = []
        for _ in range(10):
            d = rng.normal(size=3)
            t = rng.uniform(0, 10.0) * d / np.linalg.norm(d)
            a = rng.normal(size=3)
            r = np.deg2rad(rng.uniform(0, 5.0)) * a / np.linalg.norm(a)
            init = true_c.compose(se3_exp(np.concatenate([t, r])))
            prob = prob0.with_frame(pix, prob0.pose_to_world(init))
            st = solve(prob, cfg)
            rmses.append(reprojection_rmse(prob, st, pix))
        assert np.median(rmses) < 0.5
        assert sum(r < 0.5 for r in rmses) >= 9

    def test_joint_solve_improves_bent_target(self, scene):
        cam = CameraModel.standard()
        tree = generate_phantom(PhantomSpec(), seed=11)
        coarse = resample_centerlines(tree, 1.0)
        pts, _ = coarse.flat_points()
        world = Pose(np.eye(3), np.array([0.0, 0.0, 820.0]) - pts.mean(axis=0))
        prob0 = RegistrationProblem.from_tree(coarse, np.zeros((1, 2)), cam, world)
        true_c = prob0.pose_from_world(world)
        n = len(pts)
        centered = prob0.points3
        s = (centered[:, 1] - centered[:, 1].min()) / np.ptp(centered[:, 1])
        bend = np.stack([6.0 * s ** 2, np.zeros(n), -3.0 * s ** 2], axis=1)
        z = (centered + bend) @ true_c.rotation.T + true_c.translation
        h = z @ cam.intrinsics[:, :3].T + cam.intrinsics[:, 3]
        pix_bent = h[:, :2] / h[:, 2:]
        rng = np.random.default_rng(5)
        tw = np.concatenate([rng.uniform(-4, 4, 3), np.deg2rad(2.0) * rng.normal(size=3) / np.sqrt(3)])
        prob = prob0.with_frame(pix_bent, prob0.pose_to_world(true_c.compose(se3_exp(tw))))
        st_rigid = solve(prob, SolverConfig(optimize_deformation=False))
        st_joint = solve(prob, SolverConfig(optimize_deformation=True))
        assert mean_nearest_px(prob, st_joint) < mean_nearest_px(prob, st_rigid)
        assert np.abs(st_joint.displacements).max() > 0.5

    def test_solver_is_deterministic(self, scene):
        prob0, true_c, pix = scene
        init = true_c.compose(se3_exp(np.array([3.0, -2.0, 5.0, 0.02, -0.01, 0.03])))
        prob = prob0.with_frame(pix, prob0.pose_to_world(init))
        cfg = SolverConfig(optimize_deformation=False)
        a = solve(prob, cfg)
        b = solve(prob, cfg)
        assert np.array_equal(a.pose.matrix(), b.pose.matrix())
        assert np.array_equal(a.displacements, b.displacements)
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
    return prob, solve(prob, SolverConfig(optimize_deformation=False))


def rotation_angle_deg(a, b):
    return float(np.degrees(np.linalg.norm(so3_log(a.rotation.T @ b.rotation))))


class TestConvergedFlag:
    def test_stall_at_optimum_is_converged(self, clean_cold):
        _, st = clean_cold
        hist = st.diagnostics["history"]
        # The solve ends in a stall at the floor bandwidth: its last outer
        # iteration accepted no LM step, with the pose at the optimum up to
        # rounding.
        assert hist[-1]["outer"] < st.iteration - 1
        assert st.bandwidth_px == SolverConfig().bandwidth_floor_px
        assert st.converged

    def test_exhausted_iteration_budget_is_not_converged(self, clean_cold):
        prob, _ = clean_cold
        st = solve(prob, SolverConfig(optimize_deformation=False, max_outer_iters=1))
        assert st.iteration == 1
        assert not st.converged
        with pytest.raises(ValueError):
            solve(prob, SolverConfig(optimize_deformation=False, max_outer_iters=0))


class TestWarmStart:
    cfg = SolverConfig(optimize_deformation=False)

    def test_unchanged_frame_stays_at_optimum(self, scene, clean_cold):
        prob0, _, pix = scene
        prob, prev = clean_cold
        # Frame-to-frame re-solves of one image, as run_episode does. The pose
        # prior is anchored at each frame's start pose, so each re-solve drops
        # part of the pull of the cold start's anchor and moves a little less
        # than the one before, until a re-solve leaves the pose where it is.
        iters, moves = [], []
        for _ in range(3):
            frame = prob0.with_frame(pix, prob.pose_to_world(prev.pose))
            st = solve(frame, self.cfg, warm=prev)
            assert st.converged
            iters.append(st.iteration)
            moves.append(np.abs(st.pose.matrix() - prev.pose.matrix()).max())
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
        st = solve(frame, self.cfg, warm=prev)
        # A rotation-locked first stage would keep the 1 degree offset.
        assert rotation_angle_deg(st.pose, prev.pose) < 0.2
        assert max(h["bandwidth"] for h in st.diagnostics["history"]) <= prev.bandwidth_px

    def test_bandwidth_starts_at_warm_state(self, scene):
        prob0, true_c, pix = scene
        start = true_c.compose(se3_exp(np.array([1.0, -0.5, 2.0, 0.0, 0.0, 0.0])))
        frame = prob0.with_frame(pix, prob0.pose_to_world(start))
        prev = RegistrationState(start, np.zeros_like(frame.points3), 4.0)
        st = solve(frame, self.cfg, warm=prev)
        bws = [h["bandwidth"] for h in st.diagnostics["history"]]
        assert bws[0] == prev.bandwidth_px
        assert max(bws) <= prev.bandwidth_px
        assert st.bandwidth_px == self.cfg.bandwidth_floor_px

    def test_rejects_unusable_bandwidth(self, scene):
        prob0, true_c, pix = scene
        frame = prob0.with_frame(pix, prob0.pose_to_world(true_c))
        prev = RegistrationState(true_c, np.zeros_like(frame.points3), float("nan"))
        with pytest.raises(ValueError):
            solve(frame, self.cfg, warm=prev)


class TestStepFailures:
    def test_unexpected_step_error_propagates(self, monkeypatch):
        prob = small_problem(np.random.default_rng(37), n=20, m=60)

        def broken(*args):
            raise ValueError("shape bug in assembly")

        monkeypatch.setattr(registration, "_solve_step", broken)
        with pytest.raises(ValueError, match="shape bug"):
            solve(prob, SolverConfig(max_outer_iters=5))

    def test_singular_step_counts_as_rejected(self, monkeypatch):
        prob = small_problem(np.random.default_rng(37), n=20, m=60)
        real = registration._solve_step
        dampings = []

        def singular_once(*args):
            dampings.append(args[5])
            if len(dampings) == 1:
                raise np.linalg.LinAlgError("singular matrix")
            return real(*args)

        monkeypatch.setattr(registration, "_solve_step", singular_once)
        st = solve(prob, SolverConfig(max_outer_iters=5))
        # The failed solve raised the damping like any rejected trial step.
        assert dampings[1] == dampings[0] * registration._LM_DAMPING_UP
        assert st.diagnostics["history"]

    def test_non_finite_cost_raises(self):
        prob = small_problem(np.random.default_rng(41), weights=Weights(pose_prior=float("nan")))
        with pytest.raises(FloatingPointError):
            solve(prob, SolverConfig(max_outer_iters=5))


class TestAnnealing:
    def test_bandwidth_never_increases_and_reaches_floor(self):
        rng = np.random.default_rng(29)
        prob = small_problem(rng, n=20, m=60)
        st = solve(prob, SolverConfig(max_outer_iters=40))
        bws = [h["bandwidth"] for h in st.diagnostics["history"]]
        assert all(b2 <= b1 for b1, b2 in zip(bws, bws[1:]))
        assert st.bandwidth_px >= 2.0

    def test_floor_respected(self):
        rng = np.random.default_rng(31)
        prob = small_problem(rng, n=20, m=60)
        st = solve(prob, SolverConfig(max_outer_iters=60, bandwidth_floor_px=3.0))
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
        assert np.allclose(back.matrix(), world.matrix(), atol=1e-12)
        # centered and world poses must project a given tree point identically
        pts, _ = tree.flat_points()
        pc = prob.pose_from_world(world)
        assert np.allclose(pc.apply(pts[7] - prob.center), world.apply(pts[7]), atol=1e-9)

    def test_chain_pairs_follow_branch_order(self):
        tree = generate_phantom(PhantomSpec(depth=2), seed=5)
        cam = CameraModel.standard()
        prob = RegistrationProblem.from_tree(
            tree, np.zeros((1, 2)), cam, Pose(np.eye(3), np.array([0.0, 0.0, 800.0]))
        )
        # each point's pairs with its previous then its next point on the
        # same branch, in flat point order
        want = []
        offset = 0
        for bid in sorted(tree.branches):
            npts = len(tree.branches[bid].points)
            for k in range(npts):
                if k > 0:
                    want.append((offset + k, offset + k - 1))
                if k + 1 < npts:
                    want.append((offset + k, offset + k + 1))
            offset += npts
        assert np.array_equal(prob.chain_pairs, np.array(want))

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
        assert np.shares_memory(p2.chain_pairs, prob.chain_pairs)
        assert len(p2.points2) == 200
        assert p2.k_corr == 8
        assert np.allclose(p2.pose_to_world(p2.init_pose).matrix(), other.matrix(), atol=1e-9)
