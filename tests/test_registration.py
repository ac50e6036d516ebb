"""Registration solver tests.

Expected values come from independent re-implementations: distances are
recomputed by brute force, the nearest rounded image point of every grid
pixel by nested Python loops and the bilinear reading by hand, and the
Jacobians are validated against central finite differences of the stacked
residual vector, with steps kept inside one bilinear cell.
"""

import warnings

import numpy as np
import pytest
from scipy import ndimage

from vesselnav import registration
from vesselnav.geometry import CameraModel, Pose, project_points, se3_exp
from vesselnav.navigator import EpisodeConfig, PerceptionEstimator
from vesselnav.perception import segment_layers, skeleton_points, thin
from vesselnav.registration import (
    RegistrationProblem,
    RegistrationState,
    _distance_transform,
    _normal_equations,
    _read,
    _surrogate_cost,
    _weights,
    reprojection_rmse,
    solve,
)
from vesselnav.simulator import initial_wire
from vesselnav.vessel_model import PhantomSpec, generate_phantom, resample_centerlines

from geometry_reference import pose_matrix
from registration_reference import (
    _dense_jacobian,
    _dense_residuals,
    _fd_jacobian,
    brute_force_transform,
    eval_objective,
    rasterized,
    reference_distance,
)


def small_problem(rng, n=14, m=40):
    """Random problem: n model points in front of the camera, m image points."""
    pts = rng.uniform(-20, 20, (n, 3))
    q = rng.uniform(100, 400, (m, 2))
    cam = CameraModel.standard()
    pose = Pose(np.eye(3), np.array([0.0, 0.0, 800.0]))
    return RegistrationProblem(pts, q, cam, pose)


def random_state(prob, rng):
    tw = np.concatenate([rng.uniform(-5, 5, 3), rng.uniform(-0.05, 0.05, 3)])
    return RegistrationState(prob.init_pose.compose(se3_exp(tw)), 6.0)


def oracle_objective(prob, state):
    """Direct nested-loop evaluation of the Geman-McClure data term."""
    k = prob.cam.intrinsics
    sigma = state.bandwidth_px
    cells = rasterized(prob)
    data = 0.0
    behind = []
    for i in range(len(prob.points3)):
        z = state.pose.rotation @ prob.points3[i] + state.pose.translation
        h = k[:, :3] @ z + k[:, 3]
        if h[2] <= 0:
            behind.append(i)
            continue
        d = reference_distance(prob, h[:2] / h[2], cells)
        data += 0.5 * d * d / (d * d + sigma * sigma)
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
        compared = 0
        for _ in range(10):
            prob = small_problem(rng, n=10, m=30)
            pose = random_state(prob, rng).pose
            weights = _weights(_read(prob, pose), 6.0)
            ja = _dense_jacobian(prob, pose, weights)
            jn, same_cell = _fd_jacobian(prob, pose, weights)
            scale = max(1.0, np.abs(jn[same_cell]).max())
            worst = max(worst, np.abs(ja - jn)[same_cell].max() / scale)
            compared += int(same_cell.sum())
        assert compared >= 95
        assert worst < 1e-5

    def test_normal_equations_match_dense_jacobian(self):
        rng = np.random.default_rng(13)
        for _ in range(2):
            prob = small_problem(rng, n=9, m=25)
            pose = random_state(prob, rng).pose
            cur = _read(prob, pose)
            weights = _weights(cur, 5.0)
            j = _dense_jacobian(prob, pose, weights)
            rho = _dense_residuals(prob, pose, weights)
            app, gp = _normal_equations(prob, pose, cur, weights)
            assert np.allclose(app, j.T @ j, atol=1e-9)
            assert np.allclose(gp, j.T @ rho, atol=1e-9)


class TestSurrogate:
    def test_frozen_weight_surrogate_majorizes_data_energy(self):
        # With the Geman-McClure weights frozen at a reference state, the
        # quadratic surrogate changes by at least as much as the data energy
        # for any candidate state (the tangent of the concave d^2 -> d^2 /
        # (d^2 + sigma^2) lies above it).
        rng = np.random.default_rng(17)
        for _ in range(25):
            prob = small_problem(rng)
            ref = random_state(prob, rng)
            weights = _weights(_read(prob, ref.pose), ref.bandwidth_px)

            cand = random_state(prob, rng)
            cand.bandwidth_px = ref.bandwidth_px
            e_ref = eval_objective(prob, ref)
            e_cand = eval_objective(prob, cand)
            if e_cand.behind_camera or e_ref.behind_camera:
                continue
            def surrogate(state):
                return _surrogate_cost(_read(prob, state.pose), weights)

            lhs = e_cand.data - e_ref.data
            rhs = surrogate(cand) - surrogate(ref)
            assert lhs <= rhs + 1e-9

    def test_surrogate_matches_distance_map_reference(self):
        # The map reading, the surrogate and its gradient must reproduce the
        # brute-force reference (up to rounding), including rows that fall
        # behind the camera after the weights froze and rows that project off
        # the image.
        rng = np.random.default_rng(29)
        for trial in range(20):
            prob = small_problem(rng)
            ref = random_state(prob, rng)
            weights = _weights(_read(prob, ref.pose), 4.0)
            prob.points3[3, 0] = 300.0  # about 900 px right of the centre: off the image
            if trial % 2:
                prob.points3[4, 2] = -5000.0  # behind the camera, but weighted
            pose = random_state(prob, rng).pose
            cur = _read(prob, pose)
            assert (cur.depth[4] <= 0) == bool(trial % 2)
            assert cur.pix[3, 0] > prob.cam.image_size[0]

            want = np.zeros(len(prob.points3))
            for i in np.flatnonzero(cur.depth > 0):
                want[i] = reference_distance(prob, cur.pix[i])
            assert np.allclose(cur.dist, want, rtol=1e-12, atol=1e-12)

            rho = _dense_residuals(prob, pose, weights)
            got = _surrogate_cost(cur, weights)
            assert got == pytest.approx(0.5 * float(rho @ rho), rel=1e-10)

            _, gp = _normal_equations(prob, pose, cur, weights)
            assert np.allclose(gp, _dense_jacobian(prob, pose, weights).T @ rho, rtol=1e-10, atol=1e-12)

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
    prob0 = RegistrationProblem.from_tree(dense, cam, world)
    true_c = prob0.pose_from_world(world)
    pix, depth = project_points(prob0.points3, true_c, cam)
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
    """The first of criterion 3's perturbed clean problems, and its solve."""
    prob0, true_c, pix = scene
    rng = np.random.default_rng(303)
    d = rng.normal(size=3)
    t = rng.uniform(0.0, 10.0) * d / np.linalg.norm(d)
    a = rng.normal(size=3)
    r = np.deg2rad(rng.uniform(0.0, 5.0)) * a / np.linalg.norm(a)
    prob = prob0.with_frame(pix, prob0.pose_to_world(true_c.compose(se3_exp(np.concatenate([t, r])))))
    return prob, solve(prob)


class TestConvergedFlag:
    def test_stall_at_optimum_is_converged(self):
        # At depth f = 2500 mm a point (X, Y, 0) projects exactly onto pixel
        # (X + 256, Y + 256), so a model of integer points starts on its own
        # image: every distance and the surrogate are 0, no LM step can lower
        # it, and the solve stalls at the floor with the pose at the optimum.
        cam = CameraModel.standard()
        pts = np.array([[x, y, 0.0] for x, y in [(-30, -20), (-10, 25), (0, 0), (15, -35), (40, 10), (22, 31)]])
        pose = Pose(np.eye(3), np.array([0.0, 0.0, 2500.0]))
        prob = RegistrationProblem(pts, pts[:, :2] + 256.0, cam, pose)
        st = solve(prob)
        assert st.diagnostics["history"] == []
        assert st.bandwidth_px == registration._SIGMA_FLOOR_PX
        assert st.iteration == 2
        assert st.converged

    def test_solve_reads_the_map_once_per_pose(self, clean_cold, monkeypatch):
        # The start reading that sets the first sigma is also the first outer
        # iteration's, and each LM trial reads its candidate pose once.
        prob, _ = clean_cold
        reads, trials = [], []
        read, solve_step = registration._read, registration._solve_step

        def counted_read(*args):
            reads.append(args)
            return read(*args)

        def counted_step(*args):
            trials.append(args)
            return solve_step(*args)

        monkeypatch.setattr(registration, "_read", counted_read)
        monkeypatch.setattr(registration, "_solve_step", counted_step)
        st = solve(prob)
        assert st.converged
        assert len(reads) == 1 + len(trials) > st.iteration

    def test_exhausted_iteration_budget_is_not_converged(self, clean_cold, monkeypatch):
        prob, _ = clean_cold
        monkeypatch.setattr(registration, "_MAX_OUTER_ITERS", 1)
        st = solve(prob)
        assert st.iteration == 1
        assert not st.converged


@pytest.fixture(scope="module")
def criterion_3_solves(scene):
    """Criterion 3's 50 perturbed clean problems, solved, with the
    damping of every LM trial of each solve (from a wrapped _solve_step)."""
    prob0, true_c, pix = scene
    rng = np.random.default_rng(303)
    dampings: list[float] = []
    real = registration._solve_step

    def logged(app, gp, damping, rotation_locked=False):
        dampings.append(damping)
        return real(app, gp, damping, rotation_locked)

    solves = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(registration, "_solve_step", logged)
        for _ in range(50):
            d = rng.normal(size=3)
            t = rng.uniform(0.0, 10.0) * d / np.linalg.norm(d)
            a = rng.normal(size=3)
            r = np.deg2rad(rng.uniform(0.0, 5.0)) * a / np.linalg.norm(a)
            init = true_c.compose(se3_exp(np.concatenate([t, r])))
            dampings.clear()
            solves.append((solve(prob0.with_frame(pix, prob0.pose_to_world(init))), list(dampings)))
    return solves


def stall_ladders(dampings):
    """The trial dampings of every LM step that failed up to the damping cap.

    A step's trials raise the damping by _LM_DAMPING_UP from one to the next,
    so a new step starts wherever that chain breaks; a chain that ends at the
    cap and is not followed by the step after an acceptance at the cap
    (cap / _LM_DAMPING_DOWN) failed.
    """
    up, cap = registration._LM_DAMPING_UP, registration._LM_DAMPING_CAP
    ladders = [[dampings[0]]]
    for prev, cur in zip(dampings, dampings[1:]):
        if cur == prev * up:
            ladders[-1].append(cur)
        else:
            ladders.append([cur])
    return [
        ladder
        for ladder, after in zip(ladders, ladders[1:] + [None])
        if ladder[-1] == cap and not (after and after[0] == cap / registration._LM_DAMPING_DOWN)
    ]


class TestStopRule:
    def test_every_criterion_3_solve_converges_inside_the_budget(self, criterion_3_solves):
        iterations = [st.iteration for st, _ in criterion_3_solves]
        assert all(st.converged for st, _ in criterion_3_solves)
        assert max(iterations) < registration._MAX_OUTER_ITERS

    def test_no_stage_ends_on_one_trial_at_the_damping_cap(self, criterion_3_solves):
        # Damping starts afresh in each stage and after a failed step, so a
        # step that fails has tried every damping from where it started up
        # to the cap, never the cap alone.
        ladders = [ladder for _, dampings in criterion_3_solves for ladder in stall_ladders(dampings)]
        assert all(len(ladder) > 1 for ladder in ladders)

    def test_stall_ladders_finds_a_lone_trial_at_the_cap(self):
        cap = registration._LM_DAMPING_CAP
        assert stall_ladders([1e-3, 1e-4, cap / 10, cap, cap, 1e-3]) == [[cap / 10, cap], [cap]]
        assert stall_ladders([cap / 10, cap, cap / 10]) == []


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
        # Every map reading, and so every weight and surrogate cost, is NaN.
        prob.dist_map = np.full_like(prob.dist_map, np.nan)
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
        assert st.bandwidth_px >= registration._SIGMA_FLOOR_PX

    def test_floor_respected(self, monkeypatch):
        rng = np.random.default_rng(31)
        prob = small_problem(rng, n=20, m=60)
        monkeypatch.setattr(registration, "_MAX_OUTER_ITERS", 60)
        monkeypatch.setattr(registration, "_SIGMA_FLOOR_PX", 3.0)
        st = solve(prob)
        assert st.bandwidth_px == pytest.approx(3.0)


class TestProblemConstruction:
    def test_from_tree_centers_points(self):
        tree = generate_phantom(PhantomSpec(depth=3), seed=5)
        cam = CameraModel.standard()
        world = Pose(np.eye(3), np.array([0.0, 0.0, 800.0]))
        prob = RegistrationProblem.from_tree(tree, cam, world)
        assert prob.dist_map is None
        assert np.allclose(prob.points3.mean(axis=0), 0.0, atol=1e-9)
        pts, _ = tree.flat_points()
        assert np.allclose(prob.points3 + prob.center, pts)

    def test_pose_round_trip_world_centered(self):
        tree = generate_phantom(PhantomSpec(depth=3), seed=5)
        cam = CameraModel.standard()
        world = Pose(np.eye(3), np.array([1.0, -2.0, 800.0]))
        prob = RegistrationProblem.from_tree(tree, cam, world)
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
        prob = RegistrationProblem.from_tree(tree, cam, world)
        with pytest.raises(ValueError, match="no frame"):
            solve(prob)
        q = np.random.default_rng(1).uniform(0, 512, (200, 2))
        other = Pose(np.eye(3), np.array([2.0, 1.0, 790.0]))
        p2 = prob.with_frame(q, other)
        assert np.shares_memory(p2.points3, prob.points3)
        assert prob.dist_map is None
        assert len(p2.points2) == 200
        assert np.allclose(pose_matrix(p2.pose_to_world(p2.init_pose)), pose_matrix(other), atol=1e-9)
        # the map is zero exactly at the rounded points and nowhere else
        assert p2.dist_map.shape == (512, 512)
        cells = set(rasterized(p2))
        zeros = {(int(x), int(y)) for y, x in np.argwhere(p2.dist_map == 0.0)}
        assert zeros == cells and len(cells) > 150

    def test_with_frame_drops_points_off_the_image(self):
        cam = CameraModel.standard(width=40, height=30)
        pts = np.random.default_rng(3).uniform(-5, 5, (8, 3))
        pose = Pose(np.eye(3), np.array([0.0, 0.0, 800.0]))
        q = np.array(
            [[-0.6, 3.0], [39.4, 29.4], [40.0, 5.0], [np.nan, 2.0], [7.0, -3.0],
             [1e20, 5.0], [5.0, -1e20], [np.inf, 4.0], [3.0, -np.inf]]
        )
        # Far finite points drop before any cast to an integer, which would
        # overflow and warn.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            prob = RegistrationProblem(pts, q, cam, pose)
            assert np.argwhere(prob.dist_map == 0.0).tolist() == [[29, 39]]
            with pytest.raises(ValueError, match="on the image"):
                RegistrationProblem(pts, np.delete(q, 1, axis=0), cam, pose)

    def test_non_square_camera_binds_a_height_by_width_map(self):
        cam = CameraModel.standard(width=96, height=64)
        pts = np.random.default_rng(4).uniform(-5, 5, (8, 3))
        q = np.array([[0.0, 0.0], [95.0, 10.0], [40.4, 63.0], [12.6, 31.5]])
        prob = RegistrationProblem(pts, q, cam, Pose(np.eye(3), np.array([0.0, 0.0, 800.0])))
        feature = np.zeros((64, 96), dtype=bool)
        feature[[0, 10, 63, 32], [0, 95, 40, 13]] = True
        assert prob.dist_map.shape == (64, 96)
        assert np.array_equal(prob.dist_map.view(np.int64), brute_force_transform(feature).view(np.int64))


class TestDistanceTransform:
    """The separable transform is bit-for-bit the square root of the least
    integer squared distance, which is also what scipy.ndimage returns."""

    @staticmethod
    def _assert_exact(feature):
        got = _distance_transform(feature)
        assert got.dtype == np.float64 and got.shape == feature.shape
        assert np.array_equal(got.view(np.int64), brute_force_transform(feature).view(np.int64))

    def test_random_masks_match_brute_force(self):
        rng = np.random.default_rng(23)
        for density in (0.0, 0.02, 0.1, 0.3, 0.7, 1.0):
            for _ in range(6):
                h, w = rng.integers(1, 65, 2)
                feature = rng.random((h, w)) < density
                feature[rng.integers(h), rng.integers(w)] = True  # 0.0: a single pixel
                self._assert_exact(feature)

    @pytest.mark.parametrize("shape", [(1, 1), (1, 64), (64, 1), (37, 53), (64, 64)], ids="{0[0]}x{0[1]}".format)
    def test_full_row_and_full_column_match_brute_force(self, shape):
        h, w = shape
        row = np.zeros(shape, dtype=bool)
        row[h // 3] = True
        col = np.zeros(shape, dtype=bool)
        col[:, w - 1] = True
        self._assert_exact(row)
        self._assert_exact(col)

    def test_wide_image_in_64_bit_arithmetic_matches_brute_force(self):
        # The chord test of x = 0, 1024, 2047 multiplies 2047^2 - 1024^2 by
        # 1024, past the int32 range.
        feature = np.zeros((1, 2048), dtype=bool)
        feature[0, [0, 1024, 2047]] = True
        self._assert_exact(feature)
        self._assert_exact(np.vstack([feature, feature[:, ::-1]]))

    def test_phantom_frame_matches_scipy(self):
        tree = generate_phantom(PhantomSpec(), seed=11)
        estimator = PerceptionEstimator(tree, (0, 20), EpisodeConfig(), np.random.default_rng(0))
        polyline = np.array([tree.position(a) for a in initial_wire(tree, (0, 20)).body])
        frame = estimator.renderer.render(polyline, noise=None, seed=estimator.rng)
        q = skeleton_points(thin(segment_layers(frame)[0]))
        cells = np.rint(q).astype(np.intp)
        free = np.ones((512, 512), dtype=bool)
        free[cells[:, 1], cells[:, 0]] = False
        got = registration._distance_map(q, estimator.base_problem.cam.image_size)
        assert len(q) > 1000
        assert np.array_equal(got.view(np.int64), ndimage.distance_transform_edt(free).view(np.int64))
