"""Controller conformance driven by a scripted tip, plus episode smoke runs.

The scripted test walks every branch of the decision rule with hand-picked
tip addresses on a small tree and checks the exact command sequence. Burst
magnitudes come from a twin generator stepped in lockstep, which doubles as
proof that decide() draws exactly one burst per forward-phase call and none
while backing up.
"""

import dataclasses
import importlib.util
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from vesselnav import cli, navigator
from vesselnav.cli import parse_suite, standard_config_text
from vesselnav.lifting import OffVesselError
from vesselnav.navigator import (
    EpisodeConfig,
    Navigator,
    NavigatorParams,
    PerceptionEstimator,
    run_episode,
)
from vesselnav.perception import NoiseSpec
from vesselnav.simulator import ActuationNoise, ControlCommand, initial_wire
from vesselnav.vessel_model import (
    Branch,
    PhantomSpec,
    VesselTree,
    generate_phantom,
    validate_tree,
)


def _branch(positions, radius=1.5, parent=None, attach=None):
    return Branch(positions, np.full(len(positions), radius), parent, attach)


def y_tree_10mm():
    """Y-shaped tree with 10 mm spacing so no scripted tip is within reach."""
    root = _branch([(0, 0, 0), (10, 0, 0), (20, 0, 0), (30, 0, 0)])
    left = _branch([(10, 0, 0), (10, 10, 0), (10, 20, 0)], parent=0, attach=1)
    right = _branch([(30, 0, 0), (30, 0, 10)], parent=0, attach=3)
    root.child_links = [1, 2]
    tree = VesselTree({0: root, 1: left, 2: right}, root=0)
    validate_tree(tree)
    return tree


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            NavigatorParams(burst_low=12, burst_high=8)
        with pytest.raises(ValueError):
            NavigatorParams(back_step=0)
        with pytest.raises(ValueError):
            NavigatorParams(reach_threshold_mm=0.0)

    def test_reached_is_inclusive(self):
        tree = y_tree_10mm()
        nav = Navigator(tree, (1, 2), (2, 1))
        dest = tree.position((2, 1))
        assert nav.reached(dest)
        assert nav.reached(dest + np.array([3.0, 0.0, 0.0]))
        assert not nav.reached(dest + np.array([3.0001, 0.0, 0.0]))


class TestEpisodeConfig:
    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(max_loops=0), "max_loops = 0 must be at least 1"),
            (dict(spacing_mm=0.0), "spacing_mm = 0.0 must be positive"),
            (dict(spacing_mm=float("nan")), "spacing_mm = nan must be positive"),
        ],
        ids=["max_loops_0", "spacing_0", "spacing_nan"],
    )
    def test_checks_run_at_construction(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            EpisodeConfig(**kwargs)


class TestDecisionRule:
    def test_scripted_command_sequence(self):
        tree = y_tree_10mm()
        params = NavigatorParams(replan_after_misses=2)
        nav = Navigator(tree, (1, 2), (2, 1), params=params, rng=np.random.default_rng(42))
        twin = np.random.default_rng(42)

        def burst():
            return float(twin.integers(params.burst_low, params.burst_high + 1))

        def decide(addr):
            return nav.decide(addr, tree.position(addr))

        # Backing-up phase: on the route the wire retreats with no rotation
        # and no burst draw.
        assert decide((1, 2)) == ControlCommand(-10.0, 0)
        assert decide((1, 1)) == ControlCommand(-10.0, 0)
        assert nav.flag_back and nav.replans == 0

        # First off-route sighting flips to the forward phase and replans
        # from the actual tip.
        assert decide((0, 0)) == ControlCommand(10.0, 0)
        assert not nav.flag_back
        assert nav.replans == 1
        assert nav.route[0] == (0, 0)

        # Forward phase. Fresh on-route contact after a miss rotates once.
        assert decide((0, 1)) == ControlCommand(burst(), 1)
        # Staying on route goes straight.
        assert decide((0, 2)) == ControlCommand(burst(), 0)

        # Off-route bursts retreat with rotation and count misses.
        assert decide((1, 0)) == ControlCommand(-burst(), 1)
        assert nav.miss_count == 1
        assert decide((1, 1)) == ControlCommand(-burst(), 1)
        assert decide((1, 0)) == ControlCommand(-burst(), 1)
        assert nav.miss_count == 3

        # Miss budget exceeded: replan from the tip (which is therefore on
        # the new route), reset the count, arm the backing-up phase, and
        # still issue this loop's forward command.
        assert decide((1, 0)) == ControlCommand(burst(), 1)
        assert nav.replans == 2
        assert nav.miss_count == 0
        assert nav.flag_back
        assert nav.route[0] == (1, 0)

        # Armed backing-up phase retreats from the on-route tip, then the
        # next off-route sighting transitions forward again.
        assert decide((1, 0)) == ControlCommand(-10.0, 0)
        assert decide((0, 0)) == ControlCommand(10.0, 0)
        assert nav.replans == 3

        # Within reach: no command.
        assert nav.decide((2, 1), tree.position((2, 1))) is None

        # decide() consumed exactly the bursts the twin did.
        assert nav.rng.integers(0, 2**31) == twin.integers(0, 2**31)

    def test_on_route_contact_resets_miss_count(self):
        tree = y_tree_10mm()
        nav = Navigator(tree, (0, 0), (2, 1), rng=np.random.default_rng(7))
        nav.flag_back = False
        decide = lambda addr: nav.decide(addr, tree.position(addr))
        decide((1, 1))
        decide((1, 2))
        assert nav.miss_count == 2
        cmd = decide((0, 2))
        assert nav.miss_count == 0
        assert cmd.rotate == 1 and cmd.translate > 0


class TestEpisodes:
    def test_oracle_episodes_reach_leaves(self):
        tree = generate_phantom(PhantomSpec(), seed=11)
        leaves = sorted(b for b, br in tree.branches.items() if not br.child_links)
        config = EpisodeConfig(oracle_perception=True)
        for leaf in leaves[:3]:
            dest = (leaf, len(tree.branches[leaf]) - 1)
            report = run_episode(tree, (0, 20), dest, seed=5, config=config)
            assert report.success, f"dest {dest} did not converge"
            assert report.loops <= 500
            assert report.loops == len(report.records)
            assert report.mean_tip_error_mm() == 0.0

    def test_oracle_episode_deterministic(self):
        tree = generate_phantom(PhantomSpec(), seed=11)
        dest_branch = sorted(b for b, br in tree.branches.items() if not br.child_links)[0]
        dest = (dest_branch, len(tree.branches[dest_branch]) - 1)
        config = EpisodeConfig(oracle_perception=True)

        def trace():
            rep = run_episode(tree, (0, 20), dest, seed=9, config=config)
            return [(r.command, r.true_address) for r in rep.records]

        assert trace() == trace()

    def test_oracle_standard_suite_is_pinned(self, tmp_path):
        # (success, loops, replans) of the 25 oracle standard-suite episodes,
        # read before the control loop moved onto the address tables; any
        # change to planning, control or actuation shows here as a diff.
        cfg = tmp_path / "standard.ini"
        cfg.write_text(standard_config_text(oracle=True))
        suite = parse_suite(cfg)
        loops = {
            "t1": [28, 22, 17, 16, 26],
            "t2": [27, 14, 14, 15, 13],
            "t3": [13, 22, 13, 14, 15],
            "t4": [11, 12, 11, 13, 10],
            "t5": [18, 29, 26, 25, 34],
        }
        got = {}
        for task in suite.tasks:
            got[task.name] = []
            for seed in task.seeds:
                r = run_episode(suite.tree, task.start, task.dest, seed=seed, config=suite.episode)
                got[task.name].append((r.success, r.loops, r.replans))
        assert got == {name: [(True, n, 1) for n in counts] for name, counts in loops.items()}

    def test_full_perception_standard_suite_is_pinned(self, tmp_path):
        # (success, loops, replans, lift misses) of the 25 clean
        # full-perception standard-suite episodes, where a lift miss is a
        # loop whose estimated address is not the true one; any change to
        # rendering, segmentation, registration, lifting, control or
        # actuation shows here as a diff.
        cfg = tmp_path / "standard.ini"
        cfg.write_text(standard_config_text(oracle=False))
        suite = parse_suite(cfg)
        want = {
            "t1": [(30, 1, 18), (29, 1, 22), (26, 1, 18), (9, 1, 8), (13, 1, 10)],
            "t2": [(29, 1, 18), (12, 1, 9), (30, 1, 21), (12, 1, 10), (11, 1, 8)],
            "t3": [(28, 1, 16), (12, 1, 6), (11, 1, 6), (19, 1, 15), (21, 1, 15)],
            "t4": [(10, 1, 8), (10, 1, 7), (9, 1, 6), (21, 1, 17), (9, 1, 8)],
            "t5": [(26, 3, 22), (12, 1, 10), (11, 1, 9), (33, 3, 22), (25, 3, 20)],
        }
        got = {}
        for task in suite.tasks:
            got[task.name] = []
            for seed in task.seeds:
                r = run_episode(suite.tree, task.start, task.dest, seed=seed, config=suite.episode)
                misses = sum(rec.estimated_address != rec.true_address for rec in r.records)
                got[task.name].append((r.success, r.loops, r.replans, misses))
        assert got == {name: [(True, *row) for row in rows] for name, rows in want.items()}

    def test_noise_free_actuation_still_succeeds(self):
        tree = generate_phantom(PhantomSpec(), seed=11)
        dest_branch = sorted(b for b, br in tree.branches.items() if not br.child_links)[1]
        dest = (dest_branch, len(tree.branches[dest_branch]) - 1)
        config = EpisodeConfig(oracle_perception=True, actuation_noise=ActuationNoise(0.0, 0.0))
        report = run_episode(tree, (0, 20), dest, seed=2, config=config)
        assert report.success

    def test_standard_tasks_full_perception(self, tmp_path):
        # Every stage runs: imaging, segmentation, thinning, registration
        # (solved until a solve converges, then held), lifting, planning,
        # control and actuation.
        cfg = tmp_path / "standard.ini"
        cfg.write_text(standard_config_text(oracle=False))
        suite = parse_suite(cfg)
        assert len(suite.tasks) == 5 and not suite.episode.oracle_perception
        for task in suite.tasks:
            report = run_episode(suite.tree, task.start, task.dest, seed=0, config=suite.episode)
            assert report.success, f"task {task.name} failed after {report.loops} loops"


class TestPerceptionEstimator:
    def test_first_estimate_reads_only_the_wire_body(self, monkeypatch):
        tree = generate_phantom(PhantomSpec(), seed=11)
        start = (0, 20)
        config = EpisodeConfig(max_loops=1)
        want = run_episode(tree, start, (7, 25), seed=0, config=config).records[0]

        def no_truth(*args):
            raise AssertionError("perception read the true tip")

        monkeypatch.setattr(navigator, "true_tip", no_truth)
        estimator = PerceptionEstimator(tree, start, config, np.random.default_rng(0))
        est = estimator.estimate(SimpleNamespace(body=initial_wire(tree, start).body))
        assert est.address == want.estimated_address
        assert float(np.linalg.norm(est.position - tree.position(start))) == want.tip_error_mm
        assert est.rmse_px == want.registration_rmse_px
        assert est.lift_error_px == want.lift_pixel_error
        assert est.tip_px == want.tip_pixel_px

    def test_registration_model_builds_no_address_tables(self, monkeypatch):
        # The control tree plans and steps on its address tables; the
        # registration model is only projected and lifted, so it never
        # builds them.
        models = []
        real_resample = navigator.resample_centerlines

        def resample_centerlines(tree, spacing):
            models.append(real_resample(tree, spacing))
            return models[-1]

        monkeypatch.setattr(navigator, "resample_centerlines", resample_centerlines)
        tree = generate_phantom(PhantomSpec(), seed=11)
        report = run_episode(tree, (0, 20), (7, 25), seed=0, config=EpisodeConfig())
        assert report.success and len(models) == 1
        assert len(models[0].flat_points()[1]) == 873
        assert tree._graph is not None
        assert models[0]._graph is None

    def test_failed_lifts_hold_the_start_address(self, monkeypatch):
        # Every lift fails, so the estimate stays at the start address while
        # the true tip moves.
        def off_vessel(*args, **kwargs):
            raise OffVesselError("tip is off every vessel")

        monkeypatch.setattr(navigator, "lift", off_vessel)
        tree = generate_phantom(PhantomSpec(), seed=11)
        config = EpisodeConfig(max_loops=3)
        report = run_episode(tree, (0, 20), (7, 25), seed=0, config=config)
        assert len(report.records) == 3
        assert all(np.isnan(r.lift_pixel_error) for r in report.records)
        assert [r.estimated_address for r in report.records] == [(0, 20)] * 3
        assert any(r.true_address != (0, 20) for r in report.records)

    def test_converged_registration_is_held(self, monkeypatch):
        # Camera and tree are static: the clean first frame's cold solve
        # converges, and every later frame lifts through its pose without
        # thinning the vessel mask or solving again.
        vessel_masks, vessel_thins, states = [], [], []
        real_segment, real_thin, real_solve = navigator.segment_layers, navigator.thin, navigator.solve

        def segment_layers(frame):
            layers = real_segment(frame)
            vessel_masks.append(layers[0])
            return layers

        def thin(mask):
            if mask is vessel_masks[-1]:
                vessel_thins.append(mask)
            return real_thin(mask)

        def solve(prob):
            states.append(real_solve(prob))
            return states[-1]

        monkeypatch.setattr(navigator, "segment_layers", segment_layers)
        monkeypatch.setattr(navigator, "thin", thin)
        monkeypatch.setattr(navigator, "solve", solve)
        tree = generate_phantom(PhantomSpec(), seed=11)
        report = run_episode(tree, (0, 20), (7, 25), seed=0, config=EpisodeConfig())
        assert report.success and len(vessel_masks) == report.loops + 1 > 2
        assert len(states) == 1 and states[0].converged
        assert len(vessel_thins) == 1
        assert len({r.registration_rmse_px for r in report.records}) == 1

    def test_unconverged_solve_is_followed_by_a_cold_solve(self, monkeypatch):
        # Frame 0's solve is made to report no convergence, so frame 1 solves
        # again, cold from frame 0's registered pose; its solve converges and
        # frame 2 holds that pose.
        calls = []
        real_solve = navigator.solve

        def solve(prob):
            state = real_solve(prob)
            if not calls:
                state = dataclasses.replace(state, converged=False)
            calls.append((prob, state))
            return state

        monkeypatch.setattr(navigator, "solve", solve)
        tree = generate_phantom(PhantomSpec(), seed=11)
        report = run_episode(tree, (0, 20), (7, 25), seed=0, config=EpisodeConfig(max_loops=3))
        assert len(report.records) == 3
        assert len(calls) == 2
        (_, first), (prob, second) = calls
        assert np.allclose(prob.init_pose.rotation, first.pose.rotation, rtol=0.0, atol=1e-12)
        assert np.allclose(prob.init_pose.translation, first.pose.translation, rtol=0.0, atol=1e-9)
        assert second.converged

    @pytest.mark.parametrize("noise", [None, NoiseSpec(10.0)], ids=["clean", "std10"])
    def test_first_frame_registration_bias_is_bounded(self, noise):
        # Registration starts at the view pose the frame was rendered with and
        # walks off it: measured on phantom 11's first frame at 0:20, 0.388 /
        # 0.398 px RMSE and +2.41 / +2.48 mm of depth at the model centroid
        # (clean / std 10), mostly depth, which is weakly observable at
        # 820 mm. The bounds sit above the measurement.
        tree = generate_phantom(PhantomSpec(), seed=11)
        config = EpisodeConfig(imaging_noise=noise)
        estimator = PerceptionEstimator(tree, (0, 20), config, np.random.default_rng(0))
        est = estimator.estimate(initial_wire(tree, (0, 20)))
        assert estimator.reg_state.converged
        center = estimator.base_problem.center
        depth_shift = est.pose_world.apply(center[None])[0, 2] - estimator.view.apply(center[None])[0, 2]
        assert est.rmse_px < 0.5
        assert abs(depth_shift) < 3.5


def _tracing():
    """The benchmark's tracer module, loaded read-only from its file."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_traced_names_resolve_on_navigator():
    # The benchmark's tracer wraps these names in vesselnav.navigator's
    # namespace and its classes' own dicts, and its driver calls the rest;
    # a name that moves breaks every benchmark run.
    tracing = _tracing()
    for attr, _ in tracing.NAVIGATOR_CALLS:
        assert callable(getattr(navigator, attr, None)), attr
    for cls_name, attr, _ in tracing.METHOD_CALLS:
        assert attr in getattr(navigator, cls_name).__dict__, (cls_name, attr)
    for module, attr in [(cli, "generate_phantom"), (cli, "parse_suite"), (navigator, "run_episode")]:
        assert callable(getattr(module, attr, None)), attr
    assert "max_loops" in {f.name for f in dataclasses.fields(EpisodeConfig)}


def test_tracer_records_every_traced_name():
    tracing = _tracing()
    tree = generate_phantom(PhantomSpec(), seed=11)
    tracer = tracing.Tracer()
    with tracer.patched():
        run_episode(tree, (0, 20), (7, 25), seed=0, config=EpisodeConfig(max_loops=2))
    recorded = {span[tracing.NAME] for span in tracer.spans}
    wanted = {name for _, name in tracing.NAVIGATOR_CALLS} | {name for *_, name in tracing.METHOD_CALLS}
    assert wanted <= recorded, wanted - recorded
