"""End-to-end acceptance checks.

Each criterion prints one PASS/FAIL line with its measured numbers (bypassing
pytest's capture so the line always reaches the console), then asserts.
Thresholds are fixed here and are not meant to be tuned: route lengths must
match Dijkstra bitwise, reruns must be byte-identical, lifting errors must
stay within the radius-plus-spacing bound on every frame, and the perception
primitives must agree exactly with brute-force reference implementations.
"""

import dataclasses
import filecmp
import time

import numpy as np
from scipy import ndimage

from lifting_reference import lateral_error_bound, radius_at
from planning_reference import counted_plan, dijkstra_route_length, route_length
from registration_reference import _dense_jacobian, _fd_jacobian
from test_perception import (
    EIGHT,
    brute_otsu,
    exhaustive_endpoints,
    naive_thin,
    random_blob_mask,
    random_image,
)
from vesselnav.cli import parse_suite, run_suite, standard_config_text
from vesselnav.geometry import CameraModel, Pose, project, project_points, se3_exp
from vesselnav.lifting import lift
from vesselnav.navigator import EpisodeConfig, Navigator, NavigatorParams, run_episode
from vesselnav.perception import endpoint_candidates, otsu_threshold, thin
from vesselnav.planning import plan
from vesselnav.registration import (
    RegistrationProblem,
    RegistrationState,
    _read,
    _weights,
    reprojection_rmse,
    solve,
)
from vesselnav.vessel_model import (
    Branch,
    PhantomSpec,
    VesselTree,
    generate_phantom,
    resample_centerlines,
)


def report(capsys, n, name, ok, detail):
    with capsys.disabled():
        print(f"\ncriterion {n} ({name}): {'PASS' if ok else 'FAIL'} - {detail}", flush=True)


def test_criterion_1_standard_suite_oracle_navigation(tmp_path, capsys):
    cfg = tmp_path / "standard.ini"
    cfg.write_text(standard_config_text(oracle=True))
    suite = dataclasses.replace(parse_suite(cfg), outdir=tmp_path / "run")
    t0 = time.perf_counter()
    results = run_suite(suite)
    wall = time.perf_counter() - t0
    episodes = sum(len(t.seeds) for t in suite.tasks)
    wins = sum(r.successes for r in results)
    means = [r.loops_mean() for r in results]
    ok = (
        episodes == 25
        and wins == 25
        and all(m is not None and m <= 200.0 for m in means)
        and wall < 120.0
    )
    report(
        capsys, 1, "standard suite",
        ok, f"{wins}/{episodes} success, task mean loops "
        f"{min(means):.1f}..{max(means):.1f}, {wall:.1f}s",
    )
    assert ok, (wins, means, wall)


def test_criterion_2_route_lengths_match_dijkstra(capsys, monkeypatch):
    variants = [
        PhantomSpec(),
        PhantomSpec(depth=5, branching=2, segment_length=(16.0, 24.0)),
        PhantomSpec(depth=3, branching=3),
        PhantomSpec(depth=2, branching=4),
        PhantomSpec(depth=6, branching=1),
        PhantomSpec(segment_length=(20.0, 30.0), step_mm=0.75),
    ]
    rng = np.random.default_rng(2002)
    counted = counted_plan(monkeypatch)
    t0 = time.perf_counter()
    pairs = 0
    biggest = 0
    for k in range(200):
        tree = generate_phantom(variants[k % len(variants)], seed=9000 + k)
        _, addrs = tree.flat_points()
        assert len(addrs) <= 1000
        biggest = max(biggest, len(addrs))
        for _ in range(2):
            i, j = rng.integers(0, len(addrs), size=2)
            a, b = addrs[int(i)], addrs[int(j)]
            route, steps = counted(tree, a, b)
            assert route_length(tree, route) == dijkstra_route_length(tree, a, b)
            depth = tree.address_graph().depth
            assert steps <= depth[a] + depth[b]
            pairs += 1
    wall = time.perf_counter() - t0
    ok = pairs == 400 and wall < 30.0
    report(
        capsys, 2, "global planning",
        ok, f"{pairs} routes on 200 trees (max {biggest} points) exact, {wall:.1f}s",
    )
    assert ok, (pairs, wall)


def test_criterion_3_registration_recovery_and_jacobian(capsys):
    cam = CameraModel.standard()
    tree = generate_phantom(PhantomSpec(), seed=11)
    dense = resample_centerlines(tree, 0.25)
    pts, _ = dense.flat_points()
    world = Pose(np.eye(3), np.array([0.0, 0.0, 820.0]) - pts.mean(axis=0))
    prob0 = RegistrationProblem.from_tree(dense, None, cam, world)
    true_c = prob0.pose_from_world(world)
    pix, depth = project_points(prob0.points3, true_c, cam)
    assert np.all(depth > 0)

    rng = np.random.default_rng(303)
    sub_px = 0
    for _ in range(50):
        d = rng.normal(size=3)
        t = rng.uniform(0.0, 10.0) * d / np.linalg.norm(d)
        a = rng.normal(size=3)
        r = np.deg2rad(rng.uniform(0.0, 5.0)) * a / np.linalg.norm(a)
        prob = prob0.with_frame(pix, prob0.pose_to_world(true_c.compose(se3_exp(np.concatenate([t, r])))))
        sub_px += reprojection_rmse(prob, solve(prob), pix) < 0.5

    # The analytic Jacobian of the weighted map distances against central
    # differences of the brute-force reference, on the rows whose pixel stays
    # inside one bilinear cell over every step.
    worst = 0.0
    jrng = np.random.default_rng(304)
    for _ in range(100):
        pts3 = jrng.uniform(-20, 20, (8, 3))
        q = jrng.uniform(100, 400, (24, 2))
        tw = np.concatenate([jrng.uniform(-5, 5, 3), jrng.uniform(-0.05, 0.05, 3)])
        jitter = jrng.normal(0.0, 0.5, (8, 3))
        prob = RegistrationProblem(pts3 + jitter, q, cam, Pose(np.eye(3), np.array([0.0, 0.0, 800.0])))
        pose = prob.init_pose.compose(se3_exp(tw))
        weights = _weights(_read(prob, pose), 6.0)
        ja = _dense_jacobian(prob, pose, weights)
        jn, same_cell = _fd_jacobian(prob, pose, weights)
        worst = max(worst, np.abs(ja - jn)[same_cell].max() / max(1.0, np.abs(jn[same_cell]).max()))

    ok = sub_px >= 48 and worst < 1e-5
    report(
        capsys, 3, "registration",
        ok, f"{sub_px}/50 solves under 0.5 px, worst Jacobian mismatch {worst:.2e}",
    )
    assert ok, (sub_px, worst)


def test_criterion_4_lifting_bound_and_closed_loop(capsys):
    tree = generate_phantom(PhantomSpec(), seed=11)
    cam = CameraModel.standard()
    pts, _ = tree.flat_points()
    view = Pose(np.eye(3), np.array([0.0, 0.0, 820.0]) - pts.mean(axis=0))
    model = resample_centerlines(tree, 0.5)
    prob = RegistrationProblem.from_tree(model, None, cam, view)
    state = RegistrationState(prob.pose_from_world(view), 2.0)

    route = plan(tree, (0, 20), (11, 33))
    held = 0
    prev3 = None
    for addr in route:
        true3 = tree.position(addr)
        tip2 = project(true3, view, cam)
        lifted = lift(prob, state, tip2, previous3=prev3)
        err = float(np.linalg.norm(lifted.position3 - true3))
        held += err <= lateral_error_bound(radius_at(model, lifted.address), 0.5)
        prev3 = lifted.position3
    frames = len(route)

    rep = run_episode(tree, (0, 20), (10, 30), seed=3004, config=EpisodeConfig())
    ok = held == frames and rep.success
    report(
        capsys, 4, "tip lifting",
        ok, f"{held}/{frames} frames within bound; closed-loop episode "
        f"success={rep.success} in {rep.loops} loops",
    )
    assert ok, (held, frames, rep.success)


def test_criterion_5_perception_oracles(capsys):
    rng = np.random.default_rng(505)
    otsu_ok = 0
    tried = 0
    while tried < 100:
        img = random_image(rng)
        if img.min() == img.max():
            continue
        tried += 1
        t, mask = otsu_threshold(img)
        otsu_ok += t == brute_otsu(img) and np.array_equal(mask, img <= t)

    thin_ok = 0
    for _ in range(100):
        mask = random_blob_mask(rng)
        skel = thin(mask)
        good = np.array_equal(thin(skel), skel) and not np.any(skel & ~mask)
        labels, n_comp = ndimage.label(mask, structure=EIGHT)
        for comp in range(1, n_comp + 1):
            _, pieces = ndimage.label(skel & (labels == comp), structure=EIGHT)
            good = good and pieces <= 1
        thin_ok += good
    exact = all(
        np.array_equal(thin(m), naive_thin(m))
        for m in (random_blob_mask(rng) for _ in range(10))
    )

    end_ok = 0
    for _ in range(50):
        skel = thin(random_blob_mask(rng))
        end_ok += sorted(map(tuple, endpoint_candidates(skel))) == exhaustive_endpoints(skel)

    ok = otsu_ok == 100 and thin_ok == 100 and exact and end_ok == 50
    report(
        capsys, 5, "perception primitives",
        ok, f"otsu {otsu_ok}/100, thinning {thin_ok}/100 (+10 bitwise), endpoints {end_ok}/50",
    )
    assert ok, (otsu_ok, thin_ok, exact, end_ok)


def _control_tree():
    def line(origin, direction, n, parent=None, attach=None):
        return Branch(np.outer(np.arange(n), direction) + origin, np.full(n, 1.2), parent, attach)

    root = line((0, 0, 0), (10, 0, 0), 4)
    a = line((10, 0, 0), (0, 10, 0), 3, parent=0, attach=1)
    b = line((30, 0, 0), (0, 0, 10), 3, parent=0, attach=3)
    root.child_links = [1, 2]
    return VesselTree({0: root, 1: a, 2: b}, 0)


def test_criterion_6_scripted_control_conformance(capsys):
    tree = _control_tree()
    nav = Navigator(
        tree, (1, 2), (2, 1),
        params=NavigatorParams(replan_after_misses=2),
        rng=np.random.default_rng(42),
    )
    twin = np.random.default_rng(42)

    def burst():
        return float(twin.integers(8, 13))

    script = [
        ((1, 2), (-10.0, 0)),
        ((1, 1), (-10.0, 0)),
        ((0, 0), (10.0, 0)),
        ((0, 1), (burst(), 1)),
        ((0, 2), (burst(), 0)),
        ((1, 0), (-burst(), 1)),
        ((1, 1), (-burst(), 1)),
        ((1, 0), (-burst(), 1)),
        ((1, 0), (burst(), 1)),
        ((1, 0), (-10.0, 0)),
        ((0, 0), (10.0, 0)),
    ]
    hits = 0
    for est, expected in script:
        cmd = nav.decide(est, tree.position(est))
        hits += (cmd.translate, cmd.rotate) == expected
    done = nav.decide((2, 1), tree.position((2, 1))) is None
    drained = nav.rng.integers(0, 2**31) == twin.integers(0, 2**31)
    ok = hits == len(script) and done and drained
    report(
        capsys, 6, "sequential control",
        ok, f"{hits}/{len(script)} scripted commands exact, terminal None={done}",
    )
    assert ok, (hits, done, drained)


def test_criterion_7_bytewise_reproducibility(tmp_path, capsys):
    cfg = tmp_path / "suite.ini"
    cfg.write_text(standard_config_text(oracle=True))
    full_cfg = tmp_path / "full.ini"
    full_cfg.write_text(
        standard_config_text(oracle=False)
        .replace("max_loops = 500", "max_loops = 3")
        .replace("seeds = 0,1,2,3,4", "seeds = 3")
        + "\n"
    )

    def run_twice(path, dump):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{path.stem}-{tag}"
            suite = dataclasses.replace(parse_suite(path), outdir=out)
            run_suite(suite, dump_frames=out / "frames" if dump else None)
            outs.append(out)
        return outs

    identical = 0
    checked = 0
    for path, dump in ((cfg, False), (full_cfg, True)):
        a, b = run_twice(path, dump)
        files_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
        files_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
        assert files_a == files_b and files_a
        for rel in files_a:
            checked += 1
            identical += filecmp.cmp(a / rel, b / rel, shallow=False)

    ok = identical == checked and checked > 0
    report(
        capsys, 7, "reproducibility",
        ok, f"{identical}/{checked} output files byte-identical across reruns",
    )
    assert ok, (identical, checked)
