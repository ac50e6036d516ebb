"""Imaging and 2D perception tests.

Otsu is checked against a brute-force scorer over all 256 thresholds, the
thinner against a literal per-pixel reimplementation of the two-subiteration
rule, and endpoint detection against an exhaustive neighbor count. The
table-driven thinner and endpoint finder must also agree bit for bit, and
row for row, with the whole-array rule they replaced (thinning_reference),
and the vectorized capsule rasterizer pixel for pixel with the per-segment
loop it replaced (render_reference).
"""

import re

import numpy as np
import pytest
from scipy import ndimage

from vesselnav import perception
from vesselnav.geometry import CameraModel, project_points
from vesselnav.perception import (
    BACKGROUND_VALUE,
    LUMEN_TOLERANCE_MM,
    VESSEL_VALUE,
    WIRE_VALUE,
    ConstantImageError,
    FluoroFrame,
    FrameRenderer,
    NoiseSpec,
    SimulationIntegrityError,
    TrackedEndpoint,
    endpoint_candidates,
    frame_view_pose,
    otsu_threshold,
    segment_layers,
    skeleton_points,
    thin,
    track,
)
from vesselnav.vessel_model import PhantomSpec, generate_phantom

from render_reference import reference_draw_capsules
from thinning_reference import reference_endpoints, reference_thin

EIGHT = np.ones((3, 3), dtype=int)


def brute_otsu(values):
    v = values.ravel().astype(float)
    best_t, best = None, -np.inf
    for t in range(256):
        lo = v[v <= t]
        hi = v[v > t]
        if lo.size == 0 or hi.size == 0:
            continue
        score = (lo.size / v.size) * (hi.size / v.size) * (lo.mean() - hi.mean()) ** 2
        if score > best:
            best, best_t = score, t
    return best_t


def random_image(rng):
    h = int(rng.integers(2, 48))
    w = int(rng.integers(2, 48))
    kind = rng.integers(0, 3)
    if kind == 0:
        img = rng.integers(0, 256, size=(h, w))
    elif kind == 1:
        dark = rng.normal(rng.uniform(20, 90), rng.uniform(4, 25), size=(h, w))
        lite = rng.normal(rng.uniform(140, 235), rng.uniform(4, 25), size=(h, w))
        img = np.where(rng.random((h, w)) < rng.uniform(0.1, 0.9), dark, lite)
    else:
        levels = rng.integers(0, 256, size=rng.integers(2, 6))
        img = rng.choice(levels, size=(h, w))
    return np.clip(img, 0, 255).astype(np.uint8)


class TestOtsu:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(20)
        for _ in range(100):
            img = random_image(rng)
            if img.min() == img.max():
                continue
            t, mask = otsu_threshold(img)
            assert t == brute_otsu(img)
            assert np.array_equal(mask, img <= t)

    def test_tie_resolves_to_lowest(self):
        # Every threshold in [10, 199] yields the same partition; the lowest
        # level of the dark class must be reported.
        img = np.array([[10, 200], [10, 200]], dtype=np.uint8)
        t, mask = otsu_threshold(img)
        assert t == 10
        assert mask.sum() == 2

    def test_rejects_constant_and_empty(self):
        with pytest.raises(ConstantImageError):
            otsu_threshold(np.full((4, 4), 7, dtype=np.uint8))
        with pytest.raises(ConstantImageError):
            otsu_threshold(np.zeros((0,), dtype=np.uint8))

    def test_rejects_non_uint8(self):
        with pytest.raises(ValueError):
            otsu_threshold(np.zeros((4, 4), dtype=float))


def naive_thin(mask):
    img = mask.astype(np.uint8).copy()
    changed = True
    while changed:
        changed = False
        for second in (False, True):
            p = np.pad(img, 1)
            kill = []
            for r in range(img.shape[0]):
                for c in range(img.shape[1]):
                    if not img[r, c]:
                        continue
                    rr, cc = r + 1, c + 1
                    n = [
                        p[rr - 1, cc], p[rr - 1, cc + 1], p[rr, cc + 1],
                        p[rr + 1, cc + 1], p[rr + 1, cc], p[rr + 1, cc - 1],
                        p[rr, cc - 1], p[rr - 1, cc - 1],
                    ]
                    b = sum(n)
                    ring = n + [n[0]]
                    a = sum(ring[k] == 0 and ring[k + 1] == 1 for k in range(8))
                    p2, p3, p4, p5, p6, p7, p8, p9 = n
                    if second:
                        ok = p2 * p4 * p8 == 0 and p2 * p6 * p8 == 0
                    else:
                        ok = p2 * p4 * p6 == 0 and p4 * p6 * p8 == 0
                    if 2 <= b <= 6 and a == 1 and ok:
                        kill.append((r, c))
            if kill:
                changed = True
                for r, c in kill:
                    img[r, c] = 0
    return img.astype(bool)


def random_blob_mask(rng, size=28):
    mask = np.zeros((size, size), dtype=bool)
    yy, xx = np.mgrid[0:size, 0:size]
    for _ in range(int(rng.integers(1, 4))):
        cy, cx = rng.uniform(4, size - 4, size=2)
        rad = rng.uniform(2.0, 5.0)
        mask |= (yy - cy) ** 2 + (xx - cx) ** 2 <= rad**2
    for _ in range(int(rng.integers(1, 3))):
        a = rng.uniform(3, size - 3, size=2)
        b = rng.uniform(3, size - 3, size=2)
        for t in np.linspace(0.0, 1.0, 4 * size):
            py, px = a + (b - a) * t
            mask |= (yy - py) ** 2 + (xx - px) ** 2 <= 1.5**2
    return mask


class TestThinning:
    def test_matches_naive_reimplementation(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            mask = random_blob_mask(rng)
            assert np.array_equal(thin(mask), naive_thin(mask))

    def test_idempotent_and_never_splits_or_merges(self):
        rng = np.random.default_rng(22)
        for _ in range(100):
            mask = random_blob_mask(rng)
            skel = thin(mask)
            assert np.array_equal(thin(skel), skel)
            assert skel.sum() <= mask.sum()
            assert not np.any(skel & ~mask)
            labels, n_before = ndimage.label(mask, structure=EIGHT)
            for comp in range(1, n_before + 1):
                _, pieces = ndimage.label(skel & (labels == comp), structure=EIGHT)
                assert pieces <= 1

    def test_elongated_strokes_keep_their_component(self):
        # Long strokes thin to stable 1 px paths, one per input component.
        rng = np.random.default_rng(25)
        yy, xx = np.mgrid[0:48, 0:48]
        for _ in range(100):
            mask = np.zeros((48, 48), dtype=bool)
            for _ in range(int(rng.integers(1, 4))):
                a = rng.uniform(4, 44, size=2)
                ang = rng.uniform(0, 2 * np.pi)
                b = a + np.array([np.cos(ang), np.sin(ang)]) * rng.uniform(12, 30)
                b = np.clip(b, 2, 46)
                for t in np.linspace(0.0, 1.0, 160):
                    py, px = a + (b - a) * t
                    mask |= (yy - py) ** 2 + (xx - px) ** 2 <= 1.6**2
            skel = thin(mask)
            _, n_before = ndimage.label(mask, structure=EIGHT)
            _, n_after = ndimage.label(skel, structure=EIGHT)
            assert n_after == n_before

    def test_even_core_blobs_vanish_like_the_textbook_rule(self):
        # Compact blobs whose final peel is a 2x2 core are erased by the
        # parallel two-subiteration rule; the naive oracle agrees, so this is
        # the algorithm's documented behavior rather than a defect here.
        yy, xx = np.mgrid[0:20, 0:20]
        even = (yy - 10.5) ** 2 + (xx - 10.5) ** 2 <= 16.0
        odd = (yy - 10.0) ** 2 + (xx - 10.0) ** 2 <= 16.0
        assert not thin(even).any()
        assert not naive_thin(even).any()
        assert thin(odd).sum() == 1

    def test_empty_mask(self):
        assert not thin(np.zeros((5, 5), dtype=bool)).any()

    def test_returned_array_is_private_copy(self):
        mask = random_blob_mask(np.random.default_rng(23))
        a = thin(mask)
        b = thin(mask)
        a[:] = False
        assert b.any()


def assert_matches_array_rule(mask):
    skel = thin(mask)
    assert np.array_equal(skel, reference_thin(mask))
    # skeleton pixels in np.argwhere's row-major order, as (x, y)
    got, want = skeleton_points(skel), np.argwhere(skel)[:, ::-1].astype(float)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)
    for image in (skel, mask):
        got, want = endpoint_candidates(image), reference_endpoints(image)
        # the same rows in the same order: track breaks distance ties by index
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)


class TestArrayRuleReference:
    @pytest.mark.parametrize("std", [0.0, 10.0, 30.0])
    def test_full_frame_masks(self, std):
        tree = generate_phantom(PhantomSpec(), 11)
        renderer = FrameRenderer(tree, frame_view_pose(tree, 820.0), CameraModel.standard())
        frame = renderer.render(tree.branches[0].positions[:20], noise=NoiseSpec(std), seed=3)
        vessel, wire, _, _ = segment_layers(frame)
        assert vessel.shape == (512, 512)
        for mask in (vessel, wire):
            assert_matches_array_rule(mask)

    def test_masks_touching_every_border(self):
        rng = np.random.default_rng(31)
        for _ in range(60):
            h, w = (int(v) for v in rng.integers(3, 40, size=2))
            mask = rng.random((h, w)) < rng.uniform(0.3, 0.95)
            mask[[0, -1], int(rng.integers(w))] = True
            mask[int(rng.integers(h)), [0, -1]] = True
            assert_matches_array_rule(mask)
        # a thick cross and a thick diagonal band that leave through the borders
        yy, xx = np.mgrid[0:31, 0:44]
        assert_matches_array_rule((np.abs(yy - 15) <= 3) | (np.abs(xx - 20) <= 4))
        assert_matches_array_rule(np.abs(yy - 0.7 * xx) <= 4.0)

    def test_single_pixel_full_and_non_square_masks(self):
        for mask in (np.zeros((1, 1), bool), np.ones((1, 1), bool), np.ones((9, 14), bool), np.ones((1, 9), bool)):
            assert_matches_array_rule(mask)
        rng = np.random.default_rng(32)
        for _ in range(200):
            h, w = (int(v) for v in rng.integers(1, 40, size=2))
            if h == w:
                w += 1
            assert_matches_array_rule(rng.random((h, w)) < rng.uniform(0.05, 0.95))

    def test_input_unchanged_and_result_new_bool_array(self):
        mask = random_blob_mask(np.random.default_rng(33))
        for given in (mask, mask.astype(np.uint8)):
            before = given.copy()
            out = thin(given)
            assert given.dtype == before.dtype and np.array_equal(given, before)
            assert out.dtype == bool and out.shape == given.shape
            assert not np.shares_memory(out, given)


def exhaustive_endpoints(skel):
    out = []
    p = np.pad(skel.astype(int), 1)
    for r in range(skel.shape[0]):
        for c in range(skel.shape[1]):
            if skel[r, c] and p[r : r + 3, c : c + 3].sum() == 2:
                out.append((c, r))
    return sorted(out)


class TestEndpoints:
    def test_skeleton_points_are_xy(self):
        skel = np.zeros((4, 6), dtype=bool)
        skel[1, 2] = skel[3, 5] = True
        pts = skeleton_points(skel)
        assert sorted(map(tuple, pts)) == [(2.0, 1.0), (5.0, 3.0)]

    def test_horizontal_segment_tips(self):
        skel = np.zeros((11, 14), dtype=bool)
        skel[5, 3:10] = True
        ends = sorted(map(tuple, endpoint_candidates(skel)))
        assert ends == [(3.0, 5.0), (9.0, 5.0)]

    def test_matches_exhaustive_scan(self):
        rng = np.random.default_rng(24)
        for _ in range(50):
            skel = thin(random_blob_mask(rng))
            got = sorted(map(tuple, endpoint_candidates(skel)))
            assert got == exhaustive_endpoints(skel)

    def test_oriented_strokes_keep_tip_location(self):
        # A thinned thick stroke must expose an endpoint within 2 px of the
        # stroke's true end, at any orientation.
        yy, xx = np.mgrid[0:41, 0:41]
        center = np.array([20.0, 20.0])
        for angle in np.linspace(0.0, np.pi, 12, endpoint=False):
            d = np.array([np.cos(angle), np.sin(angle)])
            a = center - d * 14
            b = center + d * 14
            mask = np.zeros((41, 41), dtype=bool)
            for t in np.linspace(0.0, 1.0, 200):
                px, py = a + (b - a) * t
                mask |= (yy - py) ** 2 + (xx - px) ** 2 <= 1.6**2
            ends = endpoint_candidates(thin(mask))
            assert len(ends) >= 2
            for true_end in (a, b):
                gap = np.linalg.norm(ends - true_end, axis=1).min()
                assert gap <= 2.0, f"angle {angle:.2f}: endpoint {gap:.2f} px off"


class TestTrack:
    def test_picks_nearest_with_exponential_confidence(self):
        prev = TrackedEndpoint(np.array([10.0, 10.0]), 1.0)
        cands = np.array([[40.0, 10.0], [14.0, 13.0], [10.0, 60.0]])
        out = track(cands, prev)
        assert np.array_equal(out.position2, [14.0, 13.0])
        assert out.confidence == pytest.approx(np.exp(-5.0 / 20.0))

    def test_coasts_outside_gate_and_on_empty(self):
        prev = TrackedEndpoint(np.array([10.0, 10.0]), 0.9)
        far = track(np.array([[200.0, 10.0]]), prev)
        assert np.array_equal(far.position2, prev.position2)
        assert far.confidence == 0.0
        none = track(np.zeros((0, 2)), prev)
        assert np.array_equal(none.position2, prev.position2)

    def test_custom_gate_and_tau(self, monkeypatch):
        prev = TrackedEndpoint(np.array([0.0, 0.0]), 1.0)
        monkeypatch.setattr(perception, "TRACK_GATE_PX", 5.0)
        out = track(np.array([[8.0, 0.0]]), prev)
        assert out.confidence == 0.0
        monkeypatch.setattr(perception, "TRACK_GATE_PX", 10.0)
        monkeypatch.setattr(perception, "TRACK_TAU_PX", 8.0)
        out = track(np.array([[8.0, 0.0]]), prev)
        assert out.confidence == pytest.approx(np.exp(-1.0))

    def test_confidence_bounds_enforced(self):
        with pytest.raises(ValueError):
            TrackedEndpoint(np.zeros(2), 1.5)


def flat_frame(pixels):
    pixels = np.asarray(pixels, dtype=np.uint8)
    h, w = pixels.shape
    cam = CameraModel.standard(width=w, height=h)
    return FluoroFrame(pixels, cam)


class TestSegmentLayers:
    def test_three_level_separation(self):
        img = np.full((40, 40), 220, dtype=np.uint8)
        img[5:35, 10:20] = 150
        img[15:25, 14:16] = 30
        vessel, wire, t1, t2 = segment_layers(flat_frame(img))
        assert 150 <= t1 < 220
        assert t2 is not None and 30 <= t2 < 150
        assert np.array_equal(wire, img == 30)
        assert np.array_equal(vessel, img < 220)
        assert not np.any(wire & ~vessel)

    def test_unimodal_foreground_reports_no_wire(self):
        img = np.full((40, 40), 220, dtype=np.uint8)
        img[5:35, 10:20] = 150
        vessel, wire, t1, t2 = segment_layers(flat_frame(img))
        assert t2 is None
        assert not wire.any()
        assert vessel.sum() == 30 * 10

    def test_low_contrast_foreground_reports_no_wire(self, monkeypatch):
        img = np.full((40, 40), 220, dtype=np.uint8)
        img[5:35, 10:20] = 150
        img[15:25, 14:16] = 140
        monkeypatch.setattr(perception, "MIN_WIRE_CONTRAST", 40.0)
        _, wire, _, t2 = segment_layers(flat_frame(img))
        assert t2 is None and not wire.any()
        monkeypatch.setattr(perception, "MIN_WIRE_CONTRAST", 5.0)
        _, wire, _, t2 = segment_layers(flat_frame(img))
        assert t2 is not None and wire.sum() == 10 * 2


def recorded_draws(monkeypatch, build):
    """(canvas shape, pix, widths, value) of every capsule draw that build() makes."""
    calls = []
    draw = perception._draw_capsules

    def record(canvas, pix, widths, value):
        calls.append((canvas.shape, pix.copy(), widths.copy(), value))
        draw(canvas, pix, widths, value)

    with monkeypatch.context() as m:
        m.setattr(perception, "_draw_capsules", record)
        build()
    return calls


def assert_draw_matches_loop(shape, pix, widths, value, canvas=None):
    """The vectorized rasterizer writes the per-segment loop's pixels exactly."""
    pix, widths = np.asarray(pix, dtype=float).reshape(-1, 2), np.asarray(widths, dtype=float)
    got = np.full(shape, BACKGROUND_VALUE, dtype=np.uint8) if canvas is None else canvas.copy()
    want = got.copy()
    perception._draw_capsules(got, pix, widths, value)
    reference_draw_capsules(want, pix, widths, value)
    assert np.array_equal(got, want)
    return got


def path_points(tree, bids):
    """Centerline points along a root-to-leaf run of branches, shared points once."""
    return np.vstack([tree.branches[bids[0]].positions] + [tree.branches[b].positions[1:] for b in bids[1:]])


class TestRenderer:
    def setup_method(self):
        self.tree = generate_phantom(PhantomSpec(), 11)
        self.cam = CameraModel.standard()
        self.pose = frame_view_pose(self.tree, 820.0)
        self.renderer = FrameRenderer(self.tree, self.pose, self.cam)

    def test_view_pose_centres_tree(self):
        centroid = self.tree.flat_points()[0].mean(axis=0)
        assert np.allclose(project_points(centroid, self.pose, self.cam)[0][0], [256.0, 256.0])

    def test_wire_must_stay_in_lumen(self):
        wire = self.tree.flat_points()[0][:3] + np.array([40.0, 0.0, 0.0])
        with pytest.raises(SimulationIntegrityError):
            self.renderer.render(wire)

    def test_single_point_wire_renders(self):
        wire = self.tree.position((0, 5)).reshape(1, 3)
        frame = self.renderer.render(wire)
        assert np.any(frame.pixels == WIRE_VALUE)

    def test_vessel_layer_cached_and_reused(self):
        a = self.renderer.render(None)
        b = self.renderer.render(None)
        assert np.array_equal(a.pixels, b.pixels)
        fresh = FrameRenderer(self.tree, self.pose, self.cam).render(None)
        assert np.array_equal(a.pixels, fresh.pixels)

    def test_noise_determinism(self):
        wire = self.tree.branches[0].positions[:10]
        spec = NoiseSpec(2.0)
        a = self.renderer.render(wire, noise=spec, seed=5)
        b = self.renderer.render(wire, noise=spec, seed=5)
        c = self.renderer.render(wire, noise=spec, seed=6)
        assert np.array_equal(a.pixels, b.pixels)
        assert not np.array_equal(a.pixels, c.pixels)
        clean = self.renderer.render(wire, noise=NoiseSpec(0.0), seed=5)
        quiet = self.renderer.render(wire)
        assert np.array_equal(clean.pixels, quiet.pixels)

    def test_extreme_noise_clips_without_wrapping(self):
        # At std 1e4 a draw far outside the int16 range must clip to 255 or
        # 0, never wrap round to the other end.
        wire = self.tree.branches[0].positions[:10]
        canvas = self.renderer.render(wire).pixels
        frame = self.renderer.render(wire, noise=NoiseSpec(1e4), seed=np.random.default_rng(4))
        draw = np.random.default_rng(4).normal(0.0, 1e4, canvas.shape)
        want = np.clip(canvas + np.rint(draw), 0, 255).astype(np.uint8)
        assert np.array_equal(frame.pixels, want)

    @pytest.mark.parametrize("phantom", [11, 3, 7])
    def test_vessel_layer_matches_per_segment_loop(self, phantom, monkeypatch):
        tree = generate_phantom(PhantomSpec(), phantom)
        pose = frame_view_pose(tree, 820.0)
        calls = recorded_draws(monkeypatch, lambda: FrameRenderer(tree, pose, self.cam))
        assert len(calls) == len(tree.branches)
        for call in calls:
            assert_draw_matches_loop(*call)
        layer = FrameRenderer(tree, pose, self.cam).render(None).pixels
        monkeypatch.setattr(perception, "_draw_capsules", reference_draw_capsules)
        assert np.array_equal(layer, FrameRenderer(tree, pose, self.cam).render(None).pixels)

    @pytest.mark.parametrize("n_points", [1, 2, 20, 55])
    def test_wire_matches_per_segment_loop(self, n_points, monkeypatch):
        wire = path_points(self.tree, [0, 2, 5])[:n_points]
        assert len(wire) == n_points
        calls = recorded_draws(monkeypatch, lambda: self.renderer.render(wire))
        assert len(calls) == 1
        shape, pix, widths, value = calls[0]
        assert value == WIRE_VALUE and len(pix) == max(n_points, 2)
        if n_points == 1:
            assert np.array_equal(pix[0], pix[1]) and widths[0] == widths[1]
        drawn = assert_draw_matches_loop(shape, pix, widths, value)
        assert np.any(drawn == WIRE_VALUE)
        frame = self.renderer.render(wire).pixels
        monkeypatch.setattr(perception, "_draw_capsules", reference_draw_capsules)
        assert np.array_equal(frame, self.renderer.render(wire).pixels)

    def test_borders_off_screen_nan_and_zero_length_match_loop(self):
        nan = np.nan
        shape = (30, 40)  # h, w: non-square, so a swapped axis shows
        polylines = [
            # crossing the left, right, top and bottom borders and two corners
            ([(-5.0, 10.2), (6.3, 12.0)], [1.5, 2.5]),
            ([(35.4, 5.0), (47.0, 9.1)], [2.0, 0.7]),
            ([(20.2, -6.0), (22.0, 4.4)], [0.7, 3.0]),
            ([(10.0, 26.5), (12.7, 36.0)], [3.0, 1.0]),
            ([(-3.0, -3.5), (3.2, 3.0)], [2.0, 2.0]),
            ([(42.0, 33.0), (36.5, 27.1)], [1.2, 2.2]),
            ([(-10.0, 15.3), (50.0, 14.8)], [1.0, 4.0]),
            # wholly off-screen, and just off-screen with the box padded in
            ([(-30.0, -30.0), (-20.0, -25.0)], [2.0, 2.0]),
            ([(60.0, 10.0), (70.0, 12.0)], [2.0, 2.0]),
            ([(10.0, 50.0), (12.0, 60.0)], [2.0, 2.0]),
            ([(-2.5, 10.0), (-2.5, 20.0)], [1.0, 1.0]),
            ([(41.4, 3.0), (43.0, 25.0)], [1.0, 1.0]),
            # NaN rows (behind the camera): middle, first, last, one coordinate
            ([(5.0, 5.0), (nan, nan), (10.0, 10.0), (15.0, 12.0), (20.0, 9.0)], [1.0, 0.0, 1.5, 2.0, 1.0]),
            ([(nan, nan), (5.0, 5.0), (18.0, 20.0)], [0.0, 1.0, 2.0]),
            ([(5.0, 5.0), (18.0, 20.0), (nan, nan)], [1.0, 2.0, 0.0]),
            ([(5.0, nan), (9.0, 7.0), (14.0, 3.0)], [1.0, 1.0, 1.0]),
            ([(nan, nan), (nan, nan)], [0.0, 0.0]),
            # zero-length segments (denom == 0), also one whose ab underflows
            ([(12.3, 7.7), (12.3, 7.7)], [2.5, 2.5]),
            ([(20.0, 20.0), (20.0, 20.0), (25.0, 22.0)], [1.0, 3.0, 2.0]),
            ([(1e-170, 5.0), (2e-170, 5.0)], [2.0, 2.0]),
            # one point only: nothing to draw
            ([(10.0, 10.0)], [3.0]),
            # pixel (19, 6) sits on this capsule's edge: it is hit with the
            # denominator ``ab @ ab`` gives where the BLAS dot fuses
            # multiply-adds, and missed with a plain sum of squares
            ([(25.22, 6.2), (2.69, 18.92)], [3.2321416660080424, 3.2321416660080424]),
        ]
        texture = np.random.default_rng(41).integers(0, 256, size=shape).astype(np.uint8)
        for pix, widths in polylines:
            for canvas in (None, texture):
                assert_draw_matches_loop(shape, pix, widths, VESSEL_VALUE, canvas)
        rng = np.random.default_rng(42)
        for _ in range(200):
            n = int(rng.integers(2, 12))
            pix = rng.uniform(-20.0, 60.0, size=(n, 2))
            pix[rng.random(n) < 0.1] = np.nan
            widths = rng.uniform(0.0, 6.0, size=n)
            assert_draw_matches_loop(shape, pix, widths, int(rng.integers(0, 256)), texture)

    def test_huge_finite_projection_is_off_screen(self):
        # A point just in front of the camera projects to a huge but finite
        # pixel; its box must be clipped before any integer cast.
        shape = (30, 40)
        for far in (1e12, 1e20, -1e20, 1e300):
            for pix in ([(far, 5.0), (far + 3.0, 8.0)], [(5.0, far), (8.0, far)], [(far, far), (far, far)]):
                drawn = assert_draw_matches_loop(shape, pix, [2.0, 2.0], VESSEL_VALUE)
                assert np.all(drawn == BACKGROUND_VALUE)
        drawn = assert_draw_matches_loop(shape, [(-1e12, 15.0), (1e12, 15.0)], [1.0, 1.0], VESSEL_VALUE)
        assert np.all(drawn[15] == VESSEL_VALUE) and np.all(drawn[[0, -1]] == BACKGROUND_VALUE)

    def test_lumen_check_matches_nearest_point_scan(self):
        # A point is outside when it lies farther than the nearest centerline
        # point's radius plus the tolerance; the error names the first one.
        points = self.tree.flat_points()[0]
        radii = np.concatenate([self.tree.branches[b].radii for b in sorted(self.tree.branches)])
        rng = np.random.default_rng(43)
        offsets = rng.normal(size=(300, 3))
        offsets *= rng.uniform(0.0, 6.0, size=(300, 1)) / np.linalg.norm(offsets, axis=1, keepdims=True)
        wire = points[rng.integers(len(points), size=300)] + offsets
        dist = np.linalg.norm(wire[:, None, :] - points[None, :, :], axis=2)
        nearest = np.argmin(dist, axis=1)
        outside = dist[np.arange(300), nearest] > radii[nearest] + LUMEN_TOLERANCE_MM
        assert 0 < outside.sum() < 300
        for point, out in zip(wire, outside):
            if out:
                with pytest.raises(SimulationIntegrityError):
                    perception._check_wire_in_lumen(self.tree, point[None])
            else:
                perception._check_wire_in_lumen(self.tree, point[None])
        k = int(np.argmax(outside))
        with pytest.raises(SimulationIntegrityError, match=f"instrument point {re.escape(str(wire[k]))} lies"):
            perception._check_wire_in_lumen(self.tree, wire)

    def test_frame_validation(self):
        with pytest.raises(ValueError):
            FluoroFrame(np.zeros((512, 512), dtype=float), self.cam)
        with pytest.raises(ValueError):
            FluoroFrame(np.zeros((10, 512), dtype=np.uint8), self.cam)

    def test_pipeline_recovers_wire_tip(self):
        # Wire along the root branch; the tracked endpoint nearest the
        # projected tip must land within a few pixels.
        wire = self.tree.branches[0].positions[:20]
        frame = self.renderer.render(wire)
        _, wire_mask, _, t2 = segment_layers(frame)
        assert t2 is not None
        ends = endpoint_candidates(thin(wire_mask))
        assert len(ends) >= 2
        tip_px = project_points(wire[-1], self.pose, self.cam)[0][0]
        assert np.linalg.norm(ends - tip_px, axis=1).min() <= 3.0
