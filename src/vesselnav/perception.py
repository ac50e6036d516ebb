"""Synthetic fluoroscopy rendering and the classical 2D perception stack.

Images are uint8 arrays of shape (height, width). Pixel coordinates are
(x, y) with x along columns; the pixel at array cell [r, c] is centred at
(x=c, y=r). Fluoroscopy convention: bright background, vessels as
low-contrast dark tubes, the instrument as a high-contrast dark curve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import CameraModel, Pose, project_points
from .vessel_model import VesselTree


class SimulationIntegrityError(RuntimeError):
    """The instrument polyline left every vessel lumen."""


class ConstantImageError(ValueError):
    """Otsu thresholding is undefined for a constant image."""


@dataclass(frozen=True)
class NoiseSpec:
    """Additive Gaussian imaging noise of standard deviation ``imaging_std``
    gray levels, the ``[noise]`` key of the same name."""

    imaging_std: float = 2.0

    def __post_init__(self) -> None:
        if not (np.isfinite(self.imaging_std) and self.imaging_std >= 0.0):
            raise ValueError(f"imaging noise std {self.imaging_std!r} must be finite and non-negative")


# Gray levels and sizes of the rendered scene.
BACKGROUND_VALUE = 220
VESSEL_VALUE = 150
WIRE_VALUE = 30
WIRE_RADIUS_MM = 0.3
MIN_HALFWIDTH_PX = 0.7
LUMEN_TOLERANCE_MM = 1.5


@dataclass
class FluoroFrame:
    """One synthetic fluoroscopy image with its camera."""

    pixels: np.ndarray
    cam: CameraModel

    def __post_init__(self) -> None:
        if self.pixels.dtype != np.uint8:
            raise ValueError("frame pixels must be uint8")
        w, h = self.cam.image_size
        if self.pixels.shape != (h, w):
            raise ValueError(f"frame shape {self.pixels.shape} does not match camera {(h, w)}")


@dataclass(frozen=True)
class TrackedEndpoint:
    """2D instrument tip estimate with a confidence in [0, 1]."""

    position2: np.ndarray
    confidence: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "position2", np.asarray(self.position2, dtype=float).reshape(2))
        if not 0.0 <= self.confidence <= 1.0:
            raise ValueError("confidence must lie in [0, 1]")


def frame_view_pose(tree: VesselTree, depth_mm: float) -> Pose:
    """Unrotated world-to-camera pose that centres the tree at the given depth;
    ValueError unless that depth is finite and puts the whole tree in front."""
    points = tree.flat_points()[0]
    t = np.array([0.0, 0.0, depth_mm]) - points.mean(axis=0)
    if not (np.isfinite(depth_mm) and np.all(points[:, 2] + t[2] > 0.0)):
        raise ValueError(f"view depth {depth_mm!r} mm must be finite and put the whole tree in front of the camera")
    return Pose(np.eye(3), t)


def _draw_capsules(canvas: np.ndarray, pix: np.ndarray, widths: np.ndarray, value: int) -> None:
    """Darken to ``value`` the linearly tapered capsule between each pair of
    consecutive points, skipping pairs with a NaN end (behind the camera). One
    vectorized pass over all box pixels repeats the float arithmetic of the
    per-segment loop the tests keep (``np.vecdot`` is ``ab @ ab``'s dot), so
    pixels are byte-identical to it."""
    h, w = canvas.shape
    ok = ~np.isnan(pix).any(axis=1)
    ok = ok[:-1] & ok[1:]
    a, b, wa, wb = pix[:-1][ok], pix[1:][ok], widths[:-1][ok], widths[1:][ok]
    pad = (np.maximum(wa, wb) + 1.0)[:, None]
    # clipped before the int cast, so a huge finite projection is off-screen
    lo = np.clip(np.floor(np.minimum(a, b) - pad), 0, (w, h))
    hi = np.clip(np.ceil(np.maximum(a, b) + pad), -1, (w - 1, h - 1))
    span = np.maximum(hi - lo + 1, 0).astype(np.int64)
    count = span[:, 0] * span[:, 1]
    ab = b - a
    denom = np.vecdot(ab, ab)
    # One row per box pixel: its segment's values, then its place in the box.
    seg = np.repeat(np.arange(len(count)), count)
    x0, y0, ax, ay, abx, aby, wa, dw, denom, nx = np.take(
        np.vstack([lo.T, a.T, ab.T, wa, wb - wa, denom, span[:, 0]]), seg, axis=1
    )
    row, col = np.divmod(np.arange(len(seg)) - np.repeat(np.cumsum(count) - count, count), nx.astype(np.int64))
    gx, gy = x0 + col, y0 + row
    zero = denom == 0.0
    t = ((gx - ax) * abx + (gy - ay) * aby) / np.where(zero, 1.0, denom)
    t = np.where(zero, 0.0, np.clip(t, 0.0, 1.0))
    dx = gx - (ax + t * abx)
    dy = gy - (ay + t * aby)
    halfw = wa + t * dw
    hit = dx * dx + dy * dy <= halfw * halfw
    gy, gx = gy[hit].astype(np.int64), gx[hit].astype(np.int64)
    canvas[gy, gx] = np.minimum(canvas[gy, gx], value)


def _draw_polyline(
    canvas: np.ndarray, points3: np.ndarray, radius_mm: float | np.ndarray, pose: Pose, cam: CameraModel, value: int
) -> None:
    """Project a 3D polyline and draw its capsules of depth-scaled ``radius_mm``
    (per point or shared); a point behind the camera has no width, a lone point is a dot."""
    pix, depth = project_points(points3, pose, cam)
    widths = np.maximum(radius_mm * cam.scale_px_per_mm(1.0) / np.maximum(depth, 1e-9), MIN_HALFWIDTH_PX)
    widths[depth <= 0] = 0.0
    if len(pix) == 1:
        pix = np.vstack([pix, pix])
        widths = np.append(widths, widths[-1])
    _draw_capsules(canvas, pix, widths, value)


def _check_wire_in_lumen(tree: VesselTree, wire: np.ndarray) -> None:
    dist, idx = tree.nearest_points(wire)
    radii = np.concatenate([tree.branches[bid].radii for bid in sorted(tree.branches)])[idx]
    bad = dist > radii + LUMEN_TOLERANCE_MM
    if np.any(bad):
        k = int(np.argmax(bad))
        raise SimulationIntegrityError(
            f"instrument point {wire[k]} lies {dist[k]:.2f} mm from the nearest centerline, outside the lumen"
        )


class FrameRenderer:
    """Renders frames for a fixed scene; the static vessel layer is cached. Each
    branch and the wire is one ``_draw_polyline`` pass, byte-identical to a per-segment loop."""

    def __init__(self, tree: VesselTree, pose: Pose, cam: CameraModel):
        self.tree = tree
        self.pose = pose
        self.cam = cam
        w, h = cam.image_size
        self._vessel_layer = np.full((h, w), BACKGROUND_VALUE, dtype=np.uint8)
        for bid in sorted(tree.branches):
            br = tree.branches[bid]
            _draw_polyline(self._vessel_layer, br.positions, br.radii, pose, cam, VESSEL_VALUE)

    def render(
        self,
        wire: np.ndarray | None,
        noise: NoiseSpec | None = None,
        seed: int | np.random.Generator = 0,
    ) -> FluoroFrame:
        canvas = self._vessel_layer.copy()
        if wire is not None and len(wire) > 0:
            wire = np.asarray(wire, dtype=float).reshape(-1, 3)
            _check_wire_in_lumen(self.tree, wire)
            _draw_polyline(canvas, wire, WIRE_RADIUS_MM, self.pose, self.cam, WIRE_VALUE)
        if noise is not None and noise.imaging_std > 0.0:
            rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
            # one float buffer: the rounded draw plus the canvas, clipped
            noisy = rng.normal(0.0, noise.imaging_std, canvas.shape)
            np.rint(noisy, out=noisy)
            noisy += canvas
            np.clip(noisy, 0, 255, out=noisy)
            canvas = noisy.astype(np.uint8)
        return FluoroFrame(canvas, self.cam)


# ---------------------------------------------------------------------------
# segmentation


def otsu_threshold(values: np.ndarray) -> tuple[int, np.ndarray]:
    """Threshold maximizing between-class variance over the 256-bin histogram.

    Returns (threshold, mask) where the mask selects the dark class,
    ``values <= threshold``. Ties resolve to the lowest threshold.
    """
    values = np.asarray(values)
    if values.dtype != np.uint8:
        raise ValueError("otsu_threshold expects uint8 values")
    if values.size == 0:
        raise ConstantImageError("empty input")
    hist = np.bincount(values.ravel(), minlength=256).astype(float)
    total = hist.sum()
    p = hist / total
    levels = np.arange(256, dtype=float)
    w0 = np.cumsum(p)
    m0 = np.cumsum(p * levels)
    mu_total = m0[-1]
    w1 = 1.0 - w0
    valid = (w0 > 0.0) & (w1 > 0.0)
    if not np.any(valid):
        raise ConstantImageError("image has a single gray level")
    with np.errstate(divide="ignore", invalid="ignore"):
        mu0 = m0 / w0
        mu1 = (mu_total - m0) / w1
    sigma_b = np.where(valid, w0 * w1 * (mu0 - mu1) ** 2, -np.inf)
    t = int(np.argmax(sigma_b))
    return t, values <= t


# Gray levels between the bright and dark foreground means below which the
# foreground counts as one population and no instrument is reported.
MIN_WIRE_CONTRAST = 40.0


def segment_layers(frame: FluoroFrame) -> tuple[np.ndarray, np.ndarray, int, int | None]:
    """Split a frame into vessel and instrument masks.

    The first Otsu pass separates the dark foreground from the background; the
    second pass runs on the foreground population only. When the foreground is
    effectively unimodal (mean separation below ``MIN_WIRE_CONTRAST`` gray
    levels) no instrument is reported and the wire mask is all False.

    Returns (vessel_mask, wire_mask, threshold1, threshold2-or-None).
    """
    t1, fg = otsu_threshold(frame.pixels)
    wire_mask = np.zeros_like(fg)
    t2: int | None = None
    fg_values = frame.pixels[fg]
    if fg_values.size >= 2 and fg_values.min() != fg_values.max():
        t2_cand, dark_sel = otsu_threshold(fg_values)
        dark = fg_values[dark_sel]
        bright = fg_values[~dark_sel]
        if bright.size and dark.size and float(bright.mean() - dark.mean()) >= MIN_WIRE_CONTRAST:
            t2 = int(t2_cand)
            wire_mask = fg & (frame.pixels <= t2)
    return fg, wire_mask, t1, t2


# ---------------------------------------------------------------------------
# thinning

# A pixel's neighbour code has bit k set when neighbour p(k+2) of the classic
# clockwise ring that starts north is on:
#
#     p9 p2 p3      7 0 1
#     p8  . p4      6 . 2
#     p7 p6 p5      5 4 3


def _deletion_table(second: bool) -> np.ndarray:
    """Two-subiteration deletion rule for each of the 256 neighbour codes."""
    ring = (np.arange(256)[:, None] >> np.arange(8)) & 1  # columns p2..p9
    p2, p3, p4, p5, p6, p7, p8, p9 = ring.T
    b = ring.sum(axis=1)
    a = ((ring == 0) & (np.roll(ring, -1, axis=1) == 1)).sum(axis=1)
    if not second:
        c1 = p2 * p4 * p6 == 0
        c2 = p4 * p6 * p8 == 0
    else:
        c1 = p2 * p4 * p8 == 0
        c2 = p2 * p6 * p8 == 0
    table = (b >= 2) & (b <= 6) & (a == 1) & c1 & c2
    table.setflags(write=False)
    return table


_DELETE = (_deletion_table(second=False), _deletion_table(second=True))


def _neighbour_codes(flat: np.ndarray, idx: np.ndarray, stride: int) -> np.ndarray:
    """Neighbour codes of the pixels at flat indices ``idx`` of a padded mask.

    ``flat`` is the raveled bool mask, padded by one pixel on every side so
    that no neighbour index leaves it, and ``stride`` is its row length.
    """
    pix = flat.view(np.uint8)
    code = np.zeros(len(idx), dtype=np.uint8)
    for bit, off in enumerate((-stride, 1 - stride, 1, 1 + stride, stride, stride - 1, -1, -1 - stride)):
        code |= pix[idx + off] << bit
    return code


def thin(mask: np.ndarray) -> np.ndarray:
    """Two-subiteration parallel thinning run to convergence.

    Deletion conditions follow the classic two-pass scheme: interior border
    pixels with 2..6 neighbors and a single 0-to-1 transition around the ring
    are peeled, alternating the compass conditions between subiterations.
    Both rules are 256-entry tables over the neighbour code, and each
    subiteration visits only the remaining foreground pixels, so a pass costs
    O(foreground pixels) whatever the image size. Returns a new bool array.
    """
    padded = np.pad(np.asarray(mask, dtype=bool), 1)
    flat = padded.ravel()
    stride = padded.shape[1]
    idx = np.flatnonzero(flat)
    changed = True
    while changed:
        changed = False
        for table in _DELETE:
            kill = table[_neighbour_codes(flat, idx, stride)]
            if kill.any():
                flat[idx[kill]] = False
                idx = idx[~kill]
                changed = True
    return padded[1:-1, 1:-1].copy()


def skeleton_points(skel: np.ndarray) -> np.ndarray:
    """Skeleton pixels as an (M, 2) float array of (x, y) coordinates."""
    y, x = np.divmod(np.flatnonzero(skel), skel.shape[1])
    return np.column_stack((x, y)).astype(float)


def endpoint_candidates(skel: np.ndarray) -> np.ndarray:
    """Skeleton pixels with exactly one 8-neighbor, as (K, 2) (x, y) coords.

    A pixel is an endpoint when its neighbour code has one bit set; only the
    skeleton's pixels are read. Rows come in row-major order, as
    ``np.argwhere`` gives them, which ``track`` relies on to break ties.
    """
    padded = np.pad(np.asarray(skel, dtype=bool), 1)
    flat = padded.ravel()
    stride = padded.shape[1]
    idx = np.flatnonzero(flat)
    code = _neighbour_codes(flat, idx, stride)
    row, col = np.divmod(idx[(code != 0) & (code & (code - 1) == 0)], stride)
    return np.column_stack((col - 1, row - 1)).astype(float)


# ---------------------------------------------------------------------------
# endpoint tracking

TRACK_GATE_PX = 60.0
TRACK_TAU_PX = 20.0


def track(candidates: np.ndarray, previous: TrackedEndpoint) -> TrackedEndpoint:
    """Pick the candidate nearest the previous tip.

    Confidence decays as exp(-distance / ``TRACK_TAU_PX``). With no candidate
    within ``TRACK_GATE_PX`` the previous position is kept with confidence 0
    (coasting).
    """
    candidates = np.asarray(candidates, dtype=float).reshape(-1, 2)
    if len(candidates) == 0:
        return TrackedEndpoint(previous.position2, 0.0)
    d = np.linalg.norm(candidates - previous.position2, axis=1)
    k = int(np.argmin(d))
    if d[k] > TRACK_GATE_PX:
        return TrackedEndpoint(previous.position2, 0.0)
    return TrackedEndpoint(candidates[k], float(np.exp(-d[k] / TRACK_TAU_PX)))
