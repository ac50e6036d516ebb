"""Reference path for the renderer tests: the per-segment capsule loop.

``vesselnav.perception._draw_capsules`` rasterizes a whole polyline in one
vectorized pass. This helper keeps the loop it replaced, which draws one
capsule at a time over its clipped bounding box; the two must write the same
pixels with the same values.
"""

import numpy as np


def reference_draw_capsules(canvas: np.ndarray, pix: np.ndarray, widths: np.ndarray, value: int) -> None:
    # Rasterize consecutive-point capsules with linearly tapered half-width.
    h, w = canvas.shape
    for k in range(len(pix) - 1):
        a, b = pix[k], pix[k + 1]
        if np.any(np.isnan(a)) or np.any(np.isnan(b)):
            continue
        wa, wb = widths[k], widths[k + 1]
        pad = max(wa, wb) + 1.0
        x0 = max(int(np.floor(min(a[0], b[0]) - pad)), 0)
        x1 = min(int(np.ceil(max(a[0], b[0]) + pad)), w - 1)
        y0 = max(int(np.floor(min(a[1], b[1]) - pad)), 0)
        y1 = min(int(np.ceil(max(a[1], b[1]) + pad)), h - 1)
        if x0 > x1 or y0 > y1:
            continue
        xs = np.arange(x0, x1 + 1)
        ys = np.arange(y0, y1 + 1)
        gx, gy = np.meshgrid(xs, ys)
        ab = b - a
        denom = float(ab @ ab)
        if denom == 0.0:
            t = np.zeros_like(gx, dtype=float)
        else:
            t = ((gx - a[0]) * ab[0] + (gy - a[1]) * ab[1]) / denom
            t = np.clip(t, 0.0, 1.0)
        dx = gx - (a[0] + t * ab[0])
        dy = gy - (a[1] + t * ab[1])
        halfw = wa + t * (wb - wa)
        hit = dx * dx + dy * dy <= halfw * halfw
        region = canvas[y0 : y1 + 1, x0 : x1 + 1]
        region[hit] = np.minimum(region[hit], value)
