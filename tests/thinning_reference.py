"""Reference path for the thinning tests: the whole-array two-subiteration rule.

``vesselnav.perception`` thins through a 256-entry table over the foreground
pixels only. These helpers keep the array form it replaced: crop to the
mask's bounding box, then evaluate the classic conditions on shifted copies of
the whole box in every subiteration. Endpoints are counted the same way.
"""

import numpy as np


def _neighbors(p: np.ndarray):
    # p is the padded image; classic clockwise neighborhood starting north.
    p2 = p[:-2, 1:-1]
    p3 = p[:-2, 2:]
    p4 = p[1:-1, 2:]
    p5 = p[2:, 2:]
    p6 = p[2:, 1:-1]
    p7 = p[2:, :-2]
    p8 = p[1:-1, :-2]
    p9 = p[:-2, :-2]
    return p2, p3, p4, p5, p6, p7, p8, p9


def _thin_subiteration(img: np.ndarray, second: bool) -> tuple[np.ndarray, bool]:
    if not img.any():
        return img, False
    p = np.pad(img, 1).astype(np.uint8)
    p2, p3, p4, p5, p6, p7, p8, p9 = _neighbors(p)
    ring = (p2, p3, p4, p5, p6, p7, p8, p9, p2)
    b = sum(int_arr.astype(np.int32) for int_arr in ring[:-1])
    a = sum(((ring[k] == 0) & (ring[k + 1] == 1)).astype(np.int32) for k in range(8))
    if not second:
        c1 = p2 * p4 * p6 == 0
        c2 = p4 * p6 * p8 == 0
    else:
        c1 = p2 * p4 * p8 == 0
        c2 = p2 * p6 * p8 == 0
    kill = img & (b >= 2) & (b <= 6) & (a == 1) & c1 & c2
    if not kill.any():
        return img, False
    return img & ~kill, True


def reference_thin(mask: np.ndarray) -> np.ndarray:
    """Two-subiteration parallel thinning run to convergence, on the bounding box."""
    mask = np.asarray(mask).astype(bool)
    if not mask.any():
        return mask
    rows = np.any(mask, axis=1)
    cols = np.any(mask, axis=0)
    r0, r1 = np.argmax(rows), len(rows) - np.argmax(rows[::-1])
    c0, c1 = np.argmax(cols), len(cols) - np.argmax(cols[::-1])
    img = mask[r0:r1, c0:c1].copy()
    changed = True
    while changed:
        img, ch1 = _thin_subiteration(img, second=False)
        img, ch2 = _thin_subiteration(img, second=True)
        changed = ch1 or ch2
    out = np.zeros_like(mask)
    out[r0:r1, c0:c1] = img
    return out


def reference_endpoints(skel: np.ndarray) -> np.ndarray:
    """Skeleton pixels with exactly one 8-neighbor, as (K, 2) (x, y) coords."""
    skel = np.asarray(skel).astype(bool)
    p = np.pad(skel, 1).astype(np.uint8)
    neigh = sum(n.astype(np.int32) for n in _neighbors(p))
    rc = np.argwhere(skel & (neigh == 1))
    return rc[:, ::-1].astype(float)
