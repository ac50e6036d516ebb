"""Reference path for the segmentation tests: the two-pass ``segment_layers``.

``two_pass_otsu`` and ``two_pass_segment_layers`` are frozen copies of the
segmentation that histograms the frame with ``np.bincount``, thresholds it,
gathers the foreground pixels and histograms them again for the second
threshold, with the class means taken by ``ndarray.mean``. The one-histogram
``segment_layers`` must give the same thresholds and masks, bit for bit.
"""

import numpy as np

from vesselnav.perception import ConstantImageError


def two_pass_otsu(values: np.ndarray) -> tuple[int, np.ndarray]:
    """(threshold, values <= threshold) from the 256-bin histogram of values."""
    values = np.asarray(values)
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


def two_pass_segment_layers(pixels: np.ndarray, min_contrast: float) -> tuple[np.ndarray, np.ndarray, int, int | None]:
    """(vessel_mask, wire_mask, t1, t2-or-None) of a uint8 frame."""
    t1, fg = two_pass_otsu(pixels)
    wire_mask = np.zeros_like(fg)
    t2 = None
    fg_values = pixels[fg]
    if fg_values.size >= 2 and fg_values.min() != fg_values.max():
        t2_cand, dark_sel = two_pass_otsu(fg_values)
        dark = fg_values[dark_sel]
        bright = fg_values[~dark_sel]
        if bright.size and dark.size and float(bright.mean() - dark.mean()) >= min_contrast:
            t2 = int(t2_cand)
            wire_mask = fg & (pixels <= t2)
    return fg, wire_mask, t1, t2
