"""Reference path for the resampling tests: the per-point resampling loop.

``vesselnav.vessel_model.resample_centerlines`` subdivides every gap of a
branch with array operations. This helper keeps the double loop it replaced,
which appends one interpolated point at a time; the two must give the same
positions, radii and attach indices bit for bit.
"""

import numpy as np

from vesselnav.vessel_model import Branch, VesselTree


def reference_resample_centerlines(tree: VesselTree, spacing: float) -> VesselTree:
    if not spacing > 0.0:
        raise ValueError("spacing must be positive")
    new_branches: dict[int, Branch] = {}
    index_maps: dict[int, dict[int, int]] = {}
    for bid, br in tree.branches.items():
        pos, rad = br.positions, br.radii
        out_pos = [pos[0]]
        out_rad = [rad[0]]
        imap = {0: 0}
        for k in range(1, len(pos)):
            gap = float(np.linalg.norm(pos[k] - pos[k - 1]))
            if gap <= 0.0:
                imap[k] = len(out_pos) - 1
                continue
            n_seg = max(1, int(np.ceil(gap / spacing - 1e-9)))
            for j in range(1, n_seg + 1):
                t = j / n_seg
                out_pos.append(pos[k - 1] + (pos[k] - pos[k - 1]) * t)
                out_rad.append(rad[k - 1] + (rad[k] - rad[k - 1]) * t)
            imap[k] = len(out_pos) - 1
        new_branches[bid] = Branch(np.array(out_pos), np.array(out_rad), br.parent_link, None, list(br.child_links))
        index_maps[bid] = imap
    for bid, br in new_branches.items():
        old = tree.branches[bid]
        if old.parent_link is not None:
            br.attach_index = index_maps[old.parent_link][old.attach_index]
    return VesselTree(new_branches, tree.root)
