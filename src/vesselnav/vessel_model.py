"""Vessel centerline trees: phantom generation, resampling, the text format.

A tree is a set of branches with parent links. A child branch attaches at a
specific point index on its parent and shares that point, so branch
transitions contribute zero arc length. All coordinates are millimetres.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

FORMAT_HEADER = "VTREE 1"


class TreeFormatError(ValueError):
    """Malformed serialized tree. ``line`` holds the 1-based offending line."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class TreeStructureError(ValueError):
    """Tree violates a structural invariant."""


@dataclass
class Branch:
    """A polyline of centerline samples with tree links.

    ``positions`` is (n, 3) and ``radii`` (n,) holds the lumen radius at each
    position; a point's index along the branch is its row. ``parent_link`` is
    None for the root. ``attach_index`` is the point index on the parent where
    this branch departs; the branch's first point equals that parent point.
    """

    positions: np.ndarray
    radii: np.ndarray
    parent_link: int | None = None
    attach_index: int | None = None
    child_links: list[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.positions = np.asarray(self.positions, dtype=float)
        self.radii = np.asarray(self.radii, dtype=float)

    def __len__(self) -> int:
        return len(self.radii)


class AddressGraph(NamedTuple):
    """A tree's address graph as three tables keyed by (branch, index).

    ``parent`` holds the address one step toward the root (None at the root's
    first point) and ``depth`` the number of such steps to the root's first
    point. ``options`` holds the addresses one step away from the root:
    attached children in ``child_links`` order, then the same-branch
    continuation; a child's first point is its attach point's option.
    """

    parent: dict[tuple[int, int], tuple[int, int] | None]
    depth: dict[tuple[int, int], int]
    options: dict[tuple[int, int], tuple[tuple[int, int], ...]]


class VesselTree:
    """Branches keyed by id, with a single root and acyclic parent links."""

    def __init__(self, branches: dict[int, Branch], root: int):
        self.branches = branches
        self.root = root
        self._flat: tuple[np.ndarray, list[tuple[int, int]]] | None = None
        self._graph: AddressGraph | None = None
        self._scene: tuple[object, object] | None = None
        validate_tree(self)

    def position(self, address: tuple[int, int]) -> np.ndarray:
        b, i = address
        return self.branches[b].positions[i]

    def flat_points(self) -> tuple[np.ndarray, list[tuple[int, int]]]:
        """All centerline positions stacked with their (branch, index) addresses."""
        if self._flat is None:
            ids = sorted(self.branches)
            rows = np.concatenate([self.branches[bid].positions for bid in ids])
            rows.flags.writeable = False
            self._flat = (rows, [(bid, i) for bid in ids for i in range(len(self.branches[bid]))])
        return self._flat

    def address_graph(self) -> AddressGraph:
        """The parent, depth and options tables of every address, built on
        first use by one walk from the root."""
        if self._graph is None:
            # One tuple per address, shared by every table that names it.
            points = {bid: [(bid, i) for i in range(len(br))] for bid, br in self.branches.items()}
            graph = AddressGraph({}, {}, {})
            stack = [self.root]
            while stack:
                bid = stack.pop()
                br = self.branches[bid]
                up = None if br.parent_link is None else points[br.parent_link][br.attach_index]
                depth = 0 if up is None else graph.depth[up] + 1
                kids = [(self.branches[cid].attach_index, points[cid][0]) for cid in br.child_links]
                row = points[bid]
                for i, addr in enumerate(row):
                    graph.parent[addr], graph.depth[addr], up = up, depth + i, addr
                    # Children attached here, then the continuation (none at the end).
                    ahead = tuple(row[i + 1 : i + 2])
                    graph.options[addr] = tuple(child for at, child in kids if at == i) + ahead
                stack.extend(br.child_links)
            self._graph = graph
        return self._graph

    def scene(self, build, *args):
        """``build(self, *args)``, kept in one slot: a call with the same ``build``
        and equal ``args`` reuses it, any other call replaces it."""
        key = (build, *args)
        if self._scene is None or self._scene[0] != key:
            self._scene = (key, build(self, *args))
        return self._scene[1]

    def nearest_points(self, points3: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Distance from each (m, 3) point to its nearest centerline point, and
        that point's index into ``flat_points()``; ties go to the lowest index."""
        rows = self.flat_points()[0]
        d2 = (points3[:, 0, None] - rows[:, 0]) ** 2
        d2 += (points3[:, 1, None] - rows[:, 1]) ** 2
        d2 += (points3[:, 2, None] - rows[:, 2]) ** 2
        return np.sqrt(d2.min(axis=1)), d2.argmin(axis=1)


def validate_tree(tree: VesselTree) -> None:
    """Checks the structural invariants; raises TreeStructureError on violation."""
    branches = tree.branches
    if tree.root not in branches:
        raise TreeStructureError("root id missing from branch map")
    if branches[tree.root].parent_link is not None:
        raise TreeStructureError("root branch must have no parent")
    seen: set[int] = set()
    stack = [tree.root]
    while stack:
        bid = stack.pop()
        if bid in seen:
            raise TreeStructureError(f"branch {bid} reached twice; links form a cycle")
        seen.add(bid)
        br = branches[bid]
        if br.radii.ndim != 1 or br.positions.shape != (len(br), 3):
            raise TreeStructureError(f"branch {bid} needs one (x, y, z) row per radius")
        if len(br) < 2:
            raise TreeStructureError(f"branch {bid} has fewer than two points")
        if not (np.isfinite(br.positions).all() and np.isfinite(br.radii).all() and (br.radii > 0.0).all()):
            raise TreeStructureError(f"branch {bid} needs finite positions and finite positive radii")
        for cid in br.child_links:
            if cid not in branches:
                raise TreeStructureError(f"branch {bid} links to missing child {cid}")
            child = branches[cid]
            if child.parent_link != bid:
                raise TreeStructureError(f"child {cid} does not link back to parent {bid}")
            if child.attach_index is None or not 0 <= child.attach_index < len(br):
                raise TreeStructureError(f"child {cid} attach index out of range")
            if not np.array_equal(child.positions[0], br.positions[child.attach_index]):
                raise TreeStructureError(f"child {cid} first point is not the parent attach point")
            stack.append(cid)
    if seen != set(branches):
        orphans = sorted(set(branches) - seen)
        raise TreeStructureError(f"branches {orphans} are not reachable from the root")


# ---------------------------------------------------------------------------
# phantom generation


# Shared by every phantom: root and minimum lumen radius (mm), the child to
# parent radius ratio, bend-rate and branching-angle ranges, out-of-slab squash.
ROOT_RADIUS_MM = 2.6
RADIUS_DECAY = 0.72
MIN_RADIUS_MM = 0.9
CURVATURE_DEG_PER_MM = (0.4, 1.6)
BRANCH_ANGLE_DEG = (28.0, 52.0)
SLAB_FLATTEN = 0.35


@dataclass(frozen=True)
class PhantomSpec:
    """What varies between synthetic trees; the constants above fix the rest.

    ``depth`` counts levels including the root. ``branching`` children are
    attached at the end of every branch above the deepest level.
    """

    depth: int = 4
    branching: int = 2
    segment_length: tuple[float, float] = (22.0, 34.0)
    step_mm: float = 1.0

    def __post_init__(self) -> None:
        if self.depth < 1:
            raise ValueError("depth must be >= 1")
        if self.branching < 0:
            raise ValueError("branching must be >= 0")
        lo, hi = self.segment_length
        if not (0.0 < lo <= hi):
            raise ValueError("segment_length range must be positive and ordered")
        if not self.step_mm > 0.0:
            raise ValueError("step_mm must be positive")


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


def _perp_basis(d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    ref = np.array([1.0, 0.0, 0.0]) if abs(d[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    u = _unit(np.cross(d, ref))
    return u, np.cross(d, u)


def _rotate_about(v: np.ndarray, axis: np.ndarray, angle: float) -> np.ndarray:
    axis = _unit(axis)
    c, s = np.cos(angle), np.sin(angle)
    return v * c + np.cross(axis, v) * s + axis * np.dot(axis, v) * (1.0 - c)


def generate_phantom(spec: PhantomSpec, seed: int) -> VesselTree:
    """Deterministic synthetic vascular tree.

    The same (spec, seed) always yields the same tree. Branch ids are assigned
    in breadth-first creation order with the root as 0.
    """
    rng = np.random.default_rng(seed)
    branches: dict[int, Branch] = {}

    def grow(start: np.ndarray, direction: np.ndarray, radius: float) -> int:
        length = float(rng.uniform(*spec.segment_length))
        curv = float(np.deg2rad(rng.uniform(*CURVATURE_DEG_PER_MM)))
        u, w = _perp_basis(direction)
        phase = float(rng.uniform(0.0, 2.0 * np.pi))
        bend_axis = _unit(np.cos(phase) * u + np.sin(phase) * w)
        n_steps = max(2, int(np.ceil(length / spec.step_mm)))
        step = length / n_steps
        tip_radius = max(MIN_RADIUS_MM, radius * 0.85)
        pos = start.copy()
        d = direction.copy()
        positions = [pos]
        for _ in range(n_steps):
            d = _unit(_rotate_about(d, bend_axis, curv * step))
            pos = pos + d * step
            positions.append(pos)
        radii = radius + (tip_radius - radius) * (np.arange(n_steps + 1) / n_steps)
        bid = len(branches)
        branches[bid] = Branch(np.array(positions), radii)
        return bid

    root_dir = _unit(np.array([0.15, 1.0, 0.1]))
    root = grow(np.zeros(3), root_dir, ROOT_RADIUS_MM)
    frontier = [(root, 1)]
    while frontier:
        pid, level = frontier.pop(0)
        if level >= spec.depth or spec.branching == 0:
            continue
        parent = branches[pid]
        end = parent.positions[-1]
        end_dir = _unit(end - parent.positions[-2])
        u, w = _perp_basis(end_dir)
        base_azimuth = float(rng.uniform(0.0, 2.0 * np.pi))
        child_radius = max(MIN_RADIUS_MM, parent.radii[-1] * RADIUS_DECAY)
        for c in range(spec.branching):
            polar = float(np.deg2rad(rng.uniform(*BRANCH_ANGLE_DEG)))
            azimuth = base_azimuth + 2.0 * np.pi * c / spec.branching + float(rng.uniform(-0.25, 0.25))
            lateral = np.cos(azimuth) * u + np.sin(azimuth) * w
            d = _unit(np.cos(polar) * end_dir + np.sin(polar) * lateral)
            # Squash out-of-slab growth so the tree stays inside the field of view.
            d = _unit(d * np.array([1.0, 1.0, SLAB_FLATTEN]))
            cid = grow(end, d, child_radius)
            branches[cid].parent_link = pid
            branches[cid].attach_index = len(parent) - 1
            parent.child_links.append(cid)
            frontier.append((cid, level + 1))
    return VesselTree(branches, root)


# ---------------------------------------------------------------------------
# resampling


def resample_centerlines(tree: VesselTree, spacing: float) -> VesselTree:
    """Subdivide every gap longer than ``spacing``.

    Original vertices are kept, so endpoints, attach points, and total arc
    length are preserved exactly; new points are linearly interpolated on the
    existing polyline. Zero-length gaps are dropped. Array operations repeat
    the arithmetic of the per-point loop the tests keep (``np.vecdot`` is the
    dot under ``np.linalg.norm``'s root), so the result is byte-identical.
    """
    if not spacing > 0.0:
        raise ValueError("spacing must be positive")
    new_branches: dict[int, Branch] = {}
    index_maps: dict[int, np.ndarray] = {}
    for bid, br in tree.branches.items():
        pos, rad = br.positions, br.radii
        step = np.diff(pos, axis=0)
        gap = np.sqrt(np.vecdot(step, step))
        n_seg = np.where(gap > 0.0, np.maximum(np.ceil(gap / spacing - 1e-9), 1.0), 0.0).astype(np.int64)
        # new point m lies on gap k[m], from pos[k - 1] to pos[k], at fraction j[m] / n_seg
        k = np.repeat(np.arange(1, len(pos)), n_seg)
        j = np.arange(1, len(k) + 1) - np.repeat(np.cumsum(n_seg) - n_seg, n_seg)
        t = j / n_seg[k - 1]
        out_pos = np.vstack([pos[:1], pos[k - 1] + (pos[k] - pos[k - 1]) * t[:, None]])
        out_rad = np.concatenate([rad[:1], rad[k - 1] + (rad[k] - rad[k - 1]) * t])
        new_branches[bid] = Branch(out_pos, out_rad, br.parent_link, None, list(br.child_links))
        index_maps[bid] = np.concatenate([[0], np.cumsum(n_seg)])
    for bid, br in new_branches.items():
        old = tree.branches[bid]
        if old.parent_link is not None:
            br.attach_index = int(index_maps[old.parent_link][old.attach_index])
    return VesselTree(new_branches, tree.root)


# ---------------------------------------------------------------------------
# the text format


def deserialize_tree(data: bytes) -> VesselTree:
    """Parse a tree in the text format of ``[map]`` files (see the README).
    Raises TreeFormatError with a line offset."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise TreeFormatError(f"not valid utf-8: {exc}", 1) from exc
    lines = text.splitlines()
    n = 0

    def take() -> str:
        nonlocal n
        if n >= len(lines):
            raise TreeFormatError("unexpected end of stream", len(lines) + 1)
        n += 1
        return lines[n - 1].strip()

    if take() != FORMAT_HEADER:
        raise TreeFormatError(f"expected header {FORMAT_HEADER!r}", 1)
    root_line = take()
    if not root_line.startswith("root "):
        raise TreeFormatError("expected 'root <id>'", n)
    try:
        root = int(root_line.split()[1])
    except (IndexError, ValueError) as exc:
        raise TreeFormatError("bad root id", n) from exc

    branches: dict[int, Branch] = {}
    while True:
        line = take()
        if line == "endtree":
            break
        parts = line.split()
        if len(parts) != 8 or parts[0] != "branch" or parts[2] != "parent" or parts[4] != "attach" or parts[6] != "children":
            raise TreeFormatError(f"expected branch header, got {line!r}", n)
        try:
            bid = int(parts[1])
            parent = None if parts[3] == "-" else int(parts[3])
            attach = None if parts[5] == "-" else int(parts[5])
            children = [] if parts[7] == "-" else [int(c) for c in parts[7].split(",")]
        except ValueError as exc:
            raise TreeFormatError(f"bad branch header field: {exc}", n) from exc
        if bid in branches:
            raise TreeFormatError(f"duplicate branch id {bid}", n)
        positions, radii = [], []
        while True:
            line = take()
            if line == "end":
                break
            fields = line.split()
            if len(fields) != 5 or fields[0] != "point":
                raise TreeFormatError(f"expected point or end, got {line!r}", n)
            try:
                x, y, z, r = (float(v) for v in fields[1:])
            except ValueError as exc:
                raise TreeFormatError(f"bad point value: {exc}", n) from exc
            if not (np.isfinite([x, y, z, r]).all() and r > 0.0):
                raise TreeFormatError(f"point needs finite coordinates and a finite positive radius, got {line!r}", n)
            positions.append((x, y, z))
            radii.append(r)
        branches[bid] = Branch(np.array(positions).reshape(-1, 3), np.array(radii), parent, attach, children)
    if n < len(lines) and any(s.strip() for s in lines[n:]):
        raise TreeFormatError("trailing content after endtree", n + 1)
    try:
        return VesselTree(branches, root)
    except (TreeStructureError, KeyError) as exc:
        raise TreeFormatError(f"inconsistent tree: {exc}", n) from exc
