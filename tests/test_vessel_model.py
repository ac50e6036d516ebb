"""Vessel tree structure, generation, resampling, and text format tests.

The array-based resampler must agree bit for bit with the per-point loop it
replaced (vessel_model_reference).
"""

import numpy as np
import pytest

from vesselnav.vessel_model import (
    MIN_RADIUS_MM,
    ROOT_RADIUS_MM,
    Branch,
    PhantomSpec,
    TreeFormatError,
    TreeStructureError,
    VesselTree,
    deserialize_tree,
    generate_phantom,
    resample_centerlines,
)

from tree_text import serialize_tree
from vessel_model_reference import reference_resample_centerlines


def straight_branch(origin, direction, n, radius, parent=None, attach=None):
    return Branch(np.outer(np.arange(n), direction) + origin, np.full(n, radius), parent, attach)


def polyline_length(positions):
    return float(np.sum(np.linalg.norm(np.diff(positions, axis=0), axis=1)))


def tree_length(tree):
    return sum(polyline_length(b.positions) for b in tree.branches.values())


def branch_depth(tree, bid):
    """Branch hops from bid up to the root, climbing parent_link."""
    depth = 0
    branch = tree.branches[bid]
    while branch.parent_link is not None:
        branch = tree.branches[branch.parent_link]
        depth += 1
    return depth


def zero_gap_tree():
    root = Branch([(0.0, 0.0, 0.0), (0.0, 0.0, 0.0), (1.0, 0.0, 0.0)], [1.0, 1.0, 1.0], child_links=[1])
    child = straight_branch((0, 0, 0), (0, 1, 0), 2, 0.5, parent=0, attach=1)
    return VesselTree({0: root, 1: child}, 0)


def y_branches():
    root = straight_branch((0, 0, 0), (1, 0, 0), 4, 2.0)
    child = straight_branch((1, 0, 0), (0, 1, 0), 3, 1.0, parent=0, attach=1)
    root.child_links.append(1)
    return {0: root, 1: child}


class TestStructureValidation:
    def test_valid_tree_builds(self):
        tree = VesselTree(y_branches(), 0)
        assert branch_depth(tree, 1) == 1
        assert tree.branches[0].child_links == [1]

    def test_point_radius_must_be_positive(self):
        b = y_branches()
        b[1].radii[2] = 0.0
        with pytest.raises(TreeStructureError):
            VesselTree(b, 0)

    @pytest.mark.parametrize("column, value", [(0, np.nan), (2, -np.inf), (3, np.nan), (3, np.inf)])
    def test_non_finite_position_or_radius_rejected(self, column, value):
        b = y_branches()
        if column == 3:
            b[1].radii[2] = value
        else:
            b[1].positions[2, column] = value
        with pytest.raises(TreeStructureError):
            VesselTree(b, 0)

    def test_root_must_exist(self):
        with pytest.raises(TreeStructureError):
            VesselTree(y_branches(), 5)

    def test_root_must_have_no_parent(self):
        b = y_branches()
        b[0].parent_link = 1
        with pytest.raises(TreeStructureError):
            VesselTree(b, 0)

    def test_two_point_minimum(self):
        b = y_branches()
        b[1].positions, b[1].radii = b[1].positions[:1], b[1].radii[:1]
        with pytest.raises(TreeStructureError):
            VesselTree(b, 0)

    def test_one_radius_per_position(self):
        b = y_branches()
        b[1].radii = b[1].radii[:2]
        with pytest.raises(TreeStructureError):
            VesselTree(b, 0)

    def test_child_link_must_resolve(self):
        b = y_branches()
        b[0].child_links.append(9)
        with pytest.raises(TreeStructureError):
            VesselTree(b, 0)

    def test_child_must_link_back(self):
        b = y_branches()
        b[1].parent_link = None
        with pytest.raises(TreeStructureError):
            VesselTree(b, 0)

    def test_attach_index_in_range(self):
        b = y_branches()
        b[1].attach_index = 10
        with pytest.raises(TreeStructureError):
            VesselTree(b, 0)

    def test_child_first_point_matches_attach(self):
        b = y_branches()
        b[1].attach_index = 2
        with pytest.raises(TreeStructureError):
            VesselTree(b, 0)

    def test_orphans_rejected(self):
        b = y_branches()
        b[2] = straight_branch((1, 2, 0), (0, 0, 1), 3, 0.5, parent=1, attach=2)
        # 1 never lists 2 as a child, so 2 is unreachable.
        with pytest.raises(TreeStructureError):
            VesselTree(b, 0)


class TestAddressHelpers:
    def test_flat_points_cover_every_address(self):
        tree = VesselTree(y_branches(), 0)
        rows, addrs = tree.flat_points()
        assert len(rows) == len(addrs) == 7
        for row, addr in zip(rows, addrs):
            bid, idx = addr
            assert 0 <= idx < len(tree.branches[bid])
            assert np.array_equal(tree.position(addr), row)

    def test_nearest_points_find_exact_points_and_break_ties_low(self):
        tree = VesselTree(y_branches(), 0)
        rows, _ = tree.flat_points()
        d, i = tree.nearest_points(rows[[5, 1, 4]])
        assert d.tolist() == [0.0, 0.0, 0.0]
        # flat rows 1 (root) and 4 (child start) are the same junction point
        assert i.tolist() == [5, 1, 1]
        # halfway between two root points, and between the junction and child point 1
        d, i = tree.nearest_points(np.array([[2.5, 0.0, 0.0], [1.0, 0.5, 0.0]]))
        assert d.tolist() == [0.5, 0.5]
        assert i.tolist() == [2, 1]


class TestPhantom:
    def test_deterministic_per_seed(self):
        spec = PhantomSpec()
        a = serialize_tree(generate_phantom(spec, 11))
        b = serialize_tree(generate_phantom(spec, 11))
        c = serialize_tree(generate_phantom(spec, 12))
        assert a == b
        assert a != c

    def test_structure_of_default_spec(self):
        tree = generate_phantom(PhantomSpec(), 11)
        assert sorted(tree.branches) == list(range(15))
        leaves = [bid for bid, b in tree.branches.items() if not b.child_links]
        assert len(leaves) == 8
        assert all(branch_depth(tree, bid) == 3 for bid in leaves)
        for br in tree.branches.values():
            for cid in br.child_links:
                assert tree.branches[cid].attach_index == len(br) - 1

    def test_geometry_respects_spec_bounds(self):
        spec = PhantomSpec()
        for seed in range(5):
            tree = generate_phantom(spec, seed)
            for br in tree.branches.values():
                lo, hi = spec.segment_length
                assert lo - 1e-9 <= polyline_length(br.positions) <= hi + 1e-9
                gaps = np.linalg.norm(np.diff(br.positions, axis=0), axis=1)
                assert np.all(gaps <= spec.step_mm + 1e-9)
                radii = br.radii
                assert np.all(radii >= MIN_RADIUS_MM - 1e-12)
                assert np.all(radii <= ROOT_RADIUS_MM + 1e-12)
                assert np.all(np.diff(radii) <= 1e-12)

    def test_spec_validation(self):
        bad = [
            dict(depth=0),
            dict(branching=-1),
            dict(segment_length=(0.0, 5.0)),
            dict(segment_length=(10.0, 5.0)),
            dict(step_mm=0.0),
        ]
        for kwargs in bad:
            with pytest.raises(ValueError):
                PhantomSpec(**kwargs)


class TestResample:
    def test_spacing_must_be_positive(self):
        tree = VesselTree(y_branches(), 0)
        with pytest.raises(ValueError):
            resample_centerlines(tree, 0.0)

    def test_preserves_arc_length_and_caps_gaps(self):
        tree = generate_phantom(PhantomSpec(), 3)
        fine = resample_centerlines(tree, 0.5)
        assert tree_length(fine) == pytest.approx(tree_length(tree), rel=1e-12)
        for bid, br in fine.branches.items():
            gaps = np.linalg.norm(np.diff(br.positions, axis=0), axis=1)
            assert np.all(gaps <= 0.5 + 1e-9)
            old = tree.branches[bid]
            assert np.array_equal(br.positions[0], old.positions[0])
            assert np.allclose(br.positions[-1], old.positions[-1], atol=1e-12)

    def test_coarse_spacing_is_identity(self):
        tree = VesselTree(y_branches(), 0)
        same = resample_centerlines(tree, 100.0)
        assert serialize_tree(same) == serialize_tree(tree)

    def test_zero_length_gaps_dropped_and_attach_remapped(self):
        out = resample_centerlines(zero_gap_tree(), 10.0)
        assert len(out.branches[0]) == 2
        assert out.branches[1].attach_index == 0

    def test_segment_count_rounds_like_the_loop(self):
        # Where the BLAS dot fuses multiply-adds, this gap's length is one ulp
        # below the root of its plain sum of squares, which moves
        # ceil(gap / spacing - 1e-9) from 3 to 2 at this spacing.
        tree = VesselTree({0: Branch([(0.0, 0.0, 0.0), (1.943, 1.192, 2.416)], [1.0, 1.0])}, 0)
        spacing = 1.6608107198719868
        got = resample_centerlines(tree, spacing)
        assert serialize_tree(got) == serialize_tree(reference_resample_centerlines(tree, spacing))

    @pytest.mark.parametrize("spacing", [0.25, 0.5, 10.0, 100.0])
    def test_matches_per_point_loop(self, spacing):
        for tree in [generate_phantom(PhantomSpec(), seed) for seed in range(8)] + [zero_gap_tree()]:
            got = resample_centerlines(tree, spacing)
            want = reference_resample_centerlines(tree, spacing)
            assert serialize_tree(got) == serialize_tree(want)
            assert got.branches.keys() == want.branches.keys()
            for bid, br in got.branches.items():
                ref = want.branches[bid]
                assert br.positions.shape == ref.positions.shape and br.radii.shape == ref.radii.shape
                assert np.array_equal(br.positions.view(np.int64), ref.positions.view(np.int64))
                assert np.array_equal(br.radii.view(np.int64), ref.radii.view(np.int64))
                assert br.attach_index == ref.attach_index
                assert br.attach_index is None or type(br.attach_index) is int


class TestSerialization:
    def test_round_trip_is_exact(self):
        tree = generate_phantom(PhantomSpec(), 7)
        data = serialize_tree(tree)
        again = deserialize_tree(data)
        assert serialize_tree(again) == data
        assert again.root == tree.root
        for bid, br in tree.branches.items():
            other = again.branches[bid]
            assert other.parent_link == br.parent_link
            assert other.attach_index == br.attach_index
            assert other.child_links == br.child_links
            assert np.array_equal(other.positions, br.positions)
            assert np.array_equal(other.radii, br.radii)

    def _doc(self):
        return serialize_tree(VesselTree(y_branches(), 0)).decode()

    def _expect_line(self, text, line):
        with pytest.raises(TreeFormatError) as err:
            deserialize_tree(text.encode())
        assert err.value.line == line

    def test_bad_header(self):
        self._expect_line(self._doc().replace("VTREE 1", "XTREE 9"), 1)

    def test_bad_root_line(self):
        self._expect_line(self._doc().replace("root 0", "rot 0"), 2)
        self._expect_line(self._doc().replace("root 0", "root x"), 2)

    def test_bad_branch_header(self):
        lines = self._doc().splitlines()
        assert lines[2].startswith("branch ")
        lines[2] = "branch oops"
        self._expect_line("\n".join(lines), 3)

    def test_bad_point_value(self):
        lines = self._doc().splitlines()
        k = next(i for i, s in enumerate(lines) if s.startswith("point "))
        lines[k] = "point nope 0.0 0.0 1.0"
        self._expect_line("\n".join(lines), k + 1)

    def test_nonpositive_radius(self):
        lines = self._doc().splitlines()
        k = next(i for i, s in enumerate(lines) if s.startswith("point "))
        lines[k] = "point 0.0 0.0 0.0 0.0"
        self._expect_line("\n".join(lines), k + 1)

    @pytest.mark.parametrize(
        "point", ["point nan 0.0 0.0 1.0", "point 0.0 inf 0.0 1.0", "point 0.0 0.0 -inf 1.0", "point 0.0 0.0 0.0 inf"]
    )
    def test_non_finite_point(self, point):
        lines = self._doc().splitlines()
        k = [i for i, s in enumerate(lines) if s.startswith("point ")][2]
        lines[k] = point
        self._expect_line("\n".join(lines), k + 1)

    def test_duplicate_branch_id(self):
        lines = self._doc().splitlines()
        second = next(i for i, s in enumerate(lines[3:], start=3) if s.startswith("branch "))
        lines[second] = lines[2]
        self._expect_line("\n".join(lines), second + 1)

    def test_truncated_stream(self):
        lines = self._doc().splitlines()[:-2]
        self._expect_line("\n".join(lines), len(lines) + 1)

    def test_trailing_content(self):
        text = self._doc()
        n = len(text.splitlines())
        self._expect_line(text + "junk\n", n + 1)

    def test_inconsistent_links(self):
        text = self._doc().replace("children 1", "children 9")
        with pytest.raises(TreeFormatError):
            deserialize_tree(text.encode())

    def test_not_utf8(self):
        with pytest.raises(TreeFormatError) as err:
            deserialize_tree(b"\xff\xfe\x00ZZ")
        assert err.value.line == 1
