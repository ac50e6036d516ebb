"""Route planner checks against path oracles built from raw branch data.

The oracle adjacency is assembled straight from Branch fields (chain edges
plus zero-length attach hops), so agreement with plan() exercises the
parent-pointer walk end to end. On a tree the path is unique, which lets the
tests demand exact equality, including bitwise-equal arc lengths, because
route_length and Dijkstra fold the same segment norms in route order.
"""

from collections import deque

import numpy as np
import pytest

from vesselnav.planning import AddressError, on_path, plan
from vesselnav.vessel_model import (
    Branch,
    PhantomSpec,
    VesselTree,
    generate_phantom,
    validate_tree,
)

from planning_reference import address_depth, counted_plan, dijkstra_route_length, route_length


def _branch(positions, radius=1.5, parent=None, attach=None):
    return Branch(positions, np.full(len(positions), radius), parent, attach)


def y_tree():
    """Root along +x with one child at index 1 (+y) and one at index 3 (+z)."""
    root = _branch([(0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0)])
    left = _branch([(1, 0, 0), (1, 1, 0), (1, 2, 0)], parent=0, attach=1)
    right = _branch([(3, 0, 0), (3, 0, 1)], parent=0, attach=3)
    root.child_links = [1, 2]
    tree = VesselTree({0: root, 1: left, 2: right}, root=0)
    validate_tree(tree)
    return tree


def oracle_adjacency(tree):
    adj = {}
    for bid, br in tree.branches.items():
        for i in range(len(br)):
            adj.setdefault((bid, i), [])
        for i in range(len(br) - 1):
            adj[(bid, i)].append((bid, i + 1))
            adj[(bid, i + 1)].append((bid, i))
    for bid, br in tree.branches.items():
        if br.parent_link is not None:
            a, b = (bid, 0), (br.parent_link, br.attach_index)
            adj[a].append(b)
            adj[b].append(a)
    return adj


def oracle_path(tree, start, dest):
    """Unique simple path by breadth-first search over the raw adjacency."""
    adj = oracle_adjacency(tree)
    prev = {start: None}
    queue = deque([start])
    while queue:
        node = queue.popleft()
        if node == dest:
            break
        for nb in adj[node]:
            if nb not in prev:
                prev[nb] = node
                queue.append(nb)
    path = [dest]
    while path[-1] != start:
        path.append(prev[path[-1]])
    return path[::-1]


def oracle_root_path(tree, addr):
    """Address chain from addr up to the root tip, via raw branch fields."""
    chain = [addr]
    bid, idx = addr
    while True:
        if idx > 0:
            idx -= 1
        else:
            br = tree.branches[bid]
            if br.parent_link is None:
                return chain
            bid, idx = br.parent_link, br.attach_index
        chain.append((bid, idx))


class TestAddressing:
    def test_parent_steps(self):
        parent = y_tree().address_graph().parent
        assert parent[(0, 0)] is None
        assert parent[(0, 2)] == (0, 1)
        assert parent[(1, 0)] == (0, 1)
        assert parent[(2, 0)] == (0, 3)

    def test_advance_options_invert_parent_address(self):
        # The simulator steps along the options table and plan climbs the
        # parent table, so pin the two against each other on every address
        # of a full phantom.
        tree = generate_phantom(PhantomSpec(), seed=11)
        graph = tree.address_graph()
        _, addresses = tree.flat_points()
        assert len(addresses) == 444
        assert set(graph.parent) == set(graph.options) == set(addresses)
        children = {a: set() for a in addresses}
        for b in addresses:
            up = graph.parent[b]
            if up is not None:
                children[up].add(b)
        for a in addresses:
            assert set(graph.options[a]) == children[a]

    def test_depth_counts_parent_steps(self):
        tree = y_tree()
        depth = tree.address_graph().depth
        assert len(depth) == 9
        for addr in depth:
            assert depth[addr] == address_depth(tree, addr) == len(oracle_root_path(tree, addr)) - 1

    def test_bad_addresses_rejected(self):
        tree = y_tree()
        # A fractional index names no point, so it is not rounded to one.
        for addr in [(9, 0), (0, 4), (0, -1), (1, 3), (0, 1.5), (0.5, 0), (0, float("nan"))]:
            with pytest.raises(AddressError):
                plan(tree, addr, (0, 0))
            with pytest.raises(AddressError):
                plan(tree, (0, 0), addr)

    def test_integral_addresses_plan_as_ints(self):
        tree = y_tree()
        route = plan(tree, (np.int64(1), 2.0), (2, np.int64(1)))
        assert route == plan(tree, (1, 2), (2, 1))
        assert all(type(bid) is int and type(idx) is int for bid, idx in route)


class TestPlanHandTree:
    def test_route_across_junctions(self):
        tree = y_tree()
        route = plan(tree, (1, 2), (2, 1))
        assert route == (
            (1, 2), (1, 1), (1, 0), (0, 1), (0, 2), (0, 3), (2, 0), (2, 1),
        )
        # Unit-spaced points, two zero-length attach hops: 5 moving segments.
        assert route_length(tree, route) == pytest.approx(5.0, abs=1e-12)
        assert route[0] == (1, 2) and route[-1] == (2, 1)
        assert len(route) == 8

    def test_attach_hop_is_zero_length(self):
        tree = y_tree()
        route = plan(tree, (0, 1), (1, 0))
        assert route == ((0, 1), (1, 0))
        assert route_length(tree, route) == 0.0

    def test_single_point_route(self, monkeypatch):
        tree = y_tree()
        route, steps = counted_plan(monkeypatch)(tree, (1, 1), (1, 1))
        assert route == ((1, 1),)
        assert route_length(tree, route) == 0.0
        assert steps == 0


class TestPlanOracle:
    def test_matches_bfs_and_dijkstra_on_random_trees(self):
        rng = np.random.default_rng(7)
        for trial in range(30):
            tree = generate_phantom(PhantomSpec(), seed=100 + trial)
            _, addresses = tree.flat_points()
            for _ in range(8):
                start, dest = (addresses[rng.integers(len(addresses))] for _ in range(2))
                route = plan(tree, start, dest)
                expect = oracle_path(tree, start, dest)
                assert route == tuple(expect)
                # Same fold order over the same floats: exact, not approx.
                assert route_length(tree, route) == dijkstra_route_length(tree, start, dest)

    def test_visited_counter_identity(self, monkeypatch):
        counted = counted_plan(monkeypatch)
        rng = np.random.default_rng(8)
        for trial in range(20):
            tree = generate_phantom(PhantomSpec(), seed=300 + trial)
            _, addresses = tree.flat_points()
            for _ in range(8):
                start, dest = (addresses[rng.integers(len(addresses))] for _ in range(2))
                _, steps = counted(tree, start, dest)
                up_s = oracle_root_path(tree, start)
                up_d = oracle_root_path(tree, dest)
                shared = 0
                while (
                    shared < min(len(up_s), len(up_d))
                    and up_s[len(up_s) - 1 - shared] == up_d[len(up_d) - 1 - shared]
                ):
                    shared += 1
                lca_depth = shared - 1
                da, db = len(up_s) - 1, len(up_d) - 1
                assert steps == da + db - 2 * lca_depth
                assert steps <= da + db


class TestRouteQueries:
    def test_on_path_membership(self):
        tree = y_tree()
        route = plan(tree, (1, 2), (2, 1))
        for addr in route:
            assert on_path(route, addr)
        assert not on_path(route, (0, 0))
