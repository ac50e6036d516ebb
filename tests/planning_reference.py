"""Reference path for the planning tests: per-call walks and Dijkstra.

``vesselnav.planning.plan`` climbs the tree's parent and depth tables, which
is exact only because the address graph is a tree. Dijkstra assumes nothing
about the graph's shape, and it steps with ``parent_address`` and
``simulator_reference.advance_options``, which rebuild each neighbour from
the raw branch fields on every call, so agreeing with it checks both the walk
and the tables. ``plan`` returns addresses only; the tests fold a route's
length here and count its parent steps by counting reads of the tree's
parent table.
"""

import heapq

import numpy as np

from simulator_reference import advance_options
from vesselnav import planning
from vesselnav.planning import Address, AddressError, _check_address
from vesselnav.vessel_model import VesselTree


def parent_address(tree: VesselTree, addr: Address) -> Address | None:
    """One step toward the root; None at the root's first point."""
    bid, idx = addr
    if idx > 0:
        return (bid, idx - 1)
    branch = tree.branches[bid]
    if branch.parent_link is None:
        return None
    return (branch.parent_link, branch.attach_index)


def address_depth(tree: VesselTree, addr: Address) -> int:
    """Number of parent steps from addr to the root's first point."""
    bid, idx = addr
    depth = idx
    branch = tree.branches[bid]
    while branch.parent_link is not None:
        depth += branch.attach_index + 1
        branch = tree.branches[branch.parent_link]
    return depth


def route_length(tree: VesselTree, route: tuple[Address, ...]) -> float:
    """Arc length of a route, folding its hop norms in route order."""
    length = 0.0
    prev = route[0]
    for addr in route[1:]:
        length += float(np.linalg.norm(tree.position(addr) - tree.position(prev)))
        prev = addr
    return length


class _CountingTable(dict):
    """A parent table that counts the entries read from it by subscript."""

    reads = 0

    def __getitem__(self, addr):
        self.reads += 1
        return super().__getitem__(addr)


def counted_plan(monkeypatch):
    """``plan`` that also returns its parent steps.

    Each step is one read of the tree's parent table, which ``plan`` takes
    from ``tree.address_graph()`` at call time; here that returns the same
    tables with the parent table wrapped in a counter. The count is bounded
    by depth(start) + depth(dest).
    """

    def run(tree: VesselTree, start: Address, dest: Address) -> tuple[tuple[Address, ...], int]:
        graph = tree.address_graph()
        parent = _CountingTable(graph.parent)
        monkeypatch.setattr(tree, "address_graph", lambda: graph._replace(parent=parent))
        route = planning.plan(tree, start, dest)
        return route, parent.reads

    return run


def dijkstra_route_length(tree: VesselTree, start: Address, dest: Address) -> float:
    """Shortest-path length by Dijkstra over the address graph.

    On a tree this must agree with plan() exactly; it exists as the reference
    the fast planner is checked against.
    """
    start = _check_address(tree, start)
    dest = _check_address(tree, dest)
    dist: dict[Address, float] = {start: 0.0}
    done: set[Address] = set()
    heap: list[tuple[float, Address]] = [(0.0, start)]
    while heap:
        d, node = heapq.heappop(heap)
        if node in done:
            continue
        if node == dest:
            return d
        done.add(node)
        neighbors = advance_options(tree, node)
        up = parent_address(tree, node)
        if up is not None:
            neighbors.append(up)
        pos = tree.position(node)
        for nb in neighbors:
            if nb in done:
                continue
            nd = d + float(np.linalg.norm(tree.position(nb) - pos))
            if nd < dist.get(nb, np.inf):
                dist[nb] = nd
                heapq.heappush(heap, (nd, nb))
    raise AddressError(f"no route from {start!r} to {dest!r}")
