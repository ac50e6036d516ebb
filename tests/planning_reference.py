"""Reference path for the planning tests: Dijkstra over the address graph.

``vesselnav.planning.plan`` walks parent pointers, which is exact only because
the address graph is a tree. Dijkstra assumes nothing about the graph's shape,
so agreeing with it checks the walk. ``plan`` returns addresses only; the
tests fold a route's length here and count its parent steps by wrapping
``parent_address``.
"""

import heapq

import numpy as np

from vesselnav import planning
from vesselnav.planning import Address, AddressError, _check_address, advance_options, parent_address
from vesselnav.vessel_model import VesselTree


def route_length(tree: VesselTree, route: tuple[Address, ...]) -> float:
    """Arc length of a route, folding its hop norms in route order."""
    length = 0.0
    prev = route[0]
    for addr in route[1:]:
        length += float(np.linalg.norm(tree.position(addr) - tree.position(prev)))
        prev = addr
    return length


def counted_plan(monkeypatch):
    """``plan`` that also returns its parent steps.

    Each step is one call to ``vesselnav.planning.parent_address``, which
    ``plan`` looks up at call time, so the count is bounded by
    depth(start) + depth(dest).
    """
    calls = 0
    inner = planning.parent_address

    def counting(tree, addr):
        nonlocal calls
        calls += 1
        return inner(tree, addr)

    monkeypatch.setattr(planning, "parent_address", counting)

    def run(tree: VesselTree, start: Address, dest: Address) -> tuple[tuple[Address, ...], int]:
        nonlocal calls
        calls = 0
        route = planning.plan(tree, start, dest)
        return route, calls

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
