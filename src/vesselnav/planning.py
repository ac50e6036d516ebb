"""Route planning over a vessel tree addressed by (branch id, point index).

A tree has exactly one simple path between two addresses, so planning walks
parent pointers: lift both endpoints to equal depth, ascend in lockstep to the
common ancestor, and splice the two half-paths. Branch attachments are
zero-length hops between the coincident addresses (child, 0) and
(parent, attach index). Parents and depths are read from the tree's address
tables (``VesselTree.address_graph``), which the first plan on a tree builds,
so each step of the climb is one table read.

``plan`` returns the route's addresses and nothing else; the tests fold its
length and check it against Dijkstra.
"""

from __future__ import annotations

from collections.abc import Collection

from .vessel_model import VesselTree

Address = tuple[int, int]


class AddressError(KeyError):
    """Address does not exist in the tree."""


def _check_address(tree: VesselTree, addr: Address) -> Address:
    """The address as a pair of ints; a fractional or missing one raises."""
    bid, idx = addr
    if (bid, idx) not in tree.address_graph().parent:
        raise AddressError(f"address {addr!r} not in tree")
    return (int(bid), int(idx))


def plan(tree: VesselTree, start: Address, dest: Address) -> tuple[Address, ...]:
    """Unique tree route from start to dest, inclusive of both.

    Runs in O(route length) using parent pointers only: both endpoints climb
    to the depth of the shallower one, then climb together until they meet.
    """
    a = _check_address(tree, start)
    b = _check_address(tree, dest)
    graph = tree.address_graph()
    parent = graph.parent
    da, db = graph.depth[a], graph.depth[b]
    up_start: list[Address] = [a]
    up_dest: list[Address] = [b]
    for _ in range(da - db):
        a = parent[a]
        up_start.append(a)
    for _ in range(db - da):
        b = parent[b]
        up_dest.append(b)
    while a != b:
        a = parent[a]
        b = parent[b]
        up_start.append(a)
        up_dest.append(b)
    return tuple(up_start + up_dest[-2::-1])


def on_path(route: Collection[Address], addr: Address) -> bool:
    """Whether addr lies on the route, given as its tuple or as a set."""
    return tuple(addr) in route
