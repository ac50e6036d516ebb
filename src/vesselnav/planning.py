"""Route planning over a vessel tree addressed by (branch id, point index).

A tree has exactly one simple path between two addresses, so planning walks
parent pointers: lift both endpoints to equal depth, ascend in lockstep to the
common ancestor, and splice the two half-paths. Branch attachments are
zero-length hops between the coincident addresses (child, 0) and
(parent, attach index).

``plan`` returns the route's addresses and nothing else; the tests fold its
length and check it against Dijkstra.
"""

from __future__ import annotations

from .vessel_model import VesselTree

Address = tuple[int, int]


class AddressError(KeyError):
    """Address does not exist in the tree."""


def _check_address(tree: VesselTree, addr: Address) -> Address:
    bid, idx = addr
    branch = tree.branches.get(bid)
    if branch is None or not 0 <= idx < len(branch):
        raise AddressError(f"address {addr!r} not in tree")
    return (int(bid), int(idx))


def parent_address(tree: VesselTree, addr: Address) -> Address | None:
    """One step toward the root; None at the root's first point."""
    bid, idx = addr
    if idx > 0:
        return (bid, idx - 1)
    branch = tree.branches[bid]
    if branch.parent_link is None:
        return None
    return (branch.parent_link, branch.attach_index)


def advance_options(tree: VesselTree, addr: Address) -> list[Address]:
    """Addresses one step away from the root: attached children in link
    order, then the same-branch continuation. The wire picks among them by
    rotation phase; route lengths do not depend on the order."""
    bid, idx = addr
    branch = tree.branches[bid]
    out = [(cid, 0) for cid in branch.child_links if tree.branches[cid].attach_index == idx]
    if idx + 1 < len(branch):
        out.append((bid, idx + 1))
    return out


def address_depth(tree: VesselTree, addr: Address) -> int:
    """Number of parent steps from addr to the root's first point."""
    bid, idx = addr
    depth = idx
    branch = tree.branches[bid]
    while branch.parent_link is not None:
        depth += branch.attach_index + 1
        branch = tree.branches[branch.parent_link]
    return depth


def plan(tree: VesselTree, start: Address, dest: Address) -> tuple[Address, ...]:
    """Unique tree route from start to dest, inclusive of both.

    Runs in O(route length) using parent pointers only: both endpoints climb
    to the depth of the shallower one, then climb together until they meet.
    """
    start = _check_address(tree, start)
    dest = _check_address(tree, dest)
    da, db = address_depth(tree, start), address_depth(tree, dest)
    up_start: list[Address] = [start]
    up_dest: list[Address] = [dest]
    a, b = start, dest
    for _ in range(da - db):
        a = parent_address(tree, a)
        up_start.append(a)
    for _ in range(db - da):
        b = parent_address(tree, b)
        up_dest.append(b)
    while a != b:
        a = parent_address(tree, a)
        b = parent_address(tree, b)
        up_start.append(a)
        up_dest.append(b)
    return tuple(up_start + up_dest[-2::-1])


def on_path(route: tuple[Address, ...], addr: Address) -> bool:
    return tuple(addr) in route
