"""Write a vessel tree in the text format that ``[map]`` files hold and
``deserialize_tree`` reads, so tests can build map files; identical trees
give identical bytes."""

from vesselnav.vessel_model import FORMAT_HEADER, VesselTree


def serialize_tree(tree: VesselTree) -> bytes:
    lines = [FORMAT_HEADER, f"root {tree.root}"]
    for bid in sorted(tree.branches):
        br = tree.branches[bid]
        parent = "-" if br.parent_link is None else str(br.parent_link)
        attach = "-" if br.attach_index is None else str(br.attach_index)
        children = ",".join(str(c) for c in br.child_links) or "-"
        lines.append(f"branch {bid} parent {parent} attach {attach} children {children}")
        for p, r in zip(br.positions, br.radii):
            x, y, z = (repr(float(v)) for v in p)
            lines.append(f"point {x} {y} {z} {repr(float(r))}")
        lines.append("end")
    lines.append("endtree")
    return ("\n".join(lines) + "\n").encode("utf-8")
