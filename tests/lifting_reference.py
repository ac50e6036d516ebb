"""Reference bound for the lifting tests: how far a lifted tip may miss.

``vesselnav.lifting.lift`` returns the model point whose projection is
nearest the 2D tip. When that tip is exact, the true tip may still sit
anywhere in the lumen cross-section and the model samples the centerline at
a finite spacing, so the 3D miss is bounded by their sum.
"""


def lateral_error_bound(radius_mm: float, spacing_mm: float) -> float:
    """Worst-case 3D error of a lifted tip whose 2D tip is exact."""
    return radius_mm + spacing_mm


def radius_at(tree, address: tuple[int, int]) -> float:
    """Lumen radius at a (branch, index) address of a tree."""
    b, i = address
    return float(tree.branches[b].radii[i])
