"""Reference formulas that only the tests use, kept out of the package.

Each one recomputes by a dense, obviously correct formula something that
galmod computes by a faster one, so that a test can set the two against
each other.
"""

from galmod.cyclic_rep import GroupSpec


def cartan_matrix(g: GroupSpec) -> list[list[int]]:
    """Base change matrix from standard to simple classes; entry (i, j) is
    dim Hom(V_i, V_j) = min(i, j) (1-indexed)."""
    n = g.order
    return [[min(i, j) for j in range(1, n + 1)] for i in range(1, n + 1)]
