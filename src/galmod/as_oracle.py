"""Brute-force ground truth on Artin-Schreier curves y^p - y = x^m.

For p prime and gcd(m, p) = 1 the affine model is integrally closed with
a single, totally ramified point at infinity; the order-p automorphism
y -> y + 1 generates the Galois group over the x-line.  The section
space of n * P_inf has the monomial basis {x^i y^j : pi + mj <= n,
j < p}, on which the action is exact linear algebra over F_p.  The
Jordan type of the generator follows from the ranks of the powers of
sigma - 1, built straight from the basis as its nonzero entries column
by column.  The columns are split into the invariant blocks that their
nonzero pattern connects, and on each block the ranks come from
applying sigma - 1 to a basis of the previous image and echelonizing.
The split reads the entries alone, with no dependence on the basis or
on the tower machinery it cross-checks; here y -> y + 1 never changes
the power of x, so a block has at most p coordinates and the whole
computation costs O(dim * p^3).  Only `jordan_type_of_matrix`, the
entry point for a general dense matrix, scans all dim^2 entries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import zip_longest

from .cyclic_rep import Decomposition, GroupSpec, _is_prime
from .cover_tower import CoverTower, InvariantDivisor, RamifiedOrbit
from .errors import DegreeTooSmall, ValidationError


@dataclass(frozen=True)
class ASCurve:
    """The smooth projective curve with affine model y^p - y = x^m."""

    p: int
    m: int

    def __post_init__(self):
        if not _is_prime(self.p):
            raise ValidationError(f"p = {self.p} is not prime")
        if self.m < 1 or math.gcd(self.m, self.p) != 1:
            raise ValidationError(
                f"m = {self.m} must be positive and prime to p = {self.p}")

    @property
    def genus(self) -> int:
        return (self.p - 1) * (self.m - 1) // 2


def riemann_roch_basis(c: ASCurve, n: int) -> list[tuple[int, int]]:
    """Exponent pairs (i, j) of the monomials x^i y^j spanning L(n * P_inf).

    Pole orders at infinity are pi + mj; since gcd(m, p) = 1 and j < p
    they are pairwise distinct, so the monomials are independent.
    """
    if n < 0:
        raise ValidationError(f"n = {n} must be >= 0")
    return sorted((i, j) for j in range(c.p)
                  for i in range((n - c.m * j) // c.p + 1))


def sigma_minus_one(c: ASCurve, basis: list[tuple[int, int]]
                    ) -> list[list[tuple[int, int]]]:
    """N = sigma - 1 on the monomial basis, over F_p, as the nonzero
    (i, N_ij) of each column j.

    Column for (i, j) expands x^i (y + 1)^j - x^i y^j, the sum of
    C(j, t) x^i y^t over t < j; every monomial that appears has pole
    order below that of x^i y^j, so it stays inside the basis.
    """
    index = {b: k for k, b in enumerate(basis)}
    return [[(index[(i, t)], x) for t in range(j)
             if (x := math.comb(j, t) % c.p)] for i, j in basis]


def sigma_matrix(c: ASCurve, basis: list[tuple[int, int]]) -> list[list[int]]:
    """Matrix of y -> y + 1 on the monomial basis, over F_p: the dense
    view I + N of `sigma_minus_one`."""
    size = len(basis)
    mat = [[int(i == j) for j in range(size)] for i in range(size)]
    for j, col in enumerate(sigma_minus_one(c, basis)):
        for i, x in col:
            mat[i][j] = x
    return mat


def _echelon_mod_p(vectors: list[list[int]], p: int) -> list[list[int]]:
    """A basis of the span of `vectors` (entries in 0..p-1) over F_p, by
    Gaussian elimination: each vector is reduced against the rows kept so
    far and, if anything is left, scaled to a leading 1 and kept.  Every
    kept row is zero at the pivots of the rows before it."""
    rows: list[tuple[int, list[int]]] = []
    for vec in vectors:
        for col, row in rows:
            f = vec[col]
            if f:
                vec = [(x - f * y) % p for x, y in zip(vec, row)]
        lead = next((i for i, x in enumerate(vec) if x), None)
        if lead is not None:
            inv = pow(vec[lead], -1, p)
            rows.append((lead, [x * inv % p for x in vec]))
    return [row for _, row in rows]


def _image_ranks(cols: list[list[tuple[int, int]]], p: int) -> list[int]:
    """[dim im N^0, dim im N^1, ..., 0] for N given as the nonzero
    (i, N_ij) of each column j.  A basis of im N^k is N applied to a basis
    of im N^(k-1), echelonized, so no power of N is formed; raises when a
    rank stalls above 0, i.e. N is not nilpotent."""
    size = len(cols)
    image = [[int(i == j) for j in range(size)] for i in range(size)]
    ranks = [size]
    while ranks[-1] > 0:
        applied = []
        for vec in image:
            out = [0] * size
            for j, v in enumerate(vec):
                if v:
                    for i, x in cols[j]:
                        out[i] += x * v
            applied.append([y % p for y in out])
        image = _echelon_mod_p(applied, p)
        if len(image) == ranks[-1]:
            raise ValidationError("matrix is not unipotent")
        ranks.append(len(image))
    return ranks


def jordan_type_of_columns(cols: list[list[tuple[int, int]]],
                           p: int) -> Decomposition:
    """Jordan type over F_p of 1 + N, for N given as the nonzero (i, N_ij)
    of each column j, from the ranks r_k = dim im N^k: the size-s
    multiplicity is r_{s-1} - 2 r_s + r_{s+1}.

    The connected components of the nonzero pattern, i ~ j whenever
    N_ij != 0, span subspaces that N maps into themselves, so r_k is the
    sum of the ranks of N^k on the diagonal blocks, and N is nilpotent
    exactly when every block is.  The split is plain linear algebra on
    the entries given: it knows nothing of where they came from, and it
    finds the blocks in one pass over them.  On a block of size b, step k of the image
    chain costs r_{k-1}^2 * b to echelonize, plus, for each of the
    r_{k-1} vectors v, b + nnz(columns where v is nonzero).
    """
    size = len(cols)
    root = list(range(size))

    def find(i):
        while root[i] != i:
            root[i] = root[root[i]]
            i = root[i]
        return i

    for j, col in enumerate(cols):
        for i, _ in col:
            root[find(i)] = find(j)
    blocks: dict[int, list[int]] = {}
    for i in range(size):
        blocks.setdefault(find(i), []).append(i)
    chains = []
    for block in blocks.values():
        local = {i: k for k, i in enumerate(block)}
        chains.append(_image_ranks(
            [[(local[i], x) for i, x in cols[j]] for j in block], p))
    ranks = [*map(sum, zip_longest(*chains, fillvalue=0)), 0]
    return Decomposition.from_dict(
        {s: ranks[s - 1] - 2 * ranks[s] + ranks[s + 1]
         for s in range(1, len(ranks) - 1)})


def jordan_type_of_matrix(mat: list[list[int]], p: int) -> Decomposition:
    """Jordan type of a unipotent matrix M over F_p: the nonzero entries
    of N = M - I, read by one scan of all dim^2 entries (so an entry
    M_ii = 0, i.e. N_ii = -1, counts like any other), handed column by
    column to `jordan_type_of_columns`.  This dense scan is the one
    O(dim^2) step, and `jordan_type` does not take it."""
    size = len(mat)
    if any(len(row) != size for row in mat):
        raise ValidationError("matrix is not square")
    return jordan_type_of_columns(
        [[(i, y) for i, row in enumerate(mat) if (y := (row[j] - (i == j)) % p)]
         for j in range(size)], p)


def jordan_type(c: ASCurve, n: int) -> Decomposition:
    """Jordan type of the generator on H^0(X, L(n * P_inf))."""
    if n <= 2 * c.genus - 2:
        raise DegreeTooSmall(
            f"n = {n} <= 2g - 2 = {2 * c.genus - 2}")
    basis = riemann_roch_basis(c, n)
    return jordan_type_of_columns(sigma_minus_one(c, basis), c.p)


def to_tower(c: ASCurve):
    """The curve as a one-step cover tower over the x-line, plus the map
    n -> invariant divisor n * P_inf.  The break at infinity is m."""
    tower = CoverTower(GroupSpec(c.p, 1), 0,
                       (RamifiedOrbit("P_inf", 1, (c.m,)),))

    def divisor(n: int) -> InvariantDivisor:
        return InvariantDivisor.from_dict(0, {"P_inf": n})

    return tower, divisor
