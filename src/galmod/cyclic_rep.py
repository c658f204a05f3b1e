"""Modular representation theory of Z/p^v over a field of characteristic p.

The group algebra k[Z/p^v] has exactly p^v indecomposable modules V_1,
..., V_{p^v}, V_j being a single Jordan block of dimension j for a fixed
generator.  Everything here is integer bookkeeping on those blocks: the
inverse Cartan matrix, the base change in the Grothendieck group from
the simple-functor classes S_i to the standard classes [V_j],
restriction to the subgroup of index p, and relative projectivity with
respect to the (totally ordered) subgroup lattice.

All functions are pure; all values are immutable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from operator import sub

from .errors import ValidationError

# Largest group order accepted.  The engine is linear in p^v, so this is
# not a limit of the algorithms; it stays at 3125 until a larger order has
# a measured time and memory budget.
MAX_ORDER = 3125


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True, slots=True)
class GroupSpec:
    """The cyclic group Z/p^v, p prime, together with its subgroup lattice
    (one subgroup of order p^w for each 0 <= w <= v)."""

    p: int
    v: int

    def __post_init__(self):
        # The cap is checked before the primality test and without forming
        # p ** v, so no input costs more than O(sqrt(MAX_ORDER)) steps.
        if self.p > MAX_ORDER:
            raise ValidationError(f"p = {self.p} exceeds the cap {MAX_ORDER}")
        if not _is_prime(self.p):
            raise ValidationError(f"p = {self.p} is not prime")
        if self.v < 0:
            raise ValidationError(f"v = {self.v} must be >= 0")
        order = 1
        for _ in range(self.v):
            order *= self.p
            if order > MAX_ORDER:
                raise ValidationError(
                    f"group order {self.p}^{self.v} exceeds the cap {MAX_ORDER}")

    @property
    def order(self) -> int:
        return self.p ** self.v


@dataclass(frozen=True, slots=True)
class Decomposition:
    """A finite multiset of indecomposables: dimension j -> multiplicity m_j.

    Zero multiplicities are dropped on construction so equality is equality
    of the underlying multisets.
    """

    mult: tuple[tuple[int, int], ...] = field(default=())

    def __post_init__(self):
        cleaned = {}
        for j, m in (dict(self.mult)).items():
            if j < 1:
                raise ValidationError(f"block dimension {j} < 1")
            if m < 0:
                raise ValidationError(f"multiplicity {m} < 0 for V_{j}")
            if m > 0:
                cleaned[j] = m
        object.__setattr__(self, "mult", tuple(sorted(cleaned.items())))

    @classmethod
    def from_dict(cls, d: dict[int, int]) -> "Decomposition":
        return cls(tuple(d.items()))

    def total_dim(self) -> int:
        return sum(j * m for j, m in self.mult)

    def dense(self, order: int) -> list[int]:
        """Multiplicities as a dense list indexed 1..order."""
        d = dict(self.mult)
        return [d.get(j, 0) for j in range(1, order + 1)]


@dataclass(frozen=True, slots=True)
class K0Vector:
    """An integer vector in K_0(mod k[G]), tagged by the basis it is
    written in: 'simple' (classes S_j) or 'standard' (classes [V_j])."""

    basis: str
    coords: tuple[int, ...]

    def __post_init__(self):
        if self.basis not in ("simple", "standard"):
            raise ValidationError(f"unknown basis tag {self.basis!r}")


def cartan_inverse(g: GroupSpec) -> list[list[int]]:
    """Inverse of the min(i, j) matrix: tridiagonal with 2 on the diagonal
    (1 in the last entry) and -1 off-diagonal."""
    n = g.order
    inv = [[0] * n for _ in range(n)]
    for i in range(n):
        inv[i][i] = 2 if i < n - 1 else 1
        if i > 0:
            inv[i][i - 1] = -1
            inv[i - 1][i] = -1
    return inv


def digits(j: int, g: GroupSpec) -> list[int]:
    """Base-p digits [a_0, ..., a_{v-1}] of j - 1, least significant first."""
    if not 1 <= j <= g.order:
        raise ValidationError(f"index {j} out of range 1..{g.order}")
    rem = j - 1
    out = []
    for _ in range(g.v):
        out.append(rem % g.p)
        rem //= g.p
    return out


def restrict_step(g: GroupSpec, j: int) -> Decomposition:
    """Restriction of V_j to the subgroup of index p.

    Writing j = (l-1)p + j' with 1 <= j' <= p, the generator's Jordan block
    of size j breaks into j' blocks of size l and p - j' of size l - 1.
    """
    if g.v == 0:
        raise ValidationError("trivial group has no proper subgroup step")
    if not 1 <= j <= g.order:
        raise ValidationError(f"index {j} out of range 1..{g.order}")
    l, jp = divmod(j - 1, g.p)
    l, jp = l + 1, jp + 1
    parts = {l: jp}
    if l > 1 and g.p - jp > 0:
        parts[l - 1] = g.p - jp
    return Decomposition.from_dict(parts)


def is_relatively_projective(d: Decomposition, g: GroupSpec, w: int) -> bool:
    """True iff d is a sum of modules induced from the subgroup of order
    p^w, i.e. every occurring dimension is divisible by p^(v-w)."""
    if not 0 <= w <= g.v:
        raise ValidationError(f"subgroup exponent {w} out of range 0..{g.v}")
    step = g.p ** (g.v - w)
    return all(j % step == 0 for j, _ in d.mult)


def from_simple_basis(x: K0Vector, g: GroupSpec) -> K0Vector:
    """Rewrite a simple-basis class in the standard basis (inverse Cartan)."""
    if x.basis != "simple":
        raise ValidationError("expected a simple-basis vector")
    if len(x.coords) != g.order:
        raise ValidationError("coordinate length does not match group order")
    # cartan_inverse(g) is tridiagonal: row i sends c to e_i - e_(i+1),
    # the last row to e_(n-1), e being the first differences of c
    c = x.coords
    e = [c[0], *map(sub, islice(c, 1, None), c)]
    return K0Vector("standard", (*map(sub, e, islice(e, 1, None)), e[-1]))
