"""Combinatorial model of a tower X = X_0 -> X_1 -> ... -> X_v = Y of
degree-p covers with cyclic total group Z/p^v.

The tower is described purely by numbers: the base genus, and for each
ramified orbit the order p^m of its stabilizer together with the
ramification break N of each of the m wildly ramified cover steps it
meets.  Divisors are carried as (degree of the part pulled back from the
base, one integer coefficient per orbit); this is lossless because every
divisor the algorithms touch is invariant under the residual group at
its level.  The input form `InvariantDivisor` keys coefficients by orbit
id; a `LevelDivisor` holds them positionally, coeffs[k] on t.orbits[k],
so the pushforward chain never looks an orbit up by id.

Every value here is frozen, as `GroupSpec` is, so one object can stand in
for all equal ones, and `InvariantDivisor` keeps coefficient pairs that
are already sorted instead of copying them.  `checks.random_case` builds
each group, orbit, orbit-free case and (orbit id, coefficient) pair once
and shares it between corpus cases.  A corpus of tens of thousands of
cases, which the benchmark holds in memory while it runs, then holds a
few hundred such objects instead of one per case, in under a third of
the memory.

Conventions:
  * jumps[n-1] is the break of the level-n cover pi_n : X_{n-1} -> X_n
    at the orbit's image; level 1 (closest to X) carries the largest
    break.
  * integral parts of divisors floor toward -infinity, coefficient by
    coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from operator import add, floordiv, sub

from .cyclic_rep import GroupSpec
from .errors import NegativeGenus, NonIntegralGenus, ValidationError


@dataclass(frozen=True, slots=True)
class RamifiedOrbit:
    """A G-orbit of ramified points: stabilizer of order p^depth and the
    break sequence of the covers it ramifies in, innermost first."""

    id: str
    depth: int
    jumps: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "jumps", tuple(self.jumps))
        if self.depth < 1:
            raise ValidationError(f"orbit {self.id!r}: depth {self.depth} < 1")
        if len(self.jumps) != self.depth:
            raise ValidationError(
                f"orbit {self.id!r}: expected {self.depth} jumps, "
                f"got {len(self.jumps)}")
        if any(n < 1 for n in self.jumps):
            raise ValidationError(f"orbit {self.id!r}: jumps must be >= 1")


@dataclass(frozen=True, slots=True)
class CoverTower:
    group: GroupSpec
    base_genus: int
    orbits: tuple[RamifiedOrbit, ...] = field(default=())

    def __post_init__(self):
        object.__setattr__(self, "orbits", tuple(self.orbits))
        if self.base_genus < 0:
            raise ValidationError(f"base genus {self.base_genus} < 0")
        ids = [o.id for o in self.orbits]
        if len(set(ids)) != len(ids):
            raise ValidationError("orbit ids are not unique")
        for o in self.orbits:
            if o.depth > self.group.v:
                raise ValidationError(
                    f"orbit {o.id!r}: depth {o.depth} exceeds tower height "
                    f"{self.group.v}")

    def orbit(self, oid: str) -> RamifiedOrbit:
        for o in self.orbits:
            if o.id == oid:
                return o
        raise ValidationError(f"unknown orbit id {oid!r}")

    def genera(self) -> list[int]:
        """[g_0, ..., g_v], by one downward Riemann-Hurwitz pass from g_Y:
        each wildly ramified point of the degree-p step pi_n contributes
        conductor (p-1)(N+1).  Raises at the first bad level below Y."""
        g = self.group
        genera = [self.base_genus] * (g.v + 1)
        for lvl in range(g.v, 0, -1):
            ram = sum(
                orbit_point_count(o, lvl - 1, g) * (g.p - 1) * (o.jumps[lvl - 1] + 1)
                for o in self.orbits if o.depth >= lvl)
            chi = g.p * (2 * genera[lvl] - 2) + ram
            if chi % 2 != 0:
                raise NonIntegralGenus(
                    f"level {lvl - 1}: 2g - 2 = {chi} is odd")
            genera[lvl - 1] = gn = chi // 2 + 1
            if gn < 0:
                raise NegativeGenus(f"level {lvl - 1}: genus {gn} < 0")
        return genera

    def genus(self, n: int) -> int:
        """Genus of X_n, read off `genera`: it raises when any level, even
        one below n, has no genus."""
        if not 0 <= n <= self.group.v:
            raise ValidationError(f"level {n} out of range 0..{self.group.v}")
        return self.genera()[n]


@dataclass(frozen=True, slots=True)
class InvariantDivisor:
    """A G-invariant divisor on X: pullback of a degree-`base_degree`
    divisor on Y away from the ramification locus, plus an integer
    coefficient on each ramified orbit."""

    base_degree: int = 0
    orbit_coeffs: tuple[tuple[str, int], ...] = field(default=())

    def __post_init__(self):
        # pairs already in normal form are kept, so that divisors can
        # share them
        pairs = sorted(dict(self.orbit_coeffs).items())
        if type(self.orbit_coeffs) is not tuple or list(self.orbit_coeffs) != pairs:
            object.__setattr__(self, "orbit_coeffs", tuple(pairs))

    @classmethod
    def from_dict(cls, base_degree: int, coeffs: dict[str, int]) -> "InvariantDivisor":
        return cls(base_degree, tuple(coeffs.items()))


@dataclass(frozen=True, slots=True)
class LevelDivisor:
    """A divisor on the level-n curve X_n: the base degree and one
    coefficient per orbit, coeffs[k] on t.orbits[k]."""

    level: int
    base_degree: int
    coeffs: tuple[int, ...]


def level_zero_divisor(d: InvariantDivisor, t: CoverTower) -> LevelDivisor:
    """The invariant divisor viewed as a level-0 divisor on X itself.

    Coefficients absent from the map are zero; they are materialized here
    because the twisted pushforwards act nontrivially on zero coefficients
    of ramified orbits.
    """
    coeffs = dict(d.orbit_coeffs)
    level0 = tuple([coeffs.pop(o.id, 0) for o in t.orbits])
    if coeffs:  # the ids left are not orbits of the tower
        raise ValidationError(f"unknown orbit id {next(iter(coeffs))!r}")
    return LevelDivisor(0, d.base_degree, level0)


def orbit_point_count(o: RamifiedOrbit, n: int, g: GroupSpec) -> int:
    """Number of points of X_n lying in the image of the orbit: the orbit
    has p^(v-m) points on X and maps one-to-one below level m."""
    if not 0 <= n <= g.v:
        raise ValidationError(f"level {n} out of range 0..{g.v}")
    return g.p ** (g.v - max(o.depth, n))


def _require_coeff_count(d: LevelDivisor, t: CoverTower) -> None:
    if len(d.coeffs) != len(t.orbits):
        raise ValueError(f"{len(d.coeffs)} coefficients for "
                         f"{len(t.orbits)} orbits")


def divisor_degree(d: LevelDivisor, t: CoverTower) -> int:
    _require_coeff_count(d, t)
    g = t.group
    deg = d.base_degree * g.p ** (g.v - d.level)
    for o, c in zip(t.orbits, d.coeffs):
        deg += c * orbit_point_count(o, d.level, g)
    return deg


def pushforward_alpha(d: LevelDivisor, t: CoverTower, alpha: int) -> LevelDivisor:
    """Twisted pushforward along the next cover pi_n (n = d.level + 1):
    subtract alpha times the break divisor, push forward, take the
    coefficientwise integral part.

    Orbits unramified in pi_n keep their coefficient; the base part is
    untouched.
    """
    g = t.group
    n = d.level + 1
    if n > g.v:
        raise ValidationError("already at the bottom of the tower")
    if not 0 <= alpha <= g.p - 1:
        raise ValidationError(f"alpha = {alpha} out of range 0..{g.p - 1}")
    _require_coeff_count(d, t)
    coeffs = tuple([(c - alpha * o.jumps[n - 1]) // g.p if o.depth >= n else c
                    for o, c in zip(t.orbits, d.coeffs)])
    return LevelDivisor(n, d.base_degree, coeffs)


def pushforward_columns(columns: list[list[int]], t: CoverTower,
                        n: int) -> list[list[int]]:
    """The twisted pushforward along pi_n for every index prefix at once.

    columns[k] holds the coefficient on t.orbits[k] of the level-(n - 1)
    divisors of all p^(n-1) index prefixes, in index order; the result
    holds the level-n ones, the child prefix * p + alpha twisted by
    alpha.  An orbit ramified in pi_n gets (c - alpha * N_n) // p, any
    other keeps c in all p children; the base part is not carried, and
    the alpha = 0 child takes no subtraction.  Each child column is filled
    by p slice assignments of `map`s, so the interpreter takes
    O(#orbits * p) steps per level and the per-entry work runs in
    builtins.  `pushforward_alpha` is the same step for one
    divisor, written separately so that each can check the other.
    """
    g = t.group
    if not 1 <= n <= g.v:
        raise ValidationError(f"level {n} out of range 1..{g.v}")
    if len(columns) != len(t.orbits):
        raise ValueError(f"{len(columns)} columns for {len(t.orbits)} orbits")
    p = g.p
    out = []
    for o, col in zip(t.orbits, columns):
        child = [0] * (len(col) * p)
        if o.depth < n:
            for alpha in range(p):
                child[alpha::p] = col
        else:
            step = o.jumps[n - 1]
            child[::p] = map(floordiv, col, repeat(p))
            for alpha in range(1, p):
                shifted = map(sub, col, repeat(alpha * step))
                child[alpha::p] = map(floordiv, shifted, repeat(p))
        out.append(child)
    return out


def column_degrees(base_degree: int, columns: list[list[int]],
                   t: CoverTower) -> list[int]:
    """Degrees on Y of the level-v divisors held as `pushforward_columns`
    holds them: each orbit has one point on Y, so deg_j is the base
    degree plus the j-th entry of every column, summed by one chain of
    `map`s into one list."""
    degs = repeat(base_degree, t.group.order)
    for col in columns:
        degs = map(add, degs, col)
    return list(degs)


def kani_pushforward(d: InvariantDivisor, t: CoverTower) -> LevelDivisor:
    """Invariant pushforward to the base in one step: the integral part of
    (pi_* D) / #G, which on orbit coefficients is n_P // p^depth."""
    g = t.group
    return LevelDivisor(g.v, d.base_degree,
                        tuple(c // g.p ** o.depth for o, c in
                              zip(t.orbits, level_zero_divisor(d, t).coeffs)))


def validate_strict(t: CoverTower) -> tuple[str, ...]:
    """The necessary realizability conditions that the jump data violate;
    empty when the tower passes them all.

    Per orbit, with lower breaks b_i read off the jumps innermost-last:
    no break divisible by p, b non-decreasing, the upper breaks
    u_1 = b_1, u_{i+1} = u_i + (b_{i+1} - b_i) / p^i integral,
    u_{i+1} >= p * u_i, and p does not divide u_{i+1} when the
    inequality is strict.  Construction computes no genus, so a tower
    with an odd 2g - 2 builds; the genus at every level is checked here,
    by one `genera` pass.
    """
    p = t.group.p
    bad: list[str] = []
    for o in t.orbits:
        if any(n % p == 0 for n in o.jumps):
            bad.append(f"orbit {o.id!r}: break divisible by p in {list(o.jumps)}")
            continue
        b = list(reversed(o.jumps))
        if any(b[i] > b[i + 1] for i in range(len(b) - 1)):
            bad.append(
                f"orbit {o.id!r}: breaks increase down the tower: {list(o.jumps)}")
            continue
        u = [b[0]]
        for i in range(1, len(b)):
            diff = b[i] - b[i - 1]
            if diff % p ** i != 0:
                bad.append(
                    f"orbit {o.id!r}: upper break {i + 1} not integral")
                break
            nxt = u[-1] + diff // p ** i
            if nxt < p * u[-1]:
                bad.append(
                    f"orbit {o.id!r}: upper break {nxt} < p * {u[-1]}")
                break
            if nxt > p * u[-1] and nxt % p == 0:
                bad.append(
                    f"orbit {o.id!r}: new upper break {nxt} divisible by p")
                break
            u.append(nxt)
    try:
        t.genera()
    except (NonIntegralGenus, NegativeGenus) as exc:
        bad.append(f"genus: {exc}")
    return tuple(bad)
