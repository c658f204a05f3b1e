"""Krull-Schmidt decomposition of H^0(X, L(D)) for a cyclic p-group action.

The engine reads the multiplicities m_j off one degree table: deg_j is the
degree of the j-th iterated twisted pushforward of D, with twist exponents
the base-p digits of j - 1 (`degree_table`), and m_j is a first difference
of the degrees (`decompose_closed_form`).

One independent cross-check runs beside it in production
(`PRODUCTION_METHODS`): the recursive route descends the tower one degree-p
cover at a time, building the graded-piece divisor of V_j from that of the
restricted index, and converts the resulting Euler-characteristic vector
with the inverse Cartan matrix.  It never reads the degree table, so its
agreement with the engine covers both pushforward chains, the first
difference and the Cartan solve.

Two reference formulas stay for the tests: second differences of the
partial sums of the degrees, and the Euler-characteristic vector of the
table through the inverse Cartan matrix.  Both read the engine's table,
so their agreement with it checks algebraic identities only.

Every route costs O(p^v) pushforward steps and arithmetic operations.
All of them require deg D > 2g_X - 2, which forces H^1 to vanish so that
Euler characteristics compute actual section spaces.
"""

from __future__ import annotations

import random
from collections.abc import Sequence
from dataclasses import dataclass

from .cyclic_rep import (
    Decomposition,
    K0Vector,
    digits,
    from_simple_basis,
    is_relatively_projective,
)
from .cover_tower import (
    CoverTower,
    InvariantDivisor,
    LevelDivisor,
    divisor_degree,
    level_zero_divisor,
    orbit_point_count,
    pushforward_alpha,
)
from .errors import DegreeTooSmall

METHOD_CLOSED = "ClosedForm"
METHOD_SECOND_DIFF = "SecondDifference"
METHOD_RECURSIVE = "Recursive"
METHOD_SIMPLE_BASIS = "SimpleBasis"


@dataclass(frozen=True)
class DecompositionReport:
    """Result of one decomposition run.

    `mult_list` is dense (index 1..p^v) and may contain negative entries
    for non-realizable jump data; `decomposition` is None exactly in that
    case and `realizable` is False.
    """

    degrees: tuple[int, ...]
    mult_list: tuple[int, ...]
    dim_h0: int
    genus_top: int
    method: str

    @property
    def realizable(self) -> bool:
        return all(m >= 0 for m in self.mult_list)

    @property
    def decomposition(self) -> Decomposition | None:
        if not self.realizable:
            return None
        return Decomposition.from_dict(
            {j + 1: m for j, m in enumerate(self.mult_list)})


def _require_large_degree(d: InvariantDivisor, t: CoverTower) -> int:
    g_x = t.genus(0)
    deg = divisor_degree(level_zero_divisor(d, t), t)
    if deg <= 2 * g_x - 2:
        raise DegreeTooSmall(
            f"deg D = {deg} <= 2g_X - 2 = {2 * g_x - 2}")
    return g_x


def level_degrees(d: InvariantDivisor, t: CoverTower, j: int) -> int:
    """Degree on Y of the iterated twisted pushforward attached to index j:
    the level-n cover uses digit alpha_{v-n}(j), most significant digit
    innermost."""
    g = t.group
    alphas = digits(j, g)
    cur = level_zero_divisor(d, t)
    for n in range(1, g.v + 1):
        cur = pushforward_alpha(cur, t, alphas[g.v - n])
    return divisor_degree(cur, t)


def degree_table(d: InvariantDivisor, t: CoverTower) -> list[int]:
    """[level_degrees(d, t, j) for j = 1..p^v], built breadth-first.

    The level-n divisor of index j depends only on the top n base-p digits
    of j - 1.  Level n holds one divisor per such prefix, in index order
    prefix * p + alpha, so the table costs sum_n p^n pushforward steps.
    """
    p = t.group.p
    level = [level_zero_divisor(d, t)]
    for _ in range(t.group.v):
        level = [pushforward_alpha(cur, t, alpha)
                 for cur in level for alpha in range(p)]
    return [divisor_degree(cur, t) for cur in level]


def _report(degrees: list[int], mult: list[int], t: CoverTower,
            method: str) -> DecompositionReport:
    dim = sum((j + 1) * m for j, m in enumerate(mult))
    return DecompositionReport(tuple(degrees), tuple(mult), dim,
                               t.genus(0), method)


def euler_from_degrees(degrees: Sequence[int], t: CoverTower) -> K0Vector:
    """Simple-basis vector of running sums sum_{i<=j} (deg_i + 1 - g_Y)."""
    coords = []
    acc = 0
    for deg in degrees:
        acc += deg + 1 - t.base_genus
        coords.append(acc)
    return K0Vector("simple", tuple(coords))


def decompose_closed_form(d: InvariantDivisor, t: CoverTower) -> DecompositionReport:
    """m_j = deg_j - deg_{j+1} for j < p^v; m_{p^v} = 1 - g_Y + deg_{p^v}."""
    _require_large_degree(d, t)
    degs = degree_table(d, t)
    n = t.group.order
    mult = [degs[j] - degs[j + 1] for j in range(n - 1)]
    mult.append(1 - t.base_genus + degs[n - 1])
    return _report(degs, mult, t, METHOD_CLOSED)


def decompose_second_difference(d: InvariantDivisor, t: CoverTower) -> DecompositionReport:
    """Same multiplicities via second differences of the partial sums
    a_j = j(1 - g_Y) + sum_{i<=j} deg_i."""
    _require_large_degree(d, t)
    degs = degree_table(d, t)
    n = t.group.order
    a = (0,) + euler_from_degrees(degs, t).coords
    if n == 1:
        mult = [a[1]]
    else:
        mult = [2 * a[1] - a[2]]
        mult += [-a[j - 1] + 2 * a[j] - a[j + 1] for j in range(2, n)]
        mult.append(a[n] - a[n - 1])
    return _report(degs, mult, t, METHOD_SECOND_DIFF)


def graded_piece_divisor(d: InvariantDivisor, t: CoverTower, j: int, *,
                         memo: dict | None = None) -> LevelDivisor:
    """Divisor on Y of the j-th graded piece, by recursive descent: split
    j = (l-1)p + j', handle V_l on the subtower down to level v - 1, then
    apply the degree-p break-correction step with exponent j' - 1.

    `memo` maps (level, index) to the divisors already descended through;
    pass one dict to every call for the same (d, t) to share them.
    """
    g = t.group
    if memo is None:
        memo = {}

    def rec(n: int, idx: int) -> LevelDivisor:
        hit = memo.get((n, idx))
        if hit is None:
            if n == 0:
                hit = level_zero_divisor(d, t)
            else:
                l, jp = divmod(idx - 1, g.p)
                hit = pushforward_alpha(rec(n - 1, l + 1), t, jp)
            memo[n, idx] = hit
        return hit

    return rec(g.v, j)


def decompose_recursive(d: InvariantDivisor, t: CoverTower) -> DecompositionReport:
    """Multiplicities via the recursive graded-piece divisors and the
    inverse Cartan matrix."""
    _require_large_degree(d, t)
    g = t.group
    memo: dict = {}
    degs = [divisor_degree(graded_piece_divisor(d, t, j, memo=memo), t)
            for j in range(1, g.order + 1)]
    std = from_simple_basis(euler_from_degrees(degs, t), g)
    return _report(degs, list(std.coords), t, METHOD_RECURSIVE)


def euler_characteristic(d: InvariantDivisor, t: CoverTower) -> K0Vector:
    """Euler characteristic of the section sheaf in the simple basis:
    coordinate j is sum_{i<=j} (deg_i + 1 - g_Y).  Defined for any degree;
    below the vanishing threshold it is a genuine Euler characteristic,
    not an H^0 dimension."""
    return euler_from_degrees(degree_table(d, t), t)


def decompose_simple_basis(d: InvariantDivisor, t: CoverTower) -> DecompositionReport:
    """Multiplicities read off the Euler-characteristic vector through the
    inverse Cartan matrix."""
    _require_large_degree(d, t)
    degs = degree_table(d, t)
    std = from_simple_basis(euler_from_degrees(degs, t), t.group)
    return _report(degs, list(std.coords), t, METHOD_SIMPLE_BASIS)


ALL_METHODS = {
    METHOD_CLOSED: decompose_closed_form,
    METHOD_SECOND_DIFF: decompose_second_difference,
    METHOD_RECURSIVE: decompose_recursive,
    METHOD_SIMPLE_BASIS: decompose_simple_basis,
}

# The engine first, then the one route that builds its own pushforward
# chain: the pair `galmod decompose --method all` and `check_case` compare.
PRODUCTION_METHODS = (METHOD_CLOSED, METHOD_RECURSIVE)


def decompose_pullback(deg_m: int, t: CoverTower) -> DecompositionReport:
    """Decomposition of H^0(X, pi^* M) for an invertible sheaf M of degree
    deg_m on the base."""
    d = InvariantDivisor(base_degree=deg_m)
    return decompose_closed_form(d, t)


def ramification_subgroup_exponent(t: CoverTower) -> int:
    """Exponent of the subgroup generated by all point stabilizers: the
    maximal orbit depth, 0 for a free tower."""
    return max((o.depth for o in t.orbits), default=0)


@dataclass(frozen=True)
class NoetherWitness:
    divisor: InvariantDivisor
    j: int
    m_j: int


@dataclass(frozen=True)
class NoetherReport:
    containment: bool
    all_projective: bool
    sampled: int
    witness: NoetherWitness | None
    witness_predicted: int | None


def _sample_divisors(t: CoverTower, seed: int) -> list[InvariantDivisor]:
    g = t.group
    g_x = t.genus(0)
    # the 10 smallest pullback degrees above the vanishing bound
    b0 = (2 * g_x - 2) // g.order + 1
    while b0 * g.order <= 2 * g_x - 2:
        b0 += 1
    divisors = [InvariantDivisor(base_degree=b) for b in range(b0, b0 + 10)]
    if t.orbits:
        rng = random.Random(seed)
        cmax = 3 * max(max(o.jumps) for o in t.orbits)
        for _ in range(10):
            coeffs = {o.id: rng.randint(0, cmax) for o in t.orbits}
            d = InvariantDivisor.from_dict(b0, coeffs)
            deg = divisor_degree(level_zero_divisor(d, t), t)
            if deg <= 2 * g_x - 2:
                d = InvariantDivisor.from_dict(
                    b0 + (2 * g_x - 2 - deg) // g.order + 1, coeffs)
            divisors.append(d)
    return divisors


def noether_check(t: CoverTower, w: int, seed: int = 0) -> NoetherReport:
    """Probe the equivalence between containment of the ramification
    subgroup in the order-p^w subgroup and relative projectivity of the
    sampled section spaces.

    When containment fails, a pullback divisor gives a witness index j
    with p^(v-w) not dividing j and m_j > 0.  When the ramification
    exponent is exactly w + 1, the witness multiplicity at
    j = p^(v-w-1) is -sum_P floor(-N_P / p), the sum running over the
    orbits ramified in the level-(w + 1) cover, counted on X_w.
    """
    g = t.group
    ram = ramification_subgroup_exponent(t)
    containment = ram <= w
    samples = _sample_divisors(t, seed)
    reports = [decompose_closed_form(d, t) for d in samples]
    all_projective = True
    for rep in reports:
        dec = rep.decomposition
        if dec is None or not is_relatively_projective(dec, g, w):
            all_projective = False
    predicted = None
    if not containment and ram == w + 1:
        p = g.p
        predicted = sum(
            -(-o.jumps[w] // p) * orbit_point_count(o, w, g)
            for o in t.orbits if o.depth >= w + 1)
    witness = None
    if not containment:
        step = g.p ** (g.v - w)
        rep = reports[0]
        for j in range(1, g.order + 1):
            if j % step != 0 and rep.mult_list[j - 1] > 0:
                witness = NoetherWitness(samples[0], j, rep.mult_list[j - 1])
                break
    return NoetherReport(containment, all_projective, len(samples),
                         witness, predicted)
