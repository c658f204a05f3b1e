"""Krull-Schmidt decomposition of H^0(X, L(D)) for a cyclic p-group action.

The engine reads the multiplicities m_j off one degree table: deg_j is the
degree of the j-th iterated twisted pushforward of D, with twist exponents
the base-p digits of j - 1, and m_j is a first difference of the degrees
(`decompose_closed_form`).  `degree_table` evaluates the collapsed floors
of that chain as one digit sum per orbit and takes no pushforward: it
costs O(#orbits * p^D) arithmetic, D the largest orbit depth, plus the
O(p^v) expansion of the dense table.  Like every pass over p^v entries
here and in `pushforward_columns`, it runs in builtins (`map`, slices),
so the interpreter takes O(#orbits * p * v) steps per decomposition.
`level_degrees` walks the chain for one index, the tests' reference.

One independent cross-check runs beside it in production, and the route
table `ALL_METHODS` holds just these two, engine first.  The recursive
route walks the pushforward chain level by level, by orbit columns: at
level n one list per orbit holds its coefficient in the divisors of all
p^n digit prefixes of j - 1, in index order, and one call of
`pushforward_columns` per level takes each floor as the chain does.
That is O(#orbits * p^v) arithmetic and no per-index divisor.  The
level-v degrees give an Euler-characteristic vector, converted with the
inverse Cartan matrix.  It is the only production route that walks the
chain, and it never collapses the floors into the engine's digit sum,
so its agreement with the engine sets the chain, the Cartan solve and
the digit-sum formula against one another.

Two reference formulas stay for the tests and are not in the route
table: second differences of the partial sums of the degrees, and the
Euler-characteristic vector of the table through the inverse Cartan
matrix.  Both read the engine's table, so their agreement with it checks
algebraic identities only.

Every route requires deg D > 2g_X - 2, which forces H^1 to vanish so that
Euler characteristics compute actual section spaces.
"""

from __future__ import annotations

import random
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import accumulate, chain, count, islice, repeat
from operator import add, floordiv, mul, sub

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
    column_degrees,
    divisor_degree,
    level_zero_divisor,
    orbit_point_count,
    pushforward_alpha,
    pushforward_columns,
)
from .errors import DegreeTooSmall

METHOD_CLOSED = "ClosedForm"
METHOD_RECURSIVE = "Recursive"


@dataclass(frozen=True)
class DecompositionReport:
    """Result of one decomposition run.

    `mult_list` is dense (index 1..p^v) and may contain negative entries
    for non-realizable jump data; `decomposition` is None exactly in that
    case and `realizable` is False.
    """

    degrees: tuple[int, ...]
    mult_list: tuple[int, ...]

    @property
    def dim_h0(self) -> int:
        return sum(map(mul, self.mult_list, count(1)))

    @property
    def realizable(self) -> bool:
        return min(self.mult_list) >= 0

    @property
    def decomposition(self) -> Decomposition | None:
        if not self.realizable:
            return None
        return Decomposition.from_dict(
            {j + 1: m for j, m in enumerate(self.mult_list)})


def _require_large_degree(d: InvariantDivisor, t: CoverTower) -> None:
    g_x = t.genus(0)
    deg = divisor_degree(level_zero_divisor(d, t), t)
    if deg <= 2 * g_x - 2:
        raise DegreeTooSmall(
            f"deg D = {deg} <= 2g_X - 2 = {2 * g_x - 2}")


def lift_above_vanishing(d: InvariantDivisor, t: CoverTower) -> InvariantDivisor:
    """d with its base degree raised by the least amount that puts
    deg D above 2g_X - 2; d itself when it is above already."""
    g_x = t.genus(0)
    deg = divisor_degree(level_zero_divisor(d, t), t)
    if deg > 2 * g_x - 2:
        return d
    bump = (2 * g_x - 2 - deg) // t.group.order + 1
    return InvariantDivisor(d.base_degree + bump, d.orbit_coeffs)


def level_degrees(d: InvariantDivisor, t: CoverTower, j: int) -> int:
    """Degree on Y of the iterated twisted pushforward attached to index j."""
    return divisor_degree(graded_piece_divisor(d, t, j), t)


def degree_table(d: InvariantDivisor, t: CoverTower) -> list[int]:
    """[level_degrees(d, t, j) for j = 1..p^v] by the digit-sum formula,
    without taking a pushforward.

    Iterated floors collapse, floor((floor(x/p) - a)/p) = floor((x - pa)/p^2),
    so an orbit of depth m, breaks N_1..N_m and coefficient c ends the chain
    of index j with coefficient floor((c - sum_n p^(n-1) alpha_n N_n) / p^m),
    alpha_n being the n-th most significant base-p digit of j - 1.  deg_j is
    b plus the sum over orbits, so it depends only on the top D digits,
    D the largest orbit depth.  The p^D prefix degrees cost O(#orbits *
    p^D), run in builtins; the dense table repeats each one p^(v-D) times.
    """
    p = t.group.p
    depth = ramification_subgroup_exponent(t)
    prefix = [d.base_degree] * p ** depth
    for o, c in zip(t.orbits, level_zero_divisor(d, t).coeffs):
        # one numerator per prefix of the orbit's m digits, in index
        # order: level n + 1 appends digit alpha as prefix * p + alpha
        num = [c]
        for n, jump in enumerate(o.jumps):
            nxt = [0] * (len(num) * p)
            for alpha in range(p):
                nxt[alpha::p] = map(sub, num, repeat(alpha * p ** n * jump))
            num = nxt
        q, reps = p ** o.depth, p ** (depth - o.depth)
        floors = map(floordiv, num, repeat(q))
        if reps > 1:
            floors = chain.from_iterable(map(repeat, floors, repeat(reps)))
        prefix = list(map(add, prefix, floors))
    reps = p ** (t.group.v - depth)
    if reps > 1:
        prefix = list(chain.from_iterable(map(repeat, prefix, repeat(reps))))
    return prefix


def euler_from_degrees(degrees: Sequence[int], t: CoverTower) -> K0Vector:
    """Simple-basis vector of running sums sum_{i<=j} (deg_i + 1 - g_Y)."""
    shift = 1 - t.base_genus
    return K0Vector("simple", tuple(accumulate(map(add, degrees, repeat(shift)))))


def decompose_closed_form(d: InvariantDivisor, t: CoverTower) -> DecompositionReport:
    """m_j = deg_j - deg_{j+1} for j < p^v; m_{p^v} = 1 - g_Y + deg_{p^v}."""
    _require_large_degree(d, t)
    degs = degree_table(d, t)
    mult = (*map(sub, degs, islice(degs, 1, None)), 1 - t.base_genus + degs[-1])
    return DecompositionReport(tuple(degs), mult)


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
    return DecompositionReport(tuple(degs), tuple(mult))


def graded_piece_divisor(d: InvariantDivisor, t: CoverTower, j: int) -> LevelDivisor:
    """Divisor on Y of the j-th graded piece: the level-n cover twists by
    the digit alpha_{v-n} of j - 1, most significant digit innermost."""
    g = t.group
    alphas = digits(j, g)
    cur = level_zero_divisor(d, t)
    for n in range(1, g.v + 1):
        cur = pushforward_alpha(cur, t, alphas[g.v - n])
    return cur


def decompose_recursive(d: InvariantDivisor, t: CoverTower) -> DecompositionReport:
    """Multiplicities via the graded-piece divisors, walked down the tower
    by orbit columns, and the inverse Cartan matrix.

    At level n each orbit's column lists its coefficient in the divisors
    of all p^n index prefixes, the child prefix * p + alpha twisted by
    alpha at the level-n cover (`pushforward_columns`, one call per
    level).  Every level takes its own floor, as the chain does, not the
    engine's collapsed digit sum.  At level v the columns hold the
    graded-piece divisors of V_1..V_{p^v} in index order, and deg_j is
    the base degree plus the j-th entry of each column.  The walk costs
    O(#orbits * p^v) arithmetic, in builtins, and O(#orbits * p * v)
    interpreter steps.
    """
    _require_large_degree(d, t)
    g = t.group
    columns = [[c] for c in level_zero_divisor(d, t).coeffs]
    for n in range(1, g.v + 1):
        columns = pushforward_columns(columns, t, n)
    degs = column_degrees(d.base_degree, columns, t)
    std = from_simple_basis(euler_from_degrees(degs, t), g)
    return DecompositionReport(tuple(degs), std.coords)


def euler_characteristic(d: InvariantDivisor, t: CoverTower) -> K0Vector:
    """Euler characteristic of the section sheaf in the simple basis:
    coordinate j is sum_{i<=j} (deg_i + 1 - g_Y) = chi(Y, K_j), K_j the
    kernel of (sigma - 1)^j on the pushforward of L(D) to Y.

    Defined for any degree.  Above the vanishing threshold H^1(X, D) = 0
    and it is the class of H^0(X, D).  Below it, it is not [H^0] - [H^1]
    in general: chi(Y, K_j) depends on H^1(Y, K_j), which the modules
    H^0(X, D) and H^1(X, D) do not determine.  The smallest case is
    y^2 - y = x (so X = P^1) with D = -2 P_inf: H^0 = 0 and H^1 = V_1,
    but the vector is V_1 - V_2 in the standard basis."""
    return euler_from_degrees(degree_table(d, t), t)


def decompose_simple_basis(d: InvariantDivisor, t: CoverTower) -> DecompositionReport:
    """Multiplicities read off the Euler-characteristic vector through the
    inverse Cartan matrix."""
    _require_large_degree(d, t)
    degs = degree_table(d, t)
    std = from_simple_basis(euler_from_degrees(degs, t), t.group)
    return DecompositionReport(tuple(degs), std.coords)


# The engine first, then the one route that builds its own pushforward
# chain: the pair that `checks.cross_check` compares by default.
ALL_METHODS = {
    METHOD_CLOSED: decompose_closed_form,
    METHOD_RECURSIVE: decompose_recursive,
}


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
    divisors = [InvariantDivisor(base_degree=b) for b in range(b0, b0 + 10)]
    if t.orbits:
        rng = random.Random(seed)
        cmax = 3 * max(max(o.jumps) for o in t.orbits)
        for _ in range(10):
            coeffs = {o.id: rng.randint(0, cmax) for o in t.orbits}
            divisors.append(
                lift_above_vanishing(InvariantDivisor.from_dict(b0, coeffs), t))
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
