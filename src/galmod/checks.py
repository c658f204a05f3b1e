"""Seeded random corpus of strict-valid towers and the checks run over it.

`cross_check` is what `galmod decompose --method all` and `galmod check`
share: the production routes agree and satisfy the fixed-point
identities.  `check_case` adds the one consequence of realizability that
these do not imply: nonnegative multiplicities, since H^0 is an actual
k[G]-module.  A check belongs here only if it catches a mutant in
tests/mutants.py that the others miss, or tests a consequence of
realizability that the others do not imply; identities that hold by
construction of the code (pullback stability, the Kani pushforward) are
asserted in tests/test_acceptance.py instead.

All randomness flows from one explicit seed through `random.Random`; the
same seed always yields the same corpus and the same summary, so check
runs are byte-for-byte reproducible.
"""

from __future__ import annotations

import random
from collections.abc import Iterator, Sequence
from functools import cache
from itertools import accumulate

from .cover_tower import (
    CoverTower,
    InvariantDivisor,
    RamifiedOrbit,
    orbit_point_count,
    validate_strict,
)
from .cyclic_rep import GroupSpec
from .decomposition import (
    ALL_METHODS,
    DecompositionReport,
    lift_above_vanishing,
)

MAX_JUMP = 25
MAX_COEFF = 60


def random_jumps(rng: random.Random, p: int, depth: int) -> tuple[int, ...] | None:
    """A random realizable break sequence: draw upper breaks obeying the
    wild-tower growth law, convert to lower breaks, reject if too big."""
    u = rng.choice([x for x in range(1, 10) if x % p != 0])
    lower = [u]
    for i in range(1, depth):
        if rng.random() < 0.5:
            nxt = p * u
        else:
            nxt = p * u + rng.randint(1, 4)
            if nxt % p == 0:
                nxt += 1
        lower.append(lower[-1] + p ** i * (nxt - u))
        u = nxt
    if lower[-1] > MAX_JUMP:
        return None
    return tuple(reversed(lower))


# The parts a corpus case is built from, each built once and shared by
# every case that draws it.  Their keys range over the generator's finite
# choices, so no table grows with the number of cases.
_group = cache(GroupSpec)


@cache
def _free_tower(p: int, v: int, base_genus: int) -> CoverTower:
    return CoverTower(_group(p, v), base_genus)


@cache
def _free_case(t: CoverTower, base_degree: int) -> tuple[CoverTower, InvariantDivisor]:
    return t, InvariantDivisor(base_degree)


@cache
def _orbit(k: int, jumps: tuple[int, ...]) -> RamifiedOrbit:
    return RamifiedOrbit(f"P{k}", len(jumps), jumps)


@cache
def _coeff(oid: str, c: int) -> tuple[str, int]:
    return oid, c


def random_case(rng: random.Random) -> tuple[CoverTower, InvariantDivisor]:
    """One strict-valid (tower, divisor) pair with deg D > 2g_X - 2."""
    while True:
        p = rng.choice([2, 3, 5])
        v = rng.randint(0, 3)
        n_orbits = rng.randint(0, 3) if v >= 1 else 0
        orbits = []
        for k in range(n_orbits):
            depth = rng.randint(1, v)
            jumps = random_jumps(rng, p, depth)
            if jumps is None:
                break
            orbits.append(_orbit(k, jumps))
        if n_orbits and len(orbits) != n_orbits:
            continue
        base_genus = rng.randint(0, 2)
        tower = (CoverTower(_group(p, v), base_genus, tuple(orbits)) if orbits
                 else _free_tower(p, v, base_genus))
        if validate_strict(tower):
            continue
        # the ids P0, P1, ... are in sorted order, which the divisor keeps
        coeffs = tuple([_coeff(o.id, rng.randint(-MAX_COEFF, MAX_COEFF))
                        for o in orbits])
        d = lift_above_vanishing(InvariantDivisor(rng.randint(-5, 10), coeffs),
                                 tower)
        return (tower, d) if orbits else _free_case(tower, d.base_degree)


def iter_corpus(seed: int, cases: int) -> Iterator[tuple[CoverTower, InvariantDivisor]]:
    """The cases of `generate_corpus`, one at a time."""
    rng = random.Random(seed)
    for _ in range(cases):
        yield random_case(rng)


def generate_corpus(seed: int, cases: int) -> list[tuple[CoverTower, InvariantDivisor]]:
    return list(iter_corpus(seed, cases))


def fixed_point_failures(d: InvariantDivisor, t: CoverTower,
                         mult: Sequence[int]) -> tuple[list[str], int]:
    """The fixed points of every subgroup, counted two ways; returns the
    violated levels and the number of levels skipped.

    The subgroup H_k of order p^k is generated by tau = sigma^(p^(v-k)),
    and tau - 1 = (sigma - 1)^(p^(v-k)) in characteristic p, so V_j has
    min(j, p^(v-k)) dimensions of H_k-invariants.  On the curve side the
    invariants are H^0(X_k, floor(pi_k* D / p^k)): an orbit of depth m
    has ramification index p^min(m, k) over X_k, so its coefficient is
    floored by that.  Riemann-Roch gives their dimension, deg + 1 - g_k,
    with every g_k from one `genera` pass, only when deg > 2g_k - 2; a
    level where that fails is skipped.  When deg D > 2g_X - 2, as the
    engine requires, no level is: the floors lose at most
    sum_P (e_P - 1), and the different has at least that degree.
    Neither side reads the pushforward chain.  Level 0 is the dimension
    identity and level v the Kani identity.  The module side costs one
    suffix-sum pass over mult and, per level, one slice sum over p^(v-k)
    of its entries: at most 2 p^v entries in all.
    """
    g = t.group
    genera = t.genera()
    coeffs = dict(d.orbit_coeffs)
    # sum_j m_j min(j, q) = sum_{i <= q} #{blocks of size >= i}; those
    # counts are the suffix sums of mult, held largest i first, so the
    # last q of them add up to the H_k-invariants
    at_least = list(accumulate(reversed(mult)))
    failures = []
    skipped = 0
    for k in range(g.v + 1):
        q = g.p ** (g.v - k)
        deg = d.base_degree * q + sum(
            coeffs.get(o.id, 0) // g.p ** min(o.depth, k)
            * orbit_point_count(o, k, g) for o in t.orbits)
        g_k = genera[k]
        if deg <= 2 * g_k - 2:
            skipped += 1
        elif (fixed := sum(at_least[-q:])) != deg + 1 - g_k:
            failures.append(f"fixed points of the order-p^{k} subgroup: "
                            f"{fixed} != {deg} + 1 - {g_k}")
    return failures, skipped


def cross_check(d: InvariantDivisor, t: CoverTower,
                methods: Sequence[str] = tuple(ALL_METHODS),
                identities: bool = True
                ) -> tuple[dict[str, DecompositionReport], list[str]]:
    """Run the routes named in `methods`, looked up in `ALL_METHODS` at each
    call; returns their reports by name, in `methods` order, and the
    problems: each route whose multiplicities or degrees differ from the
    first's, then the `fixed_point_failures` of each distinct multiplicity
    list, naming the routes that produced it, so that a divergence says
    which route is wrong.  `identities` is true when more than one route
    runs on a realizable tower: the identities need not hold on break data
    that no tower has."""
    reports = {name: ALL_METHODS[name](d, t) for name in methods}
    first_name, first = next(iter(reports.items()))
    problems = [f"method divergence: {name} produced {list(rep.mult_list)}, "
                f"{first_name} produced {list(first.mult_list)}"
                for name, rep in reports.items()
                if rep.mult_list != first.mult_list
                or rep.degrees != first.degrees]
    if identities:
        routes: dict[tuple[int, ...], list[str]] = {}
        for name, rep in reports.items():
            routes.setdefault(rep.mult_list, []).append(name)
        problems += [f"{msg} ({', '.join(names)})"
                     for mult, names in routes.items()
                     for msg in fixed_point_failures(d, t, mult)[0]]
    return reports, problems


def check_case(case: tuple[CoverTower, InvariantDivisor]) -> list[str]:
    """`cross_check` and nonnegativity on one (tower, divisor) pair;
    returns the violated ones (empty = pass).  The engine's degrees need
    no check of their own: it takes m_j = deg_j - deg_(j+1) for j < p^v,
    so they are non-increasing exactly when those m_j are nonnegative.
    Nor does a free tower: with c = b + 1 - g_Y, the fixed-point
    identities at levels 0 and v, which deg D > 2g_X - 2 never skips
    there, give sum_j j m_j = p^v c and sum_j m_j = c, and with m_j >= 0
    these force the multiple c of the regular module V_(p^v)."""
    tower, d = case
    reports, failures = cross_check(d, tower)
    base = next(iter(reports.values()))
    if not base.realizable:
        failures.append(f"negative multiplicity on strict-valid data: "
                        f"{base.mult_list}")
    return failures
