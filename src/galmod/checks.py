"""Seeded random corpus of strict-valid towers and the cross-method
invariant checks run over it.

All randomness flows from one explicit seed through `random.Random`; the
same seed always yields the same corpus and the same summary, so check
runs are byte-for-byte reproducible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .cover_tower import (
    CoverTower,
    InvariantDivisor,
    RamifiedOrbit,
    divisor_degree,
    kani_pushforward,
    level_zero_divisor,
    pushforward_alpha,
    validate_strict,
)
from .cyclic_rep import GroupSpec
from .decomposition import (
    ALL_METHODS,
    PRODUCTION_METHODS,
    decompose_pullback,
    graded_piece_divisor,
)
from .errors import GalmodError

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


def random_case(rng: random.Random) -> tuple[CoverTower, InvariantDivisor]:
    """One strict-valid (tower, divisor) pair with deg D > 2g_X - 2."""
    while True:
        p = rng.choice([2, 3, 5])
        v = rng.randint(0, 3)
        g = GroupSpec(p, v)
        n_orbits = rng.randint(0, 3) if v >= 1 else 0
        orbits = []
        for k in range(n_orbits):
            depth = rng.randint(1, v)
            jumps = random_jumps(rng, p, depth)
            if jumps is None:
                break
            orbits.append(RamifiedOrbit(f"P{k}", depth, jumps))
        if n_orbits and len(orbits) != n_orbits:
            continue
        base_genus = rng.randint(0, 2)
        tower = CoverTower(g, base_genus, tuple(orbits))
        try:
            g_x = tower.genus(0)
        except GalmodError:
            continue
        if not validate_strict(tower).ok:
            continue
        coeffs = {o.id: rng.randint(-MAX_COEFF, MAX_COEFF) for o in orbits}
        base_degree = rng.randint(-5, 10)
        d = InvariantDivisor.from_dict(base_degree, coeffs)
        deg = divisor_degree(level_zero_divisor(d, tower), tower)
        if deg <= 2 * g_x - 2:
            bump = (2 * g_x - 2 - deg) // g.order + 1
            d = InvariantDivisor.from_dict(base_degree + bump, coeffs)
        return tower, d


def generate_corpus(seed: int, cases: int) -> list[tuple[CoverTower, InvariantDivisor]]:
    rng = random.Random(seed)
    return [random_case(rng) for _ in range(cases)]


def check_case(case: tuple[CoverTower, InvariantDivisor]) -> list[str]:
    """All cross-method and structural invariants on one (tower, divisor)
    pair; returns the list of violated invariants (empty = pass)."""
    tower, d = case
    g = tower.group
    failures = []

    reports = {name: ALL_METHODS[name](d, tower)
               for name in PRODUCTION_METHODS}
    base = reports[PRODUCTION_METHODS[0]]

    for name, rep in reports.items():
        if rep.mult_list != base.mult_list:
            failures.append(
                f"method {name} disagrees: {rep.mult_list} vs {base.mult_list}")

    g_x = tower.genus(0)
    deg = divisor_degree(level_zero_divisor(d, tower), tower)
    if base.dim_h0 != deg + 1 - g_x:
        failures.append(
            f"dimension identity: {base.dim_h0} != {deg} + 1 - {g_x}")

    if any(m < 0 for m in base.mult_list):
        failures.append(f"negative multiplicity on strict-valid data: "
                        f"{base.mult_list}")
    if any(base.degrees[j] < base.degrees[j + 1]
           for j in range(g.order - 1)):
        failures.append(f"degrees not non-increasing: {base.degrees}")

    kani = kani_pushforward(d, tower)
    composite = level_zero_divisor(d, tower)
    for _ in range(g.v):
        composite = pushforward_alpha(composite, tower, 0)
    if kani != composite:
        failures.append("kani pushforward != alpha=0 composite")
    gr1 = graded_piece_divisor(d, tower, 1)
    if divisor_degree(kani, tower) != divisor_degree(gr1, tower):
        failures.append("kani degree != j=1 graded-piece degree")

    # pullback stability against the regular representation
    b = max(0, (2 * g_x - 2) // g.order + 1)
    lo = decompose_pullback(b, tower)
    hi = decompose_pullback(b + 2, tower)
    diff = [h - l for h, l in zip(hi.mult_list, lo.mult_list)]
    expected = [0] * (g.order - 1) + [2]
    if diff != expected:
        failures.append(f"pullback stability: difference {diff}")

    if not tower.orbits:
        expected_mult = [0] * (g.order - 1) + [1 - tower.base_genus + d.base_degree]
        if list(base.mult_list) != expected_mult:
            failures.append(
                f"free tower not a multiple of the regular module: "
                f"{base.mult_list}")

    return failures


@dataclass(frozen=True)
class SuiteResult:
    cases: int
    failures: tuple[tuple[int, tuple[str, ...]], ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def run_suite(seed: int, cases: int) -> SuiteResult:
    results = [check_case(c) for c in generate_corpus(seed, cases)]
    failures = tuple((i, tuple(f)) for i, f in enumerate(results) if f)
    return SuiteResult(cases, failures)
