"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line.  Run with `pytest -s tests/test_acceptance.py` to see the
per-criterion lines."""

import hashlib
import random
import subprocess
import sys
import time

import pytest

from galmod.as_oracle import ASCurve, jordan_type, to_tower
from galmod.checks import fixed_point_failures, generate_corpus
from galmod.cover_tower import (
    CoverTower,
    InvariantDivisor,
    RamifiedOrbit,
    divisor_degree,
    kani_pushforward,
    level_zero_divisor,
    pushforward_alpha,
    validate_strict,
)
from galmod.cyclic_rep import (
    Decomposition,
    GroupSpec,
    cartan_inverse,
    is_relatively_projective,
)
from galmod.decomposition import (
    ALL_METHODS,
    decompose_closed_form,
    decompose_pullback,
    decompose_second_difference,
    decompose_simple_basis,
    graded_piece_divisor,
    lift_above_vanishing,
    noether_check,
)
from reference import cartan_matrix, dim_h0

CORPUS_SEED = 1
CORPUS_SIZE = 1000

# sha256 of the stdout of `galmod check --seed 1 --cases 1000`, whose
# summary line digests every case's input document and ClosedForm
# multiplicities: a change that moves the corpus or any answer moves it.
CHECK_SHA256 = "7bd14f03e75239c6d9c0a23f11f812dcf6a18933ce191397f41acb71d2567e3c"


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus(CORPUS_SEED, CORPUS_SIZE)


def report(name, start):
    print(f"\nACCEPTANCE {name}: PASS ({time.perf_counter() - start:.2f}s)")


def test_oracle_equivalence():
    start = time.perf_counter()
    checked = 0
    for p in (2, 3, 5):
        for m in range(1, 10):
            if m % p == 0:
                continue
            curve = ASCurve(p, m)
            tower, divisor = to_tower(curve)
            for n in range(max(0, 2 * curve.genus - 1), 41):
                engine = decompose_closed_form(divisor(n), tower).decomposition
                assert engine == jordan_type(curve, n), (p, m, n)
                checked += 1
    assert checked == 605
    # hand-verified fixtures
    assert jordan_type(ASCurve(2, 3), 4) == Decomposition.from_dict({1: 2, 2: 1})
    assert jordan_type(ASCurve(3, 2), 5) == Decomposition.from_dict({2: 1, 3: 1})
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"oracle sweep took {elapsed:.1f}s"
    report(f"oracle equivalence ({checked} cases)", start)


def test_dimension_identity(corpus):
    start = time.perf_counter()
    for tower, d in corpus:
        rep = decompose_closed_form(d, tower)
        deg = divisor_degree(level_zero_divisor(d, tower), tower)
        assert dim_h0(rep.mult_list) == deg + 1 - tower.genus(0), (tower, d)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(f"dimension identity ({len(corpus)} cases)", start)


def test_fixed_point_identities(corpus):
    start = time.perf_counter()
    levels = 0
    for tower, d in corpus:
        rep = decompose_closed_form(d, tower)
        assert fixed_point_failures(d, tower, rep.mult_list) == ([], 0), \
            (tower, d)
        levels += tower.group.v + 1
    report(f"fixed-point identities ({levels} levels, none skipped)", start)


def test_fixed_point_levels_below_riemann_roch_are_skipped():
    # free Z/2^2 tower over genus 2, base degree 2 = 2g_Y - 2: every level
    # has deg = 2g_k - 2, so no level is compared, whatever the input
    tower = CoverTower(GroupSpec(2, 2), 2)
    d = InvariantDivisor(base_degree=2)
    assert [tower.genus(k) for k in range(3)] == [5, 3, 2]
    assert fixed_point_failures(d, tower, [0, 0, 0, 99]) == ([], 3)
    assert fixed_point_failures(InvariantDivisor(base_degree=3), tower,
                                [0, 0, 0, 99])[1] == 0


def test_fixed_point_failures_reads_an_omitted_orbit_as_zero():
    tower = CoverTower(GroupSpec(2, 2), 0, (RamifiedOrbit("P", 2, (3, 1)),
                                            RamifiedOrbit("Q", 1, (1,))))
    mult = decompose_closed_form(
        InvariantDivisor.from_dict(1, {"P": 5, "Q": 0}), tower).mult_list
    assert fixed_point_failures(InvariantDivisor.from_dict(1, {"P": 5}),
                                tower, mult) == ([], 0)
    # a coefficient of 1 on Q adds its two points at level 0
    assert fixed_point_failures(InvariantDivisor.from_dict(1, {"P": 5, "Q": 1}),
                                tower, mult) == (
        ["fixed points of the order-p^0 subgroup: 7 != 11 + 1 - 3"], 0)


def test_method_agreement(corpus):
    start = time.perf_counter()
    for tower, d in corpus:
        reports = {name: fn(d, tower) for name, fn in ALL_METHODS.items()}
        reports["SecondDifference"] = decompose_second_difference(d, tower)
        reports["SimpleBasis"] = decompose_simple_basis(d, tower)
        base = reports["ClosedForm"].mult_list
        for name, rep in reports.items():
            assert rep.mult_list == base, (name, tower, d)
    report(f"method agreement ({len(corpus)} cases)", start)


def test_nonnegativity_and_monotonicity(corpus):
    start = time.perf_counter()
    for tower, d in corpus:
        assert validate_strict(tower) == ()
        rep = decompose_closed_form(d, tower)
        assert all(m >= 0 for m in rep.mult_list), (tower, d, rep.mult_list)
        assert all(rep.degrees[j] >= rep.degrees[j + 1]
                   for j in range(len(rep.degrees) - 1)), (tower, d)
    report("nonnegativity & monotonicity", start)


def test_cartan_duality():
    start = time.perf_counter()
    for p, v in [(2, 1), (3, 1), (2, 2), (5, 1), (2, 3), (3, 2), (2, 4),
                 (5, 2), (3, 3), (2, 5), (3, 4), (5, 3)]:
        g = GroupSpec(p, v)
        n = g.order
        a, b = cartan_matrix(g), cartan_inverse(g)
        prod = [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)]
                for i in range(n)]
        assert prod == [[int(i == j) for j in range(n)] for i in range(n)], n
    report("cartan duality (orders 2..125)", start)


def _min_pullback_degree(tower):
    return (2 * tower.genus(0) - 2) // tower.group.order + 1


def test_pullback_theorem(corpus):
    start = time.perf_counter()
    seen = set()
    for tower, _ in corpus:
        key = (tower.group, tower.base_genus, tower.orbits)
        if key in seen:
            continue
        seen.add(key)
        b = _min_pullback_degree(tower)
        base = decompose_pullback(b, tower)
        for bp in range(b + 1, b + 4):
            hi = decompose_pullback(bp, tower)
            diff = [h - l for h, l in zip(hi.mult_list, base.mult_list)]
            expected = [0] * (tower.group.order - 1) + [bp - b]
            assert diff == expected, (tower, b, bp)
    report(f"pullback theorem ({len(seen)} towers)", start)


def test_symmetry_principle(corpus):
    start = time.perf_counter()
    free = [(t, d) for t, d in corpus if not t.orbits]
    assert free, "corpus contains no free towers"
    for tower, d in free:
        rep = decompose_closed_form(d, tower)
        n = tower.group.order
        mult = 1 - tower.base_genus + d.base_degree
        assert list(rep.mult_list) == [0] * (n - 1) + [mult], (tower, d)
    report(f"symmetry principle ({len(free)} free towers)", start)


def _strict_valid_single_orbit_towers():
    for p in (2, 3):
        for v in (1, 2):
            g = GroupSpec(p, v)
            for depth in range(1, v + 1):
                if depth == 1:
                    seqs = [(n,) for n in range(1, 10)]
                else:
                    seqs = [(n1, n2) for n1 in range(1, 10)
                            for n2 in range(1, 10)]
                for jumps in seqs:
                    tower = CoverTower(g, 0, (RamifiedOrbit("P", depth, jumps),))
                    if validate_strict(tower):
                        continue
                    yield tower


def test_noether_equivalence():
    start = time.perf_counter()
    towers = 0
    for tower in _strict_valid_single_orbit_towers():
        towers += 1
        g = tower.group
        ram = tower.orbits[0].depth
        b = _min_pullback_degree(tower)
        for w in range(g.v + 1):
            containment = ram <= w
            step = g.p ** (g.v - w)
            all_proj = True
            for bp in range(b, b + 11):
                dec = decompose_pullback(bp, tower).decomposition
                assert dec is not None, (tower, bp)
                if not is_relatively_projective(dec, g, w):
                    all_proj = False
            assert containment == all_proj, (tower, w)
            if not containment:
                rep = noether_check(tower, w)
                assert rep.witness is not None, (tower, w)
                assert rep.witness.m_j > 0
                assert rep.witness.j % step != 0
                if ram == w + 1:
                    predicted = rep.witness_predicted
                    assert predicted is not None and predicted > 0
                    witness_index = g.p ** (g.v - w - 1)
                    dec = decompose_pullback(b, tower)
                    assert dec.mult_list[witness_index - 1] == predicted, \
                        (tower, w)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(f"noether equivalence ({towers} towers)", start)


def _weakly_ramified_towers(rng):
    """Strict-valid towers whose every orbit has depth 1 and break 1."""
    while True:
        orbits = tuple(RamifiedOrbit(f"P{k}", 1, (1,))
                       for k in range(rng.randint(1, 3)))
        tower = CoverTower(GroupSpec(rng.choice([2, 3, 5]), rng.randint(1, 3)),
                           rng.randint(0, 2), orbits)
        if not validate_strict(tower):
            yield tower


def test_weakly_ramified_is_free():
    # Koeck (Amer. J. Math. 126, 2004): on a weakly ramified cover, a
    # divisor whose coefficients are all -1 mod p has projective, here
    # free, H^0.  The same towers with coefficients 0 mod p are the
    # control: there no route may give a free module.
    start = time.perf_counter()
    rng = random.Random(4)
    towers = _weakly_ramified_towers(rng)
    drawn = set()
    for _ in range(500):
        tower = next(towers)
        p = tower.group.p
        drawn.add((p, tower.group.v))
        base = rng.randint(-5, 10)
        ks = {o.id: rng.randint(-10, 10) for o in tower.orbits}
        for residue, free in ((-1, True), (0, False)):
            d = lift_above_vanishing(InvariantDivisor.from_dict(
                base, {oid: p * k + residue for oid, k in ks.items()}), tower)
            for name, route in ALL_METHODS.items():
                mult = route(d, tower).mult_list
                assert (not any(mult[:-1])) == free, (name, tower, d, mult)
    assert len(drawn) == 9
    report("weakly ramified is free (500 towers)", start)


def test_kani_consistency(corpus):
    start = time.perf_counter()
    for tower, d in corpus:
        kani = kani_pushforward(d, tower)
        cur = level_zero_divisor(d, tower)
        for _ in range(tower.group.v):
            cur = pushforward_alpha(cur, tower, 0)
        assert cur == kani, (tower, d)
        gr1 = graded_piece_divisor(d, tower, 1)
        assert divisor_degree(gr1, tower) == divisor_degree(kani, tower)
        assert decompose_closed_form(d, tower).degrees[0] == \
            divisor_degree(kani, tower)
    report("kani consistency", start)


def test_check_determinism():
    start = time.perf_counter()
    cmd = [sys.executable, "-m", "galmod.cli", "check",
           "--seed", "1", "--cases", "1000"]
    first = subprocess.run(cmd, capture_output=True)
    second = subprocess.run(cmd, capture_output=True)
    assert first.returncode == 0, first.stdout.decode()
    assert second.returncode == 0
    assert first.stdout == second.stdout
    assert first.stderr == second.stderr
    assert hashlib.sha256(first.stdout).hexdigest() == CHECK_SHA256
    report("determinism of `galmod check --seed 1 --cases 1000`", start)
