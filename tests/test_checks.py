"""`check_case` catches every mutant in the catalogue and does no work
beyond its three checks, on the corpus of `galmod check` and on a sample
stratified by prime, height and orbit depth; the corpus shares its
parts."""

import random
from itertools import product

import pytest

from galmod import checks, cli
from galmod.checks import MAX_COEFF, MAX_JUMP, check_case, generate_corpus, iter_corpus
from galmod.cover_tower import CoverTower, InvariantDivisor, RamifiedOrbit, validate_strict
from galmod.cyclic_rep import GroupSpec
from galmod.decomposition import ALL_METHODS, METHOD_CLOSED, lift_above_vanishing
from galmod.errors import GalmodError
from mutants import MUTANTS, apply_mutant, count_calls, count_line_events, one_orbit_case
from reference import dim_h0

# (p, v, depth of the deepest orbit); `generate_corpus` caps its breaks at
# MAX_JUMP, so it never draws an orbit of depth 3 at p = 3 or 5
STRATA = [(p, v, depth) for p in (2, 3, 5) for v in (1, 2, 3)
          for depth in range(1, v + 1)]
CASES_PER_STRATUM = 40


def uncapped_jumps(rng, p, depth):
    """A strict-valid break sequence, innermost first, drawn by the
    upper-break growth law with no cap on its size: u_(i+1) is p u_i, or
    p u_i + k with p not dividing k."""
    u = [rng.choice([x for x in range(1, 10) if x % p])]
    for _ in range(depth - 1):
        step = rng.choice([k for k in range(1, 5) if k % p])
        u.append(p * u[-1] + (step if rng.random() < 0.5 else 0))
    lower = [u[0]]
    for i in range(1, depth):
        lower.append(lower[-1] + p ** i * (u[i] - u[i - 1]))
    return tuple(reversed(lower))


def stratified_case(rng, p, v, depth):
    """A strict-valid case of Z/p^v with one to three orbits, the deepest
    of the given depth, coefficients in -200..200 and deg D > 2g_X - 2."""
    while True:
        depths = [depth] + [rng.randint(1, depth) for _ in range(rng.randint(0, 2))]
        orbits = tuple(RamifiedOrbit(f"P{k}", m, uncapped_jumps(rng, p, m))
                       for k, m in enumerate(depths))
        tower = CoverTower(GroupSpec(p, v), rng.randint(0, 2), orbits)
        if not validate_strict(tower):
            d = InvariantDivisor.from_dict(
                rng.randint(-5, 10), {o.id: rng.randint(-200, 200) for o in orbits})
            return tower, lift_above_vanishing(d, tower)


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus(1, 1000)


@pytest.fixture(scope="module")
def stratified():
    rng = random.Random(5)
    return [stratified_case(rng, *stratum) for stratum in STRATA
            for _ in range(CASES_PER_STRATUM)]


def reports_a_failure(corpus):
    """Whether `check_case` reports a failure on some case; a case that
    raises is not a catch."""
    for case in corpus:
        try:
            if check_case(case):
                return True
        except GalmodError:
            pass
    return False


@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_check_case_catches_every_mutant(corpus, stratified, monkeypatch,
                                        mutant):
    apply_mutant(monkeypatch, mutant)
    assert reports_a_failure(corpus), mutant
    assert reports_a_failure(stratified), mutant


def test_check_case_passes_the_stratified_sample(stratified):
    assert len(stratified) == len(STRATA) * CASES_PER_STRATUM == 720
    assert {(t.group.p, t.group.v, max(o.depth for o in t.orbits))
            for t, _ in stratified} == set(STRATA)
    assert max(max(o.jumps) for t, _ in stratified for o in t.orbits) > MAX_JUMP
    assert [case for case in stratified if check_case(case)] == []


@pytest.mark.parametrize("methods", [tuple(ALL_METHODS), (METHOD_CLOSED,)])
def test_report_dim_h0_is_the_last_euler_coordinate(stratified, methods):
    # the Cartan matrix is min(i, j), so the last simple-basis coordinate
    # is sum_j j m_j, whether Recursive formed the vector or the report did
    for t, d in stratified:
        report = cli.build_report(t, d, {}, methods, True)
        mult = report["multiplicities"]
        assert (report["dim_h0"] == dim_h0(mult)
                == report["euler_simple_basis"][-1]), (t, d)


def test_check_case_work_per_case(monkeypatch):
    corpus = generate_corpus(1, 200)
    calls = count_calls(monkeypatch, ("decompose_pullback", "kani_pushforward",
                                      "decompose_closed_form", "genera"))
    for case in corpus:
        assert check_case(case) == []
    # one genus pass for each route's degree bound and one for the
    # fixed-point identities
    assert calls == {"decompose_pullback": 0, "kani_pushforward": 0,
                     "decompose_closed_form": len(corpus),
                     "genera": 3 * len(corpus)}


def test_check_case_interpreter_work_follows_v_not_order():
    # check_case loops over no p^v entries of its own, so the lines of
    # galmod it runs grow with the height v, not with 2^v
    def line_events(v):
        problems, events = count_line_events(check_case, one_orbit_case(v))
        assert problems == []
        return events

    # the bound sits between 1.7x, no per-entry loop, and 6.8x, a scan of
    # the degrees and multiplicities in Python
    assert line_events(10) < 2 * line_events(5)


def test_counting_a_missing_name_raises(monkeypatch):
    # a count of a name that no module holds would otherwise read 0
    with pytest.raises(LookupError, match="no_such_function"):
        count_calls(monkeypatch, ("no_such_function",))


def strict_break_sequences(p):
    """Break sequences of at most three levels, each break at most
    MAX_JUMP, that pass the strict realizability rules at p."""
    found = set()
    for depth in (1, 2, 3):
        for jumps in product(range(MAX_JUMP, 0, -1), repeat=depth):
            if list(jumps) != sorted(jumps, reverse=True):
                continue
            tower = CoverTower(GroupSpec(p, depth), 2,
                               (RamifiedOrbit("P", depth, jumps),))
            if not any(msg.startswith("orbit")
                       for msg in validate_strict(tower)):
                found.add(jumps)
    return found


def test_corpus_shares_its_parts():
    # a corpus holds its groups, orbit-free towers and coefficient pairs
    # once, so its memory does not grow by one of each per case
    corpus = generate_corpus(1, 3000)
    assert len({id(t.group) for t, _ in corpus}) <= 12
    free = [t for t, _ in corpus if not t.orbits]
    assert len({id(t) for t in free}) <= 3 * 4 * 3 < len(free)
    pairs = [pair for _, d in corpus for pair in d.orbit_coeffs]
    assert len({id(pair) for pair in pairs}) <= 3 * (2 * MAX_COEFF + 1) < len(pairs)
    # `galmod check` streams its cases, so no shared table may grow with
    # their number: at most one orbit per (orbit index, break sequence)
    for _ in iter_corpus(2, 20000):
        pass
    bound = 3 * sum(len(strict_break_sequences(p)) for p in (2, 3, 5))
    assert checks._orbit.cache_info().currsize <= bound
    assert checks._group.cache_info().currsize <= 12
    assert checks._free_tower.cache_info().currsize <= 36
    assert checks._coeff.cache_info().currsize <= 3 * (2 * MAX_COEFF + 1)
    # an orbit-free case keeps its drawn base degree in -5..10, or is lifted
    # to 2g - 1 <= 3
    assert checks._free_case.cache_info().currsize <= 36 * len(range(-5, 11))
