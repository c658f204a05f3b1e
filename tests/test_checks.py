"""`check_case` catches every mutant in the catalogue and does no work
beyond its five checks; the corpus it runs over shares its parts."""

from itertools import product

import pytest

from galmod import checks
from galmod.checks import MAX_COEFF, MAX_JUMP, check_case, generate_corpus, iter_corpus
from galmod.cover_tower import CoverTower, RamifiedOrbit, validate_strict
from galmod.cyclic_rep import GroupSpec
from galmod.errors import GalmodError
from mutants import MUTANTS, apply_mutant, count_calls


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus(1, 1000)


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
def test_check_case_catches_every_mutant(corpus, monkeypatch, mutant):
    apply_mutant(monkeypatch, mutant)
    assert reports_a_failure(corpus), mutant


def test_check_case_work_per_case(monkeypatch):
    corpus = generate_corpus(1, 200)
    calls = count_calls(monkeypatch, ("decompose_pullback", "kani_pushforward",
                                      "decompose_closed_form"))
    for case in corpus:
        assert check_case(case) == []
    assert calls == {"decompose_pullback": 0, "kani_pushforward": 0,
                     "decompose_closed_form": len(corpus)}


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
                       for msg in validate_strict(tower).violations):
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
