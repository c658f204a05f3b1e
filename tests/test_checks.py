"""`check_case` catches every mutant in the catalogue and does no work
beyond its five checks."""

import pytest

from galmod.checks import check_case, generate_corpus
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
