import pytest

from galmod.cover_tower import (
    CoverTower,
    InvariantDivisor,
    LevelDivisor,
    RamifiedOrbit,
    divisor_degree,
    kani_pushforward,
    level_zero_divisor,
    orbit_point_count,
    pushforward_alpha,
    pushforward_columns,
    validate_strict,
)
from galmod.cyclic_rep import GroupSpec
from galmod.errors import NegativeGenus, NonIntegralGenus, ValidationError


def z4_tower():
    return CoverTower(GroupSpec(2, 2), 0, (RamifiedOrbit("P", 2, (3, 1)),))


def one_orbit_tower(p, v, jumps, base_genus=0):
    return CoverTower(GroupSpec(p, v), base_genus,
                      (RamifiedOrbit("P", len(jumps), tuple(jumps)),))


def test_orbit_invariants():
    with pytest.raises(ValidationError):
        RamifiedOrbit("P", 2, (3,))
    with pytest.raises(ValidationError):
        RamifiedOrbit("P", 1, (0,))
    with pytest.raises(ValidationError):
        CoverTower(GroupSpec(2, 1), 0, (RamifiedOrbit("P", 2, (3, 1)),))
    with pytest.raises(ValidationError):
        CoverTower(GroupSpec(2, 2), 0,
                   (RamifiedOrbit("P", 1, (3,)), RamifiedOrbit("P", 1, (5,))))


def test_orbit_point_count():
    g = GroupSpec(2, 2)
    deep = RamifiedOrbit("P", 2, (3, 1))
    shallow = RamifiedOrbit("Q", 1, (3,))
    assert orbit_point_count(deep, 0, g) == 1
    assert orbit_point_count(shallow, 2, g) == 1
    assert orbit_point_count(shallow, 0, g) == 2
    assert orbit_point_count(shallow, 1, g) == 2


def test_genus_examples():
    t = one_orbit_tower(2, 1, [3])
    assert t.genus(0) == 1
    assert t.genera() == [1, 0]
    free = CoverTower(GroupSpec(3, 1), 2, ())
    assert free.genus(0) == 4
    assert free.genera() == [4, 2]
    t2 = z4_tower()
    assert [t2.genus(n) for n in (0, 1, 2)] == t2.genera() == [1, 0, 0]
    assert CoverTower(GroupSpec(5, 0), 3, ()).genera() == [3]


def test_genus_rejects_unrealizable():
    free = CoverTower(GroupSpec(2, 1), 0, ())
    with pytest.raises(NegativeGenus, match="level 0: genus -1 < 0"):
        free.genera()
    with pytest.raises(NegativeGenus):
        free.genus(0)
    # level 0 is the only bad level of both towers; genus(1) reads the
    # whole pass, so it raises as well, where g_1 alone is well defined
    odd = CoverTower(GroupSpec(2, 2), 0, (RamifiedOrbit("P", 2, (2, 1)),))
    with pytest.raises(NonIntegralGenus, match="level 0: 2g - 2 = -1 is odd"):
        odd.genera()
    for t, error in ((free, NegativeGenus), (odd, NonIntegralGenus)):
        with pytest.raises(error):
            t.genus(1)
    with pytest.raises(ValidationError):
        odd.genus(3)


@pytest.mark.parametrize("p,v,gy", [(2, 2, 1), (3, 2, 1), (2, 3, 2)])
def test_free_tower_genus_formula(p, v, gy):
    t = CoverTower(GroupSpec(p, v), gy, ())
    expected = [p ** (v - n) * (gy - 1) + 1 for n in range(v + 1)]
    assert t.genera() == expected
    for n in range(v + 1):
        assert 2 * t.genus(n) - 2 == p ** (v - n) * (2 * gy - 2)
    assert t.genus(v) == gy


def test_divisor_degree_examples():
    t = one_orbit_tower(2, 1, [3])
    d = LevelDivisor(0, 0, (4,))
    assert divisor_degree(d, t) == 4
    assert divisor_degree(LevelDivisor(1, 7, (0,)), t) == 7
    assert divisor_degree(LevelDivisor(0, 3, (0,)), t) == 6


def test_pushforward_alpha_coefficients():
    t = one_orbit_tower(3, 1, [3])
    d = LevelDivisor(0, 5, (7,))
    assert pushforward_alpha(d, t, 1) == LevelDivisor(1, 5, (1,))
    assert pushforward_alpha(d, t, 0) == LevelDivisor(1, 5, (2,))
    t2 = one_orbit_tower(2, 1, [1])
    d2 = LevelDivisor(0, 0, (-1,))
    assert pushforward_alpha(d2, t2, 0).coeffs == (-1,)


def test_pushforward_alpha_skips_unramified_orbits():
    t = CoverTower(GroupSpec(2, 2), 0,
                   (RamifiedOrbit("P", 2, (3, 1)), RamifiedOrbit("Q", 1, (3,))))
    d = LevelDivisor(1, 2, (5, 7))
    out = pushforward_alpha(d, t, 1)
    # level-2 break of P is 1; Q is unramified in pi_2
    assert out == LevelDivisor(2, 2, ((5 - 1) // 2, 7))


def test_coefficients_follow_tower_order():
    # Q is listed before P, against the sorted order of the ids
    t = CoverTower(GroupSpec(3, 1), 0,
                   (RamifiedOrbit("Q", 1, (2,)), RamifiedOrbit("P", 1, (1,))))
    d = level_zero_divisor(InvariantDivisor.from_dict(4, {"P": 10, "Q": 20}), t)
    assert d == LevelDivisor(0, 4, (20, 10))
    # each orbit takes its own break: (20 - 2*2) // 3 and (10 - 2*1) // 3
    assert pushforward_alpha(d, t, 2) == LevelDivisor(1, 4, (5, 2))
    assert kani_pushforward(InvariantDivisor.from_dict(0, {"P": 7}), t) == \
        LevelDivisor(1, 0, (0, 2))


def test_coefficient_count_must_match_orbits():
    t = CoverTower(GroupSpec(2, 2), 0,
                   (RamifiedOrbit("P", 2, (3, 1)), RamifiedOrbit("Q", 1, (3,))))
    for coeffs in ((5,), (5, 7, 9)):
        d = LevelDivisor(0, 1, coeffs)
        with pytest.raises(ValueError):
            pushforward_alpha(d, t, 0)
        with pytest.raises(ValueError):
            divisor_degree(d, t)


def test_kani_pushforward_examples():
    t = z4_tower()
    d = InvariantDivisor.from_dict(0, {"P": 6})
    assert kani_pushforward(d, t) == LevelDivisor(2, 0, (1,))
    assert kani_pushforward(InvariantDivisor(), t) == LevelDivisor(2, 0, (0,))


@pytest.mark.parametrize("p,v", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1)])
def test_kani_equals_alpha_zero_composite(p, v):
    for depth in range(1, v + 1):
        jumps = tuple(range(2 * depth - 1, 0, -2))  # odd, decreasing
        t = one_orbit_tower(p, v, jumps)
        for c in range(-50, 51):
            d = InvariantDivisor.from_dict(1, {"P": c})
            cur = level_zero_divisor(d, t)
            for _ in range(v):
                cur = pushforward_alpha(cur, t, 0)
            kani = kani_pushforward(d, t)
            assert cur == kani


@pytest.mark.parametrize("p", [2, 3])
def test_degree_bookkeeping_under_pushforward(p):
    t = one_orbit_tower(p, 1, [3])
    for c in range(-20, 21):
        d = LevelDivisor(0, 2, (c,))
        new = pushforward_alpha(d, t, 0)
        old_deg = divisor_degree(d, t)
        new_deg = divisor_degree(new, t)
        assert p * new_deg <= old_deg
        assert (p * new_deg == old_deg) == (c % p == 0)


def test_validate_strict_examples():
    assert validate_strict(z4_tower()) == ()
    bad_order = one_orbit_tower(2, 2, [1, 3])
    assert "increase" in validate_strict(bad_order)[0]
    bad_break = one_orbit_tower(2, 1, [2])
    assert "divisible by p" in validate_strict(bad_break)[0]


def test_validate_strict_upper_break_growth():
    # lower breaks (1, 5): u_2 = 1 + (5-1)/2 = 3 >= 2*1, odd: ok
    assert validate_strict(one_orbit_tower(2, 2, [5, 1])) == ()
    # lower breaks (3, 5): u_2 = 3 + 1 = 4 < 2*3: reject
    assert validate_strict(one_orbit_tower(2, 2, [5, 3]))
    # lower breaks (1, 3, 7): u = (1, 2, 3), and p * u_1 <= u_3 < p * u_2
    assert validate_strict(one_orbit_tower(2, 3, [7, 3, 1])) == (
        "orbit 'P': upper break 3 < p * 2",)
    # lower breaks (1, 7): u_2 = 1 + 6/2 = 4 > 2*1, and even
    assert validate_strict(one_orbit_tower(2, 2, [7, 1])) == (
        "orbit 'P': new upper break 4 divisible by p",)


def test_validate_strict_flags_bad_genus():
    violations = validate_strict(CoverTower(GroupSpec(2, 1), 0, ()))
    assert any("genus" in v for v in violations)


def test_pushforward_columns_checks_its_input():
    t = CoverTower(GroupSpec(2, 2), 0, (RamifiedOrbit("P", 1, (3,)),))
    # the depth-1 orbit is floored at level 1 and copied at level 2
    assert pushforward_columns([[7]], t, 1) == [[3, 2]]
    assert pushforward_columns([[3, 2]], t, 2) == [[3, 3, 2, 2]]
    for n in (0, 3):
        with pytest.raises(ValidationError):
            pushforward_columns([[7]], t, n)
    with pytest.raises(ValueError):
        pushforward_columns([[7], [1]], t, 1)
