import pytest

from galmod import decomposition
from galmod.cover_tower import (
    CoverTower,
    InvariantDivisor,
    RamifiedOrbit,
    divisor_degree,
    kani_pushforward,
    level_zero_divisor,
)
from galmod.checks import generate_corpus
from galmod.cyclic_rep import Decomposition, GroupSpec, cartan_matrix
from galmod.decomposition import (
    ALL_METHODS,
    decompose_closed_form,
    decompose_pullback,
    decompose_recursive,
    decompose_second_difference,
    decompose_simple_basis,
    degree_table,
    euler_characteristic,
    graded_piece_divisor,
    level_degrees,
    noether_check,
    ramification_subgroup_exponent,
)
from galmod.errors import DegreeTooSmall


def z4_tower():
    return CoverTower(GroupSpec(2, 2), 0, (RamifiedOrbit("P", 2, (3, 1)),))


def z4_divisor():
    return InvariantDivisor.from_dict(0, {"P": 6})


def test_level_degrees_z4_fixture():
    t, d = z4_tower(), z4_divisor()
    assert [level_degrees(d, t, j) for j in (1, 2, 3, 4)] == [1, 1, 0, 0]


def test_level_degrees_free_tower_is_constant():
    t = CoverTower(GroupSpec(2, 2), 1, ())
    d = InvariantDivisor(base_degree=5)
    assert [level_degrees(d, t, j) for j in range(1, 5)] == [5, 5, 5, 5]


def test_level_degrees_v1():
    t = CoverTower(GroupSpec(2, 1), 0, (RamifiedOrbit("P", 1, (3,)),))
    d = InvariantDivisor.from_dict(0, {"P": 4})
    assert level_degrees(d, t, 1) == 2
    assert level_degrees(d, t, 2) == 0


def test_degree_table_matches_level_degrees_on_corpus():
    for t, d in generate_corpus(3, 200):
        assert degree_table(d, t) == [level_degrees(d, t, j)
                                      for j in range(1, t.group.order + 1)]


@pytest.mark.parametrize("p,v", [(5, 5), (2, 11), (3, 7)])
def test_degree_table_matches_level_degrees_at_large_orders(p, v):
    t = CoverTower(GroupSpec(p, v), 1, (
        RamifiedOrbit("A", 1, (7,)),
        RamifiedOrbit("B", v, tuple(range(2 * v + 1, 1, -2))),
        RamifiedOrbit("C", (v + 1) // 2, (11,) * ((v + 1) // 2))))
    d = InvariantDivisor.from_dict(3, {"A": 40, "B": -17, "C": 123})
    table = degree_table(d, t)
    assert table == [level_degrees(d, t, j) for j in range(1, p ** v + 1)]


def test_closed_form_v1_fixture():
    t = CoverTower(GroupSpec(2, 1), 0, (RamifiedOrbit("P", 1, (3,)),))
    rep = decompose_closed_form(InvariantDivisor.from_dict(0, {"P": 4}), t)
    assert rep.mult_list == (2, 1)
    assert rep.dim_h0 == 4
    assert rep.realizable


def test_closed_form_z4_fixture():
    rep = decompose_closed_form(z4_divisor(), z4_tower())
    assert rep.degrees == (1, 1, 0, 0)
    assert rep.mult_list == (0, 1, 0, 1)
    assert rep.dim_h0 == 6
    assert rep.genus_top == 1


def test_closed_form_p3_fixture():
    t = CoverTower(GroupSpec(3, 1), 0, (RamifiedOrbit("P", 1, (2,)),))
    rep = decompose_closed_form(InvariantDivisor.from_dict(0, {"P": 5}), t)
    assert rep.mult_list == (0, 1, 1)
    assert rep.dim_h0 == 5


def test_degree_too_small():
    t = z4_tower()  # g_X = 1
    with pytest.raises(DegreeTooSmall):
        decompose_closed_form(InvariantDivisor.from_dict(0, {"P": 0}), t)


def test_negative_multiplicity_is_flagged_not_raised():
    # breaks increasing down the tower: strict-invalid, still computable
    t = CoverTower(GroupSpec(2, 2), 0, (RamifiedOrbit("P", 2, (1, 3)),))
    rep = decompose_closed_form(InvariantDivisor.from_dict(0, {"P": 20}), t)
    assert not rep.realizable
    assert rep.decomposition is None
    assert any(m < 0 for m in rep.mult_list)


def test_second_difference_fixture():
    rep = decompose_second_difference(z4_divisor(), z4_tower())
    assert rep.mult_list == (0, 1, 0, 1)


def test_second_difference_free_tower_telescopes():
    t = CoverTower(GroupSpec(3, 2), 1, ())
    d = InvariantDivisor(base_degree=4)
    rep = decompose_second_difference(d, t)
    assert rep.mult_list == (0,) * 8 + (1 - 1 + 4,)


def test_recursive_fixture():
    rep = decompose_recursive(z4_divisor(), z4_tower())
    assert rep.mult_list == (0, 1, 0, 1)
    t = CoverTower(GroupSpec(2, 1), 0, (RamifiedOrbit("P", 1, (3,)),))
    rep1 = decompose_recursive(InvariantDivisor.from_dict(0, {"P": 4}), t)
    assert rep1.mult_list == (2, 1)


def test_graded_piece_j1_equals_kani():
    t, d = z4_tower(), z4_divisor()
    gr1 = graded_piece_divisor(d, t, 1)
    kani = kani_pushforward(d, t)
    assert gr1.orbit_coeffs == kani.orbit_coeffs
    assert gr1.base_degree == kani.base_degree


def test_euler_characteristic_fixture():
    chi = euler_characteristic(z4_divisor(), z4_tower())
    assert chi.basis == "simple"
    assert chi.coords == (2, 4, 5, 6)


def test_euler_free_tower():
    t = CoverTower(GroupSpec(2, 2), 1, ())
    d = InvariantDivisor(base_degree=3)
    chi = euler_characteristic(d, t)
    assert chi.coords == tuple(j * (1 - 1 + 3) for j in range(1, 5))


def test_euler_matches_closed_form_above_threshold():
    t, d = z4_tower(), z4_divisor()
    rep = decompose_closed_form(d, t)
    simple = tuple(sum(c * m for c, m in zip(row, rep.mult_list))
                   for row in cartan_matrix(t.group))
    assert simple == euler_characteristic(d, t).coords


def test_euler_defined_below_threshold():
    chi = euler_characteristic(InvariantDivisor.from_dict(0, {"P": 0}),
                               z4_tower())
    assert len(chi.coords) == 4


def test_method_agreement_on_fixture():
    t, d = z4_tower(), z4_divisor()
    reports = [fn(d, t) for fn in ALL_METHODS.values()]
    assert len({r.mult_list for r in reports}) == 1


def test_pullback_free_genus_one():
    t = CoverTower(GroupSpec(2, 1), 1, ())
    rep = decompose_pullback(3, t)
    assert rep.mult_list == (0, 3)


def test_pullback_stability():
    t = z4_tower()
    lo = decompose_pullback(3, t)
    hi = decompose_pullback(5, t)
    diff = [h - l for h, l in zip(hi.mult_list, lo.mult_list)]
    assert diff == [0, 0, 0, 2]
    assert decompose_pullback(3, t).mult_list == lo.mult_list


def test_ramification_subgroup_exponent():
    assert ramification_subgroup_exponent(CoverTower(GroupSpec(2, 2), 1, ())) == 0
    assert ramification_subgroup_exponent(z4_tower()) == 2
    mixed = CoverTower(GroupSpec(2, 2), 0, (
        RamifiedOrbit("A", 1, (3,)),
        RamifiedOrbit("B", 2, (3, 1)),
        RamifiedOrbit("C", 1, (5,))))
    assert ramification_subgroup_exponent(mixed) == 2


def test_noether_free_tower():
    t = CoverTower(GroupSpec(2, 2), 1, ())
    for w in range(3):
        rep = noether_check(t, w)
        assert rep.containment and rep.all_projective
        assert rep.witness is None


def test_noether_z4_witness(monkeypatch):
    tables = []
    real = decomposition.degree_table

    def counting(d, t):
        tables.append(d)
        return real(d, t)

    monkeypatch.setattr(decomposition, "degree_table", counting)
    rep = noether_check(z4_tower(), 1)
    assert len(tables) == rep.sampled  # one table per sampled divisor
    assert not rep.containment
    assert not rep.all_projective
    assert rep.witness is not None
    assert rep.witness.j == 1 and rep.witness.m_j == 1
    assert rep.witness_predicted == 1


def test_noether_whole_group():
    rep = noether_check(z4_tower(), 2)
    assert rep.containment and rep.all_projective
    t = CoverTower(GroupSpec(2, 1), 0, (RamifiedOrbit("P", 1, (3,)),))
    rep1 = noether_check(t, 1)
    assert rep1.containment and rep1.all_projective


def test_trivial_group_decomposition():
    t = CoverTower(GroupSpec(3, 0), 1, ())
    rep = decompose_closed_form(InvariantDivisor(base_degree=4), t)
    assert rep.mult_list == (4,)
    assert rep.dim_h0 == 4
    assert rep.decomposition == Decomposition.from_dict({1: 4})


def test_dimension_identity_on_fixtures():
    cases = [
        (z4_tower(), z4_divisor()),
        (CoverTower(GroupSpec(2, 1), 0, (RamifiedOrbit("P", 1, (3,)),)),
         InvariantDivisor.from_dict(0, {"P": 4})),
        (CoverTower(GroupSpec(3, 1), 0, (RamifiedOrbit("P", 1, (2,)),)),
         InvariantDivisor.from_dict(0, {"P": 5})),
    ]
    for t, d in cases:
        rep = decompose_closed_form(d, t)
        deg = divisor_degree(level_zero_divisor(d, t), t)
        assert rep.dim_h0 == deg + 1 - t.genus(0)
