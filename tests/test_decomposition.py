import random
from itertools import chain, repeat

import pytest
from hypothesis import given, strategies as st

from galmod import decomposition
from galmod.cover_tower import (
    CoverTower,
    InvariantDivisor,
    RamifiedOrbit,
    divisor_degree,
    kani_pushforward,
    level_zero_divisor,
)
from galmod.checks import generate_corpus, random_case
from galmod.cyclic_rep import Decomposition, GroupSpec
from galmod.decomposition import (
    ALL_METHODS,
    DecompositionReport,
    decompose_closed_form,
    decompose_pullback,
    decompose_recursive,
    decompose_second_difference,
    decompose_simple_basis,
    degree_table,
    euler_characteristic,
    graded_piece_divisor,
    level_degrees,
    lift_above_vanishing,
    noether_check,
    ramification_subgroup_exponent,
)
from galmod.errors import DegreeTooSmall
from reference import cartan_matrix, dim_h0


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


# the largest orders of the 5^k, 2^k and 3^k families under the order cap
LARGE_ORDERS = [(5, 5), (2, 11), (3, 7)]


def large_order_case(p, v, base_degree=3):
    t = CoverTower(GroupSpec(p, v), 1, (
        RamifiedOrbit("A", 1, (7,)),
        RamifiedOrbit("B", v, tuple(range(2 * v + 1, 1, -2))),
        RamifiedOrbit("C", (v + 1) // 2, (11,) * ((v + 1) // 2))))
    d = InvariantDivisor.from_dict(base_degree,
                                   {"A": 40, "B": -17, "C": 123})
    return t, d


@pytest.mark.parametrize("p,v", LARGE_ORDERS)
def test_degree_table_matches_level_degrees_at_large_orders(p, v):
    t, d = large_order_case(p, v)
    table = degree_table(d, t)
    assert table == [level_degrees(d, t, j) for j in range(1, p ** v + 1)]


@pytest.mark.parametrize("p", [2, 3, 5])
def test_repeat_each_matches_a_chain_of_repeats(p):
    # each entry repeated reps times in a row, reps a power of p, built by
    # rounds of p slice assignments
    values = [7, -3, 0, 12, -1, 4][:p + 1]
    for reps in (1, p, p ** 3):
        expected = list(chain.from_iterable(map(repeat, values, repeat(reps))))
        assert decomposition._repeat_each(list(values), p, reps) == expected


def test_recursive_walk_matches_per_index_chain_on_corpus():
    # the orbit columns list index prefix * p + alpha, most significant
    # digit innermost, as the per-index chain of level_degrees reads the
    # digits of j - 1; the two walks share no step
    deep = [(t, d) for t, d in generate_corpus(1, 3000) if t.group.v >= 2]
    assert deep
    for t, d in deep:
        chain = [level_degrees(d, t, j) for j in range(1, t.group.order + 1)]
        assert list(decompose_recursive(d, t).degrees) == chain


@pytest.mark.parametrize("p,v", LARGE_ORDERS)
def test_recursive_walk_matches_per_index_chain_at_large_orders(p, v):
    # base degree 20 clears deg D > 2g_X - 2 at all three orders
    t, d = large_order_case(p, v, base_degree=20)
    chain = [level_degrees(d, t, j) for j in range(1, p ** v + 1)]
    assert list(decompose_recursive(d, t).degrees) == chain


@given(st.sampled_from([(2, 0), (2, 3), (2, 6), (3, 2), (3, 4), (5, 1),
                        (5, 3)]), st.data())
def test_degree_table_matches_level_degrees_off_the_realizable_locus(pv, data):
    # breaks divisible by p, decreasing breaks and negative coefficients are
    # all accepted without --strict, so the formula must match the chain there
    p, v = pv
    depths = data.draw(st.lists(st.integers(1, v), max_size=3)) if v else []
    orbits = tuple(
        RamifiedOrbit(f"P{k}", m, tuple(data.draw(
            st.lists(st.integers(1, 200), min_size=m, max_size=m))))
        for k, m in enumerate(depths))
    t = CoverTower(GroupSpec(p, v), 0, orbits)
    d = InvariantDivisor.from_dict(
        data.draw(st.integers(-20, 20)),
        {o.id: data.draw(st.integers(-500, 500)) for o in orbits})
    assert degree_table(d, t) == [level_degrees(d, t, j)
                                  for j in range(1, p ** v + 1)]


@given(st.integers(0, 10 ** 6), st.integers(-300, 300), st.data())
def test_lift_above_vanishing_is_the_least_lift(seed, base_degree, data):
    # a strict-valid tower of the corpus generator, and any divisor on it
    t, _ = random_case(random.Random(seed))
    d = InvariantDivisor.from_dict(
        base_degree, {o.id: data.draw(st.integers(-500, 500)) for o in t.orbits})
    gate = 2 * t.genus(0) - 2

    def degree(e):
        return divisor_degree(level_zero_divisor(e, t), t)

    lifted = lift_above_vanishing(d, t)
    assert lifted.orbit_coeffs == d.orbit_coeffs
    assert degree(lifted) > gate
    if degree(d) > gate:
        assert lifted == d
    else:
        assert lifted.base_degree > d.base_degree
        assert degree(InvariantDivisor(lifted.base_degree - 1,
                                       lifted.orbit_coeffs)) <= gate


def test_noether_block_structure_on_corpus():
    # deg_j depends on the top D digits of j - 1 only, D the largest orbit
    # depth; Recursive's Cartan solve reaches the same zeros on its own
    for t, d in generate_corpus(1, 3000):
        step = t.group.p ** (t.group.v - ramification_subgroup_exponent(t))
        for method in (decompose_closed_form, decompose_recursive):
            mult = method(d, t).mult_list
            assert all(m == 0 for j, m in enumerate(mult, 1) if j % step)


def test_closed_form_v1_fixture():
    t = CoverTower(GroupSpec(2, 1), 0, (RamifiedOrbit("P", 1, (3,)),))
    rep = decompose_closed_form(InvariantDivisor.from_dict(0, {"P": 4}), t)
    assert rep.mult_list == (2, 1)
    assert dim_h0(rep.mult_list) == 4
    assert rep.realizable


def test_closed_form_z4_fixture():
    rep = decompose_closed_form(z4_divisor(), z4_tower())
    assert rep.degrees == (1, 1, 0, 0)
    assert rep.mult_list == (0, 1, 0, 1)
    assert dim_h0(rep.mult_list) == 6


def test_closed_form_p3_fixture():
    t = CoverTower(GroupSpec(3, 1), 0, (RamifiedOrbit("P", 1, (2,)),))
    rep = decompose_closed_form(InvariantDivisor.from_dict(0, {"P": 5}), t)
    assert rep.mult_list == (0, 1, 1)
    assert dim_h0(rep.mult_list) == 5


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
    assert rep.mult_list == (2, -1, 1, 4)
    assert dim_h0(rep.mult_list) == 2 - 2 + 3 + 16
    # a negative entry at either end, and a zero one, which is realizable
    for mult, dim, realizable in [((-1, 3), 5, False), ((3, -1), 1, False),
                                  ((0, 0, 0), 0, True)]:
        rep = DecompositionReport((0,) * len(mult), mult)
        assert (dim_h0(rep.mult_list), rep.realizable) == (dim, realizable)


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
    assert gr1 == kani


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
    routes = [*ALL_METHODS.values(), decompose_second_difference,
              decompose_simple_basis]
    reports = [fn(d, t) for fn in routes]
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
    assert dim_h0(rep.mult_list) == 4
    assert rep.realizable
    assert rep.decomposition == Decomposition.from_dict({1: 4})
    # an order-1 report with a negative entry
    neg = DecompositionReport((-3,), (-2,))
    assert (dim_h0(neg.mult_list), neg.realizable,
            neg.decomposition) == (-2, False, None)


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
        assert dim_h0(rep.mult_list) == deg + 1 - t.genus(0)
