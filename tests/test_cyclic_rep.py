import random

import pytest
from hypothesis import given, strategies as st

from galmod import cyclic_rep
from galmod.cyclic_rep import (
    MAX_ORDER,
    Decomposition,
    GroupSpec,
    Indecomposable,
    K0Vector,
    cartan_inverse,
    cartan_matrix,
    digits,
    from_simple_basis,
    heller,
    induce,
    is_relatively_projective,
    module_from_k0,
    regular_decomposition,
    restrict_step,
    to_simple_basis,
)
from galmod.errors import NegativeMultiplicity, ValidationError

Z4 = GroupSpec(2, 2)
Z3 = GroupSpec(3, 1)
Z9 = GroupSpec(3, 2)

DUALITY_ORDERS = [(2, 1), (3, 1), (2, 2), (5, 1), (2, 3), (3, 2), (2, 4),
                  (5, 2), (3, 3), (2, 5), (3, 4), (5, 3)]


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def matmul(a, b):
    n = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)]


def test_group_spec_rejects_bad_input():
    with pytest.raises(ValidationError):
        GroupSpec(4, 1)
    with pytest.raises(ValidationError):
        GroupSpec(2, -1)
    with pytest.raises(ValidationError):
        GroupSpec(5, 6)  # above the order cap
    assert GroupSpec(2, 0).order == 1


def test_group_spec_bounds_work_before_primality(monkeypatch):
    real = cyclic_rep._is_prime

    def guarded(n):
        assert n <= MAX_ORDER, f"primality test run on p = {n}"
        return real(n)

    monkeypatch.setattr(cyclic_rep, "_is_prime", guarded)
    with pytest.raises(ValidationError, match="exceeds the cap"):
        GroupSpec(10 ** 18 + 3, 1)
    with pytest.raises(ValidationError, match="exceeds the cap"):
        GroupSpec(3127, 0)  # above the cap even for the trivial group
    with pytest.raises(ValidationError, match="exceeds the cap"):
        GroupSpec(2, 10 ** 12)  # rejected without forming 2 ** v
    assert GroupSpec(2, 11).order == 2048
    assert GroupSpec(5, 5).order == MAX_ORDER


def test_cartan_matrix_examples():
    assert cartan_matrix(Z3) == [[1, 1, 1], [1, 2, 2], [1, 2, 3]]
    assert cartan_matrix(GroupSpec(2, 0)) == [[1]]
    assert cartan_matrix(GroupSpec(2, 1)) == [[1, 1], [1, 2]]


def test_cartan_inverse_examples():
    assert cartan_inverse(Z3) == [[2, -1, 0], [-1, 2, -1], [0, -1, 1]]
    assert cartan_inverse(GroupSpec(2, 0)) == [[1]]
    assert matmul(cartan_matrix(Z4), cartan_inverse(Z4)) == identity(4)


@pytest.mark.parametrize("p,v", DUALITY_ORDERS)
def test_cartan_duality_up_to_125(p, v):
    g = GroupSpec(p, v)
    assert matmul(cartan_matrix(g), cartan_inverse(g)) == identity(g.order)


@pytest.mark.parametrize("p,v", DUALITY_ORDERS)
def test_from_simple_basis_matches_dense_inverse(p, v):
    g = GroupSpec(p, v)
    inv = cartan_inverse(g)
    rng = random.Random(p * 100 + v)
    for _ in range(5):
        x = tuple(rng.randint(-1000, 1000) for _ in range(g.order))
        dense = tuple(sum(row[k] * x[k] for k in range(g.order)) for row in inv)
        assert from_simple_basis(K0Vector("simple", x), g).coords == dense


def test_digits_examples():
    assert digits(1, Z9) == [0, 0]
    assert digits(9, Z9) == [2, 2]
    assert digits(4, Z9) == [0, 1]
    with pytest.raises(ValidationError):
        digits(10, Z9)
    with pytest.raises(ValidationError):
        digits(0, Z9)


@given(st.sampled_from([(2, 3), (3, 2), (5, 2)]), st.data())
def test_digits_round_trip(pv, data):
    g = GroupSpec(*pv)
    j = data.draw(st.integers(1, g.order))
    ds = digits(j, g)
    assert all(0 <= a <= g.p - 1 for a in ds)
    assert sum(a * g.p ** h for h, a in enumerate(ds)) + 1 == j


def test_restrict_step_examples():
    assert restrict_step(Z4, 3) == Decomposition.from_dict({2: 1, 1: 1})
    assert restrict_step(Z4, 4) == Decomposition.from_dict({2: 2})
    assert restrict_step(Z3, 1) == Decomposition.from_dict({1: 1})
    with pytest.raises(ValidationError):
        restrict_step(GroupSpec(2, 0), 1)


@pytest.mark.parametrize("p,v", [(2, 2), (3, 2), (2, 3), (5, 1)])
def test_restrict_step_preserves_dimension(p, v):
    g = GroupSpec(p, v)
    for j in range(1, g.order + 1):
        assert restrict_step(g, j).total_dim() == j


def test_induce_examples():
    assert induce(Z4, 1, 2) == Indecomposable(4)
    assert induce(Z4, 2, 3) == Indecomposable(3)
    assert induce(Z4, 0, 1) == Indecomposable(4)
    with pytest.raises(ValidationError):
        induce(Z4, 1, 3)


@pytest.mark.parametrize("p,v", [(2, 2), (3, 2), (2, 3)])
def test_induce_dimension_and_regular_projectivity(p, v):
    g = GroupSpec(p, v)
    for w in range(v + 1):
        for l in range(1, p ** w + 1):
            assert induce(g, w, l).dim == l * p ** (v - w)
        assert is_relatively_projective(regular_decomposition(g), g, w)


def test_is_relatively_projective_examples():
    assert is_relatively_projective(Decomposition.from_dict({4: 2}), Z4, 1)
    assert not is_relatively_projective(Decomposition.from_dict({1: 1}), Z4, 1)
    assert is_relatively_projective(
        Decomposition.from_dict({2: 3, 4: 1}), Z4, 1)


def test_heller_examples():
    assert heller(Z4, 1) == Indecomposable(3)
    assert heller(Z4, 4) is None
    for j in range(1, 4):
        assert heller(Z4, heller(Z4, j).dim) == Indecomposable(j)


def test_heller_kernel_dimension_by_rank_oracle():
    # kernel of the projective cover V_4 ->> V_1 is the radical (sigma-1)V_4;
    # sigma restricted to it is a single Jordan block of size 3 over F_2
    from galmod.as_oracle import jordan_type_of_matrix
    j3 = [[1, 1, 0], [0, 1, 1], [0, 0, 1]]
    assert jordan_type_of_matrix(j3, 2) == Decomposition.from_dict({3: 1})
    assert heller(Z4, 1) == Indecomposable(3)


def test_to_simple_basis_examples():
    e1 = K0Vector("standard", (1, 0, 0))
    assert to_simple_basis(e1, Z3).coords == (1, 1, 1)
    zero = K0Vector("standard", (0, 0, 0))
    assert to_simple_basis(zero, Z3).coords == (0, 0, 0)
    e3 = K0Vector("standard", (0, 0, 1))
    assert to_simple_basis(e3, Z3).coords == (1, 2, 3)
    with pytest.raises(ValidationError):
        to_simple_basis(K0Vector("simple", (0, 0, 0)), Z3)


def test_from_simple_basis_worked_tower_vector():
    res = from_simple_basis(K0Vector("simple", (2, 4, 5, 6)), Z4)
    assert res.basis == "standard"
    assert res.coords == (0, 1, 0, 1)
    # independent check: forward Cartan matrix maps the result back
    forward = to_simple_basis(res, Z4)
    assert forward.coords == (2, 4, 5, 6)


def test_from_simple_basis_all_ones_is_trivial_class():
    res = from_simple_basis(K0Vector("simple", (1, 1, 1, 1)), Z4)
    assert res.coords == (1, 0, 0, 0)


@given(st.lists(st.integers(-100, 100), min_size=4, max_size=4))
def test_basis_round_trip(coords):
    x = K0Vector("standard", tuple(coords))
    assert from_simple_basis(to_simple_basis(x, Z4), Z4).coords == x.coords
    y = K0Vector("simple", tuple(coords))
    assert to_simple_basis(from_simple_basis(y, Z4), Z4).coords == y.coords


def test_module_from_k0_examples():
    dec = module_from_k0(K0Vector("simple", (2, 4, 5, 6)), Z4)
    assert dec == Decomposition.from_dict({2: 1, 4: 1})
    with pytest.raises(NegativeMultiplicity):
        module_from_k0(K0Vector("simple", (0, 0, 0, 1)), Z4)
    assert module_from_k0(K0Vector("simple", (0, 0, 0, 0)), Z4) == Decomposition()


def test_module_round_trip_through_k0():
    dec = Decomposition.from_dict({1: 2, 3: 1, 4: 5})
    std = K0Vector("standard", tuple(dec.dense(4)))
    assert module_from_k0(to_simple_basis(std, Z4), Z4) == dec


def test_regular_decomposition():
    assert regular_decomposition(Z4) == Decomposition.from_dict({4: 1})
    assert regular_decomposition(GroupSpec(3, 0)) == Decomposition.from_dict({1: 1})
    assert regular_decomposition(Z9).total_dim() == 9
