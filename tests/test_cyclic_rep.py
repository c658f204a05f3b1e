import random

import pytest
from hypothesis import example, given, strategies as st

from galmod import cyclic_rep
from galmod.cyclic_rep import (
    MAX_ORDER,
    Decomposition,
    GroupSpec,
    K0Vector,
    cartan_inverse,
    digits,
    from_simple_basis,
    is_relatively_projective,
    restrict_step,
)
from galmod.errors import ValidationError
from reference import cartan_matrix

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


def to_simple(coords, g):
    """Standard-basis coordinates in the simple basis: the Cartan matrix
    applied as a dense mat-vec, independent of from_simple_basis."""
    return tuple(sum(row[k] * coords[k] for k in range(g.order))
                 for row in cartan_matrix(g))


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


def test_is_relatively_projective_examples():
    assert is_relatively_projective(Decomposition.from_dict({4: 2}), Z4, 1)
    assert not is_relatively_projective(Decomposition.from_dict({1: 1}), Z4, 1)
    assert is_relatively_projective(
        Decomposition.from_dict({2: 3, 4: 1}), Z4, 1)


@pytest.mark.parametrize("p,v", [(2, 2), (3, 2), (2, 3)])
def test_regular_module_is_relatively_projective(p, v):
    g = GroupSpec(p, v)
    regular = Decomposition.from_dict({g.order: 1})
    for w in range(v + 1):
        assert is_relatively_projective(regular, g, w)


def test_from_simple_basis_worked_tower_vector():
    res = from_simple_basis(K0Vector("simple", (2, 4, 5, 6)), Z4)
    assert res.basis == "standard"
    assert res.coords == (0, 1, 0, 1)
    # independent check: forward Cartan matrix maps the result back
    assert to_simple(res.coords, Z4) == (2, 4, 5, 6)


def test_from_simple_basis_all_ones_is_trivial_class():
    res = from_simple_basis(K0Vector("simple", (1, 1, 1, 1)), Z4)
    assert res.coords == (1, 0, 0, 0)


@given(st.lists(st.integers(-100, 100), min_size=1, max_size=4))
@example([7])
@example([-3, 5])
def test_basis_round_trip(coords):
    # orders 1 and 2 have no interior row of the tridiagonal inverse
    g = {1: GroupSpec(2, 0), 2: GroupSpec(2, 1), 3: Z3, 4: Z4}[len(coords)]
    x = tuple(coords)
    simple = K0Vector("simple", to_simple(x, g))
    assert from_simple_basis(simple, g).coords == x
    std = from_simple_basis(K0Vector("simple", x), g)
    assert to_simple(std.coords, g) == x


def test_module_round_trip_through_k0():
    dec = Decomposition.from_dict({1: 2, 3: 1, 4: 5})
    simple = K0Vector("simple", to_simple(tuple(dec.dense(4)), Z4))
    std = from_simple_basis(simple, Z4)
    assert Decomposition.from_dict(dict(enumerate(std.coords, start=1))) == dec
