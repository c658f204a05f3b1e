import pytest

from galmod.as_oracle import (
    ASCurve,
    _rank_mod_p,
    jordan_type,
    jordan_type_of_matrix,
    riemann_roch_basis,
    sigma_matrix,
    to_tower,
)
from galmod.cyclic_rep import Decomposition
from galmod.decomposition import decompose_closed_form
from galmod.errors import DegreeTooSmall, ValidationError


def test_curve_invariants():
    assert ASCurve(2, 3).genus == 1
    assert ASCurve(3, 2).genus == 1
    assert ASCurve(2, 1).genus == 0
    assert ASCurve(5, 7).genus == 12
    with pytest.raises(ValidationError):
        ASCurve(2, 4)
    with pytest.raises(ValidationError):
        ASCurve(4, 3)


def test_riemann_roch_basis_examples():
    assert riemann_roch_basis(ASCurve(2, 3), 4) == [(0, 0), (0, 1), (1, 0), (2, 0)]
    assert len(riemann_roch_basis(ASCurve(3, 2), 5)) == 5
    assert riemann_roch_basis(ASCurve(5, 3), 0) == [(0, 0)]


@pytest.mark.parametrize("p,m", [(2, 3), (2, 5), (3, 2), (3, 4), (5, 2)])
def test_basis_size_is_riemann_roch(p, m):
    c = ASCurve(p, m)
    for n in range(2 * c.genus - 1, 25):
        if n < 0:
            continue
        assert len(riemann_roch_basis(c, n)) == n + 1 - c.genus


def test_basis_pole_orders_distinct():
    c = ASCurve(3, 4)
    basis = riemann_roch_basis(c, 20)
    orders = [c.p * i + c.m * j for i, j in basis]
    assert len(set(orders)) == len(orders)


def test_sigma_matrix_small_cases():
    c = ASCurve(2, 3)
    basis = riemann_roch_basis(c, 4)
    mat = sigma_matrix(c, basis)
    iy = basis.index((0, 1))
    ione = basis.index((0, 0))
    # sigma(y) = y + 1
    col = [mat[r][iy] for r in range(len(basis))]
    assert col[iy] == 1 and col[ione] == 1 and sum(col) == 2
    # sigma fixes powers of x
    ix = basis.index((1, 0))
    assert [mat[r][ix] for r in range(len(basis))] == \
        [1 if r == ix else 0 for r in range(len(basis))]


def test_sigma_matrix_y_squared_p3():
    c = ASCurve(3, 2)
    basis = riemann_roch_basis(c, 5)
    mat = sigma_matrix(c, basis)
    col = {basis[r]: mat[r][basis.index((0, 2))] for r in range(len(basis))}
    # (y+1)^2 = y^2 + 2y + 1
    assert col[(0, 2)] == 1 and col[(0, 1)] == 2 and col[(0, 0)] == 1


@pytest.mark.parametrize("p,m,n", [(2, 3, 6), (3, 2, 8), (5, 2, 10), (3, 5, 12)])
def test_sigma_matrix_unipotent(p, m, n):
    c = ASCurve(p, m)
    basis = riemann_roch_basis(c, n)
    mat = sigma_matrix(c, basis)
    size = len(basis)
    nil = [[(mat[i][j] - (i == j)) % p for j in range(size)] for i in range(size)]
    power = [[1 if i == j else 0 for j in range(size)] for i in range(size)]
    for _ in range(p):
        power = [[sum(power[i][k] * nil[k][j] for k in range(size)) % p
                  for j in range(size)] for i in range(size)]
    assert all(all(x == 0 for x in row) for row in power)


def test_jordan_type_fixtures():
    assert jordan_type(ASCurve(2, 3), 4) == Decomposition.from_dict({1: 2, 2: 1})
    assert jordan_type(ASCurve(3, 2), 5) == Decomposition.from_dict({2: 1, 3: 1})
    assert jordan_type(ASCurve(2, 3), 6) == Decomposition.from_dict({1: 2, 2: 2})


def test_jordan_type_degree_precondition():
    with pytest.raises(DegreeTooSmall):
        jordan_type(ASCurve(2, 3), 0)


@pytest.mark.parametrize("p,m", [(2, 3), (3, 2), (2, 7), (5, 3)])
def test_jordan_blocks_bounded_by_p_and_total_dim(p, m):
    c = ASCurve(p, m)
    for n in range(max(0, 2 * c.genus - 1), 20):
        dec = jordan_type(c, n)
        assert all(s <= p for s, _ in dec.mult)
        assert dec.total_dim() == len(riemann_roch_basis(c, n))


def test_rank_sequence_strictly_decreasing():
    from galmod.as_oracle import sigma_matrix as sm
    c = ASCurve(3, 2)
    basis = riemann_roch_basis(c, 8)
    mat = sm(c, basis)
    size = len(basis)
    nil = [[(mat[i][j] - (i == j)) % 3 for j in range(size)] for i in range(size)]
    ranks = [size]
    power = nil
    while ranks[-1] > 0:
        ranks.append(_rank_mod_p(power, 3))
        power = [[sum(power[i][k] * nil[k][j] for k in range(size)) % 3
                  for j in range(size)] for i in range(size)]
    assert all(a > b for a, b in zip(ranks, ranks[1:]))


def test_to_tower_is_strict_valid():
    from galmod.cover_tower import validate_strict
    for p in (2, 3, 5):
        for m in range(1, 10):
            if m % p == 0:
                continue
            assert validate_strict(to_tower(ASCurve(p, m))[0]).ok


def test_to_tower_examples():
    tower, divisor = to_tower(ASCurve(2, 3))
    assert tower.genus(0) == 1 and tower.genus(1) == 0
    assert tower.orbits[0].jumps == (3,)
    d = divisor(4)
    assert d.coeff("P_inf") == 4 and d.base_degree == 0
    assert to_tower(ASCurve(3, 2))[0].genus(0) == 1
    assert to_tower(ASCurve(2, 1))[0].genus(0) == 0


@pytest.mark.parametrize("p", [2, 3])
def test_oracle_matches_engine_small_sweep(p):
    for m in range(1, 8):
        if m % p == 0:
            continue
        c = ASCurve(p, m)
        tower, divisor = to_tower(c)
        for n in range(max(0, 2 * c.genus - 1), 16):
            engine = decompose_closed_form(divisor(n), tower).decomposition
            assert engine == jordan_type(c, n), (p, m, n)


def test_jordan_type_of_matrix_single_block():
    # sigma on the radical (sigma - 1)V_4 of the regular Z/4-module over F_2
    # is a single Jordan block of size 3
    j3 = [[1, 1, 0], [0, 1, 1], [0, 0, 1]]
    assert jordan_type_of_matrix(j3, 2) == Decomposition.from_dict({3: 1})
