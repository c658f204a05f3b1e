import operator
import random
from collections import Counter

import pytest

from galmod import as_oracle
from galmod.as_oracle import (
    ASCurve,
    jordan_type,
    jordan_type_of_matrix,
    riemann_roch_basis,
    sigma_matrix,
    to_tower,
)
from galmod.cyclic_rep import Decomposition, from_simple_basis
from galmod.decomposition import decompose_closed_form, euler_characteristic
from galmod.errors import DegreeTooSmall, ValidationError
from mutants import patch_everywhere


# The dense reference: rank of every power of N = M - I, each power formed
# by an n x n matrix product.


def dense_rank(mat, p):
    a = [row[:] for row in mat]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    rank = 0
    for col in range(cols):
        pivot = next((r for r in range(rank, rows) if a[r][col] % p != 0), None)
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        inv = pow(a[rank][col] % p, -1, p)
        a[rank] = [(x * inv) % p for x in a[rank]]
        for r in range(rows):
            if r != rank and a[r][col] % p != 0:
                f = a[r][col] % p
                a[r] = [(x - f * y) % p for x, y in zip(a[r], a[rank])]
        rank += 1
        if rank == rows:
            break
    return rank


def dense_rank_sequence(mat, p):
    """[rank N^0, rank N^1, ...] up to the first zero."""
    size = len(mat)
    nil = [[(mat[i][j] - (i == j)) % p for j in range(size)]
           for i in range(size)]
    nil_cols = list(zip(*nil))
    ranks = [size]
    power = nil
    while ranks[-1] > 0:
        ranks.append(dense_rank(power, p))
        power = [[sum(map(operator.mul, row, col)) % p for col in nil_cols]
                 for row in power]
    return ranks


def dense_jordan_type(mat, p):
    ranks = dense_rank_sequence(mat, p) + [0]
    return Decomposition.from_dict(
        {s: ranks[s - 1] - 2 * ranks[s] + ranks[s + 1]
         for s in range(1, len(ranks) - 1)})


def conjugated_unipotent(blocks, p, rng):
    """P J P^-1 for J the direct sum of unipotent Jordan blocks of the given
    sizes and P a random product of elementary matrices over F_p."""
    size = sum(blocks)
    mat = [[int(i == j) for j in range(size)] for i in range(size)]
    start = 0
    for b in blocks:
        for i in range(start, start + b - 1):
            mat[i][i + 1] = 1
        start += b
    for _ in range(3 * size * size if size > 1 else 0):
        a, b = rng.sample(range(size), 2)
        c = rng.randrange(1, p)
        # row a += c row b, then column b -= c column a: conjugation by
        # I + c E_ab
        mat[a] = [(x + c * y) % p for x, y in zip(mat[a], mat[b])]
        for row in mat:
            row[b] = (row[b] - c * row[a]) % p
    return mat


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
    c = ASCurve(3, 2)
    mat = sigma_matrix(c, riemann_roch_basis(c, 8))
    ranks = dense_rank_sequence(mat, 3)
    assert all(a > b for a, b in zip(ranks, ranks[1:]))
    assert jordan_type_of_matrix(mat, 3) == dense_jordan_type(mat, 3)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_jordan_type_of_matrix_on_random_conjugates(p):
    # block sizes up to 9 exceed p: the routine is generic linear algebra,
    # not a count of the sigma-stable blocks of the Artin-Schreier basis
    rng = random.Random(p)
    for _ in range(15):
        blocks = [rng.randint(1, 9) for _ in range(rng.randint(1, 5))]
        mat = conjugated_unipotent(blocks, p, rng)
        expected = Decomposition.from_dict(dict(Counter(blocks)))
        assert jordan_type_of_matrix(mat, p) == expected, blocks
        assert dense_jordan_type(mat, p) == expected, blocks


def test_jordan_type_of_matrix_rejects_non_unipotent():
    with pytest.raises(ValidationError):
        jordan_type_of_matrix([[1, 1], [0, 2]], 3)


def test_to_tower_is_strict_valid():
    from galmod.cover_tower import validate_strict
    for p in (2, 3, 5):
        for m in range(1, 10):
            if m % p == 0:
                continue
            assert validate_strict(to_tower(ASCurve(p, m))[0]) == ()


def test_to_tower_examples():
    tower, divisor = to_tower(ASCurve(2, 3))
    assert tower.genus(0) == 1 and tower.genus(1) == 0
    assert tower.orbits[0].jumps == (3,)
    d = divisor(4)
    assert d.orbit_coeffs == (("P_inf", 4),) and d.base_degree == 0
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


@pytest.mark.parametrize("mat", [[[1, 0], [0]],
                                 [[1, 0], [0, 1], [0, 0]],
                                 [[1, 1, 0], [0, 1, 1]]])
def test_jordan_type_of_matrix_rejects_non_square(mat):
    with pytest.raises(ValidationError, match="not square"):
        jordan_type_of_matrix(mat, 2)


def test_jordan_type_of_matrix_degenerate_sizes():
    assert jordan_type_of_matrix([], 3) == Decomposition.from_dict({})
    assert jordan_type_of_matrix([[1]], 3) == Decomposition.from_dict({1: 1})


# Sizes beyond the tests above, each checked against the dense reference.


@pytest.mark.parametrize("p,mat,blocks", [
    (2, [[int(i == j) for j in range(40)] for i in range(40)], {1: 40}),
    # one block far larger than p: sixty image steps before the image is 0
    (5, [[int(j in (i, i + 1)) for j in range(60)] for i in range(60)],
     {60: 1}),
], ids=["identity-40", "block-60"])
def test_jordan_type_of_matrix_large_known_types(p, mat, blocks):
    expected = Decomposition.from_dict(blocks)
    assert jordan_type_of_matrix(mat, p) == expected
    assert dense_jordan_type(mat, p) == expected


@pytest.mark.parametrize("p,size", [(2, 50), (3, 65), (5, 80)])
def test_jordan_type_of_matrix_large_conjugates(p, size):
    rng = random.Random(size)
    blocks = []
    while sum(blocks) < size:
        blocks.append(min(rng.randint(1, 9), size - sum(blocks)))
    mat = conjugated_unipotent(blocks, p, rng)
    expected = Decomposition.from_dict(dict(Counter(blocks)))
    assert jordan_type_of_matrix(mat, p) == expected, blocks
    assert dense_jordan_type(mat, p) == expected, blocks


# N = M - I splits into invariant blocks along the connected components of
# its nonzero pattern; these matrices hide the blocks behind a permutation.


def interleaved_direct_sum(parts, rng):
    """The direct sum of the square matrices `parts`, conjugated by a random
    permutation so that the blocks' indices interleave."""
    size = sum(map(len, parts))
    total = [[0] * size for _ in range(size)]
    start = 0
    for part in parts:
        for i, row in enumerate(part):
            total[start + i][start:start + len(row)] = row
        start += len(part)
    perm = rng.sample(range(size), size)
    return [[total[a][b] for b in perm] for a in perm]


@pytest.mark.parametrize("p", [2, 3, 5])
def test_jordan_type_of_matrix_on_interleaved_blocks(p):
    rng = random.Random(10 + p)
    for _ in range(10):
        sizes = [[rng.randint(1, 7) for _ in range(rng.randint(1, 3))]
                 for _ in range(rng.randint(2, 5))]
        mat = interleaved_direct_sum(
            [conjugated_unipotent(blocks, p, rng) for blocks in sizes], rng)
        expected = Decomposition.from_dict(
            dict(Counter(b for blocks in sizes for b in blocks)))
        assert jordan_type_of_matrix(mat, p) == expected, sizes
        assert dense_jordan_type(mat, p) == expected, sizes


@pytest.mark.parametrize("p", [2, 3, 5])
def test_jordan_type_of_matrix_reads_zero_diagonal_entries(p):
    # I + u v^T with u = (1, 1), v = (-1, 1): v.u = 0, so N is nilpotent of
    # rank 1, and M_00 = 0, i.e. N_00 = -1
    zero_corner = [[0, 1], [p - 1, 2 % p]]
    rng = random.Random(p)
    mat = interleaved_direct_sum(
        [conjugated_unipotent([3, 1], p, rng), zero_corner,
         conjugated_unipotent([2], p, rng)], rng)
    assert any(mat[i][i] == 0 for i in range(len(mat)))
    expected = Decomposition.from_dict({1: 1, 2: 2, 3: 1})
    assert jordan_type_of_matrix(mat, p) == expected
    assert dense_jordan_type(mat, p) == expected


@pytest.mark.parametrize("p", [2, 3, 5])
def test_jordan_type_of_matrix_rejects_one_non_unipotent_block(p):
    # x^2 - x - 1 is never (x - 1)^2 over F_p
    rng = random.Random(p)
    mat = interleaved_direct_sum(
        [conjugated_unipotent([2, 2], p, rng), [[0, 1], [1, 1]],
         conjugated_unipotent([3], p, rng)], rng)
    with pytest.raises(ValidationError, match="matrix is not unipotent"):
        jordan_type_of_matrix(mat, p)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_rank_chain_vectors_are_no_longer_than_p(monkeypatch, p):
    # sigma moves no exponent of x, so on the monomial basis no invariant
    # block of N, and no vector the rank chain echelonizes, is longer than
    # p, while dim here reaches 63
    lengths = []

    def recording(original):
        def _echelon_mod_p(vectors, q):
            lengths.extend(map(len, vectors))
            return original(vectors, q)
        return _echelon_mod_p

    patch_everywhere(monkeypatch, "_echelon_mod_p", recording, (as_oracle,))
    for m in range(1, 10):
        if m % p:
            jordan_type(ASCurve(p, m), 62)
    assert lengths and max(lengths) <= p


def oracle_sweep():
    """Every (curve, n) of `galmod oracle --m-max 9 --n-max 62` at p = 2,
    3 and 5: 1,023 calls, dim up to 63."""
    return [(c, n) for p in (2, 3, 5) for m in range(1, 10) if m % p
            for c in [ASCurve(p, m)]
            for n in range(max(2 * c.genus - 1, 0), 63)]


def test_jordan_type_builds_no_dense_matrix(monkeypatch):
    # sigma - 1 comes straight from the basis as its nonzero entries, so the
    # dense matrix and its dim^2 scan are not on this path at all
    def refuse(original):
        def dense(*args):
            raise AssertionError(f"{original.__name__} called")
        return dense

    for name in ("sigma_matrix", "jordan_type_of_matrix"):
        patch_everywhere(monkeypatch, name, refuse, (as_oracle,))
    sweep = oracle_sweep()
    assert len(sweep) == 1023
    for c, n in sweep:
        dec = jordan_type(c, n)
        assert dec.total_dim() == len(riemann_roch_basis(c, n))
        assert all(s <= c.p for s, _ in dec.mult)


def test_jordan_type_matches_the_dense_entry_point():
    for c, n in oracle_sweep():
        mat = sigma_matrix(c, riemann_roch_basis(c, n))
        assert jordan_type(c, n) == jordan_type_of_matrix(mat, c.p), (c, n)


def test_euler_below_the_gate_is_not_h0_minus_h1():
    # y^2 - y = x is P^1, with K = div(dx) = -2 P_inf fixed by sigma; for
    # D = -2 P_inf, H^0(D) = 0 and H^1(D) = H^0(K - D)^dual = H^0(0 P_inf)
    c = ASCurve(2, 1)
    tower, divisor = to_tower(c)
    h1 = jordan_type(c, 2 * c.genus - 2 - (-2))
    assert h1 == Decomposition.from_dict({1: 1})
    euler = from_simple_basis(euler_characteristic(divisor(-2), tower),
                              tower.group)
    # [H^0] - [H^1] = -V_1, but the vector reads V_1 - V_2
    assert euler.coords == (1, -1)
