"""Exact linear algebra: Smith form, kernels, lattices.

The independent oracles here are determinant expansion over explicit
index combinations (minors) and brute-force lattice enumeration; the
Smith routine is never used to check itself.
"""

import hashlib
import random
from itertools import combinations, product
from math import gcd, prod

import pytest

from abcat.errors import InputError
from abcat.intmat import (ColumnLattice, IntMatrix, hstack,
                          kernel_basis, lattice_invariants, preimage_basis,
                          smith, smith_diagonal, smith_normal_form,
                          solve_many, vstack, xgcd)
from abcat.sampling import random_matrix as sample_matrix
from cat_corpus import determinant


def minors_gcd(m: IntMatrix, k: int) -> int:
    """gcd of all k x k minors, via explicit determinant expansion."""
    best = 0
    for rows in combinations(range(m.rows), k):
        for cols in combinations(range(m.cols), k):
            sub = IntMatrix([[m.data[i][j] for j in cols] for i in rows])
            best = gcd(best, determinant(sub))
    return best


def test_xgcd_bezout():
    for a, b in [(12, 18), (0, 0), (-4, 6), (7, 0), (0, -5), (270, 192)]:
        g, s, t = xgcd(a, b)
        assert s * a + t * b == g
        assert g == gcd(a, b)
        assert g >= 0


def test_matrix_basics():
    m = IntMatrix([[1, 2], [3, 4]])
    assert (m @ IntMatrix.identity(2)) == m
    assert m.column(1) == (2, 4)
    assert m.transpose().data == ((1, 3), (2, 4))
    assert (m - m).is_zero()
    empty = IntMatrix.zeros(2, 0)
    assert hstack(m, empty) == m
    assert vstack(IntMatrix.zeros(0, 2), m) == m


@pytest.mark.parametrize("rows,cols", [(0, 3), (3, 0), (0, 0)])
def test_transpose_of_empty_matrices(rows, cols):
    t = IntMatrix.zeros(rows, cols).transpose()
    assert t == IntMatrix.zeros(cols, rows)
    assert t.transpose() == IntMatrix.zeros(rows, cols)


def test_determinant_known_values():
    assert determinant(IntMatrix.identity(3)) == 1
    assert determinant(IntMatrix([[2, 4], [6, 8]])) == -8
    assert determinant(IntMatrix([[0]])) == 0
    assert determinant(IntMatrix([], shape=(0, 0))) == 1


def test_smith_identity_and_zero():
    s, u, v = smith_normal_form(IntMatrix.identity(3))
    assert s == IntMatrix.identity(3)
    s, u, v = smith_normal_form(IntMatrix([[0]]))
    assert s.data == ((0,),)


def test_smith_2x2_example():
    # oracle: d1 = gcd of entries = 2; d1*d2 = |det| = 8, so d2 = 4
    m = IntMatrix([[2, 4], [6, 8]])
    assert minors_gcd(m, 1) == 2
    assert abs(determinant(m)) == 8
    s, u, v = smith_normal_form(m)
    assert s.data == ((2, 0), (0, 4))
    assert (u @ m @ v) == s
    assert abs(determinant(u)) == 1
    assert abs(determinant(v)) == 1


def random_matrix(rng, rows, cols, bound=20):
    return IntMatrix([[rng.randint(-bound, bound) for _ in range(cols)]
                      for _ in range(rows)])


def test_smith_random_suite():
    rng = random.Random(1009)
    for _ in range(60):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        m = random_matrix(rng, rows, cols)
        s, u, v = smith_normal_form(m)
        assert (u @ m @ v) == s
        assert abs(determinant(u)) == 1
        assert abs(determinant(v)) == 1
        diag = [s.data[i][i] for i in range(min(rows, cols))]
        for i in range(rows):
            for j in range(cols):
                if i != j:
                    assert s.data[i][j] == 0
        for a, b in zip(diag, diag[1:]):
            assert a >= 0
            if a:
                assert b % a == 0
            else:
                assert b == 0
        # invariant factor oracle via minors, for small k
        running = 1
        for k in range(1, min(rows, cols, 3) + 1):
            dk = minors_gcd(m, k)
            expected = diag[k - 1] * running
            assert dk == abs(expected)
            running = expected if expected else running


@pytest.mark.parametrize("shape,rank", [((n, n), n) for n in (1, 4, 8, 12)]
                         + [((n, n), n // 2) for n in (2, 6, 9, 12)]
                         + [((3, 7), 3), ((7, 3), 3), ((5, 12), 4), ((12, 5), 2),
                            ((0, 4), 0), ((4, 0), 0), ((6, 6), 0)])
def test_smith_transforms_from_the_hermite_basis(shape, rank):
    # M = A B has the given rank; S is the one smith() eliminates on M itself
    rng = random.Random(rank * 100 + shape[0] * 10 + shape[1])
    a = IntMatrix([[rng.randint(-5, 5) for _ in range(rank)] for _ in range(shape[0])],
                  shape=(shape[0], rank))
    b = IntMatrix([[rng.randint(-5, 5) for _ in range(shape[1])] for _ in range(rank)],
                  shape=(rank, shape[1]))
    m = a @ b
    s, u, v = smith_normal_form(m)
    assert s == smith(m).s
    assert u @ m @ v == s
    assert abs(determinant(u)) == 1 and abs(determinant(v)) == 1


def test_smith_inverses_track():
    rng = random.Random(7)
    for _ in range(20):
        m = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4), 9)
        d = smith(m)
        assert (d.u @ d.u_inv) == IntMatrix.identity(m.rows)
        assert (d.u_inv @ d.u) == IntMatrix.identity(m.rows)
        assert (d.v @ d.v_inv) == IntMatrix.identity(m.cols)
        assert (d.v_inv @ d.v) == IntMatrix.identity(m.cols)


# SHA-256 of (S, U, V, U^-1, V^-1) from smith() on the seeded (n+2) x n
# matrices sample_matrix(Random(n), n + 2, n, 9).  U and V are not unique,
# so these pin the exact sequence of elementary operations, and with it
# every emitted canonical-form map.
SMITH_FINGERPRINTS = {
    6: "cb579a7dde98e1b6f0a2d34e69ab70ec4321d0c120432eb53bdb0e21cc4a0ff1",
    7: "7e85e953d98bb50a4d1400f76d6dc1eb996be33c96d30db349dbb1c7d2b7afb4",
    8: "4365cf7f8b2cd3f717156a0ecc6d8476e2200eb6347f0ae19f0602d09cf7082d",
    9: "876fb51d207b436af4b08caa5b261390f79b51a00e36978bc6cb3c6f78f46ceb",
    10: "7d20fe70aec521cf695e92d9b05f0a741674a0570dfde11ccaa3c266e65de8cf",
    11: "9af857d4c0ea271bc29f30c11678d08dfd024a2cd18cdb73547e3d91e19a448b",
    12: "ff8766076eea9f2d33a4d31936b0f988ba1878375b412a65cd0c23905f20a61b",
    13: "cbd28ad7c41c8289af454e456dfd8f6887e15b3dbf618e189ec3515e7c1db74b",
    14: "4234258f568d4bd2fee7ab6a2f29a71809086387af4d512cd36f227134893bf0",
    15: "313c5a326960d6cec510af2dee1df28fdf2cadcf8f0e95e03e3fbcc1f47f1254",
    16: "9dc446eb2f4cfa127c88786b7cf74d3821e0248fd42f7a022a07c4c6cd2fd2db",
}


@pytest.mark.parametrize("n", sorted(SMITH_FINGERPRINTS))
def test_smith_transforms_are_pinned(n):
    d = smith(sample_matrix(random.Random(n), n + 2, n, 9))
    digest = hashlib.sha256()
    for mat in (d.s, d.u, d.v, d.u_inv, d.v_inv):
        digest.update(repr(mat.shape).encode())
        for row in mat.data:
            digest.update(",".join(map(hex, row)).encode() + b";")
    assert digest.hexdigest() == SMITH_FINGERPRINTS[n]


@pytest.mark.parametrize("n", [1, 2, 5, 10, 20, 30, 40, 60])
def test_smith_diagonal_product_is_the_determinant(n):
    # oracle: Bareiss elimination, which shares no code with either route
    rng = random.Random(4000 + n)
    m = sample_matrix(rng, n, n, 9)
    while determinant(m) == 0:
        m = sample_matrix(rng, n, n, 9)
    diag = smith_diagonal(m)
    assert len(diag) == n
    assert prod(diag) == abs(determinant(m))
    assert all(b % a == 0 for a, b in zip(diag, diag[1:]))


@pytest.mark.parametrize("rows,cols", [(0, 3), (3, 0), (0, 0), (4, 6), (6, 4), (5, 5)])
def test_smith_diagonal_length_on_degenerate_shapes(rows, cols):
    rng = random.Random(31 * rows + cols)
    # rank at most 2: every column is a combination of two random columns
    gens = [[rng.randint(-9, 9) for _ in range(rows)] for _ in range(2)]
    columns = []
    for _ in range(cols):
        a, b = rng.randint(-3, 3), rng.randint(-3, 3)
        columns.append([a * x + b * y for x, y in zip(*gens)])
    m = IntMatrix.from_columns(columns, rows)
    diag = smith_diagonal(m)
    assert len(diag) == min(rows, cols)
    assert diag == tuple(smith(m).s.data[i][i] for i in range(min(rows, cols)))
    assert sum(1 for d in diag if d) <= 2


def random_unimodular(rng, n, ops=6):
    """The identity changed by row additions with coefficient +-1 and swaps."""
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(ops if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        if rng.randrange(2):
            q = rng.choice((-1, 1))
            rows[i] = [x + q * y for x, y in zip(rows[i], rows[j])]
        else:
            rows[i], rows[j] = rows[j], rows[i]
    return IntMatrix(rows)


def test_lattice_invariants_matches_smith():
    rng = random.Random(2027)
    for _ in range(80):
        rows = rng.randint(1, 6)
        cols = rng.randint(0, 7)
        m = random_matrix(rng, rows, cols, 6)
        p = random_unimodular(rng, rows)
        # a cokernel's relations: M beside a unimodular map, or part of one
        part = IntMatrix.from_columns(list(p.columns())[1:], rows)
        for rel in (m, hstack(m, p), hstack(m, part)):
            free, factors = lattice_invariants(rel)
            diag = smith_diagonal(rel)
            rank = sum(1 for x in diag if x)
            assert free == rows - rank
            assert factors == tuple(x for x in diag if x >= 2)
        assert lattice_invariants(hstack(m, p)) == (0, ())


def test_lattice_invariants_unit_pair_heavy():
    cols = [(1, -1, 0, 0), (0, 1, -1, 0), (0, 0, 1, 1), (2, 0, 0, 0)]
    m = IntMatrix.from_columns(cols, 4)
    diag = smith_diagonal(m)
    expected = (4 - sum(1 for x in diag if x), tuple(x for x in diag if x >= 2))
    assert lattice_invariants(m) == expected == (0, (2,))


def assert_hermite(basis: IntMatrix):
    """Positive pivots in increasing rows, and every other entry at a
    pivot row reduced into [0, pivot)."""
    columns = list(basis.columns())
    pivots = [next(i for i, x in enumerate(c) if x) for c in columns]
    assert pivots == sorted(set(pivots))
    for j, p in enumerate(pivots):
        assert columns[j][p] > 0
        for k, other in enumerate(columns):
            if k != j:
                assert 0 <= other[p] < columns[j][p]


def smith_preimage(m: IntMatrix, lattice: IntMatrix) -> IntMatrix:
    """Oracle for preimage_basis by the Smith route: the kernel columns of
    V for hstack(M, L), their top m.cols rows Hermite-reduced."""
    combined = hstack(m, lattice)
    d = smith(combined)
    rank = sum(1 for i in range(min(combined.shape)) if d.s.data[i][i])
    kernel = [d.v.column(j)[: m.cols] for j in range(rank, combined.cols)]
    return ColumnLattice(m.cols, kernel).basis_matrix()


def test_kernel_basis():
    m = IntMatrix([[1, 1]])
    kb = kernel_basis(m)
    assert kb.cols == 1
    assert (m @ kb).is_zero()
    assert kernel_basis(IntMatrix.zeros(0, 3)) == IntMatrix.identity(3)
    assert kernel_basis(IntMatrix.zeros(2, 0)) == IntMatrix.zeros(0, 0)
    rng = random.Random(11)
    for _ in range(30):
        m = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 5), 8)
        kb = kernel_basis(m)
        assert (m @ kb).is_zero()
        # columns are independent: their Smith diagonal has full rank
        if kb.cols:
            assert sum(1 for x in smith_diagonal(kb) if x) == kb.cols
        assert_hermite(kb)
        assert kb == smith_preimage(m, IntMatrix.zeros(m.rows, 0))


def test_solve_and_solve_many():
    m = IntMatrix([[2, 0], [0, 3]])
    assert solve_many(m, [(4, 9)]).data == ((2,), (3,))
    # one inconsistent column makes the whole system unsolvable
    assert solve_many(m, [(1, 0)]) is None
    assert solve_many(m, [(4, 9), (1, 0)]) is None
    assert solve_many(m, []) == IntMatrix.zeros(2, 0)
    with pytest.raises(InputError):
        solve_many(m, [(4, 9, 0)])
    # rank-deficient: some solution, not a unique one
    deficient = IntMatrix([[1, 2, 3], [2, 4, 6]])
    sols = solve_many(deficient, [(3, 6), (0, 0)])
    assert [deficient.apply(c) for c in sols.columns()] == [(3, 6), (0, 0)]
    assert solve_many(deficient, [(1, 1)]) is None
    # no rows: every x solves, and 0 is returned; no columns: only b == 0
    assert solve_many(IntMatrix.zeros(0, 2), [(), ()]) == IntMatrix.zeros(2, 2)
    assert solve_many(IntMatrix.zeros(2, 0), [(0, 0)]) == IntMatrix.zeros(0, 1)
    assert solve_many(IntMatrix.zeros(2, 0), [(0, 1)]) is None
    rng = random.Random(13)
    for _ in range(30):
        m = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4), 6)
        xs = [[rng.randint(-5, 5) for _ in range(m.cols)] for _ in range(2)]
        bs = [m.apply(x) for x in xs]
        sols = solve_many(m, bs)
        assert sols is not None
        assert [m.apply(c) for c in sols.columns()] == bs
        # independent columns: the solution is the unique one
        kb = kernel_basis(m)
        if kb.cols:
            coeffs = [rng.randint(-5, 5) for _ in range(kb.cols)]
            assert solve_many(kb, [kb.apply(coeffs)]).column(0) == tuple(coeffs)


def brute_force_membership(columns, vec, bound):
    """Oracle: search small integer combinations of the columns."""
    if not columns:
        return all(x == 0 for x in vec)
    for coeffs in product(range(-bound, bound + 1), repeat=len(columns)):
        candidate = [sum(c * col[i] for c, col in zip(coeffs, columns))
                     for i in range(len(vec))]
        if candidate == list(vec):
            return True
    return False


def test_column_lattice_membership_against_enumeration():
    rng = random.Random(17)
    for _ in range(25):
        dim = rng.randint(1, 3)
        ncols = rng.randint(1, 3)
        columns = [[rng.randint(-2, 2) for _ in range(dim)] for _ in range(ncols)]
        lat = ColumnLattice(dim, columns)
        for _ in range(8):
            vec = [rng.randint(-4, 4) for _ in range(dim)]
            # a positive brute-force result must be confirmed; with a wide
            # bound the negative direction is checked via a definite member
            if brute_force_membership(columns, vec, 6):
                assert lat.contains(vec)
        coeffs = [rng.randint(-3, 3) for _ in range(ncols)]
        member = [sum(c * col[i] for c, col in zip(coeffs, columns))
                  for i in range(dim)]
        assert lat.contains(member)
        if not brute_force_membership(columns, [1] + [0] * (dim - 1), 8):
            assert not lat.contains([1] + [0] * (dim - 1))


def test_column_lattice_basis_spans():
    rng = random.Random(19)
    for _ in range(20):
        dim = rng.randint(1, 4)
        cols = [[rng.randint(-3, 3) for _ in range(dim)] for _ in range(rng.randint(1, 5))]
        lat = ColumnLattice(dim, cols)
        basis = lat.basis_matrix()
        relat = ColumnLattice(dim, list(basis.columns()))
        for col in cols:
            assert relat.contains(col)
        for j in range(basis.cols):
            assert lat.contains(basis.column(j))
        # Hermite normal form, and the basis independent of order
        assert_hermite(basis)
        shuffled = cols[:]
        rng.shuffle(shuffled)
        assert ColumnLattice(dim, shuffled).basis_matrix() == basis
        combos = []
        for _ in range(3):
            coeffs = [rng.randint(-4, 4) for _ in cols]
            combos.append([sum(k * c[i] for k, c in zip(coeffs, cols)) for i in range(dim)])
        assert ColumnLattice(dim, shuffled + combos).basis_matrix() == basis


def test_preimage_basis_characterizes_membership():
    rng = random.Random(23)
    for _ in range(20):
        n = rng.randint(1, 3)
        rows = rng.randint(1, 3)
        m = random_matrix(rng, rows, n, 3)
        lat_cols = [[rng.randint(-2, 2) for _ in range(rows)] for _ in range(rng.randint(0, 2))]
        lattice = (IntMatrix.from_columns(lat_cols, rows) if lat_cols
                   else IntMatrix.zeros(rows, 0))
        basis = preimage_basis(m, lattice)
        lat = ColumnLattice(rows, lat_cols)
        span = ColumnLattice(n, list(basis.columns()))
        # every basis column maps into the lattice
        for j in range(basis.cols):
            assert lat.contains(m.apply(basis.column(j)))
        # every small vector that maps into the lattice lies in the span
        for candidate in product(range(-2, 3), repeat=n):
            if lat.contains(m.apply(candidate)):
                assert span.contains(candidate)
        assert_hermite(basis)
        assert basis == smith_preimage(m, lattice)


def test_shape_errors():
    from abcat.errors import InputError
    with pytest.raises(InputError):
        IntMatrix([[1, 2], [3]])
    with pytest.raises(InputError):
        IntMatrix([[1]]) @ IntMatrix([[1, 2], [3, 4]])


@pytest.mark.parametrize("refuse, message", [
    (lambda: IntMatrix.from_columns([(1, 2), (3,)], 2), "column of length 1, expected 2"),
    (lambda: IntMatrix([[1]]) + IntMatrix([[1, 2]]), "shape mismatch (1, 1) vs (1, 2)"),
    (lambda: IntMatrix([[1, 2]]).apply([1]), "vector of length 1, expected 2"),
    (lambda: hstack(), "hstack of no matrices"),
    (lambda: hstack(IntMatrix([[1]]), IntMatrix([[1], [2]])), "hstack row mismatch"),
    (lambda: vstack(), "vstack of no matrices"),
    (lambda: vstack(IntMatrix([[1]]), IntMatrix([[1, 2]])), "vstack column mismatch"),
    (lambda: ColumnLattice(2).residue([1]), "column of length 1, expected 2"),
    (lambda: preimage_basis(IntMatrix([[1]]), IntMatrix([[1], [2]])),
     "row mismatch between map and lattice"),
], ids=["from_columns", "add", "apply", "hstack_none", "hstack_rows", "vstack_none",
        "vstack_cols", "residue", "preimage_rows"])
def test_shape_guards_name_what_they_refuse(refuse, message):
    with pytest.raises(InputError) as refused:
        refuse()
    assert str(refused.value) == message
