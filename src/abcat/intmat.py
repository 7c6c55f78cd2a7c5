"""Exact integer matrices: Hermite column lattices and Smith normal form.

Everything works with Python's arbitrary-precision integers; there is no
floating point anywhere.  Column lattices are kept in Hermite normal
form, so each entry of a lattice basis at a pivot row lies below that
row's pivot, and the basis does not depend on the generators' order.
Kernels, preimages and solves all read one such lattice: the columns
(M_j; e_j) of the graph of M, with (L_k; 0) for a target lattice L.
The Smith diagonal is eliminated from the Hermite basis, whose entries
stay below their pivots; ``lattice_invariants`` takes a basis its caller
already keeps, and ``smith_normal_form`` runs Smith with transforms on
the Hermite basis too.  ``smith`` eliminates the matrix it is given.
Its pivoting always picks a nonzero entry of smallest absolute value
(ties broken by position), which makes every transform deterministic
but does not bound their growth: on a raw 18 x 16 matrix with entries
of absolute value at most 9 they reach about 9,600 bits.
"""

from __future__ import annotations

from itertools import chain

from .errors import InputError


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended gcd: return (g, s, t) with s*a + t*b == g == gcd(a, b) >= 0.

    >>> xgcd(12, 18)
    (6, -1, 1)
    >>> xgcd(0, 0)
    (0, 1, 0)
    """
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


class IntMatrix:
    """Immutable integer matrix stored as a tuple of row tuples.

    Zero-row and zero-column matrices are legal; pass ``shape`` to build
    them since the dimensions cannot be inferred from empty data.
    """

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data, shape=None):
        data = tuple(tuple(int(x) for x in row) for row in data)
        if shape is None:
            rows = len(data)
            cols = len(data[0]) if rows else 0
        else:
            rows, cols = shape
        if len(data) != rows:
            raise InputError(f"expected {rows} rows, got {len(data)}")
        for i, row in enumerate(data):
            if len(row) != cols:
                raise InputError(f"row {i} has {len(row)} entries, expected {cols}")
        self.rows = rows
        self.cols = cols
        self.data = data

    @classmethod
    def _trusted(cls, data: tuple, rows: int, cols: int) -> "IntMatrix":
        """Wrap a tuple of int row tuples of the given shape, unchecked.

        For matrices assembled inside the library from entries that are
        already ints; outside input goes through the checked constructor.
        """
        m = object.__new__(cls)
        m.rows = rows
        m.cols = cols
        m.data = data
        return m

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        return cls._trusted(((0,) * cols,) * rows, rows, cols)

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls._trusted(tuple((0,) * i + (1,) + (0,) * (n - i - 1) for i in range(n)), n, n)

    @classmethod
    def from_columns(cls, columns, rows: int) -> "IntMatrix":
        columns = [tuple(int(x) for x in c) for c in columns]
        for c in columns:
            if len(c) != rows:
                raise InputError(f"column of length {len(c)}, expected {rows}")
        data = tuple(zip(*columns)) if columns else ((),) * rows
        return cls._trusted(data, rows, len(columns))

    @property
    def shape(self):
        return (self.rows, self.cols)

    def entry(self, i: int, j: int) -> int:
        return self.data[i][j]

    def column(self, j: int) -> tuple:
        return tuple(row[j] for row in self.data)

    def columns(self):
        return zip(*self.data) if self.rows else iter(((),) * self.cols)

    def transpose(self) -> "IntMatrix":
        return IntMatrix(tuple(zip(*self.data)) if self.rows else ((),) * self.cols,
                         shape=(self.cols, self.rows))

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.data for x in row)

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise InputError(f"cannot multiply {self.shape} by {other.shape}")
        cols = other.cols
        out = []
        for row in self.data:
            acc = [0] * cols
            for x, other_row in zip(row, other.data):
                if x:
                    acc = [a + x * y for a, y in zip(acc, other_row)]
            out.append(tuple(acc))
        return IntMatrix._trusted(tuple(out), self.rows, cols)

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        if self.shape != other.shape:
            raise InputError(f"shape mismatch {self.shape} vs {other.shape}")
        return IntMatrix(tuple(tuple(a + b for a, b in zip(r1, r2))
                               for r1, r2 in zip(self.data, other.data)),
                         shape=self.shape)

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        return self + (-other)

    def __neg__(self) -> "IntMatrix":
        return IntMatrix(tuple(tuple(-a for a in row) for row in self.data), shape=self.shape)

    def apply(self, vec) -> tuple:
        """Matrix-vector product."""
        vec = tuple(vec)
        if len(vec) != self.cols:
            raise InputError(f"vector of length {len(vec)}, expected {self.cols}")
        return tuple(sum(row[k] * vec[k] for k in range(self.cols)) for row in self.data)

    def __eq__(self, other):
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return self.shape == other.shape and self.data == other.data

    def __hash__(self):
        return hash((self.rows, self.cols, self.data))

    def __repr__(self):
        return f"IntMatrix({list(map(list, self.data))!r}, shape={self.shape})"


def hstack(*mats: IntMatrix) -> IntMatrix:
    mats = [m for m in mats]
    if not mats:
        raise InputError("hstack of no matrices")
    rows = mats[0].rows
    for m in mats:
        if m.rows != rows:
            raise InputError("hstack row mismatch")
    data = tuple(tuple(chain.from_iterable(m.data[i] for m in mats)) for i in range(rows))
    return IntMatrix._trusted(data, rows, sum(m.cols for m in mats))


def vstack(*mats: IntMatrix) -> IntMatrix:
    mats = [m for m in mats]
    if not mats:
        raise InputError("vstack of no matrices")
    cols = mats[0].cols
    for m in mats:
        if m.cols != cols:
            raise InputError("vstack column mismatch")
    data = tuple(row for m in mats for row in m.data)
    return IntMatrix._trusted(data, len(data), cols)


def block_diagonal(mats) -> IntMatrix:
    mats = list(mats)
    rows = sum(m.rows for m in mats)
    cols = sum(m.cols for m in mats)
    out = [[0] * cols for _ in range(rows)]
    r0 = c0 = 0
    for m in mats:
        for i in range(m.rows):
            row = m.data[i]
            for j in range(m.cols):
                out[r0 + i][c0 + j] = row[j]
        r0 += m.rows
        c0 += m.cols
    return IntMatrix._trusted(tuple(tuple(r) for r in out), rows, cols)


class SmithNormalForm:
    """Decomposition U @ M @ V == S with U, V unimodular and S diagonal.

    The diagonal entries are nonnegative and each divides the next.
    Inverses of the transforms are tracked alongside, so change of basis
    both ways is a matrix multiplication.
    """

    __slots__ = ("s", "u", "v", "u_inv", "v_inv")

    def __init__(self, s, u, v, u_inv, v_inv):
        self.s = s
        self.u = u
        self.v = v
        self.u_inv = u_inv
        self.v_inv = v_inv


def _smith_work(m: IntMatrix, track: bool):
    """Smith elimination of ``m``.  U and V^-1 are kept by rows, U^-1 and V
    by columns; the rows and columns of ``a`` before step t are already
    clear, so no operation at step t touches them."""
    a = [list(row) for row in m.data]
    nr, nc = m.rows, m.cols
    if track:
        # transform rows and columns are replaced whole, so they can share tuples
        eye_r, eye_c = IntMatrix.identity(nr).data, IntMatrix.identity(nc).data
        u, ui, v, vi = list(eye_r), list(eye_r), list(eye_c), list(eye_c)

    def row_sub(i, k, q):
        ai, ak = a[i], a[k]
        for c in range(t, nc):
            if ak[c]:
                ai[c] -= q * ak[c]
        if track:
            u[i] = [x - q * y for x, y in zip(u[i], u[k])]
            ui[k] = [x + q * y for x, y in zip(ui[k], ui[i])]

    def row_swap(i, k):
        a[i], a[k] = a[k], a[i]
        if track:
            u[i], u[k] = u[k], u[i]
            ui[i], ui[k] = ui[k], ui[i]

    def col_sub(j, q):
        # column t is clear off row t, so only a[t][j] changes
        a[t][j] -= q * a[t][t]
        if track:
            v[j] = [x - q * y for x, y in zip(v[j], v[t])]
            vi[t] = [x + q * y for x, y in zip(vi[t], vi[j])]

    def col_swap(j):
        for r in range(t, nr):
            row = a[r]
            row[j], row[t] = row[t], row[j]
        if track:
            v[j], v[t] = v[t], v[j]
            vi[j], vi[t] = vi[t], vi[j]

    t = 0
    limit = min(nr, nc)
    while t < limit:
        best = None
        for i in range(t, nr):
            row = a[i]
            for j in range(t, nc):
                x = row[j]
                if x and (best is None or abs(x) < best[0]):
                    best = (abs(x), i, j)
                    if best[0] == 1:
                        break
            if best is not None and best[0] == 1:
                break
        if best is None:
            break
        _, bi, bj = best
        if bi != t:
            row_swap(bi, t)
        if bj != t:
            col_swap(bj)
        while True:
            at = a[t]
            if at[t] < 0:
                at[t:] = [-x for x in at[t:]]
                if track:
                    u[t] = [-x for x in u[t]]
                    ui[t] = [-x for x in ui[t]]
            p = at[t]
            restart = False
            for i in range(t + 1, nr):
                if a[i][t] == 0:
                    continue
                q = a[i][t] // p
                if q:
                    row_sub(i, t, q)
                if a[i][t]:
                    row_swap(i, t)
                    restart = True
                    break
            if restart:
                continue
            for j in range(t + 1, nc):
                if at[j] == 0:
                    continue
                q = at[j] // p
                if q:
                    col_sub(j, q)
                if at[j]:
                    col_swap(j)
                    restart = True
                    break
            if restart:
                continue
            if p == 1:
                break
            bad = next((i for i in range(t + 1, nr) if any(x % p for x in a[i][t + 1:])), None)
            if bad is None:
                break
            row_sub(t, bad, -1)
        t += 1
    if track:
        return a, u, list(zip(*v)), list(zip(*ui)), vi
    return a


def smith(m: IntMatrix) -> SmithNormalForm:
    """Full Smith decomposition with transforms and their inverses."""
    a, u, v, ui, vi = _smith_work(m, track=True)
    nr, nc = m.shape
    return SmithNormalForm(
        IntMatrix._trusted(tuple(map(tuple, a)), nr, nc),
        IntMatrix._trusted(tuple(map(tuple, u)), nr, nr),
        IntMatrix._trusted(tuple(map(tuple, v)), nc, nc),
        IntMatrix._trusted(tuple(map(tuple, ui)), nr, nr),
        IntMatrix._trusted(tuple(map(tuple, vi)), nc, nc),
    )


def smith_normal_form(m: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Return (S, U, V) with U @ M @ V == S.

    The Hermite basis of the graph lattice of M has columns (H_j; W_j)
    pivoting in the top rows, so M W = H, and kernel columns (0; K_j).
    Smith with transforms runs on H alone, whose entries stay below their
    pivots: U H V_H = S_H, and V = (W V_H | K).

    >>> s, u, v = smith_normal_form(IntMatrix([[2, 4], [6, 8]]))
    >>> s.data
    ((2, 0), (0, 4))
    >>> (u @ IntMatrix([[2, 4], [6, 8]]) @ v) == s
    True
    """
    r, n = m.shape
    cols = graph_lattice(m)._hermite_columns()
    top = [c for c in cols if any(c[:r])]
    d = smith(_trusted_columns([c[:r] for c in top], r))
    v = _trusted_columns([c[r:] for c in top], n) @ d.v
    v = hstack(v, _trusted_columns([c[r:] for c in cols[len(top):]], n))
    return hstack(d.s, IntMatrix.zeros(r, n - len(top))), d.u, v


def smith_diagonal(m: IntMatrix) -> tuple:
    """Diagonal of the Smith form, eliminated without transforms on the
    Hermite basis (same nonzero invariant factors, entries below their
    pivots, no growth), padded with zeros to min(rows, cols)."""
    basis = ColumnLattice(m.rows, m.columns()).basis_matrix()
    a = _smith_work(basis, track=False)
    return tuple(a[i][i] for i in range(basis.cols)) + (0,) * (min(m.shape) - basis.cols)


class ColumnLattice:
    """Integer column lattice kept as a column Hermite normal form.

    Supports membership tests, reduction of a column against the basis,
    and extraction of an independent basis.  The pivot row of every
    stored column is its first nonzero row, pivot rows are pairwise
    distinct, and every pivot is positive.  A column that ``add`` inserts
    or changes is reduced into [0, pivot) at each later pivot row;
    ``basis_matrix`` reduces the older columns at pivots that came after
    them, so its result is the unique Hermite basis of the lattice,
    whatever order the columns were added in (Kannan-Bachem 1979).
    """

    __slots__ = ("dim", "_cols", "_pivot_of")

    def __init__(self, dim: int, columns=()):
        self.dim = dim
        self._cols = []
        self._pivot_of = {}
        for c in columns:
            self.add(c)

    @staticmethod
    def _first_nonzero(v):
        for i, x in enumerate(v):
            if x:
                return i
        return None

    def _reduce_below(self, v, p):
        """Reduce v into [0, pivot) at each pivot row after row p, in place."""
        for r in range(p + 1, self.dim):
            x = v[r]
            if x:
                idx = self._pivot_of.get(r)
                if idx is not None:
                    b = self._cols[idx]
                    q = x // b[r]
                    if q:
                        for i in range(r, self.dim):
                            if b[i]:
                                v[i] -= q * b[i]
        return v

    def add(self, col) -> None:
        v = self.residue(col)
        while True:
            p = self._first_nonzero(v)
            if p is None:
                return
            idx = self._pivot_of.get(p)
            if idx is None:
                if v[p] < 0:
                    v = [-x for x in v]
                self._cols.append(self._reduce_below(v, p))
                self._pivot_of[p] = len(self._cols) - 1
                return
            # no multiple of the pivot column clears v at p: merge by xgcd
            b = self._cols[idx]
            a, c = b[p], v[p]
            g, s, t = xgcd(a, c)
            self._cols[idx] = self._reduce_below([s * x + t * y for x, y in zip(b, v)], p)
            v = self.residue([(a // g) * y - (c // g) * x for x, y in zip(b, v)])

    def residue(self, col, rows=None) -> list:
        """``col`` reduced at the pivot rows before ``rows`` (default: all).

        Each step clears the first nonzero entry with the basis column
        pivoting there, and stops at an entry that no pivot divides.  The
        first ``rows`` entries come out zero exactly when some lattice
        vector agrees with ``col`` on them.
        """
        v = [int(x) for x in col]
        if len(v) != self.dim:
            raise InputError(f"column of length {len(v)}, expected {self.dim}")
        for p in range(self.dim if rows is None else rows):
            x = v[p]
            if x:
                idx = self._pivot_of.get(p)
                if idx is None or x % self._cols[idx][p]:
                    break
                b = self._cols[idx]
                q = x // b[p]
                for i in range(p, self.dim):
                    if b[i]:
                        v[i] -= q * b[i]
        return v

    def contains(self, col) -> bool:
        return not any(self.residue(col))

    def _hermite_columns(self, start=0) -> list:
        """Copies of the Hermite basis columns pivoting at row ``start`` or
        later; the lattice itself is left unchanged."""
        return [self._reduce_below(list(self._cols[self._pivot_of[p]]), p)
                for p in sorted(self._pivot_of) if p >= start]

    def basis_matrix(self) -> IntMatrix:
        """The Hermite basis, columns in increasing pivot row."""
        return _trusted_columns(self._hermite_columns(), self.dim)

    def bottom_basis(self, top: int) -> IntMatrix:
        """Hermite basis of the lattice vectors whose first ``top`` entries
        vanish, those entries cut off: the basis columns pivoting below them."""
        return _trusted_columns([c[top:] for c in self._hermite_columns(top)], self.dim - top)

    def spans_top(self, top: int) -> bool:
        """Whether the lattice projects onto the first ``top`` coordinates.

        The basis columns pivoting there project to a triangular basis of
        the projection, which is all of Z^top exactly when each of those
        rows holds a pivot equal to 1.
        """
        cols, pivot_of = self._cols, self._pivot_of
        return all(p in pivot_of and cols[pivot_of[p]][p] == 1 for p in range(top))


def _trusted_columns(columns, rows: int) -> IntMatrix:
    """Wrap int columns of length ``rows`` as a matrix, unchecked."""
    return IntMatrix._trusted(tuple(zip(*columns)) if columns else ((),) * rows,
                              rows, len(columns))


def graph_lattice(m: IntMatrix, lattice_columns=()) -> ColumnLattice:
    """Lattice of the columns (M_j; e_j) and (L_k; 0), in m.rows + m.cols rows."""
    n = m.cols
    pad = (0,) * n
    lat = ColumnLattice(m.rows + n)
    # the basis is unique; adding the graph first is about twice as fast
    for j, col in enumerate(m.columns()):
        lat.add(col + pad[:j] + (1,) + pad[j + 1:])
    for col in lattice_columns:
        lat.add(col + pad)
    return lat


def preimage_basis(m: IntMatrix, lattice: IntMatrix) -> IntMatrix:
    """Hermite basis of {x : M x lies in the column lattice of `lattice`}.

    Both matrices must have the same number of rows.  The preimage is the
    bottom of the graph lattice's vectors whose top m.rows entries vanish,
    and those are spanned by its Hermite basis columns pivoting below the
    top.  The result has m.cols rows, with independent columns.

    >>> preimage_basis(IntMatrix([[1, 1], [0, 2]]), IntMatrix([[0], [4]])).data
    ((2,), (-2,))
    """
    if m.rows != lattice.rows:
        raise InputError("row mismatch between map and lattice")
    return graph_lattice(m, lattice.columns()).bottom_basis(m.rows)


def kernel_basis(m: IntMatrix) -> IntMatrix:
    """Hermite basis of the integer kernel {x : M x == 0}, as columns."""
    return preimage_basis(m, IntMatrix.zeros(m.rows, 0))


def solve_many(m: IntMatrix, columns) -> IntMatrix | None:
    """Solve M X == B columnwise; None if any column has no solution.

    Each (b; 0) is reduced at the top rows of the graph lattice; the top
    reaches zero exactly when M x == b has a solution, and the bottom is
    then -x.

    >>> solve_many(IntMatrix([[2, 0], [0, 3]]), [(4, 9), (2, -3)]).data
    ((2, 1), (3, -1))
    >>> solve_many(IntMatrix([[2, 0], [0, 3]]), [(1, 0)]) is None
    True
    """
    r, n = m.shape
    lat = graph_lattice(m)
    sols = []
    for b in columns:
        b = tuple(b)
        if len(b) != r:
            raise InputError(f"vector of length {len(b)}, expected {r}")
        v = lat.residue(b + (0,) * n, r)
        if any(v[:r]):
            return None
        sols.append([-x for x in v[r:]])
    return IntMatrix.from_columns(sols, n)


def lattice_invariants(relations: IntMatrix) -> tuple[int, tuple]:
    """Canonical form (free rank, invariant factors >= 2) of Z^n / columns.

    Counts the diagonal of a Smith elimination, without transforms, of
    ``relations`` as given.  Pass a Hermite basis (``ColumnLattice.
    basis_matrix``): its entries stay below their pivots, so the
    elimination does not grow them.
    """
    a = _smith_work(relations, track=False)
    diag = [a[i][i] for i in range(min(relations.shape))]
    rank = sum(1 for d in diag if d != 0)
    return relations.rows - rank, tuple(d for d in diag if d >= 2)
