"""Helpers shared by the workloads: fixed-size instance drawing, and the
independent arithmetic the verdict checks rely on.

The workloads call abcat through its module namespaces (``abgrp.kernel``,
not a name bound at import), so the wrappers the traced run installs in
those namespaces see every call.
"""

from __future__ import annotations

from abcat import abgrp, intmat


def presented_group(rels):
    """Z^rows modulo the columns of ``rels``, a tuple of row tuples."""
    rows = len(rels)
    cols = len(rels[0]) if rows else 0
    return abgrp.FGAbGroup(rows, intmat.IntMatrix(rels, shape=(rows, cols)))


# ---------------------------------------------------------------------------
# canonical forms, computed without the library


def _prime_powers(n: int) -> dict:
    out = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def form_of_cyclics(free: int, orders) -> tuple:
    """Canonical form of Z^free + sum of Z/d over ``orders``.

    Orders 0 count as free summands and 1 as trivial ones.  The invariant
    factors come from the prime-power decomposition: the k-th largest
    factor multiplies the k-th largest power of every prime.
    """
    exps = {}
    for d in orders:
        if d == 0:
            free += 1
        elif d > 1:
            for p, e in _prime_powers(d).items():
                exps.setdefault(p, []).append(e)
    depth = max((len(v) for v in exps.values()), default=0)
    factors = []
    for k in range(depth):
        f = 1
        for p, es in exps.items():
            es = sorted(es, reverse=True)
            if k < len(es):
                f *= p ** es[k]
        factors.append(f)
    return free, tuple(sorted(factors))


def describe(form) -> str:
    """Render a canonical form the way abcat's reports print it."""
    free, factors = form
    parts = []
    if free == 1:
        parts.append("Z")
    elif free > 1:
        parts.append(f"Z^{free}")
    parts.extend(f"Z/{d}" for d in factors)
    return " x ".join(parts) if parts else "0"


# ---------------------------------------------------------------------------
# plain integer matrices as tuples of row tuples


def mat_vec(rows, vec) -> list:
    return [sum(a * b for a, b in zip(row, vec)) for row in rows]


def mat_mul(a, b) -> tuple:
    cols = list(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in cols) for row in a)


def identity(n: int) -> list:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def unimodular(rng, n: int, ops: int = 4):
    """A random unimodular n x n matrix and its inverse, by row operations."""
    u = identity(n)
    ui = identity(n)
    for _ in range(ops if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        q = rng.choice((-2, -1, 1, 2))
        u[i] = [x + q * y for x, y in zip(u[i], u[j])]
        for r in range(n):
            ui[r][j] -= q * ui[r][i]
    return tuple(map(tuple, u)), tuple(map(tuple, ui))


def combine_columns(rng, rels, count: int):
    """``count`` random integer combinations of the columns of ``rels``."""
    ncols = len(rels[0]) if rels else 0
    extra = []
    for _ in range(count):
        coeffs = [rng.randint(-2, 2) for _ in range(ncols)]
        extra.append([sum(c * row[j] for j, c in enumerate(coeffs)) for row in rels])
    return tuple(tuple(list(row) + [col[i] for col in extra]) for i, row in enumerate(rels))


def block_diag(*blocks) -> tuple:
    rows = sum(len(b) for b in blocks)
    cols = sum(len(b[0]) if b else 0 for b in blocks)
    out = [[0] * cols for _ in range(rows)]
    r0 = c0 = 0
    for b in blocks:
        for i, row in enumerate(b):
            for j, x in enumerate(row):
                out[r0 + i][c0 + j] = x
        r0 += len(b)
        c0 += len(b[0]) if b else 0
    return tuple(map(tuple, out))


def in_column_lattice(u, diagonal, vec) -> bool:
    """Is ``vec`` in the column lattice of M, given a checked U M V == S?

    With U and V unimodular, M y == vec has an integer solution exactly
    when U vec is divisible entrywise by the diagonal of S, and vanishes
    past its rank.
    """
    w = mat_vec(u, vec)
    for i, x in enumerate(w):
        d = diagonal[i] if i < len(diagonal) else 0
        if (d == 0 and x != 0) or (d != 0 and x % d):
            return False
    return True


def divisibility_chain(diagonal) -> bool:
    """Nonnegative entries, each dividing the next, zeros only at the end."""
    if any(d < 0 for d in diagonal):
        return False
    for a, b in zip(diagonal, diagonal[1:]):
        if a == 0 and b != 0:
            return False
        if a != 0 and b % a:
            return False
    return True


def max_bits(*mats) -> int:
    return max((abs(x).bit_length() for m in mats for row in m for x in row), default=0)

