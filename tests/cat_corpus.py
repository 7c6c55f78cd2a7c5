"""Shared fixture corpus for the test suite, and the constructions and
oracles that only tests use."""

from itertools import permutations
from math import gcd
from random import Random

from abcat.abdiag import AbDiagram
from abcat.abgrp import AbHom, FGAbGroup, canonicalize, hom_compose, identity_hom
from abcat.errors import InputError
from abcat.fincat import (FinCategory, FinFunctor, ProductCategory, chain_category,
                          cospan_category, diamond_category, discrete_category,
                          group_as_category, parallel_pair_category, poset_category,
                          product_category, span_category)
from abcat.intmat import IntMatrix
from abcat.setdiag import FinSet, SetFunctor


def terminal_category() -> FinCategory:
    return discrete_category(1)


def diagonal_functor(c: FinCategory) -> tuple[FinFunctor, ProductCategory]:
    """The functor x -> (x, x) into the product of c with itself."""
    p = product_category(c, c)
    on_obj = [p.pair_object(a, a) for a in range(c.n_objects)]
    on_mor = [p.pair_morphism(m, m) for m in range(c.n_morphisms)]
    return FinFunctor(c, p, on_obj, on_mor), p


def constant_functor(base: FinCategory, value: FinSet) -> SetFunctor:
    ident = tuple(range(value.size))
    return SetFunctor(base, (value,) * base.n_objects, (ident,) * base.n_morphisms)


def constant_diagram(base: FinCategory, group: FGAbGroup) -> AbDiagram:
    return AbDiagram(base, (group,) * base.n_objects,
                     tuple(identity_hom(group) for _ in range(base.n_morphisms)))


def determinant(m: IntMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    if m.rows != m.cols:
        raise InputError("determinant of a non-square matrix")
    n = m.rows
    if n == 0:
        return 1
    a = [list(row) for row in m.data]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if a[i][k]), None)
            if pivot is None:
                return 0
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def random_hom(rng: Random, a: FGAbGroup, b: FGAbGroup) -> AbHom:
    """A messy but well-defined homomorphism; multipliers lie in [-3, 3]."""
    ca = canonicalize(a)
    cb = canonicalize(b)
    src, tgt = ca.canonical, cb.canonical
    src_orders = _canonical_orders(src)
    tgt_orders = _canonical_orders(tgt)
    rows = [[0] * src.gens for _ in range(tgt.gens)]
    for j, dj in enumerate(src_orders):
        for i, ei in enumerate(tgt_orders):
            if dj == 0:
                rows[i][j] = rng.randint(-3, 3)
            elif ei == 0:
                rows[i][j] = 0
            else:
                step = ei // gcd(ei, dj)
                k = rng.randint(-3, 3)
                rows[i][j] = k * step
    middle = AbHom(src, tgt, IntMatrix(rows, shape=(tgt.gens, src.gens)))
    return hom_compose(cb.from_canonical, hom_compose(middle, ca.to_canonical))


def _canonical_orders(group: FGAbGroup):
    free, factors = group.canonical_form
    return list(factors) + [0] * free


Z2_TABLE = ((0, 1), (1, 0))
Z3_TABLE = ((0, 1, 2), (1, 2, 0), (2, 0, 1))
Z4_TABLE = tuple(tuple((i + j) % 4 for j in range(4)) for i in range(4))


def permutation_group_table(n):
    """The symmetric group on n points, permutations in sorted order, with
    entry [g][f] the index of g∘f (f applied first)."""
    perms = sorted(permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    return [[index[tuple(g[f[x]] for x in range(n))] for f in perms] for g in perms]


def powerset_two():
    """Subsets of a two-element set ordered by inclusion (a join-semilattice)."""
    return diamond_category()


def category_corpus():
    """Categories the structural property suites quantify over."""
    return [
        ("terminal", terminal_category()),
        ("discrete2", discrete_category(2)),
        ("discrete3", discrete_category(3)),
        ("chain2", chain_category(2)),
        ("chain3", chain_category(3)),
        ("chain4", chain_category(4)),
        ("parallel", parallel_pair_category()),
        ("span", span_category()),
        ("cospan", cospan_category()),
        ("diamond", diamond_category()),
        ("bz2", group_as_category(Z2_TABLE)),
        ("bz3", group_as_category(Z3_TABLE)),
        ("vee", poset_category(3, [(0, 1), (0, 2)])),
    ]


def semilattice_corpus():
    """Finite join-semilattice posets (every pair has a join)."""
    return [
        ("chain3", chain_category(3)),
        ("chain4", chain_category(4)),
        ("diamond", diamond_category()),
        ("terminal", terminal_category()),
    ]
