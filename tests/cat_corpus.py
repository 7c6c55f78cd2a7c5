"""Shared fixture corpus for the test suite."""

from itertools import permutations

from abcat.fincat import (chain_category, cospan_category,
                          diamond_category, discrete_category, group_as_category,
                          parallel_pair_category, poset_category, span_category,
                          terminal_category)

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
