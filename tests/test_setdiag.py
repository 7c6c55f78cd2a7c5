"""Set-valued diagrams: limits, colimits, restriction, interchange.

Universality is probed exhaustively with vertex sizes up to 3, a bound
documented with the suite; the probes themselves are enumerated by brute
force, independent of the (co)limit construction.
"""

from itertools import product as iproduct

import pytest

from abcat.errors import InputError, PreconditionError
from abcat.fincat import (FinCategory, FinFunctor, chain_category, discrete_category,
                          full_subcategory, group_as_category, identity_functor,
                          parallel_pair_category, product_category, span_category)
from abcat.harting import hx_category
from abcat.setdiag import (Cocone, FinSet, SetFunctor, commute_check,
                           fixed_points, fixed_point_indices, interchange, limit_points,
                           restrict_along, set_colimit, set_limit, validate_functor)
from cat_corpus import Z2_TABLE, constant_functor


def involution_diagram(table):
    bg = group_as_category(Z2_TABLE)
    return SetFunctor(bg, [FinSet(len(table))],
                      [tuple(range(len(table))), tuple(table)])


def test_validate_constant():
    cat = chain_category(3)
    d = constant_functor(cat, FinSet(3))
    assert validate_functor(d).ok


def test_validate_broken_identity():
    cat = discrete_category(1)
    d = SetFunctor(cat, [FinSet(2)], [(1, 0)])
    report = validate_functor(d)
    assert any("identity" in p for p in report.problems)


def test_validate_non_involutive_swap():
    # oracle: sigma o sigma must be the identity table
    sigma = (1, 2, 0)
    composed = tuple(sigma[sigma[i]] for i in range(3))
    assert composed != (0, 1, 2)
    report = validate_functor(involution_diagram(sigma))
    assert any("composite" in p for p in report.problems)
    assert validate_functor(involution_diagram((1, 0, 2))).ok


def test_validate_arity_mismatch_raises():
    cat = discrete_category(1)
    with pytest.raises(InputError):
        SetFunctor(cat, [FinSet(2)], [(0,)])
    with pytest.raises(InputError):
        SetFunctor(cat, [FinSet(2)], [(0, 5)])


def test_a_rule_valued_table_is_checked_on_its_first_read():
    cat = discrete_category(1)
    short = SetFunctor(cat, [FinSet(2)], lambda m: (0,))
    with pytest.raises(InputError, match="^table for morphism 0 has arity 1, expected 2$"):
        short.table(0)
    wide = SetFunctor(cat, [FinSet(2)], lambda m: (0, 5))
    with pytest.raises(InputError, match="^table for morphism 0 sends 1 to 5, "
                                         "outside codomain of size 2$"):
        wide.tables
    with pytest.raises(InputError, match="^one carrier per object required$"):
        SetFunctor(cat, [], lambda m: (0,))


def test_rule_valued_and_tabled_diagrams_compare_by_their_tables():
    cat = chain_category(3)
    sets = [FinSet(2), FinSet(3), FinSet(1)]
    tabled = SetFunctor(cat, sets, _chain3_tables())
    ruled = SetFunctor(cat, sets, lambda m: _chain3_tables()[m])
    assert ruled == tabled and tabled == ruled and hash(ruled) == hash(tabled)
    assert ruled.table(3) == tabled.table(3) == tabled.tables[3]
    swapped = SetFunctor(cat, sets, lambda m: (1, 0) if m == cat.identity[0] else ruled.table(m))
    assert swapped != tabled and len({tabled, ruled, swapped}) == 2


def test_limit_product_case():
    base = discrete_category(2)
    d = SetFunctor(base, [FinSet(2), FinSet(3)],
                   [(0, 1), (0, 1, 2)])
    carrier, cone = set_limit(d)
    assert carrier.size == 6
    pts = limit_points(cone)
    assert pts == sorted(pts)


def test_limit_initial_object_case():
    # all transitions are identities; the limit matches the initial value
    cat = chain_category(3)
    d = SetFunctor(cat, [FinSet(2), FinSet(2), FinSet(2)],
                   [tuple(range(2)) for _ in range(cat.n_morphisms)])
    carrier, cone = set_limit(d)
    assert carrier.size == 2


def test_limit_equalizer_brute_force():
    base = parallel_pair_category()
    d = SetFunctor(base, [FinSet(2), FinSet(2)],
                   [(0, 1), (0, 1), (0, 1), (0, 0)])
    # oracle: brute-force tuple filter
    expected = [(x0, x1) for x0 in range(2) for x1 in range(2)
                if x1 == x0 and x1 == 0]
    carrier, cone = set_limit(d)
    assert limit_points(cone) == expected
    assert carrier.size == 1


def test_limit_empty_base_is_singleton():
    from abcat.fincat import FinCategory
    empty = FinCategory(0, [], [], [])
    d = SetFunctor(empty, [], [])
    carrier, cone = set_limit(d)
    assert carrier.size == 1
    assert cone.components == ()


def test_colimit_disjoint_union():
    base = discrete_category(2)
    d = SetFunctor(base, [FinSet(2), FinSet(3)], [(0, 1), (0, 1, 2)])
    carrier, cocone = set_colimit(d)
    assert carrier.size == 5


def test_colimit_one_object_identity():
    base = discrete_category(1)
    d = SetFunctor(base, [FinSet(4)], [(0, 1, 2, 3)])
    carrier, cocone = set_colimit(d)
    assert carrier.size == 4
    assert cocone.components[0] == (0, 1, 2, 3)


def test_colimit_merge_with_union_find_oracle():
    base = parallel_pair_category()
    cap = (1, 2, 2)
    d = SetFunctor(base, [FinSet(3), FinSet(3)],
                   [(0, 1, 2), (0, 1, 2), (0, 1, 2), cap])
    # oracle: independent union-find over the tagged union
    parent = list(range(6))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    def union(a, b):
        parent[find(a)] = find(b)

    for x in range(3):
        union(x, 3 + x)        # f = id
        union(x, 3 + cap[x])   # g = successor with cap
    expected = len({find(x) for x in range(6)})
    carrier, _ = set_colimit(d)
    assert carrier.size == expected == 1


def test_colimit_empty_base_is_empty():
    from abcat.fincat import FinCategory
    empty = FinCategory(0, [], [], [])
    carrier, _ = set_colimit(SetFunctor(empty, [], []))
    assert carrier.size == 0


def test_colimit_representatives_least_pair():
    base = parallel_pair_category()
    d = SetFunctor(base, [FinSet(1), FinSet(2)], [(0,), (0, 1), (0,), (1,)])
    carrier, cocone = set_colimit(d)
    assert carrier.size == 1
    assert carrier.labels[0].startswith("0.")


def test_colimit_glues_along_generators_like_all_morphisms():
    # word (n, x) -> triples (i, j, e): positions i, j and an element e of
    # letter x_i's set; an index map f sends (i, j, e) to (f(i), f(j), e)
    hx = hx_category(FinSet(2), 3)
    base = hx
    assert base.generators is not None
    every = FinCategory(base.n_objects, base.dom, base.cod, base.identity,
                        object_labels=base.object_labels)
    sizes = (2, 3)
    elements = [[(i, j, e) for i in range(o.arity) for j in range(o.arity)
                 for e in range(sizes[o.word[i]])] for o in hx.objects]
    index = [{t: k for k, t in enumerate(elems)} for elems in elements]
    tables = [tuple(index[ti][(f[i], f[j], e)] for i, j, e in elements[si])
              for si, ti, f in hx.morphisms]
    sets = [FinSet(len(elems)) for elems in elements]
    carrier, cocone = set_colimit(SetFunctor(base, sets, tables))
    reference, ref_cocone = set_colimit(SetFunctor(every, sets, tables))
    assert carrier.size == reference.size == 10
    assert carrier.labels == reference.labels
    assert cocone.components == ref_cocone.components


def test_restrict_identity_and_constant():
    cat = chain_category(3)
    d = SetFunctor(cat, [FinSet(2), FinSet(3), FinSet(1)],
                   [d_table for d_table in _chain3_tables()])
    assert restrict_along(identity_functor(cat), d) == d
    const = FinFunctor(discrete_category(2), cat, [1, 1],
                       [cat.identity[1], cat.identity[1]])
    r = restrict_along(const, d)
    assert r.sets == (d.sets[1], d.sets[1])
    assert r == SetFunctor(const.source, r.sets, [d.tables[cat.identity[1]]] * 2)


def _chain3_tables():
    cat = chain_category(3)
    sizes = [2, 3, 1]
    tables = []
    for m in range(cat.n_morphisms):
        a, b = cat.dom[m], cat.cod[m]
        if a == b:
            tables.append(tuple(range(sizes[a])))
        else:
            tables.append(tuple(min(x, sizes[b] - 1) for x in range(sizes[a])))
    return tables


def test_restrict_top_inclusion_table_composition():
    cat = chain_category(3)
    d = SetFunctor(cat, [FinSet(2), FinSet(3), FinSet(1)], _chain3_tables())
    _, incl = full_subcategory(cat, [2])
    r = restrict_along(incl, d)
    assert r.sets == (d.sets[2],)
    assert r.tables == (d.tables[cat.identity[2]],)
    assert r == SetFunctor(incl.source, r.sets, [d.tables[m] for m in incl.on_morphisms])


# --- universality probes (vertex size <= 3, enumerated exhaustively) -------


def corpus_diagrams():
    eq = SetFunctor(parallel_pair_category(), [FinSet(2), FinSet(2)],
                    [(0, 1), (0, 1), (0, 1), (1, 0)])
    chain = SetFunctor(chain_category(3), [FinSet(2), FinSet(3), FinSet(1)],
                       _chain3_tables())
    sp = span_category()
    span_d = SetFunctor(sp, [FinSet(2), FinSet(2), FinSet(2)],
                        [(0, 1), (0, 1), (0, 1), (1, 0), (0, 0)])
    return [eq, chain, span_d]


def enumerate_cones(d, size):
    """All cones with a given vertex size, by brute force."""
    base = d.base
    per_object = [list(iproduct(range(d.sets[c].size), repeat=size))
                  for c in range(base.n_objects)]
    for combo in iproduct(*per_object):
        ok = True
        for m in range(base.n_morphisms):
            a, b = base.dom[m], base.cod[m]
            if any(d.tables[m][combo[a][i]] != combo[b][i] for i in range(size)):
                ok = False
                break
        if ok:
            yield combo


def test_limit_universality_probes():
    for d in corpus_diagrams():
        carrier, cone = set_limit(d)
        index = {p: i for i, p in enumerate(limit_points(cone))}
        for size in range(4):
            for combo in enumerate_cones(d, size):
                factorizations = []
                candidates = list(iproduct(range(carrier.size), repeat=size))
                for cand in candidates:
                    if all(cone.components[c][cand[i]] == combo[c][i]
                           for c in range(d.base.n_objects)
                           for i in range(size)):
                        factorizations.append(cand)
                assert len(factorizations) == 1


def enumerate_cocones(d, size):
    base = d.base
    per_object = [list(iproduct(range(size), repeat=d.sets[c].size))
                  for c in range(base.n_objects)]
    for combo in iproduct(*per_object):
        ok = True
        for m in range(base.n_morphisms):
            a, b = base.dom[m], base.cod[m]
            if any(combo[b][d.tables[m][x]] != combo[a][x]
                   for x in range(d.sets[a].size)):
                ok = False
                break
        if ok:
            yield combo


def test_colimit_couniversality_probes():
    for d in corpus_diagrams():
        carrier, cocone = set_colimit(d)
        for size in range(4):
            for combo in enumerate_cocones(d, size):
                factorizations = []
                for cand in iproduct(range(size), repeat=carrier.size):
                    if all(cand[cocone.components[c][x]] == combo[c][x]
                           for c in range(d.base.n_objects)
                           for x in range(d.sets[c].size)):
                        factorizations.append(cand)
                assert len(factorizations) == 1


# --- interchange and fixed points -------------------------------------------


def test_commute_discrete_two():
    # non-identity transitions collapse to a basepoint; sizes vary
    f_cat = chain_category(3)
    d_cat = discrete_category(2)
    prod = product_category(f_cat, d_cat)
    sets = [FinSet(2 + (a + c) % 2)
            for a in range(f_cat.n_objects) for c in range(d_cat.n_objects)]
    tables = []
    for p in range(f_cat.n_morphisms):
        for q in range(d_cat.n_morphisms):
            m = prod.pair_morphism(p, q)
            src = sets[prod.dom[m]].size
            if prod.identity[prod.dom[m]] == m:
                tables.append(tuple(range(src)))
            else:
                tables.append((0,) * src)
    x = SetFunctor(prod, sets, tables)
    assert validate_functor(x).ok
    rep = commute_check(f_cat, d_cat, x)
    assert rep.bijective
    assert rep.lhs.size == rep.rhs.size


def test_commute_seeded_random_instances():
    from random import Random
    from abcat.sampling import random_commute_instance
    rng = Random(99)
    shapes = [discrete_category(2), parallel_pair_category(), span_category()]
    for t in range(12):
        shape = shapes[t % 3]
        f_cat, _, x = random_commute_instance(rng, 2 + t % 3, shape, 4)
        assert validate_functor(x).ok
        rep = commute_check(f_cat, shape, x)
        assert rep.bijective, rep.failure


def test_commute_constant_diagram():
    f_cat = chain_category(2)
    d_cat = parallel_pair_category()
    prod = product_category(f_cat, d_cat)
    x = constant_functor(prod, FinSet(3))
    rep = commute_check(f_cat, d_cat, x)
    assert rep.bijective
    # both sides are the limit of the constant parallel pair, i.e. 3
    assert rep.lhs.size == 3


def test_commute_catches_an_ill_defined_comparison(monkeypatch):
    # a first colimit (colim lim X) that moves the points of class 1 into
    # class 0 leaves class 0 with members of different images
    from abcat import setdiag
    f_cat = chain_category(2)
    d_cat = parallel_pair_category()
    x = constant_functor(product_category(f_cat, d_cat), FinSet(3))
    colimit, calls = setdiag.set_colimit, []

    def merged(d):
        carrier, cocone = colimit(d)
        if not calls:
            cocone = cocone._replace(components=tuple(
                tuple(0 if k == 1 else k for k in table) for table in cocone.components))
        calls.append(d)
        return carrier, cocone

    monkeypatch.setattr(setdiag, "set_colimit", merged)
    rep = commute_check(f_cat, d_cat, x)
    assert (rep.bijective, rep.failure) == (False, "comparison map is not well defined")


def test_commute_requires_filtered():
    f_cat = discrete_category(2)
    d_cat = discrete_category(2)
    prod = product_category(f_cat, d_cat)
    x = constant_functor(prod, FinSet(2))
    with pytest.raises(PreconditionError):
        commute_check(f_cat, d_cat, x)


def test_commute_requires_product_base():
    d = constant_functor(chain_category(2), FinSet(2))
    with pytest.raises(InputError):
        commute_check(chain_category(2), discrete_category(1), d)


def test_commute_rejects_a_non_functor():
    # chain(2) x 1 whose identity at the bottom object swaps two points
    f_cat, d_cat = chain_category(2), discrete_category(1)
    prod = product_category(f_cat, d_cat)
    tables = [(1, 0) if m == prod.identity[0] else (0, 1) for m in range(prod.n_morphisms)]
    x = SetFunctor(prod, [FinSet(2)] * 2, tables)
    with pytest.raises(InputError, match="diagram breaks functor laws"):
        commute_check(f_cat, d_cat, x)


def test_commute_with_order_three_group_factor():
    # the finite factor has non-trivial composition (g o g = g^2 != id):
    # three stages of Z/3-sets, each a 3-cycle plus a fixed point, linked
    # by equivariant steps (cycle onto cycle, fixed point onto fixed point)
    Z3 = [[0, 1, 2], [1, 2, 0], [2, 0, 1]]
    bg = group_as_category(Z3)
    f_cat = chain_category(3)
    perms = [(1, 2, 0, 3), (1, 2, 0, 3), (0,)]
    carriers = [FinSet(len(p)) for p in perms]
    steps = [(0, 1, 2, 3), (0, 0, 0, 0)]

    def transition(i, j):
        table = list(range(carriers[i].size))
        for k in range(i, j):
            table = [steps[k][v] for v in table]
        return table

    prod = product_category(f_cat, bg)
    tables = []
    for pm in range(f_cat.n_morphisms):
        i, j = f_cat.dom[pm], f_cat.cod[pm]
        move = transition(i, j)
        for g in range(3):
            out = list(move)
            for _ in range(g):
                out = [perms[j][v] for v in out]
            tables.append(tuple(out))
    x = SetFunctor(prod, list(carriers), tables)
    assert validate_functor(x).ok, validate_functor(x).problems[:3]
    rep = commute_check(f_cat, bg, x)
    assert rep.bijective, rep.failure
    assert rep.lhs.size == rep.rhs.size == 1


def test_interchange_needs_filteredness_negative_control():
    # over a discrete (non-filtered) first factor the two sides genuinely
    # differ: sum of products vs product of sums
    f_cat = discrete_category(2)
    d_cat = discrete_category(2)
    prod = product_category(f_cat, d_cat)
    x = constant_functor(prod, FinSet(1))
    lim_sizes = []
    for a in range(2):
        inj = FinFunctor(d_cat, prod,
                         [prod.pair_object(a, c) for c in range(2)],
                         [prod.pair_morphism(f_cat.identity[a], m)
                          for m in range(d_cat.n_morphisms)])
        carrier, _ = set_limit(restrict_along(inj, x))
        lim_sizes.append(carrier.size)
    colim_sizes = []
    for c in range(2):
        inj = FinFunctor(f_cat, prod,
                         [prod.pair_object(a, c) for a in range(2)],
                         [prod.pair_morphism(m, d_cat.identity[c])
                          for m in range(f_cat.n_morphisms)])
        carrier, _ = set_colimit(restrict_along(inj, x))
        colim_sizes.append(carrier.size)
    lhs = sum(lim_sizes)          # colimit over discrete = disjoint union
    rhs = 1
    for s in colim_sizes:         # limit over discrete = product
        rhs *= s
    assert lhs == 2 and rhs == 4
    assert lhs != rhs


def test_fixed_points_examples():
    # trivial action: everything fixed
    triv = involution_diagram((0, 1))
    assert fixed_points(triv).size == 2
    # swap on two points: nothing fixed (oracle: brute force)
    swap = involution_diagram((1, 0))
    oracle = [i for i in range(2) if (1, 0)[i] == i]
    assert fixed_points(swap).size == len(oracle) == 0
    # swap first two of three: only the last point is fixed
    partial = involution_diagram((1, 0, 2))
    oracle = tuple(i for i in range(3) if (1, 0, 2)[i] == i)
    assert fixed_point_indices(partial) == oracle == (2,)
    assert fixed_points(partial).labels == ("2",)


def test_final_restriction_invariance():
    from abcat.fincat import diamond_category
    from abcat.verify import verify_final_restriction
    cat = diamond_category()
    # transitively consistent diagram from cover maps
    sizes = [3, 2, 2, 2]
    covers = {(0, 1): (0, 1, 1), (0, 2): (1, 0, 0), (1, 3): (0, 1), (2, 3): (1, 0)}
    covers[(0, 3)] = tuple(covers[(1, 3)][covers[(0, 1)][x]] for x in range(3))
    assert covers[(0, 3)] == tuple(covers[(2, 3)][covers[(0, 2)][x]] for x in range(3))
    tables = []
    for m in range(cat.n_morphisms):
        a, b = cat.dom[m], cat.cod[m]
        tables.append(tuple(range(sizes[a])) if a == b else covers[(a, b)])
    d = SetFunctor(cat, [FinSet(s) for s in sizes], tables)
    assert validate_functor(d).ok
    _, incl = full_subcategory(cat, [3])
    report = verify_final_restriction(incl, d)
    assert report.ok, report.details
    # identity functors are final and trivially invariant
    report = verify_final_restriction(identity_functor(cat), d)
    assert report.ok


def test_sifted_products_on_chain():
    from abcat.verify import verify_sifted_products
    base = chain_category(3)
    g = SetFunctor(base, [FinSet(2), FinSet(2), FinSet(1)], _chain3_tables_for([2, 2, 1]))
    h = SetFunctor(base, [FinSet(3), FinSet(2), FinSet(2)], _chain3_tables_for([3, 2, 2]))
    assert validate_functor(g).ok and validate_functor(h).ok
    report = verify_sifted_products(g, h)
    assert report.ok, report.details


def test_sifted_products_reject_a_class_sent_two_ways(monkeypatch):
    from abcat import setdiag, verify
    base = chain_category(3)
    g = SetFunctor(base, [FinSet(2), FinSet(2), FinSet(1)], _chain3_tables_for([2, 2, 1]))
    h = SetFunctor(base, [FinSet(3), FinSet(2), FinSet(2)], _chain3_tables_for([3, 2, 2]))
    colimit = setdiag.set_colimit

    def swapped_at_bottom(d):
        # the product's two classes swapped at object 0 only; the insertions
        # at objects 1 and 2, read last, would still give a bijection
        carrier, cocone = colimit(d)
        if d.base is base and d.sets[0].size == 6:
            bottom = tuple(1 - k for k in cocone.components[0])
            cocone = Cocone(carrier, (bottom, *cocone.components[1:]))
        return carrier, cocone

    monkeypatch.setattr(setdiag, "set_colimit", swapped_at_bottom)
    report = verify.verify_sifted_products(g, h)
    assert not report.ok
    assert report.details["canonical bijection"] is False


def _chain3_tables_for(sizes):
    cat = chain_category(3)
    tables = []
    for m in range(cat.n_morphisms):
        a, b = cat.dom[m], cat.cod[m]
        if a == b:
            tables.append(tuple(range(sizes[a])))
        else:
            tables.append(tuple(min(x, sizes[b] - 1) for x in range(sizes[a])))
    return tables


def test_interchange_answers_where_the_hypothesis_fails():
    from abcat.verify import verify_sifted_products
    # the parallel pair is not sifted: f and g send the one point of F(0)
    # to different points of F(1), so the diagonal pairs (0, 0) and (1, 1)
    # meet in colim F x F, which keeps 3 of 4 points, against 1 x 1
    # morphisms id0, id1, f, g
    f = SetFunctor(parallel_pair_category(), [FinSet(1), FinSet(2)],
                   [(0,), (0, 1), (0,), (1,)])
    assert validate_functor(f).ok
    report = verify_sifted_products(f, f)
    assert not report.ok
    assert report.details["sifted base"] is False
    assert report.details["colim of product"] == 3
    assert report.details["product of colims"] == 1
    # discrete(2) x discrete(2) is refused by commute_check; the interchange
    # answers: two copies of 2 x 2 points against (2 + 2) x (2 + 2)
    x = constant_functor(product_category(discrete_category(2), discrete_category(2)),
                         FinSet(2))
    rep = interchange(x)
    assert rep.bijective is False
    assert rep.failure == "comparison map is not a bijection"
    assert (rep.lhs.size, rep.rhs.size) == (8, 16)
    with pytest.raises(InputError, match="^diagram base is not a product category$"):
        interchange(f)


# --- samplers ----------------------------------------------------------------


def test_natural_step_constrains_a_component_by_an_earlier_one(monkeypatch):
    from random import Random
    from abcat import sampling
    # the arrow runs 1 -> 0, so tau at 1 must meet tau at 0, drawn first
    arrow = 2
    shape = FinCategory(2, [0, 1, 1], [0, 1, 0], [0, 1],
                        {(0, 0): 0, (1, 1): 1, (arrow, 1): arrow, (0, arrow): arrow})
    draws = []
    draw = sampling.random_shape_functor
    monkeypatch.setattr(sampling, "random_shape_functor",
                        lambda *args: draws.append(args) or draw(*args))
    for seed in range(20):
        rng = Random(seed)
        h = draw(rng, shape, 4)
        h2, tau = sampling._natural_step(rng, shape, h, 4)
        assert all(tau[0][h.tables[arrow][x]] == h2.tables[arrow][tau[1][x]]
                   for x in range(h.sets[1].size))
    # a draw whose arrow misses tau at 0 leaves no choice at 1 and is redrawn
    assert len(draws) > 20


def test_poset_sampler_refuses_covers_that_do_not_generate():
    from random import Random
    from abcat.sampling import random_poset_functor
    with pytest.raises(InputError, match="poset has a relation not generated by covers"):
        random_poset_functor(Random(0), chain_category(3), [(0, 1)])


def test_poset_sampler_refuses_covers_that_are_not_relations():
    from random import Random
    from abcat.sampling import random_poset_functor
    with pytest.raises(InputError, match=r"cover \(2, 0\) is not a relation of the poset"):
        random_poset_functor(Random(0), chain_category(3), [(0, 1), (1, 2), (2, 0)])


def test_poset_sampler_draws_are_pinned():
    # 100 seeds on each of four shapes, the last with the redundant cover
    # (0, 2); the digest covers each draw and the generator state after it
    import hashlib
    from random import Random
    from abcat.fincat import diamond_category, poset_category
    from abcat.sampling import DIAMOND_COVERS, random_poset_functor
    grid = poset_category(6, [(a, b) for a in range(6) for b in range(6)
                              if a != b and a // 3 <= b // 3 and a % 3 <= b % 3])
    shapes = [(diamond_category(), DIAMOND_COVERS),
              (chain_category(4), ((0, 1), (1, 2), (2, 3))),
              (grid, ((0, 1), (1, 2), (3, 4), (4, 5), (0, 3), (1, 4), (2, 5))),
              (chain_category(3), ((0, 1), (1, 2), (0, 2)))]
    digest = hashlib.sha256()
    for poset, covers in shapes:
        for seed in range(100):
            rng = Random(seed)
            x = random_poset_functor(rng, poset, covers)
            digest.update(repr((x.sets, x.tables, rng.random())).encode())
    assert digest.hexdigest() == \
        "06c324b7e91d3d4e041e0b44b6d0578e1fae8a3bcd4815e6307c9f0d6c545b7f"


def test_interchange_fixed_points_and_products_refuse_mismatched_bases():
    from abcat.verify import verify_sifted_products
    two = SetFunctor(discrete_category(2), [FinSet(1), FinSet(1)], [(0,), (0,)])
    one = SetFunctor(discrete_category(1), [FinSet(1)], [(0,)])
    x = SetFunctor(product_category(chain_category(1), discrete_category(2)),
                   [FinSet(1), FinSet(1)], [(0,), (0,)])
    with pytest.raises(InputError, match="^diagram base is not the product of the given factors$"):
        commute_check(chain_category(2), discrete_category(2), x)
    with pytest.raises(InputError, match="^fixed points require a one-object base$"):
        fixed_point_indices(two)
    with pytest.raises(InputError, match="^pointwise product needs a shared base$"):
        verify_sifted_products(one, two)
